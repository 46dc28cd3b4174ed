import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
import weakref

import numpy as np
import pytest

import photodyne
from photodyne import cli
from photodyne.cli import main
from photodyne.config import (
    ENV_OUTDIR,
    ENV_SEED,
    ConfigError,
    DataError,
    ExperimentConfig,
    RunManifest,
)
from photodyne.detection import semiclassical_record
from photodyne.fields import FieldModel, LocalOscillator
from photodyne.numerics import RngStream, TimeGrid
from photodyne.quantum import DEFAULTS, build_system, g2_regression, h_regression
from photodyne.records import (
    load_count_record,
    load_photocurrent,
    read_table,
    save_count_record,
    save_photocurrent,
    write_table,
)

QUANTUM_INI = """\
[run]
source = quantum
seed = 42
duration = 200.0
dt = 0.02
n_trajectories = 16
burn_in = 10.0

[analysis]
max_lag = 6.0
bin_width = 0.5
halfwidth = 6.0
"""

SEMI_INI = """\
[field]
kind = coherent
amplitude = 2.0

[run]
source = semiclassical
seed = 7
duration = 120.0
dt = 0.05
n_trajectories = 2
burn_in = 0.0

[analysis]
max_lag = 6.0
bin_width = 0.5
halfwidth = 6.0
"""


class TestExperimentConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_round_trip_non_defaults(self):
        cfg = ExperimentConfig(
            g=3.0,
            drive=0.1,
            kind="modulated_burst",
            burst_sign="symmetric",
            lo_align=False,
            seed=99,
            dt=0.004,
            jump_fraction=1.0,
            label="edge",
        )
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_hash_changes_with_any_field(self):
        base = ExperimentConfig()
        assert replace(base, seed=1).config_hash() != base.config_hash()
        assert replace(base, label="x").config_hash() != base.config_hash()

    def test_partial_text_fills_defaults(self):
        cfg = ExperimentConfig.from_text("[run]\nseed = 5\n")
        assert cfg.seed == 5
        assert cfg.g == ExperimentConfig().g

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_text("[run]\nseeed = 5\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            ExperimentConfig.from_text("[runtime]\nseed = 5\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            ExperimentConfig.from_text("[run]\nseed = five\n")

    def test_bool_parsing(self):
        for raw, want in [("true", True), ("1", True), ("on", True),
                          ("false", False), ("0", False), ("off", False)]:
            cfg = ExperimentConfig.from_text(f"[detection]\nlo_align = {raw}\n")
            assert cfg.lo_align is want
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("[detection]\nlo_align = maybe\n")

    def test_enum_validation(self):
        with pytest.raises(ConfigError, match="field.kind"):
            ExperimentConfig(kind="laser")
        with pytest.raises(ConfigError, match="burst_sign"):
            ExperimentConfig(burst_sign="negative")
        with pytest.raises(ConfigError, match="run.source"):
            ExperimentConfig(source="classical")

    def test_numeric_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dt=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(duration=-1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(n_trajectories=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(workers=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(jump_fraction=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=-1)

    def test_jump_fraction_endpoints_allowed(self):
        assert ExperimentConfig(jump_fraction=0.0).jump_fraction == 0.0
        assert ExperimentConfig(jump_fraction=1.0).jump_fraction == 1.0

    def test_save_load(self, tmp_path):
        cfg = ExperimentConfig(seed=123)
        path = tmp_path / "c.ini"
        cfg.save(path)
        assert ExperimentConfig.load(path) == cfg

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.load(tmp_path / "absent.ini")

    def test_env_overrides(self):
        cfg = ExperimentConfig()
        out, applied = cfg.with_env_overrides(env={ENV_SEED: "777", ENV_OUTDIR: "/tmp/x"})
        assert out.seed == 777 and out.outdir == "/tmp/x"
        assert applied == {"seed": 777, "outdir": "/tmp/x"}
        same, nothing = cfg.with_env_overrides(env={})
        assert same == cfg and nothing == {}

    def test_env_bad_seed(self):
        with pytest.raises(ConfigError, match="integer"):
            ExperimentConfig().with_env_overrides(env={ENV_SEED: "abc"})

    def test_hashes_frozen(self):
        # the canonical text, and so every config hash, must not drift
        assert ExperimentConfig().config_hash() == (
            "3e1673c50a12ec59d9b11d72fab7ee720e8cb8961d1dba4703cbd1189ddc1773"
        )
        every = ExperimentConfig(
            g=1.25, kappa=2.0, gamma=0.5, drive=0.3, fock_cutoff=10,
            kind="modulated_burst", amplitude=1.5, phase=0.25, mean_intensity=2.5,
            tau_c=3.0, burst_rate=0.1, burst_freq=2.0, burst_decay=0.5,
            burst_amp=0.75, burst_sign="symmetric", lo_amplitude=6.0, lo_phase=0.5,
            lo_align=False, bandwidth=0.75, efficiency=0.8, dark_rate=0.01,
            dead_time=0.05, source="semiclassical", seed=12345, duration=250.0,
            dt=0.01, n_trajectories=7, jump_fraction=0.25, burn_in=5.0, workers=2,
            max_lag=8.0, bin_width=0.5, halfwidth=8.0, n_frequencies=201,
            max_frequency=3.0, si_rate_scale_mhz=10.0, outdir="elsewhere",
            label="every",
        )
        changed = [f for f in fields(ExperimentConfig)
                   if getattr(every, f.name) == f.default]
        assert changed == []
        assert every.config_hash() == (
            "39474b27647e7ff6c6db98369963e75d709d31ed19a89492363edc2c8e12a4ad"
        )


class TestRunManifest:
    def test_json_round_trip(self):
        m = RunManifest(config_hash="ff" * 32, seed=5, source="quantum",
                        files=(("a.txt", 10), ("b.csv", 20)))
        assert RunManifest.from_json(m.to_json()) == m

    def test_bad_json_rejected(self):
        with pytest.raises(DataError, match="bad manifest"):
            RunManifest.from_json("{}")
        with pytest.raises(DataError):
            RunManifest.from_json('{"config_hash": "x", "seed": "NaN?"}')

    def test_for_directory_skips_itself(self, tmp_path):
        # only the named files are listed: not the manifest, not leftovers
        (tmp_path / "a.txt").write_text("12345")
        (tmp_path / "b.txt").write_text("1")
        (tmp_path / "manifest.json").write_text("{}")
        (tmp_path / "report.json").write_text("{}")
        cfg = ExperimentConfig()
        m = RunManifest.for_directory(tmp_path, cfg, ["b.txt", "a.txt"])
        assert m.files == (("a.txt", 5), ("b.txt", 1))
        assert m.config_hash == cfg.config_hash()

    def test_validate_files_catches_truncation(self, tmp_path):
        (tmp_path / "a.txt").write_text("12345")
        cfg = ExperimentConfig()
        m = RunManifest.for_directory(tmp_path, cfg, ["a.txt"])
        m.save(tmp_path)
        (tmp_path / "a.txt").write_text("123")
        with pytest.raises(DataError, match="bytes"):
            RunManifest.load(tmp_path).validate_files(tmp_path)

    def test_validate_files_catches_deletion(self, tmp_path):
        (tmp_path / "a.txt").write_text("12345")
        m = RunManifest.for_directory(tmp_path, ExperimentConfig(), ["a.txt"])
        (tmp_path / "a.txt").unlink()
        with pytest.raises(DataError, match="missing"):
            m.validate_files(tmp_path)

    def test_load_missing(self, tmp_path):
        with pytest.raises(DataError, match="manifest not found"):
            RunManifest.load(tmp_path)


class TestBlackbodyCommand:
    def test_report_to_stdout(self, capsys):
        assert main(["blackbody", "1.0", "--n", "5000", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        for key in ("analytic_discrete", "sampled_discrete",
                    "analytic_continuous", "sampled_continuous"):
            assert "mean" in out[key]

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "bb.json"
        assert main(["blackbody", "0.5", "--n", "2000", "--out", str(target)]) == 0
        json.loads(target.read_text())

    def test_bad_x_is_config_error(self, capsys):
        assert main(["blackbody", "-1.0"]) == 2
        assert main(["blackbody", "1.0", "--n", "1"]) == 2


@pytest.fixture(scope="module")
def quantum_run(tmp_path_factory):
    """One tiny quantum run shared by the pipeline tests."""
    base = tmp_path_factory.mktemp("qrun")
    cfg_path = base / "config.ini"
    cfg_path.write_text(QUANTUM_INI)
    outdir = base / "out"
    code = main(["run", "--config", str(cfg_path), "--outdir", str(outdir)])
    assert code == 0
    return outdir


class TestRunCommand:
    def test_outputs_and_manifest(self, quantum_run):
        names = {p.name for p in quantum_run.iterdir()}
        assert "config.ini" in names and "manifest.json" in names
        for i in range(16):
            assert f"counts_{i:05d}.txt" in names
            assert f"current_{i:05d}.csv" in names
        manifest = RunManifest.load(quantum_run)
        manifest.validate_files(quantum_run)
        cfg = ExperimentConfig.from_text((quantum_run / "config.ini").read_text())
        assert manifest.config_hash == cfg.config_hash()
        assert manifest.seed == 42 and manifest.source == "quantum"

    def test_rerun_is_byte_identical_and_worker_invariant(self, quantum_run, tmp_path):
        cfg = ExperimentConfig.from_text((quantum_run / "config.ini").read_text())
        two = replace(cfg, workers=2)
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(two.to_text())
        outdir = tmp_path / "out2"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        for i in range(16):
            for fmt in ("counts_{:05d}.txt", "current_{:05d}.csv"):
                a = (quantum_run / fmt.format(i)).read_bytes()
                b = (outdir / fmt.format(i)).read_bytes()
                assert a == b, fmt.format(i)

    def test_env_seed_override(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[run]\nsource = quantum\nseed = 1\nduration = 2.0\n"
                            "dt = 0.05\nn_trajectories = 1\nburn_in = 0.0\n")
        monkeypatch.setenv(ENV_SEED, "777")
        outdir = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        assert "environment override: seed = 777" in capsys.readouterr().out
        assert RunManifest.load(outdir).seed == 777

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[run]\nsource = quantum\n")
        monkeypatch.setenv(ENV_SEED, "abc")
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[run]\nspeed = 9\n")
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "no.ini")]) == 2


class TestAnalyzeCompareAudit:
    def test_analyze_writes_series_and_report(self, quantum_run, capsys):
        assert main(["analyze", "--indir", str(quantum_run)]) == 0
        for name in ("g2.csv", "h.csv", "squeezing.csv", "report.json"):
            assert (quantum_run / name).is_file(), name
        report = json.loads((quantum_run / "report.json").read_text())
        assert report["n_records"] == 16
        assert report["audit"]["overall"] in ("violated", "satisfied", "inconclusive")
        assert report["si"]["rate_unit_mhz"] == 20.0
        assert report["si"]["linewidth_anchor_mhz"] == pytest.approx(40.0)

    def test_compare_quantum_run(self, quantum_run, capsys):
        code = main(["compare", "--indir", str(quantum_run)])
        assert code == 0
        result = json.loads((quantum_run / "compare.json").read_text())
        assert result["h"]["n_bins"] > 0
        assert math.isfinite(result["g2_zero_regression"])

    def test_audit_exit_zero_and_file(self, quantum_run, capsys):
        assert main(["audit", "--indir", str(quantum_run)]) == 0
        audit = json.loads((quantum_run / "audit.json").read_text())
        names = [c["name"] for c in audit["checks"]]
        assert names == ["g2_zero", "g2_falloff", "h_range"]

    def test_analyze_missing_dir_exits_3(self, tmp_path, capsys):
        assert main(["analyze", "--indir", str(tmp_path)]) == 3

    def test_smaller_rerun_into_used_directory(self, tmp_path, capsys):
        # a previous run's records and analysis outputs must not leak in
        cfg_path = tmp_path / "c.ini"
        outdir = tmp_path / "out"
        for n, seed in ((6, 5), (3, 8)):
            cfg_path.write_text(QUANTUM_INI.replace("seed = 42", f"seed = {seed}")
                                .replace("n_trajectories = 16", f"n_trajectories = {n}"))
            assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
            assert main(["analyze", "--indir", str(outdir)]) == 0
            report = json.loads((outdir / "report.json").read_text())
            assert report["n_records"] == n
        assert len(RunManifest.load(outdir).files) == 1 + 2 * 3
        assert main(["compare", "--indir", str(outdir)]) == 0

    def test_compare_without_oscillation(self, tmp_path, capsys):
        # at g = 0 the regression g2 is flat: no oscillating pole to report
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[system]\ng = 0.0\n\n" + QUANTUM_INI.replace("duration = 200.0", "duration = 60.0")
                            .replace("n_trajectories = 16", "n_trajectories = 4"))
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        assert main(["analyze", "--indir", str(outdir)]) == 0
        assert main(["compare", "--indir", str(outdir)]) == 0
        result = json.loads((outdir / "compare.json").read_text())
        assert result["g2_peak_regression"] is None
        # the sampled g2 is flat in expectation: its noise poles are not named
        assert result["g2_peak_mc"] is None

    @pytest.mark.parametrize(
        "bin_width, max_lag", [(0.25, 8.0), (0.1, 6.0)], ids=["partial_last_bin", "edges_on_samples"]
    )
    def test_compare_pools_exact_h_into_estimator_bins(self, tmp_path, capsys, bin_width, max_lag):
        # an h.csv holding the exact h, averaged over each estimator bin's
        # samples (12 at bin 0.25, the last bin just the sample at lag 6.0;
        # 5 at bin 0.1), must read as the regression curve itself
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(
            QUANTUM_INI.replace("max_lag = 6.0", f"max_lag = {max_lag}")
            .replace("bin_width = 0.5", f"bin_width = {bin_width}")
        )
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        assert main(["analyze", "--indir", str(outdir)]) == 0
        meta, header, (lags, values, stderr) = read_table(outdir / "h.csv")
        m = int(round(bin_width / 0.02))
        exact = h_regression(build_system(DEFAULTS), TimeGrid(0.0, 0.02, 301)).values
        post = lags >= 0
        assert post.sum() == -(-exact.size // m)
        values[post] = [exact[j * m : (j + 1) * m].mean() for j in range(post.sum())]
        stderr[post] = 1e-9
        write_table(outdir / "h.csv", meta, header, [lags, values, stderr])
        assert main(["compare", "--indir", str(outdir)]) == 0
        h = json.loads((outdir / "compare.json").read_text())["h"]
        assert h["n_bins"] == post.sum()
        assert h["max_abs_z"] < 1.0

    @pytest.mark.parametrize("bin_width", [0.1, 0.25])
    def test_compare_takes_exact_g2_bin_means(self, tmp_path, capsys, bin_width):
        # a g2.csv holding the exact g2's mean over each estimator bin
        # [i w, (i+1) w), from a trapezoid at dt 0.0005, must read as the
        # regression curve itself when compare works on the run's dt 0.02
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(QUANTUM_INI.replace("bin_width = 0.5", f"bin_width = {bin_width}"))
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        assert main(["analyze", "--indir", str(outdir)]) == 0
        meta, header, (lags, values, stderr) = read_table(outdir / "g2.csv")
        fine = g2_regression(build_system(DEFAULTS), TimeGrid(0.0, 0.0005, 12001))
        exact = fine.values[fine.lags >= 0]
        area = np.concatenate([[0.0], np.cumsum(0.5 * (exact[1:] + exact[:-1]) * 0.0005)])
        m = int(round(bin_width / 0.0005))
        assert lags.size == 6.0 / bin_width
        values[:] = (area[m :: m] - area[: -m : m]) / bin_width
        stderr[:] = 1e-4
        write_table(outdir / "g2.csv", meta, header, [lags, values, stderr])
        assert main(["compare", "--indir", str(outdir)]) == 0
        g2 = json.loads((outdir / "compare.json").read_text())["g2"]
        assert g2["n_bins"] == lags.size
        assert g2["max_abs_z"] < 1.0

    def test_analyze_without_click_pairs_skips_g2(self, tmp_path, capsys):
        # 4 records with 3 clicks, none holding two: no pair, so no g2,
        # but every click still triggers h
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(QUANTUM_INI.replace("n_trajectories = 16", "n_trajectories = 4"))
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        (outdir / "g2.csv").write_text("left by an earlier run\n")
        assert main(["analyze", "--indir", str(outdir)]) == 0
        assert "g2 skipped" in capsys.readouterr().out
        assert not (outdir / "g2.csv").exists()
        report = json.loads((outdir / "report.json").read_text())
        assert report["n_events"] == 3 and report["n_triggers"] == 3
        assert report["g2_zero"] is None and report["g2_zero_stderr"] is None
        assert report["g2_oscillation_omega"] is None
        verdicts = {c["name"]: c["verdict"] for c in report["audit"]["checks"]}
        assert verdicts["g2_zero"] == verdicts["g2_falloff"] == "inconclusive"
        assert read_table(outdir / "h.csv")[0]["n_triggers"] == "3"

    def test_analyze_holds_one_record_pair_at_a_time(self, quantum_run, monkeypatch):
        # analyze streams the run: when a current file is read, at most the
        # record read just before it may still be alive
        loaded, alive = [], []

        def load(path):
            gc.collect()
            alive.append(sum(ref() is not None for ref in loaded))
            rec = load_photocurrent(path)
            loaded.append(weakref.ref(rec))
            return rec

        monkeypatch.setattr(cli, "load_photocurrent", load)
        assert main(["analyze", "--indir", str(quantum_run)]) == 0
        assert len(alive) == 16 and max(alive) <= 1

    @pytest.mark.parametrize("ini, keeps_h", [
        # default physics: the mean stands 5.7 single-record noises above zero
        ("[run]\nn_trajectories = 1\nduration = 1600.0\n", True),
        # phase-random thermal light: 0.2 noises from zero
        ("[field]\nkind = thermal_ou\n[run]\nsource = semiclassical\n"
         "n_trajectories = 1\nduration = 300.0\n", False),
    ], ids=["quantum", "thermal"])
    def test_single_record_mean_rule(self, tmp_path, capsys, ini, keeps_h):
        # one record has no spread of record means to test its mean against:
        # its own sample noise, over the independent samples its bandwidth
        # allows, decides whether h is kept
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(ini)
        outdir = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        assert main(["analyze", "--indir", str(outdir)]) == 0
        assert (outdir / "h.csv").is_file() == keeps_h
        report = json.loads((outdir / "report.json").read_text())
        assert (report["n_triggers"] is not None) == keeps_h
        assert ("h and squeezing skipped" in capsys.readouterr().out) != keeps_h

    @pytest.mark.parametrize(
        "name, key, renamed", [("counts_00000.txt", "t0", "x0"), ("current_00000.csv", "dt", "dx")]
    )
    def test_record_without_header_key_exits_3(self, quantum_run, tmp_path, capsys, name, key, renamed):
        # renaming a key keeps the file's size, so the manifest check passes
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(quantum_run, broken)
        victim = broken / name
        text = victim.read_text()
        assert f"# {key}=" in text
        victim.write_text(text.replace(f"# {key}=", f"# {renamed}=", 1))
        assert main(["analyze", "--indir", str(broken)]) == 3
        err = capsys.readouterr().err
        assert name in err and key in err

    @pytest.mark.parametrize("cut", ["no_header", "no_rows", "short_row"])
    def test_truncated_series_exits_3(self, tmp_path, capsys, cut):
        path = tmp_path / "g2.csv"
        lags = np.array([0.25, 0.75, 1.25])
        write_table(path, {"normalization": "g2"}, "tau,value,stderr", [lags, lags, lags])
        lines = path.read_text().splitlines(keepends=True)
        kept = {"no_header": lines[:1], "no_rows": lines[:2], "short_row": lines[:-1] + ["1.75,1.0\n"]}
        path.write_text("".join(kept[cut]))
        assert main(["audit", "--indir", str(tmp_path)]) == 3
        assert "g2.csv" in capsys.readouterr().err

    def test_truncated_record_exits_3(self, quantum_run, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(quantum_run, broken)
        victim = broken / "current_00000.csv"
        victim.write_bytes(victim.read_bytes()[:-40])
        assert main(["analyze", "--indir", str(broken)]) == 3

    def test_audit_without_series_exits_3(self, tmp_path, capsys):
        assert main(["audit", "--indir", str(tmp_path)]) == 3

    def test_audit_all_nan_is_inconclusive_exit_4(self, tmp_path, capsys):
        lags = np.array([0.25, 0.75, 1.25])
        nanv = np.full(3, np.nan)
        write_table(tmp_path / "g2.csv", {"normalization": "g2"},
                    "tau,value,stderr", [lags, nanv, nanv])
        assert main(["audit", "--indir", str(tmp_path)]) == 4
        audit = json.loads((tmp_path / "audit.json").read_text())
        assert audit["overall"] == "inconclusive"


@pytest.fixture(scope="module")
def semi_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("srun")
    cfg_path = base / "config.ini"
    cfg_path.write_text(SEMI_INI)
    outdir = base / "out"
    assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
    return outdir


class TestSemiclassicalPipeline:
    def test_analyze_coherent_source(self, semi_run, capsys):
        assert main(["analyze", "--indir", str(semi_run)]) == 0
        report = json.loads((semi_run / "report.json").read_text())
        # a coherent wave breaks no classical bound
        assert report["audit"]["overall"] == "satisfied"
        assert report["g2_zero"] == pytest.approx(1.0, abs=0.2)

    def test_compare_rejected_exit_2(self, semi_run, capsys):
        assert main(["compare", "--indir", str(semi_run)]) == 2

    def test_records_are_semiclassical_record(self, semi_run, tmp_path):
        cfg = ExperimentConfig.from_text((semi_run / "config.ini").read_text())
        grid = TimeGrid(0.0, cfg.dt, int(round(cfg.duration / cfg.dt)))
        model = FieldModel(kind=cfg.kind, amplitude=cfg.amplitude, phase=cfg.phase)
        lo = LocalOscillator(cfg.lo_amplitude, cfg.phase)  # aligned to the carrier
        for i in range(cfg.n_trajectories):
            counts, current = semiclassical_record(
                model, lo, grid, RngStream(cfg.seed, i), cfg.bandwidth
            )
            save_count_record(tmp_path / "c.txt", counts)
            save_photocurrent(tmp_path / "p.csv", current)
            assert (tmp_path / "c.txt").read_bytes() == (
                semi_run / f"counts_{i:05d}.txt").read_bytes()
            assert (tmp_path / "p.csv").read_bytes() == (
                semi_run / f"current_{i:05d}.csv").read_bytes()

    def test_two_workers_write_the_same_records(self, semi_run, tmp_path, capsys):
        cfg = ExperimentConfig.from_text((semi_run / "config.ini").read_text())
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(replace(cfg, workers=2).to_text())
        outdir = tmp_path / "out2"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        for i in range(cfg.n_trajectories):
            for fmt in ("counts_{:05d}.txt", "current_{:05d}.csv"):
                assert (outdir / fmt.format(i)).read_bytes() == (
                    semi_run / fmt.format(i)).read_bytes(), fmt.format(i)

    def test_dead_time_reaches_the_records(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(SEMI_INI + "\n[detection]\ndead_time = 0.4\n")
        outdir = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        for i in range(2):
            ts = load_count_record(outdir / f"counts_{i:05d}.txt").timestamps
            # a rate-2 arm clicks closer than 0.4 about half the time
            assert ts.size > 50
            assert np.diff(ts).min() >= 0.4

    def test_phase_random_source_skips_h(self, tmp_path, capsys):
        # zero-mean current: h normalization is meaningless, so analyze
        # must drop h and the spectrum instead of emitting noise ratios
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(
            "[field]\nkind = thermal_ou\nmean_intensity = 2.0\ntau_c = 1.0\n"
            "[run]\nsource = semiclassical\nseed = 11\nduration = 400.0\n"
            "dt = 0.05\nn_trajectories = 4\nburn_in = 0.0\n"
        )
        outdir = tmp_path / "o"
        outdir.mkdir()
        (outdir / "h.csv").write_text("left by an earlier run\n")
        assert main(["run", "--config", str(cfg_path), "--outdir", str(outdir)]) == 0
        assert main(["analyze", "--indir", str(outdir)]) == 0
        assert (outdir / "g2.csv").is_file()
        assert not (outdir / "h.csv").exists()
        assert not (outdir / "squeezing.csv").exists()
        report = json.loads((outdir / "report.json").read_text())
        assert report["h_min"] is None and report["n_triggers"] is None
        assert "skipped" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "photodyne" in capsys.readouterr().out


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is a test extra
    src = Path(photodyne.__file__).resolve().parent.parent
    code = (
        "import sys, photodyne, photodyne.cli\n"
        "try:\n"
        "    photodyne.cli.main(['--version'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert f"photodyne {photodyne.__version__}" in out.stdout
    assert out.stdout.splitlines()[-1] == "[]"
