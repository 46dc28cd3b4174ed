"""The benchmark's three workloads and the checks on their outputs.

A workload prepares its inputs from the seed, then runs rounds: each round
repeats the same operations on the same inputs, so every round attempts the
same operations and a known program fault fails in every round. run_round is
the timed section; check turns its outputs into one Outcome per operation.

quantum_cli       photodyne run -> analyze -> compare -> audit, one process
                  each, on the default physics: the user's pipeline, with
                  record writes beside record reads.
quantum_ensemble  one unravel_ensemble stream feeding estimate_h, its clicks
                  feeding estimate_g2, set against the regression curves, the
                  squeezing spectrum and the audit: the paper's combined
                  measurement, engine-bound, no files.
classical_audit   six classical sources through path -> counts -> BHD ->
                  g2/h -> spectrum -> audit: the wave side, long click-dense
                  records, no engine and no files.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks as C
import oracle as O
from photodyne import analyzers, cli, detection, fields, quantum
from photodyne.numerics import RngStream, TimeGrid

# default physics as the quantum.py docstring and the config defaults state
# it, written out here so the oracle does not read it from the program
DEFAULT_PHYSICS = dict(g=0.75, kappa=1.0, gamma=1.0, drive=0.18, fock_cutoff=8)
# criterion 09's strongly coupled system
STRONG_PHYSICS = dict(g=3.0, kappa=1.0, gamma=1.0, drive=0.1, fock_cutoff=8)
JUMP_FRACTION = 0.5
DT = 0.02
DURATION = 400.0
MAX_LAG = 12.0
BIN = 0.25
HALFWIDTH = 12.0
REG_TAU = TimeGrid(0.0, 0.005, 2401)
STRONG_TAU = TimeGrid(0.0, 0.01, 1601)

CLI_TRAJECTORIES = 48
ENSEMBLE_TRAJECTORIES = 256

CLASSICAL_DT = 0.05
CLASSICAL_BANDWIDTH = 2.0
CLASSICAL_LO = fields.LocalOscillator(8.0, 0.0)
CLASSICAL_MAX_LAG = 6.0
THERMAL_TAU_C = 2.0
THERMAL_BATCHES = 40
THERMAL_POOL = 4  # g2 bins per tested lag window on the thermal source
SHOT_WIDTH_TOL = 0.02
# the program's h and spectrum error bars against the benchmark's own
STDERR_RTOL = 0.01
BURST = dict(kind="modulated_burst", amplitude=1.0, burst_rate=0.05, burst_freq=1.5, burst_decay=0.35)


@dataclass(frozen=True)
class Outcome:
    """One checked operation. fault names the known program fault that makes
    it fail on every run; such a failure is counted, not an error."""

    name: str
    ok: bool
    detail: str
    fault: str | None = None


def _outcome(name: str, results, fault: str | None = None) -> Outcome:
    results = list(results)
    return Outcome(name, all(ok for ok, _ in results), "; ".join(d for _, d in results), fault)


def _close(actual, expected, rtol: float, what: str):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False, f"{what}: shape {actual.shape} vs {expected.shape}"
    err = float(np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300)))
    return err <= rtol, f"{what} off by {err:.1e} (relative)"


# exact references ------------------------------------------------------


def references() -> dict:
    """Oracle arrays for the quantum workloads. The oracle loads scipy, so
    this runs in a process of its own and the workload's memory stays its own."""
    cav = O.Cavity(**DEFAULT_PHYSICS)
    strong = O.Cavity(**STRONG_PHYSICS)
    n_fine = int(round(MAX_LAG / REG_TAU.dt)) + 1
    g2_fine = O.regression_g2(cav, REG_TAU.dt, n_fine)
    fine_lags = np.arange(n_fine) * REG_TAU.dt
    lo = np.arange(int(round(MAX_LAG / BIN))) * BIN
    h_samples = O.regression_h(cav, DT, int(round(HALFWIDTH / DT)) + 1)
    return {
        "nbar": O.mean_photons(cav),
        "g2_bins": C.bin_average(fine_lags, g2_fine, lo, lo + BIN),
        "g2_fine": g2_fine,
        "h_fine": O.regression_h(cav, REG_TAU.dt, REG_TAU.n_samples),
        # estimator bins of round(BIN / DT) samples, edges at zero lag
        "h_bins": C.lag_pooled(h_samples, max(1, int(round(BIN / DT)))),
        "strong_g2": O.regression_g2(strong, STRONG_TAU.dt, STRONG_TAU.n_samples),
        "strong_coupling": O.coupling_frequency(strong),
    }


def exact_violations(refs) -> set[str]:
    """Audit checks that the exact default-system curves themselves break;
    a sampled 'violated' there is the right answer."""
    g2 = refs["g2_fine"]
    out = set()
    if g2[0] < 1.0:
        out.add("g2_zero")
    if np.max(np.abs(g2[1:] - 1.0)) > abs(g2[0] - 1.0):
        out.add("g2_falloff")
    if np.max(refs["h_fine"]) > 2.0:
        out.add("h_range")
    return out


def _g2_check(g2_values, records, refs):
    """Pair counts behind a sampled quantum g2 against the exact curve."""
    lags = (np.arange(g2_values.size) + 0.5) * BIN
    expected = sum(C.expected_pairs(ts, t0, t1, lags, BIN) for ts, t0, t1 in records)
    return C.g2_poisson(np.asarray(g2_values) * expected, expected, refs["g2_bins"])


def _h_checks(values, stderr, n_triggers: int, avg: C.TriggerAverage, ref_bins):
    """A sampled h against the exact bins at lags >= 0, with the benchmark's
    own errors (avg holds the same triggers and currents); the program's
    error bars must match those errors."""
    sigma = avg.stderr()
    if np.shape(values) != sigma.shape:
        return [(False, f"h has {np.size(values)} bins, the benchmark {sigma.size}")]
    keep = avg.lags >= 0
    return [
        (n_triggers == avg.n, f"{n_triggers} triggers used, {avg.n} by the benchmark"),
        _close(stderr, sigma, STDERR_RTOL, "h stderr against the across-trigger spread"),
        C.z_bound(np.asarray(values)[keep], ref_bins, sigma[keep]),
    ]


def _spectrum_checks(spectrum, avg: C.TriggerAverage, ref_bins):
    """A squeezing spectrum against the transform of the exact h bins, with
    the benchmark's h errors propagated as independent bins, the rule the
    program states for its own error bars, which must match."""
    keep = avg.lags >= 0
    kernel = C.bartlett_kernel(avg.lags[keep], spectrum.frequencies)
    sigma = np.sqrt(kernel**2 @ avg.stderr()[keep] ** 2)
    return [
        _close(spectrum.stderr, sigma, STDERR_RTOL, "spectrum stderr against the propagated spread"),
        C.z_bound(spectrum.values, kernel @ (np.asarray(ref_bins) - 1.0), sigma),
    ]


def _clicks_check(n_clicks: int, n_traj: int, refs):
    rate = JUMP_FRACTION * DEFAULT_PHYSICS["kappa"] * float(refs["nbar"])
    return C.count_within(n_clicks, rate * DURATION * n_traj)


# quantum_cli -------------------------------------------------------------


class QuantumCli:
    name = "quantum_cli"
    stages = ("run", "analyze", "compare", "audit")

    def __init__(self, seed: int, workdir: Path, refs: dict, env: dict):
        self.refs = refs
        self.env = env
        self.out = workdir / "cli_run"
        self.config = workdir / "cli.ini"
        self.config.write_text(f"[run]\nseed = {seed}\nn_trajectories = {CLI_TRAJECTORIES}\n")

    def argv(self, stage: str) -> list[str]:
        if stage == "run":
            return ["run", "--config", str(self.config), "--outdir", str(self.out)]
        return [stage, "--indir", str(self.out)]

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_round(self, in_process: bool = False, stage_span=None) -> dict:
        codes, seconds = {}, {}
        for stage in self.stages:
            t = time.perf_counter()
            if in_process:
                with stage_span(f"cli.{stage}"), contextlib.redirect_stdout(io.StringIO()):
                    codes[stage] = (cli.main(self.argv(stage)), "")
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "photodyne.cli", *self.argv(stage)],
                    env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                )
                codes[stage] = (proc.returncode, proc.stderr.strip()[-300:])
            seconds[stage] = time.perf_counter() - t
        files = list(self.out.glob("counts_*.txt")) + list(self.out.glob("current_*.csv"))
        return {"codes": codes, "stage_s": seconds, "record_bytes": sum(p.stat().st_size for p in files)}

    def check(self, out: dict) -> list[Outcome]:
        def exit_ok(stage):
            code, err = out["codes"][stage]
            return code == 0, f"{stage} exit {code}" + (f" ({err})" if code else "")

        counts = sorted(self.out.glob("counts_*.txt"))
        records = {}
        for p in counts:
            meta, rows = _read_text(p)
            records[p.stem.split("_", 1)[1]] = (np.array([float(r) for r in rows]), float(meta["t0"]), float(meta["t1"]))
        n_clicks = sum(ts.size for ts, _, _ in records.values())
        run = [
            exit_ok("run"),
            (
                len(counts) == CLI_TRAJECTORIES
                and len(list(self.out.glob("current_*.csv"))) == CLI_TRAJECTORIES
                and (self.out / "manifest.json").is_file(),
                f"{len(counts)} count records",
            ),
            _clicks_check(n_clicks, CLI_TRAJECTORIES, self.refs),
        ]
        outcomes = [_outcome("run", run)]

        analyze = [exit_ok("analyze")]
        if analyze[0][0]:
            g2 = _read_table(self.out / "g2.csv")
            h = _read_table(self.out / "h.csv")
            report = json.loads((self.out / "report.json").read_text())
            avg = C.TriggerAverage(HALFWIDTH, BIN, DT)
            for p in sorted(self.out.glob("current_*.csv")):
                meta, rows = _read_text(p)
                ts = records[p.stem.split("_", 1)[1]][0]
                avg.add(ts, [float(r.split(",")[1]) for r in rows[1:]], float(meta["t_start"]))
            analyze += [
                (report["n_events"] == n_clicks, f"report counts {report['n_events']} clicks"),
                _g2_check(g2[1], records.values(), self.refs),
                *_h_checks(h[1], h[2], report["n_triggers"], avg, self.refs["h_bins"]),
            ]
        outcomes.append(_outcome("analyze", analyze))

        compare = [exit_ok("compare")]
        if compare[0][0]:
            result = json.loads((self.out / "compare.json").read_text())
            compare.append(_close(result["g2_zero_regression"], self.refs["g2_fine"][0], 1e-6, "regression g2(0)"))
            compare.append((result["h"]["n_bins"] > 0, f"{result['h']['n_bins']} h bins compared"))
        outcomes.append(_outcome("compare", compare))

        audit = [exit_ok("audit")]
        if audit[0][0]:
            audit.append(
                C.not_violated(json.loads((self.out / "audit.json").read_text()), exact_violations(self.refs))
            )
        outcomes.append(_outcome("audit", audit))
        return outcomes


def _read_text(path: Path) -> tuple[dict, list[str]]:
    """'#' metadata and the remaining lines of a photodyne text file."""
    meta, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif line.strip():
            rows.append(line)
    return meta, rows


def _read_table(path: Path) -> np.ndarray:
    """Columns of a photodyne CSV table, below its header line."""
    return np.array([[float(x) for x in row.split(",")] for row in _read_text(path)[1][1:]]).T


# quantum_ensemble ----------------------------------------------------------


class QuantumEnsemble:
    name = "quantum_ensemble"

    def __init__(self, seed: int, workdir: Path, refs: dict, env: dict):
        self.seed = seed
        self.refs = refs

    def reset(self) -> None:
        pass

    def run_round(self, in_process: bool = True, stage_span=None) -> dict:
        system = quantum.build_system(quantum.DEFAULTS)
        grid = TimeGrid(0.0, DT, int(round(DURATION / DT)))
        clicks = []
        nbytes = 0
        avg = C.TriggerAverage(HALFWIDTH, BIN, DT)

        def tap(records):
            nonlocal nbytes
            for rec in records:
                clicks.append(rec.counts)
                nbytes += rec.counts.timestamps.nbytes + rec.current.samples.nbytes
                # the benchmark's own average, in a span of its own so that
                # it stays out of estimate_h's self time when traced
                with stage_span("bench.trigger_average"):
                    avg.add(rec.counts.timestamps, rec.current.samples, rec.current.grid.t_start)
                yield rec

        stream = quantum.unravel_ensemble(
            system, grid, ENSEMBLE_TRAJECTORIES, self.seed, jump_fraction=JUMP_FRACTION
        )
        h = analyzers.estimate_h(tap(stream), HALFWIDTH, bin_width=BIN)
        g2 = analyzers.estimate_g2(clicks, MAX_LAG, BIN)
        reg_g2 = quantum.g2_regression(system, REG_TAU)
        reg_h = quantum.h_regression(system, REG_TAU)
        spectrum = analyzers.squeezing_spectrum(h)
        reg_spectrum = analyzers.squeezing_spectrum(reg_h, spectrum.frequencies)
        audit = analyzers.audit_classical_bounds(g2, h)
        strong = quantum.build_system(quantum.SystemParams(**STRONG_PHYSICS))
        strong_g2 = quantum.g2_regression(strong, STRONG_TAU)
        pos = strong_g2.lags >= 0
        omega = analyzers.dominant_oscillation_frequency(strong_g2.values[pos], STRONG_TAU.dt)
        return dict(
            clicks=clicks, avg=avg, h=h, g2=g2, reg_g2=reg_g2, reg_h=reg_h,
            spectrum=spectrum, reg_spectrum=reg_spectrum, audit=audit,
            strong_g2=strong_g2.values[pos], omega=omega, record_bytes=nbytes,
        )

    def check(self, out: dict) -> list[Outcome]:
        refs = self.refs
        clicks = out["clicks"]
        h, spectrum = out["h"], out["spectrum"]
        reg_pos = out["reg_g2"].lags >= 0
        return [
            _outcome("clicks", [
                (quantum.DEFAULTS == quantum.SystemParams(**DEFAULT_PHYSICS), "default physics as documented"),
                (len(clicks) == ENSEMBLE_TRAJECTORIES, f"{len(clicks)} trajectories"),
                _clicks_check(sum(c.n_events for c in clicks), ENSEMBLE_TRAJECTORIES, refs),
            ]),
            _outcome("g2", [_g2_check(out["g2"].values, [(c.timestamps, c.t0, c.t1) for c in clicks], refs)]),
            _outcome("h", _h_checks(h.values, h.stderr, h.meta["n_triggers"], out["avg"], refs["h_bins"])),
            _outcome("regression", [
                _close(out["reg_g2"].values[reg_pos], refs["g2_fine"], 1e-6, "regression g2"),
                _close(out["reg_h"].values, refs["h_fine"], 1e-6, "regression h"),
            ]),
            _outcome("squeezing", [
                *_spectrum_checks(spectrum, out["avg"], refs["h_bins"]),
                _close(
                    out["reg_spectrum"].values,
                    C.bartlett_kernel(REG_TAU.times, spectrum.frequencies) @ (refs["h_fine"] - 1.0),
                    1e-6, "regression spectrum",
                ),
            ]),
            _outcome("audit", [C.not_violated(out["audit"].to_dict(), exact_violations(refs))]),
            _outcome("regression_strong", [
                _close(out["strong_g2"], refs["strong_g2"], 1e-3, "g = 3 regression g2"),
            ]),
            _outcome(
                "oscillation_strong",
                [(
                    abs(out["omega"] - refs["strong_coupling"]) <= 0.1 * refs["strong_coupling"],
                    f"dominant_oscillation_frequency {out['omega']:.3f} vs coupling-mode "
                    f"eigenfrequency {float(refs['strong_coupling']):.3f}",
                )],
                fault="(a) dominant_oscillation_frequency reads the vacuum-Rabi beat, not the coupling",
            ),
        ]


# classical_audit -----------------------------------------------------------


@dataclass(frozen=True)
class Source:
    name: str
    model: fields.FieldModel
    duration: float
    reference: str | None  # closed form checked: "poisson", "thermal" or none
    max_lag: float = CLASSICAL_MAX_LAG
    with_h: bool = True
    key: tuple[int, int] | None = None  # fixed stream key: input independent of the seed
    fault: str | None = None


SOURCES = (
    Source("coherent", fields.FieldModel(kind="coherent", amplitude=2.0), 20_000.0, "poisson"),
    # a phase-random field has a zero mean current, so h is undefined
    Source(
        "thermal_ou",
        fields.FieldModel(kind="thermal_ou", mean_intensity=4.0, tau_c=THERMAL_TAU_C),
        20_000.0, "thermal", with_h=False,
    ),
    Source("weak_bursts", fields.FieldModel(**BURST, burst_amp=0.5), 20_000.0, None),
    Source("symmetric_bursts", fields.FieldModel(**BURST, burst_amp=2.0, burst_sign="symmetric"), 20_000.0, None),
    # only the g2 pair counts and the audit, which fault (b) is about; h,
    # its spectrum and the shot width of the same model are checked on coherent
    Source(
        "poisson_null", fields.FieldModel(kind="coherent", amplitude=2.0), 5_000.0, "poisson",
        max_lag=1.1, with_h=False, key=(20260819, 0),
        fault="(b) estimate_g2 folds separations in [nb*bin, max_lag) into its last bin",
    ),
    Source(
        "strong_bursts", fields.FieldModel(**BURST, burst_amp=3.0), 20_000.0, None, key=(424243, 1),
        fault="(d) audit_classical_bounds applies h <= 2 to strongly fluctuating classical light",
    ),
)


class ClassicalAudit:
    name = "classical_audit"

    def __init__(self, seed: int, workdir: Path, refs: dict, env: dict):
        self.seed = seed

    def reset(self) -> None:
        pass

    def run_round(self, in_process: bool = True, stage_span=None) -> dict:
        results = {}
        nbytes = 0
        for i, src in enumerate(SOURCES):
            stream = RngStream(*src.key) if src.key else RngStream(self.seed, i)
            grid = TimeGrid(0.0, CLASSICAL_DT, int(round(src.duration / CLASSICAL_DT)))
            path = fields.generate_path(src.model, grid, stream)
            arm_count, arm_wave = fields.split_beam(path)
            counts = detection.sample_counts(arm_count.intensity(), grid, stream)
            port1, port2 = fields.mix_with_local_oscillator(arm_wave, CLASSICAL_LO)
            current = detection.bhd_difference_current(
                port1.intensity(), port2.intensity(), grid, CLASSICAL_BANDWIDTH, stream
            )
            g2 = analyzers.estimate_g2(counts, src.max_lag, BIN)
            h = spectrum = None
            if src.with_h:
                h = analyzers.estimate_h((counts, current), HALFWIDTH, bin_width=BIN)
                spectrum = analyzers.squeezing_spectrum(h)
            audit = analyzers.audit_classical_bounds(g2, h)
            nbytes += counts.timestamps.nbytes + current.samples.nbytes
            results[src.name] = dict(counts=counts, current=current, g2=g2, h=h, spectrum=spectrum, audit=audit)
        return {"sources": results, "record_bytes": nbytes}

    def check(self, out: dict) -> list[Outcome]:
        outcomes = []
        for src in SOURCES:
            r = out["sources"][src.name]
            counts, g2 = r["counts"], r["g2"]
            res = [C.not_violated(r["audit"].to_dict())]
            if src.reference == "poisson":
                expected = C.expected_pairs(counts.timestamps, counts.t0, counts.t1, g2.lags, BIN)
                res.append(C.g2_poisson(g2.values * expected, expected, O.poisson_g2(g2.lags)))
            if src.reference == "thermal":
                res.append(_thermal_check(counts, g2))
            if src.reference == "poisson" and r["h"] is not None:
                h, current = r["h"], r["current"]
                avg = C.TriggerAverage(HALFWIDTH, BIN, CLASSICAL_DT)
                avg.add(counts.timestamps, current.samples, current.grid.t_start)
                flat = O.poisson_g2(avg.lags[avg.lags >= 0])
                res += _h_checks(h.values, h.stderr, h.meta["n_triggers"], avg, flat)
                res += _spectrum_checks(r["spectrum"], avg, flat)
                width = float(r["current"].samples.std())
                shot = O.shot_width(CLASSICAL_LO.amplitude, CLASSICAL_BANDWIDTH)
                res.append((
                    abs(width / shot - 1.0) <= SHOT_WIDTH_TOL,
                    f"current width {width:.3f} vs shot width {shot:.3f}",
                ))
            outcomes.append(_outcome(src.name, res, src.fault))
        return outcomes


def _thermal_check(counts, g2):
    """Thermal g2 against 1 + exp(-2|tau|/tau_c), pooled over lag windows,
    with batch-means errors: pair counts of bunched light are not Poisson."""
    nb = g2.values.size
    fine = np.linspace(0.0, nb * BIN, 40 * nb, endpoint=False) + 0.5 * BIN / 40
    ref = O.thermal_g2(fine, THERMAL_TAU_C).reshape(nb, 40).mean(axis=1)
    batches = C.g2_batches(counts.timestamps, counts.t0, counts.t1, nb * BIN, BIN, THERMAL_BATCHES)

    def pool(x):
        return np.asarray(x).reshape(*np.shape(x)[:-1], nb // THERMAL_POOL, THERMAL_POOL).mean(axis=-1)

    return C.batch_means(pool(g2.values), pool(batches), pool(ref))


WORKLOADS = {w.name: w for w in (QuantumCli, QuantumEnsemble, ClassicalAudit)}
