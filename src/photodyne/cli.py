"""Command-line entry points.

Subcommands: blackbody (moment comparison report), run (generate records),
analyze (estimate correlations from records), compare (Monte Carlo against
regression curves), audit (classical-bound verdicts on saved series).

run: trajectory k draws from the random stream (seed, k). The ids are split
into contiguous ranges of ceil(n_trajectories / workers) by the rule the
quantum engine batches by (numerics._stream_batches). For each range,
_records yields (traj_id, counts, current) from unravel_ensemble or
semiclassical_record, and _write_records saves them as counts_<id>.txt and
current_<id>.csv, in process or in a pool worker; the files do not depend on
the worker count.

analyze: one pass. _read_pairs reads one count/current file pair at a time
and feeds it once to _PairCounts (g2) and _TriggeredSums (h and the mean
rule), so analyze holds one record pair at a time, whatever n_trajectories.

Exit codes: 0 success, 2 configuration or argument error, 3 missing or
inconsistent data or a failed computation, 4 statistically inconclusive
result (audit cannot call a verdict, or compare has no usable bins).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analyzers import (
    CorrelationSeries,
    _lag_bins,
    _PairCounts,
    _TriggeredSums,
    audit_classical_bounds,
    dominant_oscillation_frequency,
    squeezing_spectrum,
)
from .blackbody import sample_report
from .config import ConfigError, DataError, ExperimentConfig, RunManifest
from .detection import semiclassical_record
from .fields import FieldModel, LocalOscillator
from .numerics import RngStream, TimeGrid, _stream_batches
from .quantum import SystemParams, build_system, unravel_ensemble
from .records import (
    load_count_record,
    load_photocurrent,
    read_table,
    save_count_record,
    save_photocurrent,
    write_table,
)

_COUNTS_FMT = "counts_{:05d}.txt"
_CURRENT_FMT = "current_{:05d}.csv"


def _from_config(cls, cfg: ExperimentConfig):
    """Build a parameter dataclass from the config fields of the same names."""
    return cls(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)})


def _lo_phase(cfg: ExperimentConfig) -> float | None:
    """The configured phase, or with lo_align the carrier phase of a
    semiclassical run and None for a quantum one, which the quantum engine
    and h_regression resolve to the stationary-field phase arg<a>_ss."""
    if not cfg.lo_align:
        return cfg.lo_phase
    return None if cfg.source == "quantum" else cfg.phase


def _traj_grid(cfg: ExperimentConfig) -> TimeGrid:
    n = int(round(cfg.duration / cfg.dt))
    if n < 2:
        raise ConfigError("duration must cover at least two samples")
    return TimeGrid(t_start=0.0, dt=cfg.dt, n_samples=n)


def _records(cfg: ExperimentConfig, theta: float | None, ids: range):
    """Yield (traj_id, counts, current) for the trajectories of ids."""
    grid = _traj_grid(cfg)
    if cfg.source == "quantum":
        system = build_system(_from_config(SystemParams, cfg))
        for rec in unravel_ensemble(system, grid, len(ids), cfg.seed, cfg.jump_fraction, theta,
                                    cfg.burn_in, first_stream=ids.start):
            yield rec.traj_id, rec.counts, rec.current
        return
    model = _from_config(FieldModel, cfg)
    lo = LocalOscillator(cfg.lo_amplitude, theta)
    for i in ids:
        yield i, *semiclassical_record(model, lo, grid, RngStream(cfg.seed, i), cfg.bandwidth,
                                       cfg.efficiency, cfg.dark_rate, cfg.dead_time)


def _write_records(cfg: ExperimentConfig, outdir: Path, theta: float | None, ids: range):
    for i, counts, current in _records(cfg, theta, ids):
        save_count_record(outdir / _COUNTS_FMT.format(i), counts)
        save_photocurrent(outdir / _CURRENT_FMT.format(i), current)


def _run_records(cfg: ExperimentConfig, outdir: Path) -> None:
    theta, n_traj = _lo_phase(cfg), cfg.n_trajectories
    shares = _stream_batches(n_traj, math.ceil(n_traj / cfg.workers))
    if cfg.workers == 1:
        _write_records(cfg, outdir, theta, shares[0])
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(_write_records, cfg, outdir, theta, ids) for ids in shares]
        for f in futures:
            f.result()


def _cmd_blackbody(args) -> int:
    if args.x <= 0:
        raise ConfigError("x must be > 0")
    if args.n < 2:
        raise ConfigError("need at least 2 samples")
    report = sample_report(args.x, args.n, args.seed)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    cfg, applied = cfg.with_env_overrides()
    if args.outdir is not None:
        cfg = dataclasses.replace(cfg, outdir=args.outdir)
    for key, val in applied.items():
        print(f"environment override: {key} = {val}")
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.ini").write_text(cfg.to_text())
    _run_records(cfg, outdir)
    names = ["config.ini"]
    for i in range(cfg.n_trajectories):
        names += [_COUNTS_FMT.format(i), _CURRENT_FMT.format(i)]
    RunManifest.for_directory(outdir, cfg, names).save(outdir)
    print(
        f"run complete: {cfg.n_trajectories} x {cfg.duration} time units "
        f"({cfg.source}) -> {outdir}"
    )
    return 0


def _load_config(indir: Path) -> ExperimentConfig:
    """The run's config, after checking it and every record file against
    the manifest."""
    manifest = RunManifest.load(indir)
    manifest.validate_files(indir)
    cfg_path = indir / "config.ini"
    if not cfg_path.is_file():
        raise DataError(f"config.ini not found in {indir}")
    cfg = ExperimentConfig.from_text(cfg_path.read_text())
    if cfg.config_hash() != manifest.config_hash:
        raise DataError("config.ini does not match the manifest hash")
    return cfg


def _read_pairs(indir: Path, n_records: int):
    """Yield each (CountRecord, PhotocurrentRecord) of a run, one file pair at a time."""
    for i in range(n_records):
        cpath = indir / _COUNTS_FMT.format(i)
        ppath = indir / _CURRENT_FMT.format(i)
        if not (cpath.is_file() and ppath.is_file()):
            raise DataError(f"record pair {i} missing from {indir}")
        yield load_count_record(cpath), load_photocurrent(ppath)


def _si_block(cfg: ExperimentConfig, peaks: dict) -> dict:
    """Report-only relabeling: one package rate unit = si_rate_scale_mhz MHz.

    The default 20 MHz makes kappa = 1 correspond to a 1/(50 ns) decay rate.
    Angular model frequencies map to linear MHz via w * scale / (2 pi); the
    coupling-anchor entry gives g on the same footing for comparison with
    realistic cavity numbers (tens of MHz).
    """
    scale = cfg.si_rate_scale_mhz
    out = {
        "rate_unit_mhz": scale,
        "linewidth_anchor_mhz": 2.0 * cfg.kappa * scale,
        "coupling_anchor_mhz": cfg.g * scale / (2.0 * math.pi),
    }
    for name, omega in peaks.items():
        if omega is not None and math.isfinite(omega):
            out[f"{name}_mhz"] = omega * scale / (2.0 * math.pi)
    return out


def _oscillation_or_none(values, dt: float, stderr=None) -> float | None:
    """dominant_oscillation_frequency, or None for a flat g2 (as at g = 0)
    or one whose oscillation does not stand above its stderr."""
    try:
        return dominant_oscillation_frequency(values, dt, stderr=stderr)
    except ValueError:
        return None


def _cmd_analyze(args) -> int:
    indir = Path(args.indir)
    cfg = _load_config(indir)
    pairs = _PairCounts(cfg.max_lag, cfg.bin_width)
    sums = _TriggeredSums(cfg.halfwidth, cfg.bin_width)
    for counts, current in _read_pairs(indir, cfg.n_trajectories):
        pairs.add(counts)
        sums.add(counts, current)
    g2 = pairs.series()
    h = spectrum = None
    if sums.mean_resolved():
        h = sums.series()
        top = cfg.max_frequency if cfg.max_frequency > 0 else 0.5 * math.pi / cfg.bin_width
        spectrum = squeezing_spectrum(h, np.linspace(0.0, top, cfg.n_frequencies))
    report_audit = audit_classical_bounds(g2, h)
    for name in ("g2.csv", "h.csv", "squeezing.csv"):
        (indir / name).unlink(missing_ok=True)  # a previous run's
    g2_peak = dip_omega = dip_value = None
    if g2 is not None:
        g2_peak = _oscillation_or_none(g2.values, cfg.bin_width, g2.stderr)
        write_table(indir / "g2.csv", {"normalization": "g2", "n_events": pairs.n_events},
                    "tau,value,stderr", [g2.lags, g2.values, g2.stderr])
    if h is not None:
        write_table(indir / "h.csv", {"normalization": "h", "n_triggers": h.meta["n_triggers"]},
                    "tau,value,stderr", [h.lags, h.values, h.stderr])
        write_table(indir / "squeezing.csv", dict(spectrum.meta), "omega,value,stderr",
                    [spectrum.frequencies, spectrum.values, spectrum.stderr])
        dip_omega, dip_value = spectrum.minimum()
    report = {
        "config_hash": cfg.config_hash(),
        "source": cfg.source,
        "n_records": cfg.n_trajectories,
        "n_events": pairs.n_events,
        "n_triggers": int(h.meta["n_triggers"]) if h is not None else None,
        "g2_zero": g2.value_at(0.0) if g2 is not None else None,
        "g2_zero_stderr": float(g2.stderr[0]) if g2 is not None else None,
        "h_min": float(h.values.min()) if h is not None else None,
        "h_max": float(h.values.max()) if h is not None else None,
        "squeezing_dip_omega": dip_omega,
        "squeezing_dip_value": dip_value,
        "g2_oscillation_omega": g2_peak,
        "audit": report_audit.to_dict(),
        "si": _si_block(
            cfg,
            {"g2_oscillation": g2_peak, "squeezing_dip": dip_omega},
        ),
    }
    (indir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"analyzed {cfg.n_trajectories} records, {pairs.n_events} events")
    if h is None:
        print("mean current consistent with zero; h and squeezing skipped")
    g2_line = (
        "no record holds two clicks; g2 skipped" if g2 is None
        else f"g2(0) = {report['g2_zero']:.4f} +- {report['g2_zero_stderr']:.4f}"
    )
    print(f"{g2_line}, audit: {report_audit.overall}")
    print(f"wrote {indir / 'report.json'}")
    return 0


def _read_series(path: Path, normalization: str) -> CorrelationSeries:
    _, _, cols = read_table(path)
    return CorrelationSeries(cols[0], cols[1], cols[2], normalization)


def _bin_means(reg: CorrelationSeries, n_bins: int, width: float) -> np.ndarray:
    """The exact curve's mean over each estimate_g2 bin [i width, (i+1) width):
    a cumulative trapezoid on the curve's lag >= 0 grid, read at the bin
    edges by linear interpolation; a bin the grid does not reach, beyond
    rounding, is nan."""
    keep = reg.lags >= 0
    tau, vals = reg.lags[keep], reg.values[keep]
    area = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(tau))])
    edges = width * np.arange(n_bins + 1)
    at_edges = np.interp(edges, tau, area)
    at_edges[edges > tau[-1] + 1e-9 * width] = np.nan
    return np.diff(at_edges) / width


def _pooled_exact_h(cfg: ExperimentConfig, reg: CorrelationSeries, mc: CorrelationSeries):
    """The exact h, sampled on the record grid, pooled by sample index into
    estimate_h's lag >= 0 bins; a bin the curve does not fully cover is nan."""
    k, starts, lengths, lags = _lag_bins(cfg.halfwidth, cfg.bin_width, cfg.dt)
    post = lags > 0
    if not np.allclose(mc.lags[mc.lags >= 0], lags[post]):
        raise DataError("h.csv lags do not match the config's lag bins")
    fine = np.full(k + 1, np.nan)
    fine[: min(k + 1, reg.values.size)] = reg.values[: k + 1]
    return np.add.reduceat(fine, starts[post] - k) / lengths[post]


def _cmd_compare(args) -> int:
    from .quantum import g2_regression, h_regression

    indir = Path(args.indir)
    cfg = _load_config(indir)
    if cfg.source != "quantum":
        raise ConfigError("compare needs a quantum run; semiclassical has no regression twin")
    for name in ("g2.csv", "h.csv"):
        if not (indir / name).is_file():
            raise DataError(f"{name} not found; run analyze first")
    mc_g2 = _read_series(indir / "g2.csv", "g2")
    mc_h = _read_series(indir / "h.csv", "h")

    system = build_system(_from_config(SystemParams, cfg))
    n_tau = int(round(cfg.max_lag / cfg.dt)) + 1
    tau_grid = TimeGrid(t_start=0.0, dt=cfg.dt, n_samples=n_tau)
    reg_g2 = g2_regression(system, tau_grid)
    reg_h = h_regression(system, tau_grid, lo_phase=_lo_phase(cfg))

    def z_stats(mc: CorrelationSeries, ref: np.ndarray):
        keep = mc.lags >= 0
        vals, errs = mc.values[keep], mc.stderr[keep]
        ok = np.isfinite(ref) & (errs > 0)
        z = np.abs(vals[ok] - ref[ok]) / errs[ok]
        return {
            "n_bins": int(ok.sum()),
            "max_abs_z": float(z.max()) if z.size else math.nan,
            "mean_abs_z": float(z.mean()) if z.size else math.nan,
            "frac_within_3": float(np.mean(z <= 3.0)) if z.size else math.nan,
        }

    mc_peak = _oscillation_or_none(mc_g2.values, cfg.bin_width, mc_g2.stderr)
    reg_peak = _oscillation_or_none(reg_g2.values[reg_g2.lags >= 0], cfg.dt)

    result = {
        "config_hash": cfg.config_hash(),
        "g2": z_stats(mc_g2, _bin_means(reg_g2, int((mc_g2.lags >= 0).sum()), cfg.bin_width)),
        "h": z_stats(mc_h, _pooled_exact_h(cfg, reg_h, mc_h)),
        "g2_peak_mc": mc_peak,
        "g2_peak_regression": reg_peak,
        "g2_zero_mc": mc_g2.value_at(0.0),
        "g2_zero_regression": reg_g2.value_at(0.0),
    }
    (indir / "compare.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"g2: {result['g2']['n_bins']} bins, max |z| = {result['g2']['max_abs_z']:.2f}; "
        f"h: {result['h']['n_bins']} bins, max |z| = {result['h']['max_abs_z']:.2f}"
    )
    print(f"wrote {indir / 'compare.json'}")
    if result["g2"]["n_bins"] == 0 and result["h"]["n_bins"] == 0:
        return 4
    return 0


def _cmd_audit(args) -> int:
    indir = Path(args.indir)
    g2, h = (
        _read_series(indir / f"{kind}.csv", kind) if (indir / f"{kind}.csv").is_file() else None
        for kind in ("g2", "h")
    )
    if g2 is None and h is None:
        raise DataError(f"no g2.csv or h.csv in {indir}; run analyze first")
    report = audit_classical_bounds(g2, h)
    (indir / "audit.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    for check in report.checks:
        if math.isnan(check.margin):
            print(f"{check.name}: {check.verdict}")
        else:
            print(
                f"{check.name}: {check.verdict} "
                f"(margin {check.margin:+.4f}, stderr {check.stderr:.4f})"
            )
    print(f"overall: {report.overall}")
    return 4 if report.overall == "inconclusive" else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photodyne",
        description="Photodetection statistics: stochastic waves vs quantum trajectories.",
    )
    parser.add_argument("--version", action="version", version=f"photodyne {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("blackbody", help="moment report for the mode-energy models")
    p.add_argument("x", type=float, help="dimensionless quantum/thermal energy ratio")
    p.add_argument("--n", type=int, default=200_000, help="samples per model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_blackbody)

    p = sub.add_parser("run", help="generate click and current records")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default=None, help="override the configured outdir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="estimate g2, h, and the squeezing spectrum")
    p.add_argument("--indir", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="Monte Carlo vs regression (quantum runs)")
    p.add_argument("--indir", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("audit", help="classical-bound verdicts on analyzed series")
    p.add_argument("--indir", required=True)
    p.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, FloatingPointError, ValueError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
