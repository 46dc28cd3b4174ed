"""Command-line entry points.

Subcommands: blackbody (moment comparison report), run (generate records),
analyze (estimate correlations from records), compare (Monte Carlo against
regression curves), audit (classical-bound verdicts on saved series).

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
    audit_classical_bounds,
    dominant_oscillation_frequency,
    estimate_g2,
    estimate_h,
    squeezing_spectrum,
)
from .blackbody import sample_report
from .config import ConfigError, DataError, ExperimentConfig, RunManifest
from .detection import semiclassical_record
from .fields import FieldModel, LocalOscillator
from .numerics import RngStream, TimeGrid
from .quantum import SystemParams, _default_phase, build_system, unravel_ensemble
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


def _lo_phase(cfg: ExperimentConfig) -> float:
    """Aligned phase: stationary-field phase for quantum runs, carrier phase
    for semiclassical ones. Without lo_align the configured phase is used."""
    if not cfg.lo_align:
        return cfg.lo_phase
    if cfg.source == "quantum":
        return _default_phase(build_system(_from_config(SystemParams, cfg)))
    return cfg.phase


def _traj_grid(cfg: ExperimentConfig) -> TimeGrid:
    n = int(round(cfg.duration / cfg.dt))
    if n < 2:
        raise ConfigError("duration must cover at least two samples")
    return TimeGrid(t_start=0.0, dt=cfg.dt, n_samples=n)


def _quantum_worker(cfg_text: str, outdir: str, first: int, n: int, theta: float):
    cfg = ExperimentConfig.from_text(cfg_text)
    system = build_system(_from_config(SystemParams, cfg))
    grid = _traj_grid(cfg)
    base = Path(outdir)
    for rec in unravel_ensemble(
        system,
        grid,
        n,
        cfg.seed,
        jump_fraction=cfg.jump_fraction,
        lo_phase=theta,
        burn_in=cfg.burn_in,
        first_stream=first,
    ):
        save_count_record(base / _COUNTS_FMT.format(rec.traj_id), rec.counts)
        save_photocurrent(base / _CURRENT_FMT.format(rec.traj_id), rec.current)
    return n


def _semiclassical_worker(cfg_text: str, outdir: str, first: int, n: int, theta: float):
    cfg = ExperimentConfig.from_text(cfg_text)
    model = _from_config(FieldModel, cfg)
    lo = LocalOscillator(cfg.lo_amplitude, theta)
    grid = _traj_grid(cfg)
    base = Path(outdir)
    for i in range(first, first + n):
        counts, current = semiclassical_record(
            model,
            lo,
            grid,
            RngStream(cfg.seed, i),
            cfg.bandwidth,
            cfg.efficiency,
            cfg.dark_rate,
            cfg.dead_time,
        )
        save_count_record(base / _COUNTS_FMT.format(i), counts)
        save_photocurrent(base / _CURRENT_FMT.format(i), current)
    return n


def _run_records(cfg: ExperimentConfig, outdir: Path) -> None:
    theta = _lo_phase(cfg)
    worker = _quantum_worker if cfg.source == "quantum" else _semiclassical_worker
    cfg_text = cfg.to_text()
    if cfg.workers == 1:
        worker(cfg_text, str(outdir), 0, cfg.n_trajectories, theta)
        return
    n_traj = cfg.n_trajectories
    per = math.ceil(n_traj / cfg.workers)
    with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [
            pool.submit(worker, cfg_text, str(outdir), first, min(per, n_traj - first), theta)
            for first in range(0, n_traj, per)
        ]
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


def _load_run(indir: Path):
    cfg = _load_config(indir)
    pairs = []
    for i in range(cfg.n_trajectories):
        cpath = indir / _COUNTS_FMT.format(i)
        ppath = indir / _CURRENT_FMT.format(i)
        if not (cpath.is_file() and ppath.is_file()):
            raise DataError(f"record pair {i} missing from {indir}")
        pairs.append((load_count_record(cpath), load_photocurrent(ppath)))
    return cfg, pairs


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


def _current_mean_resolved(pairs) -> bool:
    """True when the pooled current mean stands above its sampling noise.

    h is normalized by this mean; a mean consistent with zero (phase-random
    sources) would turn the conditional average into noise ratios."""
    means = np.array([cur.mean() for _, cur in pairs])
    if means.size >= 2:
        se = float(means.std(ddof=1)) / math.sqrt(means.size)
    else:
        cur = pairs[0][1]
        span = cur.grid.dt * (cur.grid.n_samples - 1)
        n_eff = max(8.0, span * cur.bandwidth)
        se = float(cur.samples.std()) / math.sqrt(n_eff)
    return abs(float(means.mean())) > 3.0 * se


def _oscillation_or_none(values, dt: float, stderr=None) -> float | None:
    """dominant_oscillation_frequency, or None for a flat g2 (as at g = 0)
    or one whose oscillation does not stand above its stderr."""
    try:
        return dominant_oscillation_frequency(values, dt, stderr=stderr)
    except ValueError:
        return None


def _cmd_analyze(args) -> int:
    indir = Path(args.indir)
    cfg, pairs = _load_run(indir)
    counts = [c for c, _ in pairs]
    g2 = estimate_g2(counts, cfg.max_lag, cfg.bin_width)
    h = spectrum = None
    if _current_mean_resolved(pairs):
        h = estimate_h(pairs, cfg.halfwidth, bin_width=cfg.bin_width)
        top = cfg.max_frequency if cfg.max_frequency > 0 else 0.5 * math.pi / cfg.bin_width
        spectrum = squeezing_spectrum(h, np.linspace(0.0, top, cfg.n_frequencies))
    report_audit = audit_classical_bounds(g2, h)
    g2_peak = _oscillation_or_none(g2.values, cfg.bin_width, g2.stderr)

    write_table(
        indir / "g2.csv",
        {"normalization": "g2", "n_events": g2.meta["n_events"]},
        "tau,value,stderr",
        [g2.lags, g2.values, g2.stderr],
    )
    if h is not None:
        write_table(
            indir / "h.csv",
            {"normalization": "h", "n_triggers": h.meta["n_triggers"]},
            "tau,value,stderr",
            [h.lags, h.values, h.stderr],
        )
        sq_cols = [spectrum.frequencies, spectrum.values]
        sq_header = "omega,value"
        if spectrum.stderr is not None:
            sq_cols.append(spectrum.stderr)
            sq_header += ",stderr"
        write_table(
            indir / "squeezing.csv", dict(spectrum.meta), sq_header, sq_cols
        )
        dip_omega, dip_value = spectrum.minimum()
    else:
        dip_omega = dip_value = None
        for name in ("h.csv", "squeezing.csv"):  # a previous run's
            (indir / name).unlink(missing_ok=True)
    report = {
        "config_hash": cfg.config_hash(),
        "source": cfg.source,
        "n_records": len(pairs),
        "n_events": int(g2.meta["n_events"]),
        "n_triggers": int(h.meta["n_triggers"]) if h is not None else None,
        "g2_zero": g2.value_at(0.0),
        "g2_zero_stderr": float(g2.stderr[0]),
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
    print(f"analyzed {len(pairs)} records, {report['n_events']} events")
    if h is None:
        print("mean current consistent with zero; h and squeezing skipped")
    print(
        f"g2(0) = {report['g2_zero']:.4f} +- {report['g2_zero_stderr']:.4f}, "
        f"audit: {report_audit.overall}"
    )
    print(f"wrote {indir / 'report.json'}")
    return 0


def _read_series(path: Path, normalization: str) -> CorrelationSeries:
    _, _, cols = read_table(path)
    return CorrelationSeries(cols[0], cols[1], cols[2], normalization)


def _bin_average(lags: np.ndarray, values: np.ndarray, edges: np.ndarray):
    """Mean of (lags, values) inside each [edges[i], edges[i+1]) bin."""
    out = np.empty(edges.size - 1)
    for i in range(out.size):
        m = (lags >= edges[i]) & (lags < edges[i + 1])
        out[i] = values[m].mean() if m.any() else np.nan
    return out


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
    theta = _lo_phase(cfg)
    reg_g2 = g2_regression(system, tau_grid)
    reg_h = h_regression(system, tau_grid, lo_phase=theta)

    def z_stats(mc: CorrelationSeries, reg: CorrelationSeries):
        keep = mc.lags >= 0
        lags, vals, errs = mc.lags[keep], mc.values[keep], mc.stderr[keep]
        width = cfg.bin_width
        edges = np.concatenate([lags - 0.5 * width, [lags[-1] + 0.5 * width]])
        ref = _bin_average(reg.lags, reg.values, edges)
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
        "g2": z_stats(mc_g2, reg_g2),
        "h": z_stats(mc_h, reg_h),
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
