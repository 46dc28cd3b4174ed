"""Record containers and their on-disk formats.

Both engines emit the same two record types so the analyzers stay
source-agnostic: CountRecord (photoelectron timestamps) and
PhotocurrentRecord (uniformly sampled difference current). Files are plain
text with '#' metadata headers and 17-significant-digit floats, which makes
strict-deterministic reruns byte-identical.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .numerics import TimeGrid

FLOAT_FMT = "{:.16e}"
_CURRENT_ROW = "{}" + FLOAT_FMT + "\n"


def _fmt(v: float) -> str:
    return FLOAT_FMT.format(float(v))


@functools.lru_cache(maxsize=4)
def _time_column(t_start: float, dt: float, n_samples: int) -> tuple[str, ...]:
    """The 't,' prefixes of a current file; all records of a run share one grid."""
    return tuple(_fmt(t) + "," for t in TimeGrid(t_start, dt, n_samples).times)


@dataclass
class CountRecord:
    """Ordered photoelectric detection timestamps over a window [t0, t1]."""

    timestamps: np.ndarray
    t0: float
    t1: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=float)
        self.timestamps = ts
        if self.t1 < self.t0:
            raise ValueError("window must satisfy t1 >= t0")
        if ts.size:
            if not np.all(np.diff(ts) > 0):
                raise ValueError("timestamps must be strictly increasing")
            if ts[0] < self.t0 or ts[-1] > self.t1:
                raise ValueError("timestamps must lie inside the window")

    @property
    def n_events(self) -> int:
        return int(self.timestamps.size)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def rate(self) -> float:
        """Empirical singles rate n/T."""
        if self.duration <= 0:
            raise ValueError("zero-length window has no rate")
        return self.n_events / self.duration


@dataclass
class PhotocurrentRecord:
    """Sampled homodyne difference current with its post-detection bandwidth."""

    grid: TimeGrid
    samples: np.ndarray
    bandwidth: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        self.samples = s
        if s.size != self.grid.n_samples:
            raise ValueError(
                f"sample count {s.size} does not match grid ({self.grid.n_samples})"
            )
        nyquist = 0.5 / self.grid.dt
        if self.bandwidth > nyquist:
            raise ValueError(
                f"bandwidth {self.bandwidth} exceeds the grid Nyquist {nyquist}"
            )
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def mean(self) -> float:
        return float(self.samples.mean())


def _write_meta(fh, meta: dict) -> None:
    for k in sorted(meta):
        fh.write(f"# {k}={meta[k]}\n")


def _read_meta(lines: list[str]) -> tuple[dict, int]:
    meta: dict = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i][1:].strip()
        if "=" in body:
            k, v = body.split("=", 1)
            meta[k.strip()] = v.strip()
        i += 1
    return meta, i


def save_count_record(path, rec: CountRecord) -> None:
    """'#' header (window plus any meta), then one timestamp per line."""
    with open(path, "w") as fh:
        _write_meta(fh, {**rec.meta, "t0": _fmt(rec.t0), "t1": _fmt(rec.t1)})
        fh.write("".join(map((FLOAT_FMT + "\n").format, rec.timestamps.tolist())))


def load_count_record(path) -> CountRecord:
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta, i = _read_meta(lines)
    t0 = float(meta.pop("t0"))
    t1 = float(meta.pop("t1"))
    ts = np.array([float(x) for x in lines[i:] if x.strip()], dtype=float)
    return CountRecord(ts, t0, t1, meta=meta)


def save_photocurrent(path, rec: PhotocurrentRecord) -> None:
    """CSV t,i with '#' header carrying grid and bandwidth."""
    g = rec.grid
    with open(path, "w") as fh:
        _write_meta(
            fh,
            {
                **rec.meta,
                "t_start": _fmt(g.t_start),
                "dt": _fmt(g.dt),
                "n_samples": str(g.n_samples),
                "bandwidth": _fmt(rec.bandwidth),
            },
        )
        fh.write("t,i\n")
        times = _time_column(g.t_start, g.dt, g.n_samples)
        fh.write("".join(map(_CURRENT_ROW.format, times, rec.samples.tolist())))


def load_photocurrent(path) -> PhotocurrentRecord:
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta, i = _read_meta(lines)
    grid = TimeGrid(
        t_start=float(meta.pop("t_start")),
        dt=float(meta.pop("dt")),
        n_samples=int(meta.pop("n_samples")),
    )
    bandwidth = float(meta.pop("bandwidth"))
    if lines[i] != "t,i":
        raise ValueError(f"unexpected column line {lines[i]!r}")
    # numpy parses the current strings; the time column is never converted
    vals = np.array([row.partition(",")[2] for row in lines[i + 1 :] if row.strip()], dtype=float)
    return PhotocurrentRecord(grid, vals, bandwidth, meta=meta)


def write_table(path, meta: dict, header: str, columns) -> None:
    """Generic '#'-meta CSV used by the series formats (tau,value,... etc)."""
    cols = [np.asarray(c) for c in columns]
    with open(path, "w") as fh:
        _write_meta(fh, meta)
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_table(path) -> tuple[dict, str, list[np.ndarray]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta, i = _read_meta(lines)
    header = lines[i]
    rows = [
        [float(x) for x in row.split(",")] for row in lines[i + 1 :] if row.strip()
    ]
    cols = [np.array(c, dtype=float) for c in zip(*rows)] if rows else []
    return meta, header, cols
