"""Estimators that treat click records and photocurrents as data, regardless
of whether a stochastic wave or an unraveled quantum trajectory produced
them, plus the classical-bound audit that gives the package its verdicts.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import single_blas_thread
from .records import CountRecord, PhotocurrentRecord

__all__ = [
    "CorrelationSeries",
    "SqueezingSpectrum",
    "AuditCheck",
    "AuditReport",
    "segment_sums",
    "estimate_h",
    "estimate_g2",
    "squeezing_spectrum",
    "audit_classical_bounds",
    "dominant_oscillation_frequency",
]

NORMALIZATIONS = ("raw", "g2", "h")
_TRIGGER_CHUNK = 2048
# dominant_oscillation_frequency: longest series the pencil sees, singular
# values kept relative to the largest for an exact series, amplitude cut
# relative to the largest
_PENCIL_SAMPLES = 256
_RANK_FLOOR = 1e-9
_AMPLITUDE_FRACTION = 0.01


@dataclass(frozen=True)
class CorrelationSeries:
    """Lagged correlation data; normalization says what the values mean.

    'raw' is an unnormalized conditional average, 'g2' a normalized intensity
    correlation, 'h' a normalized conditional quadrature. stderr is None for
    exact (regression) curves.
    """

    lags: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None
    normalization: str = "raw"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lags = np.asarray(self.lags, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if lags.ndim != 1 or lags.shape != values.shape:
            raise ValueError("lags and values must be 1-d and equally long")
        if lags.size >= 2 and not (np.diff(lags) > 0).all():
            raise ValueError("lags must be strictly increasing")
        if self.stderr is not None:
            stderr = np.asarray(self.stderr, dtype=float)
            object.__setattr__(self, "stderr", stderr)
            if stderr.shape != values.shape:
                raise ValueError("stderr length mismatch")
            if (stderr < 0).any():
                raise ValueError("stderr must be >= 0")

    def value_at(self, lag: float) -> float:
        """Value of the bin whose lag is nearest the requested one."""
        return float(self.values[int(np.argmin(np.abs(self.lags - lag)))])


@dataclass(frozen=True)
class SqueezingSpectrum:
    """Windowed cosine transform of h(tau) - 1; negative values mean the
    conditional field dips below its stationary level in that band."""

    frequencies: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)
        if f.shape != v.shape or f.ndim != 1:
            raise ValueError("frequencies and values must match")
        if self.stderr is not None:
            s = np.asarray(self.stderr, dtype=float)
            object.__setattr__(self, "stderr", s)
            if s.shape != v.shape:
                raise ValueError("stderr length mismatch")

    def minimum(self) -> tuple[float, float]:
        i = int(np.argmin(self.values))
        return float(self.frequencies[i]), float(self.values[i])


@dataclass(frozen=True)
class AuditCheck:
    """margin > 0 means the classical bound is broken by that amount."""

    name: str
    margin: float
    stderr: float
    verdict: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def overall(self) -> str:
        verdicts = [c.verdict for c in self.checks]
        if "violated" in verdicts:
            return "violated"
        if "satisfied" in verdicts:
            return "satisfied"
        return "inconclusive"

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "checks": [c.to_dict() for c in self.checks],
        }


def _iter_pairs(records):
    """Yield (CountRecord, PhotocurrentRecord or None) per record, for the
    shapes estimate_g2 lists, without materializing an iterable input, so
    trajectory generators stream through."""
    single = isinstance(records, CountRecord) or hasattr(records, "counts") or (
        isinstance(records, tuple) and len(records) == 2 and isinstance(records[1], PhotocurrentRecord)
    )
    for item in (records,) if single else records:
        if isinstance(item, CountRecord):
            yield item, None
        elif hasattr(item, "counts"):
            yield item.counts, getattr(item, "current", None)
        else:
            c, p = item
            yield c, p


def _bin_samples(bin_width: float | None, dt: float) -> int:
    """Samples per lag bin: bin_width rounded to a multiple of dt, at least 1."""
    return 1 if bin_width is None else max(1, int(round(bin_width / dt)))


def _lag_bins(halfwidth: float, bin_width: float | None, dt: float):
    """Lag bins of trigger-centered segments: sample offsets -k..k, with
    k = halfwidth / dt rounded, pooled into bins of _bin_samples with edges
    at lag 0.

    Returns (k, starts, lengths, lags): reduceat boundaries into the
    offsets, samples per bin, and bin-center lags.
    """
    k = int(round(halfwidth / dt))
    if k < 1:
        raise ValueError("halfwidth must cover at least one sample")
    m = _bin_samples(bin_width, dt)
    fine = np.arange(-k, k + 1)
    bins = np.floor_divide(fine, m)
    starts = np.flatnonzero(np.diff(bins, prepend=bins[0] - 1))
    lengths = np.diff(starts, append=fine.size)
    return k, starts, lengths, (bins[starts] + 0.5) * m * dt


def _window_sums(samples: np.ndarray, k: int, starts: np.ndarray, lengths: np.ndarray):
    """Every lag bin's sum at every trigger position.

    For each distinct bin length L, the sums of all runs of L consecutive
    samples sit end to end in one table. Each sum adds the first sample onto
    the left-to-right sum of the others, the order reduceat takes on a bin of
    up to eight samples, so such bins give the same bits either way. Returns
    the table and each bin's offset into it from a trigger's center sample.
    """
    n = samples.size
    distinct = sorted(set(lengths.tolist()))
    table = np.empty(sum(n - L + 1 for L in distinct))
    base, pos = {}, 0
    for L in distinct:
        run = table[pos : pos + n - L + 1]
        first, *rest = [*range(1, L), 0]
        np.copyto(run, samples[first : first + run.size])
        for j in rest:
            run += samples[j : j + run.size]
        base[L], pos = pos, pos + run.size
    return table, np.array([base[L] for L in lengths.tolist()]) + starts - k


def segment_sums(
    trigger_times: np.ndarray,
    current: PhotocurrentRecord,
    halfwidth: float,
    bin_width: float | None = None,
):
    """Per-lag-bin sums and sums of squares of trigger-centered segments.

    Triggers are snapped to the nearest sample; those whose window would
    leave the record are dropped. With bin_width (rounded to a multiple of
    the sample spacing) each trigger first contributes one mean per coarse
    bin, so the returned spread is across triggers even when neighboring
    samples are correlated. Bin edges align at lag zero.

    Sparse triggers gather their 2k+1 samples each and pool them per bin.
    Where the segments hold more samples than one pass of window sums over
    the record (n samples times the summed distinct bin lengths), each bin's
    sum is formed at every position once and one value per trigger and bin
    is gathered; the two agree to rounding.

    Returns (lags, sums, sumsqs, n_used).
    """
    grid = current.grid
    k, starts, lengths, lags = _lag_bins(halfwidth, bin_width, grid.dt)
    n = grid.n_samples
    centers = np.asarray(
        np.round((np.asarray(trigger_times) - grid.t_start) / grid.dt), dtype=int
    )
    centers = centers[(centers >= k) & (centers <= n - 1 - k)]
    if centers.size * (2 * k + 1) > n * sum(set(lengths.tolist())):
        table, offs = _window_sums(current.samples, k, starts, lengths)

        def bin_sums(c):
            return table[c[:, None] + offs]
    else:
        offs = np.arange(-k, k + 1)

        def bin_sums(c):
            return np.add.reduceat(current.samples[c[:, None] + offs], starts, axis=1)

    sums = np.zeros(starts.size)
    sumsqs = np.zeros(starts.size)
    for i in range(0, centers.size, _TRIGGER_CHUNK):
        pooled = bin_sums(centers[i : i + _TRIGGER_CHUNK]) / lengths
        sums += pooled.sum(axis=0)
        sumsqs += (pooled**2).sum(axis=0)
    return lags, sums, sumsqs, int(centers.size)


class _TriggeredSums:
    """estimate_h's per-record work, one add(counts, current) per record:
    trigger-bin sums and sums of squares, the current's total and sample
    count, and each record's mean; series() divides by the pooled mean."""

    def __init__(self, halfwidth: float, bin_width: float | None) -> None:
        self.halfwidth, self.bin_width = halfwidth, bin_width
        self.dt = None
        self.sums = self.sumsqs = self.total = 0.0
        self.n_samp = self.n_used = 0
        self.means = []
        self.first_noise = 0.0  # the first record's sample noise on its mean

    def add(self, counts: CountRecord, cur: PhotocurrentRecord | None) -> None:
        if cur is None:
            raise ValueError("h needs a photocurrent with every click record")
        if self.dt is None:
            self.dt = cur.grid.dt
            span = cur.grid.dt * (cur.grid.n_samples - 1)
            self.first_noise = float(cur.samples.std()) / math.sqrt(max(8.0, span * cur.bandwidth))
        elif abs(cur.grid.dt - self.dt) > 1e-12 * self.dt:
            raise ValueError("records have mixed sample spacings")
        self.total += float(cur.samples.sum())
        self.n_samp += cur.samples.size
        self.means.append(cur.mean())
        _, s, ss, n = segment_sums(counts.timestamps, cur, self.halfwidth, self.bin_width)
        self.sums += s
        self.sumsqs += ss
        self.n_used += n

    def mean_resolved(self) -> bool:
        """True when the pooled current mean stands above its sampling noise.

        h is normalized by this mean; a mean consistent with zero (phase-random
        sources) would turn the conditional average into noise ratios."""
        means = np.array(self.means)
        se = self.first_noise
        if means.size >= 2:
            se = float(means.std(ddof=1)) / math.sqrt(means.size)
        return abs(float(means.mean())) > 3.0 * se

    def series(self) -> CorrelationSeries:
        if self.dt is None:
            raise ValueError("no records")
        mean_unc = self.total / self.n_samp
        if abs(mean_unc) < 1e-300:
            raise ArithmeticError("unconditional current mean is zero")
        if self.n_used == 0:
            raise ValueError("no usable triggers inside the record window")
        cond = self.sums / self.n_used
        var = np.maximum(self.sumsqs / self.n_used - cond**2, 0.0)
        return CorrelationSeries(
            lags=_lag_bins(self.halfwidth, self.bin_width, self.dt)[3],
            values=cond / mean_unc,
            stderr=np.sqrt(var / self.n_used) / abs(mean_unc),
            normalization="h",
            meta={
                "n_triggers": self.n_used,
                "unconditional_mean": mean_unc,
                "bin_width": self.dt * _bin_samples(self.bin_width, self.dt),
            },
        )


def estimate_h(records, halfwidth: float, bin_width: float | None = None) -> CorrelationSeries:
    """Click-triggered average of the homodyne current over its mean.

    records: a (CountRecord, PhotocurrentRecord) pair, an object with
    .counts/.current, or an iterable of either. All currents must share one
    sample spacing. bin_width pools lags into coarser bins (rounded to a
    multiple of the spacing) with edges aligned at lag zero, so the bin at
    0..bin_width holds only post-click samples; each trigger contributes one
    bin mean and the stderr is the spread across triggers. The stderr treats
    triggers as independent; strongly bunched sources (clicks arriving in
    clumps much shorter than the segment) undercount it, so error-sensitive
    work there should average independent runs instead.
    """
    sums = _TriggeredSums(halfwidth, bin_width)
    for counts, cur in _iter_pairs(records):
        sums.add(counts, cur)
    return sums.series()


class _PairCounts:
    """estimate_g2's per-record work, one add(counts) per record: the pair
    histogram, the independent-click expectation, the event count and the
    duration; series() keeps the bins of positive expectation, and is None
    while there are none."""

    def __init__(self, max_lag: float, bin_width: float) -> None:
        if bin_width <= 0 or max_lag <= bin_width:
            raise ValueError("need 0 < bin_width < max_lag")
        self.bin_width = bin_width
        self.nb = int(round(max_lag / bin_width))
        self.lags = (np.arange(self.nb) + 0.5) * bin_width
        self.hist = np.zeros(self.nb)
        self.expected = np.zeros(self.nb)
        self.n_events = 0
        self.duration = 0.0

    def add(self, rec: CountRecord) -> None:
        ts = rec.timestamps
        n = ts.size
        span = rec.duration
        if span <= 0:
            raise ValueError("record with empty window")
        self.duration += span
        self.n_events += n
        if n < 2:
            return
        self.expected += n * (n - 1) / span**2 * self.bin_width * np.maximum(span - self.lags, 0.0)
        # offset k pairs each click with the k-th next one; separations grow
        # with k, so the first offset with no pair in range ends the pass
        for k in range(1, n):
            idx = ((ts[k:] - ts[:-k]) / self.bin_width).astype(int)
            idx = idx[idx < self.nb]
            if idx.size == 0:
                break
            self.hist += np.bincount(idx, minlength=self.nb)

    def series(self) -> CorrelationSeries | None:
        # the expectation falls with lag, so the bins it reaches are a prefix
        n = int(np.count_nonzero(self.expected > 0))
        if n == 0:
            return None
        hist, expect = self.hist[:n], self.expected[:n]
        return CorrelationSeries(self.lags[:n], hist / expect, np.sqrt(np.maximum(hist, expect)) / expect,
                                 "g2", {"n_events": self.n_events, "total_duration": self.duration})


def estimate_g2(records, max_lag: float, bin_width: float) -> CorrelationSeries:
    """Normalized ordered-pair histogram of click separations.

    records is one record or an iterable of records, where a record is a
    CountRecord, a (CountRecord, PhotocurrentRecord) pair, or an object with
    .counts (a TrajectoryRecord, say); so a TrajectoryRecord stream, a list
    of pairs or a tuple of CountRecords all work. Only the clicks are read.

    For each record the pair count per lag bin is divided by the
    independent-click expectation n(n-1) * bin * (duration - lag) /
    duration^2: the unordered-pair count of the record times the uniform-lag
    density, so a homogeneous Poisson record of any length averages to 1 in
    every bin. Records pool by summing numerators and expectations, which
    keeps the estimator unbiased for ensembles of short records. The
    nb = round(max_lag / bin_width) bins cover [0, nb * bin_width), which
    can end a little before or after max_lag; separations outside that
    range are not counted. Bins whose center lag is at or past every
    record's duration have no expectation and are left out, so the series
    can end before max_lag. The function is even in lag by construction.
    stderr is sqrt(max(count, expected)) / expected: Poisson on the count,
    and on the independent-click expectation where fewer pairs were seen,
    so an empty bin keeps its null error instead of a zero one.

    Known bias, not corrected: clicks on a time grid, as unravel_ensemble
    places them (at most one per step dt), meet a continuous-lag
    expectation. Bin 0 then holds no lag-0 pairs and reads about
    dt / (2 bin_width) low, 4% at bin 0.25 and dt 0.02; a bin that is not a
    whole number of steps holds alternately the floor and the ceiling of
    bin_width / dt grid lags (12 and 13 there), so neighbouring bins read
    alternately low and high. On a coherent quantum field (g = 0, drive
    0.5, cutoff 12, 640 trajectories x 400 at dt 0.02, seed 4242) bin 0
    reads 0.9585 +- 0.0081 at bin 0.24: a false 5.1 sigma antibunching.
    """
    pairs = _PairCounts(max_lag, bin_width)
    for rec, _ in _iter_pairs(records):
        pairs.add(rec)
    g2 = pairs.series()
    if g2 is None:
        raise ValueError("no events; g2 undefined")
    return g2


@single_blas_thread
def squeezing_spectrum(
    h_series: CorrelationSeries,
    frequencies: np.ndarray | None = None,
) -> SqueezingSpectrum:
    """Two-sided cosine transform of (h - 1) under a Bartlett window.

    S(w) = 2 * integral_0^tmax (h(tau) - 1) (1 - tau/tmax) cos(w tau) dtau,
    trapezoid rule on the series' nonnegative lags (negative lags, present
    only in sampled series, are dropped; h is extended evenly). Series whose
    first lag sits above zero (bin centers) get a head panel [0, tau_0]
    closed with the first value; without it the transform loses
    2 * tau_0 * (h(0) - 1) across the whole band, enough to push classical
    spectra negative. stderr propagates bin-independent errors when the
    input carries them.
    """
    if h_series.normalization != "h":
        raise ValueError("squeezing spectrum needs an h-normalized series")
    mask = h_series.lags >= 0.0
    tau = h_series.lags[mask]
    if tau.size < 3:
        raise ValueError("too few nonnegative lags")
    y = h_series.values[mask] - 1.0
    tmax = float(tau[-1])
    window = 1.0 - tau / tmax
    if frequencies is None:
        dtau = float(np.min(np.diff(tau)))
        frequencies = np.linspace(0.0, 0.5 * math.pi / dtau, 401)
    freqs = np.asarray(frequencies, dtype=float)
    # trapezoid weights, head panel closed down to tau = 0
    wts = np.empty_like(tau)
    wts[0] = 0.5 * (tau[1] - tau[0]) + tau[0]
    wts[-1] = 0.5 * (tau[-1] - tau[-2])
    wts[1:-1] = 0.5 * (tau[2:] - tau[:-2])
    phases = np.cos(np.outer(freqs, tau))
    kernel = phases * (window * wts)
    values = 2.0 * kernel @ y
    stderr = None
    if h_series.stderr is not None:
        se = h_series.stderr[mask]
        stderr = 2.0 * np.sqrt(kernel**2 @ se**2)
    return SqueezingSpectrum(
        frequencies=freqs,
        values=values,
        stderr=stderr,
        meta={"tau_max": tmax, "window": "bartlett"},
    )


def _verdict(margin: float, stderr: float, n_tested: int, largest: float) -> str:
    z = 3.0 if n_tested == 1 else NormalDist().inv_cdf(NormalDist().cdf(3.0) ** (1.0 / n_tested))
    if not math.isfinite(margin) or largest <= z * stderr:
        return "inconclusive"
    return "violated" if margin > z * stderr else "satisfied"


# what a bound returns when it has nothing to test
_NO_TEST = (math.nan, math.nan, 1, math.inf)


def _g2_zero(values, stderr, i0):
    return 1.0 - values[i0], stderr[i0], 1, 1.0  # g2 >= 0 caps the margin at 1


def _g2_falloff(values, stderr, i0):
    if values.size < 2:
        return _NO_TEST
    dev = np.abs(values - 1.0)
    rel = dev - dev[i0]
    rel[i0] = -np.inf
    j = int(np.argmax(rel))
    return rel[j], math.hypot(stderr[j], stderr[i0]), values.size - 1, math.inf


def _h_range(values, stderr, i0):
    j = int(np.argmax(values))
    return values[j] - 2.0, stderr[j], values.size, math.inf


# (check name, the series it reads, its bound); each bound maps (values,
# stderr, lag-0 index) to (margin, stderr, bins tested, largest margin)
_BOUNDS = (("g2_zero", "g2", _g2_zero), ("g2_falloff", "g2", _g2_falloff), ("h_range", "h", _h_range))


def audit_classical_bounds(
    g2: CorrelationSeries | None = None,
    h: CorrelationSeries | None = None,
) -> AuditReport:
    """Check the bounds every stochastic-intensity model must satisfy.

    g2_zero:    g2(0) >= 1, margin 1 - g2(0)
    g2_falloff: |g2(tau) - 1| <= |g2(0) - 1|, margin is the worst excess
    h_range:    h(tau) <= 2, margin max(h) - 2

    They test 1 bin, every g2 bin but lag 0's, and every h bin. The worst of
    n bins is 'violated' when its margin exceeds z stderr (zero for an exact
    series), z the Sidak threshold holding the family-wise false-alarm rate
    at P(Z > 3): 3 for 1 bin, 4.02 for 47, 4.20 for 101, 4.73 for 1,200.
    Otherwise 'satisfied', or 'inconclusive' if even the largest margin
    possible (1 for g2_zero, as g2 >= 0) would not exceed z stderr, or the
    series is missing, empty or gives a margin that is not finite.
    """
    series, checks = {"g2": g2, "h": h}, []
    for name, kind, bound in _BOUNDS:
        s = series[kind]
        margin, stderr, n_tested, largest = _NO_TEST
        if s is not None and s.lags.size:
            se = np.zeros_like(s.values) if s.stderr is None else s.stderr
            margin, stderr, n_tested, largest = bound(s.values, se, int(np.argmin(np.abs(s.lags))))
        checks.append(AuditCheck(name, float(margin), float(stderr), _verdict(margin, stderr, n_tested, largest)))
    return AuditReport(checks=tuple(checks))


@single_blas_thread
def dominant_oscillation_frequency(values, dt: float, *, stderr=None) -> float:
    """|Im s| of the least-damped strong oscillating pole s of a series.

    Matrix pencil (Hua & Sarkar, IEEE Trans. ASSP 38, 814, 1990), exact on
    noiseless sums of damped exponentials: the series, decimated to at most
    _PENCIL_SAMPLES samples, fills a Hankel matrix of n // 3 + 1 columns
    whose singular values above a floor count the poles; amplitudes are least
    squares on their Vandermonde matrix. Poles under _AMPLITUDE_FRACTION of
    the largest amplitude are ignored. The least damped wins, not the lowest
    in frequency: a relaxation curve can hold a weak slow pole just under the
    cut. The floor is _RANK_FLOOR of the largest singular value for an exact
    series. Given the per-sample stderr of a sampled one, it is the noise
    level of the Hankel matrix, rms(stderr) (sqrt(rows) + sqrt(cols)), and
    the chosen pole's amplitude must also exceed its least-squares error.
    ValueError when no pole passes.

    Known false alarms, not corrected: that amplitude test is 1 sigma, so
    a flat g2 of Poisson clicks (rate 2, 2,000 time units, bins of 0.25)
    has an oscillation named in 16 of 500 series of 12 to 400 bins.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size < 8:
        raise ValueError("need a 1-d series of at least 8 samples")
    if dt <= 0:
        raise ValueError("dt must be positive")
    step = -(-y.size // _PENCIL_SAMPLES)
    y = y[::step]
    hankel = sliding_window_view(y, y.size // 3 + 1)
    _, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    if stderr is None:
        floor = _RANK_FLOOR * sv[0]
    else:
        se = np.asarray(stderr, dtype=float)
        if se.shape != np.shape(values):
            raise ValueError("stderr must match values")
        noise = math.sqrt(np.mean(se[::step] ** 2))
        floor = noise * (math.sqrt(hankel.shape[0]) + math.sqrt(hankel.shape[1]))
    # more than L poles from L + 1 columns would force a zero pole
    v = vh[:-1][sv[:-1] > floor].T
    if v.shape[1] == 0:
        raise ValueError("no pole above the noise")
    z = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:]).astype(complex)
    z = z[z != 0]  # a zero pole is a one-sample transient (a lone spike)
    s = np.log(z) / (step * dt)
    vander = z ** np.arange(y.size)[:, None]
    amp = np.abs(np.linalg.lstsq(vander, y, rcond=None)[0])
    # a lone negative real pole only flips sign each sample: no resolved frequency
    osc = np.flatnonzero((z.imag != 0) & (amp >= _AMPLITUDE_FRACTION * amp.max(initial=0.0)))
    if osc.size == 0:
        raise ValueError("no oscillating pole in the series")
    k = osc[np.argmax(s.real[osc])]
    if stderr is not None:
        err = noise * math.sqrt(np.linalg.pinv(vander.conj().T @ vander)[k, k].real)
        if not amp[k] > err:
            raise ValueError("the oscillating pole is within its own error")
    return float(abs(s[k].imag))
