"""Statistical checks of sampled series against exact references.

Every check returns (ok, detail). Errors are computed here, not taken from
the program: Poisson errors from the reference's own expected pair count for
g2, batch means over independent stretches of a record where pairs are not
Poisson (thermal light), and for h the across-trigger spread of the
benchmark's own click-triggered averages (TriggerAverage), propagated to the
squeezing spectrum with the bin-independent rule the program states.
"""
from __future__ import annotations

import math
import numpy as np

# |z| bound for one bin. A series shifted by 5 sigma fails it; with the few
# hundred bins a run tests, Gaussian noise crosses it about once in 2000 runs.
Z_MAX = 4.75
# smallest expected pair count pooled into one g2 window
MIN_PAIRS = 10.0


def z_bound(values, ref, sigma):
    """Every |values - ref| / sigma within Z_MAX; sigma must be positive."""
    values, ref, sigma = (np.asarray(x, dtype=float) for x in (values, ref, sigma))
    if values.shape != ref.shape or values.shape != sigma.shape or values.size == 0:
        return False, "shape mismatch or empty series"
    if not (np.isfinite(values).all() and np.isfinite(sigma).all() and (sigma > 0).all()):
        return False, "non-finite value or non-positive error"
    z = (values - ref) / sigma
    i = int(np.argmax(np.abs(z)))
    return bool(abs(z[i]) <= Z_MAX), f"worst z {z[i]:+.2f} at bin {i} of {z.size}"


def g2_poisson(hist, expected, ref):
    """Pair counts per bin against Poisson means expected * ref.

    Neighbouring bins are pooled until each window expects MIN_PAIRS pairs,
    so sparse quantum records are tested on what they hold; from 10 expected
    pairs up, a Poisson count passes 4.75 sigma upward about once in 1e5."""
    hist = np.asarray(hist, dtype=float)
    mu = np.asarray(expected, dtype=float) * np.asarray(ref, dtype=float)
    if not np.allclose(hist, np.round(hist), atol=1e-6 * max(1.0, hist.max())):
        return False, "pair counts are not whole numbers"
    windows, k, m = [], 0.0, 0.0
    for h_i, mu_i in zip(hist, mu):
        k, m = k + h_i, m + mu_i
        if m >= MIN_PAIRS:
            windows.append((k, m))
            k = m = 0.0
    if m > 0:
        if windows:
            k0, m0 = windows.pop()
            k, m = k + k0, m + m0
        windows.append((k, m))
    z = [(k - m) / math.sqrt(m) for k, m in windows]
    i = int(np.argmax(np.abs(z)))
    return (
        bool(abs(z[i]) <= Z_MAX),
        f"worst z {z[i]:+.2f} in window {i} of {len(z)} "
        f"({windows[i][0]:.0f} pairs, {windows[i][1]:.1f} expected)",
    )


def expected_pairs(timestamps, t0: float, t1: float, lags, bin_width: float) -> np.ndarray:
    """Independent-click pair expectation per lag bin for one record."""
    n = len(timestamps)
    span = t1 - t0
    return n * (n - 1) / span**2 * bin_width * np.maximum(span - np.asarray(lags), 0.0)


def pair_histogram(ts, max_lag: float, bin_width: float) -> np.ndarray:
    """Ordered-pair separations in [0, max_lag), binned; no loop over events."""
    ts = np.asarray(ts, dtype=float)
    nb = int(math.floor(max_lag / bin_width + 1e-9))
    hist = np.zeros(nb)
    for j in range(1, ts.size):
        d = ts[j:] - ts[:-j]
        d = d[d < nb * bin_width]
        if d.size == 0:
            break
        hist += np.bincount((d / bin_width).astype(int), minlength=nb)[:nb]
    return hist


def g2_batches(ts, t0: float, t1: float, max_lag: float, bin_width: float, n_batches: int):
    """g2 per lag bin on n_batches equal stretches of one record, for batch
    means: each stretch is normalized by its own independent-click count."""
    lags = (np.arange(int(math.floor(max_lag / bin_width + 1e-9))) + 0.5) * bin_width
    edges = np.linspace(t0, t1, n_batches + 1)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        part = ts[(ts >= a) & (ts < b)]
        out.append(pair_histogram(part, max_lag, bin_width) / expected_pairs(part, a, b, lags, bin_width))
    return np.array(out)


def batch_means(values, batches, ref):
    """values against ref with the error of the mean over independent batches."""
    batches = np.asarray(batches, dtype=float)
    sigma = batches.std(axis=0, ddof=1) / math.sqrt(batches.shape[0])
    return z_bound(values, ref, sigma)


def count_within(observed: float, expected: float):
    """A total click count against its expectation, Poisson error."""
    z = (observed - expected) / math.sqrt(expected)
    return abs(z) <= Z_MAX, f"{observed:.0f} clicks vs {expected:.1f} expected (z {z:+.2f})"


def lag_pooled(fine, m: int):
    """Means of fine samples at lags 0..k over the estimator's lag bins of m
    samples with edges at zero; returns the bins at nonnegative lags."""
    fine = np.asarray(fine, dtype=float)
    starts = np.arange(0, fine.size, m)
    return np.add.reduceat(fine, starts) / np.diff(np.append(starts, fine.size))


def bin_average(fine_lags, fine_values, lo, hi):
    """Mean of a finely sampled curve over each [lo, hi) lag bin."""
    fine_lags = np.asarray(fine_lags)
    return np.array(
        [fine_values[(fine_lags >= a) & (fine_lags < b)].mean() for a, b in zip(lo, hi)]
    )


def bartlett_kernel(tau, freqs) -> np.ndarray:
    """K with S(w) = K @ (h - 1) = 2 int_0^tmax (h - 1)(1 - tau/tmax)
    cos(w tau) dtau, trapezoid rule with the head panel [0, tau_0] closed
    by the first value."""
    tau = np.asarray(tau, dtype=float)
    w = np.empty_like(tau)
    w[0] = 0.5 * (tau[1] - tau[0]) + tau[0]
    w[-1] = 0.5 * (tau[-1] - tau[-2])
    w[1:-1] = 0.5 * (tau[2:] - tau[:-2])
    return 2.0 * np.cos(np.outer(freqs, tau)) * (w * (1.0 - tau / tau[-1]))


class TriggerAverage:
    """The click-triggered current per lag bin, computed apart from the
    program: each trigger snaps to the nearest sample, a trigger whose
    window of +-halfwidth leaves the record is dropped, and each kept
    trigger gives one current mean per bin of round(bin_width / dt) samples,
    bin edges at lag zero, read off a cumulative sum. The error of h is the
    spread of those means across triggers over the unconditional current
    mean."""

    def __init__(self, halfwidth: float, bin_width: float, dt: float):
        self.dt = dt
        self.k = int(round(halfwidth / dt))
        m = max(1, int(round(bin_width / dt)))
        bins = np.arange(-self.k // m, self.k // m + 1)
        # fine lags [lo, hi) of each bin, clipped to the window -k..k
        self.lo = np.maximum(bins * m, -self.k)
        self.hi = np.minimum((bins + 1) * m, self.k + 1)
        self.lags = (bins + 0.5) * m * dt
        self.n = 0
        self.sums = np.zeros(bins.size)
        self.sumsqs = np.zeros(bins.size)
        self.total = 0.0
        self.n_samples = 0

    def add(self, timestamps, samples, t_start: float) -> None:
        samples = np.asarray(samples, dtype=float)
        c = np.rint((np.asarray(timestamps, dtype=float) - t_start) / self.dt).astype(int)
        c = c[(c >= self.k) & (c < samples.size - self.k)]
        csum = np.concatenate(([0.0], np.cumsum(samples)))
        for i in range(0, c.size, 4096):
            cc = c[i : i + 4096, None]
            means = (csum[cc + self.hi] - csum[cc + self.lo]) / (self.hi - self.lo)
            self.sums += means.sum(axis=0)
            self.sumsqs += (means**2).sum(axis=0)
        self.n += int(c.size)
        self.total += float(samples.sum())
        self.n_samples += samples.size

    def stderr(self) -> np.ndarray:
        """Error of h per lag bin."""
        cond = self.sums / self.n
        var = np.maximum(self.sumsqs / self.n - cond**2, 0.0)
        return np.sqrt(var / self.n) / abs(self.total / self.n_samples)


def not_violated(report: dict, allowed: set[str] = frozenset()):
    """No audit check reads 'violated' unless its name is in allowed."""
    bad = [c["name"] for c in report["checks"] if c["verdict"] == "violated" and c["name"] not in allowed]
    verdicts = ", ".join(f"{c['name']} {c['verdict']}" for c in report["checks"])
    return not bad, verdicts
