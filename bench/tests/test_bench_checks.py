"""The benchmark's statistical checks. Run: python3 -m pytest bench/tests"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import checks as C  # noqa: E402


def test_z_bound_accepts_noise_and_rejects_a_5_sigma_shift():
    rng = np.random.default_rng(1)
    ref = np.linspace(0.5, 1.5, 60)
    sigma = np.full(60, 0.02)
    noisy = ref + sigma * rng.standard_normal(60)
    assert C.z_bound(noisy, ref, sigma)[0]
    assert not C.z_bound(ref + 5.0 * sigma, ref, sigma)[0]
    assert not C.z_bound(ref - 5.0 * sigma, ref, sigma)[0]
    assert not C.z_bound(ref, ref, np.zeros(60))[0]


@pytest.mark.parametrize("mu", [0.5, 12.0, 2000.0])
def test_g2_poisson_rejects_a_5_sigma_shift(mu):
    expected = np.full(8, mu)
    window = max(1, math.ceil(C.MIN_PAIRS / mu))  # bins pooled per tested window
    shift = np.zeros(8)
    shift[:window] = 5.0 * math.sqrt(mu * window) / window + 0.5
    assert C.g2_poisson(np.round(expected), expected, np.ones(8))[0]
    assert not C.g2_poisson(np.round(expected + shift), expected, np.ones(8))[0]


def test_g2_poisson_wants_whole_pair_counts():
    assert not C.g2_poisson(np.full(4, 20.5), np.full(4, 20.0), np.ones(4))[0]


def test_count_within_rejects_a_5_sigma_shift():
    assert C.count_within(1000.0, 1000.0)[0]
    assert not C.count_within(1000.0 + 5.0 * math.sqrt(1000.0), 1000.0)[0]


def test_batch_means_rejects_a_5_sigma_shift():
    rng = np.random.default_rng(2)
    batches = 1.0 + 0.1 * rng.standard_normal((40, 6))
    mean = batches.mean(axis=0)
    sigma = batches.std(axis=0, ddof=1) / math.sqrt(40)
    assert C.batch_means(mean, batches, np.ones(6))[0]
    assert not C.batch_means(mean + 5.0 * sigma + 0.1, batches, mean)[0]


def test_pair_histogram_matches_brute_force():
    ts = np.sort(np.random.default_rng(3).uniform(0.0, 50.0, 200))
    d = (ts[None, :] - ts[:, None]).ravel()
    d = d[(d > 0) & (d < 3.0)]
    assert np.array_equal(C.pair_histogram(ts, 3.0, 0.25), np.bincount((d / 0.25).astype(int), minlength=12))


def test_poisson_batches_average_to_one():
    ts = np.sort(np.random.default_rng(4).uniform(0.0, 4000.0, 8000))
    batches = C.g2_batches(ts, 0.0, 4000.0, 2.0, 0.25, 20)
    assert batches.shape == (20, 8)
    assert C.batch_means(batches.mean(axis=0), batches, np.ones(8))[0]


def test_lag_pooled_uses_bins_of_m_samples_from_zero():
    assert C.lag_pooled(np.arange(7.0), 3) == pytest.approx([1.0, 4.0, 6.0])


def test_bartlett_kernel():
    tau = np.linspace(0.125, 12.125, 49)
    # h - 1 = 1 everywhere: S(0) = 2 * integral of the window = tmax, up to
    # the head panel closed with its first value
    assert (C.bartlett_kernel(tau, [0.0]) @ np.ones(49))[0] == pytest.approx(tau[-1], rel=1e-3)


def test_not_violated_allows_named_checks_only():
    report = {"checks": [{"name": "g2_zero", "verdict": "violated"}, {"name": "h_range", "verdict": "satisfied"}]}
    assert not C.not_violated(report)[0]
    assert C.not_violated(report, {"g2_zero"})[0]


def test_trigger_average_matches_brute_force_segments():
    rng = np.random.default_rng(5)
    dt, samples = 0.1, 1.0 + rng.standard_normal(2000)
    ts = np.sort(rng.uniform(0.0, 200.0, 300))
    avg = C.TriggerAverage(halfwidth=2.0, bin_width=0.5, dt=dt)
    avg.add(ts, samples, 0.0)
    c = np.rint(ts / dt).astype(int)
    c = c[(c >= 20) & (c < 2000 - 20)]
    seg = samples[c[:, None] + np.arange(-20, 21)]
    # bins of 5 samples with edges at lag zero: [-20, -15), ..., [15, 20), [20]
    means = np.stack([seg[:, i : i + 5].mean(axis=1) for i in range(0, 41, 5)], axis=1)
    assert avg.n == c.size
    assert avg.lags == pytest.approx((np.arange(-4, 5) + 0.5) * 0.5)
    assert avg.stderr() == pytest.approx(means.std(axis=0) / math.sqrt(c.size) / samples.mean())

