import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from photodyne import numerics
from photodyne.analyzers import (
    AuditCheck,
    AuditReport,
    CorrelationSeries,
    SqueezingSpectrum,
    audit_classical_bounds,
    dominant_oscillation_frequency,
    estimate_g2,
    estimate_h,
    segment_sums,
    squeezing_spectrum,
)
from photodyne.numerics import RngStream, TimeGrid
from photodyne.quantum import (
    DEFAULTS,
    SystemParams,
    TrajectoryRecord,
    build_system,
    g2_regression,
    h_regression,
    liouvillian,
)
from photodyne.records import CountRecord, PhotocurrentRecord


def _current(samples, dt=0.1, t0=0.0, bandwidth=None):
    samples = np.asarray(samples, dtype=float)
    grid = TimeGrid(t0, dt, samples.size)
    bw = 0.5 / dt if bandwidth is None else bandwidth
    return PhotocurrentRecord(grid=grid, samples=samples, bandwidth=bw)


class TestCorrelationSeries:
    def test_rejects_unknown_normalization(self):
        with pytest.raises(ValueError, match="normalization"):
            CorrelationSeries(lags=[0.0, 1.0], values=[1.0, 1.0], normalization="root")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CorrelationSeries(lags=[0.0, 1.0], values=[1.0])

    def test_rejects_unsorted_lags(self):
        with pytest.raises(ValueError, match="increasing"):
            CorrelationSeries(lags=[1.0, 0.0], values=[1.0, 1.0])

    def test_rejects_bad_stderr(self):
        with pytest.raises(ValueError):
            CorrelationSeries(lags=[0.0, 1.0], values=[1.0, 1.0], stderr=[0.1])
        with pytest.raises(ValueError, match=">= 0"):
            CorrelationSeries(lags=[0.0, 1.0], values=[1.0, 1.0], stderr=[0.1, -0.1])

    def test_value_at_picks_nearest_bin(self):
        s = CorrelationSeries(lags=[0.0, 1.0, 2.0], values=[5.0, 6.0, 7.0])
        assert s.value_at(0.9) == 6.0
        assert s.value_at(-3.0) == 5.0


class TestSqueezingSpectrumContainer:
    def test_minimum(self):
        s = SqueezingSpectrum(frequencies=[0.0, 1.0, 2.0], values=[0.3, -0.5, 0.1])
        assert s.minimum() == (1.0, -0.5)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            SqueezingSpectrum(frequencies=[0.0, 1.0], values=[1.0])


class TestAuditReportPrecedence:
    def test_violated_wins(self):
        r = AuditReport(
            checks=(
                AuditCheck("a", 0.5, 0.0, "violated"),
                AuditCheck("b", -1.0, 0.0, "satisfied"),
                AuditCheck("c", math.nan, math.nan, "inconclusive"),
            )
        )
        assert r.overall == "violated"

    def test_satisfied_beats_inconclusive(self):
        r = AuditReport(
            checks=(
                AuditCheck("a", -1.0, 0.0, "satisfied"),
                AuditCheck("b", math.nan, math.nan, "inconclusive"),
            )
        )
        assert r.overall == "satisfied"

    def test_all_inconclusive(self):
        r = AuditReport(checks=(AuditCheck("a", math.nan, math.nan, "inconclusive"),))
        assert r.overall == "inconclusive"

    def test_to_dict_round(self):
        r = AuditReport(checks=(AuditCheck("a", 0.5, 0.1, "violated"),))
        d = r.to_dict()
        assert d["overall"] == "violated"
        assert d["checks"][0] == {
            "name": "a",
            "margin": 0.5,
            "stderr": 0.1,
            "verdict": "violated",
        }


class TestSegmentSums:
    def test_single_trigger_exact_segment(self):
        samples = np.arange(20.0)
        cur = _current(samples, dt=0.1)
        # trigger at t = 1.0 -> sample index 10, halfwidth 0.3 -> k = 3
        lags, sums, sumsqs, n = segment_sums(np.array([1.0]), cur, 0.3)
        assert n == 1
        expect = samples[7:14]
        assert np.allclose(sums, expect)
        assert np.allclose(sumsqs, expect**2)
        assert np.allclose(lags, np.arange(-3, 4) * 0.1 + 0.05)

    def test_trigger_snaps_to_nearest_sample(self):
        samples = np.arange(20.0)
        cur = _current(samples, dt=0.1)
        a = segment_sums(np.array([1.04]), cur, 0.3)
        b = segment_sums(np.array([1.0]), cur, 0.3)
        assert np.array_equal(a[1], b[1])

    def test_window_leaving_triggers_dropped(self):
        cur = _current(np.ones(10), dt=0.1)
        lags, sums, _, n = segment_sums(np.array([0.0, 0.5, 0.9]), cur, 0.3)
        assert n == 1  # only the middle trigger fits
        assert np.allclose(sums, 1.0)

    def test_no_usable_triggers(self):
        cur = _current(np.ones(10), dt=0.1)
        _, sums, _, n = segment_sums(np.array([0.0]), cur, 0.4)
        assert n == 0 and np.all(sums == 0.0)

    def test_halfwidth_below_one_sample_rejected(self):
        cur = _current(np.ones(10), dt=0.1)
        with pytest.raises(ValueError, match="halfwidth"):
            segment_sums(np.array([0.5]), cur, 0.01)

    # (bin_width, trigger sample indices) on 400 samples at dt 0.1 with
    # k = 25; "edges" are the first and last usable centers, k and n-1-k
    _POOLING_INPUTS = {
        "stock": (0.4, [100, 200, 250]),
        "short_edge_bins": (0.7, [25, 100, 374]),  # bins of 4, 7 and 5 samples
        "unpooled": (None, [25, 374]),
        # segments cover more samples than the window-sum pass: pooled from
        # window sums rather than per-trigger gathers
        "dense": (0.7, [25, 374, *np.random.default_rng(6).integers(25, 375, 200)]),
        "dense_unpooled": (None, [25, 374, *np.random.default_rng(7).integers(25, 375, 40)]),
        "dense_quarter_bins": (0.4, [25, 374, *np.random.default_rng(8).integers(25, 375, 200)]),
    }

    def test_pooling_matches_manual_grouping(self):
        # dual route: the pooled sums against explicit floor-division grouping
        samples = 3.0 + np.random.default_rng(5).normal(size=400)
        cur = _current(samples, dt=0.1)
        k = 25
        for name, (bin_width, centers) in self._POOLING_INPUTS.items():
            m = 1 if bin_width is None else int(round(bin_width / 0.1))
            lags, sums, sumsqs, n = segment_sums(np.array(centers) * 0.1, cur, 2.5, bin_width=bin_width)
            assert n == len(centers), name
            groups = np.floor_divide(np.arange(-k, k + 1), m)
            man_sums = np.zeros(lags.size)
            man_sq = np.zeros(lags.size)
            for c in centers:
                seg = samples[c - k : c + k + 1]
                means = np.array([seg[groups == g].mean() for g in np.unique(groups)])
                man_sums += means
                man_sq += means**2
            np.testing.assert_allclose(sums, man_sums, rtol=1e-12, err_msg=name)
            np.testing.assert_allclose(sumsqs, man_sq, rtol=1e-12, err_msg=name)
            # edges align at zero: centers sit at half-bin offsets
            np.testing.assert_allclose(lags, (np.unique(groups) + 0.5) * m * 0.1, rtol=1e-12, err_msg=name)


class TestEstimateH:
    def test_constant_current_gives_exactly_one(self):
        cur = _current(np.full(500, 3.7), dt=0.1)
        counts = CountRecord(np.array([10.0, 20.0, 30.0]), 0.0, 49.9)
        series = estimate_h((counts, cur), halfwidth=2.0)
        assert series.normalization == "h"
        assert np.allclose(series.values, 1.0)
        assert np.allclose(series.stderr, 0.0)
        assert series.meta["n_triggers"] == 3
        assert series.meta["unconditional_mean"] == pytest.approx(3.7)

    def test_crafted_pulse_shape(self):
        # unit baseline with a one-sample spike 2 samples after each click
        dt = 0.1
        samples = np.ones(1000)
        clicks = np.array([20.0, 40.0, 60.0])
        for t in clicks:
            samples[int(round(t / dt)) + 2] += 9.0
        cur = _current(samples, dt=dt)
        counts = CountRecord(clicks, 0.0, 99.9)
        series = estimate_h((counts, cur), halfwidth=1.0)
        mean_unc = samples.mean()
        i = int(np.argmin(np.abs(series.lags - 0.25)))  # bin holding lag 2dt
        assert series.values[i] == pytest.approx(10.0 / mean_unc)
        # all other bins hold the baseline
        others = np.ones(series.lags.size, dtype=bool)
        others[i] = False
        assert np.allclose(series.values[others], 1.0 / mean_unc)

    def test_accepts_object_with_counts_and_current(self):
        class Rec:
            pass

        rec = Rec()
        rec.current = _current(np.full(100, 2.0), dt=0.1)
        rec.counts = CountRecord(np.array([5.0]), 0.0, 9.9)
        series = estimate_h(rec, halfwidth=1.0)
        assert np.allclose(series.values, 1.0)

    def test_pools_across_records(self):
        cur1 = _current(np.full(200, 2.0), dt=0.1)
        cur2 = _current(np.full(200, 4.0), dt=0.1)
        c1 = CountRecord(np.array([10.0]), 0.0, 19.9)
        c2 = CountRecord(np.array([10.0]), 0.0, 19.9)
        series = estimate_h([(c1, cur1), (c2, cur2)], halfwidth=1.0)
        # conditional mean 3, unconditional mean 3
        assert np.allclose(series.values, 1.0)
        assert series.meta["n_triggers"] == 2

    def test_mixed_sample_spacing_rejected(self):
        cur1 = _current(np.ones(100), dt=0.1)
        cur2 = _current(np.ones(100), dt=0.2)
        c = CountRecord(np.array([5.0]), 0.0, 9.9)
        with pytest.raises(ValueError, match="spacing"):
            estimate_h([(c, cur1), (c, cur2)], halfwidth=1.0)

    def test_zero_mean_current_rejected(self):
        cur = _current(np.zeros(100), dt=0.1)
        c = CountRecord(np.array([5.0]), 0.0, 9.9)
        with pytest.raises(ArithmeticError, match="mean"):
            estimate_h((c, cur), halfwidth=1.0)

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            estimate_h([], halfwidth=1.0)

    def test_no_triggers_rejected(self):
        cur = _current(np.ones(100), dt=0.1)
        c = CountRecord(np.array([]), 0.0, 9.9)
        with pytest.raises(ValueError, match="trigger"):
            estimate_h((c, cur), halfwidth=1.0)


def _poisson_records():
    """40 Poisson click records at rate 2 over 100 time units."""
    rng = RngStream(seed=2026, stream_id=0)
    records = []
    for _ in range(40):
        ts = np.cumsum(rng.exponential(0.5, 400))
        records.append(CountRecord(ts[ts < 100.0], 0.0, 100.0))
    return records


_POISSON_RECORDS = _poisson_records()


class TestEstimateG2:
    def test_hand_counted_histogram(self):
        ts = np.array([1.0, 1.3, 2.0, 6.0])
        rec = CountRecord(ts, 0.0, 10.0)
        series = estimate_g2(rec, max_lag=2.0, bin_width=0.5)
        # ordered pairs with separation < 2: (1,1.3)->0.3, (1,2)->1.0,
        # (1.3,2)->0.7  => bins [0,.5):1  [.5,1):1  [1,1.5):1  [1.5,2):0
        # expectation per bin: n(n-1) * bin * (T - lag) / T^2
        expected = 4 * 3 * 0.5 * (10.0 - series.lags) / 100.0
        assert np.allclose(series.values, np.array([1, 1, 1, 0]) / expected)
        assert series.meta["n_events"] == 4
        assert series.meta["total_duration"] == 10.0
        assert np.allclose(series.lags, [0.25, 0.75, 1.25, 1.75])

    def test_poisson_is_flat_within_three_sigma(self):
        rng = RngStream(seed=77, stream_id=0)
        rate, t_end = 50.0, 2000.0
        n = int(rate * t_end * 1.2)
        gaps = rng.exponential(1.0 / rate, n)
        ts = np.cumsum(gaps)
        ts = ts[ts < t_end]
        rec = CountRecord(ts, 0.0, t_end)
        series = estimate_g2(rec, max_lag=1.0, bin_width=0.1)
        z = (series.values - 1.0) / series.stderr
        assert np.abs(z).max() < 3.5

    def test_accepts_object_with_counts(self):
        class Rec:
            pass

        rec = Rec()
        rec.counts = CountRecord(np.array([1.0, 2.0, 3.0]), 0.0, 10.0)
        series = estimate_g2(rec, max_lag=2.0, bin_width=0.5)
        assert series.meta["n_events"] == 3

    @pytest.mark.parametrize(
        "shape", ["pair", "pairs", "trajectory", "count", "count_tuple", "counts_only"]
    )
    def test_reads_every_shape_estimate_h_takes(self, shape):
        # the clicks alone decide g2, whatever the records are wrapped in
        recs = [
            CountRecord(np.array([1.0, 1.3, 2.0, 6.0]), 0.0, 10.0),
            CountRecord(np.array([0.5, 0.9, 1.1, 4.0]), 0.0, 10.0),
        ]
        cur = _current(np.ones(100))

        class CountsOnly:
            counts = recs[0]

        given, same_as = {
            "pair": ((recs[0], cur), recs[:1]),
            "pairs": ([(r, cur) for r in recs], recs),
            "trajectory": (TrajectoryRecord(0, recs[0], cur, 0), recs[:1]),
            "count": (recs[0], recs[:1]),
            "count_tuple": (tuple(recs), recs),
            "counts_only": (CountsOnly(), recs[:1]),
        }[shape]
        got = estimate_g2(given, max_lag=2.0, bin_width=0.5)
        ref = estimate_g2(same_as, max_lag=2.0, bin_width=0.5)
        assert got.meta["n_events"] == ref.meta["n_events"]
        assert np.array_equal(got.values, ref.values)
        assert np.array_equal(got.stderr, ref.stderr)

    def test_pools_records(self):
        r1 = CountRecord(np.array([1.0, 1.2]), 0.0, 10.0)
        r2 = CountRecord(np.array([3.0, 3.2]), 0.0, 10.0)
        series = estimate_g2([r1, r2], max_lag=1.0, bin_width=0.25)
        # both pairs land in the 0..0.25 bin;
        # expectation = 2 records * 2*1*0.25*(10 - 0.125)/100
        assert series.values[0] == pytest.approx(2.0 / (2 * 0.005 * 9.875))
        assert series.meta["n_events"] == 4

    def test_many_short_records_unbiased(self):
        # few events per record: a naive n^2 rate normalization sits ~20%
        # low here; the n(n-1)(T-lag) expectation must stay flat at 1
        rng = RngStream(seed=424, stream_id=0)
        rate, t_end = 0.8, 5.0
        records = []
        for _ in range(4000):
            gaps = rng.exponential(1.0 / rate, 16)
            ts = np.cumsum(gaps)
            records.append(CountRecord(ts[ts < t_end], 0.0, t_end))
        series = estimate_g2(records, max_lag=2.0, bin_width=0.5)
        z = (series.values - 1.0) / series.stderr
        assert np.abs(z).max() < 3.5

    def test_bad_binning_rejected(self):
        rec = CountRecord(np.array([1.0]), 0.0, 10.0)
        with pytest.raises(ValueError):
            estimate_g2(rec, max_lag=1.0, bin_width=0.0)
        with pytest.raises(ValueError):
            estimate_g2(rec, max_lag=0.1, bin_width=0.5)

    def test_empty_records_rejected(self):
        rec = CountRecord(np.array([]), 0.0, 10.0)
        with pytest.raises(ValueError, match="no events"):
            estimate_g2(rec, max_lag=1.0, bin_width=0.1)

    def test_empty_zero_lag_bin_keeps_its_null_error(self):
        rec = CountRecord(np.array([1.0, 5.0, 9.0]), 0.0, 10.0)
        series = estimate_g2(rec, max_lag=2.0, bin_width=0.5)
        assert series.values[0] == 0.0
        assert (series.stderr > 0).all()
        zero = audit_classical_bounds(g2=series).checks[0]
        assert zero.name == "g2_zero" and zero.verdict != "violated"

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        bin_width=st.floats(0.05, 0.5),
        bins=st.floats(1.05, 12.0),
    )
    def test_poisson_flat_for_any_binning(self, bin_width, bins):
        # max_lag need not be a whole number of bins: the last bin must
        # neither collect nor lose the separations past nb * bin_width
        series = estimate_g2(_POISSON_RECORDS, max_lag=bins * bin_width, bin_width=bin_width)
        z = (series.values - 1.0) / series.stderr
        assert np.abs(z).max() < 3.5
        assert audit_classical_bounds(g2=series).overall != "violated"


class TestSqueezingSpectrum:
    def _analytic_series(self, dtau=0.005, tmax=12.0):
        tau = np.arange(0.0, tmax + dtau / 2, dtau)
        values = 1.0 + np.exp(-tau) * np.cos(5.0 * tau)
        return CorrelationSeries(lags=tau, values=values, normalization="h")

    def test_matches_adaptive_quadrature(self):
        series = self._analytic_series()
        tmax = float(series.lags[-1])
        freqs = np.array([0.0, 2.0, 5.0, 8.0])
        spec = squeezing_spectrum(series, frequencies=freqs)

        def integrand(tau, w):
            return (
                2.0
                * (math.exp(-tau) * math.cos(5.0 * tau))
                * (1.0 - tau / tmax)
                * math.cos(w * tau)
            )

        for i, w in enumerate(freqs):
            ref, _ = quad(integrand, 0.0, tmax, args=(w,), limit=400)
            assert spec.values[i] == pytest.approx(ref, abs=5e-5)

    def test_bin_center_grid_keeps_head_panel(self):
        # sampled series start at tau = delta/2; the [0, tau_0] panel must
        # still be integrated or the whole band shifts by 2*tau_0*(h(0)-1)
        dtau = 0.1
        tau = np.arange(dtau / 2, 12.0, dtau)
        vals = 1.0 + np.exp(-tau) * np.cos(5.0 * tau)
        series = CorrelationSeries(lags=tau, values=vals, normalization="h")
        tmax = float(tau[-1])
        freqs = np.array([0.0, 2.0, 5.0, 8.0])
        spec = squeezing_spectrum(series, frequencies=freqs)

        def integrand(t, w):
            return (
                2.0
                * (math.exp(-t) * math.cos(5.0 * t))
                * (1.0 - t / tmax)
                * math.cos(w * t)
            )

        for i, w in enumerate(freqs):
            ref, _ = quad(integrand, 0.0, tmax, args=(w,), limit=400)
            assert spec.values[i] == pytest.approx(ref, abs=2e-3)

    def test_negative_lags_dropped(self):
        tau = np.arange(-5.0, 5.0001, 0.01)
        vals = 1.0 + np.exp(-np.abs(tau))
        two_sided = CorrelationSeries(lags=tau, values=vals, normalization="h")
        one_sided = CorrelationSeries(
            lags=tau[tau >= 0], values=vals[tau >= 0], normalization="h"
        )
        s2 = squeezing_spectrum(two_sided, frequencies=np.array([1.0, 3.0]))
        s1 = squeezing_spectrum(one_sided, frequencies=np.array([1.0, 3.0]))
        assert np.allclose(s2.values, s1.values)

    def test_stderr_propagation(self):
        tau = np.arange(0.0, 2.0001, 0.5)
        se = np.full(tau.size, 0.3)
        series = CorrelationSeries(
            lags=tau, values=np.ones(tau.size), stderr=se, normalization="h"
        )
        spec = squeezing_spectrum(series, frequencies=np.array([0.0]))
        # S(0) error = 2*sqrt(sum (w_i * window_i * se)^2), trapezoid weights
        wts = np.array([0.25, 0.5, 0.5, 0.5, 0.25])
        window = 1.0 - tau / 2.0
        ref = 2.0 * math.sqrt(np.sum((wts * window * se) ** 2))
        assert spec.stderr[0] == pytest.approx(ref)

    def test_requires_h_normalization(self):
        s = CorrelationSeries(lags=[0.0, 1.0, 2.0], values=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="h-normalized"):
            squeezing_spectrum(s)

    def test_too_few_lags_rejected(self):
        s = CorrelationSeries(lags=[0.0, 1.0], values=[1.0, 1.0], normalization="h")
        with pytest.raises(ValueError, match="few"):
            squeezing_spectrum(s)

    def test_default_frequency_grid(self):
        spec = squeezing_spectrum(self._analytic_series(dtau=0.01))
        assert spec.frequencies[0] == 0.0
        assert spec.frequencies[-1] == pytest.approx(0.5 * math.pi / 0.01)
        assert spec.meta["window"] == "bartlett"


class TestAuditClassicalBounds:
    def _series(self, values, stderr=None, norm="g2", lags=None):
        values = np.asarray(values, dtype=float)
        if lags is None:
            lags = np.arange(values.size) * 0.5
        return CorrelationSeries(
            lags=lags, values=values, stderr=stderr, normalization=norm
        )

    def test_exact_antibunching_violates(self):
        g2 = self._series([0.8, 0.9, 1.0])
        report = audit_classical_bounds(g2=g2)
        by_name = {c.name: c for c in report.checks}
        assert by_name["g2_zero"].margin == pytest.approx(0.2)
        assert by_name["g2_zero"].verdict == "violated"
        # falloff: deviations 0.2, 0.1, 0.0 never exceed the zero-lag one
        assert by_name["g2_falloff"].verdict == "satisfied"
        assert report.overall == "violated"

    def test_noisy_antibunching_is_satisfied_not_violated(self):
        g2 = self._series([0.8, 0.9, 1.0], stderr=[0.15, 0.1, 0.1])
        report = audit_classical_bounds(g2=g2)
        by_name = {c.name: c for c in report.checks}
        assert by_name["g2_zero"].verdict == "satisfied"  # 0.2 < 3*0.15

    def test_falloff_violation(self):
        g2 = self._series([1.1, 1.0, 1.6])
        report = audit_classical_bounds(g2=g2)
        by_name = {c.name: c for c in report.checks}
        assert by_name["g2_falloff"].margin == pytest.approx(0.5)
        assert by_name["g2_falloff"].verdict == "violated"
        assert by_name["g2_zero"].verdict == "satisfied"

    def test_h_bound(self):
        h_ok = self._series([1.0, 1.8, 0.5], norm="h")
        h_bad = self._series([1.0, 2.5, 0.5], norm="h")
        ok = {c.name: c for c in audit_classical_bounds(h=h_ok).checks}
        bad = {c.name: c for c in audit_classical_bounds(h=h_bad).checks}
        assert ok["h_range"].margin == pytest.approx(-0.2)
        assert ok["h_range"].verdict == "satisfied"
        assert bad["h_range"].margin == pytest.approx(0.5)
        assert bad["h_range"].verdict == "violated"

    def test_missing_inputs_inconclusive(self):
        report = audit_classical_bounds()
        assert report.overall == "inconclusive"
        assert all(c.verdict == "inconclusive" for c in report.checks)
        assert [c.name for c in report.checks] == ["g2_zero", "g2_falloff", "h_range"]

    @pytest.mark.parametrize("z, verdict", [(3.5, "satisfied"), (5.0, "violated")])
    def test_worst_of_101_h_bins_meets_the_sidak_threshold(self, z, verdict):
        # over 101 bins the family-wise P(Z > 3) asks for 4.20 sigma
        values = np.ones(101)
        values[37] = 2.0 + z * 0.1
        h_range = audit_classical_bounds(h=self._series(values, np.full(101, 0.1), norm="h")).checks[2]
        assert h_range.name == "h_range" and h_range.verdict == verdict

    @pytest.mark.parametrize("z, verdict", [(3.5, "satisfied"), (5.0, "violated")])
    def test_worst_of_47_g2_bins_meets_the_sidak_threshold(self, z, verdict):
        # 48 bins, 47 tested against lag 0: 4.02 sigma
        values = np.ones(48)
        values[20] = 1.0 + z * math.hypot(0.1, 0.1)
        by_name = {c.name: c for c in audit_classical_bounds(g2=self._series(values, np.full(48, 0.1))).checks}
        assert by_name["g2_falloff"].verdict == verdict
        assert by_name["g2_zero"].verdict == "satisfied"

    def test_antibunching_that_could_not_show_is_inconclusive(self):
        # g2 >= 0 caps the margin at 1, under 3 sigma = 1.2
        g2 = self._series([0.5, 1.0, 1.0], stderr=[0.4, 0.1, 0.1])
        by_name = {c.name: c for c in audit_classical_bounds(g2=g2).checks}
        assert by_name["g2_zero"].margin == pytest.approx(0.5)
        assert by_name["g2_zero"].verdict == "inconclusive"
        assert by_name["g2_falloff"].verdict == "satisfied"

    def test_non_finite_margin_inconclusive(self):
        g2 = self._series([math.nan, 1.0, 1.0])
        report = audit_classical_bounds(g2=g2)
        by_name = {c.name: c for c in report.checks}
        assert by_name["g2_zero"].verdict == "inconclusive"

    def test_zero_lag_found_by_nearest(self):
        # series whose lags start negative: zero-lag bin is in the middle
        g2 = self._series(
            [1.0, 0.7, 1.0],
            lags=np.array([-0.5, 0.01, 0.5]),
        )
        by_name = {c.name: c for c in audit_classical_bounds(g2=g2).checks}
        assert by_name["g2_zero"].margin == pytest.approx(0.3)


class TestDominantOscillationFrequency:
    def test_recovers_damped_cosine(self):
        dt = 0.02
        t = np.arange(0, 30, dt)
        y = 1.0 + 0.5 * np.exp(-0.4 * t) + 0.8 * np.exp(-0.5 * t) * np.cos(2.2 * t)
        w = dominant_oscillation_frequency(y, dt)
        assert w == pytest.approx(2.2, rel=0.05)

    def test_two_exponential_baseline(self):
        dt = 0.02
        t = np.arange(0, 30, dt)
        y = (
            2.0
            + 1.5 * np.exp(-0.1 * t)
            - 0.9 * np.exp(-1.3 * t)
            + 0.4 * np.exp(-0.6 * t) * np.cos(3.1 * t)
        )
        w = dominant_oscillation_frequency(y, dt)
        assert w == pytest.approx(3.1, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            dominant_oscillation_frequency([1.0, 2.0], 0.1)
        with pytest.raises(ValueError):
            dominant_oscillation_frequency(np.ones(100), -0.1)

    def test_flat_series_has_no_oscillating_pole(self):
        with pytest.raises(ValueError):
            dominant_oscillation_frequency(np.ones(100), 0.1)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        bin_width=st.floats(0.05, 0.5),
        bins=st.floats(8.0, 12.0),
    )
    def test_poisson_g2_names_no_oscillation(self, bin_width, bins):
        # without its stderr the pencil finds noise poles on such series;
        # fewer than 8 bins are refused for length alone
        series = estimate_g2(_POISSON_RECORDS, max_lag=bins * bin_width, bin_width=bin_width)
        with pytest.raises(ValueError):
            dominant_oscillation_frequency(series.values, bin_width, stderr=series.stderr)

    def test_noisy_strong_coupling_g2_keeps_its_pole(self):
        # the g = 3 regression g2 (951 at tau = 0) with Gaussian noise of
        # stderr 5 per sample still reads the 2.9916 Liouvillian pole
        dt = 0.05
        system = build_system(SystemParams(g=3.0, kappa=1.0, gamma=1.0, drive=0.1, fock_cutoff=8))
        reg = g2_regression(system, TimeGrid(0.0, dt, 161))
        y = reg.values[reg.lags >= 0]
        rng = np.random.default_rng(9)
        for _ in range(5):
            noisy = y + rng.normal(scale=5.0, size=y.size)
            w = dominant_oscillation_frequency(noisy, dt, stderr=np.full(y.size, 5.0))
            assert w == pytest.approx(2.99, rel=0.1)

    def test_stderr_must_match_values(self):
        with pytest.raises(ValueError):
            dominant_oscillation_frequency(np.ones(100), 0.1, stderr=np.ones(99))

    @pytest.mark.parametrize(
        "params, dt, n",
        [
            (SystemParams(g=3.0, kappa=1.0, gamma=1.0, drive=0.1, fock_cutoff=8), 0.01, 1601),
            (DEFAULTS, 0.02, 601),
        ],
    )
    def test_regression_g2_reads_least_damped_liouvillian_pole(self, params, dt, n):
        system = build_system(params)
        ev = np.linalg.eigvals(liouvillian(system))
        osc = ev[np.abs(ev.imag) > 1e-3 * max(1.0, params.g)]
        pole = abs(osc[np.argmax(osc.real)].imag)
        reg = g2_regression(system, TimeGrid(0.0, dt, n))
        w = dominant_oscillation_frequency(reg.values[reg.lags >= 0], dt)
        assert w == pytest.approx(pole, rel=0.01)


def test_pencil_and_transform_bits_do_not_depend_on_blas_threads():
    # a LAPACK call or a large product can round differently on a second
    # thread (this transform's 401 x 2401 product does); both functions
    # hold OpenBLAS to one thread, and give the caller's count back
    blas = numerics._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    strong = build_system(SystemParams(g=3.0, kappa=1.0, gamma=1.0, drive=0.1, fock_cutoff=8))
    g2 = g2_regression(strong, TimeGrid(0.0, 0.01, 1601))
    g2 = g2.values[g2.lags >= 0]
    h = h_regression(build_system(DEFAULTS), TimeGrid(0.0, 0.005, 2401))
    h = CorrelationSeries(h.lags, h.values, np.full(h.lags.size, 0.01), "h")
    before = blas[0]()
    out = []
    try:
        for n in (1, 2):
            blas[1](n)
            omega = dominant_oscillation_frequency(g2, 0.01)
            assert blas[0]() == n
            spectrum = squeezing_spectrum(h)
            assert blas[0]() == n
            out.append((omega, spectrum.values.tobytes(), spectrum.stderr.tobytes()))
    finally:
        blas[1](before)
    assert out[0] == out[1]
