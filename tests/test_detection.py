"""Click sampling, homodyne current synthesis, and noise-width predictions."""

import math

import numpy as np
import pytest

from photodyne.detection import (
    bhd_difference_current,
    predict_noise_widths,
    run_semiclassical_correlator,
    sample_counts,
)
from photodyne.fields import FieldModel, LocalOscillator, generate_path, mix_with_local_oscillator
from photodyne.numerics import RngStream, TimeGrid, first_order_recurrence


def _one_pole(x, a):
    """The homodyne filter: y[n] = a y[n-1] + (1-a) x[n], zero initial state."""
    return first_order_recurrence(a, (1.0 - a) * np.asarray(x))


def _poisson_z(n_observed, expected):
    return (n_observed - expected) / math.sqrt(expected)


class TestSampleCounts:
    def test_homogeneous_rate(self):
        grid = TimeGrid(0.0, 0.05, 100_000)  # T = 5000
        rec = sample_counts(np.full(grid.n_samples, 2.0), grid, RngStream(60, 0))
        assert abs(_poisson_z(rec.n_events, 2.0 * grid.duration)) < 3.0
        # inter-arrival mean 1/rate
        gaps = np.diff(rec.timestamps)
        assert gaps.mean() == pytest.approx(0.5, rel=3.0 / math.sqrt(gaps.size))

    def test_inhomogeneous_total(self):
        grid = TimeGrid(0.0, 0.02, 250_000)
        I = 1.0 + np.cos(0.5 * grid.times) ** 2
        rec = sample_counts(I, grid, RngStream(61, 0))
        expected = float(np.trapezoid(I, dx=grid.dt))
        assert abs(_poisson_z(rec.n_events, expected)) < 3.0

    def test_inhomogeneous_tracks_modulation(self):
        # counts land in each half of a slow square-ish wave per its exposure
        grid = TimeGrid(0.0, 0.02, 200_000)
        mask = np.sin(0.01 * grid.times) > 0
        I = np.where(mask, 3.0, 0.3)
        rec = sample_counts(I, grid, RngStream(62, 0))
        bright = np.sin(0.01 * rec.timestamps) > 0
        e_bright = 3.0 * mask.sum() * grid.dt
        e_dark = 0.3 * (~mask).sum() * grid.dt
        assert abs(_poisson_z(bright.sum(), e_bright)) < 3.0
        assert abs(_poisson_z((~bright).sum(), e_dark)) < 3.0

    def test_zero_intensity_gives_no_events(self):
        grid = TimeGrid(0.0, 0.1, 1000)
        rec = sample_counts(np.zeros(1000), grid, RngStream(63, 0))
        assert rec.n_events == 0

    def test_efficiency_scales_rate(self):
        grid = TimeGrid(0.0, 0.05, 200_000)
        full = sample_counts(np.full(grid.n_samples, 1.0), grid, RngStream(64, 0))
        quarter = sample_counts(
            np.full(grid.n_samples, 1.0), grid, RngStream(64, 1), efficiency=0.25
        )
        assert abs(_poisson_z(quarter.n_events, 0.25 * grid.duration)) < 3.0
        assert quarter.n_events < full.n_events

    def test_dark_rate_fires_without_light(self):
        grid = TimeGrid(0.0, 0.05, 200_000)
        rec = sample_counts(np.zeros(grid.n_samples), grid, RngStream(65, 0), dark_rate=0.2)
        assert abs(_poisson_z(rec.n_events, 0.2 * grid.duration)) < 3.0

    def test_dead_time_enforced_and_rate_saturates(self):
        grid = TimeGrid(0.0, 0.02, 500_000)  # T = 10000
        tau_d = 0.2
        rec = sample_counts(
            np.full(grid.n_samples, 2.0), grid, RngStream(66, 0), dead_time=tau_d
        )
        assert np.diff(rec.timestamps).min() >= tau_d
        # paralyzable-free counter: R = I / (1 + I * tau_d)
        expect = 2.0 / (1.0 + 2.0 * tau_d) * grid.duration
        assert abs(rec.n_events - expect) < 4.0 * math.sqrt(expect)

    def test_input_validation(self):
        grid = TimeGrid(0.0, 0.1, 100)
        with pytest.raises(ValueError):
            sample_counts(np.ones(99), grid, RngStream(0, 0))
        with pytest.raises(ValueError):
            sample_counts(-np.ones(100), grid, RngStream(0, 0))
        with pytest.raises(ValueError):
            sample_counts(np.ones(100), grid, RngStream(0, 0), efficiency=1.5)


class TestOnePole:
    def test_matches_direct_recursion(self):
        x = RngStream(70, 0).gaussian(3000)
        a = math.exp(-2.0 * math.pi * 0.5 * 0.02)
        y = _one_pole(x, a)
        ref = np.empty_like(x)
        prev = 0.0
        for i, xi in enumerate(x):
            prev = a * prev + (1.0 - a) * xi
            ref[i] = prev
        assert np.allclose(y, ref, atol=1e-10)

    def test_unit_dc_gain(self):
        y = _one_pole(np.ones(5000), 0.95)
        assert y[-1] == pytest.approx(1.0, abs=1e-10)

    def test_survives_fast_decay_blocking(self):
        # tiny a forces the anti-overflow block split
        x = np.ones(10_000)
        y = _one_pole(x, 1e-4)
        assert np.isfinite(y).all()
        assert y[-1] == pytest.approx(1.0, rel=1e-3)

    def test_complex_drive_matches_direct_ou_recursion(self):
        # the thermal field's update: alpha_n = rho alpha_{n-1} + kick xi_n
        g = RngStream(75, 0).gaussian(6000)
        kick_xi = 0.3 * (g[0::2] + 1j * g[1::2])
        rho = math.exp(-0.02 / 0.05)  # blocks of 150 samples
        alpha0 = 0.4 - 0.7j
        y = first_order_recurrence(rho, kick_xi, alpha0)
        ref = np.empty_like(kick_xi)
        prev = alpha0
        for i, d in enumerate(kick_xi):
            prev = rho * prev + d
            ref[i] = prev
        assert y.dtype == complex
        assert np.allclose(y, ref, rtol=1e-12, atol=1e-12)


class TestBhdCurrent:
    def test_dark_width_matches_prediction(self):
        lo = LocalOscillator(8.0, 0.0)
        grid = TimeGrid(0.0, 0.02, 200_000)
        dark = np.zeros(grid.n_samples)
        l2 = np.full(grid.n_samples, lo.amplitude**2 / 2.0)
        for bw in (0.25, 0.5):
            cur = bhd_difference_current(l2, l2, grid, bw, RngStream(71, int(bw * 4)))
            pred = predict_noise_widths(lo, 0.0, bw)
            assert cur.samples.std() == pytest.approx(pred.shot_width, rel=0.04)
            assert abs(cur.samples.mean()) < 4.0 * pred.shot_width / math.sqrt(
                grid.n_samples * 2.0 * bw * grid.dt
            )
        assert dark.sum() == 0.0

    def test_mean_transmits_displacement(self):
        # constant real signal s against LO at phase 0: mean difference 2 A s
        lo = LocalOscillator(8.0, 0.0)
        s = 0.5
        grid = TimeGrid(0.0, 0.02, 100_000)
        p1 = np.full(grid.n_samples, (lo.amplitude + s) ** 2 / 2.0)
        p2 = np.full(grid.n_samples, (lo.amplitude - s) ** 2 / 2.0)
        cur = bhd_difference_current(p1, p2, grid, 0.5, RngStream(72, 0))
        sem = cur.samples.std() / math.sqrt(grid.n_samples * 2.0 * 0.5 * grid.dt)
        assert abs(cur.samples.mean() - 2.0 * lo.amplitude * s) < 4.0 * sem

    def test_slow_signal_adds_variance_in_quadrature(self):
        lo = LocalOscillator(8.0, 0.0)
        grid = TimeGrid(0.0, 0.02, 400_000)
        model = FieldModel(kind="thermal_ou", mean_intensity=1.0, tau_c=5.0)
        sig = generate_path(model, grid, RngStream(73, 0))
        p1, p2 = mix_with_local_oscillator(sig, lo)
        cur = bhd_difference_current(p1.intensity(), p2.intensity(), grid, 0.5, RngStream(73, 1))
        # X quadrature of the complex OU has variance mean_intensity/2
        pred = predict_noise_widths(lo, 0.5, 0.5)
        total = math.hypot(pred.shot_width, pred.signal_width)
        assert cur.samples.std() == pytest.approx(total, rel=0.06)

    def test_record_carries_bandwidth(self):
        grid = TimeGrid(0.0, 0.02, 1000)
        flat = np.full(grid.n_samples, 32.0)
        cur = bhd_difference_current(flat, flat, grid, 0.3, RngStream(74, 0))
        assert cur.bandwidth == 0.3
        assert cur.grid == grid


class TestPredictNoiseWidths:
    def test_shot_scaling(self):
        p1 = predict_noise_widths(LocalOscillator(4.0), 0.0, 0.5)
        p2 = predict_noise_widths(LocalOscillator(8.0), 0.0, 0.5)
        p3 = predict_noise_widths(LocalOscillator(4.0), 0.0, 2.0)
        assert p2.shot_width == pytest.approx(2.0 * p1.shot_width)
        assert p3.shot_width == pytest.approx(2.0 * p1.shot_width)
        assert p1.shot_width == pytest.approx(4.0 * math.sqrt(math.pi * 0.5))

    def test_signal_width(self):
        p = predict_noise_widths(LocalOscillator(5.0), 0.09, 0.5)
        assert p.signal_width == pytest.approx(2.0 * 5.0 * 0.3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            predict_noise_widths(LocalOscillator(5.0), -0.1, 0.5)


class TestCorrelator:
    def test_coherent_trigger_leaves_current_flat(self):
        model = FieldModel(kind="coherent", amplitude=1.0)
        lo = LocalOscillator(8.0, 0.0)
        series, used = run_semiclassical_correlator(
            model, lo, 20_000.0, 4.0, RngStream(80, 0), 0.02, bin_width=0.5
        )
        assert used > 5000
        h = series.values / series.meta["unconditional_mean"]
        err = series.stderr / series.meta["unconditional_mean"]
        assert np.all(np.abs(h - 1.0) < 4.0 * err)

    def test_burst_trigger_pulls_up_the_mean(self):
        model = FieldModel(
            kind="modulated_burst",
            amplitude=1.0,
            burst_rate=0.05,
            burst_freq=1.5,
            burst_decay=0.35,
            burst_amp=3.0,
            burst_sign="positive",
        )
        lo = LocalOscillator(8.0, 0.0)
        series, _ = run_semiclassical_correlator(
            model, lo, 20_000.0, 6.0, RngStream(81, 0), 0.02, bin_width=0.25
        )
        h = series.values / series.meta["unconditional_mean"]
        k0 = int(np.argmin(np.abs(series.lags)))
        assert h[k0] > 1.5
        assert abs(series.lags[np.argmax(h)]) <= 0.25

    def test_short_duration_rejected(self):
        model = FieldModel(kind="coherent")
        lo = LocalOscillator(8.0)
        with pytest.raises(ValueError):
            run_semiclassical_correlator(model, lo, 10.0, 5.0, RngStream(0, 0), 0.02)
