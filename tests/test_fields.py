"""Stochastic field models and the passive optics acting on them."""

import math

import numpy as np
import pytest

from photodyne.fields import (
    FieldModel,
    FieldPath,
    LocalOscillator,
    generate_path,
    mix_with_local_oscillator,
    split_beam,
)
from photodyne.numerics import RngStream, TimeGrid

GRID = TimeGrid(0.0, 0.02, 100_000)


def test_model_validation():
    with pytest.raises(ValueError):
        FieldModel(kind="chaotic")
    with pytest.raises(ValueError):
        FieldModel(kind="thermal_ou", mean_intensity=-1.0)
    with pytest.raises(ValueError):
        FieldModel(kind="thermal_ou", tau_c=0.0)
    with pytest.raises(ValueError):
        FieldModel(kind="modulated_burst", burst_rate=-0.1)
    with pytest.raises(ValueError):
        FieldModel(kind="modulated_burst", burst_sign="both")
    with pytest.raises(ValueError):
        FieldModel(kind="coherent", amplitude=-2.0)


def test_coherent_path_is_constant():
    model = FieldModel(kind="coherent", amplitude=1.5, phase=0.7)
    path = generate_path(model, GRID, RngStream(1, 0))
    expect = 1.5 * np.exp(0.7j)
    assert np.allclose(path.envelope, expect)
    assert np.allclose(path.intensity(), 2.25)


def test_generation_replays_per_stream():
    model = FieldModel(kind="thermal_ou", mean_intensity=1.0, tau_c=1.5)
    a = generate_path(model, GRID, RngStream(9, 3)).envelope
    b = generate_path(model, GRID, RngStream(9, 3)).envelope
    c = generate_path(model, GRID, RngStream(9, 4)).envelope
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class TestOuStatistics:
    # one long path per check; tolerances sized for ~duration/tau_c samples
    MODEL = FieldModel(kind="thermal_ou", mean_intensity=2.0, tau_c=2.0)

    def test_mean_intensity(self):
        vals = [
            generate_path(self.MODEL, GRID, RngStream(20, k)).intensity().mean()
            for k in range(4)
        ]
        assert np.mean(vals) == pytest.approx(2.0, rel=0.03)

    def test_intensity_is_thermal(self):
        # <I^2>/<I>^2 = 2 for a complex gaussian envelope
        I = generate_path(self.MODEL, GRID, RngStream(21, 0)).intensity()
        assert (I**2).mean() / I.mean() ** 2 == pytest.approx(2.0, rel=0.05)

    def test_field_correlation_time(self):
        # complex envelope correlation decays as exp(-tau/tau_c)
        ratios = []
        lag = int(round(self.MODEL.tau_c / GRID.dt))
        for k in range(4):
            e = generate_path(self.MODEL, GRID, RngStream(22, k)).envelope
            num = np.real(np.mean(e[:-lag] * np.conj(e[lag:])))
            ratios.append(num / np.mean(np.abs(e) ** 2))
        assert np.mean(ratios) == pytest.approx(math.exp(-1.0), rel=0.08)

    def test_intensity_correlation_time(self):
        # intensity memory decays twice as fast as the field memory;
        # the fourth-moment ratio is noisy, so long paths and a 3 sigma band
        grid = TimeGrid(0.0, 0.02, 400_000)
        ratios = []
        lag = int(round(self.MODEL.tau_c / grid.dt))
        for k in range(4):
            I = generate_path(self.MODEL, grid, RngStream(23, k)).intensity()
            dI = I - I.mean()
            ratios.append(np.mean(dI[:-lag] * dI[lag:]) / np.mean(dI * dI))
        assert np.mean(ratios) == pytest.approx(math.exp(-2.0), abs=0.025)


class TestBurstStatistics:
    def test_positive_sign_raises_mean_intensity(self):
        model = FieldModel(
            kind="modulated_burst",
            amplitude=1.0,
            burst_rate=0.05,
            burst_freq=1.5,
            burst_decay=0.35,
            burst_amp=3.0,
            burst_sign="positive",
        )
        # filtered-Poisson cumulants of the modulation m(t):
        # E[m] = rate * integral(kernel), Var[m] = rate * integral(kernel^2)
        d, f, A, r = 0.35, 1.5, 3.0, 0.05
        k1 = A * 2.0 * d / (d * d + f * f)
        k2 = A * A * (1.0 / (2.0 * d) + d / (2.0 * (d * d + f * f)))
        expect = 1.0 + 2.0 * r * k1 + (r * k2 + (r * k1) ** 2)
        vals = [
            generate_path(model, GRID, RngStream(30, k)).intensity().mean()
            for k in range(4)
        ]
        assert np.mean(vals) == pytest.approx(expect, rel=0.05)

    def test_symmetric_sign_centers_the_modulation(self):
        model = FieldModel(
            kind="modulated_burst",
            amplitude=1.0,
            burst_rate=0.05,
            burst_freq=1.5,
            burst_decay=0.35,
            burst_amp=3.0,
            burst_sign="symmetric",
        )
        means = [
            np.real(generate_path(model, GRID, RngStream(31, k)).envelope).mean()
            for k in range(6)
        ]
        assert np.mean(means) == pytest.approx(1.0, abs=0.05)


def test_split_conserves_intensity():
    model = FieldModel(kind="thermal_ou", mean_intensity=1.3, tau_c=0.7)
    grid = TimeGrid(0.0, 0.02, 5000)
    path = generate_path(model, grid, RngStream(40, 0))
    out1, out2 = split_beam(path)
    assert np.allclose(out1.intensity() + out2.intensity(), path.intensity(), rtol=1e-12)
    assert np.allclose(out1.envelope, out2.envelope)


def test_mix_conserves_total_intensity():
    grid = TimeGrid(0.0, 0.02, 5000)
    path = generate_path(FieldModel(kind="thermal_ou"), grid, RngStream(41, 0))
    lo = LocalOscillator(8.0, 0.3)
    plus, minus = mix_with_local_oscillator(path, lo)
    total = plus.intensity() + minus.intensity()
    expect = np.abs(lo.envelope) ** 2 + path.intensity()
    assert np.allclose(total, expect, rtol=1e-12)


def test_mix_difference_reads_the_aligned_quadrature():
    grid = TimeGrid(0.0, 0.02, 100)
    sig = FieldPath(grid, np.full(100, 0.4 + 0.0j))
    lo = LocalOscillator(6.0, 0.0)
    plus, minus = mix_with_local_oscillator(sig, lo)
    diff = plus.intensity() - minus.intensity()
    assert np.allclose(diff, 2.0 * 6.0 * 0.4, rtol=1e-12)
