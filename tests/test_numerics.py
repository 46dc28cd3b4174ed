"""Grid, stream, integrator, and recurrence behavior."""

import numpy as np
import pytest
import scipy.linalg

from photodyne import numerics
from photodyne.numerics import RngStream, TimeGrid, integrate_linear_ode, single_blas_thread


class TestTimeGrid:
    def test_times_arithmetic(self):
        g = TimeGrid(t_start=1.0, dt=0.25, n_samples=5)
        assert np.allclose(g.times, [1.0, 1.25, 1.5, 1.75, 2.0])
        assert g.t_end == pytest.approx(2.25)
        assert g.duration == pytest.approx(1.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, -0.1, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.1, 0)


class TestRngStream:
    def test_same_key_replays(self):
        a = RngStream(123, 7)
        b = RngStream(123, 7)
        assert np.array_equal(a.uniform(100), b.uniform(100))
        assert np.array_equal(a.gaussian(100), b.gaussian(100))
        assert np.array_equal(a.exponential(2.0, 100), b.exponential(2.0, 100))

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).uniform(64)
        b = RngStream(123, 1).uniform(64)
        c = RngStream(124, 0).uniform(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_support_and_mean(self):
        u = RngStream(5, 0).uniform(200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 3.0 * np.sqrt(1.0 / 12.0 / u.size)

    def test_gaussian_moments(self):
        x = RngStream(6, 0).gaussian(200_000)
        assert abs(x.mean()) < 3.0 / np.sqrt(x.size)
        assert abs(x.std() - 1.0) < 0.01

    def test_exponential_mean(self):
        x = RngStream(7, 0).exponential(3.0, 200_000)
        assert abs(x.mean() - 3.0) < 3.0 * 3.0 / np.sqrt(x.size)
        with pytest.raises(ValueError):
            RngStream(7, 0).exponential(0.0)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, -1)


class TestIntegrateLinearOde:
    def test_scalar_decay(self):
        out = integrate_linear_ode(np.array([[-1.0 + 0j]]), np.array([1.0 + 0j]), 0.01, 100)
        assert out[0] == pytest.approx(np.exp(-1.0), rel=1e-9)

    def test_rotation_returns_to_start(self):
        w = 2.0
        g = np.array([[0.0, -w], [w, 0.0]], dtype=complex)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        n = 2000
        out = integrate_linear_ode(g, psi0, 2.0 * np.pi / w / n, n)
        assert np.allclose(out, psi0, atol=1e-8)

    def test_matches_expm(self):
        rng = np.random.default_rng(42)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        g = 0.5 * (g - g.conj().T)  # skew-hermitian keeps the norm bounded
        psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = integrate_linear_ode(g, psi0, 0.005, 200)
        ref = scipy.linalg.expm(g * 1.0) @ psi0
        assert np.allclose(out, ref, atol=1e-8)

    def test_shape_and_step_validation(self):
        g = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            integrate_linear_ode(g, np.ones(3, dtype=complex), 0.1, 1)
        with pytest.raises(ValueError):
            integrate_linear_ode(np.ones((2, 3)), np.ones(2), 0.1, 1)
        with pytest.raises(ValueError):
            integrate_linear_ode(g, np.ones(2, dtype=complex), -0.1, 1)

    def test_blowup_raises(self):
        g = np.array([[1e8 + 0j]])
        with pytest.raises(FloatingPointError):
            integrate_linear_ode(g, np.array([1.0 + 0j]), 1.0, 400)


def test_single_blas_thread_holds_one_thread_and_restores():
    blas = numerics._openblas_threads()
    count = (lambda: blas[0]()) if blas else (lambda: None)
    seen = []

    @single_blas_thread
    def add(x, y=1):
        seen.append(count())
        return x + y

    before = count()
    assert add(2, y=3) == 5
    assert seen == [1 if blas else None]
    assert count() == before
    with pytest.raises(ZeroDivisionError):
        single_blas_thread(lambda: 1 / 0)()
    assert count() == before
