"""Driven cavity-atom system: steady state, regression curves, unraveling.

Reference values in FROZEN_* were computed with an independent dense-matrix
route (matrix exponentials and eigenvector steady states) before this module
existed; they pin the physics, not the implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from photodyne import numerics
from photodyne.numerics import RngStream, TimeGrid
from photodyne.quantum import (
    DEFAULTS,
    SystemParams,
    basis_state,
    build_system,
    ensemble_number_expectation,
    evolve_master,
    expectation,
    g2_regression,
    h_regression,
    liouvillian,
    steady_state,
    unravel_ensemble,
)
from photodyne.quantum import NOISE_CHUNK, NOISE_TILE, RENORM_EVERY, _EnsembleEngine

FROZEN_NBAR = 0.0147836
FROZEN_A = -0.1174j
FROZEN_G2_ZERO = 0.82902
FROZEN_H_ZERO = 0.24487
FROZEN_H_MAX = 1.07246
FROZEN_NBAR_STRONG = 3.1629e-5  # g=3, kappa=1, gamma=1, drive=0.1
# (params, clicks by trajectory, atom jumps, first three currents of
# trajectories 0-2) for 12 trajectories, seed 31, jump_fraction 0.9, burn-in
# 5, 10,000 samples at dt 0.02
FROZEN_RECORDS = {
    "default": (
        DEFAULTS,
        {
            0: [84.46000000000001],
            1: [16.6, 90.8, 144.20000000000002],
            2: [50.480000000000004],
            3: [108.66, 110.72],
            4: [6.18, 145.44, 182.8],
            5: [5.14, 19.04, 21.44, 45.7, 66.52],
            6: [66.1, 82.64, 119.10000000000001, 178.68],
            7: [4.64, 13.3, 52.76, 76.58, 132.3, 147.32],
            8: [8.98, 29.98, 97.74000000000001],
            10: [91.14],
            11: [138.54],
        },
        [3, 7, 3, 2, 5, 2, 6, 8, 4, 5, 5, 8],
        [
            [-4.779230329382626, -4.263080404645902, 3.752420683503095],
            [9.842053166897884, -2.5819662666470835, 3.668537861011888],
            [2.171726653869355, -6.527204720600768, 3.0134746837322743],
        ],
    ),
    "g3": (
        SystemParams(g=3.0, kappa=1.0, gamma=1.0, drive=0.5, fock_cutoff=8),
        {
            3: [108.66, 108.76, 110.72],
            4: [6.18],
            8: [8.98, 97.74000000000001, 99.36, 99.42, 100.26],
        },
        [3, 6, 3, 2, 4, 2, 6, 7, 5, 5, 5, 10],
        [
            [-4.831231159625512, -4.314779962189346, 3.7009948114086497],
            [9.780662679295357, -2.6436307769535836, 3.6071895711125097],
            [2.126490632152404, -6.5721752910628215, 2.968851389013334],
        ],
    ),
}


_SMALL_SYSTEM = build_system(SystemParams(g=0.75, kappa=1.0, gamma=1.0, drive=0.18, fock_cutoff=3))


def _vec(rho):
    return rho.reshape(-1)


def _unvec(v, d):
    return v.reshape(d, d)


class TestSystemConstruction:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            SystemParams(g=0.75, kappa=-1.0, gamma=1.0, drive=0.18, fock_cutoff=8)
        with pytest.raises(ValueError):
            SystemParams(g=0.75, kappa=1.0, gamma=1.0, drive=0.18, fock_cutoff=1)
        with pytest.raises(ValueError):
            SystemParams(g=-0.1, kappa=1.0, gamma=1.0, drive=0.18, fock_cutoff=8)

    def test_cooperativity(self):
        p = SystemParams(g=2.0, kappa=1.0, gamma=4.0, drive=0.0, fock_cutoff=4)
        assert p.cooperativity == pytest.approx(2.0 * 4.0 / (1.0 * 4.0))

    def test_annihilation_ladder(self, default_system):
        nc = DEFAULTS.fock_cutoff
        for n in range(1, nc):
            ket = basis_state(default_system, excited=False, n_photons=n)
            down = default_system.a @ ket
            ref = math.sqrt(n) * basis_state(default_system, excited=False, n_photons=n - 1)
            assert np.allclose(down, ref)
        vac = basis_state(default_system, excited=False, n_photons=0)
        assert np.allclose(default_system.a @ vac, 0.0)

    def test_lowering_operator_moves_excitation(self, default_system):
        up = basis_state(default_system, excited=True, n_photons=2)
        down = default_system.sm @ up
        assert np.allclose(down, basis_state(default_system, excited=False, n_photons=2))
        assert np.allclose(default_system.sm @ down, 0.0)

    def test_hamiltonian_hermitian(self, default_system):
        H = default_system.hamiltonian
        assert np.allclose(H, H.conj().T)

    def test_collapse_channels(self, default_system):
        ck, cg = default_system.collapse
        assert np.allclose(ck, math.sqrt(DEFAULTS.kappa) * default_system.a)
        assert np.allclose(cg, math.sqrt(DEFAULTS.gamma) * default_system.sm)


class TestSteadyState:
    def test_density_matrix_properties(self, default_system, default_steady):
        rho = default_steady
        assert np.trace(rho) == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-12

    def test_kernel_of_liouvillian(self, default_system, default_steady):
        L = liouvillian(default_system)
        assert np.linalg.norm(L @ _vec(default_steady)) < 1e-10

    def test_independent_null_space_route(self, default_system, default_steady):
        L = liouvillian(default_system)
        ns = scipy.linalg.null_space(L, rcond=1e-10)
        assert ns.shape[1] == 1
        d = default_system.a.shape[0]
        rho = _unvec(ns[:, 0], d)
        rho = rho / np.trace(rho)
        assert np.allclose(rho, default_steady, atol=1e-9)

    def test_frozen_photon_number(self, default_system, default_steady):
        n_op = default_system.a.conj().T @ default_system.a
        nbar = expectation(n_op, default_steady).real
        assert nbar == pytest.approx(FROZEN_NBAR, rel=2e-4)

    def test_frozen_field_amplitude(self, default_system, default_steady):
        a_ss = expectation(default_system.a, default_steady)
        assert abs(a_ss.real) < 1e-10
        assert a_ss.imag == pytest.approx(FROZEN_A.imag, rel=2e-3)

    def test_frozen_strong_coupling_point(self):
        system = build_system(SystemParams(3.0, 1.0, 1.0, 0.1, 8))
        rho = steady_state(system)
        nbar = expectation(system.a.conj().T @ system.a, rho).real
        assert nbar == pytest.approx(FROZEN_NBAR_STRONG, rel=2e-4)

    def test_bits_do_not_depend_on_blas_threads(self, default_system):
        blas = numerics._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        before = blas[0]()
        rhos = []
        try:
            for n in (1, 2):
                blas[1](n)
                rhos.append(steady_state(default_system))
        finally:
            blas[1](before)
        assert np.array_equal(rhos[0], rhos[1])

    def test_cutoff_overflow_refused(self):
        # empty-cavity amplitude 2*drive/kappa = 3 photons mean >> cutoff 4
        with pytest.raises((ValueError, ArithmeticError)):
            steady_state(build_system(SystemParams(0.0, 1.0, 1.0, 1.5, 4)))


class TestEvolveMaster:
    def test_trace_and_hermiticity_preserved(self, default_system):
        d = default_system.a.shape[0]
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
        grid = TimeGrid(0.0, 0.05, 200)
        states = evolve_master(default_system, rho0, grid)
        traces = np.einsum("tii->t", states)
        assert np.allclose(traces, 1.0, atol=1e-10)
        assert np.allclose(states, np.conj(np.transpose(states, (0, 2, 1))), atol=1e-10)

    def test_relaxes_to_steady_state(self, default_system, default_steady):
        d = default_system.a.shape[0]
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
        grid = TimeGrid(0.0, 0.5, 81)  # T = 40 >> 1/kappa
        states = evolve_master(default_system, rho0, grid)
        assert np.abs(states[-1] - default_steady).max() < 1e-8

    def test_matches_expm_route(self, default_system):
        d = default_system.a.shape[0]
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 1] = rho0[1, 0] = 0.5
        rho0[0, 0] = rho0[1, 1] = 0.5
        grid = TimeGrid(0.0, 0.02, 101)
        states = evolve_master(default_system, rho0, grid)
        L = liouvillian(default_system)
        ref = _unvec(scipy.linalg.expm(L * 2.0) @ _vec(rho0), d)
        assert np.abs(states[-1] - ref).max() < 1e-12


class TestRegression:
    def test_g2_frozen_zero_delay(self, default_system):
        series = g2_regression(default_system, TimeGrid(0.0, 0.02, 301))
        assert series.value_at(0.0) == pytest.approx(FROZEN_G2_ZERO, rel=2e-4)
        assert series.normalization == "g2"

    def test_g2_zero_equals_static_fourth_moment(self, default_system, default_steady):
        a = default_system.a
        n_op = a.conj().T @ a
        nbar = expectation(n_op, default_steady).real
        pair = expectation(a.conj().T @ a.conj().T @ a @ a, default_steady).real
        series = g2_regression(default_system, TimeGrid(0.0, 0.02, 11))
        assert series.value_at(0.0) == pytest.approx(pair / nbar**2, rel=1e-10)

    def test_g2_even_extension(self, default_system):
        series = g2_regression(default_system, TimeGrid(0.0, 0.02, 101))
        assert series.lags[0] == pytest.approx(-2.0)
        assert series.value_at(-0.6) == pytest.approx(series.value_at(0.6), rel=1e-12)

    def test_g2_decorrelates_at_long_delay(self, default_system):
        series = g2_regression(default_system, TimeGrid(0.0, 0.05, 601))  # out to 30
        assert series.values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_h_frozen_values(self, default_system):
        series = h_regression(default_system, TimeGrid(0.0, 0.02, 601))
        assert series.values[0] == pytest.approx(FROZEN_H_ZERO, rel=2e-4)
        assert series.values.max() == pytest.approx(FROZEN_H_MAX, rel=2e-4)
        assert series.normalization == "h"

    def test_h_zero_equals_static_moment(self, default_system, default_steady):
        a = default_system.a
        theta = float(np.angle(expectation(a, default_steady)))
        aq = 0.5 * (a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta))
        n_op = a.conj().T @ a
        nbar = expectation(n_op, default_steady).real
        cond = expectation(aq, a @ default_steady @ a.conj().T / nbar).real
        base = expectation(aq, default_steady).real
        series = h_regression(default_system, TimeGrid(0.0, 0.02, 11))
        assert series.values[0] == pytest.approx(cond / base, rel=1e-10)

    def test_h_settles_to_one(self, default_system):
        series = h_regression(default_system, TimeGrid(0.0, 0.05, 601))
        assert series.values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_h_phase_recorded(self, default_system):
        series = h_regression(default_system, TimeGrid(0.0, 0.02, 11))
        assert series.meta["lo_phase"] == pytest.approx(-math.pi / 2.0, abs=1e-9)

    @pytest.mark.parametrize("curve", ["g2_strong", "h_default", "h_phase_0.7"])
    def test_matches_expm_oracle(self, curve):
        # both curves are Tr(op exp(L tau) rho_c) / Tr(op rho_ss); checked at
        # 17 lags spread over the curve, each from its own scipy exponential
        if curve == "g2_strong":
            system = build_system(SystemParams(3.0, 1.0, 1.0, 0.1, 8))
            grid = TimeGrid(0.0, 0.01, 1601)
            values = g2_regression(system, grid).values[-grid.n_samples :]
            op = system.a.conj().T @ system.a
        else:
            system = build_system(DEFAULTS)
            grid = TimeGrid(0.0, 0.005, 2401)
            series = h_regression(system, grid, lo_phase=None if curve == "h_default" else 0.7)
            values, phase = series.values, np.exp(1j * series.meta["lo_phase"])
            op = 0.5 * (system.a / phase + system.a.conj().T * phase)
            if curve != "h_default":
                assert series.meta["lo_phase"] == 0.7
        a, d = system.a, system.dim
        rho_ss = steady_state(system)
        rho_c = a @ rho_ss @ a.conj().T
        rho_c /= np.trace(rho_c)
        L = liouvillian(system)
        for k in np.linspace(0, grid.n_samples - 1, 17).astype(int):
            rho = _unvec(scipy.linalg.expm(L * grid.times[k]) @ _vec(rho_c), d)
            ref = expectation(op, rho).real / expectation(op, rho_ss).real
            assert abs(values[k] - ref) < 1e-9

    def test_weak_drive_g2_is_h_squared(self):
        # to lowest order in the drive the conditioned state is pure, so the
        # two regression curves meet as g2(tau) -> h(tau)**2, the gap shrinking
        # as drive**2; a fault in either op of the regression rule breaks it
        grid = TimeGrid(0.0, 0.005, 2401)
        drives = [0.01, 0.02, 0.05]
        gaps = []
        for drive in drives:
            system = build_system(SystemParams(0.75, 1.0, 1.0, drive, 8))
            g2 = g2_regression(system, grid).values[-grid.n_samples :]
            gaps.append(np.abs(g2 - h_regression(system, grid).values ** 2).max())
        assert gaps == pytest.approx([3.92e-3, 1.56e-2, 9.44e-2], rel=0.05)
        assert np.polyfit(np.log(drives), np.log(gaps), 1)[0] == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("dt", [0.2, 0.25])
    def test_coarse_grid_matches_fine_grid(self, dt):
        system = build_system(SystemParams(3.0, 1.0, 1.0, 0.1, 8))
        n = int(round(8.0 / dt)) + 1
        coarse = g2_regression(system, TimeGrid(0.0, dt, n)).values[-n:]
        fine = g2_regression(system, TimeGrid(0.0, 0.005, 1601)).values[-1601:]
        stride = int(round(dt / 0.005))
        assert np.abs(coarse - fine[::stride]).max() < 1e-9


class TestUnraveling:
    def test_replay_and_stream_separation(self, default_system):
        grid = TimeGrid(0.0, 0.02, 2000)
        rec1 = next(unravel_ensemble(default_system, grid, 1, 314, first_stream=2))
        rec2 = next(unravel_ensemble(default_system, grid, 1, 314, first_stream=2))
        rec3 = next(unravel_ensemble(default_system, grid, 1, 314, first_stream=3))
        assert np.array_equal(rec1.counts.timestamps, rec2.counts.timestamps)
        assert np.array_equal(rec1.current.samples, rec2.current.samples)
        assert not np.array_equal(rec1.current.samples, rec3.current.samples)

    def test_batch_size_does_not_change_records(self, default_system):
        grid = TimeGrid(0.0, 0.02, 1500)
        runs = {}
        for bs in (3, 7):
            recs = list(
                unravel_ensemble(
                    default_system, grid, n_traj=7, seed=99, batch_size=bs
                )
            )
            runs[bs] = recs
        for r3, r7 in zip(runs[3], runs[7]):
            assert r3.traj_id == r7.traj_id
            assert np.array_equal(r3.counts.timestamps, r7.counts.timestamps)
            # same noise draws, but BLAS kernels differ between batch shapes,
            # so the currents agree only to rounding
            assert np.allclose(r3.current.samples, r7.current.samples, atol=1e-6)
            assert r3.atom_jumps == r7.atom_jumps

    def test_counts_live_on_the_grid_window(self, default_system):
        grid = TimeGrid(0.0, 0.02, 3000)
        rec = next(unravel_ensemble(default_system, grid, 1, 11, first_stream=0))
        ts = rec.counts.timestamps
        assert rec.counts.t0 == pytest.approx(grid.t_start)
        assert rec.counts.t1 == pytest.approx(grid.t_end)
        if ts.size:
            assert ts.min() >= grid.t_start and ts.max() <= grid.t_end

    def test_current_record_shape(self, default_system):
        grid = TimeGrid(0.0, 0.02, 1000)
        rec = next(unravel_ensemble(default_system, grid, 1, 12, first_stream=0))
        assert rec.current.grid == grid
        assert rec.current.bandwidth == pytest.approx(0.5 / grid.dt)

    def test_store_current_off(self, default_system):
        grid = TimeGrid(0.0, 0.02, 500)
        recs = list(
            unravel_ensemble(
                default_system, grid, n_traj=2, seed=13, store_current=False
            )
        )
        assert all(r.current is None for r in recs)
        assert all(r.counts is not None for r in recs)

    def test_all_jumps_recorded_when_fraction_one(self, default_system):
        # long run: with jump_fraction 1 every cavity decay makes a click
        grid = TimeGrid(0.0, 0.02, 50_000)
        total = 0
        for rec in unravel_ensemble(
            default_system, grid, n_traj=24, seed=14,
            jump_fraction=1.0, store_current=False,
        ):
            total += rec.counts.n_events
        lam = DEFAULTS.kappa * FROZEN_NBAR * 24 * grid.duration
        assert abs(total - lam) < 4.0 * math.sqrt(lam)

    def test_zero_fraction_records_nothing(self, default_system):
        grid = TimeGrid(0.0, 0.02, 2000)
        rec = next(
            unravel_ensemble(default_system, grid, 1, 15, jump_fraction=0.0, first_stream=0)
        )
        assert rec.counts.n_events == 0

    def test_step_matches_dense_products(self):
        # the engine steps in the LO-rotated frame with the batch on the last
        # axis and renormalizes every RENORM_EVERY steps; over three periods
        # that is the plain lab-frame dense update up to rounding
        p = SystemParams(g=0.75, kappa=1.0, gamma=1.0, drive=0.5, fock_cutoff=14)
        system = build_system(p)
        dt, fraction, theta = 0.02, 0.9, 0.3
        eng = _EnsembleEngine(system, dt, fraction, theta, 2024, list(range(64)))
        eng._refill()
        rng = np.random.default_rng(5)
        psi = rng.normal(size=(64, system.dim)) + 1j * rng.normal(size=(64, system.dim))
        eng.psi = psi / np.linalg.norm(psi, axis=1)[:, None]
        a, sm = system.a, system.sm
        gen = -1j * system.hamiltonian - 0.5 * (
            p.kappa * a.conj().T @ a + p.gamma * sm.conj().T @ sm
        )
        prop_t = scipy.linalg.expm(gen * dt).T
        half_t = scipy.linalg.expm(gen * dt / 2).T
        hom_amp = math.sqrt((1.0 - fraction) * p.kappa)
        c = hom_amp * np.exp(-1j * theta)
        seen_cav = seen_atom = 0
        for j in range(3 * RENORM_EVERY):
            psi = eng.psi.copy()
            a_psi = psi @ a.T
            sm_psi = psi @ sm.T
            n_cav = np.einsum("bi,bi->b", a_psi.conj(), a_psi).real
            n_atom = np.einsum("bi,bi->b", sm_psi.conj(), sm_psi).real
            quad = (np.exp(-1j * theta) * np.einsum("bi,bi->b", psi.conj(), a_psi)).real
            j_dt = 2.0 * hom_amp * quad * dt + eng.dw[:, j]
            cav = eng.u_cav[:, j] < fraction * p.kappa * n_cav * dt
            atom = (~cav) & (eng.u_atom[:, j] < p.gamma * n_atom * dt)
            new = (psi + c * a_psi * j_dt[:, None]) @ prop_t
            new[cav] = ((psi[cav] @ half_t) @ a.T) @ half_t
            new[atom] = ((psi[atom] @ half_t) @ sm.T) @ half_t
            new = new / np.linalg.norm(new, axis=1)[:, None]

            current, jump_cav, jump_atom = eng.step()
            assert np.array_equal(jump_cav, cav) and np.array_equal(jump_atom, atom)
            ref = j_dt / dt
            assert np.abs(current - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.abs(eng.psi - new).max() <= 1e-12
            seen_cav += int(cav.sum())
            seen_atom += int(atom.sum())
        assert seen_cav > 0 and seen_atom > 0

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_collapsed_or_non_finite_state_raises(self, default_system, bad):
        eng = _EnsembleEngine(default_system, 0.02, 0.5, 0.3, 7, list(range(5)))
        for _ in range(RENORM_EVERY + 3):
            eng.step()
        psi = eng.psi
        psi[2] = bad
        with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
            eng.psi = psi
            eng.step()

    def test_photon_number_is_number_expectation(self, default_system):
        eng = _EnsembleEngine(default_system, 0.02, 0.5, 0.3, 7, list(range(5)))
        for _ in range(200):
            eng.step()
        a_psi = eng.psi @ default_system.a.T
        ref = np.einsum("bi,bi->b", a_psi.conj(), a_psi).real
        assert np.allclose(eng.photon_number(), ref, rtol=1e-13, atol=0.0)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 2**20), st.integers(0, 7))
    def test_tiles_are_whole_chunk_draws(self, seed, stream_id, prefix):
        # a prefix of gaussians moves the stream inside its 4-word Philox
        # block; the cursors must still read what one uniform(2 NOISE_CHUNK)
        # and one gaussian(NOISE_CHUNK) per chunk would, and leave the stream
        # where those leave it
        dt = 0.02
        eng = _EnsembleEngine(_SMALL_SYSTEM, dt, 0.5, 0.3, seed, range(stream_id, stream_id + 1))
        ref = RngStream(seed, stream_id)
        eng.streams[0].gaussian(prefix)
        ref.gaussian(prefix)
        tiles = NOISE_CHUNK // NOISE_TILE
        for _ in range(3):
            cav, atom = ref.uniform(2 * NOISE_CHUNK).reshape(2, tiles, NOISE_TILE)
            dw = (ref.gaussian(NOISE_CHUNK) * math.sqrt(dt)).reshape(tiles, NOISE_TILE)
            for k in range(tiles):
                eng._refill()
                assert eng.u_cav[0].tobytes() == cav[k].tobytes()
                assert eng.u_atom[0].tobytes() == atom[k].tobytes()
                assert eng.dw[0].tobytes() == dw[k].tobytes()
        got, want = eng.streams[0]._gen.bit_generator.state, ref._gen.bit_generator.state
        assert got["buffer_pos"] == want["buffer_pos"]
        for key in ("counter", "key"):
            assert np.array_equal(got["state"][key], want["state"][key])
        assert np.array_equal(got["buffer"], want["buffer"])
        assert eng.streams[0].gaussian(5).tobytes() == ref.gaussian(5).tobytes()

    def test_noise_memory_is_one_tile(self, default_system):
        # the engine holds one tile of noise, not a whole chunk: a chunk for
        # 512 trajectories alone would be 3 * 512 * NOISE_CHUNK doubles, 50 MB
        _EnsembleEngine(default_system, 0.02, 0.5, 0.3, 3, range(2)).step()  # lazy imports
        tracemalloc.start()
        try:
            eng = _EnsembleEngine(default_system, 0.02, 0.5, 0.3, 3, range(512))
            for _ in range(NOISE_CHUNK + 5):
                eng.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("name", sorted(FROZEN_RECORDS))
    def test_records_frozen(self, name):
        # values written by the earlier per-operator step (ladder gather and
        # complex einsums) on the same seed: jumps must agree exactly, the
        # currents to rounding
        params, clicks, atom_jumps, currents = FROZEN_RECORDS[name]
        grid = TimeGrid(0.0, 0.02, 10_000)
        recs = list(
            unravel_ensemble(
                build_system(params), grid, 12, seed=31, jump_fraction=0.9, burn_in=5.0
            )
        )
        assert {r.traj_id: r.counts.timestamps.tolist() for r in recs if r.counts.n_events} == clicks
        assert [r.atom_jumps for r in recs] == atom_jumps
        for rec, ref in zip(recs, currents):
            assert np.abs(rec.current.samples[:3] - ref).max() <= 1e-12 * np.abs(ref).max()


class TestEnsembleTransient:
    def test_matches_master_equation(self, default_system):
        # dt small enough that the O(dt) weak error of the stepper sits well
        # below the 512-trajectory standard error
        grid = TimeGrid(0.0, 0.0025, 1201)
        mean, err = ensemble_number_expectation(
            default_system, grid, n_traj=512, seed=2024
        )
        assert mean[0] == 0.0 and err[0] == 0.0
        d = default_system.a.shape[0]
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
        states = evolve_master(default_system, rho0, grid)
        n_op = default_system.a.conj().T @ default_system.a
        ref = np.einsum("tij,ji->t", states, n_op).real
        for k in range(200, 1201, 200):
            assert abs(mean[k] - ref[k]) < 5.0 * err[k]

    def test_batch_size_does_not_change_the_mean(self, default_system):
        # trajectory k owns stream k whatever the batching; 7 trajectories
        # in batches of 3, 3 and 1 against one batch of 7. The stderr is
        # compared squared: near t = 0 the variance is rounding noise, which
        # its square root magnifies
        grid = TimeGrid(0.0, 0.02, 400)
        mean_3, err_3 = ensemble_number_expectation(default_system, grid, 7, seed=3, batch_size=3)
        mean_7, err_7 = ensemble_number_expectation(default_system, grid, 7, seed=3, batch_size=7)
        assert mean_7.max() > 0.0
        assert np.abs(mean_3 - mean_7).max() <= 1e-12
        assert np.abs(err_3**2 - err_7**2).max() <= 1e-12

    def test_stderr_does_not_depend_on_batching(self, default_system):
        # per-batch mean and squared deviation, merged across batches: the
        # small early-time spread survives, where total2 / n - mean^2 loses
        # a quarter of it to cancellation at t = 0.2
        grid = TimeGrid(0.0, 0.02, 400)
        _, err_3 = ensemble_number_expectation(default_system, grid, 7, seed=3, batch_size=3)
        _, err_7 = ensemble_number_expectation(default_system, grid, 7, seed=3, batch_size=7)
        late = grid.times >= 0.1
        assert err_7[late].min() > 0.0
        assert np.abs(err_3[late] / err_7[late] - 1.0).max() <= 1e-6

    @pytest.mark.parametrize("n_traj", [0, -3])
    def test_no_trajectories_rejected(self, default_system, n_traj):
        with pytest.raises(ValueError):
            ensemble_number_expectation(default_system, TimeGrid(0.0, 0.02, 10), n_traj, seed=3)
