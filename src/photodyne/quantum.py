"""Driven single-atom cavity: master equation, regression correlators, and a
mixed jump/diffusion unraveling whose records feed the same estimators as the
semiclassical pipeline.

Conventions, fixed package-wide:
  basis        atom (ground, excited) tensor cavity Fock 0..fock_cutoff-1
  hamiltonian  g (a^dag sm + a sp) + drive (a^dag + a), rotating frame
  collapse     sqrt(kappa) a, sqrt(gamma) sm
  flattening   row-major, vec(A rho B) = kron(A, B^T) vec(rho)
  quadrature   a_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream, TimeGrid, integrate_linear_ode, single_blas_thread
from .records import CountRecord, PhotocurrentRecord

__all__ = [
    "SystemParams",
    "DEFAULTS",
    "System",
    "TrajectoryRecord",
    "build_system",
    "liouvillian",
    "steady_state",
    "evolve_master",
    "expectation",
    "basis_state",
    "g2_regression",
    "h_regression",
    "unravel_ensemble",
    "ensemble_number_expectation",
]

STEADY_RESIDUAL_TOL = 1e-10
CUTOFF_POPULATION_TOL = 1e-8
NOISE_CHUNK = 4096


@dataclass(frozen=True)
class SystemParams:
    """Rates in a common inverse-time unit; fock_cutoff counts cavity levels."""

    g: float
    kappa: float
    gamma: float
    drive: float
    fock_cutoff: int

    def __post_init__(self) -> None:
        if self.kappa <= 0 or self.gamma <= 0:
            raise ValueError("kappa and gamma must be > 0")
        if self.g < 0 or self.drive < 0:
            raise ValueError("g and drive must be >= 0")
        if self.fock_cutoff < 2:
            raise ValueError("fock_cutoff must be >= 2")

    @property
    def cooperativity(self) -> float:
        """2 g^2 / (kappa gamma), the single-atom cooperativity 2 C1."""
        return 2.0 * self.g**2 / (self.kappa * self.gamma)


DEFAULTS = SystemParams(g=0.75, kappa=1.0, gamma=1.0, drive=0.18, fock_cutoff=8)


@dataclass(frozen=True)
class System:
    params: SystemParams
    a: np.ndarray
    sm: np.ndarray
    hamiltonian: np.ndarray
    collapse: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def build_system(params: SystemParams) -> System:
    nc = params.fock_cutoff
    a_c = np.diag(np.sqrt(np.arange(1, nc, dtype=float)), k=1).astype(complex)
    eye_c = np.eye(nc, dtype=complex)
    eye_a = np.eye(2, dtype=complex)
    sm_a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    a = np.kron(eye_a, a_c)
    sm = np.kron(sm_a, eye_c)
    h = params.g * (a.conj().T @ sm + a @ sm.conj().T) + params.drive * (
        a.conj().T + a
    )
    collapse = (math.sqrt(params.kappa) * a, math.sqrt(params.gamma) * sm)
    return System(params=params, a=a, sm=sm, hamiltonian=h, collapse=collapse)


def liouvillian(system: System) -> np.ndarray:
    d = system.dim
    eye = np.eye(d, dtype=complex)
    h = system.hamiltonian
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in system.collapse:
        cdc = c.conj().T @ c
        lv += (
            np.kron(c, c.conj())
            - 0.5 * np.kron(cdc, eye)
            - 0.5 * np.kron(eye, cdc.T)
        )
    return lv


@single_blas_thread
def steady_state(system: System) -> np.ndarray:
    """Null vector of the Liouvillian with unit trace.

    Solved as a linear system with the first row replaced by the trace
    constraint. Raises if the residual exceeds STEADY_RESIDUAL_TOL or if the
    top Fock level holds more than CUTOFF_POPULATION_TOL population, which
    means the cutoff is biting.
    """
    d = system.dim
    lv = liouvillian(system)
    m = lv.copy()
    m[0, :] = 0.0
    m[0, (d + 1) * np.arange(d)] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    x = np.linalg.solve(m, rhs)
    residual = float(np.linalg.norm(lv @ x))
    if residual > STEADY_RESIDUAL_TOL:
        raise ArithmeticError(f"steady-state residual {residual:.3e}")
    rho = x.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    nc = system.params.fock_cutoff
    top = float(sum(rho[i * nc + nc - 1, i * nc + nc - 1].real for i in range(2)))
    if top > CUTOFF_POPULATION_TOL:
        raise ValueError(
            f"top Fock level population {top:.3e}; raise fock_cutoff"
        )
    return rho


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.trace(op @ rho))


def basis_state(system: System, excited: bool, n_photons: int) -> np.ndarray:
    """Product state |atom> |n_photons> as a ket."""
    nc = system.params.fock_cutoff
    if not 0 <= n_photons < nc:
        raise ValueError("photon number outside cutoff")
    psi = np.zeros(system.dim, dtype=complex)
    psi[(1 if excited else 0) * nc + n_photons] = 1.0
    return psi


@single_blas_thread
def evolve_master(system: System, rho0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Density matrices at every grid time, exact on the flattened equation.

    rho0 is the state at grid.times[0]. One propagator P = exp(L grid.dt)
    carries each sample to the next, so any grid step is exact up to
    rounding, which grows by about 1e-16 per sample.
    """
    d = system.dim
    if rho0.shape != (d, d):
        raise ValueError("rho0 dimension mismatch")
    prop = integrate_linear_ode(liouvillian(system), np.eye(d * d), grid.dt, 1)
    out = np.empty((grid.n_samples, d, d), dtype=complex)
    vec = rho0.reshape(-1).astype(complex)
    out[0] = rho0
    for i in range(1, grid.n_samples):
        vec = prop @ vec
        out[i] = vec.reshape(d, d)
    return out


def _conditional_state(system: System, rho_ss: np.ndarray) -> tuple[np.ndarray, float]:
    """State right after a cavity emission, and the mean photon number."""
    a = system.a
    nbar = expectation(a.conj().T @ a, rho_ss).real
    if nbar <= 0:
        raise ArithmeticError("zero cavity population; correlators undefined")
    rho_c = a @ rho_ss @ a.conj().T / nbar
    return rho_c, nbar


def g2_regression(system: System, tau_grid: TimeGrid):
    """Normalized intensity correlation by the regression rule.

    The emission-conditioned state is propagated under the same generator and
    its photon number is normalized by the stationary one. The returned
    series covers -tau_max..tau_max by even reflection; tau_grid must start
    at 0.
    """
    from .analyzers import CorrelationSeries

    if tau_grid.t_start != 0.0:
        raise ValueError("tau_grid must start at 0")
    rho_ss = steady_state(system)
    rho_c, nbar = _conditional_state(system, rho_ss)
    states = evolve_master(system, rho_c, tau_grid)
    num = system.a.conj().T @ system.a
    g2 = np.einsum("tij,ji->t", states, num).real / nbar
    lags = np.concatenate([-tau_grid.times[:0:-1], tau_grid.times])
    values = np.concatenate([g2[:0:-1], g2])
    return CorrelationSeries(lags=lags, values=values, stderr=None, normalization="g2")


def h_regression(
    system: System,
    tau_grid: TimeGrid,
    lo_phase: float | None = None,
):
    """Emission-conditioned quadrature evolution over the stationary value.

    lo_phase defaults to the phase of the stationary field amplitude, which
    maximizes the homodyne signal. Only tau >= 0 is computable here; negative
    lags exist only in sampled records.
    """
    from .analyzers import CorrelationSeries

    if tau_grid.t_start != 0.0:
        raise ValueError("tau_grid must start at 0")
    rho_ss = steady_state(system)
    amp = expectation(system.a, rho_ss)
    theta = float(np.angle(amp)) if lo_phase is None else float(lo_phase)
    quad = 0.5 * (
        system.a * np.exp(-1j * theta) + system.a.conj().T * np.exp(1j * theta)
    )
    denom = expectation(quad, rho_ss).real
    if abs(denom) < 1e-30:
        raise ArithmeticError("stationary quadrature is zero at this phase")
    rho_c, _ = _conditional_state(system, rho_ss)
    states = evolve_master(system, rho_c, tau_grid)
    vals = np.einsum("tij,ji->t", states, quad).real / denom
    return CorrelationSeries(
        lags=tau_grid.times.copy(),
        values=vals,
        stderr=None,
        normalization="h",
        meta={"lo_phase": theta},
    )


@dataclass(frozen=True)
class TrajectoryRecord:
    """Click record and homodyne current from one unraveled trajectory.

    current is None when the ensemble was run counts-only."""

    traj_id: int
    counts: CountRecord
    current: PhotocurrentRecord | None
    atom_jumps: int


def _realify(m: np.ndarray) -> np.ndarray:
    """psi.view(float) @ _realify(m) == (psi @ m).view(float) for row states."""
    re, im = m.real, m.imag
    return np.stack([np.stack([re, im], -1), np.stack([-im, re], -1)], 1).reshape(2 * len(m), -1)


class _EnsembleEngine:
    """Batched Euler stepper for the mixed jump/diffusion unraveling.

    Cavity output is split: a fraction jump_fraction of kappa feeds the
    counting channel (recorded clicks), the rest feeds homodyne detection at
    phase lo_phase. Atomic decay is an unrecorded jump channel. Per step and
    per trajectory the draws are two jump uniforms and one Wiener gaussian,
    pre-drawn in fixed blocks of NOISE_CHUNK steps (uniforms first) from one
    counter-based stream per trajectory, so results do not depend on
    batching.

    A step is one real product on the interleaved (re, im) view v of the
    batch, X = v @ [P | K | S]. P is the exact no-jump propagator. K is the
    homodyne kick c a^T P with c = hom_amp e^{-i theta}, since
    (psi + j c a psi) P = X_P + j X_K. S is the quadrature form, scaled so
    that sum(X_S v) is the current's drift term. a^dag a and sm^dag sm are
    diagonal in this basis, so both jump probabilities are (v * v) @ W; only
    rows that jump form a psi or sm psi. Clicks and atom jumps match records
    of the earlier complex per-operator step; currents differ from them in
    their last digits, as the sums are rounded in another order.

    A click during step n collapses the state entering step n+1; its
    timestamp is the time of the first post-collapse current sample.
    """

    def __init__(
        self,
        system: System,
        dt: float,
        jump_fraction: float,
        lo_phase: float,
        seed: int,
        stream_ids: list[int],
    ):
        if not 0.0 <= jump_fraction <= 1.0:
            raise ValueError("jump_fraction must be inside [0, 1]")
        p = system.params
        self.dt = dt
        d = system.dim
        a, sm = system.a, system.sm
        # exact propagators exp(G dt) and exp(G dt / 2) of the no-jump
        # generator; an Euler step would leave an O(dt) bias that dominates
        # tight ensemble averages long before sampling noise does
        gen = -1j * system.hamiltonian - 0.5 * (
            p.kappa * a.conj().T @ a + p.gamma * sm.conj().T @ sm
        )
        prop_t = integrate_linear_ode(gen, np.eye(d), dt, 1).T
        self.prop_half_t = integrate_linear_ode(gen, np.eye(d), dt / 2.0, 1).T.copy()
        self.a_t = a.T.copy()
        self.sm_t = sm.T.copy()
        hom_amp = math.sqrt((1.0 - jump_fraction) * p.kappa)
        phase = np.exp(-1j * lo_phase)
        quad_t = 0.5 * (phase * self.a_t + np.conj(phase) * a.conj())
        self.step_mat = np.hstack([
            _realify(prop_t),
            _realify(hom_amp * phase * self.a_t @ prop_t),
            _realify(2.0 * hom_amp * dt * quad_t),
        ])
        self.number_w = np.repeat(np.diag(a.conj().T @ a).real, 2)
        atom_w = np.repeat(np.diag(sm.conj().T @ sm).real, 2)
        self.jump_w = dt * np.stack(
            [jump_fraction * p.kappa * self.number_w, p.gamma * atom_w], axis=1
        )
        self.streams = [RngStream(seed, sid) for sid in stream_ids]
        self.batch = len(stream_ids)
        psi0 = basis_state(system, excited=False, n_photons=0)
        self.psi = np.tile(psi0, (self.batch, 1))
        self._chunk_pos = NOISE_CHUNK

    def _refill(self) -> None:
        b = self.batch
        self.u_cav = np.empty((b, NOISE_CHUNK))
        self.u_atom = np.empty((b, NOISE_CHUNK))
        self.dw = np.empty((b, NOISE_CHUNK))
        for i, st in enumerate(self.streams):
            u = st.uniform(2 * NOISE_CHUNK)
            self.u_cav[i] = u[:NOISE_CHUNK]
            self.u_atom[i] = u[NOISE_CHUNK:]
            self.dw[i] = st.gaussian(NOISE_CHUNK)
        self.dw *= math.sqrt(self.dt)
        self._chunk_pos = 0

    def step(self):
        """Advance one step. Returns (current_samples, cavity_jump_mask,
        atom_jump_mask)."""
        if self._chunk_pos >= NOISE_CHUNK:
            self._refill()
        j = self._chunk_pos
        self._chunk_pos += 1
        psi = self.psi
        v = psi.view(float)
        w = v.shape[1]  # 2 * dim: the P, K and S blocks of x
        x = v @ self.step_mat
        j_dt = np.einsum("bi,bi->b", x[:, 2 * w :], v) + self.dw[:, j]
        thresholds = (v * v) @ self.jump_w
        jump_cav = self.u_cav[:, j] < thresholds[:, 0]
        jump_atom = (~jump_cav) & (self.u_atom[:, j] < thresholds[:, 1])

        new = x[:, w : 2 * w] * j_dt[:, None]
        new += x[:, :w]
        # reductions act at the step midpoint: drop the diffusive kick for
        # that step (zero-mean), but keep the drift on both sides of the
        # collapse, otherwise every click skips a full step of drift
        new_c = new.view(complex)
        for jumped, op_t in ((jump_cav, self.a_t), (jump_atom, self.sm_t)):
            if jumped.any():
                half = psi[jumped] @ self.prop_half_t
                new_c[jumped] = (half @ op_t) @ self.prop_half_t
        norm = np.sqrt(np.einsum("bi,bi->b", new, new))
        if not (norm > 0).all():
            raise FloatingPointError("trajectory norm collapsed to zero")
        new *= (1.0 / norm)[:, None]
        self.psi = new_c
        return j_dt / self.dt, jump_cav, jump_atom

    def photon_number(self) -> np.ndarray:
        v = self.psi.view(float)
        return (v * v) @ self.number_w


@single_blas_thread
def _run_batch(
    system: System,
    grid: TimeGrid,
    seed: int,
    stream_ids: list[int],
    jump_fraction: float,
    lo_phase: float,
    burn_in: float,
    store_current: bool,
) -> list[TrajectoryRecord]:
    eng = _EnsembleEngine(system, grid.dt, jump_fraction, lo_phase, seed, stream_ids)
    for _ in range(int(round(burn_in / grid.dt))):
        eng.step()
    b, n = eng.batch, grid.n_samples
    currents = np.empty((b, n)) if store_current else None
    clicks = [np.empty(0, dtype=int)]  # row * n + step, one array per clicking step
    atom_totals = np.zeros(b, dtype=int)
    for m in range(n):
        cur, jc, ja = eng.step()
        if store_current:
            currents[:, m] = cur
        atom_totals += ja
        if jc.any():
            clicks.append(np.flatnonzero(jc) * n + m)
    keys = np.sort(np.concatenate(clicks))
    times = grid.t_start + grid.dt * (keys % n + 1.0)
    click_times = np.split(times, np.searchsorted(keys, n * np.arange(1, b)))
    out = []
    for i in range(b):
        rec = None
        if store_current:
            rec = PhotocurrentRecord(
                grid,
                currents[i],
                bandwidth=0.5 / grid.dt,
                meta={"lo_phase": lo_phase, "jump_fraction": jump_fraction},
            )
        out.append(
            TrajectoryRecord(
                traj_id=stream_ids[i],
                counts=CountRecord(click_times[i], grid.t_start, grid.t_end),
                current=rec,
                atom_jumps=int(atom_totals[i]),
            )
        )
    return out


def _default_phase(system: System) -> float:
    return float(np.angle(expectation(system.a, steady_state(system))))


def unravel_ensemble(
    system: System,
    grid: TimeGrid,
    n_traj: int,
    seed: int,
    jump_fraction: float = 0.5,
    lo_phase: float | None = None,
    burn_in: float = 25.0,
    first_stream: int = 0,
    batch_size: int = 512,
    store_current: bool = True,
):
    """Yield TrajectoryRecord for n_traj independent trajectories.

    Trajectory k uses counter stream first_stream + k, so any contiguous or
    disjoint ensemble can be reproduced piecewise. Each trajectory relaxes
    for burn_in time units before its record window opens. store_current
    False keeps only click records; the diffusion noise is still consumed,
    so the trajectories are identical either way.
    """
    if n_traj <= 0:
        raise ValueError("n_traj must be positive")
    theta = _default_phase(system) if lo_phase is None else float(lo_phase)
    done = 0
    while done < n_traj:
        b = min(batch_size, n_traj - done)
        ids = [first_stream + done + i for i in range(b)]
        yield from _run_batch(
            system, grid, seed, ids, jump_fraction, theta, burn_in, store_current
        )
        done += b


@single_blas_thread
def ensemble_number_expectation(
    system: System,
    grid: TimeGrid,
    n_traj: int,
    seed: int,
    jump_fraction: float = 0.5,
    lo_phase: float | None = None,
    batch_size: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean photon number over trajectories started in the ground state.

    No burn-in: the transient itself is the object. Returns (mean, stderr)
    per grid sample; the mean converges to the master-equation photon
    number as n_traj grows, and stderr is the trajectory spread / sqrt(n).
    """
    theta = _default_phase(system) if lo_phase is None else float(lo_phase)
    total = np.zeros(grid.n_samples)
    total2 = np.zeros(grid.n_samples)
    done = 0
    while done < n_traj:
        b = min(batch_size, n_traj - done)
        ids = list(range(done, done + b))
        eng = _EnsembleEngine(system, grid.dt, jump_fraction, theta, seed, ids)
        vals = eng.photon_number()
        total[0] += vals.sum()
        total2[0] += (vals * vals).sum()
        for m in range(1, grid.n_samples):
            eng.step()
            vals = eng.photon_number()
            total[m] += vals.sum()
            total2[m] += (vals * vals).sum()
        done += b
    mean = total / n_traj
    var = np.maximum(total2 / n_traj - mean * mean, 0.0)
    return mean, np.sqrt(var / n_traj)
