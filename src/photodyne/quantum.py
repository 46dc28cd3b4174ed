"""Driven single-atom cavity: master equation, regression correlators, and a
mixed jump/diffusion unraveling whose records feed the same estimators as the
semiclassical pipeline.

Conventions, fixed package-wide:
  basis        atom (ground, excited) tensor cavity Fock 0..fock_cutoff-1
  hamiltonian  g (a^dag sm + a sp) + drive (a^dag + a), rotating frame
  collapse     sqrt(kappa) a, sqrt(gamma) sm
  flattening   row-major, vec(A rho B) = kron(A, B^T) vec(rho)
  quadrature   a_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2
  LO phase     theta defaults to arg<a>_ss, which maximizes the homodyne signal

Regression rule: both correlators follow the state right after a cavity
emission, rho_c = a rho_ss a^dag / Tr(a^dag a rho_ss), and read
Tr(op e^{L tau} rho_c) / Tr(op rho_ss), with op = a^dag a for g2(tau) and
op = a_theta for h(tau).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analyzers import CorrelationSeries
from .numerics import RngStream, TimeGrid, _stream_batches, integrate_linear_ode, single_blas_thread
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
NOISE_TILE = 256  # steps of noise held at a time; divides NOISE_CHUNK
RENORM_EVERY = 32


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


def _quadrature(a: np.ndarray, theta: float) -> np.ndarray:
    """a_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2."""
    return 0.5 * (a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta))


def _resolve_lo_phase(system: System, lo_phase: float | None = None, rho_ss=None) -> float:
    """lo_phase, or arg<a>_ss when it is None; a known rho_ss saves a solve."""
    if lo_phase is not None:
        return float(lo_phase)
    if rho_ss is None:
        rho_ss = steady_state(system)
    return float(np.angle(expectation(system.a, rho_ss)))


def _regression(system: System, rho_ss: np.ndarray, tau_grid: TimeGrid, op: np.ndarray):
    """Tr(op e^{L tau} rho_c) / Tr(op rho_ss) at every tau_grid time."""
    if tau_grid.t_start != 0.0:
        raise ValueError("tau_grid must start at 0")
    a = system.a
    nbar = expectation(a.conj().T @ a, rho_ss).real
    denom = expectation(op, rho_ss).real  # 0 for both ops when nbar is (|<a>|^2 <= nbar)
    if abs(denom) < 1e-30:
        raise ArithmeticError("stationary expectation of the observable is zero")
    states = evolve_master(system, a @ rho_ss @ a.conj().T / nbar, tau_grid)
    return np.einsum("tij,ji->t", states, op).real / denom


def g2_regression(system: System, tau_grid: TimeGrid):
    """Normalized intensity correlation by the regression rule, op = a^dag a.

    The returned series covers -tau_max..tau_max by even reflection;
    tau_grid must start at 0.
    """
    num = system.a.conj().T @ system.a
    g2 = _regression(system, steady_state(system), tau_grid, num)
    lags = np.concatenate([-tau_grid.times[:0:-1], tau_grid.times])
    values = np.concatenate([g2[:0:-1], g2])
    return CorrelationSeries(lags=lags, values=values, stderr=None, normalization="g2")


def h_regression(
    system: System,
    tau_grid: TimeGrid,
    lo_phase: float | None = None,
):
    """Conditioned quadrature by the regression rule, op = a_theta.

    lo_phase defaults to arg<a>_ss. Only tau >= 0 is computable here;
    negative lags exist only in sampled records.
    """
    rho_ss = steady_state(system)
    theta = _resolve_lo_phase(system, lo_phase, rho_ss)
    vals = _regression(system, rho_ss, tau_grid, _quadrature(system.a, theta))
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
    """_realify(m) @ [re x; im x] == [re (m x); im (m x)] for column states."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


class _EnsembleEngine:
    """Batched stepper for the mixed jump/diffusion unraveling.

    Cavity output is split: a fraction jump_fraction of kappa feeds the
    counting channel (recorded clicks), the rest feeds homodyne detection at
    phase lo_phase. Atomic decay is an unrecorded jump channel. Per step and
    per trajectory the draws are two jump uniforms and one Wiener gaussian
    from one counter-based stream per trajectory, so clicks and atom jumps
    do not depend on batching. Currents agree only to rounding: BLAS may
    compute a column of the step product with other kernels at another
    batch width or column offset.

    Noise. The draw order is fixed in chunks of NOISE_CHUNK steps: from the
    stream's position P, NOISE_CHUNK cavity uniforms, then NOISE_CHUNK atom
    uniforms, then NOISE_CHUNK gaussians, and the next chunk starts where
    the gaussians stop. Only one tile of NOISE_TILE steps is held. At the
    start of a chunk each stream hands out two cursors, on its words from P
    and from P + NOISE_CHUNK (a float64 uniform takes exactly one word), and
    skips to P + 2 NOISE_CHUNK to draw the gaussians itself; each refill
    draws one tile from each, so the values are those of a whole-chunk draw
    and the stream ends where one would leave it. The tile is stored step
    by step, (NOISE_TILE, 3, batch), so a step reads contiguous rows.

    Frame. The engine holds phi = U psi with U = exp(-i theta a^dag a), the
    cavity rotated by the LO phase. There the homodyne kick c a (c = hom_amp
    e^{-i theta}) becomes the real ladder hom_amp a, the current's drift is
    2 hom_amp dt Re<a>, the propagators are U P U^dag and the cavity jump is
    U a U^dag = e^{i theta} a.

    Layout. The batch is the last axis: v = [re phi; im phi] has shape
    (2 dim, batch), so every elementwise call runs one contiguous loop over
    the batch. a v is the shifted slice v[1:] scaled by sqrt(n) per row.
    a^dag a and sm^dag sm are diagonal, so one (4, 4 dim - 1) product on the
    stacked v * v and v[:-1] * v[1:] gives both jump weights, the drift and
    the norm^2. The one dense product of a step is P' (v + j hom_amp a v),
    with P' the realified exact no-jump propagator; the kick and the drift
    need no product of their own. Only the columns that jump take the
    half-step jump product instead.

    Renormalization. v is rescaled to unit norm every RENORM_EVERY steps,
    not every step. In between, the drift and both jump thresholds are
    divided by the norm^2, so they read the normalized state. A norm^2 that
    is zero or not finite raises FloatingPointError at the next step.

    What the frame does not change: the draws, the click rule, the
    (batch, NOISE_TILE) noise views u_cav, u_atom and dw (column j is step
    j after a refill) and the psi rows (lab frame, normalized). Seeded
    clicks and atom jumps are those of a lab-frame step; currents differ
    from it only by rounding.

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
        stream_ids: range,
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
        number = np.diag(a.conj().T @ a).real
        self.frame = np.exp(-1j * lo_phase * number)  # the diagonal of U
        u = np.diag(self.frame)
        gen = u @ gen @ u.conj().T
        half = integrate_linear_ode(gen, np.eye(d), dt / 2.0, 1)
        self.prop = _realify(integrate_linear_ode(gen, np.eye(d), dt, 1))
        self.jump_props = tuple(
            _realify(half @ op @ half) for op in (u @ a @ u.conj().T, sm)
        )
        hom_amp = math.sqrt((1.0 - jump_fraction) * p.kappa)
        self.number_w = np.stack([np.tile(number, 2), np.ones(2 * d)])
        atom_w = np.tile(np.diag(sm.conj().T @ sm).real, 2)
        # (a v)[r] = sqrt(n) v[r + 1] on the stacked rows of v, with n the
        # Fock level of row r + 1; n is 0 where a block starts
        rungs = np.sqrt(self.number_w[0, 1:])
        # rows: cavity and atom jump weights, 2 hom_amp dt Re<a> and norm^2;
        # the first 2 dim columns act on v * v, the rest on v[:-1] * v[1:]
        w = np.zeros((4, 4 * d - 1))
        w[0, : 2 * d] = dt * (jump_fraction * p.kappa * self.number_w[0])
        w[1, : 2 * d] = dt * (p.gamma * atom_w)
        w[2, 2 * d :] = (2.0 * hom_amp * dt) * rungs
        w[3, : 2 * d] = 1.0
        self.weights = w
        self.streams = [RngStream(seed, sid) for sid in stream_ids]
        self.batch = b = len(stream_ids)
        # repeated over the batch, so the kick's outer product broadcasts j alone
        self.kick_rungs = np.repeat(hom_amp * rungs[:, None], b, axis=1)
        self.psi = np.tile(basis_state(system, excited=False, n_photons=0), (b, 1))
        self._squares = np.empty((4 * d - 1, b))
        self._kicked = np.empty_like(self.v)
        self._next = np.empty_like(self.v)
        # per step of the tile: cavity uniforms, atom uniforms and Wiener
        # increments, each a contiguous row over the batch
        self._noise = np.empty((NOISE_TILE, 3, b))
        self.u_cav, self.u_atom, self.dw = (self._noise[:, k].T for k in range(3))
        self._rows = np.empty((b, NOISE_TILE))  # one kind of one tile as drawn
        self._cursors = [(None, None)] * b
        self._tiles_left = 0
        self._tile_pos = NOISE_TILE
        self._steps = 0

    @property
    def psi(self) -> np.ndarray:
        """Lab-frame states as normalized rows, shape (batch, dim)."""
        d = len(self.frame)
        phi = (self.v[:d] + 1j * self.v[d:]).T
        return phi * (self.frame.conj() / np.linalg.norm(phi, axis=1)[:, None])

    @psi.setter
    def psi(self, rows: np.ndarray) -> None:
        phi = rows * self.frame
        self.v = np.ascontiguousarray(np.concatenate([phi.real, phi.imag], axis=1).T)

    def _refill(self) -> None:
        """Draw the next tile, opening new cursors when a chunk starts."""
        if not self._tiles_left:
            self._cursors = [
                (st.cursor(NOISE_CHUNK, cav), st.cursor(NOISE_CHUNK, atom))
                for st, (cav, atom) in zip(self.streams, self._cursors)
            ]
            self._tiles_left = NOISE_CHUNK // NOISE_TILE
        rows = self._rows
        for k in range(2):
            for row, cursors in zip(rows, self._cursors):
                cursors[k].random(out=row)
            self._noise[:, k] = rows.T
        for row, st in zip(rows, self.streams):
            st.gaussian(out=row)
        rows *= math.sqrt(self.dt)
        self._noise[:, 2] = rows.T
        self._tiles_left -= 1
        self._tile_pos = 0

    def step(self):
        """Advance one step. Returns (current_samples, cavity_jump_mask,
        atom_jump_mask)."""
        if self._tile_pos == NOISE_TILE:
            self._refill()
        noise = self._noise[self._tile_pos]
        dw = noise[2]
        self._tile_pos += 1
        v, sq, kicked = self.v, self._squares, self._kicked
        np.multiply(v, v, out=sq[: len(v)])
        np.multiply(v[:-1], v[1:], out=sq[len(v) :])
        stats = self.weights @ sq
        norm2 = stats[3]
        if not (0.0 < norm2.min() and norm2.max() < math.inf):
            raise FloatingPointError("trajectory norm^2 is zero or not finite")
        # jump probabilities and drift of the normalized state
        probs = stats[:3] / norm2
        j_dt = probs[2] + dw
        hits = noise[:2] < probs[:2]
        # an atom jump only where the cavity did not jump: True > False
        jump_cav, jump_atom = hits[0], hits[1] > hits[0]

        # kicked = v + j hom_amp a v, from shifted rows of v
        np.multiply(self.kick_rungs, j_dt, out=kicked[:-1])
        kicked[:-1] *= v[1:]
        kicked[:-1] += v[:-1]
        kicked[-1] = v[-1]
        new = np.matmul(self.prop, kicked, out=self._next)
        # reductions act at the step midpoint: drop the diffusive kick for
        # that step (zero-mean), but keep the drift on both sides of the
        # collapse, otherwise every click skips a full step of drift
        # one matvec per jumped column: BLAS rounds a column of a product
        # differently with the number of columns it shares the product with,
        # and that number must not depend on the batch or the worker count
        if np.count_nonzero(hits):
            for jumped, jump_prop in zip((jump_cav, jump_atom), self.jump_props):
                for col in np.flatnonzero(jumped).tolist():
                    new[:, col] = jump_prop @ v[:, col]
        self._steps += 1
        if self._steps % RENORM_EVERY == 0:
            new *= 1.0 / np.sqrt(np.einsum("ib,ib->b", new, new))
        self.v, self._next = new, v
        return j_dt / self.dt, jump_cav, jump_atom

    def photon_number(self) -> np.ndarray:
        num, norm2 = self.number_w @ (self.v * self.v)
        return num / norm2


@single_blas_thread
def _run_batch(
    system: System,
    grid: TimeGrid,
    seed: int,
    stream_ids: range,
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
        if np.count_nonzero(jc):
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
    disjoint ensemble can be reproduced piecewise: its clicks exactly, its
    currents to rounding (see _EnsembleEngine). Each trajectory relaxes
    for burn_in time units before its record window opens. store_current
    False keeps only click records; the diffusion noise is still consumed,
    so the trajectories are identical either way. Noise is drawn a tile of
    NOISE_TILE steps at a time from three cursors per stream (see
    _EnsembleEngine): a batch holds 8 KiB of it per trajectory, beside the
    currents it returns.
    """
    batches = _stream_batches(n_traj, batch_size, first_stream)
    theta = _resolve_lo_phase(system, lo_phase)
    for ids in batches:
        yield from _run_batch(
            system, grid, seed, ids, jump_fraction, theta, burn_in, store_current
        )


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
    Each batch gives its mean and summed squared deviation in two passes;
    batches merge by the pairwise rule of Chan, Golub and LeVeque, so a
    small spread does not cancel against the squared mean.
    """
    batches = _stream_batches(n_traj, batch_size)
    theta = _resolve_lo_phase(system, lo_phase)
    count = 0
    mean = np.zeros(grid.n_samples)
    sq_dev = np.zeros(grid.n_samples)
    for ids in batches:
        eng = _EnsembleEngine(system, grid.dt, jump_fraction, theta, seed, ids)
        b_mean = np.empty(grid.n_samples)
        b_sq_dev = np.empty(grid.n_samples)
        for m in range(grid.n_samples):
            if m:
                eng.step()
            vals = eng.photon_number()
            b_mean[m] = vals.mean()
            dev = vals - b_mean[m]
            b_sq_dev[m] = dev @ dev
        delta = b_mean - mean
        total = count + eng.batch
        mean += delta * (eng.batch / total)
        sq_dev += b_sq_dev + delta * delta * (count * eng.batch / total)
        count = total
    return mean, np.sqrt(sq_dev) / n_traj
