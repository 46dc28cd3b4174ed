"""Exact reference values the benchmark checks the program against.

Nothing here imports photodyne.quantum: the driven-cavity Liouvillian is
built with scipy from the conventions stated in that module's docstring,

  basis        atom (ground, excited) tensor cavity Fock 0..fock_cutoff-1
  hamiltonian  g (a^dag sm + a sp) + drive (a^dag + a)
  collapse     sqrt(kappa) a, sqrt(gamma) sm
  flattening   row-major, vec(A rho B) = kron(A, B^T) vec(rho)
  quadrature   a_theta = (a e^{-i theta} + a^dag e^{i theta}) / 2

and the regression curves are propagated with expm. The classical closed
forms sit at the end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy is imported inside the functions that need it, so that the closed
# forms can be used in a workload process without loading it.


@dataclass(frozen=True)
class Cavity:
    """Operators and Liouvillian of one driven atom-cavity system."""

    g: float
    kappa: float
    gamma: float
    drive: float
    fock_cutoff: int

    @property
    def dim(self) -> int:
        return 2 * self.fock_cutoff

    def ops(self):
        import scipy.sparse as sp

        a_c = sp.diags(np.sqrt(np.arange(1.0, self.fock_cutoff)), 1, format="csr")
        sm_a = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        a = sp.kron(sp.identity(2), a_c, format="csr").astype(complex)
        sm = sp.kron(sm_a, sp.identity(self.fock_cutoff), format="csr").astype(complex)
        return a, sm

    def liouvillian(self) -> np.ndarray:
        import scipy.sparse as sp

        a, sm = self.ops()
        ad, sp_ = a.getH(), sm.getH()
        h = self.g * (ad @ sm + a @ sp_) + self.drive * (ad + a)
        eye = sp.identity(self.dim, dtype=complex, format="csr")
        lv = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
        for c in (math.sqrt(self.kappa) * a, math.sqrt(self.gamma) * sm):
            cdc = c.getH() @ c
            lv = lv + sp.kron(c, c.conj()) - 0.5 * sp.kron(cdc, eye) - 0.5 * sp.kron(eye, cdc.T)
        return lv.toarray()


def steady_state(cav: Cavity) -> np.ndarray:
    """Unit-trace null vector of the Liouvillian, from its SVD."""
    import scipy.linalg as sla

    ns = sla.null_space(cav.liouvillian(), rcond=1e-10)
    if ns.shape[1] != 1:
        raise ArithmeticError(f"steady state not unique: {ns.shape[1]} null vectors")
    rho = ns[:, 0].reshape(cav.dim, cav.dim)
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


def mean_photons(cav: Cavity) -> float:
    a, _ = cav.ops()
    return float(np.trace((a.getH() @ a) @ steady_state(cav)).real)


def _propagate(cav: Cavity, rho0: np.ndarray, obs: np.ndarray, dt: float, n: int) -> np.ndarray:
    """Tr(obs rho(t_k)) for t_k = k dt, k = 0..n-1, rho' = L rho by expm."""
    import scipy.linalg as sla

    step = sla.expm(cav.liouvillian() * dt)
    vec = rho0.reshape(-1)
    obs_t = obs.T.reshape(-1)  # Tr(O rho) = sum_ij O_ji rho_ij
    out = np.empty(n)
    for k in range(n):
        out[k] = (obs_t @ vec).real
        vec = step @ vec
    return out


def regression_g2(cav: Cavity, dt: float, n: int) -> np.ndarray:
    """g2(k dt), k = 0..n-1: photon number after an emission over the
    stationary one."""
    a, _ = cav.ops()
    a = a.toarray()
    rho = steady_state(cav)
    nbar = float(np.trace(a.conj().T @ a @ rho).real)
    rho_c = a @ rho @ a.conj().T / nbar
    return _propagate(cav, rho_c, a.conj().T @ a, dt, n) / nbar


def stationary_phase(cav: Cavity) -> float:
    a, _ = cav.ops()
    return float(np.angle(np.trace(a.toarray() @ steady_state(cav))))


def regression_h(cav: Cavity, dt: float, n: int) -> np.ndarray:
    """h(k dt), k = 0..n-1: the quadrature at the stationary field phase
    after an emission over its stationary value."""
    a, _ = cav.ops()
    a = a.toarray()
    rho = steady_state(cav)
    theta = stationary_phase(cav)
    quad = 0.5 * (a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta))
    nbar = float(np.trace(a.conj().T @ a @ rho).real)
    rho_c = a @ rho @ a.conj().T / nbar
    return _propagate(cav, rho_c, quad, dt, n) / float(np.trace(quad @ rho).real)


def eigenfrequencies(cav: Cavity) -> np.ndarray:
    """Liouvillian eigenvalues, least damped first."""
    ev = np.linalg.eigvals(cav.liouvillian())
    return ev[np.argsort(-ev.real)]


def coupling_frequency(cav: Cavity) -> float:
    """Oscillation frequency of the least damped oscillating eigenmode: the
    vacuum-Rabi coherence, near g when kappa = gamma and the drive is weak."""
    ev = eigenfrequencies(cav)
    osc = ev[np.abs(ev.imag) > 1e-3 * max(1.0, cav.g)]
    return float(abs(osc[np.argmax(osc.real)].imag))


# classical closed forms -------------------------------------------------


def thermal_g2(tau, tau_c: float) -> np.ndarray:
    """Intensity correlation of a complex Gaussian (thermal OU) field."""
    return 1.0 + np.exp(-2.0 * np.abs(np.asarray(tau, dtype=float)) / tau_c)


def poisson_g2(tau) -> np.ndarray:
    """Coherent light and a Poisson null: g2 = h = 1 at every lag."""
    return np.ones(np.shape(tau))


def shot_width(lo_amplitude: float, bandwidth: float) -> float:
    """RMS of the filtered BHD difference current with no signal."""
    return lo_amplitude * math.sqrt(math.pi * bandwidth)
