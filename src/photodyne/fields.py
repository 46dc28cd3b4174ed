"""Classical stochastic light in complex-envelope form, plus the wave optics.

The carrier is factored out (fluctuations of interest outlive it by many
orders of magnitude), so a field is just envelope samples alpha_t on a grid
with |alpha_t|^2 a photoelectron rate. Three models: a constant coherent
wave, a thermal complex Ornstein-Uhlenbeck field, and Poisson-placed
damped-cosine amplitude bursts on a coherent baseline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, TimeGrid, first_order_recurrence

MODEL_KINDS = ("coherent", "thermal_ou", "modulated_burst")
BURST_SIGNS = ("positive", "symmetric")

# exp(-x) below this support cutoff is treated as zero when placing bursts
_BURST_SUPPORT = 8.0


@dataclass(frozen=True)
class FieldModel:
    """Tagged classical-field model; only the fields for its kind are read.

    coherent: amplitude, phase.
    thermal_ou: mean_intensity, tau_c.
    modulated_burst: amplitude/phase baseline plus burst_rate, burst_freq,
    burst_decay, burst_amp (relative height) and burst_sign convention.
    """

    kind: str = "coherent"
    amplitude: float = 1.0
    phase: float = 0.0
    mean_intensity: float = 1.0
    tau_c: float = 1.0
    burst_rate: float = 0.05
    burst_freq: float = 0.75
    burst_decay: float = 0.25
    burst_amp: float = 0.5
    burst_sign: str = "positive"

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown field model {self.kind!r}")
        if self.kind == "coherent" and self.amplitude < 0:
            raise ValueError("coherent amplitude must be >= 0")
        if self.kind == "thermal_ou":
            if self.mean_intensity <= 0 or self.tau_c <= 0:
                raise ValueError("thermal_ou needs positive mean_intensity and tau_c")
        if self.kind == "modulated_burst":
            if min(self.burst_rate, self.burst_freq, self.burst_decay) <= 0:
                raise ValueError("burst rate, freq and decay must be positive")
            if self.amplitude <= 0:
                raise ValueError("burst model needs a positive baseline amplitude")
            if self.burst_sign not in BURST_SIGNS:
                raise ValueError(f"unknown burst_sign {self.burst_sign!r}")


@dataclass(frozen=True)
class LocalOscillator:
    """Strong reference wave; its phase selects the measured quadrature."""

    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0 or not math.isfinite(self.amplitude):
            raise ValueError("A_LO must be finite and >= 0")

    @property
    def envelope(self) -> complex:
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))


@dataclass
class FieldPath:
    """Complex envelope samples on a grid; |envelope|^2 is a rate."""

    grid: TimeGrid
    envelope: np.ndarray

    def __post_init__(self) -> None:
        env = np.asarray(self.envelope, dtype=complex)
        self.envelope = env
        if env.size != self.grid.n_samples:
            raise ValueError("envelope length does not match grid")
        if not np.isfinite(env).all():
            raise ValueError("envelope contains non-finite samples")

    def intensity(self) -> np.ndarray:
        out = np.abs(self.envelope)
        out *= out
        return out


def _ou_path(ibar: float, tau_c: float, grid: TimeGrid, stream: RngStream) -> np.ndarray:
    """Stationary complex OU, quadrature variance ibar/2 each, exact update."""
    sigma = math.sqrt(ibar / 2.0)
    g0 = stream.gaussian(2)
    alpha0 = sigma * complex(g0[0], g0[1])
    rho = math.exp(-grid.dt / tau_c)
    kick = sigma * math.sqrt(1.0 - rho * rho)
    gs = stream.gaussian(2 * (grid.n_samples - 1))
    xi = gs[0::2] + 1j * gs[1::2]
    return np.concatenate([[alpha0], first_order_recurrence(rho, kick * xi, alpha0)])


def _burst_path(model: FieldModel, grid: TimeGrid, stream: RngStream) -> np.ndarray:
    """Baseline times (1 + the summed burst kernels).

    Draw order: the centers' exponential gaps in blocks of 256 until one
    passes the padded window, then (symmetric signs) one uniform per center.
    Each block of gaps is cumsummed in place from the running time, the
    sums a gap-at-a-time loop makes; the kernels, whose cost is mostly
    np.cos, are added into the modulation in burst order.
    """
    pad = _BURST_SUPPORT / model.burst_decay
    lo, hi = grid.t_start - pad, grid.t_end + pad
    blocks = []
    t = lo
    while t < hi:
        ts = stream.exponential(1.0 / model.burst_rate, 256)
        ts[0] += t
        np.cumsum(ts, out=ts)
        blocks.append(ts[: np.searchsorted(ts, hi)])
        t = ts[-1]
    centers = np.concatenate(blocks)
    heights = np.full(centers.size, model.burst_amp)
    if model.burst_sign == "symmetric":
        heights[stream.uniform(centers.size) >= 0.5] *= -1.0
    first = np.maximum(((centers - pad - grid.t_start) / grid.dt).astype(int), 0)
    stop = np.minimum(((centers + pad - grid.t_start) / grid.dt).astype(int) + 1, grid.n_samples)
    times = grid.times
    mod = np.zeros(grid.n_samples)
    for tc, height, i0, i1 in zip(centers.tolist(), heights.tolist(), first.tolist(), stop.tolist()):
        dt_k = times[i0:i1] - tc
        kernel = height * np.exp(-model.burst_decay * np.abs(dt_k))
        kernel *= np.cos(model.burst_freq * dt_k)
        mod[i0:i1] += kernel
    base = model.amplitude * np.exp(1j * model.phase)
    return base * (1.0 + mod)


def generate_path(model: FieldModel, grid: TimeGrid, stream: RngStream) -> FieldPath:
    """Realize one stochastic envelope path of the given model on the grid.

    Deterministic in (model, grid, stream key). The burst model draws its
    Poisson centers from exponential gaps over a padded window so edge bursts
    are not clipped; kernels are the two-sided e^{-decay|t|} cos(freq t),
    which keeps the process statistics time-symmetric.
    """
    if model.kind == "coherent":
        env = np.full(
            grid.n_samples, model.amplitude * np.exp(1j * model.phase), dtype=complex
        )
    elif model.kind == "thermal_ou":
        env = _ou_path(model.mean_intensity, model.tau_c, grid, stream)
    else:
        env = _burst_path(model, grid, stream)
    return FieldPath(grid, env)


def split_beam(path: FieldPath) -> tuple[FieldPath, FieldPath]:
    """50/50 split: each output is input/sqrt(2); intensities sum exactly."""
    half = path.envelope / math.sqrt(2.0)
    return FieldPath(path.grid, half), FieldPath(path.grid, half.copy())


def mix_with_local_oscillator(
    signal: FieldPath, lo: LocalOscillator
) -> tuple[FieldPath, FieldPath]:
    """Superpose with the reference wave: ports (LO +/- signal)/sqrt(2).

    The quadratic port intensities are kept exactly; no weak-signal
    approximation is made here (analytic predictions may make it).
    """
    l = lo.envelope
    s = signal.envelope
    plus = l + s
    plus /= math.sqrt(2.0)
    minus = l - s
    minus /= math.sqrt(2.0)
    return FieldPath(signal.grid, plus), FieldPath(signal.grid, minus)
