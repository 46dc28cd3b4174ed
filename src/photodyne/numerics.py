"""Deterministic numeric substrate shared by every engine.

Small dense complex linear algebra, an exact linear-ODE propagator (the
matrix exponential), a block-vectorized first-order recurrence, and
reproducible counter-based random streams.
All math is in dimensionless simulation units; unit relabeling happens in the
CLI layer only.
"""
from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "RngStream",
    "first_order_recurrence",
    "integrate_linear_ode",
    "single_blas_thread",
]

_TAYLOR = [1.0 / math.factorial(k) for k in range(20)]


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({ln.split()[-1] for ln in maps if "openblas" in ln})
        libs = [ctypes.CDLL(path) for path in paths if path.startswith("/")]
    except OSError:
        return None
    for lib in libs:
        for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            if hasattr(lib, name % "get") and hasattr(lib, name % "set"):
                return getattr(lib, name % "get"), getattr(lib, name % "set")
    return None


def single_blas_thread(func):
    """Run func with OpenBLAS held to one thread, then restore its count.

    The quantum engines chain many small dense products. A second BLAS
    thread gains a few percent on an idle host, but its spin-waiting worker
    stalls the chain several-fold once another process wants the core. BLAS
    splits a product by rows and columns, never along the summed index, so
    a product's bits are the same either way; a LAPACK solve's bits are
    not, so wrapping one makes them the same on every host.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        blas = _openblas_threads()
        before = blas[0]() if blas else None
        if blas:
            blas[1](1)
        try:
            return func(*args, **kwargs)
        finally:
            if blas:
                blas[1](before)

    return wrapper


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sample grid: t_start + dt * [0 .. n_samples-1]."""

    t_start: float
    dt: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)

    @property
    def t_end(self) -> float:
        """End of the covered interval, one dt past the last sample."""
        return self.t_start + self.dt * self.n_samples

    @property
    def duration(self) -> float:
        return self.dt * self.n_samples


class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys replay the identical draw sequence; distinct stream_ids are
    statistically independent, so parallel workers each own a stream and the
    ensemble result is independent of scheduling. Backed by Philox.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if seed < 0 or stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def uniform(self, n: int | None = None):
        """U(0,1) draw(s): scalar when n is None, else array of n."""
        return self._gen.random() if n is None else self._gen.random(n)

    def gaussian(self, n: int | None = None):
        """Standard normal draw(s)."""
        return (
            self._gen.standard_normal()
            if n is None
            else self._gen.standard_normal(n)
        )

    def exponential(self, mean: float, n: int | None = None):
        """Exponential draw(s) with the given mean."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return self._gen.exponential(mean) if n is None else self._gen.exponential(mean, n)


def _stream_batches(n_traj: int, batch_size: int, first_stream: int = 0) -> list[range]:
    """Stream ids first_stream .. first_stream + n_traj - 1 in contiguous
    ranges of at most batch_size. Trajectory k owns stream first_stream + k
    whatever the batching, so engine batches and worker shares replay alike."""
    if n_traj <= 0 or batch_size <= 0:
        raise ValueError("n_traj and batch_size must be positive")
    end = first_stream + n_traj
    return [range(s, min(s + batch_size, end)) for s in range(first_stream, end, batch_size)]


def first_order_recurrence(a: float, drive, y0: complex = 0.0) -> np.ndarray:
    """y[n] = a y[n-1] + drive[n] with y[-1] = y0, for 0 < a < 1.

    Block-vectorized: inside a block y[i+j] = a^j (y[i-1] + sum a^-m drive[m]),
    the block short enough that a^(-block) stays far from overflow. The output
    is complex when drive or y0 is.
    """
    drive = np.asarray(drive)
    out = np.empty(drive.size, dtype=np.result_type(drive, y0))
    block = max(1, min(8192, int(-60.0 / math.log(a))))
    prev = y0
    for i in range(0, drive.size, block):
        seg = drive[i : i + block]
        powers = a ** np.arange(1, seg.size + 1)
        out[i : i + seg.size] = powers * (prev + np.cumsum(seg / powers))
        prev = out[i + seg.size - 1]
    return out


def integrate_linear_ode(
    generator: np.ndarray,
    state: np.ndarray,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Solve d/dt psi = G psi exactly: exp(G dt n_steps) @ state.

    Parameters
    ----------
    generator : (d, d) complex matrix G.
    state : (d,) complex vector, or a (d, k) block of k column states
        advanced together (the identity gives the propagator).
    dt : step size, > 0.
    n_steps : number of steps spanned, >= 0; only the product dt * n_steps
        matters, so (dt, n) and (dt * n, 1) agree up to rounding.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)) with a Taylor polynomial: A = G dt n_steps is halved s times
    until its 1-norm is below 1, where the degree-19 series truncates below
    1e-18 of the result; the polynomial takes 7 products (Paterson-
    Stockmeyer, powers up to A^4) and is then squared s times. On this
    package's generators it agrees with scipy's expm within 2e-15 at
    1-norms up to 9. Products only, so the bits do not depend on the BLAS
    thread count.
    """
    g = np.asarray(generator, dtype=complex)
    psi = np.asarray(state, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"generator must be square, got shape {g.shape}")
    if psi.shape[0] != g.shape[0]:
        raise ValueError(
            f"dimension mismatch: generator {g.shape[0]}, state {psi.shape[0]}"
        )
    if dt <= 0 or n_steps < 0:
        raise ValueError("dt must be positive and n_steps non-negative")
    a = g * (dt * n_steps)
    squarings = max(0, math.frexp(np.abs(a).sum(axis=0).max())[1])
    a *= math.ldexp(1.0, -squarings)
    powers = [np.eye(len(a), dtype=complex), a]
    for _ in range(3):
        powers.append(powers[-1] @ a)
    a4 = powers.pop()
    blocks = [
        sum(c * p for c, p in zip(_TAYLOR[k : k + 4], powers)) for k in range(0, 20, 4)
    ]
    prop = blocks.pop()
    for block in reversed(blocks):
        prop = a4 @ prop + block
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        for _ in range(squarings):
            prop = prop @ prop
        psi = prop @ psi
    if not np.isfinite(psi).all():
        raise FloatingPointError("non-finite state from the propagator")
    return psi
