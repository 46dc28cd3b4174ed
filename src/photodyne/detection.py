"""Detection interface: continuous intensity in, discrete photoelectrons out.

The point process is an inhomogeneous Poisson realization drawn by thinning,
the balanced-homodyne current is built from two real count records binned and
low-passed, and the semiclassical record couples a counting arm to a homodyne
arm of the same stochastic wave; the wave-particle correlator averages the
current around the clicks of a chain of such records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzers import CorrelationSeries, estimate_h
from .fields import FieldModel, LocalOscillator, generate_path, mix_with_local_oscillator, split_beam
from .numerics import RngStream, TimeGrid, first_order_recurrence
from .records import CountRecord, PhotocurrentRecord

__all__ = [
    "CountRecord",
    "PhotocurrentRecord",
    "NoiseWidthPrediction",
    "sample_counts",
    "bhd_difference_current",
    "predict_noise_widths",
    "semiclassical_record",
    "run_semiclassical_correlator",
]

THINNING_MARGIN = 1.1
# candidates thinned per piece: uniforms and rates of one piece at a time
THINNING_PIECE = 1 << 16
# samples per independent stationary realization in the correlator
CORRELATOR_CHUNK = 1_000_000


@dataclass(frozen=True)
class NoiseWidthPrediction:
    """Analytic RMS widths of the filtered difference current.

    shot_width is the no-signal width A_LO * sqrt(pi * bandwidth) under this
    package's one-pole filter convention (time constant 1/(2 pi B), unit DC
    gain, impulses binned at the sample spacing). signal_width is the width
    contributed by in-phase amplitude fluctuations, 2 * A_LO * sqrt(var),
    valid when the signal band sits well below the filter corner.
    """

    shot_width: float
    signal_width: float

    def __post_init__(self) -> None:
        if self.shot_width < 0 or self.signal_width < 0:
            raise ValueError("widths must be >= 0")


def _candidate_times(stream: RngStream, majorant: float, t0: float, t1: float) -> np.ndarray:
    """Homogeneous Poisson times at rate majorant inside [t0, t1): one block
    of gaps covering 1.25x the expected count, then blocks of 256, each
    summed in place on its draw buffer."""
    blocks = []
    t = t0
    block = max(64, int(majorant * (t1 - t0) * 1.25) + 64)
    while t < t1:
        ts = stream.exponential(1.0 / majorant, block)
        np.cumsum(ts, out=ts)
        ts += t
        blocks.append(ts[: np.searchsorted(ts, t1)])
        t = ts[-1]
        block = 256
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def sample_counts(
    intensity,
    grid: TimeGrid,
    stream: RngStream,
    efficiency: float = 1.0,
    dark_rate: float = 0.0,
    dead_time: float = 0.0,
) -> CountRecord:
    """Draw one inhomogeneous Poisson record at rate intensity(t) by thinning.

    Homogeneous candidates at 1.1x the sampled maximum are kept with
    probability rate(t)/majorant, the rate linearly interpolated between
    samples. The efficiency/dark/dead-time hooks default to the ideal
    detector and are applied as rate scaling, additive background, and
    post-hoc pruning respectively. A non-finite intensity sample, dark_rate
    or dead_time raises ValueError before any draw.

    Draw order on the stream: the candidates' exponential gaps (one block
    covering 1.25x the expected count, then blocks of 256 until the window
    is passed), then one uniform per candidate in time order. Memory: the
    gaps are summed in place on their draw buffer, and the candidates are
    thinned THINNING_PIECE at a time (that piece's uniforms, scaled in
    place, against its interpolated rates) into one boolean mask, so beyond
    the input the call holds the candidate times, their mask and the kept
    times, and the candidates are freed before the record is built.
    """
    rate = np.asarray(intensity, dtype=float)
    if rate.size != grid.n_samples:
        raise ValueError("intensity length does not match grid")
    peak = float(rate.max())
    if not math.isfinite(peak):
        raise ValueError("non-finite intensity sample")
    if (rate < 0).any():
        raise ValueError("negative intensity sample")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    if not (0.0 <= dark_rate < math.inf and 0.0 <= dead_time < math.inf):
        raise ValueError("dark_rate and dead_time must be finite and >= 0")
    if efficiency != 1.0 or dark_rate != 0.0:
        rate = efficiency * rate + dark_rate
    t0, t1 = grid.t_start, grid.t_end
    # rounding is monotone, so this is the scaled rate's largest sample
    majorant = THINNING_MARGIN * (efficiency * peak + dark_rate)
    if majorant <= 0.0:
        return CountRecord(np.empty(0), t0, t1)

    cand = _candidate_times(stream, majorant, t0, t1)
    knots = grid.times
    keep = np.empty(cand.size, dtype=bool)
    for i in range(0, cand.size, THINNING_PIECE):
        piece = cand[i : i + THINNING_PIECE]
        u = stream.uniform(piece.size)
        u *= majorant
        np.less(u, np.interp(piece, knots, rate), out=keep[i : i + THINNING_PIECE])
    kept = np.compress(keep, cand)  # a boolean index, at a third of its cost
    del cand, keep

    if dead_time > 0.0 and kept.size:
        times = kept.tolist()
        alive = [times[0]]
        for tk in times[1:]:
            if tk - alive[-1] >= dead_time:
                alive.append(tk)
        kept = np.asarray(alive)
    return CountRecord(kept, t0, t1)


def _binned(counts: CountRecord, grid: TimeGrid) -> np.ndarray:
    """Counts per grid bin, clipped to the grid; the record's timestamps
    become the bin indices in place."""
    idx = counts.timestamps
    idx -= grid.t_start
    idx /= grid.dt
    idx = idx.astype(int)
    np.clip(idx, 0, grid.n_samples - 1, out=idx)
    return np.bincount(idx, minlength=grid.n_samples)


def bhd_difference_current(
    port1_intensity,
    port2_intensity,
    grid: TimeGrid,
    filter_bandwidth: float,
    stream: RngStream,
) -> PhotocurrentRecord:
    """Difference photocurrent of two detectors with shot noise and filtering.

    Each port generates its own count record; impulses are binned on the grid
    (area 1 per count, so bins carry counts/dt), subtracted, and passed
    through the one-pole low-pass with corner filter_bandwidth. Port 1 drives
    the current positive. DC gain is 1, so the mean output equals the rate
    difference.

    Draw order on the stream: all of port 1's draws (sample_counts), then
    all of port 2's. Memory: each port is binned right after it is drawn and
    its timestamps are dropped, so port 1's times are gone before port 2's
    candidates exist; the impulses are scaled in place.
    """
    impulses = _binned(sample_counts(port1_intensity, grid, stream), grid).astype(float)
    impulses -= _binned(sample_counts(port2_intensity, grid, stream), grid)
    impulses /= grid.dt
    a = math.exp(-2.0 * math.pi * filter_bandwidth * grid.dt)
    impulses *= 1.0 - a
    current = first_order_recurrence(a, impulses)
    return PhotocurrentRecord(grid, current, filter_bandwidth)


def predict_noise_widths(
    lo: LocalOscillator, signal_variance: float, bandwidth: float
) -> NoiseWidthPrediction:
    """Analytic widths under the documented filter convention (see type)."""
    if signal_variance < 0 or bandwidth < 0:
        raise ValueError("variance and bandwidth must be >= 0")
    return NoiseWidthPrediction(
        shot_width=lo.amplitude * math.sqrt(math.pi * bandwidth),
        signal_width=2.0 * lo.amplitude * math.sqrt(signal_variance),
    )


def semiclassical_record(
    model: FieldModel,
    lo: LocalOscillator,
    grid: TimeGrid,
    stream: RngStream,
    bandwidth: float,
    efficiency: float = 1.0,
    dark_rate: float = 0.0,
    dead_time: float = 0.0,
) -> tuple[CountRecord, PhotocurrentRecord]:
    """One stochastic wave split 50/50: clicks on one arm, homodyne current
    on the other.

    The counting arm goes through the detector model (efficiency, dark rate,
    dead time); the other arm is mixed with the local oscillator and its two
    ports make the filtered difference current. Draw order on the stream:
    path, clicks, then the two homodyne ports.
    """
    arm_count, arm_wave = split_beam(generate_path(model, grid, stream))
    counts = sample_counts(
        arm_count.intensity(), grid, stream, efficiency, dark_rate, dead_time
    )
    port1, port2 = mix_with_local_oscillator(arm_wave, lo)
    current = bhd_difference_current(
        port1.intensity(), port2.intensity(), grid, bandwidth, stream
    )
    return counts, current


def run_semiclassical_correlator(
    model: FieldModel,
    lo: LocalOscillator,
    duration: float,
    segment_halfwidth: float,
    stream: RngStream,
    dt: float,
    bin_width: float | None = None,
):
    """Wave-particle correlator: clicks on one arm trigger current averaging
    on the other.

    Long durations are simulated as independent stationary semiclassical
    records of at most CORRELATOR_CHUNK samples each, all drawn from the one
    stream, with an ideal detector and filter bandwidth 0.1/dt. Their
    click-triggered average is estimate_h's; triggers whose segment would
    cross a chunk edge are dropped.

    Returns (CorrelationSeries with normalization='raw', counts_used): h
    scaled back by the unconditional current mean, which meta keeps.
    """
    if segment_halfwidth * 4 > duration:
        raise ValueError("duration must be much longer than the segment halfwidth")
    k = int(round(segment_halfwidth / dt))
    n_total = int(round(duration / dt))

    def chunks():
        done = 0
        while (n := min(CORRELATOR_CHUNK, n_total - done)) > 2 * k + 1:
            yield semiclassical_record(model, lo, TimeGrid(0.0, dt, n), stream, 0.1 / dt)
            done += n

    h = estimate_h(chunks(), segment_halfwidth, bin_width)
    mean = h.meta["unconditional_mean"]
    raw = CorrelationSeries(
        lags=h.lags,
        values=h.values * mean,
        stderr=h.stderr * abs(mean),
        normalization="raw",
        meta=h.meta,
    )
    return raw, h.meta["n_triggers"]
