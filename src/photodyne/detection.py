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
    post-hoc pruning respectively.
    """
    rate = np.asarray(intensity, dtype=float)
    if rate.size != grid.n_samples:
        raise ValueError("intensity length does not match grid")
    if (rate < 0).any():
        raise ValueError("negative intensity sample")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    rate = efficiency * rate + dark_rate
    t0, t1 = grid.t_start, grid.t_end
    majorant = THINNING_MARGIN * float(rate.max()) if rate.size else 0.0
    if majorant <= 0.0:
        return CountRecord(np.empty(0), t0, t1)

    blocks = []
    t = t0
    block = max(64, int(majorant * (t1 - t0) * 1.25) + 64)
    while t < t1:
        gaps = stream.exponential(1.0 / majorant, block)
        ts = t + np.cumsum(gaps)
        blocks.append(ts[ts < t1])
        t = ts[-1]
        block = 256
    cand = np.concatenate(blocks) if blocks else np.empty(0)
    if cand.size == 0:
        return CountRecord(np.empty(0), t0, t1)
    u = stream.uniform(cand.size)
    local = np.interp(cand, grid.times, rate)
    kept = cand[u * majorant < local]

    if dead_time > 0.0 and kept.size:
        alive = [kept[0]]
        for tk in kept[1:]:
            if tk - alive[-1] >= dead_time:
                alive.append(tk)
        kept = np.asarray(alive)
    return CountRecord(kept, t0, t1)


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
    """
    c1 = sample_counts(port1_intensity, grid, stream)
    c2 = sample_counts(port2_intensity, grid, stream)
    n = grid.n_samples
    idx1 = np.clip(((c1.timestamps - grid.t_start) / grid.dt).astype(int), 0, n - 1)
    idx2 = np.clip(((c2.timestamps - grid.t_start) / grid.dt).astype(int), 0, n - 1)
    impulses = (
        np.bincount(idx1, minlength=n).astype(float)
        - np.bincount(idx2, minlength=n)
    ) / grid.dt
    a = math.exp(-2.0 * math.pi * filter_bandwidth * grid.dt)
    current = first_order_recurrence(a, (1.0 - a) * impulses)
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
