"""Photodetection statistics of stochastic classical waves and a driven
single-atom cavity, sharing one set of record formats and estimators so the
two descriptions can be compared click for click.

The package runs on one BLAS thread (numerics.single_blas_thread). When
`import photodyne` is what loads numpy, as in the CLI and its worker pool,
OpenBLAS starts with one thread, unless one of _BLAS_THREAD_VARIABLES is
set, which then wins. A process that loaded numpy first keeps its count.
"""
import os as _os
import sys as _sys

__version__ = "0.1.0"

# OpenBLAS takes its thread count from the first of these that is set, once,
# when numpy loads it
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in _sys.modules and not any(name in _os.environ for name in _BLAS_THREAD_VARIABLES):
    # set for the load only, so that no child process inherits it
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .analyzers import (
    AuditCheck,
    AuditReport,
    CorrelationSeries,
    SqueezingSpectrum,
    audit_classical_bounds,
    dominant_oscillation_frequency,
    estimate_g2,
    estimate_h,
    squeezing_spectrum,
)
from .blackbody import (
    EnergyMoments,
    moments_continuous,
    moments_discrete,
    sample_energy,
    sample_report,
)
from .config import ExperimentConfig, RunManifest
from .detection import (
    NoiseWidthPrediction,
    bhd_difference_current,
    predict_noise_widths,
    run_semiclassical_correlator,
    sample_counts,
    semiclassical_record,
)
from .fields import (
    FieldModel,
    FieldPath,
    LocalOscillator,
    generate_path,
    mix_with_local_oscillator,
    split_beam,
)
from .numerics import RngStream, TimeGrid
from .quantum import (
    DEFAULTS,
    System,
    SystemParams,
    TrajectoryRecord,
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
from .records import (
    CountRecord,
    PhotocurrentRecord,
    load_count_record,
    load_photocurrent,
    save_count_record,
    save_photocurrent,
)

__all__ = [
    "__version__",
    "AuditCheck",
    "AuditReport",
    "CorrelationSeries",
    "SqueezingSpectrum",
    "audit_classical_bounds",
    "dominant_oscillation_frequency",
    "estimate_g2",
    "estimate_h",
    "squeezing_spectrum",
    "EnergyMoments",
    "moments_continuous",
    "moments_discrete",
    "sample_energy",
    "sample_report",
    "ExperimentConfig",
    "RunManifest",
    "NoiseWidthPrediction",
    "bhd_difference_current",
    "predict_noise_widths",
    "run_semiclassical_correlator",
    "sample_counts",
    "semiclassical_record",
    "FieldModel",
    "FieldPath",
    "LocalOscillator",
    "generate_path",
    "mix_with_local_oscillator",
    "split_beam",
    "RngStream",
    "TimeGrid",
    "DEFAULTS",
    "System",
    "SystemParams",
    "TrajectoryRecord",
    "build_system",
    "ensemble_number_expectation",
    "evolve_master",
    "expectation",
    "g2_regression",
    "h_regression",
    "liouvillian",
    "steady_state",
    "unravel_ensemble",
    "CountRecord",
    "PhotocurrentRecord",
    "load_count_record",
    "load_photocurrent",
    "save_count_record",
    "save_photocurrent",
]
