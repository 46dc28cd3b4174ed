"""Photodetection statistics of stochastic classical waves and a driven
single-atom cavity, sharing one set of record formats and estimators so the
two descriptions can be compared click for click.
"""

__version__ = "0.1.0"

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
    load_field_path,
    mix_with_local_oscillator,
    save_field_path,
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
    "load_field_path",
    "mix_with_local_oscillator",
    "save_field_path",
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
