"""Fast shape, amplitude and magnitude outlier detection for functional data.

The univariate pipeline compares every curve against a pointwise reference
curve, producing three interpretable outlyingness indices (shape, amplitude,
magnitude) that boxplot-style cutoffs turn into per-type outlier flags.
Multivariate curves are handled marginally, by stringing components together,
or by letting random one-dimensional projections vote.

The package exports what a user calls or constructs; return types, constants
and helpers are imported from their modules (``fmuod.multivariate`` and so on).
"""
from ._version import __version__
from .benchmark import (
    MethodConfig,
    estimate_null_baselines,
    run_benchmark,
    run_method,
    threshold_sweep,
)
from .cutoffs import classify_outliers
from .datasets import FunctionalDataset, MultivariateFunctionalDataset
from .errors import (
    DegenerateReference,
    FmuodError,
    InsufficientData,
    InvalidConfig,
    InvalidCurve,
    InvalidDirection,
    ParseError,
)
from .indices import compute_index_table, reference_from_sample
from .multivariate import (
    Baselines,
    ThresholdTriple,
    collect_votes,
    detect_marginal,
    detect_projection,
    detect_stringed,
    generate_directions,
    select_thresholds,
)
from .simulation import SimulationSpec, generate

__all__ = [
    "__version__",
    "Baselines",
    "DegenerateReference",
    "FmuodError",
    "FunctionalDataset",
    "InsufficientData",
    "InvalidConfig",
    "InvalidCurve",
    "InvalidDirection",
    "MethodConfig",
    "MultivariateFunctionalDataset",
    "ParseError",
    "SimulationSpec",
    "ThresholdTriple",
    "classify_outliers",
    "collect_votes",
    "compute_index_table",
    "detect_marginal",
    "detect_projection",
    "detect_stringed",
    "estimate_null_baselines",
    "generate",
    "generate_directions",
    "reference_from_sample",
    "run_benchmark",
    "run_method",
    "select_thresholds",
    "threshold_sweep",
]
