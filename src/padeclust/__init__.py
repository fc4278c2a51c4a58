"""Pade approximants of power series via Toeplitz systems, root finding for
their numerators and denominators, and quantitative checks of how the roots
cluster around circles."""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    DegenerateInput,
    DegenerateSystem,
    EndCoefficientZero,
    IndexOutOfRange,
    InsufficientCoefficients,
    InvariantViolation,
    MissingData,
    NonConvergence,
    PadeclustError,
)
from .poly import (
    Polynomial,
    RootSet,
    circle_log_average,
    evaluate,
    find_roots,
    find_roots_batch,
    jensen_rhs,
)
from .toeplitz import (
    DetResult,
    ToeplitzTriple,
    WindowStack,
    assoc_matrix,
    build_triple,
    log_abs_det,
    log_abs_dets,
)
from .pade import (
    EtBoundChain,
    EtRatio,
    PadePair,
    et_bound_chain,
    et_ratio,
    pade,
)
from .cluster import (
    ClusteringReport,
    EmpiricalMeasure,
    RadialCheck,
    annulus_mass,
    bl_lower_estimate,
    bl_upper,
    clustering_report,
    radial_two_sided_check,
    radius_R_s,
    sector_discrepancy,
    zero_counting_integral,
)
from .sampler import (
    CoefficientSample,
    DistributionSpec,
    distribution,
    sample,
    sample_block,
)
from .experiments import (
    PROTOCOLS,
    ExperimentConfig,
    RecordBlock,
    default_config,
    execute,
)
from .svgplot import render_lines, render_scatter

__all__ = [
    "__version__",
    "Polynomial",
    "RootSet",
    "circle_log_average",
    "evaluate",
    "find_roots",
    "find_roots_batch",
    "jensen_rhs",
    "PadeclustError",
    "DegenerateInput",
    "DegenerateSystem",
    "EndCoefficientZero",
    "IndexOutOfRange",
    "InsufficientCoefficients",
    "InvariantViolation",
    "MissingData",
    "NonConvergence",
    "DetResult",
    "ToeplitzTriple",
    "WindowStack",
    "assoc_matrix",
    "build_triple",
    "log_abs_det",
    "log_abs_dets",
    "EtBoundChain",
    "EtRatio",
    "PadePair",
    "et_bound_chain",
    "et_ratio",
    "pade",
    "ClusteringReport",
    "EmpiricalMeasure",
    "RadialCheck",
    "annulus_mass",
    "bl_lower_estimate",
    "bl_upper",
    "clustering_report",
    "radial_two_sided_check",
    "radius_R_s",
    "sector_discrepancy",
    "zero_counting_integral",
    "PROTOCOLS",
    "ExperimentConfig",
    "RecordBlock",
    "default_config",
    "execute",
    "render_lines",
    "render_scatter",
    "CoefficientSample",
    "DistributionSpec",
    "distribution",
    "sample",
    "sample_block",
]
