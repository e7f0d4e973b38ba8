"""Spectral calculus for normal operators in indefinite inner product spaces.

The package computes definiteness-type classifications of eigenvalues,
Riesz projections by two independent routes, local spectral functions on
carriers of two-sided positive type, resolvent bounds and strong
stability decompositions, and ships seeded generators plus a CLI harness
for property-based verification at desk scale.
"""

from ._errors import (
    AmbiguousRegionError,
    ArgumentError,
    CheckFailure,
    ContourThroughSpectrumError,
    DocumentError,
    KreinError,
    NonNormalError,
    PreconditionError,
    SpectralOverlapError,
)
from .classification import (
    SpectralPoint,
    SpectralType,
    classified_spectrum,
    classify_point,
    root_subspace,
    selfadjoint_product,
    spectrum,
    verify_selfadjoint_link,
)
from .core import (
    DefinitenessKind,
    DefinitenessVerdict,
    KreinOperator,
    KreinSpace,
    SubspaceBasis,
    ToleranceConfig,
    definiteness,
    is_normal,
    krein_adjoint,
    max_principal_angle,
)
from .documents import OperatorDocument, parse_operator_document
from .generators import (
    GeneratedOperator,
    GeneratorSpec,
    build_normal_with_types,
    perturb_structured,
    random_j_unitary,
    sample_generator_spec,
)
from .numerics import (
    OrderedDecomposition,
    contour_integral_resolvent,
    ordered_spectral_decomposition,
    solve_sylvester,
    solve_sylvester_dense,
    spectral_projector,
)
from .projections import (
    ContourProjection,
    LocalSpectralFunction,
    SpectralProjectionResult,
    local_spectral_function,
    pole_order,
    projection_defect,
    resolvent_probe,
    riesz_projection_contour,
    riesz_projection_oracle,
    strong_stability_check,
    verify_lsf_axioms,
    verify_maximality,
    verify_spectral_set_theorem,
)
from .regions import Disk, Rectangle, Region
from .report import CheckEntry, CheckStatus, VerificationReport
from .suite import run_suite

__version__ = "0.1.0"
