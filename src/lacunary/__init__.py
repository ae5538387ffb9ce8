"""Exact witnesses for infinite-dimensional solution spaces of linear
difference equations with sequence coefficients.

The library decides nothing it cannot certify: every positive answer is a
finite object (a kernel basis, a set of disjoint-support solutions, a
partial lacunary solution) that can be re-verified from its serialized
form, and every budget-bounded search that comes up empty says
Inconclusive rather than "no".
"""

from .engine import (
    DimensionCertificate,
    Inconclusive,
    NotASolutionOnWindow,
    PartialLacunarySolution,
    build_lacunary,
    certify_dimension,
    split_lacunary,
    verify_dimension_certificate,
    verify_kernel_basis,
    verify_partial_lacunary,
    windowed_residual_check,
)
from .linalg import (
    KernelBasis,
    VerificationFailure,
    WindowTooSmall,
    finite_support_kernel,
    free_kernel_dim,
)
from .operators import (
    FiniteSolution,
    MaskViolation,
    OperatorSpec,
    ResidueCertificate,
    coefficient_masks,
    first_residual,
    is_global_solution_finite,
    residual,
    residue_certificate,
    window_matrix,
)
from .sequences import (
    FiniteTable,
    GeometricSupport,
    Periodic,
    ResidueMask,
    ResiduePolynomial,
    Window,
    as_fraction,
    lacunarity_witness,
)

__version__ = "0.1.0"


__all__ = [
    "DimensionCertificate",
    "FiniteSolution",
    "FiniteTable",
    "GeometricSupport",
    "Inconclusive",
    "KernelBasis",
    "MaskViolation",
    "NotASolutionOnWindow",
    "OperatorSpec",
    "PartialLacunarySolution",
    "Periodic",
    "ResidueCertificate",
    "ResidueMask",
    "ResiduePolynomial",
    "VerificationFailure",
    "Window",
    "WindowTooSmall",
    "as_fraction",
    "build_lacunary",
    "certify_dimension",
    "coefficient_masks",
    "finite_support_kernel",
    "first_residual",
    "free_kernel_dim",
    "is_global_solution_finite",
    "lacunarity_witness",
    "residual",
    "residue_certificate",
    "split_lacunary",
    "verify_dimension_certificate",
    "verify_kernel_basis",
    "verify_partial_lacunary",
    "window_matrix",
    "windowed_residual_check",
]
