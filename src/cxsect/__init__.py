"""cxsect: complex hyperplane sections of rotation-invariant convex bodies.

Computes section volumes in R^{2n} by two independent routes (direct
subspace quadrature and a Fourier multiplier on spherical harmonics) and
verifies the stability, separation, positivity, pairing, and Gamma
inequalities that tie sections to volumes at complex dimension 2 and 3.
"""

__version__ = "0.1.0"

from .bodies import (
    ComplexDim,
    ComplexEllipsoid,
    ComplexLqBall,
    EuclideanBall,
    PerturbedBall,
    body_from_dict,
    body_to_dict,
    complex_structure,
    norm,
    radial,
    rotate_pairs,
    validate,
)
from .config import RunConfig, default_config
from .errors import ConvexityError, InvalidInputError, NumericalEvaluationError
from .harmonics import (
    HarmonicExpansion,
    bochner_multiplier,
    ft_norm_power,
    harmonic_expand,
    invariant_harmonic_basis,
)
from .sections import (
    Direction,
    SectionReport,
    SubspaceBasis,
    direction,
    hyperplane_basis,
    inradius_normalized,
    section_volume_direct,
    section_volume_fourier,
    volume,
)
from .spherequad import (
    MCVolume,
    QuadratureRule,
    integrate_sphere,
    invariant_sphere_rule,
    mc_volume,
    sphere_area,
    sphere_rule,
)
from .theorems import (
    VerificationContext,
    corollary1_verify,
    gamma_lemma_check,
    parseval_check,
    positivity_check,
    section_gap,
    separation_verify,
    stability_verify,
)

__all__ = [
    "ComplexDim", "ComplexEllipsoid", "ComplexLqBall", "EuclideanBall",
    "PerturbedBall", "body_from_dict", "body_to_dict", "complex_structure",
    "norm", "radial", "rotate_pairs", "validate",
    "RunConfig", "default_config",
    "ConvexityError", "InvalidInputError", "NumericalEvaluationError",
    "HarmonicExpansion", "bochner_multiplier", "ft_norm_power",
    "harmonic_expand", "invariant_harmonic_basis",
    "Direction", "SectionReport", "SubspaceBasis", "direction",
    "hyperplane_basis", "inradius_normalized", "section_volume_direct",
    "section_volume_fourier", "volume",
    "MCVolume", "QuadratureRule", "integrate_sphere", "invariant_sphere_rule",
    "mc_volume", "sphere_area", "sphere_rule",
    "VerificationContext", "corollary1_verify", "gamma_lemma_check",
    "parseval_check", "positivity_check", "section_gap", "separation_verify",
    "stability_verify",
]
