"""Factorization statistics of polynomial specializations over finite
fields, restricted to structured subsets, with Fourier-analytic
irregularity as the error scale."""

__version__ = "0.1.0"

from .field import FieldCtx, is_prime
from .mpoly import (
    AdmissibilityReport,
    MultiPoly,
    SpecializationOutcome,
    admissibility,
    classify_points,
    classify_specialization,
    parse,
)
from .sets import (
    APSpec,
    ExplicitSet,
    FullSpace,
    GridProduct,
    IrregularityReport,
    TraceZero,
    interval_irreg_bound,
    irregularity,
    parse_set,
    verify_plancherel_decomposition,
)
from .stats import (
    ClassDistribution,
    ComparisonReport,
    GroupSpec,
    compare,
    empirical_distribution,
    gamma_symmetric,
    prediction_from_group,
    restricted_charsum,
    weil_sweep,
)
from .unipoly import (
    UniPoly,
    discriminant,
    factorization_type,
    is_irreducible,
    is_morse,
    is_squarefree,
)

__all__ = [
    "__version__",
    "AdmissibilityReport",
    "APSpec",
    "ClassDistribution",
    "ComparisonReport",
    "ExplicitSet",
    "FieldCtx",
    "FullSpace",
    "GridProduct",
    "GroupSpec",
    "IrregularityReport",
    "MultiPoly",
    "SpecializationOutcome",
    "TraceZero",
    "UniPoly",
    "admissibility",
    "classify_points",
    "classify_specialization",
    "compare",
    "discriminant",
    "empirical_distribution",
    "factorization_type",
    "gamma_symmetric",
    "interval_irreg_bound",
    "irregularity",
    "is_irreducible",
    "is_morse",
    "is_prime",
    "is_squarefree",
    "parse",
    "parse_set",
    "prediction_from_group",
    "restricted_charsum",
    "verify_plancherel_decomposition",
    "weil_sweep",
]
