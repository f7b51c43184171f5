"""orthoscope: exact orthogonality and internality criteria for planar
algebraic differential systems, with verified witnesses."""

from .algebra.bipoly import BiPoly, bipoly_gcd, resultant_x
from .algebra.factor import factor_rationals, rational_roots
from .algebra.numberfield import NFElement
from .algebra.unipoly import (
    NEG_INF,
    SquarefreeFactorization,
    UniPoly,
    poly_gcd,
    poly_xgcd,
    squarefree_decompose,
)
from .criteria import (
    BetaSearchResult,
    OrthogonalityVerdict,
    SystemVerdict,
    base_orthogonal,
    beta_search_derivative,
    beta_search_log,
    classify_derivative_family,
    classify_log_family,
)
from .errors import (
    HypothesisError,
    OrthoscopeError,
    ParseError,
    ShapeError,
    WitnessVerificationError,
)
from .parsing import SystemSource, parse_expression, parse_system, parse_univariate
from .planar import (
    BiRatFunc,
    FoliationLinearization,
    InvariantLineReport,
    LinearizedSystem,
    PlanarVectorField,
    classify_invariant_line_lift,
    foliation_linearize,
    invariant_line,
    lie_bracket,
    linearize_along_line,
    system_derivative,
    system_dlog,
    verify_gauge_identity,
)
from .ratfunc import (
    INTEGER,
    RATIONAL,
    DlogWitnessResult,
    HermiteDecomposition,
    PoleSpectrum,
    RatFunc,
    dlog_witness,
    hermite_reduce,
    pole_spectrum,
    ratio_all_rational,
    residue_polynomial,
)
from .report import Report, WitnessData, emit

__version__ = "0.1.0"
