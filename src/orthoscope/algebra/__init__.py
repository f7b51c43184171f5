"""Exact polynomial and algebraic-number arithmetic over the rationals."""

from .bipoly import BiPoly, bipoly_gcd, resultant_x
from .factor import factor_rationals
from .numberfield import NFElement
from .unipoly import (
    NEG_INF,
    SquarefreeFactorization,
    UniPoly,
    poly_gcd,
    poly_xgcd,
    squarefree_decompose,
)
