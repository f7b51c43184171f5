"""Polynomial planar vector fields.

BiRatFunc, the function field Q(x, y): a FractionField from ratfunc reduced
by the bivariate gcd, with partial derivatives and the restriction to y = 0
into RatFunc. Invariant-line detection along y = 0, first-order
linearization along that line, Lie brackets, the system derivation and its
logarithmic derivative, rank-one foliation linearization, and the
invariant-line lifting classifier, which runs the log-family classifier on
the linearization.

Bracket sign convention: [v, w] = (v.grad)w - (w.grad)v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra.bipoly import BiPoly, bipoly_gcd
from .algebra.unipoly import UniPoly, _frac
from .criteria import (
    CONCLUSION_INCONCLUSIVE_FOR_LIFT,
    CONCLUSION_NONORTHOGONAL,
    SystemVerdict,
    classify_log_family,
)
from .errors import HypothesisError
from .ratfunc import FractionField, RatFunc


@dataclass(frozen=True, repr=False, eq=False)
class BiRatFunc(FractionField):
    """Reduced bivariate rational function, by FractionField's normal form
    with the bivariate gcd: the denominator's lex-leading coefficient is 1.

    Equality testing is by cross-multiplication, which is exact regardless
    of representation. Declared with eq=False so that its own __eq__ is
    kept and the class is unhashable: BiPoly holds a dict.
    """

    num: BiPoly
    den: BiPoly

    @staticmethod
    def _gcd(a: BiPoly, b: BiPoly) -> BiPoly:
        return bipoly_gcd(a, b)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def of(num, den=1) -> "BiRatFunc":
        return BiRatFunc(_as_bipoly(num), _as_bipoly(den))

    @staticmethod
    def from_poly(p) -> "BiRatFunc":
        return BiRatFunc(_as_bipoly(p), BiPoly.one())

    @staticmethod
    def zero() -> "BiRatFunc":
        return BiRatFunc(BiPoly.zero(), BiPoly.one())

    @staticmethod
    def one() -> "BiRatFunc":
        return BiRatFunc(BiPoly.one(), BiPoly.one())

    def _coerce(self, other) -> "BiRatFunc":
        if isinstance(other, BiRatFunc):
            return other
        return BiRatFunc.from_poly(_as_bipoly(other))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (BiRatFunc, BiPoly, UniPoly, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return self.num * other.den == other.num * self.den

    # -- calculus and restriction -----------------------------------------

    def partial(self, variable: str) -> "BiRatFunc":
        dn = self.num.partial(variable) * self.den - self.num * self.den.partial(variable)
        return BiRatFunc(dn, self.den * self.den)

    def restrict_y0(self) -> RatFunc:
        """Restriction to the line y = 0, as a univariate rational function."""
        den0 = self.den.subst_y(0)
        if den0.is_zero:
            raise ZeroDivisionError("denominator vanishes identically on y = 0")
        return RatFunc(self.num.subst_y(0), den0)


def _as_bipoly(v) -> BiPoly:
    if isinstance(v, BiPoly):
        return v
    if isinstance(v, UniPoly):
        return BiPoly.from_unipoly_x(v)
    return BiPoly.constant(_frac(v))


# -- vector fields --------------------------------------------------------------


@dataclass(frozen=True)
class PlanarVectorField:
    """v = fx * d/dx + fy * d/dy with polynomial components."""

    fx: BiPoly
    fy: BiPoly

    def is_zero(self) -> bool:
        return self.fx.is_zero and self.fy.is_zero

    def apply(self, h: BiPoly) -> BiPoly:
        """Directional derivative of a polynomial along the field."""
        return self.fx * h.partial("x") + self.fy * h.partial("y")

    def to_string(self) -> str:
        return f"x' = {self.fx}; y' = {self.fy}"

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class LinearizedSystem:
    base_f0: UniPoly    # f(x, 0)
    fiber_hZ: UniPoly   # g1(x, 0)


# -- operations ---------------------------------------------------------------------


def lie_bracket(v: PlanarVectorField, w: PlanarVectorField) -> PlanarVectorField:
    """[v, w] = (v.grad)w - (w.grad)v, componentwise."""
    bx = v.apply(w.fx) - w.apply(v.fx)
    by = v.apply(w.fy) - w.apply(v.fy)
    return PlanarVectorField(bx, by)


def invariant_line(v: PlanarVectorField) -> Optional[BiPoly]:
    """The cofactor g1 with fy = y*g1 when the line y = 0 is invariant,
    that is when y divides the y-component; None when it is not."""
    try:
        return v.fy.div_exact_y()
    except ValueError:
        return None


def linearize_along_line(v: PlanarVectorField) -> LinearizedSystem:
    """First-order linearization along the invariant line y = 0.

    Requires the line to be invariant and f(x, 0) nonzero; the result is
    the system x' = f(x, 0), y' = y * g1(x, 0).
    """
    cofactor = invariant_line(v)
    if cofactor is None:
        raise HypothesisError("the line y = 0 is not invariant under the field")
    return linearization(v, cofactor)


def linearization(v: PlanarVectorField, cofactor: BiPoly) -> LinearizedSystem:
    """The system x' = f(x, 0), y' = y * g1(x, 0), where the cofactor g1 is
    invariant_line(v) and not None; f(x, 0) must be nonzero."""
    base = v.fx.subst_y(0)
    if base.is_zero:
        raise HypothesisError("f(x, 0) is identically zero; the base degenerates")
    return LinearizedSystem(base, cofactor.subst_y(0))


def system_derivative(v: PlanarVectorField, h: BiRatFunc) -> BiRatFunc:
    """The derivation with delta(x) = fx, delta(y) = fy, extended to fractions."""
    dn = v.apply(h.num)
    dd = v.apply(h.den)
    return BiRatFunc(dn * h.den - h.num * dd, h.den * h.den)


def system_dlog(v: PlanarVectorField, h: BiRatFunc) -> BiRatFunc:
    """delta(h)/h for the system derivation."""
    if h.is_zero:
        raise HypothesisError("logarithmic derivative of zero")
    return system_derivative(v, h) / h


def foliation_linearize(v: PlanarVectorField, w: PlanarVectorField) -> BiRatFunc:
    """The cofactor c with [w, v] = c*w, exactly; fails if the bracket is
    not proportional."""
    if w.is_zero():
        raise ValueError("the foliation direction w must be nonzero")
    br = lie_bracket(w, v)
    cross = br.fx * w.fy - br.fy * w.fx
    if not cross.is_zero:
        raise HypothesisError("[w, v] is not proportional to w")
    if not w.fx.is_zero:
        c = BiRatFunc(br.fx, w.fx)
    else:
        c = BiRatFunc(br.fy, w.fy)
    if not (c * BiRatFunc.from_poly(w.fx) == BiRatFunc.from_poly(br.fx)
            and c * BiRatFunc.from_poly(w.fy) == BiRatFunc.from_poly(br.fy)):
        raise HypothesisError("[w, v] is not a rational multiple of w")
    return c


@dataclass(frozen=True)
class LiftVerdict(SystemVerdict):
    """A SystemVerdict together with the linearization it was decided on."""

    linearization: LinearizedSystem


def classify_invariant_line_lift(v: PlanarVectorField) -> LiftVerdict:
    """Lifting classifier along the invariant line y = 0.

    Pipeline: invariant line, linearization, then the log-family classifier
    on x' = f(x,0), y' = y*g1(x,0). A verdict of orthogonal-to-constants is
    asserted only when the base is orthogonal and the search finds no beta;
    a found beta leaves the total space undecided, so the linearization's
    nonorthogonal verdict becomes inconclusive-for-lift, with no kind.
    """
    lin = linearize_along_line(v)
    sv = classify_log_family(RatFunc.from_poly(lin.base_f0), RatFunc.from_poly(lin.fiber_hZ))
    conclusion = sv.conclusion
    if conclusion == CONCLUSION_NONORTHOGONAL:
        conclusion = CONCLUSION_INCONCLUSIVE_FOR_LIFT
    return LiftVerdict(sv.base, sv.fibration, conclusion, None, lin)
