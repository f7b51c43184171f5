"""Rational functions on the projective line.

Pole spectra with exact residues, the residue polynomial (resultant form),
Hermite reduction, and logarithmic-derivative membership with verified
witnesses. WitnessData is the one witness record: the searches build it,
and the report carries and re-verifies it unchanged. Conventions: a
rational function r is analyzed as the differential form r*dx; the point
at infinity is read through the chart u = 1/x, under which r*dx maps to
-r(1/u)*u^(-2) du.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebra.factor import factor_rationals
from .algebra.bipoly import BiPoly, resultant_x
from .algebra.numberfield import NFElement
from .algebra.unipoly import (
    UniPoly,
    _frac,
    poly_gcd,
    poly_xgcd,
    squarefree_decompose,
)
from .errors import WitnessVerificationError

INTEGER = "integer"
RATIONAL = "rational"

REASON_MULTIPLE_POLE = "multiple pole"
REASON_NON_CLASS_RESIDUE = "non-class residue"
REASON_IMPROPER_AT_INFINITY = "improper-at-infinity"

WITNESS_DLOG = "dlog"
WITNESS_DERIVATIVE = "derivative"


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function; denominator monic, zero is 0/1."""

    num: UniPoly
    den: UniPoly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = UniPoly.one(den.var)
        elif not (num.is_constant or den.is_constant):
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
        scale = 1 / den.lc
        object.__setattr__(self, "num", num * scale)
        object.__setattr__(self, "den", den * scale)

    # -- constructors --------------------------------------------------

    @staticmethod
    def of(num, den=1) -> "RatFunc":
        var = "x"
        if isinstance(num, UniPoly):
            var = num.var
        elif isinstance(den, UniPoly):
            var = den.var
        if not isinstance(num, UniPoly):
            num = UniPoly.constant(_frac(num), var)
        if not isinstance(den, UniPoly):
            den = UniPoly.constant(_frac(den), var)
        return RatFunc(num, den)

    @staticmethod
    def from_poly(p: UniPoly) -> "RatFunc":
        return RatFunc(p, UniPoly.one(p.var))

    @staticmethod
    def zero(var: str = "x") -> "RatFunc":
        return RatFunc(UniPoly.zero(var), UniPoly.one(var))

    @staticmethod
    def one(var: str = "x") -> "RatFunc":
        return RatFunc(UniPoly.one(var), UniPoly.one(var))

    @staticmethod
    def constant(c, var: str = "x") -> "RatFunc":
        return RatFunc(UniPoly.constant(_frac(c), var), UniPoly.one(var))

    # -- structure --------------------------------------------------------

    @property
    def var(self) -> str:
        return self.num.var if not self.num.is_zero else self.den.var

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @property
    def proper(self) -> bool:
        return self.num.degree < self.den.degree

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return self.num.coeff(0)

    # -- field operations ---------------------------------------------------

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, UniPoly):
            return RatFunc.from_poly(other)
        return RatFunc.constant(_frac(other), self.den.var)

    def __add__(self, other) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def dlog(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("logarithmic derivative of zero")
        return self.derivative() / self

    def eval(self, value) -> Fraction:
        dv = self.den.eval(_frac(value))
        if dv == 0:
            raise ZeroDivisionError(f"pole at {value}")
        return self.num.eval(_frac(value)) / dv

    def eval_complex(self, value: complex) -> complex:
        return self.num.eval_complex(value) / self.den.eval_complex(value)

    def compose_affine(self, a, b) -> "RatFunc":
        return RatFunc(self.num.compose_affine(a, b), self.den.compose_affine(a, b))

    # -- printing ----------------------------------------------------------------

    def to_string(self) -> str:
        if self.den.degree == 0:
            return self.num.to_string()
        num_s = self.num.to_string()
        den_s = self.den.to_string()
        if _needs_parens(self.num):
            num_s = f"({num_s})"
        if _needs_parens(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"RatFunc({self.to_string()!r})"


def _needs_parens(p: UniPoly) -> bool:
    nonzero = [c for c in p.coeffs if c != 0]
    if len(nonzero) != 1:
        return True
    c = nonzero[0]
    if p.degree == 0:
        return False  # plain number, possibly negative
    return not (c == 1)


@dataclass(frozen=True)
class WitnessData:
    """A witness h plus the exact identity it must satisfy against target:
    dlog(h) = scaling*target (kind dlog) or h' = target (kind derivative)."""

    kind: str            # dlog | derivative
    h: RatFunc
    scaling: int
    target: RatFunc      # the function being witnessed

    def verify(self) -> bool:
        if self.kind == WITNESS_DLOG:
            return (not self.h.is_zero) and self.h.dlog() == self.target * self.scaling
        if self.kind == WITNESS_DERIVATIVE:
            return self.h.derivative() == self.target
        return False

    def check(self) -> "WitnessData":
        """self, once verify() holds; raises WitnessVerificationError otherwise."""
        if not self.verify():
            raise WitnessVerificationError(
                f"witness failed its identity: {self.identity_string()}"
            )
        return self

    def identity_string(self) -> str:
        if self.kind == WITNESS_DLOG:
            lhs = f"{self.scaling}*({self.target})" if self.scaling != 1 else f"{self.target}"
            return f"dlog({self.h}) = {lhs}"
        return f"({self.h})' = {self.target}"


# -- pole spectra -----------------------------------------------------------------


Residue = Union[Fraction, NFElement]


@dataclass(frozen=True)
class PoleEntry:
    locus: UniPoly           # monic irreducible
    multiplicity: int
    residue: Residue         # order-1 Laurent coefficient (class per conjugate root)

    @property
    def residue_is_rational(self) -> bool:
        return isinstance(self.residue, Fraction) or self.residue.is_rational

    def residue_as_fraction(self) -> Fraction:
        if isinstance(self.residue, Fraction):
            return self.residue
        return self.residue.as_fraction()

    def trace(self) -> Fraction:
        """Sum of the residue over the conjugate roots of the locus."""
        if isinstance(self.residue, Fraction):
            return self.residue * int(self.locus.degree)
        return self.residue.trace()


@dataclass(frozen=True)
class InfinityPole:
    multiplicity: int
    residue: Fraction


@dataclass(frozen=True)
class PoleSpectrum:
    affine_poles: tuple[PoleEntry, ...]
    infinity_pole: Optional[InfinityPole]

    def has_affine_multiple(self) -> bool:
        return any(e.multiplicity >= 2 for e in self.affine_poles)

    def has_multiple_pole(self) -> bool:
        if self.has_affine_multiple():
            return True
        return self.infinity_pole is not None and self.infinity_pole.multiplicity >= 2

    def has_simple_pole(self) -> bool:
        if any(e.multiplicity == 1 for e in self.affine_poles):
            return True
        return self.infinity_pole is not None and self.infinity_pole.multiplicity == 1

    def only_simple_poles(self) -> bool:
        return not self.has_multiple_pole()

    def is_empty(self) -> bool:
        return not self.affine_poles and self.infinity_pole is None

    def residue_sum(self) -> Fraction:
        """Sum of all residues over P^1 (traces of algebraic residues)."""
        total = sum((e.trace() for e in self.affine_poles), Fraction(0))
        if self.infinity_pole is not None:
            total += self.infinity_pole.residue
        return total


def pole_spectrum(r: RatFunc, projective: bool = True) -> PoleSpectrum:
    """Pole loci with multiplicities and exact order-1 residues of r*dx.

    Residues at higher-order poles come from the Hermite remainder (the
    derivative part contributes no residue anywhere).
    """
    remainder = hermite_reduce(r).remainder if r.den.degree >= 1 else RatFunc.zero(r.var)
    return spectrum_from_remainder(r, remainder, projective)


def spectrum_from_remainder(r: RatFunc, remainder: RatFunc,
                            projective: bool = True) -> PoleSpectrum:
    """pole_spectrum(r) for a caller that already holds hermite_reduce(r).remainder."""
    affine: list[PoleEntry] = []
    if r.den.degree >= 1:
        for q, e in factor_rationals(r.den).parts:
            affine.append(PoleEntry(q, e, _residue_of_simple(remainder, q)))
    inf = _infinity_pole(r) if projective else None
    return PoleSpectrum(tuple(affine), inf)


def _residue_of_simple(rem: RatFunc, q: UniPoly) -> Residue:
    """Residue class at the roots of q for a remainder with squarefree denominator."""
    if rem.is_zero or not (rem.den % q).is_zero:
        return Fraction(0)
    bprime = rem.den.derivative()
    inv = NFElement(bprime, q).inverse()
    val = NFElement(rem.num, q) * inv
    if val.is_rational:
        return val.as_fraction()
    return val


def _infinity_pole(r: RatFunc) -> Optional[InfinityPole]:
    if r.is_zero:
        return None
    pn, pd = int(r.num.degree), int(r.den.degree)
    mult = pn - pd + 2
    if mult <= 0:
        return None
    # u^mult * s(u) = -rev(num)/rev(den), regular at u = 0
    w_num = -r.num.reverse()
    w_den = r.den.reverse()
    residue = _taylor_coeff(w_num, w_den, mult - 1)
    return InfinityPole(mult, residue)


def _taylor_coeff(num: UniPoly, den: UniPoly, k: int) -> Fraction:
    """Taylor coefficient [u^k] of num/den at u = 0, den(0) != 0."""
    d0 = den.coeff(0)
    coeffs: list[Fraction] = []
    for j in range(k + 1):
        acc = num.coeff(j)
        for i in range(1, j + 1):
            acc -= den.coeff(i) * coeffs[j - i]
        coeffs.append(acc / d0)
    return coeffs[k]


# -- Hermite reduction ----------------------------------------------------------------


@dataclass(frozen=True)
class HermiteDecomposition:
    """r = derivative(derivative_part) + remainder, exactly.

    The remainder is proper with squarefree denominator; the derivative part
    also absorbs the antiderivative of the polynomial part of r.
    """

    derivative_part: RatFunc
    remainder: RatFunc

    def reconstruct(self) -> RatFunc:
        return self.derivative_part.derivative() + self.remainder


def hermite_reduce(r: RatFunc) -> HermiteDecomposition:
    """Exact Hermite reduction by per-factor integration by parts.

    For a squarefree factor p of multiplicity e, step j = e..2 splits off
    c_j/p^(j-1); the steps are folded by Horner's rule into one numerator
    over p^(e-1), so each factor costs one rational-function addition
    (Bronstein, Symbolic Integration I, section 2.2).
    """
    var = r.var
    if r.is_zero:
        return HermiteDecomposition(RatFunc.zero(var), RatFunc.zero(var))
    polypart, n0 = divmod(r.num, r.den)
    h = RatFunc.from_poly(polypart.antiderivative())
    rem = RatFunc.zero(var)
    if r.den.degree >= 1 and not n0.is_zero:
        parts = squarefree_decompose(r.den).parts
        powers = [_powers(p, e) for p, e in parts]
        numerators = _split_partial(n0, [pw[-1] for pw in powers])
        for (p, e), pw, a in zip(parts, powers, numerators):
            _, s, t = poly_xgcd(p, p.derivative())
            terms = []
            for j in range(e, 1, -1):
                a = a % pw[j]
                b = a * t
                terms.append(b * Fraction(-1, j - 1))
                a = a * s + b.derivative() * Fraction(1, j - 1)
            if terms:
                acc = UniPoly.zero(var)
                for c in reversed(terms):   # acc = sum of c_j * p^(e-j)
                    acc = acc * p + c
                h = h + RatFunc(acc, pw[e - 1])
            rem = rem + RatFunc(a % p, p)
    # dropped polynomial quotients along the way surface here, exactly
    defect = r - h.derivative() - rem
    if defect.den.degree != 0:
        raise WitnessVerificationError("hermite reduction produced a nonpolynomial defect")
    if not defect.is_zero:
        h = h + RatFunc.from_poly(defect.num.antiderivative())
    return HermiteDecomposition(h, rem)


def _powers(p: UniPoly, e: int) -> list[UniPoly]:
    """[p**0, p**1, ..., p**e], one multiplication each."""
    powers = [UniPoly.one(p.var)]
    for _ in range(e):
        powers.append(powers[-1] * p)
    return powers


def _split_partial(a: UniPoly, moduli: list[UniPoly]) -> list[UniPoly]:
    """Partial-fraction numerators of a over pairwise-coprime moduli."""
    if len(moduli) == 1:
        return [a % moduli[0]]
    m1 = moduli[0]
    rest = UniPoly.one(m1.var)
    for m in moduli[1:]:
        rest = rest * m
    _, s, t = poly_xgcd(m1, rest)
    # a/(m1*rest) = (a*t)/m1 + (a*s)/rest
    return [(a * t) % m1] + _split_partial((a * s) % rest, moduli[1:])


def exact_derivative_part(r: RatFunc, herm: HermiteDecomposition) -> Optional[WitnessData]:
    """A verified witness h with h' = r when r is an exact derivative (no
    residues), else None; herm is hermite_reduce(r)."""
    if not herm.remainder.is_zero:
        return None
    return WitnessData(WITNESS_DERIVATIVE, herm.derivative_part, 1, r).check()


# -- residue polynomial (Rothstein-Trager form) ------------------------------------------


def residue_polynomial(r: RatFunc) -> UniPoly:
    """Monic rho(t) = Res_x(d, n - t*d') for the simple-pole part n/d of r.

    The roots of rho, with multiplicity, are the residues of r at the roots
    of d. The simple-pole part is the Hermite remainder; for a remainder of
    zero the residue polynomial is 1 (no residues).
    """
    rem = hermite_reduce(r).remainder
    if rem.is_zero:
        return UniPoly.one("t")
    d, n = rem.den, rem.num
    a = BiPoly.from_unipoly_x(d)
    b = BiPoly.from_unipoly_x(n) - BiPoly.y() * BiPoly.from_unipoly_x(d.derivative())
    rho = resultant_x(a, b, "t")
    if rho.is_zero:
        raise WitnessVerificationError("residue polynomial vanished identically")
    return rho.monic()


def ratio_all_rational(spectrum: PoleSpectrum) -> bool:
    """True iff every ratio of two nonzero affine residues is rational.

    The residues form a Galois-stable set, and an automorphism sending a
    residue r to c*r with c rational forces c = +-1. So all ratios are
    rational exactly when every residue is rational, or when every residue
    is irrational with r*r = a_i rational and each a_i/a_1 a rational square.
    """
    entries = [e for e in spectrum.affine_poles if e.residue != 0]
    if all(e.residue_is_rational for e in entries):
        return True
    squares = []
    for e in entries:
        if e.residue_is_rational:
            return False
        square = e.residue * e.residue
        if not square.is_rational:
            return False
        squares.append(square.as_fraction())
    return all(_is_rational_square(a / squares[0]) for a in squares)


def _is_rational_square(q: Fraction) -> bool:
    return (q >= 0 and math.isqrt(q.numerator) ** 2 == q.numerator
            and math.isqrt(q.denominator) ** 2 == q.denominator)


# -- dlog membership with witnesses ----------------------------------------------------


@dataclass(frozen=True)
class DlogWitnessResult:
    witness: Optional[WitnessData]
    reason: Optional[str]
    spectrum: PoleSpectrum   # the projective pole spectrum of r that was read

    @property
    def found(self) -> bool:
        return self.witness is not None


def dlog_witness(r: RatFunc, residue_class: str = INTEGER) -> DlogWitnessResult:
    """Decide N*r = dlog(h) membership on P^1 with an exact witness.

    integer class: N = 1 (exact dlog image). rational class: N = lcm of the
    residue denominators. Absence carries a reason code; presence is
    verified by recomputing dlog(h) before returning. h is the product of
    the pole loci, each to the power N times its residue.
    """
    if residue_class not in (INTEGER, RATIONAL):
        raise ValueError(f"unknown residue class {residue_class!r}")
    spectrum = pole_spectrum(r, projective=True)
    if spectrum.infinity_pole is not None and spectrum.infinity_pole.multiplicity >= 2:
        return DlogWitnessResult(None, REASON_IMPROPER_AT_INFINITY, spectrum)
    if spectrum.has_affine_multiple():
        return DlogWitnessResult(None, REASON_MULTIPLE_POLE, spectrum)
    values: list[Fraction] = []
    for entry in spectrum.affine_poles:
        if not entry.residue_is_rational:
            return DlogWitnessResult(None, REASON_NON_CLASS_RESIDUE, spectrum)
        values.append(entry.residue_as_fraction())
    if residue_class == INTEGER:
        if any(v.denominator != 1 for v in values):
            return DlogWitnessResult(None, REASON_NON_CLASS_RESIDUE, spectrum)
        scale = 1
    else:
        scale = math.lcm(*(v.denominator for v in values)) if values else 1
    num = den = UniPoly.one(r.var)
    for entry, value in zip(spectrum.affine_poles, values):
        m = int(value * scale)
        if m > 0:
            num = num * entry.locus ** m
        elif m < 0:
            den = den * entry.locus ** -m
    witness = WitnessData(WITNESS_DLOG, RatFunc(num, den), scale, r)
    return DlogWitnessResult(witness.check(), None, spectrum)
