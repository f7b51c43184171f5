"""Rational functions on the projective line.

FractionField holds the reduction, normal form, field arithmetic and
printing of a fraction field of polynomials, written once for RatFunc
(Q(x), here) and BiRatFunc (Q(x, y), in planar); each names only its gcd.
Hermite reduction, which also reads off the pole spectrum with exact
residues, the residue polynomial (resultant form), and logarithmic-derivative
membership with verified witnesses. WitnessData is the one witness record:
the searches build it, and the report carries and re-verifies it unchanged.
Conventions: a rational function r is analyzed as the differential form
r*dx; the point at infinity is read through the chart u = 1/x, under which
r*dx maps to -r(1/u)*u^(-2) du.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra.factor import factor_rationals
from .algebra.bipoly import BiPoly, resultant_x
from .algebra.numberfield import NFElement
from .algebra.unipoly import (
    UniPoly,
    _canonical,
    _join_terms,
    _mul_pair,
    poly_gcd,
    poly_xgcd,
)
from .errors import WitnessVerificationError

INTEGER = "integer"
RATIONAL = "rational"

REASON_MULTIPLE_POLE = "multiple pole"
REASON_NON_CLASS_RESIDUE = "non-class residue"
REASON_IMPROPER_AT_INFINITY = "improper-at-infinity"

WITNESS_DLOG = "dlog"
WITNESS_DERIVATIVE = "derivative"


class FractionField:
    """An element num/den of the fraction field of a polynomial ring.

    Reduction, normal form, field arithmetic and printing live here. A
    result is built with type(self)(num, den), which __post_init__ reduces
    by a gcd, or with _coprime when the pair is coprime by construction.
    The arithmetic follows Henrici (Knuth, TAOCP vol. 2, §4.5.1): the
    operands are reduced, so a sum, product or quotient takes gcds only of
    factors from opposite sides, and none against a constant.
    The normal form stores zero as 0/1 and scales the pair so that the
    denominator's leading coefficient is 1. A subclass is a frozen
    dataclass with fields num and den, declared with repr=False so that the
    __repr__ below is kept; it supplies _gcd, the gcd of its polynomial
    ring, and _coerce, and RatFunc adds its calculus. The polynomials
    supply is_zero, is_constant, lc, exact_div and signed_terms.
    """

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self._normalize(*self._cancel(self.num, self.den))

    def _cancel(self, a, b):
        """a/g and b/g for g = gcd(a, b); no gcd runs when a or b is constant."""
        if not (a.is_constant or b.is_constant):
            g = self._gcd(a, b)
            if not g.is_constant:
                return a.exact_div(g), b.exact_div(g)
        return a, b

    def _normalize(self, num, den) -> None:
        if num.is_zero:
            den = den**0    # 1 in den's ring
        lc = den.lc
        if lc != 1:
            num, den = num * (1 / lc), den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _coprime(cls, num, den):
        """num/den for a pair with no common factor: the normal form without
        the gcd; den must be nonzero."""
        self = object.__new__(cls)
        self._normalize(num, den)
        return self

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_constant

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return self.num.constant_value() / self.den.constant_value()

    def __add__(self, other):
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not (b.is_constant or d.is_constant):
            g = self._gcd(b, d)
            if not g.is_constant:
                # b = b'g and d = d'g: the sum is t/(b'd'g) for t = ad' + cb',
                # and only a common factor of t and g can cancel
                b, d = b.exact_div(g), d.exact_div(g)
                t, g = self._cancel(a * d + c * b, g)
                return self._coprime(t, b * d * g)
        return self._coprime(a * d + c * b, b * d)

    __radd__ = __add__

    def __neg__(self):
        return self._coprime(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        a, d = self._cancel(self.num, other.den)
        c, b = self._cancel(other.num, self.den)
        return self._coprime(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        a, c = self._cancel(self.num, other.num)
        d, b = self._cancel(other.den, self.den)
        return self._coprime(a * d, b * c)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        # powers of a reduced pair, swapped or not, stay coprime
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return self._coprime(self.den ** -n, self.num ** -n)
        return self._coprime(self.num**n, self.den**n)

    def to_string(self) -> str:
        """num/den, each side in parentheses when it is a sum or a
        nonconstant term whose coefficient is not 1; the denominator also
        when it is a product of variables, since a/x*y reads (a/x)*y."""
        num = self.num.signed_terms()
        num_s = _join_terms(num)
        if self.den.is_constant:    # 1 in normal form
            return num_s
        den = self.den.signed_terms()
        den_s = _join_terms(den)
        if _compound(num):
            num_s = f"({num_s})"
        if _compound(den) or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_string()!r})"


def _compound(terms: list[tuple[Fraction, str]]) -> bool:
    return len(terms) > 1 or (terms[0][1] != "" and terms[0][0] != 1)


@dataclass(frozen=True, repr=False)
class RatFunc(FractionField):
    """Reduced rational function; denominator monic, zero is 0/1."""

    num: UniPoly
    den: UniPoly

    @staticmethod
    def _gcd(a: UniPoly, b: UniPoly) -> UniPoly:
        return poly_gcd(a, b)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_poly(p: UniPoly) -> "RatFunc":
        return RatFunc(p, UniPoly.one())

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(UniPoly.zero(), UniPoly.one())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(UniPoly.one(), UniPoly.one())

    @staticmethod
    def constant(c) -> "RatFunc":
        return RatFunc(UniPoly.constant(c), UniPoly.one())

    # -- structure --------------------------------------------------------

    @property
    def proper(self) -> bool:
        return self.num.degree < self.den.degree

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, UniPoly):
            return RatFunc.from_poly(other)
        return RatFunc.constant(other)

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



@dataclass(frozen=True)
class WitnessData:
    """A witness h plus the exact identity it must satisfy against target:
    dlog(h) = scaling*target (kind dlog) or h' = target (kind derivative)."""

    kind: str            # dlog | derivative
    h: RatFunc
    scaling: int
    target: RatFunc      # the function being witnessed

    def verify(self) -> bool:
        """The identity, cross-multiplied so that no gcd is taken: with
        h = n/d, h' = (n'd - nd')/d^2 and target = T.num/T.den, it is
        (n'd - nd')*T.den = scaling*T.num*n*d for dlog (h nonzero) and
        (n'd - nd')*T.den = T.num*d^2 for derivative."""
        n, d, target = self.h.num, self.h.den, self.target
        lhs = (n.derivative() * d - n * d.derivative()) * target.den
        if self.kind == WITNESS_DLOG:
            return (not n.is_zero) and lhs == target.num * n * d * self.scaling
        if self.kind == WITNESS_DERIVATIVE:
            return lhs == target.num * d * d
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


# not typing.Union, whose cache would keep these classes alive across reloads
Residue = Fraction | NFElement


def _residue(value: Residue) -> Residue:
    """value in the form a PoleEntry stores: a Fraction when rational."""
    if isinstance(value, NFElement) and value.is_rational:
        return value.as_fraction()
    return value


def _value_at(a: UniPoly, b: UniPoly, q: UniPoly) -> Residue:
    """a/b at the roots of the monic irreducible q, which does not divide b.

    At q = x - c it is a(c)/b(c), by evaluation; elsewhere a*b^-1 mod q,
    with one inverse. The residue of a/d at a simple pole on q is
    _value_at(a, d', q) (Bronstein, Symbolic Integration I, section 2.5).
    """
    if q.degree == 1:
        c = -q.coeff(0)
        return a.eval(c) / b.eval(c)
    return _residue(NFElement(a, q) * NFElement(b, q).inverse())


@dataclass(frozen=True)
class PoleEntry:
    locus: UniPoly           # monic irreducible
    multiplicity: int
    residue: Residue         # order-1 Laurent coefficient (class per conjugate root)

    @property
    def residue_is_rational(self) -> bool:
        return isinstance(self.residue, Fraction)

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

    def residue_sum(self) -> Fraction:
        """Sum of all residues over P^1 (traces of algebraic residues)."""
        total = sum((e.trace() for e in self.affine_poles), Fraction(0))
        if self.infinity_pole is not None:
            total += self.infinity_pole.residue
        return total


def pole_spectrum(r: RatFunc) -> PoleSpectrum:
    """Pole loci with multiplicities and exact order-1 residues of r*dx on P^1."""
    return hermite_reduce(r).spectrum


def _infinity_pole(r: RatFunc, n0: UniPoly) -> Optional[InfinityPole]:
    """The pole of r*dx at infinity, for n0 = r.num mod r.den.

    r = q + n0/den with q a polynomial and den monic, so the x^(-1)
    coefficient of r's expansion at infinity is that of n0/den, the
    x^(deg den - 1) coefficient of n0; the chart u = 1/x maps x^(-1)*dx to
    -u^(-1)*du, so the residue is minus that coefficient (Bronstein,
    Symbolic Integration I, section 2.1). The multiplicity is
    deg num - deg den + 2, the order of -r(1/u)*u^(-2) at u = 0.
    """
    if r.is_zero:
        return None
    mult = int(r.num.degree) - int(r.den.degree) + 2
    if mult <= 0:
        return None
    return InfinityPole(mult, -n0.coeff(int(r.den.degree) - 1))


# -- Hermite reduction ----------------------------------------------------------------


@dataclass(frozen=True)
class HermiteDecomposition:
    """r = derivative(derivative_part) + remainder, exactly.

    The remainder is proper with squarefree denominator; the derivative part
    also absorbs the antiderivative of the polynomial part of r. spectrum is
    the projective pole spectrum of r*dx, read off on the way.
    """

    derivative_part: RatFunc
    remainder: RatFunc
    spectrum: PoleSpectrum


def hermite_reduce(
    r: RatFunc, loci: Optional[tuple[tuple[UniPoly, int], ...]] = None
) -> HermiteDecomposition:
    """Exact Hermite reduction by per-factor integration by parts.

    loci is r.den's factorization, as (monic irreducible locus,
    multiplicity) pairs in factor order; without it, r.den is factored
    from scratch (factor_rationals). The loci, grouped by multiplicity,
    give the squarefree factors.
    For a factor p of multiplicity e, step j = e..2 splits off
    c_j/p^(j-1); the steps are folded by Horner's rule into one numerator
    over p^(e-1). What is left is a/p, and its residue at the roots of a
    locus q | p is a/p' there, read by _value_at: a(c)/p'(c) at q = x - c,
    and one inverse of p' mod q elsewhere (Bronstein, Symbolic Integration
    I, sections 2.2 and 2.5). Only the steps j = e..2 take the extended gcd
    s*p + t*p' = 1, so a squarefree part (e = 1) takes none.

    When p is a single linear locus x - c and e >= 2, the e - 1 steps are
    one Taylor shift each way (_linear_laurent): the Laurent coefficients
    alpha_k of a/(x - c)^e are read off a(u + c), the residue is
    alpha_{e-1}, and the derivative part is integrated term by term, on
    integers over one content. The steps leave the constant
    -alpha_{e-1}*H_{e-1} in h, with H_{e-1} = 1 + 1/2 + ... + 1/(e-1); the
    shift adds it too, so both give the same h. No gcd and only p^(e-1)
    (by the binomial theorem) and p^e are needed.

    The partial-fraction split over the parts p^e (_split_partial) takes
    an extended gcd only where the part it splits off is not a single
    linear locus: parts are ordered by multiplicity, so for
    (x - a)^e*(x - b) the simple locus x - b comes first and the split is
    one evaluation and one exact division, with no extended gcd at all.

    The pieces are summed as polynomials over D = prod p^(e-1) and
    P = prod p. D*P must equal r.den, which catches a wrong factorization,
    and the identity r = h' + rem is checked exactly as one polynomial
    division by D*P: with D'/D = S/P, h = H/D and rem = A/P,
    r.num - (H'*P - H*S) - A*D = q*D*P. The quotient q collects the
    polynomial parts dropped along the way and joins h as its
    antiderivative. A nonzero remainder, or D*P != r.den, raises
    WitnessVerificationError.

    Once the identity holds, h's numerator and D are coprime, so h is
    built without a gcd. r is reduced, so it has a pole of order exactly e
    at each root of a p with e >= 2; rem has simple poles at most, so
    h' = r - rem has order e there and h order e - 1, the full power of p
    in D. Hence no root of D is a root of h's numerator. The remainder
    A/P loses only the loci whose residue is zero (_lowest_terms), with
    no gcd either.
    """
    polypart, n0 = divmod(r.num, r.den)
    if loci is None:
        loci = factor_rationals(r.den).parts if r.den.degree >= 1 else ()
    groups: dict[int, list[UniPoly]] = {}
    for q, e in loci:
        groups.setdefault(e, []).append(q)
    parts = [(math.prod(qs[1:], start=qs[0]), e) for e, qs in sorted(groups.items())]
    h_num, h_den = polypart.antiderivative(), UniPoly.one()    # H/D
    rem_num, rem_den = UniPoly.zero(), UniPoly.one()        # A/P
    w = UniPoly.zero()                                         # S: D'/D = S/P
    residues: dict[UniPoly, Residue] = {}
    if loci:
        # [p^(e-1), p^e] at a linear multiple part, every power up to p^e elsewhere
        powers = [_powers(p, e, e - 1 if _is_linear_multiple(p, e) else 0) for p, e in parts]
        numerators = _split_partial(n0, [pw[-1] for pw in powers])
        for (p, e), pw, a in zip(parts, powers, numerators):
            dp = p.derivative()
            if _is_linear_multiple(p, e):
                acc, a = _linear_laurent(a, -p.coeff(0), e)
            elif e >= 2:
                _, s, t = poly_xgcd(p, dp)
                terms = []
                for j in range(e, 1, -1):
                    a = a % pw[j]
                    b = a * t
                    terms.append(b * Fraction(-1, j - 1))
                    a = a * s + b.derivative() * Fraction(1, j - 1)
                acc = UniPoly.zero()
                for c in reversed(terms):   # acc = sum of c_j * p^(e-j)
                    acc = acc * p + c
            if e >= 2:
                h_num = h_num * pw[-2] + acc * h_den
                h_den = h_den * pw[-2]
            w = w * p + dp * rem_den * (e - 1)
            a = a % p
            for q in groups[e]:
                residues[q] = _value_at(a, dp, q)
            rem_num = rem_num * p + a * rem_den
            rem_den = rem_den * p
    # dropped polynomial quotients along the way surface here, exactly
    full = h_den * rem_den
    if full != r.den:
        raise WitnessVerificationError(f"the loci of {r.den} multiply to {full}")
    defect = r.num - h_num.derivative() * rem_den + h_num * w - rem_num * h_den
    quotient, left = divmod(defect, full)
    if not left.is_zero:
        raise WitnessVerificationError("hermite reduction produced a nonpolynomial defect")
    h = RatFunc._coprime(h_num + quotient.antiderivative() * h_den, h_den)
    spectrum = PoleSpectrum(tuple(PoleEntry(q, e, residues[q]) for q, e in loci),
                            _infinity_pole(r, n0))
    rem = _lowest_terms(rem_num, rem_den, residues.items())
    return HermiteDecomposition(h, rem, spectrum)


def _lowest_terms(num: UniPoly, den: UniPoly, residues) -> RatFunc:
    """num/den in lowest terms, for den monic and squarefree, num proper,
    and residues the (locus, residue) pair at each locus of den.

    num/den has a pole at the roots of a locus exactly when its residue
    there is nonzero, so gcd(num, den) is the product of the loci with
    residue zero: it is divided out of both sides exactly, and the pair
    left is coprime, so no gcd runs. A zero num needs no division, as the
    normal form of zero is 0/1.
    """
    zeros = [q for q, value in residues if value == 0]
    if zeros and not num.is_zero:
        common = math.prod(zeros[1:], start=zeros[0])
        num, den = num.exact_div(common), den.exact_div(common)
    return RatFunc._coprime(num, den)


def _powers(p: UniPoly, e: int, start: int = 0) -> list[UniPoly]:
    """[p**start, ..., p**e], one multiplication each after the first."""
    powers = [p**start]
    for _ in range(e - start):
        powers.append(powers[-1] * p)
    return powers


def _is_linear_multiple(p: UniPoly, e: int) -> bool:
    return e >= 2 and p.degree == 1


def _linear_laurent(a: UniPoly, c: Fraction, e: int) -> tuple[UniPoly, UniPoly]:
    """For a/(x - c)^e with deg a < e: the numerator of its derivative part
    over (x - c)^(e-1), and its residue as a constant polynomial.

    With a(u + c) = sum alpha_k u^k, the derivative part is
    sum_{k <= e-2} alpha_k/(k-e+1) u^(k-e+1) - alpha_{e-1}*S/L, where
    L = lcm(1, ..., e-1) and S = sum_{j < e} L/j, so S/L is the harmonic
    number 1 + 1/2 + ... + 1/(e-1); that constant is the one the
    step-by-step reduction leaves. The residue is alpha_{e-1}. The alpha_k
    are the content of one Taylor shift times its integer coefficients A_k,
    so L times the derivative part's coefficients are the integers
    -A_k*L/(e-1-k) and -A_{e-1}*S, over that content.
    """
    shifted = a.taylor_shift(c)
    ints = shifted.prim + (0,) * (e - len(shifted.prim))
    big_l = math.lcm(*range(1, e))
    beta = [-ints[k] * (big_l // (e - 1 - k)) for k in range(e - 1)]
    beta.append(-ints[e - 1] * sum(big_l // j for j in range(1, e)))
    num, den = shifted.cnum, shifted.cden
    return (_canonical(*_mul_pair(num, den, 1, big_l), beta).taylor_shift(-c),
            _canonical(num, den, [ints[e - 1]]))


def _split_partial(a: UniPoly, moduli: list[UniPoly]) -> list[UniPoly]:
    """Partial-fraction numerators of a over pairwise-coprime moduli.

    With m1 = moduli[0] and rest the product of the others, a/(m1*rest) is
    first/m1 + second/rest. At a linear m1 = x - c this is the identity
    a = first*rest + second*(x - c): first = a(c)/rest(c) by evaluation,
    and second by one exact division. A modulus of higher degree takes the
    extended gcd s*m1 + t*rest = 1: first = a*t mod m1, second = a*s mod
    rest.
    """
    if len(moduli) == 1:
        return [a % moduli[0]]
    m1 = moduli[0]
    rest = UniPoly.one()
    for m in moduli[1:]:
        rest = rest * m
    if m1.degree == 1:
        c = -m1.coeff(0)
        first = UniPoly.constant(a.eval(c) / rest.eval(c))
        second = (a - first * rest).exact_div(m1)
    else:
        _, s, t = poly_xgcd(m1, rest)
        first, second = (a * t) % m1, (a * s) % rest
    return [first] + _split_partial(second, moduli[1:])


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
    zero the residue polynomial is 1 (no residues). rho comes back as a
    UniPoly, so it prints in x: its roots are residues, not points of the
    x-line.
    """
    rem = hermite_reduce(r).remainder
    if rem.is_zero:
        return UniPoly.one()
    d, n = rem.den, rem.num
    a = BiPoly.from_unipoly_x(d)
    b = BiPoly.from_unipoly_x(n) - BiPoly.y() * BiPoly.from_unipoly_x(d.derivative())
    rho = resultant_x(a, b)
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
    """Decide N*r = dlog(h) membership on P^1 with an exact witness, from
    the spectrum of r's Hermite reduction (see dlog_from_spectrum).
    """
    if residue_class not in (INTEGER, RATIONAL):
        raise ValueError(f"unknown residue class {residue_class!r}")
    return dlog_from_spectrum(r, hermite_reduce(r).spectrum, residue_class)


def dlog_from_spectrum(r: RatFunc, spectrum: PoleSpectrum, residue_class: str) -> DlogWitnessResult:
    """Decide N*r = dlog(h) membership given spectrum, the projective pole
    spectrum of r*dx.

    integer class: N = 1 (exact dlog image). rational class: N = lcm of the
    residue denominators. Absence carries a reason code. h is the product
    of the pole loci, each to the power N times its residue, and the
    witness is checked (WitnessData.verify, cross-multiplied) before it is
    returned, so a wrong spectrum raises WitnessVerificationError rather
    than yield a witness.
    """
    if spectrum.infinity_pole is not None and spectrum.infinity_pole.multiplicity >= 2:
        return DlogWitnessResult(None, REASON_IMPROPER_AT_INFINITY, spectrum)
    if spectrum.has_affine_multiple():
        return DlogWitnessResult(None, REASON_MULTIPLE_POLE, spectrum)
    values: list[Fraction] = []
    for entry in spectrum.affine_poles:
        if not entry.residue_is_rational:
            return DlogWitnessResult(None, REASON_NON_CLASS_RESIDUE, spectrum)
        values.append(entry.residue)
    if residue_class == INTEGER:
        if any(v.denominator != 1 for v in values):
            return DlogWitnessResult(None, REASON_NON_CLASS_RESIDUE, spectrum)
        scale = 1
    else:
        scale = math.lcm(*(v.denominator for v in values)) if values else 1
    num = den = UniPoly.one()
    for entry, value in zip(spectrum.affine_poles, values):
        m = int(value * scale)
        if m > 0:
            num = num * entry.locus ** m
        elif m < 0:
            den = den * entry.locus ** -m
    # distinct monic irreducible loci: num and den are coprime
    witness = WitnessData(WITNESS_DLOG, RatFunc._coprime(num, den), scale, r)
    return DlogWitnessResult(witness.check(), None, spectrum)
