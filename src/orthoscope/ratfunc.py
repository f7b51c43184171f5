"""Rational functions on the projective line.

FractionField holds the reduction, normal form, field arithmetic and
printing of a fraction field of polynomials, written once for RatFunc
(Q(x), here) and BiRatFunc (Q(x, y), in planar); each names only its gcd.
The pole spectrum with exact residues and the Hermite remainder, read off
one checked partial-fraction split; Hermite reduction one multiplicity
class at a time, each class checked on its own (_class_part), which the
spectrum path runs at its nonlinear multiple classes and hermite_reduce at
every multiple class to build the derivative part; the residue polynomial
(resultant form); and
logarithmic-derivative membership with verified witnesses. WitnessData is
the one witness record: the searches build it, and the report carries and
re-verifies it unchanged.
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
    poly_div_mod,
    poly_gcd,
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
    ring, and _coerce. The polynomials supply is_zero, is_constant, lc,
    exact_div and signed_terms. Neither subclass differentiates:
    WitnessData.verify checks an identity on the polynomials of h.
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


def _compound(terms: list[tuple[int, int, str]]) -> bool:
    return len(terms) > 1 or (terms[0][2] != "" and terms[0][:2] != (1, 1))


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

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, UniPoly):
            return RatFunc.from_poly(other)
        return RatFunc.constant(other)


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

    At q = x - c it is a(c)/b(c), by evaluation; elsewhere a/b mod q, by
    poly_div_mod. The residue of a/d at a simple pole on q is
    _value_at(a, d', q) (Bronstein, Symbolic Integration I, section 2.5).
    """
    if q.degree == 1:
        c = -q.coeff(0)
        return a.eval(c) / b.eval(c)
    return _residue(NFElement(poly_div_mod(a, b, q), q))


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


def pole_spectrum(r: RatFunc, loci: Optional[Loci] = None) -> PoleSpectrum:
    """Pole loci with multiplicities and exact order-1 residues of r*dx on
    P^1, read off the checked partial-fraction split of r
    (spectrum_and_remainder); no derivative part is built. loci is as in
    _classes."""
    return spectrum_and_remainder(r, loci)[0]


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


# -- partial fractions and Hermite reduction ----------------------------------------


Loci = tuple[tuple[UniPoly, int], ...]


def _classes(r: RatFunc, loci: Optional[Loci]):
    """r.num = polypart*r.den + n0, the loci, and r.den's multiplicity classes.

    loci is r.den's factorization, as (monic irreducible locus,
    multiplicity) pairs in factor order; without it, r.den is factored
    from scratch (factor_rationals). A class (p, e, qs, p^e) has p the
    product of the loci qs of multiplicity e; the classes come by
    increasing e, so that the split takes the simple ones first, and for
    (x - a)^e*(x - b) it splits off x - b by evaluation and runs no Euclid.
    The moduli p^e must multiply to r.den, which catches a wrong
    factorization: WitnessVerificationError otherwise.
    """
    polypart, n0 = divmod(r.num, r.den)
    if loci is None:
        loci = factor_rationals(r.den).parts if r.den.degree >= 1 else ()
    groups: dict[int, list[UniPoly]] = {}
    for q, e in loci:
        groups.setdefault(e, []).append(q)
    classes = []
    for e, qs in sorted(groups.items()):
        p = math.prod(qs[1:], start=qs[0])
        classes.append((p, e, qs, p**e))
    full = math.prod((c[3] for c in classes), start=UniPoly.one())
    if full != r.den:
        raise WitnessVerificationError(f"the loci of {r.den} multiply to {full}")
    return polypart, n0, loci, classes


def _split_partial(a: UniPoly, moduli: list[UniPoly]) -> list[UniPoly]:
    """Partial-fraction numerators of a over pairwise-coprime moduli.

    With m1 = moduli[0] and rest the product of the others, a/(m1*rest) is
    first/m1 + second/rest: first = a/rest mod m1 by poly_div_mod (a(c)/rest(c)
    at m1 = x - c), and second = (a - first*rest)/m1 by one division, which
    must be exact; so a = first*rest + second*m1 holds at every step, and a
    step that fails raises WitnessVerificationError.
    """
    if len(moduli) <= 1:
        return [a % m for m in moduli]
    m1, rest = moduli[0], math.prod(moduli[2:], start=moduli[1])
    try:
        first = poly_div_mod(a, rest, m1)
    except ValueError as exc:
        raise WitnessVerificationError(f"the moduli {m1} and {rest} are not coprime") from exc
    second, left = divmod(a - first * rest, m1)
    if not left.is_zero:
        raise WitnessVerificationError(f"the partial-fraction step over {m1} is inexact")
    return [first] + _split_partial(second, moduli[1:])


def _simple_part(r: RatFunc, n0: UniPoly, loci: Loci, classes, simple: list[UniPoly]):
    """The spectrum of r*dx and r's Hermite remainder in lowest terms, from
    each class's simple part a/p (deg a < deg p), summed over P = prod p.

    The residue at the roots of a locus q | p is a/p' there, read by
    _value_at: a(c)/p'(c) at q = x - c, and a/p' mod q elsewhere (Bronstein,
    Symbolic Integration I, sections 2.2 and 2.5).
    """
    residues: dict[UniPoly, Residue] = {}
    num, den = UniPoly.zero(), UniPoly.one()
    for (p, _, qs, _), a in zip(classes, simple):
        dp = p.derivative()
        for q in qs:
            residues[q] = _value_at(a, dp, q)
        num = num * p + a * den
        den = den * p
    spectrum = PoleSpectrum(tuple(PoleEntry(q, e, residues[q]) for q, e in loci),
                            _infinity_pole(r, n0))
    return spectrum, _lowest_terms(num, den, residues.items())


def _class_part(a0: UniPoly, p: UniPoly, e: int, pe: UniPoly):
    """Hermite reduction of one multiplicity class: for p squarefree, e >= 2,
    pe = p^e and deg a0 < deg pe, a0/p^e = (acc/p^(e-1))' + a/p + Q with
    deg a < deg p and Q a polynomial; returns (a, acc, p^(e-1), Q).

    When p is a single linear locus x - c, the e - 1 steps are one Taylor
    shift each way (_linear_laurent): acc is integrated term by term from
    the Laurent coefficients alpha_k of a0/(x - c)^e, on integers over one
    content, and a is alpha_{e-1}, a0's coefficient of x^(e-1). The steps
    leave the constant -alpha_{e-1}*H_{e-1} in acc/p^(e-1), with
    H_{e-1} = 1 + 1/2 + ... + 1/(e-1); the shift adds it too, so both give
    the same acc. No gcd is needed, and p^(e-1) is expanded by the binomial
    theorem.

    Otherwise step j = e..2 splits off c_j/p^(j-1), and the steps are
    folded by Horner's rule into acc. Only they need s*p + t*p' = 1:
    t = 1/p' mod p by poly_div_mod and s = (1 - t*p')/p exactly (Bronstein,
    Symbolic Integration I, section 2.2). The reductions mod p^(j-1) drop
    polynomial parts, which Q collects.

    Either way the class is checked on its own, by one polynomial division:
    a0 - acc'*p + (e - 1)*acc*p' - a*p^(e-1) = Q*p^e, which is the identity
    above times p^e; a nonzero remainder raises WitnessVerificationError.
    """
    dp = p.derivative()
    if p.degree == 1:
        acc, below = _linear_laurent(a0, -p.coeff(0), e), p ** (e - 1)
        a = UniPoly.constant(a0.coeff(e - 1))
    else:
        pw = [UniPoly.one()]    # pw[k] = p^k for k < e
        for _ in range(e - 1):
            pw.append(pw[-1] * p)
        t = poly_div_mod(UniPoly.one(), dp, p)
        s = (1 - t * dp).exact_div(p)
        terms, a = [], a0
        for j in range(e, 1, -1):
            b = a * t
            terms.append(b * Fraction(-1, j - 1))
            a = (a * s + b.derivative() * Fraction(1, j - 1)) % pw[j - 1]
        acc = UniPoly.zero()
        for c in reversed(terms):   # acc = sum of c_j * p^(e-j)
            acc = acc * p + c
        below = pw[-1]
    quotient, left = divmod(a0 - acc.derivative() * p + acc * dp * (e - 1) - a * below, pe)
    if not left.is_zero:
        raise WitnessVerificationError("hermite reduction produced a nonpolynomial defect")
    return a, acc, below, quotient


def spectrum_and_remainder(r: RatFunc, loci: Optional[Loci] = None) -> tuple[PoleSpectrum, RatFunc]:
    """The projective pole spectrum of r*dx and r's Hermite remainder (the
    proper part with squarefree denominator), without the derivative part.

    Both come from the partial-fraction split of r.num mod r.den over
    r.den's multiplicity classes (_classes, _split_partial), one a/p^e per
    class p of multiplicity e, deg a < e*deg p. A simple class is its own
    simple part a/p. At a class that is one linear locus x - c with
    e >= 2, the residue is alpha_{e-1}, the coefficient of u^(e-1) in the
    Taylor shift a(u + c); as deg a < e, a Taylor shift keeps that top
    coefficient, so it is a's coefficient of x^(e-1) and no shift is made.
    The class adds alpha_{e-1}/(x - c) to the remainder. A class whose part
    is nonlinear with e >= 2 takes Hermite's steps and its own identity
    check (_class_part), of which only the simple part is kept. loci is as
    in _classes.

    What is returned is proven by the split: the moduli multiply to r.den,
    and every step is an exact division, so n0/r.den is the sum of the
    a/p^e; a failure raises WitnessVerificationError.
    """
    _, n0, loci, classes = _classes(r, loci)
    numerators = _split_partial(n0, [c[3] for c in classes])
    simple = [a if e == 1 else UniPoly.constant(a.coeff(e - 1)) if p.degree == 1
              else _class_part(a, p, e, pe)[0]
              for (p, e, _, pe), a in zip(classes, numerators)]
    return _simple_part(r, n0, loci, classes, simple)


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


def hermite_reduce(r: RatFunc, loci: Optional[Loci] = None) -> HermiteDecomposition:
    """Exact Hermite reduction, one multiplicity class at a time; its job
    is the derivative part h, which only a derivative witness needs
    (spectrum_and_remainder gives the rest without it).

    loci is as in _classes, whose multiplicity classes give the squarefree
    factors, and the split is spectrum_and_remainder's. Each class p^e with
    e >= 2 is reduced and checked by _class_part, to acc/p^(e-1) + a/p plus
    a polynomial Q; a simple class is its own a/p. With polypart the
    polynomial part of r,
    h = sum of acc/p^(e-1) + antiderivative(polypart + sum of Q), and the
    remainder is the sum of the a/p, whose residues _simple_part reads. The
    split proves n0 = sum of a0*(r.den/p^e), so the class identities add
    up to r = h' + rem.

    Once the identity holds, h's numerator and D = prod p^(e-1) are
    coprime, so h is built without a gcd. r is reduced, so it has a pole of
    order exactly e at each root of a p with e >= 2; rem has simple poles
    at most, so h' = r - rem has order e there and h order e - 1, the full
    power of p in D. Hence no root of D is a root of h's numerator. The
    remainder loses only the loci whose residue is zero (_lowest_terms),
    with no gcd either.
    """
    polypart, n0, loci, classes = _classes(r, loci)
    numerators = _split_partial(n0, [c[3] for c in classes])
    h_num, h_den = UniPoly.zero(), UniPoly.one()    # sum of acc/p^(e-1), over D
    dropped = polypart
    simple = []
    for (p, e, _, pe), a in zip(classes, numerators):
        if e >= 2:
            a, acc, below, quotient = _class_part(a, p, e, pe)
            h_num = h_num * below + acc * h_den
            h_den = h_den * below
            dropped = dropped + quotient
        simple.append(a)
    spectrum, rem = _simple_part(r, n0, loci, classes, simple)
    h = RatFunc._coprime(h_num + dropped.antiderivative() * h_den, h_den)
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


def _linear_laurent(a: UniPoly, c: Fraction, e: int) -> UniPoly:
    """For a/(x - c)^e with deg a < e: the numerator of its derivative part
    over (x - c)^(e-1).

    With a(u + c) = sum alpha_k u^k, the derivative part is
    sum_{k <= e-2} alpha_k/(k-e+1) u^(k-e+1) - alpha_{e-1}*S/L, where
    L = lcm(1, ..., e-1) and S = sum_{j < e} L/j, so S/L is the harmonic
    number 1 + 1/2 + ... + 1/(e-1); that constant is the one the
    step-by-step reduction leaves. The alpha_k are the content of one
    Taylor shift times its integer coefficients A_k, so L times the
    derivative part's coefficients are the integers -A_k*L/(e-1-k) and
    -A_{e-1}*S, over that content.
    """
    shifted = a.taylor_shift(c)
    ints = shifted.prim + (0,) * (e - len(shifted.prim))
    big_l = math.lcm(*range(1, e))
    beta = [-ints[k] * (big_l // (e - 1 - k)) for k in range(e - 1)]
    beta.append(-ints[e - 1] * sum(big_l // j for j in range(1, e)))
    return _canonical(*_mul_pair(shifted.cnum, shifted.cden, 1, big_l), beta).taylor_shift(-c)


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
    rem = spectrum_and_remainder(r)[1]
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


def dlog_witness(r: RatFunc, residue_class: str = INTEGER,
                 loci: Optional[Loci] = None) -> DlogWitnessResult:
    """Decide N*r = dlog(h) membership on P^1 with an exact witness, from
    r's pole spectrum (see dlog_from_spectrum); loci is as in _classes.
    """
    if residue_class not in (INTEGER, RATIONAL):
        raise ValueError(f"unknown residue class {residue_class!r}")
    return dlog_from_spectrum(r, pole_spectrum(r, loci), residue_class)


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
