"""Exact univariate polynomials over the rationals, in the variable x.

A UniPoly is a polynomial in x, the coordinate of the base line, and
prints in x; there is no variable to choose. (The few polynomials in
another variable, such as the residue polynomial, are stored the same way,
and the functions that return them say so.) A polynomial is stored as a
rational content, held as a reduced pair of ints cnum/cden, times a
primitive integer polynomial with a positive leading coefficient. That form
is canonical, so equality and hashing are exact. Every ring operation runs
on Python ints: products, quotients and gcds on the primitive parts, and
the contents as int pairs with cross-cancelled gcds (Knuth, TAOCP vol. 2,
§4.5.1). A Fraction is formed only where a coefficient is read. Every
operation is pure and exact. The degree of the zero polynomial is the
distinguished value ``NEG_INF`` so that degree comparisons are total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

NEG_INF = float("-inf")

_ZERO = Fraction(0)


def _pair(v) -> tuple[int, int]:
    """The numerator and positive denominator of an exact rational scalar
    (an int, a Fraction or a decimal or fraction string), in lowest terms;
    an int or a Fraction is read without forming one."""
    if not isinstance(v, (int, Fraction)):
        if not isinstance(v, str):
            raise TypeError(f"not an exact rational scalar: {v!r}")
        v = Fraction(v)
    return v.numerator, v.denominator


def _mul_pair(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a/b) * (c/d) in lowest terms, for pairs in lowest terms with b, d > 0.

    Cancelling gcd(a, d) and gcd(c, b) is enough, as a/b and c/d are
    already reduced (Knuth, TAOCP vol. 2, §4.5.1)."""
    g1 = math.gcd(a, d)
    g2 = math.gcd(c, b)
    return (a // g1) * (c // g2), (b // g2) * (d // g1)


def _div_pair(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a/b) / (c/d) in lowest terms, for pairs as in _mul_pair and c != 0."""
    return _mul_pair(a, b, d, c) if c > 0 else _mul_pair(a, b, -d, -c)


@dataclass(frozen=True)
class UniPoly:
    """Dense polynomial ``cnum/cden * sum(prim[k] * x**k)``.

    Canonical form: ``prim`` is a tuple of ints with gcd 1 and a positive
    last entry, and the content cnum/cden is a nonzero pair of ints in
    lowest terms with ``cden > 0``; the zero polynomial has ``cnum == 0``,
    ``cden == 1`` and ``prim == ()``. Build from rational coefficients with
    `UniPoly.of`; ``coeffs[k]`` multiplies ``x ** k``.
    """

    cnum: int
    cden: int
    prim: tuple[int, ...]

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(values: Iterable) -> "UniPoly":
        pairs = [_pair(v) for v in values]
        den = math.lcm(*(d for _, d in pairs))
        return _canonical(1, den, [n * (den // d) for n, d in pairs])

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(0, 1, ())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly(1, 1, (1,))

    @staticmethod
    def constant(c) -> "UniPoly":
        n, d = _pair(c)
        return UniPoly(n, d, (1,)) if n else UniPoly.zero()

    @staticmethod
    def variable() -> "UniPoly":
        return UniPoly(1, 1, (0, 1))

    # -- structure ----------------------------------------------------

    @property
    def content(self) -> Fraction:
        """The rational content cnum/cden, formed on each read."""
        return Fraction(self.cnum, self.cden)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients, lowest degree first, no trailing zeros."""
        n, d = self.cnum, self.cden
        return tuple(Fraction(n * v, d) for v in self.prim)

    @property
    def degree(self):
        return len(self.prim) - 1 if self.prim else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.prim

    @property
    def is_constant(self) -> bool:
        return len(self.prim) <= 1

    @property
    def lc(self) -> Fraction:
        if not self.prim:
            return _ZERO
        return Fraction(self.cnum * self.prim[-1], self.cden)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.prim):
            return Fraction(self.cnum * self.prim[k], self.cden)
        return _ZERO

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeff(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if not other.prim:
            return self
        if not self.prim:
            return other
        # over the common denominator den, self + other = (fa*A + fb*B) / den
        den = math.lcm(self.cden, other.cden)
        fa = self.cnum * (den // self.cden)
        fb = other.cnum * (den // other.cden)
        out = [fa * v for v in self.prim]
        rest = [fb * v for v in other.prim]
        if len(out) < len(rest):
            out, rest = rest, out
        for k, v in enumerate(rest):
            out[k] += v
        return _canonical(1, den, out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(-self.cnum, self.cden, self.prim)

    def __sub__(self, other) -> "UniPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "UniPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return UniPoly.zero()
            return UniPoly(*_mul_pair(self.cnum, self.cden, other.numerator, other.denominator),
                           self.prim)
        other = self._coerce(other)
        a, b = self.prim, other.prim
        if not a or not b:
            return UniPoly.zero()
        # Gauss's lemma: a product of primitive polynomials is primitive; a
        # nonzero constant's primitive part is (1,), so a product by one
        # multiplies the contents alone
        prim = b if a == (1,) else a if b == (1,) else tuple(_conv(a, b))
        return UniPoly(*_mul_pair(self.cnum, self.cden, other.cnum, other.cden), prim)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        """self**n; a two-term base by the binomial theorem, any other by
        repeated squaring."""
        terms = [(k, v) for k, v in enumerate(self.prim) if v]
        if len(terms) == 2 and n >= 0:
            return self._binomial_power(terms, n)
        return _power(self, n, UniPoly.one())

    def _binomial_power(self, terms: list[tuple[int, int]], n: int) -> "UniPoly":
        """(c*(b*x^i + a*x^j))**n for terms [(i, b), (j, a)], i < j, by the
        binomial theorem: the terms of _binomial(a, b, n) go to the distinct
        exponents j*(n-k) + i*k. By Gauss's lemma they form a primitive
        polynomial with leading coefficient a**n > 0, so the content is
        c**n."""
        (i, b), (j, a) = terms
        out = [0] * (j * n + 1)
        for k, v in enumerate(_binomial(a, b, n)):
            out[j * (n - k) + i * k] = v
        return UniPoly(self.cnum**n, self.cden**n, tuple(out))

    def __divmod__(self, other) -> tuple["UniPoly", "UniPoly"]:
        other = self._coerce(other)
        if not other.prim:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.prim) < len(other.prim):
            return UniPoly.zero(), self
        # s * A = Q * B + R on the primitive parts, so self = c/s * (Q*B + R)
        # for self's content c; s may share a prime with c's numerator
        s, q, r = _int_divmod(self.prim, other.prim)
        rn, rd = _mul_pair(self.cnum, self.cden, 1, s)
        return (_canonical(*_div_pair(rn, rd, other.cnum, other.cden), q),
                _canonical(rn, rd, r))

    def __floordiv__(self, other) -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError(f"inexact polynomial division: {self} by {other}")
        return q

    def _coerce(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        return UniPoly.constant(other)

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "UniPoly":
        return _canonical(self.cnum, self.cden, [k * v for k, v in enumerate(self.prim)][1:])

    def antiderivative(self) -> "UniPoly":
        den = math.lcm(*range(1, len(self.prim) + 1))
        ints = [0] + [v * (den // (k + 1)) for k, v in enumerate(self.prim)]
        return _canonical(*_mul_pair(self.cnum, self.cden, 1, den), ints)

    def eval(self, value) -> Fraction:
        """self(value) at an int or Fraction point, by Horner's rule on the
        integers; with value = a/b and m = deg self,
        b**m * P(a/b) = sum(prim[k] * a**k * b**(m-k))."""
        if not self.prim:
            return _ZERO
        a, b = value.numerator, value.denominator
        acc, scale = self.prim[-1], 1
        for v in reversed(self.prim[:-1]):
            scale *= b
            acc = acc * a + v * scale
        return Fraction(self.cnum * acc, self.cden * scale)

    def taylor_shift(self, c) -> "UniPoly":
        """Evaluate at ``x + c`` exactly, by Horner's rule on the integers.

        With c = n/d, m = deg p and P = sum(prim[k] * x**k), d**m * P(x + n/d)
        is Q(y + n) at y = d*x, where Q = sum(prim[k] * d**(m-k) * y**k).
        """
        n, d = _pair(c)
        m = len(self.prim) - 1
        if m < 1 or not n:
            return self
        b = [v * d ** (m - k) for k, v in enumerate(self.prim)]
        for i in range(m):
            for j in range(m - 1, i - 1, -1):
                b[j] += n * b[j + 1]
        return _canonical(*_mul_pair(self.cnum, self.cden, 1, d**m),
                          [v * d**k for k, v in enumerate(b)])

    # -- normal forms ----------------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return UniPoly(1, self.prim[-1], self.prim)

    # -- printing --------------------------------------------------------

    def signed_terms(self) -> list[tuple[Fraction, str]]:
        """(coefficient, monomial) for each nonzero term, highest first;
        the monomial of the constant term is ""."""
        n, d = self.cnum, self.cden
        return [(Fraction(n * v, d), "" if k == 0 else "x" if k == 1 else f"x^{k}")
                for k, v in reversed(list(enumerate(self.prim))) if v]

    def to_string(self) -> str:
        return _join_terms(self.signed_terms())

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"UniPoly({self.to_string()!r})"


def _power(base, n: int, one):
    """base**n by repeated squaring from one, the unit of base's ring."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _binomial(a: int, b: int, n: int) -> list[int]:
    """C(n, k)*a**(n-k)*b**k for k = 0..n, the coefficients of (a*s + b*t)**n."""
    a_pows = [1]
    for _ in range(n):
        a_pows.append(a_pows[-1] * a)
    out, binom, b_pow = [], 1, 1
    for k in range(n + 1):
        out.append(binom * a_pows[n - k] * b_pow)
        binom = binom * (n - k) // (k + 1)
        b_pow *= b
    return out


def _join_terms(terms: list[tuple[Fraction, str]]) -> str:
    """The printed sum of signed terms, as signed_terms gives them."""
    parts: list[str] = []
    for c, monomial in terms:
        mag = abs(c)
        body = str(mag) if not monomial else monomial if mag == 1 else f"{mag}*{monomial}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


# -- integer polynomial kernels ---------------------------------------------


def _conv(a, b) -> list[int]:
    """The coefficients of the product of two nonempty integer polynomials,
    lowest degree first: the one dense convolution, which the rational
    core and the modular arithmetic of the factorizer share."""
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b, i):
                out[j] += av * bv
    return out


def _canonical(cnum: int, cden: int, ints: list[int]) -> UniPoly:
    """cnum/cden * ints in canonical form, for cnum/cden in lowest terms
    with cden > 0; ints is consumed."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints or not cnum:
        return UniPoly.zero()
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
        cnum, cden = _mul_pair(cnum, cden, g, 1)
    return UniPoly(cnum, cden, tuple(ints))


def _int_divmod(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """s, q, r with s * a = q * b + r, deg r < deg b, for b[-1] > 0.

    The remainder is scaled only when b[-1] does not divide its leading
    coefficient, and then by the smallest factor that makes it divide, so
    s is 1 whenever b[-1] == 1.
    """
    d = len(b) - 1
    lb = b[-1]
    low = b[:d]
    r = list(a)
    q: list[int] = []            # quotient, highest coefficient first
    s = 1
    for k in range(len(a) - 1 - d, -1, -1):
        t = r.pop()
        if t:
            if lb != 1:
                g = math.gcd(t, lb)
                if g != lb:
                    m = lb // g
                    r = [v * m for v in r]
                    q = [v * m for v in q]
                    s *= m
                t //= g
            for j, bv in enumerate(low, k):
                r[j] -= t * bv
        q.append(t)
    q.reverse()
    return s, q, r


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the rationals via a primitive remainder sequence.

    gcd(0, 0) = 0 by convention.
    """
    if a.is_zero and b.is_zero:
        return UniPoly.zero()
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    pa, pb = a.prim, b.prim
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while len(pb) > 1:
        pa, pb = pb, _canonical(1, 1, _int_divmod(pa, pb)[2]).prim
    if pb:
        return UniPoly.one()
    return UniPoly(1, pa[-1], pa)


def poly_xgcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid over the rationals: returns monic g and s, t with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = UniPoly.one(), UniPoly.zero()
    t0, t1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    inv = 1 / r0.lc
    return r0 * inv, s0 * inv, t0 * inv


# -- squarefree decomposition ---------------------------------------------


@dataclass(frozen=True)
class SquarefreeFactorization:
    """p = content * prod(factor ** multiplicity), factors monic squarefree coprime.

    squarefree_decompose gives one factor per multiplicity; factor_rationals
    gives the irreducible factors.
    """

    content: Fraction
    parts: tuple[tuple[UniPoly, int], ...]


def squarefree_decompose(p: UniPoly) -> SquarefreeFactorization:
    """Yun's algorithm over the rationals; rejects the zero polynomial.

    At the top of pass i, b is the product of the monic squarefree parts
    a_j of multiplicity j >= i and d = b*sum((j - i)*a_j'/a_j). So d is a
    multiple k*b' exactly when every remaining root has multiplicity
    i + k (compare both sides mod each a_j), and the loop then ends
    without the gcds of the passes in between: a single pass for a
    squarefree p (d = 0), two gcds in all for (x - a)^e*(x - b).
    """
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    content = p.lc
    f = p.monic()
    if f.degree == 0:
        return SquarefreeFactorization(content, ())
    parts: list[tuple[UniPoly, int]] = []
    g = poly_gcd(f, f.derivative())
    b = f.exact_div(g)
    db = b.derivative()
    d = f.derivative().exact_div(g) - db
    i = 1
    while b.degree > 0:
        if d.prim in ((), db.prim):
            parts.append((b, i + int(d.content / db.content)))
            break
        a = poly_gcd(b, d)
        if a.degree > 0:
            parts.append((a, i))
            b, d = b.exact_div(a), d.exact_div(a)
            db = b.derivative()
        d = d - db      # a = 1 leaves b, and so b', as they were
        i += 1
    parts.sort(key=lambda fm: (fm[1], fm[0].degree, fm[0].coeffs))
    return SquarefreeFactorization(content, tuple(parts))
