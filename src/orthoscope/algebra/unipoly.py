"""Exact univariate polynomials over the rationals, in the variable x, and
the canonical form they share with BiPoly.

A UniPoly is a polynomial in x, the coordinate of the base line, and
prints in x; there is no variable to choose. (The few polynomials in
another variable, such as the residue polynomial, are stored the same way,
and the functions that return them say so.) It keeps its coefficients in
a tuple indexed by degree, in the canonical form of ContentPoly, which
also holds every member that reads only the content and the leading
entry. Every operation is pure and exact. The degree of the zero
polynomial is the distinguished value ``NEG_INF`` so that degree
comparisons are total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

NEG_INF = float("-inf")

_ZERO = Fraction(0)


def _pair(v) -> tuple[int, int]:
    """The numerator and positive denominator of an exact rational scalar,
    an int or a Fraction, in lowest terms; any other value, a float or a
    string among them, raises TypeError."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"not an exact rational scalar: {v!r}")
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


class ContentPoly:
    """A polynomial over Q as a rational content times a primitive integer
    part: the canonical form of UniPoly and BiPoly.

    The content cnum/cden is a nonzero pair of ints in lowest terms with
    ``cden > 0``, and ``prim`` holds ints with gcd 1 whose leading entry
    (``_lead``) is positive; the zero polynomial has ``cnum == 0``,
    ``cden == 1`` and an empty ``prim``. The form is canonical, so equality
    is exact, and so is a UniPoly's hash. Every ring operation runs on Python ints:
    products, quotients and gcds on the primitive parts, and the contents as
    int pairs with cross-cancelled gcds (Knuth, TAOCP vol. 2, §4.5.1). A
    Fraction is formed only where a coefficient is read.

    A subclass is a slotted dataclass with fields cnum, cden and prim,
    declared with repr=False so that the __repr__ below is kept and with
    unsafe_hash=True so that its hash reads the fields. It is not frozen:
    a value is immutable by contract, as a Fraction is, and only its
    __init__ stores to those fields, which a static test of the sources
    (tests/test_store_guard.py) checks. It supplies
    what reads its container: the constructors zero, one and constant,
    _lead, _term_count, is_constant, signed_terms, __add__ (which adds an
    int or Fraction scalar into the constant term), __mul__ (which hands
    such a scalar to _scale), _monomial_power and _binomial_power. An
    operand that is neither of the subclass, a UniPoly, an int nor a
    Fraction makes _coerce return NotImplemented, so that Python runs the
    operand's reflected operator: a RatFunc's, or a BiPoly's for a UniPoly.
    A float's or a string's reflected operator takes no polynomial, so
    such an operand raises TypeError.
    """

    __slots__ = ()

    @property
    def content(self) -> Fraction:
        """The rational content cnum/cden, formed on each read."""
        return Fraction(self.cnum, self.cden)

    @property
    def is_zero(self) -> bool:
        return not self.prim

    @property
    def lc(self) -> Fraction:
        """The leading coefficient; 0 for the zero polynomial."""
        if not self.prim:
            return _ZERO
        return Fraction(self.cnum * self._lead(), self.cden)

    def monic(self):
        """Scale by a rational unit so the leading coefficient is 1."""
        if not self.prim:
            return self
        return type(self)(1, self._lead(), self.prim)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.cnum, self.cden)

    def _coerce(self, other):
        """other in self's ring: a UniPoly enters a BiPoly as a polynomial
        in x, and an int or a Fraction as a constant; NotImplemented for
        any other operand."""
        if type(other) is type(self) or isinstance(other, type(self)):
            return other
        if isinstance(other, UniPoly):
            return self.from_unipoly_x(other)
        if isinstance(other, (int, Fraction)):
            return self.constant(other)
        return NotImplemented

    def _over(self, n: int, d: int) -> tuple[int, int, int]:
        """den = lcm(cden, d) and fa, fb with cnum/cden = fa/den and
        n/d = fb/den: the common denominator of a sum."""
        den = math.lcm(self.cden, d)
        return den, self.cnum * (den // self.cden), n * (den // d)

    def __neg__(self):
        return type(self)(-self.cnum, self.cden, self.prim)

    def __sub__(self, other):
        # the exact own type first: isinstance(other, Fraction) runs
        # ABCMeta.__instancecheck__ on any operand that is not a Fraction
        if type(other) is not type(self) and isinstance(other, (int, Fraction)):
            return self + -other
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        if type(other) is not type(self) and isinstance(other, (int, Fraction)):
            return -self + other
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def _scale(self, c):
        """self * c for an int or Fraction c; the primitive part is kept."""
        if not c or not self.prim:
            return self.zero()
        return type(self)(*_mul_pair(self.cnum, self.cden, c.numerator, c.denominator), self.prim)

    def __pow__(self, n: int):
        """self**n; a one-term base by its exponents, a two-term base by
        the binomial theorem, any other by repeated squaring."""
        if n >= 0:
            terms = self._term_count()
            if terms == 1:
                return self._monomial_power(n)
            if terms == 2:
                return self._binomial_power(n)
        return _power(self, n, self.one())

    def to_string(self) -> str:
        return _join_terms(self.signed_terms())

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_string()!r})"


@dataclass(repr=False, unsafe_hash=True, slots=True)
class UniPoly(ContentPoly):
    """Dense polynomial ``cnum/cden * sum(prim[k] * x**k)``.

    ``prim`` is a tuple of ints whose last entry leads, and ``()`` for zero.
    Build from rational coefficients with `UniPoly.of`; ``coeffs[k]``
    multiplies ``x ** k``.
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
        return _ZERO_POLY

    @staticmethod
    def one() -> "UniPoly":
        return _ONE_POLY

    @staticmethod
    def constant(c) -> "UniPoly":
        n, d = _pair(c)
        return UniPoly(n, d, (1,)) if n else _ZERO_POLY

    @staticmethod
    def variable() -> "UniPoly":
        return UniPoly(1, 1, (0, 1))

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients, lowest degree first, no trailing zeros."""
        n, d = self.cnum, self.cden
        return tuple(Fraction(n * v, d) for v in self.prim)

    @property
    def degree(self):
        return len(self.prim) - 1 if self.prim else NEG_INF

    def total_degree(self) -> int:
        """The degree, as BiPoly reads it: -1 for zero."""
        return len(self.prim) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.prim) <= 1

    def _lead(self) -> int:
        return self.prim[-1]

    def _term_count(self) -> int:
        return len(self.prim) - self.prim.count(0)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.prim):
            return Fraction(self.cnum * self.prim[k], self.cden)
        return _ZERO

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "UniPoly":
        if type(other) is not UniPoly:
            if isinstance(other, (int, Fraction)) and self.prim:
                den, fa, fb = self._over(other.numerator, other.denominator)
                out = [fa * v for v in self.prim]
                out[0] += fb
                return _canonical(1, den, out)
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        if not other.prim:
            return self
        if not self.prim:
            return other
        # over the common denominator den, self + other = (fa*A + fb*B) / den
        den, fa, fb = self._over(other.cnum, other.cden)
        out = [fa * v for v in self.prim]
        rest = [fb * v for v in other.prim]
        if len(out) < len(rest):
            out, rest = rest, out
        for k, v in enumerate(rest):
            out[k] += v
        return _canonical(1, den, out)

    __radd__ = __add__

    def __mul__(self, other) -> "UniPoly":
        if type(other) is not UniPoly:
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        a, b = self.prim, other.prim
        if not a or not b:
            return _ZERO_POLY
        # Gauss's lemma: a product of primitive polynomials is primitive; a
        # nonzero constant's primitive part is (1,), so a product by one
        # multiplies the contents alone
        prim = b if a == (1,) else a if b == (1,) else tuple(_conv(a, b))
        return UniPoly(*_mul_pair(self.cnum, self.cden, other.cnum, other.cden), prim)

    __rmul__ = __mul__

    def _monomial_power(self, n: int) -> "UniPoly":
        """(c*x^k)**n = c**n * x^(k*n); a one-term primitive part is x^k."""
        return UniPoly(self.cnum**n, self.cden**n, (0,) * ((len(self.prim) - 1) * n) + (1,))

    def _binomial_power(self, n: int) -> "UniPoly":
        """(c*(b*x^i + a*x^j))**n, i < j, by the binomial theorem: the terms
        of _binomial(a, b, n) go to the distinct exponents j*(n-k) + i*k. By
        Gauss's lemma they form a primitive polynomial with leading
        coefficient a**n > 0, so the content is c**n."""
        (i, b), (j, a) = [(k, v) for k, v in enumerate(self.prim) if v]
        out = [0] * (j * n + 1)
        for k, v in enumerate(_binomial(a, b, n)):
            out[j * (n - k) + i * k] = v
        return UniPoly(self.cnum**n, self.cden**n, tuple(out))

    def __divmod__(self, other) -> tuple["UniPoly", "UniPoly"]:
        other = self._coerce(other)
        if other is NotImplemented:
            return other
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

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError(f"inexact polynomial division: {self} by {other}")
        return q

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

    # -- printing --------------------------------------------------------

    def signed_terms(self) -> list[tuple[int, int, str]]:
        """(numerator, denominator, monomial) for each nonzero term,
        highest first, with the coefficient in lowest terms; the monomial of
        the constant term is ""."""
        n, d = self.cnum, self.cden
        return [(*_mul_pair(n, d, v, 1), "" if k == 0 else "x" if k == 1 else f"x^{k}")
                for k, v in reversed(list(enumerate(self.prim))) if v]


# the shared zero and one that UniPoly.zero() and UniPoly.one() return
_ZERO_POLY = UniPoly(0, 1, ())
_ONE_POLY = UniPoly(1, 1, (1,))


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


def _join_terms(terms: list[tuple[int, int, str]]) -> str:
    """The printed sum of signed terms, as signed_terms gives them; a
    magnitude prints as a Fraction does."""
    parts: list[str] = []
    for n, d, monomial in terms:
        mag = f"{abs(n)}" if d == 1 else f"{abs(n)}/{d}"
        body = mag if not monomial else monomial if mag == "1" else f"{mag}*{monomial}"
        if parts:
            parts.append(f"+ {body}" if n > 0 else f"- {body}")
        else:
            parts.append(body if n > 0 else f"-{body}")
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
        return _ZERO_POLY
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


def poly_div_mod(a: UniPoly, b: UniPoly, m: UniPoly) -> UniPoly:
    """a/b mod m, of degree below deg m; ValueError when b shares a factor with m.

    At a linear m = x - c it is a(c)/b(c), by evaluation. Elsewhere the
    extended Euclid on (m, b mod m) keeps only b's cofactor s, with
    s*b = r mod m, down to a constant r: a/b = a*s/r mod m.
    """
    if m.degree == 1:
        c = Fraction(-m.prim[0], m.prim[1])
        if bc := b.eval(c):
            return UniPoly.constant(a.eval(c) / bc)
    r0, r1 = m, b % m
    s0, s1 = UniPoly.zero(), UniPoly.one()
    while not r1.is_constant:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r1.is_zero:
        raise ValueError("nontrivial gcd: the modulus is not irreducible or divides the divisor")
    return (a * s1 * (1 / r1.lc)) % m


def poly_xgcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid over the rationals: returns monic g and s, t with s*a + t*b = g.
    The tests' reference; the package divides modulo a polynomial by poly_div_mod."""
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
    without the gcds of the passes in between: two gcds in all for
    (x - a)^e*(x - b). A squarefree p, with gcd(p, p') = 1, is its own
    single part after the first gcd. Each pass appends at its own i, and
    the early exit at i + k with k >= 0, so the parts come in strictly
    increasing multiplicity.
    """
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    content = p.lc
    f = p.monic()
    if f.degree == 0:
        return SquarefreeFactorization(content, ())
    df = f.derivative()
    g = poly_gcd(f, df)
    if g.degree == 0:
        return SquarefreeFactorization(content, ((f, 1),))
    parts: list[tuple[UniPoly, int]] = []
    b = f.exact_div(g)
    db = b.derivative()
    d = df.exact_div(g) - db
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
    return SquarefreeFactorization(content, tuple(parts))
