"""Exact univariate polynomials over the rationals.

Coefficients are `fractions.Fraction`; every operation is pure and exact.
The degree of the zero polynomial is the distinguished value ``NEG_INF``
so that degree comparisons are total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

NEG_INF = float("-inf")

Scalar = Union[int, Fraction]


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not an exact rational scalar: {v!r}")


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class UniPoly:
    """Dense polynomial; ``coeffs[k]`` multiplies ``var ** k``, no trailing zeros."""

    coeffs: tuple[Fraction, ...]
    var: str = "x"

    def __post_init__(self):
        trimmed = _trim([_frac(c) for c in self.coeffs])
        object.__setattr__(self, "coeffs", trimmed)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(values: Iterable, var: str = "x") -> "UniPoly":
        return UniPoly(tuple(_frac(v) for v in values), var)

    @staticmethod
    def zero(var: str = "x") -> "UniPoly":
        return UniPoly((), var)

    @staticmethod
    def one(var: str = "x") -> "UniPoly":
        return UniPoly((Fraction(1),), var)

    @staticmethod
    def constant(c, var: str = "x") -> "UniPoly":
        return UniPoly((_frac(c),), var)

    @staticmethod
    def variable(var: str = "x") -> "UniPoly":
        return UniPoly((Fraction(0), Fraction(1)), var)

    @staticmethod
    def monomial(k: int, c=1, var: str = "x") -> "UniPoly":
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return UniPoly((Fraction(0),) * k + (_frac(c),), var)

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeff(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "UniPoly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            tuple(self.coeff(k) + other.coeff(k) for k in range(n)), self.var
        )

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other) -> "UniPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "UniPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs), self.var)
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out), self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["UniPoly", "UniPoly"]:
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lc = other.coeffs[-1]
        for k in range(len(rem) - 1 - d, -1, -1):
            c = rem[k + d] / lc
            if c == 0:
                continue
            q[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
        return UniPoly(tuple(q), self.var), UniPoly(tuple(rem), self.var)

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
        return UniPoly.constant(_frac(other), self.var)

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(
            tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1), self.var
        )

    def antiderivative(self) -> "UniPoly":
        return UniPoly(
            (Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)),
            self.var,
        )

    def eval(self, value):
        acc = Fraction(0) if isinstance(value, (int, Fraction)) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def eval_complex(self, value: complex) -> complex:
        acc = complex(0)
        for c in reversed(self.coeffs):
            acc = acc * value + complex(c)
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero(inner.var)
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.constant(c, inner.var)
        return acc

    def compose_affine(self, a, b) -> "UniPoly":
        """Evaluate at ``a*var + b`` exactly."""
        return self.compose(UniPoly.of((b, a), self.var))

    def reverse(self) -> "UniPoly":
        """Coefficient reversal: x^deg * p(1/x)."""
        return UniPoly(tuple(reversed(self.coeffs)), self.var)

    def shift_up(self, k: int) -> "UniPoly":
        """Multiply by var**k."""
        if self.is_zero:
            return self
        return UniPoly((Fraction(0),) * k + self.coeffs, self.var)

    # -- normal forms ----------------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        inv = 1 / self.coeffs[-1]
        return UniPoly(tuple(c * inv for c in self.coeffs), self.var)

    def primitive_int(self) -> tuple[Fraction, list[int]]:
        """Write self = content * P with P integer-coefficient, primitive, lc > 0."""
        if self.is_zero:
            return Fraction(0), []
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        sign = -1 if ints[-1] < 0 else 1
        g *= sign
        return Fraction(g, den), [v // g for v in ints]

    def renamed(self, var: str) -> "UniPoly":
        return UniPoly(self.coeffs, var)

    # -- printing --------------------------------------------------------

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                pw = self.var if k == 1 else f"{self.var}^{k}"
                body = pw if mag == 1 else f"{mag}*{pw}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"UniPoly({self.to_string()!r})"


# -- gcd machinery -------------------------------------------------------


def _int_degree(p: list[int]) -> int:
    return len(p) - 1


def _int_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _int_primitive(p: list[int]) -> list[int]:
    g = 0
    for v in p:
        g = math.gcd(g, abs(v))
    if g == 0:
        return p
    if p[-1] < 0:
        g = -g
    return [v // g for v in p]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of primitive integer polynomials, lc(b)^k * a mod b."""
    r = list(a)
    d = _int_degree(b)
    lb = b[-1]
    while _int_trim(r) and _int_degree(r) >= d:
        k = _int_degree(r) - d
        lr = r[-1]
        r = [v * lb for v in r]
        for j, bv in enumerate(b):
            r[k + j] -= lr * bv
        _int_trim(r)
    return r


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the rationals via a primitive remainder sequence.

    gcd(0, 0) = 0 by convention.
    """
    if a.is_zero and b.is_zero:
        return UniPoly.zero(a.var)
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    _, pa = a.primitive_int()
    _, pb = b.primitive_int()
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        r = _int_primitive(_int_pseudo_rem(pa, pb))
        pa, pb = pb, r
    return UniPoly.of(pa, a.var).monic()


def poly_xgcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid over the rationals: returns monic g and s, t with s*a + t*b = g."""
    var = a.var
    r0, r1 = a, b
    s0, s1 = UniPoly.one(var), UniPoly.zero(var)
    t0, t1 = UniPoly.zero(var), UniPoly.one(var)
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

    def expand(self) -> UniPoly:
        var = self.parts[0][0].var if self.parts else "x"
        acc = UniPoly.constant(self.content, var)
        for f, m in self.parts:
            acc = acc * f**m
        return acc


def squarefree_decompose(p: UniPoly) -> SquarefreeFactorization:
    """Yun's algorithm over the rationals; rejects the zero polynomial."""
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    content = p.lc
    f = p.monic()
    if f.degree == 0:
        return SquarefreeFactorization(content, ())
    parts: list[tuple[UniPoly, int]] = []
    g = poly_gcd(f, f.derivative())
    b = f.exact_div(g)
    c = f.derivative().exact_div(g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            parts.append((a, i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        i += 1
    parts.sort(key=lambda fm: (fm[1], fm[0].degree, fm[0].coeffs))
    return SquarefreeFactorization(content, tuple(parts))
