"""Exact bivariate polynomials over the rationals, plus resultants.

A BiPoly keeps its integer coefficients in a sparse map (i, j) ->
coefficient of x^i * y^j, in the canonical form of ContentPoly that
UniPoly shares, so every ring operation (products, exact quotients,
derivatives, substitution) runs on Python ints and the rational
coefficients are formed only when read. Exact division is exact_div and
the printed terms come from signed_terms, as in UniPoly, so one
fraction-field class reduces and prints over either ring; the bivariate
gcd here reduces BiRatFunc. The univariate views and results
are UniPolys, which are polynomials in x: y_coefficients gives
polynomials in x, while x_coefficients and the resultant give polynomials
in y, stored and printed as UniPolys in x. The resultant eliminates x from
two BiPoly operands via fraction-free Bareiss elimination on the
Sylvester matrix; it builds the residue polynomial, and no verdict goes
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .unipoly import ContentPoly, UniPoly, _binomial, _div_pair, _mul_pair, _pair, poly_gcd
from .unipoly import _canonical as _uni_canonical


@dataclass(frozen=True, repr=False)
class BiPoly(ContentPoly):
    """Sparse polynomial ``cnum/cden * sum(prim[i, j] * x**i * y**j)``.

    ``prim`` maps exponent pairs to nonzero ints; the lex-leading entry, at
    the ``max`` key, leads, and ``{}`` is zero. Build from rational
    coefficients with `BiPoly.of`. ``prim`` is never mutated once built.
    """

    cnum: int
    cden: int
    prim: dict[tuple[int, int], int]

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly(0, 1, {})

    @staticmethod
    def one() -> "BiPoly":
        return BiPoly(1, 1, {(0, 0): 1})

    @staticmethod
    def constant(c) -> "BiPoly":
        n, d = _pair(c)
        return BiPoly(n, d, {(0, 0): 1}) if n else BiPoly.zero()

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly(1, 1, {(1, 0): 1})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly(1, 1, {(0, 1): 1})

    @staticmethod
    def of(terms: Mapping[tuple[int, int], object]) -> "BiPoly":
        pairs = {(int(i), int(j)): _pair(v) for (i, j), v in terms.items()}
        den = math.lcm(*(d for _, d in pairs.values()))
        return _canonical(1, den, {k: n * (den // d) for k, (n, d) in pairs.items()})

    @staticmethod
    def from_unipoly_x(p: UniPoly) -> "BiPoly":
        return BiPoly(p.cnum, p.cden, {(k, 0): v for k, v in enumerate(p.prim) if v})

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """Rational coefficients by exponent pair, formed on each read."""
        n, d = self.cnum, self.cden
        return {k: Fraction(n * v, d) for k, v in self.prim.items()}

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.prim)

    def _lead(self) -> int:
        return self.prim[max(self.prim)]

    def _term_count(self) -> int:
        return len(self.prim)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.prim), default=-1)

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self.cnum * self.prim.get((i, j), 0), self.cden)

    def is_y_free(self) -> bool:
        return all(j == 0 for _, j in self.prim)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)) and self.prim:
            den, fa, fb = self._over(other.numerator, other.denominator)
            out = {k: fa * v for k, v in self.prim.items()}
            out[0, 0] = out.get((0, 0), 0) + fb
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
        out = {k: fa * v for k, v in self.prim.items()}
        for k, v in other.prim.items():
            out[k] = out.get(k, 0) + fb * v
        return _canonical(1, den, out)

    __radd__ = __add__

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if not self.prim or not other.prim:
            return BiPoly.zero()
        # Gauss's lemma: a product of primitive polynomials is primitive, and
        # the lex-leading term of a product is the product of the leading terms
        out: dict[tuple[int, int], int] = {}
        b = other.prim.items()
        for (i1, j1), av in self.prim.items():
            for (i2, j2), bv in b:
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + av * bv
        return BiPoly(*_mul_pair(self.cnum, self.cden, other.cnum, other.cden),
                      {k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def _monomial_power(self, n: int) -> "BiPoly":
        """(c*x^i*y^j)**n = c**n * x^(i*n)*y^(j*n); a one-term primitive map is {(i, j): 1}."""
        ((i, j),) = self.prim
        return BiPoly(self.cnum**n, self.cden**n, {(i * n, j * n): 1})

    def _binomial_power(self, n: int) -> "BiPoly":
        """(c*(a*m1 + b*m2))**n by the binomial theorem. The terms
        C(n, k)*a**(n-k)*b**k*m1**(n-k)*m2**k have distinct monomials; by
        Gauss's lemma they form a primitive map, whose lex-leading entry is
        the n-th power of the base's positive one. So the content is c**n,
        and the n-th powers of a coprime pair are coprime."""
        ((i1, j1), a), ((i2, j2), b) = self.prim.items()
        out = {(i1 * (n - k) + i2 * k, j1 * (n - k) + j2 * k): v
               for k, v in enumerate(_binomial(a, b, n))}
        return BiPoly(self.cnum**n, self.cden**n, out)

    # -- derivatives and substitution ----------------------------------

    def partial(self, variable: str) -> "BiPoly":
        """Formal partial derivative with respect to 'x' or 'y'."""
        if variable == "x":
            ints = {(i - 1, j): v * i for (i, j), v in self.prim.items() if i}
        elif variable == "y":
            ints = {(i, j - 1): v * j for (i, j), v in self.prim.items() if j}
        else:
            raise ValueError(f"unknown variable {variable!r}")
        return _canonical(self.cnum, self.cden, ints)

    def subst_y(self, value) -> "UniPoly":
        """Substitute a rational constant p/q for y; result is univariate in
        x. Over the common denominator q**d, d the degree in y, a term
        v * x**i * (p/q)**j contributes v * p**j * q**(d - j) to x**i."""
        if not self.prim:
            return UniPoly.zero()
        p, q = _pair(value)
        d = max(j for _, j in self.prim)
        ints = [0] * (max(i for i, _ in self.prim) + 1)
        for (i, j), v in self.prim.items():
            ints[i] += v * p**j * q ** (d - j)
        return _uni_canonical(*_mul_pair(self.cnum, self.cden, 1, q**d), ints)

    def div_exact_y(self) -> "BiPoly":
        """Exact division by y; raises if y does not divide self."""
        if any(j == 0 for _, j in self.prim):
            raise ValueError("y does not divide this polynomial")
        return BiPoly(self.cnum, self.cden, {(i, j - 1): v for (i, j), v in self.prim.items()})

    def exact_div(self, other: "BiPoly") -> "BiPoly":
        """Exact division via lex-ordered long division; raises if inexact.

        By Gauss's lemma the quotient of two primitive integer polynomials,
        when it exists, is a primitive integer polynomial, so every step
        divides exactly in the integers or the division is inexact.
        """
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.prim)
        quo: dict[tuple[int, int], int] = {}
        lt_key = max(other.prim)  # lex order on (i, j)
        lt_c = other.prim[lt_key]
        while rem:
            k = max(rem)
            i, j = k[0] - lt_key[0], k[1] - lt_key[1]
            c, r = divmod(rem[k], lt_c)
            if i < 0 or j < 0 or r:
                raise ValueError("inexact bivariate division")
            quo[(i, j)] = c
            for (oi, oj), ov in other.prim.items():
                kk = (oi + i, oj + j)
                nv = rem.get(kk, 0) - c * ov
                if nv:
                    rem[kk] = nv
                else:
                    del rem[kk]
        if not quo:
            return BiPoly.zero()
        return BiPoly(*_div_pair(self.cnum, self.cden, other.cnum, other.cden), quo)

    # -- views ----------------------------------------------------------

    def y_coefficients(self) -> list[UniPoly]:
        """Coefficients as polynomials in x, indexed by the power of y."""
        return self._rows(1)

    def x_coefficients(self) -> list[UniPoly]:
        """Coefficients as polynomials in y, indexed by the power of x; each
        UniPoly holds a polynomial in y and prints it in x."""
        return self._rows(0)

    def _rows(self, axis: int) -> list[UniPoly]:
        keep = 1 - axis
        size = max((k[axis] for k in self.prim), default=-1) + 1
        rows: list[dict[int, int]] = [dict() for _ in range(size)]
        for k, v in self.prim.items():
            rows[k[axis]][k[keep]] = v
        out = []
        for row in rows:
            ints = [row.get(e, 0) for e in range(max(row, default=-1) + 1)]
            out.append(_uni_canonical(self.cnum, self.cden, ints))
        return out

    # -- printing ---------------------------------------------------------

    def signed_terms(self) -> list[tuple[int, int, str]]:
        """(numerator, denominator, monomial) for each term, by descending
        total degree and then degree in x, with the coefficient in lowest
        terms; the monomial of the constant term is ""."""
        n, d = self.cnum, self.cden
        out = []
        for i, j in sorted(self.prim, key=lambda k: (-(k[0] + k[1]), -k[0])):
            powers = [f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e]
            out.append((*_mul_pair(n, d, self.prim[i, j], 1), "*".join(powers)))
        return out


def _canonical(cnum: int, cden: int, ints: dict[tuple[int, int], int]) -> BiPoly:
    """cnum/cden * ints in canonical form, for cnum/cden in lowest terms
    with cden > 0; ints may hold zero entries."""
    ints = {k: v for k, v in ints.items() if v}
    if not ints or not cnum:
        return BiPoly.zero()
    g = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
        cnum, cden = _mul_pair(cnum, cden, g, 1)
    return BiPoly(cnum, cden, ints)


# -- resultants -------------------------------------------------------------


def _bareiss_det(mat: list[list[UniPoly]]) -> UniPoly:
    """Fraction-free determinant of a matrix with polynomial entries."""
    n = len(mat)
    if n == 0:
        return UniPoly.one()
    sign = 1
    prev = UniPoly.one()
    for k in range(n - 1):
        if mat[k][k].is_zero:
            pivot_row = next(
                (i for i in range(k + 1, n) if not mat[i][k].is_zero), None
            )
            if pivot_row is None:
                return UniPoly.zero()
            mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                mat[i][j] = num.exact_div(prev)
            mat[i][k] = UniPoly.zero()
        prev = mat[k][k]
    det = mat[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant_x(a: BiPoly, b: BiPoly) -> UniPoly:
    """Resultant eliminating x.

    Inputs are read as polynomials in x whose coefficients are polynomials
    in y; the result is the polynomial in y, as a UniPoly that prints in x.
    Both operands of x-degree zero yield 1 (empty Sylvester determinant).
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant of the zero polynomial")
    ac = a.x_coefficients()
    bc = b.x_coefficients()
    m, n = len(ac) - 1, len(bc) - 1
    size = m + n
    if size == 0:
        return UniPoly.one()
    zero = UniPoly.zero()
    rows: list[list[UniPoly]] = []
    a_desc = list(reversed(ac))
    b_desc = list(reversed(bc))
    for r in range(n):
        rows.append([zero] * r + a_desc + [zero] * (size - r - m - 1))
    for r in range(m):
        rows.append([zero] * r + b_desc + [zero] * (size - r - n - 1))
    return _bareiss_det(rows)


# -- bivariate gcd -----------------------------------------------------------


def _x_content(coeffs: list[UniPoly]) -> UniPoly:
    """The monic gcd of the y-coefficients, 0 when there are none."""
    g = UniPoly.zero()
    for c in coeffs:
        g = poly_gcd(g, c)
        if g.degree == 0:
            break
    return g


def _primitive_y(coeffs: list[UniPoly]) -> tuple[list[UniPoly], UniPoly]:
    """The y-coefficients with their UniPoly gcd divided out and the last
    one monic, and that gcd."""
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    g = _x_content(coeffs)
    if not coeffs:
        return coeffs, g
    if g.degree > 0:
        coeffs = [c.exact_div(g) for c in coeffs]
    lc_scale = 1 / coeffs[-1].lc
    return [c * lc_scale for c in coeffs], g


def _pseudo_rem_y(a: list[UniPoly], b: list[UniPoly]) -> list[UniPoly]:
    """Pseudo-remainder of polynomials in y with UniPoly coefficients."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        k = len(r) - 1 - db
        lr = r[-1]
        r = [c * lb for c in r]
        for j, bv in enumerate(b):
            r[k + j] = r[k + j] - lr * bv
        while r and r[-1].is_zero:
            r.pop()
    return r


def bipoly_gcd(p: BiPoly, q: BiPoly) -> BiPoly:
    """Bivariate gcd: x-content gcd times a primitive PRS gcd in Q[x][y].

    The result is normalized so its lex-leading coefficient is 1. A y-free
    operand is its own x-content up to a unit, so with one the gcd is the
    x-contents' gcd, in Q[x], and no PRS runs.
    """
    if p.is_zero and q.is_zero:
        return BiPoly.zero()
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if p.is_y_free() or q.is_y_free():
        return BiPoly.from_unipoly_x(
            poly_gcd(_x_content(p.y_coefficients()), _x_content(q.y_coefficients())))
    a, cp = _primitive_y(p.y_coefficients())
    b, cq = _primitive_y(q.y_coefficients())
    cg = poly_gcd(cp, cq)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _primitive_y(_pseudo_rem_y(a, b))[0]
    if len(b) == 1:
        g_prim = BiPoly.one()
    else:
        g_prim = BiPoly.of({(i, j): v for j, c in enumerate(a) for i, v in enumerate(c.coeffs)})
    return (BiPoly.from_unipoly_x(cg) * g_prim).monic()
