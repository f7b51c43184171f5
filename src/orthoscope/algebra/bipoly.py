"""Exact bivariate polynomials over the rationals, plus resultants.

A BiPoly is a rational content times a sparse primitive integer term map
(i, j) -> coefficient of x^i * y^j, in the same canonical form as UniPoly,
so products, exact quotients and derivatives run on Python ints and the
rational coefficients are formed only when read. The bivariate gcd here
reduces the parser's rational functions. The resultant eliminates the
primary variable from two BiPoly operands via fraction-free Bareiss
elimination on the Sylvester matrix, returning a UniPoly in the secondary
variable; it builds the residue polynomial, and no verdict goes through
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .unipoly import _ONE, _ZERO, UniPoly, _frac, poly_gcd
from .unipoly import _canonical as _uni_canonical


@dataclass(frozen=True)
class BiPoly:
    """Sparse polynomial ``content * sum(prim[i, j] * x**i * y**j)``.

    Canonical form: ``prim`` maps exponent pairs to nonzero ints with gcd 1
    whose lex-leading entry (at the ``max`` key) is positive, and
    ``content`` is a nonzero Fraction; the zero polynomial has
    ``content == 0`` and ``prim == {}``. Build from rational coefficients
    with `BiPoly.of`. ``prim`` is never mutated once built.
    """

    content: Fraction
    prim: dict[tuple[int, int], int]

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly(_ZERO, {})

    @staticmethod
    def one() -> "BiPoly":
        return BiPoly(_ONE, {(0, 0): 1})

    @staticmethod
    def constant(c) -> "BiPoly":
        c = _frac(c)
        return BiPoly(c, {(0, 0): 1}) if c else BiPoly.zero()

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly(_ONE, {(1, 0): 1})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly(_ONE, {(0, 1): 1})

    @staticmethod
    def of(terms: Mapping[tuple[int, int], object]) -> "BiPoly":
        fracs = {(int(i), int(j)): _frac(v) for (i, j), v in terms.items()}
        den = math.lcm(*(c.denominator for c in fracs.values()))
        ints = {k: c.numerator * (den // c.denominator) for k, c in fracs.items()}
        return _canonical(Fraction(1, den), ints)

    @staticmethod
    def from_unipoly_x(p: UniPoly) -> "BiPoly":
        return BiPoly(p.content, {(k, 0): v for k, v in enumerate(p.prim) if v})

    @staticmethod
    def from_unipoly_y(p: UniPoly) -> "BiPoly":
        return BiPoly(p.content, {(0, k): v for k, v in enumerate(p.prim) if v})

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """Rational coefficients by exponent pair, formed on each read."""
        c = self.content
        return {k: c * v for k, v in self.prim.items()}

    @property
    def is_zero(self) -> bool:
        return not self.prim

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.prim)

    @property
    def lc(self) -> Fraction:
        """The lex-leading coefficient; 0 for the zero polynomial."""
        if not self.prim:
            return _ZERO
        return self.content * self.prim[max(self.prim)]

    def monic(self) -> "BiPoly":
        """Scale by a rational unit so the lex-leading coefficient is 1."""
        if not self.prim:
            return self
        return BiPoly(Fraction(1, self.prim[max(self.prim)]), self.prim)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return self.coeff(0, 0)

    def degree_x(self) -> int:
        return max((i for i, _ in self.prim), default=-1)

    def degree_y(self) -> int:
        return max((j for _, j in self.prim), default=-1)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.prim), default=-1)

    def coeff(self, i: int, j: int) -> Fraction:
        return self.content * self.prim.get((i, j), 0)

    def is_y_free(self) -> bool:
        return all(j == 0 for _, j in self.prim)

    def is_x_free(self) -> bool:
        return all(i == 0 for i, _ in self.prim)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "BiPoly":
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, UniPoly):
            return BiPoly.from_unipoly_x(other)
        return BiPoly.constant(_frac(other))

    def __add__(self, other) -> "BiPoly":
        other = self._coerce(other)
        if not other.prim:
            return self
        if not self.prim:
            return other
        # over the common denominator den, self + other = (fa*A + fb*B) / den
        ca, cb = self.content, other.content
        den = math.lcm(ca.denominator, cb.denominator)
        fa = ca.numerator * (den // ca.denominator)
        fb = cb.numerator * (den // cb.denominator)
        out = {k: fa * v for k, v in self.prim.items()}
        for k, v in other.prim.items():
            out[k] = out.get(k, 0) + fb * v
        return _canonical(Fraction(1, den), out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly(-self.content, self.prim)

    def __sub__(self, other) -> "BiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "BiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            if not other or not self.prim:
                return BiPoly.zero()
            return BiPoly(self.content * other, self.prim)
        other = self._coerce(other)
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
        return BiPoly(self.content * other.content, {k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- derivatives and substitution ----------------------------------

    def partial(self, variable: str) -> "BiPoly":
        """Formal partial derivative with respect to 'x' or 'y'."""
        if variable == "x":
            ints = {(i - 1, j): v * i for (i, j), v in self.prim.items() if i}
        elif variable == "y":
            ints = {(i, j - 1): v * j for (i, j), v in self.prim.items() if j}
        else:
            raise ValueError(f"unknown variable {variable!r}")
        return _canonical(self.content, ints)

    def subst_y(self, value) -> "UniPoly":
        """Substitute a rational constant for y; result is univariate in x."""
        return self._subst(value, 1, "x")

    def subst_x(self, value) -> "UniPoly":
        """Substitute a rational constant for x; result is univariate in y."""
        return self._subst(value, 0, "y")

    def _subst(self, value, axis: int, var: str) -> "UniPoly":
        """Substitute p/q for x (axis 0) or y (axis 1). Over the common
        denominator q**d, d the degree in that variable, a term v * (p/q)**e
        contributes v * p**e * q**(d - e)."""
        if not self.prim:
            return UniPoly.zero(var)
        value = _frac(value)
        p, q = value.numerator, value.denominator
        keep = 1 - axis
        d = max(k[axis] for k in self.prim)
        ints = [0] * (max(k[keep] for k in self.prim) + 1)
        for k, v in self.prim.items():
            e = k[axis]
            ints[k[keep]] += v * p**e * q ** (d - e)
        return _uni_canonical(self.content / q**d, ints, var)

    def eval(self, xval, yval) -> Fraction:
        xval, yval = _frac(xval), _frac(yval)
        return self.content * sum(
            (v * xval**i * yval**j for (i, j), v in self.prim.items()), _ZERO
        )

    def compose_affine(self, ax, bx, ay) -> "BiPoly":
        """Substitute x -> ax*x + bx and y -> ay*y (invariant-line-preserving)."""
        xo = BiPoly.of({(1, 0): ax, (0, 0): bx})
        yo = BiPoly.of({(0, 1): ay})
        acc = BiPoly.zero()
        for (i, j), v in self.prim.items():
            acc = acc + xo**i * yo**j * v
        return acc * self.content

    def div_exact_y(self) -> "BiPoly":
        """Exact division by y; raises if y does not divide self."""
        if any(j == 0 for _, j in self.prim):
            raise ValueError("y does not divide this polynomial")
        return BiPoly(self.content, {(i, j - 1): v for (i, j), v in self.prim.items()})

    def div_exact(self, other: "BiPoly") -> "BiPoly":
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
        return BiPoly(self.content / other.content, quo)

    # -- views ----------------------------------------------------------

    def y_coefficients(self) -> list[UniPoly]:
        """Coefficients as polynomials in x, indexed by the power of y."""
        return self._rows(1, "x")

    def x_coefficients(self, aux_var: str = "t") -> list[UniPoly]:
        """Coefficients as polynomials in the secondary variable, indexed by x power."""
        return self._rows(0, aux_var)

    def _rows(self, axis: int, var: str) -> list[UniPoly]:
        keep = 1 - axis
        size = max((k[axis] for k in self.prim), default=-1) + 1
        rows: list[dict[int, int]] = [dict() for _ in range(size)]
        for k, v in self.prim.items():
            rows[k[axis]][k[keep]] = v
        out = []
        for row in rows:
            ints = [row.get(e, 0) for e in range(max(row, default=-1) + 1)]
            out.append(_uni_canonical(self.content, ints, var))
        return out

    # -- printing ---------------------------------------------------------

    def to_string(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        keys = sorted(terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
        parts: list[str] = []
        for i, j in keys:
            c = terms[(i, j)]
            mag = abs(c)
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            if not factors:
                body = str(mag)
            else:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"BiPoly({self.to_string()!r})"


def _canonical(content: Fraction, ints: dict[tuple[int, int], int]) -> BiPoly:
    """content * ints in canonical form; ints may hold zero entries."""
    ints = {k: v for k, v in ints.items() if v}
    if not ints or not content:
        return BiPoly.zero()
    g = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
        content = content * g
    return BiPoly(content, ints)


# -- resultants -------------------------------------------------------------


def _bareiss_det(mat: list[list[UniPoly]], var: str) -> UniPoly:
    """Fraction-free determinant of a matrix with polynomial entries."""
    n = len(mat)
    if n == 0:
        return UniPoly.one(var)
    sign = 1
    prev = UniPoly.one(var)
    for k in range(n - 1):
        if mat[k][k].is_zero:
            pivot_row = next(
                (i for i in range(k + 1, n) if not mat[i][k].is_zero), None
            )
            if pivot_row is None:
                return UniPoly.zero(var)
            mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                mat[i][j] = num.exact_div(prev)
            mat[i][k] = UniPoly.zero(var)
        prev = mat[k][k]
    det = mat[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant_x(a: BiPoly, b: BiPoly, aux_var: str = "t") -> UniPoly:
    """Resultant eliminating the primary variable.

    Inputs are read as polynomials in x whose coefficients are polynomials
    in the secondary variable; the result is a UniPoly in that variable.
    Both operands of x-degree zero yield 1 (empty Sylvester determinant).
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant of the zero polynomial")
    ac = a.x_coefficients(aux_var)
    bc = b.x_coefficients(aux_var)
    m, n = len(ac) - 1, len(bc) - 1
    size = m + n
    if size == 0:
        return UniPoly.one(aux_var)
    zero = UniPoly.zero(aux_var)
    rows: list[list[UniPoly]] = []
    a_desc = list(reversed(ac))
    b_desc = list(reversed(bc))
    for r in range(n):
        rows.append([zero] * r + a_desc + [zero] * (size - r - m - 1))
    for r in range(m):
        rows.append([zero] * r + b_desc + [zero] * (size - r - n - 1))
    return _bareiss_det(rows, aux_var)


def resultant_uni(a: UniPoly, b: UniPoly) -> Fraction:
    """Resultant of two univariate polynomials, as an exact rational."""
    res = resultant_x(BiPoly.from_unipoly_x(a), BiPoly.from_unipoly_x(b))
    return res.constant_value()


# -- bivariate gcd -----------------------------------------------------------


def _content_x(p: BiPoly) -> UniPoly:
    """gcd over Q[x] of the y-coefficients."""
    g = UniPoly.zero()
    for c in p.y_coefficients():
        g = poly_gcd(g, c)
        if g.degree == 0:
            break
    return g


def _primitive_y(coeffs: list[UniPoly]) -> list[UniPoly]:
    """Divide out the UniPoly gcd of the y-coefficients."""
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    if not coeffs:
        return coeffs
    g = UniPoly.zero()
    for c in coeffs:
        g = poly_gcd(g, c)
        if g.degree == 0:
            break
    if g.degree > 0:
        coeffs = [c.exact_div(g) for c in coeffs]
    lc_scale = 1 / coeffs[-1].lc
    return [c * lc_scale for c in coeffs]


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

    The result is normalized so its lex-leading coefficient is 1.
    """
    if p.is_zero and q.is_zero:
        return BiPoly.zero()
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    cp, cq = _content_x(p), _content_x(q)
    cg = poly_gcd(cp, cq)
    a = _primitive_y([c.exact_div(cp) for c in p.y_coefficients()])
    b = _primitive_y([c.exact_div(cq) for c in q.y_coefficients()])
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _primitive_y(_pseudo_rem_y(a, b))
        a, b = b, r
    if len(b) == 1:
        g_prim = BiPoly.one()
    else:
        g_prim = BiPoly.of({(i, j): v for j, c in enumerate(a) for i, v in enumerate(c.coeffs)})
    return (BiPoly.from_unipoly_x(cg) * g_prim).monic()
