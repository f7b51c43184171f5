"""Exact bivariate polynomials over the rationals, plus resultants.

A BiPoly is a sparse term map (i, j) -> coefficient for x^i * y^j. The
resultant here eliminates the primary variable from two BiPoly operands
via fraction-free Bareiss elimination on the Sylvester matrix, returning
a UniPoly in the secondary variable. This is the engine behind the
residue polynomial and the ratio-of-roots polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .unipoly import UniPoly, _frac, poly_gcd


@dataclass(frozen=True)
class BiPoly:
    """Sparse bivariate polynomial; no zero coefficients stored."""

    terms: dict[tuple[int, int], Fraction]
    xvar: str = "x"
    yvar: str = "y"

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.terms.items():
            c = _frac(c)
            if c != 0:
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly({})

    @staticmethod
    def one() -> "BiPoly":
        return BiPoly({(0, 0): Fraction(1)})

    @staticmethod
    def constant(c) -> "BiPoly":
        return BiPoly({(0, 0): _frac(c)})

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly({(1, 0): Fraction(1)})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly({(0, 1): Fraction(1)})

    @staticmethod
    def of(terms: Mapping[tuple[int, int], object]) -> "BiPoly":
        return BiPoly({k: _frac(v) for k, v in terms.items()})

    @staticmethod
    def from_unipoly_x(p: UniPoly) -> "BiPoly":
        return BiPoly({(k, 0): c for k, c in enumerate(p.coeffs)})

    @staticmethod
    def from_unipoly_y(p: UniPoly) -> "BiPoly":
        return BiPoly({(0, k): c for k, c in enumerate(p.coeffs)})

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((0, 0), Fraction(0))

    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def coeff(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def is_y_free(self) -> bool:
        return all(j == 0 for _, j in self.terms)

    def is_x_free(self) -> bool:
        return all(i == 0 for i, _ in self.terms)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "BiPoly":
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, UniPoly):
            return BiPoly.from_unipoly_x(other)
        return BiPoly.constant(_frac(other))

    def __add__(self, other) -> "BiPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "BiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "BiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            return BiPoly({k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return BiPoly(out)

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
        if variable == self.xvar or variable == "x":
            return BiPoly({(i - 1, j): c * i for (i, j), c in self.terms.items() if i})
        if variable == self.yvar or variable == "y":
            return BiPoly({(i, j - 1): c * j for (i, j), c in self.terms.items() if j})
        raise ValueError(f"unknown variable {variable!r}")

    def subst_y(self, value) -> "UniPoly":
        """Substitute a rational constant for y; result is univariate in x."""
        value = _frac(value)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            out[i] = out.get(i, Fraction(0)) + c * value**j
        n = max(out, default=-1) + 1
        return UniPoly.of((out.get(k, 0) for k in range(n)), self.xvar)

    def subst_x(self, value) -> "UniPoly":
        value = _frac(value)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            out[j] = out.get(j, Fraction(0)) + c * value**i
        n = max(out, default=-1) + 1
        return UniPoly.of((out.get(k, 0) for k in range(n)), self.yvar)

    def eval(self, xval, yval) -> Fraction:
        acc = Fraction(0)
        xval, yval = _frac(xval), _frac(yval)
        for (i, j), c in self.terms.items():
            acc += c * xval**i * yval**j
        return acc

    def compose_affine(self, ax, bx, ay) -> "BiPoly":
        """Substitute x -> ax*x + bx and y -> ay*y (invariant-line-preserving)."""
        xo = BiPoly({(1, 0): _frac(ax), (0, 0): _frac(bx)})
        yo = BiPoly({(0, 1): _frac(ay)})
        acc = BiPoly.zero()
        for (i, j), c in self.terms.items():
            acc = acc + BiPoly.constant(c) * xo**i * yo**j
        return acc

    def div_exact_y(self) -> "BiPoly":
        """Exact division by y; raises if y does not divide self."""
        if any(j == 0 for _, j in self.terms):
            raise ValueError("y does not divide this polynomial")
        return BiPoly({(i, j - 1): c for (i, j), c in self.terms.items()})

    def div_exact(self, other: "BiPoly") -> "BiPoly":
        """Exact division via lex-ordered long division; raises if inexact."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        quo: dict[tuple[int, int], Fraction] = {}
        lt_key = max(other.terms)  # lex order on (i, j)
        lt_c = other.terms[lt_key]
        while rem:
            k = max(rem)
            i, j = k[0] - lt_key[0], k[1] - lt_key[1]
            if i < 0 or j < 0:
                raise ValueError("inexact bivariate division")
            c = rem[k] / lt_c
            quo[(i, j)] = quo.get((i, j), Fraction(0)) + c
            for (oi, oj), oc in other.terms.items():
                kk = (oi + i, oj + j)
                nv = rem.get(kk, Fraction(0)) - c * oc
                if nv == 0:
                    rem.pop(kk, None)
                else:
                    rem[kk] = nv
        return BiPoly(quo)

    # -- views ----------------------------------------------------------

    def y_coefficients(self) -> list[UniPoly]:
        """Coefficients as polynomials in x, indexed by the power of y."""
        dy = self.degree_y()
        rows: list[dict[int, Fraction]] = [dict() for _ in range(dy + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
        out = []
        for row in rows:
            n = max(row, default=-1) + 1
            out.append(UniPoly.of((row.get(k, 0) for k in range(n)), self.xvar))
        return out

    def x_coefficients(self, aux_var: str = "t") -> list[UniPoly]:
        """Coefficients as polynomials in the secondary variable, indexed by x power."""
        dx = self.degree_x()
        rows: list[dict[int, Fraction]] = [dict() for _ in range(dx + 1)]
        for (i, j), c in self.terms.items():
            rows[i][j] = c
        out = []
        for row in rows:
            n = max(row, default=-1) + 1
            out.append(UniPoly.of((row.get(k, 0) for k in range(n)), aux_var))
        return out

    # -- printing ---------------------------------------------------------

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
        parts: list[str] = []
        for i, j in keys:
            c = self.terms[(i, j)]
            mag = abs(c)
            factors = []
            if i:
                factors.append(self.xvar if i == 1 else f"{self.xvar}^{i}")
            if j:
                factors.append(self.yvar if j == 1 else f"{self.yvar}^{j}")
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


def bipoly_partial(p: BiPoly, variable: str) -> BiPoly:
    return p.partial(variable)


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
    g = UniPoly.zero(p.xvar)
    for c in p.y_coefficients():
        g = poly_gcd(g, c)
        if g.degree == 0:
            break
    return g


def _divide_by_unipoly_x(p: BiPoly, d: UniPoly) -> BiPoly:
    out = BiPoly.zero()
    for j, c in enumerate(p.y_coefficients()):
        q = c.exact_div(d)
        out = out + BiPoly({(i, j): v for i, v in enumerate(q.coeffs)})
    return out


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
        return _normalize_gcd(q)
    if q.is_zero:
        return _normalize_gcd(p)
    cp, cq = _content_x(p), _content_x(q)
    pp, qq = _divide_by_unipoly_x(p, cp), _divide_by_unipoly_x(q, cq)
    cg = poly_gcd(cp, cq)
    a = _primitive_y(pp.y_coefficients())
    b = _primitive_y(qq.y_coefficients())
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _primitive_y(_pseudo_rem_y(a, b))
        a, b = b, r
    if len(b) == 1:
        g_prim = BiPoly.one()
    else:
        g_prim = BiPoly.zero()
        for j, c in enumerate(a):
            g_prim = g_prim + BiPoly({(i, j): v for i, v in enumerate(c.coeffs)})
    return _normalize_gcd(BiPoly.from_unipoly_x(cg) * g_prim)


def _normalize_gcd(g: BiPoly) -> BiPoly:
    """Scale by a rational unit so the lex-leading coefficient is 1."""
    if g.is_zero:
        return g
    lt = max(g.terms)
    return g * (1 / g.terms[lt])
