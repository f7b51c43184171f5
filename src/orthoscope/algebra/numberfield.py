"""Arithmetic in Q[x]/(q) for a monic irreducible modulus q.

Elements carry their modulus; irreducibility is a documented precondition
(the callers construct moduli from irreducible factorizations) and is not
re-verified per element. An inverse is poly_div_mod(1, rep, modulus); a
gcd that is not constant shows a reducible modulus and raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .unipoly import UniPoly, poly_div_mod


@dataclass(frozen=True)
class NFElement:
    """Residue class rep mod modulus, with deg(rep) < deg(modulus)."""

    rep: UniPoly
    modulus: UniPoly

    def __post_init__(self):
        mod = self.modulus
        if mod.degree < 1:
            raise ValueError("modulus must be nonconstant")
        if mod.cnum != 1 or mod.cden != mod.prim[-1]:    # not monic
            mod = mod.monic()
            object.__setattr__(self, "modulus", mod)
        if self.rep.degree >= mod.degree:
            object.__setattr__(self, "rep", self.rep % mod)

    def _check(self, other: "NFElement"):
        if self.modulus != other.modulus:
            raise ValueError("number field modulus mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElement(self.rep + other, self.modulus)
        self._check(other)
        return NFElement(self.rep + other.rep, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return NFElement(-self.rep, self.modulus)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElement(self.rep - other, self.modulus)
        self._check(other)
        return NFElement(self.rep - other.rep, self.modulus)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElement(self.rep * other, self.modulus)
        self._check(other)
        return NFElement(self.rep * other.rep, self.modulus)

    __rmul__ = __mul__

    def inverse(self) -> "NFElement":
        if self.rep.is_zero:
            raise ZeroDivisionError("inverse of zero in a number field")
        return NFElement(poly_div_mod(UniPoly.one(), self.rep, self.modulus), self.modulus)

    @property
    def is_rational(self) -> bool:
        return self.rep.is_constant

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"element is not rational: {self}")
        return self.rep.coeff(0)

    def trace(self) -> Fraction:
        """Field trace to Q via Newton power sums of the modulus roots."""
        k = int(self.modulus.degree)
        power_sums = _newton_power_sums(self.modulus, k - 1)
        return sum(
            (self.rep.coeff(j) * power_sums[j] for j in range(k)), Fraction(0)
        )

    def to_string(self) -> str:
        return f"root of {self.modulus}, component {self.rep}"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"NFElement({self.rep!s} mod {self.modulus!s})"


def _newton_power_sums(q: UniPoly, upto: int) -> list[Fraction]:
    """Power sums p_0..p_upto of the roots of monic q, by Newton's identities."""
    k = int(q.degree)
    e = [q.coeff(k - i) for i in range(k + 1)]  # e[i] = coeff of x^(k-i), signed below
    sums = [Fraction(k)]
    for j in range(1, upto + 1):
        acc = Fraction(0)
        for i in range(1, j):
            acc += (-1) ** (i - 1) * _elementary(e, i) * sums[j - i]
        acc += (-1) ** (j - 1) * Fraction(j) * _elementary(e, j)
        sums.append(acc)
    return sums


def _elementary(e: list[Fraction], i: int) -> Fraction:
    """Elementary symmetric function e_i from monic coefficients."""
    if i >= len(e):
        return Fraction(0)
    return (-1) ** i * e[i]
