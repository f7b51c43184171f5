import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import pytest

from orthoscope import BiPoly, UniPoly, bipoly_gcd
from orthoscope.algebra.bipoly import resultant_x

from conftest import assert_canonical as uni_canonical, frac, random_unipoly


def bp(terms):
    return BiPoly.of(terms)


class TestPartials:
    def test_quadratic_fiber_coefficient(self):
        g = bp({(1, 1): 1, (0, 2): Fraction(1, 2)})   # xy + y^2/2
        assert g.partial("y") == bp({(1, 0): 1, (0, 1): 1})  # x + y

    def test_partial_of_constant(self):
        assert BiPoly.constant(7).partial("x").is_zero

    def test_partial_without_dependence(self):
        p = BiPoly.from_unipoly_x(UniPoly.of([0, 0, 0, -1, 1]))  # x^3(x-1)
        assert p.partial("y").is_zero


def x_only(p: UniPoly) -> BiPoly:
    return BiPoly.from_unipoly_x(p)


class TestResultant:
    def test_quadratic_against_linear(self, x):
        assert resultant_x(x_only(x**2 - 2), x_only(x)).constant_value() == -2

    def test_common_root_gives_zero(self, x):
        assert resultant_x(x_only(x - 5), x_only(x - 5)).is_zero

    def test_residue_shape(self, x):
        # Res_x(x(x-1), 1 - t(2x-1)) has roots at the residues -1, 1
        a = BiPoly.from_unipoly_x(x * (x - 1))
        b = bp({(0, 0): 1}) - bp({(0, 1): 1}) * BiPoly.from_unipoly_x(2 * x - 1)
        rho = resultant_x(a, b)
        assert rho.monic() == UniPoly.of([-1, 0, 1])

    def test_constant_convention(self):
        assert resultant_x(BiPoly.constant(3), BiPoly.constant(5)).constant_value() == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resultant_x(BiPoly.zero(), BiPoly.one())

    def test_zero_iff_common_factor(self):
        rng = random.Random(8)
        for _ in range(40):
            a = random_unipoly(rng, 3, nonzero=True)
            b = random_unipoly(rng, 3, nonzero=True)
            shared = random_unipoly(rng, 2, nonzero=True)
            if a.degree < 1 or b.degree < 1 or shared.degree < 1:
                continue
            res = resultant_x(x_only(a), x_only(b)).constant_value()
            from orthoscope import poly_gcd

            assert (res == 0) == (poly_gcd(a, b).degree > 0)
            # planted common factor forces a zero resultant
            assert resultant_x(x_only(a * shared), x_only(b * shared)).is_zero

    def test_zero_iff_specialized_gcd_nonconstant(self):
        # bivariate inputs: the resultant in t vanishes at t0 exactly when the
        # specialized polynomials acquire a common factor
        from fractions import Fraction as F

        from orthoscope import poly_gcd

        rng = random.Random(81)
        for _ in range(25):
            def rand_bi():
                terms = {}
                for _ in range(rng.randint(2, 4)):
                    terms[(rng.randint(0, 2), rng.randint(0, 1))] = rng.randint(-3, 3)
                terms[(rng.randint(1, 2), 0)] = rng.choice([1, 2])
                return BiPoly.of(terms)

            a, b = rand_bi(), rand_bi()
            shared = rand_bi()
            res = resultant_x(a, b)
            for t0 in (F(0), F(1), F(-2), F(1, 2), F(3)):
                a0, b0 = a.subst_y(t0), b.subst_y(t0)
                if (a0.degree != len(a.x_coefficients()) - 1
                        or b0.degree != len(b.x_coefficients()) - 1):
                    continue  # leading coefficient degenerated at t0
                if a0.is_zero or b0.is_zero:
                    continue
                assert (res.eval(t0) == 0) == (poly_gcd(a0, b0).degree > 0)
            # a planted common factor makes the resultant vanish identically
            if len(shared.x_coefficients()) > 1:
                assert resultant_x(a * shared, b * shared).is_zero


class TestExactDivision:
    def test_divides(self):
        p = bp({(1, 1): 1, (0, 2): Fraction(1, 2)})
        q = p * bp({(2, 0): 1, (0, 1): 3})
        assert q.exact_div(p) == bp({(2, 0): 1, (0, 1): 3})

    def test_inexact_rejected(self):
        with pytest.raises(ValueError):
            bp({(1, 0): 1, (0, 0): 1}).exact_div(bp({(0, 1): 1}))

    def test_divide_by_y(self):
        assert bp({(1, 1): 1, (0, 2): Fraction(1, 2)}).div_exact_y() == bp(
            {(1, 0): 1, (0, 1): Fraction(1, 2)}
        )
        with pytest.raises(ValueError):
            bp({(1, 0): 1}).div_exact_y()


class TestBivariateGcd:
    def test_shared_mixed_factor(self):
        shared = bp({(1, 1): 1, (0, 0): 1})      # xy + 1
        p = shared * bp({(1, 0): 1})
        q = shared * bp({(0, 1): 1, (1, 0): 2})
        g = bipoly_gcd(p, q)
        assert g == shared  # normalized with unit leading coefficient

    def test_content_only(self):
        cx = bp({(2, 0): 1, (0, 0): -1})          # x^2 - 1, y-free
        p = cx * bp({(0, 1): 1})
        q = cx * bp({(0, 2): 1, (0, 0): 5})
        assert bipoly_gcd(p, q) == cx

    def test_coprime(self):
        assert bipoly_gcd(bp({(1, 0): 1}), bp({(0, 1): 1, (0, 0): 1})).is_constant

    def test_random_products(self):
        rng = random.Random(12)
        for _ in range(30):
            def tiny():
                return bp({
                    (rng.randint(0, 1), rng.randint(0, 1)): rng.randint(1, 3),
                    (0, 0): rng.randint(-2, 2),
                })
            shared, a, b = tiny(), tiny(), tiny()
            if shared.is_constant or shared.is_zero or a.is_zero or b.is_zero:
                continue
            g = bipoly_gcd(shared * a, shared * b)
            # the planted factor divides the gcd
            assert g.exact_div(bipoly_gcd(g, shared)) is not None
            (shared * a).exact_div(bipoly_gcd(g, shared))  # raises if not a divisor


# -- Fraction-dict oracle ------------------------------------------------------


@dataclass(frozen=True)
class FracBiPoly:
    """The Fraction-dict BiPoly that the integer core is checked against."""

    terms: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.terms.items():
            c = frac(c)
            if c != 0:
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def one() -> "FracBiPoly":
        return FracBiPoly({(0, 0): Fraction(1)})

    @staticmethod
    def constant(c) -> "FracBiPoly":
        return FracBiPoly({(0, 0): frac(c)})

    @staticmethod
    def of(terms: Mapping[tuple[int, int], object]) -> "FracBiPoly":
        return FracBiPoly({k: frac(v) for k, v in terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def _coerce(self, other) -> "FracBiPoly":
        if isinstance(other, FracBiPoly):
            return other
        return FracBiPoly.constant(frac(other))

    def __add__(self, other) -> "FracBiPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return FracBiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "FracBiPoly":
        return FracBiPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "FracBiPoly":
        if isinstance(other, (int, Fraction)):
            return FracBiPoly({k: c * other for k, c in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return FracBiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FracBiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = FracBiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def partial(self, variable: str) -> "FracBiPoly":
        """Formal partial derivative with respect to 'x' or 'y'."""
        if variable == "x":
            return FracBiPoly({(i - 1, j): c * i for (i, j), c in self.terms.items() if i})
        if variable == "y":
            return FracBiPoly({(i, j - 1): c * j for (i, j), c in self.terms.items() if j})
        raise ValueError(f"unknown variable {variable!r}")

    def subst_y(self, value) -> "UniPoly":
        """Substitute a rational constant for y; result is univariate in x."""
        value = frac(value)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            out[i] = out.get(i, Fraction(0)) + c * value**j
        n = max(out, default=-1) + 1
        return UniPoly.of((out.get(k, 0) for k in range(n)))

    def exact_div(self, other: "FracBiPoly") -> "FracBiPoly":
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
        return FracBiPoly(quo)

    def y_coefficients(self) -> list[UniPoly]:
        """Coefficients as polynomials in x, indexed by the power of y."""
        dy = self.degree_y()
        rows: list[dict[int, Fraction]] = [dict() for _ in range(dy + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
        out = []
        for row in rows:
            n = max(row, default=-1) + 1
            out.append(UniPoly.of((row.get(k, 0) for k in range(n))))
        return out


def _random_terms(rng: random.Random) -> dict:
    """Zero, a constant, or up to 12 terms of degree at most (8, 4); small,
    fractional or 100-bit entries. Zero entries are kept, as a caller may
    pass them."""
    shape = rng.random()
    if shape < 0.05:
        return {}
    size = rng.choice(["int", "frac", "wide"])

    def draw() -> Fraction:
        if size == "int":
            return Fraction(rng.randint(-9, 9))
        if size == "frac":
            return Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        return Fraction(rng.getrandbits(100) - 2**99, rng.getrandbits(100) | 1)

    if shape < 0.15:
        return {(0, 0): draw()}
    return {(rng.randint(0, 8), rng.randint(0, 4)): draw() for _ in range(rng.randint(1, 12))}


def _seeded_pairs(count: int = 320):
    """Random pairs, plus pairs whose sum or product cancels terms: b = -a
    plus a few terms, and (u + v, u - v), whose product drops the u*v terms."""
    rng = random.Random(5050)
    for n in range(count):
        a, b = _random_terms(rng), _random_terms(rng)
        if n % 5 == 1:
            b = {k: -c for k, c in a.items()}
            b.update(_random_terms(rng) if rng.random() < 0.7 else {})
        elif n % 5 == 2:
            u, v = FracBiPoly.of(a), FracBiPoly.of(b)
            a, b = (u + v).terms, (u + -v).terms
        yield a, b


def _outcome(f):
    try:
        return f()
    except ValueError as exc:
        return str(exc)


def assert_bi_canonical(p: BiPoly) -> BiPoly:
    """p is in canonical form: an int content pair in lowest terms with a
    positive denominator, and a primitive map of nonzero ints with a
    positive lex-leading entry, or 0/1 and {} for zero; so p equals the
    polynomial built afresh from its terms."""
    assert all(type(v) is int for v in (p.cnum, p.cden, *p.prim.values())), p
    if p.prim:
        assert p.cnum and p.cden > 0 and math.gcd(p.cnum, p.cden) == 1, p
        assert math.gcd(*p.prim.values()) == 1 and p.prim[max(p.prim)] > 0, p
        assert all(p.prim.values()), p
    else:
        assert (p.cnum, p.cden) == (0, 1)
    assert BiPoly.of(p.terms) == p
    return p


class TestFractionOracle:
    def test_core_matches_fraction_loops(self):
        # the content quotient 2/2 of (2*(x + y)*(x + 1)) / (2*(x + y)) reduces
        pairs = list(_seeded_pairs()) + [
            ({(2, 0): 2, (1, 0): 2, (1, 1): 2, (0, 1): 2}, {(1, 0): 2, (0, 1): 2})]
        assert len(pairs) >= 300
        rng = random.Random(5051)
        seen = set()
        canon = assert_bi_canonical
        for a, b in pairs:
            pa, pb = BiPoly.of(a), BiPoly.of(b)
            fa, fb = FracBiPoly.of(a), FracBiPoly.of(b)
            if fa.is_zero:
                seen.add("zero")
            elif set(fa.terms) == {(0, 0)}:
                seen.add("constant")
            else:
                seen.add("negative lc" if fa.terms[max(fa.terms)] < 0 else "positive lc")
            if any(abs(c.numerator) >= 2**90 and c.denominator >= 2**90
                   for c in fa.terms.values()):
                seen.add("100-bit")
            sum_ab, prod = fa + fb, fa * fb
            if len(sum_ab.terms) < len(set(fa.terms) | set(fb.terms)):
                seen.add("sum cancels")
            if len(prod.terms) < len({(i1 + i2, j1 + j2) for i1, j1 in fa.terms
                                      for i2, j2 in fb.terms}):
                seen.add("product cancels")
            assert canon(pa).terms == fa.terms
            assert canon(pa + pb).terms == sum_ab.terms
            assert canon(-pa).terms == (-fa).terms
            assert canon(pa * pb).terms == prod.terms
            scalar = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert canon(pa * scalar).terms == (fa * scalar).terms
            # a scalar sum or difference goes into the constant term in place
            assert canon(pa + scalar).terms == (fa + scalar).terms
            assert canon(pa - scalar).terms == (fa + -scalar).terms
            assert canon(scalar - pa).terms == (-fa + scalar).terms
            if len(fa.terms) <= 6:
                k = rng.randint(0, 3)
                assert canon(pa**k).terms == (fa**k).terms
            for var in "xy":
                assert canon(pa.partial(var)).terms == fa.partial(var).terms
            value = rng.choice([Fraction(0), Fraction(1), Fraction(-2, 3),
                                Fraction(rng.getrandbits(40) - 2**39, rng.getrandbits(40) | 1)])
            assert uni_canonical(pa.subst_y(value)) == fa.subst_y(value)
            assert [uni_canonical(c) for c in pa.y_coefficients()] == fa.y_coefficients()
            if not fb.is_zero:
                assert canon((pa * pb).exact_div(pb)).terms == prod.exact_div(fb).terms
                for num, fnum in ((pa, fa), (pa * pb + pa, prod + fa)):
                    got = _outcome(lambda: canon(num.exact_div(pb)).terms)
                    assert got == _outcome(lambda: fnum.exact_div(fb).terms)
        assert seen == {"zero", "constant", "negative lc", "positive lc", "100-bit",
                        "sum cancels", "product cancels"}

    def test_equality_follows_terms(self):
        polys = [BiPoly.of(a) for a, _ in _seeded_pairs(120)]
        divisor = BiPoly.of({(1, 1): Fraction(2, 3), (0, 0): -5, (2, 0): Fraction(7, 2)})
        for p in polys:
            others = [
                BiPoly.of(p.terms),
                BiPoly.of({**p.terms, (9, 9): 0}),
                -(-p),
                -BiPoly.of({k: -c for k, c in p.terms.items()}),
                p * 3 * Fraction(1, 3),
                p + BiPoly.zero(),
                sum((BiPoly.of({k: c}) for k, c in p.terms.items()), BiPoly.zero()),
                (p * divisor).exact_div(divisor),
                p.monic() * p.lc if not p.is_zero else p,
            ]
            for q in others:
                assert q == p
                assert (q.content, q.prim) == (p.content, p.prim)
        for p, q in zip(polys, polys[1:]):
            assert (p == q) == (p.terms == q.terms)
        assert BiPoly.of({(1, 0): 2}) != BiPoly.of({(0, 1): 2})



class TestIntContent:
    def test_ring_operations_form_no_fraction(self, monkeypatch):
        """Contents combine as int pairs: seeded sums, differences,
        products (with int and Fraction scalars too), quotients,
        derivatives, Taylor shifts, substitutions and powers of UniPolys and
        BiPolys construct no Fraction. Up to Python 3.11, Fraction
        arithmetic builds every result through Fraction.__new__, so the
        count sees it."""
        rng = random.Random(5054)
        unis = [UniPoly.of([Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                            for _ in range(rng.randint(1, 8))]) for _ in range(30)]
        binomial = BiPoly.of({(1, 0): Fraction(2, 3), (0, 1): -4})
        bis = [binomial] + [BiPoly.of(a) for a, _ in _seeded_pairs(60)]
        scalars = [0, 3, -7, Fraction(5, 6), Fraction(-4, 9)]
        assert any(p.cden > 1 for p in unis) and any(p.cden > 1 for p in bis)
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        for a, b in zip(unis, unis[1:]):
            c = rng.choice(scalars)
            a + b, a - b, a * b, -a, a * c, c * a, a + c, c - a
            a ** rng.randint(2, 3), a.derivative(), a.taylor_shift(c)
            if not b.is_zero:
                divmod(a, b), (a * b).exact_div(b)
        for a, b in zip(bis, bis[1:]):
            c = rng.choice(scalars)
            a + b, a - b, a * b, -a, a * c, c * a, a + c, c - a, a + unis[0]
            a ** rng.randint(2, 3), a.partial("x"), a.partial("y"), a.subst_y(c)
            a.y_coefficients()
            if not b.is_zero:
                (a * b).exact_div(b)
        monkeypatch.undo()
        assert made == []

def _repeated_squaring(p: BiPoly, n: int) -> BiPoly:
    result, base = BiPoly.one(), p
    while n:
        if n & 1:
            result = _product(result, base)
        n >>= 1
        if n:
            base = _product(base, base)
    return result


def _product(a: BiPoly, b: BiPoly) -> BiPoly:
    """a*b: by BiPoly's term loop, or, for two polynomials in x alone, as
    one product of big integers, the values of their primitive parts at
    2**k for k past the bits of any coefficient of the product (Kronecker
    substitution)."""
    if any(j for _, j in (*a.prim, *b.prim)):
        return a * b
    da, db = ([p.prim.get((i, 0), 0) for i in range(max(p.prim)[0] + 1)] for p in (a, b))
    k = (max(map(abs, da)) * max(map(abs, db)) * min(len(da), len(db))).bit_length() + 1
    va = _pack(da, k)
    coeffs = _unpack(va * (va if a is b else _pack(db, k)), k, len(da) + len(db) - 1)
    return BiPoly.of({(i, 0): v for i, v in enumerate(coeffs) if v}) * (a.content * b.content)


def _pack(coeffs: list[int], k: int) -> int:
    """The value at 2**k of the integer polynomial coeffs, lowest first."""
    if len(coeffs) == 1:
        return coeffs[0]
    h = len(coeffs) // 2
    return _pack(coeffs[:h], k) + (_pack(coeffs[h:], k) << (k * h))


def _unpack(value: int, k: int, count: int) -> list[int]:
    """The count coefficients, each below 2**(k - 1) in absolute value, of
    the integer polynomial whose value at 2**k is value."""
    if count == 1:
        return [value]
    h = count // 2
    low = value & ((1 << (k * h)) - 1)
    if low >> (k * h - 1):
        low -= 1 << (k * h)
    return _unpack(low, k, h) + _unpack((value - low) >> (k * h), k, count - h)


class TestBinomialPower:
    def test_two_term_powers_match_repeated_squaring(self):
        rng = random.Random(5053)
        cases = [(BiPoly.of({(1, 0): 1, (0, 0): Fraction(-9, 4)}), 1000),
                 (BiPoly.of({(1, 0): -3, (0, 0): 2}), 1000)]
        for _ in range(60):
            if rng.random() < 0.5:  # x-only
                keys = rng.sample([(i, 0) for i in range(6)], 2)
            else:
                keys = rng.sample([(i, j) for i in range(4) for j in range(3)], 2)
            coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 8))
                      for _ in keys]
            cases.append((BiPoly.of(dict(zip(keys, coeffs))), rng.randint(0, 40)))
        for p, n in cases:
            assert len(p.prim) == 2
            got = p**n
            assert got == _repeated_squaring(p, n), (p, n)
            assert got.prim[max(got.prim)] > 0
        assert {p.lc < 0 for p, _ in cases} == {True, False}

    def test_one_term_powers_match_repeated_squaring(self):
        # a one-term base is raised by its exponents, a constant among them
        rng = random.Random(5055)
        for _ in range(40):
            key = rng.choice([(0, 0), (1, 0), (0, 1), (rng.randint(0, 5), rng.randint(0, 5))])
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 8))
            p, n = BiPoly.of({key: c}), rng.randint(0, 12)
            got = p**n
            assert got == _repeated_squaring(p, n), (p, n)
            assert assert_bi_canonical(got).terms == {(key[0] * n, key[1] * n): c**n}


class TestCrossRing:
    def test_embedding_commutes_with_the_shared_members(self):
        """BiPoly.from_unipoly_x is a ring map that keeps contents, leading
        coefficients and printed forms: each member UniPoly and BiPoly share
        gives the same answer on either side of it. The reprs differ only in
        the class name."""
        rng = random.Random(2526)
        lift = BiPoly.from_unipoly_x
        scalars = [0, 3, Fraction(-4, 9)]
        polys = [UniPoly.zero(), UniPoly.constant(Fraction(-4, 9))]
        for _ in range(40):
            p = random_unipoly(rng, 5) * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            i = rng.randint(0, 3)
            two_term = UniPoly.of([0] * i + [rng.randint(-9, 9) or 1] + [0] * rng.randint(0, 2)
                                  + [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))])
            polys += [p, two_term]
        assert sum(1 for p in polys if len(p.prim) - p.prim.count(0) == 2) >= 40
        for p, q in zip(polys, polys[1:] + polys[:1]):
            a, b = lift(p), lift(q)
            assert a + b == lift(p + q) == a + q == q + a
            assert a - b == lift(p - q) == a - q and q - a == lift(q - p)
            assert a * b == lift(p * q) == a * q == q * a
            assert -a == lift(-p)
            for c in scalars:
                assert a * c == c * a == lift(p * c) and a + c == lift(p + c)
                assert c - a == lift(c - p)
            n = rng.randint(0, 6)
            assert a**n == lift(p**n)
            assert a.monic() == lift(p.monic())
            assert (a.lc, a.content) == (p.lc, p.content)
            assert str(a) == str(p)
            assert repr(a).removeprefix("BiPoly") == repr(p).removeprefix("UniPoly")
        for c in scalars:
            constant = UniPoly.constant(c)
            assert lift(constant).constant_value() == c == constant.constant_value()
        with pytest.raises(ValueError, match="not a constant"):
            lift(UniPoly.variable()).constant_value()
