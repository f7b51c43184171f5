import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from orthoscope import NEG_INF, BiPoly, UniPoly, poly_gcd, poly_xgcd, resultant_x, squarefree_decompose

from conftest import assert_canonical, compose_affine, expand, frac, random_unipoly, record_calls


class TestArithmetic:
    def test_degree_sentinel_is_total(self, x):
        zero = UniPoly.zero()
        assert zero.degree == NEG_INF
        assert zero.degree < 0 and zero.degree < x.degree
        assert (x - x).degree == NEG_INF

    def test_leading_coefficient_never_zero(self, x):
        p = UniPoly.of([1, 2, 0, 0])
        assert p.degree == 1 and p.lc == 2

    def test_divmod_roundtrip(self, x):
        a = 3 * x**5 - x**3 + 7
        b = 2 * x**2 + x - 1
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_division_by_zero_rejected(self, x):
        with pytest.raises(ZeroDivisionError):
            divmod(x, UniPoly.zero())

    def test_constant_operand_skips_the_convolution(self, x, monkeypatch):
        # a nonzero constant's primitive part is (1,): a product by one is a
        # product of the contents, and keeps the other primitive part
        from orthoscope.algebra import unipoly

        p = (3 * x**2 - x + Fraction(1, 2)) * Fraction(4, 9)
        scalars = [1, Fraction(-7, 3), 5]
        want = [UniPoly.of([c * v for v in p.coeffs]) for c in scalars]
        calls = record_calls(monkeypatch, unipoly._conv)
        for c, product in zip(scalars, want):
            constant = UniPoly.constant(c)
            assert assert_canonical(p * constant) == product
            assert assert_canonical(constant * p) == product
            assert (constant * constant).prim == (1,)
        assert calls == []
        assert p * x == UniPoly.of((0,) + p.coeffs) and len(calls) == 1

    def test_compose_affine(self, x):
        p = x**2 - x
        assert compose_affine(p, 2, 3) == (2 * x + 3) ** 2 - (2 * x + 3)

    def test_eval_matches_horner_over_coeffs(self):
        # oracle: Horner's rule on the rational coefficients
        def horner(p, value):
            acc = Fraction(0)
            for c in reversed(p.coeffs):
                acc = acc * value + c
            return acc

        rng = random.Random(4041)
        polys = [UniPoly.zero(), UniPoly.one(), UniPoly.constant(Fraction(-7, 3))]
        for _ in range(60):
            deg = rng.randint(0, 9)
            polys.append(UniPoly.of(Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                                    for _ in range(deg + 1)))
        points = [0, 1, -1, 5, -12, Fraction(1, 2), Fraction(-7, 3), Fraction(22, 9),
                  Fraction(-1, 1000)]
        for p in polys:
            for point in points:
                got = p.eval(point)
                assert type(got) is Fraction and got == horner(p, point), (p, point)

    def test_power_multiplication_count(self):
        # repeated squaring takes bit_length - 1 squarings and popcount
        # products into the result, with no squaring after the top bit
        from orthoscope.algebra.unipoly import _power

        @dataclass(frozen=True)
        class Exponent:
            """The ring of the powers of a formal generator, written additively."""
            k: int

            def __mul__(self, other):
                products.append(None)
                return Exponent(self.k + other.k)

        for n in (1, 2, 3, 7, 8, 1000, 1023, 1024):
            products = []
            assert _power(Exponent(1), n, Exponent(0)) == Exponent(n)
            assert len(products) == n.bit_length() - 1 + bin(n).count("1"), n
        products = []
        assert _power(Exponent(1), 0, Exponent(0)) == Exponent(0) and products == []

    def test_two_term_powers_match_repeated_squaring(self, x):
        # the binomial expansion of (a*x^j + b*x^i)^n against _power, the
        # repeated squaring every other base takes
        from orthoscope.algebra.unipoly import _power

        rng = random.Random(5054)
        cases = [(x - 1, 0), (x + 1, 1), (2 * x - 3, 2), (x**2 - 5, 3),
                 (Fraction(-2, 3) * x**7 + Fraction(5, 4) * x**3, 3)]
        drawn = set()
        while len(cases) < 520:
            bits = rng.choice([1, 1, 8, 200])
            i = rng.choice([0, 0, rng.randint(1, 4)])     # x^i * (a*x^k + b)
            j = i + rng.choice([1, 1, rng.randint(2, 4)])
            a, b = (rng.choice([-1, 1]) * rng.randint(1, 2**bits) for _ in "ab")
            content = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 40))
            if rng.random() < 0.6:
                n = rng.randint(0, 3)
            else:
                n = rng.randint(4, 300 if bits == 1 and j == 1 else 40)
            drawn |= {("bits", bits), ("gap", i > 0), ("fractional", content.denominator > 1),
                      ("sign", (a > 0, b > 0)), ("n", min(n, 4)), ("n > 100", n > 100)}
            cases.append((content * (a * x**j + b * x**i), n))
        for p, n in cases:
            got = p**n
            assert got == _power(p, n, UniPoly.one()), (p, n)
            assert_canonical(got)
        assert drawn >= {("bits", 1), ("bits", 8), ("bits", 200), ("gap", True),
                         ("fractional", True), ("n", 0), ("n", 1), ("n", 2), ("n", 3),
                         ("n > 100", True)}
        assert {d for d in drawn if d[0] == "sign"} == {("sign", (s, t)) for s in (True, False)
                                                      for t in (True, False)}
        with pytest.raises(ValueError, match="negative power"):
            (x - 1) ** -1

    def test_antiderivative_inverts_derivative(self, x):
        p = Fraction(1, 3) * x**4 - 2 * x + 5
        assert p.antiderivative().derivative() == p

    def test_string_forms(self, x):
        assert (x**2 - Fraction(1, 2) * x - 3).to_string() == "x^2 - 1/2*x - 3"
        assert UniPoly.zero().to_string() == "0"


class TestGcd:
    def test_shared_linear_factor(self, x):
        assert poly_gcd(x**2 - 1, x**2 - 2 * x + 1) == x - 1

    def test_gcd_with_zero_is_monic(self, x):
        assert poly_gcd(3 * x + 6, UniPoly.zero()) == x + 2
        assert poly_gcd(UniPoly.zero(), UniPoly.zero()).is_zero

    def test_coprime_cubic_quadratic(self, x):
        # no common root: the resultant is nonzero (independent check)
        res = resultant_x(BiPoly.from_unipoly_x(x**3 - 2), BiPoly.from_unipoly_x(x**2 - 2))
        assert res.constant_value() != 0
        assert poly_gcd(x**3 - 2, x**2 - 2) == UniPoly.one()

    def test_xgcd_identity(self, x):
        for a, b in [(x**2 - 2, x), (x**4 - 1, x**2 + x), (x**3, x**2)]:
            g, s, t = poly_xgcd(a, b)
            assert s * a + t * b == g

    def test_common_factor_divides_gcd_randomly(self):
        rng = random.Random(42)
        for _ in range(120):
            p = random_unipoly(rng, 8)
            q = random_unipoly(rng, 8)
            r = random_unipoly(rng, 4, nonzero=True)
            if p.is_zero and q.is_zero:
                continue
            g = poly_gcd(p * r, q * r)
            assert (g % r.monic()).is_zero


class TestTaylorShift:
    def test_matches_composition(self):
        rng = random.Random(2034)
        for _ in range(200):
            p = random_unipoly(rng, 12, -50, 50) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            c = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            assert p.taylor_shift(c) == compose_affine(p, 1, c)
            assert p.taylor_shift(c).taylor_shift(-c) == p


class TestSquarefree:
    def test_factored_input(self, x):
        sf = squarefree_decompose(x**3 * (x - 1))
        assert sf.content == 1
        assert set((f.to_string(), m) for f, m in sf.parts) == {("x", 3), ("x - 1", 1)}

    def test_squarefree_input_passes_through(self, x):
        sf = squarefree_decompose(x**2 - 2)
        assert [(f, m) for f, m in sf.parts] == [(x**2 - 2, 1)]

    def test_hidden_square(self, x):
        sf = squarefree_decompose(x**4 - 2 * x**2 + 1)
        assert [(f, m) for f, m in sf.parts] == [(x**2 - 1, 2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decompose(UniPoly.zero())

    def test_multiplicity_gaps(self, x):
        # Yun's loop meets gcd 1 at every multiplicity without a factor
        p = 3 * (x - 2) * (x**2 + 1) ** 4 * (x + Fraction(1, 3)) ** 9
        sf = squarefree_decompose(p)
        assert sf.parts == ((x - 2, 1), (x**2 + 1, 4), (x + Fraction(1, 3), 9))
        assert expand(sf) == p

    def test_gap_ends_the_loop_without_more_gcds(self, x, monkeypatch):
        # once every remaining root has one multiplicity m, d = (m - i)*b'
        # at pass i, so the passes up to m take no gcd
        from orthoscope.algebra import unipoly

        calls = record_calls(monkeypatch, unipoly.poly_gcd)
        for e in range(2, 23):
            calls.clear()
            p = (x - Fraction(3, 2)) ** e * (x + 2)
            assert squarefree_decompose(p).parts == ((x + 2, 1), (x - Fraction(3, 2), e))
            assert len(calls) == 2, e
        for p, parts in (((x**2 + 1) * (x - 1), ((x**3 - x**2 + x - 1, 1),)),
                         ((x**2 - 2) ** 7, ((x**2 - 2, 7),))):
            calls.clear()
            assert squarefree_decompose(p).parts == parts
            assert len(calls) == 1

    def test_roundtrip_bit_exact_500(self):
        rng = random.Random(2024)
        for _ in range(500):
            p = UniPoly.constant(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            for _ in range(rng.randint(1, 3)):
                base = random_unipoly(rng, 3, lo=-4, hi=4, nonzero=True)
                if base.degree < 1:
                    continue
                p = p * base ** rng.randint(1, 3)
            if p.degree < 1:
                continue
            assert expand(squarefree_decompose(p)) == p


# -- Fraction oracle ------------------------------------------------------
#
# The dense Fraction-tuple core that UniPoly used before it stored a content
# times a primitive integer part. The method bodies and the gcd machinery
# are kept as they were; the new core must give equal coefficient tuples.


def _trim(coeffs) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class FracPoly:
    coeffs: tuple

    def __post_init__(self):
        trimmed = _trim([frac(c) for c in self.coeffs])
        object.__setattr__(self, "coeffs", trimmed)

    @staticmethod
    def of(values) -> "FracPoly":
        return FracPoly(tuple(frac(v) for v in values))

    @staticmethod
    def zero() -> "FracPoly":
        return FracPoly(())

    @staticmethod
    def constant(c) -> "FracPoly":
        return FracPoly((frac(c),))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _coerce(self, other) -> "FracPoly":
        if isinstance(other, FracPoly):
            return other
        return FracPoly.constant(frac(other))

    def __add__(self, other) -> "FracPoly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FracPoly(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __mul__(self, other) -> "FracPoly":
        if isinstance(other, (int, Fraction)):
            return FracPoly(tuple(c * other for c in self.coeffs))
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return FracPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FracPoly(tuple(out))

    def __divmod__(self, other) -> tuple:
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
        return FracPoly(tuple(q)), FracPoly(tuple(rem))

    def derivative(self) -> "FracPoly":
        return FracPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def monic(self) -> "FracPoly":
        if self.is_zero:
            return self
        inv = 1 / self.coeffs[-1]
        return FracPoly(tuple(c * inv for c in self.coeffs))

    def primitive_int(self) -> tuple:
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


def _int_degree(p: list) -> int:
    return len(p) - 1


def _int_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _int_primitive(p: list) -> list:
    g = 0
    for v in p:
        g = math.gcd(g, abs(v))
    if g == 0:
        return p
    if p[-1] < 0:
        g = -g
    return [v // g for v in p]


def _int_pseudo_rem(a: list, b: list) -> list:
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


def frac_gcd(a: FracPoly, b: FracPoly) -> FracPoly:
    if a.is_zero and b.is_zero:
        return FracPoly.zero()
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
    return FracPoly.of(pa).monic()


def _random_coeffs(rng: random.Random) -> list:
    """Zero, constant or up to degree 60; small, fractional or 100-bit entries;
    leading coefficient of either sign and rarely a unit."""
    shape = rng.random()
    if shape < 0.05:
        return []
    deg = 0 if shape < 0.15 else rng.choice([rng.randint(1, 8), rng.randint(1, 60)])
    size = rng.choice(["int", "frac", "wide"]) if deg <= 30 else rng.choice(["int", "frac"])

    def draw() -> Fraction:
        if size == "int":
            return Fraction(rng.randint(-9, 9))
        if size == "frac":
            return Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        return Fraction(rng.getrandbits(100) - 2**99, rng.getrandbits(100) | 1)

    coeffs = [draw() if rng.random() < 0.8 else Fraction(0) for _ in range(deg)]
    lead = draw()
    while lead == 0:
        lead = draw()
    return coeffs + [lead]


def _seeded_pairs(count: int = 320):
    rng = random.Random(4040)
    for _ in range(count):
        a, b = _random_coeffs(rng), _random_coeffs(rng)
        if rng.random() < 0.2 and b:
            b = [Fraction(v) for v in rng.choices(range(-5, 6), k=len(b) - 1)] + [1]
        yield a, b


class TestFractionOracle:
    def test_core_matches_fraction_loops(self):
        # the pseudo-division scale s = 2 shares a prime with the content 2
        pairs = list(_seeded_pairs()) + [([2, 0, 2], [1, 2])]
        assert len(pairs) >= 300
        degrees, seen = set(), set()
        canon = assert_canonical
        for a, b in pairs:
            pa, pb = UniPoly.of(a), UniPoly.of(b)
            fa, fb = FracPoly.of(a), FracPoly.of(b)
            degrees.add(len(fa.coeffs) - 1)
            if a:
                seen.add("negative lc" if a[-1] < 0 else "positive lc")
                seen.add("integer-unit divisor" if pa.prim[-1] == 1 else "other divisor")
                if max(abs(c.numerator) for c in a) >= 2**90:
                    seen.add("100-bit")
            assert canon(pa).coeffs == fa.coeffs
            assert canon(pa + pb).coeffs == (fa + fb).coeffs
            assert canon(pa * pb).coeffs == (fa * fb).coeffs
            assert canon(pa.monic()).coeffs == fa.monic().coeffs
            assert canon(pa.derivative()).coeffs == fa.derivative().coeffs
            if not fb.is_zero:
                q, r = divmod(pa, pb)
                fq, fr = divmod(fa, fb)
                assert (canon(q).coeffs, canon(r).coeffs) == (fq.coeffs, fr.coeffs)
            if max(len(a), len(b)) <= 21:
                assert canon(poly_gcd(pa, pb)).coeffs == frac_gcd(fa, fb).coeffs
        assert {-1, 0, 60} <= degrees
        assert seen == {"negative lc", "positive lc", "integer-unit divisor",
                        "other divisor", "100-bit"}

    def test_gcd_with_planted_common_factor(self):
        rng = random.Random(4041)
        for _ in range(40):
            c = _random_coeffs(rng)[:12] or [Fraction(1)]
            a, b = _random_coeffs(rng)[:10], _random_coeffs(rng)[:10]
            pc, fc = UniPoly.of(c), FracPoly.of(c)
            pa, pb = UniPoly.of(a) * pc, UniPoly.of(b) * pc
            fa, fb = FracPoly.of(a) * fc, FracPoly.of(b) * fc
            assert poly_gcd(pa, pb).coeffs == frac_gcd(fa, fb).coeffs

    def test_hash_and_equality_follow_coefficients(self):
        polys = [UniPoly.of(a) for a, _ in _seeded_pairs(120)]
        for p in polys:
            others = [
                UniPoly.of(p.coeffs),
                -(-p),
                p * 3 * Fraction(1, 3),
                p + UniPoly.zero() if not p.is_zero else UniPoly.zero(),
                UniPoly.of(list(p.coeffs) + [0, 0]),
                sum((UniPoly.variable() ** k * c for k, c in enumerate(p.coeffs)),
                    UniPoly.zero()),
            ]
            if not p.is_zero:
                others.append(p.monic() * p.lc)
                divisor = UniPoly.of([Fraction(2, 3), -5, Fraction(7, 2)])
                others.append((p * divisor).exact_div(divisor))
            for q in others:
                assert q == p and hash(q) == hash(p)
                assert (q.content, q.prim) == (p.content, p.prim)
        for p, q in zip(polys, polys[1:]):
            assert (p == q) == (p.coeffs == q.coeffs)
            if p == q:
                assert hash(p) == hash(q)
