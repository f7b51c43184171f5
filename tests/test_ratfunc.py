import math
import random
from fractions import Fraction

import numpy as np
import pytest

from orthoscope import (
    INTEGER,
    RATIONAL,
    BiPoly,
    BiRatFunc,
    NFElement,
    RatFunc,
    UniPoly,
    dlog_witness,
    factor_rationals,
    hermite_reduce,
    pole_spectrum,
    poly_gcd,
    ratio_all_rational,
    spectrum_and_remainder,
    squarefree_decompose,
)
from orthoscope.algebra.bipoly import resultant_x
from orthoscope.algebra.unipoly import poly_xgcd
from orthoscope.ratfunc import (
    REASON_IMPROPER_AT_INFINITY,
    REASON_MULTIPLE_POLE,
    REASON_NON_CLASS_RESIDUE,
    WITNESS_DERIVATIVE,
    WITNESS_DLOG,
    WitnessData,
    _linear_laurent,
    _split_partial,
    exact_derivative_part,
    residue_polynomial,
)
from orthoscope.criteria import base_orthogonal
from orthoscope.errors import WitnessVerificationError

from conftest import (
    compose_affine,
    random_proper_ratfunc,
    random_squarefree_denominator,
    random_unipoly,
    record_calls,
)
from oracles import derivative, dlog


def charpoly_oracle(elem, degree: int) -> UniPoly:
    """Characteristic polynomial via Faddeev-LeVerrier on the multiplication
    matrix, an independent path from the resultant-based production code."""
    from fractions import Fraction as F

    if isinstance(elem, F):
        return (UniPoly.variable() - UniPoly.constant(elem)) ** degree
    q, rep = elem.modulus, elem.rep
    k = int(q.degree)
    cols = []
    for j in range(k):
        col = (rep * UniPoly.variable() ** j) % q
        cols.append([col.coeff(i) for i in range(k)])
    m = [[cols[j][i] for j in range(k)] for i in range(k)]  # m[i][j]

    def mat_mul(a, b):
        return [
            [sum(a[i][l] * b[l][j] for l in range(k)) for j in range(k)]
            for i in range(k)
        ]

    def trace(a):
        return sum(a[i][i] for i in range(k))

    ident = [[F(1) if i == j else F(0) for j in range(k)] for i in range(k)]
    coeffs = [F(1)]
    a_cur = None
    for step in range(1, k + 1):
        if a_cur is None:
            a_cur = m
        else:
            shifted = [
                [a_cur[i][j] + (coeffs[-1] if i == j else 0) for j in range(k)]
                for i in range(k)
            ]
            a_cur = mat_mul(m, shifted)
        coeffs.append(-trace(a_cur) / step)
    return UniPoly.of(list(reversed(coeffs)))


def rational_roots(p: UniPoly) -> list[Fraction]:
    """The distinct rational roots of p, from sympy, so that the oracles
    below share no code with the factorizer."""
    sympy = pytest.importorskip("sympy")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    roots = sympy.Poly(coeffs, sympy.Symbol("t"), domain=sympy.QQ).ground_roots()
    return sorted(Fraction(int(r.p), int(r.q)) for r in roots)


def ratio_oracle(rho: UniPoly) -> bool:
    """True iff every ratio of two roots of rho is rational, decided from the
    ratio polynomial Phi(s) = Res_t(rho(t), s^n rho(t/s)), whose n^2 roots
    are all the ratios: they must all be rational."""
    assert rho.coeff(0) != 0, "rho has a zero root"
    n = int(rho.degree)
    if n <= 1:
        return True
    a = BiPoly.of({(k, 0): c for k, c in enumerate(rho.coeffs)})
    b = BiPoly.of({(k, n - k): c for k, c in enumerate(rho.coeffs)})
    phi = resultant_x(a, b)
    total = 0
    for part, mult in squarefree_decompose(phi).parts:
        nroots = len(rational_roots(part))
        if nroots < part.degree:
            return False
        total += mult * nroots
    return total == n * n


def witness_oracle(r: RatFunc, scale: int) -> RatFunc:
    """The dlog witness by one gcd per distinct scaled residue c: the loci
    with residue c/scale are gcd(d, scale*n - c*d') for r = n/d squarefree,
    and h is the product of these gcds to the power c. The residues come
    from the rational roots of the residue polynomial, not the spectrum."""
    d, n = r.den, r.num
    h = RatFunc.one()
    rho = residue_polynomial(r)
    for value in sorted(v for part, _ in squarefree_decompose(rho).parts
                        for v in rational_roots(part)):
        c = value * scale
        if c != 0:
            h = h * RatFunc.from_poly(poly_gcd(d, n * scale - c * d.derivative())) ** int(c)
    return h


def random_simple_pole_dlog(rng: random.Random) -> tuple[RatFunc, set[str]]:
    """r = sum of c_i*q_i'/q_i over distinct monic irreducible loci q_i, so the
    residue at every root of q_i is the rational c_i; also the features drawn."""
    x = UniPoly.variable()
    pool = [x - a for a in range(-4, 5)] + [x - Fraction(a, 3) for a in (-2, -1, 1, 2)]
    pool += [x**2 - 2, x**2 + 1, x**2 + x + 1, x**2 - 3, x**3 - 2, x**3 - x - 1]
    integer = rng.random() < 0.4
    features = {"integer" if integer else "rational"}
    r = RatFunc.zero()
    for q in rng.sample(pool, rng.randint(1, 4)):
        if integer:
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        else:
            c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4]))
        if q.degree >= 2:
            features.add("irreducible-locus")
        r = r + RatFunc(q.derivative() * c, q)
    return r, features


def random_ratfunc_with_multiple_poles(rng: random.Random) -> RatFunc:
    """A proper r with denominator degree at most 5. Poles may be multiple,
    with a zero residue when the multiple part is an exact derivative; in
    one case in three the poles are at +-s_i*sqrt(a) for one shared a, so
    that the residues can be irrational with rational ratios."""
    x = UniPoly.variable()
    shared = rng.choice([2, 3, -1, 5]) if rng.random() < 1 / 3 else None
    r, degree = RatFunc.zero(), 0
    while True:
        if shared is not None:
            q = x**2 - shared * rng.randint(1, 3) ** 2
        elif rng.random() < 0.6:
            q = x - rng.randint(-4, 4)
        else:
            q = x**2 + rng.randint(-3, 3) * x + rng.randint(-4, 4)
        e = rng.choice([1, 1, 2])
        if degree + e * int(q.degree) > 5:
            return r if not r.is_zero else RatFunc(UniPoly.one(), q)
        degree += e * int(q.degree)
        if e >= 2 and rng.random() < 0.5:
            pass  # no simple part: residue zero at the roots of q
        elif shared is not None:
            r = r + RatFunc(UniPoly.constant(rng.choice([-3, -1, 1, 2])), q)
        else:
            r = r + RatFunc(random_unipoly(rng, int(q.degree) - 1, -5, 5, nonzero=True), q)
        if e >= 2:
            u = random_unipoly(rng, int(q.degree) - 1, -5, 5, nonzero=True)
            r = r + derivative(RatFunc(u, q ** (e - 1)))


def infinity_oracle(r: RatFunc) -> tuple[int, Fraction] | None:
    """(multiplicity, residue) of r*dx at infinity by the Taylor series at
    u = 0 in the chart u = 1/x, where r*dx = u^(-mult)*w(u)*du with
    w = -rev(num)/rev(den) regular: the residue is [u^(mult - 1)] w. None
    when r*dx is regular there."""
    if r.is_zero:
        return None
    num = [-c for c in reversed(r.num.coeffs)]
    den = list(reversed(r.den.coeffs))
    mult = len(num) - len(den) + 2
    if mult <= 0:
        return None
    w: list[Fraction] = []
    for j in range(mult):
        acc = num[j] if j < len(num) else Fraction(0)
        for i in range(1, min(j, len(den) - 1) + 1):
            acc -= den[i] * w[j - i]
        w.append(acc / den[0])
    return mult, w[mult - 1]


def euclid_split(a: UniPoly, moduli: list[UniPoly]) -> list[UniPoly]:
    """Partial-fraction numerators of a over pairwise-coprime moduli, by the
    extended gcd s*m1 + t*rest = 1 at every modulus: a*t mod m1 for the
    first, and a*s mod rest split further."""
    out = []
    while len(moduli) > 1:
        m1, rest = moduli[0], math.prod(moduli[2:], start=moduli[1])
        _, s, t = poly_xgcd(m1, rest)
        out.append((a * t) % m1)
        a, moduli = (a * s) % rest, moduli[1:]
    return out + [a % moduli[0]]


def laurent_oracle(a: UniPoly, c: Fraction, e: int) -> tuple[UniPoly, UniPoly]:
    """_linear_laurent in Fractions: the Laurent coefficients alpha_k of
    a/(x - c)^e off a(u + c), the derivative part
    sum_{k <= e-2} alpha_k/(k-e+1) u^(k-e+1) - alpha_{e-1}*H_{e-1} over
    u^(e-1), shifted back, and the residue alpha_{e-1}."""
    alpha = a.taylor_shift(c).coeffs
    alpha += (Fraction(0),) * (e - len(alpha))
    residue = alpha[e - 1]
    harmonic = sum(Fraction(1, j) for j in range(1, e))
    beta = [alpha[k] / (k - e + 1) for k in range(e - 1)] + [-residue * harmonic]
    return UniPoly.of(beta).taylor_shift(-c), UniPoly.constant(residue)


def hermite_oracle(r: RatFunc) -> tuple[RatFunc, RatFunc]:
    """Hermite reduction with one rational-function addition per step and
    every power of p recomputed: the (derivative part, remainder) that
    hermite_reduce must match."""
    if r.is_zero:
        return RatFunc.zero(), RatFunc.zero()
    polypart, n0 = divmod(r.num, r.den)
    h = RatFunc.from_poly(polypart.antiderivative())
    rem = RatFunc.zero()
    if r.den.degree >= 1 and not n0.is_zero:
        parts = squarefree_decompose(r.den).parts
        moduli = [p**e for p, e in parts]
        numerators = euclid_split(n0, moduli)
        for (p, e), a in zip(parts, numerators):
            _, s, t = poly_xgcd(p, p.derivative())
            j = e
            while j >= 2:
                a = a % p**j
                b = a * t
                h = h + RatFunc(-b, (j - 1) * p ** (j - 1))
                a = a * s + b.derivative() * Fraction(1, j - 1)
                j -= 1
            rem = rem + RatFunc(a % p, p)
    defect = r - derivative(h) - rem
    if defect.den.degree != 0:
        raise WitnessVerificationError("hermite reduction produced a nonpolynomial defect")
    if not defect.is_zero:
        h = h + RatFunc.from_poly(defect.num.antiderivative())
    return h, rem


def random_linear_multiple_pole(rng: random.Random) -> tuple[RatFunc, set]:
    """r = a/(x - c)^e + b/R + s: one linear locus of multiplicity
    2 <= e <= 40, c short or tall, and deg a often below e - 1 (a zero
    residue at c). The cofactor R is 1, a linear or quadratic locus, or
    (x - c2)^e (two linear loci of one multiplicity, the general path);
    s is an optional polynomial part. Returns r and the features drawn."""
    x = UniPoly.variable()
    features = set()
    e = rng.choice([2, 3, 5, 8, 13, 21, 40]) if rng.random() < 0.3 else rng.randint(2, 12)
    if rng.random() < 0.4:
        c = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        features.add("tall")
    else:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    if c < 0:
        features.add("negative")
    top = e - 1 if rng.random() < 0.5 else rng.randint(0, e - 2)
    if top < e - 1:
        features.add("deg a < e - 1")
    # a = sum of u^k over k <= top in u = x - c, so deg a = top
    a = random_unipoly(rng, top, -9, 9, nonzero=True)
    a = compose_affine(a + x**top * rng.choice([-3, 1, 2]), 1, -c)
    r = RatFunc(a, (x - c) ** e)
    kind = rng.choice(["none", "linear", "quadratic", "equal"])
    if kind == "linear":
        r = r + RatFunc(UniPoly.constant(rng.randint(1, 5)), x - c - rng.randint(1, 9))
    elif kind == "quadratic":
        r = r + RatFunc(x - 1, x**2 + rng.randint(1, 5))
    elif kind == "equal":
        c2 = c + Fraction(rng.randint(1, 9), rng.randint(1, 3))
        r = r + RatFunc(random_unipoly(rng, e - 1, -9, 9, nonzero=True), (x - c2) ** e)
        features.add("equal multiplicities")
    if rng.random() < 0.3:
        r = r + random_unipoly(rng, 3, -9, 9)
    if e >= 30:
        features.add("e >= 30")
    return r, features


def random_spectrum_input(rng: random.Random) -> tuple[RatFunc, set]:
    """r = sum of a_i/q_i^e_i + s over distinct loci: linear loci of
    multiplicity 2..12 or 30 (distinct multiplicities, so each is a class of
    its own, or two sharing one), linear and nonlinear simple loci, and at
    times a nonlinear locus of multiplicity 2..4; a_i is random, and at a
    linear multiple locus its top coefficient is at times 0 (a zero
    residue). Returns r and the features drawn."""
    x = UniPoly.variable()
    features = set()
    roots = rng.sample([Fraction(k, d) for k in range(-9, 10) for d in (1, 2, 3)], 9)
    mults = rng.sample(range(2, 13), rng.randint(0, 3))
    if rng.random() < 0.25:
        mults.append(30)
    loci = [(x - roots.pop(), e) for e in dict.fromkeys(mults)]
    if loci and rng.random() < 0.15:
        loci.append((x - roots.pop(), loci[0][1]))
        features.add("two linear loci in one class")
    for _ in range(rng.randint(0 if loci else 1, 3)):
        if rng.random() < 0.5:
            loci.append((x - roots.pop(), 1))
        else:
            b, k = rng.randint(-3, 3), rng.randint(1, 4)
            q = rng.choice([x**2 + b * x + b * b + k, x**3 + k * x + 1])
            if all(q != other for other, _ in loci):
                loci.append((q, 1))
                features.add("nonlinear simple")
    if rng.random() < 0.2:
        loci.append((x**2 + 5, rng.randint(2, 4)))
        features.add("nonlinear multiple")
    r = RatFunc.zero()
    for q, e in loci:
        a = random_unipoly(rng, int(q.degree) * e - 1, -9, 9, nonzero=True)
        if q.degree == 1 and e >= 2 and rng.random() < 0.3:
            # a(x + c) cut below u^(e-1), shifted back: deg < e - 1 in x - c
            a = compose_affine(compose_affine(a, 1, -q.coeff(0)) % x ** (e - 1), 1, q.coeff(0))
            features.add("zero residue at a multiple locus")
        r = r + RatFunc(a, q**e)
    if rng.random() < 0.3:
        r = r + random_unipoly(rng, 3, -9, 9)
        features.add("polynomial part")
    if sum(e >= 2 for _, e in loci) >= 2:
        features.add("several multiple classes")
    if any(e == 30 for _, e in loci):
        features.add("e = 30")
    return r, features


def random_ratfunc_with_high_multiplicities(rng: random.Random) -> RatFunc:
    """r with a nonzero polynomial part over 2..4 distinct linear or
    irreducible quadratic factors of multiplicity 1..8, at least two of
    them multiple; denominator degree at most 16."""
    x = UniPoly.variable()
    while True:
        loci: list[UniPoly] = []
        count = rng.randint(2, 4)
        while len(loci) < count:
            if rng.random() < 0.5:
                q = x - Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            else:
                b, k = rng.randint(-3, 3), rng.randint(1, 4)
                q = x**2 + b * x + b * b + k  # discriminant -3b^2 - 4k < 0
            if q not in loci:
                loci.append(q)
        mults = [rng.randint(1, 8) for _ in loci]
        den = UniPoly.one()
        for q, e in zip(loci, mults):
            den = den * q**e
        if sum(e >= 2 for e in mults) >= 2 and den.degree <= 16:
            break
    num = random_unipoly(rng, int(den.degree) + 3, -9, 9)
    num = num + x ** (int(den.degree) + 1) * rng.choice([-2, -1, 1, 3])
    return RatFunc(num, den)


class TestNormalize:
    def test_cancel_common_factor(self, x):
        assert RatFunc(x, x**2 * (x - 1)) == RatFunc(UniPoly.one(), x * (x - 1))

    def test_powers_match_the_gcd_reduced_pair(self):
        rng = random.Random(2033)
        for _ in range(60):
            r = RatFunc(random_unipoly(rng, 3, -6, 6), random_unipoly(rng, 3, -6, 6, nonzero=True))
            n = rng.randint(-4, 5) if not r.is_zero else rng.randint(0, 5)
            num, den = (r.num, r.den) if n >= 0 else (r.den, r.num)
            # dataclass equality: the same normalized fields, not just the same value
            assert r**n == RatFunc(num ** abs(n), den ** abs(n))

    @pytest.mark.parametrize("field", [RatFunc, BiRatFunc])
    def test_henrici_arithmetic_matches_the_gcd_reduced_pair(self, field):
        # operands share factors from a small pool; some denominators are 1,
        # and some sums cancel to zero
        x = BiPoly.x()
        pool = [x, x + 1, x - 2, x**2 + 1, 2 * x - 3]
        if field is BiRatFunc:
            y = BiPoly.y()
            pool += [y, x + y, x * y + 1]
        else:
            pool = [p.subst_y(0) for p in pool]
        rng = random.Random(4511)

        def product(k):
            p = pool[0] ** 0
            for q in rng.sample(pool, k):
                p = p * q
            return p

        def operand():
            num = product(rng.randint(0, 3)) * Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            if rng.random() < 0.3:
                num = num + product(1)
            return field(num, product(rng.randint(0, 3)))

        # 1/(x(x + 1)) + 1/(x(x - 1)) = 2/((x + 1)(x - 1)): t = 2x and g = x share x
        x = pool[0]
        pairs = [(field(x**0, x * (x + 1)), field(x**0, x * (x - 1)))]
        for _ in range(120):
            a = operand()
            pairs.append((a, -a if rng.random() < 0.15 else operand()))
        for a, b in pairs:
            for got, num, den in ((a + b, a.num * b.den + b.num * a.den, a.den * b.den),
                                  (a - b, a.num * b.den - b.num * a.den, a.den * b.den),
                                  (a * b, a.num * b.num, a.den * b.den)):
                want = field(num, den)      # reduced by a full gcd
                assert (got.num, got.den) == (want.num, want.den), (a, b)
            if not b.is_zero:
                got, want = a / b, field(a.num * b.den, a.den * b.num)
                assert (got.num, got.den) == (want.num, want.den), (a, b)

    def test_zero_numerator(self, x):
        r = RatFunc(UniPoly.zero(), x)
        assert r.is_zero and r.den == UniPoly.one()

    def test_content_absorbed(self, x):
        assert RatFunc(2 * x, UniPoly.constant(2)) == RatFunc.from_poly(x)

    def test_constant_side_needs_no_gcd(self, x, monkeypatch):
        import orthoscope.ratfunc as ratfunc_mod

        def no_gcd(a, b):
            raise AssertionError("gcd with a constant side")

        monkeypatch.setattr(ratfunc_mod, "poly_gcd", no_gcd)
        r = RatFunc(3 * x**2 - 1, UniPoly.constant(Fraction(3, 2)))
        assert (r.num, r.den) == (2 * x**2 - Fraction(2, 3), UniPoly.one())
        r = RatFunc(UniPoly.constant(4), 2 * x**2 + 2)
        assert (r.num, r.den) == (UniPoly.constant(2), x**2 + 1)
        assert RatFunc(UniPoly.zero(), 5 * x).den == UniPoly.one()

    def test_zero_denominator_rejected(self, x):
        with pytest.raises(ZeroDivisionError):
            RatFunc(x, UniPoly.zero())

    def test_repr_and_str(self, x):
        r = RatFunc(x + 1, x)
        assert repr(r) == "RatFunc('(x + 1)/x')"
        assert str(r) == "(x + 1)/x"


class TestPoleSpectrum:
    def test_two_simple_poles(self, x):
        s = pole_spectrum(RatFunc(UniPoly.one(), x * (x - 1)))
        table = {e.locus.to_string(): (e.multiplicity, e.residue) for e in s.affine_poles}
        assert table == {"x": (1, Fraction(-1)), "x - 1": (1, Fraction(1))}
        assert s.infinity_pole is None

    def test_pure_double_pole(self, x):
        s = pole_spectrum(RatFunc(UniPoly.one(), x**2))
        assert [(e.locus, e.multiplicity, e.residue) for e in s.affine_poles] == [
            (x, 2, Fraction(0))
        ]
        assert s.infinity_pole is None

    def test_constant_has_double_pole_at_infinity(self):
        s = pole_spectrum(RatFunc.one())
        assert s.affine_poles == ()
        assert s.infinity_pole.multiplicity == 2
        assert s.infinity_pole.residue == 0

    def test_simple_pole_at_infinity_balances(self, x):
        s = pole_spectrum(RatFunc(UniPoly.one(), x))
        assert s.infinity_pole.multiplicity == 1
        assert s.infinity_pole.residue == -1
        assert s.residue_sum() == 0

    def test_algebraic_residues(self, x):
        s = pole_spectrum(RatFunc(UniPoly.one(), x**3 - 2))
        (entry,) = s.affine_poles
        assert isinstance(entry.residue, NFElement)
        # residue class alpha/6 at the roots of x^3 - 2
        assert entry.residue.rep == Fraction(1, 6) * x
        assert s.residue_sum() == 0

    def test_residue_at_higher_order_pole_is_order_one_coefficient(self, x):
        # (x+1)/x^2 = 1/x + 1/x^2: residue 1 at the double pole
        s = pole_spectrum(RatFunc(x + 1, x**2))
        (entry,) = s.affine_poles
        assert entry.multiplicity == 2 and entry.residue == 1

    def test_infinity_pole_matches_series_oracle(self, x):
        # the oracle runs the Taylor series; the spectrum reads the residue
        # off the remainder r.num mod r.den of the Hermite reduction
        rng = random.Random(2021)
        quadratics = [x**2 + 1, x**2 - 2, x**2 + x + 1, 3 * x**2 - 5 * x + 7]
        seen, cases = set(), 0
        for mult in range(-3, 41):
            for _ in range(25):
                den = UniPoly.constant(Fraction(rng.choice([-7, -3, 2, 5]), rng.randint(1, 4)))
                for _ in range(rng.randint(0 if mult >= 2 else 1, 3)):
                    q = (rng.choice(quadratics) if rng.random() < 0.4
                         else rng.randint(1, 3) * x - rng.randint(-4, 4))
                    den = den * q ** rng.randint(1, 3)
                while den.degree + mult - 2 < 0:
                    den = den * (x - rng.randint(-4, 4))
                num = UniPoly.of([rng.randint(-9, 9) for _ in range(int(den.degree) + mult - 2)]
                                 + [rng.choice([-9, -4, -1, 1, 3, 8])])
                r = RatFunc(num if rng.random() < 0.95 else UniPoly.zero(), den)
                pole = pole_spectrum(r).infinity_pole
                expected = infinity_oracle(r)
                assert (None if pole is None else (pole.multiplicity, pole.residue)) == expected, r
                seen.add("zero" if r.is_zero else expected and expected[0])
                cases += 1
        assert cases >= 1000
        assert seen == {"zero", None, *range(1, 41)}

    def test_one_factorization_per_spectrum(self, x, monkeypatch):
        from orthoscope import ratfunc
        from orthoscope.algebra import factor

        factored = record_calls(monkeypatch, ratfunc.factor_rationals)
        decomposed = record_calls(monkeypatch, factor.squarefree_decompose)
        r = RatFunc(x**3 + 1, (x - 2) ** 3 * (x**2 + 1) * x)
        s = pole_spectrum(r)
        assert (len(factored), len(decomposed)) == (1, 1)
        assert [(e.locus, e.multiplicity) for e in s.affine_poles] == [
            (x - 2, 3), (x, 1), (x**2 + 1, 1)
        ]


class TestResiduePolynomial:
    def test_two_simple_poles(self, x):
        rho = residue_polynomial(RatFunc(UniPoly.one(), x * (x - 1)))
        assert rho == UniPoly.of([-1, 0, 1])

    def test_cube_root_residues(self, x):
        rho = residue_polynomial(RatFunc(UniPoly.one(), x**3 - 2))
        assert rho == UniPoly.of([Fraction(-1, 108), 0, 0, 1])
        # numerical cross-check: roots should be alpha/6 with alpha^3 = 2
        roots = np.roots([1, 0, 0, -1 / 108])
        expected = np.roots([1, 0, 0, -2]) / 6
        assert sorted(np.round(roots, 9)) == pytest.approx(
            sorted(np.round(expected, 9)), abs=1e-9
        )

    def test_single_pole(self, x):
        rho = residue_polynomial(RatFunc(UniPoly.one(), x))
        assert rho == UniPoly.of([-1, 1])

    def test_oracle_equivalence_200(self, x):
        # rho equals the product of the characteristic polynomials of the
        # per-factor residues that pole_spectrum reports
        rng = random.Random(123)
        done = 0
        while done < 200:
            den = random_squarefree_denominator(rng)
            r = random_proper_ratfunc(rng, den)
            product = UniPoly.one()
            for entry in pole_spectrum(r).affine_poles:
                assert entry.multiplicity == 1
                product = product * charpoly_oracle(entry.residue, int(entry.locus.degree))
            assert residue_polynomial(r) == product.monic()
            done += 1

    def test_numerical_residue_crosscheck_smoke(self):
        # the full 200-instance run at 1e-9 lives in the acceptance suite
        import properties

        properties.numerical_residue_crosscheck(count=20)


class TestHermite:
    def test_pure_double_pole(self, x):
        h = hermite_reduce(RatFunc(UniPoly.one(), x**2))
        assert h.derivative_part == RatFunc(UniPoly.constant(-1), x)
        assert h.remainder.is_zero

    def test_simple_pole_untouched(self, x):
        h = hermite_reduce(RatFunc(UniPoly.one(), x))
        assert h.derivative_part.is_zero
        assert h.remainder == RatFunc(UniPoly.one(), x)

    def test_polynomial_part(self, x):
        h = hermite_reduce(RatFunc.from_poly(x))
        assert h.derivative_part == RatFunc.from_poly(Fraction(1, 2) * x**2)
        assert h.remainder.is_zero

    def test_roundtrip_smoke(self):
        # the full 300-instance round trip lives in the acceptance suite
        import properties

        properties.hermite_roundtrip(count=30)

    def test_agrees_with_hermite_oracle(self):
        rng = random.Random(2026)
        for _ in range(150):
            r = random_ratfunc_with_high_multiplicities(rng)
            assert not divmod(r.num, r.den)[0].is_zero
            herm = hermite_reduce(r)
            assert (herm.derivative_part, herm.remainder) == hermite_oracle(r)

    def test_agrees_with_hermite_oracle_at_multiplicity_40(self, x):
        r = RatFunc(3 * x**41 - x**7 + 5 * x - 2, (x - 1) ** 40)
        herm = hermite_reduce(r)
        assert (herm.derivative_part, herm.remainder) == hermite_oracle(r)

    def test_linear_multiple_poles_agree_with_hermite_oracle(self):
        # the Taylor-shift path against the step-by-step reduction, bytes included
        rng = random.Random(2031)
        drawn = set()
        for _ in range(60):
            r, features = random_linear_multiple_pole(rng)
            drawn |= features
            herm = hermite_reduce(r)
            h, rem = hermite_oracle(r)
            assert (herm.derivative_part, herm.remainder) == (h, rem)
            for entry in herm.spectrum.affine_poles:
                if entry.locus.degree == 1:
                    root = -entry.locus.coeff(0)
                    simple = rem.den.eval(root) == 0
                    expected = rem.num.eval(root) / rem.den.derivative().eval(root) if simple else 0
                    assert entry.residue == expected
        assert drawn >= {"tall", "negative", "deg a < e - 1", "equal multiplicities",
                         "e >= 30"}

    def test_exact_derivative_at_a_linear_multiple_pole(self, x):
        # zero remainder: r = (b/(x + 7/3)^5)'
        b = 2 * x**4 - x + 5
        r = derivative(RatFunc(b, (x + Fraction(7, 3)) ** 5))
        herm = hermite_reduce(r)
        assert herm.remainder.is_zero
        assert derivative(herm.derivative_part) == r
        assert (herm.derivative_part, herm.remainder) == hermite_oracle(r)

    def test_no_xgcd_per_linear_multiple_part(self, x, monkeypatch):
        from orthoscope.algebra import unipoly

        r = RatFunc(x**2 + 3, (x - 1) ** 2 * (x - 2) ** 3 * (x - Fraction(3, 7)) ** 5
                    * (x**2 + 1))
        expected = hermite_oracle(r)
        moduli = record_calls(monkeypatch, unipoly.poly_div_mod, arg=2)
        herm = hermite_reduce(r)
        assert (herm.derivative_part, herm.remainder) == expected
        # three divisions for the partial-fraction split of four parts, and
        # one for the residue a/p' at the simple quadratic locus p; none
        # serves the three linear multiple parts, whose steps are Taylor
        # shifts and whose residues are evaluations
        assert moduli == [x**2 + 1, (x - 1) ** 2, (x - 2) ** 3, x**2 + 1]

    @pytest.mark.parametrize("e", [2, 6, 22])
    def test_no_xgcd_at_a_linear_multiple_pole_beside_a_simple_one(self, x, e, monkeypatch):
        # the simple locus x - b comes first in the split: one division
        # modulo the linear x + 5, an evaluation, then one exact division;
        # no Euclid runs
        from orthoscope.algebra import unipoly

        r = RatFunc(UniPoly.one(), (x - Fraction(2, 3)) ** e * (x + 5))
        expected = hermite_oracle(r)
        moduli = record_calls(monkeypatch, unipoly.poly_div_mod, arg=2)
        herm = hermite_reduce(r)
        assert (herm.derivative_part, herm.remainder) == expected
        assert moduli == [x + 5]

    def test_remainder_is_reduced_without_a_gcd(self, x, monkeypatch):
        # gcd(A, P) is the product of the loci with residue zero, so those
        # are divided out exactly: at x in 1/x^2 + (2x - 3)/((x - 1)(x - 2))
        # (A = x*(2x - 3)), and at x in 1/x^2, which leaves 0/1
        from orthoscope.algebra import unipoly

        cases = [RatFunc(UniPoly.one(), (x - Fraction(2, 3)) ** 6 * (x + 5)),
                 RatFunc(UniPoly.one(), x**2),
                 RatFunc(UniPoly.one(), x**2) + RatFunc(2 * x - 3, (x - 1) * (x - 2))]
        expected = [hermite_oracle(r) for r in cases]
        loci = [factor_rationals(r.den).parts for r in cases]
        calls = record_calls(monkeypatch, unipoly.poly_gcd)
        for r, parts, want in zip(cases, loci, expected):
            herm = hermite_reduce(r, parts)
            assert (herm.derivative_part, herm.remainder) == want
        assert calls == []
        assert expected[1][1] == RatFunc.zero()
        assert expected[2][1] == RatFunc(2 * x - 3, (x - 1) * (x - 2))

    def test_linear_laurent_matches_fraction_oracle(self, x):
        rng = random.Random(2040)
        drawn = set()
        for _ in range(520):
            e = 200 if rng.random() < 0.02 else rng.randint(2, 60)
            if rng.random() < 0.3:
                c = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
                drawn.add("tall")
            else:
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            top = e - 1 if rng.random() < 0.5 else rng.randint(0, e - 2)
            if rng.random() < 0.05:
                a = UniPoly.zero()
                drawn.add("zero")
            else:
                a = random_unipoly(rng, top, -9, 9, nonzero=True)
                a = a * Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
                if a.degree < e - 1:
                    drawn.add("deg a < e - 1")
            drawn.add(("e", e if e in (2, 60, 200) else "mid"))
            # the residue is read off a as its coefficient of x^(e-1)
            assert (_linear_laurent(a, c, e), UniPoly.constant(a.coeff(e - 1))) \
                == laurent_oracle(a, c, e), (a, c, e)
        assert drawn >= {"tall", "zero", "deg a < e - 1", ("e", 2), ("e", 60), ("e", 200),
                         ("e", "mid")}

    def test_split_partial_matches_euclid_split(self, x):
        # a first modulus that is linear or a power of an irreducible
        # quadratic or cubic, then linear loci, powers of linear loci,
        # irreducible quadratics and powers of irreducible quadratics and
        # cubics, all coprime: b^2 - 4c < 0, and x^3 + b*x + 1 has no root
        # +-1 for b > 0; distinct b keep the nonlinear loci apart
        rng = random.Random(2041)
        kinds = set()

        def nonlinear(b):
            if rng.random() < 0.5:
                kinds.add("quadratic locus")
                return x**2 + b * x + rng.randint(30, 39)
            kinds.add("cubic locus")
            return x**3 + b * x + 1

        for _ in range(200):
            count = rng.randint(1, 3)
            roots = iter(rng.sample(sorted({Fraction(v, d) for v in range(-9, 10)
                                            for d in range(1, 5)}), count + 1))
            bs = iter(rng.sample(range(1, 10), count + 1))
            if rng.random() < 0.4:
                moduli = [nonlinear(next(bs)) ** rng.randint(1, 3)]
                kinds.add("nonlinear first")
            else:
                moduli = [x - next(roots)]
            for _ in range(count):
                kind = rng.choice(["linear", "power", "quadratic", "nonlinear power"])
                kinds.add(kind)
                if kind == "quadratic":
                    moduli.append(x**2 + next(bs) * x + rng.randint(30, 39))
                elif kind == "nonlinear power":
                    moduli.append(nonlinear(next(bs)) ** rng.randint(2, 3))
                else:
                    moduli.append((x - next(roots)) ** (1 if kind == "linear" else rng.randint(2, 8)))
            degree = int(sum(m.degree for m in moduli)) - 1
            a = random_unipoly(rng, degree, -9, 9) * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert _split_partial(a, moduli) == euclid_split(a, moduli), (a, moduli)
        assert kinds == {"linear", "power", "quadratic", "nonlinear power", "nonlinear first",
                         "quadratic locus", "cubic locus"}

    def test_no_xgcd_at_linear_simple_loci(self, x, monkeypatch):
        from orthoscope.algebra import unipoly

        # one squarefree part: no split, and each residue is an evaluation,
        # so nothing is divided modulo a polynomial
        r = RatFunc(x**4 - 3 * x + 2, x * (x - 1) * (x + 2) * (x - Fraction(3, 7)) * (x + 5))
        expected = hermite_oracle(r)
        moduli = record_calls(monkeypatch, unipoly.poly_div_mod, arg=2)
        herm = hermite_reduce(r)
        assert (herm.derivative_part, herm.remainder) == expected
        assert moduli == []
        assert all(isinstance(e.residue, Fraction) for e in herm.spectrum.affine_poles)

    def test_known_loci_give_the_same_reduction(self, x):
        rng = random.Random(2027)
        for _ in range(40):
            r = random_ratfunc_with_high_multiplicities(rng)
            assert hermite_reduce(r, factor_rationals(r.den).parts) == hermite_reduce(r)
        # a missing locus, a short multiplicity and an extra locus are caught
        r = RatFunc(x, (x - 1) ** 2 * (x + 2))
        for loci in (((x - 1, 2),), ((x - 1, 1), (x + 2, 1)),
                     ((x - 1, 2), (x + 2, 1), (x + 7, 1)), ()):
            with pytest.raises(WitnessVerificationError, match="multiply to"):
                hermite_reduce(r, loci)

    def test_perturbed_horner_term_is_caught(self, x):
        # mutation check: a copy of the per-class step whose Horner fold adds
        # 1 to each step must fail the class's identity check, in
        # hermite_reduce and on the spectrum path
        import inspect

        from orthoscope import ratfunc

        source = inspect.getsource(ratfunc._class_part)
        fold = "acc = acc * p + c\n"
        assert source.count(fold) == 1
        namespace = dict(vars(ratfunc))
        exec(source.replace(fold, "acc = acc * p + c + 1\n")
             + inspect.getsource(ratfunc.hermite_reduce)
             + inspect.getsource(ratfunc.spectrum_and_remainder), namespace)
        r = RatFunc(x**3 + 1, (x - 2) ** 3 * (x**2 + 1) ** 2 * x)
        herm = hermite_reduce(r)
        assert derivative(herm.derivative_part) + herm.remainder == r
        for mutant in (namespace["hermite_reduce"], namespace["spectrum_and_remainder"]):
            with pytest.raises(WitnessVerificationError, match="nonpolynomial defect"):
                mutant(r)
            with pytest.raises(WitnessVerificationError, match="nonpolynomial defect"):
                mutant(r, ((x - 2, 3), (x, 1), (x**2 + 1, 2)))


class TestSpectrumAndRemainder:
    """The spectrum path: the pole spectrum and the Hermite remainder off the
    checked partial-fraction split, with no derivative part."""

    def test_matches_hermite_reduce(self, x, monkeypatch):
        from orthoscope import ratfunc

        steps_run = record_calls(monkeypatch, ratfunc._class_part)
        rng = random.Random(2051)
        drawn = set()
        for _ in range(80):
            r, features = random_spectrum_input(rng)
            drawn |= features
            loci = factor_rationals(r.den).parts
            herm = hermite_reduce(r)
            # the remainder also against a reduction that shares no code with ratfunc's
            rem = hermite_oracle(r)[1]
            assert herm.remainder == rem, r
            classes = {}
            for q, e in loci:
                classes.setdefault(e, []).append(q)
            steps = sum(e >= 2 and (len(qs) > 1 or qs[0].degree > 1)
                        for e, qs in classes.items())
            for given in (None, loci):
                steps_run.clear()
                assert spectrum_and_remainder(r, given) == (herm.spectrum, rem), r
                # one per-class step per nonlinear class of multiplicity >= 2
                assert len(steps_run) == steps, r
            drawn.add("Hermite's steps" if steps else "split only")
        assert drawn >= {
            "two linear loci in one class", "nonlinear simple", "nonlinear multiple",
            "zero residue at a multiple locus", "polynomial part",
            "several multiple classes", "e = 30", "Hermite's steps", "split only",
        }, drawn

    def test_linear_multiple_residue_is_the_top_coefficient(self, x):
        # Res of a/(x - c)^e at c, for deg a < e, is a's x^(e-1) coefficient
        for e in (2, 7, 30):
            a = (x + 3) ** (e - 1) * Fraction(-5, 7) + x
            s, rem = spectrum_and_remainder(RatFunc(a, (x - Fraction(2, 3)) ** e))
            assert s.affine_poles[0].residue == Fraction(-5, 7) + (e == 2)
            assert rem == RatFunc(UniPoly.constant(s.affine_poles[0].residue),
                                  x - Fraction(2, 3))

    @pytest.mark.parametrize("modulus", ["linear", "power"])
    def test_corrupted_laurent_coefficient_is_caught(self, x, monkeypatch, modulus):
        # mutation check: a split step that returns one Laurent coefficient
        # off by 1 (the constant term of a numerator over a class) must fail
        # its exact division, in pole_spectrum and in base_orthogonal
        from orthoscope import ratfunc

        f = RatFunc.from_poly((x - 2) ** 5 * (x + 1) ** 3 * x)
        spectrum = pole_spectrum(1 / f)
        assert spectrum == hermite_reduce(1 / f).spectrum == base_orthogonal(f).spectrum
        divide = ratfunc.poly_div_mod

        def corrupted(a, b, m):
            out = divide(a, b, m)
            return out + 1 if (m.degree == 1) == (modulus == "linear") else out

        monkeypatch.setattr(ratfunc, "poly_div_mod", corrupted)
        with pytest.raises(WitnessVerificationError, match="inexact"):
            pole_spectrum(1 / f)
        with pytest.raises(WitnessVerificationError, match="inexact"):
            base_orthogonal(f)

    def test_wrong_loci_raise(self, x):
        r = RatFunc(x, (x - 1) ** 2 * (x + 2))
        for loci in (((x - 1, 2),), ((x - 1, 1), (x + 2, 1)),
                     ((x - 1, 2), (x + 2, 1), (x + 7, 1)), ()):
            with pytest.raises(WitnessVerificationError, match="multiply to"):
                spectrum_and_remainder(r, loci)
        # loci that multiply to r.den, in two classes that share a root
        with pytest.raises(WitnessVerificationError, match="not coprime"):
            spectrum_and_remainder(RatFunc(x + 3, (x - 1) ** 3), ((x - 1, 1), (x - 1, 2)))


class TestDlog:
    def test_monomial(self, x):
        assert dlog(RatFunc.from_poly(x)) == RatFunc(UniPoly.one(), x)

    def test_quotient(self, x):
        assert dlog(RatFunc(x - 1, x)) == RatFunc(UniPoly.one(), x * (x - 1))

    def test_constant(self):
        assert dlog(RatFunc.constant(7)).is_zero

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            dlog(RatFunc.zero())


class TestDlogWitness:
    def test_integer_class_basic(self, x):
        res = dlog_witness(RatFunc(UniPoly.one(), x * (x - 1)), INTEGER)
        assert res.found
        assert res.witness.h == RatFunc(x - 1, x)
        assert res.witness.scaling == 1

    def test_half_integer_residue(self, x):
        r = RatFunc(UniPoly.constant(Fraction(1, 2)), x)
        res = dlog_witness(r, INTEGER)
        assert not res.found and res.reason == REASON_NON_CLASS_RESIDUE
        assert res.spectrum == pole_spectrum(r)
        res = dlog_witness(r, RATIONAL)
        assert res.found and res.witness.h == RatFunc.from_poly(x)
        assert res.witness.scaling == 2

    def test_polynomial_improper(self, x):
        for klass in (INTEGER, RATIONAL):
            res = dlog_witness(RatFunc.from_poly(x), klass)
            assert not res.found and res.reason == REASON_IMPROPER_AT_INFINITY

    def test_multiple_pole(self, x):
        res = dlog_witness(RatFunc(UniPoly.one(), x**2), RATIONAL)
        assert not res.found and res.reason == REASON_MULTIPLE_POLE

    def test_zero_function(self):
        res = dlog_witness(RatFunc.zero(), INTEGER)
        assert res.found and res.witness.h == RatFunc.one() and res.witness.scaling == 1
        assert res.spectrum == pole_spectrum(RatFunc.zero())

    def test_irreducible_locus_with_rational_residue(self, x):
        r = RatFunc(2 * x, x**2 - 2)
        witness = dlog_witness(r, INTEGER).witness
        assert witness.h == RatFunc.from_poly(x**2 - 2) and witness.target == r

    def test_matches_gcd_witness_oracle(self):
        rng = random.Random(11)
        seen = {"integer": 0, "rational": 0, "irreducible-locus": 0, "scaled": 0}
        for _ in range(240):
            r, features = random_simple_pole_dlog(rng)
            klass = INTEGER if "integer" in features else RATIONAL
            witness = dlog_witness(r, klass).witness
            assert witness.kind == WITNESS_DLOG and witness.target == r
            assert witness.h == witness_oracle(r, witness.scaling), r
            for feature in features:
                seen[feature] += 1
            seen["scaled"] += witness.scaling > 1
        assert min(seen.values()) >= 40, seen

    def test_soundness_and_completeness_smoke(self):
        # the full 100-instance suite lives in the acceptance suite
        import properties

        properties.dlog_soundness_completeness(count=20)


class TestRatioAllRational:
    def test_plus_minus_one(self, x):
        assert ratio_all_rational(pole_spectrum(RatFunc(UniPoly.one(), x * (x - 1)))) is True

    def test_cube_roots_of_unity(self, x):
        assert ratio_all_rational(pole_spectrum(RatFunc(UniPoly.one(), x**3 - 2))) is False

    def test_rational_residues(self, x):
        r = RatFunc(5 * x - 12, (x - 2) * (x - 3))
        assert residue_polynomial(r) == UniPoly.of([6, -5, 1])  # residues 2 and 3
        assert ratio_all_rational(pole_spectrum(r)) is True

    def test_square_roots_with_rational_ratio(self, x):
        # residues +-sqrt(2)/24 and +-sqrt(2)/48: every ratio is +-1, +-2 or +-1/2
        r = RatFunc(UniPoly.one(), (x**2 - 2) * (x**2 - 8))
        assert ratio_all_rational(pole_spectrum(r)) is True

    def test_square_roots_with_irrational_ratio(self, x):
        r = RatFunc(UniPoly.one(), (x**2 - 2) * (x**2 - 3))
        assert ratio_all_rational(pole_spectrum(r)) is False

    def test_quartic_field_residues(self, x):
        # roots +-sqrt(2) +- sqrt(3): the residue squares are not rational
        r = RatFunc(UniPoly.one(), x**4 - 10 * x**2 + 1)
        assert ratio_all_rational(pole_spectrum(r)) is False

    def test_rational_and_irrational_residues(self, x):
        r = RatFunc(UniPoly.one(), (x - 1) * (x**2 - 2))
        assert ratio_all_rational(pole_spectrum(r)) is False

    def test_zero_residue_ignored(self, x):
        r = RatFunc(UniPoly.one(), x**2) + RatFunc(UniPoly.one(), x - 1) \
            + RatFunc(UniPoly.constant(2), x - 2)
        assert ratio_all_rational(pole_spectrum(r)) is True

    def test_agrees_with_ratio_oracle(self):
        rng = random.Random(2)
        outcomes = []
        for _ in range(160):
            r = random_ratfunc_with_multiple_poles(rng)
            got = ratio_all_rational(pole_spectrum(r))
            assert got == ratio_oracle(residue_polynomial(r)), r
            outcomes.append(got)
        assert 20 <= sum(outcomes) <= 140


class TestDerivativeWitness:
    def test_found(self, x):
        r = RatFunc(x + 2, x**3)
        witness = exact_derivative_part(r, hermite_reduce(r))
        assert witness is not None and derivative(witness.h) == r

    def test_not_a_derivative(self, x):
        r = RatFunc(UniPoly.one(), x)
        assert exact_derivative_part(r, hermite_reduce(r)) is None


class TestWitnessVerify:
    @staticmethod
    def reduced_form(w: WitnessData) -> bool:
        """The identity through reduced dlog() and derivative()."""
        if w.kind == WITNESS_DLOG:
            return (not w.h.is_zero) and dlog(w.h) == w.target * w.scaling
        return derivative(w.h) == w.target

    def test_cross_multiplied_identity_decides_as_the_reduced_form(self):
        rng = random.Random(2032)
        outcomes = {True: 0, False: 0}
        for _ in range(150):
            h = RatFunc(random_unipoly(rng, 4, -9, 9, nonzero=True),
                        random_unipoly(rng, 3, -5, 5, nonzero=True))
            kind = rng.choice([WITNESS_DLOG, WITNESS_DERIVATIVE])
            if kind == WITNESS_DLOG:
                if h.is_constant:
                    h = h + UniPoly.variable()
                scaling = rng.randint(1, 6)
                target = dlog(h) * Fraction(1, scaling)
            else:
                scaling, target = 1, derivative(h)
            true = WitnessData(kind, h, scaling, target)
            assert true.verify() and self.reduced_form(true)
            x = UniPoly.variable()
            bump = rng.choice([UniPoly.constant(rng.choice([-2, 1, 3])), x, x**2 - 1])
            perturbed = [
                WitnessData(kind, h + bump, scaling, target),
                WitnessData(kind, h * rng.choice([-1, 2, Fraction(1, 3)]), scaling, target),
                WitnessData(kind, RatFunc.zero(), scaling, target),
                WitnessData(kind, h, scaling, target + RatFunc(UniPoly.one(), x - 5)),
                WitnessData(kind, h, scaling, target * 2),
                WitnessData(kind, h, scaling + 1, target),
            ]
            for w in perturbed:
                decided = self.reduced_form(w)
                assert w.verify() == decided, w.identity_string()
                outcomes[decided] += 1
        # constants added under derivative and scalings under dlog keep it true
        assert outcomes[True] > 100 and outcomes[False] > 500


class TestReimport:
    def test_reimport_leaves_one_class_of_each(self):
        """Four fresh imports of orthoscope in one process leave one live
        NFElement and one UniPoly class: no module-level value (such as a
        typing.Union alias, which typing caches) holds the old ones. Run in a
        subprocess, since re-importing here would split class identities for
        the other tests."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import orthoscope

        code = (
            "import gc, sys\n"
            "for _ in range(4):\n"
            "    for name in [n for n in sys.modules if n.split('.')[0] == 'orthoscope']:\n"
            "        del sys.modules[name]\n"
            "    import orthoscope\n"
            "gc.collect()\n"
            "names = [o.__name__ for o in gc.get_objects() if isinstance(o, type)]\n"
            "print(names.count('NFElement'), names.count('UniPoly'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(orthoscope.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60, check=True).stdout
        assert out.split() == ["1", "1"]
