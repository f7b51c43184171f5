import random
from fractions import Fraction

import numpy as np
import pytest

from orthoscope import (
    INTEGER,
    RATIONAL,
    BiPoly,
    NFElement,
    RatFunc,
    UniPoly,
    dlog_witness,
    hermite_reduce,
    pole_spectrum,
    poly_gcd,
    poly_xgcd,
    rational_roots,
    ratio_all_rational,
    residue_polynomial,
    resultant_x,
    squarefree_decompose,
)
from orthoscope.algebra.factor import rational_roots_squarefree
from orthoscope.ratfunc import (
    REASON_IMPROPER_AT_INFINITY,
    REASON_MULTIPLE_POLE,
    REASON_NON_CLASS_RESIDUE,
    WITNESS_DLOG,
    HermiteDecomposition,
    _split_partial,
    exact_derivative_part,
)
from orthoscope.errors import WitnessVerificationError

from conftest import random_proper_ratfunc, random_squarefree_denominator, random_unipoly


def charpoly_oracle(elem, degree: int) -> UniPoly:
    """Characteristic polynomial via Faddeev-LeVerrier on the multiplication
    matrix, an independent path from the resultant-based production code."""
    from fractions import Fraction as F

    if isinstance(elem, F):
        return (UniPoly.variable("t") - UniPoly.constant(elem, "t")) ** degree
    q, rep = elem.modulus, elem.rep
    k = int(q.degree)
    cols = []
    for j in range(k):
        col = (rep * UniPoly.monomial(j, 1, q.var)) % q
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
    return UniPoly.of(list(reversed(coeffs)), "t")


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
    phi = resultant_x(a, b, "s")
    total = 0
    for part, mult in squarefree_decompose(phi).parts:
        nroots = len(rational_roots_squarefree(part))
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
    for value in sorted(rational_roots(residue_polynomial(r))):
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
            r = r + RatFunc(u, q ** (e - 1)).derivative()


def hermite_oracle(r: RatFunc) -> HermiteDecomposition:
    """Hermite reduction with one rational-function addition per step and
    every power of p recomputed: the reference that hermite_reduce must match."""
    var = r.var
    if r.is_zero:
        return HermiteDecomposition(RatFunc.zero(var), RatFunc.zero(var))
    polypart, n0 = divmod(r.num, r.den)
    h = RatFunc.from_poly(polypart.antiderivative())
    rem = RatFunc.zero(var)
    if r.den.degree >= 1 and not n0.is_zero:
        parts = squarefree_decompose(r.den).parts
        moduli = [p**e for p, e in parts]
        numerators = _split_partial(n0, moduli)
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
    defect = r - h.derivative() - rem
    if defect.den.degree != 0:
        raise WitnessVerificationError("hermite reduction produced a nonpolynomial defect")
    if not defect.is_zero:
        h = h + RatFunc.from_poly(defect.num.antiderivative())
    return HermiteDecomposition(h, rem)


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
    num = num + UniPoly.monomial(int(den.degree) + 1, rng.choice([-2, -1, 1, 3]))
    return RatFunc(num, den)


class TestNormalize:
    def test_cancel_common_factor(self, x):
        assert RatFunc(x, x**2 * (x - 1)) == RatFunc(UniPoly.one(), x * (x - 1))

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


class TestResiduePolynomial:
    def test_two_simple_poles(self, x):
        rho = residue_polynomial(RatFunc(UniPoly.one(), x * (x - 1)))
        assert rho == UniPoly.of([-1, 0, 1], "t")

    def test_cube_root_residues(self, x):
        rho = residue_polynomial(RatFunc(UniPoly.one(), x**3 - 2))
        assert rho == UniPoly.of([Fraction(-1, 108), 0, 0, 1], "t")
        # numerical cross-check: roots should be alpha/6 with alpha^3 = 2
        roots = np.roots([1, 0, 0, -1 / 108])
        expected = np.roots([1, 0, 0, -2]) / 6
        assert sorted(np.round(roots, 9)) == pytest.approx(
            sorted(np.round(expected, 9)), abs=1e-9
        )

    def test_single_pole(self, x):
        rho = residue_polynomial(RatFunc(UniPoly.one(), x))
        assert rho == UniPoly.of([-1, 1], "t")

    def test_oracle_equivalence_200(self, x):
        # rho equals the product of the characteristic polynomials of the
        # per-factor residues that pole_spectrum reports
        rng = random.Random(123)
        done = 0
        while done < 200:
            den = random_squarefree_denominator(rng)
            r = random_proper_ratfunc(rng, den)
            product = UniPoly.one("t")
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
            assert hermite_reduce(r) == hermite_oracle(r)

    def test_agrees_with_hermite_oracle_at_multiplicity_40(self, x):
        r = RatFunc(3 * x**41 - x**7 + 5 * x - 2, (x - 1) ** 40)
        assert hermite_reduce(r) == hermite_oracle(r)


class TestDlog:
    def test_monomial(self, x):
        assert RatFunc.from_poly(x).dlog() == RatFunc(UniPoly.one(), x)

    def test_quotient(self, x):
        assert RatFunc(x - 1, x).dlog() == RatFunc(UniPoly.one(), x * (x - 1))

    def test_constant(self):
        assert RatFunc.constant(7).dlog().is_zero

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.zero().dlog()


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
        assert residue_polynomial(r) == UniPoly.of([6, -5, 1], "t")  # residues 2 and 3
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
        assert witness is not None and witness.h.derivative() == r

    def test_not_a_derivative(self, x):
        r = RatFunc(UniPoly.one(), x)
        assert exact_derivative_part(r, hermite_reduce(r)) is None
