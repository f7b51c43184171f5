import random
from fractions import Fraction

import pytest

from orthoscope import NFElement, UniPoly, factor_rationals
from orthoscope.algebra import unipoly
from orthoscope.algebra.unipoly import poly_xgcd

from conftest import random_unipoly, record_calls


@pytest.fixture
def sqrt2(x):
    return NFElement(x, x**2 - 2)


class TestBasics:
    def test_square_of_generator_is_rational(self, sqrt2):
        sq = sqrt2 * sqrt2
        assert sq.is_rational and sq.as_fraction() == 2

    def test_generator_not_rational(self, sqrt2):
        assert not sqrt2.is_rational
        with pytest.raises(ValueError):
            sqrt2.as_fraction()

    def test_inverse(self, sqrt2, x):
        inv = sqrt2.inverse()
        assert inv.rep == Fraction(1, 2) * x
        assert (sqrt2 * inv).as_fraction() == 1

    def test_inverse_of_zero_rejected(self, x):
        with pytest.raises(ZeroDivisionError):
            NFElement(UniPoly.zero(), x**2 - 2).inverse()

    def test_modulus_mismatch_rejected(self, sqrt2, x):
        other = NFElement(x, x**2 + 1)
        with pytest.raises(ValueError):
            sqrt2 + other

    def test_trace(self, sqrt2, x):
        assert sqrt2.trace() == 0
        assert (sqrt2 + 3).trace() == 6
        cbrt2 = NFElement(x, x**3 - 2)
        assert cbrt2.trace() == 0
        assert (cbrt2 * cbrt2 + cbrt2 + 5).trace() == 15

    def test_serialization(self, sqrt2):
        assert sqrt2.to_string() == "root of x^2 - 2, component x"


class TestInverseProperty:
    def test_inverse_roundtrip_200(self, x):
        moduli = [x**2 - 2, x**2 + 1, x**3 - 2]
        rng = random.Random(31)
        count = 0
        while count < 200:
            q = rng.choice(moduli)
            rep = random_unipoly(rng, int(q.degree) - 1, lo=-5, hi=5)
            if rep.is_zero:
                continue
            e = NFElement(rep, q)
            assert (e * e.inverse()).as_fraction() == 1
            count += 1

    def test_constant_inverse_skips_euclid(self, monkeypatch):
        """A constant c inverts to 1/c by poly_div_mod with no Euclid step,
        and equals the inverse that Euclid's algorithm gives. Every step
        divides a remainder of degree at least 1, starting with q, so a
        division of a nonconstant polynomial would show one."""
        rng = random.Random(32)
        cases = []
        for _ in range(40):
            q = UniPoly.one()
            while q.degree < 2:
                q = random_unipoly(rng, 3, monic=True)
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 12))
            cases.append((NFElement(UniPoly.constant(c), q), poly_xgcd(UniPoly.constant(c), q)[1]))
        moduli = record_calls(monkeypatch, unipoly.poly_div_mod, arg=2)
        dividends = record_calls(monkeypatch, UniPoly.__divmod__)
        for e, euclid in cases:
            inv = e.inverse()
            assert inv == NFElement(euclid, e.modulus)
            assert inv.as_fraction() == 1 / e.rep.coeff(0)
        assert moduli == [e.modulus for e, _ in cases]
        assert dividends and all(d.is_constant for d in dividends)
        assert {int(e.modulus.degree) for e, _ in cases} == {2, 3}

    def test_inverse_matches_the_extended_gcd_on_random_fields(self):
        """For monic irreducible moduli of degree 2..9 and nonzero elements
        e, e * e^-1 = 1, and e^-1 is the cofactor that poly_xgcd gives."""
        rng = random.Random(33)
        degrees = set()
        count = 0
        while count < 150:
            q = random_unipoly(rng, 9, lo=-6, hi=6, monic=True)
            if q.degree < 2 or factor_rationals(q).parts != ((q, 1),):
                continue
            rep = random_unipoly(rng, int(q.degree) - 1, lo=-9, hi=9)
            if rep.is_zero:
                continue
            e = NFElement(rep * Fraction(rng.randint(1, 9), rng.randint(1, 9)), q)
            inv = e.inverse()
            assert (e * inv).as_fraction() == 1
            assert inv == NFElement(poly_xgcd(e.rep, q)[1], q)
            degrees.add(int(q.degree))
            count += 1
        assert degrees == set(range(2, 10))

    def test_reducible_modulus_and_zero_rejected(self, x):
        # each element shares a factor with its modulus; x^2 - 2 reduces to
        # zero mod itself
        with pytest.raises(ValueError, match="not irreducible"):
            NFElement(x - 1, (x - 1) * (x**2 + 2)).inverse()
        with pytest.raises(ValueError, match="not irreducible"):
            NFElement(x**2 + x, (x**2 + x) * (x + 5)).inverse()
        with pytest.raises(ZeroDivisionError):
            NFElement(x**2 - 2, x**2 - 2).inverse()


class TestCanonicalForm:
    def test_modulus_is_made_monic(self, x):
        q = x**3 - x - 1
        for rep in (x**2 + 1, x**4 + 3 * x, UniPoly.constant(Fraction(2, 7))):
            assert NFElement(rep, 3 * q) == NFElement(rep, q)
            assert NFElement(rep, Fraction(-1, 2) * q).modulus == q

    def test_rep_is_reduced_mod_the_modulus(self, x):
        q = x**2 - 2
        assert NFElement(x**3 + x**2, q).rep == 2 * x + 2
        assert NFElement(x + 1, q).rep == x + 1
