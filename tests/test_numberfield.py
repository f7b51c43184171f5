import random
from fractions import Fraction

import pytest

from orthoscope import NFElement, UniPoly, poly_xgcd

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
        """A constant c inverts to 1/c with no extended gcd, and equals the
        inverse that Euclid's algorithm gives."""
        rng = random.Random(32)
        cases = []
        for _ in range(40):
            q = UniPoly.one()
            while q.degree < 2:
                q = random_unipoly(rng, 3, monic=True)
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 12))
            cases.append((c, q, poly_xgcd(UniPoly.constant(c), q)[1]))
        calls = record_calls(monkeypatch, poly_xgcd)
        for c, q, euclid in cases:
            inv = NFElement(UniPoly.constant(c), q).inverse()
            assert inv == NFElement(euclid, q)
            assert inv.as_fraction() == 1 / c
        assert calls == []
        assert {int(q.degree) for _, q, _ in cases} == {2, 3}
