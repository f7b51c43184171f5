import random
from fractions import Fraction

import pytest

from orthoscope import UniPoly, factor_rationals

from conftest import expand, random_unipoly, record_calls


def linear_factor_roots(p: UniPoly) -> set[Fraction]:
    """The roots of the linear factors that factor_rationals finds."""
    return {-q.coeff(0) for q, _ in factor_rationals(p).parts if q.degree == 1}


def brute_force_rational_roots(p: UniPoly) -> set[Fraction]:
    """Independent oracle: candidate roots from divisors of the end coefficients."""
    ints = p.prim
    while ints and ints[0] == 0:
        ints = ints[1:]
    roots = {Fraction(0)} if p.coeff(0) == 0 else set()
    if not ints or len(ints) == 1:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])
    divisors_a0 = [d for d in range(1, a0 + 1) if a0 % d == 0]
    divisors_an = [d for d in range(1, an + 1) if an % d == 0]
    for num in divisors_a0:
        for den in divisors_an:
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if p.eval(cand) == 0:
                    roots.add(cand)
    return roots


class TestFactorExamples:
    def test_square_times_linear(self, x):
        fac = factor_rationals(x**2 * (x - 1))
        assert [(f, m) for f, m in fac.parts] == [(x - 1, 1), (x, 2)]

    def test_quadratic_irreducible(self, x):
        fac = factor_rationals(x**2 - 2)
        assert [(f, m) for f, m in fac.parts] == [(x**2 - 2, 1)]
        assert brute_force_rational_roots(x**2 - 2) == set()

    def test_cyclotomic_quartic(self, x):
        fac = factor_rationals(x**4 - 1)
        assert [(f, m) for f, m in fac.parts] == [(x - 1, 1), (x + 1, 1), (x**2 + 1, 1)]
        product = UniPoly.constant(fac.content)
        for f, m in fac.parts:
            product = product * f**m
        assert product == x**4 - 1

    def test_content_carried_separately(self, x):
        fac = factor_rationals(6 * x**2 - 6)
        assert fac.content == 6
        assert all(f.lc == 1 for f, _ in fac.parts)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_rationals(UniPoly.zero())

    def test_galois_conjugate_pair_product(self, x):
        fac = factor_rationals((x**2 - 2) * (x**2 - 3))
        assert len(fac.parts) == 2 and all(m == 1 for _, m in fac.parts)


class TestFactorProperties:
    def test_product_reproduces_input(self):
        rng = random.Random(99)
        for _ in range(60):
            p = UniPoly.one()
            for _ in range(rng.randint(1, 3)):
                p = p * random_unipoly(rng, 4, lo=-6, hi=6, nonzero=True)
            if p.degree < 1:
                continue
            assert expand(factor_rationals(p)) == p

    def test_low_degree_irreducibility_matches_root_test(self):
        # degree <= 3: irreducible over Q iff no rational root
        rng = random.Random(5)
        for _ in range(120):
            p = random_unipoly(rng, 3, lo=-8, hi=8, nonzero=True)
            if p.degree < 2:
                continue
            fac = factor_rationals(p)
            claimed_irreducible = len(fac.parts) == 1 and fac.parts[0][1] == 1 \
                and fac.parts[0][0].degree == p.degree
            assert claimed_irreducible == (not brute_force_rational_roots(p))

    def test_rational_roots_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(80):
            p = random_unipoly(rng, 5, lo=-6, hi=6, nonzero=True)
            if p.degree < 1:
                continue
            assert linear_factor_roots(p) == brute_force_rational_roots(p)

    def test_multiplicities(self, x):
        parts = factor_rationals((2 * x - 1) ** 2 * (x + 3) * (x**2 + 1)).parts
        roots = {-q.coeff(0): e for q, e in parts if q.degree == 1}
        assert roots == {Fraction(1, 2): 2, Fraction(-3): 1}

    def test_is_irreducible(self, x):
        assert factor_rationals(x**2 + 1).parts == ((x**2 + 1, 1),)
        assert factor_rationals(x**2 - 1).parts == ((x - 1, 1), (x + 1, 1))
        assert factor_rationals(UniPoly.constant(5)).parts == ()

    def test_squarefree_roots_with_zero_root(self, x):
        for p in (x * (x - 2), x * (4 * x**2 - 3), x * (3 * x - 2) * (x**2 + 1)):
            assert linear_factor_roots(p) == brute_force_rational_roots(p)
        assert linear_factor_roots(x * (x - 2)) == {Fraction(0), Fraction(2)}

    def test_one_prime_search_per_part(self, x, monkeypatch):
        from orthoscope.algebra import factor

        searched = record_calls(monkeypatch, factor._good_prime)
        cases = [((3 * x - 2) * (x**2 + 1), [(x - Fraction(2, 3), 1), (x**2 + 1, 1)]),
                 (x**6 - 3, [(x**6 - 3, 1)]),
                 (x**3 - 2, [(x**3 - 2, 1)]),
                 ((x**2 - 2) ** 2 * x * (2 * x + 1),
                  [(x, 1), (x + Fraction(1, 2), 1), (x**2 - 2, 2)])]
        for p, parts in cases:
            searched.clear()
            assert list(factor_rationals(p).parts) == parts
            # one search for each squarefree part of degree >= 2
            assert len(searched) == len({m for _, m in parts})

    def test_cofactor_is_its_own_monic_transform(self, x, monkeypatch):
        # f = (3x - 2)(5x + 1)(7x^2 - 3)(2x^3 - 5) has l = 210 and integer
        # roots 140 and -42 in F(y) = l^6*f(y/l); dividing them out leaves
        # s = l/l' = 15 times the roots of the transform of the cofactor
        # 14x^5 + ... with l' = 14, so the cofactor is rescaled by s before
        # the lift, which then sees G(y) = (y^2 - 84)(y^3 - 6860) mod p
        from orthoscope.algebra import factor

        berlekamp = record_calls(monkeypatch, factor._berlekamp)
        primes = []
        pick = factor._good_prime

        def recorded(f_int):
            primes.append(pick(f_int))
            return primes[-1]

        monkeypatch.setattr(factor, "_good_prime", recorded)
        f = (3 * x - 2) * (5 * x + 1) * (7 * x**2 - 3) * (2 * x**3 - 5)
        assert list(factor_rationals(f).parts) == [
            (x - Fraction(2, 3), 1), (x + Fraction(1, 5), 1),
            (x**2 - Fraction(3, 7), 1), (x**3 - Fraction(5, 2), 1)]
        (p,) = primes
        g = (x**2 - 84) * (x**3 - 6860)
        assert berlekamp == [[v % p for v in g.prim]]
