import math
import random
from fractions import Fraction

import pytest

from orthoscope import UniPoly, factor_rationals, parse_system
from orthoscope.algebra.factor import factor_bases
from orthoscope.parsing import parse_univariate_bases

from conftest import expand, factored_text, random_unipoly, record_calls


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
        # one search for each squarefree part of degree >= 2 that is not a
        # Capelli binomial, and one more for the cofactor of a part with
        # rational roots when that cofactor has degree >= 4: x^6 - 3, x^3 - 2
        # and x^2 - 2 make none, and the cofactor x^2 + 1 is returned as it is;
        # x^4 - 10x^2 + 1 makes two, one for its irreducible deflation
        # y^2 - 10y + 1 and one for itself
        cases = [((3 * x - 2) * (x**2 + 1), [(x - Fraction(2, 3), 1), (x**2 + 1, 1)], 1),
                 ((3 * x - 2) * (x**4 + x + 1),
                  [(x - Fraction(2, 3), 1), (x**4 + x + 1, 1)], 2),
                 (x**4 - 10 * x**2 + 1, [(x**4 - 10 * x**2 + 1, 1)], 2),
                 (x**6 - 3, [(x**6 - 3, 1)], 0),
                 (x**3 - 2, [(x**3 - 2, 1)], 0),
                 ((x**2 - 2) ** 2 * x * (2 * x + 1),
                  [(x, 1), (x + Fraction(1, 2), 1), (x**2 - 2, 2)], 1)]
        for p, parts, searches in cases:
            searched.clear()
            assert list(factor_rationals(p).parts) == parts
            assert len(searched) == searches

    def test_one_root_lift_per_part_without_rational_roots(self, x, monkeypatch):
        from orthoscope.algebra import factor

        lifts = record_calls(monkeypatch, factor._lifted_roots)
        # at the good prime 3, x^4 + x + 1 has the root 1 and x^5 - x - 1 has
        # none; (x^2 - 2)(x^2 - 8) has none at 5: one root pass finds no
        # rational root
        for p in (x**4 + x + 1, x**5 - x - 1, (x**2 - 2) * (x**2 - 8)):
            lifts.clear()
            factor_rationals(p)
            assert len(lifts) == 1
        # Capelli proves x^3 - 2 and x^6 - 3 irreducible before any root pass
        for p in (x**3 - 2, x**6 - 3):
            lifts.clear()
            factor_rationals(p)
            assert len(lifts) == 0

    def test_irreducible_binomials_skip_the_prime_search(self, x, monkeypatch):
        from orthoscope.algebra import factor

        searched = record_calls(monkeypatch, factor._good_prime)
        for p in (x**2 + 1, x**3 - 2, x**4 + 1, 3 * x**5 + 7, x**6 - 3, x**12 - 2,
                  x**8 + 3, x**30 - Fraction(2, 3), x**240 - 2):
            searched.clear()
            assert factor_rationals(p).parts == ((p.monic(), 1),)
            assert searched == []
        # a reducible binomial x^n - c with witness q is deflated to
        # y^q - c, which makes one search, and each factor h(x^(n/q)) that
        # is no Capelli binomial makes one more: x^8 + 4 (q = 4) gives
        # x^4 - 2x^2 + 2 and x^4 + 2x^2 + 2, x^6 + 27 (q = 3) gives x^2 + 3
        # and x^4 - 3x^2 + 9, x^6 - 8 gives x^2 - 2 and x^4 + 2x^2 + 4, and
        # x^6 - 1 (q = 2) gives x^3 - 1 and x^3 + 1; x^4 + 4 and 4x^4 + 1
        # (q = 4 = n) are not deflated; x^240 - 4 (q = 2) gives the Capelli
        # binomials x^120 - 2 and x^120 + 2, with no subset search over
        # their 25 factors mod 7
        for p, parts, searches in ((x**4 + 4, 2, 1), (4 * x**4 + 1, 2, 1), (x**8 + 4, 2, 3),
                                   (x**6 + 27, 3, 2), (x**6 - 8, 2, 2), (x**6 - 1, 4, 3),
                                   (x**240 - 4, 2, 1)):
            searched.clear()
            assert len(factor_rationals(p).parts) == parts
            assert len(searched) == searches

    def test_cofactor_is_its_own_monic_transform(self, x, monkeypatch):
        # f = (3x - 2)(5x + 1)(7x^2 - 3)(2x^3 - 5) has l = 210 and integer
        # roots 140 and -42 in F(y) = l^6*f(y/l); the rational cofactor
        # (7x^2 - 3)(2x^3 - 5), with l' = 14, is factored as a part of its
        # own, so its roots mod its prime are lifted in its monic transform
        # G(y) = 14^4*g(y/14) = (y^2 - 84)(y^3 - 6860); Berlekamp then sees
        # only G's root-free part mod p
        from orthoscope.algebra import factor

        berlekamp = record_calls(monkeypatch, factor._berlekamp)
        primes, lifts = [], []
        pick, lift = factor._good_prime, factor._lifted_roots

        def recorded(f_int):
            primes.append(pick(f_int))
            return primes[-1]

        def recorded_roots(f_int, p, target):
            lifts.append((f_int, *lift(f_int, p, target)))
            return lifts[-1][1:]

        monkeypatch.setattr(factor, "_good_prime", recorded)
        monkeypatch.setattr(factor, "_lifted_roots", recorded_roots)
        f = (3 * x - 2) * (5 * x + 1) * (7 * x**2 - 3) * (2 * x**3 - 5)
        assert list(factor_rationals(f).parts) == [
            (x - Fraction(2, 3), 1), (x + Fraction(1, 5), 1),
            (x**2 - Fraction(3, 7), 1), (x**3 - Fraction(5, 2), 1)]
        p = primes[-1]                       # the cofactor's search is last
        g = (x**2 - 84) * (x**3 - 6860)
        g_int, roots, _ = lifts[-1]          # F's roots are lifted first
        assert g_int == list(g.prim)
        assert sorted(r % p for r in roots) == [r for r in range(p) if g.eval(r) % p == 0]
        (rest,) = berlekamp
        product = UniPoly.of(rest) * math.prod((x - r for r in roots), start=UniPoly.one())
        assert [int(c) % p for c in product.coeffs] == [v % p for v in g.prim]
        assert all(UniPoly.of(rest).eval(r) % p for r in range(p))

    def test_linear_modular_factors_skip_berlekamp_and_hensel(self, x, monkeypatch):
        from orthoscope.algebra import factor

        berlekamp = record_calls(monkeypatch, factor._berlekamp)
        lifts = record_calls(monkeypatch, factor._lift_factors)
        # the good prime is 17, where 2 = 6^2: all 16 modular factors are
        # linear, so the root lift alone feeds the recombination (the shift
        # x + 1 keeps the product from deflating)
        quadratics = [(x + 1) ** 2 - 2 * k * k for k in range(1, 9)]
        f = math.prod(quadratics, start=UniPoly.one())
        assert set(factor_rationals(f).parts) == {(q, 1) for q in quadratics}
        assert berlekamp == [] and lifts == []
        # x^4 + x + 1 has one root mod 3: Berlekamp gets the cubic rest,
        # which stays irreducible, and nothing is Hensel-lifted
        assert factor_rationals(x**4 + x + 1).parts == ((x**4 + x + 1, 1),)
        assert [len(rest) - 1 for rest in berlekamp] == [3] and lifts == []
        # a Capelli binomial, and a part of degree <= 3 without a rational
        # root, reach neither
        berlekamp.clear()
        for p in (x**3 - 2, x**6 - 3, x**3 - x - 1):
            assert factor_rationals(p).parts == ((p, 1),)
        assert factor_rationals((3 * x - 2) * (x**3 - x - 1)).parts == (
            (x - Fraction(2, 3), 1), (x**3 - x - 1, 1))
        assert berlekamp == [] and lifts == []

    def test_products_of_even_quadratics_factor_through_their_deflation(self, x, monkeypatch):
        # (x^2 - 2)(x^2 - 8)(x^2 - 18) = g(x^2) with g = (y - 2)(y - 8)(y - 18):
        # one root pass on g splits it, and Capelli proves each x^2 - c
        # irreducible, so there is no Berlekamp factorization and no lift
        from orthoscope.algebra import factor

        berlekamp = record_calls(monkeypatch, factor._berlekamp)
        lifts = record_calls(monkeypatch, factor._lift_factors)
        searched = record_calls(monkeypatch, factor._good_prime)
        f = (x**2 - 2) * (x**2 - 8) * (x**2 - 18)
        assert factor_rationals(f).parts == ((x**2 - 18, 1), (x**2 - 8, 1), (x**2 - 2, 1))
        assert berlekamp == [] and lifts == []
        assert searched == [[-288, 196, -28, 1]]


class TestFactorBases:
    def test_shared_irreducibles_merge(self, x):
        assert factor_bases(((x**2 - 1, 1), (x - 1, 1))) == ((x - 1, 2), (x + 1, 1))
        # 2x - 2 and x - 1 are one base once monic; x^2 + 1 nets to exponent 0
        assert factor_bases(((2 * x - 2, 2), (x - 1, -3), (x**2 + 1, 2), (x**2 + 1, -2)),
                            denominator=True) == ((x - 1, 1),)

    def test_a_base_of_the_other_side_is_not_factored(self, x, monkeypatch):
        # x^240 - 8 is hang-table row G's factorization
        calls = record_calls(monkeypatch, factor_rationals)
        assert factor_bases(((x - 1, 2), (x**240 - 8, -1))) == ((x - 1, 2),)
        assert calls == [x - 1]

    def test_parsed_bases_factor_as_the_expanded_value(self):
        # products, quotients and powers of repeated and overlapping bases,
        # ^0, scalars, sums, nested parentheses and a cancelling y: the
        # positive bases multiply to f.num and the negative ones to f.den,
        # up to constants, and factor_bases gives factor_rationals' parts
        # of each side
        rng = random.Random(3401)
        for _ in range(300):
            text = factored_text(rng)
            f, bases = parse_univariate_bases(text)
            num, den = UniPoly.one(), UniPoly.one()
            for p, e in bases:
                num, den = (num * p**e, den) if e >= 0 else (num, den * p**-e)
            assert f.is_zero or (num.monic(), den.monic()) == (f.num.monic(), f.den), text
            for side, denominator in ((f.num, False), (f.den, True)):
                if not side.is_zero:
                    assert factor_bases(bases, denominator) == factor_rationals(side).parts, text
            assert parse_system(f"x' = {text}; y' = y").bases == bases, text

    def test_linear_parts_skip_the_squarefree_decomposition(self, x, monkeypatch):
        from orthoscope import squarefree_decompose

        calls = record_calls(monkeypatch, squarefree_decompose)
        fac = factor_rationals(3 * x - 1)
        assert (fac.content, fac.parts) == (3, ((x - Fraction(1, 3), 1),))
        assert calls == []


class TestExactRoot:
    def test_perfect_powers_of_4000_digits_and_their_neighbours(self):
        # far past the float range: a root through floats would overflow
        from orthoscope.algebra.factor import _exact_root

        rng = random.Random(4000)
        for k in range(2, 14):
            r = rng.randrange(10 ** (4000 // k - 1), 10 ** (4000 // k))
            v = r**k
            assert v.bit_length() > 13000
            assert _exact_root(v, k) == r
            assert _exact_root(v - 1, k) is None and _exact_root(v + 1, k) is None
            if k % 2:
                assert _exact_root(-v, k) == -r
                assert _exact_root(-v - 1, k) is None and _exact_root(-v + 1, k) is None
            else:
                assert _exact_root(-v, k) is None

    def test_small_values_against_enumeration(self):
        from orthoscope.algebra.factor import _exact_root

        for k in range(2, 14):
            powers = {r**k: r for r in range(-60, 61)}
            for v in range(-3000, 3001):
                assert _exact_root(v, k) == powers.get(v), (v, k)
