from fractions import Fraction

import pytest

from orthoscope import (
    INTEGER,
    RATIONAL,
    RatFunc,
    UniPoly,
    base_orthogonal,
    beta_search_derivative,
    beta_search_log,
    classify_derivative_family,
    classify_log_family,
)
from orthoscope.criteria import (
    CASE_A,
    CASE_B,
    CASE_C,
    CONCLUSION_BASE_INAPPLICABLE,
    CONCLUSION_NONORTHOGONAL,
    CONCLUSION_ORTHOGONAL,
    EVIDENCE_DEGENERATE,
    EVIDENCE_IRRATIONAL_RATIO,
    EVIDENCE_MULTIPLE_AND_SIMPLE,
    EVIDENCE_NO_SIMPLE_POLE,
    EVIDENCE_RATIONAL_RATIOS,
    KIND_ALMOST,
    KIND_INTERNAL,
    STATUS_FOUND,
    STATUS_INCONCLUSIVE,
    STATUS_NONE,
)
from orthoscope.errors import HypothesisError, WitnessVerificationError
from conftest import random_search_input, record_calls
from oracles import derivative

P = RatFunc.from_poly


class TestBaseOrthogonal:
    def test_multiple_and_simple(self, x):
        v = base_orthogonal(P(x**3 * (x - 1)))
        assert v.orthogonal and v.evidence == EVIDENCE_MULTIPLE_AND_SIMPLE

    def test_rational_ratios(self, x):
        v = base_orthogonal(P(x * (x - 1)))
        assert not v.orthogonal and v.evidence == EVIDENCE_RATIONAL_RATIOS

    def test_irrational_ratios(self, x):
        v = base_orthogonal(P(x**3 - 2))
        assert v.orthogonal and v.evidence == EVIDENCE_IRRATIONAL_RATIO

    def test_no_simple_pole(self, x):
        v = base_orthogonal(P(x**2))
        assert not v.orthogonal and v.evidence == EVIDENCE_NO_SIMPLE_POLE

    def test_degenerate_low_degree(self, x):
        for f in (P(x + 1), P(2 * x), RatFunc.constant(3)):
            v = base_orthogonal(f)
            assert not v.orthogonal and v.evidence == EVIDENCE_DEGENERATE

    def test_zero_rejected(self):
        with pytest.raises(HypothesisError, match="base coefficient f must be nonzero"):
            base_orthogonal(RatFunc.zero())

    def test_given_loci_must_multiply_back_to_f(self, x):
        f = P((x - 1) ** 2 * (x + 2) * (x**2 + 1) * Fraction(1, 3))
        loci = ((x - 1, 2), (x + 2, 1), (x**2 + 1, 1))
        assert base_orthogonal(f, loci) == base_orthogonal(f)
        dropped, changed, extra = loci[1:], ((x - 1, 3),) + loci[1:], loci + ((x - 3, 1),)
        for wrong in (dropped, changed, extra):
            with pytest.raises(WitnessVerificationError, match="multiply to"):
                base_orthogonal(f, wrong)

    def test_evidence_consistent_with_spectrum(self, x):
        cases = [x**3 * (x - 1), x * (x - 1), x**3 - 2, x**2, x + 1]
        for f in cases:
            v = base_orthogonal(P(f))
            if v.evidence == EVIDENCE_MULTIPLE_AND_SIMPLE:
                assert v.spectrum.has_multiple_pole() and v.spectrum.has_simple_pole()
            elif v.evidence == EVIDENCE_NO_SIMPLE_POLE:
                assert not v.spectrum.has_simple_pole()
            elif v.evidence in (EVIDENCE_IRRATIONAL_RATIO, EVIDENCE_RATIONAL_RATIOS):
                assert not v.spectrum.has_multiple_pole()


class TestBetaSearchLog:
    def test_pinned_found(self, x):
        f = P(x**2 * (x - 1))
        r = beta_search_log(f, P(x), base_orthogonal(f), RATIONAL)
        assert r.status == STATUS_FOUND and r.beta == 0
        assert r.completeness_case == CASE_A
        assert r.witness.h == RatFunc(x - 1, x) and r.witness.scaling == 1
        residues = {e.locus.to_string(): e.residue for e in r.residue_table.affine_poles}
        assert residues == {"x": Fraction(-1), "x - 1": Fraction(1)}
        # the integer class also succeeds here
        assert beta_search_log(f, P(x), base_orthogonal(f), INTEGER).status == STATUS_FOUND

    def test_pinned_none(self, x):
        f = P(x**3 * (x - 1))
        r = beta_search_log(f, P(x), base_orthogonal(f), RATIONAL)
        assert r.status == STATUS_NONE and r.completeness_case == CASE_A

    def test_zero_fiber(self, x):
        f = P(x**3 - 2)
        r = beta_search_log(f, RatFunc.zero(), base_orthogonal(f), RATIONAL)
        assert r.status == STATUS_FOUND and r.beta == 0
        assert r.residue_table.affine_poles == () and r.residue_table.infinity_pole is None

    def test_zero_f_rejected(self, x):
        with pytest.raises(HypothesisError, match="base coefficient f must be nonzero"):
            f = RatFunc.zero()
            beta_search_log(f, P(x), base_orthogonal(f), RATIONAL)

    def test_unknown_class_rejected(self, x):
        with pytest.raises(ValueError):
            beta_search_log(P(x), P(x), base_orthogonal(P(x)), "complex")

    def test_integer_class_progressions(self, x):
        # residues of (g - beta)/f at 0 and 1 are g(0)-beta and beta-g(1)... both
        # must be integers; here they differ by 1/2 for every beta
        f = P(x * (x - 1))
        g = RatFunc.from_poly(UniPoly.of([0, Fraction(1, 2)]))  # x/2
        r_int = beta_search_log(f, g, base_orthogonal(f), INTEGER)
        r_rat = beta_search_log(f, g, base_orthogonal(f), RATIONAL)
        assert r_rat.status == STATUS_FOUND
        assert r_int.status == STATUS_NONE and r_int.completeness_case == CASE_B

    def test_integer_class_progressions_solvable(self, x):
        # beta = 1/2 gives integer residues 1, 1, -1 at 0, 1, -1
        f = P(x * (x - 1) * (x + 1))
        g = RatFunc.from_poly(UniPoly.of([Fraction(-1, 2), 2, 1]))
        r_int = beta_search_log(f, g, base_orthogonal(f), INTEGER)
        assert r_int.status == STATUS_FOUND
        assert r_int.beta == Fraction(1, 2)
        assert r_int.witness.scaling == 1
        residues = sorted(e.residue for e in r_int.residue_table.affine_poles)
        assert residues == [Fraction(-1), Fraction(1), Fraction(1)]

    def test_conjugate_coupled_single_factor(self, x):
        f = P(x**3 - 2)
        r = beta_search_log(f, P(x), base_orthogonal(f), RATIONAL)
        assert r.status == STATUS_INCONCLUSIVE and r.completeness_case == CASE_C

    def test_conjugate_coupled_conflicting_pins(self, x):
        f = P((x**2 - 2) * (x**2 - 3))
        r = beta_search_log(f, P(x**2), base_orthogonal(f), RATIONAL)
        assert r.status == STATUS_INCONCLUSIVE and r.completeness_case == CASE_C

    def test_a_locus_of_g_den_alone_takes_no_value_of_m(self, x, monkeypatch):
        # at x^2 - 2, which divides g.den and not f.num, m/d = 1/f is
        # regular, so the beta coefficient of the residue is 0 and m is
        # never evaluated there: (g - beta)/f = (1 - beta*m)/d with m = x^2 - 2
        from orthoscope import criteria

        f, g = P((x - 1) * (x - 2)), RatFunc(UniPoly.one(), x**2 - 2)
        base = base_orthogonal(f)
        values = record_calls(monkeypatch, criteria._value_at)
        r = beta_search_log(f, g, base, RATIONAL)
        assert r.status == STATUS_NONE and r.completeness_case == CASE_B
        assert r.detail == "residue at x^2 - 2 is irrational for every beta"
        assert values and x**2 - 2 not in values

    def test_anchored_conjugate_factor_is_complete(self, x):
        # an extra rational simple pole anchors beta, so the conjugate factor
        # yields a complete verdict instead of case C
        f = P((x**3 - 2) * x)
        r = beta_search_log(f, P(x), base_orthogonal(f), RATIONAL)
        assert r.status in (STATUS_FOUND, STATUS_NONE)
        assert r.completeness_case in (CASE_A, CASE_B)


class TestBetaSearchDerivative:
    def test_found_with_witness(self, x):
        f = P(x**2 * (x - 1))
        r = beta_search_derivative(f, P(x), base_orthogonal(f))
        assert r.status == STATUS_FOUND and r.beta == 1
        assert r.witness.h == RatFunc(UniPoly.constant(-1), x)
        # exact identity: (x - 1)/(x^2(x-1)) = (-1/x)'
        assert derivative(r.witness.h) == RatFunc(x - 1, x**2 * (x - 1))

    def test_none(self, x):
        f = P(x**2 * (x - 1) * (x + 1))
        r = beta_search_derivative(f, P(x), base_orthogonal(f))
        assert r.status == STATUS_NONE

    def test_zero_fiber_trivial(self, x):
        f = P(x**17 - 3)
        r = beta_search_derivative(f, RatFunc.zero(), base_orthogonal(f))
        assert r.status == STATUS_FOUND and r.beta == 0 and r.witness.h.is_zero


class TestDerivativePin:
    """beta_search_derivative pins beta with a residue of 1/f; the
    reference is the rule that reduces g/f and divides the remainders,
    beta = rem(g/f)/rem(1/f), kept here."""

    LOCI = ("x - 2", "x + 1", "x", "x - 1/2", "x^2 + 1", "x^2 - 2", "x^2 + x + 1",
            "x^3 - 2", "x^3 - x - 1")

    @staticmethod
    def _reference(f, g, base):
        from orthoscope import hermite_reduce
        from orthoscope.ratfunc import exact_derivative_part
        from orthoscope.criteria import BetaSearchResult

        rem_g = hermite_reduce(g / f).remainder
        rem_one = base.remainder
        if rem_one.is_zero:
            if not rem_g.is_zero:
                return BetaSearchResult(STATUS_NONE, None, None, CASE_B, None,
                                        "the remainder is beta-independent and nonzero")
            beta = Fraction(0)
        else:
            ratio = rem_g / rem_one
            if not ratio.is_constant:
                return BetaSearchResult(STATUS_NONE, None, None, CASE_B, None,
                                        "remainder vanishing admits no constant solution")
            beta = ratio.constant_value()
        r = (g - RatFunc.constant(beta)) / f
        herm = hermite_reduce(r)
        witness = exact_derivative_part(r, herm)
        assert witness is not None
        return BetaSearchResult(STATUS_FOUND, beta, witness, CASE_B, herm.spectrum, None)

    @staticmethod
    def _branch(g, base):
        """The route the pin takes for (f, g), read from 1/f's spectrum."""
        from orthoscope import NFElement

        if base.remainder.is_zero:
            return "rem(1/f) = 0"
        for entry in base.spectrum.affine_poles:
            if entry.multiplicity == 1 and not (g.den % entry.locus).is_zero:
                value = NFElement(g.num, entry.locus) * NFElement(g.den, entry.locus).inverse()
                return "simple pole, rational" if value.is_rational \
                    else "simple pole, irrational"
        if base.spectrum.has_simple_pole():
            return "fallback, simple loci shared with g.den"
        return "fallback, only multiple poles"

    def _input(self, rng, x):
        """(f, g): g - beta0 = f*h' for a rational h, sometimes perturbed so
        that no beta works; f is a product of loci to powers 1..4 and may
        have a denominator, or is a single multiple linear pole."""
        from orthoscope import parse_univariate

        loci = [parse_univariate(t).num
                for t in rng.sample(self.LOCI, rng.randint(1, 3))]
        lam = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        if rng.random() < 0.15:
            f = P(loci[0] if loci[0].degree == 1 else x) ** rng.randint(2, 4) * lam
        else:
            f = RatFunc.constant(lam)
            for q in loci:
                f = f * P(q) ** rng.choice([1, 1, 2, 3, 4])
        if rng.random() < 0.2:
            f = f / P(rng.choice([x + 3, x**2 + 3]))
        h = P(x ** rng.randint(0, 2)) * Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        for q in rng.sample(loci + [x + 5], rng.randint(0, 2)):
            h = h + RatFunc(UniPoly.one(), q ** rng.randint(1, 3)) * rng.choice([1, -2])
        beta0 = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        g = derivative(h) * f + beta0
        if rng.random() < 0.3:
            g = g + rng.choice([P(x ** rng.randint(0, 2)), RatFunc(UniPoly.one(), loci[0])]) \
                * rng.choice([1, Fraction(-1, 3)])
        return f, g

    def test_pinned_beta_matches_the_remainder_ratio(self, x):
        import random

        from orthoscope import poly_gcd

        rng = random.Random(14014)
        cases = [(P(x**2 * (x - 1)), RatFunc(UniPoly.one(), x - 1)),
                 (P(x**2), P(x))]
        cases += [self._input(rng, x) for _ in range(240)]
        drawn, cancels = set(), set()
        for f, g in cases:
            base = base_orthogonal(f)
            got = beta_search_derivative(f, g, base)
            assert got == self._reference(f, g, base), (f, g)
            # what the search divides out of (g - beta)/f before reducing it
            if got.found:
                target = g - RatFunc.constant(got.beta)
                if target.is_zero:
                    cancels.add("zero target")
                elif any(e.multiplicity >= 2 and (target.num % e.locus**2).is_zero
                         for e in base.spectrum.affine_poles):
                    cancels.add("g - beta divisible by q^2 for a multiple locus q of f.num")
            if poly_gcd(f.den, g.den).degree > 0:
                cancels.add("g.den shares a locus with f.den")
            branch = self._branch(g, base)
            drawn.add(f"{branch}, {got.status}" if branch == "simple pole, rational" else branch)
            if any(e.multiplicity == 1 and (g.den % e.locus).is_zero
                   for e in base.spectrum.affine_poles):
                drawn.add("simple locus shared with g.den")
        assert drawn == {
            "rem(1/f) = 0", "simple pole, rational, found", "simple pole, rational, none",
            "simple pole, irrational", "simple locus shared with g.den",
            "fallback, simple loci shared with g.den", "fallback, only multiple poles",
        }, drawn
        assert cancels == {
            "zero target", "g - beta divisible by q^2 for a multiple locus q of f.num",
            "g.den shares a locus with f.den",
        }, cancels

    def test_pinned_beta_reduces_only_the_target(self, x, monkeypatch):
        from orthoscope import ratfunc

        split = record_calls(monkeypatch, ratfunc.spectrum_and_remainder)
        reduced = record_calls(monkeypatch, ratfunc.hermite_reduce)
        for e, beta, c in ((2, Fraction(1), Fraction(1)), (6, Fraction(-1, 2), Fraction(3)),
                           (22, Fraction(7, 3), Fraction(-2, 5))):
            split.clear(), reduced.clear()
            a = x - Fraction(3, 2)
            f = P(a**e * (x + 2))
            sv = classify_derivative_family(f, P(beta - c * (e - 1) * (x + 2)))
            assert sv.fibration.found and sv.fibration.beta == beta
            assert sv.fibration.witness.h == RatFunc(UniPoly.constant(c), a ** (e - 1))
            # 1/f is split once, and only the target is Hermite-reduced
            assert (split, reduced) == ([RatFunc.one() / f], [sv.fibration.witness.target]), e
        # rem(1/f) = 0 takes beta = 0 and also splits 1/f and reduces the
        # target once each; a pole of 1/f that g shares leaves the remainder
        # ratio, one split more (g/f's double class x*(x - 1) is not a
        # linear locus, so that split takes Hermite's steps on its own)
        for f, g, counts in ((P(x**2), P(x), (1, 1)),
                             (P(x**2 * (x - 1)), RatFunc(UniPoly.one(), x - 1), (2, 1))):
            split.clear(), reduced.clear()
            classify_derivative_family(f, g)
            assert (len(split), len(reduced)) == counts, (f, g)

    def test_the_remainder_ratio_takes_no_division(self, x, monkeypatch):
        # where no simple pole pins beta, it is read off the remainders'
        # leading coefficients and checked by one comparison, with no gcd
        from orthoscope.ratfunc import FractionField

        cases = []
        for f, g, beta in ((P(x**2 * (x - 1)), RatFunc(UniPoly.one(), x - 1), Fraction(-2)),
                           (P(x**2 * (x - 1) ** 2), P(x), Fraction(1, 2)),
                           (P(x**2 * (x - 1) ** 2), P(x**3), None)):
            base = base_orthogonal(f)
            assert self._branch(g, base).startswith("fallback")
            expected = self._reference(f, g, base)
            assert expected.beta == beta
            cases.append((f, g, base, expected))
        divisions = record_calls(monkeypatch, FractionField.__truediv__)
        for f, g, base, expected in cases:
            assert beta_search_derivative(f, g, base) == expected, (f, g)
            assert divisions == [], (f, g)


class TestClassifiers:
    def test_log_family_examples(self, x):
        v = classify_log_family(P(x**2 * (x - 1)), P(x))
        assert v.conclusion == CONCLUSION_NONORTHOGONAL
        assert v.internality_kind == KIND_INTERNAL
        v = classify_log_family(P(x**3 * (x - 1)), P(x))
        assert v.conclusion == CONCLUSION_ORTHOGONAL and v.internality_kind is None
        v = classify_log_family(P(x * (x - 1)), P(x))
        assert v.conclusion == CONCLUSION_BASE_INAPPLICABLE

    def test_log_family_almost_kind(self, x):
        # half-integer residues need scaling 2: almost, not internal
        g = RatFunc.from_poly(UniPoly.of([0, Fraction(1, 2)]))
        v = classify_log_family(P(x**2 * (x - 1)), g)
        assert v.conclusion == CONCLUSION_NONORTHOGONAL
        assert v.internality_kind == KIND_ALMOST

    def test_derivative_family_examples(self, x):
        v = classify_derivative_family(P(x**2 * (x - 1)), P(x))
        assert v.conclusion == CONCLUSION_NONORTHOGONAL
        assert v.internality_kind == KIND_INTERNAL
        v = classify_derivative_family(P(x**2 * (x - 1) * (x + 1)), P(x))
        assert v.conclusion == CONCLUSION_ORTHOGONAL
        v = classify_derivative_family(P(x**3 - 2), RatFunc.zero())
        assert v.conclusion == CONCLUSION_NONORTHOGONAL

    def test_derivative_family_reduces_one_over_f_once(self, x, monkeypatch):
        from orthoscope import ratfunc

        split = record_calls(monkeypatch, ratfunc.spectrum_and_remainder)
        reduced = record_calls(monkeypatch, ratfunc.hermite_reduce)
        f = P(x**2 * (x - 1))
        sv = classify_derivative_family(f, P(x))
        assert sv.conclusion == CONCLUSION_NONORTHOGONAL and sv.fibration.beta == 1
        # 1/f is split once and never Hermite-reduced: it needs no derivative part
        assert split.count(RatFunc.one() / f) == 1
        assert reduced.count(RatFunc.one() / f) == 0

    def test_one_factorization_per_request(self, x, monkeypatch):
        from orthoscope.algebra import factor

        calls = record_calls(monkeypatch, factor.factor_rationals)

        def count(classify, f, g):
            calls.clear()
            verdict = classify(P(f), g)
            return verdict, list(calls)

        f = (x - 1) * (x + 2) * (x**2 + 1)
        verdict, seen = count(classify_log_family, f, P(x))
        assert verdict.fibration.found and seen == [f]
        g = RatFunc(UniPoly.one(), (x - 1) * (x - 3) ** 2)
        verdict, seen = count(classify_log_family, x**2 * (x - 1), g)
        assert verdict.fibration.completeness_case == CASE_A
        assert seen == [x**2 * (x - 1), (x - 1) * (x - 3) ** 2]
        verdict, seen = count(classify_derivative_family, x**2 * (x - 1), P(x))
        assert verdict.fibration.beta == 1 and seen == [x**2 * (x - 1)]

    def test_verdict_invariants(self, x):
        for f, g in [(x**2 * (x - 1), x), (x**3 * (x - 1), x), (x * (x - 1), x)]:
            v = classify_log_family(P(f), P(g))
            if v.conclusion == CONCLUSION_ORTHOGONAL:
                assert v.base.orthogonal and v.fibration.status == STATUS_NONE
            if v.conclusion == CONCLUSION_NONORTHOGONAL:
                assert v.fibration.status == STATUS_FOUND


class TestCandidateResidues:
    """The search tests its beta on residues read off its own data; the
    oracle is dlog_witness on (g - beta)/f, which Hermite-reduces it."""

    LOCI = ("x - 2", "x + 1", "x", "x - 1/2", "x^2 + 1", "x^2 - 2", "x^2 + x + 1",
            "x^3 - 2", "x^3 - x - 1")

    def _input(self, rng, x):
        """(f, g, residue class): g - beta0 = f*dlog(h)/N for h a product of
        loci to small powers, sometimes perturbed so that no beta works."""
        from orthoscope import parse_univariate

        loci = [parse_univariate(t).num
                for t in rng.sample(self.LOCI, rng.randint(1, 3))]
        exponents = [Fraction(rng.choice([0, 1, -1, 2, -3]), rng.choice([1, 1, 2]))
                     for _ in loci]
        lam = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        f = RatFunc.from_poly(lam * UniPoly.one())
        for q in loci:
            f = f * P(q)
        dlog_h = RatFunc.zero()
        for q, c in zip(loci, exponents):
            dlog_h = dlog_h + RatFunc(q.derivative(), q) * c
        shape = rng.choice(["simple", "multiple", "denominator"])
        if shape == "multiple":
            a = x - rng.choice([3, -2, Fraction(5, 2)])
            f = f * P(a) ** rng.randint(2, 3)
            dlog_h = dlog_h + RatFunc(UniPoly.one(), a) * rng.choice([1, -1, Fraction(1, 2)])
        elif shape == "denominator":
            p = rng.choice([x + 3, x**2 + 3])
            dlog_h = dlog_h + RatFunc(p.derivative(), p) * rng.choice([1, -2])
        beta0 = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        g = dlog_h * f + beta0
        if rng.random() < 0.3:
            g = g + P(x ** rng.randint(0, 2)) * rng.choice([1, Fraction(-1, 3)])
        return f, g, rng.choice([RATIONAL, INTEGER])

    def test_candidates_match_the_hermite_path(self, x, monkeypatch):
        import random

        from orthoscope import criteria, dlog_witness

        tested = []
        real = criteria._test_candidate

        def spy(beta, num, den, residues, residue_class, case, assert_found=False):
            result = real(beta, num, den, residues, residue_class, case, assert_found)
            tested.append((beta, residues, case, assert_found, result))
            return result

        monkeypatch.setattr(criteria, "_test_candidate", spy)
        rng = random.Random(13013)
        features = set()
        for _ in range(160):
            f, g, residue_class = self._input(rng, x)
            base = base_orthogonal(f)
            tested.clear()
            beta_search_log(f, g, base, residue_class)
            for beta, residues, case, assert_found, result in tested:
                oracle = dlog_witness((g - RatFunc.constant(beta)) / f, residue_class)
                if oracle.found:
                    assert (result.status, result.beta, result.witness, result.residue_table) \
                        == (STATUS_FOUND, beta, oracle.witness, oracle.spectrum), (f, g)
                else:
                    assert (result.status, result.beta, result.witness, result.detail) == (
                        STATUS_NONE, None, None, f"at the pinned beta = {beta}: {oracle.reason}"
                    ), (f, g)
                if case == CASE_A and base.spectrum.has_affine_multiple():
                    features.add("A, pinned by a multiple pole")
                if case == CASE_B:
                    features.add(f"B, free, {residue_class}" if assert_found else "B, soft-pinned")
                if not g.den.is_constant:
                    features.add("g with a denominator")
                features.update(f"locus of degree {q.degree}" for q, _ in residues)
                if any(value == 0 for _, value in residues):
                    features.add("vanishing residue")
        assert features >= {
            "A, pinned by a multiple pole", "B, soft-pinned", "B, free, rational",
            "B, free, integer", "g with a denominator", "locus of degree 2",
            "locus of degree 3", "vanishing residue",
        }, features

    def test_candidate_is_not_reduced_again(self, x, monkeypatch):
        from orthoscope import ratfunc
        from orthoscope.algebra import factor

        split = record_calls(monkeypatch, ratfunc.spectrum_and_remainder)
        reduced = record_calls(monkeypatch, ratfunc.hermite_reduce)
        factored = record_calls(monkeypatch, factor.factor_rationals)
        dlogs = record_calls(monkeypatch, ratfunc.dlog_witness)
        case_b = ((x - 1) * (x + 2) * (x**2 + 1), P(x))
        case_a = ((x - 1) ** 3 * (x + 2),
                  P(Fraction(1, 2) + (x - 1) ** 2 * (2 * (x + 2) - (x - 1)) * Fraction(1, 3)))
        for (f, g), case, beta in ((case_b, CASE_B, Fraction(-1, 3)),
                                   (case_a, CASE_A, Fraction(1, 2))):
            split.clear(), reduced.clear(), factored.clear(), dlogs.clear()
            sv = classify_log_family(P(f), g)
            assert sv.fibration.found and (sv.fibration.completeness_case, sv.fibration.beta) \
                == (case, beta)
            # the one split and the one factorization are those of 1/f, and
            # nothing is Hermite-reduced
            assert (split, reduced, factored, len(dlogs)) == ([RatFunc.one() / P(f)], [], [f], 0)


class TestSearchFactorization:
    """The log search reads d's factorization off those of f.num (base's
    spectrum) and g.den, and the residue at a simple pole of 1/f where g is
    regular off base's residue. The oracles factor d from scratch and
    Hermite-reduce (g - beta)/f from scratch."""

    def test_factorization_matches_factoring_from_scratch(self):
        import random

        from orthoscope import criteria, factor_rationals, poly_gcd

        rng = random.Random(16016)
        features = set()
        for _ in range(150):
            f, g = random_search_input(rng)
            n, m, d = g.num * f.den, g.den * f.den, g.den * f.num
            common = poly_gcd(poly_gcd(n, m), d)
            assert common == poly_gcd(f.den, g.den), (f, g)
            d = d.exact_div(common).monic()
            parts = criteria._search_parts(base_orthogonal(f), g.den.exact_div(common))
            assert parts == (factor_rationals(d).parts if d.degree >= 1 else ()), (f, g)
            if poly_gcd(f.num, g.den).degree > 0:
                features.add("f.num shares with g.den")
            if common.degree > 0:
                features.add("f.den shares with g.den")
                if any(q not in dict(parts) for q, _ in factor_rationals(g.den).parts):
                    features.add("a locus of g.den cancels")
            features.update(f"locus of degree {q.degree}" for q, _ in parts)
        assert features >= {"f.num shares with g.den", "f.den shares with g.den",
                            "a locus of g.den cancels", "locus of degree 2",
                            "locus of degree 3"}, features

    def test_reduce_over_divides_each_locus_out_at_most_e_times(self, x):
        from orthoscope import criteria

        parts = ((x - 1, 3), (x + 2, 1), (x**2 + 1, 2))
        d = (x - 1) ** 3 * (x + 2) * (x**2 + 1) ** 2
        c = (x - 1) ** 5 * (x**2 + 1) * (3 * x + 7)
        r, loci = criteria._reduce_over(c, d, parts)
        assert (r, loci) == (RatFunc((x - 1) ** 2 * (3 * x + 7), (x + 2) * (x**2 + 1)),
                             ((x + 2, 1), (x**2 + 1, 1)))
        assert criteria._reduce_over(UniPoly.zero(), d, parts) == (RatFunc.zero(), ())

    def test_candidate_residues_match_hermite_reduction(self, monkeypatch):
        import random

        from orthoscope import criteria, hermite_reduce, poly_gcd

        tested = []
        real = criteria._test_candidate

        def spy(beta, num, den, residues, residue_class, case, assert_found=False):
            tested.append((beta, residues, case, assert_found))
            return real(beta, num, den, residues, residue_class, case, assert_found)

        monkeypatch.setattr(criteria, "_test_candidate", spy)
        rng = random.Random(16017)
        features = set()
        for _ in range(150):
            f, g = random_search_input(rng)
            base = base_orthogonal(f)
            simple = {e.locus for e in base.spectrum.affine_poles if e.multiplicity == 1}
            for residue_class in (RATIONAL, INTEGER):
                tested.clear()
                result = beta_search_log(f, g, base, residue_class)
                if poly_gcd(f.num, g.den).degree > 0:
                    # g/f has a pole there of higher order than beta/f has
                    assert (result.status, result.completeness_case) == (STATUS_NONE, CASE_A)
                    assert hermite_reduce(g / f).spectrum.has_affine_multiple()
                    features.add("f.num shares with g.den")
                for beta, residues, case, assert_found in tested:
                    oracle = hermite_reduce((g - RatFunc.constant(beta)) / f).spectrum
                    assert not oracle.has_affine_multiple(), (f, g, beta)
                    assert {q: v for q, v in residues if v != 0} == \
                        {e.locus: e.residue for e in oracle.affine_poles}, (f, g, beta)
                    features.add("A, pinned" if case == CASE_A
                                 else "B, free" if assert_found else "B, soft-pinned")
                    if poly_gcd(f.den, g.den).degree > 0:
                        features.add("f.den shares with g.den")
                    features.update(f"simple pole of 1/f of degree {q.degree}"
                                    for q, _ in residues
                                    if q in simple and not (g.den % q).is_zero)
        assert features >= {
            "A, pinned", "B, free", "B, soft-pinned", "f.num shares with g.den",
            "f.den shares with g.den", "simple pole of 1/f of degree 1",
            "simple pole of 1/f of degree 2", "simple pole of 1/f of degree 3",
        }, features


class TestResidueForm:
    def test_residue_is_a_fraction_exactly_when_rational(self):
        import random

        from orthoscope import NFElement

        rng = random.Random(16018)
        seen = set()
        for _ in range(60):
            f, g = random_search_input(rng)
            for sv in (classify_log_family(f, g), classify_derivative_family(f, g)):
                for spectrum in (sv.base.spectrum, sv.fibration.residue_table):
                    for e in spectrum.affine_poles if spectrum is not None else ():
                        assert isinstance(e.residue, (Fraction, NFElement))
                        rational = isinstance(e.residue, Fraction) or e.residue.is_rational
                        assert isinstance(e.residue, Fraction) == rational == \
                            e.residue_is_rational, (f, g, e)
                        seen.add(rational)
        assert seen == {True, False}


class TestGridOracleAudit:
    def test_none_verdicts_against_grid_oracle(self):
        # every 'none' is cross-checked against a brute-force grid of beta
        # candidates tested directly through dlog_witness
        import random

        from orthoscope import dlog_witness
        from conftest import random_unipoly

        rng = random.Random(60601)
        grid = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)]
        done = 0
        while done < 100:
            fn = random_unipoly(rng, 4, lo=-4, hi=4, nonzero=True)
            gn = random_unipoly(rng, 3, lo=-4, hi=4)
            if fn.is_zero:
                continue
            f, g = P(fn), P(gn)
            result = beta_search_log(f, g, base_orthogonal(f), RATIONAL)
            if result.status == STATUS_NONE:
                for beta in grid:
                    r = (g - RatFunc.constant(beta)) / f
                    assert not dlog_witness(r, RATIONAL).found, (str(f), str(g), beta)
            done += 1


class TestInvarianceProperties:
    # full-count runs live in the acceptance suite; these are smoke versions

    def test_scaling_invariance_smoke(self):
        import properties

        properties.scaling_invariance(count=20)

    def test_affine_coordinate_invariance_smoke(self):
        import properties

        properties.affine_invariance(count=10)

    def test_no_false_none_constructed_smoke(self):
        import properties

        properties.constructed_no_false_none(count=20)


class TestFixtureHonesty:
    def test_no_inconclusive_on_corpus(self):
        from orthoscope.fixtures import load_corpus, run_corpus

        outcomes = run_corpus(load_corpus())
        for outcome in outcomes:
            assert outcome.passed, (outcome.fixture.name, outcome.details)
            if outcome.report is not None:
                assert "inconclusive" != outcome.report.verdict
                assert outcome.report.completeness_case != CASE_C


class TestSpectrumOrder:
    """Every spectrum is made in factor order, by degree and then
    coefficients as factor_rationals sorts its parts, so the report prints
    the entries in the order they come."""

    @staticmethod
    def _keys(spectrum) -> list:
        return [(e.locus.degree, e.locus.coeffs) for e in spectrum.affine_poles]

    def test_spectra_are_made_in_factor_order(self, x):
        import random

        from orthoscope import factor_rationals, hermite_reduce

        rng = random.Random(20020)
        pool = [x - 2, x + 1, x, x - Fraction(1, 2), x**2 + 1, x**2 - 2, x**3 - 2]
        tables = {"log": 0, "derivative": 0}
        for _ in range(100):
            f, g = random_search_input(rng)
            r = g / f
            for loci in (None, factor_rationals(r.den).parts):
                keys = self._keys(hermite_reduce(r, loci).spectrum)
                assert keys == sorted(keys), (r, loci)
            # g_der = beta + f*h' makes the derivative search find h
            h = RatFunc.zero()
            for q in rng.sample(pool, rng.randint(2, 3)):
                h = h + RatFunc(UniPoly.constant(rng.choice([1, -2, 3])), q ** rng.randint(1, 2))
            g_der = f * derivative(h) + Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            base = base_orthogonal(f)
            for kind, result in (("log", beta_search_log(f, g, base, RATIONAL)),
                                 ("derivative", beta_search_derivative(f, g_der, base))):
                if result.residue_table is not None:
                    keys = self._keys(result.residue_table)
                    assert keys == sorted(keys), (kind, f, g)
                    tables[kind] += len(keys) >= 2
        assert min(tables.values()) >= 10, tables
