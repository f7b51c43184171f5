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
        with pytest.raises(ValueError):
            base_orthogonal(RatFunc.zero())

    def test_evidence_consistent_with_spectrum(self, x):
        cases = [x**3 * (x - 1), x * (x - 1), x**3 - 2, x**2, x + 1]
        for f in cases:
            v = base_orthogonal(P(f))
            if v.evidence == EVIDENCE_MULTIPLE_AND_SIMPLE:
                assert v.spectrum.has_multiple_pole() and v.spectrum.has_simple_pole()
            elif v.evidence == EVIDENCE_NO_SIMPLE_POLE:
                assert not v.spectrum.has_simple_pole()
            elif v.evidence in (EVIDENCE_IRRATIONAL_RATIO, EVIDENCE_RATIONAL_RATIOS):
                assert v.spectrum.only_simple_poles()


class TestBetaSearchLog:
    def test_pinned_found(self, x):
        r = beta_search_log(P(x**2 * (x - 1)), P(x), RATIONAL)
        assert r.status == STATUS_FOUND and r.beta == 0
        assert r.completeness_case == CASE_A
        assert r.witness.h == RatFunc(x - 1, x) and r.witness.scaling == 1
        residues = {e.locus.to_string(): e.residue for e in r.residue_table.affine_poles}
        assert residues == {"x": Fraction(-1), "x - 1": Fraction(1)}
        # the integer class also succeeds here
        assert beta_search_log(P(x**2 * (x - 1)), P(x), INTEGER).status == STATUS_FOUND

    def test_pinned_none(self, x):
        r = beta_search_log(P(x**3 * (x - 1)), P(x), RATIONAL)
        assert r.status == STATUS_NONE and r.completeness_case == CASE_A

    def test_zero_fiber(self, x):
        r = beta_search_log(P(x**3 - 2), RatFunc.zero(), RATIONAL)
        assert r.status == STATUS_FOUND and r.beta == 0
        assert r.residue_table.is_empty()

    def test_zero_f_rejected(self, x):
        with pytest.raises(ValueError):
            beta_search_log(RatFunc.zero(), P(x), RATIONAL)

    def test_unknown_class_rejected(self, x):
        with pytest.raises(ValueError):
            beta_search_log(P(x), P(x), "complex")

    def test_integer_class_progressions(self, x):
        # residues of (g - beta)/f at 0 and 1 are g(0)-beta and beta-g(1)... both
        # must be integers; here they differ by 1/2 for every beta
        f = P(x * (x - 1))
        g = RatFunc.from_poly(UniPoly.of([0, Fraction(1, 2)]))  # x/2
        r_int = beta_search_log(f, g, INTEGER)
        r_rat = beta_search_log(f, g, RATIONAL)
        assert r_rat.status == STATUS_FOUND
        assert r_int.status == STATUS_NONE and r_int.completeness_case == CASE_B

    def test_integer_class_progressions_solvable(self, x):
        # beta = 1/2 gives integer residues 1, 1, -1 at 0, 1, -1
        f = P(x * (x - 1) * (x + 1))
        g = RatFunc.from_poly(UniPoly.of([Fraction(-1, 2), 2, 1]))
        r_int = beta_search_log(f, g, INTEGER)
        assert r_int.status == STATUS_FOUND
        assert r_int.beta == Fraction(1, 2)
        assert r_int.witness.scaling == 1
        residues = sorted(e.residue for e in r_int.residue_table.affine_poles)
        assert residues == [Fraction(-1), Fraction(1), Fraction(1)]

    def test_conjugate_coupled_single_factor(self, x):
        r = beta_search_log(P(x**3 - 2), P(x), RATIONAL)
        assert r.status == STATUS_INCONCLUSIVE and r.completeness_case == CASE_C

    def test_conjugate_coupled_conflicting_pins(self, x):
        r = beta_search_log(P((x**2 - 2) * (x**2 - 3)), P(x**2), RATIONAL)
        assert r.status == STATUS_INCONCLUSIVE and r.completeness_case == CASE_C

    def test_anchored_conjugate_factor_is_complete(self, x):
        # an extra rational simple pole anchors beta, so the conjugate factor
        # yields a complete verdict instead of case C
        f = P((x**3 - 2) * x)
        r = beta_search_log(f, P(x), RATIONAL)
        assert r.status in (STATUS_FOUND, STATUS_NONE)
        assert r.completeness_case in (CASE_A, CASE_B)


class TestBetaSearchDerivative:
    def test_found_with_witness(self, x):
        r = beta_search_derivative(P(x**2 * (x - 1)), P(x))
        assert r.status == STATUS_FOUND and r.beta == 1
        assert r.witness.h == RatFunc(UniPoly.constant(-1), x)
        # exact identity: (x - 1)/(x^2(x-1)) = (-1/x)'
        assert r.witness.h.derivative() == RatFunc(x - 1, x**2 * (x - 1))

    def test_none(self, x):
        r = beta_search_derivative(P(x**2 * (x - 1) * (x + 1)), P(x))
        assert r.status == STATUS_NONE

    def test_zero_fiber_trivial(self, x):
        r = beta_search_derivative(P(x**17 - 3), RatFunc.zero())
        assert r.status == STATUS_FOUND and r.beta == 0 and r.witness.h.is_zero


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

    def test_verdict_invariants(self, x):
        for f, g in [(x**2 * (x - 1), x), (x**3 * (x - 1), x), (x * (x - 1), x)]:
            v = classify_log_family(P(f), P(g))
            if v.conclusion == CONCLUSION_ORTHOGONAL:
                assert v.base.orthogonal and v.fibration.status == STATUS_NONE
            if v.conclusion == CONCLUSION_NONORTHOGONAL:
                assert v.fibration.status == STATUS_FOUND


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
            result = beta_search_log(f, g, RATIONAL)
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
