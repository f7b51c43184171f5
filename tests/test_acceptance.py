"""Acceptance gate: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`); all
algebraic checks are exact, with the single numerical cross-check at 1e-9.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import properties
from orthoscope import (
    RATIONAL,
    BiPoly,
    PlanarVectorField,
    RatFunc,
    UniPoly,
    base_orthogonal,
    beta_search_log,
    classify_derivative_family,
    classify_invariant_line_lift,
    classify_log_family,
    foliation_linearize,
    invariant_line,
    linearize_along_line,
    system_dlog,
)
from orthoscope.cli import run
from orthoscope.criteria import (
    CASE_A,
    CASE_C,
    CONCLUSION_NONORTHOGONAL,
    CONCLUSION_ORTHOGONAL,
    STATUS_NONE,
)
from orthoscope.errors import WitnessVerificationError
from orthoscope.fixtures import load_corpus, run_corpus
from orthoscope.planar import BiRatFunc

X = UniPoly.variable()
P = RatFunc.from_poly


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_log_family_classification():
    with criterion(1, "log-family classification, exact verdicts, < 100 ms each"):
        v1, t1 = timed(lambda: classify_log_family(P(X**2 * (X - 1)), P(X)))
        assert v1.conclusion == CONCLUSION_NONORTHOGONAL
        v2, t2 = timed(lambda: classify_log_family(P(X**3 * (X - 1)), P(X)))
        assert v2.conclusion == CONCLUSION_ORTHOGONAL
        assert t1 < 0.1 and t2 < 0.1, (t1, t2)


def test_criterion_2_derivative_family_classification():
    with criterion(2, "derivative-family classification with exact witness, < 100 ms each"):
        v1, t1 = timed(lambda: classify_derivative_family(P(X**2 * (X - 1)), P(X)))
        assert v1.conclusion == CONCLUSION_NONORTHOGONAL
        assert v1.fibration.beta == 1
        h = v1.fibration.witness.h
        assert h == RatFunc(UniPoly.constant(-1), X)
        # exact identity: (x - 1)/(x^2 (x - 1)) = (-1/x)'
        assert h.derivative() == RatFunc(X - 1, X**2 * (X - 1))
        v2, t2 = timed(lambda: classify_derivative_family(P(X**2 * (X - 1) * (X + 1)), P(X)))
        assert v2.conclusion == CONCLUSION_ORTHOGONAL
        assert t1 < 0.1 and t2 < 0.1, (t1, t2)


def test_criterion_3_planar_pipeline():
    with criterion(3, "planar pipeline: linearization, base, search, lift, gauge, < 200 ms"):
        start = time.perf_counter()
        v = PlanarVectorField(
            BiPoly.of({(4, 0): 1, (3, 0): -1}),
            BiPoly.of({(1, 1): 1, (0, 2): Fraction(1, 2)}),
        )
        assert invariant_line(v).invariant
        lin = linearize_along_line(v)
        assert lin.base_f0 == X**3 * (X - 1) and lin.fiber_hZ == X
        field = lin.as_vector_field
        assert field.fx == BiPoly.of({(4, 0): 1, (3, 0): -1})
        assert field.fy == BiPoly.of({(1, 1): 1})
        assert base_orthogonal(P(lin.base_f0)).orthogonal
        search = beta_search_log(P(lin.base_f0), P(lin.fiber_hZ), RATIONAL)
        assert search.status == STATUS_NONE and search.completeness_case == CASE_A
        verdict = classify_invariant_line_lift(v)
        assert verdict.conclusion == CONCLUSION_ORTHOGONAL
        dy = PlanarVectorField(BiPoly.zero(), BiPoly.one())
        cofactor = foliation_linearize(v, dy).cofactor_c
        assert cofactor == BiRatFunc.from_poly(BiPoly.of({(1, 0): 1, (0, 1): 1}))
        y = BiRatFunc.from_poly(BiPoly.y())
        transformed = cofactor - system_dlog(v, y)
        assert transformed == BiRatFunc.from_poly(BiPoly.of({(0, 1): Fraction(1, 2)}))
        report = run("lift", "x' = x^3*(x-1); y' = x*y + y^2/2")
        assert any("leaves cofactor 1/2*y" in note for note in report.notes)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.2, elapsed


def test_criterion_4_deformation_family():
    with criterion(4, "five sampled deformations lift to orthogonal, < 1 s total"):
        start = time.perf_counter()
        base_fx = {(4, 0): 1, (3, 0): -1}
        samples = [
            ({(0, 1): 1}, {(1, 2): 1}),                       # f1 = 1, g2 = x
            ({(1, 1): 2, (0, 3): 1}, {(0, 2): 3, (2, 3): 1}),
            ({(3, 1): -1}, {(1, 2): 1, (0, 4): -2}),
            ({(0, 2): 5, (2, 1): 1}, {(3, 2): 1}),
            ({(1, 1): 1, (2, 2): -3, (0, 4): 1}, {(2, 2): 7, (1, 3): -1}),
        ]
        for fx_extra, fy_extra in samples:
            fx = BiPoly.of(base_fx) + BiPoly.of(fx_extra)
            fy = BiPoly.of({(1, 1): 1}) + BiPoly.of(fy_extra)
            verdict = classify_invariant_line_lift(PlanarVectorField(fx, fy))
            assert verdict.conclusion == CONCLUSION_ORTHOGONAL
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, elapsed


def test_criterion_5_property_suites():
    with criterion(5, "property suites at the stated counts (exact; numerics at 1e-9)"):
        properties.residue_sum_zero(300)
        properties.hermite_roundtrip(300)
        properties.dlog_soundness_completeness(100)
        properties.constructed_no_false_none(100)
        properties.bracket_algebra(100)
        properties.scaling_invariance(100)
        properties.affine_invariance(50)
        properties.numerical_residue_crosscheck(200, tol=1e-9)


def test_criterion_6_honesty_guard():
    with criterion(6, "no case C on the corpus; witness failure maps to exit 4"):
        outcomes = run_corpus(load_corpus())
        assert outcomes, "corpus must not be empty"
        for outcome in outcomes:
            assert outcome.passed, (outcome.fixture.name, outcome.details)
            if outcome.report is not None:
                assert outcome.report.verdict != "inconclusive"
                assert outcome.report.completeness_case != CASE_C
        # a witness failing its identity aborts with exit code 4
        from orthoscope.report import WITNESS_DLOG, Report, WitnessData, emit

        bad = WitnessData(WITNESS_DLOG, P(X), 1, P(X))
        with pytest.raises(WitnessVerificationError):
            emit(Report("classify", "orthogonal-to-constants", witness=bad), "json")
        import orthoscope.cli as cli_mod

        original = cli_mod.run
        try:
            cli_mod.run = lambda *a, **k: Report(
                "classify", "orthogonal-to-constants", witness=bad
            )
            assert cli_mod.main(["classify", "x' = x; y' = y*x"]) == 4
        finally:
            cli_mod.run = original
