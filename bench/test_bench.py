"""Tests of the benchmark itself: inputs, pull-back, tracing arithmetic and
clean-up, and the metric names it prints.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def fresh_orthoscope():
    """Let the benchmark re-import orthoscope, then give every other test
    back the module objects it imported."""
    saved = {n: m for n, m in sys.modules.items()
             if n == "orthoscope" or n.startswith("orthoscope.")}
    yield
    for name in [n for n in sys.modules if n == "orthoscope" or n.startswith("orthoscope.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.fixture(scope="module")
def fixtures():
    from orthoscope.fixtures import load_corpus

    return load_corpus()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, fixtures):
    count = 2 * workloads.round_length(workload, fixtures)
    first = workloads.generate(workload, 11, count, fixtures)
    assert first == workloads.generate(workload, 11, count, fixtures)
    assert first != workloads.generate(workload, 12, count, fixtures)
    assert workloads.warmup(workload, 11, fixtures) == workloads.warmup(workload, 11, fixtures)


def test_corpus_inputs_do_not_repeat(fixtures):
    deck = workloads.generate("corpus", 3, 50 * len(fixtures), fixtures)
    assert len({r.text for r in deck}) == len(deck)


def test_identity_pull_back_reproduces_each_record(fixtures):
    for fx in fixtures:
        assert workloads.pull_back(fx.command, fx.source, 1, 0) == fx.source


def test_pull_back_of_a_system_and_a_bare_function():
    assert (workloads.pull_back("classify", "x' = x^2*(x-1); y' = y*x", Fraction(2), Fraction(-1, 3))
            == "x' = (1/2)*((2*x + (-1/3))^2*((2*x + (-1/3))-1)); y' = y*(2*x + (-1/3))")
    assert workloads.pull_back("residues", "1/x^2", Fraction(3), Fraction(0)) == "3*(1/(3*x)^2)"
    assert workloads.pull_back("base", "x^2", Fraction(1), Fraction(2)) == "(x + 2)^2"


def test_self_time_on_a_nested_trace():
    spans = tracer.Spans()
    a = spans.open(0, 0, -1, 0, 3)
    b = spans.open(1, 10, a, 0, 2)
    c = spans.open(2, 15, b, 0, 1)
    d = spans.open(1, 50, a, 0, 2)
    for span, end in ((c, 25), (b, 40), (d, 90), (a, 100)):
        spans.end[span] = end
    calls, self_ns = tracer.self_times(spans, 3)
    assert calls == [1, 2, 1]
    # a: 100 - 30 - 40; b: (30 - 10) + 40; c: 10
    assert self_ns == [30, 60, 10]


def test_max_degree_of_arguments():
    from orthoscope import RatFunc, UniPoly

    p = UniPoly.of([1, 0, 0, 2])
    assert tracer.max_degree((p, UniPoly.of([1, 1]))) == 3
    assert tracer.max_degree((RatFunc(UniPoly.one(), p), "text")) == 3
    assert tracer.max_degree(("text",)) == -1


def _orthoscope_bindings():
    import orthoscope.algebra.numberfield as nf
    import orthoscope.algebra.unipoly as up
    import orthoscope.report as rp

    owners = [m for n, m in sys.modules.items() if n == "orthoscope" or n.startswith("orthoscope.")]
    owners += [up.UniPoly, nf.NFElement, rp.WitnessData]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_are_removed(fresh_orthoscope):
    program = run.Program()
    req = workloads.warmup("corpus", 0, program.fixtures.load_corpus())[0]
    before = _orthoscope_bindings()
    with tracer.Tracer() as trace:
        assert program.cli.run is not before[(id(program.cli), "run")]
        trace.request = 0
        assert program.mismatch(req, program.serve(req)) is None
    assert len(trace.spans) > 0
    after = _orthoscope_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_listed_metrics(trace, capsys, fresh_orthoscope):
    assert run.main(["--workload", "corpus", "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert METRIC_NAME.fullmatch(m["name"])
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
