"""Regression fixture corpus: loader and runner.

The corpus is a plain-text file of records; each record names a command,
an input source, and the expected verdict/evidence. The runner executes
every record, prints one PASS/FAIL line per fixture, and reports failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .cli import run
from .errors import HypothesisError, OrthoscopeError, ParseError, ShapeError
from .ratfunc import RATIONAL
from .report import Report, emit

# The values of `expect_error` and the error each one names. A record
# that raises any other OrthoscopeError fails; any other exception is an
# internal fault, which the cli reports with exit code 4.
ERROR_KINDS = {"hypothesis": HypothesisError, "parse": ParseError, "shape": ShapeError}


@dataclass
class Fixture:
    name: str
    command: str = ""
    source: str = ""
    residue_class: str = RATIONAL
    gauge_h: str = "y"
    expectations: dict[str, str] = field(default_factory=dict)


@dataclass
class FixtureOutcome:
    fixture: Fixture
    passed: bool
    details: list[str]
    report: Report | None


def load_corpus(text: str | None = None) -> list[Fixture]:
    if text is None:
        text = resources.files("orthoscope.data").joinpath("fixtures.txt").read_text()
    fixtures: list[Fixture] = []
    current: Fixture | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = Fixture(line[1:-1])
            fixtures.append(current)
            continue
        if current is None or "=" not in line:
            raise ValueError(f"malformed corpus line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "command":
            current.command = value
        elif key == "source":
            current.source = value
        elif key == "class":
            current.residue_class = value
        elif key == "h":
            current.gauge_h = value
        elif key.startswith("expect_") or key == "note":
            current.expectations[key] = value
        elif key != "anchor":    # an anchor describes the record; no check reads it
            raise ValueError(f"unknown corpus field {key!r}")
    return fixtures


def run_fixture(fx: Fixture) -> FixtureOutcome:
    want_error = fx.expectations.get("expect_error")
    try:
        report = run(fx.command, fx.source, residue_class=fx.residue_class,
                     gauge_h=fx.gauge_h)
    except OrthoscopeError as exc:
        if want_error is None:
            return FixtureOutcome(fx, False, [f"raised {type(exc).__name__}: {exc}"], None)
        if isinstance(exc, ERROR_KINDS.get(want_error, ())):
            return FixtureOutcome(fx, True, [], None)
        return FixtureOutcome(
            fx, False, [f"expected a {want_error} error, raised {type(exc).__name__}"], None
        )
    if want_error is not None:
        return FixtureOutcome(fx, False, ["expected an error, got a verdict"], None)
    details: list[str] = []
    checks = {
        "expect_verdict": lambda r: r.verdict,
        "expect_beta": lambda r: None if r.beta is None else str(r.beta),
        "expect_witness_h": lambda r: None if r.witness is None else r.witness.h.to_string(),
        "expect_scaling": lambda r: None if r.witness is None else str(r.witness.scaling),
        "expect_case": lambda r: r.completeness_case,
    }
    for key, getter in checks.items():
        if key in fx.expectations:
            got = getter(report)
            want = fx.expectations[key]
            if got != want:
                details.append(f"{key}: wanted {want!r}, got {got!r}")
    if "expect_note_contains" in fx.expectations:
        needle = fx.expectations["expect_note_contains"]
        if not any(needle in note for note in report.notes):
            details.append(f"no note contains {needle!r}")
    return FixtureOutcome(fx, not details, details, report)


def run_corpus(fixtures: list[Fixture] | None = None) -> list[FixtureOutcome]:
    if fixtures is None:
        fixtures = load_corpus()
    return [run_fixture(fx) for fx in fixtures]


def main(action: str, json_mode: bool = False) -> int:
    fixtures = load_corpus()
    if action == "list":
        for fx in fixtures:
            print(f"{fx.name}: {fx.command} {fx.source!r}")
        return 0
    outcomes = run_corpus(fixtures)
    failed = 0
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        if not outcome.passed:
            failed += 1
        line = f"{status} {outcome.fixture.name}"
        if outcome.details:
            line += "  (" + "; ".join(outcome.details) + ")"
        print(line)
        if json_mode and outcome.report is not None:
            print(emit(outcome.report, "json"))
    print(f"{len(outcomes) - failed}/{len(outcomes)} fixtures passed")
    return 0 if failed == 0 else 1
