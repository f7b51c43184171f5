"""Golden outputs: every command on every corpus source, byte for byte.

tests/data/golden.json maps "command | source" to the JSON report that
`emit` produces, and tests/data/golden_text.json to the text report (with
its `identity:` lines); either holds "ErrorType: message" when the command
refuses the source. tests/data/golden_decks.json maps each request of one
round of every benchmark deck at seeds 1 to 3, as "command | text" (with
"--class C" after the command for a class other than rational), to the
sha256 of both reports. tests/data/golden_branches.json does the same for
BRANCH_KEYS, requests that reach branches of the beta searches and of
Hermite's steps which neither the corpus nor the decks reach.
tests/data/golden_searches.json holds, for each of the three beta searches
(log in the rational and in the integer class, derivative) over
SEARCH_DRAWS random (f, g) pairs at SEARCH_SEED, the sha256 of every result
and the count of results by status and completeness case. A refactor that
must keep verdicts, witnesses and output bytes unchanged keeps the five
files unchanged. After a deliberate output change, regenerate them
with

    PYTHONPATH=src python tests/test_golden.py

which reads the decks from bench/workloads.py, and list the changed
entries in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from orthoscope.cli import COMMANDS, run
from orthoscope.criteria import base_orthogonal, beta_search_derivative, beta_search_log
from orthoscope.errors import OrthoscopeError
from orthoscope.fixtures import load_corpus
from orthoscope.ratfunc import INTEGER, RATIONAL
from orthoscope.report import _dump, _payload, emit
from conftest import random_search_input

DATA = Path(__file__).parent / "data"
GOLDEN = {"json": DATA / "golden.json", "text": DATA / "golden_text.json"}
DECKS = DATA / "golden_decks.json"
BRANCHES = DATA / "golden_branches.json"
SEARCHES = DATA / "golden_searches.json"
DECK_SEEDS = (1, 2, 3)
SEARCH_SEED, SEARCH_DRAWS = 3501, 500

# Each request and the branch it reaches, as deck_key writes it.
BRANCH_KEYS = (
    # case C: the soft system is empty and nothing anchors beta
    "classify | x' = (x^2-2)*(x^2-3); y' = y*x^2",
    # the soft system is empty and anchored: none, case B
    "classify | x' = (x-1)*(x^2-2)*(x^2-3); y' = y*x^2",
    # the soft-pinned candidate fails and nothing anchors beta: case C
    "beta-log --class integer | x' = x^2 - 2; y' = y*(x + 1)",
    # the soft-pinned candidate fails and beta is anchored: none, case B
    "beta-log --class integer | x' = (x-1)*(x^2-2); y' = y*x",
    # _solve_integrality finds no beta
    "beta-log --class integer | x' = (x-1)*(x-2); y' = y*x/2",
    # the pinned candidate fails: none, case A
    "beta-log --class integer | x' = x^2*(x-1); y' = y*(1 + x/2)",
    # a locus of g.den alone, irrational for every beta
    "beta-log | x' = (x-1)*(x-2); y' = y/(x^2-2)",
    # the conditions at infinity leave case A empty
    "classify | x' = x; y' = y*x^2",
    # common = x + 2 is stripped from d's factorization
    "classify | x' = (x-1)/(x+2); y' = y*x/((x+2)*(x-3))",
    # the remainder ratio pins beta, which works
    "beta-der | x' = x^2*(x-1); y' = 1/(x-1)",
    "beta-der | x' = x^2*(x-1)^2; y' = x",
    # the remainder ratio is not constant: none
    "beta-der | x' = x^2*(x-1)^2; y' = x^3",
    # rem(1/f) = 0, so beta = 0: none, then found
    "beta-der | x' = x^2; y' = x",
    "beta-der | x' = x^2; y' = 1",
    # the simple pole pins an irrational beta: none
    "beta-der | x' = x^2 - 2; y' = x",
    # only the residue at infinity anchors beta, and the soft system is
    # empty: none, case B; f and g are quotients of coprime bases
    "classify | x' = (x^2-2)*(x^2-3)/(x^3 + 1); y' = y/(x-5)",
    "classify | x' = (x^2-2)*(x^2-3)/(x^3 + 1); y' = y*x/(x-5)",
    # Hermite's steps at a nonlinear class of multiplicity >= 2
    "residues | 1/(x^2+1)^3",
    "is-derivative | x/(x^2+1)^2",
)


def sources() -> list[str]:
    return sorted({fx.source for fx in load_corpus()})


def key(command: str, source: str) -> str:
    return f"{command} | {source}"


def output(command: str, source: str, format: str = "json",
           residue_class: str = RATIONAL) -> str:
    try:
        return emit(run(command, source, residue_class), format)
    except OrthoscopeError as exc:
        # the package's own errors: each refusal is golden too; any other
        # exception is an internal fault and fails the test
        return f"{type(exc).__name__}: {exc}"


def golden_entries(format: str) -> dict[str, str]:
    return {key(c, s): output(c, s, format) for c in COMMANDS for s in sources()}


def deck_key(command: str, text: str, residue_class: str = RATIONAL) -> str:
    option = "" if residue_class == RATIONAL else f" --class {residue_class}"
    return f"{command}{option} | {text}"


def deck_digest(key: str) -> str:
    """sha256 of the JSON and text reports of the request that key names."""
    head, text = key.split(" | ", 1)
    command, *residue_class = head.split(" --class ")
    reports = (output(command, text, format, *residue_class) for format in ("json", "text"))
    return hashlib.sha256("\n".join(reports).encode()).hexdigest()


def deck_entries() -> dict[str, str]:
    """One round of each benchmark deck at each of DECK_SEEDS, from
    bench/workloads.py."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
    import workloads

    fixtures, keys = load_corpus(), []
    for workload in workloads.WORKLOADS:
        count = workloads.round_length(workload, fixtures)
        for seed in DECK_SEEDS:
            for req in workloads.generate(workload, seed, count, fixtures):
                assert req.gauge_h == "y", req     # deck_key has no --h
                keys.append(deck_key(req.command, req.text, req.residue_class))
    return {k: deck_digest(k) for k in keys}


BETA_SEARCHES = {
    "log rational": lambda f, g, base: beta_search_log(f, g, base, RATIONAL),
    "log integer": lambda f, g, base: beta_search_log(f, g, base, INTEGER),
    "derivative": beta_search_derivative,
}


def search_record(result) -> str:
    """Everything a beta search answers: status, beta, case, detail, the
    witness's kind, h, scaling and target, and the residue table."""
    w = result.witness
    witness = None if w is None else (w.kind, w.h, w.scaling, w.target)
    return repr((result.status, result.beta, result.completeness_case, result.detail,
                 witness, result.residue_table))


def search_entries() -> dict[str, dict]:
    """The sha256 of each search's results over SEARCH_DRAWS random pairs,
    and the count of its results by status and case."""
    rng = random.Random(SEARCH_SEED)
    digests = {name: hashlib.sha256() for name in BETA_SEARCHES}
    counts = {name: Counter() for name in BETA_SEARCHES}
    for _ in range(SEARCH_DRAWS):
        f, g = random_search_input(rng)
        base = base_orthogonal(f)
        for name, search in BETA_SEARCHES.items():
            result = search(f, g, base)
            digests[name].update(f"{search_record(result)}\n".encode())
            counts[name][f"{result.status} {result.completeness_case}"] += 1
    return {name: {"sha256": digests[name].hexdigest(), "counts": dict(counts[name])}
            for name in BETA_SEARCHES}


def load(format: str) -> dict[str, str]:
    return json.loads(GOLDEN[format].read_text())


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return load("json")


@pytest.fixture(scope="module")
def golden_text() -> dict[str, str]:
    return load("text")


def test_golden_covers_every_command_and_source(golden):
    assert set(golden) == {key(c, s) for c in COMMANDS for s in sources()}


def test_golden_text_covers_every_command_and_source(golden_text):
    assert set(golden_text) == {key(c, s) for c in COMMANDS for s in sources()}


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_golden(golden, command):
    for source in sources():
        assert output(command, source) == golden[key(command, source)], source


@pytest.mark.parametrize("command", COMMANDS)
def test_text_outputs_match_golden(golden_text, command):
    for source in sources():
        assert output(command, source, "text") == golden_text[key(command, source)], source


def test_deck_reports_match_golden():
    decks = json.loads(DECKS.read_text())
    assert len(decks) == 50 * len(DECK_SEEDS)
    for key, digest in decks.items():
        assert deck_digest(key) == digest, key


def test_branch_reports_match_golden():
    branches = json.loads(BRANCHES.read_text())
    assert set(branches) == set(BRANCH_KEYS)
    for key, digest in branches.items():
        assert deck_digest(key) == digest, key


def test_random_searches_match_golden():
    assert search_entries() == json.loads(SEARCHES.read_text())


@pytest.mark.parametrize("command", COMMANDS)
def test_json_writer_matches_json_dumps(command):
    # the report's own writer against the stdlib encoder, payload by payload
    for source in sources():
        try:
            payload = _payload(run(command, source))
        except OrthoscopeError:
            continue
        assert _dump(payload) == json.dumps(payload, sort_keys=True, indent=2), source


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for format, path in GOLDEN.items():
        path.write_text(json.dumps(golden_entries(format), indent=1, sort_keys=True) + "\n")
        sys.stdout.write(f"wrote {path}\n")
    DECKS.write_text(json.dumps(deck_entries(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {DECKS}\n")
    BRANCHES.write_text(json.dumps({k: deck_digest(k) for k in BRANCH_KEYS},
                                   indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {BRANCHES}\n")
    SEARCHES.write_text(json.dumps(search_entries(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {SEARCHES}\n")
