"""Golden outputs: every command on every corpus source, byte for byte.

tests/data/golden.json maps "command | source" to the JSON report that
`emit` produces, and tests/data/golden_text.json to the text report (with
its `identity:` lines); either holds "ErrorType: message" when the command
refuses the source. tests/data/golden_decks.json maps each request of one
round of every benchmark deck at seed 1, as "command | text" (with
"--class C" after the command for a class other than rational), to the
sha256 of both reports. A refactor that must keep verdicts, witnesses and
output bytes unchanged keeps the three files unchanged. After a deliberate
output change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

which reads the decks from bench/workloads.py, and list the changed
entries in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from orthoscope.cli import COMMANDS, run
from orthoscope.errors import OrthoscopeError
from orthoscope.fixtures import load_corpus
from orthoscope.ratfunc import RATIONAL
from orthoscope.report import _dump, _payload, emit

DATA = Path(__file__).parent / "data"
GOLDEN = {"json": DATA / "golden.json", "text": DATA / "golden_text.json"}
DECKS = DATA / "golden_decks.json"


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
    """One round of each benchmark deck at seed 1, from bench/workloads.py."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))
    import workloads

    fixtures, keys = load_corpus(), []
    for workload in workloads.WORKLOADS:
        count = workloads.round_length(workload, fixtures)
        for req in workloads.generate(workload, 1, count, fixtures):
            assert req.gauge_h == "y", req     # deck_key has no --h
            keys.append(deck_key(req.command, req.text, req.residue_class))
    return {k: deck_digest(k) for k in keys}


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
    assert len(decks) == 50
    for key, digest in decks.items():
        assert deck_digest(key) == digest, key


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
