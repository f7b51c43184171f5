"""Golden outputs: every command on every corpus source, byte for byte.

tests/data/golden.json maps "command | source" to the JSON report that
`emit` produces, or to "ErrorType: message" when the command refuses the
source. A refactor that must keep verdicts, witnesses and JSON bytes
unchanged keeps this file unchanged. After a deliberate output change,
regenerate it with

    PYTHONPATH=src python tests/test_golden.py

and list the changed entries in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from orthoscope.cli import COMMANDS, run
from orthoscope.errors import OrthoscopeError
from orthoscope.fixtures import load_corpus
from orthoscope.report import emit

GOLDEN = Path(__file__).parent / "data" / "golden.json"


def sources() -> list[str]:
    return sorted({fx.source for fx in load_corpus()})


def key(command: str, source: str) -> str:
    return f"{command} | {source}"


def output(command: str, source: str) -> str:
    try:
        return emit(run(command, source), "json")
    except (OrthoscopeError, ValueError, ZeroDivisionError, RuntimeError) as exc:
        # the errors the cli turns into an exit code: each refusal is golden too
        return f"{type(exc).__name__}: {exc}"


def golden_entries() -> dict[str, str]:
    return {key(c, s): output(c, s) for c in COMMANDS for s in sources()}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command_and_source(golden):
    assert set(golden) == {key(c, s) for c in COMMANDS for s in sources()}


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_golden(golden, command):
    for source in sources():
        assert output(command, source) == golden[key(command, source)], source


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_entries(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
