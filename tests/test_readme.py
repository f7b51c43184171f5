"""The README's examples run as written: each command line exits 0, and each
commented value of the library snippet is the repr of its expression."""

import shlex
from pathlib import Path

from orthoscope.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> list[str]:
    """The lines of the first fenced block under the ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].splitlines()[1:]


def test_command_lines_exit_zero():
    lines = [line for line in _block("Command line") if line.startswith("orthoscope ")]
    assert len(lines) == 12
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_library_snippet_values():
    namespace: dict = {}
    checked = 0
    for line in _block("Library"):
        code, _, comment = line.partition("#")
        if comment:
            value = eval(code, namespace)
            assert comment.strip().startswith(repr(value)), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3
