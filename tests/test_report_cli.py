import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import orthoscope
from orthoscope import RatFunc, emit
from orthoscope.cli import main, run
from orthoscope.errors import OrthoscopeError, WitnessVerificationError
from orthoscope.fixtures import Fixture, load_corpus, run_corpus, run_fixture
from orthoscope.parsing import parse_system, parse_univariate
from orthoscope.planar import linearize_along_line
from orthoscope.report import WITNESS_DLOG, Report, WitnessData


@pytest.fixture(scope="module")
def schema():
    from importlib import resources

    text = resources.files("orthoscope.data").joinpath("report_schema.json").read_text()
    return json.loads(text)


class TestEmit:
    def test_derivative_witness_json(self, schema):
        report = run("classify", "x' = x^2*(x-1); y' = x")
        payload = json.loads(emit(report, "json"))
        jsonschema.validate(payload, schema)
        assert payload["beta"] == "1"
        assert payload["witness"] == {"h": "-1/x", "scaling": 1}

    def test_empty_spectrum_residues(self, schema):
        report = run("residues", "x + 1")
        payload = json.loads(emit(report, "json"))
        jsonschema.validate(payload, schema)
        # polynomial: only a pole at infinity
        assert payload["residues"] == [
            {"locus": "infinity", "multiplicity": 3, "residue": "0"}
        ]
        report = run("is-dlog", "0")
        payload = json.loads(emit(report, "json"))
        assert payload["residues"] == []

    def test_orthogonal_text_phrase(self):
        report = run("classify", "x' = x^3*(x-1); y' = y*x")
        text = emit(report, "text")
        assert "orthogonal to the constants" in text

    def test_schema_validates_every_fixture_report(self, schema):
        for outcome in run_corpus(load_corpus()):
            if outcome.report is None:
                continue
            jsonschema.validate(json.loads(emit(outcome.report, "json")), schema)

    def test_json_deterministic(self):
        a = emit(run("classify", "x' = x^2*(x-1); y' = y*x"), "json")
        b = emit(run("classify", "x' = x^2*(x-1); y' = y*x"), "json")
        assert a == b  # byte-identical

    def test_text_deterministic(self):
        a = emit(run("classify", "x' = x^2*(x-1); y' = y*x"), "text")
        b = emit(run("classify", "x' = x^2*(x-1); y' = y*x"), "text")
        assert a == b  # byte-identical, no wall-clock line

    def test_exact_strings_never_floats(self):
        report = run("residues", "1/(x^3 - 2)")
        payload = json.loads(emit(report, "json"))
        entry = payload["residues"][0]
        assert entry["residue"] == "root of x^3 - 2, component 1/6*x"

    def test_corrupt_witness_rejected(self, x):
        bad = WitnessData(WITNESS_DLOG, RatFunc.from_poly(x), 1,
                          RatFunc.from_poly(x))  # dlog(x) != x
        report = Report("classify", "orthogonal-to-constants", witness=bad)
        with pytest.raises(WitnessVerificationError):
            emit(report, "json")


class TestCliExitCodes:
    def test_verdict_exit_zero(self, capsys):
        assert main(["classify", "x' = x^2*(x-1); y' = y*x"]) == 0
        out = capsys.readouterr().out
        assert "nonorthogonal-uniformly-almost-internal" in out

    def test_json_flag(self, capsys):
        assert main(["classify", "--json", "x' = x^3*(x-1); y' = y*x"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "orthogonal-to-constants"

    def test_parse_error_exit_two(self, capsys):
        assert main(["classify", "x' = "]) == 2

    def test_huge_power_exit_two_within_a_second(self, capsys):
        start = time.perf_counter()
        assert main(["classify", "x' = x^99999999999999999999; y' = y*x"]) == 2
        assert main(["classify", "x' = (x+1)^3000; y' = y*x"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "exceeds the degree bound" in capsys.readouterr().err

    def test_input_budgets_exit_two_within_a_second(self, capsys):
        for source, message in (
            ("x' = (x+1)^1000*(x+1)^1000; y' = y*x", "product exceeds the degree bound"),
            ("x' = " + "9" * 5000 + "*x; y' = y*x", "integer literal longer than 4300 digits"),
        ):
            start = time.perf_counter()
            assert main(["classify", source]) == 2
            assert time.perf_counter() - start < 1.0
            assert message in capsys.readouterr().err

    def test_closed_pipe_exits_one_quietly(self):
        # the witness identity runs to about 170 kB, more than a pipe holds,
        # so the writer is still writing when the reader goes away
        env = dict(os.environ, PYTHONPATH=str(Path(orthoscope.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "orthoscope.cli", "is-derivative", "--witness",
             "(x+1)^500"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"command: is-derivative\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_shape_error_exit_three(self, capsys):
        assert main(["lift", "x' = x; y' = x + y"]) == 3
        assert main(["classify", "x' = x^3*(x-1); y' = x*y + y^2/2"]) == 3
        assert main(["lift", "x' = x^2*(x-1); y' = y*x"]) == 3

    def test_witness_failure_exit_four(self, capsys, monkeypatch, x):
        # simulate an internal inconsistency: a report whose witness fails
        import orthoscope.cli as cli_mod

        def broken_run(command, text, residue_class="rational", gauge_h="y"):
            bad = WitnessData(WITNESS_DLOG, RatFunc.from_poly(x), 1, RatFunc.from_poly(x))
            return Report(command, "orthogonal-to-constants", witness=bad)

        monkeypatch.setattr(cli_mod, "run", broken_run)
        assert cli_mod.main(["classify", "x' = x; y' = y*x"]) == 4

    def test_factorizer_runtime_error_exit_four(self, capsys, monkeypatch):
        import orthoscope.algebra.factor as factor_mod

        def broken_berlekamp(f, p):
            raise RuntimeError("modular factorization did not split completely")

        monkeypatch.setattr(factor_mod, "_berlekamp", broken_berlekamp)
        # x^2 + 1 has no rational root, so factoring it reaches Berlekamp
        assert main(["classify", "x' = (x^2 + 1)*x^2; y' = y*x"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal inconsistency: modular factorization")
        assert "Traceback" not in err

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("x' = x^2*(x-1); y' = x\n")
        assert main(["classify", "--input", str(path)]) == 0

    def test_missing_input_exit_three(self, capsys):
        assert main(["classify"]) == 3

    def test_fixture_runner_passes(self, capsys):
        assert main(["fixtures", "run"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 20

    def test_fixture_runner_compares_error_kinds(self):
        # the classify command refuses a planar field with a ShapeError
        source = "x' = x^2*(x-1) + y; y' = x*y"
        wrong = Fixture("wrong-kind", command="classify", source=source,
                        expectations={"expect_error": "parse"})
        right = Fixture("right-kind", command="classify", source=source,
                        expectations={"expect_error": "shape"})
        outcome = run_fixture(wrong)
        assert not outcome.passed
        assert outcome.details == ["expected a parse error, raised ShapeError"]
        assert run_fixture(right).passed

    def test_dlog_sys_command(self, capsys):
        assert main(["dlog-sys", "--h", "y", "x' = x^3*(x-1); y' = x*y + y^2/2"]) == 0
        out = capsys.readouterr().out
        assert "x + 1/2*y" in out

    def test_bracket_command(self, capsys):
        assert main(["bracket", "x' = x^3*(x-1); y' = x*y + y^2/2"]) == 0
        out = capsys.readouterr().out
        assert "cofactor c = x + y" in out

    def test_base_accepts_bare_expression(self, capsys):
        assert main(["base", "x^3 - 2"]) == 0
        assert "base-orthogonal" in capsys.readouterr().out

    def test_beta_log_integer_class(self, capsys):
        assert main(["beta-log", "--class", "integer",
                     "x' = x^2*(x-1); y' = y*x"]) == 0
        assert "beta-found" in capsys.readouterr().out

    def test_witness_flag_controls_identity_echo(self, capsys):
        main(["classify", "x' = x^2*(x-1); y' = x"])
        quiet = capsys.readouterr().out
        assert "identity:" not in quiet
        main(["classify", "--witness", "x' = x^2*(x-1); y' = x"])
        loud = capsys.readouterr().out
        assert "identity: (-1/x)' = 1/x^2  [verified]" in loud

    def test_fixtures_list(self, capsys):
        assert main(["fixtures", "list"]) == 0
        assert "planar-quadratic-fiber" in capsys.readouterr().out

    def test_linearize_command(self, capsys):
        assert main(["linearize", "x' = x^3*(x-1) + y; y' = x*y + x*y^2"]) == 0
        out = capsys.readouterr().out
        assert "x' = x^4 - x^3; y' = y*(x)" in out


class TestWitnessTargets:
    COMMANDS = ("classify", "beta-log", "beta-der", "lift", "is-dlog", "is-derivative")

    def test_report_binds_the_ratfunc_witness_type(self):
        assert orthoscope.report.WitnessData is orthoscope.ratfunc.WitnessData

    def test_target_is_the_searched_function(self):
        """The witness a report carries is checked against (g - beta)/f, with
        f and g read from the input, or against the input function itself."""
        checked = {}
        for fx in load_corpus():
            for command in self.COMMANDS:
                try:
                    report = run(command, fx.source, fx.residue_class, fx.gauge_h)
                except OrthoscopeError:
                    continue
                if report.witness is None:
                    continue
                if command in ("is-dlog", "is-derivative"):
                    want = parse_univariate(fx.source)
                else:
                    parsed = parse_system(fx.source).parsed
                    if command == "lift":
                        lin = linearize_along_line(parsed.v)
                        f, g = RatFunc.from_poly(lin.base_f0), RatFunc.from_poly(lin.fiber_hZ)
                    else:
                        f, g = parsed.f, parsed.g
                    want = (g - RatFunc.constant(report.beta)) / f
                assert report.witness.target == want, (command, fx.source)
                checked[command] = checked.get(command, 0) + 1
        assert set(checked) == set(self.COMMANDS), checked
