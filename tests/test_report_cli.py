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

from conftest import record_calls


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
        assert main(["classify", "x' = x^²; y' = y"]) == 2
        assert "unexpected character '²'" in capsys.readouterr().err

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
            ("x' = " + "(" * 5000 + "x" + ")" * 5000 + "; y' = y",
             "parentheses nested deeper than 100"),
            # the sum parses by Henrici's rule; the product with y then exceeds the bound
            ("x' = x; y' = y*(1/x^600 + 1/(x+1)^400)",
             "product exceeds the degree bound 1000 (at offset 14)"),
        ):
            start = time.perf_counter()
            assert main(["classify", source]) == 2
            assert time.perf_counter() - start < 1.0
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source", [
        "x' = 1/3*x^4 + 5/3*x^3 + x^2 - 3*x; y' = y*(-4*x^3 + x^2 + 3*x + 2)",
        "x' = (1/2*x^4 - 5/6*x^3 + 1/6*x^2 - 5/6*x - 1/3)/x^2; "
        "y' = y*((2*x^3 - 4*x^2 - 4*x - 3)/x^3)",
    ])
    def test_dlog_witness_of_high_degree_exits_zero_within_a_second(self, source, capsys):
        # h is a product of loci to powers in the hundreds; its numerator and
        # denominator are coprime by construction, so no gcd of them is taken
        start = time.perf_counter()
        assert main(["classify", source]) == 0
        assert time.perf_counter() - start < 1.0
        assert "verdict: nonorthogonal-uniformly-almost-internal" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, expected", [
        (["residues", "x^1000"],
         "command: residues\nverdict: residues-computed\nresidues:\n"
         "  infinity: multiplicity 1002, residue 0\n"),
        (["classify", "x' = 1; y' = x^1000"],
         "command: classify\nverdict: base-nonorthogonal-criterion-inapplicable\n"
         "  (base not orthogonal to the constants; the fiber criterion is inapplicable)\n"
         "base: not orthogonal to the constants [degenerate-low-degree]\n"
         "  pole infinity: multiplicity 2, residue 0\nbeta: 0\n"
         "witness: h = 1/1001*x^1001, scaling 1\nresidues:\n"
         "  infinity: multiplicity 1002, residue 0\ncompleteness case: B\n"),
        (["is-derivative", "x^999*(x-1)"],
         "command: is-derivative\nverdict: derivative-witness-found\n"
         "witness: h = 1/1001*x^1001 - 1/1000*x^1000, scaling 1\n"),
        (["is-dlog", "x^998/(x-1)"],
         "command: is-dlog\nverdict: dlog-witness-none\nresidues:\n"
         "  x - 1: multiplicity 1, residue 1\n  infinity: multiplicity 999, residue -1\n"
         "note: reason: improper-at-infinity\n"),
    ], ids=["residues", "classify", "is-derivative", "is-dlog"])
    def test_high_order_pole_at_infinity_exits_zero_within_a_second(self, argv, expected,
                                                                    capsys):
        # the residue at infinity is read off the remainder of the Hermite
        # reduction, with no series expansion to the pole's order
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (expected, "")

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

    def test_internal_value_error_exit_four(self, capsys, monkeypatch):
        # an inexact division deep in the algebra is an internal fault, not
        # an input error
        import orthoscope.algebra.factor as factor_mod

        def broken_factor(p):
            raise ValueError("inexact polynomial division: x by x - 1")

        monkeypatch.setattr(factor_mod, "_factor_squarefree", broken_factor)
        assert main(["classify", "x' = x^2*(x - 1); y' = y*x"]) == 4
        err = capsys.readouterr().err
        assert err == "internal inconsistency: inexact polynomial division: x by x - 1\n"

    def test_degenerate_inputs_exit_three(self, capsys):
        for argv, message in (
                (["classify", "x' = 0; y' = y"], "base coefficient f must be nonzero"),
                (["dlog-sys", "--h", "0", "x' = y; y' = x"], "logarithmic derivative of zero")):
            assert main(argv) == 3
            assert capsys.readouterr().err == f"input error: {message}\n"

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("x' = x^2*(x-1); y' = x\n")
        assert main(["classify", "--input", str(path)]) == 0

    def test_missing_input_exit_three(self, capsys):
        assert main(["classify"]) == 3

    def test_unreadable_input_file_exits_three(self, tmp_path, capsys):
        missing = tmp_path / "no-such-file.txt"
        undecodable = tmp_path / "latin1.txt"
        undecodable.write_bytes(b"\xffx' = x; y' = y\n")
        for path, reason in ((missing, "No such file or directory"),
                             (tmp_path, "Is a directory"),
                             (undecodable, "'utf-8' codec can't decode byte 0xff in position 0: "
                                           "invalid start byte")):
            assert main(["classify", "--input", str(path)]) == 3
            err = capsys.readouterr().err
            assert err == f"input error: cannot read input file {path}: {reason}\n"

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

    def test_fixture_runner_reports_refusals(self):
        # f = 0 is refused with a HypothesisError: a FAIL line, not an escape
        record = "[zero-base]\ncommand = base\nsource = 0\n"
        (verdict,) = load_corpus(record + "expect_verdict = base-orthogonal\n")
        outcome = run_fixture(verdict)
        assert not outcome.passed
        assert outcome.details == ["raised HypothesisError: base coefficient f must be nonzero"]
        (error,) = load_corpus(record + "expect_error = shape\n")
        outcome = run_fixture(error)
        assert not outcome.passed
        assert outcome.details == ["expected a shape error, raised HypothesisError"]
        (right,) = load_corpus(record + "expect_error = hypothesis\n")
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

    def test_base_of_a_bivariate_expression_exits_three(self, capsys):
        assert main(["base", "x*y"]) == 3
        assert "expression is not univariate in x" in capsys.readouterr().err
        assert main(["base", "x' = x^3 - 2; y' = y*x"]) == 0

    def test_gauge_notes_take_one_system_dlog(self, monkeypatch):
        from orthoscope import planar

        calls = record_calls(monkeypatch, planar.system_dlog)
        report = run("lift", "x' = x^3*(x-1); y' = x*y + y^2/2", gauge_h="1/(x*y)")
        assert len(calls) == 1
        assert any(note.startswith("gauge transform by h = 1/(x*y) leaves cofactor ")
                   for note in report.notes)

    def test_dlog_sys_prints_a_monomial_denominator_in_parentheses(self, capsys):
        assert main(["dlog-sys", "--h", "1/(x*y)", "x' = y; y' = x"]) == 0
        assert "dlog(1/(x*y)) = (-x^2 - y^2)/(x*y)" in capsys.readouterr().out

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

    def test_linearize_finds_the_invariant_line_once(self, monkeypatch):
        from orthoscope import planar

        calls = record_calls(monkeypatch, planar.invariant_line)
        report = run("linearize", "x' = x^3*(x-1) + y; y' = x*y + x*y^2")
        assert len(calls) == 1
        assert report.notes[0] == "invariant line y = 0 with cofactor g1 = x*y + x"


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
                    parsed = parse_system(fx.source)
                    if command == "lift":
                        lin = linearize_along_line(parsed)
                        f, g = RatFunc.from_poly(lin.base_f0), RatFunc.from_poly(lin.fiber_hZ)
                    else:
                        f, g = parsed.f, parsed.g
                    want = (g - RatFunc.constant(report.beta)) / f
                assert report.witness.target == want, (command, fx.source)
                checked[command] = checked.get(command, 0) + 1
        assert set(checked) == set(self.COMMANDS), checked


class TestBranchesNoDeckReaches:
    """Branches that no benchmark deck and no golden key reaches, run
    through main and checked against sympy: the derivative search's pin
    when 1/f has no residue, its irrational pin, its remainder-ratio
    fallback (which is also Hermite's general step, on the group {x, x - 1}
    of multiplicity 2), and the residue at a nonlinear multiple locus."""

    @pytest.fixture(autouse=True)
    def _sympy(self):
        self.sympy = pytest.importorskip("sympy")
        self.x, self.b = self.sympy.symbols("x b")

    def report(self, capsys, command: str, source: str) -> dict:
        assert main([command, source, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def expr(self, text: str):
        return self.sympy.sympify(text.replace("^", "**"), locals={"x": self.x})

    def log_part(self, r):
        """(B, v) with r = A' + B/v and v squarefree: sympy's
        Horowitz-Ostrogradsky reduction (ratint_ratpart)."""
        from sympy.integrals.rationaltools import ratint_ratpart

        sp, x = self.sympy, self.x
        num, den = sp.fraction(sp.together(r))
        log_part = ratint_ratpart(sp.Poly(num, x), sp.Poly(den, x), x)[1]
        return tuple(sp.Poly(side, x) for side in sp.fraction(sp.together(log_part)))

    def exact_betas(self, f, g) -> list:
        """The rational betas that make (g - beta)/f an exact derivative:
        those that zero the log part of its reduction."""
        numerator = self.log_part((g - self.b) / f)[0]
        solutions = self.sympy.solve(numerator.all_coeffs(), self.b, dict=True)
        return [s[self.b] for s in solutions if s[self.b].is_rational]

    def apart_spectrum(self, r) -> dict:
        """{locus: (multiplicity, residue)} at the rational poles of r, read
        off sympy's apart: a term c/(x - a)^k adds c to the residue at a
        when k = 1."""
        sp, out = self.sympy, {}
        for term in sp.Add.make_args(sp.apart(sp.cancel(r), self.x)):
            num, den = sp.fraction(term)
            if den.has(self.x):
                const, [(base, k)] = sp.factor_list(den)
                mult, residue = out.get(str(base), (0, 0))
                out[str(base)] = (max(mult, k), residue + (num / const if k == 1 else 0))
        return out

    def spectrum(self, entries: list) -> dict:
        return {e["locus"]: (e["multiplicity"], self.sympy.Rational(e["residue"]))
                for e in entries}

    def test_pin_when_one_over_f_has_no_residue(self, capsys):
        # rem(1/x^2) = 0 pins beta = 0, and x/x^2 = 1/x keeps its residue
        x = self.x
        report = self.report(capsys, "beta-der", "x' = x^2; y' = x")
        assert (report["verdict"], report["beta"], report["witness"]) == ("beta-none", None, None)
        assert report["notes"] == ["the remainder is beta-independent and nonzero"]
        assert self.apart_spectrum(1 / x**2) == {"x": (2, 0)}
        assert self.exact_betas(x**2, x) == []

    def test_irrational_pin(self, capsys):
        # 1/(x^2 - 2) has a residue at sqrt(2), where g = x is regular, so
        # beta must be g(sqrt(2)) = sqrt(2): no rational beta works
        sp, x = self.sympy, self.x
        report = self.report(capsys, "beta-der", "x' = x^2 - 2; y' = x")
        assert (report["verdict"], report["beta"], report["witness"]) == ("beta-none", None, None)
        assert report["notes"] == ["remainder vanishing admits no constant solution"]
        assert not self.log_part(1 / (x**2 - 2))[0].is_zero
        at_root = sp.residue((x - self.b) / (x**2 - 2), x, sp.sqrt(2))
        assert sp.solve(at_root, self.b) == [sp.sqrt(2)]
        assert self.exact_betas(x**2 - 2, x) == []

    @pytest.mark.parametrize("command", ["beta-der", "classify"])
    def test_remainder_ratio_fallback(self, capsys, monkeypatch, command):
        # 1/f has residues only at x (a double pole) and at x - 1, a pole of
        # g, so beta is rem(g/f)/rem(1/f): hermite_reduce runs on 1/f, on
        # g/f and on the target
        from orthoscope import ratfunc

        sp, x = self.sympy, self.x
        f, g = x**2 * (x - 1), 1 / (x - 1)
        calls = record_calls(monkeypatch, ratfunc.hermite_reduce)
        report = self.report(capsys, command, "x' = x^2*(x-1); y' = 1/(x-1)")
        assert len(calls) == 3
        want = "beta-found" if command == "beta-der" else \
            "nonorthogonal-uniformly-almost-internal"
        assert report["verdict"] == want
        beta = sp.Rational(report["beta"])
        assert [beta] == self.exact_betas(f, g) == [-2]
        target = (g - beta) / f
        h = self.expr(report["witness"]["h"])
        assert report["witness"]["scaling"] == 1
        assert sp.cancel(sp.diff(h, x) - target) == 0
        assert self.spectrum(report["residues"]) == self.apart_spectrum(target) \
            == {"x - 1": (2, 0), "x": (2, 0)}
        if command == "classify":
            assert self.spectrum(report["base"]["spectrum"]) == self.apart_spectrum(1 / f)

    def test_residue_at_a_nonlinear_multiple_locus(self, capsys):
        # 1/(x^2 + 1)^2 has residue -i/4 at i: the class -x/4 mod x^2 + 1
        sp, x = self.sympy, self.x
        report = self.report(capsys, "residues", "1/(x^2+1)^2")
        assert report["verdict"] == "residues-computed"
        [entry] = report["residues"]
        q = sp.Poly(x**2 + 1, x)
        assert (entry["locus"], entry["multiplicity"]) == ("x^2 + 1", 2)
        assert sp.factor_list(sp.Poly((x**2 + 1) ** 2, x))[1] == [(q, 2)]
        num, den = self.log_part(1 / (x**2 + 1) ** 2)
        want = (num * den.diff(x).invert(q)).rem(q)
        prefix = "root of x^2 + 1, component "
        assert entry["residue"].startswith(prefix)
        assert sp.Poly(self.expr(entry["residue"][len(prefix):]), x) == want
        assert sp.residue(1 / (x**2 + 1) ** 2, x, sp.I) == want.as_expr().subs(x, sp.I)
