"""Command-line interface and command dispatch.

Exit codes: 0 a verdict was produced (any verdict), 1 a fixture failed or
the reader closed standard output early, 2 parse error, 3 shape or
hypothesis error, 4 internal inconsistency (a witness failed its
verification identity, or a RuntimeError such as a factorization that did
not split; must never happen).
"""

from __future__ import annotations

import argparse
import os
import sys

from .criteria import (
    SystemVerdict,
    base_orthogonal,
    beta_search_derivative,
    beta_search_log,
    classify_derivative_family,
    classify_log_family,
)
from .errors import HypothesisError, ParseError, ShapeError, WitnessVerificationError
from .parsing import (
    KIND_DERIVATIVE,
    KIND_LOG,
    Planar,
    SystemSource,
    UnivariateFamily,
    parse_expression,
    parse_system,
    parse_univariate,
)
from .planar import (
    BiRatFunc,
    PlanarVectorField,
    classify_invariant_line_lift,
    foliation_linearize,
    invariant_line,
    lie_bracket,
    linearize_along_line,
    system_dlog,
)
from .ratfunc import (
    INTEGER,
    RATIONAL,
    dlog_witness,
    exact_derivative_part,
    hermite_reduce,
    pole_spectrum,
    spectrum_from_remainder,
)
from .report import Report, emit

from .algebra.bipoly import BiPoly

SYSTEM_COMMANDS = ("classify", "base", "beta-log", "beta-der", "bracket",
                   "linearize", "lift", "dlog-sys")
FUNCTION_COMMANDS = ("residues", "is-dlog", "is-derivative")
COMMANDS = SYSTEM_COMMANDS + FUNCTION_COMMANDS

_DY = PlanarVectorField(BiPoly.zero(), BiPoly.one())


def run(command: str, source_text: str, residue_class: str = RATIONAL,
        gauge_h: str = "y") -> Report:
    """Dispatch a command against an input text and assemble a report."""
    if command in FUNCTION_COMMANDS:
        return _run_function_command(command, source_text, residue_class)
    if command in SYSTEM_COMMANDS:
        return _run_system_command(command, source_text, residue_class, gauge_h)
    raise ShapeError(f"unknown command {command!r}; expected one of {COMMANDS}")


def _run_function_command(command: str, text: str, residue_class: str) -> Report:
    r = parse_univariate(text)
    if command == "residues":
        return Report("residues", "residues-computed", residues=pole_spectrum(r))
    if command == "is-dlog":
        result = dlog_witness(r, residue_class)
        if result.found:
            return Report("is-dlog", "dlog-witness-found", witness=result.witness,
                          residues=result.spectrum)
        return Report("is-dlog", "dlog-witness-none", residues=result.spectrum,
                      notes=[f"reason: {result.reason}"])
    herm = hermite_reduce(r)
    witness = exact_derivative_part(r, herm)
    if witness is not None:
        return Report("is-derivative", "derivative-witness-found", witness=witness)
    return Report("is-derivative", "derivative-witness-none",
                  residues=spectrum_from_remainder(r, herm.remainder))


def _family(source: SystemSource, command: str, kind: str | None = None) -> UnivariateFamily:
    if not isinstance(source.parsed, UnivariateFamily):
        raise ShapeError(
            f"'{command}' needs a univariate family (x' = f(x) with y' = y*g(x) "
            f"or y' = g(x)); for a general planar field use 'lift', 'bracket', "
            f"'linearize', or 'dlog-sys'"
        )
    family = source.parsed
    if kind is not None and family.kind != kind:
        want = "y' = y*g(x)" if kind == KIND_LOG else "y' = g(x)"
        raise ShapeError(f"'{command}' needs the shape {want}")
    return family


def _planar(source: SystemSource, command: str) -> PlanarVectorField:
    if not isinstance(source.parsed, Planar):
        raise ShapeError(
            f"'{command}' needs a polynomial planar vector field; univariate "
            f"families are handled by 'classify', 'base', 'beta-log', 'beta-der'"
        )
    return source.parsed.v


def _run_system_command(command: str, text: str, residue_class: str,
                        gauge_h: str) -> Report:
    if command == "base":
        try:
            f = parse_univariate(text)
        except (ParseError, ShapeError):
            source = parse_system(text)
            f = _family(source, command).f
        verdict = base_orthogonal(f)
        name = "base-orthogonal" if verdict.orthogonal else "base-nonorthogonal"
        return Report("base", name, base=verdict)

    source = parse_system(text)

    if command == "classify":
        family = _family(source, command)
        if family.kind == KIND_LOG:
            sv = classify_log_family(family.f, family.g)
        else:
            sv = classify_derivative_family(family.f, family.g)
        return _report_from_system_verdict("classify", sv)

    if command == "beta-log":
        family = _family(source, command, KIND_LOG)
        result = beta_search_log(family.f, family.g, residue_class)
        return _report_from_system_verdict(
            command, SystemVerdict(None, result, f"beta-{result.status}", None))

    if command == "beta-der":
        family = _family(source, command, KIND_DERIVATIVE)
        result = beta_search_derivative(family.f, family.g)
        return _report_from_system_verdict(
            command, SystemVerdict(None, result, f"beta-{result.status}", None))

    v = _planar(source, command)

    if command == "bracket":
        br = lie_bracket(v, _DY)
        notes = [f"[v, d/dy] = ({br.fx}) d/dx + ({br.fy}) d/dy",
                 "sign convention: [v, w] = (v.grad)w - (w.grad)v"]
        try:
            fol = foliation_linearize(v, _DY)
            notes.append(f"[d/dy, v] = c * d/dy with cofactor c = {fol.cofactor_c}")
        except HypothesisError:
            notes.append("[d/dy, v] is not proportional to d/dy")
        return Report("bracket", "bracket-computed", notes=notes)

    if command == "linearize":
        line = invariant_line(v)
        if not line.invariant:
            raise HypothesisError("the line y = 0 is not invariant under this field")
        lin = linearize_along_line(v)
        notes = [f"invariant line y = 0 with cofactor g1 = {line.cofactor_g1}",
                 f"linearized system: x' = {lin.base_f0}; y' = y*({lin.fiber_hZ})"]
        return Report("linearize", "linearized", notes=notes)

    if command == "lift":
        sv = classify_invariant_line_lift(v)
        lin = sv.linearization
        report = _report_from_system_verdict("lift", sv)
        report.notes.append(
            f"linearized system: x' = {lin.base_f0}; y' = y*({lin.fiber_hZ})"
        )
        report.notes.extend(_gauge_notes(v, gauge_h))
        return report

    if command == "dlog-sys":
        h = BiRatFunc(*_parse_birat(gauge_h))
        value = system_dlog(v, h)
        return Report("dlog-sys", "system-dlog-computed",
                      notes=[f"dlog({h}) = {value}"])

    raise ShapeError(f"unknown command {command!r}")


def _parse_birat(text: str):
    value = parse_expression(text)
    return value.num, value.den


def _gauge_notes(v: PlanarVectorField, gauge_h: str) -> list[str]:
    notes = []
    try:
        fol = foliation_linearize(v, _DY)
    except (HypothesisError, ValueError):
        return notes
    cofactor = fol.cofactor_c
    notes.append(f"tangent-fiber cofactor along d/dy: {cofactor}")
    try:
        h = BiRatFunc(*_parse_birat(gauge_h))
        if not h.is_zero:
            shifted = cofactor - system_dlog(v, h)
            notes.append(
                f"gauge transform by h = {h} leaves cofactor {shifted} "
                f"(dlog({h}) = {system_dlog(v, h)} under this system)"
            )
    except (ParseError, ShapeError, ZeroDivisionError):
        pass
    return notes


def _report_from_system_verdict(command: str, sv: SystemVerdict) -> Report:
    result = sv.fibration
    notes = []
    if sv.internality_kind is not None:
        notes.append(f"internality kind: {sv.internality_kind}")
    if result.detail:
        notes.append(result.detail)
    return Report(
        command,
        sv.conclusion,
        base=sv.base,
        beta=result.beta,
        witness=result.witness,
        residues=result.residue_table,
        completeness_case=result.completeness_case,
        notes=notes,
    )


# -- argparse front end -----------------------------------------------------------


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoscope",
        description="Exact orthogonality/internality classifiers for planar "
                    "algebraic differential systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("source", nargs="?", help="inline system or expression")
        p.add_argument("--input", help="read the source from a file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--witness", action="store_true",
                       help="echo witness verification identities")
        if name in ("beta-log", "is-dlog"):
            p.add_argument("--class", dest="residue_class",
                           choices=[INTEGER, RATIONAL], default=RATIONAL)
        if name == "dlog-sys":
            p.add_argument("--h", dest="gauge_h", default="y",
                           help="the function whose dlog is taken (default y)")
        if name == "lift":
            p.add_argument("--h", dest="gauge_h", default="y",
                           help="gauge function for the cofactor notes (default y)")
    fx = sub.add_parser("fixtures")
    fx.add_argument("action", choices=["run", "list"])
    fx.add_argument("--json", action="store_true")
    return parser


def _read_source(args) -> str:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    if args.source:
        return args.source
    raise ShapeError("no input: pass an inline source or --input FILE")


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.command == "fixtures":
            from .fixtures import main as fixtures_main

            code = fixtures_main(args.action, json_mode=args.json)
            sys.stdout.flush()
            return code
        text = _read_source(args)
        residue_class = getattr(args, "residue_class", RATIONAL)
        gauge_h = getattr(args, "gauge_h", "y")
        report = run(args.command, text, residue_class=residue_class, gauge_h=gauge_h)
        output = emit(report, "json" if args.json else "text")
        if not args.json and not args.witness:
            output = "\n".join(
                line for line in output.splitlines() if not line.startswith("  identity:")
            )
        print(output)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, HypothesisError, ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (WitnessVerificationError, RuntimeError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
