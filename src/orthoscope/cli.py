"""Command-line interface and command dispatch.

Exit codes: 0 a verdict was produced (any verdict), 1 a fixture failed or
the reader closed standard output early, 2 parse error, 3 shape or
hypothesis error (a refused input), 4 internal inconsistency: any other
exception, such as a witness that failed its verification identity or a
factorization that did not split; must never happen.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra.factor import factor_bases
from .criteria import (
    SystemVerdict,
    base_orthogonal,
    beta_search_derivative,
    beta_search_log,
    classify_derivative_family,
    classify_log_family,
)
from .errors import HypothesisError, ParseError, ShapeError
from .parsing import (
    KIND_DERIVATIVE,
    KIND_LOG,
    UnivariateFamily,
    parse_expression,
    parse_system,
    parse_univariate_bases,
)
from .planar import (
    BiRatFunc,
    PlanarVectorField,
    classify_invariant_line_lift,
    foliation_linearize,
    invariant_line,
    lie_bracket,
    linearization,
    system_dlog,
)
from .ratfunc import (
    INTEGER,
    RATIONAL,
    dlog_witness,
    exact_derivative_part,
    hermite_reduce,
    pole_spectrum,
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
    r, bases = parse_univariate_bases(text)
    loci = factor_bases(bases, denominator=True)
    if command == "residues":
        return Report("residues", "residues-computed", residues=pole_spectrum(r, loci))
    if command == "is-dlog":
        result = dlog_witness(r, residue_class, loci)
        if result.found:
            return Report("is-dlog", "dlog-witness-found", witness=result.witness,
                          residues=result.spectrum)
        return Report("is-dlog", "dlog-witness-none", residues=result.spectrum,
                      notes=[f"reason: {result.reason}"])
    herm = hermite_reduce(r, loci)
    witness = exact_derivative_part(r, herm)
    if witness is not None:
        return Report("is-derivative", "derivative-witness-found", witness=witness)
    return Report("is-derivative", "derivative-witness-none",
                  residues=herm.spectrum)


def _family(family: UnivariateFamily | PlanarVectorField, command: str,
            kind: str | None = None) -> UnivariateFamily:
    if not isinstance(family, UnivariateFamily):
        raise ShapeError(
            f"'{command}' needs a univariate family (x' = f(x) with y' = y*g(x) "
            f"or y' = g(x)); for a general planar field use 'lift', 'bracket', "
            f"'linearize', or 'dlog-sys'"
        )
    if kind is not None and family.kind != kind:
        want = "y' = y*g(x)" if kind == KIND_LOG else "y' = g(x)"
        raise ShapeError(f"'{command}' needs the shape {want}")
    return family


def _planar(planar: UnivariateFamily | PlanarVectorField, command: str) -> PlanarVectorField:
    if not isinstance(planar, PlanarVectorField):
        raise ShapeError(
            f"'{command}' needs a polynomial planar vector field; univariate "
            f"families are handled by 'classify', 'base', 'beta-log', 'beta-der'"
        )
    return planar


def _run_system_command(command: str, text: str, residue_class: str,
                        gauge_h: str) -> Report:
    if command == "base":
        try:
            f, bases = parse_univariate_bases(text)
        except ParseError:
            family = _family(parse_system(text), command)
            f, bases = family.f, family.bases
        verdict = base_orthogonal(f, factor_bases(bases))
        name = "base-orthogonal" if verdict.orthogonal else "base-nonorthogonal"
        return Report("base", name, base=verdict)

    source = parse_system(text)

    if command == "classify":
        family = _family(source, command)
        classify = classify_log_family if family.kind == KIND_LOG else classify_derivative_family
        sv = classify(family.f, family.g, factor_bases(family.bases))
        return _report_from_system_verdict("classify", sv)

    if command in ("beta-log", "beta-der"):
        log = command == "beta-log"
        family = _family(source, command, KIND_LOG if log else KIND_DERIVATIVE)
        base = base_orthogonal(family.f, factor_bases(family.bases))
        result = (beta_search_log(family.f, family.g, base, residue_class) if log
                  else beta_search_derivative(family.f, family.g, base))
        return _report_from_system_verdict(
            command, SystemVerdict(None, result, f"beta-{result.status}", None))

    v = _planar(source, command)

    if command == "bracket":
        br = lie_bracket(v, _DY)
        notes = [f"[v, d/dy] = ({br.fx}) d/dx + ({br.fy}) d/dy",
                 "sign convention: [v, w] = (v.grad)w - (w.grad)v"]
        try:
            cofactor = foliation_linearize(v, _DY)
            notes.append(f"[d/dy, v] = c * d/dy with cofactor c = {cofactor}")
        except HypothesisError:
            notes.append("[d/dy, v] is not proportional to d/dy")
        return Report("bracket", "bracket-computed", notes=notes)

    if command == "linearize":
        cofactor = invariant_line(v)
        if cofactor is None:
            raise HypothesisError("the line y = 0 is not invariant under this field")
        lin = linearization(v, cofactor)
        notes = [f"invariant line y = 0 with cofactor g1 = {cofactor}",
                 f"linearized system: x' = {lin.base_f0}; y' = y*({lin.fiber_hZ})"]
        return Report("linearize", "linearized", notes=notes)

    if command == "lift":
        h = parse_expression(gauge_h)
        sv = classify_invariant_line_lift(v)
        lin = sv.linearization
        report = _report_from_system_verdict("lift", sv)
        report.notes.append(
            f"linearized system: x' = {lin.base_f0}; y' = y*({lin.fiber_hZ})"
        )
        report.notes.extend(_gauge_notes(v, h))
        return report

    h = parse_expression(gauge_h)    # dlog-sys
    value = system_dlog(v, h)
    return Report("dlog-sys", "system-dlog-computed", notes=[f"dlog({h}) = {value}"])


def _gauge_notes(v: PlanarVectorField, h: BiRatFunc) -> list[str]:
    try:
        cofactor = foliation_linearize(v, _DY)
    except HypothesisError:
        return []
    notes = [f"tangent-fiber cofactor along d/dy: {cofactor}"]
    if not h.is_zero:
        dlog = system_dlog(v, h)
        notes.append(
            f"gauge transform by h = {h} leaves cofactor {cofactor - dlog} "
            f"(dlog({h}) = {dlog} under this system)"
        )
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
        try:
            with open(args.input, "r", encoding="utf-8-sig") as fh:
                return fh.read().strip()
        except OSError as exc:
            raise ShapeError(f"cannot read input file {args.input}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ShapeError(f"cannot read input file {args.input}: {exc}") from None
    if args.source:
        return args.source
    raise ShapeError("no input: pass an inline source or --input FILE")


def main(argv=None) -> int:
    # exact results may print more digits than Python's default int-to-str
    # limit; the parser bounds its literals itself (MAX_LITERAL_DIGITS). The
    # limit is lifted for this call only, and restored on the way out.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
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
    except (ShapeError, HypothesisError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
