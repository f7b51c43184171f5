"""Human-readable and machine-readable reports.

Machine output follows the shipped JSON schema (data/report_schema.json),
written directly in the bytes of json.dumps(payload, sort_keys=True,
indent=2); all algebraic values are serialized as exact expression
strings, never as floats. Every witness carried by a report is re-verified
against its exact identity at emission time; a failure raises
WitnessVerificationError (CLI exit code 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .criteria import OrthogonalityVerdict
# WitnessData and its kinds are defined in ratfunc and bound here too.
from .ratfunc import WITNESS_DERIVATIVE, WITNESS_DLOG, PoleSpectrum, WitnessData  # noqa: F401

_PROSE = {
    "orthogonal-to-constants": "orthogonal to the constants",
    "nonorthogonal-uniformly-almost-internal":
        "not orthogonal to the constants (uniformly relatively almost internal)",
    "base-nonorthogonal-criterion-inapplicable":
        "base not orthogonal to the constants; the fiber criterion is inapplicable",
    "inconclusive": "inconclusive (conjugate-coupled case, not decided)",
    "inconclusive-for-lift":
        "inconclusive for the lift; the fiber search found an internality witness",
    "base-orthogonal": "base orthogonal to the constants",
    "base-nonorthogonal": "base not orthogonal to the constants",
}


@dataclass
class Report:
    command: str
    verdict: str
    base: Optional[OrthogonalityVerdict] = None
    beta: Optional[Fraction] = None
    witness: Optional[WitnessData] = None
    residues: Optional[PoleSpectrum] = None
    completeness_case: Optional[str] = None
    notes: list[str] = field(default_factory=list)


def spectrum_entries(spectrum: Optional[PoleSpectrum]) -> list[dict]:
    """The spectrum's entries as it holds them: every spectrum is made in
    factor order."""
    if spectrum is None:
        return []
    entries = [
        {
            "locus": entry.locus.to_string(),
            "multiplicity": entry.multiplicity,
            "residue": str(entry.residue),
        }
        for entry in spectrum.affine_poles
    ]
    if spectrum.infinity_pole is not None:
        entries.append(
            {
                "locus": "infinity",
                "multiplicity": spectrum.infinity_pole.multiplicity,
                "residue": str(spectrum.infinity_pole.residue),
            }
        )
    return entries


def emit(report: Report, format: str = "text") -> str:
    """Render a report; witnesses are re-verified before anything is emitted."""
    if report.witness is not None:
        report.witness.check()
    if format == "json":
        return _dump(_payload(report))
    if format == "text":
        return _emit_text(report)
    raise ValueError(f"unknown format {format!r}")


def _payload(report: Report) -> dict:
    return {
        "verdict": report.verdict,
        "base": None
        if report.base is None
        else {
            "orthogonal": report.base.orthogonal,
            "evidence": report.base.evidence,
            "spectrum": spectrum_entries(report.base.spectrum),
        },
        "beta": None if report.beta is None else str(report.beta),
        "witness": None
        if report.witness is None
        else {"h": report.witness.h.to_string(), "scaling": report.witness.scaling},
        "residues": spectrum_entries(report.residues),
        "completeness_case": report.completeness_case,
        "notes": list(report.notes),
    }


def _dump(value, indent: str = "") -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, at
    nesting indent, without json's pure-Python encoder, which any indent
    selects. A report holds str, int, bool, None, lists and dicts with str
    keys; any other value or key raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_dump(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_dump(v, inner)}"
                 for k, v in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"not a report value: {value!r}")


def _emit_text(report: Report) -> str:
    lines = [f"command: {report.command}", f"verdict: {report.verdict}"]
    prose = _PROSE.get(report.verdict)
    if prose:
        lines.append(f"  ({prose})")
    if report.base is not None:
        word = "orthogonal" if report.base.orthogonal else "not orthogonal"
        lines.append(f"base: {word} to the constants [{report.base.evidence}]")
        for entry in spectrum_entries(report.base.spectrum):
            lines.append(
                f"  pole {entry['locus']}: multiplicity {entry['multiplicity']}, "
                f"residue {entry['residue']}"
            )
    if report.beta is not None:
        lines.append(f"beta: {report.beta}")
    if report.witness is not None:
        lines.append(
            f"witness: h = {report.witness.h}, scaling {report.witness.scaling}"
        )
        lines.append(f"  identity: {report.witness.identity_string()}  [verified]")
    if report.residues is not None:
        lines.append("residues:")
        for entry in spectrum_entries(report.residues):
            lines.append(
                f"  {entry['locus']}: multiplicity {entry['multiplicity']}, "
                f"residue {entry['residue']}"
            )
    if report.completeness_case is not None:
        lines.append(f"completeness case: {report.completeness_case}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
