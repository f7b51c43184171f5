"""Human-readable and machine-readable reports.

Machine output follows the shipped JSON schema (data/report_schema.json);
all algebraic values are serialized as exact expression strings, never as
floats. Every witness carried by a report is re-verified against its exact
identity at emission time; a failure raises WitnessVerificationError (CLI
exit code 4).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra.numberfield import NFElement
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


def residue_string(residue) -> str:
    if isinstance(residue, Fraction):
        return str(residue)
    if isinstance(residue, NFElement):
        return residue.to_string()
    raise TypeError(f"not a residue value: {residue!r}")


def spectrum_entries(spectrum: Optional[PoleSpectrum]) -> list[dict]:
    """The spectrum's entries as it holds them: every spectrum is made in
    factor order."""
    if spectrum is None:
        return []
    entries = [
        {
            "locus": entry.locus.to_string(),
            "multiplicity": entry.multiplicity,
            "residue": residue_string(entry.residue),
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
        return _emit_json(report)
    if format == "text":
        return _emit_text(report)
    raise ValueError(f"unknown format {format!r}")


def _emit_json(report: Report) -> str:
    payload = {
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
    return json.dumps(payload, sort_keys=True, indent=2)


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
