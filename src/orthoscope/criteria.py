"""Decision procedures for base orthogonality and fiber internality.

base_orthogonal reads the projective pole spectrum of (1/f)dx. The beta
searches decide whether some constant shift of g makes (g - beta)/f a scaled
logarithmic derivative (log family) or an exact derivative (derivative
family). Both searches return verified witnesses; the log search is complete
whenever a multiple pole pins beta (case A) or a rational anchor forces beta
rational (case B), and reports case C honestly otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra.factor import factor_rationals
from .algebra.numberfield import NFElement
from .algebra.unipoly import UniPoly, poly_gcd
from .errors import WitnessVerificationError
from .ratfunc import (
    INTEGER,
    RATIONAL,
    PoleSpectrum,
    RatFunc,
    WitnessData,
    dlog_witness,
    exact_derivative_part,
    hermite_reduce,
    pole_spectrum,
    ratio_all_rational,
    spectrum_from_remainder,
)

EVIDENCE_MULTIPLE_AND_SIMPLE = "multiple-and-simple-pole"
EVIDENCE_IRRATIONAL_RATIO = "irrational-residue-ratio"
EVIDENCE_RATIONAL_RATIOS = "rational-residue-ratios"
EVIDENCE_DEGENERATE = "degenerate-low-degree"
EVIDENCE_NO_SIMPLE_POLE = "no-simple-pole"

STATUS_FOUND = "found"
STATUS_NONE = "none"
STATUS_INCONCLUSIVE = "inconclusive"

CASE_A = "A"  # multiple-pole-pinned
CASE_B = "B"  # rational-anchored linear system
CASE_C = "C"  # conjugate-coupled, not decided

CONCLUSION_ORTHOGONAL = "orthogonal-to-constants"
CONCLUSION_NONORTHOGONAL = "nonorthogonal-uniformly-almost-internal"
CONCLUSION_BASE_INAPPLICABLE = "base-nonorthogonal-criterion-inapplicable"
CONCLUSION_INCONCLUSIVE = "inconclusive"
CONCLUSION_INCONCLUSIVE_FOR_LIFT = "inconclusive-for-lift"

KIND_INTERNAL = "internal"
KIND_ALMOST = "almost"


@dataclass(frozen=True)
class OrthogonalityVerdict:
    orthogonal: bool
    evidence: str
    spectrum: PoleSpectrum


@dataclass(frozen=True)
class BetaSearchResult:
    status: str
    beta: Optional[Fraction]
    witness: Optional[WitnessData]   # target (g - beta)/f
    completeness_case: Optional[str]
    residue_table: Optional[PoleSpectrum]
    detail: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.status == STATUS_FOUND


@dataclass(frozen=True)
class SystemVerdict:
    base: Optional[OrthogonalityVerdict]
    fibration: BetaSearchResult
    conclusion: str
    internality_kind: Optional[str]


# -- base orthogonality (pole structure of (1/f)dx) ---------------------------


def base_orthogonal(f: RatFunc) -> OrthogonalityVerdict:
    """Orthogonality of the base equation x' = f(x) from the spectrum of (1/f)dx."""
    if f.is_zero:
        raise ValueError("base coefficient f must be nonzero")
    spectrum = pole_spectrum(RatFunc.one(f.var) / f, projective=True)
    if f.is_polynomial and f.num.degree <= 1:
        return OrthogonalityVerdict(False, EVIDENCE_DEGENERATE, spectrum)
    if spectrum.has_multiple_pole() and spectrum.has_simple_pole():
        return OrthogonalityVerdict(True, EVIDENCE_MULTIPLE_AND_SIMPLE, spectrum)
    if spectrum.only_simple_poles():
        if ratio_all_rational(spectrum):
            return OrthogonalityVerdict(False, EVIDENCE_RATIONAL_RATIOS, spectrum)
        return OrthogonalityVerdict(True, EVIDENCE_IRRATIONAL_RATIO, spectrum)
    return OrthogonalityVerdict(False, EVIDENCE_NO_SIMPLE_POLE, spectrum)


# -- affine-in-beta condition solving ----------------------------------------


_EMPTY, _PINNED, _FREE = "empty", "pinned", "free"


def _solve_affine(conditions: list[tuple[Fraction, Fraction]]):
    """Solve the system {a - beta*b = 0}; returns (status, value)."""
    pinned: Optional[Fraction] = None
    for a, b in conditions:
        if b == 0:
            if a != 0:
                return _EMPTY, None
        else:
            v = a / b
            if pinned is None:
                pinned = v
            elif pinned != v:
                return _EMPTY, None
    if pinned is None:
        return _FREE, None
    return _PINNED, pinned


def _solve_integrality(constraints: list[tuple[Fraction, Fraction]]) -> Optional[Fraction]:
    """A rational beta with a - beta*b integral for every constraint, or None.

    Each constraint with b != 0 confines beta to the progression
    a/b + (1/b)Z; the intersection of progressions is computed exactly.
    """
    offset: Optional[Fraction] = None
    step: Optional[Fraction] = None
    for a, b in constraints:
        if b == 0:
            if a.denominator != 1:
                return None
            continue
        o = a / b
        s = abs(Fraction(1) / b)
        o = o % s
        if offset is None:
            offset, step = o, s
            continue
        scale = math.lcm(step.denominator, s.denominator, (o - offset).denominator)
        s1, s2 = int(step * scale), int(s * scale)
        diff = int((o - offset) * scale)
        g = math.gcd(s1, s2)
        if diff % g != 0:
            return None
        m2 = s2 // g
        if m2 == 1:
            continue  # current progression already inside the new one
        k0 = (diff // g) * pow(s1 // g, -1, m2) % m2
        step_new = step * m2
        offset = (offset + step * k0) % step_new
        step = step_new
    if offset is None:
        return Fraction(0)
    return offset


# -- the log-family beta search ------------------------------------------------


def beta_search_log(f: RatFunc, g: RatFunc, residue_class: str = RATIONAL) -> BetaSearchResult:
    """Decide whether some beta makes (g - beta)/f a scaled dlog image.

    The target condition: projectively only simple poles, with residues in
    the requested class. Multiple-pole cancellation conditions are affine in
    beta (case A); with beta free, per-factor residue data is affine in beta
    and any beta-dependent residue at a rational point anchors beta to the
    rationals (case B). Conjugate-coupled factors without an anchor are
    reported as case C, never guessed.
    """
    if residue_class not in (INTEGER, RATIONAL):
        raise ValueError(f"unknown residue class {residue_class!r}")
    if f.is_zero:
        raise ValueError("f must be nonzero")
    n = g.num * f.den
    m = g.den * f.den
    d = g.den * f.num
    common = poly_gcd(poly_gcd(n, m), d)
    if common.degree > 0:
        n, m, d = n.exact_div(common), m.exact_div(common), d.exact_div(common)
    scale = 1 / d.lc
    n, m, d = n * scale, m * scale, d.monic()

    conditions: list[tuple[Fraction, Fraction]] = []
    parts = factor_rationals(d).parts if d.degree >= 1 else ()
    for q, e in parts:
        if e >= 2:
            mod = q ** (e - 1)
            nn, mm = n % mod, m % mod
            for k in range(int(mod.degree)):
                conditions.append((nn.coeff(k), mm.coeff(k)))
    d_deg = int(d.degree) if d.degree >= 0 else 0
    top = max(int(n.degree) if not n.is_zero else -1, int(m.degree) if not m.is_zero else -1)
    for k in range(d_deg, top + 1):
        conditions.append((n.coeff(k), m.coeff(k)))

    status, pinned = _solve_affine(conditions)
    if status == _EMPTY:
        return BetaSearchResult(
            STATUS_NONE, None, None, CASE_A, None,
            "multiple-pole cancellation conditions are unsatisfiable",
        )
    if status == _PINNED:
        return _test_candidate(f, g, pinned, residue_class, CASE_A)

    # free case: d squarefree, infinity at worst simple, for every beta
    dprime = d.derivative()
    anchored = m.coeff(d_deg - 1) != 0 if d_deg >= 1 else False
    integrality: list[tuple[Fraction, Fraction]] = []
    soft_exists = False
    soft_status, soft_pin = _FREE, None
    for q, _ in parts:
        inv = NFElement(dprime, q).inverse()
        a_el = NFElement(n, q) * inv
        b_el = NFElement(m, q) * inv
        a0, b0 = a_el.rep.coeff(0), b_el.rep.coeff(0)
        a_tail = a_el.rep - UniPoly.constant(a0, q.var)
        b_tail = b_el.rep - UniPoly.constant(b0, q.var)
        if b_tail.is_zero:
            if not a_tail.is_zero:
                # residue values at conjugate roots would have to differ by
                # rationals, impossible for a nonconstant class: complete none
                return BetaSearchResult(
                    STATUS_NONE, None, None, CASE_B, None,
                    f"residue at {q} is irrational for every beta",
                )
            if b0 != 0:
                anchored = True
            integrality.append((a0, b0))
        else:
            soft_exists = True
            st, pin = _solve_affine(
                [(a_tail.coeff(k), b_tail.coeff(k)) for k in range(int(q.degree))]
            )
            if st == _EMPTY:
                soft_status = _EMPTY
            elif st == _PINNED:
                if soft_status == _PINNED and soft_pin != pin:
                    soft_status = _EMPTY
                elif soft_status != _EMPTY:
                    soft_status, soft_pin = _PINNED, pin

    if soft_status == _EMPTY:
        if anchored:
            return BetaSearchResult(
                STATUS_NONE, None, None, CASE_B, None,
                "no rational beta satisfies the residue-rationality system",
            )
        return BetaSearchResult(
            STATUS_INCONCLUSIVE, None, None, CASE_C, None,
            "conjugate-coupled residues admit no rational beta; an irrational "
            "beta is not excluded",
        )
    if soft_status == _PINNED:
        result = _test_candidate(f, g, soft_pin, residue_class, CASE_B)
        if result.found or anchored:
            return result
        return BetaSearchResult(
            STATUS_INCONCLUSIVE, None, None, CASE_C, None,
            "the unique rational candidate fails; an irrational beta is not "
            "excluded",
        )

    # no polynomial constraints left on beta at all
    if residue_class == RATIONAL:
        return _test_candidate(f, g, Fraction(0), residue_class, CASE_B, assert_found=True)
    beta_hat = _solve_integrality(integrality)
    if beta_hat is None:
        return BetaSearchResult(
            STATUS_NONE, None, None, CASE_B, None,
            "no beta makes every residue an integer",
        )
    return _test_candidate(f, g, beta_hat, residue_class, CASE_B, assert_found=True)


def _test_candidate(
    f: RatFunc,
    g: RatFunc,
    beta: Fraction,
    residue_class: str,
    case: str,
    assert_found: bool = False,
) -> BetaSearchResult:
    r = (g - RatFunc.constant(beta, g.var)) / f
    result = dlog_witness(r, residue_class)
    if result.found:
        return BetaSearchResult(
            STATUS_FOUND, beta, result.witness, case, result.spectrum, None
        )
    if assert_found:
        raise WitnessVerificationError(
            f"free-beta candidate {beta} unexpectedly failed: {result.reason}"
        )
    return BetaSearchResult(
        STATUS_NONE, None, None, case, None,
        f"at the pinned beta = {beta}: {result.reason}",
    )


# -- the derivative-family beta search ----------------------------------------------


def beta_search_derivative(f: RatFunc, g: RatFunc) -> BetaSearchResult:
    """Decide whether some beta makes (g - beta)/f an exact derivative.

    The Hermite remainder is linear in the input, so the remainder of
    (g - beta)/f is rem(g/f) - beta*rem(1/f); vanishing is a rational
    linear condition and the decision is complete.
    """
    if f.is_zero:
        raise ValueError("f must be nonzero")
    rem_g = hermite_reduce(g / f).remainder
    rem_one = hermite_reduce(RatFunc.one(f.var) / f).remainder
    if rem_one.is_zero:
        if not rem_g.is_zero:
            return BetaSearchResult(
                STATUS_NONE, None, None, CASE_B, None,
                "the remainder is beta-independent and nonzero",
            )
        beta = Fraction(0)
    else:
        ratio = rem_g / rem_one
        if not ratio.is_constant:
            return BetaSearchResult(
                STATUS_NONE, None, None, CASE_B, None,
                "remainder vanishing admits no constant solution",
            )
        beta = ratio.constant_value()
    r = (g - RatFunc.constant(beta, g.var)) / f
    herm = hermite_reduce(r)
    witness = exact_derivative_part(r, herm)
    if witness is None:
        raise WitnessVerificationError("derivative witness failed its identity")
    return BetaSearchResult(
        STATUS_FOUND, beta, witness, CASE_B, spectrum_from_remainder(r, herm.remainder), None
    )


# -- family classifiers ------------------------------------------------------------


def classify_log_family(f: RatFunc, g: RatFunc) -> SystemVerdict:
    """Full classification of x' = f(x), y' = y*g(x)."""
    base = base_orthogonal(f)
    fibration = beta_search_log(f, g, RATIONAL)
    if not base.orthogonal:
        return SystemVerdict(base, fibration, CONCLUSION_BASE_INAPPLICABLE, None)
    if fibration.status == STATUS_FOUND:
        kind = KIND_INTERNAL if fibration.witness.scaling == 1 else KIND_ALMOST
        return SystemVerdict(base, fibration, CONCLUSION_NONORTHOGONAL, kind)
    if fibration.status == STATUS_NONE:
        return SystemVerdict(base, fibration, CONCLUSION_ORTHOGONAL, None)
    return SystemVerdict(base, fibration, CONCLUSION_INCONCLUSIVE, None)


def classify_derivative_family(f: RatFunc, g: RatFunc) -> SystemVerdict:
    """Full classification of x' = f(x), y' = g(x)."""
    base = base_orthogonal(f)
    fibration = beta_search_derivative(f, g)
    if not base.orthogonal:
        return SystemVerdict(base, fibration, CONCLUSION_BASE_INAPPLICABLE, None)
    if fibration.status == STATUS_FOUND:
        return SystemVerdict(base, fibration, CONCLUSION_NONORTHOGONAL, KIND_INTERNAL)
    return SystemVerdict(base, fibration, CONCLUSION_ORTHOGONAL, None)
