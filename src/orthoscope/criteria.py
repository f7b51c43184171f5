"""Decision procedures for base orthogonality and fiber internality.

base_orthogonal reads the projective pole spectrum of (1/f)dx and the
Hermite remainder of 1/f off one checked partial-fraction split
(spectrum_and_remainder), which builds no derivative part: only a
derivative witness needs one. Both beta searches reuse its residues, and
the derivative search its remainder. Its pole loci, with their
multiplicities, are the factors of f.num, which the caller may pass in as
loci (the CLI reads them off the parsed bases of f with factor_bases);
with the factors of rest = g.den/gcd(f.den, g.den) they factor every
denominator of either beta search, so a request factors each input once.
The beta searches decide whether some constant shift of g makes
(g - beta)/f a scaled logarithmic derivative (log family) or an exact
derivative (derivative family). Both searches return verified witnesses;
the log search is complete whenever a multiple pole pins beta (case A) or a
rational anchor forces beta rational (case B), and reports case C honestly
otherwise. The log search reads its denominator's factorization off those
of f.num and rest, takes the residue of (g - beta)/f at a simple pole of
1/f where g is regular as (g - beta)*Res(1/f), settles one candidate beta
and tests it once, on residues read off the data it solved for beta with,
so it never factors or Hermite-reduces (g - beta)/f. The derivative search
pins beta with a residue of 1/f (at a simple pole where g is regular) and
reduces only (g - beta)/f, once. Both searches write (g - beta)/f as
(n - beta*m)/d, with d = rest*f.num, over one factorization of d that
factors only rest (_search_data); the derivative search divides the loci
that n - beta*m shares with d out of both sides and hands what is left of
the factorization to hermite_reduce. Every residue of (g - beta)/f is
Res(g/f) - beta*Res(1/f), and its Hermite remainder rem(g/f) - beta*rem(1/f),
so both searches read beta off the residues, remainders and factorizations
they already hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra.factor import _factor_order, factor_rationals
from .algebra.unipoly import UniPoly, poly_gcd
from .errors import HypothesisError, WitnessVerificationError
from .ratfunc import (
    INTEGER,
    RATIONAL,
    Loci,
    PoleEntry,
    PoleSpectrum,
    RatFunc,
    Residue,
    WitnessData,
    _infinity_pole,
    _lowest_terms,
    _residue,
    _value_at,
    dlog_from_spectrum,
    exact_derivative_part,
    hermite_reduce,
    ratio_all_rational,
    spectrum_and_remainder,
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
    spectrum: PoleSpectrum   # of (1/f)dx
    remainder: RatFunc       # the Hermite remainder of 1/f


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


def _none(case: str, detail: str) -> BetaSearchResult:
    """The search's answer that no beta works, in completeness case case."""
    return BetaSearchResult(STATUS_NONE, None, None, case, None, detail)


@dataclass(frozen=True)
class SystemVerdict:
    base: Optional[OrthogonalityVerdict]
    fibration: BetaSearchResult
    conclusion: str
    internality_kind: Optional[str]


# -- base orthogonality (pole structure of (1/f)dx) ---------------------------


def base_orthogonal(f: RatFunc, loci: Optional[Loci] = None) -> OrthogonalityVerdict:
    """Orthogonality of the base equation x' = f(x) from the spectrum of
    (1/f)dx. loci is f.num's factorization, as factor_bases reads it off
    the parsed bases; without it f.num is factored here."""
    if f.is_zero:
        raise HypothesisError("base coefficient f must be nonzero")
    spectrum, remainder = spectrum_and_remainder(RatFunc.one() / f, loci)
    if f.is_polynomial and f.num.degree <= 1:
        orthogonal, evidence = False, EVIDENCE_DEGENERATE
    elif spectrum.has_multiple_pole() and spectrum.has_simple_pole():
        orthogonal, evidence = True, EVIDENCE_MULTIPLE_AND_SIMPLE
    elif spectrum.has_multiple_pole():
        orthogonal, evidence = False, EVIDENCE_NO_SIMPLE_POLE
    elif ratio_all_rational(spectrum):
        orthogonal, evidence = False, EVIDENCE_RATIONAL_RATIOS
    else:
        orthogonal, evidence = True, EVIDENCE_IRRATIONAL_RATIO
    return OrthogonalityVerdict(orthogonal, evidence, spectrum, remainder)


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


def _search_parts(
    base: OrthogonalityVerdict, rest: UniPoly
) -> tuple[tuple[UniPoly, int], ...]:
    """The factorization of d = rest*f.num, in factor order, for
    rest = g.den/gcd(f.den, g.den).

    mult_q(d) = mult_q(f.num) + mult_q(rest). The factors of f.num are the
    affine pole loci of 1/f that base already holds, so only rest is
    factored here, and only when it is nonconstant.
    """
    mult = {e.locus: e.multiplicity for e in base.spectrum.affine_poles}
    if rest.degree >= 1:
        for q, e in factor_rationals(rest).parts:
            mult[q] = mult.get(q, 0) + e
    return _factor_order(mult.items())


def _search_data(
    f: RatFunc, g: RatFunc, base: OrthogonalityVerdict
) -> tuple[UniPoly, UniPoly, UniPoly, tuple[tuple[UniPoly, int], ...]]:
    """n, m, d and d's factorization, with (g - beta)/f = (n - beta*m)/d
    for every beta and d monic.

    With f and g reduced, g.num*f.den, g.den*f.den and g.den*f.num have
    gcd common = gcd(f.den, g.den). It is divided out of g.den and f.den
    once, leaving rest = g.den/common and f.den/common: n = g.num*f.den/common,
    m = rest*f.den and d = rest*f.num. d's factorization is read off those
    of f.num and rest (_search_parts).
    """
    common = poly_gcd(f.den, g.den)
    rest, f_den = g.den, f.den
    if common.degree > 0:
        rest, f_den = rest.exact_div(common), f_den.exact_div(common)
    n, m, d = g.num * f_den, rest * f.den, rest * f.num
    scale = 1 / d.lc
    return n * scale, m * scale, d.monic(), _search_parts(base, rest)


def beta_search_log(
    f: RatFunc, g: RatFunc, base: OrthogonalityVerdict, residue_class: str = RATIONAL
) -> BetaSearchResult:
    """Decide whether some beta makes (g - beta)/f a scaled dlog image.

    The target condition: projectively only simple poles, with residues in
    the requested class. Multiple-pole cancellation conditions are affine in
    beta (case A); with beta free, per-factor residue data is affine in beta
    and any beta-dependent residue at a rational point anchors beta to the
    rationals (case B). Conjugate-coupled factors without an anchor are
    reported as case C, never guessed. base is base_orthogonal(f); its pole
    loci, with those of rest = g.den/gcd(f.den, g.den), factor every
    denominator of the search.

    With (g - beta)/f = (n - beta*m)/d, d monic (_search_data), every
    candidate has simple poles only: a pinned beta clears q^(e-1) at each
    multiple locus q and every coefficient of degree >= deg d, and in the
    free and soft-pinned cases d is squarefree and n, m are proper. So the candidate's residues
    are read off the search's own data (Bronstein, Symbolic Integration I,
    section 2.5): a pinned beta divides n - beta*m by D = prod q^(e-1) and
    reads the residue at q as the quotient over (d/D)' mod q; a free or
    soft-pinned beta gives a_el - beta*b_el from the per-locus values that
    the free case computes anyway. At a simple pole of 1/f where g is
    regular, Res((g - beta)/f) = (g - beta)*Res(1/f), so b_el is base's
    residue rho_q and a_el = (g mod q)*rho_q. Every other locus of the
    squarefree d is a locus of g.den alone, where m/d = 1/f is regular:
    there b_el = 0 and a_el is n/d' at the roots of q.
    dlog_from_spectrum then builds and checks the witness.

    The free case settles beta first, and tests it once: the soft pin or,
    when the soft system is free, 0 in the rational class and
    _solve_integrality's beta in the integer class. The candidate of a free
    soft system must be found, as any beta with class residues then works.
    beta is anchored when the infinity coefficient or a rational residue
    depends on it: then an empty soft system or a failed candidate is a
    complete none (case B), and otherwise case C.
    """
    if residue_class not in (INTEGER, RATIONAL):
        raise ValueError(f"unknown residue class {residue_class!r}")
    n, m, d, parts = _search_data(f, g, base)

    conditions: list[tuple[Fraction, Fraction]] = []
    powers = [q ** (e - 1) for q, e in parts if e >= 2]    # D = their product
    for mod in powers:
        nn, mm = n % mod, m % mod
        for k in range(int(mod.degree)):
            conditions.append((nn.coeff(k), mm.coeff(k)))
    d_deg = int(d.degree)
    for k in range(d_deg, max(n.total_degree(), m.total_degree()) + 1):
        conditions.append((n.coeff(k), m.coeff(k)))

    status, pinned = _solve_affine(conditions)
    if status == _EMPTY:
        return _none(CASE_A, "multiple-pole cancellation conditions are unsatisfiable")
    if status == _PINNED:
        num, den, residues = _pinned_residues(n - m * pinned, d, parts, powers)
        return _test_candidate(pinned, num, den, residues, residue_class, CASE_A)

    # free case: d squarefree, infinity at worst simple, for every beta
    dprime = d.derivative()
    rho = {e.locus: e.residue for e in base.spectrum.affine_poles if e.multiplicity == 1}
    integrality: list[tuple[Fraction, Fraction]] = []
    soft: list[tuple[Fraction, Fraction]] = []
    affine: list[tuple[UniPoly, Residue, Residue]] = []   # residue a_el - beta*b_el
    for q, _ in parts:
        if q in rho:    # d is squarefree, so g.den misses q
            b_el = rho[q]
            a_el = _residue(_value_at(g.num, g.den, q) * b_el)
        else:    # a locus of g.den alone, where m/d = 1/f is regular
            a_el, b_el = _value_at(n, dprime, q), Fraction(0)
        affine.append((q, a_el, b_el))
        if isinstance(b_el, Fraction):
            if not isinstance(a_el, Fraction):
                # residue values at conjugate roots would have to differ by
                # rationals, impossible for a nonconstant class: complete none
                return _none(CASE_B, f"residue at {q} is irrational for every beta")
            integrality.append((a_el, b_el))
        else:
            # b_el is irrational, so this locus alone pins beta or is unsatisfiable
            a_rep = UniPoly.constant(a_el) if isinstance(a_el, Fraction) else a_el.rep
            soft.extend((a_rep.coeff(k), b_el.rep.coeff(k)) for k in range(1, int(q.degree)))

    soft_status, beta = _solve_affine(soft)
    anchored = m.coeff(d_deg - 1) != 0 or any(b for _, b in integrality)
    if soft_status == _EMPTY:
        if anchored:
            return _none(CASE_B, "no rational beta satisfies the residue-rationality system")
        return BetaSearchResult(
            STATUS_INCONCLUSIVE, None, None, CASE_C, None,
            "conjugate-coupled residues admit no rational beta; an irrational "
            "beta is not excluded",
        )
    if soft_status == _FREE:    # no polynomial constraints left on beta at all
        beta = Fraction(0) if residue_class == RATIONAL else _solve_integrality(integrality)
        if beta is None:
            return _none(CASE_B, "no beta makes every residue an integer")
    residues = [(q, _residue(a_el - b_el * beta)) for q, a_el, b_el in affine]
    result = _test_candidate(beta, n - m * beta, d, residues, residue_class, CASE_B,
                             assert_found=soft_status == _FREE)
    if result.found or anchored:
        return result
    return BetaSearchResult(
        STATUS_INCONCLUSIVE, None, None, CASE_C, None,
        "the unique rational candidate fails; an irrational beta is not excluded",
    )


def _pinned_residues(
    c: UniPoly, d: UniPoly, parts: tuple[tuple[UniPoly, int], ...], powers: list[UniPoly]
) -> tuple[UniPoly, UniPoly, list[tuple[UniPoly, Residue]]]:
    """c/d as num/P, with P = d/D squarefree for D = prod q^(e-1), and the
    pairs (q, residue) at each locus q of d; powers are the q^(e-1) at the
    loci with e >= 2, which the search built for its conditions.

    A pinned beta makes D divide c = n - beta*m and c proper, so c/d has
    simple poles only; the residue at the roots of q is
    _value_at(num, P', q).
    """
    big_d = math.prod(powers, start=UniPoly.one())
    num, den = c.exact_div(big_d), d.exact_div(big_d)
    dprime = den.derivative()
    return num, den, [(q, _value_at(num, dprime, q)) for q, _ in parts]


def _test_candidate(
    beta: Fraction,
    num: UniPoly,
    den: UniPoly,
    residues: list[tuple[UniPoly, Residue]],
    residue_class: str,
    case: str,
    assert_found: bool = False,
) -> BetaSearchResult:
    """Test beta on (g - beta)/f = num/den, where den is monic and
    squarefree, num is proper, and residues gives the residue at each locus
    of den in factor order.

    A locus with residue zero divides num and is not a pole; the other
    loci are coprime to num, so the reduced target is built without a gcd
    (_lowest_terms). Its spectrum goes to dlog_from_spectrum, which builds
    and checks the witness: nothing here factors or Hermite-reduces the
    target again.
    """
    r = _lowest_terms(num, den, residues)
    poles = tuple(PoleEntry(q, 1, value) for q, value in residues if value != 0)
    spectrum = PoleSpectrum(poles, _infinity_pole(r, r.num))    # r is proper
    result = dlog_from_spectrum(r, spectrum, residue_class)
    if result.found:
        return BetaSearchResult(
            STATUS_FOUND, beta, result.witness, case, result.spectrum, None
        )
    if assert_found:
        raise WitnessVerificationError(
            f"free-beta candidate {beta} unexpectedly failed: {result.reason}"
        )
    return _none(case, f"at the pinned beta = {beta}: {result.reason}")


# -- the derivative-family beta search ----------------------------------------------


def beta_search_derivative(
    f: RatFunc, g: RatFunc, base: OrthogonalityVerdict
) -> BetaSearchResult:
    """Decide whether some beta makes (g - beta)/f an exact derivative.

    (g - beta)/f is an exact derivative in Q(x) exactly when each of its
    residues vanishes (Bronstein, Symbolic Integration I, sections
    2.2-2.5), and each residue is affine in beta: Res((g - beta)/f) =
    Res(g/f) - beta*Res(1/f). So a single nonzero residue of 1/f pins
    beta, and any valid beta equals the pinned one; the search is
    complete once the pinned beta is tested. base is base_orthogonal(f),
    whose split of 1/f supplies its residues and its remainder.

    - rem(1/f) = 0: no residue depends on beta, so beta = 0.
    - Else, at the first simple pole alpha of 1/f (locus q) where g is
      regular, Res(g/f) = g(alpha)*Res(1/f) with Res(1/f) != 0, so beta
      must be g mod q; when that is irrational, no beta works.
    - Else (every pole of 1/f with a nonzero residue is multiple or a pole
      of g) beta is pinned by the linearity of the Hermite remainder:
      rem(g/f) = beta*rem(1/f). Both remainders are reduced with monic
      denominators, so beta = lc(rem(g/f).num)/lc(rem(1/f).num), which is
      0 when rem(g/f) = 0, and one comparison checks it, with no gcd.

    (g - beta)/f = (n - beta*m)/d, with d's factorization, comes from
    _search_data, as in the log search. It is brought to lowest terms over
    that factorization (_reduce_over) and Hermite-reduced once, so no gcd
    or factorization runs on it again; a zero remainder gives the verified
    witness and a nonzero one the answer none. The fallback brings
    g/f = n/d to lowest terms the same way and reads only its remainder
    (spectrum_and_remainder), which needs no derivative part.
    """
    n, m, d, parts = _search_data(f, g, base)
    rem_one = base.remainder

    if rem_one.is_zero:
        detail = "the remainder is beta-independent and nonzero"
        beta = Fraction(0)
    else:
        detail = "remainder vanishing admits no constant solution"
        beta = None
        for entry in base.spectrum.affine_poles:
            if entry.multiplicity == 1 and not (g.den % entry.locus).is_zero:
                beta = _value_at(g.num, g.den, entry.locus)
                if not isinstance(beta, Fraction):
                    return _none(CASE_B, detail)
                break
        if beta is None:
            rem_g = spectrum_and_remainder(*_reduce_over(n, d, parts))[1]
            beta = rem_g.num.lc / rem_one.num.lc
            if rem_g != rem_one * beta:
                return _none(CASE_B, detail)
    r, loci = _reduce_over(n - m * beta, d, parts)
    herm = hermite_reduce(r, loci)
    if not herm.remainder.is_zero:
        return _none(CASE_B, detail)
    return BetaSearchResult(
        STATUS_FOUND, beta, exact_derivative_part(r, herm), CASE_B, herm.spectrum, None
    )


def _reduce_over(
    c: UniPoly, d: UniPoly, parts: tuple[tuple[UniPoly, int], ...]
) -> tuple[RatFunc, tuple[tuple[UniPoly, int], ...]]:
    """c/d in lowest terms and its denominator's factorization, for d monic
    with factorization parts.

    Each locus q of d, of multiplicity e, divides c to some power k <= e,
    and q^k is divided out of both sides exactly. What is left is coprime,
    so the result is built without a gcd; c = 0 gives 0/1 and no loci.
    """
    loci = []
    for q, e in parts:
        k = 0
        while k < e:
            quotient, left = divmod(c, q)
            if not left.is_zero:
                break
            c, k = quotient, k + 1
        if k:
            d = d.exact_div(q**k)
        if k < e:
            loci.append((q, e - k))
    return RatFunc._coprime(c, d), tuple(loci)


# -- family classifiers ------------------------------------------------------------


def classify_log_family(f: RatFunc, g: RatFunc, loci: Optional[Loci] = None) -> SystemVerdict:
    """Full classification of x' = f(x), y' = y*g(x); loci as in base_orthogonal."""
    base = base_orthogonal(f, loci)
    return _system_verdict(base, beta_search_log(f, g, base, RATIONAL))


def classify_derivative_family(f: RatFunc, g: RatFunc,
                               loci: Optional[Loci] = None) -> SystemVerdict:
    """Full classification of x' = f(x), y' = g(x); loci as in base_orthogonal."""
    base = base_orthogonal(f, loci)
    return _system_verdict(base, beta_search_derivative(f, g, base))


def _system_verdict(base: OrthogonalityVerdict, fibration: BetaSearchResult) -> SystemVerdict:
    """The conclusion of either family from the base verdict and the beta
    search; a derivative witness has scaling 1, so it reads internal."""
    if not base.orthogonal:
        return SystemVerdict(base, fibration, CONCLUSION_BASE_INAPPLICABLE, None)
    if fibration.status == STATUS_FOUND:
        kind = KIND_INTERNAL if fibration.witness.scaling == 1 else KIND_ALMOST
        return SystemVerdict(base, fibration, CONCLUSION_NONORTHOGONAL, kind)
    if fibration.status == STATUS_NONE:
        return SystemVerdict(base, fibration, CONCLUSION_ORTHOGONAL, None)
    return SystemVerdict(base, fibration, CONCLUSION_INCONCLUSIVE, None)
