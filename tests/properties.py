"""Shared property-suite bodies.

Each function runs one randomized invariant suite at a given count and
raises AssertionError on the first violation. The unit-test modules and the
acceptance module both call these, so the acceptance criteria execute
exactly the code the per-module tests document.
"""

import random
from fractions import Fraction

import numpy as np

from orthoscope import (
    INTEGER,
    RATIONAL,
    BiPoly,
    PlanarVectorField,
    RatFunc,
    UniPoly,
    base_orthogonal,
    beta_search_derivative,
    beta_search_log,
    dlog_witness,
    hermite_reduce,
    lie_bracket,
    pole_spectrum,
    poly_gcd,
)
from orthoscope.criteria import STATUS_FOUND

from conftest import (compose_affine, random_proper_ratfunc, random_squarefree_denominator,
                      random_unipoly)
from oracles import derivative, dlog, proper

X = UniPoly.variable()


def residue_sum_zero(count: int = 300) -> None:
    """Each draw is checked proper and plus a polynomial part, which adds a
    pole of order 2 or more at infinity but leaves every residue as it was."""
    rng = random.Random(77)
    for _ in range(count):
        den = random_squarefree_denominator(rng)
        r = random_proper_ratfunc(rng, den)
        assert pole_spectrum(r).residue_sum() == 0
        improper = r + RatFunc.from_poly(random_unipoly(rng, 6, nonzero=True))
        spectrum = pole_spectrum(improper)
        assert spectrum.infinity_pole.multiplicity >= 2
        assert spectrum.residue_sum() == 0


def hermite_roundtrip(count: int = 300) -> None:
    rng = random.Random(55)
    for _ in range(count):
        den = UniPoly.one()
        for _ in range(rng.randint(1, 2)):
            base = random_unipoly(rng, 2, lo=-4, hi=4, monic=True)
            if base.degree < 1:
                base = UniPoly.variable() + rng.randint(-4, 4)
            den = den * base ** rng.randint(1, 3)
        num = random_unipoly(rng, int(den.degree) + 1, lo=-9, hi=9)
        if num.is_zero:
            num = UniPoly.one()
        r = RatFunc(num, den)
        h = hermite_reduce(r)
        assert derivative(h.derivative_part) + h.remainder == r
        assert h.remainder.is_zero or proper(h.remainder)
        if not h.remainder.is_zero:
            d = h.remainder.den
            assert poly_gcd(d, d.derivative()).degree == 0


def dlog_soundness_completeness(count: int = 100) -> None:
    rng = random.Random(444)
    bases = [X, X - 1, X + 1, X - 3, 2 * X + 1, X**2 + 1, X**2 - 2, X**2 + X + 1]
    done = 0
    while done < count:
        h = RatFunc.one()
        for p in rng.sample(bases, k=rng.randint(1, 3)):
            h = h * RatFunc.from_poly(p) ** rng.choice([-3, -2, -1, 1, 2, 3])
        if h.is_constant:
            continue
        target = dlog(h)
        res = dlog_witness(target, INTEGER)
        assert res.found and res.witness.scaling == 1
        assert dlog(res.witness.h) == target
        done += 1


def constructed_no_false_none(count: int = 100) -> None:
    rng = random.Random(2718)
    done = 0
    while done < count:
        centers = rng.sample([-3, -2, -1, 0, 1, 2, 3], k=rng.randint(1, 3))
        pin_center = rng.choice([c for c in range(-5, 6) if c not in centers])
        loci = [X - c for c in centers]
        beta0 = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        residues = [
            Fraction(rng.choice([v for v in range(-4, 5) if v]), rng.choice([1, 2]))
            for _ in loci
        ]
        f = (X - pin_center) ** 2
        for locus in loci:
            f = f * locus
        shift = RatFunc.zero()
        for locus, res in zip(loci, residues):
            shift = shift + res * RatFunc(locus.derivative(), locus)
        g = RatFunc.constant(beta0) + RatFunc.from_poly(f) * shift
        f = RatFunc.from_poly(f)
        result = beta_search_log(f, g, base_orthogonal(f), RATIONAL)
        assert result.status == STATUS_FOUND and result.beta == beta0
        table = sorted(
            (e.locus.to_string(), e.residue)
            for e in result.residue_table.affine_poles
            if e.residue != 0
        )
        assert table == sorted((l.to_string(), r) for l, r in zip(loci, residues))
        done += 1


def bracket_algebra(count: int = 100) -> None:
    rng = random.Random(404)

    def rand_field():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = rng.randint(-3, 3)
        other = {}
        for _ in range(rng.randint(1, 4)):
            other[(rng.randint(0, 3), rng.randint(0, 3))] = rng.randint(-3, 3)
        return PlanarVectorField(BiPoly.of(terms), BiPoly.of(other))

    for _ in range(count):
        u, v, w = rand_field(), rand_field(), rand_field()
        uv, vu = lie_bracket(u, v), lie_bracket(v, u)
        assert uv.fx == -vu.fx and uv.fy == -vu.fy
        j1 = lie_bracket(lie_bracket(u, v), w)
        j2 = lie_bracket(lie_bracket(v, w), u)
        j3 = lie_bracket(lie_bracket(w, u), v)
        assert (j1.fx + j2.fx + j3.fx).is_zero
        assert (j1.fy + j2.fy + j3.fy).is_zero


def scaling_invariance(count: int = 100) -> None:
    rng = random.Random(7)
    fixtures = [
        (RatFunc.from_poly(X**2 * (X - 1)), RatFunc.from_poly(X)),
        (RatFunc.from_poly(X**3 * (X - 1)), RatFunc.from_poly(X)),
        (RatFunc.from_poly(X**3 - 2), RatFunc.from_poly(X)),
        (RatFunc.from_poly((X**2 - 2) * (X**2 - 3)), RatFunc.from_poly(X**2)),
    ]
    done = 0
    while done < count:
        if done < len(fixtures):
            f, g = fixtures[done]
        else:
            f = RatFunc.from_poly(random_unipoly(rng, 4, lo=-4, hi=4, monic=True, nonzero=True))
            g = RatFunc.from_poly(random_unipoly(rng, 3, lo=-4, hi=4))
            if f.num.degree < 1:
                continue
        k = rng.choice([-3, -2, -1, 2, 3, 5])
        assert (
            beta_search_log(f, g, base_orthogonal(f), RATIONAL).status
            == beta_search_log(f, g * k, base_orthogonal(f), RATIONAL).status
        )
        done += 1


def affine_invariance(count: int = 50) -> None:
    rng = random.Random(13)
    done = 0
    while done < count:
        f = RatFunc.from_poly(random_unipoly(rng, 4, lo=-3, hi=3, monic=True, nonzero=True))
        g = RatFunc.from_poly(random_unipoly(rng, 3, lo=-3, hi=3))
        if f.num.degree < 2:
            continue
        a = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        b = Fraction(rng.randint(-3, 3))
        ft = compose_affine(f, Fraction(1) / a, -b / a) * a
        gt = compose_affine(g, Fraction(1) / a, -b / a)
        assert base_orthogonal(f).orthogonal == base_orthogonal(ft).orthogonal
        assert (
            beta_search_log(f, g, base_orthogonal(f), RATIONAL).status
            == beta_search_log(ft, gt, base_orthogonal(ft), RATIONAL).status
        )
        assert (
            beta_search_derivative(f, g, base_orthogonal(f)).status
            == beta_search_derivative(ft, gt, base_orthogonal(ft)).status
        )
        done += 1


def numerical_residue_crosscheck(count: int = 200, tol: float = 1e-9) -> None:
    rng = random.Random(321)
    done = 0
    while done < count:
        den = random_squarefree_denominator(rng)
        if den.degree < 1:
            continue
        r = random_proper_ratfunc(rng, den)
        spectrum = pole_spectrum(r)
        dprime = r.den.derivative()
        checks = []
        for entry in spectrum.affine_poles:
            for root in np.roots(_floats(entry.locus)):
                est = np.polyval(_floats(r.num), root) / np.polyval(_floats(dprime), root)
                if isinstance(entry.residue, Fraction):
                    exact = complex(entry.residue)
                else:
                    exact = np.polyval(_floats(entry.residue.rep), root)
                checks.append((est, exact))
        if any(abs(est) > 1e6 for est, _ in checks):
            continue
        for est, exact in checks:
            assert abs(est - exact) < tol
        done += 1


def _floats(p: UniPoly) -> list[float]:
    """p's coefficients as floats, highest first, as numpy reads them."""
    return [float(c) for c in reversed(p.coeffs)]
