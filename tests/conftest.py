import math
import random
import sys
from fractions import Fraction

import pytest

from orthoscope import RatFunc, UniPoly


@pytest.fixture
def x():
    return UniPoly.variable()


def random_unipoly(rng: random.Random, max_degree: int, lo: int = -9, hi: int = 9,
                   monic: bool = False, nonzero: bool = False) -> UniPoly:
    deg = rng.randint(0, max_degree)
    coeffs = [rng.randint(lo, hi) for _ in range(deg)]
    lead = 1 if monic else rng.choice([c for c in range(lo, hi + 1) if c != 0])
    p = UniPoly.of(coeffs + [lead])
    if nonzero and p.is_zero:
        return UniPoly.one()
    return p


def assert_canonical(p: UniPoly) -> UniPoly:
    """p is in canonical form: an int content pair in lowest terms with a
    positive denominator, and a primitive int part with a positive leading
    entry, or 0/1 and () for zero; so p equals, and hashes as, the
    polynomial built afresh from its coefficients."""
    assert all(type(v) is int for v in (p.cnum, p.cden, *p.prim)), p
    if p.prim:
        assert p.cnum and p.cden > 0 and math.gcd(p.cnum, p.cden) == 1, p
        assert math.gcd(*p.prim) == 1 and p.prim[-1] > 0, p
    else:
        assert (p.cnum, p.cden) == (0, 1)
    fresh = UniPoly.of(p.coeffs)
    assert fresh == p and hash(fresh) == hash(p)
    return p


def frac(v) -> Fraction:
    """An exact rational scalar (an int, a Fraction or a string) as a Fraction."""
    if isinstance(v, (int, Fraction, str)):
        return Fraction(v)
    raise TypeError(f"not an exact rational scalar: {v!r}")


def compose_affine(p, a, b):
    """p(a*x + b) exactly, for a UniPoly or a RatFunc p, by Horner's rule."""
    if isinstance(p, RatFunc):
        return RatFunc(compose_affine(p.num, a, b), compose_affine(p.den, a, b))
    inner, acc = UniPoly.of((b, a)), UniPoly.zero()
    for c in reversed(p.coeffs):
        acc = acc * inner + c
    return acc


def expand(sf) -> UniPoly:
    """The polynomial a SquarefreeFactorization stands for."""
    acc = UniPoly.constant(sf.content)
    for f, m in sf.parts:
        acc = acc * f**m
    return acc


def random_squarefree_denominator(rng: random.Random, max_factors: int = 3) -> UniPoly:
    """Product of distinct small irreducible-ish polynomials, squarefree."""
    from orthoscope import poly_gcd

    while True:
        d = UniPoly.one()
        for _ in range(rng.randint(1, max_factors)):
            deg = rng.randint(1, 3)
            d = d * UniPoly.of([rng.randint(-5, 5) for _ in range(deg)] + [1])
        if d.degree >= 1 and poly_gcd(d, d.derivative()).degree == 0:
            return d


def random_proper_ratfunc(rng: random.Random, den: UniPoly) -> RatFunc:
    num = UniPoly.of([rng.randint(-9, 9) for _ in range(int(den.degree))])
    if num.is_zero:
        num = UniPoly.one()
    return RatFunc(num, den)


def random_search_input(rng: random.Random) -> tuple[RatFunc, RatFunc]:
    """Rational f and g for the beta searches, over loci of degree 1 to 3,
    where g.den may share loci with f.num and with f.den."""
    x, P = UniPoly.variable(), RatFunc.from_poly
    pool = [x - 2, x + 1, x, x - Fraction(1, 2), x**2 + 1, x**2 - 2, x**2 + x + 1,
            x**3 - 2, x**3 - x - 1]
    picks = rng.sample(pool, rng.randint(2, 4))
    split = rng.randint(1, len(picks) - 1)
    num_loci, den_loci = picks[:split], picks[split:] if rng.random() < 0.6 else []
    f = RatFunc.constant(Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])))
    for q in num_loci:
        f = f * P(q) ** rng.choice([1, 1, 2, 3])
    for q in den_loci:
        f = f / P(q) ** rng.choice([1, 2])
    shape = rng.choice(["dlog", "dlog", "f.num", "f.den", "polynomial"])
    if shape == "dlog":
        # g - beta0 = f*t with simple poles only: a candidate is tested
        t = RatFunc.zero()
        for q in rng.sample(pool, rng.randint(1, 3)):
            t = t + RatFunc(q.derivative(), q) * Fraction(rng.choice([1, -1, 2, -3]),
                                                           rng.choice([1, 1, 2]))
        g = t * f + Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    else:
        g = P(UniPoly.of([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]))
        if shape != "polynomial":
            shared = rng.choice(num_loci if shape == "f.num" else den_loci or num_loci)
            g = g / P(shared) ** rng.choice([1, 2, 3])
    return f, g


def record_calls(monkeypatch, fn, arg: int = 0) -> list:
    """Wrap fn in every orthoscope module and class that binds it, for the
    rest of the test; the returned list receives the positional argument
    numbered arg of each call (by default the first, self for a method)."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[arg] if len(args) > arg else None)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("orthoscope"):
            owners = [module, *(v for v in vars(module).values() if isinstance(v, type))]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        monkeypatch.setattr(owner, attr, wrapper)
    return calls


# Bases for factored_text: repeated linear loci, a non-monic copy of one,
# reducible bases that share an irreducible with others (x^2 - 1, x^4 - 1,
# the square x^2 + 2x + 1), irreducible ones, and sums that reduce to x^2
# and to the quotient 1/(x - 1).
FACTORED_BASES = ("x", "(x - 1)", "(x + 1)", "(2*x - 2)", "(1/2*x + 1/3)", "(x^2 - 1)",
                  "(x^2 + 2*x + 1)", "(x^2 - 2)", "(x^3 - 2)", "(x^4 - 1)",
                  "((x - 1)*(x + 1) + 1)", "(x/(x - 1) - 1)")


def factored_text(rng: random.Random, depth: int = 0) -> str:
    """A product and quotient of powers (exponents 0 to 3) of FACTORED_BASES,
    nonzero scalars, and parenthesized products of the same kind, nested up
    to two deep; at the top, sometimes wrapped as y*(...)/y, whose y cancels."""
    def factor() -> str:
        roll = rng.random()
        if roll < 0.15:
            return rng.choice(("3", "(2/3)", "(-1)"))
        inner = (f"({factored_text(rng, depth + 1)})" if roll < 0.35 and depth < 2
                 else rng.choice(FACTORED_BASES))
        return f"{inner}^{rng.randint(0, 3 - depth)}" if rng.random() < 0.4 else inner

    text = factor()
    for _ in range(rng.randint(0, 3)):
        text += rng.choice("*/") + factor()
    return f"y*({text})/y" if depth == 0 and rng.random() < 0.2 else text
