"""Seeded, known-answer inputs for the benchmark.

Every request carries the answer it must produce, taken from the way the
input was built (or from the hand-written corpus record it was pulled back
from), never from orthoscope itself. Requests are dealt round-robin over
the cells of a workload (construction x size, or corpus record), so any
stretch of the deck has the same mix whatever the seed.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

VERDICT_BASE_INAPPLICABLE = "base-nonorthogonal-criterion-inapplicable"
VERDICT_NONORTHOGONAL = "nonorthogonal-uniformly-almost-internal"
VERDICT_ORTHOGONAL = "orthogonal-to-constants"

# Bare-function commands take one expression r(x); `base` takes the f of x' = f(x).
FUNCTION_COMMANDS = ("residues", "is-dlog", "is-derivative")

# Sizes per construction. Each workload has 15 cells, so that with whole
# passes over the cells the median and the 90th percentile fall inside one
# cell's block of sorted latencies instead of on a gap between two cells.
SIMPLE_LINEAR_N = range(3, 7)       # f = prod(x - k_i)
SIMPLE_QUADRATIC_M = range(1, 5)    # f = prod(x^2 - c*s_i^2)
SIMPLE_BINOMIAL_N = range(3, 10)    # f = x^n - c
MULTIPLE_E = range(6, 23, 4)        # f = (x - a)^e * (x - b)

# Squarefree integers other than 1: never a rational square or n-th power.
_NON_POWERS = (2, 3, 5, 6, 7, -1, -2, -3, -5, -6, -7)
# Constants of one height: the cost of a request then depends on its cell
# far more than on the seed.
_SMALL = tuple(Fraction(v) for v in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)))


@dataclass(frozen=True)
class Request:
    """One call `cli.run(command, text)` and the answer it must give.

    `expect` maps any of verdict, beta, case, scaling and error to the
    expected value; keys that are absent are not checked.
    """

    cell: str
    command: str
    text: str
    expect: dict = field(default_factory=dict)
    residue_class: str = "rational"
    gauge_h: str = "y"


# -- text helpers -------------------------------------------------------------


def _q(value: Fraction) -> str:
    """A rational as an atom the orthoscope grammar reads."""
    value = Fraction(value)
    return str(value) if value >= 0 and value.denominator == 1 else f"({value})"


def _x_minus(k: Fraction, term: str = "x") -> str:
    k = Fraction(k)
    if k == 0:
        return term
    sign = "-" if k > 0 else "+"
    return f"({term} {sign} {abs(k)})"


def _rational(rng: random.Random, num: int, den: int, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if value or not nonzero:
            return value


def _distinct(rng: random.Random, count: int, draw) -> list:
    values: list = []
    while len(values) < count:
        v = draw()
        if v not in values:
            values.append(v)
    return values


# -- corpus pull-back ---------------------------------------------------------

_STATEMENT = re.compile(r"([xy])'(\s*=\s*)([^;\n]+)")
_X = re.compile(r"\bx\b")


def _affine(a: Fraction, b: Fraction) -> str:
    if b == 0:
        return "x" if a == 1 else f"({a}*x)"
    if a == 1:
        return f"(x + {_q(b)})"
    return f"({a}*x + {_q(b)})"


def _scaled(expr: str, factor: Fraction) -> str:
    return expr if factor == 1 else f"{_q(factor)}*({expr})"


def pull_back(command: str, text: str, a: Fraction, b: Fraction) -> str:
    """The source text after the change of variable x = a*u + b (u renamed x).

    A system becomes u' = f(au+b)/a, y' = g(au+b); a planar field changes
    the same way in x; a bare function r becomes a*r(au+b); the bare base
    of `base` is an f and changes as x' = f does.
    """
    a, b = Fraction(a), Fraction(b)
    u = _affine(a, b)
    if command in FUNCTION_COMMANDS:
        return _scaled(_X.sub(u, text), a)
    if "'" not in text:
        return _scaled(_X.sub(u, text), 1 / a)

    def statement(m: re.Match) -> str:
        rhs = _X.sub(u, m.group(3))
        if m.group(1) == "x":
            rhs = _scaled(rhs, 1 / a)
        return f"{m.group(1)}'{m.group(2)}{rhs}"

    return _STATEMENT.sub(statement, text)


_ERROR_KINDS = {"hypothesis", "parse", "shape"}


def record_expectation(fx) -> dict:
    """The checks of a corpus record that survive an affine pull-back."""
    e = fx.expectations
    if "expect_error" in e:
        if e["expect_error"] not in _ERROR_KINDS:
            raise ValueError(f"unknown error kind {e['expect_error']!r} in {fx.name}")
        return {"error": e["expect_error"]}
    expect = {"verdict": e["expect_verdict"]}
    if "expect_beta" in e:
        expect["beta"] = Fraction(e["expect_beta"])
    if "expect_case" in e:
        expect["case"] = e["expect_case"]
    if "expect_scaling" in e:
        expect["scaling"] = int(e["expect_scaling"])
    return expect


def corpus_requests(fixtures, rng: random.Random, count: int) -> list[Request]:
    """`count` requests dealt round-robin over the records, each source text
    pulled back by an (a, b) that it has not used before in this deck."""
    used: set = set()
    out = []
    for i in range(count):
        fx = fixtures[i % len(fixtures)]
        while True:
            a = _rational(rng, 9, 5, nonzero=True)
            b = _rational(rng, 9, 5)
            if (fx.source, a, b) not in used and (a, b) != (1, 0):
                used.add((fx.source, a, b))
                break
        out.append(Request(fx.name, fx.command, pull_back(fx.command, fx.source, a, b),
                           record_expectation(fx), fx.residue_class, fx.gauge_h))
    return out


# -- simple-poles -------------------------------------------------------------


def _log_sum(rng: random.Random, factors: list[str], derivatives: list[str]) -> str:
    """g with g/f = sum_i r_i * dlog(factor_i), f the product of the factors.

    The residues r_i have small denominators, so the rational-class witness
    prod(factor_i^(N*r_i)) stays small: with an arbitrary g its exponents are
    the lcm of residue denominators, which grows with the roots' heights.
    """
    scale = rng.randint(1, 4)
    terms = []
    for i, d in enumerate(derivatives):
        r = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), scale)
        terms.append("*".join([_q(r), d] + factors[:i] + factors[i + 1:]))
    return " + ".join(terms)


def simple_linear(rng: random.Random, n: int) -> Request:
    """f = prod(x - k_i), k_i = a*i + b distinct: rational residue ratios."""
    a, b = rng.choice(_SMALL), _rational(rng, 6, 2)
    factors = [_x_minus(a * i + b) for i in range(1, n + 1)]
    g = _log_sum(rng, factors, ["1"] * n)
    return Request(f"linear-{n}", "classify", f"x' = {'*'.join(factors)}; y' = y*({g})",
                   {"verdict": VERDICT_BASE_INAPPLICABLE})


def simple_quadratic(rng: random.Random, m: int) -> Request:
    """f = prod(x^2 - c*s_i^2), c a non-square: residues are rational
    multiples of 1/sqrt(c), so their ratios are rational."""
    c = rng.choice(_NON_POWERS[:8])
    a = abs(rng.choice(_SMALL))
    factors = [_x_minus(c * (a * i) ** 2, "x^2") for i in range(1, m + 1)]
    g = _log_sum(rng, factors, ["2*x"] * m)
    return Request(f"quadratic-{m}", "classify", f"x' = {'*'.join(factors)}; y' = y*({g})",
                   {"verdict": VERDICT_BASE_INAPPLICABLE})


def simple_binomial(rng: random.Random, n: int) -> Request:
    """f = x^n - c, g = beta + f'/N: (g - beta)/f = dlog(f)/N, every residue 1/N."""
    c = rng.choice(_NON_POWERS)
    beta = _rational(rng, 9, 4)
    scale = rng.randint(1, 6)
    text = f"x' = x^{n} - {_q(c)}; y' = y*({_q(beta)} + {n}*x^{n - 1}/{scale})"
    return Request(f"binomial-{n}", "classify", text,
                   {"verdict": VERDICT_NONORTHOGONAL, "beta": beta, "case": "B",
                    "scaling": scale})


# -- multiple-poles -------------------------------------------------------------


def _multiple_base(rng: random.Random, e: int):
    a, b = _distinct(rng, 2, lambda: rng.choice(_SMALL))
    return a, b, f"{_x_minus(a)}^{e}*{_x_minus(b)}"


def multiple_log_found(rng: random.Random, e: int) -> Request:
    """h = (x-a)^m1 (x-b)^m2, dlog(h) = P/((x-a)(x-b)); g = beta + (x-a)^(e-1) P/N
    makes (g - beta)/f = dlog(h)/N."""
    a, b, f = _multiple_base(rng, e)
    m1, m2 = (rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(2))
    scale = rng.randint(1, 6)
    beta = rng.choice(_SMALL)
    p = f"{m1}*{_x_minus(b)} + {m2}*{_x_minus(a)}"
    text = f"x' = {f}; y' = y*({_q(beta)} + {_x_minus(a)}^{e - 1}*({p})/{scale})"
    return Request(f"log-found-{e}", "classify", text,
                   {"verdict": VERDICT_NONORTHOGONAL, "beta": beta, "case": "A",
                    "scaling": scale // math.gcd(scale, m1, m2)})


def multiple_log_none(rng: random.Random, e: int) -> Request:
    """g'(a) != 0: no beta clears the pole of order e at a."""
    a, _, f = _multiple_base(rng, e)
    while True:
        c0, c1, c2 = (rng.choice(_SMALL) for _ in range(3))
        if c1 + 2 * c2 * a != 0:
            break
    text = f"x' = {f}; y' = y*({_q(c2)}*x^2 + {_q(c1)}*x + {_q(c0)})"
    return Request(f"log-none-{e}", "classify", text,
                   {"verdict": VERDICT_ORTHOGONAL, "case": "A"})


def multiple_derivative_found(rng: random.Random, e: int) -> Request:
    """y' = beta - c(e-1)(x-b): (g - beta)/f = (c (x-a)^(1-e))'."""
    a, b, f = _multiple_base(rng, e)
    c, beta = rng.choice(_SMALL), rng.choice(_SMALL)
    text = f"x' = {f}; y' = {_q(beta)} - {_q(c * (e - 1))}*{_x_minus(b)}"
    return Request(f"derivative-found-{e}", "classify", text,
                   {"verdict": VERDICT_NONORTHOGONAL, "beta": beta, "case": "B"})


_CELLS = {
    "simple-poles": [(simple_linear, n) for n in SIMPLE_LINEAR_N]
    + [(simple_quadratic, m) for m in SIMPLE_QUADRATIC_M]
    + [(simple_binomial, n) for n in SIMPLE_BINOMIAL_N],
    "multiple-poles": [(build, e) for e in MULTIPLE_E
                       for build in (multiple_log_found, multiple_log_none,
                                     multiple_derivative_found)],
}

WORKLOADS = ("corpus", "simple-poles", "multiple-poles")


def round_length(workload: str, fixtures) -> int:
    """Requests in one pass over every cell of the workload."""
    return len(fixtures) if workload == "corpus" else len(_CELLS[workload])


def generate(workload: str, seed: int, count: int, fixtures) -> list[Request]:
    """The first `count` requests of the workload's deck for this seed;
    `fixtures` is the parsed corpus."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        return corpus_requests(fixtures, rng, count)
    cells = _CELLS[workload]
    return [build(rng, size) for build, size in
            (cells[i % len(cells)] for i in range(count))]


def warmup(workload: str, seed: int, fixtures) -> list[Request]:
    """Inputs for warm-up, none of them in the deck: the unshifted corpus
    records, or each construction once at its smallest size."""
    if workload == "corpus":
        return [Request(fx.name, fx.command, fx.source, record_expectation(fx),
                        fx.residue_class, fx.gauge_h) for fx in fixtures]
    rng = random.Random(f"{workload}:{seed}:warmup")
    smallest = {}
    for build, size in _CELLS[workload]:
        smallest[build] = min(size, smallest.get(build, size))
    return [build(rng, size) for build, size in smallest.items()]
