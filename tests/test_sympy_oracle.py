"""Differential tests against sympy, an implementation that shares no code
with orthoscope. Skipped when sympy is not installed."""

import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from orthoscope import (
    BiPoly,
    NFElement,
    RatFunc,
    UniPoly,
    bipoly_gcd,
    factor_rationals,
    hermite_reduce,
    parse_expression,
    pole_spectrum,
    poly_gcd,
    squarefree_decompose,
)
from orthoscope.algebra.factor import factor_bases
from orthoscope.errors import ParseError
from orthoscope.parsing import parse_univariate_bases

from conftest import factored_text, record_calls

X, Y = sympy.symbols("x y")


def to_sympy(p: UniPoly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], X, domain=sympy.QQ)


def from_sympy(p) -> UniPoly:
    return UniPoly.of(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def bi_to_sympy(p: BiPoly):
    terms = {k: sympy.Rational(c.numerator, c.denominator) for k, c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, X, Y, domain=sympy.QQ)


def bi_from_sympy(p) -> BiPoly:
    return BiPoly.of({k: Fraction(int(c.p), int(c.q)) for k, c in p.as_dict().items()})


def _rational(rng: random.Random, wide: bool) -> Fraction:
    if wide:
        return Fraction(rng.getrandbits(64) - 2**63, rng.getrandbits(64) | 1)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def _random_poly(rng: random.Random, max_degree: int, wide: bool = False) -> UniPoly:
    deg = rng.randint(0, max_degree)
    lead = Fraction(0)
    while lead == 0:
        lead = _rational(rng, wide)
    return UniPoly.of([_rational(rng, wide) for _ in range(deg)] + [lead])


def _structured_poly(rng: random.Random) -> UniPoly:
    """A product of powers of small factors, so that factors repeat."""
    p = UniPoly.constant(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
    for _ in range(rng.randint(1, 4)):
        base = _random_poly(rng, 3)
        if base.degree >= 1:
            p = p * base ** rng.randint(1, 3)
    return p


def test_divmod_matches_sympy():
    rng = random.Random(7001)
    for _ in range(150):
        wide = rng.random() < 0.3
        a, b = _random_poly(rng, 25, wide), _random_poly(rng, 10, wide)
        q, r = divmod(a, b)
        sq, sr = to_sympy(a).div(to_sympy(b))
        assert (q, r) == (from_sympy(sq), from_sympy(sr))


def test_gcd_matches_sympy():
    rng = random.Random(7002)
    for _ in range(150):
        common = _structured_poly(rng)
        a = _random_poly(rng, 6) * common
        b = _random_poly(rng, 6) * common
        if a.is_zero and b.is_zero:
            continue
        assert poly_gcd(a, b) == from_sympy(to_sympy(a).gcd(to_sympy(b)).monic())


def test_squarefree_decompose_matches_sympy():
    rng = random.Random(7003)
    for _ in range(120):
        p = _structured_poly(rng)
        sf = squarefree_decompose(p)
        content, parts = to_sympy(p).sqf_list()
        assert sf.content == Fraction(int(content.p), int(content.q))
        assert set(sf.parts) == {(from_sympy(f), m) for f, m in parts}


def test_squarefree_multiplicity_gaps_match_sympy():
    """Factors to multiplicities with gaps between them, and powers of a
    single factor, where Yun's loop ends on d = k*b' before the gcds of
    the passes in between."""
    rng = random.Random(7013)
    for _ in range(80):
        p = UniPoly.constant(_rational(rng, False) or 1)
        for m in rng.sample(range(1, 13), rng.randint(1, 3)):
            base = _random_poly(rng, 3)
            if base.degree >= 1:
                p = p * base ** m
        sf = squarefree_decompose(p)
        content, parts = to_sympy(p).sqf_list()
        assert sf.content == Fraction(int(content.p), int(content.q))
        assert set(sf.parts) == {(from_sympy(f), m) for f, m in parts}


def test_factor_rationals_matches_sympy():
    rng = random.Random(7004)
    cases = [_structured_poly(rng) for _ in range(100)]
    cases.append(UniPoly.of([1, 0, -10, 0, 1]))      # x^4 - 10x^2 + 1
    cases.append(UniPoly.of([-2, 0, 0, 1]) * UniPoly.of([3, 0, 1]) ** 2)
    # non-monic products of rational roots, a zero root and irreducible cofactors
    x = UniPoly.variable()
    cases.append((3 * x - 2) * (5 * x + 1) * (7 * x**2 - 3) * (2 * x**3 - 5))
    cases.append(x * (4 * x**2 - 3))
    cases.append(Fraction(-2, 9) * x**2 * (6 * x + 5) ** 2 * (9 * x**4 - 2) * (3 * x**2 + x + 1))
    for p in cases:
        _assert_factors_match(p)


def _assert_factors_match(p: UniPoly) -> None:
    fac = factor_rationals(p)
    content, parts = to_sympy(p).factor_list()   # primitive integer factors
    monic_content = content * sympy.prod([f.LC() ** m for f, m in parts])
    assert fac.content == Fraction(int(monic_content.p), int(monic_content.q))
    assert set(fac.parts) == {(from_sympy(f.monic()), m) for f, m in parts}, p


def test_factored_bases_match_factor_list():
    # sympy factors the cancelled quotient of the text; factor_bases only
    # the bases the parser multiplied, on each side
    rng = random.Random(3402)
    for _ in range(150):
        text = factored_text(rng)
        bases = parse_univariate_bases(text)[1]
        quotient = sympy.fraction(sympy.cancel(
            sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y})))
        for denominator, side in zip((False, True), quotient):
            side = sympy.Poly(side, X, domain=sympy.QQ)
            if not side.is_zero:
                want = {(from_sympy(f.monic()), m) for f, m in side.factor_list()[1]}
                assert set(factor_bases(bases, denominator)) == want, text


def test_factor_rationals_matches_sympy_on_root_rich_parts():
    """Parts with many roots mod the chosen prime but few rational ones,
    where most modular factors are linear: products of x^2 - c*k^2 with c a
    square and a non-square mod p, binomials x^n - c, non-monic rational
    roots beside a nonlinear cofactor, and the Swinnerton-Dyer polynomials
    SD_3 and SD_4, irreducible over Q but split into linear and quadratic
    factors mod every prime."""
    from sympy.polys.specialpolys import swinnerton_dyer_poly

    rng = random.Random(7010)
    x = UniPoly.variable()
    cases = []
    for c in (2, 3, 5, 6, 7, -1, -2, Fraction(1, 2)):
        for _ in range(3):
            ks = rng.sample(range(1, 10), rng.randint(2, 8))
            cases.append(math.prod((x**2 - c * k * k for k in ks), start=UniPoly.one()))
            # a tall factor beside a short one needs the whole lift
            k = rng.randint(10**5, 10**7)
            cases.append((x**2 - c * k * k) * (x**2 - rng.choice([2, 3, 5, -1])))
    for n in range(3, 13):
        for c in (2, -3, Fraction(5, 2), 16, -27, 64, 1, 10**12 + 39):
            cases.append(x**n - c)
    for top in (9, 10**6):      # heights of the quadratic's lead and the roots
        for _ in range(15):
            p = (rng.randint(1, top) * x**2 - rng.choice([2, 3, 5, -1])) \
                * (rng.randint(1, 9) * x**3 - rng.choice([2, 3, 7]))
            for _ in range(rng.randint(1, 4)):
                p = p * (rng.randint(1, 9) * x - rng.randint(-top, top))
            cases.append(p)
    cases += [from_sympy(swinnerton_dyer_poly(k, X, polys=True)) for k in (3, 4)]
    for p in cases:
        _assert_factors_match(p)


def test_factor_rationals_matches_sympy_on_binomials():
    """A*x^n + B for n = 2..30, with c = -B/A a perfect power for a divisor
    of n, -4*k^4, a fraction of powers, a negative or a squarefree value:
    Capelli's criterion proves some irreducible, and the rest go through
    the modular pipeline."""
    rng = random.Random(7027)
    x = UniPoly.variable()
    cases = []
    for n in range(2, 31):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        d = rng.choice(divisors)
        values = [rng.randint(2, 5) ** d, -rng.randint(2, 5) ** d,
                  Fraction(rng.randint(1, 4), rng.randint(2, 5)) ** d,
                  -4 * rng.randint(1, 3) ** 4, Fraction(-1, 4) * Fraction(1, rng.randint(2, 3)) ** 4,
                  rng.choice([2, 3, 5, 6, 10, 30]), -rng.choice([1, 2, 3, 6, 7])]
        for c in values:
            a = rng.randint(1, 9)
            cases.append(a * x**n - a * c)
    for p in cases:
        _assert_factors_match(p)


def _inflate(g: UniPoly, d: int) -> UniPoly:
    """g(x^d), built from g's coefficients."""
    coeffs = [Fraction(0)] * (int(g.degree) * d + 1)
    coeffs[::d] = g.coeffs
    return UniPoly.of(coeffs)


def test_factor_rationals_matches_sympy_on_deflations():
    """Products of g(x^d) for d = 2, 3, 4, where g is one random
    polynomial (mostly irreducible) or a product of two or three (always
    reducible), sometimes beside a second g'(x^d') or a linear factor, so
    that the exponent gcd is d, a divisor of d, or 1; and the
    simple-poles deck's products of x^2 - c*k^2."""
    rng = random.Random(7028)
    x = UniPoly.variable()
    cases, kinds = [], [0, 0]
    for n in range(120):
        d = rng.choice((2, 3, 4))
        g = UniPoly.one()
        for _ in range(1 + n % 3):
            g = g * UniPoly.of([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
                               + [rng.randint(1, 3)])
        if g.is_constant:
            continue
        kinds[len(factor_rationals(g).parts) > 1] += 1
        p = _inflate(g, d)
        if n % 5 == 0:
            p = p * _inflate(UniPoly.of([rng.randint(-4, 4), 0, 1]), rng.choice((2, 3, 4)))
        elif n % 7 == 0:
            p = p * (x - rng.randint(-3, 3))
        cases.append(p)
    for c in (2, 3, 5, 6, 7, -1, -2, -3):
        for a in (1, 2, Fraction(1, 2)):
            for m in range(1, 5):
                cases.append(math.prod((x**2 - c * (a * i) ** 2 for i in range(1, m + 1)),
                                       start=UniPoly.one()))
    assert kinds[0] >= 20 and kinds[1] >= 60      # irreducible and reducible g
    for p in cases:
        _assert_factors_match(p)


def _random_bipoly(rng: random.Random, dx: int, dy: int, wide: bool = False) -> BiPoly:
    terms = {(rng.randint(0, dx), rng.randint(0, dy)): _rational(rng, wide)
             for _ in range(rng.randint(1, 6))}
    return BiPoly.of(terms)


def test_bipoly_gcd_matches_sympy():
    rng = random.Random(7005)
    for n in range(120):
        common = _random_bipoly(rng, 2, 2)
        if n % 4 == 0:
            common = common * BiPoly.from_unipoly_x(_random_poly(rng, 2))   # y-free content
        a = _random_bipoly(rng, 3, 2, wide=n % 3 == 0) * common
        b = _random_bipoly(rng, 3, 2) * common
        if n % 10 == 0:
            b = BiPoly.zero()
        if a.is_zero and b.is_zero:
            continue
        expected = bi_from_sympy(bi_to_sympy(a).gcd(bi_to_sympy(b))).monic()
        assert bipoly_gcd(a, b) == expected


def test_bipoly_gcd_with_a_y_free_operand_matches_sympy(monkeypatch):
    # a y-free operand gives the gcd in Q[x], from the x-contents: no
    # BiPoly product is built
    products = record_calls(monkeypatch, BiPoly.__mul__)
    rng = random.Random(7011)
    drawn = set()
    for n in range(150):
        common = _random_poly(rng, 2) if n % 3 else UniPoly.one()
        a = _random_bipoly(rng, 3, 2, wide=n % 5 == 0) * BiPoly.from_unipoly_x(common)
        if n % 4 == 0:
            a = a * BiPoly.from_unipoly_x(_random_poly(rng, 2))   # more x-content
        b = BiPoly.from_unipoly_x(_random_poly(rng, 3, wide=n % 7 == 0) * common)
        if a.is_zero:
            continue
        expected = bi_from_sympy(bi_to_sympy(a).gcd(bi_to_sympy(b))).monic()
        products.clear()
        assert bipoly_gcd(a, b) == bipoly_gcd(b, a) == expected, (a, b)
        assert products == []
        drawn.add("y-free a" if a.is_y_free() else "a with y")
        drawn.add("constant gcd" if expected.is_constant else "gcd in Q[x]")
    assert drawn == {"y-free a", "a with y", "constant gcd", "gcd in Q[x]"}, drawn


def test_bipoly_exact_div_matches_sympy():
    rng = random.Random(7006)
    for n in range(150):
        b = _random_bipoly(rng, 3, 2, wide=n % 3 == 0)
        if b.is_zero:
            continue
        a = _random_bipoly(rng, 4, 3)
        if n % 2 == 0:
            a = a * b                                      # exact
        elif n % 4 == 1:
            a = a * b + _random_bipoly(rng, 2, 2)          # usually inexact
        q, r = bi_to_sympy(a).div(bi_to_sympy(b))
        if r.is_zero:
            assert a.exact_div(b) == bi_from_sympy(q)
        else:
            with pytest.raises(ValueError, match="inexact bivariate division"):
                a.exact_div(b)


# Irreducible loci over Q: linear, quadratic and cubic.
_LOCI = [[-3, 1], [Fraction(1, 2), 1], [2, 1], [0, 1], [1, 0, 1], [-2, 0, 1],
         [1, 1, 1], [3, 2, 1], [-2, 0, 0, 1], [-1, -1, 0, 1], [1, -3, 0, 1]]


def _random_source(rng: random.Random, depth: int) -> str:
    """Source text over x and y with + - * / ^ and unary minus; every power
    has a parenthesized base, so the caret reads the same in Python."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["x", "y", str(rng.randint(0, 9))])
    a, b = _random_source(rng, depth - 1), _random_source(rng, depth - 1)
    op = rng.choice(["+", "-", "*", "/", "^", "neg"])
    if op == "^":
        return f"({a})^{rng.randint(0, 3)}"
    if op == "neg":
        return f"-({a})"
    return f"({a}) {op} ({b})"


def test_parser_matches_cancel():
    rng = random.Random(7009)
    seen, done = set(), 0
    while done < 300:
        text = _random_source(rng, rng.randint(1, 3))
        try:
            value = parse_expression(text)
        except ParseError as exc:
            assert "division by zero" in str(exc), text
            continue
        p, q = sympy.fraction(sympy.cancel(
            sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y})))
        num, den = bi_to_sympy(value.num), bi_to_sympy(value.den)
        assert (num * sympy.Poly(q, X, Y, domain=sympy.QQ)
                - sympy.Poly(p, X, Y, domain=sympy.QQ) * den).is_zero, text
        assert value.den.lc == 1, text
        assert bipoly_gcd(value.num, value.den).is_constant, text
        seen.add("polynomial" if value.den.is_constant else "rational")
        done += 1
    assert seen == {"polynomial", "rational"}


def _random_pole_function(rng: random.Random) -> RatFunc:
    """n/d with d a product of 1..3 distinct loci at multiplicities 1..4,
    deg d <= 9 unless d is a single locus power, and n random of degree up
    to deg d + 1."""
    while True:
        den = UniPoly.one()
        loci = rng.sample(_LOCI, rng.randint(1, 3))
        for coeffs in loci:
            den = den * UniPoly.of(coeffs) ** rng.randint(1, 4)
        if den.degree <= 9 or len(loci) == 1:
            break
    num = UniPoly.of([rng.randint(-9, 9) for _ in range(int(den.degree) + 2)])
    return RatFunc(num if not num.is_zero else UniPoly.one(), den)


def _log_part(num, den):
    """((A, u), (B, v)) with num/den = (A/u)' + B/v for a proper num/den,
    u = gcd(den, den') and v = den/u: the Horowitz-Ostrogradsky reduction,
    solved as one square linear system over QQ in the coefficients of A
    (deg < deg u) and B (deg < deg v), num = A'*v - A*(u'*v/u) + B*u. It is
    the system that ratint_ratpart solves symbolically, here with sympy's
    DomainMatrix."""
    from sympy.polys.matrices import DomainMatrix

    QQ = sympy.QQ
    u = den.gcd(den.diff(X))
    v = den.exquo(u)
    w = (u.diff(X) * v).exquo(u)
    n, size = u.degree(), den.degree()
    monomials = [sympy.Poly(X**k, X, domain=QQ) for k in range(size)]
    columns = [k * monomials[k - 1] * v - monomials[k] * w if k else -w for k in range(n)]
    columns += [monomials[j] * u for j in range(size - n)]

    def ascending(p):
        c = [QQ.convert(a) for a in reversed(p.rep.to_list())]
        return c + [QQ(0)] * (size - len(c))

    matrix = DomainMatrix([list(row) for row in zip(*map(ascending, columns))], (size, size), QQ)
    rhs = DomainMatrix([[c] for c in ascending(num)], (size, 1), QQ)
    solution = [row[0] for row in matrix.lu_solve(rhs).to_list()]
    a, b = (sympy.Poly(list(reversed(c)) or [0], X, domain=QQ)
            for c in (solution[:n], solution[n:]))
    return (a, u), (b, v)


def test_residues_match_apart():
    """Residue classes against sympy's QQ polynomial arithmetic. r = N/D
    splits over Q into local parts R_q = sum of B_k/q^k, one per locus q of
    multiplicity m: with D = q^m*C, R_q = A/q^m for A = N*C^-1 mod q^m, and
    the B_k are the q-adic digits of A. At a simple pole, or at a linear
    locus, the residue class at the roots of q is B_1/q' mod q. Otherwise
    B/q^k with k >= 2 has residues too (1/(x^2+1)^2 has -i/4 at i), so
    Horowitz-Ostrogradsky (_log_part) first writes R_q = A' + N/D with D
    squarefree, and the class is N/D' mod q.
    """
    rng = random.Random(7007)
    algebraic = multiple = 0
    for _ in range(150):
        r = _random_pole_function(rng)
        num, den = to_sympy(r.num), to_sympy(r.den)
        expected = {}
        local = {}      # locus -> its nonzero digits, as (B_k, k)
        for base, m in sympy.factor_list(den.as_expr())[1]:
            q = sympy.Poly(base, X, domain=sympy.QQ).monic()
            expected[from_sympy(q)] = m
            a = (num * den.exquo(q**m).invert(q**m)).rem(q**m)
            digits = []
            for k in range(m, 0, -1):
                a, b = a.div(q)
                if not b.is_zero:
                    digits.append((b, k))
            local[from_sympy(q)] = digits
        spectrum = pole_spectrum(r)
        assert {e.locus: e.multiplicity for e in spectrum.affine_poles} == expected
        for entry in spectrum.affine_poles:
            q, e = to_sympy(entry.locus), entry.multiplicity
            terms = local[entry.locus]
            if e >= 2 and q.degree() >= 2:
                r_num = sum((n * q ** (e - k) for n, k in terms), sympy.Poly(0, X))
                _, (n, d) = _log_part(r_num, q**e)
            else:   # B/(x - a)^k has no residue for k >= 2
                n, d = sum((n for n, k in terms if k == 1), sympy.Poly(0, X)), q
            c = n if n.is_zero else (n * d.diff(X).invert(q)).rem(q)
            rep = entry.residue.rep if isinstance(entry.residue, NFElement) \
                else UniPoly.constant(entry.residue)
            assert rep.coeffs == from_sympy(c).coeffs, (r, entry.locus)
            algebraic += isinstance(entry.residue, NFElement)
            multiple += entry.multiplicity >= 2 and entry.locus.degree >= 2
    assert algebraic and multiple


def test_hermite_reduce_matches_ratint_ratpart():
    """Hermite reduction against sympy's Horowitz-Ostrogradsky reduction:
    _log_part, the linear system that ratint_ratpart solves, writes the
    proper part of r as A' + B with B's denominator squarefree. The
    derivative parts may differ only by a constant once the polynomial part
    is integrated, and the remainders must be equal; with and without
    r.den's factorization, taken from sympy's factor_list."""
    rng = random.Random(7008)
    deepest = 0
    for _ in range(60):
        r = _random_pole_function(rng)
        polypart, proper = divmod(r.num, r.den)
        a, b = (RatFunc(from_sympy(n), from_sympy(d))
                for n, d in _log_part(to_sympy(proper), to_sympy(r.den)))
        loci = sorted(((from_sympy(sympy.Poly(q, X, domain=sympy.QQ).monic()), int(m))
                       for q, m in sympy.factor_list(to_sympy(r.den).as_expr())[1]),
                      key=lambda qm: (qm[0].degree, qm[0].coeffs))
        for herm in (hermite_reduce(r), hermite_reduce(r, tuple(loci))):
            assert (herm.derivative_part - a - polypart.antiderivative()).is_constant, r
            assert herm.remainder == b, r
        deepest = max(deepest, *(m for _, m in factor_rationals(r.den).parts))
    assert deepest == 4
