import random
import time
from fractions import Fraction

import pytest

from orthoscope import (
    BiPoly,
    BiRatFunc,
    PlanarVectorField,
    RatFunc,
    UniPoly,
    bipoly_gcd,
    parse_expression,
    parse_system,
    parse_univariate,
    parsing,
    poly_gcd,
    ratfunc,
)
from orthoscope.errors import ParseError, ShapeError
from orthoscope.parsing import (
    KIND_DERIVATIVE,
    KIND_LOG,
    MAX_DEGREE,
    MAX_NESTING,
    UnivariateFamily,
    _parse,
    parse_univariate_bases,
)
from conftest import record_calls


class TestGrammar:
    def test_log_family(self, x):
        family = parse_system("x' = x^3*(x-1); y' = y*x")
        assert isinstance(family, UnivariateFamily) and family.kind == KIND_LOG
        assert family.f == RatFunc.from_poly(x**3 * (x - 1))
        assert family.g == RatFunc.from_poly(x)

    def test_the_x_statement_records_the_bases_it_multiplied(self, x):
        family = parse_system("x' = 2*(x - 1)^3*x/(x^2 + 1)^2*(x + (1/2))^0; y' = y*x")
        assert family.bases == ((x - 1, 3), (x, 1), (x**2 + 1, -2), (x + Fraction(1, 2), 0))
        # a power of a parenthesized product multiplies every exponent
        assert parse_univariate_bases("-((x - 1)*x^2)^3")[1] == ((x - 1, 3), (x, 6))
        # a sum is its own single base, and so is a value that met y
        assert parse_univariate_bases("x^2 - 1")[1] == ((x**2 - 1, 1),)
        assert parse_univariate_bases("1/x + 1")[1] == ((x + 1, 1), (x, -1))
        assert parse_univariate_bases("y*x/(y*(x - 1))")[1] == ((x, 1), (x - 1, -1))
        # a constant has none, and a zero value none whatever it multiplied
        assert parse_univariate_bases("3/4")[1] == ()
        assert parse_univariate_bases("0*(x - 1)/x")[1] == ()

    def test_planar(self):
        v = parse_system("x' = x^3*(x-1); y' = x*y + y^2/2")
        assert isinstance(v, PlanarVectorField)
        assert v.fy.coeff(0, 2) == Fraction(1, 2)

    def test_derivative_family(self, x):
        assert parse_system("x' = x^2*(x-1)*(x+1); y' = x").kind == KIND_DERIVATIVE

    def test_rational_slots(self, x):
        family = parse_system("x' = 1/x\ny' = y/x")
        assert family.kind == KIND_LOG
        assert family.f == RatFunc(UniPoly.one(), x)
        assert family.g == RatFunc(UniPoly.one(), x)

    def test_ratio_literals(self):
        value = parse_expression("1/2 + 3/4")
        assert value.constant_value() == Fraction(5, 4)

    def test_empty_rhs_position(self):
        with pytest.raises(ParseError) as exc:
            parse_system("x' = ")
        assert exc.value.position == 5

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_expression("x + z")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x^-2")

    def test_power_degree_bound(self):
        assert parse_expression(f"x^{MAX_DEGREE}").num == BiPoly.x() ** MAX_DEGREE
        assert parse_expression("x^0003 + x^0") == parse_expression("x^3 + 1")
        assert parse_expression(f"(x^2/y)^{MAX_DEGREE // 2}").den == BiPoly.y() ** (MAX_DEGREE // 2)
        for text in (f"x^{MAX_DEGREE + 1}", f"(x*y)^{MAX_DEGREE // 2 + 1}",
                     f"(1/(x + 1))^{MAX_DEGREE + 1}", f"2^{MAX_DEGREE + 1}",
                     f"x^2^{MAX_DEGREE // 2 + 1}", "x^99999999999999999999",
                     "x^" + "9" * 5000):
            with pytest.raises(ParseError) as exc:
                parse_expression(text)
            assert exc.value.position == text.rindex("^") + 1, text

    def test_operation_degree_bound(self):
        # the bounds read reduced operands: (x^2-1)/(x-1) enters as x + 1
        for text in ("x^1000 + x^1000", "2^1000*x", "x^500*x^500", "(x^2/y)^250/y^500",
                     "1/x^500 + 1/x^500", "x^999*(x + 1)", "(x^2-1)/(x-1) * x^999"):
            parse_expression(text)
        for text, op in (("(x+1)^1000*(x+1)^1000", "*"), ("x^600*(x^600)", "*"),
                         ("x*-x^1000", "*"), ("x^600/(x + 1)^600", "/"),
                         ("1/x^600 + 1/x^500", "+"), ("1/x^600 - x^500", "-"),
                         ("x^999*(x^2-1)/(x-1)", "*")):
            with pytest.raises(ParseError) as exc:
                parse_expression(text)
            assert exc.value.position == text.rindex(op), text

    def test_literal_length_bound(self):
        assert parse_expression("9" * 4300).num.coeff(0, 0) == 10**4300 - 1
        text = "x + " + "9" * 4301
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert exc.value.position == 4

    def test_nesting_bound(self):
        nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_expression(nested) == parse_expression("x")
        text = "y + " + nested.replace("x", "(x)", 1)
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}") as exc:
            parse_expression(text)
        assert exc.value.position == text.index("(x)")

    def test_leading_signs_in_a_loop(self):
        x = parse_expression("x")
        assert parse_expression("-" * 5000 + "x") == x
        assert parse_expression("-" * 5001 + "x") == -x
        assert parse_expression("+-" * 2500 + "x^2") == parse_expression("x^2")
        assert parse_expression("-+" * 2500 + "-x^2") == -parse_expression("x^2")

    def test_non_decimal_digit_refused(self):
        with pytest.raises(ParseError, match="unexpected character '²'") as exc:
            parse_expression("x^²")
        assert exc.value.position == 2
        assert parse_expression("x^３") == parse_expression("x^3")

    def test_binomial_power_within_100_ms(self):
        start = time.perf_counter()
        value = parse_expression("(x - 9/4)^1000")
        assert time.perf_counter() - start < 0.1
        assert value.num.total_degree() == 1000 and value.num.coeff(0, 0) == Fraction(9, 4) ** 1000

    def test_power_of_a_fraction_within_1_s(self):
        # a power of a reduced pair is reduced: no gcd of the two powers
        start = time.perf_counter()
        value = parse_expression("(4/y - 8)^501")
        assert time.perf_counter() - start < 1.0
        assert value.den == BiPoly.y() ** 501
        assert value.num.coeff(0, 0) == 4**501 and value.num.coeff(0, 501) == (-8) ** 501

    def test_sum_of_high_powers_within_1_s(self):
        # a Henrici sum takes gcd(x^600, (x + 1)^400), not the gcd of the
        # expanded numerator and denominator; with y on top, the gcd of the
        # y-free denominators is a gcd in Q[x]
        for top in (BiPoly.one(), BiPoly.y()):
            start = time.perf_counter()
            value = parse_expression(f"{top}/x^600 + {top}/(x+1)^400")
            assert time.perf_counter() - start < 1.0
            assert value.den == BiPoly.x() ** 600 * (BiPoly.x() + 1) ** 400
            assert value.num == top * (BiPoly.x() ** 600 + (BiPoly.x() + 1) ** 400)

    def test_polynomial_statements_reduce_once_each(self, x, monkeypatch):
        built = record_calls(monkeypatch, BiRatFunc.__post_init__)
        gcds = record_calls(monkeypatch, bipoly_gcd)
        # RatFunc's own gcd and the parser's, apart from the poly_gcd calls
        # inside bipoly_gcd
        ratfunc_gcds, parser_gcds = [], []
        monkeypatch.setattr(ratfunc, "poly_gcd",
                            lambda a, b: ratfunc_gcds.append(a) or poly_gcd(a, b))
        monkeypatch.setattr(parsing, "poly_gcd",
                            lambda a, b: parser_gcds.append((a, b)) or poly_gcd(a, b))
        family = parse_system("x' = (x-1)^3*(x+2); y' = y*(2*x - 1/3)")
        assert family.kind == KIND_LOG
        # polynomial statements build no BiRatFunc and take no gcd
        assert not built and not gcds and not ratfunc_gcds and not parser_gcds
        # the y-free x' quotient takes one gcd of a base of the divisor
        # against the dividend, and none of the expanded sides; the y'
        # quotient, whose dividend is y*(x + 3), takes one in Q[x, y]; f
        # and g of the family are read off the reduced pairs without a
        # second gcd
        family = parse_system("x' = (x + 1)/(x^2 - 2); y' = y*(x + 3)/(x - 1)")
        assert parser_gcds == [(x**2 - 2, x + 1)]
        assert not ratfunc_gcds and len(gcds) == 1
        assert family.kind == KIND_LOG
        assert (str(family.f), str(family.g)) == ("(x + 1)/(x^2 - 2)", "(x + 3)/(x - 1)")

    def test_quotient_tests_the_divisor_bases_not_the_expanded_sides(self, x, monkeypatch):
        # hang-table row B: each base of the divisor, of degree 1, against
        # the dividend (x^2 + 1)^200; no gcd of the sides, of degrees 400
        # and 200, in the parser or in RatFunc
        calls = record_calls(monkeypatch, poly_gcd)
        f, bases = parse_univariate_bases("(x^2 + 1)^200/((x-1)^100*(x-2)^100)")
        assert calls == [x - 1, x - 2]
        assert (f.num.degree, f.den.degree) == (400, 200)
        assert bases == ((x**2 + 1, 200), (x - 1, -100), (x - 2, -100))

    @pytest.mark.parametrize("text, degrees", [
        ("1/(x+1)*" + "*".join(f"(x-{k})" for k in range(1, 400)), (399, 1)),
        ("*".join(f"(x-{k})" for k in range(1, 400)) + "*1/"
         + "/".join(f"(x-{k})" for k in range(1, 400)), (0, 0)),
        ("x" + "*x/x" * 2000, (1, 0)),
    ], ids=["products", "cancelling", "x-over-x"])
    def test_long_quotient_chains_within_1_s(self, text, degrees):
        # each step tests the new bases against one side, and a step whose
        # bases cancel reduces with one gcd against a linear divisor: no
        # rebuilding of the value from its bases
        start = time.perf_counter()
        f, _ = parse_univariate_bases(text)
        assert time.perf_counter() - start < 1.0
        assert (f.num.degree, f.den.degree) == degrees

    NESTED = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING

    # one input per place the parser refuses, with its exact message and offset
    @pytest.mark.parametrize("parse, text, message, position", [
        (parse_expression, "x + $", "unexpected character '$'", 4),
        (parse_expression, "x^²", "unexpected character '²'", 2),
        (parse_expression, "x + z", "unknown symbol 'z'", 4),
        (parse_expression, "x*(1 + ", "expected an expression, found 'end of input'", 7),
        (parse_expression, "x*)", "expected an expression, found ')'", 2),
        (parse_expression, "x y", "trailing input 'y'", 2),
        (parse_expression, "(x + 1", "expected ')', found ''", 6),
        (parse_expression, "x^y", "exponent must be a nonnegative integer", 2),
        (parse_expression, "x^-2", "exponent must be a nonnegative integer", 2),
        (parse_expression, "1/(x - x)", "division by zero", 9),
        (parse_expression, "y/(2 - 2)*x", "division by zero", 9),
        (parse_expression, "x/0", "division by zero", 3),
        (parse_expression, "x^1001", "power exceeds the degree bound 1000", 2),
        (parse_expression, "2^1001", "power exceeds the degree bound 1000", 2),
        (parse_expression, "x^600*x^401", "product exceeds the degree bound 1000", 5),
        (parse_expression, "x^600/(x + 1)^401", "quotient exceeds the degree bound 1000", 5),
        (parse_expression, "1/x^600 + 1/x^401", "sum exceeds the degree bound 1000", 8),
        (parse_expression, "1/x^600 - x^401", "difference exceeds the degree bound 1000", 8),
        (parse_expression, "x + " + "9" * 4301, "integer literal longer than 4300 digits", 4),
        (parse_expression, "y + (" + NESTED + ")", "parentheses nested deeper than 100", 104),
        (parse_system, "z' = x; y' = y", "statements must assign x' or y', found 'z'", 0),
        (parse_system, "3' = x; y' = y", "expected 'name', found '3'", 0),
        (parse_system, "x = x; y' = y", "expected 'prime', found '='", 2),
        (parse_system, "x' x; y' = y", "expected 'eq', found 'x'", 3),
        (parse_system, "x' = \ny' = y", "expected an expression, found '\\n'", 5),
        (parse_system, "x' = x y' = y", "expected ';' or end of input, found 'y'", 7),
        (parse_system, "x' = x; x' = x; y' = y*x", "duplicate statement for x'", 8),
        (parse_system, "x' = x", "missing statement for y'", 6),
        (parse_system, "y' = y\n", "missing statement for x'", 7),
    ], ids=lambda v: v[:24] if isinstance(v, str) else None)
    def test_error_table(self, parse, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at offset {position})"
        assert exc.value.position == position

    def test_missing_statement(self):
        with pytest.raises(ParseError):
            parse_system("x' = x")

    def test_duplicate_statement(self):
        with pytest.raises(ParseError):
            parse_system("x' = x; x' = x; y' = y*x")

    def test_division_by_zero_literal(self):
        with pytest.raises(ParseError):
            parse_expression("1/(x - x)")

    def test_y_denominator_rejected_for_families(self):
        with pytest.raises(ShapeError):
            parse_system("x' = x; y' = 1/y")

    def test_bare_univariate(self, x):
        assert parse_univariate("1/(x*(x-1))") == RatFunc(UniPoly.one(), x * (x - 1))
        with pytest.raises(ShapeError):
            parse_univariate("x*y")


def assert_printed_components_parse_back(parsed) -> None:
    """Each component of a parsed system, printed, parses back to itself."""
    if isinstance(parsed, PlanarVectorField):
        for p in (parsed.fx, parsed.fy):
            assert parse_expression(str(p)) == p, str(p)
    else:
        for r in (parsed.f, parsed.g):
            assert parse_univariate(str(r)) == r, str(r)


class TestRoundTrip:
    FIXTURE_SOURCES = [
        "x' = x^2*(x-1); y' = y*x",
        "x' = x^3*(x-1); y' = y*x",
        "x' = x^2*(x-1); y' = x",
        "x' = x^3*(x-1); y' = x*y + y^2/2",
        "x' = x^3*(x-1) + y; y' = x*y + x*y^2",
        "x' = 1/x; y' = y/x",
        "x' = x^2*(x-1) + y; y' = x*y",
    ]

    @pytest.mark.parametrize("source", FIXTURE_SOURCES)
    def test_fixture_sources(self, source):
        assert_printed_components_parse_back(parse_system(source))

    def test_fuzzed_expressions_200(self):
        rng = random.Random(5150)
        done = 0
        while done < 200:
            fx = fuzz_expression(rng)
            fy = f"y*({fuzz_expression(rng)})" if rng.random() < 0.5 else fuzz_expression(rng)
            text = f"x' = {fx}; y' = {fy}"
            try:
                first = parse_system(text)
            except (ParseError, ShapeError):
                continue  # fuzz may build zero denominators or odd shapes
            assert_printed_components_parse_back(first)
            done += 1

    def test_fuzzed_expressions_match_sympy(self):
        # sympy reads the same text, with ** for ^, and cancels it on its own
        sympy = pytest.importorskip("sympy")
        X, Y = sympy.symbols("x y")

        def terms(poly, scale) -> dict:
            return {k: Fraction(int(c.p), int(c.q)) for k, c in poly.quo_ground(scale).as_dict().items()}

        rng = random.Random(6104)
        seen, done = set(), 0
        while done < 120:
            text = fuzz_expression(rng)
            try:
                value = parse_expression(text)
            except ParseError as exc:
                assert str(exc).startswith("division by zero"), text
                continue
            p, q = sympy.fraction(sympy.cancel(
                sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y})))
            p, q = sympy.Poly(p, X, Y, domain=sympy.QQ), sympy.Poly(q, X, Y, domain=sympy.QQ)
            # both denominators are scaled to a lex-leading coefficient of 1
            assert value.num.terms == terms(p, q.LC()), text
            assert value.den.terms == terms(q, q.LC()), text
            seen.add("polynomial" if value.den.is_constant else "rational")
            done += 1
        assert seen == {"polynomial", "rational"}

    def test_y_free_fuzz_matches_sympy_in_either_ring(self):
        # y-free text is read in Q[x]; wrapped as y*(...)/y it is promoted to
        # Q[x, y] at its first y, and the y cancels; either way each slot
        # holds sympy's cancelled quotient
        sympy = pytest.importorskip("sympy")
        X = sympy.symbols("x")

        def monic_over(poly, scale) -> UniPoly:
            return UniPoly.of(Fraction(int(c.p), int(c.q))
                              for c in reversed(poly.quo_ground(scale).all_coeffs()))

        rng = random.Random(2912)
        seen, done = set(), 0
        while done < 120:
            body = fuzz_expression(rng).replace("y", "x")
            text = body if rng.random() < 0.5 else f"y*({body})/y"
            try:
                value = _parse(text)
            except ParseError as exc:
                assert str(exc).startswith("division by zero"), text
                continue
            p, q = sympy.fraction(sympy.cancel(sympy.sympify(body.replace("^", "**"),
                                                             locals={"x": X})))
            p, q = sympy.Poly(p, X, domain=sympy.QQ), sympy.Poly(q, X, domain=sympy.QQ)
            expected = (monic_over(p, q.LC()), monic_over(q, q.LC()))
            family = parse_system(f"x' = {text}; y' = y*({text})")
            assert family.kind == (KIND_DERIVATIVE if expected[0].is_zero else KIND_LOG), text
            derivative = parse_system(f"x' = {text}; y' = {text}")
            assert derivative.kind == KIND_DERIVATIVE, text
            for r in (parse_univariate(text), family.f, family.g, derivative.g):
                assert (r.num, r.den) == expected, text
            seen.add("Q[x, y]" if isinstance(value, (BiPoly, BiRatFunc)) else "Q[x]")
            done += 1
        assert seen == {"Q[x]", "Q[x, y]"}


def fuzz_expression(rng: random.Random, depth: int = 0) -> str:
    """Source text with + - * / ^, ratio literals and runs of unary signs.
    Every power has a parenthesized base, so the text reads the same with **
    for ^ in Python, whose ** groups from the right."""
    choice = rng.randint(4 if depth == 0 else 0, 8 if depth < 3 else 3)
    sub = (lambda: fuzz_expression(rng, depth + 1))
    if choice == 0:
        return str(rng.randint(0, 9))
    if choice == 1:
        return "x"
    if choice == 2:
        return "y"
    if choice == 3:
        return f"{rng.randint(0, 9)}/{rng.randint(1, 6)}"
    if choice == 4:
        return f"({sub()} + {sub()})" if rng.random() < 0.5 else f"{sub()} - {sub()}"
    if choice == 5:
        return f"({sub()})*({sub()})" if rng.random() < 0.5 else f"{sub()}*{sub()}"
    if choice == 6:
        return f"({sub()})/({sub()})" if rng.random() < 0.5 else f"{sub()}/{sub()}"
    if choice == 7:
        return rng.choice(["-", "+", "--", "-+-", "+-"]) + sub()
    if rng.random() < 0.5:
        return f"(({sub()})/({sub()}))^{rng.randint(0, 3)}"
    return f"({sub()})^{rng.randint(0, 3)}"
