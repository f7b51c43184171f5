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
)
from orthoscope.errors import ParseError, ShapeError
from orthoscope.parsing import (
    KIND_DERIVATIVE,
    KIND_LOG,
    MAX_DEGREE,
    MAX_NESTING,
    UnivariateFamily,
)
from conftest import record_calls


class TestGrammar:
    def test_log_family(self, x):
        family = parse_system("x' = x^3*(x-1); y' = y*x")
        assert isinstance(family, UnivariateFamily) and family.kind == KIND_LOG
        assert family.f == RatFunc.from_poly(x**3 * (x - 1))
        assert family.g == RatFunc.from_poly(x)

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

    def test_polynomial_statements_reduce_once_each(self, monkeypatch):
        built = record_calls(monkeypatch, BiRatFunc.__post_init__)
        gcds = record_calls(monkeypatch, bipoly_gcd)
        family = parse_system("x' = (x-1)^3*(x+2); y' = y*(2*x - 1/3)")
        assert family.kind == KIND_LOG
        # __post_init__ is FractionField's, so the RatFuncs f and g pass too
        assert sum(isinstance(v, BiRatFunc) for v in built) == 2 and not gcds

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

        def gen_expr(depth=0):
            choice = rng.randint(0, 5 if depth < 3 else 2)
            if choice == 0:
                return str(rng.randint(0, 9))
            if choice == 1:
                return "x"
            if choice == 2:
                return "y"
            if choice == 3:
                return f"({gen_expr(depth + 1)} + {gen_expr(depth + 1)})"
            if choice == 4:
                return f"({gen_expr(depth + 1)})*({gen_expr(depth + 1)})"
            return f"({gen_expr(depth + 1)})^{rng.randint(0, 3)}"

        done = 0
        while done < 200:
            fx = gen_expr()
            fy = f"y*({gen_expr()})" if rng.random() < 0.5 else gen_expr()
            text = f"x' = {fx}; y' = {fy}"
            try:
                first = parse_system(text)
            except (ParseError, ShapeError):
                continue  # fuzz may build zero denominators or odd shapes
            assert_printed_components_parse_back(first)
            done += 1
