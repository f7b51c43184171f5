import random
from fractions import Fraction

import pytest

from orthoscope import RatFunc, UniPoly, parse_expression, parse_system, parse_univariate
from orthoscope.errors import ParseError, ShapeError
from orthoscope.parsing import (
    KIND_DERIVATIVE,
    KIND_LOG,
    MAX_DEGREE,
    Planar,
    UnivariateFamily,
)


class TestGrammar:
    def test_log_family(self, x):
        src = parse_system("x' = x^3*(x-1); y' = y*x")
        family = src.parsed
        assert isinstance(family, UnivariateFamily) and family.kind == KIND_LOG
        assert family.f == RatFunc.from_poly(x**3 * (x - 1))
        assert family.g == RatFunc.from_poly(x)

    def test_planar(self):
        src = parse_system("x' = x^3*(x-1); y' = x*y + y^2/2")
        assert isinstance(src.parsed, Planar)
        v = src.parsed.v
        assert v.fy.coeff(0, 2) == Fraction(1, 2)

    def test_derivative_family(self, x):
        src = parse_system("x' = x^2*(x-1)*(x+1); y' = x")
        assert src.parsed.kind == KIND_DERIVATIVE

    def test_rational_slots(self, x):
        src = parse_system("x' = 1/x\ny' = y/x")
        assert src.parsed.kind == KIND_LOG
        assert src.parsed.f == RatFunc(UniPoly.one(), x)
        assert src.parsed.g == RatFunc(UniPoly.one(), x)

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
        assert parse_expression(f"x^{MAX_DEGREE}").num.degree_x() == MAX_DEGREE
        assert parse_expression("x^0003 + x^0") == parse_expression("x^3 + 1")
        assert parse_expression(f"(x^2/y)^{MAX_DEGREE // 2}").den.degree_y() == MAX_DEGREE // 2
        for text in (f"x^{MAX_DEGREE + 1}", f"(x*y)^{MAX_DEGREE // 2 + 1}",
                     f"(1/(x + 1))^{MAX_DEGREE + 1}", f"2^{MAX_DEGREE + 1}",
                     f"x^2^{MAX_DEGREE // 2 + 1}", "x^99999999999999999999",
                     "x^" + "9" * 5000):
            with pytest.raises(ParseError) as exc:
                parse_expression(text)
            assert exc.value.position == text.rindex("^") + 1, text

    def test_operation_degree_bound(self):
        for text in ("x^1000 + x^1000", "2^1000*x", "x^500*x^500", "(x^2/y)^250/y^500",
                     "1/x^500 + 1/x^500", "x^999*(x + 1)"):
            parse_expression(text)
        for text, op in (("(x+1)^1000*(x+1)^1000", "*"), ("x^600*(x^600)", "*"),
                         ("x*-x^1000", "*"), ("x^600/(x + 1)^600", "/"),
                         ("1/x^600 + 1/x^500", "+"), ("1/x^600 - x^500", "-")):
            with pytest.raises(ParseError) as exc:
                parse_expression(text)
            assert exc.value.position == text.rindex(op), text

    def test_literal_length_bound(self):
        assert parse_expression("9" * 4300).num.coeff(0, 0) == 10**4300 - 1
        text = "x + " + "9" * 4301
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert exc.value.position == 4

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
        first = parse_system(source)
        second = parse_system(first.serialize())
        assert first.parsed == second.parsed

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
            second = parse_system(first.serialize())
            assert first.parsed == second.parsed, text
            done += 1
