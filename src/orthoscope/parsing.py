"""Input grammar for systems and bare expressions.

Statements "x' = <expr>" and "y' = <expr>" separated by ";" or newlines;
expressions over x, y with integer literals, + - * / ^ and parentheses
(caret takes a nonnegative integer exponent; ratio literals such as 1/2
fall out of division). A value stays a BiPoly until a nonconstant
denominator appears; only then is it a BiRatFunc, reduced by the bivariate
gcd, and it turns back into a BiPoly when its reduced denominator is
constant. A power, product, quotient, sum or difference whose degree bound,
read from the reduced operands, would exceed MAX_DEGREE is refused before
it is expanded, and so is an integer literal of more than
MAX_LITERAL_DIGITS digits and a parenthesis nested more than MAX_NESTING
deep. Leading signs are read in a loop, so a run of any length parses.
Each expression or statement yields one reduced BiRatFunc, and str of a
parsed value is text that parses back to it.
Parsed systems are shape-classified:

  y' = y*g(x)  with y-free f, g  ->  log family
  y' = g(x)    with y-free f, g  ->  derivative family
  polynomial components          ->  planar vector field
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .algebra.bipoly import BiPoly
from .errors import ParseError, ShapeError
from .planar import BiRatFunc, PlanarVectorField
from .ratfunc import RatFunc

KIND_LOG = "log"
KIND_DERIVATIVE = "derivative"

# Largest degree bound an operation may reach; a constant base counts as
# degree 1 in a power, so the exponent itself is bounded too. The fixture
# corpus and the benchmark workloads stay below degree 30.
MAX_DEGREE = 1000
# Longest integer literal; Python's int() refuses longer digit strings.
MAX_LITERAL_DIGITS = 4300
# Deepest parenthesis nesting; each level is a few frames of recursion, so
# this keeps the parser far from the interpreter's recursion limit.
MAX_NESTING = 100

_RESULT_NAMES = {"*": "product", "/": "quotient", "+": "sum", "-": "difference"}


@dataclass(frozen=True)
class UnivariateFamily:
    f: RatFunc
    g: RatFunc
    kind: str  # log | derivative


# -- tokenizer ------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str   # num, name, op, prime, eq, sep, end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch in ";\n":
            tokens.append(_Token("sep", ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch == "'":
            tokens.append(_Token("prime", ch, i))
            i += 1
            continue
        if ch == "=":
            tokens.append(_Token("eq", ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0      # open parentheses around the current token

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.pos)
        return self.next()

    # expression grammar: sum of products of signed powers; a parse value is
    # a BiPoly while its reduced denominator is constant, else a BiRatFunc

    def parse_expr(self) -> BiPoly | BiRatFunc:
        acc = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next()
            rhs = self.parse_term()
            if isinstance(acc, BiRatFunc) or isinstance(rhs, BiRatFunc):  # else within bound
                (a, b), (c, d) = _degrees(acc), _degrees(rhs)
                self._bound(max(a + d, c + b, b + d), op)
            acc = _lower(acc + rhs if op.text == "+" else acc - rhs)
        return acc

    def parse_term(self) -> BiPoly | BiRatFunc:
        acc = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            rhs = self.parse_factor()
            # the bound of a product or quotient is the sum of the operand degrees
            self._bound(acc.degree + rhs.degree, op)
            value, other = acc.expand(), rhs.expand()
            if op.text == "*":
                value = value * other
            elif other.is_zero:
                raise ParseError("division by zero", self.peek().pos)
            elif isinstance(other, BiPoly) and other.is_constant:
                value = value * (1 / other.constant_value())
            else:
                value = _as_ratfunc(value) / other
            acc = _Factor(_lower(value))
        return acc.expand()

    def parse_factor(self) -> "_Factor":
        negate = False
        while self.peek().kind == "op" and self.peek().text in "+-":
            negate ^= self.next().text == "-"
        inner = self.parse_power()
        return replace(inner, negate=True) if negate else inner

    def parse_power(self) -> "_Factor":
        base, exponent = self.parse_atom(), 1
        while self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            tok = self.peek()
            if tok.kind != "num":
                raise ParseError("exponent must be a nonnegative integer", tok.pos)
            self.next()
            if exponent != 1:
                base = _lower(base ** exponent)
            digits = tok.text.lstrip("0") or "0"
            # lengths first: int() refuses a string of more than 4300 digits
            exponent = int(digits) if len(digits) <= len(str(MAX_DEGREE)) else MAX_DEGREE + 1
            self._bound(max(_degree(base), 1) * exponent, tok)
        return _Factor(base, exponent)

    def _bound(self, degree: int, tok: _Token) -> None:
        """Refuse at tok when the degree bound of its result exceeds MAX_DEGREE."""
        if degree > MAX_DEGREE:
            what = _RESULT_NAMES.get(tok.text, "power")
            raise ParseError(f"{what} exceeds the degree bound {MAX_DEGREE}", tok.pos)

    def parse_atom(self) -> BiPoly | BiRatFunc:
        tok = self.peek()
        if tok.kind == "num":
            if len(tok.text) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", tok.pos)
            self.next()
            return BiPoly.constant(Fraction(int(tok.text)))
        if tok.kind == "name":
            if tok.text == "x":
                self.next()
                return BiPoly.x()
            if tok.text == "y":
                self.next()
                return BiPoly.y()
            raise ParseError(f"unknown symbol {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            self.next()
            self.depth += 1
            inner = self.parse_expr()
            self.expect("op", ")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}", tok.pos)


def _lower(value: BiPoly | BiRatFunc) -> BiPoly | BiRatFunc:
    """value as a BiPoly when its reduced denominator, which is monic, is 1."""
    if isinstance(value, BiRatFunc) and value.den.is_constant:
        return value.num
    return value


def _degrees(value: BiPoly | BiRatFunc) -> tuple[int, int]:
    """Total degrees of the reduced numerator and denominator."""
    if isinstance(value, BiPoly):
        return value.total_degree(), 0
    return value.num.total_degree(), value.den.total_degree()


def _degree(value: BiPoly | BiRatFunc) -> int:
    return max(_degrees(value))


def _as_ratfunc(value: BiPoly | BiRatFunc) -> BiRatFunc:
    return value if isinstance(value, BiRatFunc) else BiRatFunc.from_poly(value)


@dataclass(frozen=True)
class _Factor:
    """A parsed factor, negated or not, base**exponent, which is expanded
    only after the operation it enters has been checked against MAX_DEGREE."""

    base: BiPoly | BiRatFunc
    exponent: int = 1
    negate: bool = False

    @property
    def degree(self) -> int:
        return _degree(self.base) * self.exponent

    def expand(self) -> BiPoly | BiRatFunc:
        value = _lower(self.base ** self.exponent) if self.exponent != 1 else self.base
        return -value if self.negate else value


def parse_expression(text: str) -> BiRatFunc:
    """Parse a bare expression over x and y."""
    parser = _Parser(text)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return _as_ratfunc(value)


def parse_univariate(text: str) -> RatFunc:
    """Parse a bare expression required to be univariate in x."""
    value = parse_expression(text)
    return _to_univariate(value, text)


def _to_univariate(value: BiRatFunc, text: str) -> RatFunc:
    f = _y_free(value.num, value.den)
    if f is None:
        raise ShapeError(f"expression is not univariate in x: {text!r}")
    return f


def _y_free(num: BiPoly, den: BiPoly) -> Optional[RatFunc]:
    """num/den as a rational function of x, or None if it involves y."""
    if num.is_y_free() and den.is_y_free():
        return RatFunc(num.subst_y(0), den.subst_y(0))
    return None


# -- systems -----------------------------------------------------------------


def parse_system(text: str) -> Union[UnivariateFamily, PlanarVectorField]:
    """Parse "x' = ...; y' = ..." and classify its shape."""
    parser = _Parser(text)
    slots: dict[str, BiRatFunc] = {}
    while True:
        while parser.peek().kind == "sep":
            parser.next()
        if parser.peek().kind == "end":
            break
        name_tok = parser.expect("name")
        if name_tok.text not in ("x", "y"):
            raise ParseError(f"statements must assign x' or y', found {name_tok.text!r}", name_tok.pos)
        parser.expect("prime")
        parser.expect("eq")
        value = parser.parse_expr()
        if name_tok.text in slots:
            raise ParseError(f"duplicate statement for {name_tok.text}'", name_tok.pos)
        slots[name_tok.text] = _as_ratfunc(value)
        tok = parser.peek()
        if tok.kind == "sep":
            parser.next()
        elif tok.kind != "end":
            raise ParseError(f"expected ';' or end of input, found {tok.text!r}", tok.pos)
    if "x" not in slots or "y" not in slots:
        missing = "x'" if "x" not in slots else "y'"
        raise ParseError(f"missing statement for {missing}", len(text))
    return _classify_shape(slots["x"], slots["y"])


def _classify_shape(fx: BiRatFunc, fy: BiRatFunc) -> Union[UnivariateFamily, PlanarVectorField]:
    f = _y_free(fx.num, fx.den)
    if f is not None:
        # fy is reduced, so fy/y is y-free exactly when y divides every term
        # of fy.num once and fy.den is y-free
        if not fy.is_zero and all(j == 1 for _, j in fy.num.prim):
            g = _y_free(fy.num.div_exact_y(), fy.den)
            if g is not None:
                return UnivariateFamily(f, g, KIND_LOG)
        g = _y_free(fy.num, fy.den)
        if g is not None:
            return UnivariateFamily(f, g, KIND_DERIVATIVE)
    if fx.is_polynomial and fy.is_polynomial:
        return PlanarVectorField(fx.num * (1 / fx.den.constant_value()),
                                 fy.num * (1 / fy.den.constant_value()))
    raise ShapeError(
        "unsupported system shape: components must be y' = y*g(x), y' = g(x), "
        "or polynomial in x and y (a denominator containing y is not allowed "
        "in a univariate-family slot)"
    )
