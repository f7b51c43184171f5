"""Input grammar for systems and bare expressions.

Statements "x' = <expr>" and "y' = <expr>" separated by ";" or newlines;
expressions over x, y with integer literals, + - * / ^ and parentheses
(caret takes a nonnegative integer exponent; ratio literals such as 1/2
fall out of division). A power, product, quotient, sum or difference whose
degree bound would exceed MAX_DEGREE is refused before it is expanded, and
so is an integer literal of more than MAX_LITERAL_DIGITS digits. Parsed
systems are shape-classified:

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

_RESULT_NAMES = {"*": "product", "/": "quotient", "+": "sum", "-": "difference"}


@dataclass(frozen=True)
class UnivariateFamily:
    f: RatFunc
    g: RatFunc
    kind: str  # log | derivative


@dataclass(frozen=True)
class Planar:
    v: PlanarVectorField


@dataclass(frozen=True)
class SystemSource:
    raw_text: str
    parsed: Union[UnivariateFamily, Planar]

    def serialize(self) -> str:
        return serialize_system(self.parsed)


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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

    # expression grammar: sum of products of signed powers

    def parse_expr(self) -> BiRatFunc:
        acc = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next()
            rhs = self.parse_term()
            if not (acc.is_polynomial and rhs.is_polynomial):  # else within bound
                a, b = acc.num.total_degree(), acc.den.total_degree()
                c, d = rhs.num.total_degree(), rhs.den.total_degree()
                self._bound(max(a + d, c + b, b + d), op)
            acc = acc + rhs if op.text == "+" else acc - rhs
        return acc

    def parse_term(self) -> BiRatFunc:
        acc = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            rhs = self.parse_factor()
            # the bound of a product or quotient is the sum of the operand degrees
            self._bound(acc.degree + rhs.degree, op)
            value, other = acc.expand(), rhs.expand()
            if op.text == "*":
                value = value * other
            else:
                if other.is_zero:
                    raise ParseError("division by zero", self.peek().pos)
                value = value / other
            acc = _Factor(value)
        return acc.expand()

    def parse_factor(self) -> "_Factor":
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.next()
            inner = self.parse_factor()
            return inner if tok.text == "+" else replace(inner, negate=not inner.negate)
        return self.parse_power()

    def parse_power(self) -> "_Factor":
        base, exponent = self.parse_atom(), 1
        while self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            tok = self.peek()
            if tok.kind != "num":
                raise ParseError("exponent must be a nonnegative integer", tok.pos)
            self.next()
            if exponent != 1:
                base = base ** exponent
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

    def parse_atom(self) -> BiRatFunc:
        tok = self.peek()
        if tok.kind == "num":
            if len(tok.text) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", tok.pos)
            self.next()
            return BiRatFunc.from_poly(BiPoly.constant(Fraction(int(tok.text))))
        if tok.kind == "name":
            if tok.text == "x":
                self.next()
                return BiRatFunc.from_poly(BiPoly.x())
            if tok.text == "y":
                self.next()
                return BiRatFunc.from_poly(BiPoly.y())
            raise ParseError(f"unknown symbol {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}", tok.pos)


def _degree(value: BiRatFunc) -> int:
    return max(value.num.total_degree(), value.den.total_degree())


@dataclass(frozen=True)
class _Factor:
    """A parsed factor, negated or not, base**exponent, which is expanded
    only after the operation it enters has been checked against MAX_DEGREE."""

    base: BiRatFunc
    exponent: int = 1
    negate: bool = False

    @property
    def degree(self) -> int:
        return _degree(self.base) * self.exponent

    def expand(self) -> BiRatFunc:
        value = self.base ** self.exponent if self.exponent != 1 else self.base
        return -value if self.negate else value


def parse_expression(text: str) -> BiRatFunc:
    """Parse a bare expression over x and y."""
    parser = _Parser(text)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return value


def parse_univariate(text: str) -> RatFunc:
    """Parse a bare expression required to be univariate in x."""
    value = parse_expression(text)
    return _to_univariate(value, text)


def _to_univariate(value: BiRatFunc, text: str) -> RatFunc:
    f = _y_free(value)
    if f is None:
        raise ShapeError(f"expression is not univariate in x: {text!r}")
    return f


def _y_free(value: BiRatFunc) -> Optional[RatFunc]:
    """value as a rational function of x, or None if it involves y."""
    if value.num.is_y_free() and value.den.is_y_free():
        return RatFunc(value.num.subst_y(0), value.den.subst_y(0))
    return None


# -- systems -----------------------------------------------------------------


def parse_system(text: str) -> SystemSource:
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
        slots[name_tok.text] = value
        tok = parser.peek()
        if tok.kind == "sep":
            parser.next()
        elif tok.kind != "end":
            raise ParseError(f"expected ';' or end of input, found {tok.text!r}", tok.pos)
    if "x" not in slots or "y" not in slots:
        missing = "x'" if "x" not in slots else "y'"
        raise ParseError(f"missing statement for {missing}", len(text))
    return SystemSource(text, _classify_shape(slots["x"], slots["y"]))


def _classify_shape(fx: BiRatFunc, fy: BiRatFunc) -> Union[UnivariateFamily, Planar]:
    f = _y_free(fx)
    if f is not None:
        g = None if fy.is_zero else _y_free(fy / BiRatFunc.from_poly(BiPoly.y()))
        if g is not None:
            return UnivariateFamily(f, g, KIND_LOG)
        g = _y_free(fy)
        if g is not None:
            return UnivariateFamily(f, g, KIND_DERIVATIVE)
    if fx.is_polynomial and fy.is_polynomial:
        return Planar(PlanarVectorField(fx.num * (1 / fx.den.constant_value()),
                                        fy.num * (1 / fy.den.constant_value())))
    raise ShapeError(
        "unsupported system shape: components must be y' = y*g(x), y' = g(x), "
        "or polynomial in x and y (a denominator containing y is not allowed "
        "in a univariate-family slot)"
    )


def serialize_system(parsed: Union[UnivariateFamily, Planar]) -> str:
    if isinstance(parsed, Planar):
        return f"x' = {parsed.v.fx}; y' = {parsed.v.fy}"
    if parsed.kind == KIND_LOG:
        return f"x' = {parsed.f}; y' = y*({parsed.g})"
    return f"x' = {parsed.f}; y' = {parsed.g}"
