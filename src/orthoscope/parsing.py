"""Input grammar for systems and bare expressions.

Statements "x' = <expr>" and "y' = <expr>" separated by ";" or newlines;
expressions over x, y with integer literals, + - * / ^ and parentheses
(caret takes a nonnegative integer exponent; ratio literals such as 1/2
fall out of division). The text is tokenized in one pass and evaluated as
it is read. A value is a Fraction while it is constant, a UniPoly or
RatFunc while it is y-free, and a BiPoly or BiRatFunc from the first
operation that meets y, which promotes its y-free operand. A fraction is
held only while its reduced denominator is nonconstant; a y-free
quotient, or product with a denominator, is reduced over the bases of
its operands (see _Parser), and any other by Henrici's rules in its
ring. A power, product, quotient, sum or difference whose degree bound,
read from the reduced operands, would exceed MAX_DEGREE is refused
before it is expanded, and so is an integer literal of more than
MAX_LITERAL_DIGITS digits and a parenthesis nested more than MAX_NESTING
deep. Leading signs are read in a loop, so a run of any length parses.
str of a parsed value is text that parses back to it.
Parsed systems are shape-classified from the reduced value of each
statement, so a family's f and g take no second gcd:

  y' = y*g(x)  with y-free f, g  ->  log family
  y' = g(x)    with y-free f, g  ->  derivative family
  polynomial components          ->  planar vector field

Every statement and bare expression also records the bases it multiplied
(see _Parser), so that f.num and r.den are factored one distinct base at
a time (factor_bases) instead of from their expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebra.bipoly import BiPoly
from .algebra.unipoly import UniPoly, poly_gcd
from .errors import ParseError, ShapeError
from .planar import BiRatFunc, PlanarVectorField
from .ratfunc import FractionField, RatFunc

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

_X, _Y, _ONE = UniPoly.variable(), BiPoly.y(), BiPoly.one()

# not typing.Union, whose cache would keep these classes alive across reloads
Value = Fraction | UniPoly | RatFunc | BiPoly | BiRatFunc
# (polynomial, signed exponent) pairs of a y-free value: the positive ones
# multiply to its reduced numerator and the negative ones to its reduced
# denominator, up to nonzero constants; None once the value has met y
Bases = tuple[tuple[UniPoly, int], ...]


@dataclass(frozen=True)
class UnivariateFamily:
    """x' = f, y' = y*g (log) or y' = g (derivative); bases are f's, as
    the parser multiplied them, for factor_bases: the positive ones
    multiply to f.num and the negative ones to f.den, up to constants."""
    f: RatFunc
    g: RatFunc
    kind: str  # log | derivative
    bases: Bases


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Kinds, texts and offsets of the tokens, as parallel lists that end
    with an "end" token at len(text). The kind of a number is "num", of a
    name "name", of ";" or a newline "sep"; any other token is one
    character, which is its own kind. No kind is empty."""
    kinds, texts, offsets = [], [], []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in "+-*/^()'=":
            kind = ch
        elif ch in " \t\r":
            i = j
            continue
        elif ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            kind = "num"
        elif ch.isalpha():
            while j < n and text[j].isalnum():
                j += 1
            kind = "name"
        elif ch in ";\n":
            kind = "sep"
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        kinds.append(kind)
        texts.append(text[i:j])
        offsets.append(i)
        i = j
    return kinds + ["end"], texts + [""], offsets + [n]


class _Parser:
    """Recursive descent over the token lists: a sum of products of signed
    powers. A signed power is carried as (base, exponent, negate) and
    expanded only after the operation it enters is checked against MAX_DEGREE.

    Each value comes with its bases: x is its own base and a literal has
    none, a power multiplies the exponents, a product joins the lists and
    a quotient negates the divisor's exponents. A sum or difference is its
    own single base (_own), a constant value has none, and a value that
    met y has None. Each value owns its list, which a product extends in
    place, so a term's bases cost linear time.

    A y-free quotient, or product with a denominator, tests each base p of
    its right operand against the side of the left value a/b it lands
    opposite: gcd(p, b) when p joins the numerator, gcd(p, a) when it joins
    the denominator. gcd(A, prod p**e) = 1 exactly when each gcd(A, p) = 1,
    so if all are constant the cross products are in lowest terms and the
    lists join; otherwise the value takes one gcd of its sides and is its
    own single base. So bases never cancel across sides."""

    def __init__(self, text: str):
        self.kinds, self.texts, self.offsets = _tokenize(text)
        self.i = 0
        self.depth = 0      # open parentheses around the current token

    def expect(self, kind: str, want: str) -> int:
        """Step over a token of this kind, named want in the error; its index."""
        i = self.i
        if self.kinds[i] != kind:
            raise ParseError(f"expected {want!r}, found {self.texts[i]!r}", self.offsets[i])
        self.i = i + 1
        return i

    def _bound(self, degree: int, i: int) -> None:
        """Refuse at token i when the degree bound of its result exceeds MAX_DEGREE."""
        if degree > MAX_DEGREE:
            what = _RESULT_NAMES.get(self.texts[i], "power")
            raise ParseError(f"{what} exceeds the degree bound {MAX_DEGREE}", self.offsets[i])

    def parse_expr(self) -> tuple[Value, Optional[list]]:
        kinds = self.kinds
        acc, bases = self.parse_term()
        if kinds[self.i] not in "+-":
            return acc, bases
        while kinds[self.i] in "+-":
            op = self.i
            self.i += 1
            acc, rhs = _common(acc, self.parse_term()[0])
            if isinstance(acc, FractionField) or isinstance(rhs, FractionField):  # else in bound
                (a, b), (c, d) = _degrees(acc), _degrees(rhs)
                self._bound(max(a + d, c + b, b + d), op)
            acc = _lower(acc + rhs if kinds[op] == "+" else acc - rhs)
        return acc, _own(acc)

    def parse_term(self) -> tuple[Value, Optional[list]]:
        kinds = self.kinds
        base, exponent, negate, bases = self.parse_factor()
        while kinds[self.i] in "*/":
            op = self.i
            self.i += 1
            rbase, rexponent, rnegate, rbases = self.parse_factor()
            # the bound of a product or quotient is the sum of the operand degrees
            self._bound(max(_degrees(base)) * exponent + max(_degrees(rbase)) * rexponent, op)
            value, other = _common(_expand(base, exponent, negate),
                                   _expand(rbase, rexponent, rnegate))
            divide, coprime = kinds[op] == "/", True
            if divide and rbases is not None:
                rbases = [(p, -e) for p, e in rbases]
            if not divide and not (isinstance(value, RatFunc) or isinstance(other, RatFunc)):
                value = value * other
            elif divide and isinstance(other, Fraction):
                if not other:
                    raise ParseError("division by zero", self.offsets[self.i])
                value = value / other if isinstance(value, Fraction) else value * (1 / other)
            elif bases is not None and rbases is not None:  # y-free, meets a denominator
                u, v = _univariate(value), _univariate(other)
                (a, b), (c, d) = (u.num, u.den), (v.den, v.num) if divide else (v.num, v.den)
                # each base of other against the side of value it lands
                # opposite; coprime to all, the cross products are reduced
                coprime = all(poly_gcd(p, b if e > 0 else a).is_constant for p, e in rbases if e)
                value = RatFunc._coprime(a * c, b * d) if coprime else RatFunc(a * c, b * d)
            elif isinstance(value, BiRatFunc) or isinstance(other, BiRatFunc):
                value = value / other
            else:   # met y, by a polynomial: one gcd, in Q[x, y]
                value = BiRatFunc(other._coerce(value), other)
            base, exponent, negate = _lower(value), 1, False
            if isinstance(base, Fraction):
                bases = []
            elif bases is None or rbases is None:
                bases = None
            elif coprime:
                bases.extend(rbases)
            else:
                bases = _own(base)
        return _expand(base, exponent, negate), bases

    def parse_factor(self) -> tuple[Value, int, bool, Optional[list]]:
        """A signed power as (base, exponent, negate), not yet expanded, and
        the bases of its expansion."""
        kinds = self.kinds
        negate = False
        while kinds[self.i] in "+-":
            negate ^= kinds[self.i] == "-"
            self.i += 1
        base, bases = self.parse_atom()
        exponent = scale = 1
        while kinds[self.i] == "^":
            i = self.i + 1
            if kinds[i] != "num":
                raise ParseError("exponent must be a nonnegative integer", self.offsets[i])
            self.i = i + 1
            if exponent != 1:
                base = _lower(base ** exponent)
            digits = self.texts[i].lstrip("0") or "0"
            # lengths first: int() refuses a string of more than 4300 digits
            exponent = int(digits) if len(digits) <= len(str(MAX_DEGREE)) else MAX_DEGREE + 1
            self._bound(max(*_degrees(base), 1) * exponent, i)
            scale *= exponent
        if scale != 1 and (bases or not scale):     # y^0 = 1 has bases too
            bases = [(p, e * scale) for p, e in bases or ()]
        return base, exponent, negate, bases

    def parse_atom(self) -> tuple[Value, Optional[list]]:
        i = self.i
        kind, text = self.kinds[i], self.texts[i]
        if kind == "num":
            if len(text) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", self.offsets[i])
            self.i = i + 1
            return Fraction(int(text)), []
        if kind == "name":
            if text not in ("x", "y"):
                raise ParseError(f"unknown symbol {text!r}", self.offsets[i])
            self.i = i + 1
            if text == "y":
                return _Y, None
            return _X, [(_X, 1)]
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.offsets[i])
            self.i = i + 1
            self.depth += 1
            inner = self.parse_expr()
            self.expect(")", ")")
            self.depth -= 1
            return inner
        raise ParseError(f"expected an expression, found {text or 'end of input'!r}",
                         self.offsets[i])


def _lower(value: Value) -> Value:
    """value as a polynomial when its reduced denominator, which is monic,
    is 1, and as a Fraction when it is constant."""
    if isinstance(value, FractionField) and value.den.is_constant:
        value = value.num
    if isinstance(value, (UniPoly, BiPoly)) and value.is_constant:
        return value.constant_value()
    return value


def _own(value: Value) -> Optional[list]:
    """A y-free value as its own single base: its numerator with +1 and
    its denominator with -1; None for a value that met y."""
    if isinstance(value, UniPoly):
        return [(value, 1)]
    if isinstance(value, RatFunc):
        return [(value.num, 1), (value.den, -1)]
    return [] if isinstance(value, Fraction) else None


def _expand(base: Value, exponent: int, negate: bool) -> Value:
    value = _lower(base ** exponent) if exponent != 1 else base
    return -value if negate else value


def _common(a: Value, b: Value) -> tuple[Value, Value]:
    """a and b in one ring: a y-free operand of an operation that meets y
    is promoted to Q(x, y); a constant enters either ring as it is."""
    if isinstance(a, (BiPoly, BiRatFunc)):
        return a, _promote(b)
    if isinstance(b, (BiPoly, BiRatFunc)):
        return _promote(a), b
    return a, b


def _promote(value: Value) -> Value:
    """A y-free value in Q(x, y); a constant or bivariate value as it is.
    Coprime in Q[x], a pair is coprime in Q[x, y], and both normal forms
    scale the denominator to a leading coefficient of 1 in x."""
    if isinstance(value, UniPoly):
        return BiPoly.from_unipoly_x(value)
    if isinstance(value, RatFunc):
        return BiRatFunc._coprime(BiPoly.from_unipoly_x(value.num),
                                  BiPoly.from_unipoly_x(value.den))
    return value


def _degrees(value: Value) -> tuple[int, int]:
    """Total degrees of the reduced numerator and denominator."""
    if isinstance(value, FractionField):
        return value.num.total_degree(), value.den.total_degree()
    if isinstance(value, (UniPoly, BiPoly)):
        return value.total_degree(), 0
    return 0, 0


def _parts(value: Value) -> tuple[BiPoly, BiPoly]:
    """The reduced numerator and denominator of a parsed value, in Q[x, y]."""
    value = _promote(value)
    if isinstance(value, BiRatFunc):
        return value.num, value.den
    return (value if isinstance(value, BiPoly) else BiPoly.constant(value)), _ONE


def _parse(text: str) -> Value:
    return _read(_Parser(text))[0]


def _read(parser: _Parser) -> tuple[Value, Optional[list]]:
    """The whole text as one expression, and its bases."""
    parsed = parser.parse_expr()
    i = parser.i
    if parser.kinds[i] != "end":
        raise ParseError(f"trailing input {parser.texts[i]!r}", parser.offsets[i])
    return parsed


def parse_expression(text: str) -> BiRatFunc:
    """Parse a bare expression over x and y."""
    value = _parse(text)
    return value if isinstance(value, BiRatFunc) else BiRatFunc._coprime(*_parts(value))


def parse_univariate(text: str) -> RatFunc:
    """Parse a bare expression required to be univariate in x."""
    return parse_univariate_bases(text)[0]


def parse_univariate_bases(text: str) -> tuple[RatFunc, Bases]:
    """parse_univariate's function and the bases the parser multiplied,
    whose product is the function up to a nonzero constant (factor_bases)."""
    value, bases = _read(_Parser(text))
    f = _univariate(value)
    if f is None:
        raise ShapeError(f"expression is not univariate in x: {text!r}")
    return f, _univariate_bases(f, bases)


def _univariate(value: Value) -> Optional[RatFunc]:
    """A parsed value as a rational function of x, or None if it involves y."""
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, Fraction):
        value = UniPoly.constant(value)
    if isinstance(value, UniPoly):
        return RatFunc._coprime(value, UniPoly.one())
    return _univariate_pair(*_parts(value))


def _univariate_bases(f: RatFunc, bases: Optional[list]) -> Bases:
    """The bases of the univariate value f: as parsed, or f as its own
    single base when the value met y; none when f is zero, whose constant
    is zero."""
    if f.is_zero:
        return ()
    return tuple(_own(f) if bases is None else bases)


def _univariate_pair(num: BiPoly, den: BiPoly) -> Optional[RatFunc]:
    """num/den, a coprime pair, as a rational function of x, or None if it
    involves y; coprime in Q[x, y] and y-free, they are coprime in Q[x]."""
    if num.is_y_free() and den.is_y_free():
        return RatFunc._coprime(num.subst_y(0), den.subst_y(0))
    return None


# -- systems -----------------------------------------------------------------


def parse_system(text: str) -> Union[UnivariateFamily, PlanarVectorField]:
    """Parse "x' = ...; y' = ..." and classify its shape."""
    parser = _Parser(text)
    kinds, texts, offsets = parser.kinds, parser.texts, parser.offsets
    slots: dict[str, tuple[Value, Optional[list]]] = {}
    while True:
        while kinds[parser.i] == "sep":
            parser.i += 1
        if kinds[parser.i] == "end":
            break
        at = parser.expect("name", "name")
        name = texts[at]
        if name not in ("x", "y"):
            raise ParseError(f"statements must assign x' or y', found {name!r}", offsets[at])
        parser.expect("'", "prime")
        parser.expect("=", "eq")
        parsed = parser.parse_expr()
        if name in slots:
            raise ParseError(f"duplicate statement for {name}'", offsets[at])
        slots[name] = parsed
        i = parser.i
        if kinds[i] == "sep":
            parser.i += 1
        elif kinds[i] != "end":
            raise ParseError(f"expected ';' or end of input, found {texts[i]!r}", offsets[i])
    if "x" not in slots or "y" not in slots:
        missing = "x'" if "x" not in slots else "y'"
        raise ParseError(f"missing statement for {missing}", len(text))
    return _classify_shape(*slots["x"], slots["y"][0])


def _classify_shape(fx: Value, x_bases: Optional[list],
                    fy: Value) -> Union[UnivariateFamily, PlanarVectorField]:
    f = _univariate(fx)
    if f is not None:
        x_bases = _univariate_bases(f, x_bases)
        # fy is reduced, so fy/y is y-free exactly when y divides every term
        # of its numerator once and its denominator is y-free
        if isinstance(fy, (BiPoly, BiRatFunc)):   # else y-free, and no log family
            ynum, yden = _parts(fy)
            if all(j == 1 for _, j in ynum.prim):
                g = _univariate_pair(ynum.div_exact_y(), yden)
                if g is not None:
                    return UnivariateFamily(f, g, KIND_LOG, x_bases)
        g = _univariate(fy)
        if g is not None:
            return UnivariateFamily(f, g, KIND_DERIVATIVE, x_bases)
    (xnum, xden), (ynum, yden) = _parts(fx), _parts(fy)
    if xden.is_constant and yden.is_constant:   # 1 in normal form
        return PlanarVectorField(xnum, ynum)
    raise ShapeError(
        "unsupported system shape: components must be y' = y*g(x), y' = g(x), "
        "or polynomial in x and y (a denominator containing y is not allowed "
        "in a univariate-family slot)"
    )
