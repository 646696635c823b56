"""Polynomial expression parsing and deterministic printing.

Grammar (whitespace insensitive, no implicit multiplication):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | 'i' | varname | '(' expr ')'
    rational := int ('/' uint)?

Parentheses nest at most MAX_NESTING deep, and no product or power may give
a coefficient of over MAX_POWER_BITS bits, as bounded by the sizes of its
factors' coefficients; other input is a ParseError.
A power or product of sums is expanded only when a polynomial of its degree
D would pass the slice bound at degree D - 2 (see _check_expansion); a
larger one is a SliceTooLargeError before any expansion.  'i' is only
available over field Qi.  The printer emits terms in degree-descending
graded lex order and round-trips: parse(format(p)) == p exactly.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SliceTooLargeError, UnknownVariableError
from .polyring import Poly, check_slice_dimension
from .scalars import (
    FIELD_Q,
    FIELD_QI,
    GAUSSIAN_I,
    GaussianRational,
    as_scalar,
    format_fraction,
    validate_field,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# deepest parenthesis nesting the parser accepts; each level costs a few
# stack frames, so deeper input is refused instead of exhausting the stack
MAX_NESTING = 100

# (2*x*y)^9999 has a 9999-bit coefficient; 3^40000000, or a product of a
# hundred factors 3^41000, would take seconds
MAX_POWER_BITS = 65536


def validate_var_names(names):
    names = tuple(names)
    if not names:
        raise ValueError("at least one variable name is required")
    if len(set(names)) != len(names):
        raise ValueError(f"variable names must be unique: {names}")
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name == "i":
            raise ValueError("'i' is reserved for the imaginary unit")
    return names


@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


_TOKEN_SYMBOLS = "+-*/^()"


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("number", int(text[start:pos]), start))
            continue
        if ch in _TOKEN_SYMBOLS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        match = _NAME_RE.match(text, pos)
        if match:
            tokens.append(("name", match.group(), pos))
            pos = match.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, var_names, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.field = field
        self.vars = {name: i for i, name in enumerate(var_names)}

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self):
        node = self._expr()
        kind, _, position = self._peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", position)
        return node

    def _expr(self):
        kind, _, _ = self._peek()
        negate = False
        if kind in ("+", "-"):
            self._advance()
            negate = kind == "-"
        node = self._term()
        if negate:
            node = Neg(node)
        while True:
            kind, _, _ = self._peek()
            if kind == "+":
                self._advance()
                node = Add(node, self._term())
            elif kind == "-":
                self._advance()
                node = Sub(node, self._term())
            else:
                return node

    def _term(self):
        node = self._factor()
        while self._peek()[0] == "*":
            self._advance()
            node = Mul(node, self._factor())
        return node

    def _factor(self):
        node = self._atom()
        if self._peek()[0] == "^":
            self._advance()
            kind, value, position = self._peek()
            if kind != "number":
                raise ParseError("exponent must be a non-negative integer", position)
            self._advance()
            node = Pow(node, value)
        return node

    def _atom(self):
        kind, value, position = self._advance()
        if kind == "number":
            if self._peek()[0] == "/":
                self._advance()
                dkind, dvalue, dposition = self._advance()
                if dkind != "number":
                    raise ParseError("denominator must be an integer", dposition)
                if dvalue == 0:
                    raise ParseError("zero denominator", dposition)
                return Const(Fraction(value, dvalue))
            return Const(Fraction(value))
        if kind == "name":
            if value == "i":
                if self.field != FIELD_QI:
                    raise ParseError("'i' is only available over field Qi", position)
                return Const(GAUSSIAN_I)
            if value in self.vars:
                return Var(self.vars[value])
            raise UnknownVariableError(value, position)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", position)
            node = self._expr()
            kind, _, position = self._advance()
            if kind != ")":
                raise ParseError("expected ')'", position)
            self.depth -= 1
            return node
        raise ParseError("expected a number, variable, or '('", position)


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _check_expansion(arity, degree):
    # the smallest slice any command builds for a polynomial of degree D is
    # filtered(D - 2) (dirichlet's q), so an expansion past that bound is
    # refused before it runs: (x+y)^2000 would take minutes to expand
    try:
        check_slice_dimension(arity, degree - 2)
    except SliceTooLargeError as exc:
        raise SliceTooLargeError(f"a product of sums expands to degree {degree}: {exc}") from None


def _check_bits(what, factors, exponent=1):
    # log2 of a coefficient's height bounds its bits: a product's (or power's)
    # have about the sum over the factors' largest, plus log2 of the terms summed
    bits = 0.0
    for poly in factors:
        heights = [1]
        for c in poly.terms.values():
            parts = (c.re, c.im) if isinstance(c, GaussianRational) else (c,)
            heights.append(sum(abs(p.numerator) for p in parts)
                           * math.prod(p.denominator for p in parts))
        bits += exponent * math.log2(max(heights))
    if bits > MAX_POWER_BITS:
        raise ParseError(f"{what} could give a coefficient of over {MAX_POWER_BITS} bits")


def _lower(root, arity, field):
    # post-order walk on an explicit stack: a sum or product of k terms
    # nests k deep, more than recursion allows for long inputs
    values = []
    stack = [(root, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Const):
            values.append(Poly.constant(arity, as_scalar(node.value, field), field))
        elif isinstance(node, Var):
            values.append(Poly.variable(arity, node.index, field))
        elif not children_done:
            stack.append((node, True))
            if isinstance(node, (Add, Sub, Mul)):
                stack.append((node.right, False))
                stack.append((node.left, False))
            elif isinstance(node, Neg):
                stack.append((node.operand, False))
            elif isinstance(node, Pow):
                stack.append((node.base, False))
            else:
                raise TypeError(f"not an expression node: {node!r}")
        elif isinstance(node, Neg):
            values.append(-values.pop())
        elif isinstance(node, Pow):
            base = values.pop()
            what = "a power of one term"
            if len(base.terms) > 1:
                _check_expansion(arity, base.degree * node.exponent)
                what = "a power of a sum"
            _check_bits(what, [base], node.exponent)
            values.append(base ** node.exponent)
        else:
            right = values.pop()
            left = values.pop()
            if isinstance(node, Mul):
                if len(left.terms) > 1 and len(right.terms) > 1:
                    _check_expansion(arity, left.degree + right.degree)
                _check_bits("a product", [left, right])
            values.append(_BINARY[type(node)](left, right))
    return values.pop()


def parse_expression(text, var_names, field=FIELD_Q):
    """Parse to the raw AST without lowering."""
    validate_field(field)
    if not text or not text.strip():
        raise ParseError("empty expression")
    return _Parser(text, validate_var_names(var_names), field).parse()


def parse_polynomial(text, var_names, field=FIELD_Q):
    """Parse an expression into a canonical polynomial."""
    names = validate_var_names(var_names)
    node = parse_expression(text, names, field)
    return _lower(node, len(names), field)


def parse_scalar(text, field=FIELD_Q):
    """Parse a constant expression (no variables) into a field scalar."""
    validate_field(field)
    if not text or not text.strip():
        raise ParseError("empty expression")
    node = _Parser(text, (), field).parse()
    poly = _lower(node, 1, field)
    if poly.degree > 0:
        raise ParseError("expected a constant expression")
    return poly.coefficient((0,))


def default_var_names(arity):
    return tuple(f"x{i + 1}" for i in range(arity))


def _coeff_pieces(coeff):
    # -> (negative, factor strings, standalone constant string or None)
    if isinstance(coeff, GaussianRational):
        if coeff.im == 0:
            coeff = coeff.re
        elif coeff.re == 0:
            negative = coeff.im < 0
            magnitude = abs(coeff.im)
            factors = ["i"] if magnitude == 1 else [format_fraction(magnitude), "i"]
            return negative, factors, "*".join(factors)
        else:
            negative = coeff.re < 0
            inner = -coeff if negative else coeff
            imag = "i" if abs(inner.im) == 1 else f"{format_fraction(abs(inner.im))}*i"
            sign = "+" if inner.im > 0 else "-"
            text = f"({format_fraction(inner.re)} {sign} {imag})"
            return negative, [text], text
    negative = coeff < 0
    magnitude = abs(coeff)
    factors = [] if magnitude == 1 else [format_fraction(magnitude)]
    return negative, factors, format_fraction(magnitude)


def format_polynomial(p, var_names=None):
    """Deterministic textual form, highest degree first; reparses exactly."""
    names = validate_var_names(var_names) if var_names else default_var_names(p.arity)
    if len(names) != p.arity:
        raise ValueError(f"expected {p.arity} variable names, got {len(names)}")
    if not p:
        return "0"
    ordered = sorted(
        p.terms.items(), key=lambda item: (-sum(item[0]), tuple(-e for e in item[0]))
    )
    pieces = []
    for exponents, coeff in ordered:
        negative, factors, constant = _coeff_pieces(coeff)
        variables = []
        for name, e in zip(names, exponents):
            if e == 1:
                variables.append(name)
            elif e > 1:
                variables.append(f"{name}^{e}")
        body = "*".join(factors + variables) if variables else constant
        pieces.append((negative, body))
    negative, body = pieces[0]
    out = [f"-{body}" if negative else body]
    for negative, body in pieces[1:]:
        out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)
