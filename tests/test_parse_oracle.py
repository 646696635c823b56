"""The postfix parser against the parser it replaced.

exprs once built a syntax tree of frozen dataclasses and lowered it with a
post-order walk on an explicit stack.  That parser stays here as an oracle:
on seeded valid and malformed ASCII inputs over Q and Qi, parse_polynomial
and parse_scalar must give the same ints in the same term order and the
same denominator, or the same exception type, message and position.
"""

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from fischerlab import (
    FIELD_Q,
    FIELD_QI,
    GAUSSIAN_I,
    ParseError,
    Poly,
    UnknownVariableError,
    as_scalar,
    parse_polynomial,
    parse_scalar,
    validate_var_names,
)
from fischerlab.exprs import MAX_NESTING, _NAME_RE, _check_bits, _check_expansion
from fischerlab.scalars import validate_field


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
        if ch in "+-*/^()":
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


class _TreeParser:
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


def _lower_tree(root, arity, field):
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
        elif isinstance(node, Neg):
            values.append(-values.pop())
        elif isinstance(node, Pow):
            base = values.pop()
            what = "a power of one term"
            if len(base.integer_form[0]) > 1:
                _check_expansion(arity, base.degree * node.exponent)
                what = "a power of a sum"
            _check_bits(what, [base], node.exponent)
            values.append(base ** node.exponent)
        else:
            right = values.pop()
            left = values.pop()
            if isinstance(node, Mul):
                if len(left.integer_form[0]) > 1 and len(right.integer_form[0]) > 1:
                    _check_expansion(arity, left.degree + right.degree)
                _check_bits("a product", [left, right])
            values.append(_BINARY[type(node)](left, right))
    return values.pop()


def tree_parse_polynomial(text, var_names, field=FIELD_Q):
    names = validate_var_names(var_names)
    validate_field(field)
    if not text or not text.strip():
        raise ParseError("empty expression")
    return _lower_tree(_TreeParser(text, names, field).parse(), len(names), field)


def tree_parse_scalar(text, field=FIELD_Q):
    validate_field(field)
    if not text or not text.strip():
        raise ParseError("empty expression")
    poly = _lower_tree(_TreeParser(text, (), field).parse(), 1, field)
    if poly.degree > 0:
        raise ParseError("expected a constant expression")
    return poly.coefficient((0,))


def _outcome(parse, *args):
    try:
        value = parse(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc), getattr(exc, "position", None))
    if isinstance(value, Poly):
        ints, den = value.integer_form
        return ("poly", list(ints.items()), den)
    return ("scalar", type(value), value)


# z is unknown in two variables, w always, and i only over Q
_VARIABLES = ("x",) * 8 + ("y",) * 8 + ("z",) * 3 + ("i",) * 3 + ("w",)


def _valid_text(rng, depth=0):
    # a random expression of the grammar, with some spacing and big powers
    roll = rng.random()
    if depth > 3 or roll < 0.35:
        kind = rng.randrange(5)
        if kind == 0:
            return str(rng.randrange(0, 12))
        if kind == 1:
            return f"{rng.randrange(0, 30)}/{rng.randrange(1, 9)}"
        if kind == 2 and rng.random() < 0.1:
            return rng.choice(("3^41000", "2^65536", "(2*x)^40000", "(1+i)^3"))
        return rng.choice(_VARIABLES)
    if roll < 0.5:
        base = _valid_text(rng, depth + 1)
        exponent = rng.choice((0, 1, 2, 3, 5, rng.choice((100, 70000, 3000000))))
        return f"({base})^{exponent}"
    if roll < 0.6:
        return rng.choice(("-", "+", "- ")) + f"({_valid_text(rng, depth + 1)})"
    ops = rng.choices(("+", "-", "*", " * ", " - "), k=rng.randint(1, 3))
    parts = [_valid_text(rng, depth + 1) for _ in range(len(ops) + 1)]
    text = parts[0]
    for op, part in zip(ops, parts[1:]):
        text += op + part
    return f"({text})" if rng.random() < 0.3 else text


_SOUP = ("x", "y", "z", "w", "i", "xy", "0", "1", "2", "17", "3/2", "1/0", "/", "+", "-",
         "*", "^", "^2", "^3", "(", ")", " ", "$", "2x", "_a", "^99999999", "3^70000")


def _malformed_text(rng):
    if rng.random() < 0.05:
        depth = MAX_NESTING + rng.randint(-2, 2)
        return "(" * depth + _valid_text(rng) + ")" * rng.randint(depth - 1, depth)
    if rng.random() < 0.5:
        return "".join(rng.choices(_SOUP, k=rng.randint(0, 9)))
    # a valid text with one character deleted, replaced or inserted
    text = _valid_text(rng)
    at = rng.randrange(len(text) + 1)
    edit = rng.randrange(3)
    if edit == 0 and at < len(text):
        return text[:at] + text[at + 1:]
    char = rng.choice("+-*/^() xyi0123456789$")
    return text[:at] + char + text[at + (edit == 1):]


_MESSAGES = (
    "expected a number, variable, or '('", "'i' is only available over field Qi",
    "unexpected trailing input", "unexpected character", "empty expression",
    "expected ')'", "parentheses nest deeper than", "zero denominator",
    "exponent must be a non-negative integer", "denominator must be an integer",
    "unknown variable", "a product of sums expands to degree",
    "a power of one term could give", "a power of a sum could give", "a product could give",
)


def test_postfix_parser_matches_the_tree_parser():
    rng = random.Random(5)
    kinds, messages = set(), set()
    for case in range(20000):
        text = _valid_text(rng) if case % 2 else _malformed_text(rng)
        field = FIELD_QI if rng.random() < 0.5 else FIELD_Q
        if case % 5 == 0:
            expected = _outcome(tree_parse_scalar, text, field)
            got = _outcome(parse_scalar, text, field)
        else:
            names = ("x", "y", "z")[: rng.choice((2, 3))]
            expected = _outcome(tree_parse_polynomial, text, names, field)
            got = _outcome(parse_polynomial, text, names, field)
        assert got == expected, (text, field)
        kinds.add(expected[0])
        if expected[0] == "raised":
            messages.add(expected[2])
    # both kinds of result and every error message were reached
    assert kinds == {"poly", "scalar", "raised"}
    for fragment in _MESSAGES:
        assert any(fragment in message for message in messages), fragment
