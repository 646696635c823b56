"""Polynomial expression parsing and deterministic printing.

Grammar (whitespace insensitive, no implicit multiplication):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | 'i' | varname | '(' expr ')'
    rational := int ('/' uint)?

Integers are ASCII digits.  The recursive-descent parser reads the whole
text into a postfix program (see _Parser) before any polynomial is
computed, so malformed input is refused without expansion work; _lower
then runs that program on a stack of Poly.

Parentheses nest at most MAX_NESTING deep, a literal has at most the
digits of a MAX_POWER_BITS-bit int, and no product or power may give
stored ints or a common denominator (Poly.integer_form) of over
MAX_POWER_BITS bits, as bounded by each factor's denominator and the sum of
its stored ints; other input is a ParseError.
A power or product of sums is expanded only when a polynomial of its degree
D would pass the slice bound at degree D - 2 (see _check_expansion); a
larger one is a SliceTooLargeError before any expansion.  'i' is only
available over field Qi.  The printer emits terms in degree-descending
graded lex order and round-trips: parse(format(p)) == p exactly when the
integer form of each coefficient alone, its least denominator and its
parts over it, is at most 2**MAX_POWER_BITS, an int over Qi sized
|re| + |im|.
"""

import math
import re
from fractions import Fraction

from .errors import ParseError, SliceTooLargeError, UnknownVariableError
from .polyring import Poly, check_slice_dimension
from .scalars import (
    FIELD_Q,
    FIELD_QI,
    GAUSSIAN_I,
    INTEGERS,
    as_scalar,
    decimal_int,
    validate_field,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# deepest parenthesis nesting the parser accepts; each level costs a few
# stack frames, so deeper input is refused instead of exhausting the stack
MAX_NESTING = 100

# (2*x*y)^9999 has a 9999-bit coefficient; 3^40000000, or a product of a
# hundred factors 3^41000, would take seconds
MAX_POWER_BITS = 65536
# the digits of 2^MAX_POWER_BITS - 1, the largest int of MAX_POWER_BITS bits
_LITERAL_DIGITS = int(MAX_POWER_BITS * math.log10(2)) + 1


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


_TOKEN_SYMBOLS = "+-*/^()"
# ASCII only: str.isdigit also holds for digits such as "²" and "٣"
_DIGITS = "0123456789"


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            if pos - start > _LITERAL_DIGITS:
                raise ParseError(f"integer literal of over {_LITERAL_DIGITS} digits, the most"
                                 f" that a {MAX_POWER_BITS}-bit int has", start)
            tokens.append(("number", decimal_int(text[start:pos]), start))
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
    """Recursive descent that appends the expression to self.program in
    postfix order: operands ("const", scalar) and ("var", index), operators
    "+", "-", "*", "neg" and ("^", exponent)."""

    def __init__(self, text, var_names, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.field = field
        self.vars = {name: i for i, name in enumerate(var_names)}
        self.program = []

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self):
        self._expr()
        kind, _, position = self._peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", position)
        return self.program

    def _expr(self):
        kind, _, _ = self._peek()
        if kind in ("+", "-"):
            self._advance()
        self._term()
        if kind == "-":
            self.program.append("neg")
        while True:
            kind, _, _ = self._peek()
            if kind not in ("+", "-"):
                return
            self._advance()
            self._term()
            self.program.append(kind)

    def _term(self):
        self._factor()
        while self._peek()[0] == "*":
            self._advance()
            self._factor()
            self.program.append("*")

    def _factor(self):
        self._atom()
        if self._peek()[0] == "^":
            self._advance()
            kind, value, position = self._peek()
            if kind != "number":
                raise ParseError("exponent must be a non-negative integer", position)
            self._advance()
            self.program.append(("^", value))

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
                value = Fraction(value, dvalue)
            self.program.append(("const", as_scalar(value, self.field)))
        elif kind == "name":
            if value == "i":
                if self.field != FIELD_QI:
                    raise ParseError("'i' is only available over field Qi", position)
                self.program.append(("const", GAUSSIAN_I))
            elif value in self.vars:
                self.program.append(("var", self.vars[value]))
            else:
                raise UnknownVariableError(value, position)
        elif kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", position)
            self._expr()
            kind, _, position = self._advance()
            if kind != ")":
                raise ParseError("expected ')'", position)
            self.depth -= 1
        else:
            raise ParseError("expected a number, variable, or '('", position)


def _check_expansion(arity, degree):
    # the smallest slice any command builds for a polynomial of degree D is
    # filtered(D - 2) (dirichlet's q), so an expansion past that bound is
    # refused before it runs: (x+y)^2000 would take minutes to expand
    try:
        check_slice_dimension(arity, degree - 2)
    except SliceTooLargeError as exc:
        raise SliceTooLargeError(f"a product of sums expands to degree {degree}: {exc}") from None


def _check_bits(what, factors, exponent=1):
    # a product's (or power's) stored ints are sums of products of its
    # factors' stored ints, and its common denominator divides the product of
    # theirs: so both are at most the product over the factors of the larger
    # of the denominator and the sum of the stored ints, each int sized
    # |re| + |im| over Qi, and their bits at most the sum of its log2
    bits = 0.0
    for poly in factors:
        ints, den = poly.integer_form
        parts = INTEGERS[poly.field].parts
        size = sum(sum(map(abs, parts(n))) for n in ints.values())
        bits += exponent * math.log2(max(den, size))
    if bits > MAX_POWER_BITS:
        raise ParseError(f"{what} could give a coefficient of over {MAX_POWER_BITS} bits")


def _lower(program, arity, field):
    # one pass over the postfix program with a stack of Poly
    stack = []
    for op in program:
        if op == "neg":
            stack.append(-stack.pop())
        elif op in ("+", "-", "*"):
            right = stack.pop()
            left = stack.pop()
            if op == "+":
                stack.append(left + right)
            elif op == "-":
                stack.append(left - right)
            else:
                if len(left.integer_form[0]) > 1 and len(right.integer_form[0]) > 1:
                    _check_expansion(arity, left.degree + right.degree)
                _check_bits("a product", [left, right])
                stack.append(left * right)
        else:
            kind, value = op
            if kind == "const":
                stack.append(Poly.constant(arity, value, field))
            elif kind == "var":
                stack.append(Poly.variable(arity, value, field))
            else:
                base = stack.pop()
                what = "a power of one term"
                if len(base.integer_form[0]) > 1:
                    _check_expansion(arity, base.degree * value)
                    what = "a power of a sum"
                _check_bits(what, [base], value)
                stack.append(base ** value)
    return stack.pop()


def _parse(text, var_names, field):
    validate_field(field)
    if not text or not text.strip():
        raise ParseError("empty expression")
    return _Parser(text, var_names, field).parse()


def parse_polynomial(text, var_names, field=FIELD_Q):
    """Parse an expression into a canonical polynomial."""
    names = validate_var_names(var_names)
    return _lower(_parse(text, names, field), len(names), field)


def parse_scalar(text, field=FIELD_Q):
    """Parse a constant expression (no variables) into a field scalar."""
    poly = _lower(_parse(text, (), field), 1, field)
    if poly.degree > 0:
        raise ParseError("expected a constant expression")
    return poly.coefficient((0,))


def default_var_names(arity):
    return tuple(f"x{i + 1}" for i in range(arity))


def _magnitude(num, den):
    # "n" or "n/d" for the decimal strings of a nonzero part, without its sign
    num = num.lstrip("-")
    return num if den == "1" else f"{num}/{den}"


def _coeff_pieces(parts):
    # the decimal strings of a coefficient -> (negative, the factor to write
    # before the variables or "" for 1, the text of the coefficient alone)
    num, den = parts[0]
    if len(parts) == 2 and parts[1][0] != "0":
        im_num, im_den = parts[1]
        im_negative = im_num.startswith("-")
        im = _magnitude(im_num, im_den)
        im = "i" if im == "1" else f"{im}*i"
        if num == "0":
            return im_negative, im, im
        # a leading minus negates both parts: (a - b*i) for -a + b*i
        negative = num.startswith("-")
        sign = "+" if im_negative == negative else "-"
        text = f"({_magnitude(num, den)} {sign} {im})"
        return negative, text, text
    text = _magnitude(num, den)
    return num.startswith("-"), "" if text == "1" else text, text


def format_polynomial(p, var_names=None):
    """Deterministic textual form, highest degree first; reparses exactly.

    It reads ``p.decimal_terms``, the strings built once per polynomial and
    shared with poly_to_json."""
    names = validate_var_names(var_names) if var_names else default_var_names(p.arity)
    if len(names) != p.arity:
        raise ValueError(f"expected {p.arity} variable names, got {len(names)}")
    if not p:
        return "0"
    out = []
    # decimal_terms ascends in graded lex order: only the degrees flip
    for exponents, parts in sorted(p.decimal_terms, key=lambda item: -sum(item[0])):
        negative, factor, constant = _coeff_pieces(parts)
        variables = "*".join(name if e == 1 else f"{name}^{e}"
                             for name, e in zip(names, exponents) if e)
        body = (f"{factor}*{variables}" if factor else variables) if variables else constant
        if out:
            out.append(f" - {body}" if negative else f" + {body}")
        else:
            out.append(f"-{body}" if negative else body)
    return "".join(out)
