"""Exact coefficient fields: rationals and Gaussian rationals.

Field "Q" is served by fractions.Fraction, field "Qi" by GaussianRational,
a pair of Fractions (re, im) with + - * / and unary minus: the scalars of
the API edge, and the exact reference that tests hold the integer tables
and Poly to.  Floating point never enters coefficient arithmetic; floats
appear only when callers evaluate polynomials at sampled points.  All
values are immutable and safe to share across threads.

Polynomials and matrices keep entries as ints over a common denominator:
the integer form defined once by the tables _kernels.Q and _kernels.QI,
which INTEGERS maps the field names to (integer_form and from_integer convert).
"""

from decimal import Decimal
from fractions import Fraction
from math import lcm

from . import _kernels

FIELD_Q = "Q"
FIELD_QI = "Qi"
FIELDS = (FIELD_Q, FIELD_QI)
INTEGERS = {FIELD_Q: _kernels.Q, FIELD_QI: _kernels.QI}


def validate_field(field):
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}; expected one of {FIELDS}")


class GaussianRational:
    """An element a + b*i of the Gaussian rationals, with exact a and b.

    + - * / accept int and Fraction operands (the natural subfield action),
    on the right of any operator and on the left of + and * only; equality
    with anything but another GaussianRational is False.
    Mixing whole polynomials or matrices across fields is rejected at the
    Poly / ExactMatrix level.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction part is kept: Fraction(f) would redo a numbers.Rational check
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


GAUSSIAN_I = GaussianRational(0, 1)


def as_scalar(value, field):
    """Coerce a value into the given field, loudly rejecting narrowing.

    Field Q accepts int and Fraction; a GaussianRational is refused even when
    its imaginary part is zero, so real-coefficient mode never silently
    absorbs complex data.
    """
    validate_field(field)
    if field == FIELD_Q:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise ValueError(f"field Q cannot hold {value!r}")
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise ValueError(f"field Qi cannot hold {value!r}")


def integer_form(values, field):
    """(entries, L): the scalars times the lcm L of their denominators, each
    an int over Q and an (re, im) pair of ints over Qi."""
    parts = values if field == FIELD_Q else [p for v in values for p in (v.re, v.im)]
    den = lcm(*(p.denominator for p in parts))
    ints = [p.numerator * (den // p.denominator) for p in parts]
    return (ints if field == FIELD_Q else list(zip(ints[::2], ints[1::2]))), den


def from_integer(entry, den):
    """The scalar entry / den of an integer entry and a positive int den."""
    if isinstance(entry, int):
        return Fraction(entry, den)
    return GaussianRational(Fraction(entry[0], den), Fraction(entry[1], den))


def decimal_text(n):
    """The decimal string of an int of any size.  str() refuses ints of over
    4300 digits (CPython's default sys.get_int_max_str_digits()), which an
    exact result may reach; Decimal converts them with no limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _fraction_to_json(value):
    return {"num": decimal_text(value.numerator), "den": decimal_text(value.denominator)}


def scalar_to_json(value):
    """JSON form with integers as decimal strings (bit-exact, unbounded)."""
    if isinstance(value, Fraction):
        return _fraction_to_json(value)
    if isinstance(value, GaussianRational):
        return {"re": _fraction_to_json(value.re), "im": _fraction_to_json(value.im)}
    raise ValueError(f"not a scalar: {value!r}")


def decimal_int(text):
    """The int of a decimal string of any length: int() refuses one of over
    4300 digits (see decimal_text), which Decimal reads with no limit."""
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def _json_int(text):
    digits = text[1:] if isinstance(text, str) and text.startswith("-") else text
    if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected a decimal integer string, got {text!r}")
    return decimal_int(text)


def _fraction_from_json(obj):
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ValueError(f"expected a rational {{num, den}}, got {obj!r}")
    num, den = _json_int(obj["num"]), _json_int(obj["den"])
    if den <= 0:
        raise ValueError(f"a denominator must be positive, got {den}")
    return Fraction(num, den)


def scalar_from_json(obj, field):
    """The scalar of a scalar_to_json object; any other input is a ValueError."""
    validate_field(field)
    if field == FIELD_Q:
        return _fraction_from_json(obj)
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValueError(f"expected a Gaussian rational {{re, im}}, got {obj!r}")
    return GaussianRational(_fraction_from_json(obj["re"]), _fraction_from_json(obj["im"]))
