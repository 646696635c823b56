import random
from fractions import Fraction

import pytest

from fischerlab import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    ParseError,
    Poly,
    SliceTooLargeError,
    UnknownVariableError,
    default_var_names,
    format_polynomial,
    parse_polynomial,
    parse_scalar,
    validate_var_names,
)
from fischerlab.exprs import MAX_NESTING, MAX_POWER_BITS
from helpers import random_poly

XY = ("x", "y")
XYZ = ("x", "y", "z")
X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)


def test_parse_circle():
    p = parse_polynomial("x^2 + y^2 - 1", XY)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert p == x * x + y * y - Poly.constant(2, 1)


def test_parse_three_term_example():
    p = parse_polynomial("3/2*x^2*y - z + 1", XYZ)
    assert p.coefficient((2, 1, 0)) == Fraction(3, 2)
    assert p.coefficient((0, 0, 1)) == Fraction(-1)
    assert p.coefficient((0, 0, 0)) == Fraction(1)
    assert len(p.terms) == 3


def test_parse_i_requires_field_qi():
    with pytest.raises(ParseError):
        parse_polynomial("x^2 + i*y", XY, FIELD_Q)
    p = parse_polynomial("x^2 + i*y", XY, FIELD_QI)
    assert p.coefficient((0, 1)) == GaussianRational(0, 1)


def test_parse_parenthesized_powers():
    p = parse_polynomial("(x + y)^2", XY)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert p == (x + y) * (x + y)


def test_parse_unary_minus():
    assert parse_polynomial("-x", XY) == -Poly.variable(2, 0)
    p = parse_polynomial("-x^2*y + 1", XY)
    assert p.coefficient((2, 1)) == Fraction(-1)


def test_parse_number_power():
    p = parse_polynomial("2^3 + x", XY)
    assert p.coefficient((0, 0)) == Fraction(8)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x^2 + $", XY)
    assert info.value.position == 6
    with pytest.raises(UnknownVariableError) as info:
        parse_polynomial("x + w", XY)
    assert info.value.position == 4
    assert info.value.name == "w"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "2x",          # implicit multiplication is not allowed
        "x/2",         # '/' only appears inside rational literals
        "x^-1",
        "x^(2)",
        "x *",
        "(x + y",
        "x + + y",
        "1/0",
        "3//2",
        "x y",
    ],
)
def test_parse_rejects_bad_input(text):
    with pytest.raises(ParseError):
        parse_polynomial(text, XY)


def test_nesting_up_to_the_limit_parses():
    assert parse_polynomial("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, XY) == X
    negated = "-(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(negated, XY) == (X if MAX_NESTING % 2 == 0 else -X)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
def test_nesting_beyond_the_limit_is_a_parse_error(depth):
    with pytest.raises(ParseError) as info:
        parse_polynomial("(" * depth + "x" + ")" * depth, XY)
    assert info.value.position == MAX_NESTING
    with pytest.raises(ParseError):
        parse_polynomial("-(" * depth + "x" + ")" * depth, XY)


def test_long_sums_and_products_parse():
    # a k-term sum nests k deep in the syntax tree
    assert parse_polynomial("+".join(["x"] * 5000), XY) == X.scale(5000)
    assert parse_polynomial("-".join(["y"] * 5000), XY) == Y.scale(-4998)
    assert parse_polynomial("*".join(["x"] * 3000), XY) == X**3000


def test_expanding_products_of_sums_is_bounded():
    # (x+y)^D expands only while filtered(D - 2) in two variables stays
    # within MAX_SLICE_DIMENSION: C(91, 2) = 4095 monomials, C(92, 2) = 4186
    assert len(parse_polynomial("(x+y)^91", XY).terms) == 92
    assert parse_polynomial("(x+y)^50*(x-y)^41", XY).degree == 91
    for text in ("(x+y)^92", "(x+y)^50*(x-y)^42", "(x+y)^2000", "(x+y)*(x+y)^91"):
        with pytest.raises(SliceTooLargeError, match="expands to degree"):
            parse_polynomial(text, XY)
    # sums of monomials, or powers of a single term, are not expanded
    assert parse_polynomial("x^3000*y^3000 + (2*x*y)^9999", XY).degree == 19998
    assert parse_polynomial("(x+1)^3*x^5000", XY).degree == 5003


def test_powers_of_a_single_term_are_bounded():
    # 2^MAX_POWER_BITS is the largest power of 2 admitted
    assert parse_scalar(f"2^{MAX_POWER_BITS}") == 2**MAX_POWER_BITS
    assert parse_scalar(f"(-1/2)^{MAX_POWER_BITS}") == Fraction(1, 2**MAX_POWER_BITS)
    assert parse_scalar("10^400") == 10**400
    assert parse_scalar("2^30000*2^30000") == 2**60000
    assert parse_polynomial("(-x)^99999999", XY) == -(X**99999999)
    assert parse_scalar("i^99999999", FIELD_QI) == GaussianRational(0, -1)
    for text, field in (
        (f"2^{MAX_POWER_BITS + 1}", FIELD_Q),
        ("3^40000000", FIELD_Q),
        (f"(1/2*x*y)^{MAX_POWER_BITS + 1}", FIELD_Q),
        ("(2^60000)^2", FIELD_Q),
        (f"(1+i)^{MAX_POWER_BITS + 1}", FIELD_QI),
        ("2^40000*3^30000*x", FIELD_Q),
        ("(x+2^40000)*2^30000", FIELD_Q),
        ("(3^41000*x+y)^2", FIELD_Q),
    ):
        with pytest.raises(ParseError, match=f"over {MAX_POWER_BITS} bits"):
            parse_polynomial(text, XY, field)


def test_format_circle():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    circle = x * x + y * y - Poly.constant(2, 1)
    assert format_polynomial(circle, XY) == "x^2 + y^2 - 1"


def test_format_zero():
    assert format_polynomial(Poly.zero(2), XY) == "0"


def test_format_orders_by_descending_degree():
    p = parse_polynomial("1 + x + y^3 + x*y", XY)
    assert format_polynomial(p, XY) == "y^3 + x*y + x + 1"


def test_format_leading_negative_and_unit_coefficients():
    p = parse_polynomial("-x^2 + y - 3/2", XY)
    assert format_polynomial(p, XY) == "-x^2 + y - 3/2"
    q = parse_polynomial("-1*x", XY)
    assert format_polynomial(q, XY) == "-x"


def test_format_gaussian_coefficients():
    p = parse_polynomial("i*x + (1 - 2*i)*y - i", XY, FIELD_QI)
    text = format_polynomial(p, XY)
    assert text == "i*x + (1 - 2*i)*y - i"
    assert parse_polynomial(text, XY, FIELD_QI) == p


def test_format_checks_name_count():
    with pytest.raises(ValueError):
        format_polynomial(Poly.variable(3, 0), XY)


def test_round_trip_on_200_randoms_per_field():
    rng = random.Random(71)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(200):
            arity = rng.randint(1, 3)
            p = random_poly(rng, arity, 5, field, max_terms=7)
            names = default_var_names(arity)
            assert parse_polynomial(format_polynomial(p, names), names, field) == p


def test_round_trip_with_custom_names():
    rng = random.Random(73)
    for _ in range(50):
        p = random_poly(rng, 3, 4, FIELD_QI)
        text = format_polynomial(p, XYZ)
        assert parse_polynomial(text, XYZ, FIELD_QI) == p


def test_parse_scalar():
    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("-(1 - 2*i)", FIELD_QI) == GaussianRational(-1, 2)
    assert parse_scalar("2^3 - 1") == Fraction(7)
    with pytest.raises(UnknownVariableError):
        parse_scalar("x + 1")
    with pytest.raises(ParseError):
        parse_scalar("i", FIELD_Q)


def test_validate_var_names():
    assert validate_var_names(["x", "y"]) == ("x", "y")
    with pytest.raises(ValueError):
        validate_var_names([])
    with pytest.raises(ValueError):
        validate_var_names(["x", "x"])
    with pytest.raises(ValueError):
        validate_var_names(["2x"])
    with pytest.raises(ValueError):
        validate_var_names(["i"])
