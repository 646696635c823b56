import random
from fractions import Fraction

import pytest

from fischerlab import (
    FIELD_Q,
    FIELD_QI,
    GAUSSIAN_I,
    GaussianRational,
    _kernels,
    as_scalar,
    scalar_from_json,
    scalar_to_json,
)
from fischerlab.scalars import FIELDS, INTEGERS, from_integer
from helpers import random_gaussian


def test_gaussian_construction_normalizes():
    z = GaussianRational(Fraction(2, 4), Fraction(-6, 3))
    assert z.re == Fraction(1, 2)
    assert z.im == -2
    # Fraction parts are kept as they are
    re, im = Fraction(1, 3), Fraction(-2, 5)
    z = GaussianRational(re, im)
    assert z.re is re and z.im is im


def test_gaussian_is_immutable():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(5)


def test_i_squared_is_minus_one():
    assert GAUSSIAN_I * GAUSSIAN_I == GaussianRational(-1)


def test_gaussian_field_axioms_on_randoms():
    rng = random.Random(101)
    for _ in range(50):
        a = random_gaussian(rng)
        b = random_gaussian(rng)
        c = random_gaussian(rng)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        d = random_gaussian(rng, nonzero=True)
        assert (a / d) * d == a


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_real_gaussian_equals_only_within_field():
    # equality across scalar types is False, not an error
    assert GaussianRational(3, 0) != Fraction(3)
    assert GaussianRational(3, 0) == GaussianRational(3)


def test_gaussian_accepts_int_and_fraction_operands():
    z = GaussianRational(1, 2)
    assert 2 * z == GaussianRational(2, 4)
    assert z + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 2)


def test_as_scalar_field_gate():
    assert as_scalar(3, FIELD_Q) == Fraction(3)
    assert as_scalar(Fraction(1, 2), FIELD_QI) == GaussianRational(Fraction(1, 2))
    with pytest.raises(ValueError):
        as_scalar(GaussianRational(3, 0), FIELD_Q)
    with pytest.raises(ValueError):
        as_scalar(1.5, FIELD_Q)


def test_scalar_json_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        q = Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**12))
        assert scalar_from_json(scalar_to_json(q), FIELD_Q) == q
        z = random_gaussian(rng)
        assert scalar_from_json(scalar_to_json(z), FIELD_QI) == z


def test_scalar_json_uses_decimal_strings():
    payload = scalar_to_json(Fraction(-(10**40), 7))
    assert payload == {"num": str(-(10**40)), "den": "7"}


def _float_bits(value):
    # the bits of a float, or of both parts of a complex
    value = complex(value)
    return value.real.hex(), value.imag.hex()


@pytest.mark.parametrize("field", FIELDS)
def test_integer_tables_agree_with_scalar_arithmetic(field):
    # each table operation against Fraction / GaussianRational arithmetic on
    # the scalars x / 1 (and x / den for to_float), from_integer the oracle's
    # reading of the integer form
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    table, p = INTEGERS[field], _kernels.P
    ints = st.integers(-(10**40), 10**40)
    entries = ints if field == FIELD_Q else st.tuples(ints, ints)

    def scalar(x):
        return from_integer(x, 1)

    def numerators(value):
        # the ints of a scalar with denominator 1, real part first
        return (value.numerator,) if field == FIELD_Q else (value.re.numerator, value.im.numerator)

    def residue(x):
        return table.residue(x, _kernels.I_P) % p

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(entries, entries, ints, st.integers(1, 10**12),
                      st.lists(entries, max_size=6))
    def check(x, y, k, g, xs):
        assert scalar(table.add(x, y)) == scalar(x) + scalar(y)
        assert scalar(table.mul(x, y)) == scalar(x) * scalar(y)
        assert scalar(table.times(x, k)) == scalar(x) * k
        assert scalar(table.scale(table.times(x, g), k, g)) == scalar(x) * k
        assert scalar(table.scale(x, k)) == scalar(x) * k
        assert tuple(table.parts(x)) == numerators(scalar(x))
        assert list(table.flat(xs)) == [n for z in xs for n in numerators(scalar(z))]
        if field == FIELD_Q:
            assert _float_bits(table.to_float(x, g)) == _float_bits(float(Fraction(x, g)))
        else:
            assert _float_bits(table.to_float(x, g)) == _float_bits(complex(from_integer(x, g)))
        # a ring map into Z/p
        assert residue(table.add(x, y)) == (residue(x) + residue(y)) % p
        assert residue(table.mul(x, y)) == residue(x) * residue(y) % p
        assert residue(table.times(x, k)) == residue(x) * k % p

    check()
    assert [scalar(table.zero), scalar(table.one), scalar(table.minus_one)] == [
        as_scalar(v, field) for v in (0, 1, -1)]
    assert table.den(table.times(table.one, 7)) == 7
    assert _kernels.I_P**2 % p == p - 1
    assert residue(table.one) == 1 and residue(table.minus_one) == p - 1
    # beyond the float range both raise OverflowError
    big = table.times(table.one, 10**400)
    with pytest.raises(OverflowError):
        table.to_float(big, 3)
    with pytest.raises(OverflowError):
        complex(from_integer(big, 3))
