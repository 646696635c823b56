"""Poly's integer arithmetic against the Fraction-dict arithmetic it replaced.

The oracle below keeps each polynomial as a dict {exponents: Fraction or
GaussianRational} and runs the loops Poly ran on such dicts.  Poly must give
the same coefficients, the same term order (a term that cancels is deleted
and appended again if it comes back) and bit-identical float sums.
"""

from fractions import Fraction

import pytest

from fischerlab import FIELD_Q, FIELD_QI, GaussianRational, Poly, apply_operator, as_scalar
from fischerlab.polyring import float_sums

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _merge(out, m, value):
    if m in out:
        value = out[m] + value
    if value:
        out[m] = value
    elif m in out:
        del out[m]


def _init(pairs, field):
    out = {}
    for m, c in pairs:
        _merge(out, tuple(m), as_scalar(c, field))
    return out


def _add(a, b):
    out = dict(a)
    for m, c in b.items():
        _merge(out, m, c)
    return out


def _neg(a):
    return {m: -c for m, c in a.items()}


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _merge(out, tuple(x + y for x, y in zip(ma, mb)), ca * cb)
    return out


def _pow(a, n, arity, field):
    result, base = {(0,) * arity: as_scalar(1, field)}, a
    while n:
        if n & 1:
            result = _mul(result, base)
        base = _mul(base, base)
        n >>= 1
    return result


def _scale(a, c):
    return {m: coeff * c for m, coeff in a.items()} if c else {}


def _laplacian(a):
    out = {}
    for m, c in a.items():
        for axis, e in enumerate(m):
            if e >= 2:
                _merge(out, m[:axis] + (e - 2,) + m[axis + 1 :], c * (e * (e - 1)))
    return out


def _component(a, n):
    return {m: c for m, c in a.items() if sum(m) == n}


def _apply(op, a):
    out = {}
    for beta, c_op in op.items():
        for alpha, c in a.items():
            if any(x < y for x, y in zip(alpha, beta)):
                continue
            factor = 1
            for x, y in zip(alpha, beta):
                for k in range(y):
                    factor *= x - k
            _merge(out, tuple(x - y for x, y in zip(alpha, beta)), c * c_op * factor)
    return out


def _float_sums(a, point, field):
    # the value and the sum of |terms|, term by term in the dict's order
    value, magnitude = (0.0 if field == FIELD_Q else 0j), 0.0
    for m, c in a.items():
        term = complex(c) if isinstance(c, GaussianRational) else float(c)
        for v, e in zip(point, m):
            if e:
                term *= v**e
        value += term
        magnitude += abs(term)
    return value, magnitude


# small parts, so that sums cancel often and terms come back
_PARTS = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3)))


def _scalars(field):
    return _PARTS if field == FIELD_Q else st.builds(GaussianRational, _PARTS, _PARTS)


def _pairs(arity, field):
    exponents = st.tuples(*[st.integers(0, 2)] * arity)
    return st.lists(st.tuples(exponents, _scalars(field)), max_size=7)


def _assert_same(p, expected, point):
    assert list(p.terms.items()) == list(expected.items())
    assert p == Poly(p.arity, p.field, expected)
    [[got]] = float_sums((p,), [point])
    assert repr(got) == repr(_float_sums(expected, point, p.field))


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_integer_arithmetic_matches_the_fraction_dicts(field):
    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        arity = data.draw(st.integers(1, 3))
        pairs, other = data.draw(_pairs(arity, field)), data.draw(_pairs(arity, field))
        c, n = data.draw(_scalars(field)), data.draw(st.integers(0, 4))
        point = data.draw(st.tuples(*[st.floats(-2.0, 2.0)] * arity))
        p, q = Poly(arity, field, pairs), Poly(arity, field, other)
        x, y = _init(pairs, field), _init(other, field)
        for got, expected in [
            (p, x),
            (p + q, _add(x, y)),
            (p - q, _add(x, _neg(y))),
            (-p, _neg(x)),
            (p * q, _mul(x, y)),
            (p**n, _pow(x, n, arity, field)),
            (p.scale(c), _scale(x, c)),
            (p.laplacian(), _laplacian(x)),
            (p.homogeneous_component(n), _component(x, n)),
            (apply_operator(q, p), _apply(y, x)),
        ]:
            _assert_same(got, expected, point)

    check()
