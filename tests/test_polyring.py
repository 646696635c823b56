import math
import random
from fractions import Fraction

import pytest

from fischerlab import (
    Basis,
    BasisOverflowError,
    FIELD_Q,
    FIELD_QI,
    FloatEvaluationError,
    GaussianRational,
    HOMOGENEOUS,
    MAX_SLICE_DIMENSION,
    NEG_INF,
    Poly,
    SliceTooLargeError,
    apply_operator,
    basis_dimension,
    coordinates,
    filtered_basis,
    fischer_theorem_check,
    from_coordinates,
    grlex_key,
    homogeneous_basis,
    poly_from_json,
    poly_to_json,
    rank_profile,
    squared_norm,
)
from fischerlab import polyring
from fischerlab.dirichlet import boundary_mismatches
from fischerlab.exprs import parse_polynomial
from fischerlab.fischer import solve_by_degree
from fischerlab.polyring import check_slice_dimension, evaluate_columns, float_sums
from fischerlab.scalars import INTEGERS
from helpers import random_poly, scalar_coordinates


def xy(arity=2):
    return Poly.variable(arity, 0), Poly.variable(arity, 1)


def test_homogeneous_basis_example():
    basis = Basis(2, "homogeneous", 2)
    assert basis.monomials == ((2, 0), (1, 1), (0, 2))
    assert len(basis) == 3


def test_filtered_basis_example():
    basis = filtered_basis(3, 1)
    assert basis.monomials == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(basis) == 4


def test_filtered_count_by_binomial_oracle():
    assert len(filtered_basis(2, 8)) == math.comb(10, 2) == 45


def test_basis_counts_match_closed_form():
    for arity in (1, 2, 3, 4):
        for degree in range(6):
            assert len(homogeneous_basis(arity, degree)) == math.comb(
                degree + arity - 1, arity - 1
            )
            assert len(filtered_basis(arity, degree)) == math.comb(degree + arity, arity)
            assert basis_dimension(arity, "homogeneous", degree) == len(
                homogeneous_basis(arity, degree)
            )


def test_basis_is_strictly_increasing_in_grlex():
    for basis in (filtered_basis(3, 4), homogeneous_basis(4, 3)):
        keys = [grlex_key(m) for m in basis.monomials]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        Basis(0, "homogeneous", 2)
    with pytest.raises(ValueError):
        Basis(2, "homogeneous", -1)
    with pytest.raises(ValueError):
        Basis(2, "weighted", 2)


def test_slice_bases_are_shared_and_still_checked():
    # one immutable Basis per (arity, degree); a float degree is refused even
    # once the int degree of equal value is cached
    for make, kind in ((homogeneous_basis, HOMOGENEOUS), (filtered_basis, "filtered")):
        assert make(3, 4) is make(3, 4)
        assert make(3, 4).monomials == Basis(3, kind, 4).monomials
        with pytest.raises(ValueError):
            make(3, 4.0)
        with pytest.raises(ValueError):
            make(3, -1)


def test_difference_of_squares():
    x, y = xy()
    assert (x + y) * (x - y) == x * x - y * y


def test_additive_inverse_gives_zero():
    rng = random.Random(5)
    p = random_poly(rng, 2, 4)
    assert p + p.scale(-1) == Poly.zero(2)
    assert not (p - p)


def test_scale_distributes():
    x, y = xy()
    circle = x * x + y * y - Poly.constant(2, 1)
    half = circle.scale(Fraction(1, 2))
    assert half.coefficient((2, 0)) == Fraction(1, 2)
    assert half.coefficient((0, 0)) == Fraction(-1, 2)


def test_ring_axioms_on_random_triples():
    rng = random.Random(11)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(25):
            p = random_poly(rng, 2, 3, field)
            q = random_poly(rng, 2, 3, field)
            r = random_poly(rng, 2, 3, field)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + q == q + p
            assert p * q == q * p


@pytest.mark.parametrize("n", [1, 2, 3, 8, 91])
def test_power_multiplies_nothing_above_its_degree(monkeypatch, n):
    x = Poly.variable(1, 0)
    p = x * x.scale(3) - x + Poly.constant(1, 2)
    expected = Poly.constant(1, 1)
    for _ in range(n):
        expected = expected * p
    degrees = []
    mul = Poly.__mul__

    def spy(a, b):
        product = mul(a, b)
        degrees.append(product.degree)
        return product

    monkeypatch.setattr(Poly, "__mul__", spy)
    power = p**n
    monkeypatch.undo()
    # the square of the base after the last exponent bit would pass n * deg p
    assert degrees and max(degrees) == n * p.degree
    assert power == expected and list(power.terms) == list(expected.terms)


def test_canonical_form_identical_term_maps():
    x, y = xy()
    a = (x + y) * (x + y)
    b = x * x + x * y + x * y + y * y
    assert a == b
    assert dict(a.terms) == dict(b.terms)
    assert all(c for c in a.terms.values())


def test_laplacian_examples():
    x, y = xy()
    assert (x * x + y * y).laplacian() == Poly.constant(2, 4)
    assert (x * x - y * y).laplacian() == Poly.zero(2)
    assert Poly.monomial(2, (3, 1)).laplacian() == Poly.monomial(2, (1, 1), 6)


def test_laplacian_degree_drop_on_200_randoms():
    rng = random.Random(23)
    for _ in range(200):
        p = random_poly(rng, rng.randint(1, 3), 6, nonzero=True)
        lap = p.laplacian()
        if lap:
            assert lap.degree <= p.degree - 2


def test_apply_operator_examples():
    # P = x1^2 acts as the second x1-derivative
    p4 = Poly.monomial(2, (4, 0))
    assert apply_operator(Poly.monomial(2, (2, 0)), p4) == Poly.monomial(2, (2, 0), 12)
    mixed = Poly.monomial(2, (1, 1))
    assert apply_operator(mixed, mixed) == Poly.constant(2, 1)


def test_apply_operator_squared_norm_is_laplacian():
    rng = random.Random(31)
    for _ in range(20):
        arity = rng.randint(1, 3)
        p = random_poly(rng, arity, 5)
        assert apply_operator(squared_norm(arity), p) == p.laplacian()


def test_evaluate_examples():
    x, y = xy()
    circle = x * x + y * y - Poly.constant(2, 1)
    assert circle.evaluate((1.0, 0.0)) == 0.0
    assert (x * x - y * y).evaluate((2.0, 1.0)) == 3.0


@pytest.mark.parametrize(
    "coefficient, point",
    [(Fraction(10**400), (1.0, 0.0)), (1, (1e200, 0.0)), (1, (10**400, 0))],
    ids=["coefficient", "power", "coordinate"],
)
def test_float_evaluation_overflow_is_typed(coefficient, point):
    x, _ = xy()
    p = (x * x).scale(coefficient)
    with pytest.raises(FloatEvaluationError):
        p.evaluate(point)


def _reference_sums(p, point):
    # term by term, one v**e per factor: the loop the power tables replace
    values = [float(v) for v in point]
    value, magnitude = (0j if p.field != FIELD_Q else 0.0), 0.0
    for m, c in p.terms.items():
        term = complex(c) if isinstance(c, GaussianRational) else float(c)
        for v, e in zip(values, m):
            if e:
                term *= v**e
        value += term
        magnitude += abs(term)
    return value, magnitude


def _bits(value):
    """The exact bits of a float or complex, signed zeros included."""
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.hex()


_ODD_COORDINATES = (0.0, -0.0, -1.5, 1e-300, -5e-310, 1e155, -1e200, 1e300, 2.0**0.5)


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_float_evaluation_is_bit_identical_to_term_by_term(field):
    rng = random.Random(23)
    overflowed = 0
    for _ in range(300):
        f = random_poly(rng, 3, rng.randint(0, 6), field, max_terms=8)
        h = random_poly(rng, 3, rng.randint(0, 6), field, max_terms=8)
        if rng.random() < 0.1:
            f = f.scale(Fraction(10**rng.randint(300, 320)))
        points = [tuple(rng.choice(_ODD_COORDINATES) if rng.random() < 0.5
                        else rng.uniform(-3.0, 3.0) for _ in range(3)) for _ in range(4)]
        for point in points:
            finite = 0
            for p in (f, h):
                try:
                    value, magnitude = _reference_sums(p, point)
                except OverflowError:
                    overflowed += 1
                    with pytest.raises(FloatEvaluationError):
                        float_sums(p, [point])
                    continue
                [(got_value, got_magnitude)] = float_sums(p, [point])
                assert _bits(got_value) == _bits(value)
                assert _bits(got_magnitude) == _bits(magnitude)
                assert _bits(p.evaluate(point)) == _bits(value)
                finite += 1
            if finite < 2:
                with pytest.raises(FloatEvaluationError):
                    boundary_mismatches(f, h, [point])
                continue
            (f_value, f_size), (h_value, h_size) = (_reference_sums(p, point) for p in (f, h))
            [(error, scale)] = boundary_mismatches(f, h, [point])
            assert _bits(error) == _bits(abs(f_value - h_value))
            assert _bits(scale) == _bits(max(1.0, f_size, h_size))
        # all four points in one call, and through the column evaluator
        for p in (f, h):
            try:
                expected = [_reference_sums(p, point) for point in points]
            except OverflowError:
                for evaluate in (float_sums, evaluate_columns):
                    with pytest.raises(FloatEvaluationError):
                        evaluate(p, points)
                continue
            assert ([(_bits(value), _bits(magnitude)) for value, magnitude in float_sums(p, points)]
                    == [(_bits(value), _bits(magnitude)) for value, magnitude in expected])
            assert ([_bits(value) for value in evaluate_columns(p, points)]
                    == [_bits(value) for value, _ in expected])
    assert 0 < overflowed < 2400


def test_float_evaluation_computes_no_power_that_no_term_uses():
    x, y = xy()
    p = x * x * x + y + Poly.constant(2, 1)
    # y^2 would overflow at y = 1e300, and no term of p uses it
    assert float_sums(p, [(2.0, 1e300)]) == [_reference_sums(p, (2.0, 1e300))]
    with pytest.raises(FloatEvaluationError):
        float_sums(p + y * y, [(2.0, 1e300)])
    with pytest.raises(OverflowError):
        _reference_sums(p + y * y, (2.0, 1e300))


def test_slice_dimension_limit():
    # in one variable the filtered slice of degree n has n + 1 monomials
    check_slice_dimension(1, MAX_SLICE_DIMENSION - 1)
    check_slice_dimension(3, -1)
    with pytest.raises(SliceTooLargeError, match="filtered slice of degree"):
        check_slice_dimension(1, MAX_SLICE_DIMENSION)
    x = Poly.variable(1, 0)
    with pytest.raises(SliceTooLargeError):
        rank_profile(x * x, MAX_SLICE_DIMENSION)
    with pytest.raises(SliceTooLargeError):
        rank_profile(x * x, MAX_SLICE_DIMENSION - 10, slack=10)
    with pytest.raises(SliceTooLargeError):
        # psi of degree 1: the source slice is one degree above the target
        rank_profile(x, MAX_SLICE_DIMENSION - 1)
    with pytest.raises(SliceTooLargeError):
        rank_profile(x * x, MAX_SLICE_DIMENSION, mode=HOMOGENEOUS)
    with pytest.raises(SliceTooLargeError):
        fischer_theorem_check(x * x, MAX_SLICE_DIMENSION)


def test_evaluate_dimension_mismatch():
    p = Poly.variable(2, 0)
    with pytest.raises(ValueError):
        p.evaluate((1.0,))


def test_homogeneous_component_example():
    x, y = xy()
    p = x * x + y - Poly.constant(2, 1)
    assert p.homogeneous_component(1) == y
    assert p.homogeneous_component(3) == Poly.zero(2)
    with pytest.raises(ValueError):
        p.homogeneous_component(-1)


def test_components_sum_back():
    rng = random.Random(43)
    for _ in range(20):
        p = random_poly(rng, 3, 5)
        total = Poly.zero(3)
        for n in range(7):
            total = total + p.homogeneous_component(n)
        assert total == p


def test_degree_sentinel_and_additivity():
    assert Poly.zero(2).degree is NEG_INF
    x, y = xy()
    circle = x * x + y * y - Poly.constant(2, 1)
    assert (circle * (x - y)).degree == 3
    rng = random.Random(47)
    for _ in range(50):
        p = random_poly(rng, 2, 4, nonzero=True)
        q = random_poly(rng, 2, 4, nonzero=True)
        assert (p * q).degree == p.degree + q.degree


def test_zero_degree_propagates_through_mul():
    p = Poly.variable(2, 0)
    assert (p * Poly.zero(2)).degree is NEG_INF


def test_field_and_arity_mismatch_raise():
    p = Poly.variable(2, 0)
    q = Poly.variable(3, 0)
    with pytest.raises(ValueError):
        p + q
    r = Poly.variable(2, 0, FIELD_QI)
    with pytest.raises(ValueError):
        p * r
    with pytest.raises(ValueError):
        p.scale(r.coefficient((1, 0)))  # Qi scalar into a Q poly


def test_poly_is_immutable():
    p = Poly.variable(2, 0)
    with pytest.raises(AttributeError):
        p.arity = 3
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = Fraction(2)


def test_coordinates_round_trip():
    rng = random.Random(53)
    basis = filtered_basis(2, 5)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(10):
            p = random_poly(rng, 2, 5, field)
            coords = scalar_coordinates(p, basis)
            assert from_coordinates(coords, basis, field) == p
            # the int form: p's stored ints at their positions, over its den
            ints, den = coordinates(p, basis)
            stored, p_den = p.integer_form
            assert den == p_den and len(ints) == len(basis)
            assert {basis.monomials[i]: n for i, n in enumerate(ints)
                    if n != INTEGERS[field].zero} == stored


def test_from_coordinates_refuses_scalars_of_another_field():
    basis = homogeneous_basis(2, 1)
    for coords, field in (([GaussianRational(1, 1), 0], FIELD_Q),
                          ([Fraction(1, 2), 0], FIELD_QI), ([0.5, 0], FIELD_Q)):
        with pytest.raises(ValueError, match=f"scalars of field {field}"):
            from_coordinates(coords, basis, field)
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        from_coordinates([Fraction(1, 2)], basis)
    # zero coordinates are left out, whatever their type
    assert from_coordinates([0, GaussianRational(0, 0)], basis, FIELD_Q) == Poly.zero(2)


def test_coordinates_overflow():
    basis = homogeneous_basis(2, 2)
    with pytest.raises(BasisOverflowError):
        coordinates(Poly.constant(2, 4), basis)


def test_index_codes_and_coordinates_agree_on_every_monomial():
    for arity in (1, 2, 3, 4):
        for kind, make in ((HOMOGENEOUS, homogeneous_basis), ("filtered", filtered_basis)):
            for degree in range(5):
                basis = make(arity, degree)
                assert len(basis.codes) == len(set(basis.codes)) == len(basis)
                for i, (m, code) in enumerate(zip(basis.monomials, basis.codes)):
                    assert code == polyring.monomial_code(m)
                    assert polyring.code_exponents(code, arity) == m
                    assert basis.index(m) == basis.index(list(m)) == basis._positions[code] == i
                    unit = scalar_coordinates(Poly.monomial(arity, m), basis)
                    assert unit.index(1) == i and sum(unit) == 1
                # outside: one degree up, and an exponent past the field
                # width, whose code is that of a basis monomial when arity > 1
                outside = [(degree + 1,) + (0,) * (arity - 1),
                           (0,) * (arity - 1) + (1 << polyring.EXPONENT_BITS,)]
                if arity > 1:
                    assert polyring.monomial_code(outside[1]) == polyring.monomial_code(
                        (0,) * (arity - 2) + (1, 0))
                for m in outside:
                    with pytest.raises(KeyError):
                        basis.index(m)
                    with pytest.raises(BasisOverflowError) as raised:
                        coordinates(Poly.monomial(arity, m), basis)
                    assert str(raised.value) == (
                        f"monomial {m} of the polynomial falls outside the target basis "
                        f"(Basis(arity={arity}, kind={kind!r}, degree={degree}))")
    with pytest.raises(ValueError, match="below 32768"):
        Basis(2, HOMOGENEOUS, polyring.CODE_DEGREE_LIMIT)


def test_extended_basis_is_the_filtered_basis_one_degree_up():
    for arity in (1, 2, 3, 4):
        basis = filtered_basis(arity, 0)
        for degree in range(9):
            grown, expected = basis.extended(), filtered_basis(arity, degree + 1)
            assert (grown.arity, grown.kind, grown.degree) == (arity, "filtered", degree + 1)
            assert grown.monomials == expected.monomials and grown.codes == expected.codes
            assert list(grown._positions.items()) == list(expected._positions.items())
            assert [grown.index(m) for m in expected] == list(range(len(expected)))
            assert repr(grown) == repr(expected)
            # the basis it grew from keeps its own position map
            assert list(basis._positions.values()) == list(range(len(basis)))
            # an exponent past the field width whose code is a basis monomial's
            aliased = (0,) * (arity - 1) + (1 << polyring.EXPONENT_BITS,)
            if arity > 1:
                assert polyring.monomial_code(aliased) in grown._positions
            with pytest.raises(KeyError):
                grown.index(aliased)
            with pytest.raises(KeyError):
                grown.index((degree + 2,) + (0,) * (arity - 1))
            basis = grown
        with pytest.raises(ValueError, match="only a filtered basis extends"):
            homogeneous_basis(arity, 3).extended()


def test_poly_json_round_trip():
    rng = random.Random(59)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(20):
            p = random_poly(rng, 3, 4, field)
            assert poly_from_json(poly_to_json(p)) == p


def test_poly_json_schema_shape():
    p = Poly.monomial(2, (2, 0), Fraction(3, 2)) - Poly.constant(2, 1)
    payload = poly_to_json(p)
    assert payload["arity"] == 2
    assert payload["field"] == "Q"
    assert payload["terms"][0] == {"exps": [0, 0], "coeff": {"num": "-1", "den": "1"}}
    assert payload["terms"][1] == {"exps": [2, 0], "coeff": {"num": "3", "den": "2"}}


@pytest.mark.parametrize("payload, match", [
    ({"num": "1", "den": "0"}, "denominator must be positive"),
    ({"num": "1", "den": "-2"}, "denominator must be positive"),
    ({"num": "0x10", "den": "1"}, "decimal integer string"),
    ({"num": " 12", "den": "1"}, "decimal integer string"),
    ({"num": "1_000", "den": "1"}, "decimal integer string"),
    ({"num": 3, "den": "1"}, "decimal integer string"),
    ({"num": "1"}, "expected a rational"),
])
def test_poly_from_json_refuses_a_malformed_rational(payload, match):
    obj = {"arity": 1, "field": "Q", "terms": [{"exps": [2], "coeff": payload}]}
    with pytest.raises(ValueError, match=match):
        poly_from_json(obj)


def test_poly_from_json_refuses_a_rational_under_qi():
    obj = {"arity": 1, "field": "Qi", "terms": [{"exps": [2], "coeff": {"num": "1", "den": "1"}}]}
    with pytest.raises(ValueError, match="expected a Gaussian rational"):
        poly_from_json(obj)


def test_poly_from_json_refuses_a_duplicate_exponent_tuple():
    one = {"num": "1", "den": "1"}
    obj = {"arity": 2, "field": "Q",
           "terms": [{"exps": [1, 0], "coeff": one}, {"exps": [1, 0], "coeff": one}]}
    with pytest.raises(ValueError, match="may occur twice"):
        poly_from_json(obj)


@pytest.mark.parametrize("exps", [[True], [1.0], ["1"], [-1]])
def test_poly_from_json_refuses_a_non_int_exponent(exps):
    obj = {"arity": 1, "field": "Q", "terms": [{"exps": exps, "coeff": {"num": "1", "den": "1"}}]}
    with pytest.raises(ValueError, match="non-negative ints"):
        poly_from_json(obj)


@pytest.mark.parametrize("obj", [
    None,
    {"arity": 1, "field": "Q"},
    {"arity": True, "field": "Q", "terms": []},
    {"arity": 1, "field": "R", "terms": []},
    {"arity": 1, "field": "Q", "terms": [{"exps": [1]}]},
    {"arity": 1, "field": "Q", "terms": {"exps": [1]}},
])
def test_poly_from_json_refuses_a_malformed_object(obj):
    with pytest.raises(ValueError):
        poly_from_json(obj)


def test_poly_arithmetic_builds_no_scalar(monkeypatch):
    # the certificate of the benchmark's Dirichlet job, f = psi*q + h with h
    # harmonic, is computed in ints: with every scalar constructor that
    # polyring uses refused, psi*q, laplacian(h) and f - h - psi*q agree
    names = ("x", "y", "z")
    psi = parse_polynomial("4/9*x^2+y^2+9/25*z^2-1", names)
    f = parse_polynomial("(3*x+y*z+2)^8", names)
    q = solve_by_degree(psi, f.laplacian())
    h = f - psi * q
    w = parse_polynomial("(x+(2-i)*y*z-1/3)^4", names, FIELD_QI)

    def compute():
        return [psi * q, h.laplacian(), f - h - psi * q, w * w, (w - w.scale(2)).laplacian()]

    expected = compute()

    def refuse(*args):
        raise AssertionError("polynomial arithmetic built a field scalar")

    for name in ("from_integer", "as_scalar", "Fraction", "GaussianRational"):
        monkeypatch.setattr(polyring, name, refuse)
    got = compute()
    assert got == expected
    assert [list(p.integer_form[0]) for p in got] == [list(p.integer_form[0]) for p in expected]
    assert len(h.integer_form[0]) > 400 and not got[1] and not got[2]
