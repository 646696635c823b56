import math
import random
from fractions import Fraction

import pytest

from fischerlab import (
    BasisOverflowError,
    FIELD_Q,
    FIELD_QI,
    FloatEvaluationError,
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
    monomial_basis,
    poly_from_json,
    poly_to_json,
    rank_profile,
    squared_norm,
)
from fischerlab.polyring import check_slice_dimension
from helpers import random_poly, random_scalar


def xy(arity=2):
    return Poly.variable(arity, 0), Poly.variable(arity, 1)


def test_homogeneous_basis_example():
    basis = monomial_basis(2, "homogeneous", 2)
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
        monomial_basis(0, "homogeneous", 2)
    with pytest.raises(ValueError):
        monomial_basis(2, "homogeneous", -1)
    with pytest.raises(ValueError):
        monomial_basis(2, "weighted", 2)


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


def test_canonical_form_identical_term_maps():
    x, y = xy()
    a = (x + y) * (x + y)
    b = x * x + x * y + x * y + y * y
    assert a == b
    assert dict(a.terms) == dict(b.terms)
    assert all(c for c in a.terms.values())


def test_partial_derivative_examples():
    x, y = xy()
    cubic = Poly.monomial(2, (3, 1))
    assert cubic.diff(0) == Poly.monomial(2, (2, 1), 3)
    assert Poly.monomial(2, (3, 0)).diff(1) == Poly.zero(2)
    assert Poly.monomial(2, (2, 0), Fraction(1, 2)).diff(0) == x


def test_partial_derivative_axis_range():
    p = Poly.variable(2, 0)
    with pytest.raises(IndexError):
        p.diff(2)
    with pytest.raises(IndexError):
        p.diff(-1)


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


def test_evaluate_at_origin_is_constant_term():
    rng = random.Random(37)
    for _ in range(10):
        p = random_poly(rng, 3, 4)
        assert p.evaluate_exact((0, 0, 0)) == p.coefficient((0, 0, 0))


def test_exact_evaluation_is_ring_homomorphism():
    rng = random.Random(41)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(20):
            p = random_poly(rng, 2, 3, field)
            q = random_poly(rng, 2, 3, field)
            point = [random_scalar(rng, field) for _ in range(2)]
            assert (p * q).evaluate_exact(point) == p.evaluate_exact(
                point
            ) * q.evaluate_exact(point)
            assert (p + q).evaluate_exact(point) == p.evaluate_exact(
                point
            ) + q.evaluate_exact(point)


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
            coords = coordinates(p, basis)
            assert from_coordinates(coords, basis, field) == p


def test_coordinates_overflow():
    basis = homogeneous_basis(2, 2)
    with pytest.raises(BasisOverflowError):
        coordinates(Poly.constant(2, 4), basis)


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
