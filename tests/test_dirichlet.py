import random
from fractions import Fraction

import pytest

from fischerlab import (
    FIELD_QI,
    FischerOperator,
    InconsistentSystemError,
    NoBoundaryHitError,
    Poly,
    QuadricDomain,
    UnsolvableSliceError,
    boundary_mismatch,
    boundary_samples,
    coordinates,
    dirichlet,
    dirichlet_solve,
    fischer,
    filtered_basis,
    from_coordinates,
    homogeneous_basis,
    ks_residual,
    operator_matrix,
    parse_polynomial,
    solve,
    squared_norm,
    verify_solution,
)
from helpers import random_ellipsoid, random_poly

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
UNIT_CIRCLE = QuadricDomain.ellipsoid([1, 1])
ELLIPSE = QuadricDomain.ellipsoid([2, 1])  # x^2/4 + y^2 - 1


def test_ellipsoid_constructor():
    assert ELLIPSE.ellipsoidal
    assert ELLIPSE.semi_axes_squared == (Fraction(4), Fraction(1))
    assert ELLIPSE.psi == X.scale(Fraction(1, 4)) * X + Y * Y - Poly.constant(2, 1)


def test_ellipsoidal_detection_up_to_positive_scale():
    scaled = QuadricDomain(ELLIPSE.psi.scale(Fraction(7, 3)), (0.0, 0.0))
    assert scaled.ellipsoidal
    assert scaled.semi_axes_squared == (Fraction(4), Fraction(1))


def test_non_ellipsoidal_quadrics_detected():
    hyperbola = QuadricDomain(X * X - Y * Y - Poly.constant(2, 1), (0.0, 0.0))
    assert not hyperbola.ellipsoidal
    cross = QuadricDomain(X * Y - Poly.constant(2, 1), (0.0, 0.0))
    assert not cross.ellipsoidal
    strip = QuadricDomain(X * X - Poly.constant(2, 1), (0.0, 0.0))
    assert not strip.ellipsoidal  # misses the y axis term


def test_domain_validation():
    with pytest.raises(ValueError):
        QuadricDomain(X, (0.0, 0.0))  # degree 1
    with pytest.raises(ValueError):
        QuadricDomain(UNIT_CIRCLE.psi, (2.0, 0.0))  # psi > 0 there
    with pytest.raises(ValueError):
        QuadricDomain(UNIT_CIRCLE.psi, (0.0,))
    with pytest.raises(ValueError):
        QuadricDomain(Poly.variable(2, 0, FIELD_QI) ** 2, (0.0, 0.0))
    with pytest.raises(ValueError):
        QuadricDomain.ellipsoid([1, 0])


def test_dirichlet_ellipse_x_squared():
    solution = dirichlet_solve(ELLIPSE, X * X)
    assert solution.q == Poly.constant(2, Fraction(4, 5))
    expected_h = (X * X - Y * Y + Poly.constant(2, 1)).scale(Fraction(4, 5))
    assert solution.h == expected_h
    assert solution.verification.harmonic_exact
    assert solution.verification.identity_exact


def test_dirichlet_constant_data():
    solution = dirichlet_solve(UNIT_CIRCLE, Poly.constant(2, Fraction(7, 3)))
    assert solution.h == Poly.constant(2, Fraction(7, 3))
    assert solution.q == Poly.zero(2)


def test_dirichlet_harmonic_data():
    f = X * X - Y * Y
    solution = dirichlet_solve(ELLIPSE, f)
    assert solution.h == f
    assert solution.q == Poly.zero(2)


def test_dirichlet_rejects_field_and_arity_mismatch():
    with pytest.raises(ValueError):
        dirichlet_solve(ELLIPSE, Poly.variable(3, 0))
    with pytest.raises(ValueError):
        dirichlet_solve(ELLIPSE, Poly.variable(2, 0, FIELD_QI))


def test_dirichlet_unsolvable_slice_for_degenerate_quadric():
    # laplacian(x*y*c) = 0, so constants are unreachable
    saddle = QuadricDomain(X * Y - Poly.constant(2, 1), (0.0, 0.0))
    with pytest.raises(UnsolvableSliceError):
        dirichlet_solve(saddle, X * X)


def test_boundary_samples_on_unit_circle():
    points = boundary_samples(UNIT_CIRCLE, 4, tol=1e-12, rng=random.Random(2))
    assert len(points) == 4
    for point in points:
        assert abs(point[0] ** 2 + point[1] ** 2 - 1.0) < 1e-12


def test_boundary_samples_on_ellipse():
    points = boundary_samples(ELLIPSE, 25, tol=1e-12, rng=random.Random(3))
    for point in points:
        assert abs(ELLIPSE.psi.evaluate(point)) < 1e-12


def test_boundary_samples_empty_zero_set():
    # psi = -(x^2 + y^2 + 1) is negative everywhere: no boundary to hit
    empty = QuadricDomain(
        (squared_norm(2) + Poly.constant(2, 1)).scale(-1), (0.0, 0.0)
    )
    with pytest.raises(NoBoundaryHitError):
        boundary_samples(empty, 2, rng=random.Random(4))


def test_boundary_samples_are_bounded():
    points = boundary_samples(UNIT_CIRCLE, dirichlet.MAX_SAMPLES, rng=random.Random(5))
    assert len(points) == dirichlet.MAX_SAMPLES
    with pytest.raises(ValueError, match="sample count"):
        boundary_samples(UNIT_CIRCLE, dirichlet.MAX_SAMPLES + 1, rng=random.Random(5))


def test_boundary_samples_reproducible_with_seed():
    a = boundary_samples(ELLIPSE, 10, rng=random.Random(9))
    b = boundary_samples(ELLIPSE, 10, rng=random.Random(9))
    assert a == b


def test_verify_solution_passes_on_ellipse():
    solution = dirichlet_solve(ELLIPSE, X * X)
    record = verify_solution(solution, count=100, tol=1e-9, rng=random.Random(5))
    assert record.passed
    assert record.samples == 100
    assert record.boundary_max_error < 1e-9
    assert solution.verification is record


def test_verify_solution_detects_tampering():
    solution = dirichlet_solve(ELLIPSE, X * X)
    solution.h = solution.h + X
    record = verify_solution(solution, count=10, rng=random.Random(6))
    assert not record.identity_exact
    assert not record.passed


def test_boundary_check_is_relative_to_the_size_of_the_terms():
    # the terms of (3x + yz + 2)^8 reach ~3.5e6 on this ellipsoid, so the
    # float value of f - h misses 0 by ~4e-9 though both exact checks hold
    domain = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    f = parse_polynomial("(3*x+y*z+2)^8", ("x", "y", "z"))
    solution = dirichlet_solve(domain, f)
    record = verify_solution(solution, count=100, tol=1e-9, rng=random.Random(1))
    assert record.harmonic_exact and record.identity_exact
    assert record.passed
    points = boundary_samples(domain, 100, rng=random.Random(1))
    mismatches = [boundary_mismatch(f, solution.h, p) for p in points]
    # the report keeps the absolute figure, here above the tolerance itself
    assert record.boundary_max_error == max(error for error, _ in mismatches)
    assert record.boundary_max_error > 1e-9
    assert all(error < 1e-9 * scale for error, scale in mismatches)
    # an h off by 1e-6 of the scale fails at every sample
    shift = Fraction(max(scale for _, scale in mismatches) * 1e-6)
    shifted = solution.h + Poly.constant(3, shift)
    for point in points:
        error, scale = boundary_mismatch(f, shifted, point)
        assert not error < 1e-9 * scale
    solution.h = shifted
    assert not verify_solution(solution, count=100, rng=random.Random(1)).passed


def test_boundary_mismatch_is_evaluate_and_the_term_sums():
    rng = random.Random(19)
    for _ in range(20):
        f, h = random_poly(rng, 3, 5), random_poly(rng, 3, 5)
        point = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        sizes = [1.0]
        for p in (f, h):
            total = 0.0
            for term in p.float_terms(point):
                total += abs(term)
            sizes.append(total)
        # bit for bit: the same floats summed in the same order
        assert boundary_mismatch(f, h, point) == (
            abs(f.evaluate(point) - h.evaluate(point)), max(sizes)
        )


def test_verify_solution_exact_zero_error_when_h_equals_f():
    f = X * X - Y * Y
    solution = dirichlet_solve(ELLIPSE, f)
    record = verify_solution(solution, count=20, rng=random.Random(7))
    assert record.boundary_max_error == 0.0


def test_dirichlet_solution_is_deterministic():
    first = dirichlet_solve(ELLIPSE, X * X * Y + X)
    second = dirichlet_solve(ELLIPSE, X * X * Y + X)
    assert first.q == second.q
    assert first.h == second.h


def test_degree_preservation_on_ellipsoids():
    rng = random.Random(8)
    for _ in range(30):
        domain = random_ellipsoid(rng, 2)
        f = random_poly(rng, 2, rng.randint(0, 8), nonzero=True)
        solution = dirichlet_solve(domain, f)
        assert solution.h.degree <= f.degree
        assert not solution.h.laplacian()


def test_ks_residual_unit_circle():
    report = ks_residual(UNIT_CIRCLE)
    assert report.proportional_to_psi
    assert report.factor == 1
    assert report.residual == UNIT_CIRCLE.psi


def test_ks_residual_ellipse():
    report = ks_residual(ELLIPSE)
    assert report.proportional_to_psi
    assert report.factor == Fraction(8, 5)
    assert report.residual == ELLIPSE.psi.scale(Fraction(8, 5))


def test_ks_residual_sphere_factor_is_radius_squared():
    radius = Fraction(3, 2)
    sphere = QuadricDomain.ellipsoid([radius, radius, radius])
    report = ks_residual(sphere)
    assert report.proportional_to_psi
    # residual is |x|^2 - r^2 = r^2 * (|x|^2 / r^2 - 1)
    assert report.factor == radius * radius


def test_ks_residual_requires_ellipsoidal():
    hyperbola = QuadricDomain(X * X - Y * Y - Poly.constant(2, 1), (0.0, 0.0))
    with pytest.raises(ValueError):
        ks_residual(hyperbola)


def _filtered_solution(domain, f):
    # one solve on the whole filtered slice of degree deg f - 2
    if not f.laplacian():
        return Poly.zero(f.arity), f
    source = filtered_basis(f.arity, f.degree - 2)
    matrix = operator_matrix(FischerOperator(domain.psi), source, source)
    q = from_coordinates(solve(matrix, coordinates(f.laplacian(), source)), source)
    return q, f - domain.psi * q


def _assert_matches_filtered_solve(domain, f):
    solution = dirichlet_solve(domain, f)
    q, h = _filtered_solution(domain, f)
    assert solution.q == q
    assert solution.h == h
    assert solution.verification.harmonic_exact
    assert solution.verification.identity_exact


@pytest.mark.parametrize("arity", [2, 3])
def test_degree_wise_solve_matches_filtered_solve_on_random_ellipsoids(arity):
    rng = random.Random(40 + arity)
    for _ in range(12):
        domain = random_ellipsoid(rng, arity)
        f = random_poly(rng, arity, rng.randint(2, 7), nonzero=True)
        _assert_matches_filtered_solve(domain, f)


def test_degree_wise_solve_matches_filtered_solve_on_scaled_psi():
    rng = random.Random(44)
    for base, scale in ((ELLIPSE, Fraction(7, 3)), (random_ellipsoid(rng, 3), 5)):
        domain = QuadricDomain(base.psi.scale(scale), (0.0,) * base.arity)
        assert domain.ellipsoidal
        f = random_poly(rng, base.arity, 6, nonzero=True)
        _assert_matches_filtered_solve(domain, f)


@pytest.mark.parametrize(
    "text", ["7/3", "x^2 - y^2 + 3*x*y - 2*z", "x^2", "2*x*y - 1/3*z^2 + x"]
)
def test_degree_wise_solve_matches_filtered_solve_on_low_degree_data(text):
    domain = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    _assert_matches_filtered_solve(domain, parse_polynomial(text, ("x", "y", "z")))


def test_degree_wise_solve_matches_filtered_solve_at_degree_10():
    domain = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    f = parse_polynomial("(x+y*z-2)^5 + 3*x^7*z - y^4", ("x", "y", "z"))
    assert f.degree == 10
    _assert_matches_filtered_solve(domain, f)


def _recording_solve(monkeypatch, module):
    sizes = []

    def recording(matrix, rhs):
        sizes.append(matrix.rows)
        return solve(matrix, rhs)

    monkeypatch.setattr(module, "solve", recording)
    return sizes


def test_ellipsoids_solve_no_system_larger_than_the_top_slice(monkeypatch):
    # the ellipsoid blocks are solved by fischer.solve_by_degree
    sizes = _recording_solve(monkeypatch, fischer)
    domain = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    f = parse_polynomial("(3*x+y*z+2)^4", ("x", "y", "z"))
    dirichlet_solve(domain, f)
    assert sizes == [len(homogeneous_basis(3, k)) for k in range(6, -1, -1)]


def test_other_quadrics_keep_the_filtered_solve(monkeypatch):
    sizes = _recording_solve(monkeypatch, dirichlet)
    # laplacian(x^2 - y^2) = 0: the degree-0 block is singular here
    hyperbola = QuadricDomain(X * X - Y * Y - Poly.constant(2, 1), (0.0, 0.0))
    f = hyperbola.psi * (X * Y + X * X) + X * X * X - (X * Y * Y).scale(3)
    solution = dirichlet_solve(hyperbola, f)
    assert sizes == [len(filtered_basis(2, 2))]
    assert (solution.q, solution.h) == _filtered_solution(hyperbola, f)
    assert solution.verification.harmonic_exact
    assert solution.verification.identity_exact


def test_inconsistent_block_fails_closed(monkeypatch):
    def inconsistent(matrix, rhs):
        raise InconsistentSystemError("right-hand side is outside the column space")

    monkeypatch.setattr(fischer, "solve", inconsistent)
    with pytest.raises(UnsolvableSliceError):
        dirichlet_solve(ELLIPSE, X * X)
