import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from fischerlab import (
    FIELD_Q,
    FIELD_QI,
    FischerOperator,
    FloatEvaluationError,
    InconsistentSystemError,
    NoBoundaryHitError,
    Poly,
    QuadricDomain,
    UnsolvableSliceError,
    boundary_mismatches,
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
    polyring,
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
    # both are read off psi, never taken from the caller
    for name in ("ellipsoidal", "semi_axes_squared"):
        with pytest.raises(TypeError):
            QuadricDomain(hyperbola.psi, (0.0, 0.0), **{name: ELLIPSE.semi_axes_squared})


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
    # dirichlet_solve checks nothing: verify_solution is the one check
    assert solution.verification is None
    record = verify_solution(solution, count=10, rng=random.Random(3))
    assert record.harmonic_exact and record.identity_exact


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


def test_verify_solution_detects_a_changed_coefficient_of_q():
    domain = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    f = parse_polynomial("(3*x+y*z+2)^4", ("x", "y", "z"))
    solution = dirichlet_solve(domain, f)
    assert verify_solution(solution, count=10, rng=random.Random(6)).identity_exact
    ints, den = solution.q.integer_form
    m = next(iter(ints))
    solution.q = solution.q + Poly.monomial(3, m, Fraction(1, den))
    assert solution.q.integer_form[0][m] != ints[m]
    record = verify_solution(solution, count=10, rng=random.Random(6))
    assert record.harmonic_exact and not record.identity_exact
    assert not record.passed


def test_solving_builds_no_decimal_string(monkeypatch):
    # q's report strings are built when a report reads them, not by a solve;
    # on the blocks (an ellipsoid), on a filtered slice and in ks_residual
    calls = []

    def spy(n):
        calls.append(n)
        return str(n)

    monkeypatch.setattr(polyring, "decimal_text", spy)
    xyz = ("x", "y", "z")
    ellipsoid = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    hyperboloid = QuadricDomain(parse_polynomial("x^2+y^2-z^2-1", xyz), (0.0, 0.0, 0.0))
    f = parse_polynomial("(3*x+y*z+2)^4", xyz)
    solutions = [dirichlet_solve(ellipsoid, f), dirichlet_solve(hyperboloid, f)]
    ks_residual(ellipsoid)
    assert calls == []
    for solution in solutions:
        assert solution.q and solution.q.decimal_terms
    assert calls


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
    mismatches = boundary_mismatches(f, solution.h, points)
    # the report keeps the absolute figure, here above the tolerance itself
    assert record.boundary_max_error == max(error for error, _ in mismatches)
    assert record.boundary_max_error > 1e-9
    assert all(error < 1e-9 * scale for error, scale in mismatches)
    # an h off by 1e-6 of the scale fails at every sample
    shift = Fraction(max(scale for _, scale in mismatches) * 1e-6)
    shifted = solution.h + Poly.constant(3, shift)
    for error, scale in boundary_mismatches(f, shifted, points):
        assert not error < 1e-9 * scale
    solution.h = shifted
    assert not verify_solution(solution, count=100, rng=random.Random(1)).passed


def test_boundary_mismatch_is_evaluate_and_the_term_sums():
    rng = random.Random(19)
    for _ in range(20):
        f, h = random_poly(rng, 3, 5), random_poly(rng, 3, 5)
        point = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        # bit for bit: the same floats summed in the same order
        assert boundary_mismatches(f, h, [point]) == [_term_by_term_mismatch(f, h, point)]
        assert boundary_mismatches(f, h, [point])[0][0] == abs(
            f.evaluate(point) - h.evaluate(point))


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
    record = verify_solution(solution, count=5, rng=random.Random(2))
    assert record.harmonic_exact and record.identity_exact


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
    # an indefinite quadratic part: fischer.solve_quotient takes one solve
    sizes = _recording_solve(monkeypatch, fischer)
    # laplacian(x^2 - y^2) = 0: the degree-0 block is singular here
    hyperbola = QuadricDomain(X * X - Y * Y - Poly.constant(2, 1), (0.0, 0.0))
    f = hyperbola.psi * (X * Y + X * X) + X * X * X - (X * Y * Y).scale(3)
    solution = dirichlet_solve(hyperbola, f)
    assert sizes == [len(filtered_basis(2, 2))]
    assert (solution.q, solution.h) == _filtered_solution(hyperbola, f)
    record = verify_solution(solution, count=5, rng=random.Random(4))
    assert record.harmonic_exact and record.identity_exact


@pytest.mark.parametrize("text, names, interior", [
    ("1-x^2-y^2", ("x", "y"), (2, 0)),
    ("x^2-1", ("x", "y"), (0, 0)),
    ("x^2+y^2+x-3", ("x", "y"), (0, 0)),
    ("x^2+y^2-1", ("x", "y", "z"), (0, 0, 0)),
], ids=["outside-a-disk", "strip", "shifted-disk", "cylinder"])
def test_semidefinite_quadrics_match_the_filtered_solve(monkeypatch, text, names, interior):
    domain = QuadricDomain(parse_polynomial(text, names), interior)
    assert fischer.has_semidefinite_top_form(domain.psi) and not domain.ellipsoidal
    rng = random.Random(len(text) + len(names))
    for _ in range(6):
        f = random_poly(rng, len(names), rng.randint(2, 7), nonzero=True)
        _assert_matches_filtered_solve(domain, f)
    # one homogeneous block per degree of laplacian(f), the top one first
    sizes = _recording_solve(monkeypatch, fischer)
    f = parse_polynomial("(x+2*y-1)^5", names)
    dirichlet_solve(domain, f)
    assert sizes == [len(homogeneous_basis(len(names), k)) for k in range(3, -1, -1)]


def test_inconsistent_block_fails_closed(monkeypatch):
    def inconsistent(matrix, rhs):
        raise InconsistentSystemError("right-hand side is outside the column space")

    monkeypatch.setattr(fischer, "solve", inconsistent)
    with pytest.raises(UnsolvableSliceError):
        dirichlet_solve(ELLIPSE, X * X)


def _sequential_samples(domain, count, tol=1e-12, rng=None):
    # boundary_samples one ray at a time, each evaluation its own call: the
    # loop that the rounds replace
    psi = domain.psi
    d = domain.arity
    origin = domain.interior_point
    c = psi.evaluate(origin)
    quadratic_part = psi.homogeneous_component(2)
    points = []
    attempts = 0
    max_attempts = max(64 * count, 256)
    while len(points) < count:
        if attempts >= max_attempts:
            raise NoBoundaryHitError(
                f"no boundary crossing after {attempts} ray attempts "
                f"({len(points)}/{count} points found)"
            )
        attempts += 1
        direction = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(sum(v * v for v in direction))
        if norm < 1e-9:
            continue
        direction = [v / norm for v in direction]
        a = quadratic_part.evaluate(direction)
        shifted = [o + v for o, v in zip(origin, direction)]
        b = psi.evaluate(shifted) - c - a
        t = dirichlet._ray_boundary_parameter(a, b, c)
        if t is None:
            continue
        slope = 2.0 * a * t + b
        if slope != 0.0:
            point = [o + t * v for o, v in zip(origin, direction)]
            t -= psi.evaluate(point) / slope
        point = tuple(o + t * v for o, v in zip(origin, direction))
        if abs(psi.evaluate(point)) < tol:
            points.append(point)
    return points


def _sampled(sampler, domain, count, seed, tol):
    # the points as hex, or the error and its message; and the rng's state
    rng = random.Random(seed)
    try:
        outcome = [tuple(v.hex() for v in point)
                   for point in sampler(domain, count, tol, rng)]
    except (NoBoundaryHitError, FloatEvaluationError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, rng.getstate()


def _sampler_domains():
    rng = random.Random(43)
    one = Poly.constant(2, 1)
    for arity in (2, 2, 3, 3):
        domain = random_ellipsoid(rng, arity)
        interior = tuple(rng.uniform(-0.3, 0.3) for _ in range(arity))
        yield domain
        yield QuadricDomain(domain.psi, interior)
    for _ in range(3):
        k = rng.choice((Fraction(1, 3), 1, Fraction(7, 2)))
        yield QuadricDomain(X * X - (Y * Y).scale(k) - one, (0.0, rng.uniform(-2, 2)))
    x, y, z = (Poly.variable(3, i) for i in range(3))
    # most rays miss the hyperboloid, then ever fewer do, in rounds of one
    yield QuadricDomain(x * x + y * y - z * z - Poly.constant(3, 1), (0.0, 0.0, 0.0))
    # a few points, then NoBoundaryHitError with its count
    yield QuadricDomain(X * X - (Y * Y).scale(10**6) - one, (0.0, 0.0))
    yield QuadricDomain((squared_norm(2) + one).scale(-1), (0.0, 0.0))


@pytest.mark.parametrize("count", [1, 7, 100])
def test_rounds_of_rays_match_one_ray_at_a_time(count):
    for seed, domain in enumerate(_sampler_domains()):
        for tol in (1e-12, 1e-16):
            expected = _sampled(_sequential_samples, domain, count, seed, tol)
            assert _sampled(boundary_samples, domain, count, seed, tol) == expected


def test_rounds_of_rays_match_at_the_most_samples():
    x, y, z = (Poly.variable(3, i) for i in range(3))
    hyperboloid = QuadricDomain(x * x + y * y - z * z - Poly.constant(3, 1), (0.0, 0.0, 0.0))
    for domain in (ELLIPSE, hyperboloid):
        expected = _sampled(_sequential_samples, domain, dirichlet.MAX_SAMPLES, 7, 1e-12)
        assert len(expected[0]) == dirichlet.MAX_SAMPLES
        assert _sampled(boundary_samples, domain, dirichlet.MAX_SAMPLES, 7, 1e-12) == expected


def test_rounds_of_rays_overflow_on_the_same_inputs():
    # x^2 / 10^310 + y - 1: a ray with y falling and |x| growing crosses
    # psi = 0 near x = 1e155, where x^2 is beyond the float range
    psi = X.scale(Fraction(1, 10**310)) * X + Y - Poly.constant(2, 1)
    domain = QuadricDomain(psi, (0.0, 0.0))
    raised = 0
    for count in (1, 7, 100):
        for seed in range(6):
            outcome, state = _sampled(_sequential_samples, domain, count, seed, 1e-12)
            got, got_state = _sampled(boundary_samples, domain, count, seed, 1e-12)
            assert got == outcome
            if outcome[0] == "FloatEvaluationError":
                raised += 1
            else:
                assert got_state == state
    assert 0 < raised < 18


def _term_by_term_mismatch(f, h, point):
    # boundary_mismatches from each term's own float(c) * v**e product, one
    # polynomial and one point at a time
    values, scale = [], 1.0
    for p in (f, h):
        value, magnitude = (0j if p.field != FIELD_Q else 0.0), 0.0
        for m, c in p.terms.items():
            term = float(c)
            for v, e in zip(point, m):
                if e:
                    term *= v**e
            value += term
            magnitude += abs(term)
        values.append(value)
        scale = max(scale, magnitude)
    return abs(values[0] - values[1]), scale


def test_batched_mismatch_matches_one_point_at_a_time():
    rng = random.Random(47)
    for arity in (1, 2, 3):
        for _ in range(40):
            f, h = (random_poly(rng, arity, rng.randint(0, 7), max_terms=9) for _ in range(2))
            if rng.random() < 0.2:
                f = Poly.zero(arity)
            elif rng.random() < 0.2:
                h = Poly.constant(arity, Fraction(rng.randint(-9, 9), 7))
            points = [tuple(rng.choice((0.0, -0.0, 1e-200, -1e30, rng.uniform(-4, 4)))
                            for _ in range(arity)) for _ in range(rng.randint(1, 12))]
            got = boundary_mismatches(f, h, points)
            expected = [_term_by_term_mismatch(f, h, point) for point in points]
            assert [(e.hex(), s.hex()) for e, s in got] == \
                [(e.hex(), s.hex()) for e, s in expected]
    # tops that differ per axis: x^5 in f, y^4 in h
    f, h = X**5 + Y, (Y**4).scale(3) - X
    points = [(1.5, -0.25), (-3.0, 7.0)]
    assert boundary_mismatches(f, h, points) == [_term_by_term_mismatch(f, h, p) for p in points]


def test_boundary_check_holds_no_columns_of_h():
    # solve-q with other signs: h has 417 terms.  The peak of 651100 bytes
    # under tracemalloc (CPython 3.11) is that of the exact checks; holding
    # the float terms of h over the 100 points would add about a megabyte
    names = ("x", "y", "z")
    psi = parse_polynomial("4/9*x^2+y^2+9/25*z^2-1", names)
    f = parse_polynomial("(-3*x+1*y*z-2)^8", names)
    solution = dirichlet_solve(QuadricDomain(psi, (0, 0, 0)), f)
    tracemalloc.start()
    try:
        record = verify_solution(solution, rng=random.Random(40321))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.boundary_max_error == 2.3283064365386963e-09
    assert peak < 651_100 + 64 * 1024
