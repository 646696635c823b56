"""Polynomial Dirichlet solutions on quadric-bounded domains.

A domain is described by a degree-2 defining polynomial psi with the
convention psi < 0 inside (fixed by a user-supplied interior point).  For
data f the solver finds q with laplacian(psi*q) == laplacian(f) of degree
at most deg f - 2, by fischer.solve_quotient as in decompose: block by
block when the quadratic part of psi is semidefinite, else by one solve on
filtered(deg f - 2), and sets h = f - psi*q.  verify_solution is the one
check of a solution: it rechecks f = psi*q + h and that h is harmonic,
exactly, and that |f - h| is small at sampled boundary points, relative to
the size of the terms of f and h.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .errors import InconsistentSystemError, NoBoundaryHitError, UnsolvableSliceError
from .fischer import ellipsoidal_form, solve_quotient
# operator_matrix and solve stay importable here: the benchmark's tracer wraps both
from .fischer import operator_matrix, solve  # noqa: F401
from .polyring import Poly, evaluate_columns, float_sums, squared_norm
from .scalars import FIELD_Q


class QuadricDomain:
    """Region bounded by the zero set of a degree-2 polynomial.

    The interior point both orients the domain (psi < 0 inside) and anchors
    the boundary ray sampler.  ellipsoidal is detected from psi: a diagonal
    positive quadratic form minus a positive constant, up to positive scale;
    semi_axes_squared holds the squared semi-axes then, else None.
    """

    def __init__(self, psi, interior_point):
        if psi.field != FIELD_Q:
            raise ValueError("quadric domains use real (field Q) coefficients")
        if psi.degree != 2:
            raise ValueError(f"defining polynomial must have degree 2, got {psi.degree}")
        point = tuple(float(v) for v in interior_point)
        if len(point) != psi.arity:
            raise ValueError(f"interior point has {len(point)} coordinates, arity is {psi.arity}")
        if not psi.evaluate(point) < 0:
            raise ValueError("interior point must satisfy psi < 0")
        self.psi = psi
        self.interior_point = point
        self.semi_axes_squared = ellipsoidal_form(psi)
        self.ellipsoidal = self.semi_axes_squared is not None

    @property
    def arity(self):
        return self.psi.arity

    @classmethod
    def ellipsoid(cls, semi_axes):
        """Axis-aligned ellipsoid sum(x_i^2 / a_i^2) = 1 centered at the origin."""
        semi_axes = [Fraction(a) for a in semi_axes]
        if any(a <= 0 for a in semi_axes):
            raise ValueError("semi-axes must be positive")
        arity = len(semi_axes)
        terms = {}
        for i, a in enumerate(semi_axes):
            m = [0] * arity
            m[i] = 2
            terms[tuple(m)] = 1 / (a * a)
        terms[(0,) * arity] = Fraction(-1)
        return cls(Poly(arity, FIELD_Q, terms), (0.0,) * arity)


VerificationRecord = namedtuple(
    "VerificationRecord", "harmonic_exact identity_exact boundary_max_error samples passed")


class DirichletSolution:
    """Harmonic h matching f on the boundary, with quotient q = (f - h)/psi.

    verification and boundary_points hold the record and the points of the
    last verify_solution run, None and () before the first."""

    def __init__(self, domain, f, h, q):
        self.domain = domain
        self.f = f
        self.h = h
        self.q = q
        self.verification = None
        self.boundary_points = ()


def dirichlet_solve(domain, f):
    """Construct the polynomial Dirichlet solution for data f.

    fischer.solve_quotient finds q in filtered(deg f - 2), where decompose
    starts too; the map q -> laplacian(psi*q) sends it to itself, and is
    bijective when the quadratic part of psi is semidefinite, as on an
    ellipsoid, so q is unique and deg h <= deg f for h = f - psi*q.  Nothing
    is checked here: the solution's verification is None until
    verify_solution runs the exact checks and the boundary check.  Raises
    UnsolvableSliceError when the system is inconsistent, which needs an
    indefinite quadratic part.
    """
    psi = domain.psi
    if f.field != FIELD_Q:
        raise ValueError("boundary data must use field Q")
    if f.arity != psi.arity:
        raise ValueError(f"arity mismatch: domain {psi.arity} vs f {f.arity}")
    try:
        q = solve_quotient(psi, f)
    except InconsistentSystemError:
        raise UnsolvableSliceError(
            "the square slice system is inconsistent for this quadric") from None
    return DirichletSolution(domain=domain, f=f, h=f - psi * q, q=q)


def _ray_boundary_parameter(a, b, c):
    # smallest t > 0 with a*t^2 + b*t + c == 0, or None
    if a == 0.0:
        if b == 0.0:
            return None
        t = -c / b
        return t if t > 0.0 else None
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    q = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    candidates = [q / a]
    if q != 0.0:
        candidates.append(c / q)
    positive = [t for t in candidates if t > 0.0]
    return min(positive) if positive else None


# 100 times the CLI's default; each sample costs a fraction of a millisecond
MAX_SAMPLES = 10_000


def boundary_samples(domain, count, tol=1e-12, rng=None):
    """Sample boundary points by shooting rays from the interior point.

    Along a direction v the defining polynomial restricts to a quadratic in
    the ray parameter; its smallest positive root, polished by one Newton
    step, gives the crossing.  Directions failing to hit the boundary are
    redrawn up to a bound, after which NoBoundaryHitError is raised (this is
    how geometrically empty or unreachable boundaries surface).  Rays go
    in rounds of as many as points are missing, each stage of a round one
    evaluate_columns call: a ray adds at most one point, so no round goes
    past the last one needed, and draws, points and errors are unchanged.
    """
    if not 1 <= count <= MAX_SAMPLES:
        raise ValueError(f"the sample count must be from 1 to {MAX_SAMPLES}, got {count}")
    if rng is None:
        rng = random.Random()
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
        size = min(count - len(points), max_attempts - attempts)
        attempts += size
        directions = []
        for _ in range(size):
            direction = [rng.gauss(0.0, 1.0) for _ in range(d)]
            norm = math.sqrt(sum(v * v for v in direction))
            if norm >= 1e-9:
                directions.append([v / norm for v in direction])
        shifted = [[o + v for o, v in zip(origin, w)] for w in directions]
        rays = []
        for w, a, value in zip(directions, evaluate_columns(quadratic_part, directions),
                               evaluate_columns(psi, shifted)):
            b = value - c - a
            t = _ray_boundary_parameter(a, b, c)
            if t is not None:
                rays.append((w, t, 2.0 * a * t + b))
        newton = [[o + t * v for o, v in zip(origin, w)] for w, t, slope in rays if slope != 0.0]
        corrections = iter(evaluate_columns(psi, newton))
        crossings = []
        for w, t, slope in rays:
            if slope != 0.0:
                t -= next(corrections) / slope
            crossings.append(tuple(o + t * v for o, v in zip(origin, w)))
        values = evaluate_columns(psi, crossings)
        points += [point for point, value in zip(crossings, values) if abs(value) < tol]
    return points


def boundary_mismatches(f, h, points):
    """[(|f - h|, scale)] at each point, the scale that tolerances multiply.

    The scale is max(1, sum of |terms of f|, sum of |terms of h|) at the
    point: floating-point evaluation of a polynomial whose terms cancel
    loses accuracy in proportion to their size, not to the result.  f and h
    are each evaluated over their own power table (polyring.float_sums).
    """
    return [(abs(f_value - h_value), max(1.0, f_size, h_size))
            for (f_value, f_size), (h_value, h_size)
            in zip(float_sums(f, points), float_sums(h, points))]


def verify_solution(solution, count=100, tol=1e-9, rng=None, root_tol=1e-12):
    """Recheck a solution exactly and against sampled boundary points.

    The exact checks are recomputed from the stored polynomials, independent
    of how they were produced; the boundary check evaluates f and h
    separately in floating point and records the largest |f - h|.  A sample
    passes when |f - h| < tol * scale, with the scale of boundary_mismatches
    (rays cast in rounds, f and h each over its own power table, with no
    cache); the updated record and the sampled points are stored on the
    solution, and the record is returned.
    """
    harmonic_exact = not solution.h.laplacian()
    identity_exact = not (solution.f - solution.h - solution.domain.psi * solution.q)
    points = boundary_samples(solution.domain, count, root_tol, rng)
    max_error = 0.0
    within = True
    for error, scale in boundary_mismatches(solution.f, solution.h, points):
        max_error = max(max_error, error)
        within = within and error < tol * scale
    record = VerificationRecord(
        harmonic_exact=harmonic_exact,
        identity_exact=identity_exact,
        boundary_max_error=max_error,
        samples=len(points),
        passed=harmonic_exact and identity_exact and within,
    )
    solution.verification = record
    solution.boundary_points = tuple(points)
    return record


class ResidualReport(namedtuple("ResidualReport", "residual proportional_to_psi factor")):
    """Outcome of the squared-norm residual check on an ellipsoidal domain."""

    __slots__ = ()


def ks_residual(domain):
    """Solve for data |x|^2 and test whether |x|^2 - h is a multiple of psi.

    For ellipsoidal domains the residual is expected to be exactly c * psi;
    the report carries the residual, the verdict, and the factor c.
    """
    if not domain.ellipsoidal:
        raise ValueError("the residual check is defined for ellipsoidal domains")
    f = squared_norm(domain.arity, FIELD_Q)
    solution = dirichlet_solve(domain, f)
    residual = f - solution.h
    psi = domain.psi
    factor = None
    proportional = False
    if residual:
        reference, psi_coeff = psi.sorted_terms()[-1]
        factor = residual.coefficient(reference) / psi_coeff
        proportional = not (residual - psi.scale(factor))
        if not proportional:
            factor = None
    return ResidualReport(
        residual=residual, proportional_to_psi=proportional, factor=factor
    )
