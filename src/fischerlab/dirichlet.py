"""Polynomial Dirichlet solutions on quadric-bounded domains.

A domain is described by a degree-2 defining polynomial psi with the
convention psi < 0 inside (fixed by a user-supplied interior point).  For
data f the solver finds q with laplacian(psi*q) == laplacian(f) on the
square filtered slice, sets h = f - psi*q, and verifies: h is exactly
harmonic, the identity f - h == psi*q holds exactly, and |f - h| is small
at sampled boundary points, relative to the size of the terms of f and h.

For ellipsoidal psi = P2 + c0 (P2 a positive diagonal form, c0 < 0) the
slice matrix is block-triangular by degree with nonsingular homogeneous
blocks q_k -> laplacian(P2*q_k) (Fischer), so q is unique, deg h <= deg f,
and q is found one homogeneous degree at a time from the top down.  Other
quadrics, whose blocks can be singular, take one solve on the whole
filtered slice.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentSystemError, NoBoundaryHitError, UnsolvableSliceError
from .fischer import FischerOperator, operator_matrix
from .linalg import solve
from .polyring import (
    Poly,
    check_slice_dimension,
    coordinates,
    filtered_basis,
    from_coordinates,
    homogeneous_basis,
    squared_norm,
)
from .scalars import FIELD_Q


def _ellipsoidal_form(psi):
    """Return the squared semi-axes when psi is a positive multiple of
    sum(x_i^2 / a_i^2) - 1, else None."""
    diag = {}
    const = None
    for m, c in psi.terms.items():
        total = sum(m)
        if total == 0:
            const = c
        elif total == 2 and max(m) == 2:
            diag[m.index(2)] = c
        else:
            return None
    if const is None or const >= 0 or len(diag) != psi.arity:
        return None
    if any(c <= 0 for c in diag.values()):
        return None
    return tuple(-const / diag[i] for i in range(psi.arity))


@dataclass(frozen=True)
class QuadricDomain:
    """Region bounded by the zero set of a degree-2 polynomial.

    The interior point both orients the domain (psi < 0 inside) and anchors
    the boundary ray sampler.  ellipsoidal is detected from psi: a diagonal
    positive quadratic form minus a positive constant, up to positive scale.
    """

    psi: Poly
    interior_point: tuple
    ellipsoidal: bool = None
    semi_axes_squared: tuple = None

    def __post_init__(self):
        if self.psi.field != FIELD_Q:
            raise ValueError("quadric domains use real (field Q) coefficients")
        if self.psi.degree != 2:
            raise ValueError(f"defining polynomial must have degree 2, got {self.psi.degree}")
        point = tuple(float(v) for v in self.interior_point)
        if len(point) != self.psi.arity:
            raise ValueError(
                f"interior point has {len(point)} coordinates, arity is {self.psi.arity}"
            )
        if not self.psi.evaluate(point) < 0:
            raise ValueError("interior point must satisfy psi < 0")
        axes = _ellipsoidal_form(self.psi)
        object.__setattr__(self, "interior_point", point)
        object.__setattr__(self, "ellipsoidal", axes is not None)
        object.__setattr__(self, "semi_axes_squared", axes)

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


@dataclass(frozen=True)
class VerificationRecord:
    harmonic_exact: bool
    identity_exact: bool
    boundary_max_error: float | None
    samples: int
    passed: bool


@dataclass
class DirichletSolution:
    """Harmonic h matching f on the boundary, with quotient q = (f - h)/psi."""

    domain: QuadricDomain
    f: Poly
    h: Poly
    q: Poly
    verification: VerificationRecord


def _solve_by_degree(psi, lap_f, top):
    # psi = P2 + c0, so the degree-k part of laplacian(psi*q) is
    # laplacian(P2*q_k) + c0*laplacian(q_{k+2}): solve for q_top, ..., q_0
    arity = psi.arity
    c0 = psi.coefficient((0,) * arity)
    block = FischerOperator(psi.homogeneous_component(2))
    zero = Poly.zero(arity, FIELD_Q)
    parts = [zero] * (top + 3)
    for k in range(top, -1, -1):
        basis = homogeneous_basis(arity, k)
        rhs = lap_f.homogeneous_component(k) - parts[k + 2].laplacian().scale(c0)
        x = solve(operator_matrix(block, basis, basis), coordinates(rhs, basis))
        parts[k] = from_coordinates(x, basis, FIELD_Q)
    return sum(parts, zero)


def dirichlet_solve(domain, f):
    """Construct the polynomial Dirichlet solution for data f.

    Solves laplacian(psi*q) == laplacian(f) with q in the filtered slice of
    degree deg f - 2; since deg psi = 2 this slice maps to itself.  For
    ellipsoidal psi the square matrix is nonsingular and the solve runs by
    back-substitution over homogeneous degrees, one block of the top slice's
    size at most; other quadrics solve the whole filtered slice at once,
    with free variables pinned to zero.  Raises UnsolvableSliceError when
    the system is inconsistent (possible only for non-ellipsoidal quadrics).
    """
    psi = domain.psi
    if f.field != FIELD_Q:
        raise ValueError("boundary data must use field Q")
    if f.arity != psi.arity:
        raise ValueError(f"arity mismatch: domain {psi.arity} vs f {f.arity}")
    lap_f = f.laplacian()
    if not lap_f:
        q = Poly.zero(f.arity, f.field)
    else:
        # the filtered slice of q, whole or as its homogeneous blocks
        check_slice_dimension(f.arity, f.degree - 2)
        try:
            if domain.ellipsoidal:
                q = _solve_by_degree(psi, lap_f, f.degree - 2)
            else:
                source = filtered_basis(f.arity, f.degree - 2)
                matrix = operator_matrix(FischerOperator(psi), source, source)
                x = solve(matrix, coordinates(lap_f, source))
                q = from_coordinates(x, source, f.field)
        except InconsistentSystemError:
            raise UnsolvableSliceError(
                "the square slice system is inconsistent for this quadric"
            ) from None
    h = f - psi * q
    harmonic_exact = not h.laplacian()
    identity_exact = not (f - h - psi * q)
    record = VerificationRecord(
        harmonic_exact=harmonic_exact,
        identity_exact=identity_exact,
        boundary_max_error=None,
        samples=0,
        passed=harmonic_exact and identity_exact,
    )
    return DirichletSolution(domain=domain, f=f, h=h, q=q, verification=record)


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


def boundary_samples(domain, count, tol=1e-12, rng=None):
    """Sample boundary points by shooting rays from the interior point.

    Along a direction v the defining polynomial restricts to a quadratic in
    the ray parameter; its smallest positive root, polished by one Newton
    step, gives the crossing.  Directions failing to hit the boundary are
    redrawn up to a bound, after which NoBoundaryHitError is raised (this is
    how geometrically empty or unreachable boundaries surface).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
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
        attempts += 1
        direction = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(sum(v * v for v in direction))
        if norm < 1e-9:
            continue
        direction = [v / norm for v in direction]
        a = quadratic_part.evaluate(direction)
        shifted = [o + v for o, v in zip(origin, direction)]
        b = psi.evaluate(shifted) - c - a
        t = _ray_boundary_parameter(a, b, c)
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


def _term_magnitude(p, point):
    # sum of |c * x^e| over the terms: the size of what evaluate() cancels
    total = 0.0
    for term in p.float_terms(point):
        total += abs(term)
    return total


def boundary_mismatch(f, h, point):
    """|f - h| at a point, and the scale that tolerances multiply there.

    The scale is max(1, sum of |terms of f|, sum of |terms of h|) at the
    point: floating-point evaluation of a polynomial whose terms cancel
    loses accuracy in proportion to their size, not to the result.
    """
    error = abs(f.evaluate(point) - h.evaluate(point))
    scale = max(1.0, _term_magnitude(f, point), _term_magnitude(h, point))
    return error, scale


def verify_solution(solution, count=100, tol=1e-9, rng=None, root_tol=1e-12):
    """Recheck a solution exactly and against sampled boundary points.

    The exact checks are recomputed from the stored polynomials, independent
    of how they were produced; the boundary check evaluates f and h
    separately in floating point and records the largest |f - h|.  A sample
    passes when |f - h| < tol * scale, with the scale of boundary_mismatch.
    The updated record is stored on the solution and returned.
    """
    harmonic_exact = not solution.h.laplacian()
    identity_exact = not (solution.f - solution.h - solution.domain.psi * solution.q)
    points = boundary_samples(solution.domain, count, root_tol, rng)
    max_error = 0.0
    within = True
    for point in points:
        error, scale = boundary_mismatch(solution.f, solution.h, point)
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
    return record


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of the squared-norm residual check on an ellipsoidal domain."""

    residual: Poly
    proportional_to_psi: bool
    factor: Fraction | None


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
