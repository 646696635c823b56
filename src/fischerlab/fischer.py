"""Laplacian-composed multiplication operators on graded polynomial slices.

The central object is the linear map q -> P(D)(psi * q), with P defaulting
to the squared norm so that P(D) is the Laplacian.  This module realizes the
map as an exact matrix between graded slices, computes quotient/harmonic
decompositions f = psi*q + h, profiles degree-wise surjectivity with
machine-checkable verdicts, and checks slice-wise bijectivity for the
self-paired homogeneous case q -> P(D)(P*q).  On an ellipsoid the
quotient is unique; solve_by_degree finds it for decompose and dirichlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, sub

from .errors import NoDecompositionFoundError, InconsistentSystemError
# rref stays importable here: the benchmark's tracer wraps fischer.rref
from .linalg import ExactMatrix, GrowingEchelon, rref, solve  # noqa: F401
from .polyring import (
    FILTERED,
    HOMOGENEOUS,
    Poly,
    apply_operator,
    basis_dimension,
    check_slice_dimension,
    coordinates,
    filtered_basis,
    from_coordinates,
    homogeneous_basis,
    overflow_error,
    squared_norm,
)
from .scalars import FIELD_Q, FIELD_QI, GAUSSIAN_I, as_scalar, from_integer, integer_form

SURJECTIVE = "surjective"
UNDETERMINED = "undetermined"
NOT_SURJECTIVE = "not_surjective"


@dataclass(frozen=True)
class FischerOperator:
    """The linear map q -> operator(D)(psi * q) on polynomials.

    ``operator`` defaults to the squared norm, in which case the map is
    q -> laplacian(psi * q).  Both psi and operator must be non-constant.
    """

    psi: Poly
    operator: Poly = None

    def __post_init__(self):
        if self.operator is None:
            object.__setattr__(
                self, "operator", squared_norm(self.psi.arity, self.psi.field)
            )
        if self.psi.degree < 1:
            raise ValueError("psi must be non-constant")
        if self.operator.degree < 1:
            raise ValueError("the differential operator polynomial must be non-constant")
        if self.operator.arity != self.psi.arity:
            raise ValueError(
                f"arity mismatch: psi {self.psi.arity} vs operator {self.operator.arity}"
            )
        if self.operator.field != self.psi.field:
            raise ValueError(
                f"field mismatch: psi {self.psi.field} vs operator {self.operator.field}"
            )

    @property
    def arity(self):
        return self.psi.arity

    @property
    def field(self):
        return self.psi.field

    def apply(self, q):
        if q.arity != self.arity:
            raise ValueError(f"arity mismatch: operator {self.arity} vs q {q.arity}")
        if q.field != self.field:
            raise ValueError(f"field mismatch: operator {self.field} vs q {q.field}")
        return apply_operator(self.operator, self.psi * q)


def fischer_apply(op, q):
    """Apply the operator to q; equals laplacian(psi * q) for the default."""
    return op.apply(q)


def _stencil(op):
    """The stencil of the operator and its common denominator L.

    Each operator term d*D^g gives one entry (g, its axes with g_i > 0 as
    (i, g_i) pairs, [C for each psi term c*x^b]), where C = c*d*L is an int
    over Q and an (re, im) pair of ints over Qi; L is the least common
    denominator of every product c*d.
    """
    psi, n = op.psi.terms.values(), len(op.psi.terms)
    ints, den = integer_form([c * d for d in op.operator.terms.values() for c in psi], op.field)
    return [(g, [(i, k) for i, k in enumerate(g) if k], ints[r * n : (r + 1) * n])
            for r, g in enumerate(op.operator.terms)], den


def operator_matrix(op, source, target):
    """Matrix of the operator from one graded slice to another.

    Column j holds the target coordinates of P(D)(psi * x^a), x^a the j-th
    source monomial.  It is assembled from a stencil built once per call:
    each pair of an operator term d*D^g and a psi term c*x^b with
    a + b >= g adds c*d * prod_i (a_i + b_i)! / (a_i + b_i - g_i)! at the
    monomial a + b - g.  The products c*d are kept as integers over one
    common denominator, so a column is summed in int arithmetic and each
    of its nonzeros becomes one field scalar.  Raises BasisOverflowError
    if an image monomial falls outside the target slice.
    """
    if source.arity != op.arity or target.arity != op.arity:
        raise ValueError("basis arity does not match the operator")
    stencil, denominator = _stencil(op)
    qi = op.field == FIELD_QI
    psi = tuple(op.psi.terms)
    rows = [{} for _ in range(len(target))]
    for j, a in enumerate(source.monomials):
        shifted = [tuple(map(add, a, b)) for b in psi]
        # the terms in the order, and with the cancellations, of
        # apply_operator(operator, psi * x^a), so an overflow names the
        # same monomial
        image = {}
        for g, axes, coefficients in stencil:
            for e, c in zip(shifted, coefficients):
                factor = 1
                for i, k in axes:
                    factor *= math.perm(e[i], k)
                if not factor:
                    continue
                m = tuple(map(sub, e, g))
                if qi:
                    re, im = image.get(m, (0, 0))
                    value = (re + c[0] * factor, im + c[1] * factor)
                    nonzero = value[0] or value[1]
                else:
                    value = image.get(m, 0) + c * factor
                    nonzero = value
                if nonzero:
                    image[m] = value
                elif m in image:
                    del image[m]
        for m, value in image.items():
            try:
                i = target.index(m)
            except KeyError:
                raise overflow_error(m, target) from None
            rows[i][j] = from_integer(value, denominator)
    return ExactMatrix.from_nonzeros(len(source), rows, op.field)


@dataclass(frozen=True)
class DecompositionCertificate:
    """The triple f = psi*q + h with its exactness flags."""

    psi: Poly
    f: Poly
    q: Poly
    h: Poly
    identity_exact: bool
    h_harmonic_exact: bool

    @classmethod
    def build(cls, psi, f, q):
        """The certificate of q: h = f - psi*q, so identity_exact is true by
        construction.  verify() and dirichlet.verify_solution recheck both."""
        h = f - psi * q
        return cls(psi=psi, f=f, q=q, h=h, identity_exact=True,
                   h_harmonic_exact=not h.laplacian())

    def verify(self):
        """Re-run both exact checks from scratch, ignoring the stored flags."""
        return (not (self.f - self.psi * self.q - self.h)) and (not self.h.laplacian())


def ellipsoidal_form(psi):
    """Return the squared semi-axes when psi is over Q and a positive
    multiple of sum(x_i^2 / a_i^2) - 1, else None."""
    if psi.field != FIELD_Q:
        return None
    d = psi.arity
    const = psi.coefficient((0,) * d)
    diag = [psi.coefficient([2 * (j == i) for j in range(d)]) for i in range(d)]
    # psi has these d + 1 terms only, with the signs of an ellipsoid
    if len(psi.terms) != d + 1 or const >= 0 or min(diag) <= 0:
        return None
    return tuple(-const / c for c in diag)


def solve_by_degree(psi, lap_f):
    """The unique q with laplacian(psi*q) == lap_f for ellipsoidal psi = P2 + c0.

    The degree-k part of laplacian(psi*q) is laplacian(P2*q_k) + c0*laplacian(q_{k+2}),
    and each block q_k -> laplacian(P2*q_k) is nonsingular (Fischer): q_k is solved
    for k = deg lap_f down to 0, and any higher q_k is 0.
    """
    arity = psi.arity
    c0 = psi.coefficient((0,) * arity)
    block = FischerOperator(psi.homogeneous_component(2))
    zero = Poly.zero(arity, FIELD_Q)
    parts = [zero] * (lap_f.degree + 3)
    for k in range(lap_f.degree, -1, -1):
        basis = homogeneous_basis(arity, k)
        rhs = lap_f.homogeneous_component(k) - parts[k + 2].laplacian().scale(c0)
        x = solve(operator_matrix(block, basis, basis), coordinates(rhs, basis))
        parts[k] = from_coordinates(x, basis, FIELD_Q)
    return sum(parts, zero)


def fischer_decompose(psi, f, slack=0):
    """Find q with laplacian(psi*q) == laplacian(f) and return the certificate.

    The quotient is searched in filtered slices of degree
    deg f - deg psi + 2 + s for s = 0..slack, smallest s first, with free
    variables pinned to zero.  Failure raises NoDecompositionFoundError and
    is inconclusive: higher source degrees might still work.  On an
    ellipsoid the s = 0 slice is bijective; solve_by_degree gives its q.
    """
    if psi.arity != f.arity:
        raise ValueError(f"arity mismatch: psi {psi.arity} vs f {f.arity}")
    if psi.field != f.field:
        raise ValueError(f"field mismatch: psi {psi.field} vs f {f.field}")
    if psi.degree < 1:
        raise ValueError("psi must be non-constant")
    if not isinstance(slack, int) or slack < 0:
        raise ValueError(f"slack must be a non-negative int, got {slack!r}")
    lap_f = f.laplacian()
    if not lap_f:
        return DecompositionCertificate.build(psi, f, Poly.zero(f.arity, f.field))
    deg_psi = psi.degree
    # every slice built lies in filtered(top) or filtered(top + deg_psi - 2)
    top = f.degree - deg_psi + 2 + slack
    check_slice_dimension(f.arity, max(top, top + deg_psi - 2))
    if ellipsoidal_form(psi) is not None:
        return DecompositionCertificate.build(psi, f, solve_by_degree(psi, lap_f))
    op = FischerOperator(psi)
    for s in range(slack + 1):
        m = f.degree - deg_psi + 2 + s
        if m < 0:
            continue
        source = filtered_basis(f.arity, m)
        target = filtered_basis(f.arity, max(m + deg_psi - 2, lap_f.degree))
        matrix = operator_matrix(op, source, target)
        try:
            x = solve(matrix, coordinates(lap_f, target))
        except InconsistentSystemError:
            continue
        q = from_coordinates(x, source, f.field)
        return DecompositionCertificate.build(psi, f, q)
    raise NoDecompositionFoundError(slack)


@dataclass(frozen=True)
class RankProfileRow:
    """One tested (target degree, source degree) pair.

    dim_target and rank describe the operator on the source slice: its
    codomain is the smallest filtered slice containing all images (degree
    n + s in filtered mode) or the homogeneous slice of degree n.  surjective
    records whether the image covers the degree-n slice under test.
    """

    target_degree: int
    source_degree: int
    dim_source: int
    dim_target: int
    rank: int
    surjective: bool


@dataclass(frozen=True)
class DegreeVerdict:
    """Per-target-degree outcome.

    status "surjective" carries the smallest successful slack;
    "undetermined" (filtered mode, slack exhausted) and "not_surjective"
    (homogeneous mode, conclusive) carry a witness: the first monomial of
    the tested block, in its graded basis order, that lies outside the
    image of the last tested slice.  Every earlier monomial lies inside.
    """

    target_degree: int
    status: str
    slack: int | None = None
    witness: Poly | None = None


@dataclass(frozen=True)
class RankProfile:
    psi: Poly
    mode: str
    max_target_degree: int
    slack: int
    rows: tuple
    verdicts: tuple

    def all_surjective(self):
        return all(v.status == SURJECTIVE for v in self.verdicts)

    def verdict_for(self, target_degree):
        return self.verdicts[target_degree]


def _monomial_poly(arity, exponents, field):
    return Poly.monomial(arity, exponents, 1, field)


def _homogeneous_profile(psi, max_target_degree):
    op = FischerOperator(psi)
    deg_psi = psi.degree
    rows = []
    verdicts = []
    for n in range(max_target_degree + 1):
        target = homogeneous_basis(psi.arity, n)
        m = n - deg_psi + 2
        if m < 0:
            # no homogeneous slice maps into degree n; conclusively missed
            rows.append(RankProfileRow(n, m, 0, len(target), 0, False))
            witness = _monomial_poly(psi.arity, target.monomials[0], psi.field)
            verdicts.append(DegreeVerdict(n, NOT_SURJECTIVE, witness=witness))
            continue
        source = homogeneous_basis(psi.arity, m)
        image = GrowingEchelon(psi.field)
        image.extend(operator_matrix(op, source, target))
        missed = image.first_missing(len(target))
        surjective = missed is None
        rows.append(
            RankProfileRow(n, m, len(source), len(target), image.rank, surjective)
        )
        if surjective:
            verdicts.append(DegreeVerdict(n, SURJECTIVE, slack=0))
        else:
            witness = _monomial_poly(psi.arity, target.monomials[missed], psi.field)
            verdicts.append(DegreeVerdict(n, NOT_SURJECTIVE, witness=witness))
    return rows, verdicts


def _filtered_profile(psi, max_target_degree, slack):
    op = FischerOperator(psi)
    deg_psi = psi.degree
    image = GrowingEchelon(psi.field)
    # spans[m] = (rank, first missing coordinate below top_dim) of the image
    # of filtered(m), in the graded basis of filtered(m + deg_psi - 2); grown
    # only as far as a rung asks
    top_dim = basis_dimension(psi.arity, FILTERED, max_target_degree)
    spans = []
    rows = []
    verdicts = []
    for n in range(max_target_degree + 1):
        tested_dim = basis_dimension(psi.arity, FILTERED, n)
        verdict = None
        witness = None
        for s in range(slack + 1):
            m = n - deg_psi + 2 + s
            if m < 0:
                # empty source slice: its image is {0}, so every monomial of
                # the tested block witnesses the miss
                rows.append(RankProfileRow(n, m, 0, tested_dim, 0, False))
                witness = _monomial_poly(psi.arity, (0,) * psi.arity, psi.field)
                continue
            while len(spans) <= m:
                k = len(spans)
                if k + deg_psi - 2 >= 0:
                    # the images of the degree-k monomials join the span
                    source = homogeneous_basis(psi.arity, k)
                    target = filtered_basis(psi.arity, k + deg_psi - 2)
                    image.extend(operator_matrix(op, source, target))
                spans.append((image.rank, image.first_missing(top_dim)))
            rank, missed = spans[m]
            # the degree-n block is the first tested_dim target coordinates
            surjective = missed is None or missed >= tested_dim
            rows.append(
                RankProfileRow(
                    n,
                    m,
                    basis_dimension(psi.arity, FILTERED, m),
                    basis_dimension(psi.arity, FILTERED, m + deg_psi - 2),
                    rank,
                    surjective,
                )
            )
            if surjective:
                verdict = DegreeVerdict(n, SURJECTIVE, slack=s)
                break
            exponents = filtered_basis(psi.arity, n).monomials[missed]
            witness = _monomial_poly(psi.arity, exponents, psi.field)
        if verdict is None:
            verdict = DegreeVerdict(n, UNDETERMINED, witness=witness)
        verdicts.append(verdict)
    return rows, verdicts


def rank_profile(psi, max_target_degree, slack=0, mode=FILTERED):
    """Degree-wise surjectivity evidence for q -> laplacian(psi * q).

    Homogeneous mode (psi homogeneous) is conclusive per target degree: the
    slice map either is or is not onto.  Filtered mode climbs the slack
    ladder and reports UNDETERMINED with a witness when the ladder is
    exhausted, never a negative, since higher source degrees remain untried.
    Either witness is the first monomial of the tested block outside the
    image (see DegreeVerdict).

    Homogeneous mode reduces each slice matrix in a fresh GrowingEchelon.
    Filtered mode keeps one growing echelon form of the image for the whole
    ladder: source degree m adds the images of the degree-m monomials, and
    every rung reads its rank, verdict and witness from the form at its m.
    Rows and witnesses are those of reducing each rung's [A | E] afresh,
    with E the identity on the degree-n block.
    """
    if psi.degree < 1:
        raise ValueError("psi must be non-constant")
    if not isinstance(max_target_degree, int) or max_target_degree < 0:
        raise ValueError("max_target_degree must be a non-negative int")
    if not isinstance(slack, int) or slack < 0:
        raise ValueError(f"slack must be a non-negative int, got {slack!r}")
    if mode not in (HOMOGENEOUS, FILTERED):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == HOMOGENEOUS and not psi.is_homogeneous():
        raise ValueError("homogeneous mode requires a homogeneous psi")
    # every slice built, or looped over, lies in filtered(top) or
    # filtered(top + deg psi - 2), top the highest source degree
    top = max_target_degree - psi.degree + 2 + (slack if mode == FILTERED else 0)
    check_slice_dimension(psi.arity, max(top, top + psi.degree - 2))
    if mode == HOMOGENEOUS:
        rows, verdicts = _homogeneous_profile(psi, max_target_degree)
    else:
        rows, verdicts = _filtered_profile(psi, max_target_degree, slack)
    return RankProfile(
        psi=psi,
        mode=mode,
        max_target_degree=max_target_degree,
        slack=slack,
        rows=tuple(rows),
        verdicts=tuple(verdicts),
    )


@dataclass(frozen=True)
class BijectivitySlice:
    degree: int
    dimension: int
    rank: int
    nonsingular: bool


def fischer_theorem_check(p, max_degree):
    """Slice-wise nonsingularity of q -> p(D)(p * q) for homogeneous p.

    For every m <= max_degree the map sends the homogeneous slice of degree m
    to itself; the rank of each slice matrix is reported.  Expected outcome:
    nonsingular at every degree.
    """
    if not p.is_homogeneous() or p.degree < 1:
        raise ValueError("p must be homogeneous and non-constant")
    check_slice_dimension(p.arity, max_degree)
    op = FischerOperator(psi=p, operator=p)
    slices = []
    for m in range(max_degree + 1):
        basis = homogeneous_basis(p.arity, m)
        echelon = GrowingEchelon(op.field)
        echelon.extend(operator_matrix(op, basis, basis))
        slices.append(BijectivitySlice(m, len(basis), echelon.rank, echelon.rank == len(basis)))
    return tuple(slices)


def khavinson_psi(phi_coeffs):
    """Expand (x3 - phi(x1 + i*x2))^2 over the Gaussian rationals in d = 3.

    phi is given by its coefficient list a0, a1, ..., an and must be
    non-constant.
    """
    coeffs = [as_scalar(c, FIELD_QI) for c in phi_coeffs]
    if not any(coeffs[1:]):
        raise ValueError("phi must be non-constant (some a_k != 0 with k >= 1)")
    w = Poly.variable(3, 0, FIELD_QI) + Poly.variable(3, 1, FIELD_QI).scale(GAUSSIAN_I)
    phi_w = Poly.zero(3, FIELD_QI)
    for c in reversed(coeffs):
        phi_w = phi_w * w + Poly.constant(3, c, FIELD_QI)
    base = Poly.variable(3, 2, FIELD_QI) - phi_w
    return base * base
