"""Laplacian-composed multiplication operators on graded polynomial slices.

The central object is the linear map q -> P(D)(psi * q), with P defaulting
to the squared norm so that P(D) is the Laplacian.  This module realizes the
map as an exact matrix between graded slices, computes quotient/harmonic
decompositions f = psi*q + h, profiles degree-wise surjectivity with
machine-checkable verdicts, and checks slice-wise bijectivity for the
self-paired homogeneous case q -> P(D)(P*q).  solve_quotient finds q for
decompose and dirichlet, by degree when psi's top form is semidefinite.
"""

import math
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from operator import sub

from .errors import InconsistentSystemError, NoDecompositionFoundError, SliceTooLargeError
from .linalg import ExactMatrix, GrowingEchelon, rank_and_first_missing, solve
# rref stays importable here: the benchmark's tracer wraps fischer.rref
from .linalg import rref  # noqa: F401
from .polyring import (
    CODE_DEGREE_LIMIT,
    FILTERED,
    HOMOGENEOUS,
    Poly,
    apply_operator,
    basis_dimension,
    check_slice_dimension,
    code_exponents,
    coordinates,
    filtered_basis,
    from_coordinates,
    graded_sum,
    homogeneous_basis,
    lowest_terms,
    monomial_code,
    overflow_error,
    squared_norm,
)
from .scalars import FIELD_Q, FIELD_QI, GAUSSIAN_I, INTEGERS, as_scalar

SURJECTIVE = "surjective"
UNDETERMINED = "undetermined"
NOT_SURJECTIVE = "not_surjective"


class FischerOperator:
    """The linear map q -> operator(D)(psi * q) on polynomials.

    ``operator`` defaults to the squared norm, in which case the map is
    q -> laplacian(psi * q).  Both psi and operator must be non-constant.
    Two operators are equal when their psi and operator are.
    """

    def __init__(self, psi, operator=None):
        if operator is None:
            operator = squared_norm(psi.arity, psi.field)
        if psi.degree < 1:
            raise ValueError("psi must be non-constant")
        if operator.degree < 1:
            raise ValueError("the differential operator polynomial must be non-constant")
        if operator.arity != psi.arity:
            raise ValueError(f"arity mismatch: psi {psi.arity} vs operator {operator.arity}")
        if operator.field != psi.field:
            raise ValueError(f"field mismatch: psi {psi.field} vs operator {operator.field}")
        self.psi = psi
        self.operator = operator

    def __eq__(self, other):
        if not isinstance(other, FischerOperator):
            return NotImplemented
        return self.psi == other.psi and self.operator == other.operator

    @property
    def arity(self):
        return self.psi.arity

    @property
    def field(self):
        return self.psi.field

    @cached_property
    def _stencil(self):
        """The stencil of the operator and its common denominator L.

        Each pair of an operator term d*D^g and a psi term c*x^b gives one
        entry (the monomial code of b - g, the axes with g_i > 0 as
        (i, b_i, g_i) triples, C), where C = c*d*L is an entry in integer
        form; L is the least common denominator of every product c*d.  The
        entries run over the operator terms and, within one, over the psi
        terms.  Built once per operator, and only for a psi of degree below
        polyring.CODE_DEGREE_LIMIT, so that no image code carries.
        """
        if self.psi.degree >= CODE_DEGREE_LIMIT:
            raise ValueError(f"psi must have degree below {CODE_DEGREE_LIMIT} to be assembled")
        (psi, psi_den), (ops, op_den) = self.psi.integer_form, self.operator.integer_form
        product = INTEGERS[self.field].mul
        products = [product(d, c) for d in ops.values() for c in psi.values()]
        ints, den = lowest_terms(dict(enumerate(products)), psi_den * op_den, self.field)
        pairs = [(g, b) for g in ops for b in psi]
        return [(monomial_code(map(sub, b, g)), [(i, b[i], k) for i, k in enumerate(g) if k], c)
                for (g, b), c in zip(pairs, ints.values())], den

    def apply(self, q):
        if q.arity != self.arity:
            raise ValueError(f"arity mismatch: operator {self.arity} vs q {q.arity}")
        if q.field != self.field:
            raise ValueError(f"field mismatch: operator {self.field} vs q {q.field}")
        return apply_operator(self.operator, self.psi * q)


def operator_matrix(op, source, target):
    """Matrix of the operator from one graded slice to another.

    Column j holds the target coordinates of P(D)(psi * x^a), x^a the j-th
    source monomial.  It is assembled from the operator's stencil:
    each pair of an operator term d*D^g and a psi term c*x^b with
    a + b >= g adds c*d * prod_i (a_i + b_i)! / (a_i + b_i - g_i)! at the
    monomial a + b - g.  The products c*d are kept as integers over one
    common denominator, so a column is summed in int arithmetic, straight
    into the kernel vector that the matrix stores (keyed by -i for target
    position i): no scalar is built, and nothing is allocated per target
    row.  Monomials are their codes (polyring.monomial_code): the image
    of x^a under a stencil entry is the code of a plus the entry's code of
    b - g, with no carry between axes, since a nonzero falling factorial
    makes every axis of a + b - g non-negative and the degree limits keep
    it below the field width.  Both slices are polyring.Basis objects, the
    target read through its code-keyed position map, so a filtered target
    grown by Basis.extended is read as any other.  Raises
    BasisOverflowError if an image monomial falls outside the target slice.
    """
    if source.arity != op.arity or target.arity != op.arity:
        raise ValueError("basis arity does not match the operator")
    stencil, denominator = op._stencil
    table = INTEGERS[op.field]
    times, plus, zero = table.times, table.add, table.zero
    position, perm = target._positions.get, math.perm
    columns, outside = [], {}
    for a, code in zip(source.monomials, source.codes):
        # the terms in the order, and with the cancellations, of
        # apply_operator(operator, psi * x^a), each summed at -(its target
        # position), or at its code in outside if the target lacks it: a
        # sum that cancels is deleted, and appended again if it comes back,
        # so an overflow names the same monomial
        column = {}
        for shift, axes, c in stencil:
            factor = 1
            for i, b, k in axes:
                factor *= perm(a[i] + b, k)
            if factor:
                m = code + shift
                at = position(m)
                if at is None:
                    sums, key = outside, m
                else:
                    sums, key = column, -at
                value = times(c, factor)
                if key in sums:
                    value = plus(sums[key], value)
                    if value == zero:
                        del sums[key]
                        continue
                sums[key] = value
        if outside:
            raise overflow_error(code_exponents(next(iter(outside)), op.arity), target)
        columns.append(column)
    return ExactMatrix.from_integer_columns(len(target), columns, denominator, op.field)


class DecompositionCertificate(namedtuple(
        "DecompositionCertificate", "psi f q h identity_exact h_harmonic_exact")):
    """The triple f = psi*q + h with its exactness flags."""

    __slots__ = ()

    @classmethod
    def build(cls, psi, f, q):
        """The certificate of q: h = f - psi*q, so identity_exact is true by
        construction.  verify() rechecks both."""
        h = f - psi * q
        return cls(psi=psi, f=f, q=q, h=h, identity_exact=True,
                   h_harmonic_exact=not h.laplacian())

    def verify(self):
        """Re-run both exact checks from scratch, ignoring the stored flags."""
        return self.psi * self.q + self.h == self.f and not self.h.laplacian()


def ellipsoidal_form(psi):
    """Return the squared semi-axes when psi is over Q and a positive
    multiple of sum(x_i^2 / a_i^2) - 1, else None."""
    if psi.field != FIELD_Q:
        return None
    d = psi.arity
    const = psi.coefficient((0,) * d)
    diag = [psi.coefficient([2 * (j == i) for j in range(d)]) for i in range(d)]
    # psi has these d + 1 terms only, with the signs of an ellipsoid
    if len(psi.integer_form[0]) != d + 1 or const >= 0 or min(diag) <= 0:
        return None
    return tuple(-const / c for c in diag)


def has_semidefinite_top_form(psi):
    """Whether psi is over Q and every term of its top form P is c*x^(2*beta),
    all c of one sign.  Then P is semidefinite and every block
    q_j -> laplacian(P*q_j) is injective: on the unit sphere a harmonic P*q
    is orthogonal to q, whose spherical harmonics have lower degrees, so P*q^2
    integrates to 0 there and q = 0.  The test is sufficient only: it misses
    (x + y)^2, and an indefinite P such as x^4 - 6*x^2*y^2 + y^4 loses rank.
    """
    top = [(m, n) for m, n in psi.integer_form[0].items() if sum(m) == psi.degree]
    return (psi.field == FIELD_Q and psi.degree >= 1 and len({n > 0 for _, n in top}) == 1
            and not any(e % 2 for m, _ in top for e in m))


def _solve_slice(op, source, target, p):
    """The q in the source slice with op(q) == p, free variables pinned to 0:
    p enters solve as its stored ints (coordinates), and q is rebuilt from
    solve's scalars by one lcm (from_coordinates).  Raises
    InconsistentSystemError when the target slice holds no such image."""
    x = solve(operator_matrix(op, source, target), coordinates(p, target))
    return from_coordinates(x, source, p.field)


def solve_by_degree(psi, lap_f):
    """The unique q with laplacian(psi*q) == lap_f when psi, of degree dp,
    has a semidefinite top form P.

    The degree-l part of laplacian(psi*q) is laplacian(P*q_j), j = l + 2 - dp,
    plus laplacian(psi_i*q_k) for the lower components psi_i and k > j.  So
    q_j is solved on its block for l = deg lap_f down to dp - 2, and each
    laplacian(psi_i*q_j) is then taken off the rhs of its degree.  Raises
    InconsistentSystemError, as no q exists, when a block's rhs is outside its
    image or a rhs below degree dp - 2 is not 0.  q is the graded_sum of the
    parts in ascending degree: their ints over one lcm, and the seeds of
    their decimal_terms joined.
    """
    arity, dp = psi.arity, psi.degree
    block = FischerOperator(psi.homogeneous_component(dp))
    lower = [(i, c) for i in range(dp) if (c := psi.homogeneous_component(i))]
    rhs = [lap_f.homogeneous_component(l) for l in range(lap_f.degree + 1)]
    parts = []
    for l in range(lap_f.degree, dp - 3, -1):
        j = l + 2 - dp
        target = homogeneous_basis(arity, l)
        source = target if j == l else homogeneous_basis(arity, j)
        part = _solve_slice(block, source, target, rhs[l])
        for i, c in lower:
            if j + i >= 2:
                rhs[j + i - 2] -= c * part.laplacian() if i == 0 else (c * part).laplacian()
        parts.append(part)
    if any(rhs[: dp - 2]):
        raise InconsistentSystemError("a part below degree deg psi - 2 is left")
    return graded_sum(lap_f.arity, FIELD_Q, parts[::-1])


def solve_quotient(psi, f, slack=0):
    """A q with laplacian(psi*q) == laplacian(f) in filtered(m), m the least of
    deg f - deg psi..deg f - deg psi + slack that holds one, the first being
    the least m whose image reaches deg f - 2; InconsistentSystemError when
    none does.  A q in filtered(m) lies in every higher slice too.

    With a semidefinite top form (has_semidefinite_top_form) q is unique and
    in every such slice, and solve_by_degree finds it, or proves it absent,
    within filtered(deg f - 2) whatever the slack.  Any other psi takes one
    solve per filtered(m), free variables pinned to zero.
    """
    lap_f = f.laplacian()
    if not lap_f:
        return Poly.zero(f.arity, f.field)
    if has_semidefinite_top_form(psi):
        check_slice_dimension(f.arity, f.degree - 2)
        return solve_by_degree(psi, lap_f)
    start = f.degree - psi.degree
    # every slice built lies in filtered(start + slack) or filtered(deg f + slack - 2)
    check_slice_dimension(f.arity, max(start + slack, f.degree + slack - 2))
    op = FischerOperator(psi)
    for m in range(max(start, 0), start + slack + 1):
        source = filtered_basis(f.arity, m)
        target = filtered_basis(f.arity, max(m + psi.degree - 2, lap_f.degree))
        try:
            return _solve_slice(op, source, target, lap_f)
        except InconsistentSystemError:
            continue
    raise InconsistentSystemError(f"no filtered slice up to degree {start + slack} holds a q")


def fischer_decompose(psi, f, slack=0):
    """Find q with laplacian(psi*q) == laplacian(f) and return the certificate.

    solve_quotient searches the filtered slices of degree deg f - deg psi + s,
    s = 0..slack + 2, from the one dirichlet solves on.  Failure raises
    NoDecompositionFoundError.  The slack matters only when the top form of
    psi is not semidefinite, and there failure is inconclusive.  With a
    semidefinite top form, failure proves that no polynomial q exists, but it
    is reported as inconclusive all the same: the report has no certificate.
    """
    if psi.arity != f.arity:
        raise ValueError(f"arity mismatch: psi {psi.arity} vs f {f.arity}")
    if psi.field != f.field:
        raise ValueError(f"field mismatch: psi {psi.field} vs f {f.field}")
    if psi.degree < 1:
        raise ValueError("psi must be non-constant")
    if not isinstance(slack, int) or slack < 0:
        raise ValueError(f"slack must be a non-negative int, got {slack!r}")
    try:
        q = solve_quotient(psi, f, slack + 2)
    except InconsistentSystemError:
        raise NoDecompositionFoundError(slack) from None
    return DecompositionCertificate.build(psi, f, q)


class RankProfileRow(namedtuple(
        "RankProfileRow", "target_degree source_degree dim_source dim_target rank surjective")):
    """One tested (target degree, source degree) pair.

    dim_target and rank describe the operator on the source slice: its
    codomain is the smallest filtered slice containing all images (degree
    n + s in filtered mode) or the homogeneous slice of degree n.  surjective
    records whether the image covers the degree-n slice under test.
    """

    __slots__ = ()


class DegreeVerdict(namedtuple("DegreeVerdict", "target_degree status slack witness",
                               defaults=(None, None))):
    """Per-target-degree outcome.

    status "surjective" carries the smallest successful slack;
    "undetermined" (filtered mode, slack exhausted) and "not_surjective"
    (homogeneous mode, conclusive) carry a witness: the first monomial of
    the tested block, in its graded basis order, that lies outside the
    image of the last tested slice.  Every earlier monomial lies inside.
    In homogeneous mode the rank and witness of a slice come from
    linalg.rank_and_first_missing: certified mod a prime when the slice is
    onto or the witness is its first monomial, else by an exact echelon.
    """

    __slots__ = ()


class RankProfile(namedtuple("RankProfile", "psi mode max_target_degree slack rows verdicts")):
    __slots__ = ()

    def all_surjective(self):
        return all(v.status == SURJECTIVE for v in self.verdicts)


def _homogeneous_profile(op, max_target_degree):
    """Rows and verdicts of op's homogeneous slices, target degrees 0..max_target_degree."""
    arity, field = op.arity, op.field
    rows = []
    verdicts = []
    for n in range(max_target_degree + 1):
        target = homogeneous_basis(arity, n)
        m = n - op.psi.degree + op.operator.degree
        if m < 0:
            # no homogeneous slice maps into degree n; conclusively missed
            rows.append(RankProfileRow(n, m, 0, len(target), 0, False))
            witness = Poly.monomial(arity, target.monomials[0], 1, field)
            verdicts.append(DegreeVerdict(n, NOT_SURJECTIVE, witness=witness))
            continue
        source = homogeneous_basis(arity, m)
        rank, missed = rank_and_first_missing(operator_matrix(op, source, target))
        surjective = missed is None
        rows.append(RankProfileRow(n, m, len(source), len(target), rank, surjective))
        if surjective:
            verdicts.append(DegreeVerdict(n, SURJECTIVE, slack=0))
        else:
            witness = Poly.monomial(arity, target.monomials[missed], 1, field)
            verdicts.append(DegreeVerdict(n, NOT_SURJECTIVE, witness=witness))
    return rows, verdicts


class _LadderImage:
    """The image of filtered(m) under the operator in a change of
    coordinates, as one growing echelon; it starts at m = -1.

    ``change`` holds the original coordinates as polynomials in the new ones
    (an affine change with an invertible linear part, so it keeps degrees)
    and ``operator`` is the Fischer operator in the new coordinates.  The
    echelon's coordinates are the monomials of ``target``, the filtered
    basis that holds every image, in graded order.  Each grow raises its
    degree by one (Basis.extended), so its monomials append to the
    echelon's coordinates.
    """

    def __init__(self, change, operator):
        self.change = change
        self.operator = operator
        self.target = None
        self.echelon = GrowingEchelon(operator.field)
        self.source_degree = -1

    def grow(self):
        """Add the images of the monomials of the next source degree."""
        op = self.operator
        self.source_degree += 1
        top = self.source_degree + op.psi.degree - 2
        if top < 0:
            return  # deg psi = 1 sends the constants to 0
        target = self.target
        self.target = filtered_basis(op.arity, top) if target is None else target.extended()
        source = homogeneous_basis(op.arity, self.source_degree)
        self.echelon.extend(operator_matrix(op, source, self.target))

    def missed_degree(self):
        """The least degree of a coordinate outside the image, or None when
        every coordinate up to the target degree lies in it."""
        missed = self.echelon.first_missing(self.echelon.width)
        return None if missed is None else sum(self.target.monomials[missed])

    def contains(self, exponents):
        """Whether the original monomial x^exponents lies in the image; its
        degree must not pass the target degree."""
        image = Poly.constant(self.operator.arity, 1, self.operator.field)
        for p, e in zip(self.change, exponents):
            image = image * p**e
        return self.echelon.contains({self.target.index(e): n
                                      for e, n in image.integer_form[0].items()})


def _original_coordinates(psi):
    """The empty image under the identity change of coordinates."""
    variables = tuple(Poly.variable(psi.arity, i, psi.field) for i in range(psi.arity))
    return _LadderImage(variables, FischerOperator(psi))


def _khavinson_coordinates(psi):
    """The empty image in (w, u, t) coordinates for
    psi = (x3 - phi(x1 + i*x2))^2 over Qi, phi = a0 + a1*z + ... + a_k*z^k
    with a_k != 0 and k >= 1, or None for any other psi.

    In (w, u, t) = (x1 + i*x2, x1 - i*x2, x3 - a0) the Laplacian is
    4*dw*du + dt^2, with 2 terms, and psi is (t - a1*w - ... - a_k*w^k)^2.
    """
    if psi.arity != 3 or psi.field != FIELD_QI or psi.degree % 2:
        return None
    # the x3-linear part of psi is -2*phi(x1 + i*x2), and x1^j occurs in w^j only
    k = psi.degree // 2
    a = [psi.coefficient((j, 0, 1)) * Fraction(-1, 2) for j in range(k + 1)]
    if not a[k] or khavinson_psi(a) != psi:
        return None
    w, u, t = (Poly.variable(3, i, FIELD_QI) for i in range(3))
    change = ((w + u).scale(Fraction(1, 2)), (u - w).scale(GAUSSIAN_I / 2),
              t + Poly.constant(3, a[0], FIELD_QI))
    base = t - sum(((w**j).scale(a[j]) for j in range(1, k + 1)), Poly.zero(3, FIELD_QI))
    return _LadderImage(change, FischerOperator(base * base, (w * u).scale(4) + t * t))


def _filtered_profile(psi, max_target_degree, slack, image):
    deg_psi = psi.degree
    # spans[m] = (rank, missed degree) of the image of filtered(m); grown
    # only as far as a rung asks
    spans = []
    rows = []
    verdicts = []
    for n in range(max_target_degree + 1):
        tested_dim = basis_dimension(psi.arity, FILTERED, n)
        verdict = None
        for s in range(slack + 1):
            m = n - deg_psi + 2 + s
            if m < 0:
                # empty source slice: its image is {0}
                rows.append(RankProfileRow(n, m, 0, tested_dim, 0, False))
                continue
            while len(spans) <= m:
                image.grow()
                spans.append((image.echelon.rank, image.missed_degree()))
            rank, missed = spans[m]
            surjective = missed is None or missed > n
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
        if verdict is None:
            # the last rung has the highest m, so the image is at its m; with
            # m < 0 every monomial of the block is outside, the constant first
            exponents = (0,) * psi.arity
            if m >= 0:
                exponents = next(e for e in filtered_basis(psi.arity, n)
                                 if not image.contains(e))
            verdict = DegreeVerdict(n, UNDETERMINED,
                                    witness=Poly.monomial(psi.arity, exponents, 1, psi.field))
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

    Homogeneous mode reads each slice's rank and witness off
    linalg.rank_and_first_missing, which proves them from a reduction mod a
    prime when it can and reduces the slice exactly otherwise.  Filtered
    mode keeps one growing echelon form of the image for the whole ladder:
    source degree m adds the images of the degree-m monomials, and every
    rung reads its rank and verdict from the form at its m.  Rows and
    witnesses are those of reducing each rung's [A | E] afresh, with E the
    identity on the degree-n block.

    The form is kept in a change of coordinates read off psi.  For
    psi = (x3 - phi(x1 + i*x2))^2, phi = a0 + a1*z + ... + a_k*z^k, the
    coordinates (w, u, t) = (x1 + i*x2, x1 - i*x2, x3 - a0) make the
    Laplacian 4*dw*du + dt^2 and psi (t - a1*w - ... - a_k*w^k)^2, both
    sparse.  The change is a ring isomorphism that keeps degrees and
    commutes with the Laplacian, so each filtered slice, its image, their
    ranks and the filtered(n) it covers correspond exactly, and x^a lies in
    the image iff its expansion does.  Every other psi keeps the original
    coordinates.
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
        rows, verdicts = _homogeneous_profile(FischerOperator(psi), max_target_degree)
    else:
        # psi is read for a change of coordinates only if a slice gets
        # built; the check above then bounds its degree by top + 2
        image = _khavinson_coordinates(psi) if top >= 0 else None
        rows, verdicts = _filtered_profile(psi, max_target_degree, slack,
                                           image or _original_coordinates(psi))
    return RankProfile(
        psi=psi,
        mode=mode,
        max_target_degree=max_target_degree,
        slack=slack,
        rows=tuple(rows),
        verdicts=tuple(verdicts),
    )


BijectivitySlice = namedtuple("BijectivitySlice", "degree dimension rank nonsingular")


def fischer_theorem_check(p, max_degree):
    """Slice-wise nonsingularity of q -> p(D)(p * q) for homogeneous p.

    For every m <= max_degree the map sends the homogeneous slice of degree m
    to itself; the rank of each slice matrix is reported.  Expected outcome:
    nonsingular at every degree.  The slices are the rows of rank_profile's
    homogeneous loop, whose ranks come from linalg.rank_and_first_missing:
    full rank mod a prime proves a slice nonsingular, and any other slice is
    reduced exactly.
    """
    if not p.is_homogeneous() or p.degree < 1:
        raise ValueError("p must be homogeneous and non-constant")
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ValueError("max_degree must be a non-negative int")
    # p * q of degree max_degree + deg p is assembled, and with it the
    # falling factorials of p(D) up to that degree
    check_slice_dimension(p.arity, max_degree + p.degree)
    return tuple(BijectivitySlice(row.source_degree, row.dim_source, row.rank, row.surjective)
                 for row in _homogeneous_profile(FischerOperator(p, p), max_degree)[0])


def khavinson_psi(phi_coeffs):
    """Expand (x3 - phi(x1 + i*x2))^2 over the Gaussian rationals in d = 3.

    phi is given by its coefficient list a0, a1, ..., an and must be
    non-constant.  With a_k its top nonzero coefficient, psi has degree 2k,
    and it is expanded only when filtered(2k - 2) passes the slice bound, as
    for any other product of sums (see exprs._check_expansion).
    """
    coeffs = [as_scalar(c, FIELD_QI) for c in phi_coeffs]
    if not any(coeffs[1:]):
        raise ValueError("phi must be non-constant (some a_k != 0 with k >= 1)")
    k = max(j for j, c in enumerate(coeffs) if c)
    try:
        check_slice_dimension(3, 2 * k - 2)
    except SliceTooLargeError as exc:
        raise SliceTooLargeError(f"phi of degree {k} gives psi of degree {2 * k}: {exc}") from None
    w = Poly.variable(3, 0, FIELD_QI) + Poly.variable(3, 1, FIELD_QI).scale(GAUSSIAN_I)
    phi_w = Poly.zero(3, FIELD_QI)
    for c in reversed(coeffs):
        phi_w = phi_w * w + Poly.constant(3, c, FIELD_QI)
    base = Poly.variable(3, 2, FIELD_QI) - phi_w
    return base * base
