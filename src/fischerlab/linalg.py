"""Exact linear algebra over the coefficient fields.

ExactMatrix is a dense, immutable matrix of field scalars.  Every
elimination is sparse echelon insertion in fischerlab._kernels: rows (or
columns) go in as dicts of their nonzero entries, as reduced integer
tuples, and come back out as scalars.  On top of it this module owns
reduced row echelon form, solving, nullspaces, cokernel witnesses and the
growing echelon of a filtered ladder.  Apart from GrowingEchelon, all
operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .errors import InconsistentSystemError
from .scalars import FIELD_Q, FIELD_QI, GaussianRational, as_scalar, validate_field


class ExactMatrix:
    """Dense matrix of exact field scalars, stored row-major."""

    __slots__ = ("rows", "cols", "field", "_entries")

    def __init__(self, rows, cols, entries, field=FIELD_Q):
        validate_field(field)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        entries = tuple(as_scalar(e, field) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows_data, field=FIELD_Q):
        rows_data = [list(r) for r in rows_data]
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        if any(len(r) != cols for r in rows_data):
            raise ValueError("ragged rows")
        return cls(rows, cols, [e for r in rows_data for e in r], field)

    @classmethod
    def from_columns(cls, columns, rows=None, field=FIELD_Q):
        columns = [list(c) for c in columns]
        if rows is None:
            if not columns:
                raise ValueError("rows must be given for a matrix with no columns")
            rows = len(columns[0])
        if any(len(c) != rows for c in columns):
            raise ValueError("ragged columns")
        entries = [columns[j][i] for i in range(rows) for j in range(len(columns))]
        return cls(rows, len(columns), entries, field)

    @classmethod
    def identity(cls, n, field=FIELD_Q):
        entries = [1 if i == j else 0 for i in range(n) for j in range(n)]
        return cls(n, n, entries, field)

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return self._entries[i * self.cols + j]

    def row(self, i):
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self._entries[i * self.cols + j] for i in range(self.rows))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self._entries == other._entries
        )

    def mul_vector(self, vec):
        vec = [as_scalar(v, self.field) for v in vec]
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match cols {self.cols}")
        zero = as_scalar(0, self.field)
        out = []
        for i in range(self.rows):
            acc = zero
            base = i * self.cols
            for j in range(self.cols):
                acc = acc + self._entries[base + j] * vec[j]
            out.append(acc)
        return out

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        zero = as_scalar(0, self.field)
        entries = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                entries.append(acc)
        return ExactMatrix(self.rows, other.cols, entries, self.field)

    def hstack(self, other):
        """Concatenate columns: [self | other]."""
        if self.rows != other.rows or self.field != other.field:
            raise ValueError("hstack needs matching row count and field")
        entries = []
        for i in range(self.rows):
            entries.extend(self.row(i))
            entries.extend(other.row(i))
        return ExactMatrix(self.rows, self.cols + other.cols, entries, self.field)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, field={self.field!r})"


def _entry(value):
    """The kernel entry of a field scalar."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    re, im = value.re, value.im
    return re.numerator, re.denominator, im.numerator, im.denominator


def _scalar(entry):
    """The field scalar of a kernel entry."""
    if len(entry) == 2:
        return Fraction(*entry)
    return GaussianRational(Fraction(*entry[:2]), Fraction(*entry[2:]))


def _kernel(field):
    # looked up at call time, so a wrapper installed on _kernels sees the call
    if field == FIELD_Q:
        return _kernels.rref_q, _kernels.Q
    return _kernels.rref_qi, _kernels.QI


def _rows(matrix):
    """The rows of a matrix as kernel vectors keyed by column."""
    return [
        {j: _entry(e) for j, e in enumerate(matrix.row(i)) if e}
        for i in range(matrix.rows)
    ]


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form of a matrix.

    rref has the row space of the original, its nonzero rows first;
    pivot_cols is strictly increasing with length equal to the rank.  The
    form is unique, so neither depends on the order of the rows.
    """

    rref: ExactMatrix
    rank: int
    pivot_cols: tuple


def rref(matrix):
    """Reduced row echelon form: the rows go into one echelon, then
    back-substitution clears every pivot column."""
    kernel, field = _kernel(matrix.field)
    reduced = _kernels.back_substitute(field, kernel(_rows(matrix), {}))
    pivots = tuple(sorted(reduced))
    zero = as_scalar(0, matrix.field)
    entries = [zero] * (matrix.rows * matrix.cols)
    for r, pc in enumerate(pivots):
        for j, e in reduced[pc].items():
            entries[r * matrix.cols + j] = _scalar(e)
    reduced_matrix = ExactMatrix(matrix.rows, matrix.cols, entries, matrix.field)
    return RrefResult(rref=reduced_matrix, rank=len(pivots), pivot_cols=pivots)


class GrowingEchelon:
    """Echelon form of a growing span of coordinate vectors.

    ``extend`` adds the columns of a matrix to the span.  Each matrix may
    have more rows than the one before: its coordinates extend the earlier
    ones, which keep their indices (as a filtered slice extends a smaller
    one).  The kernel echelon is kept across calls, keyed by -j for
    coordinate j, so each row leads with its highest nonzero coordinate and
    only the new columns are inserted.  ``leading`` is the set of those
    coordinates: e_j lies in span + span(e_0..e_{j-1}) exactly when j is in
    it, and ``rank`` is its size.  Neither depends on the order in which
    vectors arrive.  So the first coordinate that leads no row is the first
    e_j outside the span (``first_missing``).
    """

    def __init__(self, field=FIELD_Q):
        validate_field(field)
        self.field = field
        self.width = 0
        self.rank = 0
        self.leading = frozenset()
        self._echelon = {}

    def extend(self, matrix):
        if matrix.field != self.field:
            raise ValueError(f"field mismatch: {self.field} vs {matrix.field}")
        if matrix.rows < self.width:
            raise ValueError("a later matrix cannot have fewer rows than an earlier one")
        kernel, _ = _kernel(self.field)
        columns = [
            {-i: _entry(e) for i, e in enumerate(matrix.column(j)) if e}
            for j in range(matrix.cols)
        ]
        kernel(columns, self._echelon)
        self.width = matrix.rows
        self.rank = len(self._echelon)
        self.leading = frozenset(-lead for lead in self._echelon)

    def first_missing(self, count):
        """The first j < count with e_j outside the span, or None.

        Every e_i with i < j lies in the span.  Coordinates at or beyond
        ``width`` lead no row, so they count as outside.
        """
        return next((j for j in range(count) if j not in self.leading), None)


def solve(matrix, rhs):
    """One exact solution of matrix @ x == rhs, free variables pinned to zero.

    The rows of [matrix | rhs] go into one echelon.  Raises
    InconsistentSystemError when the rhs column leads a row, i.e. rhs is
    outside the column space; otherwise back-substitution reads x off the
    rhs column.  The solution is rechecked exactly before being returned.
    """
    rhs = [as_scalar(v, matrix.field) for v in rhs]
    if len(rhs) != matrix.rows:
        raise ValueError(f"rhs length {len(rhs)} does not match rows {matrix.rows}")
    rows = _rows(matrix)
    for row, value in zip(rows, rhs):
        if value:
            row[matrix.cols] = _entry(value)
    kernel, field = _kernel(matrix.field)
    echelon = kernel(rows, {})
    if matrix.cols in echelon:
        raise InconsistentSystemError("right-hand side is outside the column space")
    x = [as_scalar(0, matrix.field)] * matrix.cols
    for pc, value in _kernels.solution(field, echelon, matrix.cols).items():
        x[pc] = _scalar(value)
    if matrix.mul_vector(x) != rhs:
        raise AssertionError("internal error: solution failed the exact recheck")
    return x


def nullspace_basis(matrix):
    """Linearly independent exact vectors spanning the kernel."""
    result = rref(matrix)
    pivots = list(result.pivot_cols)
    pivot_set = set(pivots)
    zero = as_scalar(0, matrix.field)
    one = as_scalar(1, matrix.field)
    basis = []
    for free_col in range(matrix.cols):
        if free_col in pivot_set:
            continue
        v = [zero] * matrix.cols
        v[free_col] = one
        for r, pc in enumerate(pivots):
            v[pc] = -result.rref.entry(r, free_col)
        basis.append(v)
    return basis


def cokernel_witness(matrix):
    """A right-hand side provably outside the column space, or None.

    The witness is e_j for the first j such that matrix @ x == e_j has no
    solution; every e_i with i < j is solvable.  None means full row rank.
    """
    echelon = GrowingEchelon(matrix.field)
    echelon.extend(matrix)
    j = echelon.first_missing(matrix.rows)
    if j is None:
        return None
    zero = as_scalar(0, matrix.field)
    one = as_scalar(1, matrix.field)
    witness = [zero] * matrix.rows
    witness[j] = one
    return witness
