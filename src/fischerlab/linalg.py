"""Exact linear algebra over the coefficient fields.

ExactMatrix is an immutable matrix of field scalars that stores only its
nonzero entries, one dict per row.  Every elimination is sparse echelon
insertion in fischerlab._kernels on integer rows: a row (or column) goes in
with its denominators cleared, and each result entry comes out by one division.
On top of it this module owns reduced row echelon form, solving,
nullspaces, cokernel witnesses and the growing echelon of a filtered
ladder.  Apart from GrowingEchelon, all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import InconsistentSystemError
from .scalars import FIELD_Q, as_scalar, from_integer, integer_form, validate_field


class ExactMatrix:
    """Immutable matrix of exact field scalars, stored as one dict {column:
    entry} of the nonzero entries per row.  The constructor takes dense
    row-major entries, ``from_nonzeros`` the row dicts."""

    __slots__ = ("rows", "cols", "field", "_nonzeros")

    def __init__(self, rows, cols, entries, field=FIELD_Q):
        validate_field(field)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        entries = [as_scalar(e, field) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        nonzeros = tuple(
            {j: e for j, e in enumerate(entries[i * cols : (i + 1) * cols]) if e}
            for i in range(rows)
        )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_nonzeros", nonzeros)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_nonzeros(cls, cols, rows_data, field=FIELD_Q):
        """The matrix with one row per dict {column: entry}; absent entries
        are zero, and zero entries are dropped."""
        matrix = cls(0, cols, (), field)  # checks cols and the field; rows are set below
        nonzeros = []
        for row in rows_data:
            if any(not 0 <= j < cols for j in row):
                raise IndexError(f"a column index is out of range for {cols} columns")
            nonzeros.append({j: v for j, e in row.items() if (v := as_scalar(e, field))})
        object.__setattr__(matrix, "rows", len(nonzeros))
        object.__setattr__(matrix, "_nonzeros", tuple(nonzeros))
        return matrix

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
        return cls.from_nonzeros(n, [{i: 1} for i in range(n)], field)

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return self._nonzeros[i].get(j) or as_scalar(0, self.field)

    def row(self, i):
        zero = as_scalar(0, self.field)
        return tuple(self._nonzeros[i].get(j, zero) for j in range(self.cols))

    def column(self, j):
        zero = as_scalar(0, self.field)
        return tuple(row.get(j, zero) for row in self._nonzeros)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self._nonzeros == other._nonzeros
        )

    def mul_vector(self, vec):
        vec = [as_scalar(v, self.field) for v in vec]
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match cols {self.cols}")
        zero = as_scalar(0, self.field)
        out = []
        for row in self._nonzeros:
            acc = zero
            for j, e in row.items():
                acc = acc + e * vec[j]
            out.append(acc)
        return out

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        columns = [self.mul_vector(other.column(j)) for j in range(other.cols)]
        return ExactMatrix.from_columns(columns, self.rows, self.field)

    def hstack(self, other):
        """Concatenate columns: [self | other]."""
        if self.rows != other.rows or self.field != other.field:
            raise ValueError("hstack needs matching row count and field")
        rows_data = [
            {**left, **{self.cols + j: e for j, e in right.items()}}
            for left, right in zip(self._nonzeros, other._nonzeros)
        ]
        return ExactMatrix.from_nonzeros(self.cols + other.cols, rows_data, self.field)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, field={self.field!r})"


def _vector(scalars, field):
    """The kernel vector of {key: scalar}, its denominators cleared."""
    return dict(zip(scalars, integer_form(scalars.values(), field)[0]))


def _kernel(field):
    # looked up at call time, so a wrapper installed on _kernels sees the call
    if field == FIELD_Q:
        return _kernels.rref_q, _kernels.Q
    return _kernels.rref_qi, _kernels.QI


def _rows(matrix):
    """The rows of a matrix as kernel vectors keyed by column."""
    return [_vector(row, matrix.field) for row in matrix._nonzeros]


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
    rows_data = [{j: from_integer(e, den) for j, e in row.items()}
                 for row, den in (reduced[pc] for pc in pivots)]
    rows_data += [{}] * (matrix.rows - len(pivots))
    reduced_matrix = ExactMatrix.from_nonzeros(matrix.cols, rows_data, matrix.field)
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
        columns = [{} for _ in range(matrix.cols)]
        for i, row in enumerate(matrix._nonzeros):
            for j, e in row.items():
                columns[j][-i] = e
        kernel([_vector(column, self.field) for column in columns], self._echelon)
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
    rows = [_vector({**row, matrix.cols: value} if value else row, matrix.field)
            for row, value in zip(matrix._nonzeros, rhs)]
    kernel, field = _kernel(matrix.field)
    echelon = kernel(rows, {})
    if matrix.cols in echelon:
        raise InconsistentSystemError("right-hand side is outside the column space")
    x = [as_scalar(0, matrix.field)] * matrix.cols
    values, den = _kernels.solution(field, echelon, matrix.cols)
    for pc, value in values.items():
        x[pc] = from_integer(value, den)
    if matrix.mul_vector(x) != rhs:
        raise AssertionError("internal error: solution failed the exact recheck")
    return x


def nullspace_basis(matrix):
    """Linearly independent exact vectors spanning the kernel."""
    result = rref(matrix)
    basis = []
    for free_col in sorted(set(range(matrix.cols)) - set(result.pivot_cols)):
        v = [as_scalar(int(j == free_col), matrix.field) for j in range(matrix.cols)]
        for r, pc in enumerate(result.pivot_cols):
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
    return [as_scalar(int(i == j), matrix.field) for i in range(matrix.rows)]
