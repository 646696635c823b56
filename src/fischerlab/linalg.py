"""Exact linear algebra over the coefficient fields.

ExactMatrix is stored as a Poly is, its rows vectors of the elimination
kernel, fischerlab._kernels, over one denominator: they go into its sparse
echelon insertion as they are, and scalars are built only when an entry is
read.  On top of it this module owns reduced row echelon form, solving, the
rank and first missing unit vector of a column span, certified mod a prime,
and the growing echelon of a filtered ladder.  Apart from GrowingEchelon, all
operations are pure functions.  ``solve`` eliminates only the rows that
the right-hand side reaches through shared columns; every other unknown is
0, as a free one is, and its exact recheck still covers every row.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from . import _kernels
from .errors import InconsistentSystemError
from .scalars import FIELD_Q, INTEGERS, as_scalar, from_integer, integer_form, validate_field


class ExactMatrix:
    """Immutable matrix of exact field scalars.

    As in a Poly, the entries are ints over one positive int den: row i is a
    dict mapping the columns of its nonzero entries to den times the entry,
    an int over Q and an (re, im) pair of ints over Qi.  den is not always
    the least, so equality compares values.  The constructor takes dense
    row-major entries, ``from_integer_rows`` the rows and den.  No path in
    the package calls ``from_columns``, ``hstack`` or ``mul_vector``; they
    stay while the benchmark's tracer wraps them.
    """

    __slots__ = ("rows", "cols", "field", "_rows", "_den")

    def __init__(self, rows, cols, entries, field=FIELD_Q):
        entries = list(entries)
        if rows < 0 or len(entries) != rows * cols:
            raise ValueError(f"expected {rows} x {cols} entries, got {len(entries)}")
        nonzero = {k: v for k, e in enumerate(entries) if (v := as_scalar(e, field))}
        ints, den = integer_form(nonzero.values(), field)
        int_rows = [{} for _ in range(rows)]
        for k, x in zip(nonzero, ints):
            int_rows[k // cols][k % cols] = x
        self._store(cols, int_rows, den, field)

    def _store(self, cols, int_rows, den, field):
        validate_field(field)
        if cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        object.__setattr__(self, "rows", len(int_rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_rows", tuple(int_rows))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_integer_rows(cls, cols, int_rows, den, field=FIELD_Q):
        """The matrix of the given stored rows over the positive int den,
        taken as they are: no entry is checked or converted."""
        matrix = cls.__new__(cls)
        matrix._store(cols, int_rows, den, field)
        return matrix

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

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        ints = self._rows[i]
        return from_integer(ints[j], self._den) if j in ints else as_scalar(0, self.field)

    def row(self, i):
        return tuple(self.entry(i, j) for j in range(self.cols))

    def column(self, j):
        return tuple(self.entry(i, j) for i in range(self.rows))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        times, da, db = INTEGERS[self.field].times, self._den, other._den
        # a / da and b / db are equal when a * db == b * da entrywise
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and all(a.keys() == b.keys() and all(times(a[j], db) == times(b[j], da) for j in a)
                    for a, b in zip(self._rows, other._rows))
        )

    def mul_vector(self, vec):
        """matrix @ vec, as dot products in ints: one scalar per output row."""
        vec = [as_scalar(v, self.field) for v in vec]
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match cols {self.cols}")
        ints, vec_den = integer_form(vec, self.field)
        values, dot, den = dict(enumerate(ints)), INTEGERS[self.field].dot, self._den * vec_den
        return [from_integer(dot(row, values), den) for row in self._rows]

    def hstack(self, other):
        """Concatenate columns: [self | other]."""
        if self.rows != other.rows or self.field != other.field:
            raise ValueError("hstack needs matching row count and field")
        times, da, db = INTEGERS[self.field].times, self._den, other._den
        int_rows = [{**{j: times(x, db) for j, x in a.items()},
                     **{self.cols + j: times(x, da) for j, x in b.items()}}
                    for a, b in zip(self._rows, other._rows)]
        return ExactMatrix.from_integer_rows(self.cols + other.cols, int_rows, da * db, self.field)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, field={self.field!r})"


def _kernel(field):
    # looked up at call time, so a wrapper installed on _kernels sees the call
    return (_kernels.rref_q if field == FIELD_Q else _kernels.rref_qi), INTEGERS[field]


class RrefResult(namedtuple("RrefResult", "rref rank pivot_cols")):
    """Reduced row echelon form of a matrix.

    rref has the row space of the original, its nonzero rows first;
    pivot_cols is strictly increasing with length equal to the rank.  The
    form is unique, so neither depends on the order of the rows.
    """

    __slots__ = ()


def rref(matrix):
    """Reduced row echelon form: the rows go into one echelon, and each
    column j that is no pivot is _kernels.solution(field, echelon, j), the
    reduced rows going over the lcm of those dens.  No path in the package
    calls rref; it stays while the benchmark's tracer wraps it."""
    kernel, field = _kernel(matrix.field)
    echelon = kernel(matrix._rows, {})
    pivots = tuple(sorted(echelon))
    columns = {j: _kernels.solution(field, echelon, j) for j in range(matrix.cols) if j not in echelon}
    den = lcm(*(d for _, d in columns.values()))
    int_rows = [{lead: field.times(field.one, den),
                 **{j: field.times(values[lead], den // d)
                    for j, (values, d) in columns.items() if values[lead] != field.zero}}
                for lead in pivots] + [{}] * (matrix.rows - len(pivots))
    return RrefResult(ExactMatrix.from_integer_rows(matrix.cols, int_rows, den, matrix.field),
                      len(pivots), pivots)


def _columns(matrix, entry=None):
    """The columns of the matrix as kernel vectors, coordinate i keyed by -i:
    those of den times the matrix, its stored ints, or entry(x) of each
    stored x when entry is given."""
    columns = [{} for _ in range(matrix.cols)]
    for i, row in enumerate(matrix._rows):
        for j, x in row.items():
            columns[j][-i] = x if entry is None else entry(x)
    return columns


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
    vectors arrive.  So the first coordinate that leads no row, ``covered``,
    is the first e_j outside the span (``first_missing``), and every e_i
    with i < covered lies in it.  ``contains`` tests one vector without
    changing the span.
    """

    def __init__(self, field=FIELD_Q):
        validate_field(field)
        self.field = field
        self.width = 0
        self.rank = 0
        self.covered = 0
        self.leading = frozenset()
        self._echelon = {}

    def extend(self, matrix):
        if matrix.field != self.field:
            raise ValueError(f"field mismatch: {self.field} vs {matrix.field}")
        if matrix.rows < self.width:
            raise ValueError("a later matrix cannot have fewer rows than an earlier one")
        kernel, _ = _kernel(self.field)
        kernel(_columns(matrix), self._echelon)
        self.width = matrix.rows
        self.rank = len(self._echelon)
        self.leading = frozenset(-lead for lead in self._echelon)
        while self.covered in self.leading:
            self.covered += 1

    def first_missing(self, count):
        """The first j < count with e_j outside the span, or None.

        Every e_i with i < j lies in the span.  Coordinates at or beyond
        ``width`` lead no row, so they count as outside.
        """
        return self.covered if self.covered < count else None

    def contains(self, entries):
        """Whether the vector {coordinate: n} lies in the span, each n a
        nonzero entry in integer form (the vector times any denominator).

        A vector whose highest coordinate leads no row is outside, and one
        whose highest coordinate lies below ``covered`` is inside; any other
        vector is reduced by the echelon, which is left as it is.
        """
        if not entries:
            return True
        top = max(entries)
        if top not in self.leading:
            return False
        if top < self.covered:
            return True
        vector = {-j: x for j, x in entries.items()}
        return not _kernels.remainder(INTEGERS[self.field], vector, self._echelon)


def _reached(int_rows, seeds):
    """The indices, in order, of the rows joined to a seed row by a chain of
    rows that share a column, the seeds included: one pass over the
    nonzeros to index rows by column, then a search from the seeds."""
    rows_of = {}
    for i, row in enumerate(int_rows):
        for j in row:
            rows_of.setdefault(j, []).append(i)
    reached, stack = set(seeds), list(seeds)
    while stack:
        for j in int_rows[stack.pop()]:
            for i in rows_of.pop(j, ()):
                if i not in reached:
                    reached.add(i)
                    stack.append(i)
    return sorted(reached)


def solve(matrix, rhs):
    """One exact solution of matrix @ x == rhs, free variables pinned to zero.

    The rhs is written as ints b over one common denominator, so the stored
    row a / den and rhs entry b / common give the row [a | b * den]: the
    stored ints go into the echelon as they are, and the unknowns are y =
    x * common.  Only the rows that a row with a nonzero rhs entry reaches
    through shared columns (Gilbert & Peierls 1988, SIAM J. Sci. Stat.
    Comput. 9) go into the echelon.  The other rows share no column with
    them and have a zero rhs, so they would only add leads whose value is 0,
    and their unknowns are 0, as free ones are; the reached rows' echelon is
    the one all rows would give.  That echelon, its leads and x do not
    depend on the order of the rows, but its cost does: the rows go in from
    the last reached one to the first, which on the operator slices leaves
    far less for each insertion to reduce than the graded order.  Raises
    InconsistentSystemError when the rhs column leads a row, i.e. rhs is
    outside the column space; otherwise back-substitution reads y = values
    / d off the rhs column, and x = values / (d * common).  Before x is
    returned, every row of the stored matrix, reached or not, is rechecked
    exactly: dot(a, values) == b * d * den.
    """
    rhs = [as_scalar(v, matrix.field) for v in rhs]
    if len(rhs) != matrix.rows:
        raise ValueError(f"rhs length {len(rhs)} does not match rows {matrix.rows}")
    kernel, field = _kernel(matrix.field)
    cols, den, times, int_rows = matrix.cols, matrix._den, field.times, matrix._rows
    rhs_ints, common = integer_form(rhs, matrix.field)
    augmented = []
    # the seeds test the scalar: over Qi a zero b is (0, 0), which is truthy
    for i in reversed(_reached(int_rows, [i for i, v in enumerate(rhs) if v])):
        row = int_rows[i]
        augmented.append({**row, cols: times(rhs_ints[i], den)} if rhs[i] else row)
    echelon = kernel(augmented, {})
    if cols in echelon:
        raise InconsistentSystemError("right-hand side is outside the column space")
    values, d = _kernels.solution(field, echelon, cols)
    if any(field.dot(row, values) != times(b, d * den) for row, b in zip(int_rows, rhs_ints)):
        raise AssertionError("internal error: solution failed the exact recheck")
    zero, d = as_scalar(0, matrix.field), d * common
    return [from_integer(values[j], d) if j in values else zero for j in range(cols)]


def rank_and_first_missing(matrix):
    """(rank, first_missing) of the column span of the matrix: its rank, and
    the first j with e_j outside the span, every e_i with i < j inside, or
    None at full row rank.  They equal ``GrowingEchelon.rank`` and
    ``first_missing(matrix.rows)`` after one ``extend``.

    The columns are first reduced mod the prime ``_kernels.P``, i sent to
    ``_kernels.I_P``: a ring map from the integer matrix, so its rank r mod
    P bounds the exact rank from below.  Two answers rest on that bound
    alone.  With r = rows the rank is rows: the span is everything (None).
    With r = cols, e_0 outside the span mod P, the rank of [matrix | e_0]
    mod P is cols + 1: the rank is cols and e_0 is outside the span (0).
    Any other case, a rank deficit, a witness past e_0 or a prime at which
    the rank drops, is answered by an exact GrowingEchelon.  The columns go
    in in their own order: reversed, the 15 slices of x^3+2y^3+3z^3 to
    degree 15 take 6655 reduction steps and 175k entry updates, not 5002 and 63k.
    """
    p, i_p, residue = _kernels.P, _kernels.I_P, INTEGERS[matrix.field].residue
    leads = _kernels.insert_mod_p(_columns(matrix, lambda x: residue(x, i_p) % p), {}, p)
    if len(leads) == matrix.rows:
        return matrix.rows, None
    if len(leads) == matrix.cols and 0 not in leads:
        return matrix.cols, 0
    echelon = GrowingEchelon(matrix.field)
    echelon.extend(matrix)
    return echelon.rank, echelon.first_missing(matrix.rows)

