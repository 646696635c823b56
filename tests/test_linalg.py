import math
import random
from fractions import Fraction

import pytest

from fischerlab import _kernels
from fischerlab import (
    ExactMatrix,
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    GrowingEchelon,
    InconsistentSystemError,
    QuadricDomain,
    as_scalar,
    backend_name,
    dirichlet_solve,
    parse_polynomial,
    rank_and_first_missing,
    rref,
    solve,
)
from fischerlab.scalars import from_integer, integer_form
from helpers import (
    assert_first_unsolvable_unit,
    from_sympy,
    identity,
    matrix_product,
    random_matrix,
    random_scalar,
    reference_rank,
    scalar_solve,
    to_sympy,
    unit_vector,
)


def test_rref_identity():
    result = rref(identity(3))
    assert result.rank == 3
    assert result.pivot_cols == (0, 1, 2)
    assert result.rref == identity(3)


def test_rref_proportional_rows():
    m = ExactMatrix(2, 2, [2, 4, 1, 2])
    assert rref(m).rank == 1


def test_rref_keeps_the_row_space():
    rng = random.Random(5)
    for field in (FIELD_Q, FIELD_QI):
        for inner in (2, 5, 8):
            # rank at most inner: the product of 8 x inner and inner x 8
            m = matrix_product(random_matrix(rng, 8, inner, field),
                               random_matrix(rng, inner, 8, field))
            result = rref(m)
            rows = [m.row(i) for i in range(8)] + [result.rref.row(i) for i in range(8)]
            stacked = ExactMatrix(16, 8, [e for row in rows for e in row], field)
            assert rref(stacked).rank == result.rank
            assert rref(result.rref).rank == result.rank


def test_rref_structure_on_randoms():
    rng = random.Random(7)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(15):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), field)
            result = rref(m)
            assert list(result.pivot_cols) == sorted(result.pivot_cols)
            assert result.rank == len(result.pivot_cols)
            assert result.rank <= min(m.rows, m.cols)
            one = as_scalar(1, field)
            for r, pc in enumerate(result.pivot_cols):
                column = result.rref.column(pc)
                assert column[r] == one
                assert all(not v for i, v in enumerate(column) if i != r)


def test_solve_identity():
    rng = random.Random(13)
    b = [random_scalar(rng) for _ in range(4)]
    assert scalar_solve(identity(4), b) == b


def test_solve_free_variable_zero_convention():
    m = ExactMatrix(1, 2, [1, 1])
    assert scalar_solve(m, [2]) == [Fraction(2), Fraction(0)]


def test_solve_construct_then_solve():
    rng = random.Random(17)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(20):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, rows, cols, field)
            x0 = [random_scalar(rng, field) for _ in range(cols)]
            b = m.mul_vector(x0)
            x = scalar_solve(m, b)
            assert m.mul_vector(x) == b


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_solve_recheck_rejects_a_wrong_solution(monkeypatch, field):
    exact = _kernels.solution

    def perturbed(table, echelon, column):
        # add one to the real part of the first value: x/d -> (x + d)/d
        values, d = exact(table, echelon, column)
        lead = min(values)
        x = values[lead]
        values[lead] = x + d if isinstance(x, int) else (x[0] + d, x[1])
        return values, d

    m = ExactMatrix(3, 3, [2, 1, 0, 1, 1, 1, 0, 3, 1], field)
    rhs = [as_scalar(v, field) for v in (1, 2, 3)]
    assert m.mul_vector(scalar_solve(m, rhs)) == rhs
    monkeypatch.setattr(_kernels, "solution", perturbed)
    with pytest.raises(AssertionError, match="exact recheck"):
        scalar_solve(m, rhs)


def test_solve_inconsistent():
    m = ExactMatrix(2, 2, [1, 0, 0, 0])
    with pytest.raises(InconsistentSystemError):
        scalar_solve(m, [0, 1])


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_solve_rhs_with_zero_entries(monkeypatch, field):
    # a zero row with a zero rhs entry: over Qi that entry's int form is the
    # truthy (0, 0), and it must not reach the rhs column as a nonzero
    c = GaussianRational(0, 1) if field == FIELD_QI else Fraction(5, 2)
    m = ExactMatrix(4, 3, [2, 1, 0, 0, 0, 0, 1, 0, c, 0, 3, 1], field)
    rhs = [as_scalar(v, field) for v in (0, 0, Fraction(1, 3), 0)]
    x = scalar_solve(m, rhs)
    assert m.mul_vector(x) == rhs
    zero = [as_scalar(0, field)] * 4
    assert scalar_solve(m, zero) == zero[:3]
    with pytest.raises(InconsistentSystemError):
        scalar_solve(m, [as_scalar(v, field) for v in (0, 1, 0, 0)])
    exact = _kernels.solution

    def perturbed(table, echelon, column):
        # one numerator moves by one, so matrix @ x leaves rhs; a zero rhs
        # reaches no row and gives no values, so x_0 = 1 / d is planted
        values, d = exact(table, echelon, column)
        if not values:
            values[0] = 1 if table is _kernels.Q else (1, 0)
            return values, d
        key = max(values)
        x = values[key]
        values[key] = x + 1 if isinstance(x, int) else (x[0], x[1] + 1)
        return values, d

    monkeypatch.setattr(_kernels, "solution", perturbed)
    for b in (rhs, zero):
        with pytest.raises(AssertionError, match="exact recheck"):
            scalar_solve(m, b)


def _oracle_solve(matrix, rhs):
    """x as one echelon of every row of [matrix | rhs] gives it, read off the
    rhs column with free variables pinned to zero."""
    field, cols = matrix.field, matrix.cols
    kernel, table = ((_kernels.rref_q, _kernels.Q) if field == FIELD_Q
                     else (_kernels.rref_qi, _kernels.QI))
    vectors = []
    for i in range(matrix.rows):
        entries = {j: e for j, e in enumerate(matrix.row(i) + (rhs[i],)) if e}
        ints, _ = integer_form(entries.values(), field)
        vectors.append(dict(zip(entries, ints)))
    echelon = kernel(vectors, {})
    if cols in echelon:
        raise InconsistentSystemError("oracle: rhs outside the column space")
    values, d = _kernels.solution(table, echelon, cols)
    zero = 0 if field == FIELD_Q else (0, 0)
    return [from_integer(values.get(j, zero), d) for j in range(cols)]


def _block_system(rng, field, blocks, value=random_scalar):
    """(matrix, rhs, column blocks) of a sparse system that is block-diagonal
    once its rows and its columns are permuted at random.  Each block is
    (rows, cols, dependent, kind): its last ``dependent`` rows combine two
    earlier ones (or are zero when there are none), and kind says whether
    its rhs is "zero", in the span of its columns ("span") or, its last
    row's entry moved by one, outside it ("outside").  The rhs is the matrix
    times an x whose entries ``value`` draws."""
    zero = as_scalar(0, field)
    row_order = list(range(sum(b[0] for b in blocks)))
    col_order = list(range(sum(b[1] for b in blocks)))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    dense = [[zero] * len(col_order) for _ in row_order]
    rhs = [zero] * len(row_order)
    col_blocks, r0, c0 = [], 0, 0
    for rows, cols, dependent, kind in blocks:
        entries = [[random_scalar(rng, field, nonzero=True) if rng.random() < 0.6 else zero
                    for _ in range(cols)] for _ in range(rows - dependent)]
        for _ in range(dependent):
            if rows > dependent:
                a, b = random_scalar(rng, field), random_scalar(rng, field)
                u, v = rng.choice(entries[:rows - dependent]), rng.choice(entries[:rows - dependent])
                entries.append([a * x + b * y for x, y in zip(u, v)])
            else:
                entries.append([zero] * cols)
        # a sparse x, so that a row of a block can have a zero rhs entry
        x = [value(rng, field) if rng.random() < 0.5 else zero for _ in range(cols)]
        b = [sum((e * v for e, v in zip(row, x)), zero) if kind != "zero" else zero
             for row in entries]
        if kind == "outside":
            b[-1] += 1
        for i in range(rows):
            rhs[row_order[r0 + i]] = b[i]
            for j in range(cols):
                dense[row_order[r0 + i]][col_order[c0 + j]] = entries[i][j]
        col_blocks.append([col_order[c0 + j] for j in range(cols)])
        r0, c0 = r0 + rows, c0 + cols
    matrix = ExactMatrix(len(row_order), len(col_order), [e for r in dense for e in r], field)
    return matrix, rhs, col_blocks


def _solve_both(matrix, rhs):
    """solve and the oracle on one system: both x, or both refusals."""
    try:
        expected = _oracle_solve(matrix, rhs)
    except InconsistentSystemError:
        with pytest.raises(InconsistentSystemError):
            scalar_solve(matrix, rhs)
        return None
    x = scalar_solve(matrix, rhs)
    assert x == expected
    assert matrix.mul_vector(x) == rhs
    return x


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_solve_on_permuted_blocks_matches_the_all_rows_oracle(field):
    rng = random.Random(1988 if field == FIELD_Q else 1989)
    zero = as_scalar(0, field)
    # a singular block with a zero rhs: x is 0 on its columns, and no error
    matrix, rhs, col_blocks = _block_system(
        rng, field, [(4, 4, 2, "zero"), (3, 3, 0, "span"), (2, 3, 1, "span")])
    x = _solve_both(matrix, rhs)
    assert x is not None and all(x[j] == zero for j in col_blocks[0])
    # a rank-deficient block whose rhs is outside its span
    matrix, rhs, _ = _block_system(rng, field, [(3, 3, 0, "span"), (4, 3, 1, "outside")])
    assert _solve_both(matrix, rhs) is None
    # an all-zero rhs: every unknown is 0
    matrix, _, _ = _block_system(rng, field, [(3, 4, 1, "span"), (2, 2, 0, "span")])
    assert _solve_both(matrix, [zero] * matrix.rows) == [zero] * matrix.cols
    # a nonzero rhs entry on an all-zero row
    matrix, rhs, _ = _block_system(rng, field, [(3, 3, 0, "span"), (1, 2, 1, "outside")])
    assert _solve_both(matrix, rhs) is None
    # and random mixtures of all of these
    refused = 0
    for _ in range(60):
        blocks = []
        for _ in range(rng.randint(1, 5)):
            rows, cols = rng.randint(1, 5), rng.randint(0, 5)
            dependent = rng.randint(0, rows - 1) if rng.random() < 0.5 else 0
            kinds = ["zero", "span"] + ["outside"] * (dependent > 0 and rng.random() < 0.3)
            blocks.append((rows, cols, dependent, rng.choice(kinds)))
        matrix, rhs, _ = _block_system(rng, field, blocks)
        refused += _solve_both(matrix, rhs) is None
    assert 0 < refused < 60


def test_solve_inserts_only_the_reached_rows(monkeypatch):
    # rows 0-1 on columns 0-1 carry the rhs; rows 2-3 on columns 2-3 do not
    m = ExactMatrix(4, 4, [1, 2, 0, 0, 3, 4, 0, 0, 0, 0, 5, 6, 0, 0, 7, 8])
    rhs = [as_scalar(v, FIELD_Q) for v in (1, 2, 0, 0)]
    inserted = []
    kernel = _kernels.rref_q

    def spy(vectors, echelon):
        inserted.extend(vectors)
        return kernel(vectors, echelon)

    monkeypatch.setattr(_kernels, "rref_q", spy)
    assert scalar_solve(m, rhs) == [0, Fraction(1, 2), 0, 0]
    assert [sorted(v) for v in inserted] == [[0, 1, 4], [0, 1, 4]]
    exact = _kernels.solution

    def planted(table, echelon, column):
        # x_2 = 1 on a column that no reached row holds: only rows 2-3 see it
        values, d = exact(table, echelon, column)
        values[2] = d
        return values, d

    monkeypatch.setattr(_kernels, "solution", planted)
    with pytest.raises(AssertionError, match="exact recheck"):
        scalar_solve(m, rhs)


def test_solve_rhs_length_check():
    with pytest.raises(ValueError, match="rhs length 1 does not match rows 2"):
        scalar_solve(identity(2), [1])


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_solve_refuses_an_rhs_not_in_integer_form(field):
    m = identity(2, field)
    one, zero = _kernels.Q.one if field == FIELD_Q else _kernels.QI.one, as_scalar(0, field)
    # the pair form itself (a list of two entries over Qi reads as a pair
    # whose den is no int), and its length
    for rhs in ([one, one], [as_scalar(1, field), zero], 3, None):
        with pytest.raises(ValueError, match="an \\(ints, den\\) pair|denominator"):
            solve(m, rhs)
    with pytest.raises(ValueError, match="rhs length 3 does not match rows 2"):
        solve(m, ([one] * 3, 1))
    # a denominator that is not a positive int
    for den in (0, -2, True, 2.0, Fraction(2), "2"):
        with pytest.raises(ValueError, match="denominator must be a positive int"):
            solve(m, ([one, one], den))
    # an entry that is not in the field's integer form
    others = ([True, 1.0, Fraction(1), (1, 0), "1"] if field == FIELD_Q
              else [1, (1,), (1, 0, 0), [1, 0], (1, 0.0), (True, 0), Fraction(1), zero])
    for entry in others:
        with pytest.raises(ValueError, match="not in the integer form of field"):
            solve(m, ([one, entry], 1))
    assert solve(m, ([one, one], 2)) == [as_scalar(Fraction(1, 2), field)] * 2


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(19)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), field)
            result = rref(m)
            assert result.rank == reference_rank(m)
            # the kernel read off the reduced form: one vector per free column
            basis = []
            for free in sorted(set(range(m.cols)) - set(result.pivot_cols)):
                v = [as_scalar(int(j == free), field) for j in range(m.cols)]
                for r, pc in enumerate(result.pivot_cols):
                    v[pc] = -result.rref.entry(r, free)
                basis.append(v)
            zero = [v for v in m.mul_vector([0] * m.cols)]
            for v in basis:
                assert m.mul_vector(v) == zero
            if basis:
                stacked = ExactMatrix.from_columns(basis, rows=m.cols, field=field)
                assert rref(stacked).rank == len(basis)


# the cokernel witness of a matrix is e_j for the first j outside its column
# span: the index that rank_and_first_missing returns, None at full row rank
def test_cokernel_witness_none_for_full_row_rank():
    assert rank_and_first_missing(identity(3)) == (3, None)


def test_cokernel_witness_example():
    assert rank_and_first_missing(ExactMatrix(2, 2, [1, 0, 0, 0])) == (1, 1)


def test_cokernel_witness_is_unsolvable():
    rng = random.Random(23)
    found = 0
    for _ in range(30):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(1, 5))
        rank, j = rank_and_first_missing(m)
        assert rank == rref(m).rank
        if j is None:
            assert rank == m.rows
            continue
        found += 1
        with pytest.raises(InconsistentSystemError):
            scalar_solve(m, unit_vector(m.rows, j))
    assert found > 0


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_cokernel_witness_is_the_first_unsolvable_unit_vector(field):
    rng = random.Random(29)
    seen = set()
    for _ in range(30):
        # e_0..e_{k-1} and a few random columns, mixed by a random square
        # matrix: the column space holds e_0..e_{k-1}, so j is past them
        rows = rng.randint(1, 7)
        k = rng.randint(0, min(rows, 4))
        columns = [unit_vector(rows, i, field) for i in range(k)]
        columns += [random_matrix(rng, rows, 1, field).column(0) for _ in range(rng.randint(1, 3))]
        mix = random_matrix(rng, len(columns), len(columns), field)
        m = matrix_product(ExactMatrix.from_columns(columns, rows, field), mix)
        j = rank_and_first_missing(m)[1]
        if j is None:
            assert rref(m).rank == m.rows
            continue
        assert j >= k
        assert_first_unsolvable_unit(m, j)
        seen.add(j)
    assert len(seen) >= 3


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [1, 2, 3])
    m = identity(2)
    with pytest.raises(IndexError):
        m.entry(2, 0)
    # the dense constructor drops zero entries, keeps one denominator for
    # the whole matrix and checks the field
    m = ExactMatrix(2, 2, [0, Fraction(3, 2), Fraction(1, 3), 0])
    assert (m._rows, m._den) == (({1: 9}, {0: 2}), 6)
    assert ExactMatrix(2, 2, [0, 3, 0, 0])._rows == ({1: 3}, {})
    with pytest.raises(ValueError):
        ExactMatrix(1, 1, [GaussianRational(1)])
    # stored ints that share a factor with the denominator read as their values
    m = ExactMatrix.from_integer_rows(3, [{0: 2, 2: -4}, {}], 6)
    assert m == ExactMatrix(2, 3, [Fraction(1, 3), 0, Fraction(-2, 3), 0, 0, 0])
    assert m.entry(0, 2) == Fraction(-2, 3)
    assert m.row(0) == (Fraction(1, 3), 0, Fraction(-2, 3))
    assert m.column(0) == (Fraction(1, 3), 0)
    assert m.mul_vector([3, 5, Fraction(1, 2)]) == [Fraction(2, 3), 0]


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_sparse_storage_agrees_with_a_dense_reading(field):
    rng = random.Random(41)
    zero = as_scalar(0, field)

    def dense(rows, cols):
        # about half of the entries are zero
        return [
            [random_scalar(rng, field) if rng.random() < 0.5 else zero for _ in range(cols)]
            for _ in range(rows)
        ]

    for _ in range(20):
        rows, inner, cols = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, c = dense(rows, inner), dense(rows, cols)
        m = ExactMatrix(rows, inner, [e for row in a for e in row], field)
        for i in range(rows):
            assert m.row(i) == tuple(a[i])
            for j in range(inner):
                assert m.entry(i, j) == a[i][j]
        for j in range(inner):
            assert m.column(j) == tuple(row[j] for row in a)
        assert m == ExactMatrix.from_columns(zip(*a), rows, field)
        changed = [list(row) for row in a]
        changed[rng.randrange(rows)][rng.randrange(inner)] += 1
        assert m != ExactMatrix(rows, inner, [e for row in changed for e in row], field)
        vec = [random_scalar(rng, field) if rng.random() < 0.7 else zero for _ in range(inner)]
        assert m.mul_vector(vec) == [
            sum((a[i][k] * vec[k] for k in range(inner)), zero) for i in range(rows)
        ]
        stacked = m.hstack(ExactMatrix(rows, cols, [e for row in c for e in row], field))
        assert (stacked.rows, stacked.cols) == (rows, inner + cols)
        assert [stacked.row(i) for i in range(rows)] == [
            tuple(a[i]) + tuple(c[i]) for i in range(rows)
        ]


def test_qi_rref_rank_of_conjugate_pair():
    from fischerlab import GAUSSIAN_I

    one = GaussianRational(1)
    m = ExactMatrix(2, 2, [one, GAUSSIAN_I, GAUSSIAN_I, -one], field=FIELD_QI)
    # second row is i times the first
    assert rref(m).rank == 1


def _leading_by_ranks(columns, width, field):
    # j leads some reduced row iff e_j lies in span(columns) + span(e_0..e_{j-1})
    leading = set()
    for j in range(width):
        units = [[1 if i == k else 0 for i in range(width)] for k in range(j + 1)]
        with_j = rref(ExactMatrix.from_columns(columns + units, rows=width, field=field)).rank
        without = rref(
            ExactMatrix.from_columns(columns + units[:-1], rows=width, field=field)
        ).rank
        if with_j == without:
            leading.add(j)
    return leading


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_growing_echelon_tracks_rank_and_leading_coordinates(field):
    rng = random.Random(17)
    echelon = GrowingEchelon(field)
    columns = []  # every vector so far, padded to the current width
    for width, count in ((3, 2), (5, 2), (5, 1), (8, 3)):
        new = [
            [random_scalar(rng, field) if rng.random() < 0.3 else 0 for _ in range(width)]
            for _ in range(count)
        ]
        echelon.extend(ExactMatrix.from_columns(new, rows=width, field=field))
        columns = [c + [0] * (width - len(c)) for c in columns] + new
        stacked = ExactMatrix.from_columns(columns, rows=width, field=field)
        assert echelon.rank == rref(stacked).rank
        assert echelon.leading == _leading_by_ranks(columns, width, field)
    with pytest.raises(ValueError):
        echelon.extend(ExactMatrix(7, 1, [0] * 7, field))
    other = FIELD_Q if field == FIELD_QI else FIELD_QI
    with pytest.raises(ValueError):
        echelon.extend(ExactMatrix(8, 1, [0] * 8, other))


def _int_entries(vector, field):
    # the integer form {coordinate: n} of the nonzero entries of a vector
    scalars = [as_scalar(v, field) for v in vector]
    ints, _ = integer_form(scalars, field)
    return {j: n for j, (n, v) in enumerate(zip(ints, scalars)) if v}


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_growing_echelon_membership_agrees_with_solve(field):
    rng = random.Random(29)
    rows = 7
    for trial in range(6):
        # leading unit columns make a covered prefix, so every branch of
        # contains is taken: outside by its top coordinate, inside below the
        # prefix, and decided by reduction
        columns = [unit_vector(rows, j, field) for j in range(trial % 3)]
        columns += [
            [random_scalar(rng, field) if rng.random() < 0.4 else 0 for _ in range(rows)]
            for _ in range(rng.randint(1, 4))
        ]
        matrix = ExactMatrix.from_columns(columns, rows=rows, field=field)
        echelon = GrowingEchelon(field)
        echelon.extend(matrix)
        state = (echelon.rank, echelon.leading, echelon.covered,
                 {lead: dict(row) for lead, row in echelon._echelon.items()})
        inside = [matrix.mul_vector([random_scalar(rng, field) for _ in columns])
                  for _ in range(3)]
        others = [[random_scalar(rng, field) if rng.random() < 0.5 else 0 for _ in range(rows)]
                  for _ in range(3)]
        units = [unit_vector(rows, j, field) for j in range(rows)]
        for vector in inside + others + units + [[0] * rows]:
            try:
                scalar_solve(matrix, vector)
                solvable = True
            except InconsistentSystemError:
                solvable = False
            assert echelon.contains(_int_entries(vector, field)) == solvable
        assert state == (echelon.rank, echelon.leading, echelon.covered,
                         {lead: dict(row) for lead, row in echelon._echelon.items()})
        missing = echelon.first_missing(rows)
        assert echelon.covered == (rows if missing is None else missing)


def test_backend_name_is_pure():
    assert backend_name() == "pure"


def test_kernels_do_not_mutate_input():
    rng = random.Random(7)
    for field, kernel in ((FIELD_Q, "rref_q"), (FIELD_QI, "rref_qi")):
        m = random_matrix(rng, 4, 4, field)
        snapshot = [m.row(i) for i in range(4)]
        # the entry points, each on the caller's matrix and right-hand side
        rhs = integer_form([random_scalar(rng, field) for _ in range(4)], field)
        rhs_snapshot = (list(rhs[0]), rhs[1])
        rref(m)
        GrowingEchelon(field).extend(m)
        try:
            solve(m, rhs)
        except InconsistentSystemError:
            pass
        assert [m.row(i) for i in range(4)] == snapshot
        assert rhs == rhs_snapshot
        # the kernel itself: its vectors stay as they were, its echelon grows
        vectors = list(m._rows)
        vectors_snapshot = [dict(v) for v in vectors]
        echelon = getattr(_kernels, kernel)(vectors, {})
        assert vectors == vectors_snapshot
        assert tuple(sorted(echelon)) == rref(m).pivot_cols
        # each row is primitive and leads, at its lowest key, with a positive int
        for lead, row in echelon.items():
            parts = [p for e in row.values() for p in ((e,) if field == FIELD_Q else e)]
            head = row[lead] if field == FIELD_Q else row[lead][0]
            assert math.gcd(*parts) == 1 and min(row) == lead
            assert isinstance(head, int) and head > 0 and row[lead] in (head, (head, 0))


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_echelon_does_not_depend_on_the_order_of_the_vectors(field):
    rng = random.Random(31)
    for _ in range(20):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        inner = rng.randint(1, min(rows, cols))
        # rank at most inner, so rows and columns are often dependent
        m = matrix_product(random_matrix(rng, rows, inner, field),
                           random_matrix(rng, inner, cols, field))
        columns = [m.column(j) for j in range(cols)]
        order = list(range(rows))
        rng.shuffle(order)
        rng.shuffle(columns)
        shuffled_rows = ExactMatrix(rows, cols, [e for i in order for e in m.row(i)], field)
        shuffled_columns = ExactMatrix.from_columns(columns, rows, field)
        assert rref(shuffled_rows) == rref(m)
        echelons = []
        for matrix in (m, shuffled_columns):
            echelon = GrowingEchelon(field)
            echelon.extend(matrix)
            echelons.append(echelon)
        first, second = echelons
        assert first.leading == second.leading
        assert first.rank == second.rank == rref(m).rank
        assert first.first_missing(rows) == second.first_missing(rows)


def _wide_scalar(rng, field):
    """A scalar whose parts have unequal denominators, some of hundreds of
    bits, so the rhs entries of one system share no denominator."""
    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((3, 7, 11, 2**200, 3**120, 10**60 + 1)))
    return part() if field == FIELD_Q else GaussianRational(part(), part())


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_solve_does_not_depend_on_the_order_of_the_rows(field):
    # x is read off the unique reduced form with the free unknowns at 0, so
    # shuffling the rows and the rhs together gives the same x, or the same
    # refusal; sparse block systems (some rows reach no rhs) and dense
    # rank-deficient ones, consistent and not, and from trial 40 on with rhs
    # entries over unequal, large denominators
    rng = random.Random(15 if field == FIELD_Q else 16)
    refused = [0, 0]
    for trial in range(80):
        value = random_scalar if trial < 40 else _wide_scalar
        if trial % 2:
            blocks = []
            for _ in range(rng.randint(1, 4)):
                rows, cols = rng.randint(1, 5), rng.randint(1, 5)
                dependent = rng.randint(0, rows - 1) if rng.random() < 0.5 else 0
                kinds = ["span", "span", "zero"] + ["outside"] * (dependent > 0)
                blocks.append((rows, cols, dependent, rng.choice(kinds)))
            matrix, rhs, _ = _block_system(rng, field, blocks, value)
        else:
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            inner = rng.randint(1, min(rows, cols))
            matrix = matrix_product(random_matrix(rng, rows, inner, field),
                                    random_matrix(rng, inner, cols, field))
            x = [value(rng, field) for _ in range(cols)]
            rhs = (matrix.mul_vector(x) if rng.random() < 0.5
                   else [value(rng, field) for _ in range(rows)])
        try:
            expected = scalar_solve(matrix, rhs)
        except InconsistentSystemError:
            expected = None
            refused[trial >= 40] += 1
        else:
            assert matrix.mul_vector(expected) == rhs
        for _ in range(3):
            order = list(range(matrix.rows))
            rng.shuffle(order)
            shuffled = ExactMatrix(matrix.rows, matrix.cols,
                                   [e for i in order for e in matrix.row(i)], field)
            if expected is None:
                with pytest.raises(InconsistentSystemError):
                    scalar_solve(shuffled, [rhs[i] for i in order])
            else:
                assert scalar_solve(shuffled, [rhs[i] for i in order]) == expected
    assert all(0 < count < 40 for count in refused)


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_solve_hands_the_kernel_the_stored_rows_as_they_are(monkeypatch, field):
    # rhs entries over unequal denominators, one of 200 bits: every reached
    # row goes into the echelon as its stored ints, last row first, and the
    # rhs column holds rhs_i * den * common, den the matrix's denominator
    # and common one denominator of the rhs
    c = GaussianRational(Fraction(2, 5), Fraction(-1, 3)) if field == FIELD_QI else Fraction(2, 5)
    m = ExactMatrix(5, 4, [Fraction(1, 2), 1, 0, 0, 0, Fraction(2, 3), 1, 0,
                           c, 0, Fraction(5, 7), 1, 1, 0, 0, Fraction(3, 4),
                           0, 0, 0, 0], field)
    third = (GaussianRational(Fraction(1, 7), Fraction(1, 11)) if field == FIELD_QI
             else Fraction(1, 7))
    rhs = [as_scalar(v, field) for v in (Fraction(1, 3), Fraction(5, 2**200), third, 0, 0)]
    expected = _oracle_solve(m, rhs)
    name = "rref_q" if field == FIELD_Q else "rref_qi"
    kernel, handed = getattr(_kernels, name), []

    def spy(vectors, echelon):
        handed.extend(dict(v) for v in vectors)
        return kernel(vectors, echelon)

    monkeypatch.setattr(_kernels, name, spy)
    x = scalar_solve(m, rhs)
    assert x == expected
    assert m.mul_vector(x) == rhs
    assert len(handed) == 4
    scales = set()
    for vector, i in zip(handed, (3, 2, 1, 0)):
        b = vector.pop(m.cols, None)
        assert vector == m._rows[i]
        assert (b is None) == (not rhs[i])
        if b is not None:
            scales.add(from_integer(b, m._den) / rhs[i])
    common = scales.pop()
    assert not scales
    assert common == as_scalar(math.lcm(3, 2**200, 7, 11 if field == FIELD_QI else 1), field)


def test_solve_row_order_touches_fewer_kernel_bits_than_the_graded_order(monkeypatch):
    # the blocks of the e = 8 ellipsoid solve, each inserted in the order
    # solve chose and in the graded order (its reverse); each reduction
    # touches the bits of one stored echelon row, and the chosen order
    # touches fewer (about 0.47 M against 1.02 M)
    captured, kernel = [], _kernels.rref_q

    def spy(vectors, echelon):
        captured.append(list(vectors))
        return kernel(vectors, echelon)

    monkeypatch.setattr(_kernels, "rref_q", spy)
    domain = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    dirichlet_solve(domain, parse_polynomial("(x+y*z+1)^8", ["x", "y", "z"]))
    monkeypatch.undo()
    assert len(captured) > 5 and max(map(len, captured)) > 20
    reduce, touched = _kernels.Q.reduce, [0]

    def counting(vector, row, lead):
        touched[0] += sum(abs(x).bit_length() for x in row.values())
        return reduce(vector, row, lead)

    monkeypatch.setattr(_kernels.Q, "reduce", counting)
    totals = []
    for order in (lambda vectors: vectors, lambda vectors: vectors[::-1]):
        touched[0] = 0
        for vectors in captured:
            _kernels.insert(_kernels.Q, order(vectors), {})
        totals.append(touched[0])
    chosen, graded = totals
    assert 0 < chosen < graded


def _oracle(field):
    """hypothesis and a converter of rows to sympy's DomainMatrix over QQ or
    QQ_I; skips the test when either package is absent."""
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    return hypothesis, lambda rows, shape: to_sympy(rows, shape, field)


def _matrices(hypothesis, field, max_size=8):
    """Matrices up to max_size x max_size with small entries, many of them
    zero, and often a product of two thin factors, so low ranks are common."""
    st = hypothesis.strategies
    value = st.one_of(st.just(0), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    if field == FIELD_QI:
        value = st.builds(GaussianRational, value, value)

    @st.composite
    def matrices(draw):
        rows, cols = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
        inner = draw(st.integers(1, max_size + 1))
        if inner > max_size:
            entries = draw(st.lists(value, min_size=rows * cols, max_size=rows * cols))
            return ExactMatrix(rows, cols, entries, field)
        left = draw(st.lists(value, min_size=rows * inner, max_size=rows * inner))
        right = draw(st.lists(value, min_size=inner * cols, max_size=inner * cols))
        return matrix_product(ExactMatrix(rows, inner, left, field),
                              ExactMatrix(inner, cols, right, field))

    return matrices(), value


def _run(hypothesis, strategy, check):
    settings = hypothesis.settings(max_examples=25, deadline=None, database=None)
    settings(hypothesis.given(strategy)(check))()


def _rows_of(matrix):
    return [matrix.row(i) for i in range(matrix.rows)]


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_rref_agrees_with_sympy(field):
    hypothesis, to_sympy = _oracle(field)
    matrices, _ = _matrices(hypothesis, field)

    def check(m):
        expected, pivots = to_sympy(_rows_of(m), (m.rows, m.cols)).rref()
        result = rref(m)
        assert result.rank == len(pivots)
        assert result.pivot_cols == tuple(pivots)
        expected_rows = [from_sympy(e, field) for row in expected.to_list() for e in row]
        assert result.rref == ExactMatrix(m.rows, m.cols, expected_rows, field)

    _run(hypothesis, matrices, check)


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_solve_agrees_with_sympy(field):
    hypothesis, to_sympy = _oracle(field)
    st = hypothesis.strategies
    matrices, value = _matrices(hypothesis, field)

    @st.composite
    def systems(draw):
        m = draw(matrices)
        if draw(st.booleans()):
            # consistent: the image of some x0
            return m, m.mul_vector(draw(st.lists(value, min_size=m.cols, max_size=m.cols)))
        return m, draw(st.lists(value, min_size=m.rows, max_size=m.rows))

    def check(system):
        m, rhs = system
        rhs = [as_scalar(b, field) for b in rhs]
        augmented = [row + (b,) for row, b in zip(_rows_of(m), rhs)]
        reduced, pivots = to_sympy(augmented, (m.rows, m.cols + 1)).rref()
        if m.cols in pivots:
            with pytest.raises(InconsistentSystemError):
                scalar_solve(m, rhs)
            return
        # free variables pinned to zero: x at a pivot is the reduced rhs entry
        expected = [as_scalar(0, field)] * m.cols
        rows = reduced.to_list()
        for r, pc in enumerate(pivots):
            expected[pc] = from_sympy(rows[r][m.cols], field)
        assert scalar_solve(m, rhs) == expected

    _run(hypothesis, systems(), check)


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_growing_echelon_agrees_with_sympy(field):
    hypothesis, to_sympy = _oracle(field)
    st = hypothesis.strategies
    _, value = _matrices(hypothesis, field)

    @st.composite
    def ladders(draw):
        # three matrices of growing width, at most 8 x 8 together
        widths = sorted(draw(st.lists(st.integers(1, 8), min_size=3, max_size=3)))
        steps = []
        for width in widths:
            count = draw(st.integers(1, 3))
            steps.append(ExactMatrix(width, count, draw(
                st.lists(value, min_size=width * count, max_size=width * count)), field))
        return steps

    def check(steps):
        echelon = GrowingEchelon(field)
        columns = []
        for matrix in steps:
            echelon.extend(matrix)
            width = matrix.rows
            columns = [c + (as_scalar(0, field),) * (width - len(c)) for c in columns]
            columns += [matrix.column(j) for j in range(matrix.cols)]
            # with the coordinates reversed, sympy's pivots are the leading
            # coordinates counted from the top
            _, pivots = to_sympy([c[::-1] for c in columns], (len(columns), width)).rref()
            assert echelon.leading == {width - 1 - p for p in pivots}
            assert echelon.rank == len(pivots)

    _run(hypothesis, ladders(), check)
