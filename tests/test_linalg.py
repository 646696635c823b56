import math
import random
from fractions import Fraction

import pytest

from fischerlab import _kernels, linalg
from fischerlab import (
    ExactMatrix,
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    GrowingEchelon,
    InconsistentSystemError,
    as_scalar,
    backend_name,
    cokernel_witness,
    nullspace_basis,
    rref,
    solve,
)
from helpers import (
    assert_first_unsolvable_unit,
    from_sympy,
    random_matrix,
    random_scalar,
    to_sympy,
    unit_vector,
)


def test_rref_identity():
    result = rref(ExactMatrix.identity(3))
    assert result.rank == 3
    assert result.pivot_cols == (0, 1, 2)
    assert result.rref == ExactMatrix.identity(3)


def test_rref_proportional_rows():
    m = ExactMatrix.from_rows([[2, 4], [1, 2]])
    assert rref(m).rank == 1


def test_rref_keeps_the_row_space():
    rng = random.Random(5)
    for field in (FIELD_Q, FIELD_QI):
        for inner in (2, 5, 8):
            # rank at most inner: the product of 8 x inner and inner x 8
            m = random_matrix(rng, 8, inner, field) @ random_matrix(rng, inner, 8, field)
            result = rref(m)
            rows = [m.row(i) for i in range(8)] + [result.rref.row(i) for i in range(8)]
            assert rref(ExactMatrix.from_rows(rows, field)).rank == result.rank
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
            one = ExactMatrix.identity(1, field).entry(0, 0)
            for r, pc in enumerate(result.pivot_cols):
                column = result.rref.column(pc)
                assert column[r] == one
                assert all(not v for i, v in enumerate(column) if i != r)


def test_solve_identity():
    rng = random.Random(13)
    b = [random_scalar(rng) for _ in range(4)]
    assert solve(ExactMatrix.identity(4), b) == b


def test_solve_free_variable_zero_convention():
    m = ExactMatrix.from_rows([[1, 1]])
    assert solve(m, [2]) == [Fraction(2), Fraction(0)]


def test_solve_construct_then_solve():
    rng = random.Random(17)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(20):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, rows, cols, field)
            x0 = [random_scalar(rng, field) for _ in range(cols)]
            b = m.mul_vector(x0)
            x = solve(m, b)
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

    m = ExactMatrix.from_rows([[2, 1, 0], [1, 1, 1], [0, 3, 1]], field)
    rhs = [as_scalar(v, field) for v in (1, 2, 3)]
    assert m.mul_vector(solve(m, rhs)) == rhs
    monkeypatch.setattr(_kernels, "solution", perturbed)
    with pytest.raises(AssertionError, match="exact recheck"):
        solve(m, rhs)


def test_solve_inconsistent():
    m = ExactMatrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(InconsistentSystemError):
        solve(m, [0, 1])


def test_solve_rhs_length_check():
    with pytest.raises(ValueError):
        solve(ExactMatrix.identity(2), [1])


def test_nullspace_of_zero_matrix():
    m = ExactMatrix(2, 2, [0, 0, 0, 0])
    basis = nullspace_basis(m)
    assert len(basis) == 2


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(19)
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), field)
            result = rref(m)
            basis = nullspace_basis(m)
            assert result.rank + len(basis) == m.cols
            zero = [v for v in m.mul_vector([0] * m.cols)]
            for v in basis:
                assert m.mul_vector(v) == zero
            if basis:
                stacked = ExactMatrix.from_columns(basis, rows=m.cols, field=field)
                assert rref(stacked).rank == len(basis)


def test_cokernel_witness_none_for_full_row_rank():
    assert cokernel_witness(ExactMatrix.identity(3)) is None


def test_cokernel_witness_example():
    m = ExactMatrix.from_rows([[1, 0], [0, 0]])
    assert cokernel_witness(m) == [Fraction(0), Fraction(1)]


def test_cokernel_witness_is_unsolvable():
    rng = random.Random(23)
    found = 0
    for _ in range(30):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(1, 5))
        witness = cokernel_witness(m)
        if witness is None:
            assert rref(m).rank == m.rows
            continue
        found += 1
        with pytest.raises(InconsistentSystemError):
            solve(m, witness)
    assert found > 0


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_cokernel_witness_is_the_first_unsolvable_unit_vector(field):
    rng = random.Random(29)
    seen = set()
    for _ in range(30):
        # e_0..e_{k-1} and a few random columns, mixed by a random square
        # matrix: the column space holds e_0..e_{k-1}, so the witness is past them
        rows = rng.randint(1, 7)
        k = rng.randint(0, min(rows, 4))
        columns = [unit_vector(rows, i, field) for i in range(k)]
        columns += [random_matrix(rng, rows, 1, field).column(0) for _ in range(rng.randint(1, 3))]
        mix = random_matrix(rng, len(columns), len(columns), field)
        m = ExactMatrix.from_columns(columns, rows, field) @ mix
        witness = cokernel_witness(m)
        if witness is None:
            assert rref(m).rank == m.rows
            continue
        j = next(i for i, v in enumerate(witness) if v)
        assert witness == unit_vector(rows, j, field)
        assert j >= k
        assert_first_unsolvable_unit(m, j)
        seen.add(j)
    assert len(seen) >= 3


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    m = ExactMatrix.identity(2)
    with pytest.raises(IndexError):
        m.entry(2, 0)
    # from_nonzeros drops zero entries and checks columns and the field
    assert ExactMatrix.from_nonzeros(2, [{0: 0, 1: 3}, {}]) == ExactMatrix.from_rows(
        [[0, 3], [0, 0]]
    )
    with pytest.raises(IndexError):
        ExactMatrix.from_nonzeros(2, [{2: 1}])
    with pytest.raises(ValueError):
        ExactMatrix.from_nonzeros(1, [{0: GaussianRational(1)}])


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
        a, b, c = dense(rows, inner), dense(inner, cols), dense(rows, cols)
        m = ExactMatrix(rows, inner, [e for row in a for e in row], field)
        for i in range(rows):
            assert m.row(i) == tuple(a[i])
            for j in range(inner):
                assert m.entry(i, j) == a[i][j]
        for j in range(inner):
            assert m.column(j) == tuple(row[j] for row in a)
        assert m == ExactMatrix.from_rows(a, field)
        assert m == ExactMatrix.from_columns(zip(*a), rows, field)
        changed = [list(row) for row in a]
        changed[rng.randrange(rows)][rng.randrange(inner)] += 1
        assert m != ExactMatrix.from_rows(changed, field)
        vec = [random_scalar(rng, field) if rng.random() < 0.7 else zero for _ in range(inner)]
        assert m.mul_vector(vec) == [
            sum((a[i][k] * vec[k] for k in range(inner)), zero) for i in range(rows)
        ]
        product = m @ ExactMatrix(inner, cols, [e for row in b for e in row], field)
        assert [product.row(i) for i in range(rows)] == [
            tuple(sum((a[i][k] * b[k][j] for k in range(inner)), zero) for j in range(cols))
            for i in range(rows)
        ]
        stacked = m.hstack(ExactMatrix(rows, cols, [e for row in c for e in row], field))
        assert (stacked.rows, stacked.cols) == (rows, inner + cols)
        assert [stacked.row(i) for i in range(rows)] == [
            tuple(a[i]) + tuple(c[i]) for i in range(rows)
        ]


def test_qi_rref_rank_of_conjugate_pair():
    from fischerlab import GAUSSIAN_I

    one = GaussianRational(1)
    m = ExactMatrix.from_rows(
        [[one, GAUSSIAN_I], [GAUSSIAN_I, -one]], field=FIELD_QI
    )
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


def test_backend_name_is_pure():
    assert backend_name() == "pure"


def test_kernels_do_not_mutate_input():
    rng = random.Random(7)
    for field, kernel in ((FIELD_Q, "rref_q"), (FIELD_QI, "rref_qi")):
        m = random_matrix(rng, 4, 4, field)
        snapshot = [m.row(i) for i in range(4)]
        # the entry points, each on the caller's matrix and right-hand side
        rhs = [random_scalar(rng, field) for _ in range(4)]
        rhs_snapshot = list(rhs)
        rref(m)
        nullspace_basis(m)
        GrowingEchelon(field).extend(m)
        try:
            solve(m, rhs)
        except InconsistentSystemError:
            pass
        assert [m.row(i) for i in range(4)] == snapshot
        assert rhs == rhs_snapshot
        # the kernel itself: its vectors stay as they were, its echelon grows
        vectors = linalg._rows(m)
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
        m = random_matrix(rng, rows, inner, field) @ random_matrix(rng, inner, cols, field)
        columns = [m.column(j) for j in range(cols)]
        order = list(range(rows))
        rng.shuffle(order)
        rng.shuffle(columns)
        shuffled_rows = ExactMatrix.from_rows([m.row(i) for i in order], field)
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
        return ExactMatrix(rows, inner, left, field) @ ExactMatrix(inner, cols, right, field)

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
        expected_rows = [[from_sympy(e, field) for e in row] for row in expected.to_list()]
        assert result.rref == ExactMatrix.from_rows(expected_rows, field)

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
                solve(m, rhs)
            return
        # free variables pinned to zero: x at a pivot is the reduced rhs entry
        expected = [as_scalar(0, field)] * m.cols
        rows = reduced.to_list()
        for r, pc in enumerate(pivots):
            expected[pc] = from_sympy(rows[r][m.cols], field)
        assert solve(m, rhs) == expected

    _run(hypothesis, systems(), check)


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_nullspace_agrees_with_sympy(field):
    hypothesis, to_sympy = _oracle(field)
    matrices, _ = _matrices(hypothesis, field)

    def check(m):
        expected = to_sympy(_rows_of(m), (m.rows, m.cols)).nullspace()
        basis = nullspace_basis(m)
        assert len(basis) == expected.shape[0]
        for v in basis:
            assert not any(m.mul_vector(v))
        if basis:
            # equal spans: equal reduced row echelon forms of the bases
            ours = to_sympy(basis, (len(basis), m.cols)).rref()
            assert ours == expected.rref()

    _run(hypothesis, matrices, check)


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
