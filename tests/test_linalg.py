import random
from fractions import Fraction

import pytest

from fischerlab import _kernels
from fischerlab import (
    ExactMatrix,
    FIELD_Q,
    FIELD_QI,
    GrowingEchelon,
    InconsistentSystemError,
    backend_name,
    cokernel_witness,
    nullspace_basis,
    rref,
    solve,
)
from helpers import assert_first_unsolvable_unit, random_matrix, random_scalar, unit_vector


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


def test_qi_rref_rank_of_conjugate_pair():
    from fischerlab import GAUSSIAN_I, GaussianRational

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
    for field, kernel in ((FIELD_Q, _kernels.rref_q), (FIELD_QI, _kernels.rref_qi)):
        m = random_matrix(rng, 3, 3, field)
        parts = m._flat_q() if field == FIELD_Q else m._flat_qi()
        snapshot = [list(part) for part in parts]
        result = kernel(*parts, 3, 3)
        assert [list(part) for part in parts] == snapshot
        # the reduced parts, then the pivot columns
        assert len(result) == len(parts) + 1
