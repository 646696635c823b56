import math
import random
from fractions import Fraction
from operator import add, mul

import pytest

from fischerlab import _kernels, fischer, linalg, polyring
from fischerlab import (
    BasisOverflowError,
    DecompositionCertificate,
    DegreeVerdict,
    ExactMatrix,
    FIELD_Q,
    FIELD_QI,
    FischerOperator,
    GAUSSIAN_I,
    GaussianRational,
    GrowingEchelon,
    HOMOGENEOUS,
    InconsistentSystemError,
    NoDecompositionFoundError,
    NOT_SURJECTIVE,
    Poly,
    QuadricDomain,
    RankProfileRow,
    SURJECTIVE,
    SliceTooLargeError,
    UNDETERMINED,
    as_scalar,
    coordinates,
    dirichlet_solve,
    fischer_decompose,
    fischer_theorem_check,
    filtered_basis,
    from_coordinates,
    homogeneous_basis,
    khavinson_psi,
    operator_matrix,
    parse_polynomial,
    rank_and_first_missing,
    rank_profile,
    solve,
    squared_norm,
)
from fischerlab.polyring import (
    CODE_DEGREE_LIMIT,
    FILTERED,
    MAX_SLICE_DIMENSION,
    _gather,
    check_slice_dimension,
    lowest_terms,
    overflow_error,
)
from fischerlab.scalars import INTEGERS
from helpers import (
    assert_first_unsolvable_unit,
    from_sympy,
    matrix_vector,
    random_ellipsoid,
    random_fraction,
    random_poly,
    random_scalar,
    reference_pivots,
    reference_rank,
    scalar_coordinates,
    scalar_solve,
    to_sympy,
)

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
CIRCLE = X * X + Y * Y - Poly.constant(2, 1)


def test_apply_norm_to_one():
    op = FischerOperator(squared_norm(2))
    assert op.apply(Poly.constant(2, 1)) == Poly.constant(2, 4)


def test_apply_xy_to_xy():
    op = FischerOperator(X * Y)
    assert op.apply(X * Y) == Poly.monomial(2, (2, 0), 2) + Poly.monomial(2, (0, 2), 2)


def test_apply_circle_to_x():
    # laplacian(x^3 + x*y^2 - x) = 6x + 2x
    assert FischerOperator(CIRCLE).apply(X) == X.scale(8)


def test_apply_matches_direct_laplacian():
    rng = random.Random(3)
    for _ in range(25):
        psi = random_poly(rng, 2, 3, nonzero=True)
        if psi.degree < 1:
            continue
        q = random_poly(rng, 2, 4)
        assert FischerOperator(psi).apply(q) == (psi * q).laplacian()


def test_linearity():
    rng = random.Random(5)
    op = FischerOperator(CIRCLE)
    for _ in range(20):
        a = random_scalar(rng)
        b = random_scalar(rng)
        q1 = random_poly(rng, 2, 4)
        q2 = random_poly(rng, 2, 4)
        assert op.apply(q1.scale(a) + q2.scale(b)) == op.apply(q1).scale(a) + op.apply(
            q2
        ).scale(b)


def test_degree_shift_for_laplacian_case():
    rng = random.Random(7)
    for _ in range(50):
        psi = random_poly(rng, 2, 4, nonzero=True)
        if psi.degree < 1:
            continue
        q = random_poly(rng, 2, 4, nonzero=True)
        image = FischerOperator(psi).apply(q)
        if image:
            assert image.degree <= psi.degree + q.degree - 2


def test_homogeneous_psi_maps_slices_without_overflow():
    rng = random.Random(9)
    for _ in range(20):
        k = rng.randint(1, 3)
        psi = random_poly(rng, 2, k, nonzero=True).homogeneous_component(k)
        if not psi:
            continue
        op = FischerOperator(psi)
        m = rng.randint(0, 4)
        target_degree = m + k - 2
        if target_degree < 0:
            continue
        matrix = operator_matrix(
            op, homogeneous_basis(2, m), homogeneous_basis(2, target_degree)
        )
        assert matrix.cols == len(homogeneous_basis(2, m))


def test_operator_validation():
    with pytest.raises(ValueError):
        FischerOperator(Poly.constant(2, 3))
    with pytest.raises(ValueError):
        FischerOperator(X, operator=Poly.constant(2, 2))
    with pytest.raises(ValueError):
        FischerOperator(X, operator=Poly.variable(3, 0))
    op = FischerOperator(CIRCLE)
    assert op.operator == squared_norm(2)
    with pytest.raises(ValueError):
        op.apply(Poly.variable(3, 0))


def test_matrix_on_constant_slice():
    op = FischerOperator(squared_norm(2))
    matrix = operator_matrix(op, homogeneous_basis(2, 0), homogeneous_basis(2, 0))
    assert matrix == ExactMatrix(1, 1, [4])


def test_matrix_on_linear_slice_is_diag_8():
    op = FischerOperator(squared_norm(2))
    matrix = operator_matrix(op, homogeneous_basis(2, 1), homogeneous_basis(2, 1))
    assert matrix == ExactMatrix(2, 2, [8, 0, 0, 8])


def test_circle_filtered_slice_is_invertible_6x6():
    op = FischerOperator(CIRCLE)
    basis = filtered_basis(2, 2)
    matrix = operator_matrix(op, basis, basis)
    assert (matrix.rows, matrix.cols) == (6, 6)
    assert reference_rank(matrix) == 6


def test_matrix_overflow_error():
    op = FischerOperator(CIRCLE)
    with pytest.raises(BasisOverflowError):
        operator_matrix(op, filtered_basis(2, 2), homogeneous_basis(2, 2))


def test_matrix_is_consistent_with_apply():
    rng = random.Random(11)
    op = FischerOperator(CIRCLE)
    source = filtered_basis(2, 3)
    target = filtered_basis(2, 3)
    matrix = operator_matrix(op, source, target)
    for _ in range(100):
        q = random_poly(rng, 2, 3)
        lhs = matrix_vector(matrix, scalar_coordinates(q, source))
        assert lhs == scalar_coordinates(op.apply(q), target)


def _dense_operator_matrix(op, source, target):
    # the dense assembly that operator_matrix replaced: one coordinate list
    # per source monomial, stacked as columns
    columns = [
        scalar_coordinates(op.apply(Poly.monomial(op.arity, m, 1, op.field)), target)
        for m in source.monomials
    ]
    entries = [column[i] for i in range(len(target)) for column in columns]
    return ExactMatrix(len(target), len(columns), entries, op.field)


def _qi(*terms):
    # a polynomial over Qi in x, y from (exponents, re, im) triples
    return Poly(2, FIELD_QI, {e: GaussianRational(re, im) for e, re, im in terms})


def _q(*terms):
    # a polynomial over Q in x, y from (exponents, numerator, denominator)
    return Poly(2, FIELD_Q, {e: Fraction(n, d) for e, n, d in terms})


def _slices():
    """(operator, source, target) slices over Q and Qi, homogeneous and
    filtered, and with the differential operator given explicitly; psi = xy
    and p = x^2 + i*y^2 at degree 4 give singular square slices.  The last
    four have operator and psi coefficients over unequal denominators, a Qi
    psi whose real and imaginary parts have different denominators (under a
    real operator, so the products keep them apart), an
    operator with a constant and a first-order term, and a degree-13 source
    under a fifth-order operator, whose falling factorials reach 13!/8!."""
    x_cubed = Poly.monomial(2, (3, 0))
    norm3 = squared_norm(3)
    p_qi = _qi(((2, 0), 1, 0), ((0, 2), 0, 1))
    rational = FischerOperator(
        _q(((2, 0), 1, 2), ((0, 1), -2, 3), ((0, 0), 1, 5)),
        operator=_q(((2, 0), 1, 3), ((1, 1), 2, 7), ((0, 2), 5, 4)),
    )
    gaussian = FischerOperator(
        Poly(2, FIELD_QI, {
            (2, 0): GaussianRational(Fraction(1, 3), Fraction(2, 5)),
            (1, 1): GaussianRational(0, Fraction(-5, 7)),
            (0, 0): GaussianRational(Fraction(-1, 2), Fraction(1, 9)),
        }),
        operator=_qi(((0, 2), 1, 0), ((1, 0), 2, 0)),
    )
    affine = FischerOperator(
        Poly.monomial(2, (1, 1)) + Poly.constant(2, 1),
        operator=_q(((2, 0), 1, 1), ((0, 1), 1, 2), ((0, 0), -3, 1)),
    )
    fifth_order = FischerOperator(
        _q(((2, 0), 1, 1), ((0, 2), -3, 4)),
        operator=_q(((5, 0), 2, 3), ((1, 4), 1, 1)),
    )
    return [
        (FischerOperator(CIRCLE), filtered_basis(2, 4), filtered_basis(2, 4)),
        (FischerOperator(CIRCLE), homogeneous_basis(2, 3), filtered_basis(2, 3)),
        (FischerOperator(x_cubed), filtered_basis(2, 3), filtered_basis(2, 4)),
        (FischerOperator(x_cubed), homogeneous_basis(2, 2), homogeneous_basis(2, 3)),
        (FischerOperator(Poly.monomial(2, (1, 1))), filtered_basis(2, 3), filtered_basis(2, 3)),
        (FischerOperator(norm3, operator=norm3), homogeneous_basis(3, 3), homogeneous_basis(3, 3)),
        (FischerOperator(khavinson_psi([0, 1])), homogeneous_basis(3, 2), filtered_basis(3, 2)),
        (FischerOperator(khavinson_psi([0, 0, 1])), filtered_basis(3, 1), filtered_basis(3, 3)),
        (FischerOperator(_qi(((2, 0), 1, 1), ((0, 2), 2, 0), ((0, 0), -1, 0))),
         filtered_basis(2, 3), filtered_basis(2, 3)),
    (FischerOperator(p_qi, operator=p_qi), homogeneous_basis(2, 4), homogeneous_basis(2, 4)),
        (rational, filtered_basis(2, 3), filtered_basis(2, 3)),
        (gaussian, filtered_basis(2, 3), filtered_basis(2, 4)),
        (affine, filtered_basis(2, 3), filtered_basis(2, 5)),
        (fifth_order, homogeneous_basis(2, 13), homogeneous_basis(2, 10)),
    ]


def _tuple_operator_matrix(op, source, target):
    # the assembly that monomial codes replaced: the stencil's shifts as
    # exponent tuples, one tuple per term, merged by polyring._gather
    (psi, psi_den), (ops, op_den) = op.psi.integer_form, op.operator.integer_form
    table = INTEGERS[op.field]
    products = [table.mul(d, c) for d in ops.values() for c in psi.values()]
    ints, den = lowest_terms(dict(enumerate(products)), psi_den * op_den, op.field)
    stencil = [(g, b, c) for (g, b), c in zip([(g, b) for g in ops for b in psi], ints.values())]
    positions = {m: i for i, m in enumerate(target.monomials)}
    rows = [{} for _ in range(len(target))]
    for j, a in enumerate(source.monomials):
        pairs = []
        for g, b, c in stencil:
            factor = math.prod(map(math.perm, map(add, a, b), g))
            if factor:
                pairs.append((tuple(x + y - k for x, y, k in zip(a, b, g)), table.times(c, factor)))
        for m, value in _gather(pairs, table).items():
            if m not in positions:
                raise overflow_error(m, target)
            rows[positions[m]][j] = value
    return ExactMatrix.from_integer_rows(len(source), rows, den, op.field)


def _stored(matrix):
    # the rows with their key order, and the denominator
    return [list(row.items()) for row in matrix._rows], matrix._den


def _assert_overflow_text_agrees(op, source, target):
    with pytest.raises(BasisOverflowError) as raised:
        operator_matrix(op, source, target)
    for reference in (_dense_operator_matrix, _tuple_operator_matrix):
        with pytest.raises(BasisOverflowError) as expected:
            reference(op, source, target)
        assert str(raised.value) == str(expected.value)
    return str(raised.value)


def test_operator_matrix_agrees_with_dense_assembly():
    fields = set()
    for op, source, target in _slices():
        matrix = operator_matrix(op, source, target)
        assert matrix == _dense_operator_matrix(op, source, target)
        assert _stored(matrix) == _stored(_tuple_operator_matrix(op, source, target))
        assert (matrix.rows, matrix.cols, matrix.field) == (len(target), len(source), op.field)
        fields.add(op.field)
    assert fields == {FIELD_Q, FIELD_QI}
    # a target slice that misses an image monomial: all name the same one
    for op, source, target in (
        (FischerOperator(CIRCLE), filtered_basis(2, 2), homogeneous_basis(2, 2)),
        (FischerOperator(khavinson_psi([0, 1])), filtered_basis(3, 2), filtered_basis(3, 1)),
        (FischerOperator(X * X - Y * Y), homogeneous_basis(2, 3), homogeneous_basis(2, 2)),
    ):
        _assert_overflow_text_agrees(op, source, target)
    # decoded with a zero axis between nonzero ones: x^2 -> laplacian(x^3*z) = 6xz
    text = _assert_overflow_text_agrees(FischerOperator(Poly.monomial(3, (1, 0, 1))),
                                        homogeneous_basis(3, 2), homogeneous_basis(3, 1))
    assert text.startswith("monomial (1, 0, 1) ")


def test_operator_matrix_on_a_target_slice_that_grows():
    # as _LadderImage.grow does: the target grows by Basis.extended between
    # calls, and each call reads it as the filtered slice of its degree
    image = fischer._khavinson_coordinates(khavinson_psi([0, 0, 2 + 3 * GAUSSIAN_I]))
    op, target = image.operator, filtered_basis(3, 2)
    for m in range(4):
        filtered = filtered_basis(3, m + 2)
        assert target.monomials == filtered.monomials
        source = homogeneous_basis(3, m)
        matrix = operator_matrix(op, source, target)
        assert _stored(matrix) == _stored(_tuple_operator_matrix(op, source, filtered))
        assert matrix == _dense_operator_matrix(op, source, filtered)
        target = target.extended()
    assert op.field == FIELD_QI


def test_the_ladder_builds_each_basis_once(monkeypatch):
    # a ladder target is grown by Basis.extended, which builds no Basis: over
    # 201 grows only the homogeneous bases and the first filtered target are
    # built, so the targets cost no filtered enumeration per grow
    built = []
    init = polyring.Basis.__init__

    def spy(self, arity, kind, degree):
        built.append((kind, degree))
        init(self, arity, kind, degree)

    monkeypatch.setattr(polyring.Basis, "__init__", spy)
    polyring.homogeneous_basis.cache_clear()
    polyring.filtered_basis.cache_clear()
    x = Poly.variable(1, 0)
    assert rank_profile(x * x - Poly.constant(1, 1), 200).all_surjective()
    homogeneous = [degree for kind, degree in built if kind == HOMOGENEOUS]
    assert sorted(homogeneous) == sorted(set(homogeneous))
    assert [b for b in built if b[0] != HOMOGENEOUS] == [(FILTERED, 0)]


def test_operator_matrix_at_the_top_degree_the_slice_bound_admits():
    # arity 1, where an exponent gets largest: filtered(top) has
    # MAX_SLICE_DIMENSION monomials, and psi's degree reaches top + 2
    top = MAX_SLICE_DIMENSION - 1
    check_slice_dimension(1, top)
    with pytest.raises(SliceTooLargeError):
        check_slice_dimension(1, top + 1)
    x = Poly.variable(1, 0)
    for psi, source, target in (
        (x * x + Poly.constant(1, 3), filtered_basis(1, top), filtered_basis(1, top)),
        (x ** (top + 2) - x.scale(5), homogeneous_basis(1, 0), homogeneous_basis(1, top)),
    ):
        op = FischerOperator(psi)
        matrix = operator_matrix(op, source, target)
        assert _stored(matrix) == _stored(_tuple_operator_matrix(op, source, target))
        for j in (0, 1, len(source) - 1):
            image = op.apply(Poly.monomial(1, source.monomials[j % len(source)]))
            assert [matrix.entry(target.index(m), j % len(source)) for m in image.terms] == list(
                image.terms.values())


def test_assembly_refuses_a_psi_past_the_code_degree_limit():
    psi = Poly.monomial(2, (CODE_DEGREE_LIMIT, 0)) + Poly.constant(2, 1)
    basis = homogeneous_basis(2, 0)
    with pytest.raises(ValueError, match="psi must have degree below 32768"):
        operator_matrix(FischerOperator(psi), basis, basis)
    # one degree lower it assembles: laplacian(x^32767) = 32767*32766*x^32765
    psi = Poly.monomial(1, (CODE_DEGREE_LIMIT - 1,))
    target = homogeneous_basis(1, CODE_DEGREE_LIMIT - 3)
    assert operator_matrix(FischerOperator(psi), homogeneous_basis(1, 0), target).entry(0, 0) == (
        (CODE_DEGREE_LIMIT - 1) * (CODE_DEGREE_LIMIT - 2))


def _assemble_every_command():
    domain = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    x, y, z = (Poly.variable(3, i) for i in range(3))
    hyperbola = X * X - Y * Y - Poly.constant(2, 1)
    return [
        rank_profile(khavinson_psi([0, 0, 1]), 2, slack=6),
        rank_profile(X * Y, 4, mode=HOMOGENEOUS),
        fischer_decompose(CIRCLE, X**3 * Y + Y**2),
        fischer_theorem_check(X * X + X * Y, 4),
        dirichlet_solve(domain, (x + y * z + Poly.constant(3, 1)) ** 4).q,
        # not an ellipsoid: the filtered slack loop
        fischer_decompose(hyperbola, hyperbola * (X * Y + X * X) + X**3 - (X * Y * Y).scale(3)),
    ]


def test_assembly_does_not_apply_the_operator(monkeypatch):
    # every command assembles its slices from the stencil: with the Poly
    # path of FischerOperator.apply disabled, each gives the same result
    expected = _assemble_every_command()

    def refuse(*args):
        raise AssertionError("operator_matrix applied the operator to a Poly")

    monkeypatch.setattr(FischerOperator, "apply", refuse)
    monkeypatch.setattr(fischer, "apply_operator", refuse)
    assert _assemble_every_command() == expected
    assert [v.slack for v in expected[0].verdicts] == [2, 4, 6]
    assert not expected[1].all_surjective() and expected[2].verify()
    assert expected[5].verify()


def _slice_echelons(slices):
    echelons = []
    for op, source, target in slices:
        echelon = GrowingEchelon(op.field)
        echelon.extend(operator_matrix(op, source, target))
        echelons.append((echelon.rank, echelon.leading))
    return echelons


def test_ladder_path_builds_no_scalar(monkeypatch):
    # operator_matrix hands its integer rows to the kernel as they are: with
    # every scalar constructor on that path disabled, the echelons agree
    slices = _slices()
    expected = _slice_echelons(slices)

    def refuse(*args):
        raise AssertionError("a field scalar was built between the stencil and the kernel")

    for module in (fischer, linalg):
        for name in ("from_integer", "as_scalar"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert _slice_echelons(slices) == expected
    assert {op.field for op, _, _ in slices} == {FIELD_Q, FIELD_QI}


def test_operator_slices_agree_with_sympy():
    rng = random.Random(23)
    for op, source, target in _slices():
        matrix = operator_matrix(op, source, target)
        rows = [list(matrix.row(i)) for i in range(matrix.rows)]
        reference = to_sympy(rows, (matrix.rows, matrix.cols), op.field)
        assert reference_rank(matrix) == reference.rank()
        x0 = [random_scalar(rng, op.field) for _ in range(matrix.cols)]
        other = [random_scalar(rng, op.field) for _ in range(matrix.rows)]
        for rhs in (matrix_vector(matrix, x0), other):
            augmented = [row + [b] for row, b in zip(rows, rhs)]
            reduced, pivots = to_sympy(augmented, (matrix.rows, matrix.cols + 1), op.field).rref()
            if matrix.cols in pivots:
                with pytest.raises(InconsistentSystemError):
                    scalar_solve(matrix, rhs)
                continue
            # free variables pinned to zero: x at a pivot is the reduced rhs
            expected = [as_scalar(0, op.field)] * matrix.cols
            reduced_rows = reduced.to_list()
            for r, pc in enumerate(pivots):
                expected[pc] = from_sympy(reduced_rows[r][matrix.cols], op.field)
            assert scalar_solve(matrix, rhs) == expected


def test_decompose_circle_x_squared():
    cert = fischer_decompose(CIRCLE, X * X)
    assert cert.q == Poly.constant(2, Fraction(1, 2))
    assert cert.h == (X * X - Y * Y + Poly.constant(2, 1)).scale(Fraction(1, 2))
    assert cert.identity_exact and cert.h_harmonic_exact
    assert cert.verify()


def test_certificate_verify_rejects_a_changed_q_or_h():
    cert = fischer_decompose(CIRCLE, X * X)
    one = Poly.constant(2, 1)
    # each changes one coefficient; the changed h stays harmonic
    for changed in (cert._replace(q=cert.q + one), cert._replace(h=cert.h + one)):
        assert changed.identity_exact and changed.h_harmonic_exact
        assert not changed.verify()


def test_decompose_harmonic_data_keeps_f():
    f = X * X - Y * Y
    cert = fischer_decompose(CIRCLE, f)
    assert cert.q == Poly.zero(2)
    assert cert.h == f


def test_decompose_norm_by_norm():
    norm = squared_norm(2)
    cert = fischer_decompose(norm, norm)
    assert cert.q == Poly.constant(2, 1)
    assert cert.h == Poly.zero(2)


def test_decompose_certificates_sound_on_randoms():
    rng = random.Random(13)
    for _ in range(25):
        psi = random_poly(rng, 2, 2, nonzero=True)
        if psi.degree < 1:
            continue
        f = random_poly(rng, 2, 4)
        try:
            cert = fischer_decompose(psi, f, slack=2)
        except NoDecompositionFoundError:
            continue
        assert not (cert.f - cert.psi * cert.q - cert.h)
        assert not cert.h.laplacian()


def test_decompose_inconclusive_at_slack_zero():
    # laplacian(x^3 * (a + b*x + c*y)) never has a constant term
    psi = Poly.monomial(2, (3, 0))
    with pytest.raises(NoDecompositionFoundError) as info:
        fischer_decompose(psi, Y * Y, slack=0)
    assert info.value.slack == 0


def test_decompose_validation():
    with pytest.raises(ValueError):
        fischer_decompose(Poly.constant(2, 2), X)
    with pytest.raises(ValueError):
        fischer_decompose(CIRCLE, X, slack=-1)
    with pytest.raises(ValueError):
        fischer_decompose(CIRCLE, Poly.variable(3, 0))


def _filtered_slice_decompose(psi, f, slack):
    # the filtered slack loop that fischer_decompose ran for every psi before
    # semidefinite top forms took the block solver: the oracle of the tests below
    lap_f = f.laplacian()
    if not lap_f:
        return DecompositionCertificate.build(psi, f, Poly.zero(f.arity, f.field))
    op = FischerOperator(psi)
    for s in range(slack + 1):
        m = f.degree - psi.degree + 2 + s
        if m < 0:
            continue
        source = filtered_basis(f.arity, m)
        target = filtered_basis(f.arity, max(m + psi.degree - 2, lap_f.degree))
        try:
            x = solve(operator_matrix(op, source, target), coordinates(lap_f, target))
        except InconsistentSystemError:
            continue
        return DecompositionCertificate.build(psi, f, from_coordinates(x, source, f.field))
    raise NoDecompositionFoundError(slack)


def _assert_decompose_matches_filtered_slices(psi, f, slack=0):
    cert = fischer_decompose(psi, f, slack)
    expected = _filtered_slice_decompose(psi, f, slack)
    assert (cert.q, cert.h) == (expected.q, expected.h)
    assert (cert.identity_exact, cert.h_harmonic_exact) == (True, True)
    assert (expected.identity_exact, expected.h_harmonic_exact) == (True, True)


@pytest.mark.parametrize("arity", [2, 3])
def test_decompose_on_ellipsoids_matches_the_filtered_slices(arity):
    rng = random.Random(90 + arity)
    for _ in range(8):
        psi = random_ellipsoid(rng, arity).psi
        f = random_poly(rng, arity, rng.randint(2, 5), nonzero=True)
        _assert_decompose_matches_filtered_slices(psi, f, slack=rng.randint(0, 2))


def test_decompose_on_a_scaled_ellipsoid_matches_the_filtered_slices():
    psi = parse_polynomial("2*x^2+3*y^2+z^2-5", ("x", "y", "z"))
    assert fischer.ellipsoidal_form(psi) == (Fraction(5, 2), Fraction(5, 3), Fraction(5))
    for text in ("(x+y*z+1)^3", "x^2*y - 1/3*z^3 + 4*x", "x^2 - y^2 + 3*x*y*z"):
        f = parse_polynomial(text, ("x", "y", "z"))
        for slack in (0, 2):
            _assert_decompose_matches_filtered_slices(psi, f, slack)
    harmonic = parse_polynomial("x^2 - y^2 + 3*x*y*z", ("x", "y", "z"))
    assert fischer_decompose(psi, harmonic, 2).q == Poly.zero(3)


def _recording_slices(monkeypatch):
    shapes = []

    def recording(op, source, target):
        shapes.append((len(target), len(source)))
        return operator_matrix(op, source, target)

    monkeypatch.setattr(fischer, "operator_matrix", recording)
    return shapes


def test_decompose_on_an_ellipsoid_builds_no_slice_above_the_top_block(monkeypatch):
    shapes = _recording_slices(monkeypatch)
    psi = parse_polynomial("2*x^2+3*y^2+z^2-5", ("x", "y", "z"))
    f = parse_polynomial("(x+y*z+1)^4", ("x", "y", "z"))
    fischer_decompose(psi, f, slack=2)
    # one square block per degree of laplacian(f), the top one the largest
    assert shapes == [(len(homogeneous_basis(3, k)),) * 2 for k in range(6, -1, -1)]


def test_ellipsoid_blocks_eliminate_only_the_rows_their_rhs_reaches(monkeypatch):
    # solve-q's data: laplacian(P2 * x^a) keeps the parity of a, so each
    # block falls apart, and its rhs reaches 288 of the 680 block rows
    names = ("x", "y", "z")
    psi = parse_polynomial("4/9*x^2+y^2+9/25*z^2-1", names)
    f = parse_polynomial("(-3*x+1*y*z-2)^8", names)
    inserted = []
    kernel = _kernels.rref_q

    def spy(vectors, echelon):
        inserted.append(len(vectors))
        return kernel(vectors, echelon)

    monkeypatch.setattr(_kernels, "rref_q", spy)
    q = fischer.solve_by_degree(psi, f.laplacian())
    assert sum(len(homogeneous_basis(3, k)) for k in range(15)) == 680
    assert sum(inserted) == 288
    assert len(homogeneous_basis(3, 14)) == 120 and inserted[0] == 36
    # the parts are gathered in order of degree, as their sum orders them
    degrees = [sum(m) for m in q.terms]
    assert degrees == sorted(degrees)
    assert DecompositionCertificate.build(psi, f, q).verify()


@pytest.mark.parametrize(
    "psi, f, slack",
    [
        (
            khavinson_psi([0, 1]),
            parse_polynomial("x1^2*x3 + i*x2^3", ("x1", "x2", "x3"), FIELD_QI),
            0,
        ),
        (
            parse_polynomial("x^2+y^2-1", ("x", "y"), FIELD_QI),
            parse_polynomial("x^3*y + i*y^2", ("x", "y"), FIELD_QI),
            1,
        ),
    ],
    ids=["khavinson-z", "circle-over-Qi"],
)
def test_other_psi_keep_the_filtered_slices(monkeypatch, psi, f, slack):
    assert not fischer.has_semidefinite_top_form(psi)
    shapes = _recording_slices(monkeypatch)
    cert = fischer_decompose(psi, f, slack)
    tried = len(shapes)
    expected = [
        (len(filtered_basis(f.arity, m + psi.degree - 2)), len(filtered_basis(f.arity, m)))
        for m in range(f.degree - psi.degree, f.degree - psi.degree + 3 + slack)
    ]
    assert 1 <= tried and shapes == expected[:tried]
    assert cert.verify() and cert.q == _filtered_slice_decompose(psi, f, slack).q


_NON_TERM_TEST_QUADRICS = ("x^2+x*y+2*y^2-1", "x^2+3*x*y+y^2-1", "x^2-2*y^2+x-3")


@pytest.mark.parametrize("psi_text", _NON_TERM_TEST_QUADRICS)
def test_decompose_finds_the_q_of_dirichlet(psi_text):
    # decompose starts at filtered(deg f - 2), the one slice dirichlet solves on
    psi = parse_polynomial(psi_text, ("x", "y"))
    assert not fischer.has_semidefinite_top_form(psi)
    domain = QuadricDomain(psi, (0, 0))
    for text in ("x^3*y+2*y^2", "(2*x-y+1)^4", "x^5-3*x*y^2+y", "x^2"):
        f = parse_polynomial(text, ("x", "y"))
        cert = fischer_decompose(psi, f, 0)
        assert cert.verify() and cert.q == dirichlet_solve(domain, f).q


@pytest.mark.parametrize("psi_text", [*_NON_TERM_TEST_QUADRICS, "x^3+y^3-1", "x*y-1"])
def test_decompose_assembles_the_least_reaching_slice_first(monkeypatch, psi_text):
    psi = parse_polynomial(psi_text, ("x", "y"))
    f = parse_polynomial("x^4+y^3*x-2*y", ("x", "y"))
    shapes = _recording_slices(monkeypatch)
    try:
        fischer_decompose(psi, f, 1)
    except NoDecompositionFoundError:
        pass
    # filtered(deg f - deg psi) is the least source whose image reaches deg f - 2
    assert shapes[0] == (len(filtered_basis(2, f.degree - 2)),
                         len(filtered_basis(2, f.degree - psi.degree)))


@pytest.mark.parametrize(
    "psi, f, slack",
    [
        # a negative multiple of an ellipsoid: its top form is negative definite
        (Poly.constant(2, 1) - X * X - Y * Y, X**3 * Y + Y**2, 0),
        (
            parse_polynomial("x^2+y^2-1", ("x", "y", "z")),
            parse_polynomial("x*z^3 + y^2*z", ("x", "y", "z")),
            1,
        ),
        (
            parse_polynomial("x^4+y^4-1", ("x", "y")),
            parse_polynomial("(x^4+y^4-1)*(x*y+x) + x^3 - 3*x*y^2", ("x", "y")),
            2,
        ),
    ],
    ids=["1-x^2-y^2", "cylinder", "x^4+y^4-1"],
)
def test_semidefinite_top_forms_solve_homogeneous_blocks_top_first(monkeypatch, psi, f, slack):
    assert fischer.ellipsoidal_form(psi) is None and fischer.has_semidefinite_top_form(psi)
    shapes = _recording_slices(monkeypatch)
    cert = fischer_decompose(psi, f, slack)
    # one block per degree l of laplacian(f) down to deg psi - 2, from the
    # degree l + 2 - deg psi part of q to the degree-l part
    top, d = f.laplacian().degree, psi.degree
    assert shapes == [(len(homogeneous_basis(f.arity, l)),
                       len(homogeneous_basis(f.arity, l + 2 - d)))
                      for l in range(top, d - 3, -1)]
    assert cert.verify() and cert.q == _filtered_slice_decompose(psi, f, slack).q


def _random_harmonic(rng, arity, max_degree):
    # c * Re((x_a + i*x_b)^k) or c * Im(...), three times: a harmonic sum
    h = Poly.zero(arity)
    for _ in range(3):
        a, b = rng.sample(range(arity), 2)
        k, odd = rng.randint(1, max_degree), rng.randint(0, 1)
        terms = {}
        for r in range(odd, k + 1, 2):
            exponents = [0] * arity
            exponents[a], exponents[b] = k - r, r
            terms[tuple(exponents)] = math.comb(k, r) * (-1) ** (r // 2)
        h = h + Poly(arity, FIELD_Q, terms).scale(random_fraction(rng))
    return h


def _decompose_outcome(decompose, psi, f, slack):
    try:
        cert = decompose(psi, f, slack)
    except NoDecompositionFoundError as exc:
        return "none", exc.slack
    return cert.q, cert.h


_SEMIDEFINITE_PSI = [
    ("x^4+y^4-1", 2),
    ("x^4+y^2-1", 2),
    ("(x^2+y^2)^2+x-1", 2),
    ("x^6+y^6+x*y-1", 2),
    ("1-x^2-y^2", 2),
    ("x^2-1", 2),
    ("x^2+y^2+x-3", 2),
    ("x^2+y^2-1", 3),
    ("x^4+x^2*y^2+y^4+z^4+x-1", 3),
]


@pytest.mark.parametrize("text, arity", _SEMIDEFINITE_PSI,
                         ids=[f"{text}-d{arity}" for text, arity in _SEMIDEFINITE_PSI])
def test_block_solve_matches_the_filtered_slices(text, arity):
    # f = psi*g + harmonic has a q; adding a random r usually leaves none
    # when deg psi > 2, while every f has one for a quadric
    rng = random.Random(sum(map(ord, text)) + arity)
    psi = parse_polynomial(text, ("x", "y", "z")[:arity])
    assert fischer.has_semidefinite_top_form(psi)
    outcomes = []
    for trial in range(12):
        g = random_poly(rng, arity, 3 if arity == 2 else 2)
        h = _random_harmonic(rng, arity, psi.degree + 2)
        assert not h.laplacian()
        f = psi * g + h
        if trial % 2:
            f = f + random_poly(rng, arity, psi.degree + 1, nonzero=True)
        slack = rng.randint(0, 3)
        outcome = _decompose_outcome(fischer_decompose, psi, f, slack)
        assert outcome == _decompose_outcome(_filtered_slice_decompose, psi, f, slack)
        if not trial % 2:
            assert outcome[0] == g
        outcomes.append(outcome[0] == "none")
    assert not all(outcomes)
    assert any(outcomes) == (psi.degree > 2)


def test_the_quartic_baseline_has_no_q_by_its_top_block(monkeypatch):
    # the filtered slices of this case take tens of seconds; the top block
    # alone is inconsistent, which proves that no q exists
    names = ("x", "y", "z")
    psi = parse_polynomial("x^4+x^2*y^2+y^4+z^4+x-1", names)
    shapes = _recording_slices(monkeypatch)
    with pytest.raises(NoDecompositionFoundError):
        fischer_decompose(psi, parse_polynomial("(x+y*z+1)^11", names), slack=3)
    assert shapes == [(len(homogeneous_basis(3, 20)), len(homogeneous_basis(3, 18)))]


def _block_ranks(top, max_degree=10):
    op = FischerOperator(top)
    for m in range(max_degree + 1):
        source = homogeneous_basis(top.arity, m)
        target = homogeneous_basis(top.arity, m + top.degree - 2)
        yield m, len(source), rank_and_first_missing(operator_matrix(op, source, target))[0]


@pytest.mark.parametrize("text, arity", [("x^4+y^4", 2), ("x^4", 2), ("(x^2+y^2)^2", 2),
                                         ("x^2+y^2", 3), ("-x^2-y^2", 2)])
def test_semidefinite_top_forms_give_injective_blocks(text, arity):
    top = parse_polynomial(text, ("x", "y", "z")[:arity])
    assert fischer.has_semidefinite_top_form(top)
    lower = Poly.variable(arity, 0) - Poly.constant(arity, 1)
    assert fischer.has_semidefinite_top_form(top + lower)
    for m, columns, rank in _block_ranks(top):
        assert rank == columns, m


def test_the_predicate_rejects_other_top_forms():
    names = ("x", "y")
    indefinite = parse_polynomial("x^4-6*x^2*y^2+y^4", names)
    lost = [m for m, columns, rank in _block_ranks(indefinite) if rank < columns]
    assert lost == [0, 4, 8]
    for text in ("x^4-6*x^2*y^2+y^4", "x^4-6*x^2*y^2+y^4-1", "x*y", "x*y+x^2-1", "x^3",
                 "x^3+y^2-1", "x^2-y^2-1", "x+y", "3"):
        assert not fischer.has_semidefinite_top_form(parse_polynomial(text, names)), text
    for psi in (khavinson_psi([0, 1]), khavinson_psi([1, 2, 3]),
                parse_polynomial("x^2+y^2-1", names, FIELD_QI),
                parse_polynomial("x^4+y^4-1", names, FIELD_QI),
                parse_polynomial("1-x^2-y^2", names, FIELD_QI)):
        assert not fischer.has_semidefinite_top_form(psi)


def test_slack_on_an_ellipsoid_builds_no_larger_slice():
    # the blocks of a semidefinite top form lie in filtered(deg f - 2) whatever
    # the slack, so a slack whose filtered slices would pass
    # MAX_SLICE_DIMENSION is unused
    cert = fischer_decompose(CIRCLE, X**3 * Y, slack=100)
    assert cert == fischer_decompose(CIRCLE, X**3 * Y)
    quartic = X**4 + Y**4 - Poly.constant(2, 1)
    f = quartic * (X * Y + X) + X**3 - (X * Y * Y).scale(3)
    cert = fischer_decompose(quartic, f, slack=100)
    assert cert == fischer_decompose(quartic, f) and cert.q == X * Y + X
    with pytest.raises(SliceTooLargeError):
        fischer_decompose(X * X - Y * Y - Poly.constant(2, 1), X**3 * Y, slack=100)


def test_rank_profile_circle_all_surjective_at_slack_zero():
    profile = rank_profile(CIRCLE, 5, slack=0)
    assert profile.all_surjective()
    for verdict in profile.verdicts:
        assert verdict.status == SURJECTIVE
        assert verdict.slack == 0
    # the filtered slices are square for a quadric
    for row in profile.rows:
        assert row.dim_source == row.dim_target
        assert row.rank == row.dim_source


def test_rank_profile_x1_homogeneous_surjective():
    profile = rank_profile(X, 6, mode="homogeneous")
    assert profile.all_surjective()
    for row in profile.rows:
        assert row.dim_target == row.target_degree + 1
        assert row.rank == row.dim_target


def test_rank_profile_x_cubed_homogeneous_is_conclusively_negative():
    # source homogeneous(n-1) has dimension n < n+1 = dim homogeneous(n)
    psi = Poly.monomial(2, (3, 0))
    profile = rank_profile(psi, 4, mode="homogeneous")
    for verdict, row in zip(profile.verdicts, profile.rows):
        assert verdict.status == NOT_SURJECTIVE
        assert verdict.witness is not None
        assert row.rank < row.dim_target
        if row.source_degree >= 0:
            # the witness is provably outside the image of its slice
            op = FischerOperator(psi)
            source = homogeneous_basis(2, row.source_degree)
            target = homogeneous_basis(2, row.target_degree)
            matrix = operator_matrix(op, source, target)
            with pytest.raises(InconsistentSystemError):
                solve(matrix, coordinates(verdict.witness, target))


@pytest.mark.parametrize(
    "psi, max_target_degree",
    [
        (Poly.monomial(3, (3, 0, 0)) + Poly.monomial(3, (0, 3, 0), 2)
         + Poly.monomial(3, (0, 0, 3), 3), 9),
        (Poly.monomial(3, (1, 1, 1)), 6),
        # misses the second monomial at odd degrees: x^n is in the image
        (Poly.monomial(2, (1, 2)), 7),
    ],
    ids=["x^3+2y^3+3z^3", "xyz", "xy^2"],
)
def test_homogeneous_witness_is_the_first_monomial_outside_the_image(psi, max_target_degree):
    profile = rank_profile(psi, max_target_degree, mode=HOMOGENEOUS)
    op = FischerOperator(psi)
    negatives = 0
    for row, verdict in zip(profile.rows, profile.verdicts):
        target = homogeneous_basis(psi.arity, row.target_degree)
        if row.source_degree < 0:
            matrix = ExactMatrix(len(target), 0, [], psi.field)
        else:
            source = homogeneous_basis(psi.arity, row.source_degree)
            matrix = operator_matrix(op, source, target)
        assert row.rank == reference_rank(matrix)
        if verdict.status != NOT_SURJECTIVE:
            continue
        negatives += 1
        (exponents,) = verdict.witness.terms
        j = target.monomials.index(exponents)
        assert verdict.witness == Poly.monomial(psi.arity, exponents, 1, psi.field)
        assert_first_unsolvable_unit(matrix, j)
    assert negatives == max_target_degree + 1


def test_rank_profile_x_cubed_filtered_is_undetermined():
    psi = Poly.monomial(2, (3, 0))
    profile = rank_profile(psi, 2, slack=1)
    for verdict in profile.verdicts:
        assert verdict.status == UNDETERMINED
        assert verdict.witness is not None
        assert verdict.witness.degree <= verdict.target_degree


def test_rank_profile_ranks_monotone_in_source_degree():
    psi = Poly.monomial(2, (3, 0))
    profile = rank_profile(psi, 3, slack=3)
    by_target = {}
    for row in profile.rows:
        by_target.setdefault(row.target_degree, []).append(row)
    for rows in by_target.values():
        ranks = [r.rank for r in sorted(rows, key=lambda r: r.source_degree)]
        assert ranks == sorted(ranks)


def test_rank_profile_homogeneous_mode_requires_homogeneous_psi():
    with pytest.raises(ValueError):
        rank_profile(CIRCLE, 3, mode="homogeneous")
    with pytest.raises(ValueError):
        rank_profile(CIRCLE, 3, mode="graded")
    with pytest.raises(ValueError):
        rank_profile(CIRCLE, -1)


def test_rank_profile_khavinson_linear_phi_surjective_at_low_degrees():
    psi = khavinson_psi([0, 1])
    profile = rank_profile(psi, 2, slack=2)
    assert profile.all_surjective()
    assert all(v.slack == 0 for v in profile.verdicts)


def _per_rung_ladder(psi, max_target_degree, slack):
    """The filtered ladder rebuilt rung by rung, as a reference.

    Every (n, s) reduces [A | E] afresh: A maps filtered(m) into
    filtered(m + deg psi - 2) and E is the identity on the degree-n prefix
    of that target, so a pivot in E marks a block monomial outside image(A).
    """
    op = FischerOperator(psi)
    rows = []
    verdicts = []
    for n in range(max_target_degree + 1):
        tested_dim = len(filtered_basis(psi.arity, n))
        verdict = witness = None
        for s in range(slack + 1):
            m = n - psi.degree + 2 + s
            if m < 0:
                rows.append(RankProfileRow(n, m, 0, tested_dim, 0, False))
                witness = Poly.monomial(psi.arity, (0,) * psi.arity, 1, psi.field)
                continue
            source = filtered_basis(psi.arity, m)
            target = filtered_basis(psi.arity, m + psi.degree - 2)
            matrix = operator_matrix(op, source, target)
            block = [[as_scalar(int(i == j), psi.field) for j in range(tested_dim)]
                     for i in range(len(target))]
            pivots = reference_pivots(
                [*matrix.row(i), *unit] for i, unit in enumerate(block))
            rank = sum(1 for p in pivots if p < matrix.cols)
            missed = [p - matrix.cols for p in pivots if p >= matrix.cols]
            rows.append(RankProfileRow(n, m, len(source), len(target), rank, not missed))
            if not missed:
                verdict = DegreeVerdict(n, SURJECTIVE, slack=s)
                break
            witness = Poly.monomial(psi.arity, target.monomials[missed[0]], 1, psi.field)
        verdicts.append(verdict or DegreeVerdict(n, UNDETERMINED, witness=witness))
    return tuple(rows), tuple(verdicts)


X3, Y3, Z3 = (Poly.variable(3, i) for i in range(3))
ONE3 = Poly.constant(3, 1)

# (psi, max_target_degree, slack): Qi and Q, two and three variables,
# ladders that cover, ladders that end undetermined, rungs with m < 0
LADDER_CASES = {
    "khavinson-(2+3i)z^2": (khavinson_psi([0, 0, GaussianRational(2, 3)]), 2, 6),
    "khavinson-1+z+z^2": (khavinson_psi([1, 1, 1]), 1, 3),
    "khavinson-z": (khavinson_psi([0, 1]), 2, 1),
    "ellipse": (X * X.scale(2) + Y * Y.scale(3) - Poly.constant(2, 1), 5, 1),
    "ellipsoid-3d": (X3 * X3 + Y3 * Y3.scale(2) + Z3 * Z3.scale(3) - ONE3, 3, 1),
    "xyz-1": (X3 * Y3 * Z3 - ONE3, 2, 2),
    "x^3": (Poly.monomial(2, (3, 0)), 3, 3),
    "xy-1": (X * Y - Poly.constant(2, 1), 4, 2),
    "x^5+y": (Poly.monomial(2, (5, 0)) + Y, 3, 2),
    "x": (X, 3, 1),
}


@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_filtered_ladder_matches_per_rung_reduction(case):
    psi, max_target_degree, slack = LADDER_CASES[case]
    profile = rank_profile(psi, max_target_degree, slack=slack)
    rows, verdicts = _per_rung_ladder(psi, max_target_degree, slack)
    assert profile.rows == rows
    assert profile.verdicts == verdicts


@pytest.mark.parametrize("case", ["khavinson-(2+3i)z^2", "khavinson-1+z+z^2", "xyz-1",
                                  "x^3", "xy-1", "x^5+y"])
def test_filtered_witnesses_certify_every_missed_rung(case):
    # cutting the ladder at a missed rung makes that rung the last one, so
    # its witness surfaces in the verdict; it must be outside that rung's image
    psi, max_target_degree, slack = LADDER_CASES[case]
    profile = rank_profile(psi, max_target_degree, slack=slack)
    op = FischerOperator(psi)
    missed = [row for row in profile.rows if not row.surjective]
    assert missed
    last_witness = {}
    for row in missed:
        n, m = row.target_degree, row.source_degree
        cut = rank_profile(psi, n, slack=m - (n - psi.degree + 2))
        verdict = cut.verdicts[n]
        assert verdict.status == UNDETERMINED
        assert verdict.witness.degree <= n
        last_witness[n] = verdict.witness
        if m < 0:
            continue  # the image is {0}: any nonzero witness is outside it
        source = filtered_basis(psi.arity, m)
        target = filtered_basis(psi.arity, m + psi.degree - 2)
        with pytest.raises(InconsistentSystemError):
            solve(operator_matrix(op, source, target), coordinates(verdict.witness, target))
    for verdict in profile.verdicts:
        if verdict.status == UNDETERMINED:
            assert verdict.witness == last_witness[verdict.target_degree]


def test_filtered_covering_rung_solves_every_block_monomial():
    psi, _, slack = LADDER_CASES["khavinson-(2+3i)z^2"]
    profile = rank_profile(psi, 1, slack=slack)
    assert profile.all_surjective()
    op = FischerOperator(psi)
    for row in profile.rows:
        if not row.surjective:
            continue
        source = filtered_basis(psi.arity, row.source_degree)
        target = filtered_basis(psi.arity, row.source_degree + psi.degree - 2)
        matrix = operator_matrix(op, source, target)
        for exponents in filtered_basis(psi.arity, row.target_degree):
            e = Poly.monomial(psi.arity, exponents, 1, psi.field)
            solve(matrix, coordinates(e, target))


# k -> (max_target_degree, slack): phi = a0 + a_k*z^k first covers degree n
# at slack (2k - 2)(n + 1), so these ladders end undetermined for k >= 2,
# and for k = 4 they start with rungs of negative source degree
_GRADED_LADDERS = {1: (3, 0), 2: (3, 5), 3: (2, 6), 4: (1, 8)}


def _weight(k, exponents):
    # psi = (t - a_k*w^k)^2 has weight 2k under the weights (1, 2k - 1, k) of
    # (w, u, t), and the operator 4*dw*du + dt^2 lowers weight by 2k
    return sum(map(mul, (1, 2 * k - 1, k), exponents))


@pytest.mark.parametrize("k", sorted(_GRADED_LADDERS))
def test_graded_ladder_matches_the_one_block_ladder(k):
    # the ladder in (w, u, t) coordinates against the one in the original ones
    max_target_degree, slack = _GRADED_LADDERS[k]
    undetermined = 0
    for a0 in (0, GaussianRational(1, 2)):
        for ak in (1, GaussianRational(2, 3), -GAUSSIAN_I):
            psi = khavinson_psi([a0] + [0] * (k - 1) + [ak])
            image = fischer._khavinson_coordinates(psi)
            assert image.operator.psi != psi
            rows, verdicts = fischer._filtered_profile(psi, max_target_degree, slack, image)
            original = fischer._original_coordinates(psi)
            assert original.operator == FischerOperator(psi)
            assert (rows, verdicts) == fischer._filtered_profile(
                psi, max_target_degree, slack, original)
            profile = rank_profile(psi, max_target_degree, slack=slack)
            assert profile.rows == tuple(rows) and profile.verdicts == tuple(verdicts)
            undetermined += sum(v.status == UNDETERMINED for v in verdicts)
    missed = [n for n in range(max_target_degree + 1) if (2 * k - 2) * (n + 1) > slack]
    assert undetermined == 6 * len(missed) and (missed or k == 1)


@pytest.mark.parametrize("phi", [[GaussianRational(1, 2), 3], [0, 0, GaussianRational(2, 3)],
                                 [GaussianRational(1, 2), 0, 0, -GAUSSIAN_I]])
def test_khavinson_grading_is_an_exact_change_of_coordinates(phi):
    # substituting the old coordinates takes psi to the new psi and the
    # Laplacian of psi*q to the new operator applied to the substituted q,
    # and the new operator keeps the weight of a monomial
    psi = khavinson_psi(phi)
    k = len(phi) - 1
    image = fischer._khavinson_coordinates(psi)

    def substitute(p):
        total = Poly.zero(3, FIELD_QI)
        for exponents, c in p.terms.items():
            term = Poly.constant(3, c, FIELD_QI)
            for x, e in zip(image.change, exponents):
                term = term * x**e
            total = total + term
        return total

    assert substitute(psi) == image.operator.psi
    for exponents in filtered_basis(3, 2):
        q = Poly.monomial(3, exponents, 1, FIELD_QI)
        assert substitute(FischerOperator(psi).apply(q)) == image.operator.apply(substitute(q))
        weights = {_weight(k, e) for e in image.operator.apply(q).terms}
        assert weights <= {_weight(k, exponents)}
    # so the one echelon never mixes weights: every row it stores is
    # weight-homogeneous, as if each weight had an echelon of its own
    for _ in range(5):
        image.grow()
    rows = image.echelon._echelon.values()
    assert len(rows) == image.echelon.rank > 0
    for row in rows:
        assert len({_weight(k, image.target.monomials[-i]) for i in row}) == 1


def test_khavinson_coordinates_match_the_original_ones_for_any_phi():
    # phi with two or more non-constant Qi coefficients: the ladder in
    # (w, u, t) coordinates gives the rows, verdicts and witnesses of the
    # ladder in the original ones, covered degrees and undetermined ones
    rng = random.Random(11)
    statuses = set()
    for _ in range(24):
        k = rng.choice((2, 3))
        phi = [0] * (k + 1)
        while not phi[k] or sum(map(bool, phi[1:])) < 2:
            phi = [GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)) / rng.randint(1, 3)
                   for _ in range(k + 1)]
        psi = khavinson_psi(phi)
        image = fischer._khavinson_coordinates(psi)
        assert len(image.operator.psi.terms) < len(psi.terms)
        max_target_degree, slack = (2, 3) if k == 2 else (1, 5)
        rows, verdicts = fischer._filtered_profile(psi, max_target_degree, slack, image)
        assert (rows, verdicts) == fischer._filtered_profile(
            psi, max_target_degree, slack, fischer._original_coordinates(psi))
        statuses.update(v.status for v in verdicts)
    assert statuses == {SURJECTIVE, UNDETERMINED}


def test_khavinson_grading_is_only_for_a_monomial_phi(monkeypatch):
    psi = khavinson_psi([1, 0, GaussianRational(2, 3)])
    image = fischer._khavinson_coordinates(psi)
    # in (w, u, t) psi is (t - a_k*w^k)^2 and the Laplacian 4*w*u + t^2
    assert len(image.operator.psi.terms) == 3 and len(image.operator.operator.terms) == 2
    assert {_weight(2, e) for e in image.operator.psi.terms} == {4}
    # psi with any coefficient changed
    for exponents in psi.terms:
        changed = psi + Poly.monomial(3, exponents, 1, FIELD_QI)
        assert fischer._khavinson_coordinates(changed) is None
    assert fischer._khavinson_coordinates(psi + Poly.monomial(3, (0, 1, 1), 1, FIELD_QI)) is None

    # arity and field reject a psi before anything is expanded
    def refuse(*args):
        raise AssertionError("the recognizer expanded a Khavinson psi")

    monkeypatch.setattr(fischer, "khavinson_psi", refuse)
    names = ("x1", "x2", "x3")
    for other in (parse_polynomial("x^2+y^2-1", ("x", "y"), FIELD_QI),
                  parse_polynomial("(x3 - x1^2 + x2^2)^2", names),
                  parse_polynomial("x1^2+x2^2+x3^2-1", names)):
        assert fischer._khavinson_coordinates(other) is None
    assert rank_profile(CIRCLE.scale(3) - X * X, 4).all_surjective()


def test_fischer_theorem_examples():
    cases = [
        Poly.variable(2, 0),
        Poly.monomial(2, (1, 1)),
        squared_norm(2),
    ]
    for p in cases:
        slices = fischer_theorem_check(p, 4)
        assert all(s.nonsingular for s in slices)
        assert all(s.rank == s.dimension for s in slices)


def test_fischer_theorem_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        fischer_theorem_check(CIRCLE, 3)
    with pytest.raises(ValueError):
        fischer_theorem_check(Poly.constant(2, 2), 3)


def test_fischer_theorem_rejects_a_negative_or_non_int_degree():
    for max_degree in (-1, 2.0, None):
        with pytest.raises(ValueError, match="max_degree"):
            fischer_theorem_check(squared_norm(2), max_degree)


def test_khavinson_psi_of_high_degree_is_refused_before_expanding():
    # deg psi = 2k, and filtered(2k - 2) passes the slice bound up to k = 14
    assert khavinson_psi([0] * 14 + [1]).degree == 28
    with pytest.raises(SliceTooLargeError, match="phi of degree 15"):
        khavinson_psi([0] * 15 + [1, 0])


def test_khavinson_psi_linear_phi_expansion():
    # (x3 - x1 - i*x2)^2 expanded by hand
    x1 = Poly.variable(3, 0, FIELD_QI)
    x2 = Poly.variable(3, 1, FIELD_QI)
    x3 = Poly.variable(3, 2, FIELD_QI)
    expected = (
        x3 * x3
        + x1 * x1
        - x2 * x2
        - (x1 * x3).scale(2)
        - (x2 * x3).scale(GaussianRational(0, 2))
        + (x1 * x2).scale(GaussianRational(0, 2))
    )
    assert khavinson_psi([0, 1]) == expected


def test_khavinson_psi_quadratic_phi_independent_expansion():
    x1 = Poly.variable(3, 0, FIELD_QI)
    x2 = Poly.variable(3, 1, FIELD_QI)
    x3 = Poly.variable(3, 2, FIELD_QI)
    w = x1 + x2.scale(GAUSSIAN_I)
    expected = x3 * x3 - (x3 * (w * w)).scale(2) + (w * w) * (w * w)
    psi = khavinson_psi([0, 0, 1])
    assert psi == expected
    assert psi.degree == 4


def test_khavinson_psi_rejects_constant_phi():
    with pytest.raises(ValueError):
        khavinson_psi([Fraction(5)])
    with pytest.raises(ValueError):
        khavinson_psi([GaussianRational(1, 2), 0, 0])


def test_khavinson_psi_laplacian_is_two():
    # laplacian((x3 - phi(w))^2) = 2 for every phi: the gradient squares cancel
    for coeffs in ([0, 1], [0, 0, 1], [1, GaussianRational(0, 1), 0, Fraction(1, 2)]):
        psi = khavinson_psi(coeffs)
        assert psi.laplacian() == Poly.constant(3, 2, FIELD_QI)
