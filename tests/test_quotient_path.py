"""The quotient path in integer form: q's right-hand side enters solve as
the stored ints of a Poly (coordinates), and q is rebuilt from solve's
scalars by one lcm (from_coordinates), with no scalar made on the way in.
The reference is the scalar route it replaced: coordinates as scalars, a
solve that takes scalars, and Poly(...) from the solution.  q's report
strings come from solve's lowest-terms scalars (the seed of decimal_terms);
their reference is the same ints and den with no seed."""

import random
import sys
from fractions import Fraction

import pytest

from fischerlab import (
    FIELD_Q,
    FIELD_QI,
    FischerlabError,
    InconsistentSystemError,
    Poly,
    QuadricDomain,
    dirichlet_solve,
    filtered_basis,
    fischer,
    fischer_decompose,
    homogeneous_basis,
    linalg,
    parse_polynomial,
)
from fischerlab import _kernels
from fischerlab.fischer import solve_by_degree, solve_quotient
from fischerlab.polyring import canonical_poly, from_coordinates, graded_sum, overflow_error
from fischerlab.scalars import GaussianRational, as_scalar, from_integer, integer_form
from helpers import random_ellipsoid, random_poly, stored_rows

XYZ = ("x", "y", "z")


def _spy(run):
    """Run run() under sys.setprofile.  Returns (leaks, built, returned):
    leaks names each call of scalars.from_integer or Fraction() made outside
    linalg.solve or in a solve before its kernel call (its rhs path), built
    holds the Fractions made, and returned the entries of solve's results
    and their parts."""
    watched = {from_integer.__code__: "from_integer", Fraction.__new__.__code__: "Fraction"}
    kernels = {_kernels.rref_q.__code__, _kernels.rref_qi.__code__}
    solve_code = linalg.solve.__code__
    leaks, built, returned, past_kernel = [], [], [], set()
    inner = linalg.solve

    def recording_solve(matrix, rhs):
        x = inner(matrix, rhs)
        returned.extend(p for v in x for p in ((v.re, v.im) if hasattr(v, "re") else (v,)))
        return x

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "return" and code is Fraction.__new__.__code__:
            built.append(arg)
        if event != "call":
            return
        if code in kernels and frame.f_back.f_code is solve_code:
            past_kernel.add(frame.f_back)
        if code not in watched:
            return
        outer = frame.f_back
        while outer is not None and outer.f_code is not solve_code:
            outer = outer.f_back
        if outer is None or outer not in past_kernel:
            names, caller = [], frame.f_back
            while caller is not None and len(names) < 4:
                names.append(caller.f_code.co_name)
                caller = caller.f_back
            leaks.append((watched[code], names))

    saved = fischer.solve
    fischer.solve = recording_solve
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        fischer.solve = saved
    return leaks, built, returned


def test_the_quotient_path_builds_no_scalar_before_solve_returns():
    # solve-q's psi and f, on the blocks; and a filtered decompose over Qi
    psi = parse_polynomial("4/9*x^2+y^2+9/25*z^2-1", XYZ)
    lap_f = parse_polynomial("(3*x+y*z+2)^8", XYZ).laplacian()
    qi_psi = parse_polynomial("x^2+(1+i)*y^2-1", ("x", "y"), FIELD_QI)
    qi_f = parse_polynomial("x^3*y+i*y^2", ("x", "y"), FIELD_QI)
    assert fischer.has_semidefinite_top_form(psi) and not fischer.has_semidefinite_top_form(qi_psi)
    for run in (lambda: solve_by_degree(psi, lap_f), lambda: fischer_decompose(qi_psi, qi_f)):
        leaks, built, returned = _spy(run)
        assert leaks == []
        assert built and returned
        # the only Fractions made are solve's returned entries (over Qi
        # their parts), and the one zero that solve shares among its
        # free unknowns
        ids = {id(v) for v in returned}
        assert all(id(v) in ids or v == 0 for v in built)


# ---------------------------------------------------------------------------
# The scalar route, as the quotient path ran it before the rhs entered solve
# in integer form: the reference of the differential test below.

def _scalar_coordinates(p, basis):
    coords = [as_scalar(0, p.field)] * len(basis)
    for m, c in p.terms.items():
        try:
            coords[basis.index(m)] = c
        except KeyError:
            raise overflow_error(m, basis) from None
    return coords


def _scalar_solve(matrix, rhs):
    rhs = [as_scalar(v, matrix.field) for v in rhs]
    if len(rhs) != matrix.rows:
        raise ValueError(f"rhs length {len(rhs)} does not match rows {matrix.rows}")
    kernel, field = linalg._kernel(matrix.field)
    cols, den, times, int_rows = matrix.cols, matrix._den, field.times, stored_rows(matrix)
    rhs_ints, common = integer_form(rhs, matrix.field)
    augmented = []
    for i in reversed(linalg._reached(matrix, int_rows, [i for i, v in enumerate(rhs) if v])):
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


def _scalar_from_coordinates(coords, basis, field=FIELD_Q):
    if len(coords) != len(basis):
        raise ValueError(f"expected {len(basis)} coordinates, got {len(coords)}")
    return Poly(basis.arity, field, dict(zip(basis.monomials, coords)))


def _seed(p):
    # the seed of p's decimal_terms: a list until they are read, else not one
    return getattr(p, "_decimals", None)


def _unseeded_decimals(p):
    # the decimal_terms of p's ints and den, rendered from the ints
    ints, den = p.integer_form
    return canonical_poly(p.arity, p.field, dict(ints), den).decimal_terms


def _outcome(run, seeded=None):
    """(q's stored ints, their key order, den, decimal_terms, h, h's key
    order) of the run's result (h None for a bare q), or the type and text
    of what it raised.  q's decimal_terms must be those of its ints; seeded,
    if given, gets whether q held a seed before they were read."""
    try:
        result = run()
    except (FischerlabError, ValueError) as error:
        return type(error), str(error)
    q, h = (result.q, result.h) if hasattr(result, "q") else (result, None)
    if seeded is not None:
        seeded.append(type(_seed(q)) is list)
    ints, den = q.integer_form
    assert q.decimal_terms == _unseeded_decimals(q)
    return (dict(ints), list(ints), den, q.decimal_terms, h,
            None if h is None else list(h.integer_form[0]))


def _both_routes(monkeypatch, run):
    made, seeded = [], []

    def recording_from_coordinates(*args):
        made.append(from_coordinates(*args))
        return made[-1]

    with monkeypatch.context() as patched:
        patched.setattr(fischer, "from_coordinates", recording_from_coordinates)
        new = _outcome(run, seeded)
    # every q a solve returned, and every block part that q was joined from,
    # renders as its ints do; a nonzero q was seeded
    assert all(seeded) or new[0] == {}
    for p in made:
        assert p.decimal_terms == _unseeded_decimals(p)
    with monkeypatch.context() as patched:
        patched.setattr(fischer, "coordinates", _scalar_coordinates)
        patched.setattr(fischer, "solve", _scalar_solve)
        patched.setattr(fischer, "from_coordinates", _scalar_from_coordinates)
        # the merge of the blocks' parts, through lowest terms as a sum is
        patched.setattr(fischer, "graded_sum",
                        lambda arity, field, parts: sum(parts, Poly.zero(arity, field)))
        old = _outcome(run)
    return new, old


def _runs(psi, f):
    for slack in range(4):
        yield lambda slack=slack: solve_quotient(psi, f, slack)
        yield lambda slack=slack: fischer_decompose(psi, f, slack)


def _as_qi(p):
    # p's coefficients as real parts, with imaginary parts beside them
    ints, den = p.integer_form
    return Poly(p.arity, FIELD_QI,
                {m: GaussianRational(Fraction(n, den), Fraction(n % 3, den)) for m, n in ints.items()})


def test_the_integer_route_matches_the_scalar_route_on_seeded_ellipsoids(monkeypatch):
    rng = random.Random(4013)
    for trial in range(40):
        arity = 2 + trial % 2
        domain = random_ellipsoid(rng, arity)
        f = random_poly(rng, arity, rng.randint(2, 7), nonzero=True)
        new, old = _both_routes(monkeypatch, lambda: dirichlet_solve(domain, f))
        assert new == old
        for psi, g in ((domain.psi, f), (_as_qi(domain.psi), _as_qi(f))):
            # over Qi psi has no semidefinite top form: one filtered slice at a time
            for run in _runs(psi, g):
                new, old = _both_routes(monkeypatch, run)
                assert new == old


# the quadrics that tests/test_dirichlet.py solves on filtered slices, and
# two over Qi, each with whether some search of the test refuses
_FILTERED_QUADRICS = [
    ("x^2-y^2-1", ("x", "y"), FIELD_Q, True),
    ("x*y-1", ("x", "y"), FIELD_Q, True),
    ("x^2-3*y^2-1", ("x", "y"), FIELD_Q, True),
    ("x^2-1000000*y^2-1", ("x", "y"), FIELD_Q, False),
    ("x^2+y^2-z^2-1", XYZ, FIELD_Q, False),
    ("x^2-y^2-1", ("x", "y"), FIELD_QI, True),
    ("x^2+(1+i)*y^2-1", ("x", "y"), FIELD_QI, False),
]


@pytest.mark.parametrize("text, names, field, refuses", _FILTERED_QUADRICS,
                         ids=[f"{t}-{f}" for t, _, f, _ in _FILTERED_QUADRICS])
def test_the_integer_route_matches_the_scalar_route_on_filtered_quadrics(
        monkeypatch, text, names, field, refuses):
    psi = parse_polynomial(text, names, field)
    assert not fischer.has_semidefinite_top_form(psi)
    rng = random.Random(len(text) + len(names) + len(field))
    data = [random_poly(rng, len(names), rng.randint(2, 5), field, nonzero=True)
            for _ in range(4)]
    data.append(psi * random_poly(rng, len(names), 2, field, nonzero=True) + data[0])
    # no q up to slack 3 on x^2 - y^2 - 1 (tests/test_cli.py pins that report)
    data.append(parse_polynomial("x^4+y^3*x-2*y", names, field))
    if field == FIELD_QI:
        assert any(v.im for p in data for v in p.terms.values())
    raised = 0
    for f in data:
        domain = QuadricDomain(psi, (0.0,) * len(names)) if field == FIELD_Q else None
        if domain is not None:
            new, old = _both_routes(monkeypatch, lambda: dirichlet_solve(domain, f))
            assert new == old
        for run in _runs(psi, f):
            new, old = _both_routes(monkeypatch, run)
            assert new == old
            raised += isinstance(new[0], type)
    assert (raised > 0) == refuses


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_seeded_strings_match_the_ints_on_random_coordinates(field):
    # coordinates with zeros, ints and shared denominators on the homogeneous
    # bases of ascending degrees; their graded_sum is the polynomial of the
    # joined coordinates in the filtered basis, and both are seeded.  A part
    # whose strings were read, or one built by Poly(), hands on no seed.
    rng = random.Random(4027)
    for trial in range(30):
        arity, top = 1 + trial % 3, rng.randint(0, 4)
        parts, joined = [], []
        for degree in range(top + 1):
            basis = homogeneous_basis(arity, degree)
            coords = [rng.choice([0, 0, rng.randint(-9, 9),
                                  Fraction(rng.randint(-99, 99), rng.choice([2, 6, 7 ** 40]))])
                      for _ in basis]
            if field == FIELD_QI:
                coords = [GaussianRational(c, rng.choice([0, c, Fraction(1, 3)])) for c in coords]
            parts.append(from_coordinates(coords, basis, field))
            joined += coords
        total = graded_sum(arity, field, parts)
        whole = from_coordinates(joined, filtered_basis(arity, top), field)
        assert total == whole == sum(parts, Poly.zero(arity, field))
        assert list(total.integer_form[0]) == list(whole.integer_form[0])
        assert type(_seed(total)) is list and type(_seed(whole)) is list
        for p in [total, whole, *parts]:
            assert p.decimal_terms == _unseeded_decimals(p)
        assert _seed(graded_sum(arity, field, parts)) is None
        unseeded = Poly(arity, field, parts[-1].terms)
        assert _seed(graded_sum(arity, field, parts[:-1] + [unseeded])) is None
