"""The report layer: each polynomial rendered once from its ints, and the
indented JSON written in one pass.  Both must give the bytes of the
Fraction-based printer and of json.dumps(report, indent=2) that they
replace; those stay here as oracles."""

import contextlib
import gc
import importlib.util
import io
import json
import os
import random
from fractions import Fraction

import pytest

from fischerlab import (
    FIELD_Q,
    FIELD_QI,
    FischerOperator,
    GaussianRational,
    Poly,
    QuadricDomain,
    cli,
    default_var_names,
    dirichlet_solve,
    filtered_basis,
    format_polynomial,
    operator_matrix,
    parse_polynomial,
    poly_to_json,
    scalar_to_json,
)
from fischerlab import polyring
from fischerlab._jsonwriter import ReportEncoder
from fischerlab.fischer import ellipsoidal_form
from fischerlab.polyring import grlex_key
from helpers import random_poly

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
XY = ("x", "y")
XYZ = ("x", "y", "z")


def _write(obj):
    return json.dumps(obj, indent=2, cls=ReportEncoder)


# --- the Fraction-based printer that decimal_terms replaced, as an oracle ---


def _oracle_fraction(value):
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _oracle_coeff_pieces(coeff):
    # -> (negative, factor strings, standalone constant string or None)
    if isinstance(coeff, GaussianRational):
        if coeff.im == 0:
            coeff = coeff.re
        elif coeff.re == 0:
            negative = coeff.im < 0
            magnitude = abs(coeff.im)
            factors = ["i"] if magnitude == 1 else [_oracle_fraction(magnitude), "i"]
            return negative, factors, "*".join(factors)
        else:
            negative = coeff.re < 0
            inner = -coeff if negative else coeff
            imag = "i" if abs(inner.im) == 1 else f"{_oracle_fraction(abs(inner.im))}*i"
            sign = "+" if inner.im > 0 else "-"
            text = f"({_oracle_fraction(inner.re)} {sign} {imag})"
            return negative, [text], text
    negative = coeff < 0
    magnitude = abs(coeff)
    text = _oracle_fraction(magnitude)
    return negative, [] if magnitude == 1 else [text], text


def _oracle_format(p, names):
    if not p:
        return "0"
    ordered = sorted(
        p.terms.items(), key=lambda item: (-sum(item[0]), tuple(-e for e in item[0]))
    )
    pieces = []
    for exponents, coeff in ordered:
        negative, factors, constant = _oracle_coeff_pieces(coeff)
        variables = []
        for name, e in zip(names, exponents):
            if e == 1:
                variables.append(name)
            elif e > 1:
                variables.append(f"{name}^{e}")
        body = "*".join(factors + variables) if variables else constant
        pieces.append((negative, body))
    negative, body = pieces[0]
    out = [f"-{body}" if negative else body]
    for negative, body in pieces[1:]:
        out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


def _oracle_to_json(p):
    terms = sorted(p.terms.items(), key=lambda item: grlex_key(item[0]))
    return {
        "arity": p.arity,
        "field": p.field,
        "terms": [{"exps": list(m), "coeff": scalar_to_json(c)} for m, c in terms],
    }


def _assert_rendered_as_the_oracle(p, names):
    # a fresh copy for each side: neither reads the other's cache
    ints, den = p.integer_form
    copy = p._wrap(dict(ints), den)
    expected = _oracle_format(copy, names or default_var_names(p.arity))
    assert format_polynomial(p, names) == expected
    assert poly_to_json(p) == _oracle_to_json(copy)


def _gaussian(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


_SPECIAL_Q = [
    {},
    {(0, 0): 1},
    {(0, 0): -1},
    {(1, 0): 1, (0, 1): -1},
    {(2, 0): Fraction(-3, 2), (1, 1): 1, (0, 0): Fraction(7, 5)},
    {(0, 0): Fraction(-5, 7)},
    {(3, 1): Fraction(10**40 + 1, 3**50), (0, 2): Fraction(-1, 2**70), (1, 0): -10**60},
]

_SPECIAL_QI = [
    {},
    {(0, 0): _gaussian(0, 1)},
    {(0, 0): _gaussian(0, -1)},
    {(1, 0): _gaussian(0, 1), (0, 1): _gaussian(0, -1)},
    {(1, 1): _gaussian(0, Fraction(3, 2)), (0, 0): _gaussian(0, Fraction(-2, 9))},
    {(2, 0): _gaussian(-2, 3), (0, 2): _gaussian(-2, -3), (1, 0): _gaussian(2, -3)},
    {(0, 0): _gaussian(Fraction(-1, 2), Fraction(3, 4)), (1, 0): _gaussian(1, 1)},
    {(1, 0): _gaussian(-1, -1), (0, 1): _gaussian(5), (0, 0): _gaussian(-5)},
    {(2, 1): _gaussian(Fraction(10**30, 7**40), Fraction(-(3**60), 11**25)),
     (0, 0): _gaussian(0, Fraction(1, 13**30))},
]


@pytest.mark.parametrize("field, terms", [(FIELD_Q, t) for t in _SPECIAL_Q]
                         + [(FIELD_QI, t) for t in _SPECIAL_QI])
def test_special_coefficients_render_as_the_fraction_printer(field, terms):
    _assert_rendered_as_the_oracle(Poly(2, field, terms), XY)


@pytest.mark.parametrize("field", [FIELD_Q, FIELD_QI])
def test_random_polynomials_render_as_the_fraction_printer(field):
    rng = random.Random(f"render:{field}")
    for _ in range(150):
        p = random_poly(rng, rng.randint(1, 3), rng.randint(0, 4), field, max_terms=8)
        _assert_rendered_as_the_oracle(p, None)
        # terms over one big common denominator
        scale = Fraction(rng.randint(1, 10**20), rng.randint(1, 10**20))
        _assert_rendered_as_the_oracle(p.scale(scale) + p.scale(1 / scale), None)


def test_the_solve_q_solution_renders_as_the_fraction_printer():
    psi = parse_polynomial("4/9*x^2+y^2+9/25*z^2-1", XYZ)
    f = parse_polynomial("(3*x+y*z+2)^8", XYZ)
    solution = dirichlet_solve(QuadricDomain(psi, (0, 0, 0)), f)
    assert solution.q.integer_form[1].bit_length() > 2000
    for p in (solution.q, solution.h, solution.f):
        _assert_rendered_as_the_oracle(p, XYZ)


def test_rendering_builds_no_scalar(monkeypatch):
    polys = [random_poly(random.Random(7), 3, 4, field, max_terms=8)
             for field in (FIELD_Q, FIELD_QI)]
    psi = parse_polynomial("2*x^2+3*y^2-1", XY)
    assert ellipsoidal_form(psi) == (Fraction(1, 2), Fraction(1, 3))

    def refuse(*args):
        raise AssertionError("a field scalar was built")

    # with polyring's scalar constructors refused, the printer, poly_to_json,
    # the parser, which counts the terms of each factor, and the operator's
    # stencil, which reads psi's exponents, still run
    for name in ("from_integer", "as_scalar"):
        monkeypatch.setattr(polyring, name, refuse)
    polys.append(parse_polynomial("(x+y)^3*(x-2*y+1)^2-(x*y-1)^2", XYZ))
    for p in polys:
        format_polynomial(p, XYZ)
        poly_to_json(p)
    operator_matrix(FischerOperator(psi), filtered_basis(2, 2), filtered_basis(2, 2))
    with pytest.raises(AssertionError, match="scalar was built"):
        polys[0].terms


# --- the one-pass writer against json.dumps(obj, indent=2) ---


def test_writer_matches_json_dumps_on_generated_values():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf")]),
    )
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.integers(min_value=-(10**300), max_value=10**300), floats,
        st.text(), st.text(alphabet=st.characters(max_codepoint=0x1F)),
    )
    values = st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            st.dictionaries(st.text(max_size=6), children, max_size=5),
        ),
        max_leaves=40,
    )

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(values)
    def check(value):
        assert _write(value) == json.dumps(value, indent=2)

    check()


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]], [1, True, 0, False, None],
    {"k": -(10**200), "é\x00 ": "퟿\x1f\U0001f600"},
    [-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf"), 1.5],
    ["mixed", {"dict": [1, 2]}, 3], True, None, "top", 7,
])
def test_writer_matches_json_dumps_on_edge_cases(value):
    assert _write(value) == json.dumps(value, indent=2)


class _Text(str):
    pass


def test_writer_refuses_a_subclass_of_a_scalar():
    with pytest.raises(TypeError):
        _write({"key": _Text("s")})


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
def test_writer_refuses_a_key_that_is_not_a_string(key):
    with pytest.raises(TypeError):
        _write({key: 1})
    with pytest.raises(TypeError):
        _write([{"ok": {key: 1}}])


def test_writer_refuses_a_value_json_cannot_write():
    with pytest.raises(TypeError):
        _write({"set": {1, 2}})


def _job_lists():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(name, [job for batch in workloads.generate(name, 4) for job in batch])
            for name in workloads.WORKLOADS]


class _CapturingJson:
    """Stands in for the json module inside cli and keeps each report."""

    def __init__(self):
        self.reports = []

    def __getattr__(self, name):
        return getattr(json, name)

    def dumps(self, obj, **kwargs):
        self.reports.append(obj)
        return json.dumps(obj, **kwargs)


def test_every_benchmark_report_is_written_as_json_dumps_writes_it(monkeypatch):
    capturing = _CapturingJson()
    monkeypatch.setattr(cli, "json", capturing)
    count = 0
    for name, jobs in _job_lists():
        for job in jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                cli.run(list(job["argv"]))
            report = capturing.reports.pop()
            assert out.getvalue() == json.dumps(report, indent=2) + "\n", name
            count += 1
    assert count == 123


def test_writing_a_report_leaves_no_reference_cycle(capsys):
    cli.run(["decompose", "--psi", "x^2+(1+i)*y^2-1", "--f", "x^3*y+i*y^2",
             "--vars", "x,y", "--field", "Qi"])
    report = json.loads(capsys.readouterr().out)
    gc.collect()
    gc.disable()
    try:
        text = _write(report)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == json.dumps(report, indent=2)
