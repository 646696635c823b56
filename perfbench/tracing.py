"""Spans and counters recorded around fischerlab's layer entry points.

Nothing under ``src/`` is edited: ``install`` replaces each entry point at
the place its caller looks it up (``fischer.rref``, ``dirichlet.solve``,
``_kernels.rref_q``, ...) with a wrapper that records a span.  Spans stay in
memory; the benchmark writes them out when it ends.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "cli.run": "cli.self_s",
    "cli.json_dumps": "cli.serialize_s",
    "exprs.parse_polynomial": "exprs.parse_s",
    "exprs.parse_scalar": "exprs.parse_s",
    "exprs.format_polynomial": "exprs.format_s",
    "fischer.operator_matrix": "fischer.operator_matrix_s",
    "fischer.rank_profile": "fischer.driver_self_s",
    "fischer.fischer_decompose": "fischer.driver_self_s",
    "fischer.fischer_theorem_check": "fischer.driver_self_s",
    "fischer.khavinson_psi": "fischer.driver_self_s",
    "linalg.rref": "linalg.convert_s",
    "linalg.solve": "linalg.convert_s",
    "linalg.mul_vector": "linalg.recheck_s",
    "linalg.from_columns": "linalg.build_s",
    "linalg.hstack": "linalg.build_s",
    "kernels.rref_q": "kernels.eliminate_s",
    "kernels.rref_qi": "kernels.eliminate_s",
    "dirichlet.dirichlet_solve": "dirichlet.solve_self_s",
    "dirichlet.ks_residual": "dirichlet.solve_self_s",
    "dirichlet.verify_solution": "dirichlet.verify_s",
}

COUNT_METRICS = (
    "kernels.calls",
    "kernels.cells",
    "linalg.eliminations",
    "linalg.cells",
    "linalg.transform_cells",
    "linalg.rank_sum",
    "linalg.solution_bits_max",
    "fischer.columns_assembled",
    "dirichlet.samples",
)


class Recorder:
    """In-memory span list plus deterministic counters for one pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = Counter()
        self.job = None
        self._stack = []

    def wrap(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, None, None, self._stack[-1] if self._stack else None,
                               self.job])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def self_times(self):
        """Self time per SELF_TIME_METRIC entry, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[SELF_TIME_METRIC[name]] += end - start - covered
        return totals


def _bits(value):
    parts = (value.re, value.im) if hasattr(value, "re") else (value,)
    return max(max(abs(p.numerator).bit_length(), p.denominator.bit_length())
               for p in parts)


def _count_kernel(counts, args, kwargs, result):
    counts["kernels.calls"] += 1
    counts["kernels.cells"] += len(args[0])


def _count_rref(counts, args, kwargs, result):
    matrix = args[0]
    want_transform = args[1] if len(args) > 1 else kwargs.get("want_transform", True)
    counts["linalg.eliminations"] += 1
    counts["linalg.cells"] += matrix.rows * matrix.cols
    counts["linalg.rank_sum"] += result.rank
    if want_transform:
        counts["linalg.transform_cells"] += matrix.rows * matrix.rows


def _count_solve(counts, args, kwargs, result):
    matrix = args[0]
    counts["linalg.eliminations"] += 1
    counts["linalg.cells"] += matrix.rows * (matrix.cols + 1)
    bits = max((_bits(x) for x in result), default=0)
    counts["linalg.solution_bits_max"] = max(counts["linalg.solution_bits_max"], bits)


def _count_columns(counts, args, kwargs, result):
    counts["fischer.columns_assembled"] += result.cols


def _count_samples(counts, args, kwargs, result):
    counts["dirichlet.samples"] += result.samples


class _JsonProxy:
    """Stands in for the ``json`` module inside ``fischerlab.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def install(recorder):
    """Wrap every layer entry point.

    Call after importing ``fischerlab`` and before running any job.  Returns
    the traced ``cli.run``, which a traced job must call, and the lookup
    sites that were not found.
    """
    from fischerlab import _kernels, cli, dirichlet, fischer, linalg

    missing = []

    def site(module, attr, name, count=None):
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, recorder.wrap(name, fn, count))

    for attr in ("parse_polynomial", "parse_scalar", "format_polynomial"):
        site(cli, attr, f"exprs.{attr}")
    for attr in ("rank_profile", "fischer_decompose", "fischer_theorem_check",
                 "khavinson_psi"):
        site(cli, attr, f"fischer.{attr}")
    for attr in ("dirichlet_solve", "ks_residual"):
        site(cli, attr, f"dirichlet.{attr}")
    site(cli, "verify_solution", "dirichlet.verify_solution", _count_samples)
    site(dirichlet, "dirichlet_solve", "dirichlet.dirichlet_solve")
    for module in (fischer, dirichlet):
        site(module, "operator_matrix", "fischer.operator_matrix", _count_columns)
        site(module, "solve", "linalg.solve", _count_solve)
    site(fischer, "rref", "linalg.rref", _count_rref)
    site(_kernels, "rref_q", "kernels.rref_q", _count_kernel)
    site(_kernels, "rref_qi", "kernels.rref_qi", _count_kernel)

    matrix = linalg.ExactMatrix
    for attr in ("mul_vector", "hstack"):
        site(matrix, attr, f"linalg.{attr}")
    if "from_columns" in vars(matrix):
        inner = vars(matrix)["from_columns"].__func__
        matrix.from_columns = classmethod(
            recorder.wrap("linalg.from_columns", inner))
    else:
        missing.append("ExactMatrix.from_columns")

    cli.json = _JsonProxy(recorder.wrap("cli.json_dumps", json.dumps))
    return recorder.wrap("cli.run", cli.run), missing
