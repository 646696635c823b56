"""Seeded job lists for the benchmark workloads.

A job is the argv handed to ``fischerlab.cli.run`` plus what the benchmark
expects back.  Each job takes a tuple of small integer coefficients, drawn
by a ``random.Random`` seeded by the workload name and the seed, and the
shape of each job is fixed.

The cost of a big job depends on the magnitudes of its coefficients (2.7 to
6.3 s between ladder-qi magnitudes on one machine), so solve-q, ladder-qi
and witness-q fix the magnitudes and let the seed choose only signs.  A
sign flip is a change of variables (x -> -x, y -> -y, a complex conjugation
with x2 -> -x2, or for solve-q the sign of f^8 itself), so every seed and
every job of the list gives different inputs and the same work.  solve-q's
magnitudes (3, 1, 2) are those of the known boundary-tolerance defect, and
its seed also draws the boundary sample points.  small-batch draws distinct
magnitudes from 1 to 3.

The job list is cut into batches; one benchmark pass runs one batch in a
fresh interpreter.  A big job is a batch of its own, the 120 small jobs are
one batch.  The big workloads have one job each, so that a run of 30 s
times it three times or more; their tail is that job.

Expectations:

* ``exit``: the exit code a correct run returns.
* ``verdicts``: the (status, slack) pair per target degree of a rank profile.
* ``decomposition``: the psi and f strings; the checker expands them itself
  and rechecks ``psi*q + h == f`` and ``laplacian(h) == 0`` from the report.
* ``residual``: the psi string; the checker rechecks ``residual == factor*psi``.
* ``slices``: the number of Fischer-theorem slices, each to be nonsingular.
"""

from __future__ import annotations

import itertools
import random


def _solve_q(rng, _index, coeffs):
    # the ROADMAP's ellipsoid baseline (semi-axes 3/2, 1, 5/3) one degree down
    a, b, c = coeffs
    psi = "4/9*x^2+y^2+9/25*z^2-1"
    f = f"({a}*x{b:+d}*y*z{c:+d})^8"
    argv = ["dirichlet", "--psi", psi, "--f", f, "--vars", "x,y,z",
            "--interior", "0,0,0", "--seed", str(rng.randrange(1 << 16))]
    return {"argv": argv, "exit": 0, "decomposition": [psi, f], "vars": "x,y,z"}


def _ladder_qi(_rng, _index, coeffs):
    re, im = coeffs
    argv = ["khavinson", "--phi", f"0,0,{re}{im:+d}*i", "--max-degree", "3",
            "--slack", "8"]
    # covering degree n first happens at slack 2n+2 for every c tried
    verdicts = [["surjective", 2 * n + 2] for n in range(4)]
    return {"argv": argv, "exit": 0, "verdicts": verdicts}


def _witness_q(_rng, _index, coeffs):
    a, b, c = coeffs
    # the "=" form keeps a leading minus from reading as an option
    argv = ["rank-profile", f"--psi={a}*x^3{b:+d}*y^3{c:+d}*z^3", "--vars", "x,y,z",
            "--max-degree", "15", "--mode", "homogeneous"]
    # the degree-(n-1) source slice is smaller than the degree-n target slice
    verdicts = [["not_surjective", None] for _ in range(16)]
    return {"argv": argv, "exit": 1, "verdicts": verdicts}


_SMALL_KINDS = ("decompose", "dirichlet", "ks-residual", "rank-profile",
                "fischer-theorem")


def _small_job(rng, index, coeffs):
    kind = _SMALL_KINDS[index % len(_SMALL_KINDS)]
    a, b, c, p, q, r = coeffs
    if kind == "decompose":
        psi = f"{a}*x^2+{b}*y^2+{c}*z^2-{p}"
        f = f"({q}*x+{r}*y*z+{a})^3"
        argv = ["decompose", "--psi", psi, "--f", f, "--vars", "x,y,z"]
        return {"argv": argv, "exit": 0, "decomposition": [psi, f], "vars": "x,y,z"}
    if kind == "dirichlet":
        psi = f"{a}*x^2+{b}*y^2-{c}"
        f = f"({p}*x+{q}*y^2+{r})^3"
        argv = ["dirichlet", "--psi", psi, "--f", f, "--vars", "x,y",
                "--interior", "0,0", "--seed", str(rng.randrange(1 << 16))]
        return {"argv": argv, "exit": 0, "decomposition": [psi, f], "vars": "x,y"}
    if kind == "ks-residual":
        psi = f"{a}*x^2+{b}*y^2+{c}*z^2-{p}"
        argv = ["ks-residual", "--psi", psi, "--vars", "x,y,z", "--interior", "0,0,0"]
        return {"argv": argv, "exit": 0, "residual": psi, "vars": "x,y,z"}
    if kind == "rank-profile":
        # ellipses are Fischer pairs: every degree is covered at slack 0
        argv = ["rank-profile", "--psi", f"{a}*x^2+{b}*y^2-{c}", "--vars", "x,y",
                "--max-degree", "7"]
        return {"argv": argv, "exit": 0, "verdicts": [["surjective", 0]] * 8}
    # Fischer's theorem: q -> p(D)(p*q) is bijective on every homogeneous slice
    argv = ["fischer-theorem", "--p", f"{a}*x^2+{b}*y^2+{c}*z^2", "--vars", "x,y,z",
            "--max-degree", "7"]
    return {"argv": argv, "exit": 0, "slices": 8}


def _distinct(count, arity):
    """`count` distinct tuples of integers from 1 to 3."""
    return lambda rng: rng.sample(list(itertools.product((1, 2, 3), repeat=arity)), count)


def _signed(magnitudes):
    """The given tuples with random signs."""
    return lambda rng: [tuple(rng.choice((1, -1)) * m for m in t) for t in magnitudes]


# workload -> (job maker, coefficient draw, jobs per batch)
_JOB_LISTS = {
    "solve-q": (_solve_q, _signed([(3, 1, 2)]), 1),
    "ladder-qi": (_ladder_qi, _signed([(2, 3)]), 1),
    "witness-q": (_witness_q, _signed([(1, 2, 3)]), 1),
    "small-batch": (_small_job, _distinct(120, 6), 120),
}
WORKLOADS = tuple(_JOB_LISTS)


def generate(workload, seed):
    """The job list of a workload as batches; equal (workload, seed) give equal lists."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    make_job, draw, per_batch = _JOB_LISTS[workload]
    jobs = [make_job(rng, index, coeffs) for index, coeffs in enumerate(draw(rng))]
    return [jobs[i:i + per_batch] for i in range(0, len(jobs), per_batch)]
