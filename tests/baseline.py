"""The baseline rows of ROADMAP.md, timed in process.

    PYTHONPATH=src python tests/baseline.py [--rounds 4] [--only TEXT]

runs every row once per round, the rows in turn, and prints per row the
minimum CPU time (time.process_time) over the rounds, in seconds, then the
row's label as the ROADMAP table has it.  --only keeps the rows whose label
contains TEXT.  The dirichlet_solve rows time the solve only, not
verify_solution; the `dirichlet` command row times the whole command through
cli.run, parsing, solve, boundary check and json report.  The rows labelled
"guard" insert seeded matrices that no command builds straight into the
exact kernel (_kernels.rref_q / rref_qi), so that a change tuned to the
operator slices shows what it costs elsewhere.  Each row checks its own
outcome (a guard row, its rank), so a row that stops computing what it
names fails instead of getting faster.  Compare only runs
made on one machine in one session, parent and change in alternation: on a
shared machine a row moves by up to 2x between sessions.  pytest does not
collect this module; test_corpus runs one of its rows.
"""

import argparse
import contextlib
import io
import random
import time
from fractions import Fraction

from fischerlab import (
    GAUSSIAN_I,
    HOMOGENEOUS,
    NoDecompositionFoundError,
    QuadricDomain,
    cli,
    dirichlet_solve,
    fischer_decompose,
    khavinson_psi,
    parse_polynomial,
    rank_profile,
    verify_solution,
)
from fischerlab import _kernels

XYZ = ("x", "y", "z")


def _poly(text):
    return parse_polynomial(text, XYZ)


def _ladder(phi, n, slack):
    def run():
        assert rank_profile(khavinson_psi(phi), n, slack=slack).all_surjective()
    return run


def _arity_one_ladder(n):
    psi = parse_polynomial("x^2-1", ("x",))

    def run():
        assert rank_profile(psi, n).all_surjective()
    return run


def _dirichlet(e):
    domain = QuadricDomain.ellipsoid([Fraction(3, 2), 1, Fraction(5, 3)])
    f = _poly(f"(x+y*z+1)^{e}")
    return lambda: dirichlet_solve(domain, f)


def _verify(e):
    solution = _dirichlet(e)()

    def run():
        assert verify_solution(solution, rng=random.Random(0)).passed
    return run


def _dirichlet_command(f):
    argv = ["dirichlet", "--psi", "4/9*x^2+y^2+9/25*z^2-1", "--f", f,
            "--vars", "x,y,z", "--interior", "0,0,0", "--format", "json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        assert code == 0 and '"passed": true' in out.getvalue()
    return run


def _decompose(psi, f, found=True):
    psi, f = _poly(psi), _poly(f)

    def run():
        try:
            assert fischer_decompose(psi, f).verify() and found
        except NoDecompositionFoundError:
            assert not found
    return run


def _witness(n):
    psi = _poly("x^3+2*y^3+3*z^3")
    return lambda: rank_profile(psi, n, mode=HOMOGENEOUS)


def _guard(kernel, vectors, rank):
    def run():
        assert len(kernel(vectors, {})) == rank
    return run


def _random_rows(seed, rows, cols, density, entry):
    rng = random.Random(seed)
    return [{key: entry(rng) for key in range(cols) if rng.random() < density}
            for _ in range(rows)]


def _nonzero(rng):
    return rng.choice((-1, 1)) * rng.randint(1, 99)


def _nonzero_pair(rng):
    return _nonzero(rng), rng.randint(-99, 99)


def _unit_lead_chain(seed, n, bits):
    # rows {i: 1, i+1: X_i} and a vector with an entry at every key: it
    # reduces through all n rows with multiplier 1, its entry at the next key
    # growing by X_i at each step, and stays outside their span
    rng = random.Random(seed)
    rows = [{i: 1, i + 1: rng.randrange(1 << (bits - 1), 1 << bits)} for i in range(n)]
    return rows + [dict.fromkeys(range(n + 1), 1)]


ROWS = (
    ("ladder phi = z^2, n = 4, slack 10 (the tier-1 acceptance case)", _ladder([0, 0, 1], 4, 10)),
    ("ladder phi = z^2, n = 8, slack 18", _ladder([0, 0, 1], 8, 18)),
    ("ladder phi = 1,1,1, n = 5, slack 12", _ladder([1, 1, 1], 5, 12)),
    ("ladder phi = 1,1,1, n = 6, slack 14", _ladder([1, 1, 1], 6, 14)),
    ("ladder phi = 0,0,2+3i, n = 3, slack 8 (the ladder-qi job)",
     _ladder([0, 0, 2 + 3 * GAUSSIAN_I], 3, 8)),
    ("ladder psi = x^2-1, arity 1, max degree 2000", _arity_one_ladder(2000)),
    ("ladder psi = x^2-1, arity 1, max degree 4000", _arity_one_ladder(4000)),
    ("`dirichlet_solve`, ellipsoid (3/2, 1, 5/3), f = (x+yz+1)^10", _dirichlet(10)),
    ("the same, e = 12", _dirichlet(12)),
    ("the same, e = 14", _dirichlet(14)),
    ("the `dirichlet` command, same ellipsoid, e = 14, json report (`cli.run`)",
     _dirichlet_command("(x+y*z+1)^14")),
    ("the `dirichlet` command, same ellipsoid, f = (3x+yz+2)^8, json (the solve-q job)",
     _dirichlet_command("(3*x+y*z+2)^8")),
    ("`verify_solution`, same ellipsoid, e = 14", _verify(14)),
    ("`fischer_decompose`, psi = x^2+xy+y^2+z^2-1, f = (x+yz+1)^10",
     _decompose("x^2+x*y+y^2+z^2-1", "(x+y*z+1)^10")),
    ("`fischer_decompose`, psi = x^4+x^2y^2+y^4+z^4+x-1, f = (x+yz+1)^11 (exit 3)",
     _decompose("x^4+x^2*y^2+y^4+z^4+x-1", "(x+y*z+1)^11", found=False)),
    ("`rank_profile`, homogeneous, psi = x^3+2y^3+3z^3, max degree 22", _witness(22)),
    ("guard: random dense 80x80 over Q, entries up to 99, rank 80",
     _guard(_kernels.rref_q, _random_rows(1, 80, 80, 1.0, _nonzero), 80)),
    ("guard: random sparse 150x150 over Q, density 0.1, rank 150",
     _guard(_kernels.rref_q, _random_rows(2, 150, 150, 0.1, _nonzero), 150)),
    ("guard: random dense 60x60 over Qi, parts up to 99, rank 60",
     _guard(_kernels.rref_qi, _random_rows(3, 60, 60, 1.0, _nonzero_pair), 60)),
    ("guard: unit-lead chain {i: 1, i+1: X_i}, n = 600, 60-bit X_i, and a vector of ones, rank 601",
     _guard(_kernels.rref_q, _unit_lead_chain(4, 600, 60), 601)),
)


def timings(rows, rounds):
    """[(label, minimum CPU seconds over the rounds)] of the given rows."""
    best = {label: float("inf") for label, _ in rows}
    for _ in range(rounds):
        for label, run in rows:
            start = time.process_time()
            run()
            best[label] = min(best[label], time.process_time() - start)
    return list(best.items())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--only", default="")
    args = parser.parse_args()
    rows = [row for row in ROWS if args.only in row[0]]
    for label, seconds in timings(rows, args.rounds):
        print(f"{seconds:.4f} s  {label}")


if __name__ == "__main__":
    main()
