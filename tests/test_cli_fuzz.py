"""Seeded fuzz of the command line, run in process through cli.run.

Every subcommand gets argvs whose expressions mix grammar tokens with huge
exponents, non-ASCII digits, deep parentheses and 'i' under field Q, next
to bad --vars and negative or huge --max-degree and --samples.  Each run
must end with a documented exit code, no traceback, and within a time
bound; an expression with a non-ASCII digit is always a usage error.
"""

import random
import time

from fischerlab.cli import run

_NON_ASCII_DIGITS = ("\u00b2", "\u0663", "\u0661/\u0662")
_SOUP = ("x", "y", "i", "1", "3/2", "+", "-", "*", "^2", "(", ")", " ", "^3000000", "$",
         *_NON_ASCII_DIGITS)
_QUADRICS = ("x^2+y^2-1", "1/4*x^2+y^2-1", "x^2-y^2-1", "x*y-1")
_SCALARS = ("0", "1", "-2", "3/2", "1+i", "(2-i)^2", "i")
_FORMS = ("x^2+y^2", "x*y", "x^3", "x+i*y")
_BAD_VARS = ("x,x", "i", "2x", "x,,y", "x", "x,y,z")
_BAD_DEGREES = ("-1", "99999999", "1" + "0" * 30, "two")
_BAD_SAMPLES = ("-3", "0", "10001", "1" + "0" * 12)
_BOUND_S = 2.0


def _pick(rng, good, bad):
    # mostly a good value, so that many runs get as far as the computation
    return rng.choice(bad if rng.random() < 0.15 else good)


def _polynomial(rng):
    # one to three small terms in x, y and sometimes i
    text = ""
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(("1", "2", "3/2"))]
        factors += [f"{rng.choice('xxxyyyi')}^{rng.randint(0, 3)}" for _ in range(rng.randint(0, 2))]
        text += rng.choice("+-") + "*".join(factors)
    return text


def _expression(rng):
    roll = rng.random()
    if roll < 0.06:
        depth = rng.choice((50, 100, 101, 3000))
        return "(" * depth + rng.choice(("x", "y", "2", "\u00b2")) + ")" * depth
    if roll < 0.16:
        base = rng.choice(("x", "y", "(x+y)", "2", "i"))
        return base + "^" + rng.choice(("3000000", "1000000", "\u00b2", "\u0663"))
    if roll < 0.22:
        return _polynomial(rng) + rng.choice(_NON_ASCII_DIGITS)
    if roll < 0.3:
        return "".join(rng.choices(_SOUP, k=rng.randint(1, 6)))
    return _polynomial(rng)


def _argv(rng, command):
    """A random argv for command and the text of its expression arguments."""
    # expressions are passed as --opt=TEXT, so that a leading minus is no option
    degree = ["--max-degree", _pick(rng, ("0", "1", "2", "3"), _BAD_DEGREES)]
    if command == "khavinson":
        phi = ",".join(_expression(rng) if rng.random() < 0.3 else rng.choice(_SCALARS)
                       for _ in range(rng.randint(2, 3)))
        return [command, f"--phi={phi}", *degree, *_pick(rng, ([],), (["--field", "Q"],))], phi
    vars_ = ["--vars", _pick(rng, ("x,y",), _BAD_VARS)]
    if command == "fischer-theorem":
        p = rng.choice((rng.choice(_FORMS), _expression(rng), "x^3000000"))
        return [command, f"--p={p}", *vars_, *degree], p
    psi = rng.choice(_QUADRICS) if rng.random() < 0.6 else _expression(rng)
    if command == "rank-profile":
        return [command, f"--psi={psi}", *vars_, *degree, *rng.choice(([], ["--mode", "homogeneous"]))], psi
    interior = ["--interior", _pick(rng, ("0,0",), ("0,0,0", "nan,0", "1e308,0"))]
    if command == "ks-residual":
        return [command, f"--psi={psi}", *vars_, *interior], psi
    f = _expression(rng)
    argv = [command, f"--psi={psi}", f"--f={f}", *vars_, "--slack", _pick(rng, ("0", "2"), ("-1",))]
    if command == "dirichlet":
        argv += [*interior, "--samples", _pick(rng, ("1", "5"), _BAD_SAMPLES)]
    return argv, psi + f


def test_cli_fuzz_fails_closed_and_quickly(capsys):
    rng = random.Random(20)
    commands = ("decompose", "rank-profile", "dirichlet", "fischer-theorem", "khavinson",
                "ks-residual")
    codes = set()
    for case in range(600):
        argv, texts = _argv(rng, commands[case % len(commands)])
        argv += ["--format", _pick(rng, ("json", "text"), ("csv",)), "--seed", str(case)]
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        assert elapsed < _BOUND_S, (argv, elapsed)
        if any(digit in texts for digit in "\u00b2\u0663\u0661\u0662"):
            assert code == 2 and "invalid literal" not in err, (argv, err)
        codes.add(code)
    assert codes == {0, 1, 2, 3}
