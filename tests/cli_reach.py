"""The reach of the same-bytes corpus into fischerlab.

    PYTHONPATH=src python tests/cli_reach.py

runs every argv of tests/cli_corpus.py in process under sys.setprofile and
prints each function of src/fischerlab that no argv enters, one per line
as file:line qualname, in file order.  A function listed here is an error
path the corpus does not trigger, library surface that no command calls,
or code that nothing uses.  Comprehensions and class bodies are not
listed: they are not functions of the source.  pytest does not collect
this module; test_corpus checks it on a two-argv corpus.
"""

import os
import sys
from inspect import CO_NEWLOCALS
from types import CodeType

import cli_corpus

_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def _functions(code):
    # code's functions and theirs, in source order
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_NEWLOCALS and const.co_name not in _COMPREHENSIONS:
                yield const
            yield from _functions(const)


def unreached(argvs):
    """[(file, line, qualname)] of each function of src/fischerlab that no
    argv's in-process cli.run enters, in file order."""
    # imported before the profile is set: a call made at import is no argv's
    from fischerlab import cli

    entered = {}  # keyed by id, so that no code object is hashed per call

    def profile(frame, event, arg):
        if event == "call":
            entered[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in argvs:
            cli_corpus.digest(argv)
    finally:
        sys.setprofile(previous)
    # a function compiled again from its file equals the one imported; two
    # lambdas on one line differ
    entered = {(code.co_filename, code) for code in entered.values()}
    package, missed = os.path.dirname(cli.__file__), []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as handle:
                module = compile(handle.read(), path, "exec", dont_inherit=True)
            missed += [(name, code.co_firstlineno, code.co_qualname) for code in _functions(module)
                       if (path, code) not in entered]
    return missed


def main():
    for name, line, qualname in unreached(cli_corpus.corpus()):
        print(f"{name}:{line} {qualname}")


if __name__ == "__main__":
    main()
