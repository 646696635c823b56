"""The same-bytes corpus of tests/cli_corpus.py, run in process.

Three of its parts are pinned: the sha256 of the lines cli_corpus.py prints
for a part, e.g. the first 600 of its output for the fuzz part.  The fourth
part, built from tests/test_cli.py's constants, grows with that file and is
not pinned.  A change that alters a report on purpose updates the pin and
names the argvs whose output changed.
"""

import hashlib

import baseline
import cli_corpus
import cli_reach

PINNED = {
    "fuzz": "d1f4051d531390f46ef62566a4b6de8e4802a466ce0c8d237edf92a3d077a1a0",
    "workloads": "eab11bc9621fd6cafbbb540ba84dfe5b80c493e8220dafa61ec54a5089830ead",
    "decompose": "bbca06280036b7ae27a0ad460891fced65c6721361bb4e9658f1f5ec7ae453a7",
}


def test_the_corpus_parts_keep_their_pinned_bytes():
    parts = cli_corpus.parts()
    assert [len(parts[name]) for name in PINNED] == [600, 123, 144]
    found = {name: hashlib.sha256("".join(cli_corpus.line(argv) + "\n" for argv in parts[name])
                                  .encode()).hexdigest() for name in PINNED}
    assert found == PINNED


def test_the_reach_audit_lists_what_its_argvs_skip():
    argvs = [["rank-profile", "--psi=x^2-y^2-1", "--vars", "x,y", "--max-degree", "2"],
             ["decompose", "--psi=x^2+y^2-1", "--f=x^3*y", "--vars", "x,y"]]
    missed = {qualname for _, _, qualname in cli_reach.unreached(argvs)}
    assert "QuadricDomain.ellipsoid" in missed
    assert "operator_matrix" not in missed


def test_the_baseline_script_times_a_row():
    label, run = baseline.ROWS[0]
    assert "tier-1" in label
    [(timed, seconds)] = baseline.timings([(label, run)], rounds=1)
    assert timed == label and seconds > 0
