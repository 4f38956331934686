"""The solver corpus reproduces exactly: for every case of
tests/solver_corpus.py the value, None result, or exception type, message
and witness equals the recorded one."""

import json

import pytest

import solver_corpus


def _recorded():
    with open(solver_corpus.CORPUS, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


RECORDED = _recorded()
FUNCTIONS = sorted({c["fn"] for c in RECORDED})


def test_same_cases_in_the_same_order():
    assert [c["id"] for c in solver_corpus.build()] == [c["id"] for c in RECORDED]


@pytest.mark.parametrize("fn", FUNCTIONS)
def test_cases_reproduce(fn):
    expected = {c["id"]: c for c in RECORDED if c["fn"] == fn}
    got = {c["id"]: c for c in solver_corpus.build() if c["fn"] == fn}
    assert got.keys() == expected.keys()
    differ = [cid for cid in expected if got[cid] != expected[cid]]
    assert not differ, f"{len(differ)} of {len(expected)} cases differ, first {differ[0]}: " \
        f"got {got[differ[0]]} expected {expected[differ[0]]}"
