"""Every check can fail: over the corruption cases of the golden corpus,
each axiom a check_* function emits fails at least once, with a witness
whose two sides differ."""

from collections import defaultdict

import pytest

import golden

# Axioms no single-entry corruption can make fail, and why; an axiom that
# cannot fail checks nothing, so this stays empty.
CANNOT_FAIL = {}


def _coverage():
    emitted = defaultdict(list)
    failed = defaultdict(set)
    for case in golden.build():
        if not case["fn"].startswith("check_"):
            continue
        for axiom, passed, witness in case.get("report", []):
            if axiom not in emitted[case["fn"]]:
                emitted[case["fn"]].append(axiom)
            if not passed and witness[1] != witness[2]:
                failed[case["fn"]].add(axiom)
    return emitted, failed


EMITTED, FAILED = _coverage()


@pytest.mark.parametrize("fn", sorted(EMITTED))
def test_every_axiom_fails_on_some_corruption(fn):
    never = [a for a in EMITTED[fn] if a not in FAILED[fn] and (fn, a) not in CANNOT_FAIL]
    assert not never, f"{fn}: no corruption makes {never} fail"


def test_unfailable_axioms_are_still_checked():
    for fn, axiom in CANNOT_FAIL:
        assert axiom in EMITTED[fn]
        assert axiom not in FAILED[fn]


def test_base_cases_pass():
    bases = [c for c in golden.build() if c["fn"].startswith("check_") and c["id"].count(":") == 1]
    assert bases
    for case in bases:
        assert all(passed for _, passed, _ in case["report"]), case["id"]
