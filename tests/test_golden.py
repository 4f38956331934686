"""The golden corpus reproduces: for every case of tests/golden.py the
axiom ids, verdicts and witnesses of a check, or the type, message and
witness of a failed precondition, equal the recorded ones.

Two differences from the recorded corpus are expected, and docs/format.md
lists them:

- Identities that were once checked as products of whole matrices report a
  basis-tuple witness (index tuple, lhs, rhs) where they reported a matrix
  entry ((i, j), a_ij, b_ij).  Their verdicts, and the exception types and
  messages of the preconditions among them, are unchanged.
- In a failing report, counit_right/counit_left and antipode_left/
  antipode_right come in the order of a passing report; the order used to
  follow whichever failed first.
"""

import json

import pytest

import golden

RESHAPED = ("T_", "R_", "companion_exchange", "rep_alpha_equivariance",
            "rep_beta_equivariance", "rep_bracket_equation")
RESHAPED_PRECONDITIONS = {
    "helper_identity_witness": None,
    "lift_twisting_map": ("P fails the classical left twisting equation",
                          "P fails the classical right twisting equation",
                          "P does not intertwine the alphas",
                          "P does not intertwine the betas"),
}
FIXED_ORDER = (("counit_right", "counit_left"), ("antipode_left", "antipode_right"))


def _recorded():
    with open(golden.CORPUS, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


RECORDED = _recorded()
FUNCTIONS = sorted({c["fn"] for c in RECORDED})


def _short(axiom):
    return axiom.split(":")[-1]


def _form(witness):
    """Only the failure, for a witness whose form changed."""
    return None if witness is None else "witness"


def _entries(entries):
    out = [[a, ok, _form(w) if _short(a).startswith(RESHAPED) else w] for a, ok, w in entries]
    for pair in FIXED_ORDER:
        spots = [i for i, e in enumerate(out) if _short(e[0]) in pair]
        ranked = sorted((out[i] for i in spots), key=lambda e: pair.index(_short(e[0])))
        for i, e in zip(spots, ranked):
            out[i] = e
    return out


def comparable(case):
    """The case with the two expected differences taken out."""
    case = dict(case)
    if "report" in case:
        case["report"] = _entries(case["report"])
    reshaped = RESHAPED_PRECONDITIONS.get(case["fn"], ())
    if reshaped is None:
        case["value"] = _form(case.get("value"))
    elif case.get("message") in reshaped:
        case["witness"] = _form(case["witness"])
    return case


def test_same_cases_in_the_same_order():
    assert [c["id"] for c in golden.build()] == [c["id"] for c in RECORDED]


@pytest.mark.parametrize("fn", FUNCTIONS)
def test_cases_reproduce(fn):
    expected = {c["id"]: comparable(c) for c in RECORDED if c["fn"] == fn}
    got = {c["id"]: comparable(c) for c in golden.build() if c["fn"] == fn}
    assert got.keys() == expected.keys()
    differ = [cid for cid in expected if got[cid] != expected[cid]]
    assert not differ, f"{len(differ)} of {len(expected)} cases differ, first {differ[0]}: " \
        f"got {got[differ[0]]} expected {expected[differ[0]]}"
