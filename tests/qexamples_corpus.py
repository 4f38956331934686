"""The U_q(sl2) corpus: what the symbolic quantum-group layer computes on a
fixed set of small inputs, so that a rewrite of ``bihom.qexamples`` can be
shown to keep every value.

Each case calls one function and records its ``repr``, or for the smash
totals and reports the (key, coefficient) pairs with coefficients through
``QQ_Q.format``; a raised exception is recorded by type and message:

- ``uq_normalize`` under both strategies and ``straighten_oracle`` on every
  generator word of length at most 4;
- ``uq_multiply`` on PBW monomials F^a K^b E^c in a small box, and a
  generator scaling on the same monomials;
- quantum-plane products, differences and substitutions, and elements
  built from int coefficients (the plane is not truncated, so no product
  or sum raises);
- ``classical_action``, ``twisted_action`` and ``qplane_action`` on
  x^m y^n with m, n < 3;
- ``smash_multiply_left_generator`` and ``smash_formula_rhs`` on the 2^4
  grid with G in {1, E, F, K}, and ``verify_smash_formulas`` there.

The data file is frozen; to see what the code records now, write the cases
to another file and compare the two:

    PYTHONPATH=src python tests/qexamples_corpus.py qexamples_now.json

The script refuses to overwrite ``tests/data/qexamples_corpus.json``, which
``tests/test_qexamples.py::test_corpus_reproduces`` compares against.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from fractions import Fraction

from bihom.exactnum import QQ_Q, RationalFunction as RF
from bihom.qexamples import (
    GENERATORS,
    PBWElement,
    QPElement,
    TwistParams,
    classical_action,
    qp_twisted_mul,
    qplane_action,
    smash_formula_rhs,
    smash_multiply_left_generator,
    straighten_oracle,
    twisted_action,
    uq_multiply,
    uq_normalize,
    uq_twist_endomorphism,
    verify_smash_formulas,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "data", "qexamples_corpus.json")

TWISTS = {
    "rational": TwistParams.of(2, 3, 5, 7, Fraction(1, 2)),
    "q": TwistParams.of(RF.q_power(1), 3, RF.q_power(-2), 7, RF.q_power(1) + 1),
}
GS = {"1": PBWElement.one(), "E": PBWElement.generator("E"),
      "F": PBWElement.generator("F"), "K": PBWElement.generator("K")}
BOX = [PBWElement.monomial(a, b, c) for a, b, c in itertools.product((0, 1), (-1, 0, 1), (0, 1))]


def pairs(total):
    """The sorted (key, coefficient) pairs of a smash total."""
    return [[repr(k), QQ_Q.format(c)] for k, c in sorted(total.items())]


def report(rep):
    return [[e.axiom, e.passed, None if e.witness is None else repr(e.witness)]
            for e in rep.entries]


def record(case_id, thunk, encode=repr):
    try:
        return {"id": case_id, "value": encode(thunk())}
    except Exception as exc:  # the exception type is part of the record
        return {"id": case_id, "raises": type(exc).__name__, "message": str(exc)}


def _words(out):
    for n in range(5):
        for w in itertools.product(GENERATORS, repeat=n):
            name = ".".join(w) or "1"
            out.append(record(f"normalize:leftmost:{name}", lambda: uq_normalize(w)))
            out.append(record(f"normalize:rightmost:{name}",
                              lambda: uq_normalize(w, "rightmost")))
            out.append(record(f"oracle:{name}", lambda: straighten_oracle(w)))


def _products(out):
    scalings = [uq_twist_endomorphism(t) for t in (3, RF.q_power(1) - 2)]
    for x in BOX:
        for y in BOX:
            out.append(record(f"multiply:{x!r}:{y!r}", lambda: uq_multiply(x, y)))
        for i, scaling in enumerate(scalings):
            out.append(record(f"scaling{i}:{x!r}", lambda: scaling(x)))
    plane = [QPElement.monomial(m, n, RF.q_power(m - n) + m) for m in range(3) for n in range(3)]
    for P, Q in itertools.product(plane, repeat=2):
        out.append(record(f"qplane:mul:{P!r}:{Q!r}", lambda: P * Q))
        out.append(record(f"qplane:sub:{P!r}:{Q!r}", lambda: (P + Q) - P.scale(RF.q_power(2))))
        out.append(record(f"qplane:twisted_mul:{P!r}:{Q!r}",
                          lambda: qp_twisted_mul(P, Q, TWISTS["q"])))
    for P in plane:
        out.append(record(f"qplane:substitute:{P!r}",
                          lambda: P.substitute(RF.q_power(1), Fraction(2, 3))))
    out.append(record("int_coefficients", lambda: [
        PBWElement({(0, 0, 0): 3, (1, 0, 0): 0}), PBWElement.monomial(1, 0, 0, 4) + GS["1"],
        QPElement({(1, 0): 2, (0, 1): 0}), QPElement.monomial(1, 1, 5) - QPElement.one()]))


def _actions(out):
    hs = [PBWElement.generator(g) for g in GENERATORS]
    hs += [uq_normalize(w) for w in (("E", "F"), ("F", "K", "E"), ("Kinv", "E", "E"))]
    for m, n in itertools.product(range(3), repeat=2):
        P = QPElement.monomial(m, n)
        for h in hs:
            out.append(record(f"classical:{h!r}:{m},{n}", lambda: classical_action(h, P)))
            for name, tp in TWISTS.items():
                out.append(record(f"twisted:{name}:{h!r}:{m},{n}",
                                  lambda: twisted_action(h, P, tp)))
        for g in GENERATORS:
            for name, tp in TWISTS.items():
                out.append(record(f"qplane_action:{name}:{g}:{m},{n}",
                                  lambda: qplane_action(g, P, tp)))
    out.append(record("qplane_action:unknown", lambda: qplane_action("X", P, TWISTS["q"])))


def _smash(out):
    """Totals under the q-dependent twist; reports under both."""
    for m, n, r, s in itertools.product(range(2), repeat=4):
        for gname, G in GS.items():
            for gen in GENERATORS:
                at, tp = f"{m}{n}{r}{s}:{gen}:{gname}", TWISTS["q"]
                out.append(record(f"smash_lhs:{at}", lambda: (
                    smash_multiply_left_generator(gen, m, n, r, s, G, tp)), pairs))
                out.append(record(f"smash_rhs:{at}", lambda: (
                    smash_formula_rhs(gen, m, n, r, s, G, tp)), pairs))
            for name, tp in TWISTS.items():
                out.append(record(f"smash_verify:{name}:{m}{n}{r}{s}:{gname}", lambda: (
                    verify_smash_formulas(m, n, r, s, G, tp)), report))
    out.append(record("smash_rhs:unknown", lambda: (
        smash_formula_rhs("X", 0, 0, 0, 0, GS["1"], TWISTS["q"])), pairs))


@functools.lru_cache(maxsize=None)
def build():
    """Every case, in a fixed order, as JSON-ready records."""
    out = []
    _words(out)
    _products(out)
    _actions(out)
    _smash(out)
    return out


def dump(records):
    return json.dumps({"cases": records}, indent=0, sort_keys=True) + "\n"


if __name__ == "__main__":
    import sys

    from golden import write_corpus

    write_corpus(sys.argv[1:], CORPUS, build(), dump)
