"""No float ever enters Q arithmetic.

Q scalars are ints when integral, and ``/`` on two ints gives a float, so
every division goes through ``exactnum.divide``.  Every fixture over Q goes
through every check_* function and through the main constructions; no float
may reach ``QQ.promote`` on the way, and none may sit in a matrix, tensor,
vector or witness of a result.
"""

import dataclasses
import os
from fractions import Fraction

import pytest

from bihom import (
    LeftModule,
    SmashData,
    adjoint_rep,
    canonical_pseudotwistor,
    check_antipode_general,
    check_antipode_properties,
    check_bihom_algebra,
    check_bihom_bialgebra,
    check_bihom_coalgebra,
    check_bihom_lie,
    check_comodule,
    check_left_module,
    check_module_bihom_algebra,
    check_pseudotwistor,
    check_representation,
    check_twisting_map,
    commutator_lie,
    dual_coalgebra,
    example_family,
    find_unit,
    flip_map,
    hopf_to_monoidal,
    module_to_lie_rep,
    smash_product,
    smash_twisting_map,
    solve_antipode_monoidal,
    tensor_product,
    yau_twist,
)
from bihom import fixtures as fx
from bihom.axioms import Term, images
from bihom.coalgebra import regular_comodule
from bihom.errors import BiHomError
from bihom.exactnum import QQ, Field, RationalField
from bihom.io_cli import parse_structure
from bihom.linalg import Matrix, Tensor3

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def load(name):
    with open(os.path.join(FIXDIR, name), encoding="utf-8") as fh:
        return parse_structure(fh.read())[1]


def ident(n):
    return Matrix.identity(QQ, n)


def _bialgebras():
    sw, _, _ = fx.sweedler_hopf()
    return {
        "kc4": fx.cyclic_group_bialgebra(4),
        "kc4t": fx.kc4_twisted_bialgebra(),
        "sweedler": sw,
        "idempotent": fx.idempotent_monoid_bialgebra(),
        "kc4_bialg.json": load("kc4_bialg.json"),
        "sweedler.json": load("sweedler.json"),
    }


def _algebras(bialgebras):
    out = {
        "fam1": example_family(1, 3, 2),
        "fam2": example_family(2, Fraction(1, 2), 3),
        "family1.json": load("family1.json"),
        "kc4_selfmod.json": load("kc4_selfmod.json")[0],
    }
    out.update((name, H.algebra_part()) for name, H in bialgebras.items())
    return out


def _module_algebras(bialgebras):
    selfmod_alg, selfmod_act = load("kc4_selfmod.json")
    kc4 = bialgebras["kc4"]
    return {
        "kc4_self": (kc4, kc4.algebra_part(), fx.cyclic_self_action(4, 3)),
        "kc4_selfmod.json": (bialgebras["kc4_bialg.json"], selfmod_alg, selfmod_act),
    }


def _cases():
    """(id, thunk) for every check and construction on every Q fixture."""
    bialgebras = _bialgebras()
    algebras = _algebras(bialgebras)
    module_algebras = _module_algebras(bialgebras)
    cases = []

    def add(name, thunk):
        cases.append((name, thunk))

    for name, a in algebras.items():
        regular = LeftModule(dim=a.dim, action=a.mu, alphaM=a.alpha, betaM=a.beta)
        add(f"check_bihom_algebra:{name}", lambda a=a: check_bihom_algebra(a))
        add(f"check_left_module:{name}", lambda a=a, m=regular: check_left_module(a, m))
        add(f"check_bihom_lie:{name}", lambda a=a: check_bihom_lie(commutator_lie(a)))
        add(f"check_representation:{name}",
            lambda a=a, m=regular: check_representation(commutator_lie(a),
                                                        module_to_lie_rep(a, m)))
        add(f"check_bihom_coalgebra:dual_{name}",
            lambda a=a: check_bihom_coalgebra(dual_coalgebra(a)))
        add(f"check_pseudotwistor:{name}",
            lambda a=a: check_pseudotwistor(a, canonical_pseudotwistor(a, a.alpha, a.beta)))
        add(f"yau_twist:{name}", lambda a=a: yau_twist(a, a.alpha, a.beta))
        add(f"commutator_lie:{name}", lambda a=a: commutator_lie(a))
        add(f"dual_coalgebra:{name}", lambda a=a: dual_coalgebra(a))
        add(f"find_unit:{name}", lambda a=a: find_unit(a))
    add("tensor_product:fam1xfam2",
        lambda: tensor_product(algebras["fam1"], algebras["fam2"]))
    add("tensor_product:fam2xfamily1.json",
        lambda: tensor_product(algebras["fam2"], algebras["family1.json"]))
    add("check_bihom_algebra:fam1xfam2",
        lambda: check_bihom_algebra(tensor_product(algebras["fam1"], algebras["fam2"])))
    add("check_twisting_map:flip_fam1_fam2",
        lambda: check_twisting_map(algebras["fam1"], algebras["fam2"],
                                   flip_map(algebras["fam1"], algebras["fam2"])))

    sl2 = fx.sl2_lie()
    add("check_bihom_lie:sl2", lambda: check_bihom_lie(sl2))
    add("check_representation:sl2_adjoint", lambda: check_representation(sl2, adjoint_rep(sl2)))
    add("sl2_scaling", lambda: fx.sl2_scaling(Fraction(2, 3)))

    for name, H in bialgebras.items():
        C = H.coalgebra_part()
        add(f"check_bihom_bialgebra:{name}", lambda H=H: check_bihom_bialgebra(H))
        add(f"check_bihom_coalgebra:{name}", lambda C=C: check_bihom_coalgebra(C))
        add(f"check_comodule:{name}", lambda C=C: check_comodule(C, regular_comodule(C)))
        add(f"solve_antipode_monoidal:{name}", lambda H=H: solve_antipode_monoidal(H))

    sw, S, invol = fx.sweedler_hopf()
    add("check_antipode_general:sweedler.json",
        lambda: check_antipode_general(bialgebras["sweedler.json"],
                                       load("sweedler_antipode.json")))
    add("check_antipode_general:kc4",
        lambda: check_antipode_general(bialgebras["kc4"], fx.cyclic_antipode(4)))
    add("check_antipode_properties:sweedler_invol",
        lambda: check_antipode_properties(*hopf_to_monoidal(sw, S, invol, ident(4))))
    add("check_antipode_properties:kc4_g3",
        lambda: check_antipode_properties(*hopf_to_monoidal(
            bialgebras["kc4"], fx.cyclic_antipode(4), load("kc4_g3_map.json"), ident(4))))

    for name, (H, A, act) in module_algebras.items():
        data = SmashData(H=H, A=A, action=act)
        add(f"check_module_bihom_algebra:{name}",
            lambda H=H, A=A, act=act: check_module_bihom_algebra(H, A, act))
        add(f"smash_product:{name}", lambda data=data: smash_product(data))
        add(f"check_twisting_map:smash_{name}",
            lambda A=A, H=H, data=data: check_twisting_map(A, H.algebra_part(),
                                                           smash_twisting_map(data)))
        add(f"check_bihom_algebra:smash_{name}",
            lambda data=data: check_bihom_algebra(smash_product(data)))
    return cases


CASES = _cases()


def _leaves(x, seen):
    """Every scalar-like leaf of a returned value: the entries of matrices,
    tensors and vectors, and whatever structures, reports and map terms
    hold."""
    if id(x) in seen or x is None or isinstance(x, (str, Field)):
        return
    seen.add(id(x))
    if isinstance(x, Matrix):
        yield from (y for row in x.e for y in row)
    elif isinstance(x, Tensor3):
        yield from (y for plane in x.t for vec in plane for y in vec)
    elif isinstance(x, Term):
        yield from _leaves(images(x), seen)
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _leaves(y, seen)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _leaves(getattr(x, f.name), seen)
    elif type(x).__module__.startswith("bihom."):
        for name in getattr(x, "__dict__", {}):
            yield from _leaves(getattr(x, name), seen)
    else:
        yield x


@pytest.fixture
def promoted(monkeypatch):
    """The floats handed to QQ.promote while the test runs."""
    floats = []
    original = RationalField.promote

    def spy(self, x):
        if isinstance(x, float):
            floats.append(x)
        return original(self, x)

    monkeypatch.setattr(RationalField, "promote", spy)
    return floats


@pytest.mark.parametrize("case", CASES, ids=[name for name, _ in CASES])
def test_no_float_reaches_q(case, promoted):
    _, thunk = case
    try:
        value = thunk()
    except BiHomError as exc:  # a failed hypothesis is a result too
        value = (getattr(exc, "witness", None), getattr(exc, "report", None))
    assert promoted == []
    leaves = list(_leaves(value, set()))
    floats = [x for x in leaves if isinstance(x, float)]
    assert floats == []


def test_the_cases_build_q_values():
    """The guard is not vacuous: the constructions return int and Fraction
    entries."""
    kinds = set()
    for name, thunk in CASES:
        if name.startswith(("yau_twist:fam2", "smash_product:kc4_self", "sl2_scaling")):
            kinds.update(type(x) for x in _leaves(thunk(), set()))
    assert {int, Fraction} <= kinds
