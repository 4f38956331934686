"""The bijectivity preconditions of the constructions, by their exact
messages, the smash product's hypothesis that H is a BiHom-bialgebra, the
monoidal test of the antipode solver, and the (co)units that twists and
duals carry or drop.

Each case breaks one structure map of k[C_4] (acting on itself by
g^i . g^j = g^(3^i j)) with a diagonal 0/1 matrix of known rank, over Q
and over F_7, and pins the full ``str`` of the Singular raised; the Lie
representations break a map of L(k[C_4]), of its adjoint representation or
of k[C_4] as a module over itself.
"""


import pytest

from bihom.algebra_core import LeftModule, endomorphism_algebra, untwist
from bihom.bialgebra import (
    check_bihom_bialgebra,
    check_module_bihom_algebra,
    is_monoidal,
    primitive_bracket,
    solve_antipode_monoidal,
)
from bihom.coalgebra import yau_twist_coalgebra
from bihom.errors import HypothesisFailure, Singular
from bihom.exactnum import QQ, PrimeField
from bihom.fixtures import cyclic_group_bialgebra, cyclic_power_map, cyclic_self_action
from bihom.io_cli import main, serialize_structure
from bihom.lie import adjoint_rep, commutator_lie, module_to_lie_rep, semidirect_product
from bihom.linalg import Matrix
from bihom.smash import (
    SmashData,
    dual_module_algebra,
    smash_comodule_structure,
    smash_product,
    smash_twisting_map,
)
from bihom.twisting import check_twisting_map, flip_map, helper_identity_witness, ttp_pseudotwistor
from helpers import non_bialgebra_action

FIELDS = [QQ, PrimeField(7)]


def kc4(field):
    H = cyclic_group_bialgebra(4, field)
    return H, H.algebra_part(), cyclic_self_action(4, 3, field)


def rank(field, r):
    """The 4 x 4 diagonal matrix with r ones, then zeros."""
    return Matrix.diagonal(field, [field.one()] * r + [field.zero()] * (4 - r))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_module_compatibility_needs_bijective_maps(field):
    H, A, act = kc4(field)
    with pytest.raises(Singular) as exc:
        check_module_bihom_algebra(H.replace(alpha=rank(field, 1)), A, act)
    assert str(exc.value) == "module compatibility needs bijective maps: matrix has rank 1 < 4"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_dual_module_algebra_needs_bijective_maps(field):
    H = cyclic_group_bialgebra(4, field)
    with pytest.raises(Singular) as exc:
        dual_module_algebra(H.replace(alpha=rank(field, 1)))
    assert str(exc.value) == "dual module algebra needs bijective maps: matrix has rank 1 < 4"


TWISTING_MAPS = [("A", "alpha", 1), ("A", "beta", 2), ("B", "alpha", 3), ("B", "beta", 2)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("part, attr, r", TWISTING_MAPS,
                         ids=[f"{p}.{a}" for p, a, _ in TWISTING_MAPS])
@pytest.mark.parametrize("build, what", [
    (check_twisting_map, "twisting maps need"),
    (helper_identity_witness, "helper identity needs"),
    (ttp_pseudotwistor, "twisted tensor pseudotwistor needs"),
], ids=["check_twisting_map", "helper_identity_witness", "ttp_pseudotwistor"])
def test_twisting_map_needs_bijective_structure_maps(field, build, what, part, attr, r):
    _, A, _ = kc4(field)
    parts = {"A": A, "B": A}
    parts[part] = A.replace(**{attr: rank(field, r)})
    with pytest.raises(Singular) as exc:
        build(parts["A"], parts["B"], flip_map(parts["A"], parts["B"]))
    assert str(exc.value) == f"{what} bijective structure maps: matrix has rank {r} < 4"


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("singular", ["u", "v"])
def test_endomorphism_algebra_needs_invertible_u_and_v(field, singular):
    maps = {"u": Matrix.identity(field, 4), "v": Matrix.identity(field, 4)}
    maps[singular] = rank(field, 2)
    with pytest.raises(Singular) as exc:
        endomorphism_algebra(maps["u"], maps["v"])
    assert str(exc.value) == "endomorphism algebra needs invertible u and v: matrix has rank 2 < 4"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_primitive_bracket_needs_bijective_alpha_and_beta(field):
    H = cyclic_group_bialgebra(4, field)
    zero = [field.zero()] * 4  # over k[C_4] only 0 is primitive
    with pytest.raises(Singular) as exc:
        primitive_bracket(H.replace(alpha=rank(field, 1)), zero, zero)
    assert str(exc.value) == ("primitive bracket needs bijective alpha and beta: "
                              "matrix has rank 1 < 4")


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("attr", ["alpha", "beta"])
@pytest.mark.parametrize("build, what", [(untwist, "untwisting"),
                                         (commutator_lie, "commutator bracket")],
                         ids=["untwist", "commutator_lie"])
def test_untwist_and_commutator_lie_need_bijective_alpha_and_beta(field, attr, build, what):
    _, A, _ = kc4(field)
    with pytest.raises(Singular) as exc:
        build(A.replace(**{attr: rank(field, 2)}))
    assert str(exc.value) == f"{what} needs bijective alpha and beta: matrix has rank 2 < 4"


def _adjoint(A, attr, map_):
    L = commutator_lie(A)
    adjoint_rep(L.replace(**{attr: map_}))


def _module(A, attr, map_):
    mod = LeftModule(dim=A.dim, action=A.mu, alphaM=A.alpha, betaM=A.beta)
    module_to_lie_rep(A.replace(**{attr: map_}), mod)


def _semidirect(A, attr, map_):
    L = commutator_lie(A)
    rep = adjoint_rep(L)
    if attr == "alpha":
        semidirect_product(L.replace(alpha=map_), rep)
    else:
        semidirect_product(L, rep.replace(betaM=map_))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("build, attr, what", [
    (_adjoint, "alpha", "adjoint representation needs bijective alpha and beta"),
    (_adjoint, "beta", "adjoint representation needs bijective alpha and beta"),
    (_module, "alpha", "module representation needs bijective alpha and beta"),
    (_module, "beta", "module representation needs bijective alpha and beta"),
    (_semidirect, "alpha", "semidirect product needs bijective alpha and beta_M"),
    (_semidirect, "betaM", "semidirect product needs bijective alpha and beta_M"),
], ids=["adjoint_rep-alpha", "adjoint_rep-beta", "module_to_lie_rep-alpha",
        "module_to_lie_rep-beta", "semidirect_product-alpha", "semidirect_product-betaM"])
def test_lie_representations_need_bijective_maps(field, build, attr, what):
    _, A, _ = kc4(field)
    with pytest.raises(Singular) as exc:
        build(A, attr, rank(field, 2))
    assert str(exc.value) == f"{what}: matrix has rank 2 < 4"


SMASH_MAPS = [
    ("alpha_H", "H", "alpha", 0),
    ("beta_H", "H", "beta", 1),
    ("psi_H", "H", "psi", 2),
    ("omega_H", "H", "omega", 3),
    ("alpha_A", "A", "alpha", 1),
    ("beta_A", "A", "beta", 3),
]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name, part, attr, r", SMASH_MAPS, ids=[m[0] for m in SMASH_MAPS])
def test_smash_data_names_each_singular_map(field, name, part, attr, r):
    H, A, act = kc4(field)
    parts = {"H": H, "A": A}
    parts[part] = parts[part].replace(**{attr: rank(field, r)})
    with pytest.raises(Singular) as exc:
        SmashData(H=parts["H"], A=parts["A"], action=act).validate()
    assert str(exc.value) == f"{name} must be invertible: matrix has rank {r} < 4"


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name, part, attr, r", [SMASH_MAPS[5], SMASH_MAPS[2]],
                         ids=["beta_A", "psi_H"])
@pytest.mark.parametrize("build", [smash_twisting_map, smash_product])
def test_validated_smash_data_names_its_singular_map(field, build, name, part, attr, r):
    """Data marked validated skips validate, so the twisting map R_{m,n,p}
    names the two maps it inverts itself."""
    H, A, act = kc4(field)
    parts = {"H": H, "A": A}
    parts[part] = parts[part].replace(**{attr: rank(field, r)})
    with pytest.raises(Singular) as exc:
        build(SmashData(H=parts["H"], A=parts["A"], action=act, _validated=True))
    assert str(exc.value) == ("smash twisting map needs bijective beta_A and psi_H: "
                              f"matrix has rank {r} < 4")


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name, attr, exponent", [
    ("alpha_H", "alpha", "m"), ("beta_H", "beta", "n"), ("omega_H", "omega", "p")])
def test_a_negative_exponent_names_the_singular_map_it_inverts(field, name, attr, exponent):
    """R_{m,n,p} with m = n = p = -1 on data marked validated inverts
    alpha_H, beta_H and omega_H itself."""
    H, A, act = kc4(field)
    S = SmashData(H.replace(**{attr: rank(field, 1)}), A, act, -1, -1, -1, _validated=True)
    with pytest.raises(Singular) as exc:
        smash_twisting_map(S)
    assert str(exc.value) == (f"smash twisting map needs bijective {name} for {exponent} = -1: "
                              "matrix has rank 1 < 4")
    assert smash_twisting_map(S.replace(**{exponent: 1})).dimA == 4


MONOIDAL = "antipode solving requires a monoidal bialgebra"


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("attr", ["alpha", "beta"])
def test_a_singular_alpha_or_beta_is_not_monoidal(field, attr):
    H = cyclic_group_bialgebra(4, field)
    assert is_monoidal(H)
    singular = H.replace(**{attr: rank(field, 1)})
    assert is_monoidal(singular) is False
    with pytest.raises(HypothesisFailure) as exc:
        solve_antipode_monoidal(singular)
    assert str(exc.value) == MONOIDAL


def test_antipode_solve_on_a_singular_alpha_exits_1_as_not_monoidal(tmp_path, capsys):
    H = cyclic_group_bialgebra(4, QQ)
    path = tmp_path / "H.json"
    path.write_text(serialize_structure(H.replace(alpha=rank(QQ, 1)), "bialgebra"))
    assert main(["antipode", "solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "bialgebra is not monoidal (omega != alpha^-1 or psi != beta^-1)\n"
    assert captured.err == ""


NOT_A_BIALGEBRA = "H is not a BiHom-bialgebra: coalgebra:bihom_coassociativity fails"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_smash_data_needs_h_to_be_a_bialgebra(field):
    """The first failing axiom of check_bihom_bialgebra, with its witness,
    is raised before the module-algebra axioms, which this action passes."""
    H, A, act = non_bialgebra_action(field)
    assert check_module_bihom_algebra(H, A, act).ok
    first = check_bihom_bialgebra(H).failures()[0]
    S, ident = SmashData(H=H, A=A, action=act), Matrix.identity(field, 2)
    for build in (S.validate, lambda: smash_product(S),
                  lambda: smash_comodule_structure(S, ident, ident)):
        with pytest.raises(HypothesisFailure) as exc:
            build()
        assert str(exc.value) == NOT_A_BIALGEBRA
        assert exc.value.witness == first.witness


def test_smash_of_a_non_bialgebra_exits_1_and_writes_nothing(tmp_path, capsys):
    H, A, act = non_bialgebra_action(QQ)
    h, a, out = (tmp_path / name for name in ("H.json", "act.json", "AH.json"))
    h.write_text(serialize_structure(H, "bialgebra"))
    a.write_text(serialize_structure((A, act), "action"))
    assert main(["smash", str(h), str(a), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {NOT_A_BIALGEBRA}\n"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_coalgebra_twist_keeps_an_invariant_counit_and_drops_another(field):
    C = cyclic_group_bialgebra(4, field).coalgebra_part()
    g3, ident = cyclic_power_map(4, 3, field), Matrix.identity(field, 4)
    assert yau_twist_coalgebra(C, g3, ident).counit == [1, 1, 1, 1]
    # the projection onto 1 is comultiplicative, but eps o E11 = (1, 0, 0, 0)
    assert yau_twist_coalgebra(C, ident, rank(field, 1)).counit is None
    assert yau_twist_coalgebra(C, rank(field, 1), ident).counit is None


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_dual_module_algebra_keeps_an_invariant_counit_as_unit_and_drops_another(field):
    H = cyclic_group_bialgebra(4, field)
    dual, _ = dual_module_algebra(H.replace(alpha=cyclic_power_map(4, 3, field)))
    assert dual.unit == [1, 1, 1, 1]
    two = Matrix.diagonal(field, [field.from_int(2)] + [field.one()] * 3)
    assert dual_module_algebra(H.replace(alpha=two))[0].unit is None
    assert dual_module_algebra(H.replace(beta=two))[0].unit is None
