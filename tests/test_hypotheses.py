"""The hypothesis failures of the constructions: for each stated hypothesis
that no corpus case reaches, the exception type, its exact message and its
witness.

Each case breaks exactly one hypothesis of a construction whose other
hypotheses hold, so the raise pinned is the first the construction meets.
The witnesses were worked out by hand: a Commute witness is the first
differing entry ((i, j), (ab)_ij, (ba)_ij), an axiom's is
(basis pair, lhs image, rhs image).
"""

from fractions import Fraction

import pytest

from bihom.bialgebra import twist_module_algebra, yau_twist_bialgebra
from bihom.coalgebra import yau_twist_coalgebra
from bihom.errors import HypothesisFailure, MapsDoNotCommute
from bihom.exactnum import QQ, PrimeField
from bihom.fixtures import (
    cyclic_group_bialgebra,
    cyclic_power_map,
    cyclic_self_action,
    sl2_lie,
    sl2_scaling,
)
from bihom.lie import yau_twist_lie
from bihom.linalg import Matrix
from bihom.smash import SmashData, smash_comodule_structure
from bihom.twisting import flip_map, lift_twisting_map

from helpers import _diagonal_algebra

F5 = PrimeField(5)
I3, I4 = Matrix.identity(QQ, 3), Matrix.identity(QQ, 4)
G0, G3 = cyclic_power_map(4, 0), cyclic_power_map(4, 3)  # g -> 1 and g -> g^3
# a matrix that commutes with neither G3 nor the e <-> f swap of sl2
SCALE_E1 = Matrix.diagonal(QQ, [1, 2, 1, 1])
SIGN = Matrix.diagonal(QQ, [1, -1, 1, -1])  # g -> -g, an algebra automorphism of k[C_4]
SWAP_01 = Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
SWAP_12 = Matrix(QQ, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def kc4(field=QQ):
    """k[C_4] acting on itself by g^i . g^j = g^(3^i j)."""
    H = cyclic_group_bialgebra(4, field)
    return H, H.algebra_part(), cyclic_self_action(4, 3, field)


def smash_omega_not_multiplicative():
    H, A, act = kc4()
    # omegaA(g) g-components: omegaA(g) omegaA(g) = 4 g^2, omegaA(g^2) = g^2
    return (lambda: smash_comodule_structure(SmashData(H=H, A=A, action=act), I4, SCALE_E1),
            HypothesisFailure, "omegaA is not multiplicative",
            ((1, 1), [0, 0, 1, 0], [0, 0, 4, 0]))


def smash_omega_not_equivariant():
    H, A, act = kc4(F5)
    # the character g -> 2 of C_4 over F_5 (2 has order 4), as a map g^j -> 2^j 1:
    # omegaA(g . g) = omegaA(g^3) = 8 = 3, but g . omegaA(g) = g . 2 = 2
    chi = Matrix(F5, [[1, 2, 4, 3], [0] * 4, [0] * 4, [0] * 4])
    f = F5.promote
    return (lambda: smash_comodule_structure(
                SmashData(H=H, A=A, action=act), Matrix.identity(F5, 4), chi),
            HypothesisFailure, "omegaA(h.a) != omegaH(h).omegaA(a)",
            ((1, 1), [f(3), f(0), f(0), f(0)], [f(2), f(0), f(0), f(0)]))


def twist_module_alpha_not_equivariant():
    H, A, act = kc4()
    # alphaA(g . g) = g^3, but alphaH(g) . g = 1 . g = g
    return (lambda: twist_module_algebra(H, A, act, G0, I4, I4, I4, I4, I4),
            HypothesisFailure, "alpha equivariance fails",
            ((1, 1), [0, 0, 0, 1], [0, 1, 0, 0]))


def twist_module_beta_not_equivariant():
    H, A, act = kc4()
    return (lambda: twist_module_algebra(H, A, act, I4, G0, I4, I4, I4, I4),
            HypothesisFailure, "beta equivariance fails",
            ((1, 1), [0, 0, 0, 1], [0, 1, 0, 0]))


def twist_module_maps_do_not_commute():
    H, A, act = kc4()
    # (G0 SIGN)_01 = -1, (SIGN G0)_01 = 1
    return (lambda: twist_module_algebra(H, A, act, I4, I4, I4, I4, G0, SIGN),
            MapsDoNotCommute, "alphaA and betaA do not commute", ((0, 1), -1, 1))


def bialgebra_twist_maps_do_not_commute():
    H = cyclic_group_bialgebra(4).replace(alpha=SCALE_E1)
    # (SCALE_E1 G3)_13 = 2, (G3 SCALE_E1)_13 = 1
    return (lambda: yau_twist_bialgebra(H, G3, I4, I4, I4),
            MapsDoNotCommute, "alpha and alpha2 do not commute", ((1, 3), 2, 1))


def coalgebra_twist_maps_do_not_commute():
    C = cyclic_group_bialgebra(4).coalgebra_part().replace(psi=SCALE_E1)
    return (lambda: yau_twist_coalgebra(C, G3, I4),
            MapsDoNotCommute, "psi and psi2 do not commute", ((1, 3), 2, 1))


def lie_twist_maps_do_not_commute():
    L = sl2_lie().replace(alpha=SWAP_12)
    # alpha2 = diag(1, 2, 1/2): (SWAP_12 alpha2)_12 = 1/2, (alpha2 SWAP_12)_12 = 2
    return (lambda: yau_twist_lie(L, sl2_scaling(2), I3),
            MapsDoNotCommute, "alpha and alpha2 do not commute", ((1, 2), Fraction(1, 2), 2))


def lift_a_maps_do_not_commute():
    D = _diagonal_algebra(3)
    # permutations of the idempotents of k^3 are automorphisms; (01)(12) != (12)(01)
    return (lambda: lift_twisting_map(D, D, flip_map(D, D), SWAP_01, SWAP_12, I3, I3),
            MapsDoNotCommute, "alphaA and betaA do not commute", ((0, 1), 0, 1))


def lift_b_maps_do_not_commute():
    D = _diagonal_algebra(3)
    return (lambda: lift_twisting_map(D, D, flip_map(D, D), I3, I3, SWAP_01, SWAP_12),
            MapsDoNotCommute, "alphaB and betaB do not commute", ((0, 1), 0, 1))


CASES = [
    smash_omega_not_multiplicative,
    smash_omega_not_equivariant,
    twist_module_alpha_not_equivariant,
    twist_module_beta_not_equivariant,
    twist_module_maps_do_not_commute,
    bialgebra_twist_maps_do_not_commute,
    coalgebra_twist_maps_do_not_commute,
    lie_twist_maps_do_not_commute,
    lift_a_maps_do_not_commute,
    lift_b_maps_do_not_commute,
]


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_hypothesis_failure_names_its_hypothesis_and_witness(case):
    call, error, message, witness = case()
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    assert info.value.witness == witness
