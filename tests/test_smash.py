import itertools

import pytest

from bihom.algebra_core import check_bihom_algebra, yau_twist
from bihom.bialgebra import (
    ModuleAlgebraAction,
    check_module_bihom_algebra,
    twist_module_algebra,
)
from bihom.errors import HypothesisFailure, ModuleAxiomFailure, Singular
from bihom.exactnum import QQ
from bihom.fixtures import (
    cyclic_group_bialgebra,
    cyclic_power_map,
    cyclic_self_action,
    kc4_twisted_bialgebra,
)
from bihom.linalg import (
    Matrix,
    Tensor3,
    kron,
    mat_eq_witness,
    mat_inverse,
    mat_power,
    unit_vec,
)
from bihom.smash import (
    SmashData,
    dual_module_algebra,
    smash_comodule_structure,
    smash_product,
    smash_twisting_map,
)
from bihom.twisting import check_twisting_map

from helpers import bilinear, pairs


def ident(n=4):
    return Matrix.identity(QQ, n)


def classical_fixture():
    H = cyclic_group_bialgebra(4)
    return H, H.algebra_part(), cyclic_self_action(4, 3)


def twisted_fixture(psi_omega_twisted=False):
    H, A, act = classical_fixture()
    g3 = cyclic_power_map(4, 3)
    if psi_omega_twisted:
        return twist_module_algebra(H, A, act, g3, ident(), g3, ident(), g3, ident())
    return twist_module_algebra(H, A, act, g3, ident(), ident(), ident(), g3, ident())


class TestSmashTwistingMap:
    def test_classical_indices_zero_gives_classical_map(self):
        H, A, act = classical_fixture()
        tw = smash_twisting_map(SmashData(H=H, A=A, action=act, m=0, n=0, p=0))
        expect = Matrix.zero(QQ, 16, 16)
        for h in range(4):
            for a in range(4):
                src = h * 4 + a
                for (u, v, c) in pairs(H.delta.t[h]):
                    hit = act.action.column(u, a)
                    for i in range(4):
                        if hit[i]:
                            expect.e[i * 4 + v][src] = c * hit[i]
        assert mat_eq_witness(tw.R, expect) is None

    def test_smash_indices_on_twisted_fixture(self):
        H2, A2, act2 = twisted_fixture()
        tw = smash_twisting_map(SmashData(H=H2, A=A2, action=act2, m=0, n=-1, p=-1))
        assert check_twisting_map(A2, H2.algebra_part(), tw).ok

    def test_arbitrary_indices(self):
        H2, A2, act2 = twisted_fixture()
        tw = smash_twisting_map(SmashData(H=H2, A=A2, action=act2, m=2, n=-3, p=1))
        assert check_twisting_map(A2, H2.algebra_part(), tw).ok

    def test_psi_omega_twisted_fixture(self):
        H2, A2, act2 = twisted_fixture(psi_omega_twisted=True)
        assert check_module_bihom_algebra(H2, A2, act2).ok
        for (m, n, p) in [(0, -1, -1), (1, 1, -2)]:
            tw = smash_twisting_map(SmashData(H=H2, A=A2, action=act2, m=m, n=n, p=p))
            assert check_twisting_map(A2, H2.algebra_part(), tw).ok

    def test_invalid_action_rejected(self):
        H, A, act = classical_fixture()
        bad = Tensor3(QQ, [[list(c) for c in p] for p in act.action.t])
        bad.t[1][1] = [QQ.zero()] * 4
        bad.t[1][1][1] = QQ.one()
        with pytest.raises(ModuleAxiomFailure):
            smash_twisting_map(
                SmashData(H=H, A=A, action=ModuleAlgebraAction(action=bad))
            )

    def test_singular_map_rejected(self):
        H, A, act = classical_fixture()
        H.alpha = Matrix.zero(QQ, 4, 4)
        with pytest.raises(Singular):
            smash_twisting_map(SmashData(H=H, A=A, action=act))


class TestSmashProduct:
    def test_classical_smash(self):
        H, A, act = classical_fixture()
        d = smash_product(SmashData(H=H, A=A, action=act))
        assert check_bihom_algebra(d).ok
        assert d.unit is not None

    def test_twisted_smash_passes_all_checks(self):
        H2, A2, act2 = twisted_fixture()
        d = smash_product(SmashData(H=H2, A=A2, action=act2))
        assert check_bihom_algebra(d).ok

    def test_smash_matches_definition_formula(self):
        # (a # h)(a' # h') = a (betaH^-1 omegaH^-1(h1) . betaA^-1(a')) #
        # psiH^-1(h2) h', expanded per basis tuple without going through
        # the twisted-tensor-product construction
        from bihom.linalg import mat_mul

        H2, A2, act2 = twisted_fixture()
        d = smash_product(SmashData(H=H2, A=A2, action=act2))
        binv_oinv = mat_mul(mat_inverse(H2.beta), mat_inverse(H2.omega))
        psi_inv = mat_inverse(H2.psi)
        betaA_inv = mat_inverse(A2.beta)
        halg = H2.algebra_part()
        direct = Tensor3.zero(QQ, 16, 16, 16)
        for a in range(4):
            for h in range(4):
                for a2 in range(4):
                    for h2 in range(4):
                        out = direct.t[a * 4 + h][a2 * 4 + h2]
                        for (u, v, c) in pairs(H2.delta.t[h]):
                            inner = bilinear(
                                act2.action, binv_oinv.column(u), betaA_inv.column(a2)
                            )
                            first = A2.multiply(unit_vec(QQ, 4, a), inner)
                            second = halg.multiply(
                                psi_inv.column(v), unit_vec(QQ, 4, h2)
                            )
                            for i in range(4):
                                if first[i]:
                                    ci = c * first[i]
                                    for j in range(4):
                                        if second[j]:
                                            out[i * 4 + j] = (
                                                out[i * 4 + j] + ci * second[j]
                                            )
        assert d.mu == direct

    def test_smash_as_yau_twist_coincidence(self):
        # (A # H)_(aA (x) aH, bA (x) bH) = A_(aA,bA) # H_(aH,bH,psiH,omegaH)
        H, A, act = classical_fixture()
        g3 = cyclic_power_map(4, 3)
        classical = smash_product(SmashData(H=H, A=A, action=act))
        lhs = yau_twist(classical, kron(g3, g3), kron(ident(), ident()))
        H2, A2, act2 = twisted_fixture()
        rhs = smash_product(SmashData(H=H2, A=A2, action=act2))
        assert lhs.mu == rhs.mu
        assert lhs.alpha == rhs.alpha and lhs.beta == rhs.beta

    def test_hom_case_reduction(self):
        # alphaH = betaH = psiH = omegaH: the multiplication reduces to
        # a (alphaH^-2(h1) . alphaA^-1(a')) # alphaH^-1(h2) h'
        H, A, act = classical_fixture()
        g3 = cyclic_power_map(4, 3)
        H2, A2, act2 = twist_module_algebra(H, A, act, g3, g3, g3, g3, g3, g3)
        d = smash_product(SmashData(H=H2, A=A2, action=act2))
        assert check_bihom_algebra(d).ok
        aA_inv = mat_inverse(A2.alpha)
        halg = H2.algebra_part()
        direct = Tensor3.zero(QQ, 16, 16, 16)
        for a in range(4):
            for h in range(4):
                for a2 in range(4):
                    for h2 in range(4):
                        src1, src2 = a * 4 + h, a2 * 4 + h2
                        out = direct.t[src1][src2]
                        for (u, v, c) in pairs(H2.delta.t[h]):
                            acted = bilinear(
                                act2.action, mat_power(H2.alpha, -2).column(u), aA_inv.column(a2)
                            )
                            first = A2.multiply(unit_vec(QQ, 4, a), acted)
                            second = halg.multiply(
                                mat_power(H2.alpha, -1).column(v), unit_vec(QQ, 4, h2)
                            )
                            for i in range(4):
                                if first[i]:
                                    ci = c * first[i]
                                    for j in range(4):
                                        if second[j]:
                                            out[i * 4 + j] = out[i * 4 + j] + ci * second[j]
        assert d.mu == direct

    def test_monoidal_hom_reduction(self):
        # psiH = omegaH = alphaH^-1 = betaH^-1 (g3 is an involution, so
        # alphaH = betaH = psiH = omegaH = g3 realizes it); the product is
        # a (h1 . alphaA^-1(a')) # alphaH(h2) h'
        H, A, act = classical_fixture()
        g3 = cyclic_power_map(4, 3)
        H2, A2, act2 = twist_module_algebra(H, A, act, g3, g3, g3, g3, g3, g3)
        assert mat_eq_witness(H2.psi, mat_inverse(H2.alpha)) is None
        d = smash_product(SmashData(H=H2, A=A2, action=act2))
        aA_inv = mat_inverse(A2.alpha)
        halg = H2.algebra_part()
        direct = Tensor3.zero(QQ, 16, 16, 16)
        for a in range(4):
            for h in range(4):
                for a2 in range(4):
                    for h2 in range(4):
                        src1, src2 = a * 4 + h, a2 * 4 + h2
                        out = direct.t[src1][src2]
                        for (u, v, c) in pairs(H2.delta.t[h]):
                            acted = bilinear(
                                act2.action, unit_vec(QQ, 4, u), aA_inv.column(a2)
                            )
                            first = A2.multiply(unit_vec(QQ, 4, a), acted)
                            second = halg.multiply(
                                H2.alpha.column(v), unit_vec(QQ, 4, h2)
                            )
                            for i in range(4):
                                if first[i]:
                                    ci = c * first[i]
                                    for j in range(4):
                                        if second[j]:
                                            out[i * 4 + j] = out[i * 4 + j] + ci * second[j]
        assert d.mu == direct


class TestSmashComodule:
    def test_classical_case(self):
        H, A, act = classical_fixture()
        d, comod, report = smash_comodule_structure(
            SmashData(H=H, A=A, action=act), ident(), ident()
        )
        assert report.ok

    def test_twisted_self_action(self):
        H2, A2, act2 = twisted_fixture()
        d, comod, report = smash_comodule_structure(
            SmashData(H=H2, A=A2, action=act2), ident(), ident()
        )
        assert report.ok

    def test_bad_omega_rejected(self):
        H, A, act = classical_fixture()
        bad = Matrix(QQ, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(HypothesisFailure):
            smash_comodule_structure(SmashData(H=H, A=A, action=act), ident(), bad)


class TestDualModuleAlgebra:
    def test_kc2_classical(self):
        H = cyclic_group_bialgebra(2)
        dual, act = dual_module_algebra(H)
        assert check_bihom_algebra(dual).ok
        assert dual.unit == [QQ.one(), QQ.one()]  # eps on the group basis
        assert check_module_bihom_algebra(H, dual, act).ok
        # the action is translation-like: (g -> f)(h') = f(h' g)
        # on the dual basis of k[C2]: g -> e^0 = e^1 shifted
        assert act.action.column(1, 0) == [QQ.zero(), QQ.one()]

    def test_twisted_kc4(self):
        H2 = kc4_twisted_bialgebra()
        dual, act = dual_module_algebra(H2)
        assert check_bihom_algebra(dual).ok
        assert dual.unit == [QQ.one()] * 4
        assert check_module_bihom_algebra(H2, dual, act).ok

    def test_h_star_smash_h_builds_and_passes(self):
        H2 = kc4_twisted_bialgebra()
        dual, act = dual_module_algebra(H2)
        data = SmashData(H=H2, A=dual, action=act)
        d = smash_product(data)
        assert check_bihom_algebra(d).ok
        psiA = mat_inverse(H2.psi).transpose()
        omegaA = mat_inverse(H2.omega).transpose()
        _, comod, report = smash_comodule_structure(data, psiA, omegaA)
        assert report.ok

    def test_all_mnp_small_grid(self):
        H2 = kc4_twisted_bialgebra()
        dual, act = dual_module_algebra(H2)
        B = H2.algebra_part()
        for (m, n, p) in itertools.product((-1, 0, 1), repeat=3):
            tw = smash_twisting_map(
                SmashData(H=H2, A=dual, action=act, m=m, n=n, p=p)
            )
            assert check_twisting_map(dual, B, tw).ok
