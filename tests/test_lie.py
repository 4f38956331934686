import random

import pytest

from bihom.algebra_core import LeftModule, endomorphism_algebra, example_family
from bihom.errors import ModuleAxiomFailure, NotMultiplicative, Singular
from bihom.exactnum import QQ
from bihom.fixtures import sl2_lie, sl2_scaling
from bihom.lie import (
    BiHomLieAlgebra,
    LieRepresentation,
    adjoint_rep,
    check_bihom_lie,
    check_representation,
    commutator_lie,
    module_to_lie_rep,
    semidirect_product,
    yau_twist_lie,
)
from bihom.linalg import Matrix, Tensor3

from helpers import random_associative_with_endos, random_bihom_algebra


def abelian_lie(dim=3):
    ident = Matrix.identity(QQ, dim)
    return BiHomLieAlgebra(
        field=QQ,
        dim=dim,
        bracket=Tensor3.zero(QQ, dim, dim, dim),
        alpha=ident,
        beta=ident.copy(),
    )


def twisted_sl2():
    return yau_twist_lie(sl2_lie(), sl2_scaling(2), Matrix.identity(QQ, 3))


class TestCheckLie:
    def test_sl2(self):
        report = check_bihom_lie(sl2_lie())
        assert report.ok
        assert "bihom_jacobi" in report.axiom_ids()

    def test_abelian_with_maps(self):
        L = abelian_lie()
        L.alpha = Matrix.diagonal(QQ, [1, 2, 3])
        L.beta = Matrix.diagonal(QQ, [2, 1, 1])
        assert check_bihom_lie(L).ok

    def test_corrupted_sl2_fails_with_witness(self):
        L = sl2_lie()
        L.bracket.t[0][1] = [QQ.zero(), QQ.one() + QQ.one() + QQ.one(), QQ.zero()]
        report = check_bihom_lie(L)
        assert not report.ok
        bad = report.failures()
        assert any(e.axiom in ("skew_symmetry", "bihom_jacobi") for e in bad)
        assert all(e.witness is not None for e in bad)

    def test_skew_symmetry_in_twisted_form(self):
        # the twisted bracket tensor itself is not antisymmetric, yet the
        # twisted skew symmetry [beta a, alpha b] = -[beta b, alpha a] holds
        L = twisted_sl2()
        assert check_bihom_lie(L).entry("skew_symmetry").passed
        plain_antisym = all(
            L.bracket.column(i, j) == [-x for x in L.bracket.column(j, i)]
            for i in range(3)
            for j in range(3)
        )
        assert not plain_antisym


class TestCommutatorLie:
    def test_identity_maps_give_ordinary_commutator(self):
        e = endomorphism_algebra(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
        L = commutator_lie(e)
        for i in range(4):
            for j in range(4):
                expect = [
                    x - y
                    for x, y in zip(
                        e.mu.column(i, j), e.mu.column(j, i)
                    )
                ]
                assert L.bracket.column(i, j) == expect
        assert check_bihom_lie(L).ok

    def test_conjugation_algebra(self):
        e = endomorphism_algebra(
            Matrix.diagonal(QQ, [1, 2]), Matrix.diagonal(QQ, [3, 1])
        )
        assert check_bihom_lie(commutator_lie(e)).ok

    def test_family1(self):
        assert check_bihom_lie(commutator_lie(example_family(1, 3, 2))).ok

    def test_twist_commutes_with_commutator(self):
        # L(A_(alpha, beta)) = L(A)_(alpha, beta) tensor-for-tensor
        rng = random.Random(23)
        for _ in range(5):
            a, alpha, beta = random_associative_with_endos(rng, invertible=True)
            from bihom.algebra_core import yau_twist

            lhs = commutator_lie(yau_twist(a, alpha, beta))
            rhs = yau_twist_lie(commutator_lie(a), alpha, beta)
            assert lhs.same_tensors(rhs)

    def test_singular_rejected(self):
        a = example_family(1, 3, 2)
        a.alpha = Matrix.zero(QQ, 2, 2)
        with pytest.raises(Singular):
            commutator_lie(a)


class TestYauTwistLie:
    def test_scaled_sl2(self):
        assert check_bihom_lie(twisted_sl2()).ok

    def test_identity_twist(self):
        L = sl2_lie()
        t = yau_twist_lie(L, Matrix.identity(QQ, 3), Matrix.identity(QQ, 3))
        assert t.same_tensors(L)

    def test_non_bracket_map_rejected(self):
        L = sl2_lie()
        bad = Matrix.diagonal(QQ, [1, 2, 3])
        with pytest.raises(NotMultiplicative):
            yau_twist_lie(L, bad, Matrix.identity(QQ, 3))


class TestRepresentations:
    def test_adjoint_of_plain_sl2(self):
        L = sl2_lie()
        assert check_representation(L, adjoint_rep(L)).ok

    def test_adjoint_of_twisted_sl2(self):
        L = twisted_sl2()
        assert check_representation(L, adjoint_rep(L)).ok

    def test_adjoint_of_abelian(self):
        L = abelian_lie()
        assert check_representation(L, adjoint_rep(L)).ok

    def test_corrupted_rep_fails_with_witness(self):
        L = sl2_lie()
        rep = adjoint_rep(L)
        rho = Tensor3(QQ, [[list(c) for c in plane] for plane in rep.rho.t])
        rho.t[0][0] = [QQ.one(), QQ.zero(), QQ.zero()]
        bad = LieRepresentation(dim=3, rho=rho, alphaM=rep.alphaM, betaM=rep.betaM)
        report = check_representation(L, bad)
        assert not report.ok
        assert not report.entry("rep_bracket_equation").passed
        assert report.entry("rep_bracket_equation").witness is not None


class TestSemidirect:
    def test_abelian_with_zero_rep(self):
        L = abelian_lie(2)
        rep = LieRepresentation(
            dim=2,
            rho=Tensor3.zero(QQ, 2, 2, 2),
            alphaM=Matrix.identity(QQ, 2),
            betaM=Matrix.identity(QQ, 2),
        )
        sd = semidirect_product(L, rep)
        assert sd.dim == 4
        assert check_bihom_lie(sd).ok
        assert not any(
            any(sd.bracket.column(i, j)) for i in range(4) for j in range(4)
        )

    def test_classical_sl2_adjoint(self):
        L = sl2_lie()
        sd = semidirect_product(L, adjoint_rep(L))
        assert check_bihom_lie(sd).ok

    def test_twisted_sl2_adjoint(self):
        L = twisted_sl2()
        sd = semidirect_product(L, adjoint_rep(L))
        assert check_bihom_lie(sd).ok

    def test_restriction_properties(self):
        L = twisted_sl2()
        sd = semidirect_product(L, adjoint_rep(L))
        n = L.dim
        for i in range(n):
            for j in range(n):
                col = sd.bracket.column(i, j)
                assert col[:n] == L.bracket.column(i, j)
                assert not any(col[n:])
        for i in range(n, 2 * n):
            for j in range(n, 2 * n):
                assert not any(sd.bracket.column(i, j))


class TestModuleToLieRep:
    def test_regular_module(self):
        a = example_family(1, 3, 2)
        mod = LeftModule(dim=2, action=a.mu, alphaM=a.alpha, betaM=a.beta)
        rep = module_to_lie_rep(a, mod)
        assert check_representation(commutator_lie(a), rep).ok

    def test_zero_action(self):
        rng = random.Random(4)
        a = random_bihom_algebra(rng, dim=2)
        a.unit = None  # zero action cannot be unital
        mod = LeftModule(
            dim=3,
            action=Tensor3.zero(QQ, 2, 3, 3),
            alphaM=Matrix.identity(QQ, 3),
            betaM=Matrix.identity(QQ, 3),
        )
        rep = module_to_lie_rep(a, mod)
        assert check_representation(commutator_lie(a), rep).ok

    def test_column_space_module(self):
        u = Matrix.diagonal(QQ, [1, 2])
        v = Matrix.diagonal(QQ, [3, 1])
        e = endomorphism_algebra(u, v)
        # E(u, v) acts on columns by plain matrix application
        action = Tensor3.zero(QQ, 4, 2, 2)
        for p in range(4):
            i, k = divmod(p, 2)
            action.t[p][k][i] = QQ.one()
        mod = LeftModule(dim=2, action=action, alphaM=u, betaM=v)
        rep = module_to_lie_rep(e, mod)
        assert check_representation(commutator_lie(e), rep).ok

    def test_invalid_module_rejected(self):
        a = example_family(1, 3, 2)
        mod = LeftModule(
            dim=2,
            action=Tensor3.zero(QQ, 2, 2, 2),
            alphaM=a.alpha,
            betaM=a.beta,
        )  # zero action fails the unital-module axiom
        with pytest.raises(ModuleAxiomFailure):
            module_to_lie_rep(a, mod)


class TestRandomCommutatorSuite:
    def test_thirty_random_fixtures(self):
        rng = random.Random(99)
        for _ in range(30):
            b = random_bihom_algebra(rng)
            L = commutator_lie(b)
            assert check_bihom_lie(L).ok
