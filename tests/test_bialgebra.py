import dataclasses

import pytest

from bihom.algebra_core import truncated_polynomial_algebra
from bihom.bialgebra import (
    ModuleAlgebraAction,
    check_antipode_general,
    check_antipode_properties,
    check_bihom_bialgebra,
    check_module_bihom_algebra,
    find_primitives,
    hopf_to_monoidal,
    is_monoidal,
    is_primitive,
    primitive_bracket,
    solve_antipode_monoidal,
    twist_left_module,
    twist_module_algebra,
    yau_twist_bialgebra,
)
from bihom.algebra_core import LeftModule, check_left_module
from bihom.errors import (
    HypothesisFailure,
    MissingUnit,
    NotAutomorphism,
    NotBialgebraMap,
    NotPrimitive,
)
from bihom.exactnum import QQ
from bihom.fixtures import (
    cyclic_antipode,
    cyclic_group_bialgebra,
    cyclic_power_map,
    cyclic_self_action,
    f2_restricted_line,
    f3_truncated_line,
    idempotent_monoid_bialgebra,
    kc4_twisted_bialgebra,
    sweedler_hopf,
)
from bihom.linalg import (
    Matrix,
    Tensor3,
    kernel,
    mat_eq_witness,
    solve_affine,
    unit_vec,
)


def ident(n):
    return Matrix.identity(QQ, n)


class TestCheckBialgebra:
    def test_kc2_classical(self):
        assert check_bihom_bialgebra(cyclic_group_bialgebra(2)).ok

    def test_kc4_twisted(self):
        assert check_bihom_bialgebra(kc4_twisted_bialgebra()).ok

    def test_corrupted_compatibility_fails_with_witness(self):
        H = cyclic_group_bialgebra(4)
        H.delta.t[1][1][1] = QQ.zero()
        H.delta.t[1][1][2] = QQ.one()  # Delta(g) := g (x) g^2
        report = check_bihom_bialgebra(H)
        assert not report.ok
        bad = [e for e in report.failures() if e.axiom == "delta_multiplicative"]
        assert bad and bad[0].witness is not None


class TestYauTwistBialgebra:
    def test_identity_maps(self):
        H = cyclic_group_bialgebra(4)
        t = yau_twist_bialgebra(H, ident(4), ident(4), ident(4), ident(4))
        assert t.same_tensors(H)

    def test_kc4_power_twist(self):
        H = cyclic_group_bialgebra(4)
        t = yau_twist_bialgebra(H, cyclic_power_map(4, 3), ident(4), ident(4), ident(4))
        assert check_bihom_bialgebra(t).ok

    def test_untwist_by_inverses(self):
        # the general twist of an already-BiHom bialgebra recovers the
        # classical structure when the primed maps are the inverses
        H = cyclic_group_bialgebra(4)
        g3 = cyclic_power_map(4, 3)
        t = yau_twist_bialgebra(H, g3, ident(4), g3, ident(4))
        from bihom.linalg import mat_inverse

        back = yau_twist_bialgebra(
            t, mat_inverse(t.alpha), ident(4), mat_inverse(t.psi), ident(4)
        )
        assert back.same_tensors(H)

    def test_non_bialgebra_map_rejected(self):
        H = cyclic_group_bialgebra(2)
        bad = Matrix(QQ, [[1, 1], [0, 1]])
        with pytest.raises(NotBialgebraMap):
            yau_twist_bialgebra(H, bad, ident(2), ident(2), ident(2))


class TestPrimitives:
    def test_kc2_over_q_has_none(self):
        assert find_primitives(cyclic_group_bialgebra(2)) == []

    def test_f2_line_has_one(self):
        H = f2_restricted_line()
        prims = find_primitives(H)
        assert len(prims) == 1
        x = prims[0]
        assert x[1] and not x[0]

    def test_basis_is_independent_and_nonzero(self):
        H = f3_truncated_line()
        prims = find_primitives(H)
        assert len(prims) == 1
        assert any(prims[0])

    def test_missing_unit_rejected(self):
        H = cyclic_group_bialgebra(2)
        H.unit = None
        with pytest.raises(MissingUnit):
            find_primitives(H)

    def test_bracket_of_equal_elements_identity_maps(self):
        H = f2_restricted_line()
        x = find_primitives(H)[0]
        br = primitive_bracket(H, x, x)
        assert not any(br)

    def test_bracket_lands_in_primitive_space(self):
        # twisted characteristic-3 fixture with a nontrivial scaling map
        H = f3_truncated_line()
        f3 = H.field
        two = f3.from_int(2)
        scale = Matrix.diagonal(f3, [f3.one(), two, two * two])
        Ht = yau_twist_bialgebra(
            H, scale, Matrix.identity(f3, 3), Matrix.identity(f3, 3),
            Matrix.identity(f3, 3),
        )
        assert check_bihom_bialgebra(Ht).ok
        prims = find_primitives(Ht)
        assert prims
        for x in prims:
            for y in prims:
                br = primitive_bracket(Ht, x, y)
                assert is_primitive(Ht, br)

    def test_psi_equals_omega_on_primitives(self):
        for H in (f2_restricted_line(), f3_truncated_line()):
            for x in find_primitives(H):
                assert H.psi.apply(x) == H.omega.apply(x)

    def test_primitive_space_invariant_under_map_powers(self):
        # alpha^p beta^q of a primitive stays in the primitive span for
        # p, q in {-1, 0, 1}
        from bihom.linalg import mat_power

        H = f3_truncated_line()
        f3 = H.field
        two = f3.from_int(2)
        scale = Matrix.diagonal(f3, [f3.one(), two, two * two])
        Ht = yau_twist_bialgebra(
            H, scale, Matrix.identity(f3, 3), Matrix.identity(f3, 3),
            Matrix.identity(f3, 3),
        )
        prims = find_primitives(Ht)
        assert prims
        span = Matrix.zero(f3, Ht.dim, len(prims))
        for j, v in enumerate(prims):
            for i in range(Ht.dim):
                span.e[i][j] = v[i]
        for x in prims:
            for p in (-1, 0, 1):
                for q in (-1, 0, 1):
                    w = mat_power(Ht.alpha, p).apply(mat_power(Ht.beta, q).apply(x))
                    assert solve_affine(span, w) is not None

    def test_primitive_basis_linearly_independent(self):
        from bihom.linalg import rank

        H = f3_truncated_line()
        prims = find_primitives(H)
        m = Matrix.zero(H.field, H.dim, len(prims))
        for j, v in enumerate(prims):
            for i in range(H.dim):
                m.e[i][j] = v[i]
        assert rank(m) == len(prims)

    def test_non_primitive_rejected(self):
        H = f2_restricted_line()
        with pytest.raises(NotPrimitive):
            primitive_bracket(H, H.unit, H.unit)

    @pytest.mark.parametrize("maps,error", [
        # alpha(X) = 1 + X: [X, X] = X^2 - (X - 1)(X + 1) = 1
        ({"alpha": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]},
         "bracket of primitives failed to be primitive"),
        ({"psi": [[1, 0, 0], [0, 2, 0], [0, 0, 1]]},
         "psi and omega disagree on a primitive element"),
        # alpha(X) = X + X^2: [X, X] = 0, but alpha^-1(X) = X - X^2
        ({"alpha": [[1, 0, 0], [0, 1, 0], [0, 1, 1]]},
         "alpha^-1 beta^-1 did not preserve primitivity"),
    ], ids=["bracket", "psi_omega", "powers"])
    def test_bracket_checks_fail_in_order(self, maps, error):
        H = f3_truncated_line()
        f3 = H.field
        H = dataclasses.replace(H, **{k: Matrix(f3, m) for k, m in maps.items()})
        x = [f3.zero(), f3.one(), f3.zero()]
        with pytest.raises(AssertionError) as info:
            primitive_bracket(H, x, x)
        assert str(info.value) == error


class TestModuleBiHomAlgebra:
    def test_classical_identity_maps(self):
        H = cyclic_group_bialgebra(4)
        act = cyclic_self_action(4, 3)
        report = check_module_bihom_algebra(H, H.algebra_part(), act)
        assert report.ok

    def test_twisted_output_passes(self):
        H = cyclic_group_bialgebra(4)
        act = cyclic_self_action(4, 3)
        g3 = cyclic_power_map(4, 3)
        H2, A2, act2 = twist_module_algebra(
            H, H.algebra_part(), act, g3, ident(4), ident(4), ident(4), g3, ident(4)
        )
        assert check_bihom_bialgebra(H2).ok
        assert check_module_bihom_algebra(H2, A2, act2).ok

    def test_corrupted_action_fails_compat_with_witness(self):
        H = cyclic_group_bialgebra(4)
        act = cyclic_self_action(4, 3)
        bad = Tensor3(QQ, [[list(c) for c in p] for p in act.action.t])
        bad.t[1][1] = [QQ.zero()] * 4
        bad.t[1][1][1] = QQ.one()  # g . g := g instead of g^3
        report = check_module_bihom_algebra(
            H, H.algebra_part(), ModuleAlgebraAction(action=bad)
        )
        assert not report.ok
        failing = {e.axiom for e in report.failures()}
        assert "module_algebra_compat" in failing

    def test_identity_twist_returns_original(self):
        H = cyclic_group_bialgebra(4)
        act = cyclic_self_action(4, 3)
        H2, A2, act2 = twist_module_algebra(
            H, H.algebra_part(), act,
            ident(4), ident(4), ident(4), ident(4), ident(4), ident(4),
        )
        assert H2.same_tensors(H)
        assert act2.action == act.action

    def test_bad_hypotheses_rejected(self):
        H = cyclic_group_bialgebra(4)
        act = cyclic_self_action(4, 3)
        bad = Tensor3(QQ, [[list(c) for c in p] for p in act.action.t])
        bad.t[1][1] = [QQ.zero()] * 4
        bad.t[1][1][1] = QQ.one()  # no longer a module algebra
        with pytest.raises(HypothesisFailure):
            twist_module_algebra(
                H, H.algebra_part(), ModuleAlgebraAction(action=bad),
                ident(4), ident(4), ident(4), ident(4), ident(4), ident(4),
            )


class TestTwistLeftModule:
    def test_identity_maps(self):
        a = truncated_polynomial_algebra(QQ, 3)
        mod = LeftModule(dim=3, action=a.mu, alphaM=ident(3), betaM=ident(3))
        a2, mod2 = twist_left_module(a, mod, ident(3), ident(3))
        assert mod2.action == mod.action

    def test_regular_module_of_twisted_matrix_algebra(self):
        from bihom.algebra_core import endomorphism_algebra

        e = endomorphism_algebra(ident(2), ident(2))  # plain 2x2 matrices
        u = Matrix.diagonal(QQ, [1, 2])
        conj = Matrix.zero(QQ, 4, 4)
        from bihom.linalg import mat_inverse

        uinv = mat_inverse(u)
        for k in range(2):
            for l in range(2):
                for r in range(2):
                    for c in range(2):
                        conj.e[r * 2 + c][k * 2 + l] = u.e[r][k] * uinv.e[l][c]
        mod = LeftModule(dim=4, action=e.mu, alphaM=conj, betaM=ident(4))
        a2, mod2 = twist_left_module(e, mod, conj, ident(4))
        assert check_left_module(a2, mod2).ok

    def test_zero_action(self):
        a = truncated_polynomial_algebra(QQ, 2)
        a.unit = None
        mod = LeftModule(
            dim=2, action=Tensor3.zero(QQ, 2, 2, 2), alphaM=ident(2), betaM=ident(2)
        )
        a2, mod2 = twist_left_module(a, mod, ident(2), ident(2))
        assert check_left_module(a2, mod2).ok


class TestMonoidalAndAntipodes:
    def test_classical_is_monoidal(self):
        assert is_monoidal(cyclic_group_bialgebra(4))

    def test_psi_equal_beta_not_monoidal_unless_involutive(self):
        # k[C5] with beta = psi = (g -> g^2): beta^2 != id, so psi != beta^-1
        H5 = cyclic_group_bialgebra(5)
        s2 = cyclic_power_map(5, 2)
        t = yau_twist_bialgebra(H5, ident(5), s2, s2, ident(5))
        assert check_bihom_bialgebra(t).ok
        assert not is_monoidal(t)
        # k[C4] with beta = psi = (g -> g^3): an involution, and indeed monoidal
        H4 = cyclic_group_bialgebra(4)
        g3 = cyclic_power_map(4, 3)
        t2 = yau_twist_bialgebra(H4, ident(4), g3, g3, ident(4))
        assert is_monoidal(t2)

    def test_kc2_antipode(self):
        H = cyclic_group_bialgebra(2)
        s = solve_antipode_monoidal(H)
        assert s == cyclic_antipode(2)

    def test_kc2_identity_maps_through_monoidal_construction(self):
        H = cyclic_group_bialgebra(2)
        Hm, S = hopf_to_monoidal(H, cyclic_antipode(2), ident(2), ident(2))
        assert Hm.same_tensors(H)
        s = solve_antipode_monoidal(Hm)
        assert mat_eq_witness(s, S) is None
        assert check_antipode_properties(Hm, s).ok

    def test_kc4_twisted_antipode_recovered(self):
        H = cyclic_group_bialgebra(4)
        Hm, s_expect = hopf_to_monoidal(
            H, cyclic_antipode(4), cyclic_power_map(4, 3), ident(4)
        )
        assert is_monoidal(Hm)
        assert check_bihom_bialgebra(Hm).ok
        s = solve_antipode_monoidal(Hm)
        assert mat_eq_witness(s, s_expect) is None
        assert check_antipode_properties(Hm, s).ok

    def test_sweedler_twisted_antipode_recovered(self):
        H, S, invol = sweedler_hopf()
        Hm, s_expect = hopf_to_monoidal(H, S, invol, ident(4))
        assert is_monoidal(Hm)
        assert check_bihom_bialgebra(Hm).ok
        s = solve_antipode_monoidal(Hm)
        assert mat_eq_witness(s, S) is None
        assert check_antipode_properties(Hm, s).ok

    def test_no_antipode_for_idempotent_monoid(self):
        H = idempotent_monoid_bialgebra()
        assert is_monoidal(H)
        assert solve_antipode_monoidal(H) is None

    def test_hopf_to_monoidal_rejects_non_automorphism(self):
        H = cyclic_group_bialgebra(4)
        g2 = cyclic_power_map(4, 2)  # not invertible
        with pytest.raises(NotAutomorphism):
            hopf_to_monoidal(H, cyclic_antipode(4), g2, ident(4))


class TestGeneralAntipode:
    def test_classical_reduction(self):
        H = cyclic_group_bialgebra(4)
        assert check_antipode_general(H, cyclic_antipode(4)).ok

    def test_invariance_under_yau_twisting(self):
        # the same S satisfies the general axioms after any bialgebra twist
        H = cyclic_group_bialgebra(4)
        S = cyclic_antipode(4)
        g3 = cyclic_power_map(4, 3)
        for maps in [
            (g3, ident(4), ident(4), ident(4)),
            (g3, ident(4), g3, ident(4)),
            (ident(4), g3, ident(4), g3),
        ]:
            t = yau_twist_bialgebra(H, *maps)
            assert check_antipode_general(t, S).ok
        Hs, Ss, invol = sweedler_hopf()
        t = yau_twist_bialgebra(Hs, invol, ident(4), invol, ident(4))
        assert check_antipode_general(t, Ss).ok

    def test_wrong_s_fails_with_witness(self):
        H = cyclic_group_bialgebra(4)
        report = check_antipode_general(H, ident(4))
        assert not report.ok
        assert all(e.witness is not None for e in report.failures())


class TestNoAntipodeRegression:
    """The truncated k[X] model of the antipode-nonexistence computation.

    Every displayed identity is re-evaluated exactly in k[X]/(X^16) with
    alpha(X) = X^2, beta = psi = omega = id.
    """

    N = 16

    def setup_method(self):
        from bihom.algebra_core import monomial_substitution, yau_twist

        self.base = truncated_polynomial_algebra(QQ, self.N)
        self.alpha = monomial_substitution(QQ, self.N, 2)
        self.tw = yau_twist(self.base, self.alpha, ident(self.N))
        # classical coproduct legs of X: Delta(X) = 1 (x) X + X (x) 1
        self.one = unit_vec(QQ, self.N, 0)
        self.x = unit_vec(QQ, self.N, 1)

    def twisted_mul(self, u, v):
        return self.tw.multiply(u, v)

    def test_displayed_convolution_evaluations(self):
        # (mu_(a,b) o (Id (x) S) o Delta)(X) = X^2 S(1) + S(X) for every S,
        # (mu_(a,b) o (S (x) Id) o Delta)(X) = alpha(S(X)) + alpha(S(1)) X;
        # both are linear in S, so elementary maps decide them exactly.
        for u in range(self.N):
            for v in range(self.N):
                s = Matrix.zero(QQ, self.N, self.N)
                s.e[u][v] = QQ.one()
                s1 = s.column(0)  # S(1)
                sx = s.column(1)  # S(X)
                lhs1 = [
                    a + b
                    for a, b in zip(
                        self.twisted_mul(self.one, sx),
                        self.twisted_mul(self.x, s1),
                    )
                ]
                rhs1 = [
                    a + b
                    for a, b in zip(
                        sx,
                        self.base.multiply(unit_vec(QQ, self.N, 2), s1),
                    )
                ]
                assert lhs1 == rhs1
                lhs2 = [
                    a + b
                    for a, b in zip(
                        self.twisted_mul(sx, self.one),
                        self.twisted_mul(s1, self.x),
                    )
                ]
                rhs2 = [
                    a + b
                    for a, b in zip(
                        self.alpha.apply(sx),
                        self.base.multiply(self.alpha.apply(s1), self.x),
                    )
                ]
                assert lhs2 == rhs2

    def test_forced_form_and_contradiction(self):
        # form:2 forces S(X) = -X^2 S(1); substituting into form:3 gives
        # alpha(S(1)) X = X^4 alpha(S(1)), whose solutions all have
        # alpha(S(1)) = 0 -- contradicting (eta o eps)(1) = 1.
        n = self.N
        x4 = unit_vec(QQ, n, 4)
        constraint = Matrix.zero(QQ, n, n)
        for j in range(n):
            asj = self.alpha.column(j)
            left = self.base.multiply(asj, self.x)
            right = self.base.multiply(x4, asj)
            for i in range(n):
                constraint.e[i][j] = left[i] - right[i]
        solutions = kernel(constraint)
        assert solutions  # s1 = 0 at least
        for s1 in solutions:
            assert not any(self.alpha.apply(s1))
        # the unit equation alpha(S(1)) = 1 is inconsistent with them
        rows = Matrix.zero(QQ, 2 * n, n)
        rhs = [QQ.zero()] * n + list(self.one)
        for i in range(n):
            for j in range(n):
                rows.e[i][j] = constraint.e[i][j]
                rows.e[n + i][j] = self.alpha.e[i][j]
        assert solve_affine(rows, rhs) is None
