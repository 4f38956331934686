import random
from fractions import Fraction

import pytest

from bihom.algebra_core import (
    BiHomAlgebra,
    check_bihom_algebra,
    tensor_product,
    yau_twist,
)
from bihom.axioms import Kron, Lin, images
from bihom.errors import (
    HypothesisFailure,
    MapsDoNotCommute,
    MixedFields,
    PseudotwistorInvalid,
    ShapeMismatch,
    TwistingMapInvalid,
)
from bihom.exactnum import QQ, PrimeField
from bihom.fixtures import (
    cyclic_group_bialgebra,
    cyclic_power_map,
    cyclic_self_action,
)
from bihom.linalg import Matrix, Tensor3, kron, mat_eq_witness, mat_mul
from bihom.twisting import (
    Pseudotwistor,
    TwistingMap,
    apply_pseudotwistor,
    canonical_pseudotwistor,
    check_pseudotwistor,
    check_twisting_map,
    flip_map,
    helper_identity_witness,
    lift_twisting_map,
    twisted_tensor_product,
)

from helpers import pairs, random_associative_with_endos, random_bihom_algebra


def left_projection_algebra():
    """The 2-dimensional left-projection algebra with its singular beta."""
    one, zero = QQ.one(), QQ.zero()
    mu = Tensor3(QQ, [[[one, zero], [one, zero]], [[zero, one], [zero, one]]])
    btilde = Matrix(QQ, [[one, one], [zero, zero]])
    return BiHomAlgebra(
        field=QQ, dim=2, mu=mu, alpha=Matrix.identity(QQ, 2), beta=btilde
    )


def parametric_maps(a, b):
    one, zero = QQ.one(), QQ.zero()
    alpha = Matrix(QQ, [[one, QQ.promote(a)], [zero, QQ.promote(1 - a)]])
    beta = Matrix(QQ, [[one, QQ.promote(b)], [zero, QQ.promote(1 - b)]])
    return alpha, beta


class TestPseudotwistor:
    def test_two_dim_deformation_table(self):
        d = left_projection_algebra()
        a, b = Fraction(5, 7), Fraction(2)
        alpha, beta = parametric_maps(a, b)
        p = canonical_pseudotwistor(d, alpha, beta)
        assert check_pseudotwistor(d, p).ok
        out = apply_pseudotwistor(d, p)
        one, zero = QQ.one(), QQ.zero()
        assert out.mu.column(0, 0) == [one, zero]
        assert out.mu.column(0, 1) == [one, zero]
        assert out.mu.column(1, 0) == [QQ.promote(a), QQ.promote(1 - a)]
        assert out.mu.column(1, 1) == [QQ.promote(a), QQ.promote(1 - a)]
        assert out.alpha.column(1) == [QQ.promote(a), QQ.promote(1 - a)]
        assert out.beta.column(1) == [one, zero]
        assert check_bihom_algebra(out).ok

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
    def test_canonical_terms_materialize_to_kron_matrices(self, field):
        d = cyclic_group_bialgebra(4, field).algebra_part()
        alpha2, beta2 = cyclic_power_map(4, 3, field), cyclic_power_map(4, 2, field)
        p = canonical_pseudotwistor(d, alpha2, beta2)
        assert all(isinstance(t, Kron) for t in (p.T, p.T1tilde, p.T2tilde))
        ident2 = Matrix.identity(field, 16)
        for term, m in ((p.T, kron(alpha2, beta2)), (p.T1tilde, kron(ident2, beta2)),
                        (p.T2tilde, kron(alpha2, ident2))):
            assert Matrix.from_columns(field, images(term)) == m

    def test_matrix_fields_are_read_as_lin(self):
        ident = Matrix.identity(QQ, 2)
        parts = dict(T=Matrix.identity(QQ, 4), T1tilde=Matrix.identity(QQ, 8),
                     T2tilde=Matrix.identity(QQ, 8), alpha2=ident, beta2=ident)
        p = Pseudotwistor(**parts)
        assert isinstance(p.T, Lin) and (p.T.dom, p.T.cod) == ((2, 2), (2, 2))
        assert (p.T2tilde.dom, p.T2tilde.cod) == ((2, 2, 2), (2, 2, 2))
        for name, bad, msg in (("T", Matrix.identity(QQ, 8), "tensor square"),
                               ("T1tilde", Matrix.identity(QQ, 4), "tensor cube"),
                               ("T2tilde", p.T, "tensor cube")):
            with pytest.raises(ShapeMismatch, match=msg):
                Pseudotwistor(**dict(parts, **{name: bad}))

    def test_identity_pseudotwistor(self):
        d = left_projection_algebra()
        ident = Matrix.identity(QQ, 2)
        p = Pseudotwistor(
            T=Matrix.identity(QQ, 4),
            T1tilde=Matrix.identity(QQ, 8),
            T2tilde=Matrix.identity(QQ, 8),
            alpha2=ident,
            beta2=ident.copy(),
        )
        assert check_pseudotwistor(d, p).ok
        out = apply_pseudotwistor(d, p)
        assert out.mu == d.mu

    def test_broken_companion_fails_exchange(self):
        d = left_projection_algebra()
        alpha, beta = parametric_maps(Fraction(3), Fraction(0))
        p = canonical_pseudotwistor(d, alpha, beta)
        bad = Pseudotwistor(
            T=p.T,
            T1tilde=p.T1tilde,
            T2tilde=Matrix.identity(QQ, 8),
            alpha2=p.alpha2,
            beta2=p.beta2,
        )
        report = check_pseudotwistor(d, bad)
        assert not report.ok
        failing = {e.axiom for e in report.failures()}
        assert "companion_exchange" in failing or "T_right_product" in failing
        with pytest.raises(PseudotwistorInvalid):
            apply_pseudotwistor(d, bad)

    def test_canonical_matches_yau_twist_on_random_fixtures(self):
        rng = random.Random(31)
        for _ in range(8):
            d = random_bihom_algebra(rng)
            # multiplicative maps commuting with everything: powers of the
            # structure maps themselves
            alpha2 = mat_mul(d.alpha, d.alpha)
            beta2 = d.beta.copy()
            p = canonical_pseudotwistor(d, alpha2, beta2)
            assert check_pseudotwistor(d, p).ok
            out = apply_pseudotwistor(d, p)
            tw = yau_twist(d, alpha2, beta2)
            assert out.mu == tw.mu
            assert out.alpha == tw.alpha and out.beta == tw.beta
            assert check_bihom_algebra(out).ok

    def test_maps_that_do_not_commute_keep_their_counterexample(self):
        d = cyclic_group_bialgebra(4).algebra_part()
        d = BiHomAlgebra(field=QQ, dim=4, mu=d.mu, alpha=Matrix.diagonal(QQ, [1, 2, 1, 1]),
                         beta=d.beta)
        g3, ident = cyclic_power_map(4, 3), Matrix.identity(QQ, 4)
        with pytest.raises(MapsDoNotCommute) as direct:
            yau_twist(d, g3, ident)
        with pytest.raises(HypothesisFailure) as raised:
            canonical_pseudotwistor(d, g3, ident)
        assert str(raised.value) == "twist hypotheses fail: alpha and alpha2 do not commute"
        assert raised.value.witness == direct.value.witness == ((1, 3), 2, 1)
        assert isinstance(raised.value.__cause__, MapsDoNotCommute)

    def test_other_errors_of_the_commuting_check_pass_through(self):
        ident = Matrix.identity(QQ, 4)
        for alpha, error in ((Matrix.identity(PrimeField(7), 4), MixedFields),
                             (Matrix.identity(QQ, 3), ShapeMismatch)):
            d = cyclic_group_bialgebra(4).algebra_part()
            d.alpha = alpha  # after the structure's own shape check
            with pytest.raises(error) as raised:
                canonical_pseudotwistor(d, ident, ident)
            assert raised.value.__cause__ is None


class TestTwistingMaps:
    def setup_method(self):
        from bihom.bialgebra import twist_module_algebra

        H = cyclic_group_bialgebra(4)
        act = cyclic_self_action(4, 3)
        g3 = cyclic_power_map(4, 3)
        ident = Matrix.identity(QQ, 4)
        self.H2, self.A2, self.act2 = twist_module_algebra(
            H, H.algebra_part(), act, g3, ident, ident, ident, g3, ident
        )
        self.B = self.H2.algebra_part()

    def test_flip_passes(self):
        tw = flip_map(self.A2, self.B)
        assert check_twisting_map(self.A2, self.B, tw).ok

    def test_flip_ttp_is_plain_tensor_product(self):
        tw = flip_map(self.A2, self.B)
        out = twisted_tensor_product(self.A2, self.B, tw)
        plain = tensor_product(self.A2, self.B)
        assert out.same_tensors(plain)
        assert check_bihom_algebra(out).ok

    def test_smash_map_passes(self):
        from bihom.smash import SmashData, smash_twisting_map

        tw = smash_twisting_map(
            SmashData(H=self.H2, A=self.A2, action=self.act2, m=0, n=-1, p=-1)
        )
        assert check_twisting_map(self.A2, self.B, tw).ok

    def test_flip_with_flipped_sign_fails(self):
        tw = flip_map(self.A2, self.B)
        tw.R.e[0][0] = -tw.R.e[0][0]
        report = check_twisting_map(self.A2, self.B, tw)
        assert not report.ok
        assert not report.entry("R_left_product").passed
        assert report.entry("R_left_product").witness is not None
        with pytest.raises(TwistingMapInvalid):
            twisted_tensor_product(self.A2, self.B, tw)

    def test_dimension_guard_names_either_wrong_dimension(self):
        A = cyclic_group_bialgebra(2).algebra_part()
        for tw in (flip_map(A, self.B), flip_map(self.B, A)):  # 2 x 4 and 4 x 2
            with pytest.raises(ShapeMismatch, match="^twisting map dimensions$"):
                check_twisting_map(A, A, tw)

    def test_helper_identity_for_accepted_maps(self):
        from bihom.smash import SmashData, smash_twisting_map

        for (m, n, p) in [(0, -1, -1), (1, 0, 0), (-1, 2, 1)]:
            tw = smash_twisting_map(
                SmashData(H=self.H2, A=self.A2, action=self.act2, m=m, n=n, p=p)
            )
            assert check_twisting_map(self.A2, self.B, tw).ok
            assert helper_identity_witness(self.A2, self.B, tw) is None
        assert helper_identity_witness(self.A2, self.B, flip_map(self.A2, self.B)) is None


class TestTtpPseudotwistor:
    def _small_pair(self):
        rng = random.Random(77)
        a, alphaA, betaA = random_associative_with_endos(
            rng, dim=2, invertible=True, conjugated=False
        )
        b, alphaB, betaB = random_associative_with_endos(
            rng, dim=2, invertible=True, conjugated=False
        )
        at = yau_twist(a, alphaA, betaA)
        bt = yau_twist(b, alphaB, betaB)
        from bihom.twisting import lift_twisting_map

        u = lift_twisting_map(a, b, flip_map(a, b), alphaA, betaA, alphaB, betaB)
        return at, bt, u

    def test_companions_satisfy_all_equations(self):
        from bihom.twisting import ttp_pseudotwistor

        at, bt, u = self._small_pair()
        plain = tensor_product(at, bt)
        p = ttp_pseudotwistor(at, bt, u)
        assert check_pseudotwistor(plain, p).ok

    def test_factors_of_different_dimensions(self):
        from bihom.twisting import ttp_pseudotwistor
        from bihom.twisting import apply_pseudotwistor as apply_p

        rng = random.Random(78)
        a, alphaA, betaA = random_associative_with_endos(
            rng, dim=2, invertible=True, conjugated=False
        )
        b, alphaB, betaB = random_associative_with_endos(
            rng, dim=3, invertible=True, conjugated=False
        )
        at, bt = yau_twist(a, alphaA, betaA), yau_twist(b, alphaB, betaB)
        u = lift_twisting_map(a, b, flip_map(a, b), alphaA, betaA, alphaB, betaB)
        plain = tensor_product(at, bt)
        p = ttp_pseudotwistor(at, bt, u)
        assert check_pseudotwistor(plain, p).ok
        assert apply_p(plain, p).mu == twisted_tensor_product(at, bt, u).mu

    def test_apply_equals_twisted_tensor_product(self):
        from bihom.twisting import ttp_pseudotwistor
        from bihom.twisting import apply_pseudotwistor as apply_p

        at, bt, u = self._small_pair()
        plain = tensor_product(at, bt)
        p = ttp_pseudotwistor(at, bt, u)
        via_pseudotwistor = apply_p(plain, p)
        direct = twisted_tensor_product(at, bt, u)
        assert via_pseudotwistor.mu == direct.mu
        assert via_pseudotwistor.alpha == direct.alpha
        assert via_pseudotwistor.beta == direct.beta

    def test_product_matches_displayed_formula(self):
        # independent oracle: (a (x) b)(a' (x) b') = a a'_R (x) b_R b',
        # expanded per basis tuple without going through the T matrix
        from bihom.linalg import zero_vec

        at, bt, u = self._small_pair()
        out = twisted_tensor_product(at, bt, u)
        da, db = at.dim, bt.dim
        for i in range(da):
            for j in range(db):
                for k in range(da):
                    for l in range(db):
                        expect = zero_vec(QQ, da * db)
                        col = u.R.column(j * da + k)  # R(e_j (x) e_k) in A (x) B
                        for (kr, jr), c in ((divmod(f, db), c) for f, c in enumerate(col) if c):
                            first = at.mu.column(i, kr)
                            second = bt.mu.column(jr, l)
                            for p_ in range(da):
                                if first[p_]:
                                    cp = c * first[p_]
                                    for r in range(db):
                                        if second[r]:
                                            expect[p_ * db + r] = (
                                                expect[p_ * db + r] + cp * second[r]
                                            )
                        got = out.mu.column(i * db + j, k * db + l)
                        assert got == expect


class TestLiftTwistingMap:
    def test_flip_lifts_to_flip_like_map(self):
        rng = random.Random(51)
        a, alphaA, betaA = random_associative_with_endos(rng, dim=2, invertible=True)
        b, alphaB, betaB = random_associative_with_endos(rng, dim=2, invertible=True)
        p = flip_map(a, b)
        u = lift_twisting_map(a, b, p, alphaA, betaA, alphaB, betaB)
        at = yau_twist(a, alphaA, betaA)
        bt = yau_twist(b, alphaB, betaB)
        assert check_twisting_map(at, bt, u).ok
        lhs = twisted_tensor_product(at, bt, u)
        rhs = yau_twist(tensor_product(a, b), kron(alphaA, alphaB), kron(betaA, betaB))
        assert lhs.mu == rhs.mu
        assert lhs.alpha == rhs.alpha and lhs.beta == rhs.beta

    def test_classical_smash_map_lifts_to_r(self):
        # the classical smash twisting map P(h (x) a) = h1.a (x) h2 lifts to
        # exactly the map affording the twisted smash product
        from bihom.smash import SmashData, smash_twisting_map

        H = cyclic_group_bialgebra(4)
        A = H.algebra_part()
        act = cyclic_self_action(4, 3)
        g3 = cyclic_power_map(4, 3)
        ident = Matrix.identity(QQ, 4)
        P = Matrix.zero(QQ, 16, 16)
        for h in range(4):
            for a in range(4):
                src = h * 4 + a
                for (u, v, c) in pairs(H.delta.t[h]):
                    hit = act.action.column(u, a)
                    for i in range(4):
                        if hit[i]:
                            P.e[i * 4 + v][src] = c * hit[i]
        ptw = TwistingMap(R=P, dimA=4, dimB=4)
        u = lift_twisting_map(A, H.algebra_part(), ptw, g3, ident, g3, ident)
        from bihom.bialgebra import twist_module_algebra

        H2, A2, act2 = twist_module_algebra(
            H, A, act, g3, ident, ident, ident, g3, ident
        )
        r = smash_twisting_map(SmashData(H=H2, A=A2, action=act2, m=0, n=-1, p=-1))
        assert mat_eq_witness(u.R, r.R) is None
        # and the twisted tensor products coincide with the twist of the
        # classical twisted tensor product
        at = yau_twist(A, g3, ident)
        ht = yau_twist(H.algebra_part(), g3, ident)
        lhs = twisted_tensor_product(at, ht, u)
        classical = twisted_tensor_product(A, H.algebra_part(), ptw)
        rhs = yau_twist(classical, kron(g3, g3), kron(ident, ident))
        assert lhs.mu == rhs.mu

    def test_corrupted_classical_map_rejected(self):
        # the flip with one corrupted entry fails the classical equations
        b = cyclic_group_bialgebra(2).algebra_part()
        p = flip_map(b, b)
        p.R.e[0][0] = QQ.zero()
        with pytest.raises(HypothesisFailure):
            lift_twisting_map(
                b,
                b,
                p,
                Matrix.identity(QQ, 2),
                Matrix.identity(QQ, 2),
                Matrix.identity(QQ, 2),
                Matrix.identity(QQ, 2),
            )
