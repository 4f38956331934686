import random
from fractions import Fraction

import pytest

from bihom.algebra_core import (
    BiHomAlgebra,
    LeftModule,
    check_bihom_algebra,
    check_left_module,
    endomorphism_algebra,
    example_family,
    find_unit,
    fixed_subalgebra,
    monomial_substitution,
    tensor_product,
    truncated_polynomial_algebra,
    untwist,
    yau_twist,
)
from bihom.errors import (
    DegenerateParameter,
    MapsDoNotCommute,
    NotMultiplicative,
    Singular,
)
from bihom.exactnum import QQ
from bihom.linalg import (
    Matrix,
    Tensor3,
    unit_vec,
)

from helpers import random_associative_with_endos


def diag_algebra_2():
    """k x k with the swap automorphism."""
    one, zero = QQ.one(), QQ.zero()
    mu = Tensor3.zero(QQ, 2, 2, 2)
    mu.t[0][0][0] = one
    mu.t[1][1][1] = one
    ident = Matrix.identity(QQ, 2)
    a = BiHomAlgebra(
        field=QQ, dim=2, mu=mu, alpha=ident, beta=ident.copy(), unit=[one, one]
    )
    swap = Matrix(QQ, [[zero, one], [one, zero]])
    return a, swap


class TestExampleFamilies:
    def test_family1_structure_table(self):
        a = example_family(1, 3, 2)
        # alpha(e2) = 2a/(b-1) e1 - e2 = 6 e1 - e2
        assert a.alpha.column(1) == [Fraction(6), Fraction(-1)]
        assert a.beta.column(1) == [Fraction(-3), Fraction(2)]
        assert a.mu.column(1, 1) == [Fraction(0), Fraction(3)]
        assert a.unit == [Fraction(1), Fraction(0)]
        assert check_bihom_algebra(a).ok

    def test_family2_structure_values(self):
        a = example_family(2, 1, 5)
        # b(1-a)/a = 0, so alpha(e2) = e2; mu(e2,e2) = b/a e2 = 5 e2
        assert a.alpha.column(1) == [Fraction(0), Fraction(1)]
        assert a.mu.column(1, 1) == [Fraction(0), Fraction(5)]
        assert check_bihom_algebra(a).ok

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameter):
            example_family(1, 3, 1)
        with pytest.raises(DegenerateParameter):
            example_family(2, 0, 5)

    def test_twenty_random_admissible_pairs(self):
        rng = random.Random(42)
        for _ in range(20):
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if b != 1:
                assert check_bihom_algebra(example_family(1, a, b)).ok
            if a != 0:
                assert check_bihom_algebra(example_family(2, a, b)).ok


class TestCheck:
    def test_associative_identity_maps(self):
        a, _ = diag_algebra_2()
        report = check_bihom_algebra(a)
        assert report.ok
        assert "bihom_associativity" in report.axiom_ids()

    def test_corrupted_product_has_witness(self):
        a = example_family(1, 3, 2)
        a.mu.t[1][0] = [QQ.zero(), QQ.one()]  # mu(e2, e1) := e2
        report = check_bihom_algebra(a)
        assert not report.ok
        entry = report.entry("bihom_associativity")
        assert not entry.passed
        idx, lhs, rhs = entry.witness
        assert len(idx) == 3
        assert lhs != rhs

    def test_unit_axioms_reported_separately(self):
        a = example_family(1, 3, 2)
        ids = check_bihom_algebra(a).axiom_ids()
        for axiom in (
            "unit_fixed_by_alpha",
            "unit_fixed_by_beta",
            "unit_right_action",
            "unit_left_action",
        ):
            assert axiom in ids


class TestYauTwist:
    def test_truncated_polynomial_square_map(self):
        a = truncated_polynomial_algebra(QQ, 16)
        alpha = monomial_substitution(QQ, 16, 2)
        twisted = yau_twist(a, alpha, Matrix.identity(QQ, 16))
        assert check_bihom_algebra(twisted).ok
        # X * X = alpha(X) X = X^3
        x = unit_vec(QQ, 16, 1)
        assert twisted.multiply(x, x) == unit_vec(QQ, 16, 3)

    def test_identity_twist_unchanged(self):
        a = example_family(2, Fraction(1, 2), 1)
        t = yau_twist(a, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
        assert t.same_tensors(a)

    def test_swap_twist_of_diagonal_algebra(self):
        a, swap = diag_algebra_2()
        t = yau_twist(a, swap, Matrix.identity(QQ, 2))
        assert check_bihom_algebra(t).ok

    def test_non_multiplicative_rejected(self):
        a, _ = diag_algebra_2()
        bad = Matrix(QQ, [[1, 1], [0, 1]])
        with pytest.raises(NotMultiplicative) as exc:
            yau_twist(a, bad, Matrix.identity(QQ, 2))
        assert exc.value.witness is not None

    def test_non_commuting_rejected(self):
        a = truncated_polynomial_algebra(QQ, 4)
        # X -> 2X and X -> X + X^2 do not commute
        s1 = monomial_substitution(QQ, 4, 1, scale=2)
        s2 = Matrix.zero(QQ, 4, 4)
        s2.e[0][0] = QQ.one()
        img = [QQ.zero(), QQ.one(), QQ.one(), QQ.zero()]
        cur = unit_vec(QQ, 4, 0)
        for i in range(1, 4):
            cur = a.multiply(cur, img)
            for r in range(4):
                s2.e[r][i] = cur[r]
        with pytest.raises(MapsDoNotCommute):
            yau_twist(a, s1, s2)


class TestUntwist:
    def test_round_trip(self):
        rng = random.Random(1)
        a, alpha, beta = random_associative_with_endos(rng, invertible=True)
        t = yau_twist(a, alpha, beta)
        back = untwist(t)
        assert back.mu == a.mu
        assert back.alpha == back.beta == Matrix.identity(QQ, a.dim)

    def test_family2_untwists_to_associative(self):
        a = example_family(2, Fraction(1, 2), 1)
        u = untwist(a)
        report = check_bihom_algebra(u)
        assert report.ok  # identity maps, so this is plain associativity

    def test_singular_map_rejected(self):
        one, zero = QQ.one(), QQ.zero()
        mu = Tensor3(QQ, [[[one, zero], [one, zero]], [[zero, one], [zero, one]]])
        btilde = Matrix(QQ, [[one, one], [zero, zero]])
        d = BiHomAlgebra(
            field=QQ, dim=2, mu=mu, alpha=Matrix.identity(QQ, 2), beta=btilde
        )
        with pytest.raises(Singular):
            untwist(d)


class TestTensorProduct:
    def test_unit_factor_is_isomorphic_copy(self):
        a = example_family(1, 3, 2)
        one_dim = BiHomAlgebra(
            field=QQ,
            dim=1,
            mu=Tensor3(QQ, [[[1]]]),
            alpha=Matrix.identity(QQ, 1),
            beta=Matrix.identity(QQ, 1),
            unit=[QQ.one()],
        )
        t = tensor_product(a, one_dim)
        assert t.dim == a.dim
        assert t.mu == a.mu and t.alpha == a.alpha and t.beta == a.beta

    def test_family_tensor_family(self):
        t = tensor_product(example_family(1, 3, 2), example_family(2, Fraction(1, 2), 1))
        assert t.dim == 4
        assert check_bihom_algebra(t).ok
        assert t.unit == [QQ.one(), QQ.zero(), QQ.zero(), QQ.zero()]

    def test_dimensions(self):
        a = truncated_polynomial_algebra(QQ, 2)
        b = truncated_polynomial_algebra(QQ, 3)
        assert tensor_product(a, b).dim == 6


class TestEndomorphismAlgebra:
    def test_identity_pair_is_matrix_algebra(self):
        ident = Matrix.identity(QQ, 2)
        e = endomorphism_algebra(ident, ident.copy())
        assert check_bihom_algebra(e).ok
        assert e.unit == [QQ.one(), QQ.zero(), QQ.zero(), QQ.one()]
        # E11 E12 = E12 in the plain matrix algebra
        assert e.multiply(unit_vec(QQ, 4, 0), unit_vec(QQ, 4, 1)) == unit_vec(QQ, 4, 1)

    def test_diagonal_pair_unit_laws(self):
        u = Matrix.diagonal(QQ, [1, 2])
        v = Matrix.diagonal(QQ, [3, 1])
        e = endomorphism_algebra(u, v)
        assert check_bihom_algebra(e).ok
        assert e.unit == [Fraction(3), Fraction(0), Fraction(0), Fraction(1)]
        for i in range(4):
            ei = unit_vec(QQ, 4, i)
            assert e.multiply(ei, e.unit) == e.alpha.column(i)
            assert e.multiply(e.unit, ei) == e.beta.column(i)

    def test_non_commuting_rejected(self):
        u = Matrix(QQ, [[1, 1], [0, 1]])
        v = Matrix(QQ, [[1, 0], [1, 1]])
        with pytest.raises(MapsDoNotCommute):
            endomorphism_algebra(u, v)

    def test_singular_rejected(self):
        u = Matrix(QQ, [[1, 0], [0, 0]])
        with pytest.raises(Singular):
            endomorphism_algebra(u, Matrix.identity(QQ, 2))


class TestFixedSubalgebra:
    def test_identity_maps_gives_everything(self):
        a, _ = diag_algebra_2()
        sub, basis = fixed_subalgebra(a)
        assert sub.dim == a.dim
        assert check_bihom_algebra(sub).ok

    def test_endomorphism_algebra_fixed_diagonals(self):
        e = endomorphism_algebra(Matrix.diagonal(QQ, [1, 2]), Matrix.diagonal(QQ, [3, 1]))
        sub, basis = fixed_subalgebra(e)
        assert sub.dim == 2  # diagonal matrices
        assert check_bihom_algebra(sub).ok
        for v in basis:
            # fixed vectors have zero off-diagonal entries (indices 1 and 2)
            assert not v[1] and not v[2]

    def test_family1_contains_unit(self):
        a = example_family(1, 3, 2)
        sub, basis = fixed_subalgebra(a)
        assert sub.unit is not None
        assert sub.dim >= 1


class TestFindUnit:
    def test_family1(self):
        assert find_unit(example_family(1, 3, 2)) == [Fraction(1), Fraction(0)]

    def test_zero_algebra_has_none(self):
        a = BiHomAlgebra(
            field=QQ,
            dim=1,
            mu=Tensor3.zero(QQ, 1, 1, 1),
            alpha=Matrix.identity(QQ, 1),
            beta=Matrix.identity(QQ, 1),
        )
        assert find_unit(a) is None

    def test_endomorphism_algebra_unit_is_v(self):
        v = Matrix.diagonal(QQ, [3, 1])
        e = endomorphism_algebra(Matrix.diagonal(QQ, [1, 2]), v)
        assert find_unit(e) == [Fraction(3), Fraction(0), Fraction(0), Fraction(1)]


class TestLeftModules:
    def test_regular_module(self):
        a = example_family(1, 3, 2)
        mod = LeftModule(dim=2, action=a.mu, alphaM=a.alpha, betaM=a.beta)
        assert check_left_module(a, mod).ok

    def test_zero_action_without_unit(self):
        a = BiHomAlgebra(
            field=QQ,
            dim=2,
            mu=Tensor3.zero(QQ, 2, 2, 2),
            alpha=Matrix.identity(QQ, 2),
            beta=Matrix.identity(QQ, 2),
        )
        mod = LeftModule(
            dim=2,
            action=Tensor3.zero(QQ, 2, 2, 2),
            alphaM=Matrix.identity(QQ, 2),
            betaM=Matrix.identity(QQ, 2),
        )
        assert check_left_module(a, mod).ok

    def test_corrupted_action_fails(self):
        a = example_family(1, 3, 2)
        action = Tensor3(QQ, [[list(col) for col in plane] for plane in a.mu.t])
        action.t[1][1] = [QQ.one(), QQ.one()]
        mod = LeftModule(dim=2, action=action, alphaM=a.alpha, betaM=a.beta)
        report = check_left_module(a, mod)
        assert not report.ok


class TestSquareMapTwistObstruction:
    """The k[X]/(X^16) twist with alpha(X) = X^2 cannot be Hom-associative."""

    def setup_method(self):
        self.n = 16
        base = truncated_polynomial_algebra(QQ, self.n)
        self.alpha = monomial_substitution(QQ, self.n, 2)
        self.a = yau_twist(base, self.alpha, Matrix.identity(QQ, self.n))

    def mono(self, i):
        return unit_vec(QQ, self.n, i)

    def test_twisted_algebra_valid(self):
        assert check_bihom_algebra(self.a).ok

    def test_displayed_computation(self):
        c = Fraction(1)
        theta = monomial_substitution(QQ, self.n, 3, scale=c)
        star = self.a.multiply
        # X * X = X^3
        assert star(self.mono(1), self.mono(1)) == self.mono(3)
        # theta(X) = c X^3 is the unique shape surviving the degree count
        # on theta(X)*(X*X) = (X*X)*theta(X), which indeed holds:
        assert (star(theta.apply(self.mono(1)), star(self.mono(1), self.mono(1)))
                == star(star(self.mono(1), self.mono(1)), theta.apply(self.mono(1))))
        # but theta(X^2) * (X * X) = c^2 X^15 while (X^2 * X) * theta(X) = c X^13
        lhs = star(theta.apply(self.mono(2)), star(self.mono(1), self.mono(1)))
        rhs = star(star(self.mono(2), self.mono(1)), theta.apply(self.mono(1)))
        assert lhs == [c * c * x for x in self.mono(15)]
        assert rhs == [c * x for x in self.mono(13)]
        assert lhs != rhs
