import random
from fractions import Fraction

import pytest

from bihom.errors import Inconsistent, MixedFields, ShapeMismatch, Singular
from bihom.axioms import (
    Compose, Comul, Kron, Lin, Mul, Neg, Sum, Vec, coproduct_tensor, images, twisted_product,
)
from bihom.exactnum import QQ, QQ_Q, PrimeField
from bihom.linalg import (
    Matrix,
    Tensor3,
    kernel,
    kron,
    mat_inverse,
    mat_mul,
    mat_power,
    rank,
    solve_affine,
    solve_linear,
    solve_unique,
    unit_vec,
    vec_tensor,
)

from helpers import rand_fraction


def M(rows):
    return Matrix(QQ, rows)


def product(mu, x, y):
    """The bilinear map with structure constants mu on two coordinate lists,
    as the axiom engine evaluates it."""
    return images(Compose(Mul(mu), Kron(Vec(x), Vec(y))))[0]


class TestMatMul:
    def test_identity(self):
        m = M([[1, 2], [3, 4]])
        assert mat_mul(Matrix.identity(QQ, 2), m) == m

    def test_involution(self):
        s = M([[0, 1], [1, 0]])
        assert mat_mul(s, s) == Matrix.identity(QQ, 2)

    def test_diagonal_product(self):
        assert mat_mul(Matrix.diagonal(QQ, [1, 2]), Matrix.diagonal(QQ, [3, 1])) == (
            Matrix.diagonal(QQ, [3, 2])
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mat_mul(M([[1, 2]]), M([[1, 2]]))


class TestEmptyShapes:
    def test_no_rows_keeps_the_column_count(self):
        for m in (Matrix.zero(QQ, 0, 3), Matrix.from_columns(QQ, [[], [], []])):
            assert (m.rows, m.cols) == (0, 3)

    def test_kernel_of_a_system_with_no_equations(self):
        assert kernel(Matrix.from_columns(QQ, [[], []])) == [unit_vec(QQ, 2, 0),
                                                             unit_vec(QQ, 2, 1)]


class TestInverse:
    def test_identity(self):
        assert mat_inverse(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)

    def test_diagonal(self):
        inv = mat_inverse(Matrix.diagonal(QQ, [2, 3]))
        assert inv == Matrix.diagonal(QQ, [Fraction(1, 2), Fraction(1, 3)])

    def test_unipotent_by_multiplication(self):
        m = M([[1, 1], [0, 1]])
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == Matrix.identity(QQ, 2)
        assert inv == M([[1, -1], [0, 1]])

    def test_singular_carries_rank(self):
        with pytest.raises(Singular) as exc:
            mat_inverse(M([[1, 2], [2, 4]]))
        assert exc.value.rank == 1

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.choice([2, 3, 4])
            m = Matrix(QQ, [[rand_fraction(rng) for _ in range(n)] for _ in range(n)])
            try:
                inv = mat_inverse(m)
            except Singular:
                continue
            assert mat_mul(m, inv) == Matrix.identity(QQ, n)
            assert mat_mul(inv, m) == Matrix.identity(QQ, n)


class TestSolve:
    def test_identity_system(self):
        v = [Fraction(3), Fraction(-1)]
        assert solve_unique(Matrix.identity(QQ, 2), v) == v

    def test_kernel_single_relation(self):
        basis = kernel(M([[1, 1]]))
        assert len(basis) == 1
        v = basis[0]
        # spans the line through (1, -1)
        assert v[0] * Fraction(-1) == v[1]
        assert not any(M([[1, 1]]).apply(v))

    def test_kernel_rank_four(self):
        # random 6x6 built as a product of 6x4 and 4x6, so rank <= 4;
        # the rank oracle is row reduction on the construction
        rng = random.Random(11)
        while True:
            p = Matrix(QQ, [[rand_fraction(rng) for _ in range(4)] for _ in range(6)])
            q = Matrix(QQ, [[rand_fraction(rng) for _ in range(6)] for _ in range(4)])
            a = mat_mul(p, q)
            if rank(a) == 4:
                break
        basis = kernel(a)
        assert len(basis) == 2
        for v in basis:
            assert not any(a.apply(v))

    def test_inconsistent(self):
        with pytest.raises(Inconsistent):
            solve_unique(M([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)])

    def test_affine_substitution(self):
        rng = random.Random(5)
        a = Matrix(QQ, [[rand_fraction(rng) for _ in range(4)] for _ in range(3)])
        x = [rand_fraction(rng) for _ in range(4)]
        b = a.apply(x)
        res = solve_affine(a, b)
        assert res is not None
        particular, null = res
        assert a.apply(particular) == b
        for v in null:
            assert not any(a.apply(v))

    def test_solve_linear_surface(self):
        assert solve_linear(M([[1, 1]])) == kernel(M([[1, 1]]))
        x, null = solve_linear(Matrix.identity(QQ, 2), [Fraction(1), Fraction(2)])
        assert x == [Fraction(1), Fraction(2)] and null == []


class TestBilinear:
    def test_one_dimensional(self):
        mu = Tensor3(QQ, [[[1]]])
        assert product(mu, [Fraction(2)], [Fraction(3)]) == [Fraction(6)]

    def test_family_one_product_value(self):
        # mu1(e2, e2) = -a^2(b-2)/(b-1)^2 e1 + a e2 at a=3, b=2 gives 3 e2
        from bihom.algebra_core import example_family

        a = example_family(1, 3, 2)
        out = a.multiply(unit_vec(QQ, 2, 1), unit_vec(QQ, 2, 1))
        assert out == [Fraction(0), Fraction(3)]

    def test_bilinearity_random(self):
        rng = random.Random(9)
        mu = Tensor3(
            QQ,
            [
                [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
                for _ in range(3)
            ],
        )
        x = [rand_fraction(rng) for _ in range(3)]
        x2 = [rand_fraction(rng) for _ in range(3)]
        y = [rand_fraction(rng) for _ in range(3)]
        lhs = product(mu, [a + b for a, b in zip(x, x2)], y)
        rhs = [a + b for a, b in zip(product(mu, x, y), product(mu, x2, y))]
        assert lhs == rhs

    def test_shape_mismatch(self):
        mu = Tensor3(QQ, [[[1]]])
        with pytest.raises(ShapeMismatch):
            product(mu, [Fraction(1), Fraction(2)], [Fraction(1)])


class TestKronAndPowers:
    def test_kron_applies_to_tensor_vectors(self):
        rng = random.Random(2)
        a = Matrix(QQ, [[rand_fraction(rng) for _ in range(2)] for _ in range(2)])
        b = Matrix(QQ, [[rand_fraction(rng) for _ in range(3)] for _ in range(3)])
        u = [rand_fraction(rng) for _ in range(2)]
        v = [rand_fraction(rng) for _ in range(3)]
        assert kron(a, b).apply(vec_tensor(u, v, QQ)) == vec_tensor(a.apply(u), b.apply(v), QQ)

    def test_matrix_powers(self):
        # [[1, 1], [0, 1]]^k = [[1, k], [0, 1]] for every integer k
        for k in range(-3, 4):
            assert mat_power(M([[1, 1], [0, 1]]), k) == M([[1, k], [0, 1]])
        nilpotent = M([[0, 1], [0, 0]])
        assert mat_power(nilpotent, 0) == Matrix.identity(QQ, 2)
        assert mat_power(nilpotent, 1) == nilpotent
        assert mat_power(nilpotent, 2) == M([[0, 0], [0, 0]])
        for k in (-1, -2, -3):
            with pytest.raises(Singular):
                mat_power(nilpotent, k)

    def test_prime_field_matrices(self):
        f3 = PrimeField(3)
        m = Matrix(f3, [[1, 2], [2, 2]])
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == Matrix.identity(f3, 2)


class TestMixedFields:
    """Q entries are plain ints and F_p arithmetic accepts ints, so mixing
    is caught where two containers meet."""

    F7 = PrimeField(7)

    def test_q_entries_are_ints(self):
        m = M([[Fraction(2), 0], [1, Fraction(4, 2)]])
        assert all(type(x) is int for row in m.e for x in row)

    def test_mat_mul_and_kron(self):
        q, f = M([[1, 2], [0, 1]]), Matrix(self.F7, [[1, 2], [0, 1]])
        for a, b in ((q, f), (f, q)):
            with pytest.raises(MixedFields, match="^matrix product across fields$"):
                mat_mul(a, b)
            with pytest.raises(MixedFields, match="^kron across fields$"):
                kron(a, b)

    def test_products_of_plain_vectors(self):
        # a plain list carries no field, so the engine checks its entries
        mu_q, mu_f = Tensor3(QQ, [[[1, 1]]]), Tensor3(self.F7, [[[1, 1]]])
        with pytest.raises(MixedFields, match="^map terms across fields$"):
            product(mu_q, [self.F7.one()], [self.F7.one()])
        with pytest.raises(MixedFields, match="^map terms across fields$"):
            product(mu_f, [Fraction(1, 2)], [self.F7.one()])
        assert product(mu_f, [self.F7.one()], [self.F7.from_int(3)]) == [
            self.F7.from_int(3), self.F7.from_int(3)]
        from bihom.algebra_core import example_family

        with pytest.raises(MixedFields, match="^map terms across fields$"):
            example_family(1, 3, 2).multiply([self.F7.one(), 0], [1, 0])

    def test_products_take_int_coordinates_in_any_field(self):
        # an int is a scalar of every field, as each field's promote takes it
        mu_f = Tensor3(self.F7, [[[1, 1]]])
        assert product(mu_f, [QQ.one()], [3]) == [
            self.F7.from_int(3), self.F7.from_int(3)]
        mu_q = Tensor3(QQ_Q, [[[1, 1]]])
        assert product(mu_q, [1], [2]) == [QQ_Q.from_int(2)] * 2
        from bihom.bialgebra import is_primitive
        from bihom.fixtures import cyclic_group_bialgebra

        kc4 = cyclic_group_bialgebra(4, self.F7)
        assert kc4.multiply([1, 0, 0, 0], [0, 1, 0, 0]) == [
            self.F7.from_int(v) for v in (0, 1, 0, 0)]
        # a product by one is skipped, so an int must be a field element
        # before it reaches a product: 7 is zero in F_7
        assert kc4.multiply([7, 0, 0, 0], [1, 0, 0, 0]) == [self.F7.zero()] * 4
        assert kc4.multiply([3, 5, 0, 0], [1, 1, 0, 0]) == [
            self.F7.from_int(v) for v in (3, 1, 5, 0)]
        assert is_primitive(kc4, [7, 0, 0, 0])
        prod_q = cyclic_group_bialgebra(4, QQ_Q).multiply([3, 5, 0, 0], [1, 1, 0, 0])
        assert prod_q == [QQ_Q.from_int(v) for v in (3, 8, 5, 0)]
        assert {type(x) for x in prod_q} == {type(QQ_Q.one())}

    def test_computed_integral_entries_are_ints(self):
        # Fraction arithmetic can give an integral Fraction; every container
        # stores it as an int
        half, two, m = M([[Fraction(1, 2)]]), M([[2]]), M([[2, 1], [0, 2]])
        one_dim = Tensor3(QQ, [[[1]]])
        tensors = [
            mat_mul(half, two).e, mat_inverse(mat_inverse(m)).e, [half.apply([2])],
            kron(half, two).e, twisted_product(one_dim, half, two).t[0],
            coproduct_tensor(Compose(Kron(Lin(half), Lin(two)), Comul(one_dim))).t[0],
            [product(one_dim, [Fraction(1, 2)], [2])], images(Compose(Lin(two), Lin(half))),
            images(Sum(Lin(M([[Fraction(3, 2)]])), Neg(Lin(M([[Fraction(1, 2)]]))))),
            [vec_tensor([Fraction(1, 2)], [2], QQ)],
        ]
        entries = [x for rows in tensors for row in rows for x in row]
        assert entries and all(type(x) is int or x.denominator != 1 for x in entries)
        assert any(type(x) is int and x for x in entries)
