"""Axiom.witness evaluates each side a row at a time: every basis index of
the last domain factor at once, with the fixed factor of a product folded
into its table.  These tests compare its verdict and its whole first
witness with a reference that evaluates both sides one basis tuple at a
time in lexicographic order, with the naive loops of bench/oracle.py over
plain Fractions and ints mod 7."""

import random
from fractions import Fraction
from itertools import chain, product

import pytest

from bihom.algebra_core import associativity
from bihom.axioms import (
    Axiom,
    Compose,
    Kron,
    Lin,
    Mul,
    Neg,
    Perm,
    Sum,
    Vec,
    _Eval,
    comultiplicative_product,
    counit_invariant,
    fixes,
    images,
    multiplicative,
    unit_law,
    witness,
)
from bihom.exactnum import QQ, PrimeField
from bihom.lie import BiHomLieAlgebra, check_bihom_lie
from bihom.linalg import Matrix, Tensor3
from helpers import oracle, plain

F7 = PrimeField(7)
FIELDS = pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])


def scalars(field):
    return oracle.Scalars("Q" if field == QQ else "Fp:7")


def first_difference(dims, sides):
    """(tuple, lhs, rhs) at the first basis tuple, in lexicographic order,
    where the two sides differ, or None."""
    for t in product(*map(range, dims)):
        lhs, rhs = sides(t)
        if lhs != rhs:
            return t, lhs, rhs
    return None


def assert_same(sc, name, got, expected):
    if expected is None:
        assert got is None
    else:
        assert got is not None, f"{name}: the reference fails at {expected[0]}"
        assert (got[0], plain(sc, got[1]), plain(sc, got[2])) == expected


def assert_same_witness(sc, ax, expected):
    assert_same(sc, ax.name, witness(ax), expected)


# ---------------------------------------------------------------------------
# the per-tuple reference for each axiom shape
# ---------------------------------------------------------------------------


def associativity_case(field, act, mu, alpha, beta):
    """act(alpha(a), act(b, c)) = act(mu(a, b), beta(c)) over A (x) A (x) M."""
    sc = scalars(field)
    pa, pm, pal, pbe = plain(sc, act), plain(sc, mu), plain(sc, alpha), plain(sc, beta)
    da, dm = act.d1, act.d2

    def sides(t):
        i, j, k = t
        a, b, c = oracle.basis(sc, da, i), oracle.basis(sc, da, j), oracle.basis(sc, dm, k)
        return (oracle.bilinear(sc, pa, oracle.column(pal, i), oracle.bilinear(sc, pa, b, c)),
                oracle.bilinear(sc, pa, oracle.bilinear(sc, pm, a, b), oracle.column(pbe, k)))

    ax = associativity("assoc", act, mu, alpha, beta)
    return sc, ax, first_difference((da, da, dm), sides)


def multiplicative_case(field, mu, m):
    """m(mu(a, b)) = mu(m(a), m(b))."""
    sc = scalars(field)
    pm, pmap, d = plain(sc, mu), plain(sc, m), mu.d1

    def sides(t):
        i, j = t
        a, b = oracle.basis(sc, d, i), oracle.basis(sc, d, j)
        return (oracle.apply(sc, pmap, oracle.bilinear(sc, pm, a, b)),
                oracle.bilinear(sc, pm, oracle.column(pmap, i), oracle.column(pmap, j)))

    return sc, multiplicative("mult", mu, m), first_difference((d, d), sides)


def unit_case(field, mu, unit, m, side):
    """mu(x, 1) = m(x) or mu(1, x) = m(x)."""
    sc = scalars(field)
    pm, pu, pmap, d = plain(sc, mu), plain(sc, unit), plain(sc, m), mu.d1

    def sides(t):
        (i,) = t
        x = (oracle.basis(sc, d, i), pu) if side == "right" else (pu, oracle.basis(sc, d, i))
        return oracle.bilinear(sc, pm, *x), oracle.column(pmap, i)

    return sc, unit_law("unit", mu, unit, m, side), first_difference((d,), sides)


# ---------------------------------------------------------------------------
# random sparse structures
# ---------------------------------------------------------------------------


def rand_scalar(rng, field, density):
    if rng.random() >= density:
        return 0
    if field == QQ:
        return rng.choice([1, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    return rng.randrange(1, 7)


def rand_tensor(rng, field, d1, d2, d3, density=0.3):
    return Tensor3(field, [[[rand_scalar(rng, field, density) for _ in range(d3)]
                            for _ in range(d2)] for _ in range(d1)])


def rand_matrix(rng, field, rows, cols, density=0.4, zero_column=None):
    m = Matrix(field, [[rand_scalar(rng, field, density) for _ in range(cols)]
                       for _ in range(rows)])
    if zero_column is not None:
        for row in m.e:
            row[zero_column] = field.zero()
    return m


def rand_vector(rng, field, d, density=0.5):
    return [field.promote(rand_scalar(rng, field, density)) for _ in range(d)]


@FIELDS
@pytest.mark.parametrize("seed", range(12))
def test_random_sparse_structures(field, seed):
    rng = random.Random(seed)
    d = rng.choice([1, 2, 3, 4])
    dm = rng.choice([1, 2, 3])
    mu = rand_tensor(rng, field, d, d, d)
    act = rand_tensor(rng, field, d, dm, dm)
    alpha = rand_matrix(rng, field, d, d, zero_column=rng.choice([None, 0]))
    beta, beta_m = rand_matrix(rng, field, d, d), rand_matrix(rng, field, dm, dm)
    unit = rand_vector(rng, field, d)
    cases = [
        associativity_case(field, mu, mu, alpha, beta),
        associativity_case(field, act, mu, alpha, beta_m),
        multiplicative_case(field, mu, alpha),
        unit_case(field, mu, unit, alpha, "right"),
        unit_case(field, mu, unit, beta, "left"),
    ]
    for sc, ax, expected in cases:
        assert_same_witness(sc, ax, expected)


def corruptions(rng, field, mu):
    """mu with one structure constant changed, for every constant in turn."""
    d = mu.d1
    for i, j, k in rng.sample(list(product(range(d), repeat=3)), d ** 3):
        bad = Tensor3(field, mu.t)
        bad.t[i][j][k] = bad.t[i][j][k] + field.one()
        yield bad


def group_algebra(field, n):
    """k[C_n] with alpha = beta = id."""
    mu = Tensor3(field, [[[int(k == (i + j) % n) for k in range(n)] for j in range(n)]
                         for i in range(n)])
    return mu, Matrix.identity(field, n)


@FIELDS
def test_first_failure_mid_row_and_in_the_last_column(field):
    """Corrupting one constant of k[C_4] at a time puts the first failure of
    BiHom-associativity at every column of a row; the witness matches the
    reference at a column inside the row and at the last one."""
    mu, ident = group_algebra(field, 4)
    seen = set()
    for bad in corruptions(random.Random(5), field, mu):
        sc, ax, expected = associativity_case(field, bad, bad, ident, ident)
        assert expected is not None
        assert_same_witness(sc, ax, expected)
        seen.add(expected[0][-1])
    assert {1, 2, 3} <= seen


# ---------------------------------------------------------------------------
# the cases a row could get wrong
# ---------------------------------------------------------------------------


@FIELDS
def test_a_zero_left_factor_gives_a_row_of_zeros(field):
    """alpha(e_0) = 0: the fold of the left factor is zero, and the row at
    prefix (0, j) still holds one zero image per column."""
    rng = random.Random(3)
    mu = rand_tensor(rng, field, 3, 3, 3, density=0.6)
    alpha = rand_matrix(rng, field, 3, 3, density=0.8, zero_column=0)
    beta = rand_matrix(rng, field, 3, 3, density=0.8)
    sc, ax, expected = associativity_case(field, mu, mu, alpha, beta)
    row = _Eval(field).view(ax.lhs, False, rows=True)
    assert all(row(j) == [[], [], []] for j in range(3))  # rows (0, j, *)
    assert expected is not None and expected[0][0] == 0
    assert_same_witness(sc, ax, expected)


@FIELDS
def test_a_last_factor_of_dimension_one(field):
    rng = random.Random(8)
    mu = rand_tensor(rng, field, 3, 3, 3, density=0.6)
    act = rand_tensor(rng, field, 3, 1, 1, density=0.9)
    alpha, beta_m = rand_matrix(rng, field, 3, 3, density=0.8), Matrix(field, [[2]])
    sc, ax, expected = associativity_case(field, act, mu, alpha, beta_m)
    assert ax.lhs.dom[-1] == 1
    assert_same_witness(sc, ax, expected)
    one = Tensor3(field, [[[1]]])
    sc, ax, expected = associativity_case(field, one, one, Matrix(field, [[1]]),
                                          Matrix(field, [[1]]))
    assert expected is None
    assert_same_witness(sc, ax, expected)


@FIELDS
def test_a_sum_that_cancels_to_zero(field):
    """e_1 e_1 = e_0 - e_1 and e_0 e_0 = e_0 e_1, so e_0 (e_1 e_1) sums two
    images that cancel: the entry is the zero value, as the reference's."""
    mu = Tensor3(field, [[[1, 0], [1, 0]], [[0, 1], [0, 1]]])
    mu.t[1][1] = [field.one(), -field.one()]
    ident = Matrix.identity(field, 2)
    sc, ax, expected = associativity_case(field, mu, mu, ident, ident)
    row = _Eval(field).view(ax.lhs, False, rows=True)
    assert row(1)[1] == []  # (0, 1, 1), in row (0, 1, *)
    assert_same_witness(sc, ax, expected)
    sc, ax, expected = multiplicative_case(field, mu, ident)
    assert expected is None
    assert_same_witness(sc, ax, expected)


@FIELDS
def test_labelled_axioms_and_a_domain_of_k(field):
    sc = scalars(field)
    rng = random.Random(4)
    m = rand_matrix(rng, field, 3, 3, density=0.7)
    v = rand_vector(rng, field, 3, density=0.9)
    eps = rand_vector(rng, field, 3, density=0.9)
    pm, pv, peps = plain(sc, m), plain(sc, v), plain(sc, eps)
    moved = oracle.apply(sc, pm, pv)
    lhs = [sc.norm(sum((peps[r] * pm[r][i] for r in range(3)), 0)) for i in range(3)]
    assert moved != pv and lhs != peps  # so each axiom below fails
    # domain k, labelled: the two vectors themselves
    assert_same_witness(sc, fixes("fixes", m, v), (("1",), moved, pv))
    # domain k, unlabelled: the empty tuple
    assert_same_witness(sc, Axiom("fixes", Compose(Lin(m), Vec(v)), Vec(v)), ((), moved, pv))
    # labelled over (3,) with codomain k: every image, as scalars
    assert_same_witness(sc, counit_invariant("eps", eps, m), (("eps",), lhs, peps))


@FIELDS
def test_unit_laws_on_either_side(field):
    """mu(1, x) = Mul o (Vec (x) Id) folds Id into the table and has one
    row, as Vec's domain is k; mu(x, 1) = Mul o (Id (x) Vec) has its last
    domain factor in Id, so it does not fold and gives each tuple's image."""
    rng = random.Random(6)
    mu = rand_tensor(rng, field, 3, 3, 3, density=0.6)
    unit = rand_vector(rng, field, 3, density=0.7)
    for side, folds in (("left", True), ("right", False)):
        sc, ax, expected = unit_case(field, mu, unit, Matrix.identity(field, 3), side)
        assert ax.lhs.folds() is folds
        assert expected is not None
        assert_same_witness(sc, ax, expected)


# ---------------------------------------------------------------------------
# shapes that carry a Perm
# ---------------------------------------------------------------------------


def element(field, x):
    """The rational number x in field (over F_7, its residue)."""
    x = Fraction(x)
    if field == QQ:
        return QQ.promote(x)
    return field.promote(x.numerator * pow(x.denominator, -1, 7))


def twisted_so3(field):
    """[e0, e1] = e2/2, [e1, e2] = e0, [e2, e0] = -3 e1, twisted by the
    commuting automorphisms alpha = diag(1, -1, -1) and beta = diag(-1, 1, -1):
    a BiHom-Lie algebra with bracket [alpha(x), beta(y)]."""
    alpha, beta = [1, -1, -1], [-1, 1, -1]
    t = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), c in {(0, 1, 2): Fraction(1, 2), (1, 2, 0): 1, (2, 0, 1): -3}.items():
        t[i][j][k], t[j][i][k] = alpha[i] * beta[j] * c, -alpha[j] * beta[i] * c
    bracket = Tensor3(field, [[[element(field, x) for x in col] for col in plane]
                              for plane in t])
    return bracket, Matrix.diagonal(field, alpha), Matrix.diagonal(field, beta)


def lie_cases(field, bracket, alpha, beta):
    """(sc, name, engine witness, reference witness) for skew symmetry and
    BiHom-Jacobi as check_bihom_lie states them, and for BiHom-Jacobi split
    into nested + its (1, 2, 0) cycle = -(its (2, 0, 1) cycle), whose sides
    tell the two cycles apart."""
    sc, d = scalars(field), bracket.d1
    pb, pal, pbe = plain(sc, bracket), plain(sc, alpha), plain(sc, beta)

    def twisted(i, j):  # [beta(e_i), alpha(e_j)]
        return oracle.bilinear(sc, pb, oracle.column(pbe, i), oracle.column(pal, j))

    def nested(i, j, k):  # [beta^2(e_i), [beta(e_j), alpha(e_k)]]
        return oracle.bilinear(sc, pb, oracle.apply(sc, pbe, oracle.column(pbe, i)),
                               twisted(j, k))

    def add(*vs):
        return [sc.norm(sum(xs)) for xs in zip(*vs)]

    def neg(v):
        return [sc.norm(-x) for x in v]

    zero = [sc.norm(0)] * d
    report = check_bihom_lie(BiHomLieAlgebra(field, d, bracket, alpha, beta))
    beta_t = Lin(beta)
    nested_t = Compose(Mul(bracket), Kron(Compose(beta_t, beta_t),
                                          Compose(Mul(bracket), Kron(beta_t, Lin(alpha)))))

    def cyclic(order):
        return Compose(nested_t, Perm((d, d, d), order))

    split = Axiom("jacobi_split", Sum(nested_t, cyclic((1, 2, 0))), Neg(cyclic((2, 0, 1))))
    return [
        (sc, "skew_symmetry", report.entry("skew_symmetry").witness,
         first_difference((d, d), lambda t: (twisted(*t), neg(twisted(t[1], t[0]))))),
        (sc, "bihom_jacobi", report.entry("bihom_jacobi").witness,
         first_difference((d, d, d), lambda t: (
             add(nested(*t), nested(t[1], t[2], t[0]), nested(t[2], t[0], t[1])), zero))),
        (sc, "jacobi_split", witness(split),
         first_difference((d, d, d), lambda t: (
             add(nested(*t), nested(t[1], t[2], t[0])), neg(nested(t[2], t[0], t[1]))))),
    ]


def rescaled_group_bialgebra(field, c):
    """k[C_n] on the basis e_i = c_i g_i: e_i e_j = c_i c_j / c_{i+j} e_{i+j}
    and Delta(e_i) = e_i (x) e_i / c_i."""
    n = len(c)
    mu = Tensor3(field, [[[element(field, c[i] * c[j] / c[k] if k == (i + j) % n else 0)
                           for k in range(n)] for j in range(n)] for i in range(n)])
    delta = Tensor3(field, [[[element(field, 1 / c[i] if j == k == i else 0)
                              for k in range(n)] for j in range(n)] for i in range(n)])
    return mu, delta


def comultiplicative_case(field, delta, mu):
    """Delta(mu(a, b)) = (mu (x) mu)(a_1 (x) b_1 (x) a_2 (x) b_2) for
    Delta(a) = a_1 (x) a_2, a sum over the pairs of Delta's coordinates."""
    sc = scalars(field)
    pd, pm, n = plain(sc, delta), plain(sc, mu), mu.d1

    def sides(t):
        i, j = t
        v = oracle.bilinear(sc, pm, oracle.basis(sc, n, i), oracle.basis(sc, n, j))
        lhs = [sc.norm(sum(v[k] * pd[k][p][r] for k in range(n)))
               for p in range(n) for r in range(n)]
        rhs = [0] * (n * n)
        for a, b, c, e in product(range(n), repeat=4):
            x = pd[i][a][b] * pd[j][c][e]
            if x:
                for p, r in product(range(n), repeat=2):
                    rhs[p * n + r] += x * pm[a][c][p] * pm[b][e][r]
        return lhs, [sc.norm(x) for x in rhs]

    ax = comultiplicative_product("comult", delta, mu, mu, mu)
    return sc, ax, first_difference((n, n), sides)


def assert_mid_row(seen, d):
    """Some first failure lies strictly inside its row of d images."""
    assert seen & set(range(1, d - 1)), sorted(seen)


@FIELDS
def test_skew_symmetry_and_jacobi_cyclic_sums(field):
    """Corrupting one bracket constant at a time of a BiHom-Lie algebra with
    a Fraction constant off the first column: the witnesses of Compose(_,
    Swap) and of the cyclic Perm sums match the per-tuple reference."""
    bracket, alpha, beta = twisted_so3(field)
    for sc, name, got, expected in lie_cases(field, bracket, alpha, beta):
        assert expected is None and got is None, name
    seen = {"skew_symmetry": set(), "bihom_jacobi": set(), "jacobi_split": set()}
    for bad in corruptions(random.Random(9), field, bracket):
        for sc, name, got, expected in lie_cases(field, bad, alpha, beta):
            assert_same(sc, name, got, expected)
            if expected is not None:
                seen[name].add(expected[0][-1])
    for name, positions in seen.items():
        assert_mid_row(positions, 3)


@FIELDS
def test_comultiplicative_product_through_the_middle_swap(field):
    """Delta o mu = (mu (x) mu) o Perm(0, 2, 1, 3) o (Delta (x) Delta) on a
    group bialgebra over a rescaled basis, and on each corruption of one
    constant of either.  Over Q, mu's first column is e_0 / 2 and later ones
    hold ninths, so its scale needs the denominators of every column."""
    mu, delta = rescaled_group_bialgebra(field, [Fraction(1, 2), Fraction(2), Fraction(1, 3),
                                                 Fraction(3)])
    sc, ax, expected = comultiplicative_case(field, delta, mu)
    assert expected is None
    assert_same_witness(sc, ax, expected)
    seen = set()
    rng = random.Random(2)
    for bad_mu, bad_delta in chain(((bad, delta) for bad in corruptions(rng, field, mu)),
                                   ((mu, bad) for bad in corruptions(rng, field, delta))):
        sc, ax, expected = comultiplicative_case(field, bad_delta, bad_mu)
        assert_same_witness(sc, ax, expected)
        if expected is not None:
            seen.add(expected[0][-1])
    assert_mid_row(seen, 4)


@FIELDS
def test_a_product_of_vectors_reads_rows_of_a_fractional_tensor(field):
    """mu(x, y) as images(Mul o (Vec (x) Vec)): over Q mu's only Fractions
    lie in the rows outside x's support, so the product's scale comes from
    rows that the value never reads."""
    sc = scalars(field)
    rng = random.Random(12)
    for _ in range(8):
        mu = rand_tensor(rng, field, 4, 3, 3, density=0.6)
        for i, plane in enumerate(mu.t):
            for col in plane:
                for k, x in enumerate(col):
                    if i < 2 and field == QQ:  # rows 0 and 1: integral
                        col[k] = QQ.promote(x.numerator * (2 * x.denominator - 1))
                    elif i >= 2 and field == QQ and x:  # rows 2 and 3: never integral
                        col[k] = x + Fraction(1, 3)
        assert field != QQ or any(type(v) is Fraction for plane in mu.t[2:] for col in plane
                                  for v in col)
        x = [element(field, c) for c in (2, -1, 0, 0)]
        y = rand_vector(rng, field, 3, density=0.7)
        got = images(Compose(Mul(mu), Kron(Vec(x), Vec(y))))
        assert len(got) == 1
        assert plain(sc, got[0]) == oracle.bilinear(sc, plain(sc, mu), plain(sc, x), plain(sc, y))
