"""Axiom.witness evaluates each side a row at a time: every basis index of
the last domain factor at once, with the fixed factor of a product folded
into its table.  These tests compare its verdict and its whole first
witness with a reference that evaluates both sides one basis tuple at a
time in lexicographic order, with the naive loops of bench/oracle.py over
plain Fractions and ints mod 7; for dense bialgebras the reference sums
Delta(ab) = Delta(a)Delta(b) in stages, still one basis pair at a time."""

import random
from fractions import Fraction
from itertools import chain, product

import pytest

from bihom.algebra_core import BiHomAlgebra, associativity, yau_twist
from bihom.axioms import (
    Axiom,
    Comul,
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
    coproduct_tensor,
    counit_invariant,
    fixes,
    images,
    multiplicative,
    unit_law,
    witness,
)
from bihom.bialgebra import (
    BiHomBialgebra,
    check_bihom_bialgebra,
    check_module_bihom_algebra,
)
from bihom.exactnum import QQ, PrimeField
from bihom.lie import BiHomLieAlgebra, check_bihom_lie
from bihom.linalg import Matrix, Tensor3, mat_inverse, mat_mul
from bihom.smash import SmashData, smash_product
from helpers import non_bialgebra_action, oracle, plain

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


# ---------------------------------------------------------------------------
# the rows of a product that folds one factor: mu o (f (x) g), g on one factor
# ---------------------------------------------------------------------------


def fold_row(field, ax, r):
    """Row r of the right side of an axiom whose right side folds one factor."""
    assert ax.rhs.folds() and len(ax.rhs.g.g.dom) == 1
    return _Eval(field).view(ax.rhs, False, rows=True)(r)


def power_map(field, c, k):
    """g -> g^k of k[C_n] on the basis e_i = c_i g_i: e_i -> c_i / c_{ki} e_{ki}."""
    n = len(c)
    return Matrix(field, [[element(field, c[i] / c[k * i % n] if j == k * i % n else 0)
                           for i in range(n)] for j in range(n)])


def twisted_rescaled_group_algebra(field, c, k, l):
    """k[C_n] on the basis e_i = c_i g_i, Yau-twisted by g -> g^k and g -> g^l:
    every product and every column of alpha and beta is one basis vector
    times a fraction."""
    mu, _ = rescaled_group_bialgebra(field, c)
    ident = Matrix.identity(field, len(c))
    a = yau_twist(BiHomAlgebra(field=field, dim=len(c), mu=mu, alpha=ident, beta=ident.copy()),
                  power_map(field, c, k), power_map(field, c, l))
    return a.mu, a.alpha, a.beta


def one_term_coefficients(sc, t):
    """The coefficients of the columns of a tensor with one nonzero entry."""
    nonzero = [[x for x in col if x] for plane in plain(sc, t) for col in plane]
    return {xs[0] for xs in nonzero if len(xs) == 1}


@FIELDS
def test_a_fold_of_one_term_values_with_coefficient_one(field):
    """k[C_5] twisted by two power maps: every left value of the folded side
    is one basis vector with coefficient 1, so each row is a memoized row
    itself; the axioms hold, and each corruption of one constant fails where
    the reference does."""
    mu, _ = group_algebra(field, 5)
    a = yau_twist(BiHomAlgebra(field=field, dim=5, mu=mu, alpha=Matrix.identity(field, 5),
                               beta=Matrix.identity(field, 5)),
                  power_map(field, [1] * 5, 2), power_map(field, [1] * 5, 3))
    sc = scalars(field)
    assert one_term_coefficients(sc, a.mu) == {1}
    cases = [associativity_case(field, a.mu, a.mu, a.alpha, a.beta),
             multiplicative_case(field, a.mu, a.alpha), multiplicative_case(field, a.mu, a.beta)]
    for sc, ax, expected in cases:
        assert expected is None
        assert_same_witness(sc, ax, expected)
    seen = set()
    for bad in corruptions(random.Random(13), field, a.mu):
        for sc, ax, expected in (associativity_case(field, bad, bad, a.alpha, a.beta),
                                 multiplicative_case(field, bad, a.alpha)):
            assert_same_witness(sc, ax, expected)
            if expected is not None:
                seen.add(expected[0][-1])
    assert_mid_row(seen, 5)


@FIELDS
def test_a_fold_of_one_term_values_scaled_by_a_fraction(field):
    """k[C_4] on the basis e_i = c_i g_i, twisted by g -> g^3 and g -> g^2:
    over Q each left value is one basis vector times a fraction, over F_7
    times a residue other than 1, and alpha, beta and mu are over different
    scales.  The axioms hold, so a row scaled wrongly or left unreduced
    fails them; each corruption fails where the reference does."""
    c = [Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3)]
    mu, alpha, beta = twisted_rescaled_group_algebra(field, c, 3, 2)
    sc = scalars(field)
    assert len(one_term_coefficients(sc, mu) - {1}) > 2
    if field == QQ:
        ev, leaves = _Eval(field), [Lin(alpha), Lin(beta), Mul(mu)]
        for leaf in leaves:
            ev.view(leaf)
        assert len({ev.scale(leaf) for leaf in leaves}) == 3
    cases = [associativity_case(field, mu, mu, alpha, beta),
             multiplicative_case(field, mu, alpha), multiplicative_case(field, mu, beta)]
    for sc, ax, expected in cases:
        assert expected is None
        assert_same_witness(sc, ax, expected)
    seen = set()
    for bad in corruptions(random.Random(14), field, mu):
        for sc, ax, expected in (associativity_case(field, bad, bad, alpha, beta),
                                 multiplicative_case(field, bad, beta)):
            assert_same_witness(sc, ax, expected)
            if expected is not None:
                seen.add(expected[0][-1])
    assert_mid_row(seen, 4)


def augmented_left_algebra(field, alpha0):
    """xy = eps(x) y on k^3 with eps = (1, 1, 0), an associative algebra, and
    alpha = id but for alpha(e_0) = alpha0 and alpha(e_2) = e_0 - e_1; alpha
    is multiplicative exactly when eps(alpha0) = 1."""
    eps = [1, 1, 0]
    mu = Tensor3(field, [[[eps[i] * int(k == j) for k in range(3)] for j in range(3)]
                         for i in range(3)])
    columns = [alpha0, [0, 1, 0], [1, -1, 0]]
    alpha = Matrix(field, [[columns[i][j] for i in range(3)] for j in range(3)])
    return mu, alpha


@FIELDS
def test_a_fold_of_several_terms_that_cancel(field):
    """alpha(e_2) = e_0 - e_1 and mu(e_0, y) = mu(e_1, y) for every y: row 2
    of mu o (alpha (x) alpha) sums two equal rows with opposite signs, which
    cancel to zero in every column.  Over F_7 the coefficients are 1 and 6,
    whose sum cancels only mod 7.  alpha is multiplicative and
    alpha(a)(bc) = (ab)c holds; alpha is multiplicative too with
    alpha(e_0) = 8 e_0 - 7 e_1 + 5 e_2, a left value of three terms."""
    mu, alpha = augmented_left_algebra(field, [2, -1, 0])
    ident = Matrix.identity(field, 3)
    sc, ax, expected = multiplicative_case(field, mu, alpha)
    assert expected is None
    assert plain(sc, alpha.e)[1][2] == sc.norm(-1)
    assert fold_row(field, ax, 2) == [[], [], []]
    assert fold_row(field, ax, 0) == [[(0, 2), (1, sc.norm(-1))], [(1, 1)], [(0, 1), (1, sc.norm(-1))]]
    assert_same_witness(sc, ax, expected)
    sc, ax, expected = associativity_case(field, mu, mu, alpha, ident)
    assert expected is None
    assert_same_witness(sc, ax, expected)
    # eps(alpha(e_0)) = 3: alpha fails to be multiplicative in row 0 only
    mu, alpha = augmented_left_algebra(field, [2, 1, 0])
    sc, ax, expected = multiplicative_case(field, mu, alpha)
    assert expected is not None and expected[0] == (0, 0)
    assert_same_witness(sc, ax, expected)
    mu, alpha = augmented_left_algebra(field, [8, -7, 5])
    sc, ax, expected = multiplicative_case(field, mu, alpha)
    assert expected is None
    assert_same_witness(sc, ax, expected)


@FIELDS
def test_a_fold_of_a_zero_left_value(field):
    """alpha(e_0) = 0 on the algebra xy = eps(x) y: row 0 of
    mu o (alpha (x) alpha) folds the zero value and holds one zero image per
    column, while alpha(e_0 e_1) = e_1 is not zero, so the first failure is
    at (0, 1); mu(e_2, y) = 0 gives BiHom-associativity zero left
    values in rows 6 to 8, and it holds."""
    mu, alpha = augmented_left_algebra(field, [0, 0, 0])
    sc, ax, expected = multiplicative_case(field, mu, alpha)
    assert fold_row(field, ax, 0) == [[], [], []]
    assert expected is not None and expected[0] == (0, 1)
    assert_same_witness(sc, ax, expected)
    mu, alpha = augmented_left_algebra(field, [1, 0, 0])
    ident = Matrix.identity(field, 3)
    sc, ax, expected = associativity_case(field, mu, mu, alpha, ident)
    assert all(fold_row(field, ax, r) == [[], [], []] for r in range(6, 9))
    assert expected is None
    assert_same_witness(sc, ax, expected)


@FIELDS
@pytest.mark.parametrize("seed", range(6))
def test_module_associativity_folds_the_action(field, seed):
    """act(alpha(a), act(b, m)) = act(mu(a, b), beta_M(m)) with A of
    dimension 3 and M of dimension 2: the folded rows are the action's, one
    image per basis vector of M, and the left values mu(a, b) have several
    terms with coefficients other than 1."""
    rng = random.Random(40 + seed)
    mu = rand_tensor(rng, field, 3, 3, 3, density=0.7)
    act = rand_tensor(rng, field, 3, 2, 2, density=0.7)
    alpha, beta_m = rand_matrix(rng, field, 3, 3, density=0.7), rand_matrix(rng, field, 2, 2)
    sc, ax, expected = associativity_case(field, act, mu, alpha, beta_m)
    assert len(fold_row(field, ax, 0)) == 2
    assert_same_witness(sc, ax, expected)
    bad = Tensor3(field, act.t)
    bad.t[2][1][0] = bad.t[2][1][0] + field.one()
    assert_same_witness(*associativity_case(field, bad, mu, alpha, beta_m))


# ---------------------------------------------------------------------------
# dense bialgebras, and a coaction that is not multiplicative
# ---------------------------------------------------------------------------


def staged_comultiplicative_case(field, name, coact, mu, mu_left, mu_right, report=None):
    """coact(mu(a, b)) = (mu_left (x) mu_right)(a_1 (x) b_1 (x) a_2 (x) b_2),
    the reference of comultiplicative_case summed in stages so that a dense
    structure of dimension 8 stays cheap: per a, S[q][c][p] = sum over t of
    coact(a)[t][q] mu_left[t][c][p]; per b, T[q][e][p] = sum over c of
    coact(b)[c][e] S[q][c][p]; the coordinate (p, r) is the sum over q and e
    of T[q][e][p] mu_right[q][e][r].  Returns (sc, engine witness, reference
    witness); the engine's is the report entry's when a report is given."""
    sc = scalars(field)

    def fast(x):  # an integral Fraction as an int, for speed
        return [fast(y) for y in x] if isinstance(x, list) else int(x) if x == int(x) else x

    pc, pm, pl, pr = (fast(plain(sc, t)) for t in (coact, mu, mu_left, mu_right))
    n, dw, du = coact.d1, coact.d2, coact.d3

    def stage(i):
        s = [[[0] * dw for _ in range(dw)] for _ in range(du)]
        for t in range(dw):
            for q in range(du):
                x = pc[i][t][q]
                if x:
                    for c in range(dw):
                        row, col = s[q][c], pl[t][c]
                        for p in range(dw):
                            row[p] += x * col[p]
        return s

    stages = {}

    def sides(t):
        i, j = t
        v = oracle.bilinear(sc, pm, oracle.basis(sc, n, i), oracle.basis(sc, n, j))
        lhs = [sc.norm(sum(v[k] * pc[k][p][r] for k in range(n)))
               for p in range(dw) for r in range(du)]
        if i not in stages:
            stages[i] = stage(i)
        s = stages[i]
        rhs = [[0] * du for _ in range(dw)]
        for q in range(du):
            for e in range(du):
                acc = [sum(pc[j][c][e] * s[q][c][p] for c in range(dw) if pc[j][c][e])
                       for p in range(dw)]
                for p, x in enumerate(acc):
                    if x:
                        for r, y in enumerate(pr[q][e]):
                            rhs[p][r] += x * y
        return lhs, [sc.norm(x) for row in rhs for x in row]

    ax = comultiplicative_product(name, coact, mu, mu_left, mu_right)
    got = witness(ax) if report is None else report.entry(name).witness
    return sc, got, first_difference((n, n), sides)


def dense_group_bialgebra(field, n, seed, fractional, two_sided):
    """k[C_n] on the basis e_i = sum_a g[a][i] g_a for g = lower * upper
    unitriangular (upper alone unless two_sided) with random off-diagonal
    entries, fractions among them when fractional: mu and Delta are dense,
    alpha = beta = psi = omega = id."""
    rng = random.Random(seed)
    steps = [0, 1, -1, 2] + ([Fraction(1, 2), Fraction(-1, 3)] if fractional else [])
    lower = Matrix(QQ, [[1 if i == j else rng.choice(steps) if i > j and two_sided else 0
                         for j in range(n)] for i in range(n)])
    upper = Matrix(QQ, [[1 if i == j else rng.choice(steps) if i < j else 0
                         for j in range(n)] for i in range(n)])
    g = mat_mul(lower, upper)
    gi = mat_inverse(g)
    g, gi = g.e, gi.e
    mu = [[[sum(g[a][i] * g[b][j] * gi[k][(a + b) % n] for a in range(n) for b in range(n))
            for k in range(n)] for j in range(n)] for i in range(n)]
    delta = [[[sum(g[a][i] * gi[j][a] * gi[k][a] for a in range(n)) for k in range(n)]
              for j in range(n)] for i in range(n)]

    def tensor(t):
        return Tensor3(field, [[[element(field, x) for x in col] for col in plane]
                               for plane in t])

    ident = [Matrix.identity(field, n) for _ in range(4)]
    return BiHomBialgebra(field=field, dim=n, mu=tensor(mu), delta=tensor(delta),
                          alpha=ident[0], beta=ident[1], psi=ident[2], omega=ident[3],
                          counit=[element(field, sum(g[a][i] for a in range(n)))
                                  for i in range(n)])


DENSE = pytest.mark.parametrize("field, n, fractional, two_sided", [
    (QQ, 4, True, True), (QQ, 6, False, True), (QQ, 8, False, False), (F7, 4, True, True),
    (F7, 6, True, True), (F7, 8, True, False)],
    ids=["Q-4", "Q-6", "Q-8", "F7-4", "F7-6", "F7-8"])


@DENSE
def test_dense_bialgebras_pass_every_axiom(field, n, fractional, two_sided):
    """A dense bialgebra of dimension 4 to 8 passes every axiom of
    check_bihom_bialgebra, and the per-tuple reference of
    Delta(ab) = Delta(a)Delta(b) agrees."""
    H = dense_group_bialgebra(field, n, n, fractional, two_sided)
    assert sum(1 for plane in H.mu.t for col in plane for x in col if x) > n ** 3 // 2
    assert sum(1 for plane in H.delta.t for col in plane for x in col if x) > n ** 2
    report = check_bihom_bialgebra(H)
    assert report.ok, report.failures()
    assert staged_comultiplicative_case(field, "delta_multiplicative", H.delta, H.mu, H.mu,
                                        H.mu, report)[1:] == (None, None)


@DENSE
def test_dense_bialgebras_fail_where_the_reference_does(field, n, fractional, two_sided):
    """One constant of mu, then one of Delta, changed: the witnesses of
    delta_multiplicative and of BiHom-associativity in check_bihom_bialgebra's
    report are the references' first differences."""
    H = dense_group_bialgebra(field, n, n, fractional, two_sided)
    rng = random.Random(n)
    for which in ("mu", "delta"):
        i, j, k = (rng.randrange(n) for _ in range(3))
        bad = Tensor3(field, getattr(H, which).t)
        bad.t[i][j][k] = bad.t[i][j][k] + field.one()
        B = H.replace(**{which: bad})
        report = check_bihom_bialgebra(B)
        sc, got, expected = staged_comultiplicative_case(
            field, "delta_multiplicative", B.delta, B.mu, B.mu, B.mu, report)
        assert expected is not None
        assert_same(sc, "delta_multiplicative", got, expected)
        sc, ax, expected = associativity_case(field, B.mu, B.mu, B.alpha, B.beta)
        assert (expected is None) == (which == "delta")
        assert_same(sc, "bihom_associativity",
                    report.entry("algebra:bihom_associativity").witness, expected)


@FIELDS
def test_a_smash_comodule_whose_coaction_is_not_multiplicative(field):
    """H = k[C_3] with Delta(g) = g (x) g + (1 - g^2) (x) (g - g^2), counital
    but not multiplicative, acting on A = k[C_2] by h.a = eps(h) a: the
    module-algebra axioms hold, and rho(a # h) = (a # h_1) (x) h_2 on A # H
    fails rho_multiplicative where the per-tuple reference does.  A # H and
    rho are built past SmashData.validate, which checks the module-algebra
    axioms only once H passes as a bialgebra."""
    H, A, act = non_bialgebra_action(field)
    assert check_module_bihom_algebra(H, A, act).ok
    D = smash_product(SmashData(H=H, A=A, action=act, _validated=True))
    rho = coproduct_tensor(Kron(Lin(Matrix.identity(field, 2)), Comul(H.delta)), D.dim, H.dim)
    sc, got, expected = staged_comultiplicative_case(field, "rho_multiplicative", rho,
                                                     D.mu, D.mu, H.mu)
    assert got is not None
    assert_same(sc, "rho_multiplicative", got, expected)
