"""The axiom engine on sparse values: cancellation, scalar and labelled
witnesses, the sparse form of bilinear_apply, raw coefficients over
different scales, and Kronecker factors, over Q and F_7 (and Q(q) for
bilinear_apply, witness scalars and the factors)."""

import random
from fractions import Fraction

import pytest

from bihom.axioms import (
    Axiom,
    Compose,
    Covec,
    Kron,
    Lin,
    Mul,
    Neg,
    Perm,
    Sum,
    Vec,
    Zero,
    _Eval,
    check,
    counit_invariant,
    fixes,
    holds,
    images,
    witness,
)
from bihom.errors import ShapeMismatch
from bihom.exactnum import QQ, QQ_Q, PrimeField, PrimeFieldElement, RationalFunction
from bihom.linalg import Matrix, Tensor3, bilinear_apply, kron, mat_mul

F7 = PrimeField(7)
FIELDS = pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
ALL_FIELDS = pytest.mark.parametrize("field", [QQ, F7, QQ_Q], ids=["Q", "F7", "Qq"])


def group_c2(field):
    """k[C_2]: e_i e_j = e_{i+j mod 2}, with counit (1, 1)."""
    return Tensor3(field, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])


def value(term, t):
    """The nonzero pairs the engine computes for term at basis tuple t, each
    keyed by its row-major index."""
    index = 0
    for i, d in zip(t, term.dom):
        index = index * d + i
    return _Eval(term.field or QQ).view(term, False)(index)


# ---------------------------------------------------------------------------
# coefficients that cancel
# ---------------------------------------------------------------------------


@FIELDS
def test_sum_with_its_negative_is_zero(field):
    m = Lin(Matrix(field, [[1, 2], [0, 3]]))
    side = Sum(m, Neg(m))
    assert value(side, (0,)) == [] and value(side, (1,)) == []
    assert holds(Axiom("cancel", side, Zero((2,), (2,))))
    assert holds(Axiom("cancel", side, Lin(Matrix.zero(field, 2, 2))))


@FIELDS
def test_cancelling_summand_leaves_the_leaf(field):
    m, n = Matrix(field, [[1, 2], [0, 3]]), Lin(Matrix(field, [[5, 0], [1, 1]]))
    side = Sum(Lin(m), Sum(n, Neg(n)))
    assert holds(Axiom("cancel", side, Lin(m)))
    assert holds(Axiom("cancel", Sum(Lin(m), n), Sum(n, Lin(m))))


@FIELDS
def test_composite_through_a_nonzero_middle_cancels(field):
    # e_0 -> e_0 - e_1 -> (1 - 1) e_0 + (2 - 2) e_1
    inner = Lin(Matrix(field, [[1, 0], [-1, 0]]))
    outer = Lin(Matrix(field, [[1, 1], [2, 2]]))
    side = Compose(outer, inner)
    assert value(inner, (0,)) != [] and value(side, (0,)) == []
    assert holds(Axiom("cancel", side, Zero((2,), (2,))))
    assert holds(Axiom("cancel", side, Lin(Matrix.zero(field, 2, 2))))


@FIELDS
def test_product_of_pure_tensor_cancels(field):
    # (e_0 + e_1)(e_0 + e_1) with e_0 e_0 = e_0, e_1 e_1 = -e_0, e_0 e_1 = e_1 e_0 = 0
    mu = Tensor3(field, [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]])
    one = Vec([field.one(), field.one()])
    side = Compose(Mul(mu), Kron(one, one))
    assert value(side, ()) == []
    assert holds(Axiom("cancel", side, Zero((), (2,))))
    assert holds(Axiom("cancel", side, Vec([field.zero(), field.zero()])))


def test_cancellation_depends_on_the_field():
    # 3 + 4 is 0 in F_7 only
    def axiom(field):
        return Axiom("three_plus_four", Sum(Lin(Matrix(field, [[3]])), Lin(Matrix(field, [[4]]))),
                     Zero((1,), (1,)))

    assert holds(axiom(F7))
    assert witness(axiom(QQ)) == ((0,), [QQ.from_int(7)], [QQ.zero()])


# ---------------------------------------------------------------------------
# scalar and labelled witnesses
# ---------------------------------------------------------------------------


def eps_multiplicative(mu, eps):
    """eps o mu = eps (x) eps, a map to k."""
    return Axiom("eps_mul", Compose(Covec(eps), Mul(mu)), Kron(Covec(eps), Covec(eps)))


@FIELDS
def test_scalar_codomain_witness(field):
    mu, eps = group_c2(field), [field.one(), field.one()]
    assert holds(eps_multiplicative(mu, eps))
    mu.t[1][1][0] = mu.t[1][1][0] + 1
    report = check([eps_multiplicative(mu, eps)])
    assert not report.ok
    w = report.entry("eps_mul").witness
    assert w == ((1, 1), field.from_int(2), field.one())
    assert not isinstance(w[1], list) and not isinstance(w[2], list)


@FIELDS
def test_fixes_witness_is_the_whole_vector(field):
    m, v = Matrix.identity(field, 2), [field.one(), field.zero()]
    assert holds(fixes("alpha_fixes", m, v))
    m.e[1][0] = m.e[1][0] + 1
    assert witness(fixes("alpha_fixes", m, v)) == (("1",), [field.one(), field.one()], v)


@FIELDS
def test_counit_invariant_witness_lists_every_basis_vector(field):
    eps, m = [field.one(), field.zero(), field.one()], Matrix.identity(field, 3)
    assert holds(counit_invariant("eps_alpha", eps, m))
    m.e[0][1] = m.e[0][1] + 1
    assert witness(counit_invariant("eps_alpha", eps, m)) == (
        ("eps",), [field.one(), field.one(), field.one()], eps)


# ---------------------------------------------------------------------------
# bilinear_apply: the engine's product of plain lists against the sparse form
# ---------------------------------------------------------------------------


def pairs(vec):
    """The nonzero pairs of vec, as the engine lists them."""
    return [(i, x) for i, x in enumerate(vec) if x]


def scalars(field):
    """The entries random_case draws: zeros and ones weigh most, as in the
    tables of group algebras and their twists."""
    out = [field.from_int(n) for n in (0, 0, 0, 1, 1, 1, -1, 2, 3)]
    if field == QQ_Q:
        q = RationalFunction.q_power(1)
        out += [q, (q + 1) / (QQ_Q.one() - q)]
    return out


def random_case(rng, field):
    d1, d2, d3 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    choices = scalars(field)

    def entry():
        return rng.choice(choices)

    def unit(k):
        return [field.one() if m == k else field.zero() for m in range(d3)]

    mu = Tensor3.from_function(field, d1, d2, d3, lambda i, j: [entry() for _ in range(d3)])
    rows = rng.sample(range(d1), min(d1, 2))
    mu.t[rows[0]] = [unit(j % d3) for j in range(d2)]  # an identity-like row
    if d1 > 1:
        mu.t[rows[1]] = [[field.zero()] * d3 for _ in range(d2)]  # a zero row
    j = rng.randrange(d2)
    for plane in mu.t:  # a zero column
        plane[j] = [field.zero()] * d3
    x, y = [entry() for _ in range(d1)], [entry() for _ in range(d2)]
    return mu, x, y


def naive(mu, x, y, zero):
    """sum_ij x_i y_j mu[i][j][k] for every k."""
    return [sum((x[i] * y[j] * mu[i][j][k] for i in range(len(x)) for j in range(len(y))), zero)
            for k in range(len(mu[0][0]))]


@ALL_FIELDS
def test_bilinear_apply_list_and_sparse_forms_agree(field):
    rng = random.Random(6)
    for _ in range(300):
        mu, x, y = random_case(rng, field)
        dense = images(Compose(Mul(mu), Kron(Vec(x), Vec(y))))[0]
        table = [[pairs(col) for col in plane] for plane in mu.t]
        sparse = bilinear_apply(table, pairs(x), pairs(y), 0)
        expect = naive(mu.t, x, y, field.zero())
        assert dense == expect
        assert all(c for _, c in sparse)
        assert dict(sparse) == {k: c for k, c in enumerate(expect) if c}


def test_bilinear_apply_on_raw_ints_is_the_triple_sum():
    """The engine hands bilinear_apply raw ints: numerators over Q, and over
    F_p residues whose sums it reduces."""
    rng = random.Random(16)
    for _ in range(200):
        d1, d2, d3 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)

        def entry():
            return rng.choice([0, 0, 1, 1, -1, 6, 10007])

        mu = [[[entry() for _ in range(d3)] for _ in range(d2)] for _ in range(d1)]
        x, y = [entry() for _ in range(d1)], [entry() for _ in range(d2)]
        table = [[pairs(col) for col in plane] for plane in mu]
        expect = naive(mu, x, y, 0)
        out = bilinear_apply(table, pairs(x), pairs(y), 0)
        assert all(type(c) is int and c for _, c in out)
        assert dict(out) == {k: c for k, c in enumerate(expect) if c}
        residues = [[[c % 7 for c in col] for col in plane] for plane in mu]
        out = bilinear_apply([[pairs(col) for col in plane] for plane in residues],
                             pairs([c % 7 for c in x]), pairs([c % 7 for c in y]), 7)
        assert all(0 < c < 7 for _, c in out)
        assert dict(out) == {k: c % 7 for k, c in enumerate(expect) if c % 7}


# ---------------------------------------------------------------------------
# raw coefficients: sides over different scales, and the field elements of witnesses
# ---------------------------------------------------------------------------


def lin(field, rows):
    return Lin(Matrix(field, rows))


def test_sides_over_different_scales():
    # both sides are the identity of Q^2, over the scales 2 and 3
    half, third = Fraction(1, 2), Fraction(1, 3)
    lhs = Compose(lin(QQ, [[half, 0], [0, half]]), lin(QQ, [[2, 0], [0, 2]]))
    rhs = Compose(lin(QQ, [[third, 0], [0, third]]), lin(QQ, [[3, 0], [0, 3]]))
    assert holds(Axiom("same", lhs, rhs))
    # e_0 goes to e_0 on both sides, e_1 to e_1 / 2 and e_1 / 3
    w = witness(Axiom("differ", lin(QQ, [[1, 0], [0, half]]), lin(QQ, [[1, 0], [0, third]])))
    assert w == ((1,), [0, half], [0, third])
    assert [type(x) for x in w[1] + w[2]] == [int, Fraction, int, Fraction]
    # lowest terms: 3/6 is reported as 1/2 and 6/6 as 1
    w = witness(Axiom("lowest", Compose(lin(QQ, [[half]]), lin(QQ, [[third]]), lin(QQ, [[3]])),
                      lin(QQ, [[third]])))
    assert w == ((0,), [half], [third]) and type(w[1][0]) is Fraction
    assert witness(Axiom("one", Compose(lin(QQ, [[half]]), lin(QQ, [[2]])), lin(QQ, [[2]]))) == (
        (0,), [1], [2])


def test_sum_across_scales_cancels_to_zero():
    half, third = Fraction(1, 2), Fraction(1, 3)
    one_over_2 = Compose(lin(QQ, [[half, 0], [0, 1]]), lin(QQ, [[2, 0], [0, 1]]))
    one_over_3 = Compose(lin(QQ, [[third, 0], [0, 1]]), lin(QQ, [[3, 0], [0, 1]]))
    side = Sum(one_over_2, Neg(one_over_3))
    assert value(side, (0,)) == [] and value(side, (1,)) == []
    assert holds(Axiom("cancel", side, Zero((2,), (2,))))
    assert images(Sum(one_over_2, one_over_3)) == [[2, 0], [0, 2]]


def test_coprime_large_denominators():
    p, q = Fraction(1, 10007), Fraction(1, 10009)
    total = Sum(lin(QQ, [[p]]), lin(QQ, [[q]]))
    assert holds(Axiom("sum", total, lin(QQ, [[p + q]])))
    assert images(total) == [[Fraction(20016, 10007 * 10009)]]
    w = witness(Axiom("sum", total, lin(QQ, [[p]])))
    assert w == ((0,), [p + q], [p])
    assert w[1][0].denominator == 10007 * 10009


@pytest.mark.parametrize("field, entry, kind", [
    (QQ, 2, int), (QQ, Fraction(2, 3), Fraction), (F7, 2, PrimeFieldElement),
    (QQ_Q, 2, RationalFunction)], ids=["Q_int", "Q_fraction", "F7", "Qq"])
def test_witness_scalars_are_field_elements(field, entry, kind):
    m = lin(field, [[field.promote(entry), 0], [0, 1]])
    lhs, rhs = witness(Axiom("doubled", Compose(m, lin(field, [[1, 0], [0, 1]])),
                             lin(field, [[1, 0], [0, 1]])))[1:]
    assert lhs == [field.promote(entry), field.zero()] and rhs == [field.one(), field.zero()]
    assert type(lhs[0]) is kind and type(rhs[0]) is type(field.one())
    assert type(images(m)[0][0]) is kind


# ---------------------------------------------------------------------------
# Kronecker factors: Kron terms against their matrices, and fusing aligned composites
# ---------------------------------------------------------------------------

SQUARE, CUBE = (2, 2), (2, 2, 2)


def generic(field):
    """A scalar that is not an integer in Q(q)."""
    return field.parse("q") if field == QQ_Q else field.from_int(3)


def factor_pair(field):
    """A and B with a zero entry each, and a product that is no Kronecker product."""
    g = generic(field)
    a, b = Matrix(field, [[g, 2], [0, 1]]), Matrix(field, [[1, 1], [0, g]])
    other = Matrix(field, [[1, 2, 0, 1], [0, 1, 1, 0], [3, 0, 1, 0], [0, 0, 1, g]])
    return a, b, other


def factors(term):
    return _Eval(term.field).factors(term)


def commute(m, other, dims):
    """m o other = other o m, with both matrices as maps on dims; m may be
    a term already."""
    x = Lin(m, dims, dims) if isinstance(m, Matrix) else m
    y = Lin(other, dims, dims)
    return Axiom("commute", Compose(x, y), Compose(y, x))


def assert_same_as_flat(m, other):
    """The verdict and witness on 2 (x) 2 factors are those on one factor of 4."""
    split, flat = witness(commute(m, other, SQUARE)), witness(commute(m, other, (4,)))
    if split is None:
        assert flat is None
    else:
        (i, j), lhs, rhs = split
        assert flat == ((2 * i + j,), lhs, rhs)


def bumped_product(field):
    a, b, _ = factor_pair(field)
    m = kron(a, b)
    m.e[0][0] = m.e[0][0] + 1
    return m


@ALL_FIELDS
def test_kron_product_splits(field):
    """A Kron of Lin factors has them as its factors, and gives the verdicts
    and witnesses of one Lin of its kron matrix."""
    a, b, other = factor_pair(field)
    m, term = kron(a, b), Kron(Lin(a), Lin(b))
    assert [f.data for f in factors(term)] == [a, b]
    for o in (other, kron(b, a), kron(mat_mul(a, a), b), bumped_product(field)):
        assert witness(commute(term, o, SQUARE)) == witness(commute(m, o, SQUARE))
        assert_same_as_flat(m, o)
    assert witness(commute(term, other, SQUARE)) is not None
    assert witness(commute(term, kron(mat_mul(a, a), b), SQUARE)) is None
    assert holds(Axiom("kron", term, Lin(m, SQUARE, SQUARE)))
    (t, lhs, rhs) = witness(Axiom("kron", term, Lin(bumped_product(field), SQUARE, SQUARE)))
    assert t == (0, 0) and rhs[0] == lhs[0] + 1 and rhs[1:] == lhs[1:]


@ALL_FIELDS
def test_identity_factors_become_id(field):
    a, _, _ = factor_pair(field)
    kinds = [(type(f).__name__, f.dom) for f in factors(Kron(Lin(a), Perm(SQUARE, (0, 1))))]
    assert kinds == [("Lin", (2,)), ("Perm", (2,)), ("Perm", (2,))]


def non_products(field):
    a, b, _ = factor_pair(field)
    extra, missing = kron(a, b), kron(a, b)
    extra.e[2][0] = field.one()  # the product is 0 there: a is 0 at (1, 0)
    missing.e[3][3] = field.zero()
    return {"bumped": bumped_product(field), "extra": extra, "missing": missing,
            "zero": Matrix.zero(field, 4, 4)}


@ALL_FIELDS
@pytest.mark.parametrize("case", ["bumped", "extra", "missing", "zero"])
def test_non_products_do_not_split(field, case):
    """A Lin is one factor whatever its entries."""
    a, b, other = factor_pair(field)
    m = non_products(field)[case]
    assert len(factors(Lin(m, SQUARE, SQUARE))) == 1
    for o in (other, kron(a, b), m):
        assert_same_as_flat(m, o)
    assert_same_as_flat(kron(a, b), m)
    if case != "zero":
        assert witness(commute(m, kron(a, b), SQUARE)) is not None


@ALL_FIELDS
def test_misaligned_krons_take_the_generic_path(field):
    a, b, other = factor_pair(field)
    assert len(factors(Lin(other, SQUARE, SQUARE))) == 1
    f = Kron(Lin(a), Lin(other, SQUARE, SQUARE))  # boundary after factor 1
    g = Kron(Lin(other, SQUARE, SQUARE), Lin(b))  # boundary after factor 2
    assert _Eval(field).fused(f, g) is None
    dense = Lin(mat_mul(kron(a, other), kron(other, b)), CUBE, CUBE)
    assert holds(Axiom("generic", Compose(f, g), dense))
    bumped = dense.data.copy()
    bumped.e[5][1] = bumped.e[5][1] + 1
    assert witness(Axiom("generic", Compose(f, g), Lin(bumped, CUBE, CUBE)))[0] == (0, 0, 1)


class Counted(Lin):
    """A Lin leaf that counts the basis tuples it is evaluated on."""

    __slots__ = ()
    calls = 0

    def compile(self, ev, memo):
        fn = super().compile(ev, memo)

        def counted(t):
            Counted.calls += 1
            return fn(t)

        return counted


@ALL_FIELDS
def test_composites_over_the_same_children_share_one_fused_term(field):
    a, b, _ = factor_pair(field)
    f, g = Kron(Counted(a), Counted(b)), Kron(Lin(b), Lin(a))
    first, second = Compose(f, g), Compose(f, g)
    ev = _Eval(field)
    fused = ev.fused(first.f, first.g)
    assert isinstance(fused, Kron) and ev.fused(second.f, second.g) is fused
    Counted.calls = 0
    lhs = [ev.view(first, False)(t) for t in range(4)]
    calls = Counted.calls
    assert calls > 0
    assert [ev.view(second, False)(t) for t in range(4)] == lhs
    assert Counted.calls == calls
    assert holds(Axiom("fused", first, Lin(mat_mul(kron(a, b), kron(b, a)), SQUARE, SQUARE)))


@ALL_FIELDS
def test_a_fused_composite_is_memoized_once(field):
    a, b, _ = factor_pair(field)
    f, g = Kron(Lin(a), Lin(b)), Kron(Lin(b), Lin(a))
    ev = _Eval(field)
    assert ev.view(Compose(f, g)) is ev.view(ev.fused(f, g))


class TestEntriesAssignedAfterConstruction:
    """An F_p container built with field elements and then given a plain
    int entry is read with the int reduced mod p."""

    def test_an_int_equal_mod_p_keeps_the_verdict(self):
        from bihom.algebra_core import check_bihom_algebra
        from bihom.fixtures import cyclic_group_bialgebra

        A = cyclic_group_bialgebra(3, F7).algebra_part()
        expect = check_bihom_algebra(A).entries
        A.mu.t[1][1][2] = 8  # g g = g^2, and 8 = 1 mod 7
        A.alpha.e[0][0] = -6
        assert check_bihom_algebra(A).entries == expect

    def test_an_int_that_differs_mod_p_fails_with_field_elements(self):
        from bihom.algebra_core import check_bihom_algebra
        from bihom.fixtures import cyclic_group_bialgebra

        A = cyclic_group_bialgebra(3, F7).algebra_part()
        A.mu.t[1][1][2] = 9
        entry = check_bihom_algebra(A).entry("bihom_associativity")
        assert not entry.passed
        assert entry.witness == ((1, 1, 2), [0, 1, 0], [0, 2, 0])
        assert {type(x) for x in entry.witness[1] + entry.witness[2]} == {PrimeFieldElement}


# ---------------------------------------------------------------------------
# the shape guards of the terms, Neg.field, and a Compose that cannot fuse
# ---------------------------------------------------------------------------


def square(field, n):
    return Matrix.identity(field, n)


SHAPE_GUARDS = [
    (lambda f: Lin(Matrix.zero(f, 2, 3), dom=(2,)), "2x3 matrix as a map (2,) -> (2,)"),
    (lambda f: Perm((2, 3), (0, 0)), "(0, 0) is not a permutation of 2 factors"),
    (lambda f: Compose(Lin(square(f, 2)), Lin(square(f, 3))),
     "composing a map on (2,) after a map into (3,)"),
    (lambda f: Sum(Lin(square(f, 2)), Lin(square(f, 3))),
     "adding maps (2,) -> (2,) and (3,) -> (3,)"),
    (lambda f: Axiom("unit_law", Lin(square(f, 2)), Lin(square(f, 3))),
     "unit_law: sides map (2,) -> (2,) and (3,) -> (3,)"),
]


@FIELDS
@pytest.mark.parametrize("build, message", SHAPE_GUARDS,
                         ids=["Lin", "Perm", "Compose", "Sum", "Axiom"])
def test_a_term_of_the_wrong_shape_names_both_shapes(field, build, message):
    with pytest.raises(ShapeMismatch) as exc:
        build(field)
    assert str(exc.value) == message


@ALL_FIELDS
def test_a_negated_leaf_carries_its_field(field):
    m = Matrix(field, [[1, 2], [0, 3]])
    neg = Neg(Lin(m))
    assert neg.field is field
    assert images(neg) == [[-x for x in col] for col in zip(*m.e)]


@FIELDS
def test_a_compose_through_k_does_not_fuse_and_matches_the_dense_product(field):
    """(v (x) 1) o (c (x) 1): the factors Vec and Covec have no domain or
    no codomain, so no inner boundary is shared."""
    v, c, one = [1, 2, 0], [3, 0, 1], Lin(square(field, 2))
    f, g = Kron(Vec(v), one), Kron(Covec(c), one)
    assert _Eval(field).fused(f, g) is None
    column, row = Matrix(field, [[x] for x in v]), Matrix(field, [c])
    dense = mat_mul(kron(column, one.data), kron(row, one.data))
    assert images(Compose(f, g)) == [list(col) for col in zip(*dense.e)]
