"""The axiom engine against a naive reference, through the public API only.

The reference builds the dense matrix of every term from its definition,
one column per domain basis tuple in the order of ``itertools.product``,
with field arithmetic and no sparsity; its witness is the first column,
in that order, where the two sides differ.  Each case is compared on
``images``, ``witness`` and ``check``: terms with identity factors on
either side of a Kron, Vec and Covec factors, permutations that move
factors, both folds of a product Mul o (f (x) g), and failing cases whose
witness has three factors and falls strictly inside its row, over Q with
fractional scales, F_7 and Q(q)."""

import random
from fractions import Fraction
from itertools import product

import pytest

from bihom.algebra_core import associativity
from bihom.axioms import (
    Axiom,
    Comul,
    Compose,
    Covec,
    Id,
    Kron,
    Lin,
    Mul,
    Neg,
    Perm,
    Sum,
    Vec,
    Zero,
    check,
    comultiplicative_product,
    images,
    witness,
)
from bihom.exactnum import QQ, QQ_Q, PrimeField
from bihom.linalg import Matrix, Tensor3

F7 = PrimeField(7)
ALL_FIELDS = pytest.mark.parametrize("field", [QQ, F7, QQ_Q], ids=["Q", "F7", "Qq"])


# ---------------------------------------------------------------------------
# the reference: dense columns, one per domain basis tuple
# ---------------------------------------------------------------------------


def tuples(dims):
    return list(product(*map(range, dims)))


def size(dims):
    return len(tuples(dims))


def unit(field, n, k):
    return [field.one() if i == k else field.zero() for i in range(n)]


def reference(term, field):
    """The columns of term: the dense image of every domain basis tuple,
    row-major over the codomain."""
    if isinstance(term, Lin):
        return [list(col) for col in zip(*term.data.e)] or [[] for _ in range(term.data.cols)]
    if isinstance(term, Vec):
        return [[field.promote(x) for x in term.data]]
    if isinstance(term, Covec):
        return [[field.promote(x)] for x in term.data]
    if isinstance(term, Mul):
        return [list(col) for plane in term.data.t for col in plane]
    if isinstance(term, Comul):
        return [[x for row in plane for x in row] for plane in term.data.t]
    if isinstance(term, Perm):
        place = {t: n for n, t in enumerate(tuples(term.cod))}
        return [unit(field, size(term.cod), place[tuple(t[o] for o in term.order)])
                for t in tuples(term.dom)]
    if isinstance(term, Zero):
        return [[field.zero()] * size(term.cod) for _ in tuples(term.dom)]
    if isinstance(term, Neg):
        return [[-x for x in col] for col in reference(term.f, field)]
    f, g = reference(term.f, field), reference(term.g, field)
    if isinstance(term, Sum):
        return [[x + y for x, y in zip(a, b)] for a, b in zip(f, g)]
    if isinstance(term, Kron):
        return [[x * y for x in a for y in b] for a in f for b in g]
    assert isinstance(term, Compose)
    out = []
    for col in g:
        acc = [field.zero()] * size(term.cod)
        for u, c in enumerate(col):
            acc = [x + c * y for x, y in zip(acc, f[u])]
        out.append(acc)
    return out


def expected_witness(ax, field):
    """(tuple, lhs, rhs) at the first differing domain tuple, or the label
    and every image of both sides; a scalar where the codomain is k."""
    lhs, rhs = reference(ax.lhs, field), reference(ax.rhs, field)
    shown = (lambda col: col[0]) if not ax.lhs.cod else (lambda col: col)
    if ax.label is not None:
        if lhs == rhs:
            return None
        sides = [[shown(col) for col in cols] for cols in (lhs, rhs)]
        if not ax.lhs.dom:
            sides = [side[0] for side in sides]
        return (ax.label, sides[0], sides[1])
    for t, x, y in zip(tuples(ax.lhs.dom), lhs, rhs):
        if x != y:
            return t, shown(x), shown(y)
    return None


def assert_matches(ax, field):
    expected = expected_witness(ax, field)
    assert witness(ax) == expected
    return expected


# ---------------------------------------------------------------------------
# random structures
# ---------------------------------------------------------------------------


def scalars(field):
    """Nonzero entries: fractions over Q, so that sides carry different
    scales, and non-constant functions over Q(q)."""
    if field == QQ:
        return [1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
    if field == F7:
        return [field.from_int(n) for n in range(1, 7)]
    q = QQ_Q.parse("q")
    return [QQ_Q.one(), -QQ_Q.one(), q, (q + 1) / (QQ_Q.one() - q), QQ_Q.promote(Fraction(1, 2))]


def entry(rng, field, density):
    return rng.choice(scalars(field)) if rng.random() < density else field.zero()


def matrix(rng, field, rows, cols, density=0.5):
    return Matrix(field, [[entry(rng, field, density) for _ in range(cols)] for _ in range(rows)])


def tensor(rng, field, d1, d2, d3, density=0.4):
    return Tensor3(field, [[[entry(rng, field, density) for _ in range(d3)] for _ in range(d2)]
                           for _ in range(d1)])


def vector(rng, field, d, density=0.7):
    return [entry(rng, field, density) for _ in range(d)]


def pinned(term, field):
    """A Lin with term's matrix, over term's domain and codomain factors."""
    cols = reference(term, field)
    rows = [list(r) for r in zip(*cols)]
    return Lin(Matrix(field, rows), term.dom, term.cod)


def bumped(lin, field, column, row):
    """lin with one entry raised, by 1/3 over Q so the scale changes too."""
    m = Matrix(field, lin.data.e)
    m.e[row][column] = m.e[row][column] + field.promote(Fraction(1, 3) if field == QQ else 1)
    return Lin(m, lin.dom, lin.cod)


def mid_row_columns(dom):
    """Columns of domain tuples whose last index is neither the first nor
    the last of its row."""
    return [n for n, t in enumerate(tuples(dom)) if 0 < t[-1] < dom[-1] - 1]


def terms(rng, field):
    """Named terms, each with a three-factor domain unless named otherwise."""
    a, b = matrix(rng, field, 2, 2), matrix(rng, field, 3, 3)
    six, twelve = matrix(rng, field, 6, 6), matrix(rng, field, 12, 12)
    mu2, mu3 = tensor(rng, field, 2, 2, 2), tensor(rng, field, 3, 3, 3)
    act = tensor(rng, field, 2, 3, 3)
    v, c = vector(rng, field, 2), vector(rng, field, 3)
    cube = (2, 2, 3)
    return {
        "id_left": Kron(Id(2), Lin(a), Lin(b)),
        "id_right": Kron(Lin(a), Lin(b), Id(3)),
        "id_two_factors_left": Kron(Perm((2, 3), (0, 1)), Lin(b)),
        "id_two_factors_right": Kron(Lin(a), Perm((3, 3), (0, 1))),
        "id_left_composed": Compose(Lin(twelve, cube, cube), Kron(Id(2), Lin(a), Lin(b))),
        "id_right_composed": Compose(Kron(Lin(a), Lin(a), Id(3)), Lin(twelve, cube, cube)),
        "fused_with_identity": Compose(Kron(Lin(a), Id(2), Lin(b)), Kron(Lin(a), Lin(a), Id(3))),
        "vec_factor": Compose(Mul(act), Kron(Vec(v), Id(3))),  # domain (3,)
        "vec_in_kron": Kron(Lin(a), Vec(c), Lin(a), Lin(b)),
        "covec_in_kron": Kron(Lin(a), Covec(v), Lin(b)),
        "covec_last": Kron(Lin(a), Lin(a), Covec(c)),
        "covec_after_comul": Compose(Kron(Covec(c), Id(3)), Comul(mu3)),  # domain (3,)
        "perm_021": Compose(Kron(Lin(a), Lin(six, (3, 2), (3, 2))), Perm(cube, (0, 2, 1))),
        "perm_021_after": Compose(Perm(cube, (0, 2, 1)), Kron(Lin(a), Lin(a), Lin(b))),
        "perm_120": Compose(Kron(Lin(a), Id(3), Lin(a)), Perm(cube, (1, 2, 0))),
        "fold_one_factor": Compose(Mul(act), Kron(Mul(mu2), Lin(b))),
        "fold_two_factors": Compose(Mul(act), Kron(Lin(a), Mul(act))),
        "fold_of_composite": Compose(Mul(mu3), Kron(Lin(b), Compose(Mul(mu3),
                                                                    Kron(Lin(b), Lin(b))))),
        "sum_and_neg": Sum(Kron(Lin(a), Id(2), Lin(b)), Neg(Kron(Id(2), Lin(a), Id(3)))),
    }


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------


@ALL_FIELDS
@pytest.mark.parametrize("seed", range(3))
def test_images_match_the_reference(field, seed):
    for name, term in terms(random.Random(seed), field).items():
        assert images(term) == reference(term, field), name


@ALL_FIELDS
@pytest.mark.parametrize("seed", range(3))
def test_every_term_holds_against_its_matrix_and_fails_mid_row(field, seed):
    """term = its pinned matrix holds either way round; raising one entry of
    the matrix at a column strictly inside a row fails there, with the
    reference's witness, whichever side the term is on."""
    rng = random.Random(seed)
    for name, term in terms(rng, field).items():
        lin = pinned(term, field)
        assert witness(Axiom(name, term, lin)) is None, name
        assert witness(Axiom(name, lin, term)) is None, name
        columns = mid_row_columns(term.dom) if len(term.dom) == 3 else range(size(term.dom))
        column = rng.choice(columns)
        bad = bumped(lin, field, column, rng.randrange(size(term.cod)))
        for ax in (Axiom(name, term, bad), Axiom(name, bad, term)):
            expected = assert_matches(ax, field)
            assert expected[0] == tuples(term.dom)[column], name
            if len(term.dom) == 3:
                assert len(expected[0]) == 3 and 0 < expected[0][-1] < term.dom[-1] - 1


@ALL_FIELDS
def test_one_check_call_over_every_case(field):
    """The cases of one field as one table, so every memo is shared: each
    report entry is the reference's verdict and witness."""
    rng = random.Random(7)
    table, expected = [], []
    for name, term in terms(rng, field).items():
        lin = pinned(term, field)
        bad = bumped(lin, field, size(term.dom) - 1, 0)
        for ax in (Axiom(name + ":pass", term, lin), Axiom(name + ":fail", bad, term)):
            table.append(ax)
            expected.append(expected_witness(ax, field))
    report = check(table)
    assert [e.witness for e in report.entries] == expected
    assert [e.passed for e in report.entries] == [w is None for w in expected]


@ALL_FIELDS
def test_labelled_axiom_over_a_kron_domain(field):
    rng = random.Random(2)
    term = terms(rng, field)["covec_in_kron"]
    lin = pinned(term, field)
    assert witness(Axiom("whole", term, lin, label=("all",))) is None
    ax = Axiom("whole", term, bumped(lin, field, 5, 0), label=("all",))
    assert assert_matches(ax, field)[0] == ("all",)


def corrupted(rng, field, t, how_many=1):
    t = Tensor3(field, t.t)
    for _ in range(how_many):
        i, j, k = rng.randrange(t.d1), rng.randrange(t.d2), rng.randrange(t.d3)
        t.t[i][j][k] = t.t[i][j][k] + field.one()
    return t


def group_algebra(field, n):
    """k[C_n] with Delta(g) = g (x) g."""
    mu = Tensor3(field, [[[int(k == (i + j) % n) for k in range(n)] for j in range(n)]
                         for i in range(n)])
    delta = Tensor3(field, [[[int(j == k == i) for k in range(n)] for j in range(n)]
                            for i in range(n)])
    return mu, delta


@ALL_FIELDS
@pytest.mark.parametrize("seed", range(4))
def test_comultiplicative_product_spread(field, seed):
    """Delta o mu = (mu (x) mu) o (id (x) swap (x) id) o (Delta (x) Delta),
    whose right side moves factors by the permutation (0, 2, 1, 3)."""
    rng = random.Random(seed)
    mu, delta = group_algebra(field, 3)
    ax = comultiplicative_product("comult", delta, mu, mu, mu)
    assert assert_matches(ax, field) is None
    for bad in (corrupted(rng, field, delta), corrupted(rng, field, mu)):
        for ax in (comultiplicative_product("comult", bad, mu, mu, mu),
                   comultiplicative_product("comult", delta, bad, bad, bad)):
            assert_matches(ax, field)
    random_delta = tensor(rng, field, 2, 2, 2)
    random_mu = tensor(rng, field, 2, 2, 2)
    assert_matches(comultiplicative_product("comult", random_delta, random_mu, random_mu,
                                            random_mu), field)


@ALL_FIELDS
@pytest.mark.parametrize("seed", range(4))
def test_associativity_folds_both_sides(field, seed):
    """act o (alpha (x) act) folds the inner product of its two last factors,
    act o (mu (x) beta) the single factor beta; a corrupted constant fails
    at the reference's witness."""
    rng = random.Random(seed)
    mu, _ = group_algebra(field, 3)
    ident = Matrix.identity(field, 3)
    assert assert_matches(associativity("assoc", mu, mu, ident, ident), field) is None
    seen = set()
    for _ in range(6):
        bad = corrupted(rng, field, mu)
        expected = assert_matches(associativity("assoc", bad, bad, ident, ident), field)
        if expected is not None:
            seen.add(expected[0][-1])
    alpha, beta = matrix(rng, field, 3, 3), matrix(rng, field, 2, 2)
    act = tensor(rng, field, 3, 2, 2)
    assert_matches(associativity("assoc", act, tensor(rng, field, 3, 3, 3), alpha, beta), field)
    assert seen
