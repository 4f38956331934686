"""BiHom-associative algebras: representation, axiom checking, and the
basic constructions (twists, untwisting, tensor products, conjugation
algebras, fixed subalgebras, the two 2-dimensional example families).

An algebra is stored by structure constants: e_i e_j = sum_k mu[i][j][k] e_k,
together with the two structure-map matrices alpha and beta and an optional
unit vector.  Axioms are never enforced at construction; check_bihom_algebra
verifies them exhaustively over basis tuples and reports witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from typing import Optional

from .errors import (
    DegenerateParameter,
    MapsDoNotCommute,
    NotClosed,
    NotMultiplicative,
    ShapeMismatch,
)
from .axioms import (
    Axiom,
    Commute,
    Compose,
    Kron,
    Lin,
    Mul,
    Perm,
    Vec,
    check,
    counit_invariant,
    equivariant,
    fixes,
    holds,
    images,
    multiplicative,
    product_tensor,
    require,
    solve,
    twisted_product,
    unit_law,
    witness,
)
from .exactnum import QQ, Field, divide, same_field
from .linalg import (
    Matrix,
    Tensor3,
    inverses,
    kron,
    mat_inverse,
    mat_mul,
    solve_affine,
    unit_vec,
    vec_tensor,
)
from .report import CheckReport


def _default_labels(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def _extents_of(x):
    if isinstance(x, Tensor3):
        return (x.d1, x.d2, x.d3)
    if isinstance(x, Matrix):
        return (x.rows, x.cols)
    return (len(x),)


# the extents of a vector, a map and a tensor on the space itself
VECTOR, MAP, TENSOR = ("dim",), ("dim", "dim"), ("dim", "dim", "dim")


class Shaped:
    """A space of dimension dim with its structure tensors and maps.

    A subclass declares its containers once, in SHAPE: the field names in
    file order, each with the names of its extents, three for a Tensor3,
    two for a Matrix and one for a vector, which may be None.  The extent
    "dim" is the space's own dimension; any other name is free, as the
    dimension of an acting algebra is, but the same in every container.
    LABELS is the prefix of the default basis labels, or None for a class
    that keeps no field and no labels.
    """

    SHAPE = ()
    LABELS = None

    def __post_init__(self):
        if self.LABELS is not None:
            if not self.labels:
                self.labels = _default_labels(self.LABELS, self.dim)
            if len(self.labels) != self.dim:
                raise ShapeMismatch(f"{len(self.labels)} labels for dimension {self.dim}")
        self.extents()

    def extents(self) -> dict:
        """Each named extent, "dim" first; raises ShapeMismatch where a
        container disagrees with dim or with another container."""
        named = {"dim": self.dim}
        for key, names in self.SHAPE:
            x = getattr(self, key)
            if x is None and len(names) == 1:
                continue
            found = _extents_of(x)
            if len(found) != len(names) or any(
                named.setdefault(n, e) != e for n, e in zip(names, found)
            ):
                raise ShapeMismatch(f"{key} has extents {found}, not {names} = "
                                    f"{tuple(named.get(n) for n in names)}")
        return named

    def same_tensors(self, other) -> bool:
        """Exact equality of the dimension and every container; the labels
        may differ."""
        return self.dim == other.dim and all(
            getattr(self, key) == getattr(other, key) for key, _ in self.SHAPE
        )


@dataclass
class BiHomAlgebra(Shaped):
    field: Field
    dim: int
    mu: Tensor3
    alpha: Matrix
    beta: Matrix
    unit: Optional[list] = None
    labels: list = dc_field(default_factory=list)

    SHAPE = (("mu", TENSOR), ("alpha", MAP), ("beta", MAP), ("unit", VECTOR))
    LABELS = "e"

    def multiply(self, x, y):
        return images(Compose(Mul(self.mu), Kron(Vec(x), Vec(y))))[0]


@dataclass
class LeftModule(Shaped):
    """A left module (M, alpha_M, beta_M) over a BiHom-associative algebra.

    action[i][j] is the coordinate vector of e_i . m_j.
    """

    dim: int
    action: Tensor3
    alphaM: Matrix
    betaM: Matrix

    SHAPE = (("action", ("algebra_dim", "dim", "dim")), ("alphaM", MAP), ("betaM", MAP))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


def associativity(name, act, mu, alpha, beta):
    """act o (alpha (x) act) = act o (mu (x) beta): alpha(a)(bc) = (ab)beta(c)."""
    return Axiom(
        name,
        Compose(Mul(act), Kron(Lin(alpha), Mul(act))),
        Compose(Mul(act), Kron(Mul(mu), Lin(beta))),
    )


def unit_axioms(a: BiHomAlgebra, unit):
    return [
        fixes("unit_fixed_by_alpha", a.alpha, unit),
        fixes("unit_fixed_by_beta", a.beta, unit),
        unit_law("unit_right_action", a.mu, unit, a.alpha, "right"),
        unit_law("unit_left_action", a.mu, unit, a.beta, "left"),
    ]


def bihom_algebra_axioms(a: BiHomAlgebra):
    table = [
        Commute("alpha_beta_commute", a.alpha, a.beta),
        multiplicative("alpha_multiplicative", a.mu, a.alpha),
        multiplicative("beta_multiplicative", a.mu, a.beta),
        associativity("bihom_associativity", a.mu, a.mu, a.alpha, a.beta),
    ]
    if a.unit is not None:
        table += unit_axioms(a, a.unit)
    return table


def check_bihom_algebra(a: BiHomAlgebra) -> CheckReport:
    """Verify every BiHom-associative-algebra axiom over all basis tuples."""
    return check(bihom_algebra_axioms(a))


def left_module_axioms(a: BiHomAlgebra, mod: LeftModule):
    if mod.action.d1 != a.dim:
        raise ShapeMismatch("module action first index != algebra dimension")
    act = mod.action
    table = [
        Commute("module_maps_commute", mod.alphaM, mod.betaM),
        equivariant("action_alpha_equivariance", act, a.alpha, mod.alphaM),
        equivariant("action_beta_equivariance", act, a.beta, mod.betaM),
        associativity("module_associativity", act, a.mu, a.alpha, mod.betaM),
    ]
    if a.unit is not None:
        table.append(unit_law("unital_module", act, a.unit, mod.betaM, "left"))
    return table


def check_left_module(a: BiHomAlgebra, mod: LeftModule) -> CheckReport:
    """The left-module axioms over all basis pairs/triples."""
    return check(left_module_axioms(a, mod))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _require_multiplicative(mu, m, name, broken="is not multiplicative at basis pair"):
    w = witness(multiplicative(name, mu, m))
    if w is not None:
        i, j = w[0]
        raise NotMultiplicative(f"{name} {broken} ({i}, {j})", witness=w)


def _require_pairwise_commuting(named_maps):
    pairs = combinations(named_maps, 2)
    require(MapsDoNotCommute, *(Commute(f"{n1} and {n2} do not commute", m1, m2)
                                for (n1, m1), (n2, m2) in pairs))


def _require_twist(mu, alpha, beta, alpha2, beta2, broken="is not multiplicative at basis pair"):
    """The Yau-twist hypotheses: alpha2 and beta2 multiplicative for mu,
    and alpha, beta, alpha2, beta2 pairwise commuting."""
    _require_multiplicative(mu, alpha2, "alpha2", broken)
    _require_multiplicative(mu, beta2, "beta2", broken)
    _require_pairwise_commuting(
        [("alpha", alpha), ("beta", beta), ("alpha2", alpha2), ("beta2", beta2)]
    )


def _carried_unit(unit, *maps):
    if unit is None or not holds(*(fixes("", m, unit) for m in maps)):
        return None
    return list(unit)


def _carried_counit(counit, *maps):
    """The counit when eps o m = eps for every map m, else None."""
    if counit is None or not holds(*(counit_invariant("", counit, m) for m in maps)):
        return None
    return list(counit)


def yau_twist(a: BiHomAlgebra, alpha2: Matrix, beta2: Matrix) -> BiHomAlgebra:
    """Deform the product to mu o (alpha2 (x) beta2), composing the maps.

    alpha2 and beta2 must be multiplicative for mu and all four maps must
    pairwise commute; both preconditions are verified, not trusted.
    """
    _require_twist(a.mu, a.alpha, a.beta, alpha2, beta2)
    return BiHomAlgebra(
        field=a.field,
        dim=a.dim,
        mu=twisted_product(a.mu, alpha2, beta2),
        alpha=mat_mul(a.alpha, alpha2),
        beta=mat_mul(a.beta, beta2),
        unit=_carried_unit(a.unit, alpha2, beta2),
        labels=list(a.labels),
    )


def untwist(a: BiHomAlgebra) -> BiHomAlgebra:
    """Recover the underlying associative product mu o (alpha^-1 (x) beta^-1)."""
    ainv, binv = inverses("untwisting needs bijective alpha and beta", a.alpha, a.beta)
    ident = Matrix.identity(a.field, a.dim)
    return BiHomAlgebra(
        field=a.field,
        dim=a.dim,
        mu=twisted_product(a.mu, ainv, binv),
        alpha=ident,
        beta=ident.copy(),
        unit=_carried_unit(a.unit, ainv, binv),
        labels=list(a.labels),
    )


def tensor_product(a: BiHomAlgebra, b: BiHomAlgebra) -> BiHomAlgebra:
    """(a (x) b)(a' (x) b') = aa' (x) bb' with maps alpha_A (x) alpha_B etc."""
    da, db = a.dim, b.dim
    return tensor_algebra(
        a, b, Compose(Kron(Mul(a.mu), Mul(b.mu)), Perm((da, db, da, db), (0, 2, 1, 3)))
    )


def tensor_algebra(a: BiHomAlgebra, b: BiHomAlgebra, product) -> BiHomAlgebra:
    """The algebra on a (x) b with the given product term, maps
    alpha_A (x) alpha_B etc., unit 1 (x) 1 when both have one, labels la.lb."""
    same_field("tensor product", a.field, b.field)
    d = a.dim * b.dim
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = vec_tensor(a.unit, b.unit, a.field)
    return BiHomAlgebra(field=a.field, dim=d, mu=product_tensor(product, d, d),
                        alpha=kron(a.alpha, b.alpha), beta=kron(a.beta, b.beta), unit=unit,
                        labels=[f"{la}.{lb}" for la in a.labels for lb in b.labels])


def endomorphism_algebra(u: Matrix, v: Matrix) -> BiHomAlgebra:
    """The conjugation deformation E(u, v) of a full matrix algebra.

    On n x n matrices: a * b = u a u^-1 b v^-1 with structure maps
    conjugation by u and by v; the unit is v.  Requires invertible u, v
    with uv = vu.
    """
    if u.rows != u.cols or v.rows != v.cols or u.rows != v.rows:
        raise ShapeMismatch("u and v must be square of equal size")
    require(MapsDoNotCommute, Commute("u and v do not commute", u, v))
    field = u.field
    n = u.rows
    uinv = mat_inverse(u)
    vinv = mat_inverse(v)
    d = n * n
    # u E_ij u^-1 E_kl v^-1 has (r, c) entry u[r][i] * uinv[j][k] * vinv[l][c]
    middle = Lin(Matrix(field, [[x for row in uinv.e for x in row]]), (n, n), ())
    mu = product_tensor(Kron(Lin(u), middle, Lin(vinv.transpose())), d, d)
    # g E_kl g^-1 has (r, c) entry g[r][k] * ginv[l][c]
    alpha, beta = kron(u, uinv.transpose()), kron(v, vinv.transpose())
    unit = [v.e[i][j] for i in range(n) for j in range(n)]
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return BiHomAlgebra(
        field=field,
        dim=d,
        mu=mu,
        alpha=alpha,
        beta=beta,
        unit=unit,
        labels=labels,
    )


def fixed_subalgebra(a: BiHomAlgebra) -> tuple:
    """The joint fixed subspace {x : alpha(x) = beta(x) = x} as an algebra.

    Returns (subalgebra, basis) where basis holds the coordinate vectors of
    the chosen subspace basis inside a.  The structure maps of the result
    are identities; raises NotClosed (with the offending pair) if the fixed
    subspace is not closed under the product.
    """
    field = a.field
    d = a.dim
    _, basis = solve(
        lambda x: [fixes("alpha", a.alpha, x), fixes("beta", a.beta, x)], field, (d,)
    )
    r = len(basis)
    basis_matrix = Matrix.from_columns(field, basis) if r else Matrix.zero(field, d, 0)

    def coords(w):
        res = solve_affine(basis_matrix, w)
        if res is None:
            return None
        x, null = res
        assert not null, "subspace basis is linearly dependent"
        return x

    # the products of basis pairs (s, t) in order, and their coordinates
    cols = []
    for n, w in enumerate(images(Compose(Mul(a.mu), Kron(Lin(basis_matrix), Lin(basis_matrix))))):
        x = coords(w)
        if x is None:
            s, t = divmod(n, r)
            raise NotClosed(f"fixed subspace not closed at basis pair ({s}, {t})",
                            witness=((s, t), w))
        cols.append(x)
    mu = Tensor3(field, [cols[s * r:(s + 1) * r] for s in range(r)])
    unit = None
    if a.unit is not None:
        unit = coords(a.unit)
    sub = BiHomAlgebra(
        field=field,
        dim=r,
        mu=mu,
        alpha=Matrix.identity(field, r),
        beta=Matrix.identity(field, r),
        unit=unit,
        labels=_default_labels("w", r),
    )
    return sub, basis


def example_family(which: int, a, b, field=None) -> BiHomAlgebra:
    """The two 2-dimensional unital families with parameters a, b.

    Family 1 requires b != 1; family 2 requires a != 0.  The unit is e1.
    """
    if field is None:
        field = QQ
    a = field.promote(a)
    b = field.promote(b)
    one = field.one()
    zero = field.zero()
    if which == 1:
        if b == one:
            raise DegenerateParameter("family 1 needs b != 1")
        alpha_e2 = [divide(a + a, b - one), -one]
        beta_e2 = [-a, b]
        mu22 = [divide(-(a * a * (b - one - one)), (b - one) * (b - one)), a]
        mu = Tensor3(
            field,
            [
                [[one, zero], beta_e2],
                [alpha_e2, mu22],
            ],
        )
    elif which == 2:
        if not a:
            raise DegenerateParameter("family 2 needs a != 0")
        alpha_e2 = [divide(b * (one - a), a), a]
        beta_e2 = [b, one - a]
        mu = Tensor3(
            field,
            [
                [[one, zero], beta_e2],
                [alpha_e2, [zero, divide(b, a)]],
            ],
        )
    else:
        raise ValueError("family index must be 1 or 2")
    alpha = Matrix(field, [[one, alpha_e2[0]], [zero, alpha_e2[1]]])
    beta = Matrix(field, [[one, beta_e2[0]], [zero, beta_e2[1]]])
    return BiHomAlgebra(
        field=field,
        dim=2,
        mu=mu,
        alpha=alpha,
        beta=beta,
        unit=[one, zero],
        labels=["e1", "e2"],
    )


def find_unit(a: BiHomAlgebra):
    """Solve the unit axioms for u; None when no unit exists.

    They say alpha(u) = u, beta(u) = u, e_i u = alpha(e_i) and
    u e_i = beta(e_i); by uniqueness of units a consistent system has
    exactly one solution.
    """
    res = solve(lambda u: unit_axioms(a, u), a.field, (a.dim,))
    if res is None:
        return None
    x, null = res
    assert not null, "unit equations cannot be underdetermined"
    return x


# ---------------------------------------------------------------------------
# truncated polynomial fixtures (the k[X]/(X^N) test bed)
# ---------------------------------------------------------------------------


def truncated_polynomial_algebra(field, n: int) -> BiHomAlgebra:
    """k[X]/(X^n) with basis 1, X, ..., X^(n-1); high products truncate to 0."""
    zero = field.zero()
    one = field.one()

    def col(i, j):
        v = [zero] * n
        if i + j < n:
            v[i + j] = one
        return v

    mu = Tensor3.from_function(field, n, n, n, col)
    ident = Matrix.identity(field, n)
    unit = unit_vec(field, n, 0)
    labels = ["1"] + [f"X^{i}" if i > 1 else "X" for i in range(1, n)]
    return BiHomAlgebra(
        field=field, dim=n, mu=mu, alpha=ident, beta=ident.copy(), unit=unit,
        labels=labels,
    )


def monomial_substitution(field, n: int, power: int, scale=1) -> Matrix:
    """The linear map X^i -> scale^i X^(power*i) on k[X]/(X^n).

    For scale=1 this is the multiplicative substitution X -> X^power; the
    general form also covers maps like X^i -> c^i X^(3i).
    """
    m = Matrix.zero(field, n, n)
    c = field.one()
    s = field.promote(scale)
    for i in range(n):
        j = power * i
        if j < n:
            m.e[j][i] = c
        c = c * s
    return m
