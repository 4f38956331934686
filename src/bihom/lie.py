"""BiHom-Lie algebras, their representations, semidirect products, and the
commutator construction on BiHom-associative algebras.

A representation stores one matrix per basis element of L as a rank-3
tensor rho with rho[x][j] the coordinates of rho(e_x)(m_j), uniform with
module actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra_core import (
    MAP,
    TENSOR,
    BiHomAlgebra,
    LeftModule,
    Shaped,
    check_left_module,
    _require_twist,
)
from .axioms import (
    Axiom,
    Commute,
    Compose,
    Id,
    Kron,
    Lin,
    Mul,
    Neg,
    Perm,
    Sum,
    Swap,
    Zero,
    check,
    equivariant,
    images,
    multiplicative,
    product_tensor,
    twisted_product,
)
from .errors import ModuleAxiomFailure, ShapeMismatch
from .exactnum import Field
# mat_inverse is not called here; it stays a module name because the mod-p
# reduction tests patch it in every module that inverts matrices
from .linalg import Matrix, Tensor3, inverses, mat_inverse, mat_mul  # noqa: F401
from .report import CheckReport


@dataclass
class BiHomLieAlgebra(Shaped):
    field: Field
    dim: int
    bracket: Tensor3
    alpha: Matrix
    beta: Matrix
    labels: list = dc_field(default_factory=list)

    SHAPE = (("bracket", TENSOR), ("alpha", MAP), ("beta", MAP))
    LABELS = "x"


@dataclass
class LieRepresentation(Shaped):
    dim: int  # dimension of the target space M
    rho: Tensor3  # rho[x][j] = coordinates of rho(e_x)(m_j)
    alphaM: Matrix
    betaM: Matrix

    SHAPE = (("rho", ("lie_dim", "dim", "dim")), ("alphaM", MAP), ("betaM", MAP))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


def check_bihom_lie(L: BiHomLieAlgebra) -> CheckReport:
    """All five axiom families, exhaustively over basis tuples."""
    d = L.dim
    beta = Lin(L.beta)
    # [beta(x), alpha(y)] and [beta^2(x), [beta(y), alpha(z)]]
    twisted = Compose(Mul(L.bracket), Kron(beta, Lin(L.alpha)))
    nested = Compose(Mul(L.bracket), Kron(Compose(beta, beta), twisted))

    def cyclic(order):
        return Compose(nested, Perm((d, d, d), order))

    return check([
        Commute("alpha_beta_commute", L.alpha, L.beta),
        multiplicative("alpha_bracket_multiplicative", L.bracket, L.alpha),
        multiplicative("beta_bracket_multiplicative", L.bracket, L.beta),
        Axiom("skew_symmetry", twisted, Neg(Compose(twisted, Swap(d, d)))),
        Axiom(
            "bihom_jacobi",
            Sum(Sum(nested, cyclic((1, 2, 0))), cyclic((2, 0, 1))),
            Zero((d, d, d), (d,)),
        ),
    ])


def check_representation(L: BiHomLieAlgebra, rep: LieRepresentation) -> CheckReport:
    """The three representation equations plus map commutation."""
    if rep.rho.d1 != L.dim:
        raise ShapeMismatch("representation tensor first index != dim L")
    d, dm = L.dim, rep.dim
    rho, alpha, beta = Mul(rep.rho), Lin(L.alpha), Lin(L.beta)
    # rho([beta(x), y]) betaM = rho(alpha beta(x)) rho(y) - rho(beta(y)) rho(alpha(x))
    lhs = Compose(rho, Kron(Compose(Mul(L.bracket), Kron(beta, Id(d))), Lin(rep.betaM)))
    first = Compose(rho, Kron(Compose(alpha, beta), rho))
    second = Compose(
        Compose(rho, Kron(beta, Compose(rho, Kron(alpha, Id(dm))))),
        Perm((d, d, dm), (1, 0, 2)),
    )
    return check([
        Commute("rep_maps_commute", rep.alphaM, rep.betaM),
        equivariant("rep_alpha_equivariance", rep.rho, L.alpha, rep.alphaM),
        equivariant("rep_beta_equivariance", rep.rho, L.beta, rep.betaM),
        Axiom("rep_bracket_equation", lhs, Sum(first, Neg(second))),
    ])


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def commutator_lie(a: BiHomAlgebra) -> BiHomLieAlgebra:
    """L(A): [x, y] = xy - (alpha^-1 beta)(y) (alpha beta^-1)(x)."""
    ainv, binv = inverses("commutator bracket needs bijective alpha and beta", a.alpha, a.beta)
    p = mat_mul(ainv, a.beta)  # alpha^-1 beta
    q = mat_mul(a.alpha, binv)  # alpha beta^-1

    # mu(e_i, e_j) - mu(p(e_j), q(e_i))
    swapped = Compose(Compose(Mul(a.mu), Kron(Lin(p), Lin(q))), Swap(a.dim, a.dim))
    return BiHomLieAlgebra(
        field=a.field,
        dim=a.dim,
        bracket=product_tensor(Sum(Mul(a.mu), Neg(swapped))),
        alpha=a.alpha.copy(),
        beta=a.beta.copy(),
        labels=list(a.labels),
    )


def yau_twist_lie(L: BiHomLieAlgebra, alpha2: Matrix, beta2: Matrix) -> BiHomLieAlgebra:
    """Deform the bracket to [-] o (alpha2 (x) beta2), composing the maps."""
    broken = "does not preserve the bracket at"
    _require_twist(L.bracket, L.alpha, L.beta, alpha2, beta2, broken)
    return BiHomLieAlgebra(
        field=L.field,
        dim=L.dim,
        bracket=twisted_product(L.bracket, alpha2, beta2),
        alpha=mat_mul(L.alpha, alpha2),
        beta=mat_mul(L.beta, beta2),
        labels=list(L.labels),
    )


def adjoint_rep(L: BiHomLieAlgebra) -> LieRepresentation:
    """ad(x)(y) = [x, y]; a representation when alpha, beta are bijective."""
    inverses("adjoint representation needs bijective alpha and beta", L.alpha, L.beta)
    return LieRepresentation(
        dim=L.dim, rho=L.bracket, alphaM=L.alpha.copy(), betaM=L.beta.copy()
    )


def semidirect_product(L: BiHomLieAlgebra, rep: LieRepresentation) -> BiHomLieAlgebra:
    """L x| M with [(x,a),(y,b)] = ([x,y], x.b - (a^-1 b)(y).(aM bM^-1)(a)).

    Requires alpha (on L) and beta_M (on M) invertible.
    """
    field = L.field
    n, m = L.dim, rep.dim
    ainv, bminv = inverses("semidirect product needs bijective alpha and beta_M",
                           L.alpha, rep.betaM)
    p = Lin(mat_mul(ainv, L.beta))  # alpha^-1 beta on L
    q = Lin(mat_mul(rep.alphaM, bminv))  # alpha_M beta_M^-1 on M
    d = n + m
    # the embeddings of L and M into L (+) M, and the projections onto them
    ident = Matrix.identity(field, d).e
    inL, inM = Matrix(field, [row[:n] for row in ident]), Matrix(field, [row[n:] for row in ident])
    iL, iM, pL, pM = Lin(inL), Lin(inM), Lin(inL.transpose()), Lin(inM.transpose())
    rho = Mul(rep.rho)
    bracket = Sum(
        Sum(Compose(iL, Mul(L.bracket), Kron(pL, pL)), Compose(iM, rho, Kron(pL, pM))),
        Neg(Compose(iM, rho, Kron(Compose(p, pL), Compose(q, pM)), Swap(d, d))),
    )

    def direct_sum(mL, mM):
        both = Sum(Compose(iL, Lin(mL), pL), Compose(iM, Lin(mM), pM))
        return Matrix.from_columns(field, images(both))

    labels = list(L.labels) + [f"m{i}" for i in range(m)]
    return BiHomLieAlgebra(
        field=field,
        dim=d,
        bracket=product_tensor(bracket),
        alpha=direct_sum(L.alpha, rep.alphaM),
        beta=direct_sum(L.beta, rep.betaM),
        labels=labels,
    )


def module_to_lie_rep(a: BiHomAlgebra, mod: LeftModule) -> LieRepresentation:
    """A left A-module as a representation of L(A) via rho(x)(m) = x.m."""
    inverses("module representation needs bijective alpha and beta", a.alpha, a.beta)
    check_left_module(a, mod).require(ModuleAxiomFailure, "module axioms fail; first failure {}")
    return LieRepresentation(
        dim=mod.dim, rho=mod.action, alphaM=mod.alphaM.copy(), betaM=mod.betaM.copy()
    )
