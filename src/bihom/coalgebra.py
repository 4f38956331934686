"""BiHom-coassociative coalgebras, comodules, finite-dimensional duality in
both directions, and convolution algebras.

Comultiplications are stored as rank-3 tensors: Delta(e_i) has coefficient
delta[i][j][k] on e_j (x) e_k.  Tensor-square and tensor-cube elements are
flattened row-major: (j, k) -> j*d + k.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .algebra_core import (
    MAP,
    TENSOR,
    VECTOR,
    BiHomAlgebra,
    Shaped,
    _carried_counit,
    _require_pairwise_commuting,
    fixed_subalgebra,
)
from .errors import (
    ConditionFailure,
    NotComultiplicative,
    ShapeMismatch,
)
from .axioms import (
    Axiom,
    Commute,
    Comul,
    Compose,
    Kron,
    Lin,
    Mul,
    Perm,
    check,
    coequivariant,
    comultiplicative,
    counit_invariant,
    counit_law,
    coproduct_tensor,
    product_tensor,
    require,
)
from .exactnum import Field, same_field
from .linalg import (
    Matrix,
    Tensor3,
    kron,
    mat_mul,
    vec_tensor,
)
from .report import CheckReport


@dataclass
class BiHomCoalgebra(Shaped):
    field: Field
    dim: int
    delta: Tensor3
    psi: Matrix
    omega: Matrix
    counit: Optional[list] = None
    labels: list = dc_field(default_factory=list)

    SHAPE = (("delta", TENSOR), ("psi", MAP), ("omega", MAP), ("counit", VECTOR))
    LABELS = "c"


@dataclass
class Comodule(Shaped):
    """A right C-comodule: coaction rho(m_i) = sum rho[i][j][k] m_j (x) c_k."""

    dim: int
    rho: Tensor3
    psiM: Matrix
    omegaM: Matrix

    SHAPE = (("rho", ("dim", "dim", "coalgebra_dim")), ("psiM", MAP), ("omegaM", MAP))


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


def bihom_coalgebra_axioms(C: BiHomCoalgebra):
    delta, psi, omega = Comul(C.delta), Lin(C.psi), Lin(C.omega)
    table = [
        Commute("psi_omega_commute", C.psi, C.omega),
        comultiplicative("psi_comultiplicative", C.delta, C.psi),
        comultiplicative("omega_comultiplicative", C.delta, C.omega),
        # (Delta (x) psi) o Delta = (omega (x) Delta) o Delta
        Axiom(
            "bihom_coassociativity",
            Compose(Kron(delta, psi), delta),
            Compose(Kron(omega, delta), delta),
        ),
    ]
    if C.counit is not None:
        table += [
            counit_invariant("counit_psi", C.counit, C.psi),
            counit_invariant("counit_omega", C.counit, C.omega),
            counit_law("counit_right", C.delta, C.counit, C.omega, "right"),
            counit_law("counit_left", C.delta, C.counit, C.psi, "left"),
        ]
    return table


def check_bihom_coalgebra(C: BiHomCoalgebra) -> CheckReport:
    return check(bihom_coalgebra_axioms(C))


def comodule_axioms(C: BiHomCoalgebra, M: Comodule):
    if M.rho.d3 != C.dim:
        raise ShapeMismatch("coaction target coalgebra dimension")
    rho = Comul(M.rho)
    table = [
        Commute("comodule_maps_commute", M.psiM, M.omegaM),
        coequivariant("coaction_psi_equivariance", M.rho, M.psiM, C.psi),
        coequivariant("coaction_omega_equivariance", M.rho, M.omegaM, C.omega),
        # (omega_M (x) Delta_C) o rho = (rho (x) psi_C) o rho
        Axiom(
            "comodule_coassociativity",
            Compose(Kron(Lin(M.omegaM), Comul(C.delta)), rho),
            Compose(Kron(rho, Lin(C.psi)), rho),
        ),
    ]
    if C.counit is not None:
        table.append(counit_law("comodule_counital", M.rho, C.counit, M.omegaM, "right"))
    return table


def check_comodule(C: BiHomCoalgebra, M: Comodule) -> CheckReport:
    return check(comodule_axioms(C, M))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def yau_twist_coalgebra(
    C: BiHomCoalgebra, psi2: Matrix, omega2: Matrix
) -> BiHomCoalgebra:
    """Deform the coproduct to (omega2 (x) psi2) o Delta, composing the maps.

    The counit is carried over whenever it is invariant under both twisting
    maps (always the case for counital coalgebra endomorphisms).
    """
    require(NotComultiplicative, *(comultiplicative(f"{name} is not comultiplicative", C.delta, m)
                                   for name, m in (("psi2", psi2), ("omega2", omega2))))
    _require_pairwise_commuting(
        [("psi", C.psi), ("omega", C.omega), ("psi2", psi2), ("omega2", omega2)]
    )
    delta2 = coproduct_tensor(Compose(Kron(Lin(omega2), Lin(psi2)), Comul(C.delta)))
    return BiHomCoalgebra(
        field=C.field,
        dim=C.dim,
        delta=delta2,
        psi=mat_mul(C.psi, psi2),
        omega=mat_mul(C.omega, omega2),
        counit=_carried_counit(C.counit, psi2, omega2),
        labels=list(C.labels),
    )


def dual_algebra(C: BiHomCoalgebra) -> BiHomAlgebra:
    """(C*, Delta^T, omega^T, psi^T); unital with unit eps when C is counital."""
    d, delta = C.dim, C.delta.t
    return BiHomAlgebra(
        field=C.field,
        dim=d,
        mu=Tensor3(C.field, [[[delta[i][j][k] for i in range(d)] for k in range(d)]
                             for j in range(d)]),
        alpha=C.omega.transpose(),
        beta=C.psi.transpose(),
        unit=list(C.counit) if C.counit is not None else None,
        labels=[f"{l}*" for l in C.labels],
    )


def dual_coalgebra(A: BiHomAlgebra) -> BiHomCoalgebra:
    """(A*, mu^T, beta^T, alpha^T); counital iff A is unital.

    In finite dimension the finite dual is all of A*, so the transpose of
    the multiplication is a genuine comultiplication.
    """
    d, mu = A.dim, A.mu.t
    return BiHomCoalgebra(
        field=A.field,
        dim=d,
        delta=Tensor3(A.field, [[[mu[j][k][i] for k in range(d)] for j in range(d)]
                                for i in range(d)]),
        psi=A.beta.transpose(),
        omega=A.alpha.transpose(),
        counit=list(A.unit) if A.unit is not None else None,
        labels=[f"{l}*" for l in A.labels],
    )


def tensor_product_coalgebras(C: BiHomCoalgebra, D: BiHomCoalgebra) -> BiHomCoalgebra:
    """Delta(c (x) d) = c1 (x) d1 (x) c2 (x) d2 with maps psi (x) psi etc."""
    same_field("tensor product", C.field, D.field)
    dc, dd = C.dim, D.dim
    d = dc * dd
    both = Kron(Comul(C.delta), Comul(D.delta))
    delta = coproduct_tensor(Compose(Perm((dc, dc, dd, dd), (0, 2, 1, 3)), both), d, d)
    counit = None
    if C.counit is not None and D.counit is not None:
        counit = vec_tensor(C.counit, D.counit, C.field)
    labels = [f"{lc}.{ld}" for lc in C.labels for ld in D.labels]
    return BiHomCoalgebra(
        field=C.field,
        dim=d,
        delta=delta,
        psi=kron(C.psi, D.psi),
        omega=kron(C.omega, D.omega),
        counit=counit,
        labels=labels,
    )


def twist_comodule(
    C: BiHomCoalgebra,
    psi2: Matrix,
    omega2: Matrix,
    M: Comodule,
) -> tuple:
    """Twist a comodule along a coalgebra twist.

    C with candidate twisting endomorphisms psi2/omega2, and M a comodule
    over C whose maps psiM/omegaM satisfy the intertwining conditions
    (psiM (x) psi2) o rho = rho o psiM and (omegaM (x) omega2) o rho =
    rho o omegaM.  Returns (C twisted, comodule over it) with new coaction
    m -> omegaM(m_(0)) (x) psi2(m_(1)).
    """
    require(ConditionFailure, Commute("psiM and omegaM do not commute", M.psiM, M.omegaM), *(
        coequivariant(f"({name}_M (x) {name}_C) o rho != rho o {name}_M", M.rho, mm, mc)
        for name, mm, mc in (("psi", M.psiM, psi2), ("omega", M.omegaM, omega2))
    ))
    C2 = yau_twist_coalgebra(C, psi2, omega2)
    rho2 = coproduct_tensor(Compose(Kron(Lin(M.omegaM), Lin(psi2)), Comul(M.rho)))
    return C2, Comodule(dim=M.dim, rho=rho2, psiM=M.psiM.copy(), omegaM=M.omegaM.copy())


def regular_comodule(C: BiHomCoalgebra) -> Comodule:
    """C over itself with coaction rho = Delta."""
    return Comodule(dim=C.dim, rho=C.delta, psiM=C.psi.copy(), omegaM=C.omega.copy())


# ---------------------------------------------------------------------------
# convolution algebras
# ---------------------------------------------------------------------------


def convolution_algebra(C: BiHomCoalgebra, A: BiHomAlgebra) -> BiHomAlgebra:
    """(Hom(C, A), f * g = mu o (f (x) g) o Delta, phi, gamma).

    The base is the elementary maps e_c -> e_a, flattened (c, a) ->
    c * dim A + a.  phi(f) = alpha o f o omega and gamma(f) = beta o f o psi;
    the unit is eta o eps when A is unital and C counital.
    """
    same_field("convolution", C.field, A.field)
    dc, da = C.dim, A.dim
    d = dc * da
    # (e_c -> e_a) * (e_e -> e_b) = sum_i Delta(e_i)[c][e] (e_i -> e_a e_b)
    pairs = Kron(Mul(dual_algebra(C).mu), Mul(A.mu))
    mu = product_tensor(Compose(pairs, Perm((dc, da, dc, da), (0, 2, 1, 3))), d, d)
    phi = kron(C.omega.transpose(), A.alpha)
    gamma = kron(C.psi.transpose(), A.beta)
    unit = None
    if A.unit is not None and C.counit is not None:
        unit = vec_tensor(C.counit, A.unit, C.field)
    labels = [f"{lc}->{la}" for lc in C.labels for la in A.labels]
    return BiHomAlgebra(
        field=C.field, dim=d, mu=mu, alpha=phi, beta=gamma, unit=unit, labels=labels
    )


def underline_hom(C: BiHomCoalgebra, A: BiHomAlgebra) -> tuple:
    """The joint fixed subspace of (phi, gamma) in the convolution algebra.

    Returns (subalgebra, basis, convolution_algebra): the subalgebra has
    identity structure maps, is associative and carries the unit eta o eps
    when A is unital and C counital; basis embeds it into Hom(C, A).
    """
    conv = convolution_algebra(C, A)
    sub, basis = fixed_subalgebra(conv)
    return sub, basis, conv
