"""The R_{m,n,p} family of twisting maps, BiHom-smash products, and the
comodule-algebra structure carried by them, including the dual-space
module algebra H* with its right-translation-style action.
"""

from __future__ import annotations

from .algebra_core import BiHomAlgebra, _carried_counit, _require_pairwise_commuting
from .bialgebra import (
    BiHomBialgebra,
    ModuleAlgebraAction,
    bihom_bialgebra_axioms,
    check_module_bihom_algebra,
)
from .axioms import (
    Axiom,
    Comul,
    Compose,
    Id,
    Kron,
    Lin,
    Mul,
    Perm,
    check,
    coequivariant,
    comultiplicative_product,
    coproduct_tensor,
    equivariant,
    images,
    multiplicative,
    named,
    require,
)
from .coalgebra import Comodule, comodule_axioms
from .errors import HypothesisFailure, ModuleAxiomFailure
from .linalg import (
    Matrix,
    Tensor3,
    inverses,
    kron,
    mat_mul,
    mat_power,
)
from .report import Record
from .twisting import TwistingMap, twisted_tensor_product


class SmashData(Record):
    """A module BiHom-algebra (H, A, action) plus the exponents (m, n, p).

    Invariants (verified by validate, in this order): all six structure
    maps invertible, H satisfies bihom_bialgebra_axioms, and the action
    passes check_module_bihom_algebra.  A singular map of H also breaks H's
    bialgebra axioms, so the maps are checked first, to name the map.
    """

    def __init__(self, H: BiHomBialgebra, A: BiHomAlgebra, action: ModuleAlgebraAction,
                 m: int = 0, n: int = -1, p: int = -1, _validated: bool = False):
        self.H, self.A, self.action = H, A, action
        self.m, self.n, self.p = m, n, p
        self._validated = _validated

    def validate(self):
        if self._validated:
            return
        for name, mat in (
            ("alpha_H", self.H.alpha),
            ("beta_H", self.H.beta),
            ("psi_H", self.H.psi),
            ("omega_H", self.H.omega),
            ("alpha_A", self.A.alpha),
            ("beta_A", self.A.beta),
        ):
            inverses(f"{name} must be invertible", mat)
        require(HypothesisFailure,
                *named("H is not a BiHom-bialgebra: {} fails", bihom_bialgebra_axioms(self.H)))
        check_module_bihom_algebra(self.H, self.A, self.action).require(
            ModuleAxiomFailure, "module algebra axioms fail: {}")
        self._validated = True


def smash_twisting_map(S: SmashData) -> TwistingMap:
    """R_{m,n,p}(h (x) a) = alpha^m beta^n omega^p(h1) . betaA^-1(a) (x) psi^-1(h2)."""
    S.validate()
    H, A = S.H, S.A
    dh, da = H.dim, A.dim
    powers = []
    for name, e, m, k in (("alpha_H", "m", H.alpha, S.m), ("beta_H", "n", H.beta, S.n),
                          ("omega_H", "p", H.omega, S.p)):
        if k < 0:
            (m,), k = inverses(f"smash twisting map needs bijective {name} for {e} = {k}", m), -k
        powers.append(mat_power(m, k))
    front = mat_mul(powers[0], mat_mul(powers[1], powers[2]))
    bAi, pi = inverses("smash twisting map needs bijective beta_A and psi_H", A.beta, H.psi)
    # e_h (x) e_a -> h1 (x) a (x) h2 -> front(h1) . betaA^-1(a) (x) psi^-1(h2)
    acting = Compose(Mul(S.action.action), Kron(Lin(front), Lin(bAi)))
    R = Compose(
        Kron(acting, Lin(pi)),
        Perm((dh, dh, da), (0, 2, 1)),
        Kron(Comul(H.delta), Id(da)),
    )
    return TwistingMap(R=Matrix.from_columns(H.field, images(R)), dimA=da, dimB=dh)


def smash_product(S: SmashData) -> BiHomAlgebra:
    """A # H = A (x)_R H for R = R_{0,-1,-1}:

    (a # h)(a' # h') = a (betaH^-1 omegaH^-1(h1) . betaA^-1(a')) # psiH^-1(h2) h'.
    """
    tw = smash_twisting_map(S.replace(m=0, n=-1, p=-1))
    return twisted_tensor_product(S.A, S.H.algebra_part(), tw)


def smash_comodule_structure(
    S: SmashData, psiA: Matrix, omegaA: Matrix
) -> tuple:
    """The right-H comodule BiHom-algebra structure on A # H:

    rho(a # h) = (omegaA(a) # h1) (x) h2, with comodule maps
    psiA (x) psiH and omegaA (x) omegaH.

    Verifies the hypotheses (commutations, omegaA multiplicative, and
    omegaA(h.a) = omegaH(h).omegaA(a)), then checks both the comodule
    axioms and that rho is a morphism of BiHom-associative algebras into
    the tensor-product algebra (A#H) (x) H.  Returns (smash, comodule,
    report).
    """
    S.validate()
    H, A = S.H, S.A
    _require_pairwise_commuting(
        [("alphaA", A.alpha), ("betaA", A.beta), ("psiA", psiA), ("omegaA", omegaA)]
    )
    require(
        HypothesisFailure,
        multiplicative("omegaA is not multiplicative", A.mu, omegaA),
        equivariant("omegaA(h.a) != omegaH(h).omegaA(a)", S.action.action, H.omega, omegaA),
    )

    D = smash_product(S)
    # rho(a # h) = (omegaA(a) # h1) (x) h2
    rho = coproduct_tensor(Kron(Lin(omegaA), Comul(H.delta)), D.dim, H.dim)
    comod = Comodule(dim=D.dim, rho=rho, psiM=kron(psiA, H.psi), omegaM=kron(omegaA, H.omega))

    # rho is a morphism of BiHom-associative algebras D -> D (x) H
    def morphism(name, mD, mH):
        ax = coequivariant(name, rho, mD, mH)
        return Axiom(name, ax.rhs, ax.lhs)

    report = check(named("comodule:{}", comodule_axioms(H.coalgebra_part(), comod)) + [
        morphism("rho_alpha_morphism", D.alpha, H.alpha),
        morphism("rho_beta_morphism", D.beta, H.beta),
        comultiplicative_product("rho_multiplicative", rho, D.mu, D.mu, H.mu),
    ])
    return D, comod, report


def dual_module_algebra(H: BiHomBialgebra) -> tuple:
    """The dual space H* as a left H-module BiHom-algebra:

    (f . g)(h) = f(alphaH^-1 omegaH^-1(h1)) g(betaH^-1 psiH^-1(h2)),
    structure maps f o alphaH^-1 and f o betaH^-1, and the action
    (h -> f)(h') = f(alphaH^-1 betaH^-1(h') h).  Unital with unit eps
    when H is counital with eps o alpha = eps o beta = eps.

    Returns (algebra on H*, action).
    """
    field = H.field
    d = H.dim
    ainv, binv, pinv, oinv = inverses(
        "dual module algebra needs bijective maps", H.alpha, H.beta, H.psi, H.omega)
    # mu[i][j][h] is the coefficient of e_i (x) e_j in (m1 (x) m2)(Delta(e_h))
    split = Compose(Kron(Lin(mat_mul(ainv, oinv)), Lin(mat_mul(binv, pinv))), Comul(H.delta))
    planes = coproduct_tensor(split).t
    mu = Tensor3.from_function(field, d, d, d, lambda i, j: [p[i][j] for p in planes])
    alphaA = ainv.transpose()
    betaA = binv.transpose()
    dual = BiHomAlgebra(
        field=field,
        dim=d,
        mu=mu,
        alpha=alphaA,
        beta=betaA,
        unit=_carried_counit(H.counit, H.alpha, H.beta),
        labels=[f"{l}*" for l in H.labels],
    )
    # action[h][i][h'] is the coefficient of e_i in (alphaH^-1 betaH^-1(e_h')) e_h
    cols = images(Compose(Mul(H.mu), Kron(Lin(mat_mul(ainv, binv)), Id(d))))
    action = Tensor3.from_function(
        field, d, d, d, lambda h, i: [cols[hp * d + h][i] for hp in range(d)]
    )
    return dual, ModuleAlgebraAction(action=action)
