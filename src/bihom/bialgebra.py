"""BiHom-bialgebras, module BiHom-algebras, primitive elements, monoidal
BiHom-bialgebras and antipodes (monoidal and Yau-twist-invariant forms).

A bialgebra carries algebra data (mu, alpha, beta, unit) and coalgebra data
(delta, psi, omega, counit) on one space.  The monoidal antipode and the
primitive elements are solved for from the same axioms that check them
(``axioms.solve``), so uniqueness and inconsistency become rank facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product
from typing import Optional

from .algebra_core import (
    MAP,
    TENSOR,
    VECTOR,
    BiHomAlgebra,
    LeftModule,
    Shaped,
    _require_multiplicative,
    _require_pairwise_commuting,
    bihom_algebra_axioms,
    left_module_axioms,
    yau_twist,
)
from .axioms import (
    Axiom,
    Commute,
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
    Swap,
    Vec,
    check,
    comultiplicative,
    comultiplicative_product,
    counit_invariant,
    equivariant,
    fixes,
    holds,
    images,
    multiplicative,
    named,
    require,
    solve,
    twisted_product,
)
from .coalgebra import BiHomCoalgebra, bihom_coalgebra_axioms, yau_twist_coalgebra
from .errors import (
    HypothesisFailure,
    MissingUnit,
    NonUnique,
    NotAutomorphism,
    NotBialgebraMap,
    NotPrimitive,
    ShapeMismatch,
    Singular,
)
from .exactnum import Field
from .linalg import Matrix, Tensor3, inverses, mat_inverse, mat_mul
from .report import CheckReport


@dataclass
class BiHomBialgebra(Shaped):
    field: Field
    dim: int
    mu: Tensor3
    delta: Tensor3
    alpha: Matrix
    beta: Matrix
    psi: Matrix
    omega: Matrix
    unit: Optional[list] = None
    counit: Optional[list] = None
    labels: list = dc_field(default_factory=list)

    SHAPE = (("mu", TENSOR), ("delta", TENSOR), ("alpha", MAP), ("beta", MAP),
             ("psi", MAP), ("omega", MAP), ("unit", VECTOR), ("counit", VECTOR))
    LABELS = "h"

    def _part(self, cls):
        """The algebra or coalgebra on the same space and labels."""
        kw = {key: getattr(self, key) for key, _ in cls.SHAPE}
        return cls(field=self.field, dim=self.dim, labels=list(self.labels), **kw)

    def algebra_part(self) -> BiHomAlgebra:
        return self._part(BiHomAlgebra)

    def coalgebra_part(self) -> BiHomCoalgebra:
        return self._part(BiHomCoalgebra)

    multiply = BiHomAlgebra.multiply


@dataclass
class ModuleAlgebraAction:
    """A left action H (x) A -> A; the module maps are A's own alpha, beta."""

    action: Tensor3  # action[h][a] = coordinates of e_h . e_a

    def as_left_module(self, a: BiHomAlgebra) -> LeftModule:
        return LeftModule(
            dim=a.dim, action=self.action, alphaM=a.alpha, betaM=a.beta
        )


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


def bihom_bialgebra_axioms(H: BiHomBialgebra):
    """Both substructures, the compatibility clause, and the eight
    map-commutation identities, each as a separate entry."""
    table = (named("algebra:{}", bihom_algebra_axioms(H.algebra_part()))
             + named("coalgebra:{}", bihom_coalgebra_axioms(H.coalgebra_part())))
    # Delta(h h') = h1 h'1 (x) h2 h'2
    table.append(comultiplicative_product("delta_multiplicative", H.delta, H.mu, H.mu, H.mu))
    for (n1, m1), (n2, m2) in product(
        (("alpha", H.alpha), ("beta", H.beta)), (("psi", H.psi), ("omega", H.omega))
    ):
        table.append(Commute(f"{n1}_{n2}_commute", m1, m2))
    table += [
        comultiplicative("alpha_comultiplicative", H.delta, H.alpha),
        comultiplicative("beta_comultiplicative", H.delta, H.beta),
        multiplicative("psi_multiplicative", H.mu, H.psi),
        multiplicative("omega_multiplicative", H.mu, H.omega),
    ]
    if H.unit is not None:
        one = Vec(H.unit)
        table += [
            Axiom("coproduct_of_unit", Compose(Comul(H.delta), one), Kron(one, one), ("1",)),
            fixes("psi_fixes_unit", H.psi, H.unit),
            fixes("omega_fixes_unit", H.omega, H.unit),
        ]
        if H.counit is not None:
            scalar_one = Lin(Matrix.identity(H.field, 1), (), ())
            table.append(
                Axiom("counit_of_unit", Compose(Covec(H.counit), one), scalar_one, ("1",))
            )
    if H.counit is not None:
        eps = Covec(H.counit)
        table += [
            counit_invariant("counit_alpha", H.counit, H.alpha),
            counit_invariant("counit_beta", H.counit, H.beta),
            Axiom("counit_multiplicative", Compose(eps, Mul(H.mu)), Kron(eps, eps)),
        ]
    return table


def check_bihom_bialgebra(H: BiHomBialgebra) -> CheckReport:
    return check(bihom_bialgebra_axioms(H))


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------


def _bialgebra_map(name, H: BiHomBialgebra, m: Matrix):
    """m is multiplicative and comultiplicative; both entries are named name."""
    return multiplicative(name, H.mu, m), comultiplicative(name, H.delta, m)


def _require_bialgebra_maps(H: BiHomBialgebra, named_maps):
    require(NotBialgebraMap, *(ax for name, m in named_maps
                               for ax in _bialgebra_map(f"{name} is not a bialgebra map", H, m)))


def yau_twist_bialgebra(
    H: BiHomBialgebra, alpha2: Matrix, beta2: Matrix, psi2: Matrix, omega2: Matrix
) -> BiHomBialgebra:
    """(H, mu o (a2 (x) b2), (w2 (x) p2) o Delta, composed maps).

    The four twisting maps must be bialgebra endomorphisms and all eight
    maps in sight must pairwise commute; verified, not trusted.  Unit and
    counit are carried whenever the twisting maps preserve them.
    """
    _require_bialgebra_maps(
        H, [("alpha2", alpha2), ("beta2", beta2), ("psi2", psi2), ("omega2", omega2)]
    )
    _require_pairwise_commuting(
        [
            ("alpha", H.alpha),
            ("beta", H.beta),
            ("psi", H.psi),
            ("omega", H.omega),
            ("alpha2", alpha2),
            ("beta2", beta2),
            ("psi2", psi2),
            ("omega2", omega2),
        ]
    )
    alg = yau_twist(H.algebra_part(), alpha2, beta2)
    coalg = yau_twist_coalgebra(H.coalgebra_part(), psi2, omega2)
    kw = {key: getattr(part, key) for part in (alg, coalg) for key, _ in part.SHAPE}
    return BiHomBialgebra(field=H.field, dim=H.dim, labels=list(H.labels), **kw)


# ---------------------------------------------------------------------------
# primitive elements
# ---------------------------------------------------------------------------


def primitive(H: BiHomBialgebra, v):
    """Delta(v) = 1 (x) v + v (x) 1 for an element term v: k -> H,
    compared whole under the label ("1",)."""
    if H.unit is None:
        raise MissingUnit("primitive elements need a unit")
    one = Vec(H.unit)
    return Axiom("primitive", Compose(Comul(H.delta), v), Sum(Kron(one, v), Kron(v, one)), ("1",))


def find_primitives(H: BiHomBialgebra):
    """A basis of the primitive elements."""
    return solve(lambda x: [primitive(H, Vec(x))], H.field, (H.dim,))[1]


def is_primitive(H: BiHomBialgebra, x) -> bool:
    return holds(primitive(H, Vec(x)))


def primitive_bracket(H: BiHomBialgebra, x, y):
    """[x, y] = x y - (alpha^-1 beta)(y) (alpha beta^-1)(x) on primitives.

    Verifies the inputs are primitive, that the output is primitive again,
    that psi = omega on both inputs, and that alpha^p beta^q of each input
    stays primitive for p, q in {-1, 0, 1}.
    """
    for name, v in (("x", x), ("y", y)):
        if not is_primitive(H, v):
            raise NotPrimitive(f"{name} is not primitive")
    ainv, binv = inverses("primitive bracket needs bijective alpha and beta", H.alpha, H.beta)
    ident = Id(H.dim)
    alpha = {-1: Lin(ainv), 0: ident, 1: Lin(H.alpha)}  # alpha^p and beta^q
    beta = {-1: Lin(binv), 0: ident, 1: Lin(H.beta)}
    vx, vy, mu = Vec(x), Vec(y), Mul(H.mu)
    swapped = Kron(Compose(alpha[-1], beta[1], vy), Compose(alpha[1], beta[-1], vx))
    bracket = images(Sum(Compose(mu, Kron(vx, vy)), Neg(Compose(mu, swapped))))[0]
    if not is_primitive(H, bracket):
        raise AssertionError("bracket of primitives failed to be primitive")
    for v in (vx, vy):
        if not holds(Axiom("psi = omega", Compose(Lin(H.psi), v), Compose(Lin(H.omega), v))):
            raise AssertionError("psi and omega disagree on a primitive element")
        for pe, qe in product((-1, 0, 1), repeat=2):
            if not holds(primitive(H, Compose(alpha[pe], beta[qe], v))):
                raise AssertionError(
                    f"alpha^{pe} beta^{qe} did not preserve primitivity"
                )
    return bracket


# ---------------------------------------------------------------------------
# module BiHom-algebras
# ---------------------------------------------------------------------------


def _module_algebra_compat(name, H, A, action, first, second):
    """h.(a a') = [first(h1) . a] [second(h2) . a'] over basis tuples (h, a, a')."""
    d, da, act = H.dim, A.dim, Mul(action)
    split = Compose(
        Perm((d, d, da, da), (0, 2, 1, 3)), Kron(Comul(H.delta), Id(da), Id(da))
    )
    legs = Kron(Compose(act, Kron(first, Id(da))), Compose(act, Kron(second, Id(da))))
    return Axiom(
        name,
        Compose(act, Kron(Id(d), Mul(A.mu))),
        Compose(Compose(Mul(A.mu), legs), split),
    )


def check_module_bihom_algebra(
    H: BiHomBialgebra, A: BiHomAlgebra, act: ModuleAlgebraAction
) -> CheckReport:
    """Module axioms plus the coproduct compatibility.

    The compatibility reads, over all basis tuples (h, a, a'):
    h.(a a') = [alpha^-1(omega^-1(h1)) . a] [beta^-1(psi^-1(h2)) . a'],
    which needs all four structure maps of H bijective.
    """
    ainv, binv, pinv, oinv = inverses(
        "module compatibility needs bijective maps", H.alpha, H.beta, H.psi, H.omega)
    table = named("module:{}", left_module_axioms(H.algebra_part(), act.as_left_module(A)))
    table.append(_module_algebra_compat(
        "module_algebra_compat", H, A, act.action,
        Lin(mat_mul(ainv, oinv)), Lin(mat_mul(binv, pinv)),
    ))
    return check(table)


def twist_left_module(
    a_classical: BiHomAlgebra,
    mod: LeftModule,
    alpha2: Matrix,
    beta2: Matrix,
) -> tuple:
    """Twist a left module along a Yau twist of its algebra.

    Given a classical module over a classical algebra and candidate module
    maps stored in mod, with the equivariance hypotheses
    alphaM(a.m) = alpha2(a).alphaM(m) and betaM(a.m) = beta2(a).betaM(m),
    returns (twisted algebra, twisted module) with action
    a |> m = alpha2(a).betaM(m).
    """
    ident = Matrix.identity(a_classical.field, mod.dim)
    plain = LeftModule(dim=mod.dim, action=mod.action, alphaM=ident, betaM=ident)
    act = mod.action
    require(
        HypothesisFailure,
        *named("input is not a classical left module", left_module_axioms(a_classical, plain)),
        Commute("alphaM and betaM do not commute", mod.alphaM, mod.betaM),
        equivariant("alphaM equivariance fails", act, alpha2, mod.alphaM),
        equivariant("betaM equivariance fails", act, beta2, mod.betaM),
    )
    a2 = yau_twist(a_classical, alpha2, beta2)
    new_action = twisted_product(act, alpha2, mod.betaM)
    return a2, LeftModule(
        dim=mod.dim, action=new_action, alphaM=mod.alphaM.copy(), betaM=mod.betaM.copy()
    )


def twist_module_algebra(
    H: BiHomBialgebra,
    A: BiHomAlgebra,
    act: ModuleAlgebraAction,
    alphaH: Matrix,
    betaH: Matrix,
    psiH: Matrix,
    omegaH: Matrix,
    alphaA: Matrix,
    betaA: Matrix,
) -> tuple:
    """Twist a classical module algebra into a module BiHom-algebra.

    H and A are classical (identity structure maps); the stated hypotheses
    (classical module algebra, bialgebra endomorphisms, commutation and
    equivariance) are verified; the new action is h |> a = alphaH(h).betaA(a).
    Returns (twisted H, twisted A, twisted action).
    """
    _verify_classical_module_algebra(H, A, act)
    _require_bialgebra_maps(
        H, [("alphaH", alphaH), ("betaH", betaH), ("psiH", psiH), ("omegaH", omegaH)]
    )
    _require_pairwise_commuting(
        [("alphaH", alphaH), ("betaH", betaH), ("psiH", psiH), ("omegaH", omegaH)]
    )
    _require_multiplicative(A.mu, alphaA, "alphaA")
    _require_multiplicative(A.mu, betaA, "betaA")
    _require_pairwise_commuting([("alphaA", alphaA), ("betaA", betaA)])
    action = act.action
    require(
        HypothesisFailure,
        equivariant("alpha equivariance fails", action, alphaH, alphaA),
        equivariant("beta equivariance fails", action, betaH, betaA),
    )
    H2 = yau_twist_bialgebra(H, alphaH, betaH, psiH, omegaH)
    A2 = yau_twist(A, alphaA, betaA)
    return H2, A2, ModuleAlgebraAction(action=twisted_product(action, alphaH, betaA))


def _verify_classical_module_algebra(H, A, act):
    """Classical hypotheses: unital module, associativity of the action,
    and h.(a a') = (h1.a)(h2.a')."""
    ident = Id(H.dim)
    require(
        HypothesisFailure,
        *named("not a classical left module",
               left_module_axioms(H.algebra_part(), act.as_left_module(A))),
        _module_algebra_compat("not a classical module algebra", H, A, act.action, ident, ident),
    )


# ---------------------------------------------------------------------------
# monoidal BiHom-bialgebras and antipodes
# ---------------------------------------------------------------------------


def is_monoidal(H: BiHomBialgebra) -> bool:
    """omega = alpha^-1 and psi = beta^-1, by exact matrix equality."""
    return [H.omega, H.psi] == [mat_inverse(H.alpha), mat_inverse(H.beta)]


def solve_antipode_monoidal(H: BiHomBialgebra):
    """Solve S(h1) h2 = eps(h) 1 = h1 S(h2) with S commuting with alpha, beta.

    Returns the unique solution as a Matrix, None when the system is
    inconsistent, and raises NonUnique if underdetermined (which cannot
    happen for a valid monoidal BiHom-bialgebra, by convolution-inverse
    uniqueness).
    """
    if H.unit is None or H.counit is None:
        raise MissingUnit("antipode needs a unit and a counit")
    if not is_monoidal(H):
        raise HypothesisFailure("antipode solving requires a monoidal bialgebra")
    res = solve(lambda S: _monoidal_antipode_table(H, S), H.field, (H.dim, H.dim))
    if res is None:
        return None
    s, null = res
    if null:
        raise NonUnique(
            f"antipode system underdetermined (solution space dim {len(null)})"
        )
    return s


def _antipode_axioms(H: BiHomBialgebra, S: Matrix, before, after):
    """mu o (before S (x) after) o Delta = eta o eps = mu o (before (x) after S) o Delta."""
    s = Lin(S)
    target = Compose(Vec(H.unit), Covec(H.counit))

    def convolution(left, right):
        return Compose(Compose(Mul(H.mu), Kron(left, right)), Comul(H.delta))

    return [
        Axiom("antipode_left", convolution(Compose(before, s), after), target),
        Axiom("antipode_right", convolution(before, Compose(after, s)), target),
    ]


def check_antipode_general(H: BiHomBialgebra, S: Matrix) -> CheckReport:
    """The Yau-twist-invariant antipode axioms for a supplied S:

    beta psi(S(h1)) alpha omega(h2) = eps(h) 1 = beta psi(h1) alpha omega(S(h2))
    and S commutes with all four structure maps.
    """
    if H.unit is None or H.counit is None:
        raise MissingUnit("the antipode axioms need a unit and a counit")
    if (S.rows, S.cols) != (H.dim, H.dim):
        raise ShapeMismatch("antipode matrix shape")
    table = [
        Commute(name, m, S)
        for name, m in (
            ("S_alpha_commute", H.alpha),
            ("S_beta_commute", H.beta),
            ("S_psi_commute", H.psi),
            ("S_omega_commute", H.omega),
        )
    ]
    bp = Lin(mat_mul(H.beta, H.psi))
    ao = Lin(mat_mul(H.alpha, H.omega))
    return check(table + _antipode_axioms(H, S, bp, ao))


def hopf_to_monoidal(
    H: BiHomBialgebra, S: Matrix, alpha: Matrix, beta: Matrix
) -> tuple:
    """From a classical Hopf algebra to a monoidal BiHom-Hopf structure:
    (H, mu o (alpha (x) beta), (alpha^-1 (x) beta^-1) o Delta, alpha, beta).

    alpha, beta must be unital counital commuting bialgebra automorphisms;
    they then automatically commute with S.  Returns (twisted H, S).
    """
    if H.unit is None or H.counit is None:
        raise MissingUnit("hopf_to_monoidal needs a unital counital bialgebra")
    inverse = {}
    for name, m in (("alpha", alpha), ("beta", beta)):
        failure = f"{name} is not a Hopf-algebra automorphism"
        try:
            inverse[name] = mat_inverse(m)
        except Singular:
            raise NotAutomorphism(failure, "is singular")
        require(NotAutomorphism, *_bialgebra_map(failure, H, m))
        if not holds(fixes(name, m, H.unit)):
            raise NotAutomorphism(failure, "does not fix the unit")
        if not holds(counit_invariant(name, H.counit, m)):
            raise NotAutomorphism(failure, "does not preserve the counit")
    _require_pairwise_commuting([("alpha", alpha), ("beta", beta)])
    twisted = yau_twist_bialgebra(H, alpha, beta, inverse["beta"], inverse["alpha"])
    return twisted, S


def check_antipode_properties(H: BiHomBialgebra, S: Matrix) -> CheckReport:
    """The three derived antipode properties for a monoidal BiHom-Hopf algebra:

    (i)   S(1) = 1 and eps o S = eps;
    (ii)  S(beta(a) alpha(b)) = S(beta(b)) S(alpha(a)) over basis pairs;
    (iii) alpha(S(h)_1) (x) beta(S(h)_2) = beta(S(h_2)) (x) alpha(S(h_1)).
    """
    d = H.dim
    s, alpha, beta, mu = Lin(S), Lin(H.alpha), Lin(H.beta), Mul(H.mu)
    return check(named("axiom:{}", _monoidal_antipode_table(H, S)) + [
        fixes("S_fixes_unit", S, H.unit),
        counit_invariant("eps_after_S", H.counit, S),
        Axiom(
            "antihomomorphism",
            Compose(s, Compose(mu, Kron(beta, alpha))),
            Compose(Compose(mu, Kron(Compose(s, beta), Compose(s, alpha))), Swap(d, d)),
        ),
        Axiom(
            "coproduct_flip",
            Compose(Kron(alpha, beta), Comul(H.delta), s),
            Compose(Kron(Compose(beta, s), Compose(alpha, s)), Swap(d, d), Comul(H.delta)),
        ),
    ])


def _monoidal_antipode_table(H: BiHomBialgebra, S: Matrix):
    """S(h1) h2 = eps(h) 1 = h1 S(h2) plus commutation with alpha and beta."""
    ident = Id(H.dim)
    return [
        Commute("S_alpha_commute", H.alpha, S), Commute("S_beta_commute", H.beta, S)
    ] + _antipode_axioms(H, S, ident, ident)
