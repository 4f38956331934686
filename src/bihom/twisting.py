"""BiHom-pseudotwistors, BiHom-twisting maps, twisted tensor products, and
lifting of classical twisting maps to the twisted setting.

A pseudotwistor holds T as a map term on D (x) D and its two companions as
map terms on D (x) D (x) D; a matrix given for one of them is read as a Lin
on those factors.  check_pseudotwistor states every clause of the main
theorem as an identity of map terms over them.  The canonical pseudotwistor
keeps its Kronecker factors, T = alpha2 (x) beta2, so the axiom engine
composes it factor by factor.  The twisted tensor product's product is one
term built from R, read off as structure constants; ttp_pseudotwistor builds
its T and companions as terms from R and reads them off as matrices.
Twisting maps R: B (x) A -> A (x) B are (dA*dB) x (dB*dA) matrices.
"""

from __future__ import annotations

from itertools import combinations

from .algebra_core import (
    BiHomAlgebra,
    _require_multiplicative,
    _require_pairwise_commuting,
    _require_twist,
    tensor_algebra,
    unit_axioms,
)
from .axioms import (
    Axiom,
    Commute,
    Compose,
    Id,
    Kron,
    Lin,
    Mul,
    Perm,
    Swap,
    Term,
    check,
    holds,
    images,
    multiplicative,
    product_tensor,
    require,
    witness,
)
from .errors import (
    HypothesisFailure,
    MapsDoNotCommute,
    PseudotwistorInvalid,
    ShapeMismatch,
    Singular,
    TwistingMapInvalid,
)
from .linalg import Matrix, inverses, mat_mul
from .report import CheckReport, Record


class Pseudotwistor(Record):
    """T on D (x) D, its companions T1tilde and T2tilde on D (x) D (x) D,
    and alpha2 and beta2 on D."""

    def __init__(self, T: Term, T1tilde: Term, T2tilde: Term, alpha2: Matrix, beta2: Matrix):
        d = alpha2.rows
        if (alpha2.cols, beta2.rows, beta2.cols) != (d, d, d):
            raise ShapeMismatch("pseudotwistor auxiliary map shape")
        for name, m, k in (("T", T, 2), ("T1tilde", T1tilde, 3), ("T2tilde", T2tilde, 3)):
            dims = (d,) * k
            if isinstance(m, Matrix):
                m = Lin(m, dims, dims) if (m.rows, m.cols) == (d**k, d**k) else None
            if m is None or (m.dom, m.cod) != (dims, dims):
                raise ShapeMismatch("T must act on the tensor square" if k == 2
                                    else "companions must act on the tensor cube")
            setattr(self, name, m)
        self.alpha2, self.beta2 = alpha2, beta2


class TwistingMap(Record):
    """R: B (x) A -> A (x) B between two BiHom-associative algebras."""

    def __init__(self, R: Matrix, dimA: int, dimB: int):
        if (R.rows, R.cols) != (dimA * dimB, dimB * dimA):
            raise ShapeMismatch("twisting map must send B (x) A to A (x) B")
        self.R, self.dimA, self.dimB = R, dimA, dimB


# ---------------------------------------------------------------------------
# pseudotwistors
# ---------------------------------------------------------------------------


def check_pseudotwistor(D: BiHomAlgebra, P: Pseudotwistor) -> CheckReport:
    """All seven defining identities plus the hypothesis clauses, each as
    an identity of maps on tensor powers of D."""
    if P.alpha2.rows != D.dim:
        raise ShapeMismatch("pseudotwistor dimension != algebra dimension")
    T, T1, T2, ident, mu = P.T, P.T1tilde, P.T2tilde, Id(D.dim), Mul(D.mu)
    names = [("alpha", D.alpha), ("beta", D.beta), ("alpha2", P.alpha2), ("beta2", P.beta2)]
    table = [
        multiplicative("alpha2_multiplicative", D.mu, P.alpha2),
        multiplicative("beta2_multiplicative", D.mu, P.beta2),
    ]
    table += [Commute(f"{n1}_{n2}_commute", m1, m2) for (n1, m1), (n2, m2) in combinations(names, 2)]
    for name, m in (("alpha2", P.alpha2), ("beta2", P.beta2), ("alpha", D.alpha), ("beta", D.beta)):
        both = Kron(Lin(m), Lin(m))
        table.append(Axiom(f"T_{name}_compat", Compose(both, T), Compose(T, both)))
    alpha_mu, mu_beta = Kron(Lin(D.alpha), mu), Kron(mu, Lin(D.beta))
    table += [
        Axiom("T_left_product", Compose(T, alpha_mu), Compose(alpha_mu, T1, Kron(T, ident))),
        Axiom("T_right_product", Compose(T, mu_beta), Compose(mu_beta, T2, Kron(ident, T))),
        Axiom(
            "companion_exchange",
            Compose(T1, Kron(T, ident), Kron(Lin(P.alpha2), T)),
            Compose(T2, Kron(ident, T), Kron(T, Lin(P.beta2))),
        ),
    ]
    return check(table)


def canonical_pseudotwistor(D: BiHomAlgebra, alpha2: Matrix, beta2: Matrix) -> Pseudotwistor:
    """T = alpha2 (x) beta2 with companions id (x) id (x) beta2 and
    alpha2 (x) id (x) id; realizes the Yau twist as a pseudotwistor."""
    try:
        _require_twist(D.mu, D.alpha, D.beta, alpha2, beta2)
    except MapsDoNotCommute as exc:
        raise HypothesisFailure(f"twist hypotheses fail: {exc}", witness=exc.witness) from exc
    a2, b2, ident = Lin(alpha2), Lin(beta2), Id(D.dim)
    return Pseudotwistor(
        T=Kron(a2, b2),
        T1tilde=Kron(ident, ident, b2),
        T2tilde=Kron(a2, ident, ident),
        alpha2=alpha2,
        beta2=beta2,
    )


def apply_pseudotwistor(D: BiHomAlgebra, P: Pseudotwistor) -> BiHomAlgebra:
    """(D, mu o T, alpha~ o alpha2, beta~ o beta2); checks P first."""
    check_pseudotwistor(D, P).require(PseudotwistorInvalid, "pseudotwistor fails {}")
    out = BiHomAlgebra(
        field=D.field,
        dim=D.dim,
        mu=product_tensor(Compose(Mul(D.mu), P.T)),
        alpha=mat_mul(D.alpha, P.alpha2),
        beta=mat_mul(D.beta, P.beta2),
        unit=None,
        labels=list(D.labels),
    )
    if D.unit is not None:
        out.unit = _validated_unit(out, D.unit)
    return out


def _validated_unit(a: BiHomAlgebra, candidate):
    """Keep the unit only if it actually satisfies the unit axioms."""
    if candidate is None or not holds(*unit_axioms(a, candidate)):
        return None
    return list(candidate)


# ---------------------------------------------------------------------------
# twisting maps
# ---------------------------------------------------------------------------


def _twisting(tw: TwistingMap):
    """R as a map B (x) A -> A (x) B."""
    return Lin(tw.R, (tw.dimB, tw.dimA), (tw.dimA, tw.dimB))


def _intertwines(name, R, mA, mB):
    """(mA (x) mB) o R = R o (mB (x) mA)."""
    return Axiom(name, Compose(Kron(Lin(mA), Lin(mB)), R), Compose(R, Kron(Lin(mB), Lin(mA))))


def check_twisting_map(A: BiHomAlgebra, B: BiHomAlgebra, tw: TwistingMap) -> CheckReport:
    """The four identities of a BiHom-twisting map."""
    if tw.dimA != A.dim or tw.dimB != B.dim:
        raise ShapeMismatch("twisting map dimensions")
    # all four maps must be bijective; only alpha_A^-1 and beta_B^-1 are kept
    aAi, bBi = inverses(
        "twisting maps need bijective structure maps", A.alpha, A.beta, B.alpha, B.beta)[::3]
    R, idA, idB = _twisting(tw), Id(A.dim), Id(B.dim)
    # R o (alpha_B (x) mu_A) =
    #   (mu_A (x) beta_B) o (id_A (x) R) o (id_A (x) alpha_B beta_B^-1 (x) id_A) o (R (x) id_A)
    left = Compose(
        Kron(Mul(A.mu), Lin(B.beta)), Kron(idA, R),
        Kron(idA, Lin(mat_mul(B.alpha, bBi)), idA), Kron(R, idA),
    )
    # R o (mu_B (x) beta_A) =
    #   (alpha_A (x) mu_B) o (R (x) id_B) o (id_B (x) alpha_A^-1 beta_A (x) id_B) o (id_B (x) R)
    right = Compose(
        Kron(Lin(A.alpha), Mul(B.mu)), Kron(R, idB),
        Kron(idB, Lin(mat_mul(aAi, A.beta)), idB), Kron(idB, R),
    )
    return check([
        _intertwines("R_alpha_compat", R, A.alpha, B.alpha),
        _intertwines("R_beta_compat", R, A.beta, B.beta),
        Axiom("R_left_product", Compose(R, Kron(Lin(B.alpha), Mul(A.mu))), left),
        Axiom("R_right_product", Compose(R, Kron(Mul(B.mu), Lin(A.beta))), right),
    ])


def flip_map(A: BiHomAlgebra, B: BiHomAlgebra) -> TwistingMap:
    """R(b (x) a) = a (x) b."""
    field = A.field
    da, db = A.dim, B.dim
    R = Matrix.zero(field, da * db, db * da)
    one = field.one()
    for b in range(db):
        for a in range(da):
            R.e[a * db + b][b * da + a] = one
    return TwistingMap(R=R, dimA=da, dimB=db)


def helper_identity_witness(A: BiHomAlgebra, B: BiHomAlgebra, tw: TwistingMap):
    """The auxiliary exchange identity every accepted R satisfies:

    (aB^-1 bB)([aB bB^-1(b)]_R) (x) a_R = b_R (x) (aA bA^-1)([aA^-1 bA(a)]_R)

    checked on B (x) A; None when it holds, otherwise the witness at the
    first basis pair (b, a) where it fails.
    """
    da, db = A.dim, B.dim
    R, flip = _twisting(tw), Swap(da, db)
    abinv_b, ab_binv, aA_bAinv, aAinv_bA = _conjugators("helper identity", A, B)
    return witness(Axiom(
        "helper_identity",
        Compose(Kron(abinv_b, Id(da)), flip, R, Kron(ab_binv, Id(da))),
        Compose(Kron(Id(db), aA_bAinv), flip, R, Kron(Id(db), aAinv_bA)),
    ))


def _conjugators(what, A: BiHomAlgebra, B: BiHomAlgebra):
    """Lin terms of aB^-1 bB, aB bB^-1, aA bA^-1 and aA^-1 bA, each
    structure map inverted once; a singular one raises Singular naming what."""
    aAi, bAi, aBi, bBi = inverses(
        f"{what} needs bijective structure maps", A.alpha, A.beta, B.alpha, B.beta)
    return (Lin(mat_mul(aBi, B.beta)), Lin(mat_mul(B.alpha, bBi)),
            Lin(mat_mul(A.alpha, bAi)), Lin(mat_mul(aAi, A.beta)))


def _ttp_square(tw: TwistingMap):
    """T((a (x) b) (x) (a' (x) b')) = (a (x) b_R) (x) (a'_R (x) b'), a map on
    the factors (dimA, dimB, dimA, dimB)."""
    da, db = tw.dimA, tw.dimB
    return Compose(Perm((da, da, db, db), (0, 2, 1, 3)), Kron(Id(da), _twisting(tw), Id(db)))


def ttp_pseudotwistor(A: BiHomAlgebra, B: BiHomAlgebra, tw: TwistingMap) -> Pseudotwistor:
    """The pseudotwistor on the tensor-product algebra realizing A (x)_R B.

    T13 is T on the outer two of three copies of A (x) B.  The companions
    conjugate T13 by alpha_B beta_B^-1 on the first B leg (first companion)
    and by alpha_A^-1 beta_A on the third A leg (second companion).  All
    three are map terms on (dA, dB, dA, dB) factors, read off as the
    matrices of their images, which the Pseudotwistor holds as Lin terms on
    copies of A (x) B.
    """
    field, da, db = A.field, A.dim, B.dim
    T, rest = _ttp_square(tw), (Id(da), Id(db), Id(da), Id(db))
    swap23 = Perm((da, db) * 3, (0, 1, 4, 5, 2, 3))
    t13 = Compose(swap23, Kron(T, Id(da), Id(db)), swap23)
    abinv_b, ab_binv, aA_bAinv, aAinv_bA = _conjugators("twisted tensor pseudotwistor", A, B)
    t1 = Compose(Kron(Id(da), abinv_b, *rest), t13, Kron(Id(da), ab_binv, *rest))
    t2 = Compose(Kron(*rest, aA_bAinv, Id(db)), t13, Kron(*rest, aAinv_bA, Id(db)))
    T1, T2, T = (Matrix.from_columns(field, images(m)) for m in (t1, t2, T))
    ident = Matrix.identity(field, da * db)
    return Pseudotwistor(T=T, T1tilde=T1, T2tilde=T2, alpha2=ident, beta2=ident.copy())


def twisted_tensor_product(A: BiHomAlgebra, B: BiHomAlgebra, tw: TwistingMap) -> BiHomAlgebra:
    """A (x)_R B: product (a (x) b)(a' (x) b') = a a'_R (x) b_R b'.

    The product is one map term, (mu_A (x) mu_B) o (id (x) R (x) id), which
    is mu_{A (x) B} o T for the induced pseudotwistor T; ttp_pseudotwistor
    supplies T and its companions when the full pseudotwistor equations are
    wanted.  The twisting map is checked first.
    """
    check_twisting_map(A, B, tw).require(TwistingMapInvalid, "twisting map fails {}")
    da, db = A.dim, B.dim
    # (a (x) b) (x) (a' (x) b') -> a (x) a'_R (x) b_R (x) b' -> a a'_R (x) b_R b'
    product = Compose(Kron(Mul(A.mu), Mul(B.mu)), Kron(Id(da), _twisting(tw), Id(db)))
    out = tensor_algebra(A, B, product)
    out.unit = _validated_unit(out, out.unit)
    return out


def lift_twisting_map(
    A: BiHomAlgebra,
    B: BiHomAlgebra,
    P: TwistingMap,
    alphaA: Matrix,
    betaA: Matrix,
    alphaB: Matrix,
    betaB: Matrix,
) -> TwistingMap:
    """Lift a classical twisting map P along Yau twists of both factors:

    U(b (x) a) = betaA^-1(betaA(a)_P) (x) alphaB^-1(alphaB(b)_P).

    A and B are classical algebras (identity structure maps); the classical
    twisting-map equations for P, the commutation conditions, and the
    automorphism hypotheses are verified.
    """
    da, db = A.dim, B.dim
    inv = {}
    for name, m, alg in (
        ("alphaA", alphaA, A),
        ("betaA", betaA, A),
        ("alphaB", alphaB, B),
        ("betaB", betaB, B),
    ):
        _require_multiplicative(alg.mu, m, name)
        try:
            inv[name], = inverses(name, m)
        except Singular:
            raise HypothesisFailure(f"{name} must be an isomorphism")
    _require_pairwise_commuting([("alphaA", alphaA), ("betaA", betaA)])
    _require_pairwise_commuting([("alphaB", alphaB), ("betaB", betaB)])

    R, idA, idB, muA, muB = _twisting(P), Id(da), Id(db), Mul(A.mu), Mul(B.mu)
    require(
        HypothesisFailure,
        Axiom(
            "P fails the classical left twisting equation",
            Compose(R, Kron(idB, muA)),
            Compose(Kron(muA, idB), Kron(idA, R), Kron(R, idA)),
        ),
        Axiom(
            "P fails the classical right twisting equation",
            Compose(R, Kron(muB, idA)),
            Compose(Kron(idA, muB), Kron(R, idB), Kron(idB, R)),
        ),
        _intertwines("P does not intertwine the alphas", R, alphaA, alphaB),
        _intertwines("P does not intertwine the betas", R, betaA, betaB),
    )

    U = Compose(
        Kron(Lin(inv["betaA"]), Lin(inv["alphaB"])), R, Kron(Lin(alphaB), Lin(betaA))
    )
    return TwistingMap(R=Matrix.from_columns(A.field, images(U)), dimA=da, dimB=db)
