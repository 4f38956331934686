"""Canonical structures used throughout the test suite and the CLI demo:
group-algebra bialgebras, the 4-dimensional small Hopf algebra with a
nontrivial order-2 automorphism, characteristic-p bialgebras with nonzero
primitive spaces, sl2, and the cyclic-group self-action module algebra.
"""

from __future__ import annotations

from .bialgebra import BiHomBialgebra, ModuleAlgebraAction, yau_twist_bialgebra
from .exactnum import QQ, PrimeField, divide
from .lie import BiHomLieAlgebra
from .linalg import Matrix, Tensor3, unit_vec


def _classical(field, mu, delta, counit, labels) -> BiHomBialgebra:
    """A classical bialgebra as a BiHom one: all four structure maps are
    identities, each its own object, and the unit is e_0."""
    n = len(labels)
    alpha, beta, psi, omega = (Matrix.identity(field, n) for _ in range(4))
    return BiHomBialgebra(field=field, dim=n, mu=mu, delta=delta, alpha=alpha, beta=beta,
                          psi=psi, omega=omega, unit=unit_vec(field, n, 0), counit=counit,
                          labels=labels)


def cyclic_group_bialgebra(n: int, field=QQ) -> BiHomBialgebra:
    """k[C_n] with basis 1, g, ..., g^(n-1), grouplike coproduct, id maps."""
    zero = field.zero()
    one = field.one()

    def mu_col(i, j):
        v = [zero] * n
        v[(i + j) % n] = one
        return v

    mu = Tensor3.from_function(field, n, n, n, mu_col)
    delta = Tensor3.zero(field, n, n, n)
    for i in range(n):
        delta.t[i][i][i] = one
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return _classical(field, mu, delta, [one] * n, labels)


def cyclic_power_map(n: int, k: int, field=QQ) -> Matrix:
    """The bialgebra endomorphism g -> g^k of k[C_n]."""
    m = Matrix.zero(field, n, n)
    one = field.one()
    for i in range(n):
        m.e[(k * i) % n][i] = one
    return m


def cyclic_antipode(n: int, field=QQ) -> Matrix:
    """S(g^i) = g^(-i)."""
    return cyclic_power_map(n, n - 1 if n > 1 else 0, field)


def kc4_twisted_bialgebra(field=QQ) -> BiHomBialgebra:
    """k[C_4] Yau-twisted by alpha: g -> g^3 (beta = psi = omega = id)."""
    H = cyclic_group_bialgebra(4, field)
    g3 = cyclic_power_map(4, 3, field)
    ident = Matrix.identity(field, 4)
    return yau_twist_bialgebra(H, g3, ident, ident.copy(), ident.copy())


def cyclic_self_action(n: int, k: int, field=QQ) -> ModuleAlgebraAction:
    """k[C_n] acting on itself through the automorphism g -> g^k:
    g^i . g^j = g^(k^i * j).  A genuine module-algebra action because the
    basis is grouplike and each g^i acts as an algebra automorphism.
    Requires k^n = 1 mod n so the action respects g^n = 1.
    """
    if pow(k, n, n) != 1 % n:
        raise ValueError(f"k={k} does not have order dividing n={n}")
    zero = field.zero()
    one = field.one()

    def col(i, j):
        v = [zero] * n
        v[(pow(k, i, n) * j) % n] = one
        return v

    return ModuleAlgebraAction(action=Tensor3.from_function(field, n, n, n, col))


def sweedler_hopf(field=QQ) -> tuple:
    """The 4-dimensional Hopf algebra k<g, x>/(g^2-1, x^2, xg+gx).

    Basis 1, g, x, gx; Delta(g) = g (x) g, Delta(x) = 1 (x) x + x (x) g,
    S(g) = g, S(x) = -xg.  Returns (bialgebra, antipode matrix, involution)
    where the involution is the Hopf automorphism g -> g, x -> -x.
    """
    zero = field.zero()
    one = field.one()
    # the basis g^a x^b in the order 1, g, x, gx, by (a, b)
    idx = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    rev = {v: k for k, v in idx.items()}

    def mono_mul(p, q):
        """(g^a x^b)(g^c x^d) -> (sign, basis index or None for zero)."""
        a, b = rev[p]
        c, d = rev[q]
        if b and d:
            return one - one, 0  # x^2 = 0
        sign = -one if (b and c) else one  # x g = -g x
        return sign, idx[((a + c) % 2, b + d)]

    def mu_col(p, q):
        v = [zero] * 4
        s, t = mono_mul(p, q)
        if s:
            v[t] = s
        return v

    mu = Tensor3.from_function(field, 4, 4, 4, mu_col)
    delta = Tensor3.zero(field, 4, 4, 4)
    # Delta(1) = 1 (x) 1; Delta(g) = g (x) g
    delta.t[0][0][0] = one
    delta.t[1][1][1] = one
    # Delta(x) = 1 (x) x + x (x) g
    delta.t[2][0][2] = one
    delta.t[2][2][1] = one
    # Delta(gx) = Delta(g) Delta(x) = g (x) gx + gx (x) 1
    delta.t[3][1][3] = one
    delta.t[3][3][0] = one
    H = _classical(field, mu, delta, [one, one, zero, zero], ["1", "g", "x", "gx"])
    # S(1) = 1, S(g) = g, S(x) = -xg = gx and S(gx) = S(x)S(g) = gxg = -x
    S = Matrix.zero(field, 4, 4)
    S.e[0][0] = one
    S.e[1][1] = one
    S.e[3][2] = one
    S.e[2][3] = -one
    invol = Matrix.diagonal(field, [one, one, -one, -one])
    return H, S, invol


def f2_restricted_line() -> BiHomBialgebra:
    """F_2[X]/(X^2) with X primitive: the canonical nonzero-primitive fixture."""
    field = PrimeField(2)
    zero = field.zero()
    one = field.one()
    mu = Tensor3.zero(field, 2, 2, 2)
    mu.t[0][0][0] = one
    mu.t[0][1][1] = one
    mu.t[1][0][1] = one
    delta = Tensor3.zero(field, 2, 2, 2)
    delta.t[0][0][0] = one
    delta.t[1][0][1] = one
    delta.t[1][1][0] = one
    return _classical(field, mu, delta, [one, zero], ["1", "X"])


def f3_truncated_line() -> BiHomBialgebra:
    """F_3[X]/(X^3) with X primitive; Prim = span{X} only."""
    field = PrimeField(3)
    zero = field.zero()
    one = field.one()
    n = 3
    mu = Tensor3.zero(field, n, n, n)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                mu.t[i][j][i + j] = one
    # Delta(X^k) = sum_i binom(k, i) X^i (x) X^(k-i)
    delta = Tensor3.zero(field, n, n, n)
    binom = [[1, 0, 0], [1, 1, 0], [1, 2, 1]]
    for k in range(n):
        for i in range(k + 1):
            delta.t[k][i][k - i] = field.from_int(binom[k][i])
    return _classical(field, mu, delta, [one, zero, zero], ["1", "X", "X^2"])


def idempotent_monoid_bialgebra(field=QQ) -> BiHomBialgebra:
    """k[M] for M = {1, t} with t^2 = t: a monoidal (identity-maps)
    bialgebra with no antipode, since t is not invertible."""
    zero = field.zero()
    one = field.one()
    mu = Tensor3.zero(field, 2, 2, 2)
    mu.t[0][0][0] = one
    mu.t[0][1][1] = one
    mu.t[1][0][1] = one
    mu.t[1][1][1] = one
    delta = Tensor3.zero(field, 2, 2, 2)
    delta.t[0][0][0] = one
    delta.t[1][1][1] = one
    return _classical(field, mu, delta, [one, one], ["1", "t"])


def sl2_lie(field=QQ) -> BiHomLieAlgebra:
    """sl2 over Q with basis h, e, f: [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    zero = field.zero()
    one = field.one()
    two = one + one
    br = Tensor3.zero(field, 3, 3, 3)
    # indices: 0 = h, 1 = e, 2 = f
    br.t[0][1][1] = two
    br.t[1][0][1] = -two
    br.t[0][2][2] = -two
    br.t[2][0][2] = two
    br.t[1][2][0] = one
    br.t[2][1][0] = -one
    ident = Matrix.identity(field, 3)
    return BiHomLieAlgebra(
        field=field, dim=3, bracket=br, alpha=ident, beta=ident.copy(),
        labels=["h", "e", "f"],
    )


def sl2_scaling(t, field=QQ) -> Matrix:
    """The bracket-multiplicative map h -> h, e -> t e, f -> t^-1 f."""
    t = field.promote(t)
    return Matrix.diagonal(field, [field.one(), t, divide(field.one(), t)])
