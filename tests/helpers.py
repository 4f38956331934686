"""Random fixture generators shared by the unit and acceptance tests.

All generators take a random.Random instance so every test run is
reproducible; structures come out exact over Q.
"""

import importlib.util
import os
from fractions import Fraction

from bihom.algebra_core import (
    BiHomAlgebra,
    truncated_polynomial_algebra,
)
from bihom.bialgebra import ModuleAlgebraAction
from bihom.exactnum import QQ, PrimeFieldElement
from bihom.fixtures import cyclic_group_bialgebra
from bihom.linalg import Matrix, Tensor3, mat_inverse, mat_mul


def _bench_oracle():
    """bench/oracle.py: arithmetic over plain Fractions and ints mod p,
    written without bihom."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "oracle.py")
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _bench_oracle()


def plain(sc, x):
    """A matrix, tensor, vector or scalar of bihom as nested lists of the
    oracle's scalars."""
    if isinstance(x, Matrix):
        return plain(sc, x.e)
    if isinstance(x, Tensor3):
        return plain(sc, x.t)
    if isinstance(x, list):
        return [plain(sc, y) for y in x]
    return sc.norm(x.value if isinstance(x, PrimeFieldElement) else x)


def rand_fraction(rng, lo=-4, hi=4, nonzero=False):
    while True:
        num = rng.randint(lo, hi)
        den = rng.randint(1, 3)
        f = Fraction(num, den)
        if f or not nonzero:
            return f


def unimodular(rng, n, steps=3):
    """A random integer matrix with determinant +-1 (cheap to invert)."""
    m = Matrix.identity(QQ, n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = QQ.promote(rng.choice([-2, -1, 1, 2]))
        for k in range(n):
            m.e[i][k] = m.e[i][k] + c * m.e[j][k]
    return m


def conjugate_algebra(a: BiHomAlgebra, g: Matrix) -> tuple:
    """Transport the structure along the basis change e_i -> g(e_i).

    Returns the transported algebra and a function transporting maps.
    """
    ginv = mat_inverse(g)

    def transport_map(m):
        return mat_mul(ginv, mat_mul(m, g))

    def col(i, j):
        return ginv.apply(a.multiply(g.column(i), g.column(j)))

    mu = Tensor3.from_function(a.field, a.dim, a.dim, a.dim, col)
    unit = ginv.apply(a.unit) if a.unit is not None else None
    out = BiHomAlgebra(
        field=a.field,
        dim=a.dim,
        mu=mu,
        alpha=transport_map(a.alpha),
        beta=transport_map(a.beta),
        unit=unit,
        labels=list(a.labels),
    )
    return out, transport_map


def _group_algebra(rng, d):
    from bihom.fixtures import cyclic_group_bialgebra

    return cyclic_group_bialgebra(d).algebra_part()


def _diagonal_algebra(d):
    field = QQ
    zero, one = field.zero(), field.one()
    mu = Tensor3.zero(field, d, d, d)
    for i in range(d):
        mu.t[i][i][i] = one
    ident = Matrix.identity(field, d)
    return BiHomAlgebra(
        field=field, dim=d, mu=mu, alpha=ident, beta=ident.copy(),
        unit=[one] * d,
    )


def _matrix_algebra_2x2():
    from bihom.algebra_core import endomorphism_algebra

    ident = Matrix.identity(QQ, 2)
    return endomorphism_algebra(ident, ident.copy())


def _substitution_endo(rng, a: BiHomAlgebra, invertible):
    """X -> c1 X + c2 X^2 + ... on a truncated polynomial algebra."""
    d = a.dim
    c1 = rand_fraction(rng, nonzero=True) if invertible else rand_fraction(rng)
    coeffs = [c1] + [rand_fraction(rng, -2, 2) for _ in range(d - 2)]
    m = Matrix.zero(QQ, d, d)
    m.e[0][0] = QQ.one()
    # image of X
    image = [QQ.zero()] * d
    for k, c in enumerate(coeffs, start=1):
        if k < d:
            image[k] = QQ.promote(c)
    power = [QQ.zero()] * d
    power[0] = QQ.one()
    for i in range(1, d):
        power = a.multiply(power, image)
        for r in range(d):
            m.e[r][i] = power[r]
    return m


def _power_endo_group(rng, d, invertible):
    from bihom.fixtures import cyclic_power_map
    from math import gcd

    while True:
        k = rng.randrange(d)
        if not invertible or gcd(k, d) == 1:
            return cyclic_power_map(d, k)


def _function_endo_diagonal(rng, d, invertible):
    if invertible:
        f = list(range(d))
        rng.shuffle(f)
    else:
        f = [rng.randrange(d) for _ in range(d)]
    m = Matrix.zero(QQ, d, d)
    one = QQ.one()
    # sigma(e_i) = sum of e_j over the preimage f^-1(i): multiplicative and
    # unital for any f, invertible exactly when f is a bijection
    for j in range(d):
        m.e[j][f[j]] = one
    return m


def random_associative_with_endos(rng, dim=None, invertible=True, conjugated=True):
    """A classical associative algebra and a commuting multiplicative pair.

    Returns (A, alpha, beta) with A carrying identity structure maps;
    alpha and beta commute, are multiplicative, and are invertible when
    requested.  Optionally transported along a random basis change so
    the structure constants are not monomial.
    """
    dim = dim or rng.choice([2, 3, 4])
    kind = rng.choice(["poly", "group", "diag"] + (["mat"] if dim == 4 else []))
    if kind == "poly":
        a = truncated_polynomial_algebra(QQ, dim)
        sigma = _substitution_endo(rng, a, invertible)
        powers = [Matrix.identity(QQ, dim), sigma, mat_mul(sigma, sigma)]
        alpha = powers[rng.randrange(3)]
        beta = powers[rng.randrange(3)]
    elif kind == "group":
        a = _group_algebra(rng, dim)
        alpha = _power_endo_group(rng, dim, invertible)
        beta = _power_endo_group(rng, dim, invertible)
    elif kind == "diag":
        a = _diagonal_algebra(dim)
        sigma = _function_endo_diagonal(rng, dim, invertible)
        powers = [Matrix.identity(QQ, dim), sigma, mat_mul(sigma, sigma)]
        alpha = powers[rng.randrange(3)]
        beta = powers[rng.randrange(3)]
    else:
        a = _matrix_algebra_2x2()
        u = unimodular(rng, 2)
        v_scale = rand_fraction(rng, nonzero=True)
        w_shift = rand_fraction(rng)
        # v = s*u + t*I commutes with u; retry until invertible
        while True:
            v = Matrix(
                QQ,
                [
                    [v_scale * u.e[i][j] + (w_shift if i == j else 0) for j in range(2)]
                    for i in range(2)
                ],
            )
            try:
                mat_inverse(v)
                break
            except Exception:
                w_shift = w_shift + 1
        alpha = _conjugation_on_matrix_algebra(u)
        beta = _conjugation_on_matrix_algebra(v)
    if conjugated and rng.random() < 0.5:
        g = unimodular(rng, a.dim)
        a, transport = conjugate_algebra(a, g)
        alpha = transport(alpha)
        beta = transport(beta)
    return a, alpha, beta


def _conjugation_on_matrix_algebra(u: Matrix) -> Matrix:
    """Ad_u on the n^2-dimensional matrix algebra basis E_ij."""
    n = u.rows
    uinv = mat_inverse(u)
    d = n * n
    m = Matrix.zero(QQ, d, d)
    for k in range(n):
        for l in range(n):
            for r in range(n):
                x = u.e[r][k]
                if not x:
                    continue
                for c in range(n):
                    y = uinv.e[l][c]
                    if y:
                        m.e[r * n + c][k * n + l] = x * y
    return m


def random_bihom_algebra(rng, dim=None):
    """A random BiHom-associative algebra with invertible structure maps,
    produced as a Yau twist of a random associative algebra."""
    from bihom.algebra_core import yau_twist

    a, alpha, beta = random_associative_with_endos(rng, dim=dim, invertible=True)
    return yau_twist(a, alpha, beta)


def pairs(plane):
    """Nonzero (j, k, coeff) triples of a coefficient plane."""
    return [(j, k, x) for j, row in enumerate(plane) for k, x in enumerate(row) if x]


def bilinear(t, x, y):
    """sum_{i,j} x_i y_j t[i][j], the bilinear map with structure constants t
    on two coordinate lists."""
    out = [t.field.zero()] * t.d3
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                out = [o + a * b * z for o, z in zip(out, t.t[i][j])]
    return out


def non_bialgebra_action(field):
    """(H, A, action): H = k[C_3] with Delta(g) = g (x) g + (1 - g^2) (x)
    (g - g^2), counital but neither coassociative nor multiplicative,
    acting on A = k[C_2] by h.a = eps(h) a, which passes the module-algebra
    axioms."""
    H = cyclic_group_bialgebra(3, field)
    for (j, k), x in {(1, 1): 1, (0, 1): 1, (0, 2): -1, (2, 1): -1, (2, 2): 1}.items():
        H.delta.t[1][j][k] = H.delta.t[1][j][k] + x - int((j, k) == (1, 1))
    A = cyclic_group_bialgebra(2, field).algebra_part()
    act = ModuleAlgebraAction(Tensor3(field, [[[H.counit[h] * int(a == b) for b in range(2)]
                                               for a in range(2)] for h in range(3)]))
    return H, A, act
