"""Constructions against their defining formulas, over Q and F_7.

Each expected value is computed from the formula on nested lists of
Fractions or ints mod p with bench/oracle.py's arithmetic, not with bihom:

- multiply: sum_{i,j} x_i y_j mu[i][j];
- dual_coalgebra: Delta(e_k) = sum mu[i][j][k] e_i (x) e_j, psi = beta^T,
  omega = alpha^T, counit = unit; dual_algebra the other way round;
- semidirect_product: [(x, a), (y, b)] = ([x, y], x.b - (alpha^-1 beta)(y).
  (alpha_M beta_M^-1)(a)) on L (+) M, with the block-diagonal maps.
"""

import random
from fractions import Fraction

import pytest

from bihom import (
    LeftModule,
    PrimeField,
    QQ,
    adjoint_rep,
    commutator_lie,
    dual_algebra,
    dual_coalgebra,
    example_family,
    module_to_lie_rep,
    semidirect_product,
    yau_twist_lie,
)
from bihom import fixtures as fx

from helpers import oracle, plain, random_bihom_algebra

F7 = PrimeField(7)


def scalars(field):
    return oracle.Scalars("Q" if field == QQ else f"Fp:{field.p}")


def algebras():
    """(id, algebra) over Q and F_7, unital and not."""
    fam1, fam1_f7 = example_family(1, 3, 2), example_family(1, 3, 2, F7)
    return [
        ("fam1", fam1), ("fam2", example_family(2, Fraction(1, 2), 3)),
        ("kc4t", fx.kc4_twisted_bialgebra().algebra_part()),
        ("random", random_bihom_algebra(random.Random(5), dim=3)),
        ("fam1_F7", fam1_f7), ("kc4t_F7", fx.kc4_twisted_bialgebra(F7).algebra_part()),
        ("kc3_F7_no_unit", fx.cyclic_group_bialgebra(3, F7).algebra_part()),
    ]


def coalgebras():
    cs = [("sweedler", fx.sweedler_hopf()[0].coalgebra_part()),
          ("kc4t", fx.kc4_twisted_bialgebra().coalgebra_part()),
          ("kc4t_F7", fx.kc4_twisted_bialgebra(F7).coalgebra_part())]
    no_counit = fx.cyclic_group_bialgebra(3, F7).coalgebra_part()
    no_counit.counit = None
    return cs + [("kc3_F7_no_counit", no_counit)]


def lie_with_reps():
    """(id, L, rep) with alpha and beta_M invertible."""
    out = []
    for field in (QQ, F7):
        sl2 = fx.sl2_lie(field)
        L = yau_twist_lie(sl2, fx.sl2_scaling(2, field), fx.sl2_scaling(3, field))
        fam1 = example_family(1, 3, 2, field)
        mod = LeftModule(dim=2, action=fam1.mu, alphaM=fam1.alpha, betaM=fam1.beta)
        out += [(f"sl2_twisted_adjoint_{field}", L, adjoint_rep(L)),
                (f"fam1_regular_{field}", commutator_lie(fam1), module_to_lie_rep(fam1, mod))]
    return out


@pytest.mark.parametrize("name,a", algebras(), ids=[n for n, _ in algebras()])
def test_multiply_is_the_bilinear_formula(name, a):
    sc, rng = scalars(a.field), random.Random(name)
    mu = plain(sc, a.mu)
    for _ in range(20):
        if a.field == QQ:
            x, y = ([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.dim)]
                    for _ in range(2))
        else:
            x, y = ([a.field.from_int(rng.randrange(7)) for _ in range(a.dim)]
                    for _ in range(2))
        assert plain(sc, a.multiply(x, y)) == oracle.bilinear(sc, mu, plain(sc, x),
                                                               plain(sc, y))
    for i in range(a.dim):  # plain int coordinates, in every field
        e = [int(k == i) for k in range(a.dim)]
        assert plain(sc, a.multiply(e, e)) == mu[i][i]


@pytest.mark.parametrize("name,a", algebras(), ids=[n for n, _ in algebras()])
def test_dual_coalgebra_is_the_transpose(name, a):
    sc = scalars(a.field)
    expect = oracle.dual_coalgebra(sc, {"mu": plain(sc, a.mu), "alpha": plain(sc, a.alpha),
                                        "beta": plain(sc, a.beta),
                                        "unit": None if a.unit is None else plain(sc, a.unit)})
    C = dual_coalgebra(a)
    got = {"delta": plain(sc, C.delta), "psi": plain(sc, C.psi),
           "omega": plain(sc, C.omega),
           "counit": None if C.counit is None else plain(sc, C.counit)}
    assert got == expect
    assert C.field == a.field and C.labels == [f"{label}*" for label in a.labels]


@pytest.mark.parametrize("name,C", coalgebras(), ids=[n for n, _ in coalgebras()])
def test_dual_algebra_is_the_transpose(name, C):
    sc, d = scalars(C.field), C.dim
    delta = plain(sc, C.delta)
    a = dual_algebra(C)
    assert plain(sc, a.mu) == [[[delta[k][i][j] for k in range(d)] for j in range(d)]
                               for i in range(d)]
    assert plain(sc, a.alpha) == oracle.transpose(plain(sc, C.omega))
    assert plain(sc, a.beta) == oracle.transpose(plain(sc, C.psi))
    assert a.unit == (None if C.counit is None else list(C.counit))
    assert a.field == C.field and a.labels == [f"{label}*" for label in C.labels]


@pytest.mark.parametrize("name,L,rep", lie_with_reps(), ids=[n for n, _, _ in lie_with_reps()])
def test_semidirect_product_is_the_bracket_formula(name, L, rep):
    sc, n, m = scalars(L.field), L.dim, rep.dim
    br, rho = plain(sc, L.bracket), plain(sc, rep.rho)
    alpha, beta = plain(sc, L.alpha), plain(sc, L.beta)
    alphaM, betaM = plain(sc, rep.alphaM), plain(sc, rep.betaM)
    p = oracle.matmul(sc, oracle.inverse(sc, alpha), beta)
    q = oracle.matmul(sc, alphaM, oracle.inverse(sc, betaM))

    def split(k):
        """e_k of L (+) M as the pair (x, a)."""
        e = oracle.basis(sc, n + m, k)
        return e[:n], e[n:]

    def bracket(u, v):
        (x, a), (y, b) = u, v
        acted = oracle.bilinear(sc, rho, x, b)
        twisted = oracle.bilinear(sc, rho, oracle.apply(sc, p, y), oracle.apply(sc, q, a))
        return oracle.bilinear(sc, br, x, y) + [sc.norm(s - t) for s, t in zip(acted, twisted)]

    def block(top, bottom):
        return [row + [0] * m for row in top] + [[0] * n + row for row in bottom]

    S = semidirect_product(L, rep)
    d = n + m
    assert S.dim == d and S.field == L.field
    assert plain(sc, S.bracket) == [[bracket(split(i), split(j)) for j in range(d)]
                                    for i in range(d)]
    assert plain(sc, S.alpha) == block(alpha, alphaM)
    assert plain(sc, S.beta) == block(beta, betaM)
    assert S.labels == list(L.labels) + [f"m{i}" for i in range(m)]
