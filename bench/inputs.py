"""Seeded inputs, built from plain Python numbers without calling bihom.

Every generator takes a ``random.Random``; the same seed yields byte-identical
files and parameter lists on every commit, which the input digest in each
run's record makes checkable.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd

from oracle import Scalars, apply, basis, bilinear, column, inverse, matmul


class Digest:
    """sha256 over the seed and every generated input, in generation order."""

    def __init__(self, seed: int):
        self._h = hashlib.sha256(f"seed={seed}\n".encode())

    def add(self, label: str, payload) -> None:
        text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True,
                                                                   default=str)
        self._h.update(f"{label}\n{len(text)}\n".encode())
        self._h.update(text.encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def small_fraction(rng, nonzero=True, top=5, den=4):
    while True:
        f = Fraction(rng.randint(-top, top), rng.randint(1, den))
        if f or not nonzero:
            return f


def unit_residue(rng, p):
    return rng.randrange(1, p)


# ---------------------------------------------------------------------------
# twisted group algebras of C_n1 x ... x C_nk in a rescaled basis
# ---------------------------------------------------------------------------


class GroupAlgebra:
    """k[G] for G = C_n1 x ... x C_nk, Yau-twisted by two commuting group
    automorphisms phi, psi (power maps on each factor), written in the basis
    f_g = c_g e_g.  It is BiHom-associative and unital by the Yau twisting
    theorem; the rescaling only makes the structure constants non-trivial.
    """

    def __init__(self, rng, orders, sc: Scalars):
        self.orders, self.sc = tuple(orders), sc
        self.elems = [()]
        for n in self.orders:
            self.elems = [g + (x,) for g in self.elems for x in range(n)]
        self.index = {g: i for i, g in enumerate(self.elems)}
        self.phi = self.automorphism(rng)
        self.psi = self.automorphism(rng)
        if sc.p is None:
            self.c = [small_fraction(rng, top=3, den=3) for _ in self.elems]
        else:
            self.c = [unit_residue(rng, sc.p) for _ in self.elems]

    @property
    def dim(self):
        return len(self.elems)

    def automorphism(self, rng):
        return tuple(rng.choice([k for k in range(1, n) if gcd(k, n) == 1] or [1])
                     for n in self.orders)

    def act(self, powers, g):
        return tuple((k * x) % n for k, x, n in zip(powers, g, self.orders))

    def map_matrix(self, powers):
        """The automorphism g -> g^powers as a matrix in the f basis."""
        sc, d = self.sc, self.dim
        m = [[sc.norm(0)] * d for _ in range(d)]
        for i, g in enumerate(self.elems):
            j = self.index[self.act(powers, g)]
            m[j][i] = sc.norm(self.c[i] * sc.inv(self.c[j]))
        return m

    def structure(self):
        sc, d = self.sc, self.dim
        mu = [[[sc.norm(0)] * d for _ in range(d)] for _ in range(d)]
        for i, g in enumerate(self.elems):
            for j, h in enumerate(self.elems):
                prod = tuple((a + b) % n for a, b, n in
                             zip(self.act(self.phi, g), self.act(self.psi, h), self.orders))
                k = self.index[prod]
                mu[i][j][k] = sc.norm(self.c[i] * self.c[j] * sc.inv(self.c[k]))
        unit = [sc.norm(0)] * d
        unit[0] = sc.inv(self.c[0])
        return {"mu": mu, "alpha": self.map_matrix(self.phi),
                "beta": self.map_matrix(self.psi), "unit": unit}

    def twist_maps(self, rng):
        """Two automorphisms commuting with phi and psi: valid Yau-twist maps."""
        return self.map_matrix(self.automorphism(rng)), self.map_matrix(self.automorphism(rng))


def algebra_file(sc: Scalars, alg: dict) -> str:
    d = len(alg["mu"])
    enc = lambda x: [enc(y) for y in x] if isinstance(x, list) else sc.fmt(x)  # noqa: E731
    obj = {"format": 1, "field": sc.tag, "kind": "algebra", "dim": d,
           "labels": [f"e{i}" for i in range(d)],
           "mu": enc(alg["mu"]), "alpha": enc(alg["alpha"]), "beta": enc(alg["beta"]),
           "unit": enc(alg["unit"]) if alg.get("unit") is not None else None}
    return json.dumps(obj, indent=1)


def map_file(sc: Scalars, m) -> str:
    obj = {"format": 1, "field": sc.tag, "kind": "map", "rows": len(m), "cols": len(m[0]),
           "entries": [[sc.fmt(x) for x in row] for row in m]}
    return json.dumps(obj, indent=1)


def corrupt(rng, sc: Scalars, alg: dict):
    """Change one structure constant of mu; returns (copy, (i, j, k))."""
    d = len(alg["mu"])
    i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
    delta = small_fraction(rng) if sc.p is None else unit_residue(rng, sc.p)
    mu = [[list(col) for col in plane] for plane in alg["mu"]]
    mu[i][j][k] = sc.norm(mu[i][j][k] + delta)
    return dict(alg, mu=mu), (i, j, k)


# ---------------------------------------------------------------------------
# random BiHom algebras over Q (Yau twists of classical algebras)
# ---------------------------------------------------------------------------

Q = Scalars("Q")


def identity(d):
    return [basis(Q, d, i) for i in range(d)]


def _poly_algebra(d):
    """k[X]/(X^d) with basis 1, X, ..., X^(d-1)."""
    return [[basis(Q, d, i + j) if i + j < d else [Fraction(0)] * d for j in range(d)]
            for i in range(d)]


def _substitution(rng, mu, d):
    """X -> c1 X + c2 X^2 + ..., an invertible algebra endomorphism."""
    image = [Fraction(0)] + [Fraction(rng.choice((-1, 1))) for _ in range(1, d)]
    cols, power = [], basis(Q, d, 0)
    for _ in range(d):
        cols.append(power)
        power = bilinear(Q, mu, power, image)
    return [list(r) for r in zip(*cols)]


def _group_mu(d):
    return [[basis(Q, d, (i + j) % d) for j in range(d)] for i in range(d)]


def _power_map(d, k):
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        m[(k * i) % d][i] = Fraction(1)
    return m


def _diag_mu(d):
    return [[basis(Q, d, i) if i == j else [Fraction(0)] * d for j in range(d)]
            for i in range(d)]


def _cycle_map(d):
    """The cyclic shift e_j -> e_{j+1}.  It is fixed: a random permutation
    (or power map) can be the identity for one seed and not for the next,
    which changes the work of every check on the algebra several times."""
    m = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d):
        m[(j + 1) % d][j] = Fraction(1)
    return m


def _matrix_mu():
    """M_2 with basis E_00, E_01, E_10, E_11."""
    mu = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == k:
                        mu[2 * i + j][2 * k + l][2 * i + l] = Fraction(1)
    return mu


def _conjugation(u):
    """Ad_u on M_2: E_kl -> u E_kl u^-1."""
    uinv = inverse(Q, u)
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for k in range(2):
        for l in range(2):
            for r in range(2):
                for c in range(2):
                    m[2 * r + c][2 * k + l] += u[r][k] * uinv[l][c]
    return m


def _unimodular(d):
    """Three fixed row operations.  It is fixed: with random multipliers,
    entries of the moved structure cancel for some seeds and not for
    others, which changes the work of every check several times."""
    m = identity(d)
    for i, j in ((0, 1), (1, 0) if d == 2 else (1, 2), (d - 1, 0)):
        m[i] = [x + 2 * y for x, y in zip(m[i], m[j])]
    return m


def classical_with_endos(rng, kind, d, pa, pb):
    """(mu, alpha, beta, unit): an associative unital algebra and two
    commuting invertible algebra endomorphisms, alpha and beta being powers
    pa and pb (0, 1 or 2) of one endomorphism where the kind allows."""
    if kind == "poly":
        mu = _poly_algebra(d)
        s = _substitution(rng, mu, d)
        powers = [identity(d), s, matmul(Q, s, s)]
        return mu, powers[pa], powers[pb], basis(Q, d, 0)
    if kind == "group":
        # inversion, the one power map other than the identity for d <= 4
        return _group_mu(d), _power_map(d, d - 1), _power_map(d, d - 1), basis(Q, d, 0)
    if kind == "diag":
        s = _cycle_map(d)
        powers = [identity(d), s, matmul(Q, s, s)]
        return _diag_mu(d), powers[pa], powers[pb], [Fraction(1)] * d
    if kind == "mat":
        # v = s (u + I) commutes with u; both upper unitriangular up to scale
        c, s_ = (Fraction(rng.choice((-1, 1))) for _ in range(2))
        u = [[Fraction(1), c], [Fraction(0), Fraction(1)]]
        v = [[2 * s_, s_ * c], [Fraction(0), 2 * s_]]
        return _matrix_mu(), _conjugation(u), _conjugation(v), [Fraction(1), 0, 0, Fraction(1)]
    raise ValueError(kind)


def random_bihom_algebra(rng, kind, d, conjugate, pa=1, pb=2):
    """The Yau twist of a classical algebra by its two endomorphisms,
    optionally moved to a unimodular basis: BiHom-associative by the
    twisting theorem."""
    mu, alpha, beta, unit = classical_with_endos(rng, kind, d, pa, pb)
    mu = [[bilinear(Q, mu, column(alpha, i), column(beta, j)) for j in range(d)]
          for i in range(d)]
    if conjugate:
        g = _unimodular(d)
        gi = inverse(Q, g)
        mu = [[apply(Q, gi, bilinear(Q, mu, column(g, i), column(g, j))) for j in range(d)]
              for i in range(d)]
        alpha = matmul(Q, gi, matmul(Q, alpha, g))
        beta = matmul(Q, gi, matmul(Q, beta, g))
        unit = apply(Q, gi, unit)
    return {"mu": mu, "alpha": alpha, "beta": beta, "unit": [Fraction(x) for x in unit]}

