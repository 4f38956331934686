"""Known answers computed without bihom.

Scalars are plain ``Fraction`` (field "Q") or ints reduced mod p (field
"Fp:<p>").  Every evaluator here is written straight from the defining
formula, with no shortcut: BiHom-associativity is
``alpha(a)(bc) = (ab)beta(c)`` on basis vectors, multiplicativity is
``m(xy) = m(x)m(y)``, and the unit axioms are ``x1 = alpha(x)``,
``1x = beta(x)``.  The benchmark uses these to decide the expected verdict of
every corrupted file and to recompute both sides of every FAIL witness that
bihom prints, so ``error_rate`` never rests on bihom's own verdict.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction


class Scalars:
    """Arithmetic of one ground field over plain Python numbers."""

    def __init__(self, tag: str):
        self.tag = tag
        self.p = int(tag.split(":", 1)[1]) if tag.startswith("Fp:") else None
        if self.p is None and tag != "Q":
            raise ValueError(f"oracle handles Q and Fp:<p>, not {tag!r}")

    def norm(self, x):
        return Fraction(x) if self.p is None else int(x) % self.p

    def parse(self, text: str):
        """A file literal, or a scalar as bihom's report prints it ("3 mod 7")."""
        text = text.strip()
        if self.p is None:
            return Fraction(text.replace(" ", ""))
        return int(text.split("mod")[0]) % self.p

    def fmt(self, x) -> str:
        """The file literal for x."""
        return str(self.norm(x))

    def inv(self, x):
        return 1 / Fraction(x) if self.p is None else pow(x, -1, self.p)


# ---------------------------------------------------------------------------
# structures as nested lists
# ---------------------------------------------------------------------------


def read_structure(text: str):
    """(Scalars, decoded object) for a structure file; tensors and matrices
    become nested lists of scalars."""
    obj = json.loads(text)
    sc = Scalars(obj["field"])

    def dec(x):
        if isinstance(x, list):
            return [dec(y) for y in x]
        return sc.parse(x)

    out = dict(obj)
    for key in ("mu", "delta", "bracket", "alpha", "beta", "psi", "omega",
                "unit", "counit", "entries"):
        if obj.get(key) is not None:
            out[key] = dec(obj[key])
    return sc, out


def basis(sc, d, i):
    return [sc.norm(1 if k == i else 0) for k in range(d)]


def apply(sc, m, v):
    """Matrix m (rows of columns) applied to the column vector v."""
    return [sc.norm(sum((row[j] * v[j] for j in range(len(v)) if v[j]), 0)) for row in m]


def bilinear(sc, mu, x, y):
    """sum_{i,j} x_i y_j mu[i][j], the product of two coordinate vectors."""
    d3 = len(mu[0][0])
    out = [0] * d3
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            col = mu[i][j]
            for k in range(d3):
                if col[k]:
                    out[k] += xi * yj * col[k]
    return [sc.norm(c) for c in out]


def matmul(sc, a, b):
    return [
        [sc.norm(sum((a[i][k] * b[k][j] for k in range(len(b))), 0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def kron(sc, a, b):
    return [
        [sc.norm(a[i][j] * b[k][l]) for j in range(len(a[0])) for l in range(len(b[0]))]
        for i in range(len(a))
        for k in range(len(b))
    ]


def transpose(m):
    return [list(r) for r in zip(*m)]


def inverse(sc, m):
    """Gauss-Jordan inverse of a square matrix."""
    n = len(m)
    rows = [list(m[i]) + basis(sc, n, i) for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        f = sc.inv(rows[c][c])
        rows[c] = [sc.norm(x * f) for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                g = rows[r][c]
                rows[r] = [sc.norm(x - g * y) for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


# ---------------------------------------------------------------------------
# the algebra axioms, one basis tuple at a time
# ---------------------------------------------------------------------------


def column(m, j):
    return [row[j] for row in m]


def axiom_sides(sc, alg, axiom, index):
    """Both sides of one algebra axiom at one basis tuple, from the formulas."""
    mu, alpha, beta, unit = alg["mu"], alg["alpha"], alg["beta"], alg.get("unit")
    d = len(mu)
    e = lambda i: basis(sc, d, i)  # noqa: E731
    if axiom == "alpha_beta_commute":
        i, j = index
        return matmul(sc, alpha, beta)[i][j], matmul(sc, beta, alpha)[i][j]
    if axiom in ("alpha_multiplicative", "beta_multiplicative"):
        m = alpha if axiom == "alpha_multiplicative" else beta
        i, j = index
        return (apply(sc, m, bilinear(sc, mu, e(i), e(j))),
                bilinear(sc, mu, column(m, i), column(m, j)))
    if axiom == "bihom_associativity":
        i, j, k = index
        return (bilinear(sc, mu, column(alpha, i), bilinear(sc, mu, e(j), e(k))),
                bilinear(sc, mu, bilinear(sc, mu, e(i), e(j)), column(beta, k)))
    if axiom == "unit_fixed_by_alpha":
        return apply(sc, alpha, unit), list(unit)
    if axiom == "unit_fixed_by_beta":
        return apply(sc, beta, unit), list(unit)
    if axiom == "unit_right_action":
        (i,) = index
        return bilinear(sc, mu, e(i), unit), column(alpha, i)
    if axiom == "unit_left_action":
        (i,) = index
        return bilinear(sc, mu, unit, e(i)), column(beta, i)
    raise KeyError(f"oracle has no formula for axiom {axiom!r}")


def associativity_violation(sc, alg, first=()):
    """A basis triple where alpha(a)(bc) != (ab)beta(c), or None.

    The triples in ``first`` are tried before the lexicographic sweep, so a
    known corrupted entry is found without scanning all d^3 triples.
    """
    d = len(alg["mu"])
    seen = set()
    for t in list(first) + [(i, j, k) for i in range(d) for j in range(d) for k in range(d)]:
        if t in seen:
            continue
        seen.add(t)
        lhs, rhs = axiom_sides(sc, alg, "bihom_associativity", t)
        if lhs != rhs:
            return t
    return None


_FAIL_RE = re.compile(r"^FAIL (\S+) @ (.*): lhs=(.*) rhs=(.*)$")


def _decode_shown(sc, text):
    text = text.strip()
    if text.startswith("("):
        inner = text[1:-1].strip()
        return [sc.parse(x) for x in inner.split(",")] if inner else []
    return sc.parse(text)


def witness_errors(sc, alg, report_text):
    """Recompute both sides of every FAIL line in a printed report.

    Returns (failed axiom names, list of disagreements).
    """
    failed, errors = [], []
    for line in report_text.splitlines():
        if not line.startswith("FAIL "):
            continue
        m = _FAIL_RE.match(line)
        if m is None:
            errors.append(f"FAIL line without witness: {line!r}")
            continue
        axiom, index = m.group(1), ast.literal_eval(m.group(2))
        failed.append(axiom)
        try:
            lhs, rhs = axiom_sides(sc, alg, axiom, index)
        except KeyError as exc:
            errors.append(str(exc))
            continue
        shown = (_decode_shown(sc, m.group(3)), _decode_shown(sc, m.group(4)))
        if shown != (lhs, rhs):
            errors.append(f"{axiom} @ {index}: printed {shown}, oracle {(lhs, rhs)}")
        elif lhs == rhs:
            errors.append(f"{axiom} @ {index}: both sides equal, not a witness")
    return failed, errors


# ---------------------------------------------------------------------------
# expected outputs of the constructions
# ---------------------------------------------------------------------------


def yau_twist(sc, alg, alpha2, beta2):
    """mu o (alpha2 (x) beta2) with maps alpha alpha2 and beta beta2."""
    d = len(alg["mu"])
    mu = [[bilinear(sc, alg["mu"], column(alpha2, i), column(beta2, j)) for j in range(d)]
          for i in range(d)]
    return {"mu": mu, "alpha": matmul(sc, alg["alpha"], alpha2),
            "beta": matmul(sc, alg["beta"], beta2)}


def tensor_product(sc, a, b):
    da, db = len(a["mu"]), len(b["mu"])
    d = da * db
    mu = [[[sc.norm(a["mu"][i // db][j // db][k // db] * b["mu"][i % db][j % db][k % db])
            for k in range(d)] for j in range(d)] for i in range(d)]
    unit = None
    if a.get("unit") is not None and b.get("unit") is not None:
        unit = [sc.norm(a["unit"][k // db] * b["unit"][k % db]) for k in range(d)]
    return {"mu": mu, "alpha": kron(sc, a["alpha"], b["alpha"]),
            "beta": kron(sc, a["beta"], b["beta"]), "unit": unit}


def dual_coalgebra(sc, a):
    """delta = mu transposed, psi = beta^T, omega = alpha^T, counit = unit."""
    d = len(a["mu"])
    delta = [[[a["mu"][i][j][k] for j in range(d)] for i in range(d)] for k in range(d)]
    return {"delta": delta, "psi": transpose(a["beta"]), "omega": transpose(a["alpha"]),
            "counit": a.get("unit")}


def commutator_lie(sc, a):
    """[x, y] = xy - (alpha^-1 beta)(y) (alpha beta^-1)(x)."""
    d = len(a["mu"])
    p = matmul(sc, inverse(sc, a["alpha"]), a["beta"])
    q = matmul(sc, a["alpha"], inverse(sc, a["beta"]))
    e = lambda i: basis(sc, d, i)  # noqa: E731
    bracket = [[
        [sc.norm(x - y) for x, y in zip(bilinear(sc, a["mu"], e(i), e(j)),
                                        bilinear(sc, a["mu"], column(p, j), column(q, i)))]
        for j in range(d)] for i in range(d)]
    return {"bracket": bracket, "alpha": a["alpha"], "beta": a["beta"]}


def mismatches(expected: dict, got: dict):
    """Keys of ``expected`` whose decoded value differs in ``got``."""
    return [k for k, v in expected.items() if got.get(k) != v]
