"""The solver corpus: what every linear solver of the package returns on
every fixture and on single-entry corruptions of it.

The solvers are find_unit, fixed_subalgebra, underline_hom,
find_primitives, is_primitive, primitive_bracket and
solve_antipode_monoidal.  Each case records the value (scalars through
``field.format``), ``None``, or the type, message and witness of the
exception raised, as tests/golden.py does for the checks.  Corruptions add
one to one entry of mu, delta, alpha, beta, psi, omega, unit or counit (and
of the element handed to is_primitive or primitive_bracket), drawn by a
generator seeded from the case id.  The data file is frozen; to see what
the code records now, write the cases to another file and compare the two:

    PYTHONPATH=src python tests/solver_corpus.py solver_now.json

The script refuses to overwrite ``tests/data/solver_corpus.json``, which
``tests/test_solver_corpus.py`` compares against.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
from fractions import Fraction

from bihom import (
    QQ,
    QQ_Q,
    Matrix,
    PrimeField,
    Tensor3,
    example_family,
    find_primitives,
    find_unit,
    fixed_subalgebra,
    hopf_to_monoidal,
    primitive_bracket,
    solve_antipode_monoidal,
    tensor_product,
    underline_hom,
    yau_twist_bialgebra,
    yau_twist_coalgebra,
)
from bihom import fixtures as fx
from bihom.algebra_core import untwist
from bihom.bialgebra import is_primitive
from bihom.coalgebra import dual_coalgebra
from bihom.linalg import unit_vec
from golden import _endo, _trunc, ident, load_fixture, scalars, sweep, write_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "data", "solver_corpus.json")

ALGEBRA_PARTS = [(0, "mu"), (0, "alpha"), (0, "beta"), (0, "unit")]
BIALGEBRA_PARTS = [(0, "mu"), (0, "delta"), (0, "alpha"), (0, "beta"), (0, "psi"),
                   (0, "omega"), (0, "unit"), (0, "counit")]


def _subalgebra(result):
    """fixed_subalgebra's (subalgebra, basis) or underline_hom's triple as
    the dimension, product, unit and embedding of the subalgebra."""
    sub, basis = result[0], result[1]
    return [sub.dim, sub.mu.t, sub.unit, basis]


def _fmt_subalgebra(field, value):
    """A _subalgebra record: the dimension first, then scalars."""
    dim, *rest = value
    return [dim, *scalars(field, rest)]


def _rows(s):
    return None if s is None else s.e


def _f3_scaled():
    """The truncated line over F_3 twisted by diag(1, 2, 4): primitives whose
    brackets exercise nontrivial alpha powers."""
    H = fx.f3_truncated_line()
    f3 = H.field
    two = f3.from_int(2)
    scale = Matrix.diagonal(f3, [f3.one(), two, two * two])
    i3 = Matrix.identity(f3, 3)
    return yau_twist_bialgebra(H, scale, i3, i3, i3)


def _bialgebras():
    F7 = PrimeField(7)
    kc4 = fx.cyclic_group_bialgebra(4)
    sw, S, invol = fx.sweedler_hopf()
    hm_sw, _ = hopf_to_monoidal(sw, S, invol, ident(4))
    hm_sw_beta, _ = hopf_to_monoidal(sw, S, ident(4), invol)
    hm_kc4, _ = hopf_to_monoidal(kc4, fx.cyclic_antipode(4), fx.cyclic_power_map(4, 3),
                                 ident(4))
    return [
        ("kc2", fx.cyclic_group_bialgebra(2)), ("kc4", kc4),
        ("kc4t", fx.kc4_twisted_bialgebra()), ("sweedler", sw),
        ("kc4_bialg.json", load_fixture("kc4_bialg.json")),
        ("sweedler.json", load_fixture("sweedler.json")),
        ("f2", fx.f2_restricted_line()), ("f3", fx.f3_truncated_line()),
        ("f3_scaled", _f3_scaled()), ("idempotent", fx.idempotent_monoid_bialgebra()),
        ("sweedler_monoidal", hm_sw), ("sweedler_monoidal_beta", hm_sw_beta),
        ("kc4_g3", hm_kc4), ("kc3_F7", fx.cyclic_group_bialgebra(3, F7)),
        ("kc2_Qq", fx.cyclic_group_bialgebra(2, QQ_Q)),
    ] + _degenerate()


def _algebras(bialgebras):
    fam1 = example_family(1, 3, 2)
    fam2 = example_family(2, Fraction(1, 2), 3)
    selfmod_alg, _ = load_fixture("kc4_selfmod.json")
    return [
        ("fam1", fam1), ("fam2", fam2), ("fam1_untwisted", untwist(fam1)),
        ("endo", _endo()), ("trunc", _trunc()),
        ("family1.json", load_fixture("family1.json")),
        ("kc4_selfmod.json", selfmod_alg), ("fam1xfam2", tensor_product(fam1, fam2)),
    ] + [(name, H.algebra_part()) for name, H in bialgebras]


def _pairs():
    """(coalgebra, algebra) pairs for underline_hom."""
    fam1 = example_family(1, 3, 2)
    kc2 = fx.cyclic_group_bialgebra(2).coalgebra_part()
    kc4 = fx.cyclic_group_bialgebra(4)
    kc4_g3 = yau_twist_coalgebra(kc4.coalgebra_part(), fx.cyclic_power_map(4, 3), ident(4))
    hm, _ = hopf_to_monoidal(kc4, fx.cyclic_antipode(4), fx.cyclic_power_map(4, 3), ident(4))
    return [
        ("kc2_fam1", kc2, fam1), ("kc2_fam1_untwisted", kc2, untwist(fam1)),
        ("dual_fam1_fam1", dual_coalgebra(fam1), fam1), ("kc4_g3_fam1", kc4_g3, fam1),
        ("kc4_g3_monoidal", hm.coalgebra_part(), hm.algebra_part()),
    ]


def _degenerate():
    """k[C_2] without a unit, and with zero coproduct and counit: the
    antipode system of the latter has a solution space of dimension 2."""
    kc2 = fx.cyclic_group_bialgebra(2)
    flat = dataclasses.replace(kc2, delta=Tensor3.zero(QQ, 2, 2, 2), counit=[0, 0])
    return [("kc2_no_unit", dataclasses.replace(kc2, unit=None)), ("kc2_flat", flat)]


def _elements(H):
    """Elements to test for primitivity: the primitive basis of H when it
    has one, else its first and last basis vectors."""
    if H.unit is not None and find_primitives(H):
        return find_primitives(H)
    return [unit_vec(H.field, H.dim, 0), unit_vec(H.field, H.dim, H.dim - 1)]


@functools.lru_cache(maxsize=None)
def build():
    """Every case, in a fixed order, as JSON-ready records."""
    out = []
    bialgebras = _bialgebras()
    for name, a in _algebras(bialgebras):
        sweep(out, "find_unit", find_unit, a.field, name, [a], ALGEBRA_PARTS, k=6)
        sweep(out, "fixed_subalgebra", lambda x: _subalgebra(fixed_subalgebra(x)), a.field,
              name, [a], ALGEBRA_PARTS, k=6, encode=_fmt_subalgebra)
    for name, C, A in _pairs():
        sweep(out, "underline_hom", lambda c, a: _subalgebra(underline_hom(c, a)), A.field,
              name, [C, A], [(0, "delta"), (0, "psi"), (0, "omega"), (0, "counit"),
                             (1, "mu"), (1, "alpha"), (1, "beta"), (1, "unit")], k=3,
              encode=_fmt_subalgebra)
    for name, H in bialgebras:
        field = H.field
        sweep(out, "solve_antipode_monoidal", lambda h: _rows(solve_antipode_monoidal(h)),
              field, name, [H], BIALGEBRA_PARTS, k=4)
        sweep(out, "find_primitives", find_primitives, field, name, [H], BIALGEBRA_PARTS,
              k=4)
        xs = _elements(H)
        for i, x in enumerate(xs):
            sweep(out, "is_primitive", is_primitive, field, f"{name}:x{i}", [H, x],
                  BIALGEBRA_PARTS + [(1, None)], k=3)
        x, y = xs[0], xs[-1]
        sweep(out, "primitive_bracket", primitive_bracket, field, name, [H, x, y],
              BIALGEBRA_PARTS + [(1, None), (2, None)], k=3)
    return out


if __name__ == "__main__":
    write_corpus(sys.argv[1:], CORPUS, build())
