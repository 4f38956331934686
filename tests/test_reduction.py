"""Reduction mod p as a consistency check of every check over Q.

Reduction mod p is a ring homomorphism from the rationals whose denominators
p does not divide onto F_p, and every side of every axiom is a polynomial in
the structure constants and in the inverses a check takes.  So for a Q input
where p divides no denominator and no determinant of an inverted map, the
check over F_p of the reduced input obeys, entry by entry of the report:

- an F_p failure at basis tuple t implies a Q failure at or before t, in
  lexicographic order;
- at Q's first witness the F_p sides are the reductions of the Q sides;
- a Q PASS implies an F_p PASS.

An axiom with a label compares whole maps: its witness lists the images of
every basis tuple, and the rules hold for that list coordinate by
coordinate.  A ``Commute`` entry's witness is one matrix entry (i, j).

The inputs are every Q ``check_*`` case that ``golden._checks`` sweeps, the
corruptions included, taken from ``sweep``'s own arguments.  Both runs use
the same engine and the same axiom terms, so a wrong axiom formula passes
here; the golden corpus and the oracles catch that.
"""

import functools
from fractions import Fraction

import pytest

import golden
from bihom import axioms, example_family, linalg
from bihom.axioms import Axiom, Compose, Lin, Term, images
from bihom.errors import Singular
from bihom.exactnum import QQ, PrimeField
from bihom.linalg import Matrix, Tensor3, mat_mul
from bihom.report import CheckReport

CHECKS = {"check_bihom_algebra", "check_left_module", "check_bihom_lie",
          "check_representation", "check_bihom_coalgebra", "check_comodule",
          "check_bihom_bialgebra", "check_module_bihom_algebra", "check_antipode_general",
          "check_antipode_properties", "check_pseudotwistor", "check_twisting_map"}
# every inversion runs through linalg.mat_inverse
INVERTING = (linalg,)


@functools.lru_cache(maxsize=None)
def q_cases():
    """(case id, check function, args) of every Q check_* case of the golden
    corpus, in its order, corruptions included."""
    cases, sweep = [], golden.sweep

    def capture(out, fn_name, fn, field, name, args, targets, k=4, encode=None):
        if fn_name.startswith("check_") and field == QQ:
            calls = []
            sweep(calls, fn_name, lambda *call: call, field, name, args, targets, k,
                  encode=lambda _field, call: call)
            cases.extend((c["id"], fn, c["value"]) for c in calls)

    golden.sweep = capture
    try:
        golden._checks([])
    finally:
        golden.sweep = sweep
    return cases


class NotIntegral(Exception):
    """p divides a denominator."""


def reduce_scalar(x, F):
    x = Fraction(x)
    if x.denominator % F.p == 0:
        raise NotIntegral(x)
    return F.from_int(x.numerator) / F.from_int(x.denominator)


def reduce_value(x, F):
    """A scalar, or nested lists of scalars, reduced mod p."""
    if isinstance(x, (list, tuple)):
        return [reduce_value(y, F) for y in x]
    return reduce_scalar(x, F)


def reduce_input(x, F):
    """A check's argument with every scalar reduced mod p: structures field
    by field, a map term through the matrix of its images."""
    if isinstance(x, Matrix):
        return Matrix(F, reduce_value(x.e, F))
    if isinstance(x, Tensor3):
        return Tensor3(F, reduce_value(x.t, F))
    if isinstance(x, Term):
        return Lin(reduce_input(golden.as_value(x), F), x.dom, x.cod)
    if isinstance(x, list):  # a unit or a counit
        return reduce_value(x, F)
    changes = {}
    for name, v in vars(x).items():
        if name == "field":
            changes[name] = F
        elif name != "labels" and not isinstance(v, (int, type(None))):
            changes[name] = reduce_input(v, F)
    return x.replace(**changes)


def _rank(dims, t):
    n = 0
    for d, i in zip(dims, t):
        n = n * d + i
    return n


def _images(term, field):
    """images(term), through an identity leaf that carries the field."""
    size = 1
    for d in term.cod:
        size *= d
    ident = Lin(Matrix.identity(field, size), term.cod, term.cod)
    return [v if term.cod else v[0] for v in images(Compose(ident, term))]


def sides_at(ax, field, index):
    """The two sides of an entry at a witness index: a basis tuple, a
    matrix entry (i, j) of a Commute, or a label for the whole maps."""
    if not isinstance(ax, Axiom):
        i, j = index
        return mat_mul(ax.a, ax.b).e[i][j], mat_mul(ax.b, ax.a).e[i][j]
    lhs, rhs = _images(ax.lhs, field), _images(ax.rhs, field)
    if ax.label is not None:
        return (lhs, rhs) if ax.lhs.dom else (lhs[0], rhs[0])
    n = _rank(ax.lhs.dom, index)
    return lhs[n], rhs[n]


def _flat(x):
    return [z for y in x for z in _flat(y)] if isinstance(x, list) else [x]


def first_difference(lhs, rhs):
    """The first coordinate where two whole maps differ, or None."""
    return next((n for n, (x, y) in enumerate(zip(_flat(lhs), _flat(rhs))) if x != y), None)


@pytest.fixture
def traced(monkeypatch):
    """Run a check and return (report, its entries' axioms, the matrices it
    inverted)."""
    state = {"axiom": None, "added": [], "inverted": []}
    evaluate, add, invert = axioms._evaluate, CheckReport.add, linalg.mat_inverse

    def traced_evaluate(table):
        for ax, w in evaluate(table):
            state["axiom"] = ax
            yield ax, w

    def traced_add(self, axiom, passed, witness=None):
        state["added"].append(state["axiom"])
        return add(self, axiom, passed, witness)

    def traced_inverse(m):
        state["inverted"].append(m)
        return invert(m)

    monkeypatch.setattr(axioms, "_evaluate", traced_evaluate)
    monkeypatch.setattr(CheckReport, "add", traced_add)
    for module in INVERTING:
        monkeypatch.setattr(module, "mat_inverse", traced_inverse)

    def run(fn, args):
        state["added"], state["inverted"] = [], []
        report = fn(*args)
        return report, state["added"], state["inverted"]

    run.invert = invert
    return run


def p_integral(inverted, F, invert):
    """p divides no denominator of an inverted map and not its determinant."""
    try:
        for m in inverted:
            invert(reduce_input(m, F))
    except (NotIntegral, Singular):
        return False
    return True


def assert_reduces(case, F, q_entry, q_ax, f_entry, f_ax):
    name = q_entry.axiom
    assert f_entry.axiom == name, case
    if q_entry.passed:
        assert f_entry.passed, f"{case}: {name} passes over Q, fails over {F}"
        return
    index, q_lhs, q_rhs = q_entry.witness
    labelled = isinstance(q_ax, Axiom) and q_ax.label is not None
    if not f_entry.passed:
        f_index = f_entry.witness[0]
        if labelled:
            assert f_index == index
            at = first_difference(*f_entry.witness[1:])
            assert first_difference(q_lhs, q_rhs) <= at, f"{case}: {name}"
        else:
            assert index <= f_index, f"{case}: {name} fails at {f_index} over {F}, {index} over Q"
    # the F_p sides at Q's witness, read off the F_p witness when it is there
    fp_sides = (f_entry.witness[1:] if not f_entry.passed and f_entry.witness[0] == index
                else sides_at(f_ax, F, index))
    assert list(fp_sides) == [reduce_value(q_lhs, F), reduce_value(q_rhs, F)], (
        f"{case}: {name} at {index}")


@pytest.mark.parametrize("p", [7, 11])
def test_reduction_mod_p_of_every_q_check(p, traced):
    F = PrimeField(p)
    seen, checked, skipped = set(), 0, 0
    for case, fn, args in q_cases():
        report, q_axioms, inverted = traced(fn, args)
        try:
            reduced = [reduce_input(a, F) for a in args]
        except NotIntegral:
            skipped += 1
            continue
        if not p_integral(inverted, F, traced.invert):
            skipped += 1
            continue
        f_report, f_axioms, _ = traced(fn, reduced)
        assert len(f_report.entries) == len(report.entries) == len(q_axioms), case
        for entry in zip(report.entries, q_axioms, f_report.entries, f_axioms):
            assert_reduces(case, F, *entry)
        if report.ok:
            assert f_report.ok, case
        seen.add(fn.__name__)
        checked += 1
    assert seen == CHECKS
    # 7 and 11 divide no denominator and no determinant of an inverted map
    # in the corpus, so no case is skipped at either
    assert (checked, skipped) == (907, 0)


def test_a_case_is_skipped_where_p_is_not_a_unit(traced):
    F3, F7 = PrimeField(3), PrimeField(7)
    with pytest.raises(NotIntegral):
        reduce_input(example_family(2, Fraction(1, 3), 3), F3)
    assert p_integral([Matrix(QQ, [[1, Fraction(1, 2)], [0, 7]])], F3, traced.invert)
    assert not p_integral([Matrix(QQ, [[1, Fraction(1, 2)], [0, 7]])], F7, traced.invert)
    assert not p_integral([Matrix(QQ, [[Fraction(1, 7)]])], F7, traced.invert)
