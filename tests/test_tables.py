"""One axiom table per check: ``named`` renames a table in place, a
composite check evaluates the concatenated tables of its parts in one
``check`` call, a hypothesis stated through ``require`` stops at its first
failing entry, and ``CheckReport.require`` raises with the report it was
called on."""

import pytest

from bihom import axioms
from bihom.algebra_core import (
    LeftModule,
    bihom_algebra_axioms,
    check_left_module,
    left_module_axioms,
)
from bihom.axioms import Axiom, Commute, Lin, named
from bihom.bialgebra import (
    bihom_bialgebra_axioms,
    check_antipode_properties,
    check_bihom_bialgebra,
    check_module_bihom_algebra,
    twist_left_module,
)
from bihom.coalgebra import bihom_coalgebra_axioms
from bihom.errors import HypothesisFailure, ModuleAxiomFailure
from bihom.exactnum import QQ, PrimeField
from bihom.fixtures import cyclic_group_bialgebra, cyclic_self_action, kc4_twisted_bialgebra
from bihom.linalg import Matrix
from bihom.report import CheckReport
from bihom.smash import SmashData

from helpers import non_bialgebra_action

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)


def test_named_renames_the_table_it_was_given_and_returns_it():
    one = Lin(Matrix.identity(QQ, 2))
    table = [Axiom("law", one, one), Commute("maps_commute", one.data, one.data)]
    entries = list(table)
    assert named("algebra:{}", table) is table
    assert table == entries
    assert [ax.name for ax in table] == ["algebra:law", "algebra:maps_commute"]
    assert [ax.name for ax in named("not a module", table)] == ["not a module"] * 2


def test_require_passes_on_a_report_that_passes():
    report = CheckReport().add("law", True)
    assert report.require(ModuleAxiomFailure, "fails {}") is None


def test_require_names_the_first_failure_and_attaches_its_report():
    report = CheckReport().add("first", True).add("second", False, ((0,), 1, 2))
    report.add("third", False, ((1,), 3, 4))
    with pytest.raises(ModuleAxiomFailure) as exc:
        report.require(ModuleAxiomFailure, "module axioms fail: {}")
    assert str(exc.value) == "module axioms fail: second"
    assert exc.value.report is report


@pytest.fixture
def scopes(monkeypatch):
    """Count the memo scopes the engine opens."""
    opened = []
    init = axioms._Eval.__init__

    def counted(self, field):
        opened.append(field)
        init(self, field)

    monkeypatch.setattr(axioms._Eval, "__init__", counted)
    return opened


@pytest.fixture
def evaluated(monkeypatch):
    """Count the table entries the engine evaluates."""
    seen = []
    for cls in (Axiom, Commute):
        def counted(self, ev, witness=cls.witness):
            seen.append(self.name)
            return witness(self, ev)

        monkeypatch.setattr(cls, "witness", counted)
    return seen


@FIELDS
def test_a_bialgebra_is_its_algebra_then_its_coalgebra_then_the_rest(field, scopes):
    H = kc4_twisted_bialgebra(field)
    algebra = [f"algebra:{ax.name}" for ax in bihom_algebra_axioms(H.algebra_part())]
    coalgebra = [f"coalgebra:{ax.name}" for ax in bihom_coalgebra_axioms(H.coalgebra_part())]
    names = [ax.name for ax in bihom_bialgebra_axioms(H)]
    assert names[:len(algebra) + len(coalgebra)] == algebra + coalgebra
    assert names[len(algebra) + len(coalgebra)] == "delta_multiplicative"
    del scopes[:]
    report = check_bihom_bialgebra(H)
    assert report.ok and report.axiom_ids() == names
    assert len(scopes) == 1


@FIELDS
def test_the_module_algebra_and_antipode_checks_open_one_scope(field, scopes):
    H = cyclic_group_bialgebra(4, field)
    act = cyclic_self_action(4, 3, field)
    del scopes[:]
    assert check_module_bihom_algebra(H, H.algebra_part(), act).ok
    assert len(scopes) == 1
    S = Matrix(field, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])  # g -> g^-1
    del scopes[:]
    report = check_antipode_properties(H, S)
    assert report.ok and report.axiom_ids()[0] == "axiom:S_alpha_commute"
    assert len(scopes) == 1


@FIELDS
def test_validate_stops_at_the_first_failing_bialgebra_axiom(field, evaluated):
    H, A, act = non_bialgebra_action(field)
    with pytest.raises(HypothesisFailure) as exc:
        SmashData(H=H, A=A, action=act).validate()
    assert str(exc.value) == "H is not a BiHom-bialgebra: coalgebra:bihom_coassociativity fails"
    assert len(evaluated) == 12
    assert evaluated[-1] == exc.value.args[0]
    del evaluated[:]
    full = check_bihom_bialgebra(H)
    assert len(evaluated) == 32
    assert exc.value.witness == full.entry("coalgebra:bihom_coassociativity").witness


@FIELDS
def test_twist_left_module_stops_at_the_first_failing_module_axiom(field, evaluated):
    """k[C_4] on itself with g . g = g^3: associativity fails, the unit law
    and the hypotheses after the module table are never evaluated."""
    a = cyclic_group_bialgebra(4, field).algebra_part()
    action = cyclic_group_bialgebra(4, field).mu
    action.t[1][1] = [field.zero()] * 3 + [field.one()]
    ident = Matrix.identity(field, 4)
    mod = LeftModule(dim=4, action=action, alphaM=ident, betaM=ident)
    with pytest.raises(HypothesisFailure) as exc:
        twist_left_module(a, mod, ident, ident)
    assert str(exc.value) == "input is not a classical left module"
    assert evaluated == ["input is not a classical left module"] * 4
    full = check_left_module(a, mod)
    assert [e.axiom for e in full.failures()] == ["module_associativity"]
    assert exc.value.witness == full.entry("module_associativity").witness
    assert len(left_module_axioms(a, mod)) == 5
