"""The shape of every structure class: which extents of its containers are
tied to its dimension, and what `same_tensors` compares; and the
constructor contract of all fourteen value classes: argument order,
keywords, defaults, equality and `replace`.

The tables here are written out by hand from the definitions, not read
from the classes, so that they check the classes' own declarations.
"""

import itertools

import pytest

from bihom.algebra_core import BiHomAlgebra, LeftModule
from bihom.axioms import Lin
from bihom.bialgebra import BiHomBialgebra, ModuleAlgebraAction
from bihom.coalgebra import BiHomCoalgebra, Comodule
from bihom.errors import HypothesisFailure, ShapeMismatch
from bihom.exactnum import QQ, QQ_Q, PrimeField
from bihom.fixtures import cyclic_group_bialgebra, cyclic_self_action
from bihom.lie import BiHomLieAlgebra, LieRepresentation
from bihom.linalg import Matrix, Tensor3
from bihom.qexamples import TwistParams
from bihom.report import CheckEntry, CheckReport
from bihom.smash import SmashData, smash_product
from bihom.twisting import Pseudotwistor, TwistingMap
from helpers import non_bialgebra_action

# container -> its extents: "d" is the structure's dimension, "f" a free
# extent (the dimension of the acting algebra, of the coalgebra, of L); a
# one-extent container is an optional vector
CONTAINERS = {
    BiHomAlgebra: {"mu": "ddd", "alpha": "dd", "beta": "dd", "unit": "d"},
    LeftModule: {"action": "fdd", "alphaM": "dd", "betaM": "dd"},
    BiHomCoalgebra: {"delta": "ddd", "psi": "dd", "omega": "dd", "counit": "d"},
    Comodule: {"rho": "ddf", "psiM": "dd", "omegaM": "dd"},
    BiHomBialgebra: {"mu": "ddd", "delta": "ddd", "alpha": "dd", "beta": "dd",
                     "psi": "dd", "omega": "dd", "unit": "d", "counit": "d"},
    BiHomLieAlgebra: {"bracket": "ddd", "alpha": "dd", "beta": "dd"},
    LieRepresentation: {"rho": "fdd", "alphaM": "dd", "betaM": "dd"},
}
LABELED = (BiHomAlgebra, BiHomCoalgebra, BiHomBialgebra, BiHomLieAlgebra)
D, F = 2, 3


def _container(shape, start):
    """A Tensor3, Matrix or vector of the given extents, its entries
    start, start + 1, ... in row-major order."""
    count = itertools.count(start)
    if len(shape) == 1:
        return [QQ.from_int(next(count)) for _ in range(shape[0])]
    cells = [[QQ.from_int(next(count)) for _ in range(shape[-1])]
             for _ in range(shape[-2])]
    if len(shape) == 2:
        return Matrix.zero(QQ, *shape) if 0 in shape else Matrix(QQ, cells)
    planes = [_container(shape[1:], start + i * shape[1] * shape[2]).e
              for i in range(shape[0])]
    return Tensor3.zero(QQ, *shape) if 0 in shape else Tensor3(QQ, planes)


def _build(cls, extents=None, labels=None, start=1):
    """An instance of cls with D and F as its extents, or the extents given
    for some containers; every entry differs from every other."""
    extents = extents or {}
    kw = {"dim": D}
    for n, (key, spec) in enumerate(CONTAINERS[cls].items()):
        shape = extents.get(key, tuple(D if c == "d" else F for c in spec))
        kw[key] = _container(shape, start + 100 * n)
    if "field" in cls.FIELDS:
        kw["field"] = QQ
    if labels is not None:
        kw["labels"] = labels
    return cls(**kw)


def _wrong_extents():
    for cls, containers in CONTAINERS.items():
        for key, spec in containers.items():
            for i, c in enumerate(spec):
                if c == "d":
                    shape = tuple(D if c == "d" else F for c in spec)
                    yield cls, key, shape[:i] + (D + 1,) + shape[i + 1:]


@pytest.mark.parametrize(
    "cls,key,shape", list(_wrong_extents()),
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_an_extent_tied_to_dim_must_equal_it(cls, key, shape):
    with pytest.raises(ShapeMismatch):
        _build(cls, {key: shape})


@pytest.mark.parametrize("cls", [c for c in CONTAINERS if "f" in "".join(
    CONTAINERS[c].values())], ids=lambda c: c.__name__)
def test_a_free_extent_may_differ_from_dim(cls):
    for free in (0, 1, D, F + 1):
        shapes = {key: tuple(D if c == "d" else free for c in spec)
                  for key, spec in CONTAINERS[cls].items()}
        assert _build(cls, shapes).dim == D


@pytest.mark.parametrize("cls", LABELED, ids=lambda c: c.__name__)
@pytest.mark.parametrize("count", [D - 1, D + 1])
def test_a_wrong_label_count_is_a_shape_mismatch(cls, count):
    with pytest.raises(ShapeMismatch):
        _build(cls, labels=[f"b{i}" for i in range(count)])


@pytest.mark.parametrize("cls", CONTAINERS, ids=lambda c: c.__name__)
def test_same_tensors_compares_every_container_and_no_label(cls):
    a = _build(cls)
    assert a.same_tensors(_build(cls))
    if "labels" in cls.FIELDS:
        assert a.same_tensors(_build(cls, labels=[f"b{i}" for i in range(D)]))
    for key in CONTAINERS[cls]:
        other = _build(cls)
        setattr(other, key, getattr(_build(cls, start=1000), key))
        assert not a.same_tensors(other), key
        assert not other.same_tensors(a), key
        if len(CONTAINERS[cls][key]) == 1:  # an optional vector, left out
            setattr(other, key, None)
            assert not a.same_tensors(other), key
            assert not other.same_tensors(a), key


# ---------------------------------------------------------------------------
# the constructor contract of every structure class
# ---------------------------------------------------------------------------

REQUIRED = object()
DEFAULT_LABEL_PREFIX = {BiHomAlgebra: "e", BiHomCoalgebra: "c", BiHomBialgebra: "h",
                        BiHomLieAlgebra: "x"}


def _samples():
    """cls -> its constructor arguments in positional order, each as
    (name, a sample value, the default or REQUIRED, a second value that
    differs from the sample, or None for an extent that cannot change on
    its own)."""
    H = cyclic_group_bialgebra(2)
    A = H.algebra_part()
    act = cyclic_self_action(2, 1)
    other_act = ModuleAlgebraAction(Tensor3.zero(QQ, 2, 2, 2))
    eye2, eye4 = Matrix.identity(QQ, 2), Matrix.identity(QQ, 4)
    T, T1, T2 = Lin(eye4, (2, 2), (2, 2)), *(Lin(Matrix.identity(QQ, 8), (2,) * 3, (2,) * 3)
                                             for _ in range(2))
    table = {}
    for cls, containers in CONTAINERS.items():
        built, other = _build(cls), _build(cls, start=1000)
        args = [("field", QQ, REQUIRED, PrimeField(7))] if cls in LABELED else []
        args.append(("dim", D, REQUIRED, None))
        for key, spec in containers.items():
            default = None if len(spec) == 1 else REQUIRED
            args.append((key, getattr(built, key), default, getattr(other, key)))
        if cls in LABELED:
            prefix = DEFAULT_LABEL_PREFIX[cls]
            args.append(("labels", ["u", "v"], [f"{prefix}0", f"{prefix}1"], ["v", "u"]))
        table[cls] = args
    table.update({
        CheckEntry: [("axiom", "a", REQUIRED, "b"), ("passed", True, REQUIRED, False),
                     ("witness", ((0,), 1, 2), None, ((1,), 1, 2))],
        CheckReport: [("entries", [CheckEntry("a", True)], [], [CheckEntry("b", True)])],
        SmashData: [("H", H, REQUIRED, cyclic_group_bialgebra(3)),
                    ("A", A, REQUIRED, cyclic_group_bialgebra(3).algebra_part()),
                    ("action", act, REQUIRED, other_act), ("m", 2, 0, 3), ("n", 2, -1, 3),
                    ("p", 2, -1, 3), ("_validated", True, False, False)],
        Pseudotwistor: [("T", T, REQUIRED, Lin(eye4, (2, 2), (2, 2))),
                        ("T1tilde", T1, REQUIRED, T2), ("T2tilde", T2, REQUIRED, T1),
                        ("alpha2", eye2, REQUIRED, Matrix.diagonal(QQ, [1, 2])),
                        ("beta2", eye2, REQUIRED, Matrix.diagonal(QQ, [2, 1]))],
        TwistingMap: [("R", Matrix.identity(QQ, 6), REQUIRED, Matrix.zero(QQ, 6, 6)),
                      ("dimA", 2, REQUIRED, None), ("dimB", 3, REQUIRED, None)],
        TwistParams: [(name, QQ_Q.promote(i + 2), REQUIRED, QQ_Q.promote(-1))
                      for i, name in enumerate(["lambda1", "lambda2", "lambda3", "lambda4", "xi"])],
        ModuleAlgebraAction: [("action", act.action, REQUIRED, other_act.action)],
    })
    return table


SAMPLES = _samples()
ALL = list(SAMPLES)
BY_NAME = {"ids": lambda c: c.__name__}


def _kw(cls, **changes):
    return {**{name: value for name, value, _, _ in SAMPLES[cls]}, **changes}


def test_every_structure_class_is_pinned():
    assert len(ALL) == 14


@pytest.mark.parametrize("cls", ALL, **BY_NAME)
def test_positional_and_keyword_construction_agree(cls):
    by_position = cls(*[value for _, value, _, _ in SAMPLES[cls]])
    by_keyword = cls(**_kw(cls))
    assert by_position == by_keyword
    for name, value, _, _ in SAMPLES[cls]:
        if cls is not Pseudotwistor:  # it reads a matrix as a Lin; these are Lins
            assert getattr(by_position, name) == value, name
        assert getattr(by_position, name) is getattr(by_keyword, name), name


@pytest.mark.parametrize("cls", ALL, **BY_NAME)
def test_every_default(cls):
    required = {name: value for name, value, default, _ in SAMPLES[cls] if default is REQUIRED}
    x = cls(**required)
    for name, _, default, _ in SAMPLES[cls]:
        if default is not REQUIRED:
            assert getattr(x, name) == default, name
    if cls is CheckReport:  # a fresh list each time
        assert x.entries is not cls().entries


@pytest.mark.parametrize("cls", ALL, **BY_NAME)
def test_a_missing_or_unknown_argument_is_a_type_error(cls):
    for name, _, default, _ in SAMPLES[cls]:
        if default is REQUIRED:
            kw = _kw(cls)
            del kw[name]
            with pytest.raises(TypeError):
                cls(**kw)
    with pytest.raises(TypeError):
        cls(**_kw(cls, no_such_argument=1))
    with pytest.raises(TypeError):
        cls(*[value for _, value, _, _ in SAMPLES[cls]], None)
    with pytest.raises(TypeError):  # the first argument by position and by keyword
        cls(SAMPLES[cls][0][1], **_kw(cls))


@pytest.mark.parametrize("cls", ALL, **BY_NAME)
def test_equal_arguments_make_equal_instances(cls):
    x = cls(**_kw(cls))
    assert x == cls(**_kw(cls))
    assert not x != cls(**_kw(cls))
    assert x != object()
    for name, _, _, other in SAMPLES[cls]:
        if other is None or (cls is CheckEntry and name == "passed"):
            continue  # a failing entry needs its witness; tested below
        y = cls(**_kw(cls, **{name: other}))
        assert x != y and y != x, name
    assert CheckEntry("a", False, ((0,), 1, 2)) != CheckEntry("a", True, ((0,), 1, 2))
    R = Matrix.identity(QQ, 6)
    assert TwistingMap(R, 2, 3) != TwistingMap(R, 3, 2)


@pytest.mark.parametrize("cls", ALL, **BY_NAME)
def test_replace_changes_one_argument_and_keeps_the_rest(cls):
    x = cls(**_kw(cls))
    for name, value, _, other in SAMPLES[cls]:
        if other is None or (cls is CheckEntry and name == "passed"):
            continue
        y = x.replace(**{name: other})
        assert type(y) is cls
        assert y == cls(**_kw(cls, **{name: other})), name
        assert getattr(x, name) is value or cls is Pseudotwistor, name
    assert x.replace() == x and x.replace() is not x
    with pytest.raises(TypeError):
        x.replace(no_such_argument=1)


@pytest.mark.parametrize("cls", CONTAINERS, **BY_NAME)
def test_replace_runs_the_shape_check(cls):
    x = _build(cls)
    for key, spec in CONTAINERS[cls].items():
        wrong = _container(tuple(D + 1 if c == "d" else F for c in spec), 1)
        with pytest.raises(ShapeMismatch):
            x.replace(**{key: wrong})
    with pytest.raises(ShapeMismatch):
        x.replace(dim=D + 1)
    if cls in LABELED:
        with pytest.raises(ShapeMismatch):
            x.replace(labels=["u"])


def test_replace_runs_the_checks_of_the_other_classes():
    with pytest.raises(ValueError, match="needs a witness"):
        CheckEntry(**_kw(CheckEntry)).replace(witness=None, passed=False)
    with pytest.raises(ValueError, match="needs a witness"):
        CheckEntry("a", False)
    with pytest.raises(ShapeMismatch):
        TwistingMap(**_kw(TwistingMap)).replace(dimA=3)
    P = Pseudotwistor(**_kw(Pseudotwistor))
    with pytest.raises(ShapeMismatch):
        P.replace(alpha2=Matrix.identity(QQ, 3))
    with pytest.raises(ShapeMismatch):
        P.replace(T=Matrix.identity(QQ, 8))
    with pytest.raises(ShapeMismatch):
        P.replace(T1tilde=Matrix.identity(QQ, 4))
    # a matrix given for T or a companion is read as a Lin on its factors
    assert P.replace(T=Matrix.identity(QQ, 4)).T.dom == (2, 2)


def test_a_smash_data_copy_keeps_validated():
    kw = _kw(SmashData, _validated=False)
    assert SmashData(**kw).replace(m=0)._validated is False
    assert SmashData(**{**kw, "_validated": True}).replace(m=0)._validated is True
    # H is not a bialgebra, so only data marked validated builds a product
    H, A, act = non_bialgebra_action(QQ)
    with pytest.raises(HypothesisFailure):
        smash_product(SmashData(H, A, act, 2, 2, 2))
    assert smash_product(SmashData(H, A, act, 2, 2, 2, _validated=True)).dim == 6
