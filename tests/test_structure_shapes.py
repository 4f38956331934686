"""The shape of every structure class: which extents of its containers are
tied to its dimension, and what `same_tensors` compares.

The tables here are written out by hand from the definitions, not read
from the classes, so that they check the classes' own declarations.
"""

import itertools

import pytest

from bihom.algebra_core import BiHomAlgebra, LeftModule
from bihom.bialgebra import BiHomBialgebra
from bihom.coalgebra import BiHomCoalgebra, Comodule
from bihom.errors import ShapeMismatch
from bihom.exactnum import QQ
from bihom.lie import BiHomLieAlgebra, LieRepresentation
from bihom.linalg import Matrix, Tensor3

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
    if "field" in cls.__dataclass_fields__:
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
    if "labels" in cls.__dataclass_fields__:
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
