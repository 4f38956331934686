"""Axioms as identities between linear maps on tensor powers.

Every result the package verifies says that two composite linear maps
agree, e.g. mu o (alpha (x) mu) = mu o (mu (x) beta).  This module states
such an identity once, as ``Axiom(name, lhs, rhs)`` over the map terms
below, and evaluates both sides a row at a time, in lexicographic order: a
row holds the images of the basis tuples that differ only in the last
factor.  The first tuple where they differ gives the witness
``(index tuple, lhs value, rhs value)``.

Map terms; ``dom`` and ``cod`` list the dimensions of the tensor factors:

    Mul(t)        V (x) W -> U, e_i (x) e_j -> t[i][j] (products, actions)
    Comul(t)      V -> W (x) U, e_i -> sum_jk t[i][j][k] e_j (x) e_k
    Lin(m)        the matrix m; dom and cod split its columns and rows
    Vec(v)        k -> V, 1 -> v;  Covec(c): V -> k, e_i -> c[i]
    Id(d)         the identity of a d-dimensional space
    Perm(dims, order)  moves tensor factor order[i] to place i
    Kron(f, g)    f (x) g;  Compose(f, g) = f o g
    Sum(f, g), Neg(f), Zero(dom, cod)

A value is the list of (basis tuple, coefficient) pairs of its nonzero
coordinates; a coefficient that cancels is dropped, so equal values hold the
same pairs.  Each leaf lists the nonzero pairs of its columns once per check
call, a Kron multiplies the supports of its factors, a Compose applies its
outer map only to the support of the inner value, and the images of
composites, and their rows, are memoized for one check call.  A leaf's row
is a slice of its table, a Kron keeps its first factor's value along a row,
and a Compose maps each image of its inner row; other terms give the image
of each tuple.  A product Mul o (f (x) g) with the last factor in g folds
the factor that is fixed along its rows into the product's table with
bilinear_apply: g, as mu(e_k, g(e_c)), when it has one factor, else f's
value at the row's prefix.

Kronecker structure is evaluated factor by factor, as the terms state it:
a term's factors are those of a Kron, one Id per factor of an identity Perm,
and the blocks of a fused Compose; any other term, a Lin included, is one
factor.  When the domain factors of f and the codomain factors of g share an
inner boundary, f o g is the Kron of the composites of the blocks between
them, (A (x) B) o (C (x) D) = AC (x) BD, with Id o x and x o Id dropped to x;
it is one term per pair (f, g), so every Compose of f after g shares its
memos.

Dense coordinate lists, row-major over the codomain (e_j (x) e_k in V (x) W
has index j * dim W + k), are built only for witnesses, for ``solve`` and
for ``images``; a value in k itself is reported as a scalar.  An axiom with
a ``label`` compares the two maps whole instead: its witness is
``(label, lhs, rhs)`` with the images of all basis tuples (or of 1 when the
domain is k).

``Commute(name, a, b)`` compares a b with b a as d x d matrices; its
witness is the first differing entry ``((i, j), (ab)_ij, (ba)_ij)``.

A construction states each hypothesis as an entry of a table whose name is
the message it fails with, and ``require(error, *table)`` raises
``error(name, witness=w)`` at the first failing entry.

``solve(table_of, field, shape)`` solves the same tables for an unknown
vector or matrix x: every equation the package solves for (units,
antipodes, primitive elements, fixed vectors) is affine in x, so lhs - rhs
at x = 0 and at each unit vector gives the linear system.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .errors import ShapeMismatch
from .exactnum import canonical, check_scalars, same_field
from .linalg import (
    Matrix,
    Tensor3,
    bilinear_apply,
    mat_eq_witness,
    mat_mul,
    solve_affine,
    unit_vec,
    zero_vec,
)
from .report import CheckReport


def _size(dims):
    n = 1
    for d in dims:
        n *= d
    return n


def _flat(dims):
    """The row-major position of a basis tuple of the given factor dims."""
    if len(dims) == 1:
        return lambda t: t[0]
    strides = [_size(dims[i + 1:]) for i in range(len(dims))]
    return lambda t: sum(map(mul, t, strides))


class _Lazy(dict):
    """A table whose value at a key is built by build(key) when first read;
    _Lazy(fn).__getitem__ is fn memoized."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _pairs(col, tuples, one):
    """The nonzero (basis tuple, coefficient) pairs of a coordinate list;
    entries equal to 1 become the field's one object, so that products can
    skip multiplying by it."""
    return [(tuples[k], one if x == one else x) for k, x in enumerate(col) if x]


def _combine(value, image, one):
    """The map with images image(u) applied to a value: the nonzero pairs of
    the sum of c * image(u) over its pairs (u, c), with no product by one."""
    if len(value) == 1:
        (u, c), = value
        z = image(u)
        return z if c is one else [(w, c if x is one else c * x) for w, x in z]
    out = {}
    for u, c in value:
        for w, x in image(u):
            if c is not one:
                x = c if x is one else c * x
            v = out.get(w)
            out[w] = x if v is None else v + x
    return [(w, x) for w, x in out.items() if x]


def _add(a, b):
    """a + b as {key: coefficient}, for two (key, coefficient) lists, over both supports."""
    out = dict(a)
    for w, x in b:
        v = out.get(w)
        out[w] = x if v is None else v + x
    return out


# ---------------------------------------------------------------------------
# map terms
# ---------------------------------------------------------------------------


class Term:
    """A linear map between tensor powers.  ``compile`` gives the function
    from a domain basis tuple to the nonzero pairs of its image, and ``row``
    from a row number r to the images of the domain tuples r*d to r*d+d-1,
    with d the last factor's dimension (1 on k)."""

    __slots__ = ("dom", "cod")
    field = None
    cached = True  # memoize the images when the term sits below the top level

    def factors(self, ev):
        """Terms whose Kron is this term."""
        return [self]

    def row(self, ev, memo):
        view, tuples, d = ev.view(self, memo), ev.tuples(self.dom), (self.dom or (1,))[-1]
        rows = [tuples[r * d:(r + 1) * d] for r in range(_size(self.dom[:-1]))]
        return lambda r: [view(t) for t in rows[r]]


class _Columns(Term):
    """A leaf given by the image of every domain basis tuple."""

    __slots__ = ("data",)
    cached = False

    @property
    def field(self):
        return getattr(self.data, "field", None)

    def nonzero(self, ev):
        """The nonzero pairs of every column, in domain order."""
        tuples, one = ev.tuples(self.cod), ev.one
        return ev.table(self, lambda data: [_pairs(col, tuples, one)
                                            for col in self._columns(data)])

    def compile(self, ev, memo):
        table = self.nonzero(ev)
        if len(self.dom) == 1:
            return lambda t: table[t[0]]
        flat = _flat(self.dom)
        return lambda t: table[flat(t)]

    def row(self, ev, memo):
        table, d = self.nonzero(ev), (self.dom or (1,))[-1]
        return lambda r: table[r * d:(r + 1) * d]


class Lin(_Columns):
    __slots__ = ()

    def __init__(self, m, dom=None, cod=None):
        self.data = m
        self.dom = (m.cols,) if dom is None else tuple(dom)
        self.cod = (m.rows,) if cod is None else tuple(cod)
        if _size(self.dom) != m.cols or _size(self.cod) != m.rows:
            raise ShapeMismatch(f"{m.rows}x{m.cols} matrix as a map {self.dom} -> {self.cod}")

    @staticmethod
    def _columns(m):
        return list(zip(*m.e)) or [()] * m.cols


class Vec(_Columns):
    __slots__ = ()

    def __init__(self, v):
        self.data, self.dom, self.cod = v, (), (len(v),)

    @staticmethod
    def _columns(v):
        return [v]


class Covec(_Columns):
    __slots__ = ()

    def __init__(self, c):
        self.data, self.dom, self.cod = c, (len(c),), ()

    @staticmethod
    def _columns(c):
        return [[x] for x in c]


class Mul(_Columns):
    __slots__ = ()

    def __init__(self, t):
        self.data, self.dom, self.cod = t, (t.d1, t.d2), (t.d3,)

    def nonzero(self, ev):
        """[i][j] -> the nonzero pairs of t[i][j], as bilinear_apply takes it.
        Row i is listed when first read, so that a product of two vectors
        reads only the rows of its left factor's support."""
        tuples, one = ev.tuples(self.cod), ev.one
        return ev.table(self, lambda t: _Lazy(lambda i: [_pairs(c, tuples, one) for c in t.t[i]]))

    def compile(self, ev, memo):
        table = self.nonzero(ev)
        return lambda t: table[t[0]][t[1]]

    def row(self, ev, memo):
        return self.nonzero(ev).__getitem__


class Comul(_Columns):
    __slots__ = ()

    def __init__(self, t):
        self.data, self.dom, self.cod = t, (t.d1,), (t.d2, t.d3)

    @staticmethod
    def _columns(t):
        return [[x for row in plane for x in row] for plane in t.t]


class Perm(Term):
    __slots__ = ("order",)
    cached = False

    def __init__(self, dims, order):
        self.dom, self.order = tuple(dims), tuple(order)
        if sorted(self.order) != list(range(len(self.dom))):
            raise ShapeMismatch(f"{order} is not a permutation of {len(self.dom)} factors")
        self.cod = tuple(self.dom[o] for o in self.order)

    def identity(self):
        return self.order == tuple(range(len(self.order)))

    def move(self):
        """The basis tuple a basis tuple is sent to."""
        order = self.order
        if self.identity():
            return lambda t: t
        return lambda t: tuple([t[o] for o in order])

    def factors(self, ev):
        return [Id(d) for d in self.dom] if len(self.dom) > 1 and self.identity() else [self]

    def compile(self, ev, memo):
        move, one = self.move(), ev.one
        return lambda t: [(move(t), one)]


def Id(d):
    return Perm((d,), (0,))


def Swap(d1, d2):
    """V (x) W -> W (x) V."""
    return Perm((d1, d2), (1, 0))


class Zero(Term):
    __slots__ = ()
    cached = False

    def __init__(self, dom, cod):
        self.dom, self.cod = tuple(dom), tuple(cod)

    def compile(self, ev, memo):
        return lambda t: []


class _Binary(Term):
    __slots__ = ("f", "g")

    @property
    def field(self):
        return self.f.field or self.g.field


class Kron(_Binary):
    __slots__ = ()

    def __init__(self, f, g, *more):
        if more:
            g = Kron(g, *more)
        self.f, self.g = f, g
        self.dom, self.cod = f.dom + g.dom, f.cod + g.cod

    def factors(self, ev):
        return ev.factors(self.f) + ev.factors(self.g)

    def compile(self, ev, memo):
        # a product of nonzero coefficients is nonzero: nothing cancels here
        f, g, n, one = ev.view(self.f), ev.view(self.g), len(self.f.dom), ev.one
        # a factor that permutes basis tuples contributes no coefficient
        if isinstance(self.f, Perm):
            move = self.f.move()
            return lambda t: [(move(t[:n]) + b, y) for b, y in g(t[n:])]
        if isinstance(self.g, Perm):
            move = self.g.move()
            return lambda t: [(a + move(t[n:]), x) for a, x in f(t[:n])]
        return lambda t: [
            (a + b, y if x is one else x if y is one else x * y)
            for a, x in f(t[:n]) for b, y in g(t[n:])
        ]

    def row(self, ev, memo):
        if not self.g.dom:
            return Term.row(self, ev, memo)
        left, prefixes, one = ev.view(self.f), ev.tuples(self.f.dom), ev.one
        n, right = _size(self.g.dom[:-1]), ev.view(self.g, rows=True)
        # row r is row r % n of g after the (r // n)-th tuple of f's domain
        return lambda r: [[(a + b, y if c is one else c if y is one else c * y)
                           for a, c in x for b, y in v]
                          for x in [left(prefixes[r // n])] for v in right(r % n)]


class Compose(_Binary):
    """f o g.  Compose(f, g, h) is f o (g o h): each map is applied in turn
    to the value so far."""

    __slots__ = ()

    def __init__(self, f, g, *more):
        if more:
            g = Compose(g, *more)
        if f.dom != g.cod:
            raise ShapeMismatch(f"composing a map on {f.dom} after a map into {g.cod}")
        self.f, self.g = f, g
        self.dom, self.cod = g.dom, f.cod

    def factors(self, ev):
        fused = ev.fused(self.f, self.g)
        return [self] if fused is None else ev.factors(fused)

    def compile(self, ev, memo):
        f, g = self.f, self.g
        if isinstance(g, Perm):  # f at the image tuple
            outer, move = ev.view(f, memo), g.move()
            return lambda t: outer(move(t))
        if isinstance(f, Perm):
            inner, move = ev.view(g, memo), f.move()
            return lambda t: [(move(u), c) for u, c in inner(t)]
        if self.folds():  # read off the memoized row
            row, prefix = ev.view(self, True, rows=True), _flat(self.dom[:-1])
            return lambda t: row(prefix(t))[t[-1]]
        inner, outer, one = ev.view(g, memo), ev.view(f), ev.one
        return lambda t: _combine(inner(t), outer, one)

    def folds(self):  # Mul o (f (x) g), one codomain factor each, the last domain one in g
        f, g = self.f, self.g
        return isinstance(f, Mul) and isinstance(g, Kron) and len(g.f.cod) == 1 and bool(g.g.dom)

    def row(self, ev, memo):
        if isinstance(self.f, Perm) or isinstance(self.g, Perm):
            return Term.row(self, ev, memo)
        one = ev.one
        if not self.folds():  # f applied to each image of g's row
            inner, outer = ev.view(self.g, memo, rows=True), ev.view(self.f)
            return lambda r: [_combine(v, outer, one) for v in inner(r)]
        table, f, g = self.f.nonzero(ev), self.g.f, self.g.g
        left, prefixes = ev.view(f), ev.tuples(f.dom)

        def fold(x, y):  # u -> mu(x, e_u), or mu(e_u, y) when x is None
            return _Lazy(lambda u: bilinear_apply(table, [(u, one)] if x is None else x,
                                                  y if x is None else [(u, one)], one)).__getitem__

        if len(g.dom) == 1:  # g folded once: column c is u -> mu(e_u, g(e_c))
            columns = [fold(None, y) for y in ev.view(g, rows=True)(0)]
            return lambda r: [_combine(x, m, one) for x in [left(prefixes[r])] for m in columns]
        n, right = _size(g.dom[:-1]), ev.view(g, rows=True)
        folded = _Lazy(lambda i: fold(left(prefixes[i]), None))  # by f's prefix
        return lambda r: [_combine(v, m, one) for m in [folded[r // n]] for v in right(r % n)]


class Sum(_Binary):
    __slots__ = ()

    def __init__(self, f, g):
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise ShapeMismatch(f"adding maps {f.dom} -> {f.cod} and {g.dom} -> {g.cod}")
        self.f, self.g, self.dom, self.cod = f, g, f.dom, f.cod

    def compile(self, ev, memo):
        f, g = ev.view(self.f, memo), ev.view(self.g, memo)
        return lambda t: [(w, x) for w, x in _add(f(t), g(t)).items() if x]


class Neg(Term):
    __slots__ = ("f",)

    def __init__(self, f):
        self.f, self.dom, self.cod = f, f.dom, f.cod

    @property
    def field(self):
        return self.f.field

    def compile(self, ev, memo):
        f = ev.view(self.f, memo)
        return lambda t: [(w, -x) for w, x in f(t)]


def _fuse(fs, gs):
    """The Kron of the composites F o G of the blocks between the boundaries
    that the domain factors fs of f and the codomain factors gs of g share,
    (A (x) B) o (C (x) D) = AC (x) BD; None when they share only the ends."""
    if not all(h.dom for h in fs) or not all(h.cod for h in gs):
        return None
    blocks, i, j, nf, ng = [], 0, 0, 0, 0
    while i < len(fs):
        i0, j0 = i, j
        nf, i = nf + len(fs[i].dom), i + 1
        while nf != ng:
            if ng < nf:
                ng, j = ng + len(gs[j].cod), j + 1
            else:
                nf, i = nf + len(fs[i].dom), i + 1
        blocks.append((fs[i0:i], gs[j0:j]))
    if len(blocks) < 2:
        return None

    def kron(hs):
        return hs[0] if len(hs) == 1 else Kron(*hs)

    def identity(hs):
        return all(isinstance(h, Perm) and h.identity() for h in hs)

    return Kron(*[kron(gb) if identity(fb) else kron(fb) if identity(gb)
                  else Compose(kron(fb), kron(gb)) for fb, gb in blocks])


class _Eval:
    """The compiled terms of one check call, their memos and the nonzero
    tables of their leaves."""

    def __init__(self, field):
        self.field, self.zero, self.one = field, field.zero(), field.one()
        self._fns, self._tuples, self._tables, self._factors, self._fused = {}, {}, {}, {}, {}

    def view(self, term, memo=True, rows=False):
        """memo=True: the term is evaluated on basis tuples that recur
        (inside a Kron, or after a Compose); False: once per axiom tuple.
        rows=True: term.row, by row number, instead of term.compile.
        A Compose that fuses is viewed as its fused term, sharing its memo."""
        if isinstance(term, Compose):
            term = self.fused(term.f, term.g) or term
        key = (term, memo, rows)
        fn = self._fns.get(key)
        if fn is None:
            fn = term.row(self, memo) if rows else term.compile(self, memo)
            if memo and term.cached:
                fn = _Lazy(fn).__getitem__
            self._fns[key] = fn
        return fn

    def factors(self, term):
        """Terms whose Kron is term, memoized for the check call."""
        if term not in self._factors:
            self._factors[term] = term.factors(self)
        return self._factors[term]

    def fused(self, f, g):
        """f o g as the Kron of its block composites, or None; one per (f, g)."""
        key = (f, g)
        if key not in self._fused:
            fs = self.factors(f)
            self._fused[key] = None if len(fs) < 2 else _fuse(fs, self.factors(g))
        return self._fused[key]

    def tuples(self, dims):
        if dims not in self._tuples:
            self._tuples[dims] = list(product(*map(range, dims)))
        return self._tuples[dims]

    def table(self, leaf, build):
        """build(data), once for every leaf of one kind, data and codomain.
        Every leaf passes here, so a matrix or tensor over another field than
        the check's, or a plain vector or covector with an entry of another
        field, raises MixedFields before it is read.  A plain list's entries
        are promoted into the field first: an int coordinate over F_p or Q(q)
        becomes a field element, so a product that skips a factor equal to
        one still gives a reduced value of the field."""
        key = (id(leaf.data), type(leaf), leaf.cod)
        hit = self._tables.get(key)
        if hit is None:  # holding the data keeps its id from being reused
            data = leaf.data
            if leaf.field is not None:
                same_field("map terms", self.field, leaf.field)
            else:  # a plain list carries no field: its entries tell theirs
                check_scalars("map terms", self.field, data)
                data = [self.field.promote(x) for x in data]
            hit = self._tables[key] = (leaf.data, build(data))
        return hit[1]

    def dense(self, value, cod):
        """The coordinate list of a value over the codomain."""
        out, flat = [self.zero] * _size(cod), _flat(cod)
        for w, x in value:
            out[flat(w)] = canonical(x)
        return out


# ---------------------------------------------------------------------------
# axioms and their evaluation
# ---------------------------------------------------------------------------


class Axiom:
    __slots__ = ("name", "lhs", "rhs", "label")

    def __init__(self, name, lhs, rhs, label=None):
        if (lhs.dom, lhs.cod) != (rhs.dom, rhs.cod):
            raise ShapeMismatch(
                f"{name}: sides map {lhs.dom} -> {lhs.cod} and {rhs.dom} -> {rhs.cod}"
            )
        self.name, self.lhs, self.rhs, self.label = name, lhs, rhs, label

    def defect(self, ev):
        """(number of coordinates, {position: nonzero lhs - rhs}) over every
        basis tuple of the domain, concatenated."""
        diff, cod = ev.view(Sum(self.lhs, Neg(self.rhs)), False), self.lhs.cod
        tuples, size, flat = ev.tuples(self.lhs.dom), _size(cod), _flat(cod)
        return len(tuples) * size, {n * size + flat(w): x
                                    for n, t in enumerate(tuples) for w, x in diff(t)}

    def witness(self, ev):
        cod, dom = self.lhs.cod, self.lhs.dom

        def dense(v):
            return ev.dense(v, cod) if cod else ev.dense(v, cod)[0]

        lhs, rhs = ev.view(self.lhs, False, True), ev.view(self.rhs, False, True)
        prefixes = ev.tuples(dom[:-1])
        # values are equal when they hold the same pairs, in any order
        if self.label is None:
            for r, p in enumerate(prefixes):
                a, b = lhs(r), rhs(r)
                if a != b:
                    for c, (x, y) in enumerate(zip(a, b)):
                        if x != y and dict(x) != dict(y):
                            return (p + (c,) if dom else (), dense(x), dense(y))
            return None
        pairs = [xy for r in range(len(prefixes)) for xy in zip(lhs(r), rhs(r))]
        if all(a == b or dict(a) == dict(b) for a, b in pairs):
            return None
        sides = [[dense(v) for v in side] for side in zip(*pairs)]
        if not dom:
            sides = [side[0] for side in sides]
        return (self.label, sides[0], sides[1])


class Commute:
    __slots__ = ("name", "a", "b")

    def __init__(self, name, a, b):
        self.name, self.a, self.b = name, a, b

    def defect(self, ev):
        ab, ba, n = mat_mul(self.a, self.b), mat_mul(self.b, self.a), self.b.cols
        return ab.rows * n, {i * n + j: x - y for i, (r, s) in enumerate(zip(ab.e, ba.e))
                             for j, (x, y) in enumerate(zip(r, s)) if x != y}

    def witness(self, ev):
        return mat_eq_witness(mat_mul(self.a, self.b), mat_mul(self.b, self.a))


def _evaluate(table):
    """(entry, witness or None) for each entry in order, in one memo scope."""
    ev = None
    for ax in table:
        if ev is None and isinstance(ax, Axiom):
            ev = _Eval(ax.lhs.field or ax.rhs.field)
        yield ax, ax.witness(ev)


def check(table, report=None) -> CheckReport:
    """One report entry per axiom of the table, in order."""
    report = CheckReport() if report is None else report
    for ax, w in _evaluate(table):
        report.add(ax.name, w is None, w)
    return report


def first_failure(table):
    """(axiom, witness) of the first failing entry, or None."""
    return next(((ax, w) for ax, w in _evaluate(table) if w is not None), None)


def witness(*table):
    failure = first_failure(table)
    return None if failure is None else failure[1]


def holds(*table) -> bool:
    return first_failure(table) is None


def require(error, *table):
    """Raise error(name, witness=w) at the first failing entry of the table;
    a construction states each hypothesis as an entry named by its failure
    message."""
    failure = first_failure(table)
    if failure is not None:
        raise error(failure[0].name, witness=failure[1])


def solve(table_of, field, shape):
    """Solve lhs = rhs for every axiom of table_of(x), where x is a vector of
    length shape[0] or a shape[0] x shape[1] matrix and each table is affine
    in x.

    lhs - rhs is evaluated at x = 0 and at each unit vector (matrix unit, in
    row-major order); the differences from the value at 0 are the columns
    of the system.  Returns None when it is inconsistent, else (particular
    solution, kernel basis), each in the shape of x.
    """
    n = _size(shape)

    def unknown(coords):
        if len(shape) == 1:
            return coords
        c = shape[1]
        return Matrix(field, [coords[i * c:(i + 1) * c] for i in range(shape[0])])

    def defect(coords):
        """(number of equations, {equation: nonzero lhs - rhs})."""
        ev, out, rows = _Eval(field), {}, 0
        for ax in table_of(unknown(coords)):
            size, entries = ax.defect(ev)
            out.update((rows + i, x) for i, x in entries.items())
            rows += size
        return rows, out

    rows, base = defect(zero_vec(field, n))
    rhs = {i: -x for i, x in base.items()}
    a, b = Matrix.zero(field, rows, n), [rhs.get(i, field.zero()) for i in range(rows)]
    for j in range(n):
        for i, x in _add(defect(unit_vec(field, n, j))[1].items(), rhs.items()).items():
            if x:
                a.e[i][j] = canonical(x)
    res = solve_affine(a, b)
    if res is None:
        return None
    x, null = res
    return unknown(x), [unknown(v) for v in null]


def images(term):
    """The image of every basis tuple of the domain, in lexicographic order."""
    ev = _Eval(term.field)
    view = ev.view(term, False)
    return [ev.dense(view(t), term.cod) for t in product(*map(range, term.dom))]


def product_tensor(term, d1=None, d2=None) -> Tensor3:
    """Structure constants t[i][j] = term(e_i (x) e_j) of a map V (x) W -> U;
    dim V = d1 and dim W = d2 unless they are the two domain factors."""
    if d1 is None:
        d1, d2 = term.dom
    cols = images(term)
    t = Tensor3.zero(term.field, d1, d2, _size(term.cod))
    t.t = [cols[i * d2:(i + 1) * d2] for i in range(d1)]
    return t


def twisted_product(mu, left, right) -> Tensor3:
    """The structure constants of mu o (left (x) right)."""
    return product_tensor(Compose(Mul(mu), Kron(Lin(left), Lin(right))))


def coproduct_tensor(term, d2=None, d3=None) -> Tensor3:
    """t[i][j][k], the coefficient of e_j (x) e_k in term(e_i) for a map
    V -> W (x) U; dim W = d2 and dim U = d3 unless they are the two
    codomain factors."""
    if d2 is None:
        d2, d3 = term.cod
    t = Tensor3.zero(term.field, _size(term.dom), d2, d3)
    t.t = [[col[j * d3:(j + 1) * d3] for j in range(d2)] for col in images(term)]
    return t


# ---------------------------------------------------------------------------
# templates shared by several structures
# ---------------------------------------------------------------------------


def equivariant(name, act, left, right):
    """right o act = act o (left (x) right).  For a product act and
    left = right = m this says m is multiplicative."""
    return Axiom(name, Compose(Lin(right), Mul(act)), Compose(Mul(act), Kron(Lin(left), Lin(right))))


def multiplicative(name, mu, m):
    return equivariant(name, mu, m, m)


def coequivariant(name, coact, m, mc):
    """(m (x) mc) o coact = coact o m.  For a coproduct coact and m = mc
    this says m is comultiplicative."""
    return Axiom(name, Compose(Kron(Lin(m), Lin(mc)), Comul(coact)), Compose(Comul(coact), Lin(m)))


def comultiplicative(name, delta, m):
    return coequivariant(name, delta, m, m)


def fixes(name, m, v):
    """m(v) = v, compared whole under the label ("1",)."""
    return Axiom(name, Compose(Lin(m), Vec(v)), Vec(v), label=("1",))


def counit_invariant(name, eps, m):
    """eps o m = eps, compared as covectors under the label ("eps",)."""
    return Axiom(name, Compose(Covec(eps), Lin(m)), Covec(eps), label=("eps",))


def unit_law(name, mu, unit, m, side):
    """mu(x, 1) = m(x) (side "right") or mu(1, x) = m(x) (side "left")."""
    one, ident = Vec(unit), Id(mu.d1 if side == "right" else mu.d2)
    pair = Kron(ident, one) if side == "right" else Kron(one, ident)
    return Axiom(name, Compose(Mul(mu), pair), Lin(m))


def counit_law(name, coact, eps, m, side):
    """(id (x) eps) o coact = m (side "right") or (eps (x) id) o coact = m."""
    ident = Id(coact.d2 if side == "right" else coact.d3)
    pair = Kron(ident, Covec(eps)) if side == "right" else Kron(Covec(eps), ident)
    return Axiom(name, Compose(pair, Comul(coact)), Lin(m))


def comultiplicative_product(name, coact, mu, mu_left, mu_right):
    """coact o mu = (mu_left (x) mu_right) o (id (x) swap (x) id) o (coact (x) coact):
    the coproduct (or coaction) is a morphism of algebras."""
    d1, d2, rho = coact.d2, coact.d3, Comul(coact)
    spread = Compose(Perm((d1, d2, d1, d2), (0, 2, 1, 3)), Kron(rho, rho))
    return Axiom(
        name, Compose(rho, Mul(mu)), Compose(Kron(Mul(mu_left), Mul(mu_right)), spread)
    )
