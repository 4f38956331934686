"""Axioms as identities between linear maps on tensor powers.

Every result the package verifies says that two composite linear maps
agree, e.g. mu o (alpha (x) mu) = mu o (mu (x) beta).  This module states
such an identity once, as ``Axiom(name, lhs, rhs)`` over the map terms
below, and evaluates both sides a row at a time, in lexicographic order: a
row holds the images of the basis tuples that differ only in the last
factor.  The first tuple where they differ gives the witness
``(index tuple, lhs value, rhs value)``.

Inside the engine a basis tuple of a domain or codomain is identified by its
row-major index: e_j (x) e_k in V (x) W has index j * dim W + k, and the
tuples of a row are consecutive indices.  Only a witness turns the failing
index back into its basis tuple.

Map terms; ``dom`` and ``cod`` list the dimensions of the tensor factors:

    Mul(t)        V (x) W -> U, e_i (x) e_j -> t[i][j] (products, actions)
    Comul(t)      V -> W (x) U, e_i -> sum_jk t[i][j][k] e_j (x) e_k
    Lin(m)        the matrix m; dom and cod split its columns and rows
    Vec(v)        k -> V, 1 -> v;  Covec(c): V -> k, e_i -> c[i]
    Id(d)         the identity of a d-dimensional space
    Perm(dims, order)  moves tensor factor order[i] to place i
    Kron(f, g)    f (x) g;  Compose(f, g) = f o g
    Sum(f, g), Neg(f), Zero(dom, cod)

A value is the list of (row-major index, coefficient) pairs of its nonzero
coordinates; a coefficient that cancels is dropped, so equal values hold the
same pairs.  Coefficients are raw, as the field descriptor's ``raw_columns``
lists a leaf (exactnum): over F_p (``field.modulus`` = p) residues, reduced
once per coefficient a step produces, else numbers over the term's scale:
the leaf's, the product of the factors' for a Kron, a Compose and a fold,
the lcm of both for a Sum (each side times its cofactor), and the input's
for a Neg.  While every leaf of a check call is integral, every scale is 1
and nothing is rescaled.

Each leaf lists the nonzero pairs of its columns once per check call, so a
leaf's image at index t is entry t of its table.  A Kron f (x) g reads f at
t // n and g at t % n and keys a (x) b by a * m + b, with n and m the sizes
of g's domain and codomain.  A permutation of factors moves each index it
meets by strides.  A Compose applies its outer map only to the support of
the inner value.  The images and the rows of composites are memoized for
one check call.  A leaf's row is a slice of its table, a Kron keeps its
first factor's value along a row, and a Compose maps each image of its
inner row; other terms give the image of each index.  A product
Mul o (f (x) g) with the last factor in g folds the factor that is fixed
along its rows into the product's table with bilinear_apply: f's value at
the row's prefix when g has several factors; when g has one, whole rows
mu(e_u, g(e_c)) over c, memoized by the inner index u, and each row r is
built with one call, as the sum of those rows with the coefficients of f's
value at r (row u itself when that value is e_u).

Kronecker structure is evaluated factor by factor, as the terms state it:
a term's factors are those of a Kron, one Id per factor of an identity Perm,
and the blocks of a fused Compose; any other term, a Lin included, is one
factor.  When the domain factors of f and the codomain factors of g share an
inner boundary, f o g is the Kron of the composites of the blocks between
them, (A (x) B) o (C (x) D) = AC (x) BD, with Id o x and x o Id dropped to x;
it is one term per pair (f, g), so every Compose of f after g shares its
memos.

Field elements are built only where values leave the engine, by the
descriptor's ``from_raw``: the dense coordinate lists, indexed as the values
are, of witnesses and of ``images``, and the defects that ``solve`` reads; a
value in k itself is reported as a scalar.  Two sides over one scale are
compared pair for pair; over different scales each is multiplied by the
other's cofactor of their gcd first.

An axiom with a ``label`` compares the two maps whole instead: its witness
is ``(label, lhs, rhs)`` with the images of all basis tuples (or of 1 when
the domain is k).

``Commute(name, a, b)`` compares a b with b a as d x d matrices; its
witness is the first differing entry ``((i, j), (ab)_ij, (ba)_ij)``.

A structure's axioms are one table, built by a function such as
``unit_axioms``; a composite check concatenates the tables of its parts,
each renamed by ``named``, and evaluates them in one ``check`` call.  A
construction states each hypothesis as an entry of a table whose name is
the message it fails with, and ``require(error, *table)`` raises
``error(name, witness=w)`` at the first failing entry.

``solve(table_of, field, shape)`` solves the same tables for an unknown
vector or matrix x: every equation the package solves for (units,
antipodes, primitive elements, fixed vectors) is affine in x, so lhs - rhs
at x = 0 and at each unit vector gives the linear system.
"""

from __future__ import annotations

from math import gcd, lcm

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


def _basis_tuple(n, dims):
    """The basis tuple at row-major position n of the given factor dims."""
    t = []
    for d in reversed(dims):
        n, i = divmod(n, d)
        t.append(i)
    return tuple(reversed(t))


class _Lazy(dict):
    """A table whose value at a key is built by build(key) when first read;
    _Lazy(fn).__getitem__ is fn memoized."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _nonzero(items, mod):
    """The (key, coefficient) items whose coefficient is nonzero, each
    reduced first over F_p (mod = p; 0 over Q and Q(q))."""
    if mod:
        return [(w, r) for w, x in items if (r := x % mod)]
    return [(w, x) for w, x in items if x]


def _scaled(value, c):
    """A value times the int c; c = 1 costs nothing."""
    return value if c == 1 else [(w, c * x) for w, x in value]


def _combine(value, image, mod):
    """The map with images image(u) applied to a value: the nonzero pairs of
    the sum of c * image(u) over its pairs (u, c)."""
    if len(value) == 1:  # products of nonzero coefficients: nothing cancels
        (u, c), = value
        if c == 1:  # the image itself, not a copy
            return image(u)
        if mod:
            return [(w, c * x % mod) for w, x in image(u)]
        return [(w, c * x) for w, x in image(u)]
    out = {}
    get = out.get
    for u, c in value:
        for w, x in image(u):
            out[w] = get(w, 0) + c * x
    if mod:  # _nonzero, inline on the engine's hottest path
        return [(w, r) for w, x in out.items() if (r := x % mod)]
    return [(w, x) for w, x in out.items() if x]


def _fold_row(value, rows, d, mod):
    """The sum of c * rows[u] over the pairs (u, c) of a value, entry by
    entry, for rows of d values: rows[u] itself when the value is e_u."""
    if len(value) != 1:  # several terms, or none: entry k as _combine sums it
        return [_combine(value, lambda u: rows[u][k], mod) for k in range(d)]
    (u, c), = value  # products of nonzero coefficients: nothing cancels
    if c == 1:
        return rows[u]
    if mod:
        return [[(w, c * x % mod) for w, x in v] for v in rows[u]]
    return [[(w, c * x) for w, x in v] for v in rows[u]]


def _add(a, b):
    """a + b as {key: coefficient}, for two (key, coefficient) lists, over both supports."""
    out = dict(a)
    get = out.get
    for w, x in b:
        out[w] = get(w, 0) + x
    return out


# ---------------------------------------------------------------------------
# map terms
# ---------------------------------------------------------------------------


class Term:
    """A linear map between tensor powers.  ``compile`` gives the function
    from the index of a domain basis tuple to the nonzero pairs of its image,
    and ``row`` from a row number r to the images of the domain indices r*d
    to r*d+d-1, with d the last factor's dimension (1 on k)."""

    __slots__ = ("dom", "cod")
    field = None
    cached = True  # memoize the images when the term sits below the top level

    def factors(self, ev):
        """Terms whose Kron is this term."""
        return [self]

    def scale(self, ev):
        """The int that the term's raw coefficients are over."""
        return 1

    def row(self, ev, memo):
        view, d = ev.view(self, memo), (self.dom or (1,))[-1]
        return lambda r: [view(t) for t in range(r * d, r * d + d)]


class _Columns(Term):
    """A leaf given by the image of every domain basis tuple."""

    __slots__ = ("data",)
    cached = False

    @property
    def field(self):
        return getattr(self.data, "field", None)

    def nonzero(self, ev):
        """The nonzero pairs of every column, in domain order."""
        return ev.table(self)[0]

    def scale(self, ev):
        return ev.table(self)[1]

    def compile(self, ev, memo):
        return self.nonzero(ev).__getitem__

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

    @staticmethod
    def _columns(t):
        return [col for plane in t.t for col in plane]


class Comul(_Columns):
    __slots__ = ()

    def __init__(self, t):
        self.data, self.dom, self.cod = t, (t.d1,), (t.d2, t.d3)

    @staticmethod
    def _columns(t):
        return [[x for row in plane for x in row] for plane in t.t]


class Perm(Term):
    __slots__ = ("order", "identity")
    cached = False

    def __init__(self, dims, order):
        self.dom, self.order = tuple(dims), tuple(order)
        if sorted(self.order) != list(range(len(self.dom))):
            raise ShapeMismatch(f"{order} is not a permutation of {len(self.dom)} factors")
        self.cod = tuple(self.dom[o] for o in self.order)
        self.identity = self.order == tuple(range(len(self.order)))

    def factors(self, ev):
        return [Id(d) for d in self.dom] if len(self.dom) > 1 and self.identity else [self]

    def compile(self, ev, memo):
        if self.identity:
            return lambda t: [(t, 1)]
        # the index of factor j, the last first, steps by the stride of its place in cod
        steps = [(d, _size(self.cod[self.order.index(j) + 1:]))
                 for j, d in enumerate(self.dom)][::-1]

        def move(t):
            m = 0
            for d, stride in steps:
                t, k = divmod(t, d)
                m += k * stride
            return [(m, 1)]

        return move


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

    def scale(self, ev):
        return ev.scale(self.f) * ev.scale(self.g)


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
        # index t of f (x) g is f's index t // n then g's t % n; the image
        # a (x) b has index a * m + b
        n, m, mod = _size(self.g.dom), _size(self.g.cod), ev.mod
        f, g = ev.view(self.f), ev.view(self.g)
        # a product of nonzero coefficients is nonzero: nothing cancels here
        if mod:
            return lambda t: [(a * m + b, x * y % mod) for a, x in f(t // n) for b, y in g(t % n)]
        return lambda t: [(a * m + b, x * y) for a, x in f(t // n) for b, y in g(t % n)]

    def row(self, ev, memo):
        if not self.g.dom:
            return Term.row(self, ev, memo)
        left, mod, m = ev.view(self.f), ev.mod, _size(self.g.cod)
        n, right = _size(self.g.dom[:-1]), ev.view(self.g, rows=True)
        # row r is row r % n of g after index r // n of f's domain
        if mod:
            return lambda r: [[(a * m + b, c * y % mod) for a, c in x for b, y in v]
                              for x in [left(r // n)] for v in right(r % n)]
        return lambda r: [[(a * m + b, c * y) for a, c in x for b, y in v]
                          for x in [left(r // n)] for v in right(r % n)]


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
        if self.folds():  # read off the memoized row
            row, d = ev.view(self, True, rows=True), self.dom[-1]
            return lambda t: row(t // d)[t % d]
        inner, outer, mod = ev.view(self.g, memo), ev.view(self.f), ev.mod
        return lambda t: _combine(inner(t), outer, mod)

    def folds(self):  # Mul o (f (x) g), one codomain factor each, the last domain one in g
        f, g = self.f, self.g
        return isinstance(f, Mul) and isinstance(g, Kron) and len(g.f.cod) == 1 and bool(g.g.dom)

    def row(self, ev, memo):
        mod = ev.mod
        if not self.folds():  # f applied to each image of g's row
            inner, outer = ev.view(self.g, memo, rows=True), ev.view(self.f)
            return lambda r: [_combine(v, outer, mod) for v in inner(r)]
        (d1, d2), listed, f, g = self.f.dom, self.f.nonzero(ev), self.g.f, self.g.g
        table = [listed[i * d2:(i + 1) * d2] for i in range(d1)]  # [i][j], for bilinear_apply
        left = ev.view(f)
        if len(g.dom) == 1:  # g folded once: row u is [mu(e_u, g(e_c)) for c]
            ys = ev.view(g, rows=True)(0)
            rows = _Lazy(lambda u: [bilinear_apply(table, [(u, 1)], y, mod) for y in ys])
            return lambda r: _fold_row(left(r), rows, len(ys), mod)
        n, right = _size(g.dom[:-1]), ev.view(g, rows=True)
        folded = _Lazy(lambda i: _Lazy(  # by f's index i: u -> mu(f(e_i), e_u)
            lambda u: bilinear_apply(table, left(i), [(u, 1)], mod)).__getitem__)
        return lambda r: [_combine(v, m, mod) for m in [folded[r // n]] for v in right(r % n)]


class Sum(_Binary):
    __slots__ = ()

    def __init__(self, f, g):
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise ShapeMismatch(f"adding maps {f.dom} -> {f.cod} and {g.dom} -> {g.cod}")
        self.f, self.g, self.dom, self.cod = f, g, f.dom, f.cod

    def scale(self, ev):
        return lcm(ev.scale(self.f), ev.scale(self.g))

    def compile(self, ev, memo):
        f, g, mod = ev.view(self.f, memo), ev.view(self.g, memo), ev.mod
        a, b = ev.cofactors(self.f, self.g)
        return lambda t: _nonzero(_add(_scaled(f(t), a), _scaled(g(t), b)).items(), mod)


class Neg(Term):
    __slots__ = ("f",)

    def __init__(self, f):
        self.f, self.dom, self.cod = f, f.dom, f.cod

    @property
    def field(self):
        return self.f.field

    def scale(self, ev):
        return ev.scale(self.f)

    def compile(self, ev, memo):
        f, mod = ev.view(self.f, memo), ev.mod
        return lambda t: _nonzero(_scaled(f(t), -1), mod)


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
        return all(isinstance(h, Perm) and h.identity for h in hs)

    return Kron(*[kron(gb) if identity(fb) else kron(fb) if identity(gb)
                  else Compose(kron(fb), kron(gb)) for fb, gb in blocks])


class _Eval:
    """The compiled terms of one check call, their memos and the nonzero
    tables of their leaves."""

    def __init__(self, field):
        self.field, self.zero = field, field.zero()
        self.mod = field.modulus
        self._fns, self._tables, self._factors = {}, {}, {}
        self._fused, self._scales, self.fractional = {}, {}, False

    def view(self, term, memo=True, rows=False):
        """memo=True: the term is evaluated on indices that recur
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

    def scale(self, term):
        """term.scale, memoized for the check call; 1 while every leaf listed
        so far is integral.  A term's leaves are listed when its view is
        compiled, so its scale is asked for after its view."""
        if not self.fractional:
            return 1
        if term not in self._scales:
            self._scales[term] = term.scale(self)
        return self._scales[term]

    def cofactors(self, f, g):
        """(a, b): f's raw coefficients times a and g's times b are over one
        scale, the lcm of theirs."""
        if not self.fractional:
            return 1, 1
        sf, sg = self.scale(f), self.scale(g)
        d = gcd(sf, sg)
        return sg // d, sf // d

    def table(self, leaf):
        """(the nonzero pairs of every column of a leaf, in domain order, their
        scale), listed once for every leaf of one kind and data.
        Every leaf passes here, so a matrix or tensor over another field than
        the check's, or a plain vector or covector with an entry of another
        field, raises MixedFields before it is read.  A plain list's entries
        are promoted into the field first, so that every entry is a field
        element when ``raw_columns`` reads it."""
        key = (id(leaf.data), type(leaf))
        hit = self._tables.get(key)
        if hit is None:  # holding the data keeps its id from being reused
            data = leaf.data
            if leaf.field is not None:
                same_field("map terms", self.field, leaf.field)
            else:  # a plain list carries no field: its entries tell theirs
                check_scalars("map terms", self.field, data)
                data = [self.field.promote(x) for x in data]
            listed = self.field.raw_columns(leaf._columns(data))
            hit = self._tables[key] = (leaf.data, listed)
            self.fractional = self.fractional or hit[1][1] != 1
        return hit[1]

    def dense(self, value, cod, scale):
        """The coordinate list of a value over the codomain."""
        out, scalar = [self.zero] * _size(cod), self.field.from_raw
        for w, x in value:
            out[w] = scalar(x, scale)
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
        diff, cod = Sum(self.lhs, Neg(self.rhs)), self.lhs.cod
        view, scale, scalar = ev.view(diff, False), ev.scale(diff), ev.field.from_raw
        n, size = _size(self.lhs.dom), _size(cod)
        return n * size, {t * size + w: scalar(x, scale) for t in range(n) for w, x in view(t)}

    def witness(self, ev):
        cod, dom = self.lhs.cod, self.lhs.dom
        lhs, rhs = ev.view(self.lhs, False, True), ev.view(self.rhs, False, True)
        a, b = ev.cofactors(self.lhs, self.rhs)  # 1 and 1 when the scales agree

        def dense(v, side):
            out = ev.dense(v, cod, ev.scale(side))
            return out if cod else out[0]

        def differ(x, y):  # values are equal when they hold the same pairs, in any order
            x, y = _scaled(x, a), _scaled(y, b)
            return x != y and dict(x) != dict(y)

        rows, d = _size(dom[:-1]), (dom or (1,))[-1]
        if self.label is None:
            for r in range(rows):
                xs, ys = lhs(r), rhs(r)
                if xs != ys or a != b:
                    for c, (x, y) in enumerate(zip(xs, ys)):
                        if differ(x, y):
                            return (_basis_tuple(r * d + c, dom), dense(x, self.lhs),
                                    dense(y, self.rhs))
            return None
        pairs = [xy for r in range(rows) for xy in zip(lhs(r), rhs(r))]
        if not any(differ(x, y) for x, y in pairs):
            return None
        sides = [[dense(v, side) for v in values]
                 for side, values in zip((self.lhs, self.rhs), zip(*pairs))]
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


def check(table) -> CheckReport:
    """One report entry per axiom of the table, in order."""
    report = CheckReport()
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


def named(template, table):
    """The table just built, each entry renamed template.format(its name) in
    place: "algebra:{}" prefixes the names, and a template without {} gives
    every entry one failure message."""
    for ax in table:
        ax.name = template.format(ax.name)
    return table


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
    view, scale = ev.view(term, False), ev.scale(term)
    return [ev.dense(view(t), term.cod, scale) for t in range(_size(term.dom))]


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
