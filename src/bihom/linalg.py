"""Exact dense linear algebra over any supported field.

Matrices act on column vectors: column j of a matrix is the image of the
j-th basis vector.  Vectors are plain lists of scalars.  Row reduction is
exact Gauss-Jordan with first-nonzero pivoting; there are no magnitude
heuristics because the arithmetic is exact.  mat_power gives integer powers,
inverting first for negative ones.  Constructions apply maps to vectors as
axiom-engine terms (axioms.py); Matrix.apply is the dense form that tests
compare against.
"""

from __future__ import annotations

from .errors import Inconsistent, NonUnique, ShapeMismatch, Singular
from .exactnum import Field, canonical, divide, same_field

# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def zero_vec(field, n):
    z = field.zero()
    return [z] * n


def unit_vec(field, n, i):
    v = zero_vec(field, n)
    v[i] = field.one()
    return v


def vec_tensor(u, v, field):
    """Kronecker product of two coordinate vectors."""
    z = field.zero()
    out = []
    for a in u:
        if a:
            out.extend(canonical(a * b) for b in v)
        else:
            out.extend([z] * len(v))
    return out


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    __slots__ = ("field", "rows", "cols", "e")

    def __init__(self, field: Field, entries):
        self.field = field
        self.e = [[field.promote(x) for x in row] for row in entries]
        self.rows = len(self.e)
        self.cols = len(self.e[0]) if self.e else 0
        for row in self.e:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged matrix rows")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(field, rows, cols):
        z = field.zero()
        out = Matrix.__new__(Matrix)
        out.field, out.rows, out.cols = field, rows, cols
        out.e = [[z] * cols for _ in range(rows)]
        return out

    @staticmethod
    def identity(field, n):
        m = Matrix.zero(field, n, n)
        one = field.one()
        for i in range(n):
            m.e[i][i] = one
        return m

    @staticmethod
    def from_columns(field, columns):
        rows = len(columns[0]) if columns else 0
        out = Matrix(field, [[col[i] for col in columns] for i in range(rows)])
        out.cols = len(columns)  # kept when there are no rows
        return out

    @staticmethod
    def diagonal(field, diag):
        m = Matrix.zero(field, len(diag), len(diag))
        for i, d in enumerate(diag):
            m.e[i][i] = field.promote(d)
        return m

    def copy(self):
        out = Matrix.__new__(Matrix)
        out.field = self.field
        out.rows, out.cols = self.rows, self.cols
        out.e = [row[:] for row in self.e]
        return out

    # -- queries ---------------------------------------------------------

    def column(self, j):
        return [self.e[i][j] for i in range(self.rows)]

    def transpose(self):
        out = Matrix.__new__(Matrix)
        out.field = self.field
        out.rows, out.cols = self.cols, self.rows
        out.e = [[self.e[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.e[i][j] == other.e[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.e)
        return f"Matrix[{self.rows}x{self.cols}]({body})"

    # -- application ------------------------------------------------------

    def apply(self, v):
        """Matrix times column vector, skipping zero coordinates of v."""
        if len(v) != self.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} applied to len-{len(v)}")
        out = zero_vec(self.field, self.rows)
        e = self.e
        for j, x in enumerate(v):
            if x:
                for i in range(self.rows):
                    y = e[i][j]
                    if y:
                        out[i] = out[i] + y * x
        return [canonical(y) for y in out]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    same_field("matrix product", a.field, b.field)
    if a.cols != b.rows:
        raise ShapeMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = Matrix.zero(a.field, a.rows, b.cols)
    oe, ae, be = out.e, a.e, b.e
    for i in range(a.rows):
        arow = ae[i]
        orow = oe[i]
        for k in range(a.cols):
            x = arow[k]
            if x:
                brow = be[k]
                for j in range(b.cols):
                    y = brow[j]
                    if y:
                        orow[j] = orow[j] + x * y
        oe[i] = [canonical(v) for v in orow]
    return out


def mat_eq_witness(a: Matrix, b: Matrix):
    """None if equal, else ((i, j), a_ij, b_ij) at the first mismatch."""
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeMismatch("comparing matrices of different shapes")
    for i in range(a.rows):
        for j in range(a.cols):
            if a.e[i][j] != b.e[i][j]:
                return ((i, j), a.e[i][j], b.e[i][j])
    return None


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; acts on flattened u (x) v with index i*b.rows + k."""
    field = same_field("kron", a.field, b.field)
    z = field.zero()
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = Matrix.zero(field, rows, cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.e[i][j]
            if not x:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    y = b.e[k][l]
                    if y:
                        out.e[i * b.rows + k][j * b.cols + l] = canonical(x * y)
    return out


# ---------------------------------------------------------------------------
# row reduction, solving, kernels, inverses
# ---------------------------------------------------------------------------


def _rref(rows, ncols):
    """In-place reduced row echelon form.  Returns the pivot column list."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [divide(x, pv) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [canonical(ri[j] - f * rr[j]) for j in range(len(ri))]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(a: Matrix) -> int:
    rows = [row[:] for row in a.e]
    return len(_rref(rows, a.cols))


def _null_basis(field, rows, pivots, ncols):
    """The right kernel basis of a matrix whose reduced rows, in their first
    ncols columns, are rows, with pivot columns pivots."""
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        v = zero_vec(field, ncols)
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def kernel(a: Matrix):
    """Basis of the right kernel; each vector satisfies A v = 0 exactly."""
    rows = [row[:] for row in a.e]
    return _null_basis(a.field, rows, _rref(rows, a.cols), a.cols)


def solve_affine(a: Matrix, b):
    """Solve A x = b.  Returns (particular, kernel_basis) or None."""
    if len(b) != a.rows:
        raise ShapeMismatch("rhs length != row count")
    field = a.field
    rows = [a.e[i][:] + [field.promote(b[i])] for i in range(a.rows)]
    pivots = _rref(rows, a.cols)
    for i in range(len(pivots), a.rows):
        if rows[i][a.cols]:
            return None
    x = zero_vec(field, a.cols)
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][a.cols]
    return x, _null_basis(field, rows, pivots, a.cols)


def solve_unique(a: Matrix, b):
    """Solve A x = b when the solution must be unique."""
    res = solve_affine(a, b)
    if res is None:
        raise Inconsistent("linear system has no solution")
    x, null = res
    if null:
        raise NonUnique(f"solution space has dimension {len(null)}")
    return x


def solve_linear(a: Matrix, b=None):
    """Spec surface: kernel basis when b is None, else the affine solution.

    Returns kernel(a) for b=None; otherwise (particular, kernel_basis),
    raising Inconsistent when the system has no solution.
    """
    if b is None:
        return kernel(a)
    res = solve_affine(a, b)
    if res is None:
        raise Inconsistent("linear system has no solution")
    return res


def mat_inverse(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ShapeMismatch("inverting a non-square matrix")
    field = a.field
    n = a.rows
    rows = [row[:] + unit for row, unit in zip(a.e, Matrix.identity(field, n).e)]
    pivots = _rref(rows, n)
    if len(pivots) < n:
        raise Singular(f"matrix has rank {len(pivots)} < {n}", rank=len(pivots))
    inv = Matrix.zero(field, n, n)
    for i in range(n):
        inv.e[i] = rows[i][n:]
    return inv


def inverses(what, *maps):
    """The inverse of each map, or Singular naming what needs them."""
    try:
        return [mat_inverse(m) for m in maps]
    except Singular as exc:
        raise Singular(f"{what}: {exc}")


def mat_power(m: Matrix, k: int) -> Matrix:
    """m^k for any integer k: the identity for k = 0, and powers of the
    inverse for k < 0 (Singular when m is singular)."""
    if k == 0:
        return Matrix.identity(m.field, m.rows)
    base = power = m if k > 0 else mat_inverse(m)
    for _ in range(abs(k) - 1):
        power = mat_mul(power, base)
    return power


# ---------------------------------------------------------------------------
# rank-3 tensors (structure constants)
# ---------------------------------------------------------------------------


class Tensor3:
    """Dense rank-3 tensor t[i][j][k].

    For a multiplication, t[i][j] is the coordinate vector of e_i * e_j;
    for a comultiplication, t[i] is the matrix of coefficients of
    Delta(e_i) = sum_{j,k} t[i][j][k] e_j (x) e_k.
    """

    __slots__ = ("field", "d1", "d2", "d3", "t")

    def __init__(self, field, entries):
        self.field = field
        self.t = [
            [[field.promote(x) for x in vec] for vec in plane] for plane in entries
        ]
        self.d1 = len(self.t)
        self.d2 = len(self.t[0]) if self.d1 else 0
        self.d3 = len(self.t[0][0]) if self.d1 and self.d2 else 0
        for plane in self.t:
            if len(plane) != self.d2:
                raise ShapeMismatch("ragged tensor")
            for vec in plane:
                if len(vec) != self.d3:
                    raise ShapeMismatch("ragged tensor")

    @staticmethod
    def zero(field, d1, d2, d3):
        z = field.zero()
        out = Tensor3.__new__(Tensor3)
        out.field = field
        out.d1, out.d2, out.d3 = d1, d2, d3
        out.t = [[[z] * d3 for _ in range(d2)] for _ in range(d1)]
        return out

    @staticmethod
    def from_function(field, d1, d2, d3, f):
        """f(i, j) must return the length-d3 coordinate vector t[i][j]."""
        out = Tensor3.zero(field, d1, d2, d3)
        for i in range(d1):
            for j in range(d2):
                v = f(i, j)
                if len(v) != d3:
                    raise ShapeMismatch("tensor column of wrong length")
                out.t[i][j] = [field.promote(x) for x in v]
        return out

    def column(self, i, j):
        return self.t[i][j]

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (
            self.field == other.field
            and (self.d1, self.d2, self.d3) == (other.d1, other.d2, other.d3)
            and all(
                self.t[i][j][k] == other.t[i][j][k]
                for i in range(self.d1)
                for j in range(self.d2)
                for k in range(self.d3)
            )
        )

    def __hash__(self):
        return hash((self.d1, self.d2, self.d3))

    def __repr__(self):
        return f"Tensor3[{self.d1}x{self.d2}x{self.d3}]"


def bilinear_apply(mu, x, y, mod):
    """The bilinear map with structure constants mu on (x, y), as the axiom
    engine evaluates a product on raw coefficients: x and y are the lists of
    their nonzero (i, x_i) pairs, mu[i][j] the nonzero (k, z) pairs of
    column (i, j), and the result is the list of nonzero (k, out_k) pairs,
    each reduced mod p when mod = p (0 over Q and Q(q)); every key is a
    basis index.  Only products of nonzero entries are formed."""
    out = {}
    get = out.get
    for i, a in x:
        row = mu[i]
        for j, b in y:
            c = a * b
            for k, z in row[j]:
                out[k] = get(k, 0) + c * z
    if mod:
        return [(k, r) for k, v in out.items() if (r := v % mod)]
    return [(k, v) for k, v in out.items() if v]
