"""Exact field arithmetic: Q, prime fields F_p, and the rational-function
field Q(q), behind one small field-descriptor interface.

Elements are plain immutable values:

* Q       -> int when integral, else fractions.Fraction
* F_p     -> PrimeFieldElement (residue in [0, p) + modulus)
* Q(q)    -> RationalFunction, stored as q^k * N / D with N and D integer
             polynomials in lowest terms (see the class docstring)

All three support ``+ - * /`` via operator overloading, are falsy exactly
when zero, and are hashable; a value equal to an int or a Fraction hashes
like it.  Values never change once built, so an operator may return one of
its operands itself: over Q(q), a sum with zero and a product by one do.
The Q(q) fast paths by operand shape all live in ``RationalFunction``'s
operators and ``_product`` (see the class docstring).

The package divides through ``divide``, because ``/`` on two
ints gives a float.  A field descriptor (``QQ``, ``PrimeField(p)``, ``QQ_Q``) supplies
zero/one, promotion from int, parsing and formatting; containers (matrices,
tensors) carry the descriptor, elements do not need to be wrapped.

Over Q, ``zero``, ``one``, ``from_int``, ``promote``, ``parse`` and
``divide`` give an int for an integral value, so the common entries of the
paper's examples stay in int arithmetic.  Sums and products that involve a
Fraction may still give an integral Fraction; it equals and hashes like the
int, and ``promote`` turns it into one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    BadScalar,
    DivisionByZero,
    MixedFields,
    ZeroDenominator,
)

# ---------------------------------------------------------------------------
# polynomials over Z, represented as tuples of int, low degree first, no
# trailing zeros; the zero polynomial is the empty tuple.
# ---------------------------------------------------------------------------


def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _mul(a, b):
    """Product of two nonzero polynomials; Z has no zero divisors, so the
    result needs no trimming."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _add_shifted(a, sa, b, sb):
    """q^sa * a + q^sb * b."""
    out = [0] * max(len(a) + sa, len(b) + sb)
    for i, x in enumerate(a, sa):
        out[i] = x
    for i, x in enumerate(b, sb):
        out[i] += x
    return _trim(out)


def _primitive(a):
    c = gcd(*a)
    return a if c == 1 else tuple(x // c for x in a)


def _prem(a, b):
    """A nonzero integer multiple of the remainder of a by b over Q.

    A step subtracts an integer multiple of b when lc(b) divides the top
    coefficient, and scales the dividend by lc(b) first otherwise.
    """
    r = list(a)
    lb, db = b[-1], len(b) - 1
    while len(r) > db:
        top, s = r[-1], len(r) - 1 - db
        if top % lb:
            r = [lb * x for x in r]
        else:
            top //= lb
        for j, y in enumerate(b, s):
            r[j] -= top * y
        r.pop()
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _poly_gcd(a, b):
    """Primitive gcd with positive leading coefficient, by the primitive
    PRS (Collins 1967, Brown 1971): pseudo-remainders, each divided by its
    content.  Both arguments are nonzero."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b if b[-1] > 0 else tuple(-x for x in b)
        a, b = b, _primitive(r)
    return (1,)


def _quo(a, g):
    """a / g for a primitive divisor g of a; the quotient is integral by
    Gauss's lemma, so every step divides exactly."""
    r = list(a)
    lg, dg = g[-1], len(g) - 1
    out = [0] * (len(a) - dg)
    for i in range(len(out) - 1, -1, -1):
        c = r[i + dg] // lg
        if c:
            out[i] = c
            for j, y in enumerate(g, i):
                r[j] -= c * y
    return tuple(out)


def _cancel(a, b):
    """a and b divided by their primitive gcd, which is computed only when
    both are non-constant."""
    if len(a) > 1 and len(b) > 1:
        g = _poly_gcd(a, b)
        if len(g) > 1:
            return _quo(a, g), _quo(b, g)
    return a, b


def _unit_content(n, d):
    """n and d divided by their joint content, signed so that lc(d) > 0."""
    c = gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c == 1:
        return n, d
    return tuple(x // c for x in n), tuple(x // c for x in d)


def _reduce(n, d, k):
    """Canonical (N, D, k) of q^k * n / d for trimmed integer n and
    nonzero trimmed integer d; see RationalFunction."""
    if not n:
        return (), (1,), 0
    i = 0
    while not n[i]:
        i += 1
    j = 0
    while not d[j]:
        j += 1
    if i or j:
        n, d, k = n[i:], d[j:], k + i - j
    return (*_unit_content(*_cancel(n, d)), k)


def _integral(coeffs):
    """(integer coefficients, s) with coeffs = integer coefficients / s."""
    coeffs = list(coeffs)
    if all(type(c) is int for c in coeffs):
        return coeffs, 1
    coeffs = [Fraction(c) for c in coeffs]
    s = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (s // c.denominator) for c in coeffs], s


def _pformat(a, shift=0, var="q"):
    """Human form of q^shift * a, highest degree first.  Used by
    format_qq_scalar."""
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        k += shift
        if k == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            head = "" if mag == 1 else f"{mag} "
            body = f"{head}{var}" + (f"^{k}" if k > 1 else "")
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


# ---------------------------------------------------------------------------
# rational functions over Q in one indeterminate q
# ---------------------------------------------------------------------------


class RationalFunction:
    """An element q^k * N / D of Q(q), N and D polynomials over Z.

    Invariants of the stored form (``k``, ``n`` = N, ``d`` = D, both tuples
    of int, low degree first, no trailing zeros):

    * N(0) != 0 and D(0) != 0, so the power of q lives only in k;
    * gcd(N, D) = 1 in Z[q];
    * the coefficients of N and D taken together have content 1;
    * the leading coefficient of D is positive;
    * zero is k = 0, N = (), D = (1,).

    The form is unique, so equality is tuple equality.  ``num`` and ``den``
    give the reduced fraction with a monic denominator as Fraction tuples.

    ``__init__`` accepts int or Fraction coefficient sequences and reduces
    them; ``_normalized=True`` stores (num, den, k) that already obey the
    invariants, as the arithmetic below builds them.

    The operators test for a ``RationalFunction`` operand before coercing
    an int or a Fraction, and take these short-cuts by shape, each of
    which may return an operand itself: ``+`` with zero and ``*`` by one
    (k = 0, N = D = (1,)) return the other operand; ``_product`` shifts k
    for a factor q^k and needs one int gcd for two constants; ``**`` of a
    constant times q^j is computed in closed form.
    """

    __slots__ = ("n", "d", "k")

    def __init__(self, num, den=(1,), k=0, _normalized=False):
        if _normalized:
            self.n, self.d, self.k = num, den, k
            return
        num, s = _integral(num)
        den, t = _integral(den)
        den = _trim(x * s for x in den)
        if not den:
            raise ZeroDenominator("rational function with zero denominator")
        num = _trim(x * t for x in num)
        self.n, self.d, self.k = _reduce(num, den, k)

    @property
    def num(self):
        """Numerator of the monic-denominator form, low degree first."""
        lead = self.d[-1]
        return (Fraction(0),) * max(self.k, 0) + tuple(
            Fraction(c, lead) for c in self.n
        )

    @property
    def den(self):
        """Monic denominator, low degree first."""
        lead = self.d[-1]
        return (Fraction(0),) * max(-self.k, 0) + tuple(
            Fraction(c, lead) for c in self.d
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n):
        return RationalFunction((n,), (1,), 0, True) if n else _RF_ZERO

    @staticmethod
    def from_fraction(f):
        f = Fraction(f)
        if not f:
            return _RF_ZERO
        return RationalFunction((f.numerator,), (f.denominator,), 0, True)

    @staticmethod
    def q_power(k):
        """q**k for any integer k (negative powers are fractions)."""
        return RationalFunction((1,), (1,), k, True)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if type(other) is int:
            return RationalFunction.from_int(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_fraction(other)
        return None

    def __add__(self, other):
        o = other if type(other) is RationalFunction else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.n:
            return self
        if not self.n:
            return o
        m = min(self.k, o.k)
        if self.d == o.d:
            n, d = _add_shifted(self.n, self.k - m, o.n, o.k - m), self.d
        else:
            n = _add_shifted(
                _mul(self.n, o.d), self.k - m, _mul(o.n, self.d), o.k - m
            )
            d = _mul(self.d, o.d)
        return RationalFunction(*_reduce(n, d, m), True)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(tuple(-x for x in self.n), self.d, self.k, True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is RationalFunction else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.k and o.n == o.d:  # o is one: n == d only for (1,)
            return self
        if not self.k and self.n == self.d:
            return o
        if not self.n or not o.n:
            return _RF_ZERO
        return _product(self.n, self.d, self.k, o.n, o.d, o.k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is RationalFunction else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.n:
            raise DivisionByZero("division by zero in Q(q)")
        if not self.n:
            return _RF_ZERO
        return _product(self.n, self.d, self.k, o.d, o.n, -o.k)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return _RF_ONE
        if len(self.n) == len(self.d) == 1:  # c/e q^j: c^k/e^k q^(jk), sign on top
            c, e, j = self.n[0], self.d[0], self.k * k
            if k < 0:
                c, e, k = (-e, -c, -k) if c < 0 else (e, c, -k)
            return RationalFunction((c**k,), (e**k,), j, True)
        base = self if k > 0 else _RF_ONE / self
        out = _RF_ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    # -- comparisons / misc -------------------------------------------------

    def __eq__(self, other):
        o = other if type(other) is RationalFunction else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.k == o.k and self.n == o.n and self.d == o.d

    def __hash__(self):
        if self.k or len(self.n) > 1 or len(self.d) > 1:
            return hash((self.k, self.n, self.d))
        # a constant hashes like the equal int or Fraction
        return hash(Fraction(self.n[0], self.d[0])) if self.n else 0

    def __bool__(self):
        return bool(self.n)

    def __repr__(self):
        return f"RationalFunction({self})"

    def __str__(self):
        return format_qq_scalar(self)


def _product(n1, d1, k1, n2, d2, k2):
    """(q^k1 n1/d1) * (q^k2 n2/d2) for nonzero canonical factors, except
    that d2 has a negative leading coefficient when it is a divisor's N.

    A factor q^k (N = D = (1,)) only shifts k, unless it is the first and
    d2 < 0, as when dividing by -q^k.  Two constants c1/e1 * c2/e2 need one
    int gcd, signed to the denominator.  Otherwise cancelling crosswise,
    gcd(n1, d2) and gcd(n2, d1), leaves the product coprime, so only the
    integer content and the sign remain to fix.
    """
    if n2 == d2 == (1,):
        return RationalFunction(n1, d1, k1 + k2, True)
    if n1 == d1 == (1,) and d2[-1] > 0:
        return RationalFunction(n2, d2, k1 + k2, True)
    if len(n1) == len(d1) == len(n2) == len(d2) == 1:
        n, d = n1[0] * n2[0], d1[0] * d2[0]
        c = gcd(n, d) if d > 0 else -gcd(n, d)
        return RationalFunction((n // c,), (d // c,), k1 + k2, True)
    n1, d2 = _cancel(n1, d2)
    n2, d1 = _cancel(n2, d1)
    n, d = _unit_content(_mul(n1, n2), _mul(d1, d2))
    return RationalFunction(n, d, k1 + k2, True)


_RF_ZERO = RationalFunction((), (1,), 0, True)
_RF_ONE = RationalFunction((1,), (1,), 0, True)


def q_integer(n) -> RationalFunction:
    """[n]_q = (q^n - q^-n) / (q - q^-1) as an element of Q(q), stored
    from its canonical form q^(1-n) (1 + q^2 + ... + q^(2n-2)); [-n]_q = -[n]_q."""
    if not n:
        return _RF_ZERO
    s, m = (1, n) if n > 0 else (-1, -n)
    return RationalFunction((s,) + (0, s) * (m - 1), (1,), 1 - m, True)


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------


class PrimeFieldElement:
    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _check(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise MixedFields(f"F_{self.p} vs F_{other.p}")
            return other.value
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.value + v, self.p)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __sub__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return PrimeFieldElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        v %= self.p
        if v == 0:
            raise DivisionByZero(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.value * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise DivisionByZero(f"division by zero in F_{self.p}")
        return PrimeFieldElement(v * pow(self.value, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            # only the canonical residue, so that equal values hash alike
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} mod {self.p}"


# Prime-field moduli must lie below this bound: Miller-Rabin with the first
# twelve primes as bases decides primality exactly there.
PRIME_LIMIT = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    """Deterministic Miller-Rabin, exact for p < PRIME_LIMIT."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------


class Field:
    """Descriptor for one of the supported ground fields.

    Each field (``RationalField``, ``PrimeField``, ``FunctionField``)
    defines ``zero()``, ``one()``, ``from_int(n)``, ``promote(x)`` (accepts
    ints, Fractions and the field's own elements), ``parse(text)`` and
    ``format(x)``; this base class holds what they share.
    """

    name = "?"
    modulus = 0  # p over F_p

    def raw_columns(self, columns):
        """(the pairs (row-major index k, raw coefficient) of the nonzero
        entries x = col[k] of each column, their scale): the axiom engine's
        form of a leaf.  Over Q a raw coefficient is an int numerator over
        the scale, the lcm of the denominators met; over Q(q) it is the
        element, with scale 1."""
        fractions = []
        note = fractions.append  # returns None: a Fraction is noted and kept
        table = [[(k, x) for k, x in enumerate(col)
                  if x and (type(x) is not Fraction or not note(x))] for col in columns]
        if not fractions:
            return table, 1
        scale = lcm(*{x.denominator for x in fractions})
        for col in table:  # in place: one column at a time, not a second table
            col[:] = [(w, x.numerator * (scale // x.denominator)) for w, x in col]
        return table, scale

    def from_raw(self, x, scale):
        """The element of a raw coefficient over its scale; over Q an int
        when it is integral, else a Fraction in lowest terms."""
        return self.promote(x) if scale == 1 else canonical(Fraction(x, scale))

    def __repr__(self):
        return self.name


_Q_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_FP_LITERAL = re.compile(r"\s*(-?\d+)\s*(?:mod\s*(\d+)\s*)?")


def canonical(x):
    """The stored form of a computed scalar: an integral Fraction becomes its
    numerator, so that an integral Q value is always an int; any other scalar
    is returned as it is.  Every entry the package computes and writes into a
    matrix, tensor or vector goes through here."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class RationalField(Field):
    name = "Q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return self.promote(n)

    def promote(self, x):
        # exact type tests first: isinstance against Fraction goes through
        # ABCMeta, and promote runs once per entry of every matrix and tensor
        t = type(x)
        if t is int:
            return x
        if t is Fraction:
            return canonical(x)
        if isinstance(x, Fraction):
            return canonical(Fraction(x))
        if isinstance(x, int):  # bool and other int subclasses
            return int(x)
        raise MixedFields(f"cannot interpret {x!r} in Q")

    def parse(self, text):
        """An optional sign, digits and an optional "/digits"; whitespace is
        ignored.  Decimal points and exponents are not accepted."""
        m = _Q_LITERAL.fullmatch("".join(text.split()))
        if not m:
            raise BadScalar(f"bad rational literal {text!r}")
        try:
            return canonical(Fraction(int(m.group(1)), int(m.group(2) or 1)))
        except (ValueError, ZeroDivisionError) as exc:  # too many digits, or n/0
            raise BadScalar(f"bad rational literal {text!r}: {exc}")

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    def __init__(self, p):
        if isinstance(p, int) and p >= PRIME_LIMIT:
            raise ValueError(f"modulus {p} is not below 2^64")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        self.p = self.modulus = p
        self.name = f"F{p}"

    def zero(self):
        return PrimeFieldElement(0, self.p)

    def one(self):
        return PrimeFieldElement(1, self.p)

    def from_int(self, n):
        return PrimeFieldElement(n, self.p)

    def promote(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.p != self.p:
                raise MixedFields(f"F_{x.p} element in F_{self.p}")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(x, self.p)
        if isinstance(x, Fraction) and x.denominator == 1:
            return PrimeFieldElement(x.numerator, self.p)
        raise MixedFields(f"cannot interpret {x!r} in F_{self.p}")

    def parse(self, text):
        m = _FP_LITERAL.fullmatch(text)
        if not m:
            raise BadScalar(f"bad prime-field literal {text!r}")
        if m.group(2) and int(m.group(2)) != self.p:
            raise BadScalar(
                f"literal {text!r} declares modulus {m.group(2)}, field is F_{self.p}"
            )
        try:
            value = int(m.group(1))
        except ValueError as exc:  # more digits than int() converts
            raise BadScalar(f"bad prime-field literal {text!r}: {exc}")
        return PrimeFieldElement(value, self.p)

    def format(self, x):
        return str(self.promote(x).value)

    def raw_columns(self, columns):
        """Raw coefficients over F_p are int residues, with scale 1.  An entry
        assigned after its container was built goes through ``promote``: an
        int is reduced mod p, anything else raises MixedFields."""
        try:
            return [[(k, v) for k, x in enumerate(col) if (v := x.value)]
                    for col in columns], 1
        except AttributeError:
            return self.raw_columns([[self.promote(x) for x in col] for col in columns])

    def from_raw(self, x, scale):
        return PrimeFieldElement(x, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class FunctionField(Field):
    """Q(q), rational functions in one indeterminate."""

    name = "Q(q)"

    def zero(self):
        return _RF_ZERO

    def one(self):
        return _RF_ONE

    def from_int(self, n):
        return RationalFunction.from_int(n)

    def promote(self, x):
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalFunction.from_fraction(Fraction(x))
        raise MixedFields(f"cannot interpret {x!r} in Q(q)")

    def parse(self, text):
        return parse_qq_scalar(text)

    def format(self, x):
        return format_qq_scalar(x)

    def __eq__(self, other):
        return isinstance(other, FunctionField)

    def __hash__(self):
        return hash("Q(q)")


QQ = RationalField()
QQ_Q = FunctionField()

_FIELD_TAGS = {"Q": lambda: QQ, "Q(q)": lambda: QQ_Q}
_FP_TAG = re.compile(r"Fp:(\d+)")


def field_from_tag(tag: str) -> Field:
    """Decode a field descriptor string: "Q", "Fp:<p>", "Q(q)"."""
    if not isinstance(tag, str):
        raise BadScalar(f"field tag must be a string, got {tag!r}")
    if tag in _FIELD_TAGS:
        return _FIELD_TAGS[tag]()
    m = _FP_TAG.fullmatch(tag)
    if m:
        try:
            return PrimeField(int(m.group(1)))
        except ValueError as exc:
            raise BadScalar(str(exc))
    raise BadScalar(f"unknown field tag {tag!r}")


def field_tag(field: Field) -> str:
    if isinstance(field, PrimeField):
        return f"Fp:{field.p}"
    return field.name


# ---------------------------------------------------------------------------
# the scalar-literal grammar shared by files and the CLI
#
#   "3/4"        rational
#   "-2"         integer
#   "5 mod 7"    prime-field residue
#   "q^2 - 1 / q"   in Q(q): a single "/" binds the whole numerator
#                   polynomial to the whole denominator polynomial
#   "(q^2 - 1)/(q + 1)"  parenthesized form
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+)\s*\*?\s*(?P<qpart1>q(?:\^(?P<exp1>\d+))?)?
          | (?P<qpart2>q(?:\^(?P<exp2>\d+))?)
        )\s*""",
    re.VERBOSE,
)


# Largest power of q a literal may name; the parser builds one coefficient
# per power up to the degree.
MAX_Q_EXPONENT = 10_000


def _parse_poly(text):
    """Parse an integer-coefficient polynomial in q -> coefficient tuple."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s:
        raise BadScalar(f"empty polynomial in {text!r}")
    coeffs = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise BadScalar(f"bad polynomial {text!r} near {s[pos:]!r}")
        sign = m.group("sign")
        if not first and sign == "":
            raise BadScalar(f"missing +/- between terms in {text!r}")
        try:
            if m.group("coeff") is not None:
                c = int(m.group("coeff"))
                if m.group("qpart1"):
                    k = int(m.group("exp1")) if m.group("exp1") else 1
                else:
                    k = 0
            else:
                c = 1
                k = int(m.group("exp2")) if m.group("exp2") else 1
        except ValueError as exc:  # more digits than int() converts
            raise BadScalar(f"bad polynomial {text!r}: {exc}")
        if k > MAX_Q_EXPONENT:
            raise BadScalar(f"exponent above {MAX_Q_EXPONENT} in {text!r}")
        coeffs[k] = coeffs.get(k, 0) + (-c if sign == "-" else c)
        pos = m.end()
        first = False
    deg = max(coeffs)
    return _trim(coeffs.get(i, 0) for i in range(deg + 1))


def parse_qq_scalar(text) -> RationalFunction:
    """Parse a Q(q) literal.  One unparenthesized "/" splits num from den."""
    s = text.strip()
    if s.count("/") > 1:
        raise BadScalar(f"more than one '/' in Q(q) literal {text!r}")
    if "/" in s:
        num_s, den_s = s.split("/")
        num = _parse_poly(num_s)
        den = _parse_poly(den_s)
        if not den:
            raise ZeroDenominator(f"zero denominator in {text!r}")
        return RationalFunction(num, den)
    return RationalFunction(_parse_poly(s))


def format_qq_scalar(x: RationalFunction) -> str:
    """Canonical string form with integer coefficients and one '/'.

    Prints q^k * N over D, a negative k moving to the denominator.  The
    stored form is already primitive with a positive leading coefficient
    of D, so the string round-trips to the identical value.
    """
    if not x.n:
        return "0"
    num_k, den_k = max(x.k, 0), max(-x.k, 0)
    num_s = _pformat(x.n, num_k)
    if x.d == (1,) and not den_k:
        return num_s
    den_s = _pformat(x.d, den_k)
    if sum(1 for c in x.n if c) > 1:
        num_s = f"({num_s})"
    if sum(1 for c in x.d if c) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


# ---------------------------------------------------------------------------
# the generic scalar operation surface
# ---------------------------------------------------------------------------

_SCALAR_FIELDS = {
    int: QQ,
    Fraction: QQ,
    RationalFunction: QQ_Q,
}


def same_field(what, *fields) -> Field:
    """The one field of the operands of an operation; MixedFields if they
    differ.

    Fields are compared where containers meet: in mat_mul, kron, the tensor
    products, and at every leaf the axiom engine reads.  An entry that is an
    int does not tell its field: a Q scalar may be an int, and F_p
    arithmetic accepts ints.
    """
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise MixedFields(f"{what} across fields")
    return first


def check_scalars(what, field, scalars):
    """MixedFields unless every scalar is one of field.

    A plain int is a scalar of every field, as every field's promote takes
    it, so only F_p elements, Fractions and rational functions are checked.
    """
    for c in scalars:
        t = type(c)
        if t is int:
            continue
        if t is PrimeFieldElement:
            if isinstance(field, PrimeField) and field.p == c.p:
                continue
        elif _SCALAR_FIELDS.get(t) == field:
            continue
        raise MixedFields(f"{what} across fields")


def divide(a, b):
    """a / b for two scalars of one field; the one way the package divides.

    Over Q an integral quotient comes back as an int and any other as a
    Fraction, never a float.  Raises DivisionByZero when b is zero.
    """
    if not b:
        raise DivisionByZero(f"{a!r} / 0")
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return canonical(a / b)
