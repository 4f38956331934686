"""Exact field arithmetic: Q, prime fields F_p, and the rational-function
field Q(q), behind one small field-descriptor interface.

Elements are plain immutable values:

* Q       -> fractions.Fraction
* F_p     -> PrimeFieldElement (residue + modulus)
* Q(q)    -> RationalFunction (reduced fraction of Fraction-coefficient
             polynomials, monic denominator)

All three support ``+ - * /`` via operator overloading, are falsy exactly
when zero, and are hashable.  A field descriptor (``QQ``, ``PrimeField(p)``,
``QQ_Q``) supplies zero/one, promotion from int, parsing and formatting;
containers (matrices, tensors) carry the descriptor, elements do not need
to be wrapped.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    BadScalar,
    DivisionByZero,
    MixedFields,
    ZeroDenominator,
)

# ---------------------------------------------------------------------------
# polynomials over Q, represented as tuples of Fraction, low degree first,
# no trailing zeros; the zero polynomial is the empty tuple.
# ---------------------------------------------------------------------------


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pconst(x) -> tuple:
    x = Fraction(x)
    return (x,) if x else ()


def padd(a, b):
    n = max(len(a), len(b))
    return _ptrim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def pneg(a):
    return tuple(-x for x in a)


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _ptrim(out)


def pscale(a, c):
    c = Fraction(c)
    if not c:
        return ()
    return tuple(x * c for x in a)


def pdivmod(a, b):
    """Polynomial division over Q.  Returns (quotient, remainder)."""
    if not b:
        raise ZeroDenominator("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        coeff = rem[i + len(b) - 1] / lead
        if coeff:
            quo[i] = coeff
            for j, y in enumerate(b):
                rem[i + j] -= coeff * y
    return _ptrim(quo), _ptrim(rem)


def pgcd(a, b):
    """Monic gcd over Q; gcd((), ()) = ()."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def pmonic(a):
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(x / lead for x in a)


def _pformat(a, var="q"):
    """Human form, highest degree first.  Used by RationalFunction.__str__."""
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
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
    """A reduced fraction of polynomials over Q with monic denominator.

    The canonical form is unique: two rational functions are equal as
    functions iff their (num, den) tuples coincide.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),), _normalized=False):
        if _normalized:
            self.num, self.den = num, den
            return
        num = _ptrim(Fraction(c) for c in num)
        den = _ptrim(Fraction(c) for c in den)
        if not den:
            raise ZeroDenominator("rational function with zero denominator")
        if not num:
            self.num, self.den = (), (Fraction(1),)
            return
        g = pgcd(num, den)
        if len(g) > 1:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = tuple(x / lead for x in num)
            den = tuple(x / lead for x in den)
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n):
        return RationalFunction(pconst(n))

    @staticmethod
    def from_fraction(f):
        return RationalFunction(pconst(f))

    @staticmethod
    def q_power(k):
        """q**k for any integer k (negative powers are fractions)."""
        if k >= 0:
            return RationalFunction((Fraction(0),) * k + (Fraction(1),))
        return RationalFunction(
            (Fraction(1),), (Fraction(0),) * (-k) + (Fraction(1),)
        )

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_fraction(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            padd(pmul(self.num, o.den), pmul(o.num, self.den)),
            pmul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(pneg(self.num), self.den, _normalized=True)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return _RF_ZERO
        return RationalFunction(pmul(self.num, o.num), pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise DivisionByZero("division by zero in Q(q)")
        return RationalFunction(pmul(self.num, o.den), pmul(self.den, o.num))

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
        base = self if k > 0 else _RF_ONE / self
        out = _RF_ONE
        for _ in range(abs(k)):
            out = out * base
        return out

    # -- comparisons / misc -------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"RationalFunction({self})"

    def __str__(self):
        return format_qq_scalar(self)


_RF_ZERO = RationalFunction((), _normalized=True)
_RF_ONE = RationalFunction((Fraction(1),), (Fraction(1),), _normalized=True)
RF_Q = RationalFunction.q_power(1)


def rf_normalize(num, den) -> RationalFunction:
    """gcd-reduce and make the denominator monic.

    Inputs are coefficient sequences (low degree first).  Idempotent and
    equality-deciding: equal functions get identical representations.
    """
    return RationalFunction(num, den)


def q_integer(n) -> RationalFunction:
    """[n]_q = (q^n - q^-n) / (q - q^-1) as an element of Q(q)."""
    qn = RationalFunction.q_power(n)
    qmn = RationalFunction.q_power(-n)
    return (qn - qmn) / (RF_Q - RationalFunction.q_power(-1))


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
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

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
    """Descriptor for one of the supported ground fields."""

    name = "?"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def promote(self, x):
        """Accept ints, Fractions, and the field's own elements."""
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class RationalField(Field):
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def promote(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise MixedFields(f"cannot interpret {x!r} in Q")

    def parse(self, text):
        try:
            return Fraction(text.replace(" ", ""))
        except (ValueError, ZeroDivisionError) as exc:
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
        self.p = p
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
        m = re.fullmatch(r"\s*(-?\d+)\s*(?:mod\s*(\d+)\s*)?", text)
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
        return str(x.value)

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


def field_from_tag(tag: str) -> Field:
    """Decode a field descriptor string: "Q", "Fp:<p>", "Q(q)"."""
    if not isinstance(tag, str):
        raise BadScalar(f"field tag must be a string, got {tag!r}")
    if tag in _FIELD_TAGS:
        return _FIELD_TAGS[tag]()
    m = re.fullmatch(r"Fp:(\d+)", tag)
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
        c = Fraction(-c if sign == "-" else c)
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
        pos = m.end()
        first = False
    deg = max(coeffs)
    return _ptrim(coeffs.get(i, Fraction(0)) for i in range(deg + 1))


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

    The in-memory canonical form has a monic denominator with rational
    coefficients; for printing, both polynomials are scaled by a common
    factor so every coefficient is an integer (the string round-trips to
    the identical canonical value).
    """
    num, den = x.num, x.den
    if not num:
        return "0"
    denoms = [c.denominator for c in num] + [c.denominator for c in den]
    lcm = 1
    for d in denoms:
        g = _gcd(lcm, d)
        lcm = lcm // g * d
    inum = tuple(c * lcm for c in num)
    iden = tuple(c * lcm for c in den)
    content = 0
    for c in list(inum) + list(iden):
        content = _gcd(content, abs(c.numerator))
    if content > 1:
        inum = tuple(c / content for c in inum)
        iden = tuple(c / content for c in iden)
    if iden == (Fraction(1),):
        return _pformat(inum)
    num_s = _pformat(inum)
    den_s = _pformat(iden)
    if len([c for c in inum if c]) > 1:
        num_s = f"({num_s})"
    if len([c for c in iden if c]) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def _gcd(a, b):
    a, b = abs(int(a)), abs(int(b))
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# the generic scalar operation surface
# ---------------------------------------------------------------------------

_SCALAR_FIELDS = {
    Fraction: QQ,
    RationalFunction: QQ_Q,
}


def field_of(x) -> Field:
    if isinstance(x, PrimeFieldElement):
        return PrimeField(x.p)
    try:
        return _SCALAR_FIELDS[type(x)]
    except KeyError:
        raise MixedFields(f"{x!r} is not a supported scalar")


def scalar_arith(a, b, op: str):
    """Exact field arithmetic on two scalars of the same field."""
    if field_of(a) != field_of(b):
        raise MixedFields(f"{a!r} and {b!r} live in different fields")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if not b:
            raise DivisionByZero(f"{a!r} / 0")
        return a / b
    raise ValueError(f"unknown op {op!r}")
