"""Symbolic U_q(sl2) in PBW normal form over Q(q), the twisted quantum
plane, the deformed action, and exact verification of the smash-product
multiplication formulas.

U_q(sl2) is generated by E, F, K, K^-1 with

    K K^-1 = 1 = K^-1 K,   K E = q^2 E K,   K F = q^-2 F K,
    E F - F E = (K - K^-1)/(q - q^-1),

and elements are kept in the F-K-E normal form: exponent triples
(a, b, c) with a, c >= 0 and b in Z stand for F^a K^b E^c.  Words are
normalized by a confluent rewriting engine, whose rules are the table
``_RULES``: an adjacent pair with a rule is exactly a violation of the
normal form.  An independent straightening recursion serves as the oracle.

The four twisting maps alpha, beta, psi, omega of the smash example are the
scalings E -> lambda E, F -> lambda^-1 F, K -> K, applied by ``uq_scale``
with lambda (or 1/lambda for an inverse) read off ``TwistParams``.  The
four product formulas of one grid point share their operands: alpha_A(a),
beta_A(beta_A^-1(a')), beta(G) and the quotients of the twist parameters
are computed once per ``verify_smash_formulas`` call.

PBW elements, quantum-plane elements and smash-product totals (keyed by
(plane monomial, PBW monomial)) are one sparse type: ``terms`` maps each
monomial of the support to its nonzero Q(q) coefficient.  The quantum plane
is infinite-dimensional, and its elements are finitely supported, so its
products are exact at every degree.
"""

from __future__ import annotations

from functools import partial

from .errors import ZeroParameter
from .exactnum import QQ_Q, RationalFunction, q_integer
from .report import CheckReport, Record

RF = RationalFunction
_ZERO = QQ_Q.zero()
_ONE = QQ_Q.one()
_Q = RF.q_power(1)
_QINV = RF.q_power(-1)
_EF_COEFF = _ONE / (_Q - _QINV)  # 1/(q - q^-1)

GENERATORS = ("E", "F", "K", "Kinv")


# ---------------------------------------------------------------------------
# sparse linear combinations
# ---------------------------------------------------------------------------


class _Combination:
    """A finitely supported Q(q)-linear combination of monomials: ``terms``
    maps each monomial of the support to its nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # the keys of a dict are distinct, so no two terms merge; ``_ZERO + c``
        # turns an int or Fraction coefficient into Q(q)
        self.terms = out = {}
        if terms:
            for m, c in terms.items():
                if c:
                    out[m] = _ZERO + c

    def add(self, mono, coeff):
        """self += coeff * mono, in place."""
        s = self.terms.get(mono, _ZERO) + coeff
        if s:
            self.terms[mono] = s
        elif mono in self.terms:
            del self.terms[mono]

    def __iadd__(self, other):
        for mono, coeff in other.terms.items():
            self.add(mono, coeff)
        return self

    def __add__(self, other):
        out = type(self)()
        out.terms = dict(self.terms)
        out += other
        return out

    def __sub__(self, other):
        return self + other.scale(-_ONE)

    def scale(self, coeff):
        out = type(self)()
        if coeff:
            out.terms = {m: c * coeff for m, c in self.terms.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        return sorted(self.terms.items())


def _tensor(x, y):
    """x (x) y, keyed by (monomial of x, monomial of y)."""
    out = _Combination()
    out.terms = {(m, u): c * d for m, c in x.terms.items() for u, d in y.terms.items()}
    return out


# ---------------------------------------------------------------------------
# PBW elements
# ---------------------------------------------------------------------------


class PBWElement(_Combination):
    """Finitely supported map from exponent triples (a, b, c) to Q(q)."""

    __slots__ = ()

    @staticmethod
    def monomial(a, b, c, coeff=_ONE):
        return PBWElement({(a, b, c): coeff})

    @staticmethod
    def one():
        return PBWElement.monomial(0, 0, 0)

    @staticmethod
    def generator(g):
        return PBWElement.monomial(*_GEN_TRIPLE[g])

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b, c), coeff in self.items():
            word = "".join(
                (["F"] * a)
                + ([f"K^{b}"] if b else [])
                + (["E"] * c)
            ) or "1"
            parts.append(f"({coeff})*{word}")
        return " + ".join(parts)


_GEN_TRIPLE = {"E": (0, 0, 1), "F": (1, 0, 0), "K": (0, 1, 0), "Kinv": (0, -1, 0)}


def _monomial_word(mono):
    a, b, c = mono
    word = ["F"] * a
    if b > 0:
        word += ["K"] * b
    elif b < 0:
        word += ["Kinv"] * (-b)
    word += ["E"] * c
    return tuple(word)


# ---------------------------------------------------------------------------
# word rewriting
# ---------------------------------------------------------------------------

# An adjacent pair out of F-K-E order, or K next to K^-1, and what replaces
# it, as (coefficient, word) terms.
_RULES = {
    ("K", "Kinv"): [(_ONE, ())],
    ("Kinv", "K"): [(_ONE, ())],
    ("E", "F"): [(_ONE, ("F", "E")), (_EF_COEFF, ("K",)), (-_EF_COEFF, ("Kinv",))],
    ("E", "K"): [(RF.q_power(-2), ("K", "E"))],
    ("E", "Kinv"): [(RF.q_power(2), ("Kinv", "E"))],
    ("K", "F"): [(RF.q_power(-2), ("F", "K"))],
    ("Kinv", "F"): [(RF.q_power(2), ("F", "Kinv"))],
}


def _find_violation(word, strategy):
    rng = range(len(word) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    return next((i for i in rng if word[i:i + 2] in _RULES), None)


def _letters(word):
    """The word as a tuple, after checking that each letter is a generator."""
    word = tuple(word)
    for g in word:
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r}")
    return word


def _word_to_monomial(word):
    a = sum(1 for g in word if g == "F")
    b = sum(1 for g in word if g == "K") - sum(1 for g in word if g == "Kinv")
    c = sum(1 for g in word if g == "E")
    return (a, b, c)


def _rewrite(word, strategy) -> PBWElement:
    """Rewrite a generator word into the F-K-E normal form by applying
    ``_RULES`` at the leftmost (or rightmost) violation until none is left."""
    pending = [(_ONE, tuple(word))]
    out = PBWElement()
    while pending:
        coeff, w = pending.pop()
        i = _find_violation(w, strategy)
        if i is None:
            out.add(_word_to_monomial(w), coeff)
            continue
        for c2, repl in _RULES[w[i:i + 2]]:
            pending.append((coeff * c2, w[:i] + repl + w[i + 2 :]))
    return out


# (strategy, monomial, generator) -> the normal form of the monomial's word
# with the generator appended (leftmost) or prepended (rightmost), as a tuple
# of (monomial, coefficient) pairs.  Shared by every call; its values are
# immutable, so no caller can change them.  ``uq_normalize`` folds a word
# through it one letter at a time, from the stored normal form in ``_WORDS``
# of the word one letter shorter.
_STEPS = {}

# strategy -> {word: its normal form as a tuple of (monomial, coefficient)
# pairs}.  One table per strategy: normal forms are unique, so a shared table
# would let the confluence check compare one computation with itself.
_WORDS = {"leftmost": {}, "rightmost": {}}


def _fold(terms, letters, strategy) -> PBWElement:
    """The normal form of sum(coeff * monomial) times each letter in turn,
    on the right for leftmost and on the left for rightmost, one ``_rewrite``
    step per (monomial, letter) pair, merging equal monomials after each."""
    right = strategy == "rightmost"
    for g in letters:
        out = {}
        for mono, coeff in terms.items():
            key = (strategy, mono, g)
            step = _STEPS.get(key)
            if step is None:
                w = _monomial_word(mono)
                step = _STEPS[key] = tuple(
                    _rewrite((g,) + w if right else w + (g,), strategy).terms.items())
            for m2, c2 in step:
                c = coeff * c2
                out[m2] = out[m2] + c if m2 in out else c
        terms = {m: c for m, c in out.items() if c}
    out = PBWElement()
    out.terms = dict(terms)
    return out


def uq_normalize(word, strategy="leftmost") -> PBWElement:
    """Rewrite a generator word into the F-K-E normal form.

    The result is independent of the reduction strategy (confluence is a
    tested invariant); words are lists/tuples over E, F, K, Kinv.  Leftmost
    reduces the word's prefixes, appending one letter at a time: every
    violation of a reduced prefix times a letter starts at the boundary, so
    this is the leftmost rewriting of the whole word.  Rightmost is the
    mirror image, prepending from the last letter.  Any other strategy, and
    any letter that is not a generator, raises ValueError.

    Every result is stored in the strategy's table for the life of the
    process, one entry per distinct word normalized, about 370 bytes each:
    all 21,845 words of length at most 7, under both strategies, hold 16 MB.
    When the word less its last letter (rightmost: its first letter) is
    stored, only that letter is folded onto its normal form, which is the
    intermediate value the whole fold would reach; otherwise the fold
    starts from 1.  Each strategy reads only its own table.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    word = _letters(word)
    right = strategy == "rightmost"
    table = _WORDS[strategy]
    known = table.get(word[1:] if right else word[:-1])
    if known is None:
        known, letters = (((0, 0, 0), _ONE),), word[::-1] if right else word
    else:
        letters = word[:1] if right else word[-1:]
    out = _fold(dict(known), letters, strategy)
    table[word] = tuple(out.terms.items())
    return out


def uq_multiply(x: PBWElement, y: PBWElement) -> PBWElement:
    """Bilinear extension of normalization on concatenated words: x, already
    in normal form, times the letters of each monomial of y."""
    out = PBWElement()
    for m2, c2 in y.terms.items():
        out += _fold(x.terms, _monomial_word(m2), "leftmost").scale(c2)
    return out


def _mul_gen_left(g, elem: PBWElement) -> PBWElement:
    """Left multiplication by one generator, by direct straightening.

    Independent of the rewriting engine: recursion on the F-exponent using
    E F = F E + (K - K^-1)/(q - q^-1) one step at a time.
    """
    out = PBWElement()
    for (a, b, c), coeff in elem.terms.items():
        if g == "F":
            out.add((a + 1, b, c), coeff)
        elif g == "K":
            out.add((a, b + 1, c), coeff * RF.q_power(-2 * a))
        elif g == "Kinv":
            out.add((a, b - 1, c), coeff * RF.q_power(2 * a))
        elif a == 0:  # E
            out.add((0, b, c + 1), coeff * RF.q_power(-2 * b))
        else:
            rest = PBWElement.monomial(a - 1, b, c)
            head = _mul_gen_left("F", _mul_gen_left("E", rest))
            head += (_mul_gen_left("K", rest) - _mul_gen_left("Kinv", rest)).scale(_EF_COEFF)
            out += head.scale(coeff)
    return out


def straighten_oracle(word) -> PBWElement:
    """Oracle normal form: fold generator left-multiplications."""
    out = PBWElement.one()
    for g in reversed(_letters(word)):
        out = _mul_gen_left(g, out)
    return out


# ---------------------------------------------------------------------------
# the U_q(sl2) bialgebra structure on generators
# ---------------------------------------------------------------------------

_COPRODUCT = {
    "K": [(_ONE, (0, 1, 0), (0, 1, 0))],
    "Kinv": [(_ONE, (0, -1, 0), (0, -1, 0))],
    "E": [(_ONE, (0, 0, 0), (0, 0, 1)), (_ONE, (0, 0, 1), (0, 1, 0))],
    "F": [(_ONE, (0, -1, 0), (1, 0, 0)), (_ONE, (1, 0, 0), (0, 0, 0))],
}


def uq_scale(t, h: PBWElement) -> PBWElement:
    """The algebra endomorphism E -> t E, F -> t^-1 F, K -> K at h, for t a
    nonzero element of Q(q): F^a K^b E^c scales by t^(c - a)."""
    return PBWElement({(a, b, c): coeff * t ** (c - a) for (a, b, c), coeff in h.terms.items()})


def uq_twist_endomorphism(t):
    """The scaling by t as the map h -> uq_scale(t, h), after checking that
    t is nonzero and that the scaling keeps the defining relations."""
    t = QQ_Q.promote(t)
    if not t:
        raise ZeroParameter("twisting scalar must be nonzero")
    scaling = partial(uq_scale, t)
    for x, y in (("K", "Kinv"), ("K", "E"), ("K", "F"), ("E", "F")):
        gx, gy = PBWElement.generator(x), PBWElement.generator(y)
        if scaling(uq_multiply(gx, gy)) != uq_multiply(scaling(gx), scaling(gy)):
            raise AssertionError(f"scaling breaks the ({x}, {y}) relation")
    return scaling


# ---------------------------------------------------------------------------
# the quantum plane
# ---------------------------------------------------------------------------


class QPElement(_Combination):
    """An element of k<x, y>/(yx - q xy), exact at every degree."""

    __slots__ = ()

    @staticmethod
    def monomial(m, n, coeff=_ONE):
        return QPElement({(m, n): coeff})

    @staticmethod
    def one():
        return QPElement.monomial(0, 0)

    def substitute(self, cx, cy) -> "QPElement":
        """The algebra map x -> cx * x, y -> cy * y."""
        return QPElement({(m, n): c * cx**m * cy**n for (m, n), c in self.terms.items()})

    def __mul__(self, other):
        """Classical quantum-plane product: y x = q x y."""
        res = QPElement()
        for (m, n), c1 in self.terms.items():
            for (r, s), c2 in other.terms.items():
                res.add((m + r, n + s), c1 * c2 * RF.q_power(n * r))
        return res

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*x^{m}y^{n}" for (m, n), c in self.items()
        )


# ---------------------------------------------------------------------------
# twist parameters and the deformed structures
# ---------------------------------------------------------------------------


class TwistParams(Record):
    """The nonzero scalars fixing the four bialgebra scalings and the
    quantum-plane rescaling."""

    def __init__(self, lambda1: RF, lambda2: RF, lambda3: RF, lambda4: RF, xi: RF):
        self.lambda1, self.lambda2, self.lambda3, self.lambda4 = lambda1, lambda2, lambda3, lambda4
        self.xi = xi

    @staticmethod
    def of(l1, l2, l3, l4, xi) -> "TwistParams":
        vals = [QQ_Q.promote(v) for v in (l1, l2, l3, l4, xi)]
        if not all(vals):
            raise ZeroParameter("all twisting scalars must be nonzero")
        return TwistParams(*vals)


def qp_alpha(P: QPElement, tp: TwistParams) -> QPElement:
    """alpha on the quantum plane: x -> xi x, y -> xi lambda1^-1 y."""
    return P.substitute(tp.xi, tp.xi / tp.lambda1)


def qp_beta(P: QPElement, tp: TwistParams) -> QPElement:
    return P.substitute(tp.xi, tp.xi / tp.lambda2)


def qp_beta_inv(P: QPElement, tp: TwistParams) -> QPElement:
    return P.substitute(_ONE / tp.xi, tp.lambda2 / tp.xi)


def qp_twisted_mul(P: QPElement, Q: QPElement, tp: TwistParams) -> QPElement:
    """The Yau-twisted product alpha(P) beta(Q)."""
    return qp_alpha(P, tp) * qp_beta(Q, tp)


# classical U_q(sl2)-action on the quantum plane


def classical_action(h: PBWElement, P: QPElement) -> QPElement:
    """(F^a K^b E^c) . x^m y^n one generator at a time, E first: each E
    gives [n]_q x^(m+1) y^(n-1), K^b gives q^(b(m-n)) and each F gives
    [m]_q x^(m-1) y^(n+1)."""
    out = QPElement()
    for (a, b, c), hc in h.terms.items():
        for (m, n), coeff in P.terms.items():
            coeff = coeff * hc
            for _ in range(c):
                coeff, m, n = coeff * q_integer(n), m + 1, n - 1
            coeff = coeff * RF.q_power(b * (m - n))
            for _ in range(a):
                coeff, m, n = coeff * q_integer(m), m - 1, n + 1
            out.add((m, n), coeff)
    return out


def twisted_action(h: PBWElement, P: QPElement, tp: TwistParams) -> QPElement:
    """h |> a = alpha(h) . beta_A(a), the module structure of the twist."""
    return classical_action(uq_scale(tp.lambda1, h), qp_beta(P, tp))


def qplane_action(gen, P: QPElement, tp: TwistParams) -> QPElement:
    """The displayed closed forms of the deformed action on monomials:

    E:      [n]_q xi^(m+n) lambda1 lambda2^-n x^(m+1) y^(n-1)
    F:      [m]_q xi^(m+n) lambda1^-1 lambda2^-n x^(m-1) y^(n+1)
    K^(+-1): P(q^(+-1) xi x, q^(-+1) xi lambda2^-1 y)
    """
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    out = QPElement()
    for (m, n), coeff in P.terms.items():
        scale = tp.xi ** (m + n) * tp.lambda2 ** (-n)
        if gen == "E":
            out.add((m + 1, n - 1), q_integer(n) * scale * tp.lambda1 * coeff)
        elif gen == "F":
            out.add((m - 1, n + 1), q_integer(m) * scale / tp.lambda1 * coeff)
        elif gen == "K":
            out.add((m, n), coeff * (_Q * tp.xi) ** m * (_QINV * tp.xi / tp.lambda2) ** n)
        else:  # Kinv
            out.add((m, n), coeff * (_QINV * tp.xi) ** m * (_Q * tp.xi / tp.lambda2) ** n)
    return out


# ---------------------------------------------------------------------------
# smash-product formula verification
# ---------------------------------------------------------------------------


def _twisted_coproduct(gen, tp: TwistParams):
    """Delta_(psi, omega)(gen) = (omega (x) psi) Delta(gen) as a list of
    (coefficient, left PBW monomial, right PBW monomial)."""
    out = []
    for coeff, left, right in _COPRODUCT[gen]:
        lscale = tp.lambda4 ** (left[2] - left[0])
        rscale = tp.lambda3 ** (right[2] - right[0])
        out.append((coeff * lscale * rscale, left, right))
    return out


def smash_multiply_left_generator(gen, m, n, r, s, G: PBWElement, tp: TwistParams):
    """(x^m y^n # gen)(x^r y^s # G) evaluated from the smash definition:

    a * (beta^-1 omega^-1 (h_(1)) |> beta_A^-1(a')) # psi^-1(h_(2)) . G

    with h_(1) (x) h_(2) the twisted coproduct, |> the twisted action, *
    the twisted plane product and . the twisted U_q product: each twisting
    map is a scaling, so beta^-1 omega^-1 scales by 1/(lambda2 lambda4),
    alpha psi^-1 by lambda1/lambda3 and beta by lambda2.
    """
    if gen not in _COPRODUCT:
        raise ValueError(f"unknown generator {gen!r}")
    return next(_smash_products((gen,), m, n, r, s, G, tp))


def _smash_products(gens, m, n, r, s, G: PBWElement, tp: TwistParams):
    """``smash_multiply_left_generator`` for each generator of gens in turn.

    What the generators share is computed once: alpha_A(a) with a = x^m y^n,
    beta_A(a') with a' = beta_A^-1(x^r y^s), so that h |> a' is the classical
    action of alpha(h) on it, beta(G), and the quotients of the twist
    parameters that the scalings and beta_A read.  No step mutates them.
    """
    xi, xi_l2 = tp.xi, tp.xi / tp.lambda2  # beta_A: x -> xi x, y -> xi/lambda2 y
    inv_l24, l13 = _ONE / (tp.lambda2 * tp.lambda4), tp.lambda1 / tp.lambda3
    alpha_a = qp_alpha(QPElement.monomial(m, n), tp)
    beta_aprime = qp_beta_inv(QPElement.monomial(r, s), tp).substitute(xi, xi_l2)
    bg = uq_scale(tp.lambda2, G)
    for gen in gens:
        total = _Combination()
        for coeff, left, right in _twisted_coproduct(gen, tp):
            u = uq_scale(inv_l24, PBWElement.monomial(*left))
            action = classical_action(uq_scale(tp.lambda1, u), beta_aprime)
            first = alpha_a * action.substitute(xi, xi_l2)
            second = uq_multiply(uq_scale(l13, PBWElement.monomial(*right)), bg)
            total += _tensor(first.scale(coeff), second)
        yield total


def smash_formula_rhs(gen, m, n, r, s, G: PBWElement, tp: TwistParams):
    """The displayed closed forms for the same products.

    The second tensor legs use the plain U_q(sl2) multiplication against
    beta(G), exactly as displayed.
    """
    bg = uq_scale(tp.lambda2, G)
    lam1, lam2, xi = tp.lambda1, tp.lambda2, tp.xi
    common = xi ** (m + n + r + s) * lam1 ** (-n) * lam2 ** (-s)
    total = _Combination()

    def add(c, i, j, g=None):
        """total += c x^i y^j (x) g beta(G), with g a generator or None for 1."""
        nonlocal total
        if c:
            second = bg if g is None else uq_multiply(PBWElement.generator(g), bg)
            total += _tensor(QPElement.monomial(i, j, c), second)

    if gen in ("K", "Kinv"):
        sign = 1 if gen == "K" else -1
        add(RF.q_power(sign * r - sign * s + n * r) * common, m + r, n + s, gen)
    elif gen == "E":
        add(RF.q_power(n * r) * common * lam1, m + r, n + s, "E")
        add(q_integer(s) * RF.q_power(n * (r + 1)) * common * lam1, m + r + 1, n + s - 1, "K")
    elif gen == "F":
        add(RF.q_power(s - r + n * r) * common / lam1, m + r, n + s, "F")
        add(q_integer(r) * RF.q_power(n * (r - 1)) * common / lam1, m + r - 1, n + s + 1)
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return total


def verify_smash_formulas(m, n, r, s, G: PBWElement, tp: TwistParams):
    """Compare the smash multiplication against the displayed closed forms
    for all four left generators; exact equality in Q(q)."""
    report = CheckReport()
    axioms = (
        ("K", "smash_formula_K_plus"),
        ("Kinv", "smash_formula_K_minus"),
        ("E", "smash_formula_E"),
        ("F", "smash_formula_F"),
    )
    products = _smash_products([gen for gen, _ in axioms], m, n, r, s, G, tp)
    for (gen, axiom), lhs in zip(axioms, products):
        rhs = smash_formula_rhs(gen, m, n, r, s, G, tp)
        if lhs == rhs:
            report.add(axiom, True)
        else:
            bad = (lhs - rhs).items()[0][0]  # the least key where they differ
            report.add(
                axiom,
                False,
                (
                    (m, n, r, s, bad),
                    lhs.terms.get(bad, _ZERO),
                    rhs.terms.get(bad, _ZERO),
                ),
            )
    return report
