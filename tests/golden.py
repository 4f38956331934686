"""The golden corpus: verdicts, witnesses and precondition failures of every
check on every fixture and on single-entry corruptions of it.

Each case calls one library function on fixed inputs and records what came
out, scalars formatted through ``field.format``:

- a check report: every entry as ``[axiom, passed, witness]``;
- a raised exception: its type, message, witness and attached report;
- a constructed value (a carried unit or counit).

What is a scalar is decided by its place in the record, never by its Python
type: a witness is (basis index, lhs, rhs) and only its index is kept as it
is, and a value is all scalars unless its encoder says otherwise.

Corruptions add one to a single entry of one structure tensor, map or
vector; the entries are drawn by a generator seeded from the case id, so the
corpus is the same on every run.  The data file is frozen; to see what the
code records now, write the cases to another file and compare the two:

    PYTHONPATH=src python tests/golden.py golden_now.json

The script refuses to overwrite ``tests/data/golden_corpus.json``, which
``tests/test_golden.py`` compares against.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import random
import sys
import zlib
from fractions import Fraction

from bihom import (
    QQ,
    QQ_Q,
    LeftModule,
    Matrix,
    PrimeField,
    SmashData,
    Tensor3,
    adjoint_rep,
    apply_pseudotwistor,
    canonical_pseudotwistor,
    check_antipode_general,
    check_antipode_properties,
    check_bihom_algebra,
    check_bihom_bialgebra,
    check_bihom_coalgebra,
    check_bihom_lie,
    check_comodule,
    check_left_module,
    check_module_bihom_algebra,
    check_pseudotwistor,
    check_representation,
    check_twisting_map,
    commutator_lie,
    dual_coalgebra,
    dual_module_algebra,
    endomorphism_algebra,
    example_family,
    flip_map,
    hopf_to_monoidal,
    lift_twisting_map,
    module_to_lie_rep,
    smash_comodule_structure,
    smash_twisting_map,
    tensor_product,
    twist_comodule,
    twist_left_module,
    twist_module_algebra,
    twisted_tensor_product,
    yau_twist,
    yau_twist_bialgebra,
    yau_twist_coalgebra,
    yau_twist_lie,
)
from bihom import fixtures as fx
from bihom.algebra_core import monomial_substitution, truncated_polynomial_algebra
from bihom.axioms import Term, images
from bihom.coalgebra import Comodule, regular_comodule
from bihom.io_cli import parse_structure
from bihom.linalg import mat_inverse
from bihom.twisting import helper_identity_witness, ttp_pseudotwistor

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "data", "golden_corpus.json")
FIXTURES = os.path.join(HERE, "..", "fixtures")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def scalars(field, x):
    """A scalar, or nested lists and tuples of scalars, through field.format."""
    if x is None:
        return None
    if isinstance(x, (tuple, list)):
        return [scalars(field, y) for y in x]
    return field.format(field.promote(x))


def fmt_witness(field, w):
    """A witness is (index, lhs, rhs), or (index, vector) for a solver: the
    basis index, of ints or labels, stays as it is and the rest are scalars.
    A witness that is a phrase stays a string."""
    if w is None or isinstance(w, str):
        return w
    index, *sides = w
    return [list(index), *(scalars(field, s) for s in sides)]


def fmt_structure(field, x):
    """A structure as its dataclass repr, with its unit and counit vectors
    through field.format."""
    parts = []
    for f in dataclasses.fields(x):
        if not f.repr:
            continue
        v = getattr(x, f.name)
        if f.name in ("unit", "counit") and v is not None:
            text = "[" + ", ".join(scalars(field, v)) + "]"
        else:
            text = repr(v)
        parts.append(f"{f.name}={text}")
    return f"{type(x).__name__}({', '.join(parts)})"


def fmt_value(field, x):
    """A returned value: a verdict or None as it is, a structure or a matrix
    by its repr, anything else as scalars."""
    if x is None or isinstance(x, bool):
        return x
    if dataclasses.is_dataclass(x):
        return fmt_structure(field, x)
    if isinstance(x, Matrix):
        return repr(x)
    return scalars(field, x)


def fmt_report(field, report):
    return [[e.axiom, e.passed, fmt_witness(field, e.witness)] for e in report.entries]


def record(case_id, fn, field, thunk, encode=fmt_value):
    """Run thunk and describe what it returned, through encode, or raised."""
    out = {"id": case_id, "fn": fn}
    try:
        value = thunk()
    except Exception as exc:  # every exception type is part of the record
        out["raises"] = type(exc).__name__
        out["message"] = str(exc)
        out["witness"] = fmt_witness(field, getattr(exc, "witness", None))
        rep = getattr(exc, "report", None)
        if rep is not None:
            out["report"] = fmt_report(field, rep)
        return out
    if hasattr(value, "entries"):
        out["report"] = fmt_report(field, value)
    else:
        out["value"] = encode(field, value)
    return out


# ---------------------------------------------------------------------------
# corruptions
# ---------------------------------------------------------------------------


def as_value(x):
    """x, with a map term read off as the matrix of its images; the corpus
    sweeps and records maps as matrices whichever way a structure holds them."""
    if isinstance(x, Term):
        return Matrix.from_columns(x.field, images(x))
    return x


def _positions(x):
    if isinstance(x, Matrix):
        return list(itertools.product(range(x.rows), range(x.cols)))
    if isinstance(x, Tensor3):
        return list(itertools.product(range(x.d1), range(x.d2), range(x.d3)))
    return [(i,) for i in range(len(x))]


def bumped(x, pos, field):
    """A copy of the matrix, tensor or vector x with entry pos raised by one."""
    one = field.one()
    if isinstance(x, Matrix):
        m = x.copy()
        i, j = pos
        m.e[i][j] = m.e[i][j] + one
        return m
    if isinstance(x, Tensor3):
        t = Tensor3(field, x.t)
        i, j, k = pos
        t.t[i][j][k] = t.t[i][j][k] + one
        return t
    v = list(x)
    v[pos[0]] = v[pos[0]] + one
    return v


def picks(key, x, k):
    """k entry positions of x, drawn by a generator seeded from key."""
    positions = _positions(x)
    if len(positions) <= k:
        return positions
    rng = random.Random(zlib.crc32(key.encode("utf-8")))
    return sorted(rng.sample(positions, k))


def _k(x, k):
    return k if isinstance(x, (Matrix, Tensor3)) else min(k, 2)


def sweep(out, fn_name, fn, field, name, args, targets, k=4, encode=fmt_value):
    """Record fn(*args) and fn on single-entry corruptions of args.

    targets names what to corrupt: (arg index, attribute) for a structure
    field, or (arg index, None) for an argument that is itself a matrix,
    tensor or vector.  encode turns a returned value into JSON.
    """
    out.append(record(f"{fn_name}:{name}", fn_name, field, lambda: fn(*args), encode))
    for idx, attr in targets:
        holder = args[idx]
        value = as_value(holder if attr is None else getattr(holder, attr))
        if value is None:
            continue
        label = f"{idx}" if attr is None else f"{idx}.{attr}"
        for pos in picks(f"{fn_name}:{name}:{label}", value, _k(value, k)):
            bad = bumped(value, pos, field)
            new = bad if attr is None else dataclasses.replace(holder, **{attr: bad})
            call = list(args)
            call[idx] = new
            case = f"{fn_name}:{name}:{label}{list(pos)}"
            out.append(record(case, fn_name, field, lambda call=call: fn(*call), encode))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def ident(n, field=QQ):
    return Matrix.identity(field, n)


def load_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return parse_structure(fh.read())[1]


def _endo():
    u = Matrix(QQ, [[1, 1], [0, 1]])
    v = Matrix(QQ, [[2, 1], [0, 2]])
    return endomorphism_algebra(u, v)


def _trunc():
    a = truncated_polynomial_algebra(QQ, 4)
    return yau_twist(a, monomial_substitution(QQ, 4, 1, 2), monomial_substitution(QQ, 4, 1, 3))


def _small_lift():
    """Two Yau-twisted 2-dimensional algebras and the lifted flip map."""
    a = truncated_polynomial_algebra(QQ, 2)
    b = fx.cyclic_group_bialgebra(2).algebra_part()
    alphaA = monomial_substitution(QQ, 2, 1, 2)
    betaA = monomial_substitution(QQ, 2, 1, 3)
    alphaB = ident(2)
    betaB = fx.cyclic_antipode(2)
    return a, b, alphaA, betaA, alphaB, betaB


def _kc4_smash_data():
    H = fx.cyclic_group_bialgebra(4)
    act = fx.cyclic_self_action(4, 3)
    g3 = fx.cyclic_power_map(4, 3)
    i4 = ident(4)
    H2, A2, act2 = twist_module_algebra(H, H.algebra_part(), act, g3, i4, i4, i4, g3, i4)
    return H, act, g3, H2, A2, act2


def _worked_pseudotwistor():
    from bihom import BiHomAlgebra

    a, b = Fraction(4, 3), Fraction(-2)
    D = BiHomAlgebra(field=QQ, dim=2,
                     mu=Tensor3(QQ, [[[1, 0], [1, 0]], [[0, 1], [0, 1]]]),
                     alpha=ident(2), beta=Matrix(QQ, [[1, 1], [0, 0]]))
    alpha2 = Matrix(QQ, [[1, a], [0, 1 - a]])
    beta2 = Matrix(QQ, [[1, b], [0, 1 - b]])
    return D, alpha2, beta2


# what check_twisting_map is swept over: R, both products, alpha_A and beta_B
TWISTING_TARGETS = [(2, "R"), (0, "mu"), (1, "mu"), (0, "alpha"), (1, "beta")]


def twisting_maps():
    """(name, A, B, R) of every twisting map the corpus checks."""
    H, act, g3, H2, A2, act2 = _kc4_smash_data()
    B = H2.algebra_part()
    a, b, alphaA, betaA, alphaB, betaB = _small_lift()
    at, bt = yau_twist(a, alphaA, betaA), yau_twist(b, alphaB, betaB)
    return [
        ("smash_0_-1_-1", A2, B, smash_twisting_map(SmashData(H=H2, A=A2, action=act2))),
        ("smash_1_0_2", A2, B, smash_twisting_map(SmashData(H=H2, A=A2, action=act2,
                                                           m=1, n=0, p=2))),
        ("flip_kc4", A2, B, flip_map(A2, B)),
        ("lifted", at, bt, lift_twisting_map(a, b, flip_map(a, b), alphaA, betaA, alphaB,
                                             betaB)),
    ]


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------


def _checks(out):
    F7 = PrimeField(7)
    fam1 = example_family(1, 3, 2)
    fam2 = example_family(2, Fraction(1, 2), 3)
    kc4 = fx.cyclic_group_bialgebra(4)
    kc4t = fx.kc4_twisted_bialgebra()
    sw, S, invol = fx.sweedler_hopf()
    f2 = fx.f2_restricted_line()
    f3 = fx.f3_truncated_line()
    idem = fx.idempotent_monoid_bialgebra()
    kc4_file = load_fixture("kc4_bialg.json")
    sw_file = load_fixture("sweedler.json")

    algebras = [
        ("fam1", fam1), ("fam2", fam2), ("endo", _endo()), ("trunc", _trunc()),
        ("family1.json", load_fixture("family1.json")), ("kc4", kc4.algebra_part()),
        ("kc4t", kc4t.algebra_part()), ("sweedler", sw.algebra_part()),
        ("kc3_F7", fx.cyclic_group_bialgebra(3, F7).algebra_part()),
        ("f3", f3.algebra_part()), ("kc2_Qq", fx.cyclic_group_bialgebra(2, QQ_Q).algebra_part()),
        ("fam1xfam2", tensor_product(fam1, fam2)),
    ]
    for name, a in algebras:
        sweep(out, "check_bihom_algebra", check_bihom_algebra, a.field, name, [a],
              [(0, "mu"), (0, "alpha"), (0, "beta"), (0, "unit")])

    selfmod_alg, selfmod_act = load_fixture("kc4_selfmod.json")
    modules = [
        ("fam1_regular", fam1, LeftModule(dim=2, action=fam1.mu, alphaM=fam1.alpha,
                                          betaM=fam1.beta)),
        ("kc4t_regular", kc4t.algebra_part(),
         LeftModule(dim=4, action=kc4t.mu, alphaM=kc4t.alpha, betaM=kc4t.beta)),
        ("kc4_selfmod", kc4_file.algebra_part(), selfmod_act.as_left_module(selfmod_alg)),
    ]
    for name, a, mod in modules:
        sweep(out, "check_left_module", check_left_module, a.field, name, [a, mod],
              [(1, "action"), (1, "alphaM"), (1, "betaM"), (0, "mu"), (0, "unit")])

    sl2 = fx.sl2_lie()
    lies = [("sl2", sl2), ("lie_fam1", commutator_lie(fam1)), ("lie_endo", commutator_lie(_endo()))]
    for name, L in lies:
        sweep(out, "check_bihom_lie", check_bihom_lie, L.field, name, [L],
              [(0, "bracket"), (0, "alpha"), (0, "beta")])

    fam1_mod = LeftModule(dim=2, action=fam1.mu, alphaM=fam1.alpha, betaM=fam1.beta)
    reps = [("sl2_adjoint", sl2, adjoint_rep(sl2)),
            ("fam1_module", commutator_lie(fam1), module_to_lie_rep(fam1, fam1_mod))]
    for name, L, rep in reps:
        sweep(out, "check_representation", check_representation, L.field, name, [L, rep],
              [(1, "rho"), (1, "alphaM"), (1, "betaM"), (0, "bracket"), (0, "alpha")], k=3)

    coalgebras = [
        ("dual_fam1", dual_coalgebra(fam1)), ("kc4", kc4.coalgebra_part()),
        ("kc4t", kc4t.coalgebra_part()), ("sweedler", sw.coalgebra_part()),
        ("f2", f2.coalgebra_part()),
        ("dual_kc3_F7", dual_coalgebra(fx.cyclic_group_bialgebra(3, F7).algebra_part())),
    ]
    for name, C in coalgebras:
        sweep(out, "check_bihom_coalgebra", check_bihom_coalgebra, C.field, name, [C],
              [(0, "delta"), (0, "psi"), (0, "omega"), (0, "counit")])

    comodules = [
        ("kc4t_regular", kc4t.coalgebra_part(), regular_comodule(kc4t.coalgebra_part())),
        ("sweedler_regular", sw.coalgebra_part(), regular_comodule(sw.coalgebra_part())),
        ("dual_fam1_regular", dual_coalgebra(fam1), regular_comodule(dual_coalgebra(fam1))),
    ]
    for name, C, M in comodules:
        sweep(out, "check_comodule", check_comodule, C.field, name, [C, M],
              [(1, "rho"), (1, "psiM"), (1, "omegaM"), (0, "delta"), (0, "psi"),
               (0, "counit")])

    hm_sw, _ = hopf_to_monoidal(sw, S, invol, ident(4))
    hm_sw_beta, _ = hopf_to_monoidal(sw, S, ident(4), invol)
    bialgebras = [
        ("kc4", kc4), ("kc4t", kc4t), ("sweedler", sw), ("kc4_bialg.json", kc4_file),
        ("sweedler.json", sw_file), ("f2", f2), ("f3", f3), ("idempotent", idem),
        ("sweedler_monoidal", hm_sw), ("sweedler_monoidal_beta", hm_sw_beta),
    ]
    for name, H in bialgebras:
        sweep(out, "check_bihom_bialgebra", check_bihom_bialgebra, H.field, name, [H],
              [(0, "mu"), (0, "delta"), (0, "alpha"), (0, "beta"), (0, "psi"),
               (0, "omega"), (0, "unit"), (0, "counit")], k=3)

    dual_alg, dual_act = dual_module_algebra(kc4t)
    module_algebras = [
        ("kc4_self", kc4, kc4.algebra_part(), fx.cyclic_self_action(4, 3)),
        ("kc4_selfmod.json", kc4_file, selfmod_alg, selfmod_act),
        ("kc4t_dual", kc4t, dual_alg, dual_act),
    ]
    for name, H, A, act in module_algebras:
        sweep(out, "check_module_bihom_algebra", check_module_bihom_algebra, H.field, name,
              [H, A, act], [(2, "action"), (1, "mu"), (1, "alpha"), (1, "beta"),
                            (1, "unit"), (0, "delta")], k=3)

    antipodes = [
        ("sweedler", sw, S), ("kc4", kc4, fx.cyclic_antipode(4)),
        ("sweedler.json", sw_file, load_fixture("sweedler_antipode.json")),
    ]
    for name, H, s in antipodes:
        sweep(out, "check_antipode_general", check_antipode_general, H.field, name, [H, s],
              [(1, None), (0, "mu"), (0, "delta"), (0, "alpha"), (0, "beta"), (0, "psi"),
               (0, "omega"), (0, "unit"), (0, "counit")], k=3)

    hm_kc4, s_kc4 = hopf_to_monoidal(kc4, fx.cyclic_antipode(4), fx.cyclic_power_map(4, 3),
                                     ident(4))
    monoidal = [("sweedler_invol", hm_sw, S), ("kc4_g3", hm_kc4, s_kc4)]
    for name, H, s in monoidal:
        sweep(out, "check_antipode_properties", check_antipode_properties, H.field, name,
              [H, s], [(1, None), (0, "mu"), (0, "delta"), (0, "alpha"), (0, "beta"),
                       (0, "unit"), (0, "counit")], k=3)

    D, alpha2, beta2 = _worked_pseudotwistor()
    P = canonical_pseudotwistor(D, alpha2, beta2)
    Pf = canonical_pseudotwistor(fam1, fam1.alpha, fam1.beta)
    a, b, alphaA, betaA, alphaB, betaB = _small_lift()
    at, bt = yau_twist(a, alphaA, betaA), yau_twist(b, alphaB, betaB)
    u = lift_twisting_map(a, b, flip_map(a, b), alphaA, betaA, alphaB, betaB)
    pseudo = [("worked", D, P), ("fam1", fam1, Pf)]
    for name, alg, p in pseudo:
        sweep(out, "check_pseudotwistor", check_pseudotwistor, QQ, name, [alg, p],
              [(1, "T"), (1, "T1tilde"), (1, "T2tilde"), (1, "alpha2"), (1, "beta2"),
               (0, "mu"), (0, "alpha"), (0, "beta")], k=4)
    sweep(out, "check_pseudotwistor", check_pseudotwistor, QQ, "ttp",
          [tensor_product(at, bt), ttp_pseudotwistor(at, bt, u)],
          [(1, "T"), (1, "T1tilde"), (1, "T2tilde"), (0, "mu")], k=2)

    twisting = twisting_maps()
    for name, A, Bb, tw in twisting:
        sweep(out, "check_twisting_map", check_twisting_map, QQ, name, [A, Bb, tw],
              TWISTING_TARGETS, k=4)
    for name, A, Bb, tw in twisting:
        sweep(out, "helper_identity_witness", helper_identity_witness, QQ, name,
              [A, Bb, tw], [(2, "R")], k=4, encode=fmt_witness)

    H, act, g3, H2, A2, act2 = _kc4_smash_data()
    base = SmashData(H=H2, A=A2, action=act2)
    out.append(record("smash_comodule_structure:kc4", "smash_comodule_structure", QQ,
                      lambda: smash_comodule_structure(base, ident(4), ident(4))[2]))
    dual_data = SmashData(H=kc4t, A=dual_alg, action=dual_act)
    psiA = mat_inverse(kc4t.psi).transpose()
    omegaA = mat_inverse(kc4t.omega).transpose()
    out.append(record("smash_comodule_structure:dual", "smash_comodule_structure", QQ,
                      lambda: smash_comodule_structure(dual_data, psiA, omegaA)[2]))


def _preconditions(out):
    fam1 = example_family(1, 3, 2)
    kc4 = fx.cyclic_group_bialgebra(4)
    g3 = fx.cyclic_power_map(4, 3)
    i4 = ident(4)
    sw, S, invol = fx.sweedler_hopf()

    sweep(out, "yau_twist", yau_twist, QQ, "fam1", [fam1, fam1.alpha, fam1.beta],
          [(1, None), (2, None)], k=4)
    sweep(out, "yau_twist", yau_twist, QQ, "trunc",
          [truncated_polynomial_algebra(QQ, 3), monomial_substitution(QQ, 3, 1, 2),
           monomial_substitution(QQ, 3, 2)], [(1, None), (2, None)], k=4)

    sl2 = fx.sl2_lie()
    t = fx.sl2_scaling(2)
    sweep(out, "yau_twist_lie", yau_twist_lie, QQ, "sl2", [sl2, t, ident(3)],
          [(1, None), (2, None)], k=4)

    def twist_counit(C, psi2, omega2):
        return yau_twist_coalgebra(C, psi2, omega2).counit

    sweep(out, "yau_twist_coalgebra", twist_counit, QQ, "kc4",
          [kc4.coalgebra_part(), g3, i4], [(1, None), (2, None)], k=4)

    out.append(record("endomorphism_algebra:noncommuting", "endomorphism_algebra", QQ,
                      lambda: endomorphism_algebra(Matrix(QQ, [[1, 1], [0, 1]]),
                                                   Matrix(QQ, [[1, 0], [1, 1]]))))

    def comodule_rho(C, psi2, omega2, M):
        return twist_comodule(C, psi2, omega2, M)[1].rho.t

    C4 = kc4.coalgebra_part()
    M4 = Comodule(dim=4, rho=C4.delta, psiM=g3, omegaM=i4)
    sweep(out, "twist_comodule", comodule_rho, QQ, "kc4_regular", [C4, g3, i4, M4],
          [(3, "rho"), (3, "psiM"), (3, "omegaM"), (1, None), (2, None)], k=3)

    def twisted_bialgebra(H, *maps):
        return yau_twist_bialgebra(H, *maps).counit

    sweep(out, "yau_twist_bialgebra", twisted_bialgebra, QQ, "kc4", [kc4, g3, i4, i4, i4],
          [(1, None), (2, None), (3, None), (4, None)], k=3)

    def left_module_action(a, mod, alpha2, beta2):
        return twist_left_module(a, mod, alpha2, beta2)[1].action.t

    e = endomorphism_algebra(ident(2), ident(2))
    u = Matrix.diagonal(QQ, [1, 2])
    uinv = mat_inverse(u)
    conj = Matrix.zero(QQ, 4, 4)
    for k, l, r, c in itertools.product(range(2), repeat=4):
        conj.e[r * 2 + c][k * 2 + l] = u.e[r][k] * uinv.e[l][c]
    mod = LeftModule(dim=4, action=e.mu, alphaM=conj, betaM=i4)
    sweep(out, "twist_left_module", left_module_action, QQ, "matrix_conj",
          [e, mod, conj, i4], [(1, "action"), (1, "alphaM"), (1, "betaM"), (2, None),
                               (3, None), (0, "mu")], k=3)

    def module_algebra_action(*args):
        return twist_module_algebra(*args)[2].action.t

    act = fx.cyclic_self_action(4, 3)
    sweep(out, "twist_module_algebra", module_algebra_action, QQ, "kc4_self",
          [kc4, kc4.algebra_part(), act, g3, i4, i4, i4, g3, i4],
          [(2, "action"), (0, "delta"), (1, "mu"), (3, None), (4, None), (5, None),
           (6, None), (7, None), (8, None)], k=3)

    def monoidal_counit(H, s, alpha, beta):
        return hopf_to_monoidal(H, s, alpha, beta)[0].counit

    sweep(out, "hopf_to_monoidal", monoidal_counit, QQ, "sweedler", [sw, S, invol, ident(4)],
          [(2, None), (3, None), (0, "unit"), (0, "counit")], k=4)
    out.append(record("hopf_to_monoidal:kc4_g2", "hopf_to_monoidal", QQ,
                      lambda: hopf_to_monoidal(kc4, fx.cyclic_antipode(4),
                                               fx.cyclic_power_map(4, 2), i4)))
    out.append(record("hopf_to_monoidal:no_unit", "hopf_to_monoidal", QQ,
                      lambda: hopf_to_monoidal(dataclasses.replace(kc4, unit=None),
                                               fx.cyclic_antipode(4), i4, i4)))

    D, alpha2, beta2 = _worked_pseudotwistor()
    sweep(out, "canonical_pseudotwistor", lambda *a: as_value(canonical_pseudotwistor(*a).T), QQ,
          "worked", [D, alpha2, beta2], [(1, None), (2, None)], k=4)
    sweep(out, "canonical_pseudotwistor", lambda *a: as_value(canonical_pseudotwistor(*a).T), QQ,
          "fam1", [fam1, fam1.alpha, fam1.beta], [(1, None), (2, None)], k=4)

    def applied(Dd, P):
        out_alg = apply_pseudotwistor(Dd, P)
        return [out_alg.mu.t, out_alg.unit]

    P = canonical_pseudotwistor(fam1, fam1.alpha, fam1.beta)
    sweep(out, "apply_pseudotwistor", applied, QQ, "fam1", [fam1, P],
          [(1, "T"), (1, "T1tilde"), (0, "unit")], k=3)

    H, act, g3_, H2, A2, act2 = _kc4_smash_data()
    B = H2.algebra_part()
    tw = smash_twisting_map(SmashData(H=H2, A=A2, action=act2))

    def ttp(A, Bb, twm):
        alg = twisted_tensor_product(A, Bb, twm)
        return alg.unit

    sweep(out, "twisted_tensor_product", ttp, QQ, "kc4_smash", [A2, B, tw], [(2, "R")], k=3)

    a, b, alphaA, betaA, alphaB, betaB = _small_lift()
    sweep(out, "lift_twisting_map", lambda *x: lift_twisting_map(*x).R, QQ, "flip",
          [a, b, flip_map(a, b), alphaA, betaA, alphaB, betaB],
          [(2, "R"), (3, None), (4, None), (5, None), (6, None), (0, "mu")], k=4)
    out.append(record("lift_twisting_map:singular", "lift_twisting_map", QQ,
                      lambda: lift_twisting_map(a, b, flip_map(a, b), alphaA,
                                                monomial_substitution(QQ, 2, 2), alphaB,
                                                betaB)))

    base = SmashData(H=H2, A=A2, action=act2)
    sweep(out, "smash_comodule_structure",
          lambda data, p, o: smash_comodule_structure(data, p, o)[2], QQ, "kc4",
          [base, i4, i4], [(1, None), (2, None)], k=4)
    out.append(record("smash_validate:kc4", "smash_validate", QQ, base.validate))
    bad_act = dataclasses.replace(act2, action=bumped(act2.action, (1, 1, 2), QQ))
    out.append(record("smash_validate:kc4:action", "smash_validate", QQ,
                      lambda: SmashData(H=H2, A=A2, action=bad_act).validate()))

    fam1_mod = LeftModule(dim=2, action=fam1.mu, alphaM=fam1.alpha, betaM=fam1.beta)
    sweep(out, "module_to_lie_rep", lambda a_, m_: module_to_lie_rep(a_, m_).rho.t, QQ,
          "fam1", [fam1, fam1_mod], [(1, "action"), (1, "betaM")], k=3)

    kc4t = fx.kc4_twisted_bialgebra()
    sweep(out, "dual_module_algebra", lambda H_: dual_module_algebra(H_)[0].unit, QQ,
          "kc4t", [kc4t], [(0, "counit"), (0, "alpha"), (0, "beta")], k=3)


@functools.lru_cache(maxsize=None)
def build():
    """Every case, in a fixed order, as JSON-ready records."""
    out = []
    _checks(out)
    _preconditions(out)
    return out


def dump(records):
    return json.dumps({"cases": records}, indent=0, sort_keys=True) + "\n"


def write_corpus(argv, corpus, records, dump=dump):
    """Write dump(records) to the one path in argv, never over the frozen
    corpus."""
    if len(argv) != 1:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} OUT.json")
    path = argv[0]
    if os.path.abspath(path) == os.path.abspath(corpus) or (
            os.path.exists(path) and os.path.samefile(path, corpus)):
        sys.exit(f"refusing to overwrite the frozen corpus {corpus}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump(records))
    print(f"wrote {len(records)} cases to {path}")


if __name__ == "__main__":
    write_corpus(sys.argv[1:], CORPUS, build())
