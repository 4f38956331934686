"""The three workloads: seeded inputs, timed items and their known answers.

An item is one call that yields one verdict.  ``Item.run`` is the timed part
and only calls bihom; ``Item.check`` runs after the pass and compares the
outcome with the known answer, returning a list of disagreements.  Each item
records where its known answer comes from: ``"oracle"`` (recomputed by
oracle.py without bihom) or ``"theorem"`` (an input from the acceptance
criteria, PASS by the paper's theorems).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs
import oracle

WHY = {
    "uqsl2_symbolic": "criterion 10 over Q(q), cut to fit a run: smash formulas, twisted "
                      "actions and PBW confluence; time is Q(q) normalization and rewriting, "
                      "linalg and io_cli idle",
    "twist_dense": "criteria 8 and 9 over Q: pseudotwistors, 125 R_{m,n,p}, smash, "
                   "comodule and H*#H; time is dense mat_mul(kron(...)) over Fraction",
    "cli_files": "io_cli.main in-process on fixtures, constructions and seeded Q/F_7 "
                 "tensor powers, a share corrupted: parse/format, early-exit checks, "
                 "writes",
}


@dataclass
class Item:
    name: str
    source: str  # "oracle" or "theorem"
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Plan:
    items: list
    digest: str


def _report_ok(axioms=None):
    def check(report):
        errs = []
        if not report.ok:
            errs.append("expected PASS, got " + ", ".join(e.axiom for e in report.failures()))
        if axioms is not None and report.axiom_ids() != list(axioms):
            errs.append(f"axioms {report.axiom_ids()} != {list(axioms)}")
        return errs
    return check


def _is_true(outcome):
    return [] if outcome is True else [f"expected True, got {outcome!r}"]


# ---------------------------------------------------------------------------
# uqsl2_symbolic
# ---------------------------------------------------------------------------

SMASH_AXIOMS = ("smash_formula_K_plus", "smash_formula_K_minus", "smash_formula_E",
                "smash_formula_F")


def _twist_params(rng):
    return [inputs.small_fraction(rng, top=5, den=2) for _ in range(5)]


# Words of length CONFLUENCE_FULL or less are all checked.  Of the 4**6 words
# of length 6 a pass checks 256: each 4-letter prefix once, with a seeded
# 2-letter suffix.  All 4096 would take most of a run for a single pass.
CONFLUENCE_FULL = 5
UQ_LETTERS = ("E", "F", "K", "Kinv")


def _confluence_words(rng):
    words = {n: list(itertools.product(UQ_LETTERS, repeat=n))
             for n in range(CONFLUENCE_FULL + 1)}
    words[CONFLUENCE_FULL + 1] = [
        prefix + (rng.choice(UQ_LETTERS), rng.choice(UQ_LETTERS))
        for prefix in itertools.product(UQ_LETTERS, repeat=CONFLUENCE_FULL - 1)]
    return words


def uqsl2_symbolic(seed, digest):
    from bihom import qexamples as qx

    rng = random.Random(seed)
    gens = {"1": qx.PBWElement.one()}
    gens.update({g: qx.PBWElement.generator(g) for g in ("E", "F", "K")})
    items = []
    # two of the four generators per grid point, drawn by the seed, so that
    # a run has time for several passes
    for m, n, r, s in itertools.product(range(3), repeat=4):
        picked = sorted(rng.sample(sorted(gens), 2))
        digest.add(f"smash {m}{n}{r}{s} generators", picked)
        for gname in picked:
            G = gens[gname]
            params = _twist_params(rng)
            digest.add(f"smash {m}{n}{r}{s}{gname}", params)
            tp = qx.TwistParams.of(*params)
            items.append(Item(
                f"smash_formulas[{m},{n},{r},{s},{gname}]", "theorem",
                lambda m=m, n=n, r=r, s=s, G=G, tp=tp: qx.verify_smash_formulas(m, n, r, s, G, tp),
                _report_ok(SMASH_AXIOMS)))
    for m, n in itertools.product(range(3), repeat=2):
        for g in ("E", "F", "K", "Kinv"):
            params = _twist_params(rng)
            digest.add(f"action {m}{n}{g}", params)
            tp = qx.TwistParams.of(*params)
            P = qx.QPElement.monomial(m, n)
            h = qx.PBWElement.generator(g)
            items.append(Item(
                f"action[{g},{m},{n}]", "theorem",
                lambda g=g, P=P, h=h, tp=tp: (qx.qplane_action(g, P, tp)
                                              == qx.twisted_action(h, P, tp)),
                _is_true))

    def confluence(words):
        return [w for w in words
                if qx.uq_normalize(w, "leftmost") != qx.uq_normalize(w, "rightmost")]

    for length, words in _confluence_words(rng).items():
        digest.add(f"confluence {length}", words)
        items.append(Item(f"confluence[{length}]", "theorem",
                          lambda words=words: confluence(words),
                          lambda bad: [f"not confluent on {bad[:3]}"] if bad else []))
    return items


# ---------------------------------------------------------------------------
# twist_dense
# ---------------------------------------------------------------------------

# Fixed mix of kinds, dimensions and sparsity patterns, so a seed changes
# values, not the amount of work: (kind, dim, conjugate to a random basis,
# alpha2 choice, beta2 choice, power of the endomorphism in alpha, in beta)
RANDOM_ALGEBRAS = [
    (kind, dim, idx % 2 == 1, idx % 3, idx % 2, (idx // 2) % 3, (idx // 3) % 3)
    for idx, (kind, dim) in enumerate(
        [("poly", 2), ("poly", 3), ("poly", 4), ("group", 2), ("group", 3), ("group", 4),
         ("diag", 2), ("diag", 3), ("diag", 4), ("mat", 4)] * 3)
]


def _to_bihom(field, alg):
    from bihom import BiHomAlgebra, Matrix, Tensor3

    return BiHomAlgebra(field=field, dim=len(alg["mu"]), mu=Tensor3(field, alg["mu"]),
                        alpha=Matrix(field, alg["alpha"]), beta=Matrix(field, alg["beta"]),
                        unit=None if alg.get("unit") is None
                        else [field.promote(x) for x in alg["unit"]])


def _matrix_rows(m):
    return [list(r) for r in m.e]


def _tensor_lists(t):
    return [[list(col) for col in plane] for plane in t.t]


def twist_dense(seed, digest):
    # bihom functions are looked up at call time, so a traced run sees the
    # tracer's wrappers
    import bihom
    from bihom import QQ, Matrix, SmashData
    from bihom import fixtures as fx

    rng = random.Random(seed)
    ident = lambda d: Matrix.identity(QQ, d)  # noqa: E731
    items = []

    # the worked two-dimensional pseudotwistor table
    a, b = Fraction(4, 3), Fraction(-2)
    worked = {"mu": [[[1, 0], [1, 0]], [[0, 1], [0, 1]]], "alpha": [[1, 0], [0, 1]],
              "beta": [[1, 1], [0, 0]], "unit": None}
    alpha2, beta2 = [[1, a], [0, 1 - a]], [[1, b], [0, 1 - b]]
    expected = {"mu": [[[1, 0], [1, 0]], [[a, 1 - a], [a, 1 - a]]],
                "alpha": [[1, a], [0, 1 - a]], "beta": [[1, 1], [0, 0]]}
    cases = [("worked", worked, alpha2, beta2, expected)]
    for idx, (kind, dim, conj, a_choice, b_choice, pa, pb) in enumerate(RANDOM_ALGEBRAS):
        alg = inputs.random_bihom_algebra(rng, kind, dim, conj, pa, pb)
        a2 = [inputs.identity(dim), alg["alpha"],
              oracle.matmul(inputs.Q, alg["alpha"], alg["alpha"])][a_choice]
        b2 = [inputs.identity(dim), alg["beta"]][b_choice]
        cases.append((f"random{idx}", alg, a2, b2,
                      oracle.yau_twist(inputs.Q, alg, a2, b2)))
    for name, alg, a2, b2, exp in cases:
        digest.add(name, {"alg": alg, "alpha2": a2, "beta2": b2})
        D = _to_bihom(QQ, alg)
        A2, B2 = Matrix(QQ, a2), Matrix(QQ, b2)
        holder = {}

        def check_p(D=D, A2=A2, B2=B2, holder=holder):
            holder["P"] = P = bihom.canonical_pseudotwistor(D, A2, B2)
            return bihom.check_pseudotwistor(D, P)

        def apply_p(D=D, A2=A2, B2=B2, holder=holder):
            holder["out"] = out = bihom.apply_pseudotwistor(D, holder["P"])
            tw = bihom.yau_twist(D, A2, B2)
            return out, (out.mu == tw.mu and out.alpha == tw.alpha and out.beta == tw.beta)

        def check_applied(out, exp=exp):
            applied, same = out
            got = {"mu": _tensor_lists(applied.mu), "alpha": _matrix_rows(applied.alpha),
                   "beta": _matrix_rows(applied.beta)}
            errs = [f"apply_pseudotwistor differs from the oracle twist in {k}"
                    for k in oracle.mismatches(exp, got)]
            return errs + ([] if same else ["apply_pseudotwistor != yau_twist"])

        items.append(Item(f"pseudotwistor[{name}]", "theorem", check_p, _report_ok()))
        items.append(Item(f"apply[{name}]", "oracle", apply_p, check_applied))
        if name != "worked":
            items.append(Item(f"recheck[{name}]", "theorem",
                              lambda holder=holder: bihom.check_bihom_algebra(holder["out"]),
                              _report_ok()))

    # criterion 9 on kC4: every R_{m,n,p}, smash, comodule and H* # H
    H = fx.cyclic_group_bialgebra(4)
    act = fx.cyclic_self_action(4, 3)
    g3 = fx.cyclic_power_map(4, 3)
    H2, A2, act2 = bihom.twist_module_algebra(H, H.algebra_part(), act, g3, ident(4), ident(4),
                                              ident(4), g3, ident(4))
    B = H2.algebra_part()
    base = SmashData(H=H2, A=A2, action=act2)
    base.validate()
    triples = list(itertools.product((-2, -1, 0, 1, 2), repeat=3))
    rng.shuffle(triples)
    digest.add("mnp order", triples)
    for m, n, p in triples:
        data = SmashData(H=H2, A=A2, action=act2, m=m, n=n, p=p, _validated=True)
        items.append(Item(
            f"twisting_map[{m},{n},{p}]", "theorem",
            lambda data=data: bihom.check_twisting_map(A2, B, bihom.smash_twisting_map(data)),
            _report_ok()))
    state = {}

    def smash():
        state["smash"] = s = bihom.smash_product(base)
        return bihom.check_bihom_algebra(s)

    def coincidence():
        classical = bihom.smash_product(SmashData(H=H, A=H.algebra_part(), action=act))
        lhs = bihom.yau_twist(classical, bihom.linalg.kron(g3, g3),
                               bihom.linalg.kron(ident(4), ident(4)))
        s = state["smash"]
        return lhs.mu == s.mu and lhs.alpha == s.alpha and lhs.beta == s.beta

    Ht = fx.kc4_twisted_bialgebra()

    def dual():
        state["dual"] = bihom.dual_module_algebra(Ht)
        return bihom.check_bihom_algebra(state["dual"][0])

    def dual_module():
        return bihom.check_module_bihom_algebra(Ht, *state["dual"])

    def hh():
        dual_data = SmashData(H=Ht, A=state["dual"][0], action=state["dual"][1])
        state["dual_data"] = dual_data
        return bihom.check_bihom_algebra(bihom.smash_product(dual_data))

    def hh_comodule():
        psiA = bihom.mat_inverse(Ht.psi).transpose()
        omegaA = bihom.mat_inverse(Ht.omega).transpose()
        return bihom.smash_comodule_structure(state["dual_data"], psiA, omegaA)[2]

    items += [
        Item("smash_product", "theorem", smash, _report_ok()),
        Item("smash_as_yau_twist", "theorem", coincidence, _is_true),
        Item("smash_comodule", "theorem",
             lambda: bihom.smash_comodule_structure(base, ident(4), ident(4))[2], _report_ok()),
        Item("dual_module_algebra", "theorem", dual, _report_ok()),
        Item("dual_module_axioms", "theorem", dual_module, _report_ok()),
        Item("h_star_smash_h", "theorem", hh, _report_ok()),
        Item("h_star_smash_h_comodule", "theorem", hh_comodule, _report_ok()),
    ]
    return items


# ---------------------------------------------------------------------------
# cli_files
# ---------------------------------------------------------------------------

# (group orders, field, files, corrupted files); the dimension is the
# product of the orders.  Only the small strata carry corruptions: where an
# early exit lands would otherwise swing the cost of a dim-16 or dim-32 check
# and, with it, the pass time and item_p90_ms.
TENSOR_POWERS = (
    ((4, 2), "Q", 18, 5), ((4, 2), "Fp:7", 18, 5),
    ((3, 3), "Q", 18, 5), ((3, 3), "Fp:7", 18, 5),
    ((4, 4), "Q", 3, 0), ((4, 4), "Fp:7", 3, 0),
    ((4, 2, 2), "Q", 3, 0), ((4, 2, 2), "Fp:7", 3, 0),
    ((4, 4, 2), "Q", 1, 0), ((4, 4, 2), "Fp:7", 1, 0),
)
FIXTURE_CHECKS = (("family1.json",), ("kc4_bialg.json",), ("sweedler.json",),
                  ("kc4_selfmod.json", "--over", "kc4_bialg.json"))


def run_cli(argv):
    """io_cli.main in-process; returns (exit code, stdout, stderr)."""
    from bihom import io_cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = io_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _expect_pass(outcome):
    code, out, err = outcome
    errs = [] if code == 0 else [f"exit {code}, expected 0: {(out + err)[-300:]!r}"]
    if "FAIL" in out or "ALL PASS" not in out:
        errs.append("report is not ALL PASS")
    return errs


def _expect_written(path, kind, expected):
    """Exit 0 and a written file equal to the oracle's construction."""
    def check(outcome):
        code, out, err = outcome
        if code != 0:
            return [f"exit {code}, expected 0: {(out + err)[-300:]!r}"]
        with open(path, encoding="utf-8") as fh:
            got = oracle.read_structure(fh.read())[1]
        errs = [] if got["kind"] == kind else [f"wrote kind {got['kind']}, expected {kind}"]
        return errs + [f"written {k} differs from the oracle"
                       for k in oracle.mismatches(expected, got)]
    return check


def _expect_witnessed_fail(sc, alg):
    """Exit 1, a bihom_associativity failure, every witness recomputed."""
    def check(outcome):
        code, out, err = outcome
        errs = [] if code == 1 else [f"exit {code}, expected 1"]
        failed, werrs = oracle.witness_errors(sc, alg, out)
        if "bihom_associativity" not in failed:
            errs.append("oracle finds a BiHom-associativity violation; bihom reports none")
        return errs + werrs
    return check


def _write(path, text, digest):
    digest.add(os.path.basename(path), text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cli_files(seed, workdir, digest, root):
    rng = random.Random(seed)
    fixtures = os.path.join(root, "fixtures")
    fx = lambda name: os.path.join(fixtures, name)  # noqa: E731
    out = lambda name: os.path.join(workdir, name)  # noqa: E731
    for name in sorted(os.listdir(fixtures)):
        with open(fx(name), encoding="utf-8") as fh:
            digest.add("fixture " + name, fh.read())
    items = []
    for args in FIXTURE_CHECKS:
        argv = ["check"] + [fx(a) if a.endswith(".json") else a for a in args]
        items.append(Item("check " + args[0], "theorem", lambda argv=argv: run_cli(argv),
                          _expect_pass))

    def add_cli(name, argv, source, check):
        items.append(Item(name, source, lambda: run_cli(argv), check))

    add_cli("smash kc4", ["smash", fx("kc4_bialg.json"), fx("kc4_selfmod.json"), "--out",
                          out("smash.json")], "theorem", _expect_pass)
    add_cli("check smash", ["check", out("smash.json")], "theorem", _expect_pass)

    Q, F7 = oracle.Scalars("Q"), oracle.Scalars("Fp:7")
    a4 = inputs.GroupAlgebra(rng, (4,), Q).structure()
    b4 = inputs.GroupAlgebra(rng, (2, 2), Q).structure()
    f8 = inputs.GroupAlgebra(rng, (4, 2), F7).structure()
    g8 = inputs.GroupAlgebra(rng, (4, 2), Q)
    q8 = g8.structure()
    t_alpha, t_beta = g8.twist_maps(rng)
    paths = {n: _write(out(n + ".json"), inputs.algebra_file(sc, s), digest)
             for n, sc, s in (("a4", Q, a4), ("b4", Q, b4), ("f8", F7, f8), ("q8", Q, q8))}
    _write(out("t_alpha.json"), inputs.map_file(Q, t_alpha), digest)
    _write(out("t_beta.json"), inputs.map_file(Q, t_beta), digest)

    constructions = (
        ("tensor", ["tensor", paths["a4"], paths["b4"]], "algebra",
         oracle.tensor_product(Q, a4, b4)),
        ("dual", ["dual", paths["f8"]], "coalgebra", oracle.dual_coalgebra(F7, f8)),
        ("lie", ["lie", paths["q8"]], "lie", oracle.commutator_lie(Q, q8)),
        ("twist", ["twist", paths["q8"], "--alpha", out("t_alpha.json"), "--beta",
                   out("t_beta.json")], "algebra",
         dict(oracle.yau_twist(Q, q8, t_alpha, t_beta), unit=q8["unit"])),
    )
    for name, argv, kind, expected in constructions:
        target = out(f"{name}_out.json")
        add_cli(name, argv + ["--out", target], "oracle", _expect_written(target, kind, expected))
        add_cli(f"check {name}_out", ["check", target], "theorem", _expect_pass)

    with open(fx("sweedler_antipode.json"), encoding="utf-8") as fh:
        antipode = oracle.read_structure(fh.read())[1]["entries"]

    def antipode_printed(outcome):
        code, text, err = outcome
        rows = [line.strip()[1:-1].split(",") for line in text.splitlines()
                if line.strip().startswith("[")]
        got = [[Q.parse(x) for x in row] for row in rows]
        return ([] if code == 0 else [f"exit {code}"]) + (
            [] if got == antipode else ["solved antipode differs from the fixture"])

    add_cli("antipode solve", ["antipode", "solve", fx("sweedler.json")], "oracle",
            antipode_printed)
    add_cli("antipode verify", ["antipode", "verify", fx("sweedler.json"), "--s",
                                fx("sweedler_antipode.json")], "theorem", _expect_pass)

    files = []
    for orders, tag, count, bad in TENSOR_POWERS:
        sc = oracle.Scalars(tag)
        corrupt_at = set(rng.sample(range(count), bad))
        for n in range(count):
            g = inputs.GroupAlgebra(rng, orders, sc)
            alg = g.structure()
            name = f"kC{'x'.join(map(str, orders))}_{tag.replace(':', '')}_{n}.json"
            if n in corrupt_at:
                while True:
                    bad_alg, (i, j, k) = inputs.corrupt(rng, sc, alg)
                    d = len(alg["mu"])
                    first = [(x, i, j) for x in range(d)] + [(i, j, x) for x in range(d)]
                    if oracle.associativity_violation(sc, bad_alg, first) is not None:
                        break
                alg = bad_alg
                check = _expect_witnessed_fail(sc, alg)
                source = "oracle"
            else:
                check, source = _expect_pass, "theorem"
            path = _write(out(name), inputs.algebra_file(sc, alg), digest)
            files.append(Item("check " + name, source,
                              lambda path=path: run_cli(["check", path]), check))
    rng.shuffle(files)
    return items + files


def build(workload, seed, workdir, root):
    digest = inputs.Digest(seed)
    if workload == "uqsl2_symbolic":
        items = uqsl2_symbolic(seed, digest)
    elif workload == "twist_dense":
        items = twist_dense(seed, digest)
    elif workload == "cli_files":
        items = cli_files(seed, workdir, digest, root)
    else:
        raise KeyError(workload)
    return Plan(items=items, digest=digest.hexdigest())
