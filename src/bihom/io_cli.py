"""JSON file format for every structure kind plus the command-line tool.

Format essentials (docs/format.md has the full description): one JSON
object per file with "format", "field" ("Q" | "Fp:<p>" | "Q(q)"), "kind",
"dim", "labels", and the kind-specific tensors; scalars are strings in the
shared literal grammar; tensors are nested arrays indexed [i][j][k] with
mu[i][j][k] the coefficient of e_k in e_i e_j and delta[i][j][k] the
coefficient of e_j (x) e_k in Delta(e_i).

Each structure class declares its keys once, in its ``SHAPE`` and
``LABELS`` (``algebra_core.Shaped``); ``LAYOUTS`` maps each kind to its class,
check and twist, and parsing, serialization, ``check``, ``twist`` and the
output re-check of every construction read them.  A kind's twist names the
map flags it takes, in the order its Yau twist takes the maps.  Only
``action`` and ``map`` files are laid out by hand; an action file embeds an
algebra object, whose paths in errors carry the prefix ``algebra.``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra_core import (
    BiHomAlgebra,
    LeftModule,
    check_bihom_algebra,
    check_left_module,
    tensor_product,
    untwist,
    yau_twist,
)
from .bialgebra import (
    BiHomBialgebra,
    ModuleAlgebraAction,
    check_antipode_general,
    check_bihom_bialgebra,
    check_module_bihom_algebra,
    find_primitives,
    is_monoidal,
    solve_antipode_monoidal,
    yau_twist_bialgebra,
)
from .coalgebra import (
    BiHomCoalgebra,
    Comodule,
    check_bihom_coalgebra,
    check_comodule,
    dual_algebra,
    dual_coalgebra,
    tensor_product_coalgebras,
    yau_twist_coalgebra,
)
from .errors import (
    BadScalar,
    BiHomError,
    DimensionMismatch,
    ParseError,
)
from .exactnum import QQ, field_from_tag, field_tag
from .lie import BiHomLieAlgebra, check_bihom_lie, commutator_lie, yau_twist_lie
from .linalg import Matrix, Tensor3
from .report import CheckReport
from .smash import SmashData, smash_product
from .twisting import (
    Pseudotwistor,
    TwistingMap,
    apply_pseudotwistor,
    canonical_pseudotwistor,
    check_pseudotwistor,
    check_twisting_map,
    twisted_tensor_product,
)

FORMAT_VERSION = 1
# The longest structure text read, in characters (bytes, for the ASCII files
# the package writes), checked before json.loads: 16 MiB, about 50 times the
# largest input the test suite or the benchmark writes.
MAX_FILE_BYTES = 1 << 24
# The largest dimension a file may declare, as a check costs d^3 to d^4
# tuples; a map's rows and cols may reach MAX_DIM ** 3, a map on the cube.
MAX_DIM = 64
# The largest `demo uqsl2 --grid`: the demo checks 4 * N^4 grid points, and
# its work grows with the plane degree m + n + r + s + 1 at each point.
MAX_GRID = 3


# ---------------------------------------------------------------------------
# file layout of each structure kind
# ---------------------------------------------------------------------------


# kind -> (class, check, twist): the class declares the file keys (``Shaped``);
# the check, (report title, function), and the Yau twist, (map flags, function),
# are None for a kind without one; each names its function at call time, so
# that a profiler or tracer that rebinds the module global sees it
LAYOUTS = {
    "algebra": (BiHomAlgebra, (
        "BiHom-associative algebra axioms", lambda s: check_bihom_algebra(s)), (
        ("alpha", "beta"), lambda s, *maps: yau_twist(s, *maps))),
    "coalgebra": (BiHomCoalgebra, (
        "BiHom-coassociative coalgebra axioms", lambda s: check_bihom_coalgebra(s)), (
        ("psi", "omega"), lambda s, *maps: yau_twist_coalgebra(s, *maps))),
    "bialgebra": (BiHomBialgebra, (
        "BiHom-bialgebra axioms", lambda s: check_bihom_bialgebra(s)), (
        ("alpha", "beta", "psi", "omega"), lambda s, *maps: yau_twist_bialgebra(s, *maps))),
    "lie": (BiHomLieAlgebra, ("BiHom-Lie algebra axioms", lambda s: check_bihom_lie(s)), (
        ("alpha", "beta"), lambda s, *maps: yau_twist_lie(s, *maps))),
    "module": (LeftModule, None, None),
    "comodule": (Comodule, None, None),
}

KINDS = (*LAYOUTS, "action", "map")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_scalars(field, data, path, memo):
    """The scalars of one innermost list.  memo maps each literal already
    read in this file to its value; a failure is never stored, and the path
    of an entry is formatted only for its error."""
    out = []
    for i, text in enumerate(data):
        if not isinstance(text, str):
            raise BadScalar(f"scalar must be a string, got {text!r}", f"{path}[{i}]")
        value = memo.get(text)
        if value is None:
            try:
                value = memo[text] = field.parse(text)
            except BiHomError as exc:
                raise BadScalar(str(exc), f"{path}[{i}]")
        out.append(value)
    return out


_NOUNS = (None, "entries", "rows", "planes")


def _parse_array(field, data, shape, path, memo):
    """Nested lists of scalars with the given extents, checked level by level."""
    n = shape[0]
    if not isinstance(data, list) or len(data) != n:
        raise DimensionMismatch(f"expected {n} {_NOUNS[len(shape)]}", path)
    if len(shape) == 1:
        return _parse_scalars(field, data, path, memo)
    return [
        _parse_array(field, x, shape[1:], f"{path}[{i}]", memo) for i, x in enumerate(data)
    ]


def _parse_entry(field, data, shape, path, memo):
    """A tensor, matrix or optional vector, by the length of its shape."""
    if len(shape) == 1:
        return None if data is None else _parse_array(field, data, shape, path, memo)
    # parsed scalars of checked extents need no second promote, and the
    # shape keeps the extents an empty axis cannot show
    entries = _parse_array(field, data, shape, path, memo)
    if len(shape) == 2:
        out = Matrix.__new__(Matrix)
        (out.rows, out.cols), out.e = shape, entries
    else:
        out = Tensor3.__new__(Tensor3)
        (out.d1, out.d2, out.d3), out.t = shape, entries
    out.field = field
    return out


def parse_structure(text: str):
    """Parse a structure file.  Returns (kind, value).

    Each distinct scalar literal of the file is parsed once; its entries
    share the value, as scalars are never changed in place."""
    if len(text) > MAX_FILE_BYTES:
        raise ParseError(f"text longer than {MAX_FILE_BYTES} characters")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    if obj.get("format") != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {obj.get('format')!r}", "format")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}", "kind")
    try:
        field = field_from_tag(obj.get("field", ""))
    except BiHomError as exc:
        raise BadScalar(str(exc), "field")
    memo = {}
    if kind == "map":
        shape = (_get_dim(obj, "rows", MAX_DIM**3), _get_dim(obj, "cols", MAX_DIM**3))
        return kind, _parse_entry(field, obj.get("entries"), shape, "entries", memo)
    if kind == "action":
        return kind, _parse_action(field, obj, memo)
    return kind, _parse_body(LAYOUTS[kind][0], field, obj, memo)


def _get_dim(obj, key="dim", limit=MAX_DIM, at=""):
    d, key = obj.get(key), at + key
    if type(d) is not int or d < 0:  # JSON true parses as a bool, an int subclass
        raise ParseError(f"{key} must be a nonnegative integer", key)
    if d > limit:
        raise ParseError(f"{key} must be at most {limit}", key)
    return d


def _labels(obj, d, at=""):
    labels = obj.get("labels")
    if labels is None:
        return []
    if not isinstance(labels, list) or len(labels) != d:
        raise DimensionMismatch(f"expected {d} labels", at + "labels")
    return [str(x) for x in labels]


def _parse_body(cls, field, obj, memo, at=""):
    """A structure of a Shaped class: "dim", "labels", the other extents,
    then the containers in the order of cls.SHAPE; at prefixes each path."""
    dims = {"dim": _get_dim(obj, at=at)}
    labels = _labels(obj, dims["dim"], at)
    for key in dict.fromkeys(n for _, names in cls.SHAPE for n in names if n != "dim"):
        dims[key] = _get_dim(obj, key, at=at)
    kw = {
        key: _parse_entry(field, obj.get(key), [dims[n] for n in names], at + key, memo)
        for key, names in cls.SHAPE
    }
    if cls.LABELS is not None:  # the classes that keep labels keep their field
        kw.update(field=field, labels=labels)
    return cls(dim=dims["dim"], **kw)


def _parse_action(field, obj, memo):
    """An action file: a module algebra over the file's field and of its
    dim, embedded under "algebra", plus the h_dim x dim x dim action tensor
    of the bialgebra on it."""
    d = _get_dim(obj)
    _labels(obj, d)
    alg = obj.get("algebra")
    if not isinstance(alg, dict):
        raise ParseError("action files embed the module algebra", "algebra")
    h_dim = _get_dim(obj, "h_dim")
    if alg.get("field") != obj["field"]:
        raise ParseError(f"{alg.get('field')!r} differs from the file's field "
                         f"{obj['field']!r}", "algebra.field")
    a_dim = _get_dim(alg, at="algebra.")
    if a_dim != d:
        raise DimensionMismatch(f"{d} differs from algebra.dim {a_dim}", "dim")
    a = _parse_body(BiHomAlgebra, field, alg, memo, "algebra.")
    action = _parse_entry(field, obj.get("action"), (h_dim, d, d), "action", memo)
    return a, ModuleAlgebraAction(action=action)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt(field, x):
    """File form of a Tensor3, a Matrix or an optional coordinate vector."""
    if isinstance(x, Tensor3):
        return [[[field.format(c) for c in row] for row in plane] for plane in x.t]
    if isinstance(x, Matrix):
        return [[field.format(c) for c in row] for row in x.e]
    return None if x is None else [field.format(c) for c in x]


def _body_of(cls, field, value):
    obj = {"dim": value.dim}
    if cls.LABELS is not None:
        obj["labels"] = list(value.labels)
    obj.update(value.extents())  # "dim" keeps its place before "labels"
    for key, _ in cls.SHAPE:
        obj[key] = _fmt(field, getattr(value, key))
    return obj


def serialize_structure(value, kind=None) -> str:
    """Canonical JSON for any supported structure value."""
    if kind is None:
        kind = _kind_of(value)
    field = _field_of_structure(value)
    obj = {"format": FORMAT_VERSION, "field": field_tag(field), "kind": kind}
    if kind == "action":
        a, act = value
        obj.update(
            dim=a.dim,
            h_dim=act.action.d1,
            algebra={"field": obj["field"], **_body_of(BiHomAlgebra, field, a)},
            action=_fmt(field, act.action),
        )
    elif kind == "map":
        obj.update(rows=value.rows, cols=value.cols, entries=_fmt(field, value))
    elif kind in LAYOUTS:
        obj.update(_body_of(LAYOUTS[kind][0], field, value))
    else:
        raise ValueError(f"cannot serialize kind {kind!r}")
    return json.dumps(obj, indent=1)


def _field_of_structure(value):
    if isinstance(value, tuple):
        return value[0].field
    if isinstance(value, LeftModule):
        return value.action.field
    if isinstance(value, Comodule):
        return value.rho.field
    return value.field


def _kind_of(value):
    for kind, (cls, *_) in LAYOUTS.items():
        if isinstance(value, cls):
            return kind
    if isinstance(value, Matrix):
        return "map"
    if isinstance(value, tuple) and len(value) == 2:
        return "action"
    raise ValueError(f"unknown structure {type(value)!r}")


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def _load(path, want=None, field_tag_expect=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_FILE_BYTES + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    if len(text) > MAX_FILE_BYTES:
        raise ParseError(f"{path}: larger than {MAX_FILE_BYTES} characters")
    kind, value = parse_structure(text)
    if want is not None and kind not in want:
        raise ParseError(f"{path}: expected kind in {want}, found {kind!r}")
    if field_tag_expect is not None:
        f = _field_of_structure(value)
        if field_tag(f) != field_tag_expect:
            raise ParseError(
                f"{path}: declares field {field_tag(f)}, --field demands "
                f"{field_tag_expect}"
            )
    return kind, value


def _same_field(path, value, other_path, other):
    """Exit 2 naming path when its structure is over another field than
    other_path's."""
    f, g = _field_of_structure(value), _field_of_structure(other)
    if f != g:
        raise ParseError(
            f"{path}: declares field {field_tag(f)}, {other_path} declares field {field_tag(g)}"
        )


def _same_carrier(path, key, extent, other_path, other):
    """Exit 2 naming path when the dimension it declares under key, that of
    the structure acting on it, is not the dimension of other_path's."""
    if extent != other.dim:
        raise ParseError(f"{path}: {key} {extent} differs from dim {other.dim} of {other_path}")


def _load_map(path, other_path, other):
    """The matrix in a map file, over the field of other_path's structure."""
    m = _load(path, want=("map",))[1]
    _same_field(path, m, other_path, other)
    return m


def _write_out(value, kind, path, label):
    text = serialize_structure(value, kind)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"{label} -> {path}")


def _print_report(name, report: CheckReport, args) -> bool:
    print(f"== {name}")
    print(report.format(verbose=args.verbose, witness_limit=args.witness_limit))
    return report.ok


def _run_check(path, kind, value, over, args) -> bool:
    if kind in LAYOUTS and LAYOUTS[kind][1]:
        title, check = LAYOUTS[kind][1]
        return _print_report(title, check(value), args)
    if kind == "module":
        if over is None or over[0] != "algebra":
            raise ParseError("checking a module needs --over ALGEBRA_FILE")
        _same_carrier(path, "algebra_dim", value.action.d1, args.over, over[1])
        return _print_report("left module axioms", check_left_module(over[1], value), args)
    if kind == "comodule":
        if over is None or over[0] not in ("coalgebra", "bialgebra"):
            raise ParseError("checking a comodule needs --over COALGEBRA_FILE")
        _same_carrier(path, "coalgebra_dim", value.rho.d3, args.over, over[1])
        C = over[1] if over[0] == "coalgebra" else over[1].coalgebra_part()
        return _print_report("right comodule axioms", check_comodule(C, value), args)
    if kind == "action":
        if over is None or over[0] != "bialgebra":
            raise ParseError("checking an action needs --over BIALGEBRA_FILE")
        _same_carrier(path, "h_dim", value[1].action.d1, args.over, over[1])
        report = check_module_bihom_algebra(over[1], *value)
        return _print_report("module BiHom-algebra axioms", report, args)
    raise ParseError(f"cannot check kind {kind!r}")


def _emit(out, kind, args, label):
    """Re-check a constructed structure; write it only when every axiom holds."""
    _, check = LAYOUTS[kind][1]
    if not _print_report("output re-check", check(out), args):
        return 1
    _write_out(out, kind, args.out, label)
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args):
    over = _load(args.over) if args.over else None
    all_ok = True
    for path in args.files:
        kind, value = _load(path, field_tag_expect=args.field)
        if over is not None and kind in ("module", "comodule", "action"):
            _same_field(args.over, over[1], path, value)
        ok = _run_check(path, kind, value, over, args)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _cmd_twist(args):
    kind, value = _load(args.file, field_tag_expect=args.field)
    maps = {flag: _load_map(getattr(args, flag), args.file, value)
            for flag in ("alpha", "beta", "psi", "omega") if getattr(args, flag)}
    if kind not in LAYOUTS or LAYOUTS[kind][2] is None:
        raise ParseError(f"cannot twist kind {kind!r}")
    flags, twist = LAYOUTS[kind][2]
    if any(flag not in maps for flag in flags):
        need = " and ".join(f"--{flag}" for flag in flags) if len(flags) == 2 else "all four maps"
        raise ParseError(f"{kind} twists need {need}")
    out = twist(value, *(maps[flag] for flag in flags))
    return _emit(out, kind, args, "twisted structure")


def _cmd_untwist(args):
    kind, value = _load(args.file, want=("algebra",), field_tag_expect=args.field)
    return _emit(untwist(value), "algebra", args, "untwisted algebra")


def _cmd_tensor(args):
    k1, v1 = _load(args.files[0], field_tag_expect=args.field)
    k2, v2 = _load(args.files[1], field_tag_expect=args.field)
    if k1 != k2 or k1 not in ("algebra", "coalgebra"):
        raise ParseError("tensor products need two algebras or two coalgebras")
    _same_field(args.files[1], v2, args.files[0], v1)
    if k1 == "algebra":
        out = tensor_product(v1, v2)
    else:
        out = tensor_product_coalgebras(v1, v2)
    return _emit(out, k1, args, "tensor product")


def _cmd_dual(args):
    kind, value = _load(
        args.file, want=("algebra", "coalgebra"), field_tag_expect=args.field
    )
    if kind == "algebra":
        return _emit(dual_coalgebra(value), "coalgebra", args, "dual structure")
    return _emit(dual_algebra(value), "algebra", args, "dual structure")


def _cmd_lie(args):
    kind, value = _load(args.file, want=("algebra",), field_tag_expect=args.field)
    return _emit(commutator_lie(value), "lie", args, "commutator BiHom-Lie algebra")


def _cmd_primitives(args):
    kind, value = _load(args.file, want=("bialgebra",), field_tag_expect=args.field)
    basis = find_primitives(value)
    field = value.field
    print(f"primitive space dimension: {len(basis)}")
    for i, v in enumerate(basis):
        coords = ", ".join(field.format(x) for x in v)
        print(f"  p{i} = ({coords})")
    return 0


def _cmd_antipode(args):
    kind, value = _load(args.file, want=("bialgebra",), field_tag_expect=args.field)
    if args.antipode_cmd == "solve":
        if not is_monoidal(value):
            print("bialgebra is not monoidal (omega != alpha^-1 or psi != beta^-1)")
            return 1
        s = solve_antipode_monoidal(value)
        if s is None:
            print("no antipode: the convolution system is inconsistent")
            return 1
        print("antipode found")
        if args.out:
            _write_out(s, "map", args.out, "antipode matrix")
        else:
            for row in _fmt(value.field, s):
                print("  [" + ", ".join(row) + "]")
        return 0
    s = _load_map(args.s, args.file, value)
    ok = _print_report("general antipode axioms", check_antipode_general(value, s), args)
    return 0 if ok else 1


def _cmd_pseudotwistor(args):
    _, D = _load(args.file, want=("algebra",), field_tag_expect=args.field)
    alpha2, beta2 = (_load_map(path, args.file, D) for path in (args.alpha2, args.beta2))
    if args.canonical:
        P = canonical_pseudotwistor(D, alpha2, beta2)
    else:
        if not (args.t and args.t1 and args.t2):
            raise ParseError("explicit pseudotwistors need --t, --t1 and --t2")
        T, T1, T2 = [_load_map(path, args.file, D) for path in (args.t, args.t1, args.t2)]
        P = Pseudotwistor(T=T, T1tilde=T1, T2tilde=T2, alpha2=alpha2, beta2=beta2)
    if args.pseudotwistor_cmd == "verify":
        ok = _print_report("pseudotwistor equations", check_pseudotwistor(D, P), args)
        return 0 if ok else 1
    return _emit(apply_pseudotwistor(D, P), "algebra", args, "deformed algebra")


def _cmd_ttp(args):
    _, A = _load(args.files[0], want=("algebra",), field_tag_expect=args.field)
    _, B = _load(args.files[1], want=("algebra",), field_tag_expect=args.field)
    _same_field(args.files[1], B, args.files[0], A)
    R = _load_map(args.r, args.files[0], A)
    tw = TwistingMap(R=R, dimA=A.dim, dimB=B.dim)
    ok = _print_report("twisting map equations", check_twisting_map(A, B, tw), args)
    if not ok:
        return 1
    out = twisted_tensor_product(A, B, tw)
    return _emit(out, "algebra", args, "twisted tensor product")


def _cmd_smash(args):
    _, H = _load(args.files[0], want=("bialgebra",), field_tag_expect=args.field)
    _, (A, act) = _load(args.files[1], want=("action",), field_tag_expect=args.field)
    _same_field(args.files[1], (A, act), args.files[0], H)
    _same_carrier(args.files[1], "h_dim", act.action.d1, args.files[0], H)
    out = smash_product(SmashData(H=H, A=A, action=act))
    return _emit(out, "algebra", args, "smash product")


def _cmd_demo(args):
    if args.demo_cmd != "uqsl2":
        raise ParseError(f"unknown demo {args.demo_cmd!r}")
    from .qexamples import PBWElement, TwistParams, verify_smash_formulas

    if not 1 <= args.grid <= MAX_GRID:
        raise ParseError(f"--grid must be at least 1 and at most {MAX_GRID}, got {args.grid}")

    tp = TwistParams.of(
        *map(QQ.parse, (args.lambda1, args.lambda2, args.lambda3, args.lambda4, args.xi))
    )
    grid = range(args.grid)
    gs = {
        "1": PBWElement.one(),
        "E": PBWElement.generator("E"),
        "F": PBWElement.generator("F"),
        "K": PBWElement.generator("K"),
    }
    failures = 0
    cases = 0
    for m in grid:
        for n in grid:
            for r in grid:
                for s in grid:
                    for gname, G in gs.items():
                        rep = verify_smash_formulas(m, n, r, s, G, tp)
                        cases += len(rep.entries)
                        for e in rep.entries:
                            if not e.passed:
                                failures += 1
                                print(
                                    f"FAIL {e.axiom} at (m,n,r,s,G)="
                                    f"({m},{n},{r},{s},{gname})"
                                )
                        if args.verbose and rep.ok:
                            print(
                                f"PASS (m,n,r,s,G)=({m},{n},{r},{s},{gname}): "
                                "K+/K-/E/F products match the closed forms"
                            )
    print(
        f"verified {cases} product-formula instances over the "
        f"{args.grid}^4 grid with G in {{1, E, F, K}}: "
        + ("all match" if failures == 0 else f"{failures} FAILED")
    )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bihom",
        description="Construct and verify BiHom-algebraic structures exactly.",
    )
    ap.add_argument("--verbose", action="store_true", help="print passing axioms too")
    ap.add_argument(
        "--witness-limit",
        type=int,
        default=None,
        metavar="N",
        help="cap the number of detailed failure witnesses printed",
    )
    ap.add_argument(
        "--field",
        default=None,
        metavar="TAG",
        help="require every input file to declare this field (Q, Fp:<p>, Q(q))",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="verify the axioms of structure files")
    p.add_argument("files", nargs="+")
    p.add_argument("--over", help="carrier structure for module/comodule/action files")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("twist", help="Yau twist by commuting endomorphism maps")
    p.add_argument("file")
    p.add_argument("--alpha", help="map file for the first algebra-side twist")
    p.add_argument("--beta", help="map file for the second algebra-side twist")
    p.add_argument("--psi", help="map file for the first coalgebra-side twist")
    p.add_argument("--omega", help="map file for the second coalgebra-side twist")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("untwist", help="recover the associative product")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_untwist)

    p = sub.add_parser("tensor", help="tensor product of two (co)algebras")
    p.add_argument("files", nargs=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("dual", help="finite-dimensional dual structure")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("lie", help="commutator BiHom-Lie algebra")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lie)

    p = sub.add_parser("primitives", help="basis of the primitive space")
    p.add_argument("file")
    p.set_defaults(func=_cmd_primitives)

    p = sub.add_parser("antipode", help="solve for or verify an antipode")
    asub = p.add_subparsers(dest="antipode_cmd", required=True)
    ps = asub.add_parser("solve", help="solve the monoidal antipode system")
    ps.add_argument("file")
    ps.add_argument("--out")
    ps.set_defaults(func=_cmd_antipode)
    pv = asub.add_parser("verify", help="check the Yau-twist-invariant axioms")
    pv.add_argument("file")
    pv.add_argument("--s", required=True, help="map file holding S")
    pv.set_defaults(func=_cmd_antipode)

    p = sub.add_parser("pseudotwistor", help="verify or apply a pseudotwistor")
    tsub = p.add_subparsers(dest="pseudotwistor_cmd", required=True)
    for name in ("verify", "apply"):
        pp = tsub.add_parser(name)
        pp.add_argument("file", help="algebra file for the underlying structure")
        pp.add_argument("--alpha2", required=True)
        pp.add_argument("--beta2", required=True)
        pp.add_argument("--canonical", action="store_true",
                        help="build T = alpha2 (x) beta2 with canonical companions")
        pp.add_argument("--t", help="map file for T on the tensor square")
        pp.add_argument("--t1", help="map file for the first companion")
        pp.add_argument("--t2", help="map file for the second companion")
        if name == "apply":
            pp.add_argument("--out")
        pp.set_defaults(func=_cmd_pseudotwistor)

    p = sub.add_parser("ttp", help="twisted tensor product along a twisting map")
    p.add_argument("files", nargs=2)
    p.add_argument("--r", required=True, help="map file for R: B (x) A -> A (x) B")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ttp)

    p = sub.add_parser("smash", help="BiHom-smash product A # H")
    p.add_argument("files", nargs=2, help="bialgebra file then action file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_smash)

    p = sub.add_parser("demo", help="built-in demonstrations")
    dsub = p.add_subparsers(dest="demo_cmd", required=True)
    pd = dsub.add_parser("uqsl2", help="verify the quantum-plane smash formulas")
    pd.add_argument("--grid", type=int, default=2,
                    help=f"exponents m, n, r, s range over 0..GRID-1 (1 <= GRID <= {MAX_GRID})")
    pd.add_argument("--lambda1", default="2")
    pd.add_argument("--lambda2", default="3")
    pd.add_argument("--lambda3", default="5")
    pd.add_argument("--lambda4", default="7")
    pd.add_argument("--xi", default="1/2")
    pd.set_defaults(func=_cmd_demo)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BiHomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
