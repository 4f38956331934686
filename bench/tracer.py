"""Span tracer for bihom's layers, installed only in traced runs.

Each wrapped function records one span (name, start, end, parent span,
item id) and feeds a few counters computed from its arguments or result.
Wrapping rebinds every module-level name in every loaded ``bihom.*`` module
that refers to a wrapped function, because modules import functions into
their own globals (``bilinear_apply`` is called through half a dozen of
them).  After installing, any remaining reference to an original function in
a module global, a class dict or a function default raises ``TraceError``:
a missed binding would silently under-count a layer.

Spans stay in memory until ``write`` is called once, at exit.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time

# (metric group, module, attribute path) for every wrapped callable; the
# metric group names the layer (module) first.
CONSTRUCTIONS = (
    ("algebra_core", "yau_twist"),
    ("algebra_core", "tensor_product"),
    ("lie", "commutator_lie"),
    ("coalgebra", "dual_coalgebra"),
    ("twisting", "canonical_pseudotwistor"),
    ("twisting", "apply_pseudotwistor"),
    ("smash", "smash_twisting_map"),
    ("smash", "smash_product"),
    ("smash", "smash_comodule_structure"),
    ("smash", "dual_module_algebra"),
    ("bialgebra", "solve_antipode_monoidal"),
)
CHECK_MODULES = ("algebra_core", "lie", "coalgebra", "bialgebra", "twisting")
FIXED_TARGETS = (
    ("exactnum.rf_new", "exactnum", "RationalFunction.__init__"),
    ("exactnum.parse", "exactnum", "RationalField.parse"),
    ("exactnum.parse", "exactnum", "PrimeField.parse"),
    ("exactnum.parse", "exactnum", "FunctionField.parse"),
    ("exactnum.format", "exactnum", "RationalField.format"),
    ("exactnum.format", "exactnum", "PrimeField.format"),
    ("exactnum.format", "exactnum", "FunctionField.format"),
    ("qexamples.uq_normalize", "qexamples", "uq_normalize"),
    ("qexamples.uq_multiply", "qexamples", "uq_multiply"),
    ("qexamples.twisted_action", "qexamples", "twisted_action"),
    ("qexamples.verify_smash_formulas", "qexamples", "verify_smash_formulas"),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("linalg.kron", "linalg", "kron"),
    ("linalg.bilinear_apply", "linalg", "bilinear_apply"),
    ("linalg.solve", "linalg", "rank"),
    ("linalg.solve", "linalg", "kernel"),
    ("linalg.solve", "linalg", "solve_affine"),
    ("linalg.solve", "linalg", "solve_unique"),
    ("linalg.solve", "linalg", "solve_linear"),
    ("linalg.solve", "linalg", "mat_inverse"),
    ("linalg.mat_eq_witness", "linalg", "mat_eq_witness"),
    ("report.format", "report", "CheckReport.format"),
    ("io_cli.parse_structure", "io_cli", "parse_structure"),
    ("io_cli.serialize_structure", "io_cli", "serialize_structure"),
    ("io_cli.main", "io_cli", "main"),
) + tuple((f"{m}.{f}", m, f) for m, f in CONSTRUCTIONS)



class TraceError(RuntimeError):
    pass


def targets(modules):
    """The fixed targets plus every public ``check_*`` of the check modules."""
    out = list(FIXED_TARGETS)
    for m in CHECK_MODULES:
        mod = modules[m]
        for name, obj in sorted(vars(mod).items()):
            if (name.startswith("check_") and callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                out.append((f"{m}.{name}", m, name))
    return out


def _is_monomial(den) -> bool:
    """True when the coefficient list (low degree first) is c q^k."""
    coeffs = list(den)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return bool(coeffs) and not any(coeffs[:-1])


class Tracer:
    def __init__(self):
        self.names = []  # group name per id
        self._gid = {}
        self.spans = []  # (gid, start, end, parent, item)
        self.stack = []
        self.item = -1
        self.counts = {}  # metric name -> number
        self.seen = {}  # group -> set of argument keys, for repeat_share
        self.check_depth = 0
        self.missing = []
        self.extra = {}  # span index -> counter upkeep seconds inside it

    # -- spans ------------------------------------------------------------

    def gid(self, name):
        if name not in self._gid:
            self._gid[name] = len(self.names)
            self.names.append(name)
        return self._gid[name]

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself, around one item."""
        gid, idx = self.gid(name), len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (gid, t0, t1, parent, self.item)

    def _wrap(self, fn, group):
        gid = self.gid(group)
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        extra = self.extra
        observe = self._observer(group)
        is_check = group.split(".")[1].startswith("check_")
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if is_check:
                tracer.check_depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (gid, t0, t1, parent, tracer.item)
                if is_check:
                    tracer.check_depth -= 1
            if observe is not None:
                observe(args, kwargs, result)
                # counter upkeep is tracing cost: keep it out of the
                # caller's self time
                extra[parent] = extra.get(parent, 0.0) + perf() - t1
            elif is_check and tracer.check_depth == 0:
                tracer.bump("checks.entries", len(result.entries))
                tracer.bump("checks.fail_entries", sum(1 for e in result.entries if not e.passed))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        wrapper.__qualname__ = getattr(fn, "__qualname__", group)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _observer(self, group):
        """Counters fed from a call's arguments and result."""
        bump = self.bump
        if group == "exactnum.rf_new":
            def obs(args, kwargs, _):
                den = args[2] if len(args) > 2 else kwargs.get("den", (1,))
                if _is_monomial(den):
                    bump("exactnum.rf_new.monomial_den")
            return obs
        if group in ("qexamples.uq_normalize", "qexamples.uq_multiply"):
            seen = self.seen.setdefault(group, set())

            def obs(args, kwargs, _):
                if group.endswith("uq_normalize"):
                    key = (tuple(args[0]), args[1] if len(args) > 1 else
                           kwargs.get("strategy", "leftmost"))
                else:
                    key = tuple(frozenset(x.terms.items()) for x in args[:2])
                if key in seen:
                    bump(group + ".repeats")
                else:
                    seen.add(key)
            return obs
        if group == "linalg.mat_mul":
            def obs(args, kwargs, _):
                a, b = args[0], args[1]
                bump("linalg.mat_mul.dense_madds", a.rows * a.cols * b.cols)
                acol = [sum(map(bool, col)) for col in zip(*a.e)]
                brow = [sum(map(bool, row)) for row in b.e]
                bump("linalg.mat_mul.useful_madds", sum(map(int.__mul__, acol, brow)))
            return obs
        if group == "linalg.kron":
            def obs(args, kwargs, _):
                a, b = args[0], args[1]
                bump("linalg.kron.out_entries", a.rows * b.rows * a.cols * b.cols)
            return obs
        if group == "io_cli.parse_structure":
            def obs(args, kwargs, _):
                bump("io_cli.parse_structure.bytes", len(args[0].encode("utf-8")))
            return obs
        if group == "io_cli.serialize_structure":
            def obs(args, kwargs, result):
                bump("io_cli.serialize_structure.bytes", len(result.encode("utf-8")))
            return obs
        return None

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every target and rebind all of its module-level names."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "bihom" or n.startswith("bihom.")}
        short = {n.split(".", 1)[1]: m for n, m in mods.items() if "." in n}
        originals = {}
        for group, modname, path in targets(short):
            owner = short.get(modname)
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p, None) if owner is not None else None
            fn = owner.__dict__.get(parts[-1]) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(fn, group)
            originals[id(fn)] = (fn, wrapper)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapper)
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
        self._verify(mods, originals)

    def _verify(self, mods, originals):
        def stale(value):
            value = getattr(value, "__func__", value)
            hit = originals.get(id(value))
            return hit is not None and hit[0] is value

        missed = []
        for mname, mod in mods.items():
            holders = []
            for name, value in vars(mod).items():
                where = f"{mname}.{name}"
                holders.append((where, value))
                if isinstance(value, type) and value.__module__ == mname:
                    holders += [(f"{where}.{k}", v) for k, v in vars(value).items()]
                elif isinstance(value, (dict, list, tuple)):
                    items = value.values() if isinstance(value, dict) else value
                    holders += [(f"{where}[...]", v) for v in items]
            for where, value in list(holders):
                fn = getattr(value, "__func__", value)
                defaults = getattr(fn, "__defaults__", None) or ()
                holders += [(f"{where} default", d) for d in defaults]
            missed += [where for where, value in holders if stale(value)]
        if missed:
            raise TraceError("tracer left unwrapped bindings: " + ", ".join(sorted(missed)))

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per group: (calls, self seconds); self = span minus child spans."""
        child = [0.0] * len(self.spans)
        for idx, dt in self.extra.items():
            if idx >= 0:
                child[idx] += dt
        for gid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for idx, (gid, t0, t1, _, _) in enumerate(self.spans):
            calls[gid] += 1
            selfs[gid] += (t1 - t0) - child[idx]
        return {n: (calls[g], selfs[g]) for g, n in enumerate(self.names)}

    def write(self, path):
        """All spans, one per line: name, start, end, parent index, item id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\titem\n")
            names = self.names
            for gid, t0, t1, parent, item in self.spans:
                fh.write(f"{names[gid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{item}\n")
