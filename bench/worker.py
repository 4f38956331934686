"""One pass of one workload in a fresh interpreter.

Started by run.py.  It imports bihom from the checkout's ``src``, builds the
seeded inputs (writing input files into its own directory under
``.bench_work``), prints ``READY <input digest> <set-up seconds> <set-up
seconds at the reference speed>`` and then runs every item once.  The last
line of its standard output is a JSON object with the pass timings, the
disagreements with the known answers and, when traced, the per-layer
counters.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ITEM = "bench.item"


def import_bihom():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import bihom
    from bihom import fixtures, io_cli, qexamples  # noqa: F401  (load every module)

    where = os.path.dirname(os.path.abspath(bihom.__file__))
    if where != os.path.join(src, "bihom"):
        raise SystemExit(f"bihom imported from {where}, not from {src}")


def layer_metrics(tracer, wall):
    """The per-layer metrics of one traced pass."""
    times = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name, (calls, self_s) in times.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for key, value in counts.items():
        out[key] = value
    layer_self = {}
    for name, (_, self_s) in times.items():
        module = name.split(".")[0]
        layer_self[module] = layer_self.get(module, 0.0) + self_s
    for module, self_s in layer_self.items():
        out[f"layer.{module}.self_s"] = self_s
    out["trace.wall_s"] = wall
    out["trace.counters_s"] = sum(tracer.extra.values())
    out["trace.spans"] = len(tracer.spans)
    out["trace.missing_targets"] = tracer.missing
    return out


def run_pass(items, tracer=None, prober=None):
    """Run every item once, in order; returns (outcomes, item wall seconds,
    item CPU seconds, item scale factors, pass wall seconds, pass CPU
    seconds).  An outcome is ("ok", value) or ("raised", text).

    With a running ``speed.Prober`` the probes' own time is taken out of
    every time returned and each item gets its scale factor; without one
    every factor is 1.
    """
    outcomes, spans = [], []
    perf, cpu = time.perf_counter, time.process_time
    for idx, item in enumerate(items):
        t0, u0 = perf(), cpu()
        try:
            if tracer is None:
                outcomes.append(("ok", item.run()))
            else:
                tracer.item = idx
                with tracer.span(ITEM):
                    outcomes.append(("ok", item.run()))
        except Exception as exc:  # an item that raises counts as failed
            outcomes.append(("raised", f"{type(exc).__name__}: {exc}"))
        spans.append((t0, perf(), cpu() - u0))
    if prober is None:
        probed, scales = [(0.0, 0.0)] * len(spans), [1.0] * len(spans)
    else:
        prober.stop()
        probed = [prober.inside(t0, t1) for t0, t1, _ in spans]
        scales = [prober.scale_for(t0, t1) for t0, t1, _ in spans]
    item_s = [t1 - t0 - w for (t0, t1, _), (w, _) in zip(spans, probed)]
    item_cpu_s = [c - pc for (_, _, c), (_, pc) in zip(spans, probed)]
    return outcomes, item_s, item_cpu_s, scales, sum(item_s), sum(item_cpu_s)


def disagreements(items, outcomes):
    """One line per item whose outcome disagrees with its known answer."""
    errors = []
    for item, (status, outcome) in zip(items, outcomes):
        if status == "raised":
            errs = [outcome]
        else:
            try:
                errs = item.check(outcome)
            except Exception as exc:  # output the known answer cannot even read
                errs = [f"unreadable outcome: {type(exc).__name__}: {exc}"]
        if errs:
            errors.append(f"{item.name}: {'; '.join(errs)}")
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--started", type=float, required=True,
                    help="time.perf_counter() of the parent when it started this process")
    args = ap.parse_args()
    # untraced, the host's speed is probed from set-up to the end of the pass
    prober = None if args.trace else speed.Prober().start()

    sys.path.insert(0, HERE)
    import_bihom()
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan = workloads.build(args.workload, args.seed, workdir, ROOT)
        ready = time.perf_counter()
        setup_s = ready - args.started
        scaled = setup_s if prober is None else prober.scaled(args.started, ready)
        print(f"READY {plan.digest} {setup_s!r} {scaled!r}", flush=True)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        outcomes, item_s, item_cpu_s, scales, wall, cpu_s = run_pass(plan.items, tracer, prober)
        errors = disagreements(plan.items, outcomes)
        result = {
            "items": len(plan.items),
            "failed": len(errors),
            "errors": errors[:20],
            "sources": {s: sum(1 for i in plan.items if i.source == s)
                        for s in ("oracle", "theorem")},
            "wall_s": wall,
            "cpu_s": cpu_s,
            "item_s": item_s,
            "item_cpu_s": item_cpu_s,
            "item_scale": scales,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": plan.digest,
        }
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, wall)
            if args.trace_file:
                tracer.write(args.trace_file)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
