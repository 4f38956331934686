"""bihom benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(bench/worker.py), one after another: one caller, closed loop, one thread.
With ``--trace 0`` it runs passes while the next one fits in ``--seconds``
(at least MIN_PASSES) and prints the end-to-end metrics, built from item
times scaled to a reference host speed (speed.py).  With ``--trace 1`` it
runs one untraced pass and two traced passes, checks that the traced counts
repeat exactly, and prints the per-layer metrics.  The last line of standard
output is the JSON result; the lines before it give the run's environment,
seed and input digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 3
WORKER_TIMEOUT_S = 170
sys.path.insert(0, HERE)

from workloads import WHY  # noqa: E402

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, trace=0, trace_file=None):
    """Run one worker; returns (set-up seconds, set-up seconds scaled to the
    reference speed, input digest, result).  Set-up runs from this call to
    the worker's READY line: interpreter start, imports, inputs."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--started", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(cmd, WORKER_TIMEOUT_S)
        first = proc.stdout.readline()
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker timed out: {' '.join(cmd)}")
    if proc.returncode != 0 or not first.startswith("READY "):
        raise BenchError(f"worker failed with exit {proc.returncode}: {' '.join(cmd)}")
    _, digest, setup_s, setup_scaled = first.split()
    return float(setup_s), float(setup_scaled), digest, json.loads(rest.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "bihom")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "why": WHY[args.workload],
    }


def scaled(passes, key):
    """Per pass, its items' times scaled to the reference speed (speed.py)."""
    return [[t * k for t, k in zip(p[key], p["item_scale"])] for p in passes]


def untraced(args):
    setups, raw_setups, digests, passes = [], [], set(), []
    start, pass_s = time.perf_counter(), 0.0
    # start a pass only if one as long as the last still ends in time
    while len(passes) < MIN_PASSES or time.perf_counter() - start + pass_s <= args.seconds:
        t0 = time.perf_counter()
        raw_setup, setup_s, digest, result = spawn(args.workload, args.seed)
        pass_s = time.perf_counter() - t0
        raw_setups.append(raw_setup)
        setups.append(setup_s)
        digests.add(digest)
        passes.append(result)
    item_ms = [t * 1000.0 for items in scaled(passes, "item_s") for t in items]
    metrics = {
        "wall_s": statistics.median(sum(items) for items in scaled(passes, "item_s")),
        "cpu_s": statistics.median(sum(items) for items in scaled(passes, "item_cpu_s")),
        "item_p50_ms": statistics.median(item_ms),
        "item_p90_ms": statistics.quantiles(item_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    factors = sorted(k for p in passes for k in p["item_scale"])
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(raw_setups),
        "scale_min_median_max": [factors[0], statistics.median(factors), factors[-1]],
    }
    return (passes, digests, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            raw)


COUNT_SUFFIXES = (".calls", ".dense_madds", ".useful_madds", ".out_entries", ".bytes",
                  ".repeats", ".monomial_den", "checks.entries", "checks.fail_entries")


def per_layer(layers, overhead):
    """Per-layer metrics from one traced pass, named as in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    derived = dict(layers)
    derived["trace.overhead"] = overhead

    def share(num, den):
        return derived.get(num, 0) / derived[den] if derived.get(den) else 0.0

    derived["exactnum.rf_new.monomial_den_share"] = share(
        "exactnum.rf_new.monomial_den", "exactnum.rf_new.calls")
    for f in ("uq_normalize", "uq_multiply"):
        g = f"qexamples.{f}"
        derived[f"{g}.repeat_share"] = share(f"{g}.repeats", f"{g}.calls")
    derived["linalg.mat_mul.useful_madd_share"] = share(
        "linalg.mat_mul.useful_madds", "linalg.mat_mul.dense_madds")
    derived["checks.fail_share"] = share("checks.fail_entries", "checks.entries")
    return {m["name"]: {"value": derived.get(m["name"], 0), "unit": m["unit"]}
            for m in declared}


def traced(args):
    _, _, base_digest, base = spawn(args.workload, args.seed)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    runs = []
    for n in (1, 2):
        path = os.path.join(ROOT, ".bench_work",
                            f"trace-{args.workload}-seed{args.seed}-{n}.tsv.gz")
        runs.append(spawn(args.workload, args.seed, trace=1, trace_file=path))
    passes = [base] + [r[3] for r in runs]
    digests = {base_digest} | {r[2] for r in runs}
    first, second = runs[0][3]["layers"], runs[1][3]["layers"]
    unstable = sorted(k for k in set(first) | set(second)
                      if k.endswith(COUNT_SUFFIXES) and first.get(k) != second.get(k))
    overhead = statistics.median(r[3]["wall_s"] for r in runs) / base["wall_s"]
    if first["trace.missing_targets"]:
        print("trace: wrapped functions not found: " + ", ".join(first["trace.missing_targets"]),
              file=sys.stderr)
    return passes, digests, per_layer(first, overhead), unstable, first


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "bihom", "__init__.py")):
        print(f"error: no bihom sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = environment(args)
    try:
        if args.trace:
            passes, digests, metrics, unstable, layers = traced(args)
        else:
            passes, digests, metrics, raw = untraced(args)
            unstable, layers = [], None
            env["raw"] = raw
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [e for p in passes for e in p["errors"]]
    if len(digests) != 1:
        problems.append(f"inputs differ between interpreters of one run: {sorted(digests)}")
    if unstable:
        problems.append("traced counts differ between two traced passes: " + ", ".join(unstable))
    for line in problems[:20]:
        print(f"disagreement: {line}", file=sys.stderr)

    env["input_sha256"] = sorted(digests)[0]
    env["passes"] = len(passes)
    env["items_per_pass"] = passes[0]["items"]
    env["known_answer_sources"] = passes[0]["sources"]
    env["error_rate"] = failed / attempted
    print("record " + json.dumps(env, sort_keys=True))
    if layers is not None:
        print("layers " + json.dumps({k: v for k, v in sorted(layers.items())}))
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
