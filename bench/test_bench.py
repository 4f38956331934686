"""The benchmark's own checks: known answers catch a wrong bihom, and the
tracer leaves no binding unwrapped.

    python3 -m pytest bench/test_bench.py -q

Each test flips one bihom verdict or witness in-process (``src`` is not
touched) and asserts that the disagreement count, the numerator of
``error_rate``, rises above 0 on items that agree with the known answers
when nothing is flipped.
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bihom  # noqa: E402
from bihom import io_cli, qexamples  # noqa: E402
from bihom.report import CheckReport  # noqa: E402

import workloads  # noqa: E402
from worker import disagreements, run_pass  # noqa: E402


def errors_on(items):
    outcomes = run_pass(items)[0]
    return disagreements(items, outcomes)


@pytest.fixture(scope="module")
def cli_items(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("cli"))
    items = workloads.build("cli_files", 5, workdir, ROOT).items
    passing = [i for i in items if i.name.startswith("check kC") and i.source == "theorem"
               and "x4x" not in i.name][:3]
    corrupted = [i for i in items if i.name.startswith("check kC") and i.source == "oracle"][:3]
    assert len(passing) == 3 and len(corrupted) == 3
    return passing, corrupted


def test_cli_items_agree_with_known_answers(cli_items):
    passing, corrupted = cli_items
    assert errors_on(passing + corrupted) == []


def test_flipped_cli_verdict_is_an_error(cli_items, monkeypatch):
    passing, corrupted = cli_items
    real = io_cli.check_bihom_algebra

    def flipped(a):
        report = real(a)
        if report.ok:
            return report.add("bihom_associativity", False, ((0, 0, 0), [], []))
        return CheckReport().add("bihom_associativity", True)

    monkeypatch.setattr(io_cli, "check_bihom_algebra", flipped)
    assert len(errors_on(passing + corrupted)) == 6


def test_flipped_witness_is_an_error(cli_items, monkeypatch):
    _, corrupted = cli_items
    real = io_cli.check_bihom_algebra

    def swapped(a):
        report = real(a)
        for e in report.entries:
            if not e.passed:
                idx, lhs, rhs = e.witness
                e.witness = (idx, rhs, lhs)
        return report

    monkeypatch.setattr(io_cli, "check_bihom_algebra", swapped)
    errors = errors_on(corrupted)
    assert len(errors) == 3 and all("oracle" in e for e in errors)


def test_flipped_dense_verdict_is_an_error(tmp_path, monkeypatch):
    items = workloads.build("twist_dense", 5, str(tmp_path), ROOT).items
    pick = [i for i in items if i.name.startswith(("pseudotwistor[", "apply["))][:4]
    pick += [i for i in items if i.name.startswith("twisting_map[")][:2]
    assert errors_on(pick) == []
    real_tw, real_pt, real_apply = (bihom.check_twisting_map, bihom.check_pseudotwistor,
                                    bihom.apply_pseudotwistor)

    def bent(D, P):
        out = real_apply(D, P)
        out.mu.t[0][0][0] = out.mu.t[0][0][0] + 1
        return out

    monkeypatch.setattr(bihom, "check_twisting_map",
                        lambda A, B, tw: real_tw(A, B, tw).add("R_flipped", False, ((0, 0), 0, 1)))
    monkeypatch.setattr(bihom, "check_pseudotwistor",
                        lambda D, P: real_pt(D, P).add("T_flipped", False, ((0, 0), 0, 1)))
    monkeypatch.setattr(bihom, "apply_pseudotwistor", bent)
    assert len(errors_on(pick)) == 6


def test_non_confluent_rewriting_is_an_error(tmp_path, monkeypatch):
    items = workloads.build("uqsl2_symbolic", 5, str(tmp_path), ROOT).items
    pick = [i for i in items if i.name == "confluence[3]"]
    assert errors_on(pick) == []
    real = qexamples.uq_normalize

    def biased(word, strategy="leftmost"):
        out = real(word, strategy)
        return out + out if strategy == "rightmost" and "E" in word else out

    monkeypatch.setattr(qexamples, "uq_normalize", biased)
    assert len(errors_on(pick)) == 1


def _in_fresh_interpreter(code):
    return subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=120)


def test_tracer_rebinds_every_module_global():
    code = f"""
import sys
sys.path[:0] = [{HERE!r}, {os.path.join(ROOT, 'src')!r}]
import bihom, bihom.io_cli, bihom.qexamples, bihom.fixtures
from bihom import algebra_core, linalg
orig = linalg.bilinear_apply
from tracer import Tracer
t = Tracer()
t.install()
assert not t.missing, t.missing
for name, mod in sys.modules.items():
    if name.startswith("bihom"):
        assert all(v is not orig for v in vars(mod).values()), name
a = bihom.fixtures.cyclic_group_bialgebra(2).algebra_part()
assert algebra_core.check_bihom_algebra(a).ok
calls = dict((k, v[0]) for k, v in t.self_times().items())
assert calls["linalg.bilinear_apply"] > 0 and calls["algebra_core.check_bihom_algebra"] == 1
assert t.counts["checks.entries"] == 8
"""
    done = _in_fresh_interpreter(code)
    assert done.returncode == 0, done.stderr


def test_tracer_fails_loudly_on_a_hidden_binding():
    code = f"""
import sys
sys.path[:0] = [{HERE!r}, {os.path.join(ROOT, 'src')!r}]
import bihom, bihom.io_cli, bihom.qexamples, bihom.fixtures
from bihom import report, linalg
report.HIDDEN = (linalg.mat_mul,)
from tracer import Tracer, TraceError
try:
    Tracer().install()
except TraceError as exc:
    assert "bihom.report.HIDDEN" in str(exc), exc
else:
    raise SystemExit("no TraceError")
"""
    done = _in_fresh_interpreter(code)
    assert done.returncode == 0, done.stderr
