"""The benchmark's own tests: tiny runs of every workload, and the tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import checks
import layers
import reference
import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int, seed: int = 7) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    result, lines = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert not [line for line in lines if line.startswith(("fail ", "absent "))]


def test_same_seed_gives_same_certificates():
    def rows(lines):
        out = [json.loads(line[5:]) for line in lines if line.startswith("tree ")]
        return [(r["tree"], r["m"], r["gates"], r["digest"]) for r in out]

    first, second = tiny_run("small", 0)[1], tiny_run("small", 0)[1]
    assert rows(first) and rows(first) == rows(second)
    assert workloads.build("bushy", 3, "tiny") == workloads.build("bushy", 3, "tiny")
    assert workloads.build("bushy", 3, "tiny") != workloads.build("bushy", 4, "tiny")


def test_times_are_read_at_reference_speed():
    ref = reference.REFERENCE_S
    one = run.TreeRun(2.0, 3.0, "", "", "", gauges=(ref, 3 * ref, ref))
    # each command over the mean of the gauges either side of it
    assert one.scaled("straighten_s") == pytest.approx(1.0)
    assert one.scaled("verify_s") == pytest.approx(1.5)
    assert one.scaled("total_s") == pytest.approx(2.5)


def test_self_time_is_span_minus_child_spans(monkeypatch):
    fake = types.ModuleType("fake_layers")

    def inner():
        time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        fake.inner()

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    probes = (
        layers.Probe("fake_layers", "outer", "outer_s"),
        layers.Probe("fake_layers", "inner", "inner_s", ("inner.calls",),
                     lambda acc, args, result: acc.__setitem__("inner.calls", acc["inner.calls"] + 1)),
    )
    with layers.Tracer(probes) as tracer:
        fake.outer()
    assert fake.outer is outer and fake.inner is inner
    # outer's own 0.02 s, without inner's 0.03 s
    assert 0.02 <= tracer.totals["outer_s"] < 0.045
    assert tracer.totals["inner_s"] >= 0.03
    assert tracer.totals["inner.calls"] == 1 and not tracer.absent()


def test_missing_names_mark_metrics_absent():
    cli = run.load_program()
    original = cli.straighten

    def broken(acc, args, result):
        raise TypeError("result layout changed")

    probes = (
        layers.Probe("tern2jw.cli", "straighten", "straighten.synth_self_s",
                     ("straighten.fork_moves",), broken),
        layers.Probe("tern2jw.cli", "no_such_name", "gone.self_s"),
        layers.Probe("tern2jw.no_such_module", "straighten", "gone.module_s"),
    )
    with layers.Tracer(probes) as tracer:
        one_pass = run.run_pass(cli, workloads.build("small", 1, "tiny"))
    assert not [r.error for runs in one_pass for r in runs if r.error]
    assert cli.straighten is original
    assert tracer.totals["straighten.synth_self_s"] > 0
    assert tracer.absent() == {"gone.self_s", "gone.module_s", "straighten.fork_moves"}


def test_checks_reject_a_tampered_certificate():
    cli = run.load_program()
    tree = next(t for t in workloads.build("small", 1, "tiny") if t.m == 4 and not t.flags)
    good = run.run_tree(cli, tree).cert
    rng = random.Random(0)
    assert checks.certificate_problems(tree, good, rng) == []
    lines = good.splitlines(keepends=True)
    signs = next(i for i, line in enumerate(lines) if line.startswith("SIGNS"))
    flipped = lines[signs].replace("+", "*").replace("-", "+").replace("*", "-")
    assert checks.certificate_problems(tree, "".join(lines[:signs] + [flipped] + lines[signs + 1:]), rng)
    gate = next(i for i, line in enumerate(lines) if line.split()[0] not in checks.DIRECTIVES)
    assert checks.certificate_problems(tree, "".join(lines[:gate] + lines[gate + 1:]), rng)
