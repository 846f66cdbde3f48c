"""tern2jw benchmark: `straighten` then `verify` on seeded tree sets.

    python3 perfbench/run.py --workload bushy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory. One process, one caller, no threads, closed loop: each
tree's text goes through tern2jw.cli.run_cli in process, first
`straighten` (tree text to certificate text), then `verify` (tree and
certificate as two -e inputs, oracle at the default cap). BLAS and OpenMP
are pinned to one thread.

Passes over the whole tree set repeat until --seconds have passed, and at
least MIN_PASSES times; within a pass quick trees rerun in rounds until
REPEAT_S is spent on each. The first run of each tree is checked in full,
later ones against it.

Times are read at reference speed. On a shared host the speed of one
Python thread moves by 20-50% for seconds to minutes with other tenants'
load, which moved both the best and the median of raw times by 20-30%
between runs of identical work. So a fixed reference kernel (reference.py)
runs before, between and after the two commands of every tree run, and
each command's time is divided by the mean of the kernel's times either
side of it and multiplied by reference.REFERENCE_S. A tree's time is the
median of these over all its runs; the set-up time gets the same
treatment from a gauge taken in each set-up interpreter. The same figures
unscaled are printed on the `raw` line. Per-tree latency is reported as
the median tree and the slowest tree, not as a percentile with ten
samples beyond it: over pooled runs that percentile moved by twice as
much from run to run.

With --trace 1 untraced and traced passes alternate, and per-layer self
times and counts (the best over the traced passes, in raw seconds) are
reported instead of the end-to-end metrics.

Lines before the last give the environment, one row per tree, any
failures and a readable summary. The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_PASSES = 3  # untraced, and with --trace 1 traced as well
SETUP_TRIALS = 9
SETUP_GAUGE_SAMPLES = 5  # reference-kernel runs after each set-up trial
REPEAT_S = 0.25  # untraced passes rerun a tree until its runs have taken this long

END_TO_END_UNITS = {
    "setup_s": "s",
    "straighten_s": "s",
    "verify_s": "s",
    "trees_per_s": "1/s",
    "tree_p50_s": "s",
    "tree_tail_s": "s",
    "cz_count": "count",
    "gate_count": "count",
    "peak_mem_mb": "MB",
    "pass_ratio": "ratio",
}


class SetupError(Exception):
    """The program cannot be imported from this checkout, or a set-up trial failed."""


def load_program():
    """Import tern2jw.cli from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("tern2jw.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import tern2jw from {src}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"tern2jw was imported from {cli.__file__}, not {src}")
    return cli


@dataclass
class TreeRun:
    straighten_s: float
    verify_s: float
    cert: str
    verdict: str
    error: str  # empty when both commands exited 0
    # reference kernel's time before straighten, between the two commands
    # and after verify; None when the run was not gauged
    gauges: tuple[float, float, float] | None = None

    @property
    def total_s(self) -> float:
        return self.straighten_s + self.verify_s

    def scaled(self, field: str) -> float:
        """The run's time in seconds at reference speed: each command's time
        over the mean of the gauges either side of it, times REFERENCE_S."""
        before, between, after = self.gauges
        straighten = self.straighten_s * 2 * reference.REFERENCE_S / (before + between)
        verify = self.verify_s * 2 * reference.REFERENCE_S / (between + after)
        return {"straighten_s": straighten, "verify_s": verify, "total_s": straighten + verify}[field]


def _call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_cli(argv)
        except Exception:  # a crash fails this tree, not the benchmark
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def run_tree(cli, tree, gauge_before: float | None = None) -> TreeRun:
    """Straighten then verify one tree. Given the gauge taken just before,
    the reference kernel also runs between the commands and after them."""
    gauged = gauge_before is not None
    t0 = time.perf_counter()
    code, cert, err = _call(cli, ["straighten", "-e", tree.text, *tree.flags])
    t1 = time.perf_counter()
    between = reference.gauge() if gauged else 0.0
    if code != 0:
        gauges = (gauge_before, between, between) if gauged else None
        return TreeRun(t1 - t0, 0.0, cert, "", f"straighten exit {code}: {err.strip()}", gauges)
    t2 = time.perf_counter()
    code, verdict, err = _call(cli, ["verify", "-e", tree.text, "-e", cert])
    t3 = time.perf_counter()
    gauges = (gauge_before, between, reference.gauge()) if gauged else None
    error = "" if code == 0 else f"verify exit {code}: {(err or verdict).strip()}"
    return TreeRun(t1 - t0, t3 - t2, cert, verdict, error, gauges)


def run_pass(cli, trees, repeat_s: float = 0.0, gauged: bool = False) -> list[list[TreeRun]]:
    """One pass over the trees, in rounds: after the first round, a tree
    runs again while its runs in this pass have taken less than repeat_s,
    so a quick tree is sampled at many moments of the pass. When gauged,
    the reference kernel runs before, between and after the commands."""
    out: list[list[TreeRun]] = [[] for _ in trees]
    pending = range(len(trees))
    before = reference.gauge() if gauged else None
    while pending:
        for i in pending:
            run = run_tree(cli, trees[i], before)
            if gauged:
                before = run.gauges[2]
            out[i].append(run)
        pending = [
            i for i in pending
            if sum(r.total_s for r in out[i]) < repeat_s and not out[i][-1].error
        ]
    return out


def digest(cert: str) -> str:
    return hashlib.sha256(cert.encode()).hexdigest()[:16]


class Ledger:
    """Checks every tree run and keeps the failures."""

    def __init__(self, trees, seed: int) -> None:
        self.trees = trees
        self.rng = random.Random(f"checks:{seed}")
        self.reference: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, one_pass: list[list[TreeRun]]) -> None:
        for i, (tree, runs) in enumerate(zip(self.trees, one_pass)):
            for run in runs:
                first = len(self.reference) == i
                problems = [run.error] if run.error else []
                if not run.error:
                    problems += checks.verdict_problems(tree, run.verdict)
                    if first:
                        problems += checks.certificate_problems(tree, run.cert, self.rng)
                    elif digest(run.cert) != self.reference[i]:
                        problems.append("certificate differs from the first run")
                if first:
                    self.reference.append(digest(run.cert))
                self.attempted += 1
                if problems:
                    self.failures.append(f"{tree.name}: {'; '.join(problems)}")


def measure_setup(args) -> tuple[float, float]:
    """Median seconds to import the program and build the inputs, each trial
    in a fresh interpreter, raw and scaled to reference speed by a gauge
    sampled in that interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_TRIALS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SetupError(f"setup probe failed: {done.stderr.strip()}")
        elapsed, gauge_s = map(float, done.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed / gauge_s * reference.REFERENCE_S)
    return statistics.median(raw), statistics.median(scaled)


def _per_tree(passes, field: str, scaled: bool = True) -> list[float]:
    """Each tree's median time over all its runs; scaled, each run's time is
    first divided by the gauge around it and read at reference speed."""
    return [
        statistics.median(
            run.scaled(field) if scaled else getattr(run, field)
            for one_pass in passes
            for run in one_pass[i]
        )
        for i in range(len(passes[0]))
    ]


def _wall(one_pass) -> float:
    return sum(run.total_s for runs in one_pass for run in runs)


def end_to_end(trees, passes, ledger, setup_s, scaled: bool = True) -> dict[str, float]:
    latency = _per_tree(passes, "total_s", scaled)
    counts = [checks.gate_counts(runs[0].cert) for runs in passes[0]]
    return {
        "setup_s": setup_s,
        "straighten_s": sum(_per_tree(passes, "straighten_s", scaled)),
        "verify_s": sum(_per_tree(passes, "verify_s", scaled)),
        "trees_per_s": len(trees) / sum(latency),
        "tree_p50_s": statistics.median(latency),
        "tree_tail_s": max(latency),
        "cz_count": sum(c["CZ"] for c in counts),
        "gate_count": sum(sum(c.values()) for c in counts),
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (ledger.attempted - len(ledger.failures)) / ledger.attempted,
    }


def per_layer(traced, untraced) -> tuple[dict[str, float], set[str]]:
    absent = set().union(*(tracer.absent() for tracer, _ in traced))
    values = {
        name: 0.0 if name in absent else min(tracer.totals[name] for tracer, _ in traced)
        for name in layers.metric_names()
    }
    values["trace.overhead_s"] = min(wall for _, wall in traced) - min(map(_wall, untraced))
    return values, absent


def environment(args) -> dict:
    import numpy

    try:
        engine = importlib.import_module("tern2jw.engine")
    except ImportError:
        engine = None
    backend = getattr(engine, "backend_name", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "engine": backend() if callable(backend) else "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tree_rows(trees, passes) -> list[dict]:
    straighten_s = _per_tree(passes, "straighten_s")
    verify_s = _per_tree(passes, "verify_s")
    rows = []
    for i, (tree, runs) in enumerate(zip(trees, passes[0])):
        gates = checks.gate_counts(runs[0].cert)
        rows.append({
            "tree": tree.name,
            "m": tree.m,
            "flags": " ".join(tree.flags),
            "cz": gates["CZ"],
            "gates": dict(sorted(gates.items())),
            "straighten_s": straighten_s[i],
            "verify_s": verify_s[i],
            "digest": digest(runs[0].cert),
        })
    return rows


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny trees, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    if args.setup_probe:
        start = time.perf_counter()
        load_program()
        workloads.build(args.workload, args.seed, args.size)
        elapsed = time.perf_counter() - start
        reference.gauge()  # warm the kernel up
        print(elapsed, statistics.median(reference.gauge() for _ in range(SETUP_GAUGE_SAMPLES)))
        return 0

    try:
        cli = load_program()
        setup_raw, setup_s = (0.0, 0.0) if args.trace else measure_setup(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trees = workloads.build(args.workload, args.seed, args.size)
    print("env " + json.dumps(environment(args), sort_keys=True))

    ledger = Ledger(trees, args.seed)
    passes: list[list[TreeRun]] = []  # untraced
    traced: list[tuple[layers.Tracer, float]] = []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < args.seconds
        or len(passes) < MIN_PASSES
        or len(traced) < (MIN_PASSES if args.trace else 0)
    ):
        gc.collect()
        # traced passes run each tree once, so layer totals are per pass;
        # the untraced passes beside them do the same, for the overhead
        passes.append(run_pass(cli, trees, 0.0 if args.trace else REPEAT_S, gauged=True))
        ledger.check(passes[-1])
        if args.trace:
            gc.collect()
            with layers.Tracer() as tracer:
                one_pass = run_pass(cli, trees)
            traced.append((tracer, _wall(one_pass)))
            ledger.check(one_pass)

    for row in tree_rows(trees, passes):
        print("tree " + json.dumps(row))
    for failure in ledger.failures:
        print("fail " + failure)
    print(
        f"summary {args.workload} seed={args.seed} trees={len(trees)} passes={len(passes)}"
        f" traced={len(traced)} latency_samples={len(trees)}"
        f" attempted={ledger.attempted} failed={len(ledger.failures)}"
        f" fail_ratio={len(ledger.failures) / ledger.attempted:.4f}"
        f" gauge_median_s={statistics.median(r.gauges[1] for p in passes for runs in p for r in runs):.6g}"
    )
    if args.trace:
        values, absent = per_layer(traced, passes)
        if absent:
            print("absent " + " ".join(sorted(absent)))
        metrics = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in values.items()}
    else:
        raw = end_to_end(trees, passes, ledger, setup_raw, scaled=False)
        print("raw " + " ".join(f"{k}={v:.6g}" for k, v in raw.items() if k.endswith("_s")))
        values = end_to_end(trees, passes, ledger, setup_s)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
