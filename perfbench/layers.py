"""Per-layer spans for the traced run.

The tracer replaces the public cross-module names each caller binds with
timing wrappers, and puts the originals back afterwards. A layer's time is
self time: its span minus the spans of the wrapped calls made inside it.
Counts are computed from each call's arguments and result, outside every
span, so counting shows up as trace overhead rather than in a layer.

A probe whose module or name no longer exists is skipped, and a counter
that no longer fits its call stops counting; the metrics they feed are
then reported as absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

CountFn = Callable[[dict, tuple, object], None]


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str
    layer: str  # self-time metric
    counts: tuple[str, ...] = ()  # count metrics that counter fills
    counter: CountFn | None = None  # (totals, args, result), called after the span


def _count_circuit(acc, args, result) -> None:
    for g in result.circuit.gates:
        if g.kind == "CZ":
            acc["straighten.fork_moves"] += 1
        elif g.kind == "SWAP":
            acc["straighten.swap_gates"] += 1
        else:
            acc["straighten.relabel_gates"] += 1


def _count_signfix(acc, args, result) -> None:
    acc["straighten.signfix_gates"] += len(result.signfix or ())


def _count_engine(acc, args, result) -> None:
    letters, phases, ops = args[:3]
    acc["engine.ops"] += len(ops)
    acc["engine.cells"] += len(ops) * letters.shape[1]
    acc["engine.matrix_bytes"] = max(
        acc["engine.matrix_bytes"], letters.nbytes + phases.nbytes
    )


def _count_parsed(acc, args, result) -> None:
    acc["clifford.gates_parsed"] += len(result[0].gates)


def _count_tree_parse(acc, args, result) -> None:
    acc["tree.parse_calls"] += 1


def _count_oracle(acc, args, result) -> None:
    tree, cert = args[:2]
    gates = len(cert.circuit.gates) + len(getattr(cert, "signfix", None) or ())
    acc["oracle.gate_applications"] += (2 * tree.num_qubits + 1) * gates


PROBES = (
    Probe("tern2jw.cli", "run_cli", "cli.self_s"),
    Probe("tern2jw.cli", "tree_parse", "tree.parse_s", ("tree.parse_calls",), _count_tree_parse),
    Probe(
        "tern2jw.cli",
        "straighten",
        "straighten.synth_self_s",
        ("straighten.fork_moves", "straighten.relabel_gates", "straighten.swap_gates"),
        _count_circuit,
    ),
    Probe("tern2jw.cli", "fix_signs", "straighten.fix_signs_s", ("straighten.signfix_gates",), _count_signfix),
    Probe("tern2jw.cli", "certificate_format", "clifford.format_s"),
    Probe("tern2jw.cli", "certificate_parse", "clifford.parse_s"),
    Probe("tern2jw.cli", "verify_transform", "straighten.verify_self_s"),
    Probe("tern2jw.cli", "oracle_check", "oracle.check_s", ("oracle.gate_applications",), _count_oracle),
    Probe("tern2jw.straighten", "encode_gates", "engine.encode_s"),
    Probe(
        "tern2jw.straighten",
        "conjugate_inplace",
        "engine.conjugate_s",
        ("engine.ops", "engine.cells", "engine.matrix_bytes"),
        _count_engine,
    ),
    Probe("tern2jw.straighten", "tree_leaves", "tree.leaves_s"),
    # imported at call time inside their callers, so wrapped where they live
    Probe("tern2jw.clifford", "circuit_format", "clifford.format_s"),
    Probe("tern2jw.clifford", "circuit_parse", "clifford.parse_s", ("clifford.gates_parsed",), _count_parsed),
    Probe("tern2jw.tree", "tree_generators", "tree.generators_s"),
)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def metric_names(probes=PROBES) -> list[str]:
    names: list[str] = []
    for p in probes:
        for name in (p.layer, *p.counts):
            if name not in names:
                names.append(name)
    return names


class Tracer:
    """Wraps the probes' names while installed and sums one pass's layers."""

    def __init__(self, probes=PROBES) -> None:
        self.probes = probes
        self.totals: dict[str, float] = defaultdict(float)
        self.fed: set[str] = set()  # metrics with at least one working probe
        self.broken: set[str] = set()  # metrics whose counter failed
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for probe in self.probes:
            try:
                module = importlib.import_module(probe.module)
                original = getattr(module, probe.attr)
            except (ImportError, AttributeError):
                continue
            setattr(module, probe.attr, self._wrap(probe, original))
            self._saved.append((module, probe.attr, original))
            self.fed.update((probe.layer, *probe.counts))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, probe: Probe, fn):
        totals, stack = self.totals, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                totals[probe.layer] += time.perf_counter() - start - stack.pop()
                if done and probe.counter is not None:
                    self._count(probe, args, result)
                if stack:
                    stack[-1] += time.perf_counter() - start
            return result

        return wrapper

    def _count(self, probe: Probe, args: tuple, result) -> None:
        if self.broken.issuperset(probe.counts):
            return
        try:
            probe.counter(self.totals, args, result)
        except (AttributeError, TypeError, IndexError, ValueError):
            self.broken.update(probe.counts)

    def absent(self) -> set[str]:
        """Metrics this pass could not measure."""
        return (set(metric_names(self.probes)) - self.fed) | self.broken
