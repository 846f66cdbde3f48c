"""The tern2jw names the benchmark under perfbench/ binds must exist.

perfbench's tracer skips a probe whose module or name is gone and reports
its metric as absent, so deleting such a name would pass the library's
own tests; these checks make it fail them.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up while it is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_probe_resolves():
    layers = _load_layers()
    assert layers.PROBES
    for probe in layers.PROBES:
        module = importlib.import_module(probe.module)
        assert hasattr(module, probe.attr), f"{probe.module}.{probe.attr} ({probe.layer})"


def test_checks_imports_resolve():
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tern2jw")
        for alias in node.names
    ]
    assert {name for _, name in names} >= {"circuit_parse", "conjugate_circuit", "PauliString"}
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_conjugate_probe_sees_verify_but_not_the_oracle(monkeypatch):
    # perfbench's engine.conjugate_s probe wraps
    # tern2jw.straighten.conjugate_inplace; a conjugator bound at import
    # (a default argument, say) would hide verify_transform's batch from it
    straighten_mod = importlib.import_module("tern2jw.straighten")
    from tern2jw import oracle_check, random_tree, straighten, verify_transform

    calls = []
    original = straighten_mod.conjugate_inplace

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(straighten_mod, "conjugate_inplace", counting)
    t = random_tree(5, seed=3)
    r = straighten(t)
    assert len(calls) == 1
    assert verify_transform(t, r).ok
    assert len(calls) == 2
    assert oracle_check(t, r).ok
    assert len(calls) == 2
