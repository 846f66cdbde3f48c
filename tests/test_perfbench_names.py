"""The tern2jw names the benchmark under perfbench/ binds must exist.

perfbench's tracer skips a probe whose module or name is gone and reports
its metric as absent, so deleting such a name would pass the library's
own tests; these checks make it fail them.
"""

import ast
import collections
import importlib
import importlib.util
import sys
from dataclasses import replace
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
    from tern2jw import fix_signs, oracle_check, random_tree, straighten, verify_transform

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
    # fix_signs conjugates the chain's generators through its layer in one
    # call the probe sees too
    j = r.ranks.index(1)
    fixed = fix_signs(replace(r, signs=r.signs[:j] + (-r.signs[j],) + r.signs[j + 1 :]))
    assert fixed.signfix and len(calls) == 3
    # the probe's counter reads its call's batch and ops; a batch it could
    # not read would mark engine.ops, engine.cells and engine.matrix_bytes
    # absent in a traced run
    count_engine = _load_layers()._count_engine
    totals = collections.defaultdict(float)
    for args in calls:
        count_engine(totals, args, None)
    assert totals["engine.ops"] == 2 * len(r.circuit.ops) + len(fixed.signfix)
    assert totals["engine.cells"] > 0 and totals["engine.matrix_bytes"] > 0
    layer = collections.defaultdict(float)
    count_engine(layer, calls[2], None)
    width = -(-(2 * t.num_qubits + 1) // 64)  # words a plane row
    assert layer["engine.ops"] == len(fixed.signfix)
    assert layer["engine.cells"] == len(fixed.signfix) * width
    assert layer["engine.matrix_bytes"] == 2 * t.num_qubits * width * 8 + 2 * t.num_qubits + 1


def test_text_probes_see_the_certificate_codec(monkeypatch):
    # perfbench's clifford.parse_s, clifford.gates_parsed and
    # clifford.format_s probes wrap tern2jw.clifford.circuit_parse and
    # circuit_format; a certificate codec that bound them at import, or
    # called a private helper instead, would empty those layers
    clifford = importlib.import_module("tern2jw.clifford")
    from tern2jw import certificate_format, certificate_parse, random_tree, straighten

    calls = []
    for name in ("circuit_parse", "circuit_format"):
        original = getattr(clifford, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls.append((_name, result))
            return result

        monkeypatch.setattr(clifford, name, counting)
    r = straighten(random_tree(6, seed=3))
    text = certificate_format(r)
    assert [name for name, _ in calls] == ["circuit_format"]
    assert certificate_parse(text, 6).circuit == r.circuit
    assert [name for name, _ in calls] == ["circuit_format", "circuit_parse"]
    # the gates_parsed counter reads the parse's result
    totals = collections.defaultdict(float)
    _load_layers()._count_parsed(totals, (text,), calls[1][1])
    assert totals["clifford.gates_parsed"] == len(r.circuit) > 0


def test_straighten_imports_nothing_unused_but_probe_targets():
    # straighten.py imports encode_gates and tree_leaves only so that the
    # engine.encode_s and tree.leaves_s probes can wrap them there; once a
    # probe is gone, its import is dead and this names it
    source = Path(importlib.import_module("tern2jw.straighten").__file__).read_text()
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    probed = {p.attr for p in _load_layers().PROBES if p.module == "tern2jw.straighten"}
    stale = sorted(imported - used - probed - {"MAX_LETTER_CELLS"})  # re-exported
    assert not stale, f"tern2jw/straighten.py imports {stale} for no use and no probe: delete them"


def _annotation_names(tree):
    """Names read inside the string annotations of a module, such as
    "TernaryTree | Mapping[int, Mapping[str, int]]"."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        else:
            continue
        for ann in filter(None, annotations):
            for text in ast.walk(ann):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    for name in ast.walk(ast.parse(text.value, mode="eval")):
                        if isinstance(name, ast.Name):
                            yield name.id


def test_no_module_imports_anything_unused_but_probe_targets():
    # every module of the package: a name it imports must be used (string
    # annotations count), bound by a perfbench probe on that module, or
    # re-exported (listed in its __all__, or straighten's MAX_LETTER_CELLS)
    package = Path(importlib.import_module("tern2jw").__file__).parent
    probes = _load_layers().PROBES
    stale = {}
    for path in sorted(package.glob("*.py")):
        module = "tern2jw" if path.stem == "__init__" else f"tern2jw.{path.stem}"
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_annotation_names(tree))
        exported = {"MAX_LETTER_CELLS"} if module == "tern2jw.straighten" else set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        probed = {p.attr for p in probes if p.module == module}
        names = sorted(imported - used - probed - exported)
        if names:
            stale[path.name] = names
    assert not stale, f"tern2jw modules import names for no use and no probe: {stale}"
