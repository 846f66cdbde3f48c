"""The package must run on its declared numpy floor, 1.24.

CI lists a numpy 1.24 entry, but a run on the newest numpy never meets a
name that 1.24 lacks. So the source is read here, not run: no module under
src/tern2jw may reach a numpy name added after 1.24, through `np.name`, a
deeper `np.sub.name` or `from numpy import name`.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tern2jw").glob("*.py"))

# numpy namespace names that numpy 1.24 does not have (added in 1.25 or
# 2.x, or, like bool, long and ulong, removed before 1.24 and added back in
# 2.0), with the array attribute mT
NEWER = {
    "astype": "2.1",
    "bitwise_count": "2.0",
    "concat": "2.0",
    "unstack": "2.1",
    "cumulative_sum": "2.1",
    "cumulative_prod": "2.1",
    "permute_dims": "2.0",
    "isdtype": "2.0",
    "matrix_transpose": "2.0",
    "vecdot": "2.0",
    "matvec": "2.2",
    "vecmat": "2.2",
    "unique_all": "2.0",
    "unique_counts": "2.0",
    "unique_inverse": "2.0",
    "unique_values": "2.0",
    "bitwise_left_shift": "2.0",
    "bitwise_right_shift": "2.0",
    "bitwise_invert": "2.0",
    "pow": "2.0",
    "acos": "2.0",
    "asin": "2.0",
    "atan": "2.0",
    "atan2": "2.0",
    "acosh": "2.0",
    "asinh": "2.0",
    "atanh": "2.0",
    "trapezoid": "2.0",
    "bool": "2.0",
    "long": "2.0",
    "ulong": "2.0",
    "strings": "2.0",
    "dtypes": "1.25",
    "exceptions": "1.25",
    "mT": "2.0",
}


def _numpy_uses(tree):
    """(line, name) for every name the module reaches in numpy: each
    attribute read off a name bound to numpy or to a numpy submodule,
    each name imported from numpy, and every .mT attribute."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name.split(".")[0] == "numpy")
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            uses.extend((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases or node.attr == "mT":
                uses.append((node.lineno, node.attr))
    return uses


def test_declared_floor_is_the_one_checked():
    assert re.search(r'"numpy>=1\.24"', (ROOT / "pyproject.toml").read_text())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_name_newer_than_the_floor(path):
    found = [
        f"{path.name}:{line} numpy.{name} (numpy {NEWER[name]})"
        for line, name in _numpy_uses(ast.parse(path.read_text()))
        if name in NEWER
    ]
    assert not found, found


def test_the_scan_sees_every_form_of_use():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import concat\n"
        "a = np.bitwise_count(x)\n"
        "b = numpy.astype(x, int)\n"
        "c = np.linalg.isdtype\n"
        "d = x.mT\n"
        "e = np.unpackbits(x)\n"
        "f = other.concat\n"
    )
    names = [name for _, name in _numpy_uses(ast.parse(source)) if name in NEWER]
    assert sorted(names) == ["astype", "bitwise_count", "concat", "isdtype", "mT"]
