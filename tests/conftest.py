import sys

import pytest

from tern2jw import TernaryTree, straighten, tree_augment, tree_parse
from tern2jw.tree import TERMINAL

# 7-qubit triple fork: two-node branches on all three slots of the root
TRIPLE_FORK = "(q1 :x (q2 :z (q3)) :y (q4 :z (q5)) :z (q6 :z (q7)))"

# 3-qubit augmented binary tree: x and y children, bare z
BINARY3 = "(q1 :x (q2) :y (q3))"


@pytest.fixture
def triple_fork():
    return tree_parse(TRIPLE_FORK)


@pytest.fixture
def binary3():
    return tree_parse(BINARY3)


def comb(teeth, spine="z", tooth="x", length=1):
    """A spine of `teeth` nodes linked on slot `spine`, each carrying a chain
    of `length` nodes linked on slot `tooth`. length 0 is a plain chain and
    length 1 a caterpillar; m = teeth * (1 + length)."""
    assert spine != tooth
    spec = {q: {} for q in range(1, teeth + 1)}
    for q in range(1, teeth):
        spec[q][spine] = q + 1
    fresh = teeth + 1
    for q in range(1, teeth + 1):
        parent = q
        for _ in range(length):
            spec.setdefault(parent, {})[tooth] = fresh
            parent, fresh = fresh, fresh + 1
    return tree_augment(spec)


def rename(t, ids):
    """t with qubit q renamed ids[q-1]."""
    new = [TERMINAL, *ids]
    children = [None] * t.num_qubits
    for q, row in enumerate(t.children, start=1):
        children[new[q] - 1] = tuple(new[c] for c in row)
    return TernaryTree(t.num_qubits, new[t.root], tuple(children))


def unfused(t, swaps=False):
    """straighten(t, swaps) with every surgery's gate word kept as emitted:
    the raw children-first rows, then the SWAP network, certified as usual."""
    module = sys.modules["tern2jw.straighten"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_fusing_emitter", lambda m, rows: (rows.extend, lambda: None))
        return straighten(t, swaps)
