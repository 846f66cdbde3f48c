"""Every ternary tree shape, and the fork moves between shapes.

A shape is a tree up to qubit names and slot order: a node is the sorted
tuple of its children's shapes, at most three of them, and a bare node is
(). With slot relabels free, a fork move is one step between shapes: the
top node of one branch of a node, if it has at most one child, leaves that
branch (its child, if any, takes its place) and goes to the top of another
slot of the same node, empty or not. This is straighten's CZ(q1, q2) with
the relabels around it. Each move is undone by moving the node back, so
the shape graph is undirected. Test code only.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque

from tern2jw import tree_parse


def size(shape: tuple) -> int:
    return 1 + sum(map(size, shape))


def _node(children) -> tuple:
    """The canonical node over these child shapes: largest first, ties by value."""
    return tuple(sorted(children, key=lambda c: (-size(c), c)))


@functools.cache
def shapes(m: int) -> tuple[tuple, ...]:
    """Every shape on m nodes, each once."""
    found = set()
    for k in range(4):
        for sizes in itertools.product(range(1, m), repeat=k):
            if sum(sizes) == m - 1:
                found.update(_node(c) for c in itertools.product(*map(shapes, sizes)))
    return tuple(sorted(found, key=repr))


def chain(m: int) -> tuple:
    shape = ()
    for _ in range(m - 1):
        shape = (shape,)
    return shape


def closed_form(shape: tuple) -> int:
    """Sum over forks of the fork's subtree size - 1 - its largest branch's size."""
    own = size(shape) - 1 - size(shape[0]) if len(shape) >= 2 else 0
    return own + sum(map(closed_form, shape))


def neighbours(shape: tuple):
    """Every shape one fork move from shape."""
    slots = list(shape) + [None] * (3 - len(shape))
    for i, j in itertools.permutations(range(3), 2):
        top = slots[i]
        if top is None or len(top) > 1:
            continue
        rest = [s for k, s in enumerate(slots) if k not in (i, j)]
        moved = (slots[j],) if slots[j] is not None else ()
        yield _node([c for c in rest + [*top, moved] if c is not None])
    for i, child in enumerate(shape):
        for new in neighbours(child):
            yield _node(shape[:i] + (new,) + shape[i + 1 :])


def chain_distances(m: int) -> dict[tuple, int]:
    """The fewest fork moves from each shape on m nodes to the chain."""
    dist = {chain(m): 0}
    todo = deque(dist)
    while todo:
        shape = todo.popleft()
        for new in neighbours(shape):
            if new not in dist:
                dist[new] = dist[shape] + 1
                todo.append(new)
    return dist


def realize(shape: tuple):
    """The shape as a tree, children on x, y and z in canonical order and
    qubits numbered in preorder."""
    numbers = itertools.count(1)

    def text(node):
        q = next(numbers)
        slots = "".join(f" :{slot} {text(c)}" for slot, c in zip("xyz", node))
        return f"(q{q}{slots})"

    return tree_parse(text(shape))
