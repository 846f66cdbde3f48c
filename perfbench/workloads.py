"""Seeded tree sets for the benchmark workloads.

Trees are built here, not with tern2jw's own generators, so that a change
to the library cannot silently change the inputs it is measured on. Each
tree is handed to the program only as tree text; the structure is kept for
the output checks.

Why each workload exists:

- bushy: six random trees at m=600 and full_ternary(6), with many forks
  and few gates each, so the fork schedule leads straighten, just ahead of
  the engine, while the text layers stay small.
- caterpillar: one z-spine caterpillar at m=400 (a leaf qubit on every x
  slot), whose reduction needs Theta(m^2) fork moves; batch conjugation,
  gate encoding and certificate text dominate and the schedule barely
  matters.
- small: twenty trees with m 2..6 (random, x/y/z chains, caterpillars)
  rotated through plain, --fix-signs and --swaps; per-call overhead, parse
  and the dense oracle dominate.

In every workload the shapes are fixed and the seed renames the qubits,
which moves PERM, the SWAP networks and schedule tie-breaks: freshly drawn
random shapes moved the summed CZ count and times by 5-12% from seed to
seed. Every tree takes at most about two seconds, so that a run of half a
minute holds about ten runs of each. The small trees stop at m=6: the m=7
and m=8 trees, whose dense-oracle time swings most with the host's load,
moved by 25-35% between runs of the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TERMINAL = 0
SLOTS = "xyz"

# Full-size shapes. The tiny variants only exercise the code paths.
BUSHY = {"full": (6, 600, 6), "tiny": (2, 30, 2)}  # random trees, their m, full_ternary depth
CATERPILLAR_M = {"full": 400, "tiny": 20}
SMALL_M = {"full": range(2, 7), "tiny": range(2, 5)}
SMALL_KINDS = ("random", "random", "chain", "caterpillar")
SMALL_FLAGS = ((), ("--fix-signs",), ("--swaps",))

WORKLOADS = ("bushy", "caterpillar", "small")


@dataclass(frozen=True)
class TreeInput:
    """One tree of a workload: its text, structure and straighten flags."""

    name: str
    text: str
    root: int
    kids: tuple[tuple[int, int, int], ...]  # kids[q-1] = (x, y, z); 0 is terminal
    flags: tuple[str, ...] = ()

    @property
    def m(self) -> int:
        return len(self.kids)


def _format(root: int, kids) -> str:
    """Tree text in the canonical grammar, terminals omitted."""
    out: list[str] = []
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        q, slot = stack.pop()
        if slot == 0:
            out.append(f"(q{q}")
        if slot == 3:
            out.append(")")
            continue
        stack.append((q, slot + 1))
        child = kids[q - 1][slot]
        if child != TERMINAL:
            out.append(f" :{SLOTS[slot]} ")
            stack.append((child, 0))
    return "".join(out)


def _random_shape(m: int, rng: random.Random) -> list[list[int]]:
    """Attach each new node to a uniformly chosen free slot (as random_tree)."""
    kids = [[TERMINAL] * 3 for _ in range(m)]
    free = [(1, 0), (1, 1), (1, 2)]
    for q in range(2, m + 1):
        i = rng.randrange(len(free))
        parent, slot = free[i]
        free[i] = free[-1]
        free.pop()
        kids[parent - 1][slot] = q
        free.extend(((q, 0), (q, 1), (q, 2)))
    return kids


def _full_ternary(depth: int) -> list[list[int]]:
    m = (3 ** (depth + 1) - 1) // 2
    internal = (3**depth - 1) // 2
    return [
        [3 * q - 1, 3 * q, 3 * q + 1] if q <= internal else [TERMINAL] * 3
        for q in range(1, m + 1)
    ]


def _chain(m: int, slot: int) -> list[list[int]]:
    kids = [[TERMINAL] * 3 for _ in range(m)]
    for q in range(1, m):
        kids[q - 1][slot] = q + 1
    return kids


def _caterpillar(m: int) -> list[list[int]]:
    """z-spine 1..s with a leaf on each spine node's x slot (the last spine
    node keeps a bare x slot when m is odd)."""
    spine = (m + 1) // 2
    kids = [[TERMINAL] * 3 for _ in range(m)]
    for i in range(1, spine + 1):
        if i < spine:
            kids[i - 1][2] = i + 1
        if spine + i <= m:
            kids[i - 1][0] = spine + i
    return kids


def _tree(name: str, kids: list[list[int]], rng: random.Random | None, flags=()) -> TreeInput:
    """Freeze a shape rooted at 1, renaming qubit ids by rng when given."""
    m = len(kids)
    new = list(range(1, m + 1))
    if rng is not None:
        rng.shuffle(new)
    relabeled: list[tuple[int, int, int]] = [(0, 0, 0)] * m
    for q, row in enumerate(kids, start=1):
        relabeled[new[q - 1] - 1] = tuple(new[c - 1] if c else TERMINAL for c in row)
    return TreeInput(name, _format(new[0], relabeled), new[0], tuple(relabeled), tuple(flags))


def build(workload: str, seed: int, size: str = "full") -> list[TreeInput]:
    """The workload's tree set; the same (workload, seed, size) gives the same trees."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bushy":
        # As for small below: fixed shapes, qubits renamed by the seed.
        count, m, depth = BUSHY[size]
        catalogue = random.Random("bushy-shapes")
        trees = [_tree(f"random-{m}-{i}", _random_shape(m, catalogue), rng) for i in range(count)]
        return trees + [_tree(f"full-ternary-{depth}", _full_ternary(depth), rng)]
    if workload == "caterpillar":
        m = CATERPILLAR_M[size]
        return [_tree(f"caterpillar-{m}", _caterpillar(m), rng)]
    if workload == "small":
        # The shapes come from a fixed catalogue and the seed renames their
        # qubits: a few dozen random shapes vary too much in CZ count and
        # time from seed to seed for the summed counts to stay steady.
        catalogue = random.Random("small-shapes")
        trees = []
        for m in SMALL_M[size]:
            for i, kind in enumerate(SMALL_KINDS):
                if kind == "random":
                    shape = _random_shape(m, catalogue)
                elif kind == "caterpillar":
                    shape = _caterpillar(m)
                else:
                    kind = f"{SLOTS[m % 3]}chain"
                    shape = _chain(m, m % 3)
                # shift the rotation with m so each kind meets every flag
                flags = SMALL_FLAGS[(i + m) % len(SMALL_FLAGS)]
                trees.append(_tree(f"{kind}-{m}-{len(trees)}", shape, rng, flags))
        return trees
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
