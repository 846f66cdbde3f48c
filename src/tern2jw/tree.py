"""Ternary qubit trees and their anticommuting generator sets.

A tree has m qubit nodes, each carrying three child slots labeled x, y, z;
a slot holds another qubit node or a terminal. A complete tree has exactly
2m+1 terminals, and each root-to-terminal path defines one generator: the
product of one Pauli letter per node on the path, the letter being the slot
label the path leaves through. Any two distinct path products anticommute
(they first differ at their fork node, with different non-identity letters
there, and act on disjoint qubits below it). _leaf_runs lays out their
x and z bits, one run of leaf columns each per qubit; _planes packs the
runs as one batch (the pauli module's x and z planes), which
tree_generators holds and certification conjugates, and
_run_letter_blocks decodes a bounded block of columns at a time.

Canonical leaf order is depth-first with x < y < z. Qubit ids must be
exactly 1..m; they double as tensor positions in the Pauli strings.

Text grammar (whitespace-insensitive):

    tree := "_" | "(" "q" DIGITS [":x" tree] [":y" tree] [":z" tree] ")"

DIGITS are ASCII 0-9. Omitted labels mean terminal; "_" is an explicit
terminal. `#` starts a comment running to the end of the line. The
canonical formatter omits terminals. tree_parse reads its tokens in one
pass and names the first bad token in text order; TernaryTree checks its
links in one walk from the root.
"""

from __future__ import annotations

import operator
import random
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .pauli import (
    WORD,
    PauliString,
    block_words,
    letter_blocks,
    pack_letters,
    plane_rows,
    planes_from_rows,
    unpack_planes,
)

TERMINAL = 0
XYZ = ("x", "y", "z")

# Guard for constructors that could silently build absurd trees.
MAX_QUBITS = 1 << 20
_MAX_DEPTH = 12  # the deepest full_ternary within MAX_QUBITS: (3^13 - 1) / 2 nodes

LeafPath = tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class TernaryTree:
    """Immutable rooted ternary tree; children[q-1] = (x, y, z), 0 = terminal.

    One breadth-first walk from the root checks each node as it is
    reached: its slot count, then each link (in range, not the root, not
    reached before), so it ends; ids it never reaches are unreachable.
    """

    num_qubits: int
    root: int
    children: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        m, root = _ints((self.num_qubits, self.root), "qubit count and root must be integers")
        children = self.children
        if set(map(type, chain.from_iterable(children))) - {int}:  # parsed trees skip this
            children = tuple(_ints(row, "child ids must be integers") for row in children)
        for name, value in (("num_qubits", m), ("root", root), ("children", children)):
            object.__setattr__(self, name, value)
        if m < 1:
            raise ValueError(f"qubit count must be positive, got {m}")
        if len(self.children) != m:
            raise ValueError(f"need {m} child records, got {len(self.children)}")
        if not 1 <= self.root <= m:
            raise ValueError(f"root {self.root} out of range 1..{m}")
        parent, order = {root: 0}, [root]  # the root has no parent
        for q in order:
            slots = children[q - 1]
            if len(slots) != 3:
                raise ValueError(f"qubit {q} has {len(slots)} child slots, need 3 (x, y, z)")
            for c in slots:
                if c == TERMINAL:
                    continue
                if not 1 <= c <= m:
                    raise ValueError(f"qubit {q} links to unknown qubit {c}")
                if c in parent:  # the root is in parent from the start
                    if c == root:
                        raise ValueError(f"root {root} cannot be a child (of {q})")
                    raise ValueError(f"qubit {c} is a child of both {parent[c]} and {q}")
                parent[c] = q
                order.append(c)
        if len(order) != m:
            missing = sorted(set(range(1, m + 1)).difference(order))
            raise ValueError(f"unreachable qubit ids: {missing}")

    def __str__(self) -> str:
        return tree_format(self)


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """The 2m+1 path products in leaf order, phase +1, as read-only planes."""

    planes: np.ndarray

    @property
    def strings(self) -> tuple[PauliString, ...]:
        blocks = letter_blocks(self.planes, len(self))
        return tuple(PauliString(tuple(s)) for block in blocks for s in block.tolist())

    def __len__(self) -> int:
        return len(self.planes) + 1


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of check_generator_set; ok only when every check passed."""

    anticommuting: bool
    anticommute_failures: tuple[tuple[int, int], ...]
    unit_squares: bool
    square_failures: tuple[int, ...]
    product: PauliString
    product_is_identity: bool

    @property
    def ok(self) -> bool:
        return self.anticommuting and self.unit_squares and self.product_is_identity


def _ints(values, what: str) -> tuple[int, ...]:
    """values as plain ints, through operator.index as Gate takes its
    targets; the first value that is no integer raises ValueError."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(type(v), "__index__"))
        raise ValueError(f"{what}, got {bad!r}") from None


# ---------------------------------------------------------------------------
# text codec


# one token per match: a comment, a bracket or terminal, a label, a qubit
# id, or any other non-space character (an error); re compiles it on first
# use, not at import
_TOKEN = r"#[^\n]*|[()_]|:[xyz]|q[0-9]+|\S"


def _positions(text: str) -> list[int]:
    """0-based start of each token of text, for error messages."""
    return [m.start() for m in re.finditer(_TOKEN, text) if m.group()[0] != "#"]


def tree_parse(text: str) -> TernaryTree:
    """Parse the tree grammar; errors carry 1-based character positions.

    `#` starts a comment running to the end of the line, as in circuit
    text. Whitespace between tokens is free. One pass reads the tokens in
    text order, so an error names the first bad token; the check that the
    ids are exactly 1..m follows it.
    """
    tokens = re.findall(_TOKEN, text)
    if "#" in text:
        tokens = [tok for tok in tokens if tok[0] != "#"]
    if not tokens:
        raise ValueError("empty tree text")

    kids: dict[int, list[int]] = {}
    labeled: set[tuple[int, str]] = set()  # (qubit, label) pairs read so far
    stack: list[int] = []
    root = None
    attach: tuple[int, str] | None = None
    i = 0

    def fail(token: int, msg: str) -> ValueError:
        return ValueError(f"{msg} at position {_positions(text)[token] + 1}")

    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            if root is not None and not stack:
                raise fail(i, "trailing content after the root tree")
            if stack and attach is None:
                raise fail(i, "subtree needs a :x/:y/:z label")
            qtok = tokens[i + 1] if i + 1 < len(tokens) else ""
            if qtok[:1] != "q":
                raise fail(i, "expected qubit id after '('")
            if qtok == "q":
                raise fail(i + 1, "expected digits after 'q'")
            qid = int(qtok[1:])
            if qid in kids:
                raise fail(i + 1, f"duplicate qubit id q{qid}")
            kids[qid] = [TERMINAL, TERMINAL, TERMINAL]
            if attach is None:
                root = qid
            else:
                kids[attach[0]][XYZ.index(attach[1])] = qid
                attach = None
            stack.append(qid)
            i += 1  # the id was read with its '('
        elif tok == ")":
            if attach is not None:
                raise fail(i, "label is missing its subtree")
            if not stack:
                raise fail(i, "unbalanced ')'")
            stack.pop()
        elif tok in (":x", ":y", ":z"):
            if attach is not None:
                raise fail(i, "label is missing its subtree")
            if not stack:
                raise fail(i, "label outside a node")
            attach = (stack[-1], tok[1])
            if attach in labeled:
                raise fail(i, f"duplicate label {tok} on q{attach[0]}")
            labeled.add(attach)
        elif tok == "_":
            if attach is None:
                raise fail(i, "terminal '_' needs a :x/:y/:z label")
            attach = None
        elif tok == ":":
            raise fail(i, "expected :x, :y or :z")
        elif tok == "q":
            raise fail(i, "expected digits after 'q'")
        elif tok[0] == "q":  # every id that follows '(' was read with it
            raise fail(i, f"qubit id {tok} must follow '('")
        else:
            raise fail(i, f"unexpected character {tok!r}")
        i += 1
    if stack:
        raise ValueError(f"unclosed '(' for q{stack[-1]}")

    m = len(kids)
    bad = sorted(q for q in kids if not 1 <= q <= m)
    if bad:
        missing = sorted(set(range(1, m + 1)) - set(kids))
        first = next(j for j, tok in enumerate(tokens) if tok[0] == "q" and int(tok[1:]) == bad[0])
        pos = _positions(text)[first] + 1
        raise ValueError(
            f"qubit ids must be exactly 1..{m}: unexpected {bad}, missing {missing}"
            + f" (first offender q{bad[0]} at position {pos})"
        )
    children = tuple(tuple(kids[q]) for q in range(1, m + 1))
    return TernaryTree(m, root, children)


def tree_format(t: TernaryTree) -> str:
    """Canonical text: labels in x, y, z order, terminals omitted."""
    out: list[str] = []
    # explicit stack; emit tokens on the way down, close brackets on the way up
    stack: list[tuple[int, int]] = [(t.root, 0)]
    while stack:
        qid, li = stack[-1]
        if li == 0:
            out.append(f"(q{qid}")
        if li == 3:
            out.append(")")
            stack.pop()
            continue
        stack[-1] = (qid, li + 1)
        child = t.children[qid - 1][li]
        if child != TERMINAL:
            out.append(f" :{XYZ[li]} ")
            stack.append((child, 0))
    return "".join(out)


# ---------------------------------------------------------------------------
# construction


def tree_augment(spec: "TernaryTree | Mapping[int, Mapping[str, int]]") -> TernaryTree:
    """Complete a partially-specified tree; unspecified slots become terminals.

    Accepts an existing TernaryTree (returned unchanged: its slots are
    already all filled) or a mapping {qubit id: {label: child id}}. Ids
    referenced only as children get three terminal slots.
    """
    if isinstance(spec, TernaryTree):
        return spec
    ids = set(spec)
    for links in spec.values():
        for label in links:
            if label not in XYZ:
                raise ValueError(f"unknown child label {label!r}")
        ids.update(links.values())
    if not ids:
        raise ValueError("tree must contain at least one qubit node")
    m = len(ids)
    if ids != set(range(1, m + 1)):
        raise ValueError(f"qubit ids must be exactly 1..{m}, got {sorted(ids)}")
    kids = {q: [TERMINAL, TERMINAL, TERMINAL] for q in ids}
    child_ids = set()
    for q, links in spec.items():
        for label, c in links.items():
            kids[q][XYZ.index(label)] = c
            child_ids.add(c)
    roots = ids - child_ids
    if len(roots) != 1:
        raise ValueError(f"tree must have exactly one root, candidates: {sorted(roots)}")
    children = tuple(tuple(kids[q]) for q in range(1, m + 1))
    return TernaryTree(m, roots.pop(), children)


def _check_qubit_count(m: int) -> None:
    if m < 1:
        raise ValueError(f"qubit count must be positive, got {m}")
    if m > MAX_QUBITS:
        raise ValueError(f"qubit count {m} is over the {MAX_QUBITS} limit")


def jw_chain(m: int) -> TernaryTree:
    """The degenerate z-linked chain: qubit k's z-child is k+1.

    Its canonical generators are the Jordan-Wigner set: rank 2k-1 carries
    Z^(k-1) X at qubit k, rank 2k carries Z^(k-1) Y, and the last rank is
    the all-z product.
    """
    _check_qubit_count(m)
    children = tuple(
        (TERMINAL, TERMINAL, k + 1 if k < m else TERMINAL) for k in range(1, m + 1)
    )
    return TernaryTree(m, 1, children)


def full_ternary(depth: int) -> TernaryTree:
    """Complete ternary tree with qubit nodes on levels 0..depth.

    Every node above the deepest level has three qubit children; ids are
    assigned breadth-first with the root as 1, so m = (3^(depth+1) - 1) / 2.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if depth > _MAX_DEPTH:  # refused before 3^(depth+1) is computed
        raise ValueError(f"depth {depth} puts the qubit count over the {MAX_QUBITS} limit")
    m = (3 ** (depth + 1) - 1) // 2
    internal = (3**depth - 1) // 2  # nodes on levels 0..depth-1
    children = []
    for q in range(1, m + 1):
        if q <= internal:
            children.append((3 * q - 1, 3 * q, 3 * q + 1))
        else:
            children.append((TERMINAL, TERMINAL, TERMINAL))
    return TernaryTree(m, 1, tuple(children))


def random_tree(m: int, seed: int) -> TernaryTree:
    """Random tree grown by attaching each new node to a uniformly chosen
    free slot of the existing ones; deterministic for a fixed seed."""
    _check_qubit_count(m)
    rng = random.Random(seed)
    kids = [[TERMINAL, TERMINAL, TERMINAL] for _ in range(m)]
    free: list[tuple[int, int]] = [(1, 0), (1, 1), (1, 2)]
    for q in range(2, m + 1):
        i = rng.randrange(len(free))
        parent, slot = free[i]
        # swap-pop keeps the choice O(1); the rng consumes one value per node
        free[i] = free[-1]
        free.pop()
        kids[parent - 1][slot] = q
        free.extend(((q, 0), (q, 1), (q, 2)))
    return TernaryTree(m, 1, tuple(tuple(row) for row in kids))


# ---------------------------------------------------------------------------
# leaves and generators


def tree_leaves(t: TernaryTree) -> tuple[LeafPath, ...]:
    """All root-to-terminal paths in canonical depth-first x < y < z order."""
    out: list[LeafPath] = []
    frames: list[tuple[int, int]] = [(t.root, 0)]
    path: list[tuple[int, str]] = []
    while frames:
        qid, li = frames[-1]
        if li == 3:
            frames.pop()
            if path:
                path.pop()
            continue
        frames[-1] = (qid, li + 1)
        child = t.children[qid - 1][li]
        path.append((qid, XYZ[li]))
        if child == TERMINAL:
            out.append(tuple(path))
            path.pop()
        else:
            frames.append((child, 0))
    return tuple(out)


def _walk(kids, root) -> list[int]:
    """The nodes below root, root included, breadth first, so each parent
    comes before its children."""
    order = [root]
    for q in order:
        order.extend(c for c in kids[q - 1] if c != TERMINAL)
    return order


def _subtree_sizes(kids, order) -> list[int]:
    """Node count of every subtree, indexed by qubit id; size[TERMINAL] is 0.

    order lists every node of the tree, each parent before its children.
    """
    size = [0] * (len(kids) + 1)
    for q in reversed(order):
        x, y, z = kids[q - 1]
        size[q] = 1 + size[x] + size[y] + size[z]
    return size


def _leaf_runs(t: TernaryTree) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Per qubit, the leaf columns [lo, hi) where its x bit is set and
    where its z bit is set.

    In canonical leaf order every subtree covers a contiguous run of
    columns, its x, y and z branches one after another. So qubit q's x
    bits (X on its x branch, Y on its y branch) are one run, and so are
    its z bits (its y and z branches), read off the subtree sizes.
    """
    m = t.num_qubits
    _check_letter_cells(m)
    kids = t.children
    order = _walk(kids, t.root)
    size = _subtree_sizes(kids, order)
    x_runs = [(0, 0)] * m
    z_runs = [(0, 0)] * m
    first = [0] * (m + 1)  # first leaf column of each subtree; [0] is scratch
    for q in order:
        cx, cy, cz = kids[q - 1]
        lo = first[q]
        y_lo = lo + 2 * size[cx] + 1
        z_lo = y_lo + 2 * size[cy] + 1
        first[cx], first[cy], first[cz] = lo, y_lo, z_lo
        x_runs[q - 1] = (lo, z_lo)
        z_runs[q - 1] = (y_lo, z_lo + 2 * size[cz] + 1)
    return x_runs, z_runs


def _run_masks(runs):
    """Each leaf run [lo, hi) as an int with bits lo..hi - 1 set."""
    return (((1 << (hi - lo)) - 1) << lo for lo, hi in runs)


def _planes(t: TernaryTree) -> np.ndarray:
    """The path products as one packed batch: (2m, W) x and z planes over
    the 2m+1 leaf columns, phases all 0; one run mask a row."""
    x_runs, z_runs = _leaf_runs(t)
    return planes_from_rows(_run_masks(x_runs + z_runs), 2 * t.num_qubits + 1)


_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=WORD)  # k low bits set


def _run_letter_blocks(runs, n: int):
    """letter_blocks of the n-column planes whose rows are these leaf runs
    (the x runs, then the z runs), built a block of words at a time: each
    word holds its row's run clipped to the word's 64 columns, so the
    whole planes are never held."""
    lo, hi = np.array(runs, dtype=np.int64).T[:, :, None]
    words, width = block_words(len(runs)), -(-n // 64)
    for w in range(0, width, words):
        first = 64 * np.arange(w, min(w + words, width))  # each word's first column
        planes = _LOW_BITS[np.clip(hi - first, 0, 64)] & ~_LOW_BITS[np.clip(lo - first, 0, 64)]
        yield unpack_planes(planes, min(n - 64 * w, 64 * words)).T


# Largest m tree_generators validates. The check's time grows with the
# generators' total weight times n: at m=64 and 600 it takes 0.7 and 11 ms
# on random trees, 1.1 and 90 ms on the JW chain, whose weight is quadratic
# (2-vCPU x86-64 VM), holding n^2/8 bytes of parity rows (0.25 MiB at 600).
VALIDATE_LIMIT = 64


def tree_generators(t: TernaryTree) -> GeneratorSet:
    """All 2m+1 path products in canonical leaf order, as one packed batch.

    Validation (pairwise anticommutation, unit squares, total product a
    phase times identity) runs for m <= VALIDATE_LIMIT only; a failure is
    a library bug and raises RuntimeError. Trees over MAX_LETTER_CELLS
    raise ValueError before the planes are allocated.
    """
    gens = GeneratorSet(_planes(t))
    gens.planes.setflags(write=False)
    if t.num_qubits <= VALIDATE_LIMIT:
        report = check_generator_set(gens)
        if not report.ok:
            raise RuntimeError(f"internal invariant violation: {report}")
    return gens


def _set_bits(mask: int):
    """The positions of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rows_product(rows, n: int, phase: int) -> PauliString:
    """Product in listed order of n strings whose phase exponents sum to
    phase, given as each qubit's x and z rows as two ints (plane_rows'
    form). Per qubit, with x and z its rows and Y = iXZ: i^(x.z) times
    the X^x_j Z^z_j in column order, a sign flip per z bit before an x
    bit, and X^px Z^pz = i^(-px.pz) times (px, pz)."""
    letters = []
    for x, z in rows:
        prefix, shift = z, 1  # inclusive XOR prefix of z along the columns
        while shift < n:
            prefix ^= prefix << shift
            shift <<= 1
        px, pz = x.bit_count() & 1, z.bit_count() & 1
        phase += (x & z).bit_count() + 2 * (x & prefix << 1).bit_count() - px * pz
        letters.append((px ^ pz) | (pz << 1))
    return PauliString(tuple(letters), phase & 3)


def check_generator_set(gens: "GeneratorSet | Iterable[PauliString]") -> ValidationReport:
    """Check the generator-set contract on any list of Pauli strings.

    Reports pairwise anticommutation, squares equal to +identity, and the
    total product in listed order (a complete tree set multiplies to a
    phase times identity; the phase is whatever it is and is reported).
    Strings a and b anticommute where x_a.z_b + z_a.x_b is odd (Aaronson
    and Gottesman): bit b of the XOR of the z rows where a has an x bit
    and the x rows where it has a z bit.

    That is one n-bit XOR per set plane bit, so the time grows as the
    total weight of the strings times their number n: 11 ms for the 1,201
    generators of random_tree(600, 42), but 90 ms at m = 600 and 1.7 s at
    m = 2000 on the JW chain, whose total weight is quadratic in m. Only
    tree_generators bounds it, by running it up to VALIDATE_LIMIT qubits;
    a caller's own list has no bound.
    """
    if isinstance(gens, GeneratorSet):
        planes, phases = gens.planes, [0] * len(gens)
    else:
        strings = tuple(gens)
        if not strings:
            raise ValueError("empty generator list")
        m = strings[0].num_qubits
        for p in strings:
            if p.num_qubits != m:
                raise ValueError(f"size mismatch: {m} vs {p.num_qubits}")
        planes = pack_letters(np.array([p.letters for p in strings], dtype=np.uint8).T)
        phases = [p.phase for p in strings]
    n = len(phases)
    odd = [0] * n  # bit b of odd[a]: x_a.z_b + z_a.x_b is odd
    for x, z in plane_rows(planes):
        for bits, rows in ((x, z), (z, x)):
            for a in _set_bits(bits):
                odd[a] ^= rows
    anti = tuple(  # the pairs a < b whose bit is clear
        (a + 1, b + 1) for a, row in enumerate(odd) for b in _set_bits(~row & (1 << n) - (2 << a))
    )
    squares = tuple(j + 1 for j, phase in enumerate(phases) if phase & 1)
    product = _rows_product(plane_rows(planes), n, sum(phases))
    return ValidationReport(not anti, anti, not squares, squares, product, not any(product.letters))


# Letters allowed in the (m, 2m+1) batch of a tree's generators; 2**28
# admits m up to 11584. No command builds it as a byte letter matrix:
# straighten, verify and map hold packed planes, two bits a letter, 7.7 MiB
# at m=4000 and 64 MiB at the cap, while stats and generators read the leaf
# runs. Tracemalloc peaks on random_tree(m, 42), m=4000 / cap, in MiB:
# straighten 9.7 / 73.2, verify_transform 9.5 / 72.5 (both with the
# engine's 2m row views, about 0.25 MiB at m=4000), fix_signs 10.4 / 75.4;
# whole commands, tree parse included: generators 4.2 / 8.0 (one block of
# columns at a time), stats 2.7 / 9.0.
MAX_LETTER_CELLS = 1 << 28


def _check_letter_cells(m: int) -> None:
    cells = m * (2 * m + 1)
    if cells > MAX_LETTER_CELLS:
        raise ValueError(
            f"m={m} gives a batch of {cells} generator letters, over the cap of"
            f" {MAX_LETTER_CELLS} cells (MAX_LETTER_CELLS)"
        )
