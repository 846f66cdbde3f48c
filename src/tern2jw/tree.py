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
certification conjugates, and _letters_matrix writes the same runs as the
(m, 2m+1) letter matrix that tree_generators holds. jw_decode matches a
packed batch against the Jordan-Wigner generators.

Canonical leaf order is depth-first with x < y < z. Qubit ids must be
exactly 1..m; they double as tensor positions in the Pauli strings.

Text grammar (whitespace-insensitive):

    tree := "_" | "(" "q" DIGITS [":x" tree] [":y" tree] [":z" tree] ")"

DIGITS are ASCII 0-9. Omitted labels mean terminal; "_" is an explicit
terminal. `#` starts a comment running to the end of the line. The
canonical formatter omits terminals.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pauli import PROD_PHASE, PauliString, check_planes, planes_from_rows, xz_bits

TERMINAL = 0
XYZ = ("x", "y", "z")

# Guard for constructors that could silently build absurd trees.
MAX_QUBITS = 1 << 20
_MAX_DEPTH = 12  # the deepest full_ternary within MAX_QUBITS: (3^13 - 1) / 2 nodes

LeafPath = tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class TernaryTree:
    """Immutable rooted ternary tree; children[q-1] = (x, y, z), 0 = terminal."""

    num_qubits: int
    root: int
    children: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        m = self.num_qubits
        if m < 1:
            raise ValueError(f"qubit count must be positive, got {m}")
        if len(self.children) != m:
            raise ValueError(f"need {m} child records, got {len(self.children)}")
        if not 1 <= self.root <= m:
            raise ValueError(f"root {self.root} out of range 1..{m}")
        seen_child: dict[int, int] = {}
        for qid, slots in enumerate(self.children, start=1):
            for c in slots:
                if c == TERMINAL:
                    continue
                if not 1 <= c <= m:
                    raise ValueError(f"qubit {qid} links to unknown qubit {c}")
                if c in seen_child:
                    raise ValueError(f"qubit {c} is a child of both {seen_child[c]} and {qid}")
                if c == self.root:
                    raise ValueError(f"root {self.root} cannot be a child (of {qid})")
                seen_child[c] = qid
        # no node has two parents and the root has none, so the walk ends
        reached = _walk(self.children, self.root)
        if len(reached) != m:
            missing = sorted(set(range(1, m + 1)) - set(reached))
            raise ValueError(f"unreachable qubit ids: {missing}")

    def __str__(self) -> str:
        return tree_format(self)


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """The 2m+1 path products in leaf order: read-only (m, 2m+1) letters, phase +1."""

    letters: np.ndarray

    @property
    def strings(self) -> tuple[PauliString, ...]:
        return tuple(PauliString(tuple(col)) for col in self.letters.T.tolist())

    def __len__(self) -> int:
        return self.letters.shape[1]


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


# ---------------------------------------------------------------------------
# text codec


# one token per match: a comment, a bracket or terminal, a label, a qubit
# id, or any other non-space character (an error); re compiles it on first
# use, not at import
_TOKEN = r"#[^\n]*|[()_]|:[xyz]|q[0-9]+|\S"
_MARKS = ("(", ")", "_", ":x", ":y", ":z")  # every other good token is q + digits


def _tokenize(text: str) -> list[str]:
    """The tokens of tree text, comments dropped; raises at the first
    character no token starts with."""
    tokens = re.findall(_TOKEN, text)
    if "#" in text:
        tokens = [tok for tok in tokens if tok[0] != "#"]
    rest = set(tokens).difference(_MARKS)
    if rest and min(map(len, rest)) == 1:  # a lone character no token starts with
        i, ch = next(
            (i, t) for i, t in zip(_positions(text), tokens) if len(t) == 1 and t not in "()_"
        )
        if ch == ":":
            raise ValueError(f"expected :x, :y or :z at position {i + 1}")
        if ch == "q":
            raise ValueError(f"expected digits after 'q' at position {i + 1}")
        raise ValueError(f"unexpected character {ch!r} at position {i + 1}")
    return tokens


def _positions(text: str) -> list[int]:
    """0-based start of each token of text, for error messages."""
    return [m.start() for m in re.finditer(_TOKEN, text) if m.group()[0] != "#"]


def tree_parse(text: str) -> TernaryTree:
    """Parse the tree grammar; errors carry 1-based character positions.

    `#` starts a comment running to the end of the line, as in circuit
    text. Whitespace between tokens is free.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty tree text")

    kids: dict[int, list[int]] = {}
    first_token: dict[int, int] = {}
    used_labels: dict[int, set[str]] = {}
    stack: list[int] = []
    root = None
    attach: tuple[int, str] | None = None
    i = 0

    def fail(token: int, msg: str) -> ValueError:
        return ValueError(f"{msg} at position {_positions(text)[token] + 1}")

    while i < len(tokens):
        kind = tokens[i][0]
        if kind == "(":
            if root is not None and not stack:
                raise fail(i, "trailing content after the root tree")
            if stack and attach is None:
                raise fail(i, "subtree needs a :x/:y/:z label")
            if i + 1 >= len(tokens) or tokens[i + 1][0] != "q":
                raise fail(i, "expected qubit id after '('")
            qid = int(tokens[i + 1][1:])
            if qid in kids:
                raise fail(i + 1, f"duplicate qubit id q{qid}")
            kids[qid] = [TERMINAL, TERMINAL, TERMINAL]
            first_token[qid] = i + 1
            used_labels[qid] = set()
            if attach is None:
                root = qid
            else:
                parent, label = attach
                kids[parent][XYZ.index(label)] = qid
                attach = None
            stack.append(qid)
            i += 2
        elif kind == "_":
            if attach is None:
                raise fail(i, "terminal '_' needs a :x/:y/:z label")
            attach = None
            i += 1
        elif kind == ":":
            if attach is not None:
                raise fail(i, "label is missing its subtree")
            if not stack:
                raise fail(i, "label outside a node")
            parent, value = stack[-1], tokens[i][1]
            if value in used_labels[parent]:
                raise fail(i, f"duplicate label :{value} on q{parent}")
            used_labels[parent].add(value)
            attach = (parent, value)
            i += 1
        elif kind == "q":  # every id that follows '(' was read with it
            raise fail(i, f"qubit id {tokens[i]} must follow '('")
        else:  # ")"
            if attach is not None:
                raise fail(i, "label is missing its subtree")
            if not stack:
                raise fail(i, "unbalanced ')'")
            stack.pop()
            i += 1
    if stack:
        raise ValueError(f"unclosed '(' for q{stack[-1]}")

    m = len(kids)
    bad = sorted(q for q in kids if not 1 <= q <= m)
    if bad:
        missing = sorted(set(range(1, m + 1)) - set(kids))
        pos = _positions(text)[first_token[bad[0]]] + 1
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
        pair = (qid, XYZ[li])
        if child == TERMINAL:
            path.append(pair)
            out.append(tuple(path))
            path.pop()
        else:
            path.append(pair)
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


def _planes(t: TernaryTree) -> np.ndarray:
    """The path products as one packed batch: (2m, W) x and z planes over
    the 2m+1 leaf columns, phases all 0; one run mask a row."""
    x_runs, z_runs = _leaf_runs(t)
    return planes_from_rows(
        (((1 << (hi - lo)) - 1) << lo for lo, hi in x_runs + z_runs), 2 * t.num_qubits + 1
    )


def _letters_matrix(t: TernaryTree) -> np.ndarray:
    """(m, 2m+1) uint8 letter codes of the path products, one per column:
    the letters of _planes' runs, X where x only, Y where both, Z where z
    only, filled in place so the matrix is the only array of its size."""
    x_runs, z_runs = _leaf_runs(t)
    letters = np.zeros((t.num_qubits, 2 * t.num_qubits + 1), dtype=np.uint8)
    for row, (x_lo, x_hi), (z_lo, z_hi) in zip(letters, x_runs, z_runs):
        row[x_lo:x_hi] = 1
        row[z_lo:z_hi] = 3
        row[max(x_lo, z_lo) : min(x_hi, z_hi)] = 2
    return letters


# Largest m tree_generators validates. The check's (2m+1)^2 matrix product
# takes 0.5 ms at m=64, 2.7 ms at m=128, 69 ms at m=600 (2-vCPU x86-64 VM;
# the pairwise loop before it took 28 ms at m=64), but the float64 matrix is
# 4.3 GB at the MAX_LETTER_CELLS cap, 16 times the letter matrix it checks.
VALIDATE_LIMIT = 64


def tree_generators(t: TernaryTree) -> GeneratorSet:
    """All 2m+1 path products in canonical leaf order, as one letter matrix.

    Validation (pairwise anticommutation, unit squares, total product a
    phase times identity) runs for m <= VALIDATE_LIMIT only; a failure is
    a library bug and raises RuntimeError. Trees over MAX_LETTER_CELLS
    raise ValueError before the matrix is allocated.
    """
    gens = GeneratorSet(_letters_matrix(t))
    gens.letters.setflags(write=False)
    if t.num_qubits <= VALIDATE_LIMIT:
        report = check_generator_set(gens)
        if not report.ok:
            raise RuntimeError(f"internal invariant violation: {report}")
    return gens


def _batch_product(letters: np.ndarray, phase: int) -> PauliString:
    """Product in listed order of a batch whose phase exponents sum to phase:
    per row, the XOR prefix and PROD_PHASE of each prefix and next letter."""
    prefix = np.bitwise_xor.accumulate(letters, axis=1)
    steps = np.asarray(PROD_PHASE, dtype=np.uint8)[prefix[:, :-1], letters[:, 1:]]
    phase += int(steps.sum(dtype=np.int64))
    return PauliString(tuple(prefix[:, -1].tolist()), phase & 3)


def check_generator_set(gens: "GeneratorSet | Iterable[PauliString]") -> ValidationReport:
    """Check the generator-set contract on any list of Pauli strings.

    Reports pairwise anticommutation, squares equal to +identity, and the
    total product in listed order (a complete tree set multiplies to a
    phase times identity; the phase is whatever it is and is reported).
    Pairs anticommute where x_a.z_b + z_a.x_b is odd (Aaronson and
    Gottesman), one product of the stacked x and z planes for all pairs.
    """
    if isinstance(gens, GeneratorSet):
        letters, phases = gens.letters, np.zeros(len(gens), dtype=np.uint8)
    else:
        strings = tuple(gens)
        if not strings:
            raise ValueError("empty generator list")
        m = strings[0].num_qubits
        for p in strings:
            if p.num_qubits != m:
                raise ValueError(f"size mismatch: {m} vs {p.num_qubits}")
        letters = np.array([p.letters for p in strings], dtype=np.uint8).T
        phases = np.array([p.phase for p in strings], dtype=np.uint8)

    x, z = xz_bits(letters)
    # x_a.z_b + z_a.x_b for every pair, exact in float64: entries are at most 2m
    symplectic = np.concatenate((x, z)).T.astype(np.float64) @ np.concatenate((z, x))
    commuting = np.triu(symplectic % 2 == 0, k=1)
    anti_failures = tuple(map(tuple, (np.argwhere(commuting) + 1).tolist()))
    square_failures = tuple((np.flatnonzero(phases & 1) + 1).tolist())
    product = _batch_product(letters, int(phases.sum()))

    return ValidationReport(
        anticommuting=not anti_failures,
        anticommute_failures=anti_failures,
        unit_squares=not square_failures,
        square_failures=square_failures,
        product=product,
        product_is_identity=all(l == 0 for l in product.letters),
    )


# Letters allowed in the (m, 2m+1) batch of a tree's generators; 2**28
# admits m up to 11584. Certification holds that batch as packed x and z
# planes, two bits a letter (64 MiB at the cap), and jw_decode reads their
# rows in PERM order, so no renamed copy is made. The measured tracemalloc
# peak of straighten and of verify_transform is 1.82 and 1.19 MiB for the
# 0.58 MiB planes of full_ternary(6) (its circuit's 5,102 op rows, held as
# Python lists, weigh more than the planes there), 12.9 and 10.5 MiB for
# the 7.7 MiB ones at m=4000, 84 and 76 MiB at the cap (fix_signs: 1.2,
# 10.5 and 75 MiB). tree_generators, and so the generators and stats
# commands, fill the letter matrix in place, one byte a letter, and peak
# just above it: 2.48 MiB for the 2.28 MiB matrix of full_ternary(6),
# 31.3 MiB for 30.5 MiB at m=4000, 258 MiB for 256 MiB at the cap.
MAX_LETTER_CELLS = 1 << 28


def _check_letter_cells(m: int) -> None:
    cells = m * (2 * m + 1)
    if cells > MAX_LETTER_CELLS:
        raise ValueError(
            f"m={m} needs a {cells}-cell letter matrix, over the cap of"
            f" {MAX_LETTER_CELLS} cells (MAX_LETTER_CELLS)"
        )


def jw_decode(
    planes: np.ndarray, phases: np.ndarray, order: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Match each column of a packed batch, its qubits renamed into chain
    order, against the signed JW generators.

    planes holds the batch's (2m, W) x and z planes, one string per
    column, and phases its (n,) phase exponents. order is a PERM: chain
    position i holds qubit order[i - 1], whose rows are read in its place,
    so no renamed copy of the planes is made (range(1, m + 1) reads them
    as they are). Returns int64 (ranks, signs): column j is signs[j] times
    the JW generator at rank ranks[j]. Columns that are not of the form
    Z^(k-1) X I..., Z^(k-1) Y I... or all Z, or whose phase is not a plain
    sign, get rank 0 and sign 0.

    One pass down the rows, each read as one int, keeps the mask of the
    columns whose lead row (the first that is not Z) is not found yet.
    Row i leads the open columns where it is not Z, at rank 2i+1 for X
    and 2i+2 for Y; a lead I, or any letter in a row below the lead,
    fails the column. Columns that never lead are all Z, rank 2m+1. The
    ranks are read off the set bits of the lead masks, each column once.
    Raises ValueError unless planes are (2m, ceil(n/64)) uint64 words
    with every padding bit clear and order is a permutation of 1..m.
    """
    m, n = len(planes) // 2, len(phases)
    check_planes(planes, n)
    if sorted(order) != list(range(1, m + 1)):
        raise ValueError(f"order is not a permutation of 1..{m}")
    step = 8 * planes.shape[1]  # bytes per row
    data = memoryview(np.ascontiguousarray(planes)).cast("B")
    ranks = [2 * m + 1] * n
    open_ = (1 << n) - 1
    bad = 0
    for i, q in enumerate(order):
        x = int.from_bytes(data[(q - 1) * step : q * step], "little")
        z = int.from_bytes(data[(m + q - 1) * step : (m + q) * step], "little")
        bad |= (x | z) & ~open_
        lead = (x | ~z) & open_
        if lead:
            open_ ^= lead
            bad |= lead & ~x
            lead &= x
            while lead:  # one set bit, one column, at a time
                low = lead & -lead
                ranks[low.bit_length() - 1] = 2 * i + 1 + (low & z != 0)
                lead ^= low
    if bad >> n:  # every padding bit lands in bad: no column holds it
        raise ValueError(f"planes set bits past column {n}")
    bad_bits = np.frombuffer(bad.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    ok = (np.unpackbits(bad_bits, count=n, bitorder="little") == 0) & (phases & 1 == 0)
    signs = 1 - phases.astype(np.int64)  # exponent 0 -> +1, 2 -> -1
    return np.where(ok, ranks, 0), np.where(ok, signs, 0)
