"""Ternary qubit trees and their anticommuting generator sets.

A tree has m qubit nodes, each carrying three child slots labeled x, y, z;
a slot holds another qubit node or a terminal. A complete tree has exactly
2m+1 terminals, and each root-to-terminal path defines one generator: the
product of one Pauli letter per node on the path, the letter being the slot
label the path leaves through. Any two distinct path products anticommute
(they first differ at their fork node, with different non-identity letters
there, and act on disjoint qubits below it); tree_generators holds them as
the columns of one (m, 2m+1) letter matrix.

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
from typing import Iterable, Mapping

import numpy as np

from .engine import xz_planes
from .pauli import PROD_PHASE, PauliString

TERMINAL = 0
XYZ = ("x", "y", "z")
_LABEL_CODE = {"x": 1, "y": 2, "z": 3}

# Guard for constructors that could silently build absurd trees.
MAX_QUBITS = 1 << 20

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
        else:  # ")", or a qubit id out of place
            if attach is not None:
                raise fail(i, "label is missing its subtree")
            if not stack:
                raise fail(i, "unbalanced ')'")
            stack.pop()
            i += 1
    if stack:
        raise ValueError(f"unclosed '(' for q{stack[-1]}")
    if root is None:
        raise ValueError("tree must contain at least one qubit node")

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


def jw_chain(m: int) -> TernaryTree:
    """The degenerate z-linked chain: qubit k's z-child is k+1.

    Its canonical generators are the Jordan-Wigner set: rank 2k-1 carries
    Z^(k-1) X at qubit k, rank 2k carries Z^(k-1) Y, and the last rank is
    the all-z product.
    """
    if m < 1:
        raise ValueError(f"qubit count must be positive, got {m}")
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
    m = (3 ** (depth + 1) - 1) // 2
    if m > MAX_QUBITS:
        raise ValueError(f"depth {depth} needs {m} qubits, over the {MAX_QUBITS} limit")
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
    if m < 1:
        raise ValueError(f"qubit count must be positive, got {m}")
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


def path_product(t: TernaryTree, path: LeafPath) -> PauliString:
    """Product of one Pauli letter per path node; the path must be valid."""
    if not path:
        raise ValueError("empty leaf path")
    letters = [0] * t.num_qubits
    expect = t.root
    for step, (qid, label) in enumerate(path):
        if label not in _LABEL_CODE:
            raise ValueError(f"unknown label {label!r} in path step {step + 1}")
        if qid != expect:
            raise ValueError(f"path step {step + 1} visits q{qid}, expected q{expect}")
        letters[qid - 1] = _LABEL_CODE[label]
        expect = t.children[qid - 1][XYZ.index(label)]
    if expect != TERMINAL:
        raise ValueError(f"path stops at qubit node q{expect}, not a terminal")
    return PauliString(tuple(letters))


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


def _letters_matrix(t: TernaryTree) -> np.ndarray:
    """(m, 2m+1) uint8 letter codes of the path products, one per column.

    In canonical leaf order every subtree covers a contiguous run of
    columns, its x, y and z branches one after another, so each row is
    three slice fills: x (1), y (2) and z (3) over the branches' leaves.
    """
    m = t.num_qubits
    _check_letter_cells(m)
    kids = t.children
    order = _walk(kids, t.root)
    size = _subtree_sizes(kids, order)
    letters = np.zeros((m, 2 * m + 1), dtype=np.uint8)
    first = [0] * (m + 1)  # first leaf column of each subtree; [0] is scratch
    for q in order:
        row = letters[q - 1]
        lo = first[q]
        for code, c in enumerate(kids[q - 1], start=1):
            hi = lo + 2 * size[c] + 1
            row[lo:hi] = code
            first[c] = lo
            lo = hi
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

    x, z = xz_planes(letters)
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


def jw_generator(m: int, rank: int) -> PauliString:
    """The Jordan-Wigner generator at a canonical leaf rank (1..2m+1)."""
    if not 1 <= rank <= 2 * m + 1:
        raise IndexError(f"rank {rank} out of range 1..{2 * m + 1}")
    if rank == 2 * m + 1:
        return PauliString((3,) * m)
    k = (rank + 1) // 2
    letters = [3] * (k - 1) + [1 if rank % 2 else 2] + [0] * (m - k)
    return PauliString(tuple(letters))


# Cells (one byte each) allowed in the (m, 2m+1) letter matrix that
# certification conjugates; 2**28 admits m up to 11584. The measured
# tracemalloc peak of straighten and verify_transform is about 3.1x the
# matrix (7.0-7.6 MiB for the 2.28 MiB matrix of full_ternary(6), 92-95 MiB
# for the 30.5 MiB one at m=4000), because jw_decode holds three full-size
# arrays at once: the renamed matrix, its non-Z mask and argmax's axis-0
# copy. At the cap that is about 0.8 GiB.
MAX_LETTER_CELLS = 1 << 28


def _check_letter_cells(m: int) -> None:
    cells = m * (2 * m + 1)
    if cells > MAX_LETTER_CELLS:
        raise ValueError(
            f"m={m} needs a {cells}-cell letter matrix, over the cap of"
            f" {MAX_LETTER_CELLS} cells (MAX_LETTER_CELLS)"
        )


def jw_decode(letters: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Match each column of a letter batch against the signed JW generators.

    letters is a (m, n) array of letter codes, one string per column, and
    phases its (n,) phase exponents. Returns int64 (ranks, signs): column j
    is signs[j] times the JW generator at rank ranks[j]. Columns that are
    not of the form Z^(k-1) X I..., Z^(k-1) Y I... or all Z, or whose phase
    is not a plain sign, get rank 0 and sign 0.
    """
    m, n = letters.shape
    non_z = letters != 3
    lead = non_z.argmax(axis=0)  # first non-Z row; 0 when all Z
    has_lead = non_z.any(axis=0)
    lead_letter = letters[lead, np.arange(n)]
    support = (letters != 0).sum(axis=0)
    # valid X/Y columns look like Z^lead, letter, I^(m-lead-1)
    xy_ok = has_lead & ((lead_letter == 1) | (lead_letter == 2)) & (support == lead + 1)
    ok = (xy_ok | ~has_lead) & ((phases == 0) | (phases == 2))
    ranks = np.where(
        ~has_lead, 2 * m + 1, 2 * (lead + 1) - (lead_letter == 1).astype(np.int64)
    )
    signs = 1 - phases.astype(np.int64)  # exponent 0 -> +1, 2 -> -1
    return np.where(ok, ranks, 0), np.where(ok, signs, 0)


def jw_match(p: PauliString) -> tuple[int, int] | None:
    """Decode a string as sign * (JW generator): (rank, sign), or None.

    Matches Z^(k-1) X I... (rank 2k-1), Z^(k-1) Y I... (rank 2k) and the
    all-z product (rank 2m+1); the phase must be a plain sign.
    """
    ranks, signs = jw_decode(
        np.array(p.letters, dtype=np.uint8)[:, None], np.array([p.phase], dtype=np.uint8)
    )
    rank, sign = int(ranks[0]), int(signs[0])
    return (rank, sign) if rank else None
