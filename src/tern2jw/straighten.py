"""Reduction of any ternary tree to the z-chain by Clifford conjugation.

Two tree surgeries generate everything here. A relabel permutes the three
child slots of one node and costs a fixed single-qubit gate word (H swaps
x and z, S swaps x and y, three-letter words cover the rest). A fork move
conjugates by CZ(q1, q2), where q2 is the x-child of q1 with bare x and y
slots; it detaches q2 from the x-branch and splices it into the y-branch,
shortening x by one node.

Each fork first relabels its largest branch onto y, then drains the other
two branches into it through fork moves and flushes the grown y-branch
onto z with the S, H tail, which turns the fork into plain chain; a node
with one branch only bends it onto z. Every node takes this turn after
all nodes below it, in reversed breadth-first walk order. Straightening a
subtree rewires only slots inside it, so when a node's turn comes its
children, and the node sets and sizes of its branches, are still the
input tree's, and each branch is already a z-chain. After the root's turn
the tree is the z-chain, whose path products are the Jordan-Wigner set
up to qubit renaming and per-generator signs. A node moves only out of a
branch no larger than the one it joins, so the fork subtree holding it
more than doubles from one of its moves to the next: no node moves more
than log2(m) times, and the circuit has at most m*ceil(log2 m) CZ gates
(the heavy-path argument of Sleator and Tarjan).

The surgeries emit op rows (gate code, row a, row b), the engine's form
of a circuit, and the emitted circuit acts on the original wire names.
straighten passes them through a fusing emitter, which keeps one pending
single-qubit Clifford class per wire (engine.single_qubit_classes). At a
CZ each of its wires emits the shortest word N such that its class is N
followed by a diagonal D in {I, S, Z, SDG} and carries D on, since
diagonal gates commute with CZ; a SWAP swaps two pending classes, and
what is pending at the end goes out as shortest words. So the circuit is
the same Clifford up to global phase, with the same CZ and SWAP rows in
the same order and never more single-qubit gates: on a z-spine
caterpillar each tooth's H S H . CZ . S H becomes SDG H . CZ . H, 3 gates
a tooth instead of 5. relabel, fork_move and straighten_fork keep their
canonical words, and the self-check conjugates through the rows as they
are. StraightenResult carries the renaming as the permutation pi (chain
position i holds original qubit pi(i)); with swaps=True one SWAP for each
wire not yet holding its chain letter carries the chain onto wires 1..m
and pi collapses to the identity (map_between aims it at b's PERM).
Signs are tracked exactly by conjugating all 2m+1 generators through the
circuit in one packed batch, the tree's x and z planes at one bit per
generator (_conjugated_images), and matching them against the signed JW
set with certify, which reads their rows in chain order. fix_signs appends
a single-qubit Pauli layer that forces ranks 1..2m positive (rank 2m+1 is
pinned by the conserved total product) and certifies the sign it puts on
each JW generator the same way. verify_transform and oracle_check are one
certificate check, _check, run with the engine's conjugator or the
oracle's dense_conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .clifford import Circuit, Gate, invert_circuit
from .engine import GATE_CODES, N_SINGLE, SINGLE_GATES, single_qubit_classes

# Every op row conjugated here is a Circuit's, which passed its row check,
# or fix_signs' layer of one-qubit gates, so the engine's equal-target scan
# is skipped; perfbench's engine.conjugate_s probe wraps this name.
from .engine import _conjugate_checked as conjugate_inplace
from .engine import encode_gates  # noqa: F401 -- perfbench's engine.encode_s probe binds it
from .oracle import dense_conjugate
from .pauli import check_planes, plane_rows
from .tree import (
    MAX_LETTER_CELLS,  # noqa: F401 -- re-exported, the cap straighten enforces
    TERMINAL,
    XYZ,
    TernaryTree,
    _check_letter_cells,
    _ints,
    _planes,
    _subtree_sizes,
    _walk,
    jw_chain,
    tree_leaves,  # noqa: F401 -- unused here; perfbench's tree.leaves_s probe binds it
)

# Gate words per slot permutation, keyed by (source of new x, of new y,
# of new z). Transpositions are the canonical one- and three-gate words;
# each 3-cycle is the composition of two transpositions, in gate order.
_RELABEL_GATES = {
    ("x", "y", "z"): (),
    ("z", "y", "x"): ("H",),
    ("y", "x", "z"): ("S",),
    ("x", "z", "y"): ("H", "S", "H"),
    ("z", "x", "y"): ("S", "H"),
    ("y", "z", "x"): ("H", "S"),
}

_SLOT = {"x": 0, "y": 1, "z": 2}
_CZ = GATE_CODES["CZ"]


@dataclass(frozen=True)
class Certificate:
    """A claimed tree-to-chain transform: circuit, PERM and SIGNS.

    circuit acts on the original wires, first-listed gate first. The claim
    is that conjugating generator j through the circuit and renaming wire
    permutation[i] to i gives signs[j] times a JW generator, a different
    one for every j. Building one stores PERM and SIGNS as plain ints and
    raises ValueError unless PERM is a permutation of 1..m, the circuit
    spans exactly m wires and SIGNS holds 2m+1 entries of +1 or -1.
    """

    circuit: Circuit
    permutation: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = _ints(self.permutation, "PERM entries must be integers")
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "signs", _ints(self.signs, "SIGNS entries must be +1 or -1"))
        self._check_shape()

    @classmethod
    def _of_ints(cls, circuit: Circuit, permutation: tuple[int, ...], signs: tuple[int, ...]):
        """A certificate whose PERM and SIGNS are already tuples of plain
        ints, as certificate_parse reads them: checked like any other,
        without converting the entries again."""
        cert = cls.__new__(cls)
        for name, value in (("circuit", circuit), ("permutation", permutation), ("signs", signs)):
            object.__setattr__(cert, name, value)
        cert._check_shape()
        return cert

    def _check_shape(self) -> None:
        perm = self.permutation
        m = len(perm)
        if sorted(perm) != list(range(1, m + 1)):
            raise ValueError(f"PERM is not a permutation of 1..{m}")
        if self.circuit.num_qubits != m:
            raise ValueError(f"circuit spans {self.circuit.num_qubits} qubits but PERM lists {m}")
        if len(self.signs) != 2 * m + 1:
            raise ValueError(f"SIGNS lists {len(self.signs)} entries, need {2 * m + 1}")
        bad = set(self.signs) - {1, -1}
        if bad:
            raise ValueError(f"SIGNS entries must be +1 or -1, got {', '.join(map(repr, bad))}")

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits


@dataclass(frozen=True)
class StraightenResult(Certificate):
    """Certificate of one tree-to-chain reduction, with the ranks it hits.

    Generator j lands on the JW generator at rank ranks[j]. signfix, when
    present, is the Pauli layer fix_signs appended; it is already the tail
    of circuit and is kept only as a record of that layer.
    """

    ranks: tuple[int, ...]
    signfix: tuple[Gate, ...] | None = None


# ---------------------------------------------------------------------------
# the two surgeries, on mutable child tables; emit takes one op row
# (gate code, row a, row b) with 0-based target rows


def _emit_relabel(kids, q, key, emit) -> None:
    row = kids[q - 1]
    kids[q - 1] = [row[_SLOT[key[0]]], row[_SLOT[key[1]]], row[_SLOT[key[2]]]]
    for name in _RELABEL_GATES[key]:
        emit((GATE_CODES[name], q - 1, 0))


def _emit_fork_move(kids, q1, emit) -> None:
    x1, y1, z1 = kids[q1 - 1]
    if x1 == TERMINAL:
        raise ValueError(f"fork move at q{q1}: x slot is terminal")
    q2 = x1
    x2, y2, z2 = kids[q2 - 1]
    if x2 != TERMINAL:
        raise ValueError(f"fork move at q{q1}: x slot of q{q2} holds q{x2}")
    if y2 != TERMINAL:
        raise ValueError(f"fork move at q{q1}: y slot of q{q2} holds q{y2}")
    emit((GATE_CODES["CZ"], q1 - 1, q2 - 1))
    kids[q1 - 1] = [z2, q2, z1]
    kids[q2 - 1] = [TERMINAL, TERMINAL, y1]


def _emit_bend(kids, q, emit) -> None:
    """Rotate the one occupied slot of q onto z: H for x, S, H for y."""
    x, y, _ = kids[q - 1]
    if x != TERMINAL:
        _emit_relabel(kids, q, ("z", "y", "x"), emit)
    elif y != TERMINAL:
        _emit_relabel(kids, q, ("z", "x", "y"), emit)


def _emit_straighten_fork(kids, q1, sizes, emit) -> None:
    """Collapse the chains below q1 onto its z slot.

    sizes holds the node counts of q1's x, y and z branches. The largest
    branch is relabeled onto y (ties keep y, then prefer x) and the other
    two are drained into it, one fork move and so one CZ per node; the
    S, H tail then swings y onto z. A node with a single occupied branch
    only gets its bend word.
    """
    sx, sy, sz = sizes
    if (sx > 0) + (sy > 0) + (sz > 0) < 2:
        _emit_bend(kids, q1, emit)
        return
    if sx > sy and sx >= sz:
        _emit_relabel(kids, q1, ("y", "x", "z"), emit)
    elif sz > sy and sz > sx:
        _emit_relabel(kids, q1, ("y", "z", "x"), emit)
    while True:
        x1, _, z1 = kids[q1 - 1]
        if x1 == TERMINAL and z1 == TERMINAL:
            break
        if x1 == TERMINAL:
            _emit_relabel(kids, q1, ("z", "y", "x"), emit)
        # q2 sits on a chain, so it has at most one occupied slot; rotate
        # it onto z before the move (a no-op once q2 has had its own turn)
        _emit_bend(kids, kids[q1 - 1][0], emit)
        _emit_fork_move(kids, q1, emit)
    _emit_relabel(kids, q1, ("z", "x", "y"), emit)


def _check_qubit(t: TernaryTree, q: int) -> None:
    if not 1 <= q <= t.num_qubits:
        raise ValueError(f"unknown qubit q{q} (tree has 1..{t.num_qubits})")


def _surgery(t: TernaryTree, step) -> tuple[Circuit, TernaryTree]:
    """step(kids, emit) run on a copy of t's child table: its op rows as a
    circuit, and the tree the table then describes."""
    kids = [list(row) for row in t.children]
    rows: list[tuple[int, int, int]] = []
    step(kids, rows.append)
    tree = TernaryTree(t.num_qubits, t.root, tuple(map(tuple, kids)))
    return Circuit.from_ops(t.num_qubits, rows), tree


def relabel(
    t: TernaryTree, q: int, perm: Mapping[str, str]
) -> tuple[Circuit, TernaryTree]:
    """Permute the child slots of q; perm maps old label to new label.

    Omitted labels stay put, so {"x": "z", "z": "x"} is the x/z exchange.
    Returns the canonical gate word on q and the relabeled tree.
    """
    _check_qubit(t, q)
    full = {l: perm.get(l, l) for l in XYZ}
    if set(perm) - set(XYZ) or sorted(full.values()) != list(XYZ):
        raise ValueError(f"not a permutation of x, y, z: {perm!r}")
    source = {new: old for old, new in full.items()}
    key = (source["x"], source["y"], source["z"])
    return _surgery(t, lambda kids, emit: _emit_relabel(kids, q, key, emit))


def fork_move(t: TernaryTree, q1: int) -> tuple[Gate, TernaryTree]:
    """One CZ(q1, q2) move of q2 = q1's x-child onto the y-branch.

    Requires q2 to have bare x and y slots. Rewiring: q2's z-subtree takes
    q2's old place on x, q1's old y-subtree reattaches under q2's z, and
    q2 becomes the y-child of q1.
    """
    _check_qubit(t, q1)
    circuit, moved = _surgery(t, lambda kids, emit: _emit_fork_move(kids, q1, emit))
    return circuit.gates[0], moved


def straighten_fork(t: TernaryTree, q1: int) -> tuple[Circuit, TernaryTree]:
    """Collapse everything below q1 onto its z slot.

    Requires chains (no forks) strictly below q1. The largest branch is
    relabeled onto y and the other two are drained into it by fork moves,
    ending with the S, H tail that swings the accumulated y-branch onto z;
    a node with a single occupied branch gets only its bend word (H for x,
    S, H for y). Afterwards q1 carries a single z-chain.
    """
    _check_qubit(t, q1)
    order = _walk(t.children, q1)
    for q in order[1:]:
        if sum(c != TERMINAL for c in t.children[q - 1]) >= 2:
            raise ValueError(f"fork at q{q} below q{q1}")
    size = _subtree_sizes(t.children, order)
    sizes = [size[c] for c in t.children[q1 - 1]]
    return _surgery(t, lambda kids, emit: _emit_straighten_fork(kids, q1, sizes, emit))


# ---------------------------------------------------------------------------
# full reduction


def _emit_subtree(kids, root, emit) -> None:
    """Straighten everything at or below root onto root's z slot: every
    node takes its turn at _emit_straighten_fork after all nodes below it,
    in reversed breadth-first walk order, with its input branch sizes."""
    order = _walk(kids, root)
    size = _subtree_sizes(kids, order)
    for q in reversed(order):
        _emit_straighten_fork(kids, q, [size[c] for c in kids[q - 1]], emit)


def _fusing_emitter(m: int, rows: list[int]):
    """emit and flush for straighten's op rows, appended to rows flat.

    Each wire holds one pending single-qubit class: a single-qubit row
    only updates it. At a CZ each wire first emits the shortest word N
    with pending class N then D, D diagonal, and keeps D, which commutes
    with the CZ; a SWAP swaps the two pending classes. flush() emits what
    is still pending, as shortest words. The circuit is the same Clifford
    up to global phase, with the same CZ and SWAP rows in the same order.
    """
    compose, words, head, carry = single_qubit_classes()
    pending = [0] * m
    extend = rows.extend

    def emit(row) -> None:
        code, a, b = row
        if code < N_SINGLE:
            pending[a] = compose[pending[a]][code]
            return
        if code == _CZ:
            if head[pending[a]] or head[pending[b]]:  # else both carry on as they are
                for w in (a, b):
                    c = pending[w]
                    for g in head[c]:
                        extend((g, w, 0))
                    pending[w] = carry[c]
        else:  # SWAP
            pending[a], pending[b] = pending[b], pending[a]
        extend(row)

    def flush() -> None:
        for w, c in enumerate(pending):
            for g in words[c]:
                extend((g, w, 0))

    return emit, flush


def _conjugated_images(t: TernaryTree, ops: np.ndarray, conjugate) -> tuple[np.ndarray, np.ndarray]:
    """t's generators conjugated through the op rows ops by conjugate (a
    batch conjugator like engine.conjugate_inplace), as packed planes and
    phases, on the original wires: certify reads them in chain order."""
    planes = _planes(t)
    phases = np.zeros(2 * t.num_qubits + 1, dtype=np.uint8)
    conjugate(planes, phases, ops)
    return planes, phases


def _synthesize(t: TernaryTree, target: Sequence[int] | None) -> tuple[Circuit, list[int]]:
    """straighten's circuit and PERM; the emitted rows are freed on return,
    before certification allocates the planes. A target wiring ends it in
    one SWAP per chain position i not yet on wire target[i-1]."""
    m = t.num_qubits
    kids = [list(row) for row in t.children]
    rows: list[int] = []
    emit, flush = _fusing_emitter(m, rows)
    _emit_subtree(kids, t.root, emit)
    chain: list[int] = []
    cur = t.root
    while cur != TERMINAL:
        chain.append(cur)
        cur = kids[cur - 1][2]
    if len(chain) != m:
        raise RuntimeError(f"chain covers {len(chain)} of {m} qubits")
    if target is not None:
        held = {w: i for i, w in enumerate(chain)}  # the chain position on wire w
        for i, w in enumerate(target):
            v = chain[i]
            if v != w:
                emit((GATE_CODES["SWAP"], v - 1, w - 1))
                j = held[w]
                chain[i], chain[j], held[v], held[w] = w, v, j, i
    flush()
    return Circuit.from_ops(m, rows), chain


def _straighten(t: TernaryTree, target: Sequence[int] | None) -> StraightenResult:
    """straighten onto _synthesize's target wiring, certified."""
    _check_letter_cells(t.num_qubits)  # before any synthesis work
    circuit, chain = _synthesize(t, target)
    report = certify(*_conjugated_images(t, circuit.ops, conjugate_inplace), chain)
    if not report.ok:
        raise RuntimeError("conjugated generators left the signed JW set")
    return StraightenResult(
        circuit=circuit,
        permutation=tuple(chain),
        signs=report.signs,
        ranks=report.ranks,
    )


def straighten(t: TernaryTree, swaps: bool = False) -> StraightenResult:
    """Reduce t to the z-chain and certify the reduction.

    Straightens every node once, children first: a fork is drained into
    its largest branch, a lone x-link costs an H and a lone y-link the
    S, H word, and each wire's single-qubit gates between its CZs are
    fused into one shortest word. With swaps=False the chain lives on
    reordered wires and the reordering is reported as the permutation;
    with swaps=True a SWAP network carrying it onto wires 1..m is
    appended and the permutation is the identity.
    """
    return _straighten(t, range(1, t.num_qubits + 1) if swaps else None)


def _jw_product(chosen: np.ndarray) -> np.ndarray:
    """The letters, up to phase, of the product of the JW generators whose
    ranks are flagged in the (2m+1,) bool array chosen: qubit i takes X if
    rank 2i-1 is chosen, Y if rank 2i is, and a Z for each chosen rank
    above 2i, so its code is x ^ 2y ^ 3 * (parity of chosen ranks > 2i)."""
    above = np.cumsum(chosen[::-1])[::-1]  # above[k]: chosen ranks > k
    return chosen[:-1:2] ^ 2 * chosen[1::2] ^ 3 * (above[2::2] & 1)


def fix_signs(r: StraightenResult) -> StraightenResult:
    """Append a Pauli layer to the circuit making every rank up to 2m positive.

    The flipped ranks F (never including 2m+1) are cleared by conjugating
    with the product of the JW generators over F when |F| is even, or over
    the complement {1..2m} minus F when odd; the product is expressed in
    chain coordinates and emitted as one Pauli gate per non-identity
    letter, back on the original wires. Rank 2m+1 ends up flipped exactly
    when |F| is odd: the total product is conserved, so that sign is
    reported rather than forced. The engine conjugates the unsigned JW
    generators through the layer, and certify checks that it puts each
    rank's wanted sign times its current sign on it. Already-positive
    results pass through unchanged.
    """
    m = r.num_qubits
    flipped = [rank for rank, s in zip(r.ranks, r.signs) if s == -1 and rank <= 2 * m]
    if not flipped:
        return r
    chosen = np.zeros(2 * m + 1, dtype=bool)
    chosen[np.asarray(flipped) - 1] = True
    odd = len(flipped) % 2
    if odd:
        chosen[: 2 * m] = ~chosen[: 2 * m]
    correction = _jw_product(chosen)
    sites = np.flatnonzero(correction)
    # the layer's op rows in chain coordinates: letter X, Y, Z -> gate X, Y, Z
    layer = np.zeros((len(sites), 3), dtype=np.int64)
    layer[:, 0] = correction[sites] + (GATE_CODES["X"] - 1)
    layer[:, 1] = sites

    # the chain's column k-1 is rank k, and the layer must put on it the
    # wanted sign times rank k's current one: a flip on 2m+1 when odd
    relative = np.empty(2 * m + 1, dtype=np.int64)
    relative[np.asarray(r.ranks) - 1] = r.signs
    relative[2 * m] = 1 - 2 * odd
    images = _conjugated_images(jw_chain(m), layer, conjugate_inplace)
    report = certify(*images, range(1, m + 1), relative.tolist())
    if not report.ok:
        raise RuntimeError("sign correction failed to clear ranks 1..2m")
    layer[:, 1] = np.asarray(r.permutation)[sites] - 1  # back on the original wires
    circuit = Circuit.from_ops(m, np.concatenate((r.circuit.ops, layer)))
    signs = tuple(s * report.signs[rank - 1] for s, rank in zip(r.signs, r.ranks))
    signfix = tuple(Gate(SINGLE_GATES[code], (q + 1,)) for code, q, _ in layer.tolist())
    return replace(r, circuit=circuit, signs=signs, signfix=signfix)


# ---------------------------------------------------------------------------
# composition of two reductions


@dataclass(frozen=True)
class MapResult:
    """Circuit turning tree a's generators into tree b's, plus both halves.

    result_b is b's plain reduction, and result_a is a's reduction onto
    b's chain wires, so both carry b's permutation. rank_map[j-1] is the
    leaf rank of b whose generator is the image of a's generator j;
    signs[j-1] is the relative sign of that image.
    """

    circuit: Circuit
    result_a: StraightenResult
    result_b: StraightenResult

    @property
    def rank_map(self) -> tuple[int, ...]:
        back = {rank: j for j, rank in enumerate(self.result_b.ranks, start=1)}
        return tuple(back[rank] for rank in self.result_a.ranks)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(
            sa * self.result_b.signs[k - 1]
            for sa, k in zip(self.result_a.signs, self.rank_map)
        )


def map_between(a: TernaryTree, b: TernaryTree) -> MapResult:
    """Compose a's reduction with the inverse of b's.

    b is straightened as usual, and a's reduction ends in one SWAP network
    that carries a's chain straight onto b's chain wires, m - cycles(sigma)
    SWAPs for sigma sending a's chain wire i to b's; so both halves report
    b's PERM and meet in the Jordan-Wigner frame on the same wires. The
    circuit is returned uncancelled; mapping a tree to itself telescopes
    away entirely under peephole_cancel.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    rb = straighten(b)
    ra = _straighten(a, rb.permutation)
    ops = np.concatenate((ra.circuit.ops, invert_circuit(rb.circuit).ops))
    return MapResult(Circuit.from_ops(a.num_qubits, ops), ra, rb)


# ---------------------------------------------------------------------------
# certificates: circuit text plus PERM and SIGNS directives


_SIGN_OF = {"+": 1, "-": -1}  # a SIGNS entry's sign
_SIGN_TEXT = {1: "+", -1: "-"}


def certificate_format(cert: Certificate) -> str:
    """Full certificate text: gates, PERM, SIGNS."""
    from .clifford import circuit_format

    perm = " ".join(map(str, cert.permutation))
    signs = " ".join(map(_SIGN_TEXT.__getitem__, cert.signs))
    return f"{circuit_format(cert.circuit)}PERM {perm}\nSIGNS {signs}\n"


def certificate_parse(text: str, num_qubits: int | None = None) -> Certificate:
    """Parse certificate text; PERM and SIGNS are required.

    With num_qubits given, PERM must list exactly that many qubits. A
    circuit narrower than PERM is widened to it; Certificate checks the
    rest of the shape. PERM gets one ASCII-digits check on its joined
    entries (a signed entry is then checked alone), and SIGNS is read
    through one table.
    """
    from .clifford import _is_index, circuit_parse  # looked up per call: perfbench wraps it

    circuit, found = circuit_parse(text, num_qubits, directives=("PERM", "SIGNS"))
    for name in ("PERM", "SIGNS"):
        if name not in found:
            raise ValueError(f"certificate is missing its {name} line")
    entries = found["PERM"]
    digits = "".join(entries)
    if not (digits.isascii() and digits.isdigit() or all(map(_is_index, entries))):
        raise ValueError(f"bad PERM entries: {' '.join(entries)!r}")
    perm = tuple(map(int, entries))
    m = len(perm)
    if num_qubits is not None and m != num_qubits:
        raise ValueError(f"PERM lists {m} qubits, expected {num_qubits}")
    if circuit.num_qubits > m:
        raise ValueError(
            f"circuit touches qubit {circuit.num_qubits} but PERM lists only {m}"
        )
    try:
        signs = tuple(map(_SIGN_OF.__getitem__, found["SIGNS"]))
    except KeyError:
        bad = [tok for tok in found["SIGNS"] if tok not in _SIGN_OF]
        raise ValueError(f"bad SIGNS entries: {' '.join(bad)!r}") from None
    if circuit.num_qubits != m:
        circuit = Circuit.from_ops(m, circuit.ops)
    return Certificate._of_ints(circuit, perm, signs)


@dataclass(frozen=True)
class TransformReport:
    """Verdicts from matching generator images against signed JW generators.

    results[j] is True when the image of generator j+1 is the declared sign
    times a JW generator whose rank no earlier passing image took. ranks[j]
    and signs[j] are what that image decodes as (both 0 when it is no
    signed JW generator).
    """

    results: tuple[bool, ...]
    ranks: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return all(self.results)

    @property
    def failed_ranks(self) -> tuple[int, ...]:
        """1-based numbers j of the failing generators (printed e{j}), not
        the JW ranks their images decode as."""
        return tuple(j + 1 for j, good in enumerate(self.results) if not good)


_PHASE_SIGN = (1, 0, -1, 0)  # i^k for k mod 4: a sign, or 0 when imaginary


def certify(
    planes: np.ndarray,
    phases: np.ndarray,
    order: Sequence[int],
    signs: Sequence[int] | None = None,
) -> TransformReport:
    """Match generator images, renamed into chain order, against the signed
    JW generators: planes holds their (2m, W) packed x and z planes, one
    column per image, phases their (n,) phase exponents, read mod 4, and
    order a PERM (chain position i holds qubit order[i - 1], whose rows
    plane_rows reads in place). An image decodes as its JW rank and sign,
    or as rank 0 and sign 0 when it is not Z^(k-1) X I..., Z^(k-1) Y I...
    or all Z, or its phase is not a plain sign. Image j passes when it
    decodes with sign signs[j] (any when signs is None) and no earlier
    passing image took its rank: all 2m+1 pass iff the ranks cover 1..2m+1.

    One pass down the rows, each read as one int, keeps the mask of the
    columns whose lead row (the first that is not Z) is not found yet.
    Row i leads the open columns where it is not Z, at rank 2i+1 for X
    and 2i+2 for Y; a lead I, or any letter in a row below the lead,
    fails the column. Columns that never lead are all Z, rank 2m+1.
    The verdicts are then read on Python ints and lists, with no numpy
    call but the one that lists the phases: one pass keeps each rank's
    first image that decodes with its declared sign. results, ranks and
    signs hold Python bools and ints whatever sequence signs is. A call
    takes about 10 us on perfbench's small trees (m 2..6; it was 25 us
    with a numpy tail), 3.3 ms on full_ternary(6) and 0.9 ms on the
    m=400 caterpillar, as before, on a 2-vCPU VM.
    Raises ValueError unless planes are (2m, ceil(n/64)) uint64 words
    with every padding bit clear, order is a permutation of 1..m and
    signs, if given, has n entries.
    """
    m, n = len(planes) // 2, len(phases)
    check_planes(planes, n)
    if sorted(order) != list(range(1, m + 1)):
        raise ValueError(f"order is not a permutation of 1..{m}")
    if signs is not None and len(signs) != n:
        raise ValueError(f"signs lists {len(signs)} entries for {n} images")
    ranks = [2 * m + 1] * n
    open_ = (1 << n) - 1
    bad = 0
    for i, (x, z) in enumerate(plane_rows(planes, order)):
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
    decoded = [_PHASE_SIGN[p & 3] for p in phases.tolist()]
    while bad:  # a column with a misplaced letter decodes as nothing
        low = bad & -bad
        decoded[low.bit_length() - 1] = 0
        bad ^= low
    results = [False] * n
    seen = set()  # the ranks of the images passed so far
    for j, d, s in zip(range(n), decoded, decoded if signs is None else signs):
        if not d:
            ranks[j] = 0
        elif d * s == 1 and ranks[j] not in seen:  # s is the sign d decoded as
            seen.add(ranks[j])
            results[j] = True
    return TransformReport(tuple(results), tuple(ranks), tuple(decoded))


def _check(t: TernaryTree, cert: Certificate, conjugate) -> TransformReport:
    """certify t's generator images under cert, as conjugate computes them;
    cert must span t's qubits (its own shape is checked when it is built)."""
    if cert.num_qubits != t.num_qubits:
        raise ValueError(
            f"certificate spans {cert.num_qubits} qubits but the tree has {t.num_qubits} qubits"
        )
    planes, phases = _conjugated_images(t, cert.circuit.ops, conjugate)
    return certify(planes, phases, cert.permutation, cert.signs)


def verify_transform(t: TernaryTree, cert: Certificate) -> TransformReport:
    """Engine-level check that the certificate maps t onto the JW chain:
    every generator image, renamed through PERM, must decode as its declared
    sign times a JW generator, and the matched ranks must cover 1..2m+1."""
    # looked up per call, so perfbench's engine.conjugate_s probe sees it
    return _check(t, cert, conjugate_inplace)


def oracle_check(t: TernaryTree, cert: Certificate) -> TransformReport:
    """verify_transform with the generator images re-derived by the exact
    oracle from monomial forms alone, through one compiled circuit."""
    return _check(t, cert, dense_conjugate)
