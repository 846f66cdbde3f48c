"""Clifford conjugation of packed batches of Pauli strings.

A batch is n Pauli strings held as packed x and z planes (the pauli
module's layout: one uint64 array of 2m rows of ceil(n / 64) words, qubit
q's x bits in row q - 1 and its z bits in row m + q - 1, one bit per
string) with an (n,) uint8 row of phase exponents. conjugate_inplace holds
every gate's action on whole rows of the x and z planes as a few AND, XOR
and NOT operations, with the sign rules of Aaronson and Gottesman
(quant-ph/0406196): each flip adds 2 to the phase exponent. It takes the
caller's 2m plane rows as a list of 1-D views once per call, and every rule
updates its rows through them with in-place operators, a few numpy row
operations per gate: H and SWAP swap row contents by three XORs, so the
planes are never copied and no row permutation is left to undo. The flips
are gathered in one packed row and added to the phases once. The rules act
on 64 strings per word and never set a padding bit, since every flip and
every update ANDs or XORs rows whose padding is zero. One string
(clifford.conjugate_circuit) is a one-column batch. The int32 (L, 3) op
array it reads is the only stored form of a circuit (clifford.Circuit.ops);
encode_gates builds one from (kind, targets) pairs, checking kinds and
each gate's integer 1-based targets, so conjugate_inplace refuses a pair
row whose two targets are equal (a SWAP of a row with itself would clear
it) before any gate acts. _conjugate_checked skips that scan, for rows
the library knows are sound: a Circuit's, which passed its row check.

single_qubit_classes derives the 24 single-qubit Clifford classes (up to
phase) from the same rules, by conjugating a one-qubit batch of X, Y and
Z: which gate takes each class to which, the shortest word of each, and
each class split as a word followed by a diagonal gate in {I, S, Z, SDG}.

The test suite re-derives every rule from the exact oracle for every
letter, letter pair and phase, in batches whose width is no multiple of 64:
acceptance criterion 8 one gate per batch, test_engine one batch per gate,
test_clifford through one-gate circuits.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .pauli import check_planes

SINGLE_GATES = ("H", "S", "SDG", "X", "Y", "Z")
PAIR_GATES = ("CZ", "CX", "SWAP")
GATE_CODES = {name: i for i, name in enumerate(SINGLE_GATES + PAIR_GATES)}
N_SINGLE = len(SINGLE_GATES)
_H, _S, _SDG, _X, _Y, _Z, _CZ, _CX, _SWAP = range(len(GATE_CODES))
_BLOCK = 1024  # op rows conjugate_inplace turns into Python ints at once


def encode_gates(gates) -> np.ndarray:
    """Encode (kind, targets) gate pairs as the int32 (L, 3) op array.

    An unknown kind, a target count other than the kind's, a target that
    is not an integer or one below 1 raises ValueError naming the gate's
    index; other rules, such as distinct pair targets, are left to
    conjugate_inplace.
    """
    ops = np.zeros((len(gates), 3), dtype=np.int32)
    for i, (kind, targets) in enumerate(gates):
        code = GATE_CODES.get(kind)
        if code is None:
            raise ValueError(f"gate {i}: unknown gate kind {kind!r}")
        want = 1 if code < N_SINGLE else 2
        if len(targets) != want:
            raise ValueError(f"gate {i}: {kind} takes {want} target(s), got {targets}")
        try:
            rows = [operator.index(t) - 1 for t in targets]
        except TypeError:
            raise ValueError(f"gate {i}: {kind} targets must be integers, got {targets}") from None
        a, b = rows[0], rows[1] if want == 2 else 0
        if a < 0 or b < 0:
            raise ValueError(f"gate {i}: {kind} targets must be 1-based positive, got {targets}")
        ops[i] = code, a, b
    return ops


def conjugate_inplace(planes: np.ndarray, phases: np.ndarray, ops: np.ndarray) -> None:
    """Conjugate the packed batch through the encoded ops, in place.

    planes: uint64 (2m, W), the x plane over the z plane; phases: uint8
    (n,) with exponents mod 4; ops: int32 (L, 3) rows (gate code, row a,
    row b); b is ignored for single-qubit codes, and for CX a is the
    control. Gates act in listed order. A pair row with a == b raises
    ValueError before any gate acts.
    """
    same = (ops[:, 0] >= N_SINGLE) & (ops[:, 1] == ops[:, 2])
    if np.count_nonzero(same):
        i = int(same.argmax())
        code, a, _ = ops[i].tolist()
        kind = PAIR_GATES[code - N_SINGLE]
        raise ValueError(f"op row {i}: {kind} needs two distinct qubits, got qubit {a + 1} twice")
    _conjugate_checked(planes, phases, ops)


def _conjugate_checked(planes: np.ndarray, phases: np.ndarray, ops: np.ndarray) -> None:
    """conjugate_inplace on op rows known to name two distinct targets in
    every pair row, such as Circuit.ops (about 3 us a call less)."""
    check_planes(planes, len(phases))
    rows = list(planes)  # one 1-D view per row, so every rule below writes into planes
    m = len(rows) // 2
    x, z = rows[:m], rows[m:]
    flips = np.zeros(planes.shape[1], dtype=planes.dtype)  # sign flips, packed like a row
    for start in range(0, len(ops), _BLOCK):  # Python ints for one block of rows at a time
        for code, a, b in zip(*ops[start : start + _BLOCK].T.tolist()):
            xa, za = x[a], z[a]  # each flip is read off the bits before the update
            if code == _CZ:
                xb, zb = x[b], z[b]
                flips ^= xa & xb & (za ^ zb)
                za ^= xb
                zb ^= xa
            elif code == _H:
                flips ^= xa & za
                xa ^= za  # three XORs swap the rows' contents
                za ^= xa
                xa ^= za
            elif code == _S:
                flips ^= xa & za
                za ^= xa
            elif code == _SDG:
                za ^= xa
                flips ^= xa & za  # x & ~z before the update
            elif code == _X:
                flips ^= za
            elif code == _Y:
                flips ^= xa ^ za
            elif code == _Z:
                flips ^= xa
            elif code == _CX:
                xb, zb = x[b], z[b]
                flips ^= xa & zb & ~(xb ^ za)
                xb ^= xa
                za ^= zb
            else:  # SWAP
                xb, zb = x[b], z[b]
                xa ^= xb
                xb ^= xa
                xa ^= xb
                za ^= zb
                zb ^= za
                za ^= zb
    phases ^= np.unpackbits(flips.view(np.uint8), count=len(phases), bitorder="little") << 1


@functools.cache
def single_qubit_classes() -> tuple[tuple, tuple, tuple, tuple]:
    """The 24 single-qubit Clifford classes up to phase, class 0 being I, as
    (compose, words, head, carry).

    compose[c][g] is the class of c followed by the gate of code g, and
    words[c] a shortest gate-code word of c (at most 3 gates). Class c is
    also head[c] followed by the diagonal class carry[c] (I, S, Z or SDG),
    head[c] as short as any such split allows, carrying I on a tie; a
    diagonal gate commutes with CZ, so carry[c] can move past one. Built
    once from conjugate_inplace: a class is the one-qubit batch X, Y, Z
    conjugated through it, and a breadth-first walk over the six single
    gates from I reaches each class first by a shortest word.
    """
    states, words, compose = [(0b011, 0b110, 0, 0, 0)], [()], []  # x, z words of X, Y, Z; phases
    for c, state in enumerate(states):  # breadth first: states grows as it goes
        row = []
        for g in range(N_SINGLE):
            planes = np.array(state[:2], dtype=np.uint64)[:, None]
            phases = np.array(state[2:], dtype=np.uint8)
            conjugate_inplace(planes, phases, np.array([[g, 0, 0]], dtype=np.int32))
            nxt = (*planes[:, 0].tolist(), *phases.tolist())
            if nxt not in states:
                states.append(nxt)
                words.append(words[c] + (g,))
            row.append(states.index(nxt))
        compose.append(tuple(row))
    head, carry = [None] * len(words), [0] * len(words)
    for d in (0, compose[0][_S], compose[0][_Z], compose[0][_SDG]):  # I first, so it wins ties
        for n, word in enumerate(words):
            c = compose[n][words[d][0]] if d else n  # n, then d's one gate
            if head[c] is None or len(word) < len(head[c]):
                head[c], carry[c] = word, d
    return tuple(compose), tuple(words), tuple(head), tuple(carry)
