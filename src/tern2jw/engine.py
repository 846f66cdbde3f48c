"""Clifford conjugation of batches of Pauli strings on their x and z bits.

A batch is a uint8 (m, n) letter matrix (codes I=0, X=1, Y=2, Z=3, as in
the pauli module), one string per column, with an (n,) phase row. Only
this module splits a code into z = code >> 1 and x = (code ^ z) & 1, so
X = (x 1, z 0), Y = (1, 1), Z = (0, 1); (x ^ z) | (z << 1) is the code
again. conjugate_rows holds every gate's action on whole rows of the x and
z planes as a few AND, XOR and NOT operations, with the sign rules of
Aaronson and Gottesman (quant-ph/0406196): each flip adds 2 to the phase
exponent. conjugate_inplace runs them at a few numpy row operations per
gate; one string (clifford.conjugate_circuit) is a one-column batch. The
int32 (L, 3) op array they read is the only stored form of a circuit
(clifford.Circuit.ops); encode_gates builds one from (kind, targets) pairs.

The test suite re-derives every rule from the exact oracle for every
letter, letter pair and phase: acceptance criterion 8 one string at a
time, test_engine one batch per gate, test_clifford through one-gate
circuits.
"""

from __future__ import annotations

import numpy as np

SINGLE_GATES = ("H", "S", "SDG", "X", "Y", "Z")
PAIR_GATES = ("CZ", "CX", "SWAP")
GATE_CODES = {name: i for i, name in enumerate(SINGLE_GATES + PAIR_GATES)}
N_SINGLE = len(SINGLE_GATES)
_H, _S, _SDG, _X, _Y, _Z, _CZ, _CX, _SWAP = range(len(GATE_CODES))


def conjugate_rows(code: int, x, z, a: int, b: int):
    """Conjugate qubit rows a and b of the x and z planes through one gate.

    x and z are uint8 (m, n) planes of 0/1 bits, one column per string,
    updated in place. b is ignored by single-qubit gates; for CX, a is the
    control. Returns the (n,) sign flips (0 or 1), computed from the bits
    before the update.
    """
    if code == _H:
        flip = x[a] & z[a]
        x[a], z[a] = z[a].copy(), x[a].copy()
    elif code == _S:
        flip = x[a] & z[a]
        z[a] ^= x[a]
    elif code == _SDG:
        flip = x[a] & ~z[a]
        z[a] ^= x[a]
    elif code == _X:
        flip = z[a]
    elif code == _Y:
        flip = x[a] ^ z[a]
    elif code == _Z:
        flip = x[a]
    elif code == _CZ:
        flip = x[a] & x[b] & (z[a] ^ z[b])
        z[a] ^= x[b]
        z[b] ^= x[a]
    elif code == _CX:
        flip = x[a] & z[b] & ~(x[b] ^ z[a])
        x[b] ^= x[a]
        z[a] ^= z[b]
    else:  # SWAP
        flip = 0
        x[[a, b]] = x[[b, a]]
        z[[a, b]] = z[[b, a]]
    return flip


def xz_planes(letters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and z bit planes of a letter array, as new uint8 arrays."""
    z = letters >> 1
    return (letters ^ z) & 1, z


def encode_gates(gates) -> np.ndarray:
    """Encode (kind, targets) gate pairs as the int32 (L, 3) op array, unchecked."""
    ops = np.zeros((len(gates), 3), dtype=np.int32)
    for i, (kind, targets) in enumerate(gates):
        code = GATE_CODES[kind]
        ops[i, 0] = code
        ops[i, 1] = targets[0] - 1
        ops[i, 2] = targets[1] - 1 if code >= N_SINGLE else 0
    return ops


def conjugate_inplace(letters: np.ndarray, phases: np.ndarray, ops: np.ndarray) -> None:
    """Conjugate the letter batch through the encoded ops, in place.

    letters: uint8 (m, n), phases: uint8 (n,) with exponents mod 4,
    ops: int32 (L, 3) rows (gate code, row a, row b); b is ignored for
    single-qubit codes. Gates act in listed order.
    """
    z = letters >> 1
    x = letters  # the letter buffer holds the x plane until the merge
    x ^= z
    x &= 1
    flips = np.zeros(letters.shape[1], dtype=np.uint8)
    for code, a, b in ops.tolist():
        flips ^= conjugate_rows(code, x, z, a, b)
    letters ^= z
    letters |= z << 1
    phases ^= flips << 1
