"""Clifford conjugation of packed batches of Pauli strings.

A batch is n Pauli strings held as packed x and z planes (the pauli
module's layout: one uint64 array of 2m rows of ceil(n / 64) words, qubit
q's x bits in row q - 1 and its z bits in row m + q - 1, one bit per
string) with an (n,) uint8 row of phase exponents. conjugate_rows holds
every gate's action on whole rows of the x and z planes as a few AND, XOR
and NOT operations, with the sign rules of Aaronson and Gottesman
(quant-ph/0406196): each flip adds 2 to the phase exponent. The rules act
on 64 strings per word and never set a padding bit, since every flip and
every update ANDs or XORs rows whose padding is zero. conjugate_inplace
runs them at a few numpy row operations per gate, gathers the flips in one
packed row and adds them to the phases once; one string
(clifford.conjugate_circuit) is a one-column batch. The int32 (L, 3) op
array they read is the only stored form of a circuit (clifford.Circuit.ops);
encode_gates builds one from (kind, targets) pairs.

The test suite re-derives every rule from the exact oracle for every
letter, letter pair and phase, in batches whose width is no multiple of 64:
acceptance criterion 8 one gate per batch, test_engine one batch per gate,
test_clifford through one-gate circuits.
"""

from __future__ import annotations

import numpy as np

from .pauli import check_planes

SINGLE_GATES = ("H", "S", "SDG", "X", "Y", "Z")
PAIR_GATES = ("CZ", "CX", "SWAP")
GATE_CODES = {name: i for i, name in enumerate(SINGLE_GATES + PAIR_GATES)}
N_SINGLE = len(SINGLE_GATES)
_H, _S, _SDG, _X, _Y, _Z, _CZ, _CX, _SWAP = range(len(GATE_CODES))


def conjugate_rows(code: int, x, z, a: int, b: int):
    """Conjugate qubit rows a and b of the x and z planes through one gate.

    x and z are the (m, W) word planes of a packed batch, one bit per
    string, updated in place. b is ignored by single-qubit gates; for CX,
    a is the control. Returns the sign flips, one bit per string packed
    like a plane row (0 for SWAP), computed from the bits before the
    update.
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


def encode_gates(gates) -> np.ndarray:
    """Encode (kind, targets) gate pairs as the int32 (L, 3) op array, unchecked."""
    ops = np.zeros((len(gates), 3), dtype=np.int32)
    for i, (kind, targets) in enumerate(gates):
        code = GATE_CODES[kind]
        ops[i, 0] = code
        ops[i, 1] = targets[0] - 1
        ops[i, 2] = targets[1] - 1 if code >= N_SINGLE else 0
    return ops


def conjugate_inplace(planes: np.ndarray, phases: np.ndarray, ops: np.ndarray) -> None:
    """Conjugate the packed batch through the encoded ops, in place.

    planes: uint64 (2m, W), the x plane over the z plane; phases: uint8
    (n,) with exponents mod 4; ops: int32 (L, 3) rows (gate code, row a,
    row b); b is ignored for single-qubit codes. Gates act in listed order.
    """
    check_planes(planes, len(phases))
    m = len(planes) // 2
    x, z = planes[:m], planes[m:]
    flips = np.zeros(planes.shape[1], dtype=planes.dtype)
    for code, a, b in ops.tolist():
        flips ^= conjugate_rows(code, x, z, a, b)
    phases ^= np.unpackbits(flips.view(np.uint8), count=len(phases), bitorder="little") << 1
