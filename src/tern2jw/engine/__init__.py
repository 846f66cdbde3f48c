"""Batch conjugation of Pauli letter matrices through Clifford gates.

A batch is a uint8 (m, n) letter matrix, one column per string and one row
per qubit, with a uint8 (n,) vector of phase exponents mod 4. Gates are
encoded once as an int32 (L, 3) op array; each op then rewrites one or two
whole rows by a lookup in the frozen letter/phase tables of the tables
module, so a circuit costs L numpy row operations whatever n is.
"""

from __future__ import annotations

import numpy as np

from .tables import (
    GATE_CODES,
    N_SINGLE,
    PAIR_LETTER_A,
    PAIR_LETTER_B,
    PAIR_PHASE,
    SINGLE_LETTER,
    SINGLE_PHASE,
)


def encode_gates(gates) -> np.ndarray:
    """Encode (kind, targets) gate pairs as the int32 (L, 3) op array."""
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
    for code, a, b in ops:
        if code < N_SINGLE:
            row = letters[a]
            np.add(phases, SINGLE_PHASE[code][row], out=phases)
            letters[a] = SINGLE_LETTER[code][row]
        else:
            k = code - N_SINGLE
            idx = (letters[a] << 2) | letters[b]
            np.add(phases, PAIR_PHASE[k][idx], out=phases)
            letters[a] = PAIR_LETTER_A[k][idx]
            letters[b] = PAIR_LETTER_B[k][idx]
    phases &= 3
