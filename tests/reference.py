"""A one-string model of the Pauli algebra, for checking the library's batch path.

The library multiplies, compares and conjugates Pauli strings as columns of
one letter matrix. These definitions take one string at a time, straight
from the letter rules, with no input checks: callers pass valid input.
"""

import re

import numpy as np

from tern2jw import ExactMatrix, PauliString
from tern2jw.tree import XYZ, jw_decode

_SIGNS = ("+", "+i", "-", "-i")


def pauli_identity(m):
    return PauliString((0,) * m)


def pauli_parse(text):
    """`sign? letters` with sign in +, +i, -, -i (default +)."""
    sign, letters = re.fullmatch(r"([+-]i?)?([IXYZ]+)", text).groups()
    return PauliString(tuple("IXYZ".index(l) for l in letters), _SIGNS.index(sign or "+"))


def pauli_mul(a, b):
    """a*b letter by letter: XY = iZ, YZ = iX, ZX = iY, and -i the other way."""
    phase = a.phase + b.phase
    for la, lb in zip(a.letters, b.letters):
        if la and lb and la != lb:
            phase += 1 if (lb - la) % 3 == 1 else 3
    return PauliString(tuple(la ^ lb for la, lb in zip(a.letters, b.letters)), phase % 4)


def pauli_commutes(a, b):
    """Strings commute when an even number of places hold two different non-I letters."""
    return sum(1 for la, lb in zip(a.letters, b.letters) if la and lb and la != lb) % 2 == 0


def pauli_weight(a):
    return sum(1 for l in a.letters if l)


def path_product(t, path):
    """The paper's generator: one letter per node on a root-to-terminal path."""
    letters = [0] * t.num_qubits
    for q, label in path:
        letters[q - 1] = XYZ.index(label) + 1
    return PauliString(tuple(letters))


def jw_generator(m, rank):
    """Z^(k-1) X I... at rank 2k-1, Z^(k-1) Y I... at rank 2k, all Z at 2m+1."""
    if rank == 2 * m + 1:
        return PauliString((3,) * m)
    k = (rank + 1) // 2
    return PauliString((3,) * (k - 1) + (2 - rank % 2,) + (0,) * (m - k))


def jw_match(p):
    """(rank, sign) with p = sign * jw_generator(m, rank), or None: jw_decode on one column."""
    ranks, signs = jw_decode(
        np.array(p.letters, dtype=np.uint8)[:, None], np.array([p.phase], dtype=np.uint8)
    )
    return (int(ranks[0]), int(signs[0])) if ranks[0] else None


def _part_product(a, b):
    """a @ b for two int64 parts, left out when either is all zeros."""
    if a.any() and b.any():
        return a @ b
    return np.zeros((len(a), b.shape[1]), dtype=np.int64)


def matmul(*factors):
    """The product of Gaussian-integer matrices, left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = ExactMatrix(
            _part_product(out.re, f.re) - _part_product(out.im, f.im),
            _part_product(out.re, f.im) + _part_product(out.im, f.re),
        )
    return out
