"""Signed Pauli strings: letter codes, the one-string type with its text
form, and the packed x/z planes that batches of strings travel in.

A Pauli string is a phase i^k (k in Z4) times a tensor product of letters
I, X, Y, Z over m qubits. Letters are stored as integer codes

    I = 0, X = 1, Y = 2, Z = 3

with qubit 1 as the first (leftmost) tensor factor. The code of a letter
product is the XOR of the factor codes; the phase contribution comes from
the cyclic rule XY = iZ, YZ = iX, ZX = iY (reversed order gives -i).
The library multiplies, checks and conjugates strings as packed batches,
which hold each letter as an x bit and a z bit, z = code >> 1 and
x = (code ^ z) & 1, so X = (x 1, z 0), Y = (1, 1), Z = (0, 1), and
(x ^ z) | (z << 1) is the code again. Their planes are one uint64 array of
2m rows of W = ceil(n / 64) little-endian words: qubit q's x bits in row
q - 1, its z bits in row m + q - 1, column j at bit j % 64 of word j // 64,
and the padding bits past column n - 1 zero. The helpers below are the
only place that converts between letters and planes (letter_blocks a
bounded block of columns at a time). plane_rows (read in place) and
planes_from_rows convert between planes and each qubit's x and z rows as
two ints; the exact oracle, whose batches are small, reads its rows off
one int of the planes' bytes instead. A PauliString is one column with its
phase.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

LETTERS = "IXYZ"

_SIGN_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PauliString:
    """Immutable signed Pauli string: letter codes (qubit 1 first) and a phase exponent."""

    letters: tuple[int, ...]
    phase: int = 0

    def __post_init__(self) -> None:
        try:  # not a membership test: 1.0 in (0, 1, 2, 3) holds
            letters, phase = tuple(map(operator.index, self.letters)), operator.index(self.phase)
        except TypeError:
            raise ValueError(
                f"letters and phase must be integers, got {self.letters!r}, {self.phase!r}"
            ) from None
        if not letters:
            raise ValueError("Pauli string needs at least one qubit")
        if any(l not in (0, 1, 2, 3) for l in letters):
            raise ValueError(f"invalid letter code in {self.letters!r}")
        if phase not in (0, 1, 2, 3):
            raise ValueError(f"phase exponent must be in 0..3, got {self.phase!r}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "phase", phase)

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return pauli_format(self)


def pauli_format(a: PauliString) -> str:
    """Canonical text form: sign prefix, then letters with qubit 1 leftmost."""
    return _SIGN_PREFIX[a.phase] + "".join(LETTERS[l] for l in a.letters)


# ---------------------------------------------------------------------------
# letter matrices and packed x/z planes

WORD = np.dtype("<u8")  # one word of a packed plane row


def _pack_bits(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The (2m, W) planes of (m, n) x and z bit arrays of 0/1."""
    m, n = x.shape
    bits = np.zeros((2 * m, 64 * (-(-n // 64))), dtype=np.uint8)
    bits[:m, :n], bits[m:, :n] = x, z
    return np.packbits(bits, axis=1, bitorder="little").view(WORD)


def pack_letters(letters: np.ndarray) -> np.ndarray:
    """The (2m, W) planes of an (m, n) letter matrix, one string per column."""
    z = letters >> 1
    return _pack_bits((letters ^ z) & 1, z)


def check_planes(planes: np.ndarray, n: int) -> None:
    """Raise ValueError unless planes can hold n strings: uint64 words,
    an even number of rows (x over z), ceil(n/64) words a row."""
    width = -(-n // 64)
    if planes.dtype != WORD or planes.ndim != 2 or len(planes) % 2 or planes.shape[1] != width:
        raise ValueError(
            f"need (2m, {width}) {WORD} planes for {n} strings,"
            f" got {planes.dtype} {planes.shape}"
        )


def unpack_planes(planes: np.ndarray, n: int) -> np.ndarray:
    """The (m, n) uint8 letter matrix of n-column planes."""
    bits = np.unpackbits(planes.view(np.uint8), axis=1, count=n, bitorder="little")
    m = len(bits) // 2
    x, z = bits[:m], bits[m:]
    return (x ^ z) | (z << 1)


def block_words(rows: int) -> int:
    """Words of columns per block of letter_blocks for planes of this many
    rows: as many as unpack from 2^20 bits at most, or one word."""
    return max(1, (1 << 20) // (64 * rows))


def letter_blocks(planes: np.ndarray, n: int):
    """The letters of n-column planes, one (k, m) uint8 block of strings at
    a time, so no (m, n) letter matrix is built: k is block_words' whole
    number of words of columns."""
    words = block_words(len(planes))
    for w in range(0, planes.shape[1], words):
        yield unpack_planes(planes[:, w : w + words], min(n - 64 * w, 64 * words)).T


def planes_from_rows(rows, n: int) -> np.ndarray:
    """n-column planes whose row k has bit j set where bit j of rows[k],
    a nonnegative int below 2^n, is set."""
    width = 8 * (-(-n // 64))
    buf = bytearray()
    for r in rows:  # one row's bytes at a time, not a list of them all
        buf += r.to_bytes(width, "little")
    return np.frombuffer(buf, dtype=WORD).reshape(-1, width // 8)


def plane_rows(planes: np.ndarray, order=None):
    """Each qubit's x and z rows of planes as two ints, bit j for column j,
    qubit 1 first or qubit q for each q in order (a sequence of 1..m),
    sliced from the planes' bytes in place, so no reordered copy is made."""
    m = len(planes) // 2
    step = 8 * planes.shape[1]  # bytes per row
    data = memoryview(np.ascontiguousarray(planes)).cast("B")
    for q in range(1, m + 1) if order is None else order:
        x, z = data[(q - 1) * step : q * step], data[(m + q - 1) * step : (m + q) * step]
        yield int.from_bytes(x, "little"), int.from_bytes(z, "little")
