"""Signed Pauli strings: letter codes, the product phase table, and the
one-string type with its text form.

A Pauli string is a phase i^k (k in Z4) times a tensor product of letters
I, X, Y, Z over m qubits. Letters are stored as integer codes

    I = 0, X = 1, Y = 2, Z = 3

with qubit 1 as the first (leftmost) tensor factor. The code of a letter
product is the XOR of the factor codes; the phase contribution comes from
the cyclic rule XY = iZ, YZ = iX, ZX = iY (reversed order gives -i).
The library multiplies and conjugates strings in batches, one string per
column of a letter matrix (tree.check_generator_set, engine); a
PauliString is one such column with its phase.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

LETTERS = "IXYZ"

# Phase exponent of the single-letter product a*b: i^PROD_PHASE[a][b].
# Rows/columns indexed by letter code; diagonal and identity rows are 0.
PROD_PHASE = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)

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

