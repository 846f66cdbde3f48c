"""Exact ground truth for Clifford circuits on Pauli strings.

Nothing here touches floating point, takes a matrix product or holds a
dense matrix. Every matrix the oracle conjugates is a signed Pauli matrix,
and Clifford gates take those to signed Pauli matrices (Aaronson and
Gottesman, quant-ph/0406196), whether or not the certificate being checked
is right. Such a matrix has one unit entry in each row, so its monomial
form is the whole matrix: for each row r, a source column and a Z4 phase,
the entry being i^phase[r] at [r, source[r]]. k matrices are a (k, 2^m)
source array and a (k, 2^m) phase array, 2^m facts each in place of 4^m
entries.

Every gate but H is monomial too. Its form, written out per local row in
_GATE_FORMS and embedded on the 2^m basis states, acts as
(U M)[r] = i^e[r] M[src[r]], and a run of such gates composes into one
such pair. Row r of U M U-dagger then holds
i^(e[r] + phase[src[r]] - e[c]) at column c = inv[source[src[r]]], where
inv is the inverse permutation of src. A circuit's op rows are compiled
once into its H gates and the composed pair (and its inverse) of each
maximal run between them, and every string conjugated through them shares
them. A string's letters are the X, Y and Z gates, so its form is built for
the whole string at once from per-qubit tables of theirs.

H is stored unnormalized as [[1,1],[1,-1]]. It mixes each basis state only
with its partner across the target's bit (Dehaene and De Moor,
quant-ph/0304125), so row r of H M H meets only rows r and r ^ bit of M,
and those reach at most two columns. _hadamard works out both sums per
row and halves the one nonzero sum exactly; a row that would need more
than one entry, or an entry that does not halve to a unit, raises
OracleError.

dense_conjugate has engine.conjugate_inplace's batch contract (packed x
and z planes and a phase row) and works in place, so
straighten.oracle_check differs from verify_transform only in the
conjugator; it unpacks the planes into a letter matrix at its boundary and
packs the result back. oracle_conjugate is its one-column call. One
decoder, _decode, reads forms back as strings and rejects any form that
is not a signed Pauli matrix's.

Intended for small qubit counts (verify's --oracle-cap is 8); every entry
point refuses m > MAX_ORACLE_QUBITS before any allocation. It imports
neither engine nor straighten: the engine is certified against it, never
the other way round, and the test suite checks it against dense matrices
built apart from it in tests/reference.py."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .clifford import Circuit, _kind_targets, _one_column
from .pauli import PauliString, check_planes, pack_letters, unpack_planes

# The largest m the test suite measures (oracle_check's tracemalloc peak is
# about 7 MiB there); _letter_tables' int16 flips would hold up to m = 15.
MAX_ORACLE_QUBITS = 12


class OracleError(Exception):
    """Internal-consistency failure: a conjugation left the signed-Pauli set."""


# Every gate but H as its monomial form on its own 2^k basis, the first
# target the most significant bit: row l holds its one nonzero entry,
# i^phase, in column l ^ flip, written as (flip, phase) per row.
_GATE_FORMS = {
    "S": ((0, 0), (0, 1)),
    "SDG": ((0, 0), (0, 3)),
    "X": ((1, 0), (1, 0)),
    "Y": ((1, 3), (1, 1)),
    "Z": ((0, 0), (0, 2)),
    "CZ": ((0, 0), (0, 0), (0, 0), (0, 2)),
    "CX": ((0, 0), (0, 0), (1, 0), (1, 0)),
    "SWAP": ((0, 0), (3, 0), (3, 0), (0, 0)),
}


def _monomial(kind: str, targets: tuple[int, ...], m: int) -> tuple[np.ndarray, np.ndarray]:
    """A non-H gate's monomial form embedded on the 2^m basis (qubit 1 the
    most significant bit of a basis index, the first target the most
    significant bit of the gate's own index)."""
    flips, phases = zip(*_GATE_FORMS[kind])
    rows = np.arange(1 << m)
    local = (rows >> (m - targets[0])) & 1
    for t in targets[1:]:
        local = (local << 1) | ((rows >> (m - t)) & 1)
    # each local flip moved onto the targets' bits of a basis index
    k = len(targets)
    spread = [
        sum(((f >> (k - 1 - j)) & 1) << (m - t) for j, t in enumerate(targets))
        for f in flips
    ]
    return rows ^ np.array(spread).take(local), np.array(phases).take(local)


def _compose(monomials, m: int) -> tuple[np.ndarray, np.ndarray]:
    """One monomial form for a sequence of them, the first acting first;
    the empty sequence gives the identity."""
    source, phase = np.arange(1 << m), np.zeros(1 << m, dtype=np.int64)
    for s, e in monomials:
        source, phase = source.take(s), (e + phase.take(s)) & 3
    return source, phase


def _check_cap(m: int) -> None:
    if m > MAX_ORACLE_QUBITS:
        raise ValueError(
            f"{m} qubits is over the oracle's limit of {MAX_ORACLE_QUBITS}"
            " qubits (MAX_ORACLE_QUBITS)"
        )


@functools.cache
def _letter_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every letter's monomial form at every qubit of the 2^m basis, as
    (4m, 2^m) tables whose row 4 (q - 1) + code is the letter's at qubit q:
    the bits it flips in each basis index, and its phase there (code 0, I,
    is all zeros). Built from the X, Y and Z gates' forms on first use for
    each m, in narrow dtypes (m <= MAX_ORACLE_QUBITS), and read-only, since
    every caller shares them."""
    rows = np.arange(1 << m)
    flips = np.zeros((m, 4, 1 << m), dtype=np.int16)
    phases = np.zeros((m, 4, 1 << m), dtype=np.int8)
    for code, kind in enumerate("XYZ", 1):
        for q in range(m):
            source, phases[q, code] = _monomial(kind, (q + 1,), m)
            flips[q, code] = source ^ rows
    flips, phases = flips.reshape(4 * m, -1), phases.reshape(4 * m, -1)
    flips.setflags(write=False)
    phases.setflags(write=False)
    return flips, phases


def _pauli_parts(letters: np.ndarray, phases) -> tuple[np.ndarray, np.ndarray]:
    """The monomial forms, (k, 2^m) sources and phases, of the k strings of
    an (m, k) letter block (one code per qubit and column) times i^phases:
    the letters of a column act on distinct qubits, so their flips and
    phases add, each from its qubit's row of the tables."""
    m = len(letters)
    flips, table = _letter_tables(m)
    at = 4 * np.arange(m)[:, None] + letters
    source = np.arange(1 << m) ^ np.bitwise_xor.reduce(flips.take(at, axis=0), axis=0)
    phase = table.take(at, axis=0).sum(axis=0, dtype=np.int64) + np.asarray(phases)[:, None]
    return source, phase & 3


def _compile(ops: np.ndarray, m: int) -> list:
    """Op rows on m qubits as conjugation steps in order: each H's target,
    and per maximal run of other gates its composed monomial form and the
    form's inverse permutation."""
    steps: list = []
    gates = map(_kind_targets, ops.tolist())
    for is_h, run in itertools.groupby(gates, lambda kind_targets: kind_targets[0] == "H"):
        if is_h:
            steps.extend(t for _, (t,) in run)
        else:
            src, e = _compose((_monomial(kind, t, m) for kind, t in run), m)
            steps.append((src, e, np.argsort(src)))
    return steps


def _hadamard(source: np.ndarray, phase: np.ndarray, m: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The forms of H M H / 2 for H on qubit t, from those of the matrices M.

    With b the target's bit and s = source[r], row r of H M H is the sum
    of A = (-1)^(r_b) i^phase[r], at columns s and s ^ b with signs
    (-1)^(s_b c_b), and B = i^phase[r ^ b], at the same two columns when
    source[r ^ b] = s ^ b. Both sums, A (-1)^(s_b) + B at s and
    A + B (-1)^(1 - s_b) at s ^ b, are exact: exactly one is nonzero, and
    it is twice a unit, when B = +-A. Otherwise the row raises OracleError.
    """
    shift = m - t
    rows = np.arange(1 << m)
    partner, r_b = rows ^ (1 << shift), (rows >> shift) & 1
    turn = phase.take(partner, axis=1) - phase  # B = i^turn (-1)^(r_b) A
    if ((source.take(partner, axis=1) ^ source ^ (1 << shift)) | (turn & 1)).any():
        raise OracleError(f"inexact rescale after H {t}")
    # B = (-1)^sign A: the nonzero sum sits at s when s_b == sign, as
    # (-1)^(s_b) 2A, and at s ^ b otherwise, as 2A; only bit 0 counts
    s_b, sign = source >> shift, (turn >> 1) ^ r_b
    return source ^ (((s_b ^ sign) & 1) << shift), (phase + ((r_b ^ (s_b & sign)) << 1)) & 3


def _decode(source: np.ndarray, phase: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, k) letters and k phases of k signed Pauli matrices, given as
    their (k, 2^m) monomial forms; raise OracleError if any form is not one.

    Each x-mask is row 0's source; z-bits come from the sign ratio of the
    single-bit rows, each of whose entries must sit at the row ^ x-mask
    and be +- row 0's; the phase is row 0's corrected by i^{#Y}. The
    decoded strings are re-encoded and compared with the whole forms, every
    row's source and phase, so any non-Pauli form is rejected.
    """
    xmask = source[:, 0]
    rows = 1 << np.arange(m - 1, -1, -1)[:, None]  # qubit q's bit, at q - 1
    turn = (phase[:, rows[:, 0]].T - phase[:, 0]) & 3  # (m, k)
    bad = (source[:, rows[:, 0]].T != rows ^ xmask) | (turn & 1 != 0)
    if bad.any():
        r = rows[bad.any(axis=1).argmax(), 0]
        raise OracleError(f"entry at row {r} is not +- the reference entry")
    has_z = turn == 2
    letters = np.where((rows & xmask) != 0, 1 + has_z, 3 * has_z)  # I X Y Z = 0 1 2 3
    phases = (phase[:, 0] + (letters == 2).sum(axis=0)) & 3
    want_source, want_phase = _pauli_parts(letters, phases)
    wrong = (want_source != source) | (want_phase != phase)
    if wrong.any():
        j = wrong.any(axis=1).argmax()
        candidate = PauliString(letters[:, j].tolist(), int(phases[j]))
        raise OracleError(f"decode self-check failed for candidate {candidate}")
    return letters, phases


def dense_conjugate(planes: np.ndarray, phases: np.ndarray, ops: np.ndarray) -> None:
    """engine.conjugate_inplace with exact matrices: the batch's columns
    become monomial forms, conjugated through the compiled circuit and
    decoded back."""
    check_planes(planes, len(phases))
    m = len(planes) // 2
    _check_cap(m)
    source, phase = _pauli_parts(unpack_planes(planes, len(phases)), phases)
    for step in _compile(ops, m):
        if isinstance(step, int):
            source, phase = _hadamard(source, phase, m, step)
        else:
            src, e, inv = step
            source = inv.take(source.take(src, axis=1))
            phase = (e + phase.take(src, axis=1) - e.take(source)) & 3
    letters, phases[:] = _decode(source, phase, m)
    planes[:] = pack_letters(letters)


def oracle_conjugate(c: Circuit, p: PauliString) -> PauliString:
    """Conjugate p through the circuit with exact matrices and decode the result."""
    return _one_column(dense_conjugate, c, p)
