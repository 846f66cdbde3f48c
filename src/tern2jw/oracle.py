"""Exact matrix ground truth for Pauli strings and Clifford circuits.

Matrices hold Gaussian integers; nothing here touches floating point or
takes a matrix product. At the public boundary (ExactMatrix, dense_pauli,
dense_gate, decode_pauli's input) a matrix is dense, with int64 real and
imaginary parts. Inside, it is never dense. Every matrix the oracle
conjugates is a signed Pauli matrix, and Clifford gates take those to
signed Pauli matrices (Aaronson and Gottesman, quant-ph/0406196), whether
or not the certificate being checked is right. Such a matrix has one unit
entry in each row, so its monomial form is the whole matrix: for each row
r, a source column and a Z4 phase, the entry being i^phase[r] at
[r, source[r]]. k matrices are a (k, 2^m) source array and a (k, 2^m)
phase array, 2^m facts each in place of 4^m entries.

Every gate but H is monomial too. Its form, read off its matrix in
_GATE_MATS and embedded on the 2^m basis states, acts as
(U M)[r] = i^e[r] M[src[r]], and a run of such gates composes into one
such pair. Row r of U M U-dagger then holds
i^(e[r] + phase[src[r]] - e[c]) at column c = inv[source[src[r]]], where
inv is the inverse permutation of src. A circuit's op rows are compiled
once into its H gates and the composed pair (and its inverse) of each
maximal run between them, and every string conjugated through them shares
them. A form's own matrix is one scatter into zeros (dense_gate for every
gate but H, and dense_pauli, whose letters are the X, Y and Z gates, built
for the whole string at once from per-qubit tables).

H is stored unnormalized as [[1,1],[1,-1]]. It mixes each basis state only
with its partner across the target's bit (Dehaene and De Moor,
quant-ph/0304125), so row r of H M H meets only rows r and r ^ bit of M,
and those reach at most two columns. _hadamard works out both sums per
row and halves the one nonzero sum exactly; a row that would need more
than one entry, or an entry that does not halve to a unit, raises
OracleError.

dense_conjugate has engine.conjugate_inplace's batch contract and works in
place, so straighten.oracle_check differs from verify_transform only in the
conjugator; oracle_conjugate is its one-column call. One decoder reads
forms back as strings: the forms of a batch, and the dense matrix that
decode_pauli is given, read in its own int64 and never narrowed.

Intended for small qubit counts (verify's --oracle-cap is 8); every entry
point refuses m >= 13 before any allocation, as its dense matrix would
exceed MAX_LETTER_CELLS bytes. It imports neither engine nor straighten:
the engine is certified against it, never the other way round."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .clifford import Circuit, Gate, _kind_targets, _one_column
from .pauli import PauliString
from .tree import MAX_LETTER_CELLS

class OracleError(Exception):
    """Internal-consistency failure: a conjugation left the signed-Pauli set."""


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    """Gaussian-integer matrix: separate int64 real and imaginary parts.

    Equal by value over mutable arrays, so unhashable."""

    re: np.ndarray
    im: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return bool(
            np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)
        )

    __hash__ = None


def _unit_power(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """k with i^k = re + i im, for unit entries: 1, i, -1, -i give 0..3."""
    return (im != 0) + 2 * (re + im < 0)


def _mat(re, im=None) -> ExactMatrix:
    re = np.array(re, dtype=np.int64)
    im = np.zeros_like(re) if im is None else np.array(im, dtype=np.int64)
    return ExactMatrix(re, im)


_GATE_MATS = {
    "H": _mat([[1, 1], [1, -1]]),
    "S": _mat([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
    "SDG": _mat([[1, 0], [0, 0]], [[0, 0], [0, -1]]),
    "X": _mat([[0, 1], [1, 0]]),
    "Y": _mat([[0, 0], [0, 0]], [[0, -1], [1, 0]]),
    "Z": _mat([[1, 0], [0, -1]]),
    "CZ": _mat(np.diag([1, 1, 1, -1])),
    "CX": _mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "SWAP": _mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


@functools.cache
def _gate_monomial(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A non-H gate's monomial form on its own 2^k basis, read off its
    matrix on first use and read-only, since every caller shares it: row l
    holds its one nonzero entry, i^phase[l], in column l ^ flip[l]."""
    g = _GATE_MATS[kind]
    local = np.arange(len(g.re))
    source = ((g.re != 0) | (g.im != 0)).argmax(axis=1)
    flip, phase = source ^ local, _unit_power(g.re[local, source], g.im[local, source])
    flip.setflags(write=False)
    phase.setflags(write=False)
    return flip, phase


def _monomial(kind: str, targets: tuple[int, ...], m: int) -> tuple[np.ndarray, np.ndarray]:
    """A non-H gate's monomial form embedded on the 2^m basis (qubit 1 the
    most significant bit of a basis index, the first target the most
    significant bit of the gate's own index)."""
    flip, phase = _gate_monomial(kind)
    rows = np.arange(1 << m)
    local = (rows >> (m - targets[0])) & 1
    for t in targets[1:]:
        local = (local << 1) | ((rows >> (m - t)) & 1)
    # each local flip moved onto the targets' bits of a basis index
    k = len(targets)
    spread = [
        sum(((f >> (k - 1 - j)) & 1) << (m - t) for j, t in enumerate(targets))
        for f in flip.tolist()
    ]
    return rows ^ np.array(spread).take(local), phase.take(local)


def _compose(monomials, m: int) -> tuple[np.ndarray, np.ndarray]:
    """One monomial form for a sequence of them, the first acting first;
    the empty sequence gives the identity."""
    source, phase = np.arange(1 << m), np.zeros(1 << m, dtype=np.int64)
    for s, e in monomials:
        source, phase = source.take(s), (e + phase.take(s)) & 3
    return source, phase


def _matrix(source: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """k monomial forms' own matrices, from (k, 2^m) sources and phases, as
    one (k, 2, 2^m, 2^m) int64 stack of real and imaginary parts: matrix j
    holds i^phase[j, r] at [r, source[j, r]]."""
    k, dim = source.shape
    a = np.zeros((k, 2, dim, dim), dtype=np.int64)
    a[np.arange(k)[:, None], phase & 1, np.arange(dim), source] = 1 - (phase & 2)
    return a


def _check_cap(m: int) -> None:
    # 4^m int64 real and imaginary parts, the dense ExactMatrix that
    # dense_pauli, dense_gate and decode_pauli hold. dense_conjugate holds
    # only forms, (2m+1) x 2^m sources and phases for a tree's generators
    # (oracle_check's tracemalloc peak is 0.34 MiB at m = 8 and 7.0 MiB at
    # m = 12), but is refused at the same m so that every entry point takes
    # the same qubit counts.
    dense_bytes = 16 << (2 * m)
    if dense_bytes > MAX_LETTER_CELLS:
        raise ValueError(
            f"{m} qubits needs a {dense_bytes}-byte dense matrix, over the"
            f" oracle's limit of {MAX_LETTER_CELLS} bytes (MAX_LETTER_CELLS)"
        )


@functools.cache
def _letter_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every letter's monomial form at every qubit of the 2^m basis, as
    (4m, 2^m) tables whose row 4 (q - 1) + code is the letter's at qubit q:
    the bits it flips in each basis index, and its phase there (code 0, I,
    is all zeros). Read off the X, Y and Z gates on first use for each m,
    in narrow dtypes (m <= 12), and read-only, since every caller shares
    them."""
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


def dense_pauli(p: PauliString) -> ExactMatrix:
    """i^phase times the product of the letter matrices, each at its qubit
    (qubit 1 is the most significant bit of the row/column index)."""
    _check_cap(p.num_qubits)
    a = _matrix(*_pauli_parts(np.reshape(p.letters, (-1, 1)), (p.phase,)))
    return ExactMatrix(*a[0])


def dense_gate(g: Gate, m: int) -> ExactMatrix:
    """Gate matrix embedded at its targets, identity on the other qubits
    (qubit 1 is the most significant bit of the row/column index)."""
    _check_cap(m)
    Circuit(m, (g,))  # raises IndexError for a target beyond m
    if g.kind != "H":
        return ExactMatrix(*_matrix(*(a[None] for a in _monomial(g.kind, g.targets, m)))[0])
    # the butterfly: row r holds 1 at r ^ bit, and -1 or 1 at r by its bit
    rows, bit = np.arange(1 << m), 1 << (m - g.targets[0])
    re = np.zeros((1 << m, 1 << m), dtype=np.int64)
    re[rows, rows ^ bit] = 1
    re[rows, rows] = 1 - 2 * ((rows & bit) != 0)
    return ExactMatrix(re, np.zeros_like(re))


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


def _form(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The monomial forms of a (k, 2, 2^m, 2^m) stack of real and imaginary
    parts, read in the stack's own dtype and never narrowed. Row 0 of each
    matrix must hold a single unit entry, or OracleError is raised; any
    other row without one gets source -1, which no Pauli form has."""
    nonzero = (a[:, 0] != 0) | (a[:, 1] != 0)
    single = nonzero.sum(axis=2) == 1
    if not single[:, 0].all():
        raise OracleError("row 0 is not a single-entry row")
    source = nonzero.argmax(axis=2)
    at = (np.arange(len(a))[:, None], np.arange(a.shape[2]), source)
    re, im = a[:, 0][at], a[:, 1][at]
    unit = ((re == 0) & (np.abs(im) == 1)) | ((im == 0) & (np.abs(re) == 1))
    if not unit[:, 0].all():
        j = unit[:, 0].argmin()
        raise OracleError(f"entry {re[j, 0]}+{im[j, 0]}i is not a unit")
    source[~(single & unit)] = -1
    return source, _unit_power(re, im)


def decode_pauli(mat: ExactMatrix, m: int) -> PauliString:
    """Structurally decode a signed Pauli matrix; raise OracleError otherwise
    (its monomial form, read in int64, through the decoder of _decode)."""
    if mat.re.shape != (1 << m, 1 << m):
        raise OracleError(f"matrix shape {mat.re.shape} does not match {m} qubits")
    letters, phases = _decode(*_form(np.stack((mat.re, mat.im))[None]), m)
    return PauliString(letters[:, 0].tolist(), int(phases[0]))


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


def dense_conjugate(letters: np.ndarray, phases: np.ndarray, ops: np.ndarray) -> None:
    """engine.conjugate_inplace with exact matrices: the batch's columns
    become monomial forms, conjugated through the compiled circuit and
    decoded back."""
    m = letters.shape[0]
    _check_cap(m)
    source, phase = _pauli_parts(letters, phases)
    for step in _compile(ops, m):
        if isinstance(step, int):
            source, phase = _hadamard(source, phase, m, step)
        else:
            src, e, inv = step
            source = inv.take(source.take(src, axis=1))
            phase = (e + phase.take(src, axis=1) - e.take(source)) & 3
    letters[:], phases[:] = _decode(source, phase, m)


def oracle_conjugate(c: Circuit, p: PauliString) -> PauliString:
    """Conjugate p through the circuit with exact matrices and decode the result."""
    return _one_column(dense_conjugate, c, p)
