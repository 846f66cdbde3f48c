"""Exact dense-matrix ground truth for Pauli strings and Clifford circuits.

Matrices hold Gaussian integers as separate real and imaginary parts;
nothing here touches floating point or takes a dense matrix product. At the
public boundary (ExactMatrix, dense_pauli, dense_gate, decode_pauli's
input) the parts are int64; inside, k matrices are one (k, 2, 2^m, 2^m)
int8 stack of their real and imaginary parts. Every gate but H is
monomial, with one unit entry i^k in each row and column (Aaronson and
Gottesman, quant-ph/0406196). Its monomial form, read off its matrix in
_GATE_MATS and embedded on the 2^m basis states, gives each state r a
source state and a Z4 phase:
(U M)[r] = i^phase[r] M[source[r]]. A run of such gates composes into one
such pair. A pair's own matrix is one scatter into zeros (dense_gate, and
dense_pauli, whose letters are the X, Y and Z gates, built for the whole
string at once from per-qubit tables); conjugating by it is one gather over
a matrix's rows and columns and an in-place i^(phase[r] - phase[c])
rotation. A circuit's op rows are compiled once into its H gates and the
composed pair of each maximal run between them, and every string
conjugated through them shares them.

dense_conjugate has engine.conjugate_inplace's batch contract and works in
place, so straighten.oracle_check differs from verify_transform only in the
conjugator; oracle_conjugate is its one-column call. It conjugates the
batch's columns as stacks of up to _STACK_CELLS int8 cells through one
compiled circuit, every step acting on a whole stack: the 2m+1 generators
of a tree on m <= 6 qubits are one stack, m = 7 takes stacks of 4, and
from m = 8 each stack is one matrix.

H is stored unnormalized as [[1,1],[1,-1]] and acts by an in-place
butterfly on one bit of the row index (dense_gate) or, to conjugate, on its
target's row bit and column bit, which scales a matrix by 2. Each
conjugation halves it back exactly.

Why int8 cannot wrap: every gate is Clifford, whether or not the
certificate being checked is right, so a signed Pauli matrix conjugated
through any prefix of a circuit is again a signed Pauli matrix: one unit
entry in each row and column, every part 0 or +-1. A monomial step only
moves entries and multiplies them by units, which keeps that bound. Inside
an H step the row butterfly pairs two entries of one column, at most one of
them nonzero, so its parts stay within 1; the column butterfly then adds or
subtracts two parts within 1, so no part exceeds 2 before the exact
halving. decode_pauli reads and re-encodes its input without narrowing it,
so an int64 entry of 256 is rejected there, never read as 0.

Intended for small qubit counts (verify's --oracle-cap is 8, 256x256);
every entry point refuses m >= 13 before any allocation, as its dense
matrix would exceed MAX_LETTER_CELLS bytes. It imports neither engine nor
straighten: the engine is certified against it, never the other way round."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .clifford import Circuit, Gate, _kind_targets, _one_column
from .pauli import PauliString
from .tree import MAX_LETTER_CELLS

_UNIT_POWERS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}  # i^k as (re, im): k
# _butterfly runs numpy's inner loop across blocks only below this stride:
# from 32 int8 entries up, a contiguous inner loop is the faster one (whole
# stacks of 13, 4 and 1 matrices at m = 6, 7 and 8, 2-vCPU x86-64 VM: a
# stride of 32 took 0.11-0.17 ms in memory order and 0.54-0.56 ms across
# blocks, a stride of 8 took 0.33-0.37 and 0.11-0.13 ms)
_SHORT_STRIDE = 32
# the most int8 cells in one stack of matrices conjugated together; a
# stack holds at least one matrix, whatever its size
_STACK_CELLS = 1 << 17


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
    units = zip(g.re[local, source].tolist(), g.im[local, source].tolist())
    flip, phase = source ^ local, np.array([_UNIT_POWERS[u] for u in units], dtype=np.int8)
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
    source, phase = np.arange(1 << m), np.zeros(1 << m, dtype=np.int8)
    for s, e in monomials:
        source, phase = source.take(s), (e + phase.take(s)) & 3
    return source, phase


def _matrix(source: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """k monomial forms' own matrices, from (k, 2^m) sources and phases, as
    one (k, 2, 2^m, 2^m) int8 stack of real and imaginary parts: matrix j
    holds i^phase[j, r] at [r, source[j, r]]."""
    k, dim = source.shape
    a = np.zeros((k, 2, dim, dim), dtype=np.int8)
    a[np.arange(k)[:, None], phase & 1, np.arange(dim), source] = 1 - (phase & 2)
    return a


def _butterfly(a: np.ndarray, stride: int) -> None:
    """Unnormalized H on one bit of a's flat index, in place: each pair of
    entries stride apart in an aligned block of 2 * stride becomes
    (x + y, x - y)."""
    # a view: every stack here is C-contiguous, and an aligned block of
    # 2 * stride cells lies inside one matrix part
    pairs = a.reshape(-1, 2, stride)
    x, y = pairs[:, 0], pairs[:, 1]
    if stride < min(len(pairs), _SHORT_STRIDE):
        # numpy's inner loop follows memory order, so a short stride would
        # make it stride long; run the longer axis, across blocks, innermost
        x, y = x.T, y.T
    np.add(x, y, out=x, order="C")
    np.multiply(y, -2, out=y, order="C")
    np.add(y, x, out=y, order="C")


def _check_cap(m: int) -> None:
    # 4^m int64 real and imaginary parts, the public ExactMatrix. From m = 8
    # a stack is one matrix, and oracle_check's tracemalloc peak is about 0.70
    # times this (11 bytes an entry): a run's gather holds the int8 stack and
    # two gathered copies, and the rotation int8 turn, cos and sin arrays.
    # That is 0.70, 2.8 and 11 MiB at m = 8, 9 and 10, about 0.18 GiB at
    # m = 12. Below m = 8 the stack budget bounds it instead: 0.32 MiB at
    # m = 6 and 0.56 MiB at m = 7.
    dense_bytes = 16 << (2 * m)
    if dense_bytes > MAX_LETTER_CELLS:
        raise ValueError(
            f"{m} qubits needs a {dense_bytes}-byte dense matrix, over the"
            f" oracle's limit of {MAX_LETTER_CELLS} bytes (MAX_LETTER_CELLS)"
        )


@functools.cache
def _letter_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every letter's monomial form at every qubit of the 2^m basis, as
    (m, 4, 2^m) tables indexed by qubit - 1 and letter code: the bits it
    flips in each basis index, and its phase there (code 0, I, is all
    zeros). Read off the X, Y and Z gates on first use for each m, and
    read-only, since every caller shares them."""
    rows = np.arange(1 << m)
    flips = np.zeros((m, 4, 1 << m), dtype=np.int64)
    phases = np.zeros((m, 4, 1 << m), dtype=np.int8)
    for code, kind in enumerate("XYZ", 1):
        for q in range(m):
            source, phases[q, code] = _monomial(kind, (q + 1,), m)
            flips[q, code] = source ^ rows
    flips.setflags(write=False)
    phases.setflags(write=False)
    return flips, phases


def _pauli_parts(letters: np.ndarray, phases) -> np.ndarray:
    """The k strings of an (m, k) letter block (one code per qubit and
    column) times i^phases as one _matrix stack: the letters of a column
    act on distinct qubits, so their flips and phases add, each from its
    qubit's row of the tables."""
    m = len(letters)
    flips, table = _letter_tables(m)
    at = (np.arange(m)[:, None], letters)
    source = np.arange(1 << m) ^ np.bitwise_xor.reduce(flips[at], axis=0)
    phase = table[at].sum(axis=0, dtype=np.int8) + np.asarray(phases, dtype=np.int8)[:, None]
    return _matrix(source, phase & 3)


def dense_pauli(p: PauliString) -> ExactMatrix:
    """i^phase times the product of the letter matrices, each at its qubit
    (qubit 1 is the most significant bit of the row/column index)."""
    _check_cap(p.num_qubits)
    a = _pauli_parts(np.reshape(p.letters, (-1, 1)), (p.phase,))
    return ExactMatrix(*a[0].astype(np.int64))


def dense_gate(g: Gate, m: int) -> ExactMatrix:
    """Gate matrix embedded at its targets, identity on the other qubits
    (qubit 1 is the most significant bit of the row/column index)."""
    _check_cap(m)
    Circuit(m, (g,))  # raises IndexError for a target beyond m
    source, phase = _compose((), m) if g.kind == "H" else _monomial(g.kind, g.targets, m)
    a = _matrix(source[None], phase[None])
    if g.kind == "H":
        _butterfly(a, 1 << (2 * m - g.targets[0]))  # the target's row bit
    return ExactMatrix(*a[0].astype(np.int64))


def _compile(ops: np.ndarray, m: int) -> list:
    """Op rows on m qubits as conjugation steps in order: each H's target,
    and one composed monomial form per maximal run of other gates."""
    steps: list = []
    gates = map(_kind_targets, ops.tolist())
    for is_h, run in itertools.groupby(gates, lambda kind_targets: kind_targets[0] == "H"):
        if is_h:
            steps.extend(t for _, (t,) in run)
        else:
            steps.append(_compose((_monomial(kind, t, m) for kind, t in run), m))
    return steps


def _conjugate_monomial(a: np.ndarray, source: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """U a U-dagger for the monomial form's U on each matrix of the stack a,
    with one gather and an in-place rotation: entry [r, c] is
    i^(phase[r] - phase[c]) a[source[r], source[c]]."""
    out = a.take(source, axis=2).take(source, axis=3)
    turn = (phase[:, None] - phase) & 3  # int8, and so is all that follows
    sin = (1 - (turn & 2)) * (turn & 1)  # i^turn = cos + i sin
    cos = 1 - (turn & 2) - sin
    re, im = out[:, 0], out[:, 1]
    sin_im = sin * im
    im *= cos
    im += sin * re
    re *= cos
    re -= sin_im
    return out


def _conjugate(a: np.ndarray, steps: list, m: int) -> np.ndarray:
    """Conjugate the stack a through compiled steps, H rescaled."""
    for step in steps:
        if not isinstance(step, int):
            a = _conjugate_monomial(a, *step)
            continue
        # H on the target's row bit, then its column bit, of the flat index
        _butterfly(a, 1 << (2 * m - step))
        _butterfly(a, 1 << (m - step))
        if (a & 1).any():
            raise OracleError(f"inexact rescale after H {step}")
        a >>= 1
    return a


def decode_pauli(mat: ExactMatrix, m: int) -> PauliString:
    """Structurally decode a signed Pauli matrix; raise OracleError otherwise
    (the one-matrix call of _decode, on the parts in their own int64)."""
    if mat.re.shape != (1 << m, 1 << m):
        raise OracleError(f"matrix shape {mat.re.shape} does not match {m} qubits")
    letters, phases = _decode(np.stack((mat.re, mat.im))[None], m)
    return PauliString(letters[:, 0].tolist(), int(phases[0]))


def _decode(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, k) letters and k phases of a (k, 2, 2^m, 2^m) stack of signed
    Pauli matrices, read in the stack's own dtype and never narrowed; raise
    OracleError if any matrix is not one.

    Each x-mask comes from the unique nonzero column of row 0; z-bits from
    the sign ratio of single-bit rows; the phase from the value at [0, xmask]
    corrected by i^{#Y}. The decoded strings are re-encoded and compared with
    the whole stack, so any non-Pauli matrix is rejected.
    """
    row0 = (a[:, 0, 0] | a[:, 1, 0]) != 0
    if (row0.sum(axis=1) != 1).any():
        raise OracleError("row 0 is not a single-entry row")
    cols = np.arange(len(a))
    xmask = row0.argmax(axis=1)
    top = a[cols, :, 0, xmask]  # (k, 2): each matrix's reference entry
    for re, im in top.tolist():
        if (re, im) not in _UNIT_POWERS:
            raise OracleError(f"entry {re}+{im}i is not a unit")
    rows = 1 << np.arange(m - 1, -1, -1)[:, None]  # qubit q's bit, at q - 1
    v = a[cols, :, rows, rows ^ xmask]  # (m, k, 2): each single-bit row's entry
    has_z = (v == -top).all(axis=2)
    bad = ~has_z & (v != top).any(axis=2)
    if bad.any():
        r = rows[bad.any(axis=1).argmax(), 0]
        raise OracleError(f"entry at row {r} is not +- the reference entry")
    letters = np.where((rows & xmask) != 0, 1 + has_z, 3 * has_z)  # I X Y Z = 0 1 2 3
    powers = [_UNIT_POWERS[re, im] for re, im in top.tolist()]
    phases = (np.array(powers) + (letters == 2).sum(axis=0)) & 3
    want = _pauli_parts(letters, phases)
    if not np.array_equal(want, a):
        j = (want != a).reshape(len(a), -1).any(axis=1).argmax()
        candidate = PauliString(letters[:, j].tolist(), int(phases[j]))
        raise OracleError(f"decode self-check failed for candidate {candidate}")
    return letters, phases


def dense_conjugate(letters: np.ndarray, phases: np.ndarray, ops: np.ndarray) -> None:
    """engine.conjugate_inplace with exact matrices: the batch's columns
    become stacks of dense matrices, each conjugated whole and decoded back."""
    m = letters.shape[0]
    _check_cap(m)
    steps = _compile(ops, m)
    k = max(1, _STACK_CELLS >> (2 * m + 1))
    for j in range(0, len(phases), k):
        a = _conjugate(_pauli_parts(letters[:, j : j + k], phases[j : j + k]), steps, m)
        letters[:, j : j + k], phases[j : j + k] = _decode(a, m)


def oracle_conjugate(c: Circuit, p: PauliString) -> PauliString:
    """Conjugate p through the circuit with exact matrices and decode the result."""
    return _one_column(dense_conjugate, c, p)
