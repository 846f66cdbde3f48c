"""Exact dense-matrix ground truth for Pauli strings and Clifford circuits.

Matrices hold Gaussian integers as separate real and imaginary parts;
nothing here touches floating point or takes a dense matrix product. At the
public boundary (ExactMatrix, dense_pauli, dense_gate, decode_pauli's
input) the parts are int64; inside, a matrix is one (2, 2^m, 2^m) int8
array of stacked parts. Every gate but H is monomial, with one unit entry
i^k in each row and column (Aaronson and Gottesman, quant-ph/0406196). Its
monomial form, read off its matrix in _GATE_MATS and embedded on the 2^m
basis states, gives each state r a source state and a Z4 phase:
(U M)[r] = i^phase[r] M[source[r]]. A run of such gates composes into one
such pair. A pair's own matrix is one scatter into zeros (dense_gate, and
dense_pauli, whose letters are the X, Y and Z gates, built for the whole
string at once from per-qubit tables); conjugating by it is one gather over
a matrix's rows and columns and an in-place i^(phase[r] - phase[c])
rotation. A circuit is compiled once into its H gates and the composed pair
of each maximal run between them, and every string conjugated through it
shares them.

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

Intended for small qubit counts (default cap 8, i.e. 256x256); whatever the
cap, m >= 13 is refused before any allocation, since its dense matrix would
exceed MAX_LETTER_CELLS bytes. The symbolic engine is certified against this
module, never the other way round."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .clifford import Circuit, Gate, _kind_targets
from .pauli import PauliString
from .straighten import (
    Certificate,
    TransformReport,
    certify,
    check_certificate_span,
)
from .tree import MAX_LETTER_CELLS, TernaryTree

DEFAULT_CAP = 8
_UNIT_POWERS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}  # i^k as (re, im): k
# i^k = _COS[k] + i _SIN[k]
_COS, _SIN = np.array([1, 0, -1, 0], np.int8), np.array([0, 1, 0, -1], np.int8)
# _butterfly runs numpy's inner loop across blocks only below this stride:
# from 32 int8 entries up, a contiguous inner loop is the faster one (m = 8,
# 2-vCPU x86-64 VM: a stride of 32 took 0.17 ms in memory order and 0.69 ms
# across blocks, a stride of 8 took 0.41 and 0.17 ms)
_SHORT_STRIDE = 32


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
    """A monomial form's own matrix as one (2, 2^m, 2^m) int8 array of
    stacked real and imaginary parts: i^phase[r] at [r, source[r]]."""
    dim = len(source)
    a = np.zeros((2, dim, dim), dtype=np.int8)
    a[phase & 1, np.arange(dim), source] = 1 - (phase & 2)
    return a


def _butterfly(a: np.ndarray, stride: int) -> None:
    """Unnormalized H on one bit of a's flat index, in place: each pair of
    entries stride apart in an aligned block of 2 * stride becomes
    (x + y, x - y)."""
    pairs = a.reshape(-1, 2, stride)  # a view: every matrix here is C-contiguous
    x, y = pairs[:, 0], pairs[:, 1]
    if stride < min(len(pairs), _SHORT_STRIDE):
        # numpy's inner loop follows memory order, so a short stride would
        # make it stride long; run the longer axis, across blocks, innermost
        x, y = x.T, y.T
    np.add(x, y, out=x, order="C")
    np.multiply(y, -2, out=y, order="C")
    np.add(y, x, out=y, order="C")


def _check_cap(m: int, cap: int) -> None:
    if m > cap:
        raise ValueError(f"{m} qubits exceeds oracle cap {cap}")
    # 4^m int64 real and imaginary parts, the public ExactMatrix. Inside, the
    # parts are int8, and oracle_check's tracemalloc peak is about 0.96 times
    # this figure (15 bytes an entry): a run's gather holds the matrix and
    # its result, and numpy's take widens the rotation's int8 turns to 8-byte
    # indices. That is 0.96, 3.8 and 15 MiB at m = 8, 9 and 10, about
    # 0.23 GiB at m = 12.
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


def _pauli_parts(p: PauliString) -> np.ndarray:
    """dense_pauli's matrix as one (2, 2^m, 2^m) int8 array of stacked
    parts: its letters act on distinct qubits, so their flips and phases
    add, each taken from its qubit's row of the letter tables."""
    m = p.num_qubits
    flips, phases = _letter_tables(m)
    at = (range(m), p.letters)
    source = np.arange(1 << m) ^ np.bitwise_xor.reduce(flips[at], axis=0)
    phase = (phases[at].sum(axis=0, dtype=np.int8) + p.phase) & 3
    return _matrix(source, phase)


def dense_pauli(p: PauliString, cap: int = DEFAULT_CAP) -> ExactMatrix:
    """i^phase times the product of the letter matrices, each at its qubit
    (qubit 1 is the most significant bit of the row/column index)."""
    _check_cap(p.num_qubits, cap)
    return ExactMatrix(*_pauli_parts(p).astype(np.int64))


def dense_gate(g: Gate, m: int, cap: int = DEFAULT_CAP) -> ExactMatrix:
    """Gate matrix embedded at its targets, identity on the other qubits
    (qubit 1 is the most significant bit of the row/column index)."""
    _check_cap(m, cap)
    Circuit(m, (g,))  # raises IndexError for a target beyond m
    if g.kind == "H":
        a = _matrix(*_compose((), m))
        _butterfly(a, 1 << (2 * m - g.targets[0]))  # the target's row bit
    else:
        a = _matrix(*_monomial(g.kind, g.targets, m))
    return ExactMatrix(*a.astype(np.int64))


def _compile(c: Circuit) -> list:
    """The circuit as conjugation steps in order: the target of each H, and
    one composed monomial form for each maximal run of other gates."""
    m = c.num_qubits
    steps: list = []
    gates = map(_kind_targets, c.ops.tolist())
    for is_h, run in itertools.groupby(gates, lambda kind_targets: kind_targets[0] == "H"):
        if is_h:
            steps.extend(t for _, (t,) in run)
        else:
            steps.append(_compose((_monomial(kind, t, m) for kind, t in run), m))
    return steps


def _conjugate_monomial(a: np.ndarray, source: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """U a U-dagger for the monomial form's U, with one gather and an
    in-place rotation: entry [r, c] is i^(phase[r] - phase[c]) a[source[r], source[c]]."""
    out = a.take(source, axis=1).take(source, axis=2)
    turn = (phase[:, None] - phase) & 3
    cos, sin = _COS.take(turn), _SIN.take(turn)
    re, im = out
    sin_im = sin * im
    im *= cos
    im += sin * re
    re *= cos
    re -= sin_im
    return out


def _conjugate(a: np.ndarray, steps: list, m: int) -> np.ndarray:
    """Conjugate the stacked matrix a through compiled steps, H rescaled."""
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
    """Structurally decode a signed Pauli matrix; raise OracleError otherwise.

    The x-mask comes from the unique nonzero column of row 0; z-bits from the
    sign ratio of single-bit rows; the phase from the value at [0, xmask]
    corrected by i^{#Y}. The decoded string is re-encoded and compared with
    the full matrix, so any non-Pauli input is rejected.
    """
    return _decode(mat.re, mat.im, m)


def _decode(re: np.ndarray, im: np.ndarray, m: int) -> PauliString:
    """decode_pauli on the real and imaginary parts in their own dtype,
    int64 from outside or int8 from _conjugate, never narrowed."""
    dim = 1 << m
    if re.shape != (dim, dim):
        raise OracleError(f"matrix shape {re.shape} does not match {m} qubits")
    row = np.flatnonzero(re[0] | im[0])
    if len(row) != 1:
        raise OracleError("row 0 is not a single-entry row")
    xmask = int(row[0])
    top_re, top_im = int(re[0, xmask]), int(im[0, xmask])
    if (top_re, top_im) not in _UNIT_POWERS:
        raise OracleError(f"entry {top_re}+{top_im}i is not a unit")
    letters = []
    for q in range(1, m + 1):
        r = 1 << (m - q)
        has_x = bool(xmask & r)
        vre, vim = int(re[r, r ^ xmask]), int(im[r, r ^ xmask])
        if (vre, vim) == (top_re, top_im):
            has_z = False
        elif (vre, vim) == (-top_re, -top_im):
            has_z = True
        else:
            raise OracleError(f"entry at row {r} is not +- the reference entry")
        letters.append((2 if has_z else 1) if has_x else (3 if has_z else 0))
    n_y = sum(1 for l in letters if l == 2)
    phase = (_UNIT_POWERS[(top_re, top_im)] + n_y) & 3
    decoded = PauliString(tuple(letters), phase)
    want_re, want_im = _pauli_parts(decoded)
    if not (np.array_equal(want_re, re) and np.array_equal(want_im, im)):
        raise OracleError(f"decode self-check failed for candidate {decoded}")
    return decoded


def _image(steps: list, p: PauliString) -> PauliString:
    m = p.num_qubits
    return _decode(*_conjugate(_pauli_parts(p), steps, m), m)


def oracle_conjugate(c: Circuit, p: PauliString, cap: int = DEFAULT_CAP) -> PauliString:
    """Conjugate p through the circuit with exact matrices and decode the result."""
    if c.num_qubits != p.num_qubits:
        raise ValueError(f"size mismatch: circuit {c.num_qubits}, string {p.num_qubits}")
    _check_cap(p.num_qubits, cap)
    return _image(_compile(c), p)


def oracle_check(
    tree: TernaryTree, cert: Certificate, cap: int = DEFAULT_CAP
) -> TransformReport:
    """Certify a certificate (a StraightenResult is one): every generator
    must land on its signed JW image under the recorded permutation.

    The generator images are re-derived here from the matrices alone, all
    through one compiled circuit, and then matched by the same certify as
    the engine's.
    """
    from .tree import tree_generators

    check_certificate_span(tree, cert)
    _check_cap(tree.num_qubits, cap)
    steps = _compile(cert.circuit)
    images = [_image(steps, p) for p in tree_generators(tree).strings]
    letters = np.array([img.letters for img in images], dtype=np.uint8).T
    phases = np.array([img.phase for img in images], dtype=np.uint8)
    perm_idx = np.asarray(cert.permutation, dtype=np.int64) - 1
    return certify(letters[perm_idx], phases, cert.signs)
