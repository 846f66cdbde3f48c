"""Exact dense-matrix ground truth for Pauli strings and Clifford circuits.

All matrices carry Gaussian-integer entries held as separate int64 real and
imaginary parts; nothing here ever touches floating point. H is stored
unnormalized as [[1,1],[1,-1]], so conjugating by it scales a matrix by 2;
the per-gate conjugation divides that factor back out exactly (a conjugated
signed Pauli matrix always keeps entries in {0, +-1, +-i}, so the division
is exact and entries never grow).

Intended for small qubit counts (default cap 8, i.e. 256x256); whatever the
cap, m >= 13 is refused before any allocation, since its dense matrix would
exceed MAX_LETTER_CELLS bytes. The symbolic engine is certified against this
module, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import Circuit, Gate
from .pauli import PauliString
from .straighten import (
    Certificate,
    TransformReport,
    certify,
    check_certificate_span,
)
from .tree import MAX_LETTER_CELLS, TernaryTree

DEFAULT_CAP = 8


class OracleError(Exception):
    """Internal-consistency failure: a conjugation left the signed-Pauli set."""


@dataclass(frozen=True)
class ExactMatrix:
    """Gaussian-integer matrix: separate int64 real and imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    @property
    def dim(self) -> int:
        return self.re.shape[0]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        re = self.re @ other.re - self.im @ other.im
        im = self.re @ other.im + self.im @ other.re
        return ExactMatrix(re, im)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return bool(
            np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)
        )

    def __hash__(self) -> int:  # pragma: no cover - matrices are not dict keys
        return id(self)


def _mat(re, im=None) -> ExactMatrix:
    re = np.array(re, dtype=np.int64)
    im = np.zeros_like(re) if im is None else np.array(im, dtype=np.int64)
    return ExactMatrix(re, im)


def gkron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product of Gaussian-integer matrices."""
    re = np.kron(a.re, b.re) - np.kron(a.im, b.im)
    im = np.kron(a.re, b.im) + np.kron(a.im, b.re)
    return ExactMatrix(re, im)


_PAULI_MATS = (
    _mat([[1, 0], [0, 1]]),
    _mat([[0, 1], [1, 0]]),
    _mat([[0, 0], [0, 0]], [[0, -1], [1, 0]]),
    _mat([[1, 0], [0, -1]]),
)

_GATE_MATS = {
    "H": _mat([[1, 1], [1, -1]]),
    "S": _mat([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
    "SDG": _mat([[1, 0], [0, 0]], [[0, 0], [0, -1]]),
    "X": _PAULI_MATS[1],
    "Y": _PAULI_MATS[2],
    "Z": _PAULI_MATS[3],
    "CZ": _mat(np.diag([1, 1, 1, -1])),
    "CX": _mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "SWAP": _mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}

# i^k applied to (re, im): k=1 maps a+bi -> -b+ai, etc.
def _scale_phase(m: ExactMatrix, k: int) -> ExactMatrix:
    k &= 3
    if k == 0:
        return m
    if k == 1:
        return ExactMatrix(-m.im, m.re)
    if k == 2:
        return ExactMatrix(-m.re, -m.im)
    return ExactMatrix(m.im, -m.re)


def _check_cap(m: int, cap: int) -> None:
    if m > cap:
        raise ValueError(f"{m} qubits exceeds oracle cap {cap}")
    dense_bytes = 16 << (2 * m)  # 4^m entries, int64 real and imaginary parts
    if dense_bytes > MAX_LETTER_CELLS:
        raise ValueError(
            f"{m} qubits needs a {dense_bytes}-byte dense matrix, over the"
            f" oracle's limit of {MAX_LETTER_CELLS} bytes (MAX_LETTER_CELLS)"
        )


def dense_pauli(p: PauliString, cap: int = DEFAULT_CAP) -> ExactMatrix:
    """Kronecker product of the letters (qubit 1 leftmost) times i^phase."""
    _check_cap(p.num_qubits, cap)
    out = _PAULI_MATS[p.letters[0]]
    for code in p.letters[1:]:
        out = gkron(out, _PAULI_MATS[code])
    return _scale_phase(out, p.phase)


def _on_rows(
    gate: ExactMatrix, re: np.ndarray, im: np.ndarray, targets, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """gate . (re + i im), with gate embedded at its targets among the m row qubits.

    Qubit 1 is the most significant bit of the row index. The target bits
    are moved to the front of the row axes, so the cost is one small
    matrix product over a (2^k, rest) view rather than a 2^m-square one.
    """
    k = len(targets)
    axes = [t - 1 for t in targets]
    shape = (2,) * m + (re.shape[1],)
    back = (2,) * k + shape[k:]
    r, i = (np.moveaxis(p.reshape(shape), axes, range(k)).reshape(1 << k, -1) for p in (re, im))
    nr = gate.re @ r - gate.im @ i
    ni = gate.re @ i + gate.im @ r
    return tuple(np.moveaxis(p.reshape(back), range(k), axes).reshape(re.shape) for p in (nr, ni))


def dense_gate(g: Gate, m: int, cap: int = DEFAULT_CAP) -> ExactMatrix:
    """Gate matrix embedded at its targets, identity on the other qubits.

    Qubit 1 is the most significant bit of the row/column index.
    """
    _check_cap(m, cap)
    if max(g.targets) > m:
        raise IndexError(f"gate {g} exceeds {m} qubits")
    eye = _mat(np.eye(1 << m))
    return ExactMatrix(*_on_rows(_GATE_MATS[g.kind], eye.re, eye.im, g.targets, m))


def _apply_gate(mat: ExactMatrix, g: Gate, m: int) -> ExactMatrix:
    """Conjugate mat by the embedded gate: G . mat . G-dagger, rescaled for H.

    G-dagger acts on the columns as conj(G) acts on the rows of the
    transpose: mat . G-dagger = (conj(G) . mat^T)^T.
    """
    base = _GATE_MATS[g.kind]
    re, im = _on_rows(base, mat.re, mat.im, g.targets, m)
    re, im = _on_rows(ExactMatrix(base.re, -base.im), re.T, im.T, g.targets, m)
    re, im = re.T, im.T
    if g.kind == "H":
        if (re & 1).any() or (im & 1).any():
            raise OracleError(f"inexact rescale after {g}")
        re >>= 1
        im >>= 1
    return ExactMatrix(re, im)


def decode_pauli(mat: ExactMatrix, m: int) -> PauliString:
    """Structurally decode a signed Pauli matrix; raise OracleError otherwise.

    The x-mask comes from the unique nonzero column of row 0; z-bits from the
    sign ratio of single-bit rows; the phase from the value at [0, xmask]
    corrected by i^{#Y}. The decoded string is re-encoded and compared with
    the full matrix, so any non-Pauli input is rejected.
    """
    dim = 1 << m
    if mat.re.shape != (dim, dim):
        raise OracleError(f"matrix shape {mat.re.shape} does not match {m} qubits")
    row = np.flatnonzero(mat.re[0] | mat.im[0])
    if len(row) != 1:
        raise OracleError("row 0 is not a single-entry row")
    xmask = int(row[0])
    top_re, top_im = int(mat.re[0, xmask]), int(mat.im[0, xmask])
    values = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}
    if (top_re, top_im) not in values:
        raise OracleError(f"entry {top_re}+{top_im}i is not a unit")
    letters = []
    for q in range(1, m + 1):
        r = 1 << (m - q)
        has_x = bool(xmask & r)
        vre, vim = int(mat.re[r, r ^ xmask]), int(mat.im[r, r ^ xmask])
        if (vre, vim) == (top_re, top_im):
            has_z = False
        elif (vre, vim) == (-top_re, -top_im):
            has_z = True
        else:
            raise OracleError(f"entry at row {r} is not +- the reference entry")
        letters.append((2 if has_z else 1) if has_x else (3 if has_z else 0))
    n_y = sum(1 for l in letters if l == 2)
    phase = (values[(top_re, top_im)] + n_y) & 3
    decoded = PauliString(tuple(letters), phase)
    if dense_pauli(decoded, cap=m) != mat:
        raise OracleError(f"decode self-check failed for candidate {decoded}")
    return decoded


def oracle_conjugate(c: Circuit, p: PauliString, cap: int = DEFAULT_CAP) -> PauliString:
    """Conjugate p through the circuit with exact matrices and decode the result."""
    if c.num_qubits != p.num_qubits:
        raise ValueError(f"size mismatch: circuit {c.num_qubits}, string {p.num_qubits}")
    _check_cap(p.num_qubits, cap)
    mat = dense_pauli(p, cap)
    for g in c.gates:
        mat = _apply_gate(mat, g, p.num_qubits)
    return decode_pauli(mat, p.num_qubits)


def oracle_check(
    tree: TernaryTree, cert: Certificate, cap: int = DEFAULT_CAP
) -> TransformReport:
    """Certify a certificate (a StraightenResult is one): every generator
    must land on its signed JW image under the recorded permutation.

    The generator images are re-derived here from the matrices alone and
    then matched by the same certify as the engine's.
    """
    from .tree import tree_generators

    check_certificate_span(tree, cert)
    _check_cap(tree.num_qubits, cap)
    gens = tree_generators(tree).strings
    images = [oracle_conjugate(cert.circuit, p, cap) for p in gens]
    letters = np.array([img.letters for img in images], dtype=np.uint8).T
    phases = np.array([img.phase for img in images], dtype=np.uint8)
    perm_idx = np.asarray(cert.permutation, dtype=np.int64) - 1
    return certify(letters[perm_idx], phases, cert.signs)
