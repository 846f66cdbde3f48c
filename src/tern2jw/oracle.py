"""Exact dense-matrix ground truth for Pauli strings and Clifford circuits.

Matrices hold Gaussian integers as int64 real and imaginary parts; nothing
here touches floating point. One primitive, _on_rows, applies a gate to the
row bits of its targets: dense_gate and dense_pauli apply it to the
identity, and conjugation applies the doubled gate G (x) conj(G) to the row
and column bits of the vectorized matrix. H is stored unnormalized as
[[1,1],[1,-1]], so conjugating by it scales a matrix by 2, which each
conjugation divides back out exactly (a conjugated signed Pauli matrix
keeps entries in {0, +-1, +-i}, so entries never grow).

Intended for small qubit counts (default cap 8, i.e. 256x256); whatever the
cap, m >= 13 is refused before any allocation, since its dense matrix would
exceed MAX_LETTER_CELLS bytes. The symbolic engine is certified against this
module, never the other way round."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .clifford import Circuit, Gate, _kind_targets
from .pauli import PauliString, pauli_identity
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


def _real(g: ExactMatrix) -> np.ndarray:
    """g as a real matrix on its input's stacked parts: [[re, -im], [im, re]]."""
    return np.block([[g.re, -g.im], [g.im, g.re]])


@functools.cache
def _gate_action(kind: str, doubled: bool = False) -> np.ndarray:
    """A gate in real form for _on_rows, built on first use and read-only,
    since every caller shares it. Doubled, it is G (x) conj(G), which
    conjugates a matrix through its row-major (4^m, 1) view."""
    g = _GATE_MATS[kind]
    action = _real(gkron(g, ExactMatrix(g.re, -g.im)) if doubled else g)
    action.setflags(write=False)
    return action


def _check_cap(m: int, cap: int) -> None:
    if m > cap:
        raise ValueError(f"{m} qubits exceeds oracle cap {cap}")
    # 4^m int64 real and imaginary parts; oracle_conjugate's tracemalloc peak
    # is 4.0 times that (decode_pauli holds the image while dense_pauli runs):
    # 4, 16 and 64 MiB at m = 8, 9 and 10, about 1 GiB at m = 12.
    dense_bytes = 16 << (2 * m)
    if dense_bytes > MAX_LETTER_CELLS:
        raise ValueError(
            f"{m} qubits needs a {dense_bytes}-byte dense matrix, over the"
            f" oracle's limit of {MAX_LETTER_CELLS} bytes (MAX_LETTER_CELLS)"
        )


def _on_rows(gate: np.ndarray, a: np.ndarray, targets) -> np.ndarray:
    """Apply a k-qubit gate to the row bits of its targets in a (2, 2^m, cols) array.

    a stacks the real and imaginary parts and the gate is in real form
    (_real), so the imaginary unit is one more bit: a is viewed as m+1 axes
    of size 2, the unit on axis 0 and qubit q on axis q (qubit 1 the most
    significant), then its columns. Moving the k+1 gate axes last makes the
    cost one product of a (rest, 2^(k+1)) view, over contiguous rows, with
    the small gate.
    """
    axes = (0, *targets)
    last = range(-len(axes), 0)
    moved = np.moveaxis(a.reshape((2,) * a.shape[1].bit_length() + (-1,)), axes, last)
    out = moved.reshape(-1, len(gate)) @ gate.T
    return np.moveaxis(out.reshape(moved.shape), last, axes).reshape(a.shape)


def _pauli_parts(p: PauliString) -> np.ndarray:
    """dense_pauli's matrix as one (2, 2^m, 2^m) array of stacked parts."""
    dim = 1 << p.num_qubits
    a = np.zeros((2, dim, dim), dtype=np.int64)
    a[p.phase & 1].flat[:: dim + 1] = 1 - (p.phase & 2)
    for q, code in enumerate(p.letters, start=1):
        if code:
            a = _on_rows(_gate_action("IXYZ"[code]), a, (q,))
    return a


def dense_pauli(p: PauliString, cap: int = DEFAULT_CAP) -> ExactMatrix:
    """i^phase times the identity, with each letter applied at its qubit
    (qubit 1 is the most significant bit of the row/column index)."""
    _check_cap(p.num_qubits, cap)
    return ExactMatrix(*_pauli_parts(p))


def dense_gate(g: Gate, m: int, cap: int = DEFAULT_CAP) -> ExactMatrix:
    """Gate matrix embedded at its targets, identity on the other qubits
    (qubit 1 is the most significant bit of the row/column index)."""
    _check_cap(m, cap)
    Circuit(m, (g,))  # raises IndexError for a target beyond m
    return ExactMatrix(*_on_rows(_gate_action(g.kind), _pauli_parts(pauli_identity(m)), g.targets))


def _apply_gate(a: np.ndarray, kind: str, targets: tuple[int, ...], m: int) -> np.ndarray:
    """Conjugate the stacked matrix a by the embedded gate, rescaled for H.

    In row-major order vec(G M G-dagger) = (G (x) conj G) vec(M), so the
    doubled gate acts on the row bits t and the column bits m + t of M's
    (4^m, 1) view.
    """
    bits = targets + tuple(m + t for t in targets)
    out = _on_rows(_gate_action(kind, True), a.reshape(2, -1, 1), bits).reshape(a.shape)
    if kind == "H":
        if (out & 1).any():
            raise OracleError(f"inexact rescale after H {targets[0]}")
        out >>= 1
    return out


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
    a = _pauli_parts(p)
    for kind, targets in map(_kind_targets, c.ops.tolist()):
        a = _apply_gate(a, kind, targets, p.num_qubits)
    return decode_pauli(ExactMatrix(*a), p.num_qubits)


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
