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

A string's form is closed in its x and z masks (qubit q at bit m - q of
a basis index): X flips the bit, Z adds 2 where it is set, and Y, whose
rows hold -i and i, flips it and adds 3, plus 2 where it is set. So i^p
times the string has source r ^ x and phase p + 3 |x & z| + 2 parity(r & z)
in row r. dense_conjugate builds every column's form from the masks it
reads off the packed planes, with popcounts from one table (_POPCOUNT)
and the basis indices and qubit bits sliced from two more (_ROWS, _BITS),
so no call builds them; tests/test_numpy_floor.py keeps every numpy name
here within the declared floor, 1.24. Phases are uint8 exponents, whose
wraparound mod 256 keeps them right mod 4, so no step reduces them before
_decode.

Every gate but H is monomial too. Its form, written out per local row in
_GATE_FORMS and embedded on the 2^m basis states, acts as
(U M)[r] = i^e[r] M[src[r]], and a run of such gates composes into one
such pair at two takes a gate. Row r of U M U-dagger then holds
i^(e[r] + phase[src[r]] - e[c]) at column c = inv[source[src[r]]], where
inv is the inverse permutation of src. _compile reads a circuit's int32
op rows straight into its H gates and the composed pair (and its inverse)
of each maximal run between them, and every string conjugated through
them shares them. _gate_form caches each embedded gate, and each H's
partner and bit arrays, read-only and bounded.

H is stored unnormalized as [[1,1],[1,-1]]. It mixes each basis state only
with its partner across the target's bit (Dehaene and De Moor,
quant-ph/0304125), so row r of H M H meets only rows r and r ^ bit of M,
and those reach at most two columns. _hadamard works out both sums per
row and halves the one nonzero sum exactly; a row that would need more
than one entry, or an entry that does not halve to a unit, raises
OracleError. Both conditions are counted over the whole batch at once,
and the new forms take a dozen whole-array operations, none of them a
reduction.

dense_conjugate has engine.conjugate_inplace's batch contract (packed x
and z planes and a phase row) and works in place, so
straighten.oracle_check differs from verify_transform only in the
conjugator. oracle_conjugate is its one-column call. One decoder,
_decode, reads forms back as x and z masks and phases, which go back into
the planes in one write, and rejects any form that is not a signed Pauli
matrix's: it compares the whole forms with the decoded strings' first,
and only a form that fails is examined again for the error to name.

On perfbench's small trees (m 2..6, 2.55 H gates on average) a
dense_conjugate call takes about 100 us on a 2-vCPU VM: some 18 us per H
step, 21 us in _decode, 18 us from the planes to the forms and 11 us
back, each the cost of a dozen or two numpy calls on arrays of a few
hundred entries.

Intended for small qubit counts (verify's --oracle-cap is 8); every entry
point refuses m > MAX_ORACLE_QUBITS before any allocation. It imports
neither engine nor straighten: the engine is certified against it, never
the other way round, and the test suite checks it against dense matrices
built apart from it in tests/reference.py."""

from __future__ import annotations

import functools

import numpy as np

from .clifford import _NAMES, Circuit, _kind_targets, _one_column
from .pauli import PauliString, check_planes, mask_planes, plane_masks, unpack_planes

# The largest m the test suite measures (oracle_check's tracemalloc peak is
# 4.2 MiB there, the embedded gates included).
MAX_ORACLE_QUBITS = 12

_H = _NAMES.index("H")

# |v|, the set bits of every mask v below 2^MAX_ORACLE_QUBITS (<= 2^16:
# two bytes a value), summed
_POPCOUNT = np.unpackbits(
    np.arange(1 << MAX_ORACLE_QUBITS, dtype=">u2")[:, None].view(np.uint8), axis=1
).sum(axis=1, dtype=np.uint8)
# every basis index, and each qubit's bit, the last qubit's last: on m
# qubits the 2^m indices are a prefix of _ROWS and qubit q's bit is
# _BITS[-m:][q - 1], both views, so no call builds them
_ROWS = np.arange(1 << MAX_ORACLE_QUBITS)
_BITS = 1 << _ROWS[MAX_ORACLE_QUBITS - 1 :: -1]
_POPCOUNT.setflags(write=False)
_ROWS.setflags(write=False)
_BITS.setflags(write=False)


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


# 256 embedded gates: all 6m + 2m(m - 1) for m <= 10 (160, or 0.4 MiB, at
# m = 8), at most 9 MiB of arrays at m = MAX_ORACLE_QUBITS
@functools.lru_cache(maxsize=256)
def _gate_form(code: int, a: int, b: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The gate of op row (code, a, b) on the 2^m basis states, as two
    read-only arrays, since every caller shares them: for H, each state's
    partner across the target's bit and that bit; for any other gate its
    monomial form, source and phase, embedded from _GATE_FORMS (qubit 1
    the most significant bit of a basis index, the first target the most
    significant bit of the gate's own index)."""
    kind, targets = _kind_targets((code, a, b))
    rows = np.arange(1 << m)
    shifts = [m - t for t in targets]
    local = (rows >> shifts[0]) & 1
    for shift in shifts[1:]:
        local = (local << 1) | ((rows >> shift) & 1)
    if kind == "H":
        form = rows ^ (1 << shifts[0]), local.astype(np.uint8)
    else:
        flips, phases = zip(*_GATE_FORMS[kind])
        # each local flip moved onto the targets' bits of a basis index
        k = len(targets)
        spread = [sum(((f >> (k - 1 - j)) & 1) << s for j, s in enumerate(shifts)) for f in flips]
        form = rows ^ np.array(spread).take(local), np.array(phases, dtype=np.uint8).take(local)
    for array in form:
        array.setflags(write=False)
    return form


def _check_cap(m: int) -> None:
    if m > MAX_ORACLE_QUBITS:
        raise ValueError(
            f"{m} qubits is over the oracle's limit of {MAX_ORACLE_QUBITS}"
            " qubits (MAX_ORACLE_QUBITS)"
        )


def _forms(xmask: np.ndarray, zmask: np.ndarray, phases, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 2^m) monomial forms, sources and phases, of the k strings
    i^phases[j] times the one with x mask xmask[j] and z mask zmask[j]:
    row r's source is r ^ x, its phase p + 3 |x & z| + 2 |r & z| (uint8,
    read mod 4)."""
    rows = _ROWS[: 1 << m]
    source = rows ^ xmask[:, None]
    phase = (phases + 3 * _POPCOUNT.take(xmask & zmask))[:, None]
    phase = phase + 2 * _POPCOUNT.take(rows & zmask[:, None])
    return source, phase


def _compile(ops: np.ndarray, m: int) -> list:
    """Op rows on m qubits as conjugation steps in order: each H's target,
    and per maximal run of other gates its composed monomial form and the
    form's inverse permutation."""
    steps: list = []
    for code, a, b in ops.tolist():
        if code == _H:
            steps.append(a + 1)
        elif steps and not isinstance(steps[-1], int):
            src, e = steps[-1]
            s, g = _gate_form(code, a, b, m)
            steps[-1] = src.take(s), g + e.take(s)
        else:
            steps.append(_gate_form(code, a, b, m))
    return [step if isinstance(step, int) else (*step, np.argsort(step[0])) for step in steps]


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
    partner, r_b = _gate_form(_H, t - 1, 0, m)
    turn = phase.take(partner, axis=1) - phase  # B = i^turn (-1)^(r_b) A
    moved = source.take(partner, axis=1) ^ source
    if np.count_nonzero(moved != 1 << shift) or np.count_nonzero(turn & 1):
        raise OracleError(f"inexact rescale after H {t}")
    # B = (-1)^sign A: the nonzero sum sits at s when s_b == sign, as
    # (-1)^(s_b) 2A, and at s ^ b otherwise, as 2A (moved is b in every
    # row); only bit 0 counts
    s_b, sign = (source >> shift).astype(np.uint8), (turn >> 1) ^ r_b
    return source ^ moved * ((s_b ^ sign) & 1), phase + ((r_b ^ (s_b & sign)) << 1)


def _decode(source: np.ndarray, phase: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x masks, z masks and phases of k signed Pauli matrices, given
    as their (k, 2^m) monomial forms; raise OracleError if any form is not
    one.

    Each x mask is row 0's source; z bits come from the sign ratio of the
    single-bit rows, and the phase is row 0's less 3 per Y. The whole
    forms, every row's source and phase, are then compared with the
    decoded strings', r ^ x and row 0's phase plus 2 |r & z| in row r, so
    any non-Pauli form is rejected. The error names a single-bit row whose
    entry is not +- row 0's at the row ^ x mask if there is one, and the
    first failing candidate otherwise.
    """
    rows, bits = _ROWS[: 1 << m], _BITS[-m:]  # qubit q's bit, at q - 1
    xmask, lead = source[:, 0], phase[:, :1]
    turn = phase.take(bits, axis=1) - lead  # (k, m)
    zmask = ((turn >> 1) & 1) @ bits
    phases = (lead[:, 0] + _POPCOUNT.take(xmask & zmask)) & 3
    moved = source ^ rows ^ xmask[:, None]
    turned = (phase - lead - 2 * _POPCOUNT.take(rows & zmask[:, None])) & 3
    if np.count_nonzero(moved) or np.count_nonzero(turned):
        bad = (moved.take(bits, axis=1) != 0) | (turn & 1 != 0)
        if bad.any():
            r = bits[bad.any(axis=0).argmax()]
            raise OracleError(f"entry at row {r} is not +- the reference entry")
        j = ((moved != 0) | (turned != 0)).any(axis=1).argmax()
        letters = unpack_planes(mask_planes(xmask[j : j + 1], zmask[j : j + 1], m), 1)[:, 0]
        candidate = PauliString(letters.tolist(), int(phases[j]))
        raise OracleError(f"decode self-check failed for candidate {candidate}")
    return xmask, zmask, phases


def dense_conjugate(planes: np.ndarray, phases: np.ndarray, ops: np.ndarray) -> None:
    """engine.conjugate_inplace with exact matrices: the batch's columns
    become monomial forms, conjugated through the compiled circuit and
    decoded back."""
    n = len(phases)
    check_planes(planes, n)
    m = len(planes) // 2
    _check_cap(m)
    source, phase = _forms(*plane_masks(planes, n), phases, m)
    for step in _compile(ops, m):
        if isinstance(step, int):
            source, phase = _hadamard(source, phase, m, step)
        else:
            src, e, inv = step
            source = inv.take(source.take(src, axis=1))
            phase = e + phase.take(src, axis=1) - e.take(source)
    xmask, zmask, phases[:] = _decode(source, phase, m)
    planes[:] = mask_planes(xmask, zmask, m)


def oracle_conjugate(c: Circuit, p: PauliString) -> PauliString:
    """Conjugate p through the circuit with exact matrices and decode the result."""
    return _one_column(dense_conjugate, c, p)
