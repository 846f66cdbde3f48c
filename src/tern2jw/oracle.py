"""Exact ground truth for Clifford circuits on Pauli strings.

Nothing here touches floating point, takes a matrix product or holds a
dense matrix. Every matrix the oracle conjugates is a signed Pauli matrix,
and Clifford gates take those to signed Pauli matrices (Aaronson and
Gottesman, quant-ph/0406196), whether or not the certificate being checked
is right. Such a matrix has one unit entry in each row, so its monomial
form is the whole matrix: for each row r of the 2^m basis states, a
source column and a Z4 phase, the entry being i^phase[r] at
[r, source[r]]. Qubit q is bit m - q of a basis index.

A batch of k forms is held bit-sliced, as m + 2 Python ints: one plane
per qubit q holding bit m - q of every source, then the phases' bit 0 and
bit 1. Bit r k + j of a plane is row r of column j, so row 0 is a plane's
low k bits, one int operation acts on every row of every form at once,
and "row r takes row r + d" is a shift by d k bits. _layout builds, per
call, each qubit's row plane (the rows whose basis index has its bit set)
and the spread, sum over r of 2^(r k), whose product with a k-bit column
mask copies it onto every row; the oracle keeps no cache.

A string's form is closed in its x and z masks: X flips the bit, Z adds 2
where it is set, and Y, whose rows hold -i and i, flips it and adds 3,
plus 2 where it is set. So i^p times the string has source r ^ x and
phase p + 3 |x & z| + 2 parity(r & z) in row r. _forms builds every
column's form from the qubits' x and z rows of the packed planes, |x & z|
counted mod 4 in two bit-sliced counter bits.

Every gate but H is monomial too. Its form, written out per local row in
_GATE_FORMS, acts on the 2^m basis states as (U M)[r] = i^e[r] M[src[r]],
and row r of U M U-dagger holds i^(e[r] + phase[src[r]] - e[c]) at
column c = inv[source[src[r]]], where inv is the inverse of src. _gate
reads all three off _GATE_FORMS: every gate there swaps its local rows in
pairs, so src is one masked delta swap of each plane per pair, inv flips
the targets' source planes where their bits pick a flipping local row,
and e[r] - e[c] is added to the phase planes with a two-bit carry.

H is stored unnormalized as [[1,1],[1,-1]]. It mixes each basis state only
with its partner across the target's bit (Dehaene and De Moor,
quant-ph/0304125), so row r of H M H meets only rows r and r ^ bit of M,
and those reach at most two columns. _hadamard checks that every row's
partner has the partner source and a phase that differs by a sign, the
two conditions under which exactly one of the two sums is nonzero and
halves to a unit; otherwise it raises OracleError. The new form then takes
the target's source plane and one phase plane from a few plane
operations.

dense_conjugate has engine.conjugate_inplace's batch contract (packed x
and z planes and a phase row) and works in place, so
straighten.oracle_check differs from verify_transform only in the
conjugator. oracle_conjugate is its one-column call. One decoder,
_decode, reads forms back as each qubit's x and z rows and the phases,
which go back into the planes in one write, and rejects any form that is
not a signed Pauli matrix's: it compares the whole forms with the decoded
strings' first, and only a form that fails is examined again for the error
to name.

On perfbench's small trees (m 2..6) a dense_conjugate call takes about
40 us on a 2-vCPU VM, most of it Python's per-operation cost on ints of a
few hundred bits; at m = 12 a plane of 25 columns is 12.8 KB.

Intended for small qubit counts (verify's --oracle-cap is 8); every entry
point refuses m > MAX_ORACLE_QUBITS before any allocation. It imports no
numpy, and neither engine nor straighten: the engine is certified against
it, never the other way round, and the test suite checks it against dense
matrices built apart from it in tests/reference.py."""

from __future__ import annotations

from .clifford import _NAMES, Circuit, _one_column
from .pauli import PauliString, check_planes, planes_from_rows

# The largest m the test suite measures (oracle_check's tracemalloc peak is
# 0.7 MiB there).
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


def _actions(form) -> tuple:
    """One gate's actions on the 2^m basis states from its _GATE_FORMS
    rows: its target count; the pairs of local rows (l, l ^ flip) it swaps,
    each with every target's bit in l ^ flip less its bit in l (every gate
    there takes row l ^ flip back to l, so its inverse swaps the same
    pairs); and the local rows whose phase has bit 0, and bit 1, set."""
    flips, phases = zip(*form)
    width = len(form).bit_length() - 1
    pairs = tuple(
        (l, l ^ f, tuple(((l ^ f) >> s & 1) - (l >> s & 1) for s in range(width - 1, -1, -1)))
        for l, f in enumerate(flips)
        if l < l ^ f
    )
    signs = tuple(tuple(l for l, e in enumerate(phases) if e >> bit & 1) for bit in (0, 1))
    return width, pairs, signs if any(phases) else ()


# a phase byte's bit 0, and its bit 1, as the ASCII digit of a numeral
_PHASE_BITS = tuple(bytes(48 + (v >> bit & 1) for v in range(256)) for bit in (0, 1))

# per gate code, its actions; None for H
_ACTIONS = [_actions(_GATE_FORMS[n]) if n in _GATE_FORMS else None for n in _NAMES]


def _check_cap(m: int) -> None:
    if m > MAX_ORACLE_QUBITS:
        raise ValueError(
            f"{m} qubits is over the oracle's limit of {MAX_ORACLE_QUBITS}"
            " qubits (MAX_ORACLE_QUBITS)"
        )


def _layout(m: int, k: int) -> tuple[list[int], int, int, int]:
    """The planes every k-column batch on m qubits shares: each qubit's
    row plane (every column of the rows whose basis index has the qubit's
    bit set), the plane of all rows, the spread (bit r k for every row r)
    and k."""
    rep = 1  # a bit at the start of every run of rows, 2^m rows long
    bit_rows = [0] * m
    for q in range(1, m + 1):
        size = k << (m - q)  # bits in the 2^(m - q) rows below q's bit
        bit_rows[q - 1] = ((rep << size) - rep) << size
        rep |= rep << size
    return bit_rows, (1 << (k << m)) - 1, rep, k


def _form(x: list[int], z: list[int], lead0: int, lead1: int, layout) -> list[int]:
    """The forms of the strings whose qubit q has x row x[q - 1] and z row
    z[q - 1], with row 0's phase bits lead0 and lead1 (k-bit column masks):
    source r ^ x and phase lead + 2 parity(r & z) in row r."""
    bit_rows, _, spread, _ = layout
    parity = 0
    for r, zq in zip(bit_rows, z):
        parity ^= r & zq * spread
    sources = [r ^ xq * spread for r, xq in zip(bit_rows, x)]
    return sources + [lead0 * spread, lead1 * spread ^ parity]


def _y_count(x: list[int], z: list[int]) -> tuple[int, int]:
    """Each column's Y count mod 4, |x & z|, as two bit masks."""
    c0 = c1 = 0
    for xq, zq in zip(x, z):
        y = xq & zq
        c1 ^= c0 & y
        c0 ^= y
    return c0, c1


def _forms(x: list[int], z: list[int], p0: int, p1: int, layout) -> list[int]:
    """The forms of the strings i^p times the ones with x rows x and z rows
    z (qubit q at q - 1, a bit per column), p's bits given as the column
    masks p0 and p1: row 0's phase is p + 3 |x & z|, p - |x & z| mod 4."""
    c0, c1 = _y_count(x, z)
    return _form(x, z, p0 ^ c0, p1 ^ c1 ^ (c0 & ~p0), layout)


def _hadamard(form: list[int], layout, t: int) -> None:
    """The forms of H M H / 2 for H on qubit t, in place of those of M.

    With b the target's bit and s = source[r], row r of H M H is the sum
    of A = (-1)^(r_b) i^phase[r], at columns s and s ^ b with signs
    (-1)^(s_b c_b), and B = i^phase[r ^ b], at the same two columns when
    source[r ^ b] = s ^ b. Both sums, A (-1)^(s_b) + B at s and
    A + B (-1)^(1 - s_b) at s ^ b, are exact: exactly one is nonzero, and
    it is twice a unit, when B = +-A. Otherwise the row raises OracleError.
    """
    bit_rows, full, _, k = layout
    m = len(bit_rows)
    shift = k << (m - t)  # row r + b is shift bits above row r
    high = bit_rows[t - 1]
    low = full ^ high
    # every row r with bit b clear against r + b: equal sources but for
    # bit b, and phases of one parity
    apart = form[t - 1] ^ full
    for i, plane in enumerate(form[:-1]):
        if ((plane >> shift) ^ (apart if i == t - 1 else plane)) & low:
            raise OracleError(f"inexact rescale after H {t}")
    # B = (-1)^sign A in row r, the same for r and r ^ b: the nonzero sum
    # sits at s when s_b == sign, as (-1)^(s_b) 2A, and at s ^ b otherwise,
    # as 2A, so the new bit b of the source is sign
    turn = ((form[-1] >> shift) ^ form[-1]) & low
    sign = turn ^ turn << shift ^ high
    form[-1] ^= high ^ (form[t - 1] & sign)
    form[t - 1] = sign


def _minterms(planes: list[int], full: int) -> list[int]:
    """For one or two planes, first the most significant, the planes of
    each local index l: the positions whose bits in them spell l."""
    a = planes[0]
    if len(planes) == 1:
        return [full ^ a, a]
    b = planes[1]
    na, nb = full ^ a, full ^ b
    return [na & nb, na & b, a & nb, a & b]


def _gate(form: list[int], layout, code: int, a: int, b: int) -> None:
    """The forms of U M U-dagger for the gate of op row (code, a, b), in
    place of those of M, with src, inv and e read off _GATE_FORMS."""
    bit_rows, full, _, k = layout
    m = len(bit_rows)
    width, pairs, signs = _ACTIONS[code]
    targets = (a, b)[:width]
    local = _minterms([bit_rows[i] for i in targets], full)
    for l, l2, steps in pairs:
        # rows in local row l trade places with those in l2, offset by
        # d rows: one masked delta swap per plane
        d = sum(s * (k << (m - 1 - i)) for s, i in zip(steps, targets))
        mask = local[l] if d > 0 else local[l2]
        d = abs(d)
        form[:] = [p ^ (t := ((p >> d) ^ p) & mask) ^ t << d for p in form]
    if pairs:
        # inv swaps sources in local rows l and l2 the same way: flip the
        # targets' bits where the two differ
        sources = _minterms([form[i] for i in targets], full)
        for l, l2, steps in pairs:
            moved = sources[l] | sources[l2]
            for i, s in zip(targets, steps):
                if s:
                    form[i] ^= moved
    if signs:
        # e[r] - e[c] mod 4, r the row and c its new source, added in
        sources = _minterms([form[i] for i in targets], full)
        e0 = e1 = c0 = c1 = 0
        for l in signs[0]:
            e0, c0 = e0 | local[l], c0 | sources[l]
        for l in signs[1]:
            e1, c1 = e1 | local[l], c1 | sources[l]
        d0, d1 = e0 ^ c0, e1 ^ c1 ^ (c0 & ~e0)
        form[-1] ^= d1 ^ (form[-2] & d0)
        form[-2] ^= d0


def _decode(form: list[int], layout) -> tuple[list[int], list[int], int, int]:
    """Each qubit's x and z rows of k signed Pauli matrices, given as their
    monomial forms, and the two bit masks of their phases; raise
    OracleError if any form is not one.

    Each x row is row 0's source bits; z bits come from the sign ratio of
    the single-bit rows, and the phase is row 0's less 3 per Y. The whole
    forms, every row's source and phase, are then compared with the
    decoded strings', r ^ x and row 0's phase plus 2 |r & z| in row r, so
    any non-Pauli form is rejected. The error names a single-bit row whose
    entry is not +- row 0's at the row ^ x mask if there is one, and the
    first failing candidate otherwise.
    """
    bit_rows, _, _, k = layout
    m, cols = len(bit_rows), (1 << k) - 1
    x = [plane & cols for plane in form[:m]]
    lead0, lead1 = form[-2] & cols, form[-1] & cols
    z = [((form[-1] >> (k << (m - q))) ^ lead1) & cols for q in range(1, m + 1)]
    c0, c1 = _y_count(x, z)
    p0, p1 = lead0 ^ c0, lead1 ^ c1 ^ (lead0 & c0)
    bad = 0
    for plane, want in zip(form, _form(x, z, lead0, lead1, layout)):
        bad |= plane ^ want
    if bad:
        # z was read off the single-bit rows, so such a row fails only by a
        # moved entry or an odd turn
        for q in range(1, m + 1):
            if bad >> (k << (m - q)) & cols:
                raise OracleError(f"entry at row {1 << (m - q)} is not +- the reference entry")
        width = k << m  # fold the rows onto row 0, halving each time
        while width > k:
            width >>= 1
            bad = (bad | bad >> width) & ((1 << width) - 1)
        j = (bad & -bad).bit_length() - 1
        letters = [(xi >> j & 1 ^ zi >> j & 1) | (zi >> j & 1) << 1 for xi, zi in zip(x, z)]
        candidate = PauliString(letters, (p0 >> j & 1) | (p1 >> j & 1) << 1)
        raise OracleError(f"decode self-check failed for candidate {candidate}")
    return x, z, p0, p1


def dense_conjugate(planes, phases, ops) -> None:
    """engine.conjugate_inplace with exact matrices: the batch's columns
    become bit-sliced monomial forms, conjugated through the op rows one
    gate at a time and decoded back."""
    n = len(phases)
    check_planes(planes, n)
    m = len(planes) // 2
    _check_cap(m)
    # every plane row off one int of the planes' bytes, its padding bits
    # dropped
    bits, stride = int.from_bytes(planes.tobytes(), "little"), 64 * planes.shape[1]
    cols = (1 << n) - 1
    xz = [bits >> stride * i & cols for i in range(2 * m)]
    # each phase's bit 0 and bit 1 as a binary numeral, column 0 last
    text = phases.tobytes()[::-1]
    p0, p1 = (int(text.translate(table) or b"0", 2) for table in _PHASE_BITS)
    layout = _layout(m, n)
    form = _forms(xz[:m], xz[m:], p0, p1, layout)
    for code, a, b in ops.tolist():
        if _ACTIONS[code] is None:
            _hadamard(form, layout, a + 1)
        else:
            _gate(form, layout, code, a, b)
    x, z, p0, p1 = _decode(form, layout)
    planes[:] = planes_from_rows(x + z, n)
    phases[:] = [(p0 >> j & 1) | (p1 >> j & 1) << 1 for j in range(n)]


def oracle_conjugate(c: Circuit, p: PauliString) -> PauliString:
    """Conjugate p through the circuit with exact matrices and decode the result."""
    return _one_column(dense_conjugate, c, p)
