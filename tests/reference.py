"""A one-string model of the Pauli algebra, for checking the library's batch path.

The library multiplies, conjugates and matches Pauli strings as packed x
and z planes. These definitions take one string at a time, straight from
the letter rules, with no input checks: callers pass valid input.
letters_matrix stacks a tree's path products, built one path at a time,
as an (m, 2m+1) letter matrix, one column per generator.

The dense matrices here are the exact oracle's independent ground truth:
built from fixed 2x2 and 4x4 tables, a string's with np.kron and a gate's by
comparing the bits off its targets, they share nothing with the oracle's
monomial forms, and this module imports nothing from tern2jw.oracle.

circuit_parse and certificate_parse are the line-by-line text readers the
library's one bulk pass replaced, kept to check that pass against: the
same Circuit and directives, or the same error text.
"""

import re
from dataclasses import dataclass

import numpy as np

from tern2jw import Certificate, Circuit, Gate, PauliString, tree_leaves
from tern2jw.engine import GATE_CODES, N_SINGLE
from tern2jw.tree import XYZ

_SIGNS = ("+", "+i", "-", "-i")


def pauli_identity(m):
    return PauliString((0,) * m)


def pauli_parse(text):
    """`sign? letters` with sign in +, +i, -, -i (default +)."""
    sign, letters = re.fullmatch(r"([+-]i?)?([IXYZ]+)", text).groups()
    return PauliString(tuple("IXYZ".index(l) for l in letters), _SIGNS.index(sign or "+"))


def pauli_mul(a, b):
    """a*b letter by letter: XY = iZ, YZ = iX, ZX = iY, and -i the other way."""
    phase = a.phase + b.phase
    for la, lb in zip(a.letters, b.letters):
        if la and lb and la != lb:
            phase += 1 if (lb - la) % 3 == 1 else 3
    return PauliString(tuple(la ^ lb for la, lb in zip(a.letters, b.letters)), phase % 4)


def pauli_commutes(a, b):
    """Strings commute when an even number of places hold two different non-I letters."""
    return sum(1 for la, lb in zip(a.letters, b.letters) if la and lb and la != lb) % 2 == 0


def pauli_weight(a):
    return sum(1 for l in a.letters if l)


def path_product(t, path):
    """The paper's generator: one letter per node on a root-to-terminal path."""
    letters = [0] * t.num_qubits
    for q, label in path:
        letters[q - 1] = XYZ.index(label) + 1
    return PauliString(tuple(letters))


def letters_matrix(t):
    """(m, 2m+1) uint8 letter codes of the path products, one column per
    leaf in canonical order."""
    return np.array([path_product(t, path).letters for path in tree_leaves(t)], dtype=np.uint8).T


def jw_generator(m, rank):
    """Z^(k-1) X I... at rank 2k-1, Z^(k-1) Y I... at rank 2k, all Z at 2m+1."""
    if rank == 2 * m + 1:
        return PauliString((3,) * m)
    k = (rank + 1) // 2
    return PauliString((3,) * (k - 1) + (2 - rank % 2,) + (0,) * (m - k))


def jw_match(p):
    """(rank, sign) with p = sign * jw_generator(m, rank), or None, found
    by comparing p with every JW generator in turn."""
    m = p.num_qubits
    for rank in range(1, 2 * m + 2):
        if p.letters == jw_generator(m, rank).letters and p.phase in (0, 2):
            return rank, 1 - p.phase
    return None


def certify_columns(strings, signs=None):
    """certify's verdicts, one string at a time: string j passes when it
    matches a JW generator, with sign signs[j] if given, at a rank no
    earlier passing string took."""
    taken, results = set(), []
    for j, p in enumerate(strings):
        match = jw_match(p)
        good = match is not None and (signs is None or match[1] == signs[j])
        good = good and match[0] not in taken
        if good:
            taken.add(match[0])
        results.append(good)
    return tuple(results)


@dataclass(frozen=True, eq=False)
class ExactMatrix:
    """Gaussian-integer matrix: int64 real and imaginary parts, equal by value."""

    re: np.ndarray
    im: np.ndarray

    def __eq__(self, other):
        return np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)


def _exact(re, im=None):
    re = np.array(re, dtype=np.int64)
    return ExactMatrix(re, np.zeros_like(re) if im is None else np.array(im, dtype=np.int64))


_LETTER_MATRICES = (  # I X Y Z
    _exact([[1, 0], [0, 1]]),
    _exact([[0, 1], [1, 0]]),
    _exact([[0, 0], [0, 0]], [[0, -1], [1, 0]]),
    _exact([[1, 0], [0, -1]]),
)
_GATE_MATRICES = {  # H unnormalized; the first target is the high bit
    "H": _exact([[1, 1], [1, -1]]),
    "S": _exact([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
    "SDG": _exact([[1, 0], [0, 0]], [[0, 0], [0, -1]]),
    "X": _LETTER_MATRICES[1],
    "Y": _LETTER_MATRICES[2],
    "Z": _LETTER_MATRICES[3],
    "CZ": _exact(np.diag([1, 1, 1, -1])),
    "CX": _exact([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "SWAP": _exact([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


def gkron(a, b):
    """Kronecker product of Gaussian-integer matrices."""
    re = np.kron(a.re, b.re) - np.kron(a.im, b.im)
    im = np.kron(a.re, b.im) + np.kron(a.im, b.re)
    return ExactMatrix(re, im)


def dense_pauli(p):
    """i^phase times the Kronecker product of the letter matrices, qubit 1
    leftmost (the most significant bit of a row or column index)."""
    out = _exact([[(1, 0, -1, 0)[p.phase]]], [[(0, 1, 0, -1)[p.phase]]])
    for code in p.letters:
        out = gkron(out, _LETTER_MATRICES[code])
    return out


def dense_gate(g, m):
    """The gate's table at its targets, identity on the other qubits: entry
    [r, c] is the table's entry at the targets' bits of r and c if r and c
    agree on every other bit, else 0."""
    rows = np.arange(1 << m)
    local, mask = 0, 0
    for t in g.targets:
        local = (local << 1) | ((rows >> (m - t)) & 1)
        mask |= 1 << (m - t)
    same = (rows[:, None] & ~mask) == (rows[None, :] & ~mask)
    table = _GATE_MATRICES[g.kind]
    at = local[:, None], local[None, :]
    return ExactMatrix(np.where(same, table.re[at], 0), np.where(same, table.im[at], 0))


def decode_pauli(mat, m):
    """The signed string whose dense matrix is mat, or ValueError.

    Row 0's nonzero column is the x-mask, and qubit q has a z when row
    2^(m-q)'s entry at that row ^ x-mask differs from row 0's; the
    candidate is returned at the phase, if any, where its whole matrix
    equals mat."""
    if mat.re.shape == (1 << m, 1 << m):
        x = int(((mat.re[0] != 0) | (mat.im[0] != 0)).argmax())
        letters = []
        for q in range(1, m + 1):
            bit = 1 << (m - q)
            z = (mat.re[bit, bit ^ x], mat.im[bit, bit ^ x]) != (mat.re[0, x], mat.im[0, x])
            letters.append(1 + z if x & bit else 3 * z)
        for phase in range(4):
            p = PauliString(tuple(letters), phase)
            if dense_pauli(p) == mat:
                return p
    raise ValueError(f"not a signed Pauli matrix on {m} qubits")


def _part_product(a, b):
    """a @ b for two int64 parts, left out when either is all zeros."""
    if a.any() and b.any():
        return a @ b
    return np.zeros((len(a), b.shape[1]), dtype=np.int64)


def matmul(*factors):
    """The product of Gaussian-integer matrices, left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = ExactMatrix(
            _part_product(out.re, f.re) - _part_product(out.im, f.im),
            _part_product(out.re, f.im) + _part_product(out.im, f.re),
        )
    return out


def _is_index(token):
    """A qubit index in circuit text: ASCII digits after an optional sign."""
    return token.isascii() and (token[1:] if token[0] in "+-" else token).isdigit()


def _raise_gate_line(tokens, lineno):
    kind = tokens[0]
    if kind not in GATE_CODES:
        raise ValueError(f"line {lineno}: unknown gate {kind!r}")
    if not all(map(_is_index, tokens[1:])):
        raise ValueError(f"line {lineno}: bad qubit index in {' '.join(tokens)!r}")
    try:
        Gate(kind, tuple(map(int, tokens[1:])))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def circuit_parse(text, num_qubits=None, directives=()):
    """The line-by-line circuit text reader that the library's bulk pass
    replaced: each line is checked as it is read, so an error names the
    first bad line; only a target beyond the qubit count, which a later
    QUBITS header may set, is found when the rows become the circuit."""
    rows = []
    where = []  # the line number of each row
    found = {}
    directives = frozenset(directives)
    declared = num_qubits
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head, args = tokens[0], tokens[1:]
        if head == "QUBITS":
            if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
                raise ValueError(f"line {n}: bad QUBITS header {line.strip()!r}")
            count = int(args[0])
            if declared is not None and count != declared:
                raise ValueError(f"line {n}: QUBITS {count} conflicts with expected {declared}")
            declared = count
        elif head in directives:
            if head in found:
                raise ValueError(f"line {n}: duplicate {head} directive")
            found[head] = args
        else:
            code = GATE_CODES.get(head, -1)
            pair = code >= N_SINGLE
            if code < 0 or len(args) != 1 + pair or not all(map(_is_index, args)):
                _raise_gate_line(tokens, n)
            a, b = int(args[0]) - 1, int(args[-1]) - 1 if pair else 0
            if a < 0 or b < 0 or pair and a == b:
                _raise_gate_line(tokens, n)
            rows.append((code, a, b))
            where.append(n)
    if declared is None:
        declared = max(max(r[1:]) for r in rows) + 1 if rows else 1
    try:
        return Circuit.from_ops(declared, rows), found
    except IndexError as exc:  # a target beyond the qubit count: name its line
        r = next(r for r, (_, a, b) in enumerate(rows) if max(a, b) >= declared)
        raise ValueError(f"line {where[r]}: {exc}") from None


def certificate_parse(text, num_qubits=None):
    """The certificate reader on the line-by-line circuit reader."""
    circuit, found = circuit_parse(text, num_qubits, directives=("PERM", "SIGNS"))
    for name in ("PERM", "SIGNS"):
        if name not in found:
            raise ValueError(f"certificate is missing its {name} line")
    if not all(map(_is_index, found["PERM"])):
        raise ValueError(f"bad PERM entries: {' '.join(found['PERM'])!r}")
    perm = tuple(map(int, found["PERM"]))
    m = len(perm)
    if num_qubits is not None and m != num_qubits:
        raise ValueError(f"PERM lists {m} qubits, expected {num_qubits}")
    if circuit.num_qubits > m:
        raise ValueError(f"circuit touches qubit {circuit.num_qubits} but PERM lists only {m}")
    bad = [tok for tok in found["SIGNS"] if tok not in ("+", "-")]
    if bad:
        raise ValueError(f"bad SIGNS entries: {' '.join(bad)!r}")
    if circuit.num_qubits != m:
        circuit = Circuit.from_ops(m, circuit.ops)
    signs = tuple(1 if tok == "+" else -1 for tok in found["SIGNS"])
    return Certificate(circuit, perm, signs)
