"""Clifford gates, circuits, and the exact conjugation action on Pauli strings.

Gate vocabulary: H, S, SDG, X, Y, Z (single-qubit) and CZ, CX, SWAP
(two-qubit). Circuit order convention: the first listed gate acts first on
states, so conjugating through a circuit applies the per-gate adjoint maps in
listed order. CZ and SWAP are symmetric in their targets and are stored with
targets sorted; CX keeps its order (first target is the control). A Circuit
is the engine's read-only int32 (L, 3) op array and nothing else; text,
inversion and cancellation work on its rows, and Gate objects are built
only when a caller asks for them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import GATE_CODES, N_SINGLE, PAIR_GATES, SINGLE_GATES, conjugate_inplace, encode_gates
from .pauli import PauliString

_NAMES = SINGLE_GATES + PAIR_GATES  # indexed by gate code
_INVERSE = np.array([GATE_CODES[{"S": "SDG", "SDG": "S"}.get(n, n)] for n in _NAMES])
_CX = GATE_CODES["CX"]
_TEXT = tuple(f"{n} {{1}}" if c < N_SINGLE else f"{n} {{1}} {{2}}" for c, n in enumerate(_NAMES))
_MAX_QUBITS = 2**31 - 1  # target rows are int32


def _pair_rules(code, a, b):
    """The two-target rules on 0-based rows a and b (b is 0 for
    single-qubit codes), on one gate's ints or elementwise on arrays:
    (equal pair targets, CZ or SWAP targets that are stored swapped, in
    sorted order)."""
    pair = code >= N_SINGLE
    return pair & (a == b), pair & (code != _CX) & (a > b)


@dataclass(frozen=True)
class Gate:
    """One Clifford gate application: kind plus 1-based target qubits."""

    kind: str
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        code = GATE_CODES.get(self.kind)
        if code is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 1 if code < N_SINGLE else 2
        if len(self.targets) != want:
            raise ValueError(f"{self.kind} takes {want} target(s), got {self.targets}")
        try:
            targets = tuple(map(operator.index, self.targets))
        except TypeError:
            raise ValueError(f"targets must be integers, got {self.targets}") from None
        object.__setattr__(self, "targets", targets)
        a, b = targets[0] - 1, targets[1] - 1 if want == 2 else 0
        same, unsorted = _pair_rules(code, a, b)
        if a < 0 or b < 0:
            raise ValueError(f"targets must be 1-based positive, got {self.targets}")
        if same:
            raise ValueError(f"{self.kind} targets must be distinct, got {self.targets}")
        if unsorted:
            object.__setattr__(self, "targets", targets[::-1])

    def __str__(self) -> str:
        return " ".join([self.kind, *(str(t) for t in self.targets)])


def _is_index(token: str) -> bool:
    """A qubit index in circuit text: ASCII digits after an optional sign."""
    return token.isascii() and (token[1:] if token[0] in "+-" else token).isdigit()


def _kind_targets(row) -> tuple[str, tuple[int, ...]]:
    """Gate name and 1-based targets of one op row."""
    code, a, b = (int(v) for v in row)
    return _NAMES[code], (a + 1,) if code < N_SINGLE else (a + 1, b + 1)


def _raise_first_fault(ops: np.ndarray, num_qubits: int | None, explain=None) -> None:
    """Raise for the first fault in the op rows, in this order: the first
    row breaking a per-gate rule raises what explain(row index) raises, by
    default the ValueError of that row's Gate; then, unless num_qubits is
    None, a bad qubit count raises ValueError and the first target beyond
    it IndexError. Returns if there is none."""
    code, a, b = ops.T
    bad = (a < 0) | (b < 0) | _pair_rules(code, a, b)[0]
    if np.count_nonzero(bad):
        (explain or (lambda i: Gate(*_kind_targets(ops[i]))))(int(bad.argmax()))
    if num_qubits is None:
        return
    if num_qubits < 1:
        raise ValueError(f"qubit count must be positive, got {num_qubits}")
    if num_qubits > _MAX_QUBITS:
        raise ValueError(f"qubit count {num_qubits} does not fit int32 rows")
    over = np.maximum(a, b) >= num_qubits
    if np.count_nonzero(over):
        g = Gate(*_kind_targets(ops[over.argmax()]))
        raise IndexError(f"gate {g} exceeds {num_qubits} qubits")


def _checked_ops(ops, num_qubits: int) -> np.ndarray:
    """A read-only int32 copy of the op rows, checked against every target
    rule and against num_qubits, CZ and SWAP targets sorted.

    One combined guard passes good rows; only a fault runs
    _raise_first_fault, which words the error.
    """
    ops = np.array(ops).reshape(-1, 3)
    if ops.dtype.kind != "i":  # an empty list's floats, or the parser's objects past int64
        _raise_first_fault(ops, num_qubits)
        ops = ops.astype(np.int32)
    code, a, b = ops[:, 0], ops[:, 1], ops[:, 2]  # views, so they see the sort
    same, unsorted = _pair_rules(code, a, b)
    unsigned = f"u{ops.itemsize}"  # a target below row 0 is then beyond any qubit count
    if (
        not 0 < num_qubits <= _MAX_QUBITS
        or np.count_nonzero(np.maximum(a.view(unsigned), b.view(unsigned)) >= num_qubits)
        or np.count_nonzero(same)
    ):
        _raise_first_fault(ops, num_qubits)
    if np.count_nonzero(unsorted):
        ops[unsorted, 1:] = ops[unsorted, :0:-1]
    ops = ops.astype(np.int32, copy=False)  # every target is below num_qubits, so it fits
    ops.flags.writeable = False
    return ops


@dataclass(frozen=True, init=False, eq=False)
class Circuit:
    """Ordered gate sequence on num_qubits wires, held as its op array.

    Circuit(m, gates) encodes Gate objects; library code builds a circuit
    straight from op rows with Circuit.from_ops. Both routes run the same
    checks. gates is derived from the rows on each access.
    """

    num_qubits: int
    ops: np.ndarray

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = ()) -> None:
        ops = encode_gates([(g.kind, g.targets) for g in gates])
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "ops", _checked_ops(ops, num_qubits))

    @classmethod
    def from_ops(cls, num_qubits: int, ops) -> "Circuit":
        """A circuit on (gate code, row a, row b) rows; target rows are 0-based."""
        c = cls.__new__(cls)
        object.__setattr__(c, "num_qubits", num_qubits)
        object.__setattr__(c, "ops", _checked_ops(ops, num_qubits))
        return c

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(Gate(*_kind_targets(row)) for row in self.ops.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.array_equal(self.ops, other.ops)

    def __hash__(self) -> int:
        return hash((self.num_qubits, self.ops.tobytes()))

    def __len__(self) -> int:
        return len(self.ops)

    def __str__(self) -> str:
        return circuit_format(self)


def conjugate_circuit(c: Circuit, p: PauliString) -> PauliString:
    """Conjugate p through the circuit in listed order, as a one-column batch."""
    if c.num_qubits != p.num_qubits:
        raise ValueError(f"size mismatch: circuit {c.num_qubits}, string {p.num_qubits}")
    letters = np.array(p.letters, dtype=np.uint8)[:, None]
    phases = np.array([p.phase], dtype=np.uint8)
    conjugate_inplace(letters, phases, c.ops)
    return PauliString(tuple(letters[:, 0].tolist()), int(phases[0]))


def invert_circuit(c: Circuit) -> Circuit:
    """Reverse the gate order and invert each gate (S and SDG swap codes)."""
    rows = c.ops[::-1]
    return Circuit.from_ops(c.num_qubits, np.column_stack((_INVERSE[rows[:, 0]], rows[:, 1:])))


def peephole_cancel(c: Circuit) -> Circuit:
    """Remove adjacent mutually-inverse gate pairs until none remain.

    A stack pass over the op rows catches cascades: cancelling an inner
    pair can bring an outer inverse pair together, e.g. [H, CZ, CZ, H] -> [].
    """
    inverse = _INVERSE.tolist()
    stack: list[tuple[int, int, int]] = []
    for code, a, b in c.ops.tolist():
        if stack and stack[-1] == (inverse[code], a, b):
            stack.pop()
        else:
            stack.append((code, a, b))
    return Circuit.from_ops(c.num_qubits, stack)


def circuit_format(c: Circuit) -> str:
    """Text form: a `QUBITS m` header, then one gate per line."""
    lines = [f"QUBITS {c.num_qubits}"]
    lines.extend(_TEXT[row[0]].format(*row) for row in (c.ops + (0, 1, 1)).tolist())
    return "\n".join(lines) + "\n"


def _gate_line(tokens: list[str], lineno: int) -> Gate:
    """The Gate on one gate line, or its ValueError naming the line."""
    kind = tokens[0]
    if kind not in GATE_CODES:
        raise ValueError(f"line {lineno}: unknown gate {kind!r}")
    if not all(map(_is_index, tokens[1:])):
        raise ValueError(f"line {lineno}: bad qubit index in {' '.join(tokens)!r}")
    try:
        return Gate(kind, tuple(int(t) for t in tokens[1:]))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def circuit_parse(
    text: str, num_qubits: int | None = None, directives: Iterable[str] = ()
) -> tuple[Circuit, dict[str, list[str]]]:
    """Parse circuit text; `#` comments, blank lines, and `QUBITS m` allowed.

    Extra directive names (e.g. PERM, SIGNS) may be declared; their token
    lists are collected and returned alongside the circuit. Numbers are
    ASCII digits (a qubit index may carry a sign). Gate lines become op
    rows in one pass and are checked as one array; an error names the line
    of the first bad row, or of a bad header or directive after it.
    """
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()]
    rows: list[tuple[int, int, int]] = []
    where: list[int] = []  # the line index of each row
    found: dict[str, list[str]] = {}
    declared = num_qubits
    error = None
    for i, line in enumerate(lines):
        tokens = line.split()
        if not tokens:
            continue
        head, args = tokens[0], tokens[1:]
        if head == "QUBITS":
            if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
                error = f"line {i + 1}: bad QUBITS header {line.strip()!r}"
            elif declared is not None and int(args[0]) != declared:
                error = f"line {i + 1}: QUBITS {int(args[0])} conflicts with expected {declared}"
            else:
                declared = int(args[0])
        elif head in directives:
            if head in found:
                error = f"line {i + 1}: duplicate {head} directive"
            found[head] = args
        else:
            code = GATE_CODES.get(head, -1)
            if code < 0 or len(args) != 1 + (code >= N_SINGLE) or not all(map(_is_index, args)):
                rows.append((0, -1, 0))  # breaks a rule, and _gate_line words it
            else:
                rows.append((code, int(args[0]) - 1, int(args[-1]) - 1 if code >= N_SINGLE else 0))
            where.append(i)
        if error:
            break
    try:
        ops = np.array(rows, dtype=np.int64).reshape(-1, 3)
    except OverflowError:  # a target beyond int64 still gets its own error
        ops = np.array(rows, dtype=object)

    def by_line(r: int) -> None:
        _gate_line(lines[where[r]].split(), where[r] + 1)

    if error:  # a bad gate line before it is reported first
        _raise_first_fault(ops, None, by_line)
        raise ValueError(error)
    if declared is None:
        declared = int(ops[:, 1:].max()) + 1 if len(ops) else 1
    try:
        return Circuit.from_ops(declared, ops), found
    except IndexError as exc:  # a target beyond the qubit count: name its line
        r = next(r for r, (_, a, b) in enumerate(rows) if max(a, b) >= declared)
        raise ValueError(f"line {where[r] + 1}: {exc}") from None
    except ValueError:  # a bad gate line, worded from its row: word it from the line
        _raise_first_fault(ops, None, by_line)
        raise
