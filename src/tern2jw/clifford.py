"""Clifford gates, circuits, and the exact conjugation action on Pauli strings.

Gate vocabulary: H, S, SDG, X, Y, Z (single-qubit) and CZ, CX, SWAP
(two-qubit). Circuit order convention: the first listed gate acts first on
states, so conjugating through a circuit applies the per-gate adjoint maps in
listed order. CZ and SWAP are symmetric in their targets and are stored with
targets sorted; CX keeps its order (first target is the control). A Circuit
is the engine's read-only int32 (L, 3) op array and nothing else; text,
inversion and cancellation work on its rows, and Gate objects are built
only when a caller asks for them. Both constructors store their rows
through one row check. Circuit text is read in one bulk pass whose rows
go through that check too; only a text it refuses is read again line by
line, to word the first fault on the line it is on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, NoReturn

import numpy as np

from .engine import GATE_CODES, N_SINGLE, PAIR_GATES, SINGLE_GATES, _conjugate_checked
from .pauli import PauliString, pack_letters, unpack_planes

_NAMES = SINGLE_GATES + PAIR_GATES  # indexed by gate code
_INVERSE = np.array([GATE_CODES[{"S": "SDG", "SDG": "S"}.get(n, n)] for n in _NAMES])
_CX = GATE_CODES["CX"]
_HEADS = tuple(f"\n{n}" for n in _NAMES)  # a gate line's text before its targets
# gate kind -> (its code + 1 as text, its line's token count, the text that
# pads a single-qubit gate's targets to two), for circuit_parse
_LINE = {
    n: (str(c + 1), 2, ("1",)) if c < N_SINGLE else (str(c + 1), 3, ())
    for c, n in enumerate(_NAMES)
}
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


def _raise_first_fault(ops: np.ndarray, num_qubits: int) -> None:
    """Raise for the first fault in the op rows, in this order: the first
    row holding a non-integer entry or a code outside the gate vocabulary,
    or breaking a per-gate rule (with the ValueError of its Gate), raises
    ValueError; a bad qubit count raises ValueError; the first target
    beyond it IndexError. Row b of a single-qubit code is ignored. Returns
    if there is none."""
    ints = np.ones(ops.shape, dtype=bool)
    if ops.dtype == object:  # rows of any Python values: compare only their integers
        ints = np.vectorize(lambda v: hasattr(type(v), "__index__"), otypes=[bool])(ops)
    code, a, b = np.where(ints, ops, 0).T
    b = np.where(code < N_SINGLE, 0, b)
    unknown = (code < 0) | (code >= len(_NAMES))
    bad = ~ints.all(axis=1) | unknown | (a < 0) | (b < 0) | _pair_rules(code, a, b)[0]
    if np.count_nonzero(bad):
        i = bad.argmax()
        if not ints[i].all():
            raise ValueError(f"op rows must hold integers, got {ops[i][~ints[i]][0]!r}")
        if unknown[i]:
            raise ValueError(f"unknown gate code {code[i]}, not one of 0..{len(_NAMES) - 1}")
        Gate(*_kind_targets((code[i], a[i], b[i])))
    if num_qubits < 1:
        raise ValueError(f"qubit count must be positive, got {num_qubits}")
    if num_qubits > _MAX_QUBITS:
        raise ValueError(f"qubit count {num_qubits} does not fit int32 rows")
    over = np.maximum(a, b) >= num_qubits
    if np.count_nonzero(over):
        i = over.argmax()
        g = Gate(*_kind_targets((code[i], a[i], b[i])))
        raise IndexError(f"gate {g} exceeds {num_qubits} qubits")


def _checked_ops(ops, num_qubits: int) -> np.ndarray:
    """A read-only int32 copy of the op rows, checked against every row
    rule and against num_qubits, with row b stored as 0 for single-qubit
    codes and CZ and SWAP targets sorted. Both Circuit constructors store
    their rows through it; rows may hold any Python ints, and a target
    past int64 still gets its own worded error.

    One combined guard passes good rows; only a fault runs
    _raise_first_fault, which words the error.
    """
    rows = np.array(ops).reshape(-1, 3)
    if rows.dtype.kind != "i" and rows.size:  # non-integers, or ints past int64 held exactly
        rows = np.array(ops, dtype=object).reshape(-1, 3)
        _raise_first_fault(rows, num_qubits)
        rows[rows[:, 0] < N_SINGLE, 2] = 0
        rows = rows.astype(np.int32)
    code, a, b = rows[:, 0], rows[:, 1], rows[:, 2]  # views, so they see the sort
    b *= code >= N_SINGLE
    same, unsorted = _pair_rules(code, a, b)
    unsigned = f"u{rows.itemsize}"  # a code or target below 0 is then past its bound
    if (
        not 0 < num_qubits <= _MAX_QUBITS
        or np.count_nonzero(code.view(unsigned) >= len(_NAMES))
        or np.count_nonzero(np.maximum(a.view(unsigned), b.view(unsigned)) >= num_qubits)
        or np.count_nonzero(same)
    ):
        _raise_first_fault(rows, num_qubits)
    if np.count_nonzero(unsorted):
        rows[unsorted, 1:] = rows[unsorted, :0:-1]
    rows = rows.astype(np.int32, copy=False)  # every target is below num_qubits, so it fits
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, init=False, eq=False)
class Circuit:
    """Ordered gate sequence on num_qubits wires, held as its op array.

    Circuit(m, gates) takes Gate objects; library code builds a circuit
    straight from op rows with Circuit.from_ops. Both hand their rows to
    _checked_ops. gates is derived from the rows on each access.
    """

    num_qubits: int
    ops: np.ndarray

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = ()) -> None:
        rows = [
            (GATE_CODES[g.kind], g.targets[0] - 1, g.targets[-1] - 1 if len(g.targets) > 1 else 0)
            for g in gates
        ]
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "ops", _checked_ops(rows, num_qubits))

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


def _one_column(conjugate, c: Circuit, p: PauliString) -> PauliString:
    """p through c as a one-column batch of a conjugate_inplace-like conjugator."""
    if c.num_qubits != p.num_qubits:
        raise ValueError(f"size mismatch: circuit {c.num_qubits}, string {p.num_qubits}")
    planes = pack_letters(np.array(p.letters, dtype=np.uint8)[:, None])
    phases = np.array([p.phase], dtype=np.uint8)
    conjugate(planes, phases, c.ops)
    return PauliString(tuple(unpack_planes(planes, 1)[:, 0].tolist()), int(phases[0]))


def conjugate_circuit(c: Circuit, p: PauliString) -> PauliString:
    """Conjugate p through the circuit in listed order, as a one-column batch."""
    return _one_column(_conjugate_checked, c, p)


def invert_circuit(c: Circuit) -> Circuit:
    """Reverse the gate order and invert each gate (S and SDG swap codes)."""
    rows = c.ops[::-1]
    return Circuit.from_ops(c.num_qubits, np.column_stack((_INVERSE[rows[:, 0]], rows[:, 1:])))


def peephole_cancel(c: Circuit) -> Circuit:
    """Remove mutually-inverse gate pairs until none remain.

    Gates on disjoint wires commute, so a gate cancels against the latest
    kept gate that shares a wire with it, whatever kept gates on other
    wires lie between them. A stack of kept gates per wire finds that
    gate in one step, and cancelling a pair exposes the gates before it,
    so cascades fold too: [H 1, CZ 1 2, H 3, CZ 1 2, H 1] -> [H 3]. The
    kept length does not depend on the order of neighbouring gates on
    disjoint wires.
    """
    inverse = _INVERSE.tolist()
    kept: list[tuple[int, int, int] | None] = []
    last: list[list[int]] = [[] for _ in range(c.num_qubits)]  # per wire, indices into kept
    for code, a, b in c.ops.tolist():
        wires = (a, b) if code >= N_SINGLE else (a,)
        tops = {last[w][-1] if last[w] else -1 for w in wires}
        top = tops.pop() if len(tops) == 1 else -1
        if top >= 0 and kept[top] == (inverse[code], a, b):
            kept[top] = None
            for w in wires:
                last[w].pop()
        else:
            for w in wires:
                last[w].append(len(kept))
            kept.append((code, a, b))
    return Circuit.from_ops(c.num_qubits, [row for row in kept if row is not None])


def circuit_format(c: Circuit) -> str:
    """Text form: a `QUBITS m` header, then one gate per line."""
    code, a, b = c.ops.T.tolist()
    names = {q: f" {q + 1}" for q in {*a, *b}}  # each index's text, once a call
    lines = [
        _HEADS[k] + names[x] + names[y] if k >= N_SINGLE else _HEADS[k] + names[x]
        for k, x, y in zip(code, a, b)
    ]
    return f"QUBITS {c.num_qubits}{''.join(lines)}\n"


def _gate_line(tokens: list[str], lineno: int) -> Gate:
    """The Gate of one gate line of circuit text; a ValueError naming the
    line for an unknown kind, a bad index or a broken rule of its Gate."""
    kind = tokens[0]
    if kind not in GATE_CODES:
        raise ValueError(f"line {lineno}: unknown gate {kind!r}")
    if not all(map(_is_index, tokens[1:])):
        raise ValueError(f"line {lineno}: bad qubit index in {' '.join(tokens)!r}")
    try:
        return Gate(kind, tuple(map(int, tokens[1:])))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def _raise_text_fault(lines: list[str], num_qubits: int | None, directives: frozenset) -> NoReturn:
    """Raise the error of the first fault in comment-free circuit text
    lines that circuit_parse's bulk pass refused, reading them one at a
    time: the first bad line (a QUBITS header, a repeated directive or a
    gate line) raises ValueError naming it; then a bad qubit count raises
    the count's ValueError, and a target beyond the count a ValueError
    naming the target's line."""
    declared, seen, gates, where = num_qubits, set(), [], []
    for n, line in enumerate(lines, 1):
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
            if head in seen:
                raise ValueError(f"line {n}: duplicate {head} directive")
            seen.add(head)
        else:
            gates.append(_gate_line(tokens, n))
            where.append(n)
    if declared is None:
        declared = max((max(g.targets) for g in gates), default=1)
    try:
        Circuit(declared, gates)
    except IndexError as exc:  # a target beyond the qubit count: name its line
        i = next(i for i, g in enumerate(gates) if max(g.targets) > declared)
        raise ValueError(f"line {where[i]}: {exc}") from None
    raise AssertionError("circuit text refused without a fault")


def circuit_parse(
    text: str, num_qubits: int | None = None, directives: Iterable[str] = ()
) -> tuple[Circuit, dict[str, list[str]]]:
    """Parse circuit text; `#` comments, blank lines, and `QUBITS m` allowed.

    Extra directive names (e.g. PERM, SIGNS) may be declared; their token
    lists are collected and returned alongside the circuit; a directive
    name may not be a gate kind or QUBITS. Numbers are ASCII digits (a
    qubit index may carry a sign).

    The text is read in one bulk pass. It is split into lines once, and
    comments are stripped only when it holds a `#`. Each line gets only
    its kind looked up and its token count checked; a QUBITS header and a
    directive are taken as they come. Then one ASCII-digits check runs on
    the gate numbers joined, one numpy call converts them all, and
    Circuit.from_ops checks every row rule (positive and distinct targets,
    the qubit count and the int32 fit) on the whole array. A text this
    pass refuses, for any reason, is read again line by line by
    _raise_text_fault, which raises the error of its first fault: it
    names the first bad line, or, with every line sound, raises a bad
    qubit count's error, or names the line of the first target beyond the
    count, which a later QUBITS header may set.
    """
    directives = frozenset(directives)  # once: a generator is used up by its first lookup
    if "QUBITS" in directives or not directives.isdisjoint(_LINE):
        raise ValueError(f"directive names may not be gate kinds or QUBITS: {sorted(directives)}")
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    numbers: list[str] = []  # three a gate: its code + 1 and its (padded) targets
    add = numbers.extend
    found: dict[str, list[str]] = {}
    declared = num_qubits
    for tokens in map(str.split, lines):
        if not tokens:
            continue
        head = tokens[0]
        spec = _LINE.get(head)
        if spec is not None and len(tokens) == spec[1]:
            tokens[0] = spec[0]
            add(tokens)
            add(spec[2])
        elif (
            head == "QUBITS"
            and len(tokens) == 2
            and tokens[1].isascii()
            and tokens[1].isdigit()
            and (declared is None or declared == int(tokens[1]))
        ):
            declared = int(tokens[1])
        elif head in directives and head not in found:
            found[head] = tokens[1:]
        else:
            _raise_text_fault(lines, num_qubits, directives)
    joined = " ".join(numbers)
    # ASCII digits: bytes.isdigit takes no other digit, and is far quicker than str.isdigit
    digits = joined.isascii() and joined.encode().translate(None, b" ").isdigit()
    if digits or all(map(_is_index, numbers)):
        # an index past int64 reads as an int64 bound, which every row check refuses
        rows = np.fromstring(joined, dtype=np.int64, sep=" ").reshape(-1, 3)
        if declared is None:
            declared = int(rows[:, 1:].max(initial=1))
        rows -= 1
        try:
            return Circuit.from_ops(declared, rows), found
        except (ValueError, IndexError):
            pass
    _raise_text_fault(lines, num_qubits, directives)
