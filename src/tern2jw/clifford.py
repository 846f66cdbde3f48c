"""Clifford gates, circuits, and the exact conjugation action on Pauli strings.

Gate vocabulary: H, S, SDG, X, Y, Z (single-qubit) and CZ, CX, SWAP
(two-qubit). Circuit order convention: the first listed gate acts first on
states, so conjugating through a circuit applies the per-gate adjoint maps in
listed order. CZ and SWAP are symmetric in their targets and are stored with
targets sorted; CX keeps its order (first target is the control).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import GATE_CODES, PAIR_GATES, SINGLE_GATES, conjugate_inplace, encode_gates
from .pauli import PauliString

_INVERSE_KIND = {name: name for name in SINGLE_GATES + PAIR_GATES}
_INVERSE_KIND["S"] = "SDG"
_INVERSE_KIND["SDG"] = "S"

_SYMMETRIC = ("CZ", "SWAP")


@dataclass(frozen=True)
class Gate:
    """One Clifford gate application: kind plus 1-based target qubits."""

    kind: str
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in GATE_CODES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 1 if self.kind in SINGLE_GATES else 2
        if len(self.targets) != want:
            raise ValueError(f"{self.kind} takes {want} target(s), got {self.targets}")
        if any(t < 1 for t in self.targets):
            raise ValueError(f"targets must be 1-based positive, got {self.targets}")
        if want == 2:
            if self.targets[0] == self.targets[1]:
                raise ValueError(f"{self.kind} targets must be distinct, got {self.targets}")
            if self.kind in _SYMMETRIC and self.targets[0] > self.targets[1]:
                object.__setattr__(self, "targets", (self.targets[1], self.targets[0]))

    def inverse(self) -> "Gate":
        return Gate(_INVERSE_KIND[self.kind], self.targets)

    def __str__(self) -> str:
        return " ".join([self.kind, *(str(t) for t in self.targets)])


def gate(kind: str, *targets: int) -> Gate:
    """Shorthand constructor: gate("CZ", 1, 2)."""
    return Gate(kind, targets)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence on num_qubits wires."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"qubit count must be positive, got {self.num_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.targets) > self.num_qubits:
                raise IndexError(f"gate {g} exceeds {self.num_qubits} qubits")

    def __len__(self) -> int:
        return len(self.gates)

    def __str__(self) -> str:
        return circuit_format(self)


def conjugate_gate(g: Gate, p: PauliString) -> PauliString:
    """Exact adjoint action g p g-dagger, including phase, by the engine rules."""
    return conjugate_circuit(Circuit(p.num_qubits, (g,)), p)


def conjugate_circuit(c: Circuit, p: PauliString) -> PauliString:
    """Conjugate p through the circuit in listed order, as a one-column batch."""
    if c.num_qubits != p.num_qubits:
        raise ValueError(f"size mismatch: circuit {c.num_qubits}, string {p.num_qubits}")
    letters = np.array(p.letters, dtype=np.uint8)[:, None]
    phases = np.array([p.phase], dtype=np.uint8)
    conjugate_inplace(letters, phases, encode_gates([(g.kind, g.targets) for g in c.gates]))
    return PauliString(tuple(letters[:, 0].tolist()), int(phases[0]))


def invert_circuit(c: Circuit) -> Circuit:
    """Reverse the gate order and invert each gate."""
    return Circuit(c.num_qubits, tuple(g.inverse() for g in reversed(c.gates)))


def peephole_cancel(c: Circuit) -> Circuit:
    """Remove adjacent mutually-inverse gate pairs until none remain.

    A stack pass catches cascades: cancelling an inner pair can bring an
    outer inverse pair together, e.g. [H, CZ, CZ, H] -> [].
    """
    stack: list[Gate] = []
    for g in c.gates:
        if stack and stack[-1] == g.inverse():
            stack.pop()
        else:
            stack.append(g)
    return Circuit(c.num_qubits, tuple(stack))


def circuit_format(c: Circuit) -> str:
    """Text form: a `QUBITS m` header, then one gate per line."""
    lines = [f"QUBITS {c.num_qubits}"]
    lines.extend(str(g) for g in c.gates)
    return "\n".join(lines) + "\n"


def _parse_gate_line(tokens: list[str], lineno: int) -> Gate:
    kind = tokens[0]
    if kind not in GATE_CODES:
        raise ValueError(f"line {lineno}: unknown gate {kind!r}")
    try:
        targets = tuple(int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError(f"line {lineno}: bad qubit index in {' '.join(tokens)!r}") from None
    try:
        return Gate(kind, targets)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def circuit_parse(
    text: str, num_qubits: int | None = None, directives: Iterable[str] = ()
) -> tuple[Circuit, dict[str, list[str]]]:
    """Parse circuit text; `#` comments, blank lines, and `QUBITS m` allowed.

    Extra directive names (e.g. PERM, SIGNS) may be declared; their token
    lists are collected and returned alongside the circuit.
    """
    gates: list[Gate] = []
    found: dict[str, list[str]] = {}
    declared = num_qubits
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "QUBITS":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ValueError(f"line {lineno}: bad QUBITS header {line!r}")
            m = int(tokens[1])
            if declared is not None and m != declared:
                raise ValueError(f"line {lineno}: QUBITS {m} conflicts with expected {declared}")
            declared = m
            continue
        if tokens[0] in directives:
            if tokens[0] in found:
                raise ValueError(f"line {lineno}: duplicate {tokens[0]} directive")
            found[tokens[0]] = tokens[1:]
            continue
        gates.append(_parse_gate_line(tokens, lineno))
    if declared is None:
        declared = max((max(g.targets) for g in gates), default=1)
    try:
        return Circuit(declared, tuple(gates)), found
    except IndexError as exc:
        raise ValueError(str(exc)) from None
