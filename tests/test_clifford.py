import itertools
import random

import numpy as np
import pytest

from tern2jw import (
    Circuit,
    Gate,
    PauliString,
    circuit_format,
    circuit_parse,
    conjugate_circuit,
    invert_circuit,
    jw_chain,
    oracle_conjugate,
    peephole_cancel,
    tree_generators,
)
from tern2jw.engine import conjugate_inplace
from tern2jw.pauli import pack_letters, unpack_planes

from reference import pauli_parse

ALL_KINDS = ("H", "S", "SDG", "X", "Y", "Z", "CZ", "CX", "SWAP")


def _random_circuit(rng, m, max_gates=20):
    gates = []
    for _ in range(rng.randint(0, max_gates)):
        kind = rng.choice(ALL_KINDS)
        if kind in ("CZ", "CX", "SWAP"):
            if m < 2:
                continue
            a, b = rng.sample(range(1, m + 1), 2)
            gates.append(Gate(kind, (a, b)))
        else:
            gates.append(Gate(kind, (rng.randint(1, m),)))
    return Circuit(m, tuple(gates))


def _conjugate_gate(g, p):
    return conjugate_circuit(Circuit(p.num_qubits, (g,)), p)


def _random_string(rng, m):
    return PauliString(tuple(rng.randrange(4) for _ in range(m)), rng.randrange(4))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("T", (1,))
    with pytest.raises(ValueError):
        Gate("H", (1, 2))
    with pytest.raises(ValueError):
        Gate("CZ", (2, 2))
    with pytest.raises(ValueError):
        Gate("CZ", (1,))
    with pytest.raises(ValueError):
        Gate("H", (0,))


def test_gate_targets_are_plain_ints():
    # a float target used to be truncated by Circuit, a str one raised TypeError
    for kind, targets in (("H", (1.5,)), ("H", ("1",)), ("CZ", (1, 2.0))):
        with pytest.raises(ValueError) as excinfo:
            Circuit(2, [Gate(kind, targets)])
        assert str(excinfo.value) == f"targets must be integers, got {targets}"
    g = Gate("CZ", (np.int64(3), np.int32(1)))
    assert g.targets == (1, 3) and all(type(t) is int for t in g.targets)


def test_symmetric_gates_canonicalize_targets():
    assert Gate("CZ", (3, 1)) == Gate("CZ", (1, 3))
    assert Gate("SWAP", (5, 2)).targets == (2, 5)
    assert Gate("CX", (3, 1)).targets == (3, 1)  # control/target order matters
    assert str(Gate("CZ", (3, 1))) == "CZ 1 3"


def test_gate_inverse():
    def inverse(g):
        (inv,) = invert_circuit(Circuit(2, (g,))).gates
        return inv

    assert inverse(Gate("S", (1,))) == Gate("SDG", (1,))
    assert inverse(Gate("SDG", (2,))) == Gate("S", (2,))
    for kind in ("H", "X", "Y", "Z"):
        g = Gate(kind, (1,))
        assert inverse(g) == g
    assert inverse(Gate("CX", (2, 1))) == Gate("CX", (2, 1))


def test_single_qubit_conjugation_rows():
    cases = {
        ("H", "+X"): "+Z",
        ("H", "+Z"): "+X",
        ("H", "+Y"): "-Y",
        ("S", "+X"): "+Y",
        ("S", "+Y"): "-X",
        ("S", "+Z"): "+Z",
        ("SDG", "+X"): "-Y",
        ("SDG", "+Y"): "+X",
        ("X", "+Z"): "-Z",
        ("X", "+Y"): "-Y",
        ("X", "+X"): "+X",
        ("Z", "+X"): "-X",
        ("Y", "+Z"): "-Z",
    }
    for (kind, inp), out in cases.items():
        assert _conjugate_gate(Gate(kind, (1,)), pauli_parse(inp)) == pauli_parse(out)


def test_cz_mixed_xy_rows_pick_up_minus():
    # the only negative rows of the CZ table
    cz = Gate("CZ", (1, 2))
    assert _conjugate_gate(cz, pauli_parse("+XY")) == pauli_parse("-YX")
    assert _conjugate_gate(cz, pauli_parse("+YX")) == pauli_parse("-XY")
    assert oracle_conjugate(Circuit(2, (cz,)), pauli_parse("+XY")) == pauli_parse("-YX")
    assert oracle_conjugate(Circuit(2, (cz,)), pauli_parse("+YX")) == pauli_parse("-XY")


def test_cz_plus_rows():
    cz = Gate("CZ", (1, 2))
    for inp, out in {
        "+XI": "+XZ",
        "+YI": "+YZ",
        "+ZI": "+ZI",
        "+IX": "+ZX",
        "+XX": "+YY",
        "+YY": "+XX",
        "+ZX": "+IX",
        "+XZ": "+XI",
        "+ZZ": "+ZZ",
        "+II": "+II",
    }.items():
        assert _conjugate_gate(cz, pauli_parse(inp)) == pauli_parse(out)


def _batch_images(c, strings):
    """The strings conjugated through c by the engine as one packed batch."""
    planes = pack_letters(np.array([p.letters for p in strings], dtype=np.uint8).T)
    phases = np.array([p.phase for p in strings], dtype=np.uint8)
    conjugate_inplace(planes, phases, c.ops)
    images = unpack_planes(planes, len(strings)).T.tolist()
    return [PauliString(tuple(l), int(ph)) for l, ph in zip(images, phases)]


def _check_exhaustively(g, m):
    # every string on m qubits at every phase, one at a time and as one
    # batch widened past a 64-bit word (65 or 17 columns)
    c = Circuit(m, (g,))
    strings = [PauliString(col[:m], col[m]) for col in itertools.product(range(4), repeat=m + 1)]
    strings.append(strings[-1])
    want = [oracle_conjugate(c, p) for p in strings]
    assert [_conjugate_gate(g, p) for p in strings] == want, str(g)
    assert _batch_images(c, strings) == want, str(g)


def test_cx_rows_match_oracle_exhaustively():
    for kind in ("CX", "CZ", "SWAP"):
        for ta, tb in ((1, 2), (2, 1)):
            _check_exhaustively(Gate(kind, (ta, tb)), 2)


def test_single_gates_match_oracle_exhaustively():
    for kind in ("H", "S", "SDG", "X", "Y", "Z"):
        _check_exhaustively(Gate(kind, (1,)), 1)


def test_six_chain_generators_map_to_the_tree_free_set():
    # conjugating the 3-qubit chain set by both CZs gives an anticommuting
    # family that no tree produces; all six images carry plus signs
    u = Circuit(3, (Gate("CZ", (1, 2)), Gate("CZ", (2, 3))))
    expected = ["+XZI", "+YZI", "+IXZ", "+IYZ", "+ZIX", "+ZIY"]
    gens = tree_generators(jw_chain(3)).strings[:6]
    images = [conjugate_circuit(u, p) for p in gens]
    assert [str(p) for p in images] == expected


def test_conjugate_circuit_applies_first_listed_gate_first():
    c = Circuit(1, (Gate("H", (1,)), Gate("S", (1,))))
    # X -H-> Z -S-> Z
    assert conjugate_circuit(c, pauli_parse("+X")) == pauli_parse("+Z")
    # Z -H-> X -S-> Y
    assert conjugate_circuit(c, pauli_parse("+Z")) == pauli_parse("+Y")


def test_invert_circuit_round_trips():
    rng = random.Random(17)
    for _ in range(100):
        m = rng.randint(1, 5)
        c = _random_circuit(rng, m)
        p = _random_string(rng, m)
        assert conjugate_circuit(invert_circuit(c), conjugate_circuit(c, p)) == p


def test_invert_circuit_structure():
    c = Circuit(2, (Gate("S", (1,)), Gate("CZ", (1, 2)), Gate("H", (2,))))
    inv = invert_circuit(c)
    assert [str(g) for g in inv.gates] == ["H 2", "CZ 1 2", "SDG 1"]


def test_peephole_cancel():
    h, s, sdg = Gate("H", (1,)), Gate("S", (1,)), Gate("SDG", (1,))
    assert peephole_cancel(Circuit(1, (h, h))).gates == ()
    assert peephole_cancel(Circuit(1, (s, sdg))).gates == ()
    assert peephole_cancel(Circuit(1, (h, s, sdg, h))).gates == ()
    kept = peephole_cancel(Circuit(2, (h, Gate("CZ", (1, 2)), h)))
    assert len(kept.gates) == 3
    assert peephole_cancel(Circuit(1, (s, s))).gates == (s, s)
    # across gates on other wires, with cascades
    h2, h3 = Gate("H", (2,)), Gate("H", (3,))
    cz, cx = Gate("CZ", (1, 2)), Gate("CX", (2, 1))
    assert peephole_cancel(Circuit(3, (s, h2, cz, h3, cz, h2, sdg))).gates == (h3,)
    assert peephole_cancel(Circuit(3, (cx, h3, Gate("CX", (1, 2)), h3))).gates == (
        cx, Gate("CX", (1, 2)),
    )
    # a gate sharing one wire blocks: CZ 1 2 and X 2 do not commute here
    blocked = (cz, Gate("X", (2,)), cz)
    assert peephole_cancel(Circuit(2, blocked)).gates == blocked


def test_peephole_preserves_action():
    rng = random.Random(23)
    for _ in range(50):
        m = rng.randint(1, 4)
        c = _random_circuit(rng, m, max_gates=12)
        reduced = peephole_cancel(c)
        p = _random_string(rng, m)
        assert conjugate_circuit(c, p) == conjugate_circuit(reduced, p)


def test_circuit_format_and_parse():
    c = Circuit(3, (Gate("H", (1,)), Gate("CZ", (1, 3)), Gate("CX", (3, 2))))
    text = circuit_format(c)
    assert text == "QUBITS 3\nH 1\nCZ 1 3\nCX 3 2\n"
    parsed, extra = circuit_parse(text)
    assert parsed == c
    assert extra == {}


def test_circuit_parse_comments_and_inference():
    parsed, _ = circuit_parse("# preamble\nH 2  # trailing\n\nCZ 2 4\n")
    assert parsed.num_qubits == 4
    assert [str(g) for g in parsed.gates] == ["H 2", "CZ 2 4"]


def test_circuit_parse_directives():
    text = "QUBITS 2\nH 1\nPERM 2 1\nSIGNS + - +\n"
    parsed, extra = circuit_parse(text, directives=("PERM", "SIGNS"))
    assert parsed.num_qubits == 2
    assert extra == {"PERM": ["2", "1"], "SIGNS": ["+", "-", "+"]}
    # any iterable of names, read once: a generator still knows PERM on line 3
    with pytest.raises(ValueError, match="line 3: duplicate PERM directive"):
        circuit_parse("PERM 1\nH 1\nPERM 2\n", directives=(d for d in ["PERM"]))


def test_circuit_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        circuit_parse("H 1\nT 1\n")
    with pytest.raises(ValueError, match="line 1"):
        circuit_parse("H x\n")
    with pytest.raises(ValueError, match="line 3"):
        circuit_parse("QUBITS 2\nH 1\nQUBITS 3\n")
    with pytest.raises(ValueError):
        circuit_parse("H 5\n", num_qubits=2)
    # one input per target rule of the op-array check, with the exact text
    for text, m, message in (
        ("H 1\nH 1 2\n", None, "line 2: H takes 1 target(s), got (1, 2)"),
        ("CZ 1\n", None, "line 1: CZ takes 2 target(s), got (1,)"),
        ("H 1\nX 2\nCZ 2 2\n", None, "line 3: CZ targets must be distinct, got (2, 2)"),
        ("H 0\n", None, "line 1: targets must be 1-based positive, got (0,)"),
        ("CX 2 -1\n", None, "line 1: targets must be 1-based positive, got (2, -1)"),
        ("H 99999999999999999999\n", 2, "line 1: gate H 99999999999999999999 exceeds 2 qubits"),
        ("H 1\n\nCZ 5 1\n", 2, "line 3: gate CZ 1 5 exceeds 2 qubits"),
        # the first bad line wins, whichever check finds it
        ("CZ 1 1\nT 1\n", None, "line 1: CZ targets must be distinct, got (1, 1)"),
        ("H 1\nQUBITS 3\nH 0\n", 2, "line 2: QUBITS 3 conflicts with expected 2"),
        ("H 0\nQUBITS 3\n", 2, "line 1: targets must be 1-based positive, got (0,)"),
        # indices and headers take ASCII digits only
        ("QUBITS \u00b2\nH 1\n", None, "line 1: bad QUBITS header 'QUBITS \u00b2'"),
        ("CZ 1 \uff12\n", None, "line 1: bad qubit index in 'CZ 1 \uff12'"),
        # a line's own fault comes before a target beyond the count on an earlier line
        ("H 5\nT 1\n", 2, "line 2: unknown gate 'T'"),
        # a bad qubit count, declared or inferred, names no line
        ("QUBITS 0\nH 1\n", None, "qubit count must be positive, got 0"),
        ("H 99999999999999999999\n", None, f"qubit count {10**20 - 1} does not fit int32 rows"),
        # a count declared after the gates still names the line beyond it
        ("SWAP 2 1\nH 3\nQUBITS 2\n", None, "line 2: gate H 3 exceeds 2 qubits"),
        ("CZ 3 3\nQUBITS x\n", None, "line 1: CZ targets must be distinct, got (3, 3)"),
    ):
        with pytest.raises(ValueError) as excinfo:
            circuit_parse(text, num_qubits=m)
        assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        circuit_parse("H 1\nPERM 1\nPERM 1\n", directives=("PERM",))
    assert str(excinfo.value) == "line 3: duplicate PERM directive"


def test_conjugation_rejects_size_mismatches():
    with pytest.raises(ValueError, match="size mismatch: circuit 3, string 2"):
        conjugate_circuit(Circuit(3, ()), pauli_parse("+XY"))


def _gate_inverse(g):
    return Gate({"S": "SDG", "SDG": "S"}.get(g.kind, g.kind), g.targets)


def _reference_inverse(c):
    return Circuit(c.num_qubits, tuple(_gate_inverse(g) for g in reversed(c.gates)))


def _reference_cancel(c):
    # the Gate-level pass, one Gate object per gate: each gate looks back
    # past kept gates on disjoint wires and cancels the first one that
    # shares a wire with it if that one is its inverse
    kept = []
    for g in c.gates:
        i = len(kept) - 1
        while i >= 0 and not set(kept[i].targets) & set(g.targets):
            i -= 1
        if i >= 0 and kept[i] == _gate_inverse(g):
            del kept[i]
        else:
            kept.append(g)
    return Circuit(c.num_qubits, tuple(kept))


def test_op_array_matches_gate_level_reference():
    rng = random.Random(31)
    seen = set()
    for _ in range(400):
        m = rng.randint(1, 8)
        c = _random_circuit(rng, m, max_gates=30)
        if rng.random() < 0.3 and len(c) > 1:  # plant inverse pairs to cancel
            gates = list(c.gates)
            i = rng.randrange(len(gates))
            gates[i:i] = [_gate_inverse(gates[i])]
            c = Circuit(m, gates)
        seen.update(g.kind for g in c.gates)
        assert c.ops.dtype == np.int32 and c.ops.shape == (len(c), 3)
        assert not c.ops.flags.writeable
        assert circuit_parse(circuit_format(c))[0] == c
        assert Circuit(m, c.gates) == c
        assert Circuit.from_ops(m, c.ops) == c
        rows = c.ops.copy()  # CZ and SWAP rows with their targets swapped sort back
        sym = np.isin(rows[:, 0], (ALL_KINDS.index("CZ"), ALL_KINDS.index("SWAP")))
        rows[sym, 1:] = rows[sym, :0:-1]
        assert Circuit.from_ops(m, rows) == c
        symmetric = tuple(g for g in c.gates if g.kind in ("CZ", "SWAP"))
        text = "".join(f"{g.kind} {g.targets[1]} {g.targets[0]}\n" for g in symmetric)
        assert circuit_parse(text, num_qubits=m)[0] == Circuit(m, symmetric)
        assert invert_circuit(c) == _reference_inverse(c)
        assert peephole_cancel(c) == _reference_cancel(c)
    assert seen == set(ALL_KINDS)


def test_circuit_rejects_out_of_range_targets():
    with pytest.raises(IndexError, match="exceeds 2 qubits"):
        Circuit(2, (Gate("H", (3,)),))
    # past int32, int64 and C long alike: the same worded error, never an OverflowError
    for t in (2**31, 2**40, 2**70):
        with pytest.raises(IndexError) as excinfo:
            Circuit(2, [Gate("H", (t,))])
        assert str(excinfo.value) == f"gate H {t} exceeds 2 qubits"
    # op rows (code, row a, row b; CZ is code 6, H code 0) meet the same
    # rules as Gate: distinct, 1-based targets; their codes are the nine
    # gates' and their entries integers, never truncated; the first faulty
    # row is named
    for ops, message in (
        ([(6, 1, 1)], "CZ targets must be distinct, got (2, 2)"),
        ([(0, -1, 0)], "targets must be 1-based positive, got (0,)"),
        ([(-1, 0, 1)], "unknown gate code -1, not one of 0..8"),
        ([(-1, 0, 0)], "unknown gate code -1, not one of 0..8"),
        ([(9, 0, 0)], "unknown gate code 9, not one of 0..8"),
        ([(0, 1.5, 0)], "op rows must hold integers, got 1.5"),
        ([(6, 0, "1")], "op rows must hold integers, got '1'"),
        (np.array([[0.0, 1.0, 0.0]]), "op rows must hold integers, got 0.0"),
        ([(0, 0, 0), (9, 0, 0), (0, 1.5, 0)], "unknown gate code 9, not one of 0..8"),
        ([(0, 0, 0), (0, 1.5, 0), (9, 0, 0)], "op rows must hold integers, got 1.5"),
    ):
        with pytest.raises(ValueError) as excinfo:
            Circuit.from_ops(2, ops)
        assert str(excinfo.value) == message
    # a single-qubit row's b is no target: it is stored as 0, so rows that
    # differ only there make one circuit, and the pair cancels
    h = Circuit.from_ops(2, [(0, 0, 0)])
    for b in (1, 5, -1, 2**70):
        assert Circuit.from_ops(2, [(0, 0, b)]) == h
        assert Circuit.from_ops(2, [(0, 0, b)]).ops.tolist() == [[0, 0, 0]]
    assert len(peephole_cancel(Circuit.from_ops(2, [(0, 0, 1), (0, 0, 0)]))) == 0
