import random

import pytest

from tern2jw import (
    Circuit,
    Gate,
    PauliString,
    circuit_format,
    circuit_parse,
    conjugate_circuit,
    conjugate_gate,
    gate,
    invert_circuit,
    jw_chain,
    oracle_conjugate,
    pauli_parse,
    peephole_cancel,
    tree_generators,
)

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


def test_symmetric_gates_canonicalize_targets():
    assert Gate("CZ", (3, 1)) == Gate("CZ", (1, 3))
    assert Gate("SWAP", (5, 2)).targets == (2, 5)
    assert Gate("CX", (3, 1)).targets == (3, 1)  # control/target order matters
    assert str(gate("CZ", 3, 1)) == "CZ 1 3"


def test_gate_inverse():
    assert Gate("S", (1,)).inverse() == Gate("SDG", (1,))
    assert Gate("SDG", (2,)).inverse() == Gate("S", (2,))
    for kind in ("H", "X", "Y", "Z"):
        g = Gate(kind, (1,))
        assert g.inverse() == g
    assert Gate("CX", (2, 1)).inverse() == Gate("CX", (2, 1))


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
        assert conjugate_gate(Gate(kind, (1,)), pauli_parse(inp)) == pauli_parse(out)


def test_cz_mixed_xy_rows_pick_up_minus():
    # the only negative rows of the CZ table
    cz = Gate("CZ", (1, 2))
    assert conjugate_gate(cz, pauli_parse("+XY")) == pauli_parse("-YX")
    assert conjugate_gate(cz, pauli_parse("+YX")) == pauli_parse("-XY")
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
        assert conjugate_gate(cz, pauli_parse(inp)) == pauli_parse(out)


def test_cx_rows_match_oracle_exhaustively():
    for kind in ("CX", "CZ", "SWAP"):
        for ta, tb in ((1, 2), (2, 1)):
            g = Gate(kind, (ta, tb))
            c = Circuit(2, (g,))
            for a in range(4):
                for b in range(4):
                    for phase in range(4):
                        p = PauliString((a, b), phase)
                        assert conjugate_gate(g, p) == oracle_conjugate(c, p)


def test_single_gates_match_oracle_exhaustively():
    for kind in ("H", "S", "SDG", "X", "Y", "Z"):
        g = Gate(kind, (1,))
        c = Circuit(1, (g,))
        for a in range(4):
            for phase in range(4):
                p = PauliString((a,), phase)
                assert conjugate_gate(g, p) == oracle_conjugate(c, p)


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


def test_circuit_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        circuit_parse("H 1\nT 1\n")
    with pytest.raises(ValueError, match="line 1"):
        circuit_parse("H x\n")
    with pytest.raises(ValueError, match="line 3"):
        circuit_parse("QUBITS 2\nH 1\nQUBITS 3\n")
    with pytest.raises(ValueError):
        circuit_parse("H 5\n", num_qubits=2)


def test_conjugation_rejects_size_mismatches():
    with pytest.raises(IndexError, match="exceeds 2 qubits"):
        conjugate_gate(Gate("CZ", (1, 3)), pauli_parse("+XY"))
    with pytest.raises(ValueError, match="size mismatch: circuit 3, string 2"):
        conjugate_circuit(Circuit(3, ()), pauli_parse("+XY"))


def test_circuit_rejects_out_of_range_targets():
    with pytest.raises(IndexError, match="exceeds 2 qubits"):
        Circuit(2, (Gate("H", (3,)),))
