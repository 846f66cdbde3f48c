import itertools
import random
import tracemalloc

import numpy as np
import pytest

from tern2jw import Circuit, Gate, conjugate_circuit, oracle_conjugate
from tern2jw.engine import conjugate_inplace, encode_gates
from tern2jw.oracle import dense_conjugate
from tern2jw.pauli import PauliString, pack_letters, unpack_planes

SINGLE = ("H", "S", "SDG", "X", "Y", "Z")
PAIR = ("CZ", "CX", "SWAP")


def _random_circuit(rng, m, length):
    gates = []
    for _ in range(length):
        if m >= 2 and rng.random() < 0.5:
            a, b = rng.sample(range(1, m + 1), 2)
            gates.append(Gate(rng.choice(PAIR), (a, b)))
        else:
            gates.append(Gate(rng.choice(SINGLE), (rng.randint(1, m),)))
    return Circuit(m, tuple(gates))


def _random_letters(rng, m, n):
    letters = np.array(
        [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)], dtype=np.uint8
    )
    phases = np.array([rng.choice((0, 2)) for _ in range(n)], dtype=np.uint8)
    return letters, phases


def _padding_clear(planes, n):
    """No bit past column n - 1 is set in any row of the planes."""
    return all(sum(int(w) << 64 * k for k, w in enumerate(row)) >> n == 0 for row in planes)


def _run(conjugate, ops, letters, phases):
    """letters and phases through one conjugator as a packed batch, unpacked
    again; the padding bits must stay clear."""
    planes, out_phases = pack_letters(letters), phases.copy()
    conjugate(planes, out_phases, ops)
    assert _padding_clear(planes, len(phases))
    return unpack_planes(planes, len(phases)), out_phases


def _run_engine(circuit, letters, phases):
    ops = encode_gates([(g.kind, g.targets) for g in circuit.gates])
    return _run(conjugate_inplace, ops, letters, phases)


def test_encode_gates_layout():
    ops = encode_gates([("H", (2,)), ("CZ", (1, 3)), ("SWAP", (4, 2))])
    assert ops.dtype == np.int32
    assert ops.tolist() == [[0, 1, 0], [6, 0, 2], [8, 3, 1]]
    assert encode_gates([]).shape == (0, 3)
    letters = np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.uint8)
    phases = np.array([0, 1, 2, 3], dtype=np.uint8)
    out_letters, out_phases = _run(conjugate_inplace, encode_gates([]), letters, phases)
    assert np.array_equal(out_letters, letters) and np.array_equal(out_phases, phases)
    # a target below 1 would wrap to the last row, so it is refused, as is
    # an unknown kind; equal pair targets are left to conjugate_inplace
    for gates, message in (
        ([("H", (0,))], "gate 0: H targets must be 1-based positive, got (0,)"),
        ([("H", (1,)), ("CZ", (1, 0))], "gate 1: CZ targets must be 1-based positive, got (1, 0)"),
        ([("SWAP", (-2, 1))], "gate 0: SWAP targets must be 1-based positive, got (-2, 1)"),
        ([("T", (1,))], "gate 0: unknown gate kind 'T'"),
        # a float target was truncated, a second single-qubit target
        # dropped, and a missing pair target an IndexError
        ([("H", (1.5,))], "gate 0: H targets must be integers, got (1.5,)"),
        ([("S", (1,)), ("H", (1, 2))], "gate 1: H takes 1 target(s), got (1, 2)"),
        ([("CZ", (1,))], "gate 0: CZ takes 2 target(s), got (1,)"),
        # targets that are no sequence, and a row past int32
        ([("H", 1)], "gate 0: H targets must be a sequence, got 1"),
        ([("H", (2**40,))], "gate 0: H targets must fit int32 rows, got (1099511627776,)"),
        ([("CX", (1, 2**31 + 1))], "gate 0: CX targets must fit int32 rows, got (1, 2147483649)"),
    ):
        with pytest.raises(ValueError) as excinfo:
            encode_gates(gates)
        assert str(excinfo.value) == message
    assert encode_gates([("CX", (2, 2))]).tolist() == [[7, 1, 1]]
    assert encode_gates([("H", [2**31])]).tolist() == [[0, 2**31 - 1, 0]]  # the last int32 row


def _check_batch_against_oracle(g, m):
    # one column per (letters, phase): every input of the gate in one
    # batch, repeated out to 101 columns, which leave 27 padding bits in
    # the second word
    cols = (list(itertools.product(*[range(4)] * m, range(4))) * 7)[:101]
    letters = np.array([c[:m] for c in cols], dtype=np.uint8).T.copy()
    phases = np.array([c[m] for c in cols], dtype=np.uint8)
    circuit = Circuit(m, (g,))
    out_letters, out_phases = _run_engine(circuit, letters, phases)
    for j, col in enumerate(cols):
        want = oracle_conjugate(circuit, PauliString(col[:m], col[m]))
        got = PauliString(tuple(int(v) for v in out_letters[:, j]), int(out_phases[j]))
        assert got == want, (str(g), col)


def test_single_gate_batches_match_oracle():
    for kind in SINGLE:
        _check_batch_against_oracle(Gate(kind, (1,)), 1)


def test_pair_gate_batches_match_oracle():
    for kind in PAIR:
        for targets in ((1, 2), (2, 1)):
            _check_batch_against_oracle(Gate(kind, targets), 2)


def test_engine_matches_oracle_on_random_circuits():
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 12)
        c = _random_circuit(rng, m, rng.randint(0, 25))
        letters, phases = _random_letters(rng, m, n)
        out_letters, out_phases = _run_engine(c, letters, phases)
        for j in range(n):
            p = PauliString(tuple(int(v) for v in letters[:, j]), int(phases[j]))
            img = oracle_conjugate(c, p)
            assert tuple(int(v) for v in out_letters[:, j]) == img.letters
            assert int(out_phases[j]) == img.phase


def test_phase_accumulation_wraps_safely():
    # 129 Z gates on an X letter: raw uint8 accumulation passes 255 and
    # wraps; the reduced phase must still come out as -1
    m = 1
    c = Circuit(m, tuple(Gate("Z", (1,)) for _ in range(129)))
    letters = np.array([[1]], dtype=np.uint8)
    phases = np.array([0], dtype=np.uint8)
    out_letters, out_phases = _run_engine(c, letters, phases)
    assert out_letters[0, 0] == 1
    assert out_phases[0] == 2
    img = conjugate_circuit(c, PauliString((1,), 0))
    assert (img.letters, img.phase) == ((1,), 2)


def test_long_s_cycle_wraps_to_identity():
    c = Circuit(1, tuple(Gate("S", (1,)) for _ in range(300)))
    letters = np.array([[1]], dtype=np.uint8)
    phases = np.array([0], dtype=np.uint8)
    out_letters, out_phases = _run_engine(c, letters, phases)
    assert out_letters[0, 0] == 1
    assert out_phases[0] == 0


def test_engine_and_oracle_agree_batch_for_batch():
    # the same batch through both conjugators: every letter and all four
    # phases in each batch, random circuits over all nine gates
    rng = random.Random(61)
    kinds = set()
    for _ in range(80):
        m = rng.randint(1, 4)
        n = rng.randint(4, 16)
        letters = np.array([[rng.randrange(4) for _ in range(n)] for _ in range(m)], dtype=np.uint8)
        letters[:, :4] = range(4)  # every letter on every qubit
        phases = np.array([j % 4 for j in range(n)], dtype=np.uint8)
        c = _random_circuit(rng, m, rng.randint(0, 20))
        kinds.update(g.kind for g in c.gates)
        engine = _run(conjugate_inplace, c.ops, letters, phases)
        oracle = _run(dense_conjugate, c.ops, letters, phases)
        assert np.array_equal(engine[0], oracle[0]), c
        assert np.array_equal(engine[1], oracle[1]), c
    assert kinds == set(SINGLE + PAIR)


def test_engine_and_oracle_agree_across_stacks():
    # batches longer than a tree's 2m+1 generators, through an H on every
    # qubit and 30 random gates, against the engine and against the oracle
    # one column at a time
    rng = random.Random(67)
    for m, n in ((6, 19), (7, 17), (8, 21)):
        letters, phases = _random_letters(rng, m, n)
        phases[:] = [j % 4 for j in range(n)]
        gates = [Gate("H", (q,)) for q in range(1, m + 1)]
        c = Circuit(m, tuple(gates) + _random_circuit(rng, m, 30).gates)
        engine = _run(conjugate_inplace, c.ops, letters, phases)
        oracle = _run(dense_conjugate, c.ops, letters, phases)
        assert np.array_equal(engine[0], oracle[0]) and np.array_equal(engine[1], oracle[1])
        for j in range(n):
            one = oracle_conjugate(c, PauliString(letters[:, j].tolist(), int(phases[j])))
            assert (oracle[0][:, j].tolist(), int(oracle[1][j])) == (list(one.letters), one.phase)


def test_engine_matches_oracle_on_multi_word_batches():
    # widths of 2 to 4 words with a partly used last word; raw op rows, so
    # CZ and SWAP keep their targets in both orders, and H and SWAP come
    # back to back on the same rows as well as at random
    rng = random.Random(71)
    codes = {}
    for m, n in ((2, 65), (3, 130), (4, 193), (5, 130), (6, 193), (6, 65)):
        for _ in range(4):
            gates = []
            for _ in range(40):
                kind = rng.choice(SINGLE + PAIR)
                if kind in PAIR:
                    targets = tuple(rng.sample(range(1, m + 1), 2))
                    if kind != "CX":
                        gates.append((kind, targets[::-1]))
                else:
                    targets = (rng.randint(1, m),)
                if kind in ("H", "SWAP"):
                    gates.append((kind, targets))
                gates.append((kind, targets))
            ops = encode_gates(gates)
            for code, a, b in ops.tolist():
                codes.setdefault(code, set()).add(a < b)
            letters, phases = _random_letters(rng, m, n)
            phases[:] = [rng.randrange(4) for _ in range(n)]
            planes, out_phases = pack_letters(letters), phases.copy()
            want = _run(dense_conjugate, ops, letters, phases)
            conjugate_inplace(planes, out_phases, ops)  # the caller's own arrays
            assert planes.shape == (2 * m, -(-n // 64)) and _padding_clear(planes, n)
            assert np.array_equal(unpack_planes(planes, n), want[0]), gates
            assert np.array_equal(out_phases, want[1]), gates
    assert sorted(codes) == list(range(9))
    assert all(codes[c] == {True, False} for c in range(6, 9))  # both target orders


@pytest.mark.parametrize("kind", PAIR)
def test_pair_rows_with_equal_targets_refused(kind):
    # raw rows skip Circuit's checks; a pair gate on one row would clear it
    # (SWAP) or flip signs (CX), so the engine refuses before any gate acts
    letters = np.array([[1, 2, 3], [3, 2, 1]], dtype=np.uint8)
    planes, phases = pack_letters(letters), np.array([0, 1, 2], dtype=np.uint8)
    ops = encode_gates([("H", (1,)), ("CZ", (1, 2)), (kind, (2, 2))])
    with pytest.raises(ValueError, match=f"^op row 2: {kind} needs two distinct qubits, got qubit 2 twice$"):
        conjugate_inplace(planes, phases, ops)
    assert np.array_equal(unpack_planes(planes, 3), letters) and phases.tolist() == [0, 1, 2]


@pytest.mark.parametrize("form", ["setflags", "broadcast_to", "frombuffer"])
def test_read_only_raw_rows_with_equal_targets_refused(form):
    # rows that no Circuit checked are refused however they are stored: a
    # read-only array says nothing of where its rows came from
    letters = np.array([[1, 2, 3], [3, 2, 1]], dtype=np.uint8)
    planes, phases = pack_letters(letters), np.array([0, 1, 2], dtype=np.uint8)
    ops = encode_gates([("H", (1,)), ("SWAP", (2, 2))])
    if form == "setflags":
        ops.setflags(write=False)
    elif form == "broadcast_to":
        ops = np.broadcast_to(ops, ops.shape)
    else:
        ops = np.frombuffer(ops.tobytes(), dtype=ops.dtype).reshape(ops.shape)
    assert not ops.flags.writeable
    with pytest.raises(ValueError, match="^op row 1: SWAP needs two distinct qubits, got qubit 2 twice$"):
        conjugate_inplace(planes, phases, ops)
    assert np.array_equal(unpack_planes(planes, 3), letters) and phases.tolist() == [0, 1, 2]


def test_dense_conjugate_refuses_13_rows_before_allocating():
    planes = pack_letters(np.zeros((13, 3), dtype=np.uint8))
    phases = np.zeros(3, dtype=np.uint8)
    ops = Circuit(13, (Gate("H", (1,)),)).ops
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_ORACLE_QUBITS"):
            dense_conjugate(planes, phases, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 13-qubit letter tables alone would take 1.2 MiB
    assert not planes.any() and not phases.any()
