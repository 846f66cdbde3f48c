import itertools
import random
import tracemalloc

import numpy as np
import pytest

from tern2jw import Circuit, Gate, conjugate_circuit, oracle_conjugate
from tern2jw.engine import conjugate_inplace, encode_gates
from tern2jw.oracle import _STACK_CELLS, dense_conjugate
from tern2jw.pauli import PauliString

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


def _run_engine(circuit, letters, phases):
    ops = encode_gates([(g.kind, g.targets) for g in circuit.gates])
    out_letters = letters.copy()
    out_phases = phases.copy()
    conjugate_inplace(out_letters, out_phases, ops)
    return out_letters, out_phases


def test_encode_gates_layout():
    ops = encode_gates([("H", (2,)), ("CZ", (1, 3)), ("SWAP", (4, 2))])
    assert ops.dtype == np.int32
    assert ops.tolist() == [[0, 1, 0], [6, 0, 2], [8, 3, 1]]
    assert encode_gates([]).shape == (0, 3)
    letters = np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.uint8)
    phases = np.array([0, 1, 2, 3], dtype=np.uint8)
    out_letters, out_phases = letters.copy(), phases.copy()
    conjugate_inplace(out_letters, out_phases, encode_gates([]))
    assert np.array_equal(out_letters, letters) and np.array_equal(out_phases, phases)


def _check_batch_against_oracle(g, m):
    # one column per (letters, phase): every input of the gate in one batch
    cols = list(itertools.product(*[range(4)] * m, range(4)))
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
        engine = letters.copy(), phases.copy()
        oracle = letters.copy(), phases.copy()
        conjugate_inplace(*engine, c.ops)
        dense_conjugate(*oracle, c.ops)
        assert np.array_equal(engine[0], oracle[0]), c
        assert np.array_equal(engine[1], oracle[1]), c
    assert kinds == set(SINGLE + PAIR)


def test_engine_and_oracle_agree_across_stacks():
    # batches longer than one oracle stack, the last stack partly filled
    # (a stack of one matrix at m = 8 is always full), against the engine
    # and against the oracle one column at a time
    rng = random.Random(67)
    for m, n in ((6, 19), (7, 11), (8, 3)):
        per_stack = max(1, _STACK_CELLS // (2 << 2 * m))
        assert n > per_stack and (m == 8 or n % per_stack)
        letters, phases = _random_letters(rng, m, n)
        phases[:] = [j % 4 for j in range(n)]
        gates = [Gate("H", (q,)) for q in range(1, m + 1)]
        c = Circuit(m, tuple(gates) + _random_circuit(rng, m, 30).gates)
        engine = letters.copy(), phases.copy()
        oracle = letters.copy(), phases.copy()
        conjugate_inplace(*engine, c.ops)
        dense_conjugate(*oracle, c.ops)
        assert np.array_equal(engine[0], oracle[0]) and np.array_equal(engine[1], oracle[1])
        for j in range(n):
            one = oracle_conjugate(c, PauliString(letters[:, j].tolist(), int(phases[j])))
            assert (oracle[0][:, j].tolist(), int(oracle[1][j])) == (list(one.letters), one.phase)


def test_dense_conjugate_refuses_13_rows_before_allocating():
    letters = np.zeros((13, 3), dtype=np.uint8)
    phases = np.zeros(3, dtype=np.uint8)
    ops = Circuit(13, (Gate("H", (1,)),)).ops
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_LETTER_CELLS"):
            dense_conjugate(letters, phases, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 13-qubit dense matrix is 128 MiB even in int8 parts
    assert not letters.any() and not phases.any()
