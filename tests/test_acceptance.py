"""One test per acceptance criterion; each prints its own PASS/FAIL line.

Criterion 1 demands a sign-free CZ conjugation table and fails: the table
cannot be all-positive (exact algebra makes the XY and YX rows pick up a
minus sign), and the expected values here are not weakened to hide that.
Everything else passes.
"""

import random
import time

import numpy as np
import pytest

from tern2jw import (
    Circuit,
    Gate,
    check_generator_set,
    conjugate_circuit,
    fix_signs,
    full_ternary,
    jw_chain,
    map_between,
    oracle_check,
    oracle_conjugate,
    peephole_cancel,
    random_tree,
    straighten,
    tree_augment,
    tree_generators,
    tree_leaves,
    tree_parse,
    verify_transform,
)
from tern2jw.engine import conjugate_inplace, encode_gates
from tern2jw.pauli import LETTERS, PauliString, pack_letters, unpack_planes

from conftest import TRIPLE_FORK


@pytest.fixture
def report(capfd):
    def _report(k, slug, ok, detail=""):
        with capfd.disabled():
            print(f"ACCEPTANCE {k} {slug}: {'PASS' if ok else 'FAIL'}", flush=True)
        assert ok, f"acceptance criterion {k} ({slug})" + (f": {detail}" if detail else "")

    return _report


def _string(m, placed, phase=0):
    letters = [0] * m
    for q, letter in placed.items():
        letters[q - 1] = LETTERS.index(letter)
    return PauliString(tuple(letters), phase)


# the published two-qubit CZ conjugation table, claimed sign-free
_CZ_TABLE = {
    "II": "II", "IX": "ZX", "IY": "ZY", "IZ": "IZ",
    "XI": "XZ", "XX": "YY", "XY": "YX", "XZ": "XI",
    "YI": "YZ", "YX": "XY", "YY": "XX", "YZ": "YI",
    "ZI": "ZI", "ZX": "IX", "ZY": "IY", "ZZ": "ZZ",
}


def test_criterion_1_cz_table_sign_free(report):
    g = Gate("CZ", (1, 2))
    circuit = Circuit(2, (g,))
    wrong = []
    for src, dst in _CZ_TABLE.items():
        p = _string(2, {1: src[0], 2: src[1]})
        img = conjugate_circuit(circuit, p)
        oracle = oracle_conjugate(circuit, p)
        want = _string(2, {1: dst[0], 2: dst[1]})
        if img.letters != want.letters or img.phase != 0 or img != oracle:
            wrong.append(f"{src} -> {img} (oracle {oracle}, table +{dst})")
    report(1, "cz-table-sign-free", not wrong, "; ".join(wrong))


def test_criterion_2_chain3_czcz_image(report):
    circuit = Circuit(3, (Gate("CZ", (1, 2)), Gate("CZ", (2, 3))))
    six = [conjugate_circuit(circuit, p) for p in tree_generators(jw_chain(3)).strings[:6]]
    expected = [
        _string(3, {1: "X", 2: "Z"}),
        _string(3, {1: "Y", 2: "Z"}),
        _string(3, {2: "X", 3: "Z"}),
        _string(3, {2: "Y", 3: "Z"}),
        _string(3, {1: "Z", 3: "X"}),
        _string(3, {1: "Z", 3: "Y"}),
    ]
    family = check_generator_set(six)
    report(
        2,
        "chain3-czcz-image",
        six == expected and family.anticommuting and family.unit_squares,
    )


def test_criterion_3_full_ternary_depth2(report):
    t = full_ternary(2)
    gens = tree_generators(t).strings
    picked = {
        1: _string(13, {1: "X", 2: "X", 5: "X"}),
        2: _string(13, {1: "X", 2: "X", 5: "Y"}),
        3: _string(13, {1: "X", 2: "X", 5: "Z"}),
        4: _string(13, {1: "X", 2: "Y", 6: "X"}),
        27: _string(13, {1: "Z", 4: "Z", 13: "Z"}),
    }
    ok = t.num_qubits == 13 and len(gens) == 27
    for rank, want in picked.items():
        ok = ok and gens[rank - 1] == want
    report(3, "full-ternary-depth2", ok)


def test_criterion_4_augmented_binary_tree(report):
    t = tree_augment({1: {"x": 2, "y": 3}})
    got = {p.letters for p in tree_generators(t).strings}
    phases_ok = all(p.phase == 0 for p in tree_generators(t).strings)
    want = {
        _string(3, {1: "Z"}).letters,
        _string(3, {1: "X", 2: "Z"}).letters,
        _string(3, {1: "Y", 3: "Z"}).letters,
        _string(3, {1: "X", 2: "X"}).letters,
        _string(3, {1: "X", 2: "Y"}).letters,
        _string(3, {1: "Y", 3: "X"}).letters,
        _string(3, {1: "Y", 3: "Y"}).letters,
    }
    report(4, "augmented-binary-tree", got == want and phases_ok)


def test_criterion_5_jw_chain_generators(report):
    ok = True
    for m in range(1, 9):
        gens = tree_generators(jw_chain(m)).strings
        ok = ok and len(gens) == 2 * m + 1
        for k in range(1, m + 1):
            prefix = {q: "Z" for q in range(1, k)}
            ok = ok and gens[2 * k - 2] == _string(m, {**prefix, k: "X"})
            ok = ok and gens[2 * k - 1] == _string(m, {**prefix, k: "Y"})
        ok = ok and gens[2 * m] == _string(m, {q: "Z" for q in range(1, m + 1)})
    report(5, "jw-chain-generators", ok)


def test_criterion_6_triple_fork_walkthrough(report):
    t = tree_parse(TRIPLE_FORK)
    r = straighten(t)
    skeleton = [str(g) for g in r.circuit.gates if 1 in g.targets]
    want = ["CZ 1 2", "CZ 1 3", "H 1", "CZ 1 6", "CZ 1 7", "S 1", "H 1"]
    oracle = oracle_check(t, r)
    report(
        6,
        "triple-fork-walkthrough",
        skeleton == want and len(oracle.results) == 15 and oracle.ok,
    )


def test_criterion_7_random_tree_properties(report):
    rng = random.Random(2026)
    ok = True
    for trial in range(200):
        m = rng.randint(1, 10)
        t = random_tree(m, seed=trial)
        ok = ok and len(tree_leaves(t)) == 2 * m + 1
        ok = ok and check_generator_set(tree_generators(t).strings).ok
        r = straighten(t)
        ok = ok and verify_transform(t, r).ok
        fx = fix_signs(r)
        ok = ok and all(
            s == 1 for rank, s in zip(fx.ranks, fx.signs) if rank <= 2 * m
        )
        ok = ok and sum(g.kind == "CZ" for g in r.circuit.gates) <= m * m
        if m <= 6:
            ok = ok and oracle_check(t, r).ok and oracle_check(t, fx).ok
        if not ok:
            break
    report(7, "random-tree-properties", ok)


def _exhaustive_gate_list():
    gates = [Gate(kind, (q,)) for kind in ("H", "S", "SDG", "X", "Y", "Z") for q in (1, 2)]
    gates += [Gate("CZ", (1, 2)), Gate("SWAP", (1, 2)), Gate("CX", (1, 2)), Gate("CX", (2, 1))]
    return gates


def test_criterion_8_engine_oracle_agreement(report):
    ok = True
    # every two-qubit string and phase, one packed batch per gate; the 64
    # inputs and the first again make 65 columns, one past a 64-bit word
    inputs = [PauliString((a, b), phase) for a in range(4) for b in range(4) for phase in range(4)]
    inputs.append(inputs[0])
    for g in _exhaustive_gate_list():
        circuit = Circuit(2, (g,))
        ops = encode_gates([(g.kind, g.targets)])
        planes = pack_letters(np.array([p.letters for p in inputs], dtype=np.uint8).T)
        phases = np.array([p.phase for p in inputs], dtype=np.uint8)
        conjugate_inplace(planes, phases, ops)
        images = unpack_planes(planes, len(inputs)).T.tolist()
        for p, letters, phase in zip(inputs, images, phases.tolist()):
            want = oracle_conjugate(circuit, p)
            got = conjugate_circuit(circuit, p)
            engine_img = PauliString(tuple(letters), phase)
            ok = ok and got == want and engine_img == want
    rng = random.Random(8)
    kinds_1 = ("H", "S", "SDG", "X", "Y", "Z")
    kinds_2 = ("CZ", "CX", "SWAP")
    for _ in range(500):
        m = rng.randint(1, 5)
        gates = []
        for _ in range(rng.randint(0, 30)):
            if m >= 2 and rng.random() < 0.5:
                a, b = rng.sample(range(1, m + 1), 2)
                gates.append(Gate(rng.choice(kinds_2), (a, b)))
            else:
                gates.append(Gate(rng.choice(kinds_1), (rng.randint(1, m),)))
        circuit = Circuit(m, tuple(gates))
        p = PauliString(
            tuple(rng.randint(0, 3) for _ in range(m)), rng.choice((0, 2))
        )
        ok = ok and conjugate_circuit(circuit, p) == oracle_conjugate(circuit, p)
        if not ok:
            break
    report(8, "engine-oracle-agreement", ok)


def test_criterion_9_map_roundtrip(report):
    rng = random.Random(9)
    ok = True
    for trial in range(50):
        m = rng.randint(1, 6)
        a = random_tree(m, seed=7000 + trial)
        b = random_tree(m, seed=8000 + trial)
        mr = map_between(a, b)
        b_gens = tree_generators(b).strings
        for j, p in enumerate(tree_generators(a).strings):
            img = oracle_conjugate(mr.circuit, p)
            want = b_gens[mr.rank_map[j] - 1]
            sign_ok = img.phase == (0 if mr.signs[j] == 1 else 2)
            ok = ok and img.letters == want.letters and sign_ok
        ok = ok and peephole_cancel(map_between(a, a).circuit).gates == ()
        if not ok:
            break
    report(9, "map-roundtrip", ok)


def test_criterion_10_straighten_m2000_time(report):
    t = random_tree(2000, seed=42)
    start = time.perf_counter()
    r = straighten(t)
    elapsed = time.perf_counter() - start
    sane = sorted(r.permutation) == list(range(1, 2001)) and len(r.signs) == 4001
    report(
        10,
        "straighten-m2000-time",
        elapsed < 5.0 and sane,
        f"{elapsed:.2f} s",
    )
