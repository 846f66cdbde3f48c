import ast
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tern2jw import (
    Certificate,
    Circuit,
    Gate,
    PauliString,
    fix_signs,
    oracle_check,
    random_tree,
    straighten,
    verify_transform,
)
from tern2jw.engine import PAIR_GATES, SINGLE_GATES
from tern2jw.oracle import (
    ExactMatrix,
    OracleError,
    _decode,
    _pauli_parts,
    decode_pauli,
    dense_gate,
    dense_pauli,
    oracle_conjugate,
)

from conftest import rename
from reference import matmul, pauli_identity, pauli_mul, pauli_parse


def gkron(a, b):
    """Kronecker product of Gaussian-integer matrices."""
    re = np.kron(a.re, b.re) - np.kron(a.im, b.im)
    im = np.kron(a.re, b.im) + np.kron(a.im, b.re)
    return ExactMatrix(re, im)


def test_dense_pauli_single_qubit_goldens():
    z = dense_pauli(pauli_parse("Z"))
    assert np.array_equal(z.re, [[1, 0], [0, -1]])
    assert not z.im.any()
    y = dense_pauli(pauli_parse("Y"))
    assert not y.re.any()
    assert np.array_equal(y.im, [[0, -1], [1, 0]])


def test_dense_pauli_qubit_one_is_most_significant():
    xi = dense_pauli(pauli_parse("XI"))
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 2] = want[1, 3] = want[2, 0] = want[3, 1] = 1
    assert np.array_equal(xi.re, want)
    ix = dense_pauli(pauli_parse("IX"))
    assert ix.re[0, 1] == 1 and ix.re[2, 3] == 1


def test_dense_pauli_phase_prefix():
    iy = dense_pauli(pauli_parse("+iY"))
    assert np.array_equal(iy.re, [[0, 1], [-1, 0]])
    assert not iy.im.any()
    minus_z = dense_pauli(pauli_parse("-Z"))
    assert np.array_equal(minus_z.re, [[-1, 0], [0, 1]])


def test_dense_pauli_is_multiplicative():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(1, 3)
        a = pauli_parse("".join(rng.choice("IXYZ") for _ in range(m)))
        b = pauli_parse("".join(rng.choice("IXYZ") for _ in range(m)))
        assert matmul(dense_pauli(a), dense_pauli(b)) == dense_pauli(pauli_mul(a, b))


def _exact(re, im=((0, 0), (0, 0))):
    return ExactMatrix(np.array(re, dtype=np.int64), np.array(im, dtype=np.int64))


def test_dense_pauli_kron_consistency():
    # the Kronecker fold of the letter matrices (qubit 1 leftmost), times
    # i^phase as a 1x1 factor, for every string on 1..3 qubits
    letter = (
        _exact([[1, 0], [0, 1]]),
        _exact([[0, 1], [1, 0]]),
        _exact([[0, 0], [0, 0]], [[0, -1], [1, 0]]),
        _exact([[1, 0], [0, -1]]),
    )
    units = ((1, 0), (0, 1), (-1, 0), (0, -1))
    for m in range(1, 4):
        for codes in itertools.product(range(4), repeat=m):
            for phase, (re, im) in enumerate(units):
                want = _exact([[re]], [[im]])
                for code in codes:
                    want = gkron(want, letter[code])
                assert dense_pauli(PauliString(codes, phase)) == want, (codes, phase)


def test_dense_gate_goldens():
    s = dense_gate(Gate("S", (1,)), 1)
    assert np.array_equal(s.re, [[1, 0], [0, 0]])
    assert np.array_equal(s.im, [[0, 0], [0, 1]])
    h = dense_gate(Gate("H", (1,)), 1)
    assert np.array_equal(h.re, [[1, 1], [1, -1]])
    cz = dense_gate(Gate("CZ", (1, 2)), 2)
    assert np.array_equal(cz.re, np.diag([1, 1, 1, -1]))
    swap = dense_gate(Gate("SWAP", (1, 2)), 2)
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 0] = want[1, 2] = want[2, 1] = want[3, 3] = 1
    assert np.array_equal(swap.re, want)


def test_public_matrices_are_int64():
    # int8 holds the oracle's own matrices only: products of these, as the
    # tests build them, grow past its range
    gates = [Gate(k, (1,)) for k in SINGLE_GATES] + [Gate(k, (1, 2)) for k in PAIR_GATES]
    mats = [dense_gate(g, 2) for g in gates] + [dense_pauli(pauli_parse("-iXYZ"))]
    for mat in mats:
        assert mat.re.dtype == mat.im.dtype == np.int64


def test_dense_gate_embeds_at_target():
    s2 = dense_gate(Gate("S", (2,)), 2)
    assert s2 == gkron(dense_pauli(pauli_parse("I")), dense_gate(Gate("S", (1,)), 1))
    # CX with control on the later wire
    cx21 = dense_gate(Gate("CX", (2, 1)), 2)
    want = np.zeros((4, 4), dtype=np.int64)
    want[0, 0] = want[1, 3] = want[2, 2] = want[3, 1] = 1
    assert np.array_equal(cx21.re, want)


def test_dense_gate_target_out_of_range():
    with pytest.raises(IndexError, match="exceeds 2 qubits"):
        dense_gate(Gate("H", (3,)), 2)


def test_oracle_cap_enforced():
    # m >= 13 is refused at every entry point, before any dense allocation
    big = pauli_parse("I" * 13)
    with pytest.raises(ValueError, match="MAX_LETTER_CELLS"):
        dense_pauli(big)
    with pytest.raises(ValueError, match="MAX_LETTER_CELLS"):
        dense_gate(Gate("H", (1,)), 13)
    with pytest.raises(ValueError, match="MAX_LETTER_CELLS"):
        oracle_conjugate(Circuit(13, ()), big)
    t = random_tree(13, seed=1)
    with pytest.raises(ValueError, match="MAX_LETTER_CELLS"):
        oracle_check(t, straighten(t))


def test_oracle_conjugate_frozen_rows():
    cz = Circuit(2, (Gate("CZ", (1, 2)),))
    assert oracle_conjugate(cz, pauli_parse("XX")) == pauli_parse("YY")
    assert oracle_conjugate(cz, pauli_parse("XY")) == pauli_parse("-YX")
    assert oracle_conjugate(cz, pauli_parse("YX")) == pauli_parse("-XY")
    assert oracle_conjugate(cz, pauli_parse("XI")) == pauli_parse("XZ")
    assert oracle_conjugate(cz, pauli_parse("ZI")) == pauli_parse("ZI")
    s = Circuit(1, (Gate("S", (1,)),))
    assert oracle_conjugate(s, pauli_parse("X")) == pauli_parse("Y")
    assert oracle_conjugate(s, pauli_parse("Y")) == pauli_parse("-X")
    h = Circuit(1, (Gate("H", (1,)),))
    assert oracle_conjugate(h, pauli_parse("X")) == pauli_parse("Z")
    assert oracle_conjugate(h, pauli_parse("Y")) == pauli_parse("-Y")


def test_oracle_conjugate_matches_matrix_products():
    # G . P . G-dagger from dense_gate, dense_pauli and matrix products
    # (the image doubled for the unnormalized H), for every gate and target
    # order on 2 qubits and every letter pair and phase
    gates = [Gate(k, (q,)) for k in SINGLE_GATES for q in (1, 2)]
    gates += [Gate(k, t) for k in PAIR_GATES for t in ((1, 2), (2, 1))]
    for g in gates:
        u = dense_gate(g, 2)
        u_dag = ExactMatrix(u.re.T, -u.im.T)
        for codes in itertools.product(range(4), repeat=2):
            for phase in range(4):
                p = PauliString(codes, phase)
                got = dense_pauli(oracle_conjugate(Circuit(2, (g,)), p))
                scale = 2 if g.kind == "H" else 1
                want = matmul(u, dense_pauli(p), u_dag)
                assert ExactMatrix(scale * got.re, scale * got.im) == want, (g, p)


def _random_circuit(rng, m):
    """Up to 9 gates on m wires, one in three an H, so H falls between
    runs of other gates, at either end, and next to another H."""
    gates = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.choice(("H",) * 4 + SINGLE_GATES[1:] + (PAIR_GATES if m > 1 else ()))
        targets = rng.sample(range(1, m + 1), 2 if kind in PAIR_GATES else 1)
        gates.append(Gate(kind, tuple(targets)))
    return gates


def test_oracle_conjugate_matches_matrix_products_on_random_circuits():
    # U = G_L ... G_1 from dense_gate and matrix products; with h
    # unnormalized H gates, U P U-dagger is 2^h times the image
    rng = random.Random(43)
    seen = set()
    for i in range(150 + 2 * 20):
        # then 20 circuits each on 5 and 6 qubits, whose H butterflies
        # run both across blocks (short strides) and in memory order
        m = rng.randint(1, 4) if i < 150 else 5 + i % 2
        gates = _random_circuit(rng, m)
        u = dense_pauli(pauli_identity(m))
        for g in gates:
            u = matmul(dense_gate(g, m), u)
        h = sum(g.kind == "H" for g in gates)
        p = PauliString(tuple(rng.randrange(4) for _ in range(m)), rng.randrange(4))
        scaled = matmul(u, dense_pauli(p), ExactMatrix(u.re.T, -u.im.T))
        assert not ((scaled.re | scaled.im) & ((1 << h) - 1)).any()
        want = decode_pauli(ExactMatrix(scaled.re >> h, scaled.im >> h), m)
        assert oracle_conjugate(Circuit(m, gates), p) == want, (gates, p)
        # what the circuits must cover between them: every gate, CX both
        # ways round, an H between two runs, an empty run between two H
        # gates, and the empty circuit
        seen.update((g.kind, g.targets != tuple(sorted(g.targets))) for g in gates)
        shape = "".join("H" if g.kind == "H" else "g" for g in gates)
        seen.update(part for part in ("gHg", "HH") if part in shape)
        if not gates:
            seen.add("empty")
        seen.update((m, g.targets[0]) for g in gates if g.kind == "H" and m >= 5)
    kinds = {(kind, False) for kind in SINGLE_GATES + PAIR_GATES}
    assert kinds | {("CX", True), "gHg", "HH", "empty"} <= seen
    # an H on every qubit: every row and column stride at m = 5 and 6
    assert {(m, t) for m in (5, 6) for t in range(1, m + 1)} <= seen


def test_oracle_conjugate_empty_circuit():
    p = pauli_parse("-iXZY")
    assert oracle_conjugate(Circuit(3, ()), p) == p


def test_oracle_conjugate_order_matters():
    # first-listed gate acts first: Ad_{HS} folds H before S
    c = Circuit(1, (Gate("H", (1,)), Gate("S", (1,))))
    # X --H--> Z --S--> Z
    assert oracle_conjugate(c, pauli_parse("X")) == pauli_parse("Z")
    # Z --H--> X --S--> Y
    assert oracle_conjugate(c, pauli_parse("Z")) == pauli_parse("Y")


def test_oracle_conjugate_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        oracle_conjugate(Circuit(2, ()), pauli_parse("X"))


def test_decode_pauli_rejects_non_pauli():
    h = dense_gate(Gate("H", (1,)), 1)
    with pytest.raises(OracleError, match="single-entry row"):
        decode_pauli(h, 1)
    doubled = ExactMatrix(
        np.array([[2, 0], [0, 2]], dtype=np.int64),
        np.zeros((2, 2), dtype=np.int64),
    )
    with pytest.raises(OracleError, match="not a unit"):
        decode_pauli(doubled, 1)
    with pytest.raises(OracleError, match="does not match"):
        decode_pauli(dense_pauli(pauli_parse("XX")), 1)
    # the input is read in its own int64, never narrowed: in int8, 256
    # would wrap to 0, the first case would fail on an empty row 0 and a
    # 256 on a zero of XZ would pass as XZ
    xz = dense_pauli(pauli_parse("XZ"))
    with pytest.raises(OracleError, match="256\\+0i is not a unit"):
        decode_pauli(ExactMatrix(256 * xz.re, 256 * xz.im), 2)
    for entry in (2, 256):
        for row, col in ((3, 3), (3, 1)):  # a zero of XZ, and its entry in row 3
            re = xz.re.copy()
            re[row, col] = entry
            with pytest.raises(OracleError, match="self-check failed"):
                decode_pauli(ExactMatrix(re, xz.im), 2)


def test_non_pauli_matrix_anywhere_in_a_stack_is_rejected():
    # a stack of five 3-qubit strings decodes back to them; one matrix made
    # non-Pauli, first, in the middle or last, fails the whole decode with
    # the check it breaks
    rng = np.random.default_rng(3)
    letters = rng.integers(0, 4, size=(3, 5))
    letters[:, 2] = (1, 2, 3)  # X, Y and Z in one string
    phases = np.arange(5) % 4
    stack = _pauli_parts(letters, phases)
    got_letters, got_phases = _decode(stack.copy(), 3)
    assert np.array_equal(got_letters, letters) and np.array_equal(got_phases, phases)

    def second_entry(a, x):
        a[0, 0, x ^ 1] = 1

    def doubled(a, x):
        a *= 2

    def times_i(a, x):
        a[:, 1, 1 ^ x] = -a[1, 1, 1 ^ x], a[0, 1, 1 ^ x]

    def stray_entry(a, x):
        a[0, 3, (3 ^ x) ^ 1] = 1

    broken = (
        (second_entry, "single-entry row"),
        (doubled, "is not a unit"),
        (times_i, "row 1 is not \\+- the reference entry"),
        (stray_entry, "self-check failed"),
    )
    for j in (0, 2, 4):
        xmask = int(np.flatnonzero(stack[j, 0, 0] | stack[j, 1, 0])[0])
        for corrupt, message in broken:
            bad = stack.copy()
            corrupt(bad[j], xmask)
            with pytest.raises(OracleError, match=message):
                _decode(bad, 3)


def test_decode_pauli_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(1, 3)
        text = "".join(rng.choice("IXYZ") for _ in range(m))
        prefix = rng.choice(["+", "-", "+i", "-i"])
        p = pauli_parse(prefix + text)
        assert decode_pauli(dense_pauli(p), m) == p


def test_oracle_check_accepts_straighten_results():
    for seed in range(8):
        t = random_tree(5, seed=seed)
        r = straighten(t)
        assert oracle_check(t, r).ok
        fx = fix_signs(r)
        assert oracle_check(t, fx).ok


def test_oracle_check_flags_corruption():
    t = random_tree(4, seed=3)
    r = straighten(t)
    assert len(r.circuit.gates) > 1

    dropped = Certificate(
        Circuit(4, r.circuit.gates[:-1]), r.permutation, r.signs
    )
    report = oracle_check(t, dropped)
    assert not report.ok
    assert report.failed_ranks

    flipped = list(r.signs)
    flipped[2] = -flipped[2]
    lied = Certificate(r.circuit, r.permutation, tuple(flipped))
    report = oracle_check(t, lied)
    assert not report.ok
    assert 3 in report.failed_ranks


def test_oracle_check_works_on_certificates():
    t = random_tree(4, seed=11)
    r = fix_signs(straighten(t, swaps=True))
    cert = Certificate(r.circuit, r.permutation, r.signs)
    assert oracle_check(t, cert).ok


def _tampered(cert):
    """Every certificate one deleted gate or one flipped SIGNS entry away."""
    gates = cert.circuit.gates
    for i in range(len(gates)):
        circuit = Circuit(cert.circuit.num_qubits, gates[:i] + gates[i + 1 :])
        yield f"gate {i + 1} deleted", Certificate(circuit, cert.permutation, cert.signs)
    for j in range(len(cert.signs)):
        signs = cert.signs[:j] + (-cert.signs[j],) + cert.signs[j + 1 :]
        yield f"sign {j + 1} flipped", Certificate(cert.circuit, cert.permutation, signs)


def test_tampered_certificates_fail_both_checks():
    # the 2m generators span the Pauli group, so no gate drops out of the
    # map they define and every single deletion must change some image
    rng = random.Random(29)
    for seed in range(8):
        m = 1 + seed % 4
        ids = rng.sample(range(1, m + 1), m)
        t = rename(random_tree(m, seed=seed), ids)
        for r in (straighten(t), straighten(t, swaps=True), fix_signs(straighten(t))):
            report = verify_transform(t, r)
            assert report.ok
            assert oracle_check(t, r) == report
            for what, bad in _tampered(r):
                engine = verify_transform(t, bad)
                assert not engine.ok, what
                assert oracle_check(t, bad) == engine, what


def test_failing_ranks_stay_with_their_columns():
    # m = 6 and 7 batch several generators into each oracle stack; a wrong
    # image, or a wrong claim about one, must fail only its own generator,
    # exactly as in the engine's report
    for m, seed in ((6, 2), (7, 3)):
        t = random_tree(m, seed=seed)
        r = fix_signs(straighten(t))
        assert oracle_check(t, r) == verify_transform(t, r)
        tampered = [(what, bad) for what, bad in _tampered(r) if what.startswith("sign")]
        for i in range(m - 1):
            perm = list(r.permutation)
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            tampered.append((f"PERM {i + 1} swapped", Certificate(r.circuit, tuple(perm), r.signs)))
        # Z on the wire at chain position m flips the images of ranks 2m - 1
        # and 2m; flipping the claimed sign of rank 2m - 1 leaves one wrong
        # image, rank 2m's
        gates = r.circuit.gates + (Gate("Z", (r.permutation[-1],)),)
        signs = [-s if rank == 2 * m - 1 else s for s, rank in zip(r.signs, r.ranks)]
        tampered.append(("Z appended", Certificate(Circuit(m, gates), r.permutation, tuple(signs))))
        for what, bad in tampered:
            engine = verify_transform(t, bad)
            assert oracle_check(t, bad) == engine, what
            if what.startswith("sign"):
                assert engine.failed_ranks == (int(what.split()[1]),), what
            if what == "Z appended":
                assert engine.failed_ranks == (r.ranks.index(2 * m) + 1,)


def test_exact_matrix_is_unhashable():
    # equal matrices compare equal, so they cannot hash by identity
    a, b = dense_pauli(pauli_parse("XZ")), dense_pauli(pauli_parse("XZ"))
    assert a == b
    assert ExactMatrix.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        {a, b}


def test_oracle_check_memory_peak_at_8_qubits():
    # the README's figure: the peak stays within 1.25 dense matrices of
    # 16 * 4^m bytes, which makes m = 12 need about 0.3 GiB
    t = random_tree(8, seed=5)
    r = fix_signs(straighten(t))
    assert oracle_check(t, r).ok  # gate tables are built on first use
    tracemalloc.start()
    try:
        assert oracle_check(t, r).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * 4**8


def test_oracle_imports_neither_engine_nor_straighten():
    # the ground truth stays independent of what it checks
    source = Path(__file__).resolve().parents[1] / "src" / "tern2jw" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.level and not node.module:  # from . import engine
                imported.update("." + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert ".clifford" in imported  # the walk sees the module's imports
    banned = {".engine", ".straighten", "tern2jw.engine", "tern2jw.straighten"}
    assert not imported & banned


def test_oracle_check_memory_peak_at_6_qubits():
    # the 2m+1 matrices of m = 6 are one stack, bounded by _STACK_CELLS
    t = random_tree(6, seed=1)
    r = fix_signs(straighten(t))
    assert oracle_check(t, r).ok
    tracemalloc.start()
    try:
        assert oracle_check(t, r).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
