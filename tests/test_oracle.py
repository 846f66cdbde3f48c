import ast
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tern2jw
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
from tern2jw.engine import GATE_CODES, N_SINGLE, PAIR_GATES, SINGLE_GATES
from tern2jw.oracle import (
    OracleError,
    _decode,
    _forms,
    _gate_form,
    _hadamard,
    dense_conjugate,
    oracle_conjugate,
)
from tern2jw.pauli import pack_letters, plane_masks, unpack_planes

from conftest import rename
from reference import (
    ExactMatrix,
    decode_pauli,
    dense_gate,
    dense_pauli,
    gkron,
    matmul,
    pauli_identity,
    pauli_mul,
    pauli_parse,
)

# The dense tests below check the reference's matrices, then the oracle
# against them.


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


def _scattered(source, phase):
    """One monomial form's own matrix: i^phase[r] at [r, source[r]]."""
    rows, phase = np.arange(len(source)), phase.astype(np.int64)  # uint8 would wrap below 0
    a = np.zeros((2, len(rows), len(rows)), dtype=np.int64)
    a[phase & 1, rows, source] = 1 - (phase & 2)
    return ExactMatrix(*a)


def _planes_forms(letters, phases):
    """The oracle's monomial forms of an (m, n) letter block times
    i^phases, built as dense_conjugate builds them: from the masks read
    off the packed planes."""
    m, n = letters.shape
    return _forms(*plane_masks(pack_letters(letters), n), np.asarray(phases, dtype=np.uint8), m)


def test_dense_pauli_kron_consistency():
    # the oracle's forms, from the packed planes, of every string on 1..3
    # qubits at every phase, scattered into a matrix, are the reference's
    # Kronecker fold of the letter matrices
    for m in range(1, 4):
        strings = [
            PauliString(codes, phase)
            for codes in itertools.product(range(4), repeat=m)
            for phase in range(4)
        ]
        letters = np.array([p.letters for p in strings], dtype=np.uint8).T
        source, phase = _planes_forms(letters, [p.phase for p in strings])
        for p, s, e in zip(strings, source, phase):
            assert _scattered(s, e) == dense_pauli(p), p


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
    # the reference's matrices are int64: products of these, as the tests
    # build them, grow past any narrower range
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


def test_oracle_cap_enforced():
    # m >= 13 is refused at every entry point
    big = pauli_parse("I" * 13)
    with pytest.raises(ValueError, match="limit of 12 qubits \\(MAX_ORACLE_QUBITS\\)"):
        oracle_conjugate(Circuit(13, ()), big)
    t = random_tree(13, seed=1)
    with pytest.raises(ValueError, match="MAX_ORACLE_QUBITS"):
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
    # G . P . G-dagger from the reference's matrices and their products
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
    # U = G_L ... G_1 from the reference's matrices and their products; with h
    # unnormalized H gates, U P U-dagger is 2^h times the image
    rng = random.Random(43)
    seen = set()
    for i in range(150 + 2 * 20 + 2 * 10):
        # then 20 circuits each on 5 and 6 qubits, and 10 each on 7 and 8,
        # these with an H on the next wire in turn put in at random
        if i < 150:
            m = rng.randint(1, 4)
        else:
            m = 5 + i % 2 if i < 190 else 7 + i % 2
        gates = _random_circuit(rng, m)
        if m >= 7:
            gates.insert(rng.randint(0, len(gates)), Gate("H", ((i - 190) // 2 % m + 1,)))
        u = matmul(*[dense_gate(g, m) for g in reversed(gates)] or [dense_pauli(pauli_identity(m))])
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
    # an H on every qubit: every bit of a row index paired at m = 5..8
    assert {(m, t) for m in (5, 6, 7, 8) for t in range(1, m + 1)} <= seen


def test_dense_conjugate_is_the_same_at_every_batch_width():
    # widths on either side of a 64-bit word: a batch's columns come out as
    # the widest batch's first columns and as each string alone, and every
    # padding bit past the last column stays clear
    rng = random.Random(47)
    m, widest = 4, 129
    gates = _random_circuit(rng, m) + [Gate("H", (2,))] + _random_circuit(rng, m)
    c = Circuit(m, gates)
    letters = rng.choices(range(4), k=m * widest)
    letters = np.array(letters, dtype=np.uint8).reshape(m, widest)
    phases = np.array(rng.choices(range(4), k=widest), dtype=np.uint8)
    images = {}
    for n in (1, 63, 65, widest):
        planes, out = pack_letters(letters[:, :n]), phases[:n].copy()
        dense_conjugate(planes, out, c.ops)
        bits = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little")
        assert not bits[:, n:].any(), n
        images[n] = unpack_planes(planes, n), out
    wide_letters, wide_phases = images[widest]
    for n, (got_letters, got_phases) in images.items():
        assert np.array_equal(got_letters, wide_letters[:, :n]), n
        assert np.array_equal(got_phases, wide_phases[:n]), n
    for j in range(widest):
        p = PauliString(letters[:, j].tolist(), int(phases[j]))
        want = PauliString(wide_letters[:, j].tolist(), int(wide_phases[j]))
        assert oracle_conjugate(c, p) == want, (gates, p)


def test_cached_gate_forms_are_read_only_and_bounded():
    # every compiled circuit shares the cached embedded gates and H arrays,
    # so none may be written through, and the cache holds a bounded number
    for code in GATE_CODES.values():
        b = 0 if code < N_SINGLE else 2
        for array in _gate_form(code, 1, b, 3):
            assert not array.flags.writeable, code
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
    assert _gate_form.cache_info().maxsize is not None


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
    # the reference decoder keeps a candidate only if its whole matrix is
    # the input
    rejected = [  # (matrix, qubits)
        (dense_gate(Gate("H", (1,)), 1), 1),
        (ExactMatrix(2 * np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)), 1),
        (dense_pauli(pauli_parse("XX")), 1),
    ]
    # entries past any narrow range: 256 would wrap to 0 in int8
    xz = dense_pauli(pauli_parse("XZ"))
    rejected.append((ExactMatrix(256 * xz.re, 256 * xz.im), 2))
    for entry in (2, 256):
        for row, col in ((3, 3), (3, 1)):  # a zero of XZ, and its entry in row 3
            re = xz.re.copy()
            re[row, col] = entry
            rejected.append((ExactMatrix(re, xz.im), 2))

    # one 3-qubit string's matrix broken four ways, as (re, im) stacks a
    # with row 0's entry in column x
    def second_entry(a, x):
        a[0, 0, x ^ 1] = 1

    def doubled(a, x):
        a *= 2

    def times_i(a, x):
        a[:, 1, 1 ^ x] = -a[1, 1, 1 ^ x], a[0, 1, 1 ^ x]

    def stray_entry(a, x):
        a[0, 3, (3 ^ x) ^ 1] = 1

    for text in ("XYZ", "-iZIX", "+iIYY"):
        p = pauli_parse(text)
        mat = dense_pauli(p)
        assert decode_pauli(mat, 3) == p
        x = int(np.flatnonzero(mat.re[0] | mat.im[0])[0])
        for corrupt in (second_entry, doubled, times_i, stray_entry):
            a = np.stack((mat.re, mat.im))
            corrupt(a, x)
            rejected.append((ExactMatrix(*a), 3))
    for mat, m in rejected:
        with pytest.raises(ValueError, match="not a signed Pauli matrix"):
            decode_pauli(mat, m)


def test_non_pauli_matrix_anywhere_in_a_stack_is_rejected():
    # the monomial forms of five 3-qubit strings decode back to them; one
    # form made non-Pauli, first, in the middle or last, fails the whole
    # decode with the check it breaks
    rng = np.random.default_rng(3)
    letters = rng.integers(0, 4, size=(3, 5), dtype=np.uint8)
    letters[:, 2] = (1, 2, 3)  # X, Y and Z in one string
    phases = np.arange(5) % 4
    source, phase = _planes_forms(letters, phases)
    *masks, got_phases = _decode(source.copy(), phase.copy(), 3)
    assert np.array_equal(masks, plane_masks(pack_letters(letters), 5))
    assert np.array_equal(got_phases, phases)

    # a form has one unit entry in every row, so it can break a Pauli
    # matrix only by a wrong phase or a moved entry, in a single-bit row
    # or in another
    def form_times_i(s, p):
        p[1] = (p[1] + 1) % 4

    def form_moved(s, p):
        s[3] ^= 1

    def form_single_bit_moved(s, p):
        s[4] ^= 1

    def form_sign(s, p):
        p[7] ^= 2

    forms = (
        (form_times_i, "row 1 is not \\+- the reference entry"),
        (form_moved, "self-check failed"),
        (form_single_bit_moved, "row 4 is not \\+- the reference entry"),
        (form_sign, "self-check failed"),
    )
    for j in (0, 2, 4):
        for corrupt, message in forms:
            bad_source, bad_phase = source.copy(), phase.copy()
            corrupt(bad_source[j], bad_phase[j])
            with pytest.raises(OracleError, match=message):
                _decode(bad_source, bad_phase, 3)


def test_hadamard_step_rejects_forms_that_are_not_pauli():
    # S's own matrix diag(1, i) is monomial, but H S H is not: row 0 meets
    # 1 and i, whose sums 1 + i and 1 - i do not halve
    s_source, s_phase = _gate_form(GATE_CODES["S"], 0, 0, 1)
    with pytest.raises(OracleError, match="inexact rescale after H 1"):
        _hadamard(s_source[None], s_phase[None], 1, 1)
    # SWAP's own matrix has all phases 0, but rows 0 and 2, partners on
    # qubit 1's bit, take columns 0 and 1, which are not
    swap_source, swap_phase = _gate_form(GATE_CODES["SWAP"], 0, 1, 2)
    assert swap_source.tolist() == [0, 2, 1, 3] and not swap_phase.any()
    with pytest.raises(OracleError, match="inexact rescale after H 1"):
        _hadamard(swap_source[None], swap_phase[None], 2, 1)
    # a Pauli form passes through: H on qubit 2 takes -iXX (x mask 11,
    # z mask 00) to -iXZ (x mask 10, z mask 01)
    source, phase = _hadamard(*_planes_forms(np.array([[1], [1]], dtype=np.uint8), [3]), 2, 2)
    assert [s.tolist() for s in _decode(source, phase, 2)] == [[2], [1], [3]]


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
    # the oracle conjugates all 2m+1 generators as one batch; a wrong
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


def test_oracle_check_memory_peak_at_8_qubits():
    # the README's figure: 0.18 MiB, all (2m+1) x 2^m monomial forms and
    # their temporaries, under a quarter of the 16 * 4^m = 1 MiB one dense
    # int64 matrix would take
    t = random_tree(8, seed=5)
    r = fix_signs(straighten(t))
    assert oracle_check(t, r).ok  # gate tables are built on first use
    tracemalloc.start()
    try:
        assert oracle_check(t, r).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 4**8


def test_oracle_check_at_12_qubits_agrees_with_the_engine_in_6_mib():
    # the largest m the oracle takes, with its embedded gates built inside
    # the measurement unless an earlier test built them: the README's
    # figure is 4.2 MiB
    t = random_tree(12, seed=1)
    r = fix_signs(straighten(t))
    want = verify_transform(t, r)
    tracemalloc.start()
    try:
        got = oracle_check(t, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and got.ok
    assert peak < 6 << 20


def _imports(path):
    """Every module a source file imports, and every name it imports from
    one as module.name (relative modules keep their leading dots)."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            dot = "" if module.endswith(".") else "."
            imported.update(module + dot + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def test_oracle_imports_neither_engine_nor_straighten():
    # the ground truth stays independent of what it checks
    imported = _imports(Path(__file__).resolve().parents[1] / "src" / "tern2jw" / "oracle.py")
    assert ".clifford" in imported  # the walk sees the module's imports
    banned = {".engine", ".straighten", "tern2jw.engine", "tern2jw.straighten"}
    assert not imported & banned


def test_reference_imports_nothing_from_the_oracle():
    # the dense matrices the oracle is checked against are built apart from it
    imported = _imports(Path(__file__).resolve().with_name("reference.py"))
    assert "tern2jw.PauliString" in imported  # the walk sees the module's imports
    oracle_names = {
        name
        for name in tern2jw.__all__
        if getattr(getattr(tern2jw, name), "__module__", None) == "tern2jw.oracle"
    }
    assert oracle_names == {"OracleError", "oracle_conjugate"}
    assert not any(name.startswith("tern2jw.oracle") for name in imported)
    assert not imported & {"tern2jw." + name for name in oracle_names}


def test_oracle_check_memory_peak_at_6_qubits():
    # the README's figure: 0.04 MiB
    t = random_tree(6, seed=1)
    r = fix_signs(straighten(t))
    assert oracle_check(t, r).ok
    tracemalloc.start()
    try:
        assert oracle_check(t, r).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
