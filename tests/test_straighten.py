import collections
import contextlib
import functools
import importlib
import math
import os
import random
import tracemalloc
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from tern2jw import (
    Certificate,
    Circuit,
    Gate,
    StraightenResult,
    certificate_format,
    certificate_parse,
    certify,
    conjugate_circuit,
    fix_signs,
    fork_move,
    full_ternary,
    jw_chain,
    map_between,
    oracle_check,
    oracle_conjugate,
    peephole_cancel,
    random_tree,
    relabel,
    straighten,
    straighten_fork,
    tree_format,
    tree_generators,
    tree_parse,
    verify_transform,
)
from tern2jw.cli import run_cli
from tern2jw.engine import GATE_CODES, N_SINGLE, SINGLE_GATES, conjugate_inplace, single_qubit_classes
from tern2jw.pauli import PauliString, pack_letters, unpack_planes
from tern2jw.straighten import MAX_LETTER_CELLS, _conjugated_images, _jw_product
from tern2jw.tree import _planes

from conftest import comb, unfused
from reference import jw_generator, letters_matrix
from shapes import realize, shapes


def _images(circuit, tree):
    return [conjugate_circuit(circuit, p) for p in tree_generators(tree).strings]


def _strip_sign(p):
    assert p.phase in (0, 2)
    return PauliString(p.letters)


def _swap_count(circuit):
    return int(np.count_nonzero(circuit.ops[:, 0] == GATE_CODES["SWAP"]))


def _cycles(source, target):
    """Cycle count of the wire permutation sending source[i] to target[i]."""
    sigma = dict(zip(source, target))
    seen, cycles = set(), 0
    for w in sigma:
        cycles += w not in seen
        while w not in seen:
            seen.add(w)
            w = sigma[w]
    return cycles


def _fork_moved(t, count):
    """The trees of t's first count legal fork moves, by fork qubit."""
    moved = []
    for q in range(1, t.num_qubits + 1):
        with contextlib.suppress(ValueError):
            moved.append(fork_move(t, q)[1])
        if len(moved) == count:
            break
    return moved


def _assert_maps(a, b, mr, circuit):
    """Conjugating a's generators through circuit, as one engine batch,
    gives b's generators at mr.rank_map with mr.signs."""
    n = 2 * a.num_qubits + 1
    planes, phases = _conjugated_images(a, circuit.ops, conjugate_inplace)
    want = unpack_planes(_planes(b), n)[:, np.asarray(mr.rank_map) - 1]
    assert np.array_equal(unpack_planes(planes, n), want)
    assert np.array_equal(phases & 3, np.where(np.asarray(mr.signs) == 1, 0, 2))


def test_relabel_gate_words():
    t = tree_parse("(q1 :x (q2) :y (q3) :z (q4))")
    words = {
        (("x", "z"),): ["H 1"],
        (("x", "y"),): ["S 1"],
        (("y", "z"),): ["H 1", "S 1", "H 1"],
    }
    for pairs, expected in words.items():
        perm = {}
        for a, b in pairs:
            perm[a], perm[b] = b, a
        gates, _ = relabel(t, 1, perm)
        assert [str(g) for g in gates.gates] == expected
    # 3-cycles are two transpositions
    gates, _ = relabel(t, 1, {"x": "y", "y": "z", "z": "x"})
    assert [str(g) for g in gates.gates] == ["S 1", "H 1"]
    gates, _ = relabel(t, 1, {"x": "z", "z": "y", "y": "x"})
    assert [str(g) for g in gates.gates] == ["H 1", "S 1"]
    gates, t2 = relabel(t, 1, {})
    assert gates.gates == () and t2 == t


def test_relabel_rewires_children():
    t = tree_parse("(q1 :x (q2) :y (q3) :z (q4))")
    _, t2 = relabel(t, 1, {"x": "z", "z": "x"})
    assert t2.children[0] == (4, 3, 2)
    _, t3 = relabel(t, 1, {"x": "y", "y": "z", "z": "x"})
    # x's old occupant now sits on y, y's on z, z's on x
    assert t3.children[0] == (4, 2, 3)


def test_relabel_maps_generators_onto_new_tree():
    t = tree_parse("(q1 :x (q2) :y (q3) :z (q4))")
    perms = [
        {"x": "z", "z": "x"},
        {"x": "y", "y": "x"},
        {"y": "z", "z": "y"},
        {"x": "y", "y": "z", "z": "x"},
        {"x": "z", "z": "y", "y": "x"},
    ]
    for perm in perms:
        gates, t2 = relabel(t, 1, perm)
        old = {_strip_sign(p) for p in _images(gates, t)}
        new = {_strip_sign(p) for p in tree_generators(t2).strings}
        assert old == new


def test_relabel_rejects_bad_input():
    t = jw_chain(2)
    with pytest.raises(ValueError, match="unknown qubit"):
        relabel(t, 3, {"x": "z", "z": "x"})
    with pytest.raises(ValueError, match="not a permutation"):
        relabel(t, 1, {"x": "z"})
    with pytest.raises(ValueError, match="not a permutation"):
        relabel(t, 1, {"x": "w", "w": "x"})


def test_fork_move_on_triple_fork(triple_fork):
    g, t2 = fork_move(triple_fork, 1)
    assert g == Gate("CZ", (1, 2))
    # q2's z-subtree (q3) lands on x, q2 heads the y-branch, old y-branch
    # (q4 chain) reattaches under q2's z
    assert t2.children[0] == (3, 2, 6)
    assert t2.children[1] == (0, 0, 4)


def test_fork_move_two_qubit_chain():
    t = tree_parse("(q1 :x (q2))")
    g, t2 = fork_move(t, 1)
    assert g == Gate("CZ", (1, 2))
    assert t2 == tree_parse("(q1 :y (q2))")


def test_fork_move_precondition_errors():
    with pytest.raises(ValueError, match="x slot is terminal"):
        fork_move(tree_parse("(q1 :y (q2))"), 1)
    with pytest.raises(ValueError, match="x slot of q2"):
        fork_move(tree_parse("(q1 :x (q2 :x (q3)))"), 1)
    with pytest.raises(ValueError, match="y slot of q2"):
        fork_move(tree_parse("(q1 :x (q2 :y (q3)))"), 1)
    with pytest.raises(ValueError, match="unknown qubit"):
        fork_move(jw_chain(2), 9)


def test_fork_move_preserves_generator_family(triple_fork):
    g, t2 = fork_move(triple_fork, 1)
    circuit = Circuit(7, (g,))
    old = {_strip_sign(p) for p in _images(circuit, triple_fork)}
    new = {_strip_sign(p) for p in tree_generators(t2).strings}
    assert old == new


def test_straighten_fork_already_straight():
    t = tree_parse("(q1 :z (q2 :z (q3)))")
    gates, t2 = straighten_fork(t, 1)
    assert gates.gates == ()
    assert t2 == t


def test_straighten_fork_single_x_node():
    gates, t2 = straighten_fork(tree_parse("(q1 :x (q2))"), 1)
    assert [str(g) for g in gates.gates] == ["H 1"]
    assert t2 == tree_parse("(q1 :z (q2))")


def test_straighten_fork_rejects_fork_below():
    t = tree_parse("(q1 :x (q2 :x (q3) :y (q4)))")
    with pytest.raises(ValueError, match="fork at q2"):
        straighten_fork(t, 1)


def test_straighten_fork_triple_fork(triple_fork):
    gates, t2 = straighten_fork(triple_fork, 1)
    assert [str(g) for g in gates.gates] == [
        "CZ 1 2",
        "CZ 1 3",
        "H 1",
        "CZ 1 6",
        "CZ 1 7",
        "S 1",
        "H 1",
    ]
    assert t2 == tree_parse(
        "(q1 :z (q7 :z (q6 :z (q3 :z (q2 :z (q4 :z (q5)))))))"
    )


def test_straighten_fixed_point():
    r = straighten(jw_chain(5))
    assert r.circuit.gates == ()
    assert r.permutation == (1, 2, 3, 4, 5)
    assert r.signs == (1,) * 11
    assert r.ranks == tuple(range(1, 12))
    assert r.signfix is None


def test_straighten_certifies_itself(triple_fork):
    r = straighten(triple_fork)
    assert r.permutation == (1, 7, 6, 3, 2, 4, 5)
    assert verify_transform(triple_fork, r).ok


def test_straighten_images_match_recorded_data(triple_fork):
    r = straighten(triple_fork)
    gens = tree_generators(triple_fork).strings
    inverse_pos = {q: i + 1 for i, q in enumerate(r.permutation)}
    for j, p in enumerate(gens):
        img = conjugate_circuit(r.circuit, p)
        renamed = [0] * 7
        for q in range(1, 8):
            renamed[inverse_pos[q] - 1] = img.letters[q - 1]
        expected = jw_generator(7, r.ranks[j])
        assert tuple(renamed) == expected.letters
        assert img.phase == (0 if r.signs[j] == 1 else 2)


def test_straighten_swaps_mode(triple_fork):
    r = straighten(triple_fork, swaps=True)
    assert r.permutation == tuple(range(1, 8))
    assert any(g.kind == "SWAP" for g in r.circuit.gates)
    assert verify_transform(triple_fork, r).ok
    # one SWAP per wire not yet holding its chain letter: m - cycles of
    # the plain reduction's PERM
    for t in (triple_fork, full_ternary(3), random_tree(9, 1000), random_tree(600, 1)):
        m = t.num_qubits
        want = m - _cycles(straighten(t).permutation, range(1, m + 1))
        assert _swap_count(straighten(t, swaps=True).circuit) == want > 0


def test_straighten_random_trees_engine_invariant():
    rng = random.Random(99)
    for trial in range(60):
        m = rng.randint(1, 10)
        t = random_tree(m, seed=1000 + trial)
        r = straighten(t, swaps=bool(trial % 2))
        assert sorted(r.permutation) == list(range(1, m + 1))
        assert sorted(r.ranks) == list(range(1, 2 * m + 2))
        assert verify_transform(t, r).ok


def test_fix_signs_documented_two_flip_case():
    # two flipped ranks on m=2 collapse to a lone Z on the wire holding
    # chain position 1
    r = StraightenResult(
        circuit=Circuit(2, ()),
        permutation=(1, 2),
        signs=(-1, -1, 1, 1, 1),
        ranks=(1, 2, 3, 4, 5),
    )
    fx = fix_signs(r)
    assert fx.signfix == (Gate("Z", (1,)),)
    assert fx.circuit == Circuit(2, fx.signfix)
    assert fx.signs == (1, 1, 1, 1, 1)


def test_fix_signs_noop_when_clean():
    r = straighten(jw_chain(3))
    assert fix_signs(r) is r


def test_fix_signs_idempotent(triple_fork):
    fx = fix_signs(straighten(triple_fork))
    assert fix_signs(fx) is fx


def test_fix_signs_clears_all_movable_ranks():
    rng = random.Random(31)
    trees = [random_tree(rng.randint(1, 8), seed=500 + trial) for trial in range(40)]
    # large inputs with hundreds of flipped ranks: two random trees and a
    # 400-node z-spine caterpillar
    trees += [random_tree(600, seed) for seed in (3, 17)] + [comb(200, "z", "x")]
    for t in trees:
        m = t.num_qubits
        fx = fix_signs(straighten(t))
        for rank, sign in zip(fx.ranks, fx.signs):
            if rank <= 2 * m:
                assert sign == 1
        assert verify_transform(t, fx).ok


def test_fix_signs_refuses_oversized_result():
    # one flipped rank is enough to need the JW generators' planes, which
    # are refused before they are allocated
    m = math.isqrt(MAX_LETTER_CELLS // 2) + 1
    r = StraightenResult(
        circuit=Circuit(m, ()),
        permutation=tuple(range(1, m + 1)),
        signs=(-1,) + (1,) * (2 * m),
        ranks=tuple(range(1, 2 * m + 2)),
    )
    with pytest.raises(ValueError, match="MAX_LETTER_CELLS"):
        fix_signs(r)


def test_jw_product_matches_the_letter_matrix_reduce():
    # fix_signs' closed form for the letters of a product of JW generators,
    # against the XOR of their columns of the chain's letter matrix, for
    # no rank, every rank and three random sets on each m = 1..60
    rng = np.random.default_rng(11)
    for m in range(1, 61):
        jw = letters_matrix(jw_chain(m))
        sets = [np.zeros(2 * m + 1, dtype=bool), np.ones(2 * m + 1, dtype=bool)]
        sets += [rng.random(2 * m + 1) < density for density in (0.1, 0.5, 0.9)]
        for chosen in sets:
            want = np.bitwise_xor.reduce(jw, axis=1, where=chosen, initial=0)
            assert _jw_product(chosen).tolist() == want.tolist(), (m, chosen)


def test_fix_signs_last_rank_parity():
    # the all-z rank flips exactly when an odd number of ranks needed fixing
    rng = random.Random(77)
    seen_odd = seen_even = False
    for trial in range(60):
        m = rng.randint(2, 8)
        t = random_tree(m, seed=2000 + trial)
        r = straighten(t)
        flipped = [rk for rk, s in zip(r.ranks, r.signs) if s == -1 and rk <= 2 * m]
        if not flipped:
            continue
        fx = fix_signs(r)
        last = next(
            (s for rk, s in zip(fx.ranks, fx.signs) if rk == 2 * m + 1)
        )
        before = next(
            (s for rk, s in zip(r.ranks, r.signs) if rk == 2 * m + 1)
        )
        if len(flipped) % 2:
            seen_odd = True
            assert last == -before
        else:
            seen_even = True
            assert last == before
    assert seen_odd and seen_even


def test_map_between_size_mismatch():
    with pytest.raises(ValueError, match="qubit counts differ"):
        map_between(jw_chain(2), jw_chain(3))


def test_map_between_self_cancels(triple_fork):
    mr = map_between(triple_fork, triple_fork)
    assert peephole_cancel(mr.circuit).gates == ()


def test_map_between_cancels_across_other_wires():
    # the H 2 and S 2 pairs of this map sit on either side of H 1, which
    # commutes with them; only H 1 is left
    a = tree_parse("(q1 :x (q2 :y (q3)))")
    b = tree_parse("(q1 :z (q2 :y (q3)))")
    mr = map_between(a, b)
    assert [str(g) for g in peephole_cancel(mr.circuit).gates] == ["H 1"]


def test_map_between_reproduces_target_generators(binary3):
    a = jw_chain(3)
    mr = map_between(a, binary3)
    a_gens = tree_generators(a).strings
    b_gens = tree_generators(binary3).strings
    for j, p in enumerate(a_gens):
        img = conjugate_circuit(mr.circuit, p)
        k = mr.rank_map[j]
        want = b_gens[k - 1]
        assert img.letters == want.letters
        assert img.phase == (0 if mr.signs[j] == 1 else 2)
    assert sorted(mr.rank_map) == list(range(1, 8))


def test_map_between_random_pairs_engine_checked():
    # random pairs, and trees one fork move apart at m = 100..300; the
    # halves meet through one SWAP network, m - cycles(sigma) SWAPs for
    # sigma taking a's chain wires onto b's, and both report b's PERM
    rng = random.Random(13)
    pairs = []
    for trial in range(25):
        m = rng.randint(1, 7)
        pairs.append((random_tree(m, seed=3000 + trial), random_tree(m, seed=4000 + trial)))
    for m in (100, 200, 300):
        a = random_tree(m, 11)
        pairs += [(a, b) for b in _fork_moved(a, 2)]
    for a, b in pairs:
        mr = map_between(a, b)
        assert mr.result_a.permutation == mr.result_b.permutation
        m = a.num_qubits
        assert _swap_count(mr.circuit) == m - _cycles(straighten(a).permutation, mr.result_b.permutation)
        for circuit in (mr.circuit, peephole_cancel(mr.circuit)):
            _assert_maps(a, b, mr, circuit)


def test_map_between_fork_move_costs():
    # trees one fork move apart cancel to a few gates: before the halves
    # shared one SWAP network these cost 554 gates, and 10,922 CZ and
    # 3,870 SWAP at m = 2000
    a = random_tree(100, 11)
    assert len(peephole_cancel(map_between(a, fork_move(a, 2)[1]).circuit).gates) <= 20
    a = random_tree(2000, 3)
    b = fork_move(a, 43)[1]
    mr = map_between(a, b)
    cancelled = peephole_cancel(mr.circuit)
    kinds = collections.Counter(row[0] for row in cancelled.ops.tolist())
    assert kinds[GATE_CODES["CZ"]] <= 210 and kinds[GATE_CODES["SWAP"]] <= 8
    for circuit in (mr.circuit, cancelled):
        _assert_maps(a, b, mr, circuit)


def test_certificate_round_trip(triple_fork):
    r = fix_signs(straighten(triple_fork))
    text = certificate_format(r)
    cert = certificate_parse(text)
    assert cert.circuit == r.circuit
    assert r.circuit.gates[-len(r.signfix) :] == r.signfix
    assert cert.permutation == r.permutation
    assert cert.signs == r.signs
    assert verify_transform(triple_fork, cert).ok


def test_certificate_parse_empty_circuit():
    r = straighten(jw_chain(4))
    cert = certificate_parse(certificate_format(r))
    assert cert.circuit.num_qubits == 4
    assert cert.circuit.gates == ()
    assert cert.permutation == (1, 2, 3, 4)


def test_certificate_parse_errors():
    with pytest.raises(ValueError, match="missing its PERM"):
        certificate_parse("QUBITS 2\nSIGNS + + + + +\n")
    with pytest.raises(ValueError, match="missing its SIGNS"):
        certificate_parse("QUBITS 2\nPERM 1 2\n")
    with pytest.raises(ValueError, match="not a permutation"):
        certificate_parse("PERM 1 1\nSIGNS + + + + +\n")
    with pytest.raises(ValueError, match="bad PERM"):
        certificate_parse("PERM a b\nSIGNS + + + + +\n")
    with pytest.raises(ValueError, match="bad PERM"):  # ASCII digits only
        certificate_parse("PERM 1 \uff12\nSIGNS + + + + +\n")
    with pytest.raises(ValueError, match="bad SIGNS"):
        certificate_parse("PERM 1 2\nSIGNS + + o + +\n")
    with pytest.raises(ValueError, match="SIGNS lists 3"):
        certificate_parse("PERM 1 2\nSIGNS + + +\n")
    with pytest.raises(ValueError, match="touches qubit 3"):
        certificate_parse("H 3\nPERM 1 2\nSIGNS + + + + +\n")
    with pytest.raises(ValueError, match="PERM lists 2 qubits, expected 3"):
        certificate_parse("CZ 1 2\nPERM 1 2\nSIGNS + + + + +\n", num_qubits=3)


def test_verify_transform_rejects_corruption(triple_fork):
    r = straighten(triple_fork)
    assert verify_transform(triple_fork, r).ok

    dropped = Circuit(7, r.circuit.gates[:-1])
    assert not verify_transform(
        triple_fork, Certificate(dropped, r.permutation, r.signs)
    ).ok

    flipped = list(r.signs)
    flipped[0] = -flipped[0]
    assert not verify_transform(
        triple_fork, Certificate(r.circuit, r.permutation, tuple(flipped))
    ).ok

    perm = list(r.permutation)
    perm[1], perm[2] = perm[2], perm[1]
    assert not verify_transform(
        triple_fork, Certificate(r.circuit, tuple(perm), r.signs)
    ).ok


def test_certify_reports_ranks_signs_and_duplicates():
    # m=2 columns: +XI (rank 1), -ZY (rank 4), +ZZ (rank 5), +XI again,
    # +iXI (imaginary phase) and +IX (not of JW shape)
    planes = pack_letters(np.array([[1, 3, 3, 1, 1, 0], [0, 2, 3, 0, 0, 1]], dtype=np.uint8))
    phases = np.array([0, 2, 0, 0, 1, 0], dtype=np.uint8)
    report = certify(planes, phases, (1, 2), (1, -1, 1, 1, 1, 1))
    assert report.results == (True, True, True, False, False, False)
    assert report.failed_ranks == (4, 5, 6)
    assert report.ranks == (1, 4, 5, 1, 0, 0)
    assert report.signs == (1, -1, 1, 1, 0, 0)
    # a wrong declared sign fails that column only, and frees its rank
    # for the later duplicate
    assert certify(planes, phases, (1, 2), (-1, -1, 1, 1, 1, 1)).results[:4] == (
        False, True, True, True,
    )
    # without declared signs any plain sign passes
    assert certify(planes, phases, (1, 2)).results == report.results
    # a declared sign of 0, which an image that decodes as no JW generator
    # reports, passes no image
    assert certify(planes, phases, (1, 2), (0,) * 6).results == (False,) * 6
    # a sign-fixed certificate's 7 images, all of phase exponent 0: SIGNS
    # of any other length is refused, one entry that would broadcast over
    # them all too, and exponents are read mod 4
    t = random_tree(3, 0)
    r = fix_signs(straighten(t))
    planes, phases = _conjugated_images(t, r.circuit.ops, conjugate_inplace)
    assert not phases.any()
    for signs in ((1,), (), r.signs[:-1], r.signs + (1,)):
        with pytest.raises(ValueError, match=f"signs lists {len(signs)} entries for 7 images"):
            certify(planes, phases, r.permutation, signs)
    report = certify(planes, phases, r.permutation, r.signs)
    assert report.ok and set(report.signs) <= {1, -1}
    for shift in (4, 8, 252):
        assert certify(planes, phases + shift, r.permutation, r.signs) == report
    flipped = certify(planes, phases + 6, r.permutation, r.signs)
    assert flipped.signs == tuple(-s for s in report.signs) and not any(flipped.results)


def test_certify_reports_plain_python_values():
    # results, ranks and signs hold Python bools and ints, never numpy
    # scalars, whatever sequence SIGNS comes as (a tuple, a list or an
    # int64 array) and however far past 3 the phase exponents run, on a
    # batch that fails some columns and on a sign-fixed certificate that
    # passes
    planes = pack_letters(np.array([[1, 3, 3, 1, 1, 0], [0, 2, 3, 0, 0, 1]], dtype=np.uint8))
    mixed = planes, np.array([0, 2, 0, 0, 1, 0], dtype=np.uint8), (1, 2), (1, -1, 1, 1, 1, 1)
    t = random_tree(3, 0)
    r = fix_signs(straighten(t))
    fixed = *_conjugated_images(t, r.circuit.ops, conjugate_inplace), r.permutation, r.signs
    for planes, phases, order, signs in (mixed, fixed):
        for shift in (0, 4, 6, 253):
            shifted = phases + shift
            reports = [certify(planes, shifted, order)] + [
                certify(planes, shifted, order, form(signs))
                for form in (tuple, list, lambda s: np.array(s, dtype=np.int64))
            ]
            assert reports[1] == reports[2] == reports[3], shift
            for report in reports:
                assert {type(v) for v in report.results} == {bool}, shift
                assert {type(v) for v in report.ranks + report.signs} == {int}, shift
    assert certify(*fixed).ok and not certify(*mixed).ok


def test_verify_transform_size_mismatch(triple_fork):
    # a certificate whose PERM, circuit and SIGNS disagree on m cannot be
    # built; a well-formed one on another qubit count is refused by both
    # checks before any conjugation
    signs = (1,) * 15
    perm = tuple(range(1, 8))
    for args, match in (
        ((Circuit(7, ()), perm[:6], signs), "spans 7 qubits but PERM lists 6"),  # short PERM
        ((Circuit(7, ()), (1,) + perm[:6], signs), "not a permutation of 1..7"),  # PERM repeats q1
        ((Circuit(8, (Gate("H", (8,)),)), perm, signs), "spans 8 qubits but PERM lists 7"),  # wide circuit
        ((Circuit(8, ()), perm + (8,), signs), "SIGNS lists 15 entries, need 17"),  # both wide
        ((Circuit(7, ()), perm, (1,)), "SIGNS lists 1 entries"),  # one sign
        ((Circuit(7, ()), perm, signs[:14]), "SIGNS lists 14 entries"),  # 2m signs
        ((Circuit(7, ()), perm, signs + (1,)), "SIGNS lists 16 entries"),  # 2m+2 signs
    ):
        with pytest.raises(ValueError, match=match):
            Certificate(*args)
    for cert in (
        Certificate(Circuit(2, ()), (1, 2), (1,) * 5),  # both narrow
        Certificate(Circuit(8, ()), perm + (8,), (1,) * 17),  # both wide
    ):
        for check in (verify_transform, oracle_check):
            with pytest.raises(ValueError, match="7 qubits"):
                check(triple_fork, cert)


def test_certificate_refuses_malformed_shapes(triple_fork):
    circuit = Circuit(3, (Gate("H", (1,)),))
    # the shape rules test_verify_transform_size_mismatch leaves out
    for perm, signs, match in (
        ((1, 2, 4), (1,) * 7, "not a permutation of 1..3"),
        ((0, 1, 2), (1,) * 7, "not a permutation of 1..3"),
        ((3, 1, 2), (1,) * 6 + (0,), r"must be \+1 or -1, got 0"),
        ((3, 1, 2), (1, -1, 2, 1, 1, 1, 1), r"must be \+1 or -1, got 2"),
        ((3, 1, 2), ("+",) * 7, r"must be \+1 or -1, got '\+'"),
        ((1.0, 2.0, 3.0), (1,) * 7, "PERM entries must be integers, got 1.0"),
        ((3, 1, "2"), (1,) * 7, "PERM entries must be integers, got '2'"),
        ((3, 1, 2), (1.0,) * 7, r"must be \+1 or -1, got 1.0"),
    ):
        with pytest.raises(ValueError, match=match):
            Certificate(circuit, perm, signs)
    assert Certificate(circuit, (3, 1, 2), (1, -1) * 3 + (-1,)).num_qubits == 3
    # numpy integers are stored as plain ints, as Gate stores its targets
    cert = Certificate(circuit, tuple(np.array([3, 1, 2])), tuple(np.ones(7, dtype=np.int64)))
    assert {type(v) for v in cert.permutation + cert.signs} == {int}
    assert certificate_parse(certificate_format(cert)) == cert
    # a StraightenResult is a Certificate, so editing one is checked too
    r = straighten(triple_fork)
    with pytest.raises(ValueError, match="SIGNS lists 14"):
        replace(r, signs=r.signs[:-1])
    with pytest.raises(ValueError, match="not a permutation"):
        replace(r, permutation=(1,) * 7)


def test_cz_budget_on_random_trees():
    # m * ceil(log2 m): each fork drains its two smaller branches into the
    # largest, so a node moves at most log2(m) times; caterpillars on every
    # spine/leaf slot pair would cost Theta(m^2) with a fixed accumulator
    rng = random.Random(55)
    trees = [random_tree(rng.randint(2, 12), seed=6000 + trial) for trial in range(30)]
    trees += [
        comb(teeth, spine, leaf)
        for spine, leaf in permutations("xyz", 2)
        for teeth in range(1, 61)
    ]
    trees += [full_ternary(depth) for depth in range(1, 6)]
    for t in trees:
        m = t.num_qubits
        cz = sum(1 for g in straighten(t).circuit.gates if g.kind == "CZ")
        assert cz <= m * (m - 1).bit_length(), (str(t), cz)


def _patch_conjugator(monkeypatch, corrupt):
    """Wrap straighten's conjugate_inplace so corrupt(planes, phases) runs
    after every batch; the package attribute tern2jw.straighten is the
    function, so the module is looked up by name."""
    module = importlib.import_module("tern2jw.straighten")
    original = module.conjugate_inplace

    def wrapped(planes, phases, ops):
        original(planes, phases, ops)
        corrupt(planes, phases)

    monkeypatch.setattr(module, "conjugate_inplace", wrapped)


def _flip_first_sign(planes, phases):
    phases[0] ^= 2


def test_straighten_self_check_fires(monkeypatch):
    def zero_first(planes, phases):
        planes[:, 0] &= ~np.uint64(1)  # column 0 becomes the identity

    _patch_conjugator(monkeypatch, zero_first)
    with pytest.raises(RuntimeError, match="conjugated generators left the signed JW set"):
        straighten(random_tree(6, 3))


def test_fix_signs_self_check_fires(monkeypatch):
    r = straighten(random_tree(6, 3))
    _patch_conjugator(monkeypatch, _flip_first_sign)
    with pytest.raises(RuntimeError, match=r"sign correction failed to clear ranks 1\.\.2m"):
        fix_signs(r)


def test_oracle_catches_a_sign_the_engine_agrees_with(monkeypatch):
    # an engine that flips generator 1's sign still certifies its own
    # output, because straighten records the sign it reports; only the
    # exact oracle, which shares none of the engine's rules, sees it
    _patch_conjugator(monkeypatch, _flip_first_sign)
    t = random_tree(6, 3)
    r = straighten(t)
    assert verify_transform(t, r).ok
    assert oracle_check(t, r).failed_ranks == (1,)


def _duplicate_first_column(monkeypatch):
    """Make the tree module's planes carry column 0 in column 1 too, so the
    two generators commute."""
    tree_mod = importlib.import_module("tern2jw.tree")
    original = tree_mod._planes

    def duplicated(t):
        planes = original(t)
        low = planes[:, 0] & np.uint64(1)
        planes[:, 0] = planes[:, 0] & ~np.uint64(2) | low << np.uint64(1)
        return planes

    monkeypatch.setattr(tree_mod, "_planes", duplicated)


def test_tree_generators_self_check_fires(monkeypatch):
    _duplicate_first_column(monkeypatch)
    with pytest.raises(RuntimeError, match="internal invariant violation"):
        tree_generators(random_tree(6, 3))


def test_generators_command_self_check_fires(monkeypatch, capsys):
    # the command prints blocks built from the leaf runs, and still runs
    # tree_generators' self-check on trees it validates
    _duplicate_first_column(monkeypatch)
    with pytest.raises(RuntimeError, match="internal invariant violation"):
        run_cli(["generators", "-e", tree_format(random_tree(6, 3))])
    assert capsys.readouterr().out == ""


def _traced_peak(run):
    """run()'s result and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certification_memory_peak_at_full_ternary_6():
    # packed planes take two bits a letter: 0.58 MiB for these 1,093
    # qubits, whose byte letter matrix alone would be 2.28 MiB; the
    # measured peaks are 1.05 and 0.97 MiB, with no renamed copy of the
    # planes, the emitted rows freed before certification and the engine
    # holding one block of rows as Python ints and one view per plane row
    t = full_ternary(6)
    r, peak = _traced_peak(lambda: straighten(t))
    assert peak <= 5 << 18, peak
    report, peak = _traced_peak(lambda: verify_transform(t, r))
    assert report.ok and peak <= 1 << 20, peak


@pytest.mark.parametrize(
    "command, m, bound",  # bounds in MiB; the planes take 7.7 MiB at m=4000
    [
        ("stats", 4000, 6),
        ("stats", 11584, 16),
        ("generators", 4000, 24),
        ("generators", 11584, 10),
    ],
)
def test_generators_and_stats_memory_peaks(tmp_path, command, m, bound):
    # the whole command, tree parse included, with its output sent to the
    # null device (256 MiB of text from generators at the cap): stats reads
    # the weights off the leaf runs, and generators builds one bounded block
    # of columns at a time from them, so neither builds the tree's planes
    # (64 MiB at the MAX_LETTER_CELLS cap, m=11584) or its (m, 2m+1) letter
    # matrix (30.5 MiB at m=4000, 256 MiB at the cap); generators measured
    # 4.2 MiB at m=4000 and 8.0 MiB at the cap
    tree = tmp_path / "tree.txt"
    tree.write_text(tree_format(random_tree(m, 42)))

    def run():
        with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
            return run_cli([command, str(tree)])

    code, peak = _traced_peak(run)
    assert code == 0 and peak <= bound << 20, peak


# ---------------------------------------------------------------------------
# single-qubit fusion

# the diagonal classes a wire may carry past a CZ, each with its inverse
_DIAGONALS = {(): (), ("S",): ("SDG",), ("Z",): ("Z",), ("SDG",): ("S",)}


@functools.cache
def _oracle_class(word):
    """A word of single-gate names up to phase: the oracle's images of X, Y, Z."""
    c = Circuit(1, [Gate(name, (1,)) for name in word])
    return tuple(oracle_conjugate(c, PauliString((letter,))) for letter in (1, 2, 3))


@functools.cache
def _fewest_gates():
    """Each class's fewest single gates, by breadth-first search on the oracle."""
    dist, frontier = {_oracle_class(()): 0}, [()]
    while frontier:
        longer = []
        for word in frontier:
            for name in SINGLE_GATES:
                key = _oracle_class(word + (name,))
                if key not in dist:
                    dist[key] = len(word) + 1
                    longer.append(word + (name,))
        frontier = longer
    return dist


def test_single_qubit_class_table_matches_the_oracle():
    compose, codes, heads, carries = single_qubit_classes()
    words = [tuple(SINGLE_GATES[g] for g in w) for w in codes]
    keys = [_oracle_class(w) for w in words]
    dist = _fewest_gates()
    assert len(set(keys)) == len(keys) == len(dist) == 24
    assert [dist[k] for k in keys] == list(map(len, words)), "a stored word is not shortest"
    assert max(map(len, words)) == 3
    for c, word in enumerate(words):
        for g, name in enumerate(SINGLE_GATES):
            assert keys[compose[c][g]] == _oracle_class(word + (name,))
        head = tuple(SINGLE_GATES[g] for g in heads[c])
        carry = words[carries[c]]
        assert carry in _DIAGONALS and _oracle_class(head + carry) == keys[c], word
        # the head is as short as any diagonal remainder allows
        assert len(head) == min(dist[_oracle_class(word + inv)] for inv in _DIAGONALS.values())


def _fewest_fused_gates(t):
    """The fewest single-qubit gates of a circuit with the raw emission's CZ
    rows whose single-qubit gates change only by diagonal remainders moved
    past CZs: per wire, a DP over the four remainders."""
    dist = _fewest_gates()
    segments = [[()] for _ in range(t.num_qubits)]  # per wire, the words between its CZs
    for g in unfused(t).circuit.gates:
        if g.kind == "CZ":
            for q in g.targets:
                segments[q - 1].append(())
        else:
            segments[g.targets[0] - 1][-1] += (g.kind,)
    total = 0
    for wire in segments:
        cost = {(): 0}  # diagonal carried into the next segment -> fewest gates so far
        for segment in wire[:-1]:
            cost = {
                carry: min(
                    c + dist[_oracle_class(held + segment + inverse)] for held, c in cost.items()
                )
                for carry, inverse in _DIAGONALS.items()
            }
        total += min(c + dist[_oracle_class(held + wire[-1])] for held, c in cost.items())
    return total


def test_fused_single_qubit_count_is_the_per_wire_optimum():
    # every shape with m <= 7, and random trees with their own slot orders
    trees = [realize(shape) for m in range(1, 8) for shape in shapes(m)]
    trees += [random_tree(m, seed) for m in range(8, 25) for seed in range(3)]
    for t in trees:
        ops = straighten(t).circuit.ops
        assert np.count_nonzero(ops[:, 0] < N_SINGLE) == _fewest_fused_gates(t), str(t)


def test_z_spine_comb_costs_three_single_gates_a_tooth():
    # each tooth's H S H . CZ . S H becomes SDG H . CZ . H: the tail's S is
    # diagonal and is carried back past the CZ, and the rest merges
    for k in range(1, 40):
        t = comb(k)
        for r, single in ((straighten(t), 3 * (k - 1) + 1), (unfused(t), 5 * (k - 1) + 1)):
            cz = np.count_nonzero(r.circuit.ops[:, 0] == GATE_CODES["CZ"])
            assert (cz, len(r.circuit) - cz) == (k - 1, single), k


def test_circuit_cost_ledger():
    # CZ and gate counts of stand-ins for the benchmark's workloads: the
    # caterpillar, full_ternary(6) from bushy, and one bushy-sized random
    # tree; a change that moves a count must update this ledger on purpose
    ledger = {
        "comb(200)": (comb(200), 199, 797),
        "full_ternary(6)": (full_ternary(6), 4010, 5102),
        "random_tree(600, 7)": (random_tree(600, 7), 1349, 2110),
    }
    for name, (t, cz, gates) in ledger.items():
        ops = straighten(t).circuit.ops
        assert (np.count_nonzero(ops[:, 0] == GATE_CODES["CZ"]), len(ops)) == (cz, gates), name
