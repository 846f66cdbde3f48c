"""Property tests over every tree shape, with m <= 40 and shuffled qubit ids.

The strategy draws x-, y- and z-chains, caterpillars and combs on any
spine/tooth slot pair, full ternary trees and random trees.
"""

import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import example, given, settings, strategies as st

from tern2jw import (
    Circuit,
    Gate,
    fix_signs,
    full_ternary,
    oracle_check,
    peephole_cancel,
    random_tree,
    straighten,
    tree_format,
    tree_generators,
    tree_leaves,
    tree_parse,
    verify_transform,
)
from tern2jw.engine import GATE_CODES, N_SINGLE, conjugate_inplace
from tern2jw.tree import _planes
from conftest import comb, rename, unfused
from reference import path_product


@st.composite
def trees(draw, max_m=40):
    kind = draw(st.sampled_from(("chain", "caterpillar", "comb", "full", "random")))
    spine, tooth, _ = draw(st.permutations("xyz"))
    if kind == "chain":
        t = comb(draw(st.integers(1, max_m)), spine, tooth, length=0)
    elif kind == "caterpillar":
        t = comb(draw(st.integers(1, max_m // 2)), spine, tooth)
    elif kind == "comb":
        length = draw(st.integers(2, 4))
        t = comb(draw(st.integers(1, max_m // (1 + length))), spine, tooth, length)
    elif kind == "full":
        depths = [d for d in (1, 2, 3) if (3 ** (d + 1) - 1) // 2 <= max_m]  # m = 4, 13, 40
        t = full_ternary(draw(st.sampled_from(depths)))
    else:
        t = random_tree(draw(st.integers(1, max_m)), draw(st.integers(0, 2**32 - 1)))
    return rename(t, draw(st.permutations(range(1, t.num_qubits + 1))))


@settings(max_examples=150, deadline=None)
@given(trees())
def test_straighten_certifies_within_cz_budget(t):
    m = t.num_qubits
    r = straighten(t)
    assert verify_transform(t, r).ok
    cz = sum(1 for g in r.circuit.gates if g.kind == "CZ")
    assert cz <= m * (m - 1).bit_length()  # m * ceil(log2 m)
    fx = fix_signs(r)
    assert all(s == 1 for rank, s in zip(fx.ranks, fx.signs) if rank <= 2 * m)
    assert verify_transform(t, fx).ok


# The exact oracle costs about 2 ms per check at m=8, so it takes the
# usual 150 draws; it checks only the sign-fixed certificate, whose circuit
# is the straighten circuit plus the Pauli layer.
@settings(max_examples=150, deadline=None)
@given(trees(max_m=8))
def test_oracle_accepts_small_certificates(t):
    assert oracle_check(t, fix_signs(straighten(t))).ok


@settings(max_examples=150, deadline=None)
@given(trees())
def test_straighten_emits_children_first(t):
    # on the raw surgery rows, before fusion: a gate's owner is its single
    # target, or the CZ target that is the other's ancestor in t; each
    # owner's gates form one block, and no block comes after the block of
    # one of its owner's ancestors. Fusion keeps the CZ rows in order.
    parent = {c: q for q, row in enumerate(t.children, start=1) for c in row if c}
    above = {}
    for q in range(1, t.num_qubits + 1):
        above[q], p = set(), q
        while p in parent:
            p = parent[p]
            above[q].add(p)
    raw = unfused(t).circuit
    cz = GATE_CODES["CZ"]
    fused = straighten(t).circuit.ops
    assert np.array_equal(fused[fused[:, 0] == cz], raw.ops[raw.ops[:, 0] == cz])
    blocks = []
    for g in raw.gates:
        a, *rest = g.targets
        if rest:
            (b,) = rest
            assert a in above[b] or b in above[a], f"{g} joins unrelated qubits"
            a = a if a in above[b] else b
        if not blocks or blocks[-1] != a:
            blocks.append(a)
    assert len(blocks) == len(set(blocks)), f"split blocks: {blocks}"
    done = set()
    for q in blocks:
        assert not above[q] & done, f"q{q} comes after an ancestor: {blocks}"
        done.add(q)


@settings(max_examples=150, deadline=None)
@given(trees(), st.booleans(), st.booleans())
def test_fusion_keeps_the_clifford(t, swaps, signs):
    # against the raw emission: the same CZ and SWAP rows in the same
    # order, never more single-qubit gates, the same PERM, SIGNS and ranks,
    # and bit-identical images of the tree's planes
    fused, raw = straighten(t, swaps), unfused(t, swaps)
    if signs:
        fused, raw = fix_signs(fused), fix_signs(raw)
    a, b = fused.circuit.ops, raw.circuit.ops
    assert np.array_equal(a[a[:, 0] >= N_SINGLE], b[b[:, 0] >= N_SINGLE])
    assert np.count_nonzero(a[:, 0] < N_SINGLE) <= np.count_nonzero(b[:, 0] < N_SINGLE)
    assert (fused.permutation, fused.signs, fused.ranks) == (raw.permutation, raw.signs, raw.ranks)
    images = []
    for ops in (a, b):
        planes, phases = _planes(t), np.zeros(2 * t.num_qubits + 1, dtype=np.uint8)
        conjugate_inplace(planes, phases, ops)
        images.append((planes, phases))
    assert all(np.array_equal(x, y) for x, y in zip(*images))
    if t.num_qubits <= 8:
        assert oracle_check(t, fused).ok


def _word_rows(planes):
    """Each row of packed planes as one int, word k at bit 64 k."""
    return [sum(int(w) << 64 * k for k, w in enumerate(row)) for row in planes]


@settings(max_examples=150, deadline=None)
@given(trees())
@example(random_tree(31, 1))  # 63 columns: one bit short of a word
@example(comb(32, "z", "x", length=0))  # 65 columns: one bit into the second word
@example(rename(random_tree(64, 5), list(range(64, 0, -1))))  # 129 columns
def test_letters_matrix_matches_path_products(t):
    # the packed planes that certification conjugates and tree_generators
    # returns, and the strings unpacked from them, against the paper's
    # definition: one path product per leaf, in canonical order; x bits
    # where the letter is X or Y, z bits where it is Y or Z, the padding
    # bits clear
    gens = [path_product(t, path) for path in tree_leaves(t)]
    assert all(p.phase == 0 for p in gens)
    stacked = np.array([p.letters for p in gens], dtype=np.uint8).T
    m, n = stacked.shape
    planes = _planes(t)
    assert planes.dtype == np.uint64 and planes.shape == (2 * m, (n + 63) // 64)
    want_x = [sum(1 << j for j, l in enumerate(row) if l in (1, 2)) for row in stacked.tolist()]
    want_z = [sum(1 << j for j, l in enumerate(row) if l in (2, 3)) for row in stacked.tolist()]
    assert _word_rows(planes) == want_x + want_z
    assert np.array_equal(tree_generators(t).planes, planes)
    assert tree_generators(t).strings == tuple(gens)


@settings(max_examples=150, deadline=None)
@given(trees())
def test_format_parse_round_trip(t):
    assert tree_parse(tree_format(t)) == t


@st.composite
def circuits(draw):
    """Circuits on 1..4 wires over a few gates and their inverses, so that
    many pairs cancel."""
    m = draw(st.integers(1, 4))
    single = st.builds(Gate, st.sampled_from(("H", "S", "SDG", "X")), st.tuples(st.integers(1, m)))
    gate = single
    if m >= 2:
        pair = st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True).map(tuple)
        gate = st.one_of(single, st.builds(Gate, st.sampled_from(("CZ", "CX")), pair))
    return Circuit(m, draw(st.lists(gate, max_size=40)))


@settings(max_examples=300, deadline=None)
@given(circuits(), st.randoms(use_true_random=False))
def test_cancelled_length_ignores_the_order_of_commuting_gates(c, rnd):
    # swapping neighbouring gates on disjoint wires gives the same circuit;
    # peephole_cancel must keep as many gates of it either way
    gates = list(c.gates)
    for _ in range(3 * len(gates)):
        i = rnd.randrange(max(len(gates) - 1, 1))
        if i + 1 < len(gates) and not set(gates[i].targets) & set(gates[i + 1].targets):
            gates[i], gates[i + 1] = gates[i + 1], gates[i]
    assert len(peephole_cancel(Circuit(c.num_qubits, gates))) == len(peephole_cancel(c))
