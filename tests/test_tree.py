import random

import numpy as np
import pytest

from tern2jw import (
    TERMINAL,
    PauliString,
    TernaryTree,
    ValidationReport,
    check_generator_set,
    full_ternary,
    jw_chain,
    random_tree,
    straighten,
    tree_augment,
    tree_format,
    tree_generators,
    tree_leaves,
    tree_parse,
)
from tern2jw import certify
from tern2jw.engine import conjugate_inplace
from tern2jw.oracle import dense_conjugate
from tern2jw.pauli import pack_letters, unpack_planes
from tern2jw.tree import MAX_QUBITS, _planes

from reference import (
    certify_columns,
    jw_generator,
    jw_match,
    letters_matrix,
    path_product,
    pauli_commutes,
    pauli_identity,
    pauli_mul,
    pauli_parse,
)


def test_parse_basic(binary3):
    assert binary3.num_qubits == 3
    assert binary3.root == 1
    assert binary3.children == ((2, 3, 0), (0, 0, 0), (0, 0, 0))


def test_parse_is_whitespace_and_order_insensitive():
    a = tree_parse("(q1 :x (q2) :y (q3))")
    b = tree_parse("  ( q1:y(q3):x(q2)  )  ")
    assert a == b


def test_parse_explicit_terminals():
    t = tree_parse("(q1 :x _ :y (q2) :z _)")
    assert t.children == ((0, 2, 0), (0, 0, 0))


def test_parse_comments():
    text = "# a tree\n(q1 :x (q2)  # the x branch\n   :y (q3))\n"
    assert tree_parse(text) == tree_parse("(q1 :x (q2) :y (q3))")
    # a comment never hides what follows on the next line
    with pytest.raises(ValueError, match="position 22"):
        tree_parse("# leading comment\n(q1?")


def test_parse_errors():
    with pytest.raises(ValueError, match="empty"):
        tree_parse("   ")
    with pytest.raises(ValueError, match="duplicate qubit id"):
        tree_parse("(q1 :x (q1))")
    with pytest.raises(ValueError, match="duplicate label"):
        tree_parse("(q1 :x (q2) :x (q3))")
    with pytest.raises(ValueError, match="unclosed"):
        tree_parse("(q1 :x (q2)")
    with pytest.raises(ValueError, match="unbalanced"):
        tree_parse("(q1))")
    with pytest.raises(ValueError, match="trailing"):
        tree_parse("(q1)(q2)")
    with pytest.raises(ValueError, match="must be exactly 1..2"):
        tree_parse("(q1 :x (q3))")
    with pytest.raises(ValueError, match="needs a :x/:y/:z label"):
        tree_parse("(q1 (q2))")
    with pytest.raises(ValueError, match="position"):
        tree_parse("(q1 :w (q2))")
    with pytest.raises(ValueError, match="missing its subtree"):
        tree_parse("(q1 :x)")
    # qubit ids take ASCII digits only
    with pytest.raises(ValueError, match="expected digits after 'q' at position 9$"):
        tree_parse("(q1 :x (q\u00b2))")
    with pytest.raises(ValueError, match="expected digits after 'q' at position 2$"):
        tree_parse("(q\uff11)")
    # a qubit id anywhere but after '(' is an error at its own position
    for text, qid, pos in (
        ("(q1 :x (q2 q3)", "q3", 12),
        ("q1", "q1", 1),
        ("(q1) q2", "q2", 6),
        ("(q1 q2)", "q2", 5),
    ):
        with pytest.raises(ValueError) as excinfo:
            tree_parse(text)
        assert str(excinfo.value) == f"qubit id {qid} must follow '(' at position {pos}"
    for text, message in (
        ("()", "expected qubit id after '(' at position 1"),
        ("(q1 _)", "terminal '_' needs a :x/:y/:z label at position 5"),
        ("(q1 :x :y (q2))", "label is missing its subtree at position 8"),
        (":x (q1)", "label outside a node at position 1"),
        # one pass over the tokens: with several faults the first in text
        # order is named, not a lone character further on
        ("(q1 :x (q1) ?)", "duplicate qubit id q1 at position 9"),
        ("(q1 (q2) :w)", "subtree needs a :x/:y/:z label at position 5"),
        ("(q1)(q", "trailing content after the root tree at position 5"),
    ):
        with pytest.raises(ValueError) as excinfo:
            tree_parse(text)
        assert str(excinfo.value) == message


def test_tree_validation():
    with pytest.raises(ValueError, match="child of both"):
        TernaryTree(3, 1, ((2, 2, 0), (0, 0, 0), (0, 0, 3)))
    with pytest.raises(ValueError, match="root"):
        TernaryTree(2, 1, ((2, 0, 0), (1, 0, 0)))
    with pytest.raises(ValueError, match="unknown qubit"):
        TernaryTree(2, 1, ((2, 0, 0), (5, 0, 0)))
    with pytest.raises(ValueError, match="unreachable"):
        TernaryTree(3, 1, ((2, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="out of range"):
        TernaryTree(2, 3, ((2, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="^qubit count must be positive, got 0$"):
        TernaryTree(0, 1, ())
    with pytest.raises(ValueError, match="^need 2 child records, got 1$"):
        TernaryTree(2, 1, ((0, 0, 0),))
    # every child row is the three slots x, y, z: a short row would fail
    # in str(), a long one would lose its extra slot
    for rows, message in (
        (((2, 0), (0, 0, 0)), "qubit 1 has 2 child slots, need 3 (x, y, z)"),
        (((2, 0, 0), (0, 0, 0, 0)), "qubit 2 has 4 child slots, need 3 (x, y, z)"),
        (((2, 0, 0, 0), (0, 0, 0)), "qubit 1 has 4 child slots, need 3 (x, y, z)"),
    ):
        with pytest.raises(ValueError) as excinfo:
            TernaryTree(2, 1, rows)
        assert str(excinfo.value) == message
    # one walk from the root checks each node as it is reached, so a row
    # it never reaches is reported unreachable, whatever else is wrong with it
    for rows, message in (
        (((2, 0, 0), (0, 0, 0), (9, 0, 0)), "unreachable qubit ids: [3]"),
        (((2, 0, 0), (0, 0, 0), (0, 0)), "unreachable qubit ids: [3]"),
        (((3, 2, 0), (0, 0, 0), (2, 0, 0)), "qubit 2 is a child of both 1 and 3"),
    ):
        with pytest.raises(ValueError) as excinfo:
            TernaryTree(3, 1, rows)
        assert str(excinfo.value) == message
    # ids go through operator.index, as Gate's targets do: a float or text
    # id is refused with a worded error, and numpy ints are stored as ints
    for args, message in (
        ((2.0, 1, ((2, 0, 0), (0, 0, 0))), "qubit count and root must be integers, got 2.0"),
        ((2, 1.0, ((2, 0, 0), (0, 0, 0))), "qubit count and root must be integers, got 1.0"),
        ((2, 1, ((2.0, 0, 0), (0, 0, 0))), "child ids must be integers, got 2.0"),
        ((2, 1, (("2", 0, 0), (0, 0, 0))), "child ids must be integers, got '2'"),
    ):
        with pytest.raises(ValueError) as excinfo:
            TernaryTree(*args)
        assert str(excinfo.value) == message
    t = random_tree(6, 3)
    wide = TernaryTree(np.int64(6), np.int64(t.root), tuple(map(tuple, np.array(t.children))))
    assert wide == t
    assert {type(v) for v in (wide.num_qubits, wide.root, *sum(wide.children, ()))} == {int}
    assert {type(q) for q in straighten(wide).permutation} == {int}


def test_format_is_canonical(binary3):
    assert tree_format(binary3) == "(q1 :x (q2) :y (q3))"
    scrambled = tree_parse("(q1 :z (q3) :x (q2 :y _))")
    assert tree_format(scrambled) == "(q1 :x (q2) :z (q3))"


def test_format_parse_round_trip_on_random_trees():
    for seed in range(40):
        t = random_tree(random.Random(seed).randint(1, 12), seed)
        assert tree_parse(tree_format(t)) == t


def test_augment_from_mapping():
    t = tree_augment({1: {"x": 2, "y": 3}, 3: {"z": 4}})
    assert t == tree_parse("(q1 :x (q2) :y (q3 :z (q4)))")
    assert tree_augment(t) is t


def test_augment_errors():
    with pytest.raises(ValueError, match="exactly one root"):
        tree_augment({1: {}, 2: {}})
    with pytest.raises(ValueError, match="unknown child label"):
        tree_augment({1: {"w": 2}})
    with pytest.raises(ValueError, match="1..2"):
        tree_augment({1: {"x": 7}})
    with pytest.raises(ValueError, match="at least one"):
        tree_augment({})


def test_leaves_canonical_order(binary3):
    assert tree_leaves(binary3) == (
        ((1, "x"), (2, "x")),
        ((1, "x"), (2, "y")),
        ((1, "x"), (2, "z")),
        ((1, "y"), (3, "x")),
        ((1, "y"), (3, "y")),
        ((1, "y"), (3, "z")),
        ((1, "z"),),
    )


def test_leaf_count_always_2m_plus_1():
    for seed in range(30):
        m = random.Random(100 + seed).randint(1, 15)
        t = random_tree(m, seed)
        assert len(tree_leaves(t)) == 2 * m + 1


def test_deep_chain_does_not_hit_recursion_limits():
    m = 1500
    t = jw_chain(m)
    leaves = tree_leaves(t)
    assert len(leaves) == 2 * m + 1
    text = tree_format(t)
    assert tree_parse(text) == t


def test_path_product(binary3):
    strings = tree_generators(binary3).strings
    p = path_product(binary3, ((1, "x"), (2, "y")))
    assert p == pauli_parse("+XYI") == strings[1]
    assert path_product(binary3, ((1, "z"),)) == pauli_parse("+ZII") == strings[6]


def test_generators_of_augmented_binary_tree(binary3):
    gens = tree_generators(binary3)
    assert [str(p) for p in gens.strings] == [
        "+XXI",
        "+XYI",
        "+XZI",
        "+YIX",
        "+YIY",
        "+YIZ",
        "+ZII",
    ]
    assert len(gens) == 7
    assert not gens.planes.flags.writeable


def test_jw_chain_generators_match_construction():
    for m in range(1, 9):
        strings = tree_generators(jw_chain(m)).strings
        for k in range(1, m + 1):
            x_like = (3,) * (k - 1) + (1,) + (0,) * (m - k)
            y_like = (3,) * (k - 1) + (2,) + (0,) * (m - k)
            assert strings[2 * k - 2] == PauliString(x_like)
            assert strings[2 * k - 1] == PauliString(y_like)
        assert strings[2 * m] == PauliString((3,) * m)


def test_jw_generator_agrees_with_chain():
    # fix_signs reads the JW generator at rank k off column k-1 of the
    # chain's planes
    for m in (1, 3, 5):
        strings = tree_generators(jw_chain(m)).strings
        letters = unpack_planes(_planes(jw_chain(m)), 2 * m + 1)
        for rank in range(1, 2 * m + 2):
            assert jw_generator(m, rank) == strings[rank - 1]
            assert tuple(letters[:, rank - 1].tolist()) == jw_generator(m, rank).letters


def test_full_ternary_counts():
    t = full_ternary(1)
    assert t.num_qubits == 4
    assert len(tree_leaves(t)) == 9
    t2 = full_ternary(2)
    assert t2.num_qubits == 13
    assert len(tree_leaves(t2)) == 27
    with pytest.raises(ValueError):
        full_ternary(0)


def test_full_ternary_breadth_first_ids():
    t = full_ternary(2)
    assert t.children[0] == (2, 3, 4)
    assert t.children[1] == (5, 6, 7)
    assert t.children[3] == (11, 12, 13)
    assert t.children[4] == (TERMINAL, TERMINAL, TERMINAL)


def test_constructors_refuse_trees_over_max_qubits():
    # each raises before it allocates a node
    over = f"qubit count {MAX_QUBITS + 1} is over the {MAX_QUBITS} limit"
    with pytest.raises(ValueError, match=over):
        jw_chain(MAX_QUBITS + 1)
    with pytest.raises(ValueError, match=over):
        random_tree(MAX_QUBITS + 1, 0)
    # huge depths are refused before 3^(depth+1) is computed or printed
    for depth in (13, 10**5, 10**7):
        with pytest.raises(ValueError) as excinfo:
            full_ternary(depth)
        assert str(excinfo.value) == f"depth {depth} puts the qubit count over the 1048576 limit"
    with pytest.raises(ValueError, match="qubit count must be positive, got 0"):
        random_tree(0, 0)


def test_random_tree_deterministic():
    assert random_tree(9, 4) == random_tree(9, 4)
    assert random_tree(9, 4) != random_tree(9, 5)
    assert random_tree(1, 0) == jw_chain(1)


def test_check_generator_set_passes_on_tree_sets():
    report = check_generator_set(tree_generators(jw_chain(2)))
    assert report.ok
    assert report.anticommuting and report.unit_squares
    assert report.product_is_identity


def test_check_generator_set_flags_commuting_pairs():
    report = check_generator_set([pauli_parse("+XI"), pauli_parse("+IX")])
    assert not report.anticommuting
    assert report.anticommute_failures == ((1, 2),)
    assert report.unit_squares


def test_check_generator_set_flags_bad_squares():
    report = check_generator_set([pauli_parse("+iX"), pauli_parse("+Z")])
    assert not report.unit_squares
    assert report.square_failures == (1,)


def test_check_generator_set_partial_family():
    # an anticommuting family that is not a complete tree set: product has
    # non-identity letters left over
    report = check_generator_set(
        [pauli_parse(s) for s in ("+XZI", "+YZI", "+IXZ", "+IYZ", "+ZIX", "+ZIY")]
    )
    assert report.anticommuting
    assert report.unit_squares
    assert not report.product_is_identity
    assert not report.ok


def test_check_generator_set_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="size mismatch: 2 vs 3"):
        check_generator_set([pauli_parse("+XI"), pauli_parse("+IX"), pauli_parse("+XYZ")])
    with pytest.raises(ValueError, match="^empty generator list$"):
        check_generator_set([])


def _pairwise_report(strings):
    """check_generator_set's fields, pair by pair and by a pauli_mul fold."""
    n = len(strings)
    anti = tuple(
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if pauli_commutes(strings[i], strings[j])
    )
    identity = pauli_identity(strings[0].num_qubits)
    squares = tuple(i + 1 for i, p in enumerate(strings) if pauli_mul(p, p) != identity)
    product = identity
    for p in strings:
        product = pauli_mul(product, p)
    return ValidationReport(
        not anti, anti, not squares, squares, product, product.letters == identity.letters
    )


def test_check_generator_set_matches_pairwise_reference():
    rng = random.Random(31)
    # short batches, then batches one bit short of, at and one bit past
    # one and two 64-column words, where the packed rows' prefix and
    # popcounts change word
    sizes = [(rng.randint(1, 6), rng.randint(1, 10)) for _ in range(300)]
    sizes += [(m, n) for n in (63, 64, 65, 128, 129) for m in (1, 2, 5)]
    for m, n in sizes:
        strings = [
            PauliString(tuple(rng.randint(0, 3) for _ in range(m)), rng.randint(0, 3))
            for _ in range(n)
        ]
        assert check_generator_set(strings) == _pairwise_report(strings)
    # tree sets of 63, 65 and 129 columns, each string given a random phase
    for t in (random_tree(31, 1), random_tree(32, 2), random_tree(64, 5)):
        strings = [PauliString(p.letters, rng.randint(0, 3)) for p in tree_generators(t).strings]
        assert check_generator_set(strings) == _pairwise_report(strings)
    trees = [random_tree(m, s) for m in range(1, 25) for s in range(3)]
    for t in trees + [full_ternary(1), full_ternary(2)]:
        gens = tree_generators(t)
        want = _pairwise_report(gens.strings)
        assert want.ok
        assert check_generator_set(gens) == want
        assert check_generator_set(gens.strings) == want
        # one string with a wrong phase or letter breaks the set
        strings = list(gens.strings)
        j = rng.randrange(len(strings))
        strings[j] = PauliString(
            strings[j].letters[:-1] + (rng.randint(0, 3),), rng.randint(0, 3)
        )
        assert check_generator_set(strings) == _pairwise_report(strings)


def _batch(strings):
    """The strings as one packed batch: planes and phases, and the order
    that reads the rows as they are."""
    letters = np.array([p.letters for p in strings], dtype=np.uint8).T
    phases = np.array([p.phase for p in strings], dtype=np.uint8)
    return pack_letters(letters), phases, range(1, len(letters) + 1)


def _on_wires(planes, order):
    """Chain-order planes with their rows moved onto the wires a PERM names:
    wire q - 1 holds chain row wires[q - 1], so read in order they are the
    planes again."""
    m = len(order)
    wires = np.argsort(order)
    return planes[np.concatenate((wires, wires + m))]


def _decode_columns(strings, order=None):
    """The library's certify on the strings as one batch, its ranks and
    signs read like jw_match; with order, the rows moved onto the wires
    that PERM names and read back in it."""
    planes, phases, identity = _batch(strings)
    if order is not None:
        planes = _on_wires(planes, order)
    report = certify(planes, phases, identity if order is None else order)
    return [(r, s) if r else None for r, s in zip(report.ranks, report.signs)]


def test_jw_match():
    for text, want in (
        ("+ZZXI", (5, 1)),
        ("-ZZYI", (6, -1)),
        ("+ZZZ", (7, 1)),
        ("+XII", (1, 1)),
        ("+ZZI", None),
        ("+ZXX", None),
        ("+iXII", None),
    ):
        p = pauli_parse(text)
        assert jw_match(p) == want
        assert _decode_columns([p]) == [want]
    for m in (1, 2, 4):
        for rank in range(1, 2 * m + 2):
            g = jw_generator(m, rank)
            assert jw_match(g) == (rank, 1)
            assert jw_match(PauliString(g.letters, 2)) == (rank, -1)


def _decode_test_column(rng, m):
    """A string of one kind the matcher must tell apart: a signed JW
    generator, one with a lead I, with support after its lead letter or
    with an odd phase, the all-Z string, or any string at all."""
    kind = rng.choice(("jw", "lead I", "trailing", "odd phase", "all Z", "any"))
    k = rng.randint(1, m)  # the lead row, 1-based
    tail = [rng.randrange(4) for _ in range(m - k)]
    phase = rng.choice((0, 2))
    if kind == "jw":
        letters = jw_generator(m, rng.randint(1, 2 * m + 1)).letters
    elif kind == "lead I":
        letters = (3,) * (k - 1) + (0,) + tuple(tail)
    elif kind == "trailing" and k < m:
        tail[rng.randrange(len(tail))] = rng.randint(1, 3)
        letters = (3,) * (k - 1) + (rng.randint(1, 2),) + tuple(tail)
    elif kind == "odd phase":
        letters, phase = jw_generator(m, rng.randint(1, 2 * m + 1)).letters, rng.choice((1, 3))
    elif kind == "all Z":
        letters = (3,) * m
    else:
        letters, phase = tuple(rng.randrange(4) for _ in range(m)), rng.randrange(4)
    return PauliString(letters, phase)


def test_certify_decodes_like_the_per_column_reference():
    # packed batches with every failure kind, on widths on and off the
    # 64-bit word boundary, read as they are and through a random PERM;
    # certify's ranks, signs and verdicts, duplicate ranks included
    rng = random.Random(29)
    shapes = [(m, n) for n in (1, 5, 63, 64, 65, 129, 200) for m in (1, 2, 3, 5, 9, 40)]
    for m, n in shapes + [(m, 2 * m + 1) for m in (31, 32, 63, 64)]:
        strings = [_decode_test_column(rng, m) for _ in range(n)]
        want = [jw_match(p) for p in strings]
        order = rng.sample(range(1, m + 1), m)
        assert _decode_columns(strings) == _decode_columns(strings, order) == want, (m, n)
        declared = [rng.choice((1, -1)) for _ in range(n)]
        for signs in (declared, None):
            report = certify(*_batch(strings), signs)
            assert report.results == certify_columns(strings, signs), (m, n)


def test_certify_reads_the_rows_in_perm_order():
    # strings in chain order, their rows moved onto the wires a PERM names:
    # read in that order they decode as before, with no renamed copy; an
    # order that is no permutation of 1..m is refused
    rng = random.Random(31)
    for m, n in ((1, 3), (3, 7), (5, 65), (9, 129), (31, 63), (32, 65), (63, 127), (64, 129)):
        strings = [_decode_test_column(rng, m) for _ in range(n)]
        order = rng.sample(range(1, m + 1), m)
        assert _decode_columns(strings, order) == [jw_match(p) for p in strings], (m, n)
    planes, phases, _ = _batch([pauli_parse("XI")])
    for order in ((1, 1), (1,), (0, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="order is not a permutation of 1..2"):
            certify(planes, phases, order)


def test_packed_batch_entry_points_refuse_other_arrays():
    # a uint8 letter matrix, planes of the wrong width or with an odd row
    # count are refused at every entry point that takes a packed batch,
    # and so is a set padding bit, which no column can hold
    t = jw_chain(4)
    n = 2 * t.num_qubits + 1
    phases = np.zeros(n, dtype=np.uint8)
    ops = np.zeros((0, 3), dtype=np.int32)
    planes = pack_letters(letters_matrix(t))
    for wrong in (letters_matrix(t), np.zeros((8, 2), dtype=np.uint64), planes[1:]):
        for call in (
            lambda: certify(wrong, phases, range(1, 5)),
            lambda: conjugate_inplace(wrong.copy(), phases.copy(), ops),
            lambda: dense_conjugate(wrong.copy(), phases.copy(), ops),
        ):
            with pytest.raises(ValueError, match="planes for 9 strings"):
                call()
    for row in (0, -1):  # an x row and a z row, read in either order
        padded = planes.copy()
        padded[row, 0] |= np.uint64(1) << np.uint64(n)
        for order in (range(1, 5), (4, 3, 2, 1)):
            with pytest.raises(ValueError, match="past column 9"):
                certify(padded, phases, order)
    assert certify(planes, phases, range(1, 5)).ok
