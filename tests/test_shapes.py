"""straighten, the engine and the exact oracle on every tree shape."""

from tern2jw import fix_signs, oracle_check, straighten, verify_transform

from shapes import chain_distances, closed_form, neighbours, realize, shapes, size


def test_shape_counts():
    # rooted trees with at most three unordered children per node (OEIS A000598)
    assert [len(shapes(m)) for m in range(1, 9)] == [1, 1, 2, 4, 8, 17, 39, 89]
    assert all(size(s) == m for m in range(1, 9) for s in shapes(m))


def test_cz_count_is_the_fewest_fork_moves_on_every_shape():
    # 161 shapes with m <= 8: straighten's CZ count is the closed form, and
    # no sequence of fork moves reaches the chain in fewer, since no move
    # changes the closed form by more than 1 and the chain's is 0
    for m in range(1, 9):
        dist = chain_distances(m)
        assert set(dist) == set(shapes(m))
        for shape in shapes(m):
            assert all(abs(closed_form(n) - closed_form(shape)) <= 1 for n in neighbours(shape))
            r = straighten(realize(shape))
            cz = sum(g.kind == "CZ" for g in r.circuit.gates)
            assert cz == closed_form(shape) == dist[shape], shape


def test_every_shape_passes_both_checks():
    # 72 shapes with m <= 7, whose 2m+1 generators the oracle takes in
    # stacks of several matrices
    for m in range(1, 8):
        for shape in shapes(m):
            t = realize(shape)
            for r in (straighten(t), fix_signs(straighten(t, swaps=True))):
                report = verify_transform(t, r)
                assert report.ok, shape
                assert oracle_check(t, r) == report, shape
