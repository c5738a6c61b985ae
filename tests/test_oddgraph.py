import random

import pytest

from oddterw import (
    IntMatrix,
    OddGraph,
    ParameterError,
    ShapeError,
    binomial,
    expected_block_factors,
    intersection_matrix,
    kron,
    verify_adjacency_blocks,
)
from oddterw.oddgraph import first_difference, part_sizes


def test_build_rejects_bad_m():
    with pytest.raises(ParameterError):
        OddGraph(0)
    with pytest.raises(ParameterError):
        OddGraph(7)


def test_m2_is_petersen(graph_factory):
    g = graph_factory(2)
    assert g.num_vertices == 10
    assert [g.class_size(d) for d in range(3)] == [1, 3, 6]
    a = g.adjacency()
    for r in range(10):
        assert sum(a.row_values(r).values()) == 3
        assert a.entry(r, r) == 0
    assert a.transpose() == a
    a2 = a @ a
    a3 = a2 @ a
    # triangle-free with at most one common neighbor per pair: with
    # 3-regularity on 10 vertices this pins down the Petersen graph
    assert all(a3.entry(r, r) == 0 for r in range(10))
    for r in range(10):
        for c in range(10):
            if r != c:
                assert a2.entry(r, c) <= 1
    assert max(g.bfs_distances()) == 2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_regularity_count_and_diameter(graph_factory, m):
    g = graph_factory(m)
    assert g.num_vertices == binomial(2 * m + 1, m)
    a = g.adjacency()
    for r in range(g.num_vertices):
        assert sum(a.row_values(r).values()) == m + 1
    dist = g.bfs_distances()
    assert max(dist) == m
    # BFS distance agrees with the class assignment by intersection size
    x = set(g.x)
    for idx, y in enumerate(g.vertices):
        assert dist[idx] == g.class_of(idx)
        assert part_sizes(m, dist[idx]) == (len(x & set(y)), len(set(y) - x))


def test_base_vertex_first():
    g = OddGraph(3)
    assert g.vertices[0] == (0, 1, 2) == g.x
    assert g.vertices.index((0, 1, 2)) == 0


def test_class_sizes_by_intersection_count(graph_factory):
    g = graph_factory(2)
    by_meet = {0: 0, 1: 0, 2: 0}
    for y in g.vertices:
        by_meet[len(set(y) & {0, 1})] += 1
    assert by_meet == {2: 1, 0: 3, 1: 6}  # classes 0, 1, 2 respectively


def test_dual_idempotents(graph_factory):
    g = graph_factory(3)
    covered = []
    for d in range(4):
        e = g.dual_idempotent(d)
        covered += e.vectorize().items()
        for d2 in range(4):
            prod = e @ g.dual_idempotent(d2)
            assert prod == (e if d == d2 else IntMatrix.zeros(g.num_vertices, g.num_vertices))
    # the projectors sum to the identity: together they hit each diagonal entry once, with 1
    assert sorted(covered) == sorted(IntMatrix.identity(g.num_vertices).vectorize().items())
    e0 = g.dual_idempotent(0)
    assert e0.nnz == 1 and e0.entry(0, 0) == 1
    with pytest.raises(ParameterError):
        g.dual_idempotent(4)


def embedded(g, local, block):
    """The n x n matrix whose row-major coordinates `embed_vector` gives."""
    n = g.num_vertices
    vec = g.embed_vector(local, IntMatrix.identity(1), block)
    return IntMatrix(n, n, {divmod(k, n): v for k, v in vec.items()})


def test_extract_embed_inverse(graph_factory):
    g = graph_factory(2)
    a = g.adjacency()
    for block in [(i, j) for i in range(3) for j in range(3) if expected_block_factors(2, (i, j)) is not None]:
        local = g.extract_block(a, block)
        assert g.extract_block(embedded(g, local, block), block) == local
        other = (block[0], (block[1] + 1) % (g.m + 1))
        assert g.extract_block(embedded(g, local, block), other).is_zero() or other == block
    zero_local = IntMatrix.zeros(g.class_size(1), g.class_size(2))
    assert g.embed_vector(zero_local, IntMatrix.identity(1), (1, 2)) == {}
    assert g.extract_block(IntMatrix.identity(10), (2, 2)) == IntMatrix.identity(6)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def random_factor(rng, nrows, ncols, zero):
    # about a third of the rows empty, values of both signs
    if zero:
        return {}
    return {
        (r, c): rng.choice((-3, -1, 1, 2, 7))
        for r in range(nrows)
        if rng.random() < 0.65
        for c in range(ncols)
        if rng.random() < 0.5
    }


def test_embed_vector_matches_embed(graph_factory):
    g = graph_factory(3)
    n = g.num_vertices
    rng = random.Random(5)
    for p in range(g.m + 1):
        for q in range(g.m + 1):
            nr, nc = g.class_size(p), g.class_size(q)
            r0, c0 = g.class_offset(p), g.class_offset(q)
            # every split of the block shape into factor shapes, rectangular
            # factors included, and one zero factor for each split
            for lr in divisors(nr):
                for lc in divisors(nc):
                    rr, rc = nr // lr, nc // lc
                    for zero in (None, "left", "right"):
                        a = random_factor(rng, lr, lc, zero == "left")
                        b = random_factor(rng, rr, rc, zero == "right")
                        # kron(left, right) written out entry by entry: block
                        # entry (ra * rr + rb, ca * rc + cb) sits at ambient
                        # (r0 + row, c0 + column), coordinate row * n + column
                        expected = {
                            (r0 + ra * rr + rb) * n + c0 + ca * rc + cb: va * vb
                            for (ra, ca), va in a.items()
                            for (rb, cb), vb in b.items()
                        }
                        left, right = IntMatrix(lr, lc, a), IntMatrix(rr, rc, b)
                        got = g.embed_vector(left, right, (p, q))
                        assert got == expected
                        # the same entries as `kron` gives, moved into the block
                        local = {(k // n - r0) * nc + k % n - c0: v for k, v in got.items()}
                        assert local == kron(left, right).vectorize()


def test_shape_errors(graph_factory):
    g = graph_factory(2)
    with pytest.raises(ShapeError):
        g.extract_block(IntMatrix.zeros(9, 9), (0, 0))
    with pytest.raises(ShapeError):
        g.embed_vector(IntMatrix.zeros(3, 3), IntMatrix.identity(1), (1, 2))
    with pytest.raises(ShapeError):
        g.embed_vector(IntMatrix.identity(3), IntMatrix.zeros(2, 1), (1, 2))


def test_non_admissible_blocks_vanish(graph_factory):
    g = graph_factory(3)
    a = g.adjacency()
    for i in range(4):
        for j in range(4):
            block = g.extract_block(a, (i, j))
            assert block.is_zero() == (expected_block_factors(3, (i, j)) is None)


def test_first_superdiagonal_block_m2(graph_factory):
    g = graph_factory(2)
    got = g.extract_block(g.adjacency(), (0, 1))
    expected = kron(intersection_matrix(2, 0, 0, 2), intersection_matrix(0, 2, 0, 3))
    assert got == expected
    assert got.shape == (1, 3) and got.nnz == 3  # a row of ones


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_adjacency_block_structure(graph_factory, m):
    result = verify_adjacency_blocks(graph_factory(m))
    assert result.status == "pass"
    assert result.witnesses == []


def test_expected_factors_cover_all_nonzero_blocks():
    for m in (1, 2, 3, 4, 5):
        blocks = [(i, j) for i in range(m + 1) for j in range(m + 1)]
        nonzero = {b for b in blocks if expected_block_factors(m, b) is not None}
        expected = {(i, j) for (i, j) in blocks if abs(i - j) == 1} | {(m, m)}
        assert nonzero == expected


@pytest.mark.parametrize(
    "changes,witness",
    [
        # no change: the vectors are equal and every block passes
        ({}, None),
        # added inside the admissible block (1, 2): vertices 2 and 7 are not adjacent
        ({(2, 7): 1},
         {"kind": "block_mismatch", "block": [1, 2], "entry": [1, 3], "got": 1, "expected": 0}),
        # removed from the admissible block (0, 1): vertex 3 is a neighbour of the base vertex
        ({(0, 3): 0},
         {"kind": "block_mismatch", "block": [0, 1], "entry": [0, 2], "got": 0, "expected": 1}),
        # the base vertex loses all its neighbours: row 0 of block (0, 1) is expected only
        ({(0, 1): 0, (0, 2): 0, (0, 3): 0},
         {"kind": "block_mismatch", "block": [0, 1], "entry": [0, 0], "got": 0, "expected": 1}),
        # vertex 5 is at distance 2 from the base vertex: the zero block (0, 2)
        ({(0, 5): 1},
         {"kind": "zero_block_violated", "block": [0, 2], "entry": [0, 1], "got": 1, "expected": 0}),
        # a changed value: both sides hold the entry, 2 against 1
        ({(0, 1): 2},
         {"kind": "block_mismatch", "block": [0, 1], "entry": [0, 0], "got": 2, "expected": 1}),
    ],
    ids=["equal", "added", "removed", "removed-row", "zero-block", "changed"],
)
def test_flipped_entry_reported_with_witness(graph_factory, monkeypatch, changes, witness):
    g = graph_factory(2)
    original = g.adjacency().vectorize()
    entries = {(r, c): v for r, c, v in g.adjacency().iter_entries()}
    assert all(entries.get(k, 0) != v for k, v in changes.items())
    entries.update(changes)  # the constructor drops the zeros
    tampered = IntMatrix(10, 10, entries)
    # on the ambient vectors the first difference is the first changed entry
    first = min((r * 10 + c for r, c in changes), default=None)
    assert first_difference(tampered.vectorize(), original) == first
    monkeypatch.setattr(g, "adjacency", lambda: tampered)
    result = verify_adjacency_blocks(g)
    if witness is None:
        assert (result.status, result.witnesses) == ("pass", [])
        return
    assert result.status == "fail"
    # the fault is one-sided, so the opposite block is no longer its transpose
    assert result.witnesses == [witness, {"kind": "symmetry_violated", "block": witness["block"]}]


def test_vertex_manifest(graph_factory):
    g = graph_factory(2)
    manifest = g.vertex_manifest()
    assert manifest["m"] == 2
    assert manifest["class_offsets"] == [0, 1, 4]
    assert len(manifest["vertices"]) == 10
    assert manifest["vertices"][0] == [0, 1]
    assert all(len(v) == 2 for v in manifest["vertices"])


def test_block_of_coordinate(graph_factory):
    g = graph_factory(2)
    n = g.num_vertices
    assert g.block_of_coordinate(0) == (0, 0)
    assert g.block_of_coordinate(1) == (0, 1)
    assert g.block_of_coordinate(9 * n + 9) == (2, 2)
