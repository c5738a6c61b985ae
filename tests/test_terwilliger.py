import json
import random
from collections import Counter
from dataclasses import astuple
from operator import mul

import pytest

from oddterw import (
    ClosureDivergenceError,
    DEFAULT_PRIMES,
    HSpec,
    IntMatrix,
    MatrixSpace,
    OddGraph,
    ParameterError,
    binomial,
    block_generators,
    closure,
    dimension_formula,
    generator_span,
    intersection_matrix,
    kron,
    membership_family_cases,
    verify_closure_in_generator_span,
    verify_generator_basis,
    verify_generators_in_closure,
    verify_membership_families,
)
from oddterw.cli import main
from oddterw.combinatorics import intersection_range
from oddterw.oddgraph import DEFAULT_MAX_M
from oddterw.terwilliger import (
    ClosureResult,
    _block_dimension_sum,
    _block_row_sum,
    projector_factor_mismatches,
)
from paper_readings import _range_tail, block_generators_by_parity, disjoint_product_expansion


def basis_block_elements(graph, space):
    """Closure basis rows as (block, local matrix) pairs.

    Valid because closure basis vectors are supported on single blocks.
    """
    n = graph.num_vertices
    out = []
    for pivot, row in space.iter_basis():
        block = graph.block_of_coordinate(pivot)
        r0, c0 = graph.class_offset(block[0]), graph.class_offset(block[1])
        local_entries = {(coord // n - r0, coord % n - c0): v for coord, v in row.items()}
        out.append(
            (block, IntMatrix(graph.class_size(block[0]), graph.class_size(block[1]), local_entries))
        )
    return out


def block_matrix_closure(graph, prime, shuffle=None):
    """Reference closure that multiplies class-sized block matrices.

    The same seeds, order and counters as `closure`, with every product
    taken on the full block instead of on its Kronecker factors.  Returns
    (space, rounds, products).
    """
    m = graph.m
    space = MatrixSpace(prime=prime)
    # the nonzero blocks of the graph's own adjacency matrix, in row-major order
    every_block = [(p, q) for p in range(m + 1) for q in range(m + 1)]
    adjacency_blocks = {
        block: local
        for block in every_block
        if not (local := graph.extract_block(graph.adjacency(), block)).is_zero()
    }
    frontier = []
    products = 0

    def offer(block, local):
        if not local.is_zero() and space.insert_vector(
            graph.embed_vector(local, IntMatrix.identity(1), block)
        ):
            frontier.append((block, local))

    for d in range(m + 1):
        offer((d, d), IntMatrix.identity(graph.class_size(d)))
    for block, local in adjacency_blocks.items():
        offer(block, local)

    rounds = 0
    while frontier:
        rounds += 1
        current, frontier = frontier, []
        if shuffle is not None:
            shuffle.shuffle(current)
        for (p, q), local in current:
            for (r, c), a_block in adjacency_blocks.items():
                if c == p:
                    products += 1
                    offer((r, q), a_block @ local)
            for (r, s), a_block in adjacency_blocks.items():
                if r == q:
                    products += 1
                    offer((p, s), local @ a_block)
    return space, rounds, products


def product_chain_membership(graph, clo, chain):
    """Whether the block product along a class walk lands in the closure span.

    `chain` is a walk i_1, i_2, ..., i_n through admissible adjacency
    blocks; the product of those blocks sits in the (i_1, i_n) block.
    """
    a = graph.adjacency()
    product = graph.extract_block(a, (chain[0], chain[1]))
    for p, q in zip(chain[1:], chain[2:]):
        product = product @ graph.extract_block(a, (p, q))
    if product.is_zero():
        return True
    return clo.space.contains_vector(
        graph.embed_vector(product, IntMatrix.identity(1), (chain[0], chain[-1]))
    )


# -- generator family ----------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_generator_count_matches_closed_form(m):
    assert len(block_generators(m)) == binomial(m + 4, 4)


def test_generator_count_m2_is_15():
    assert len(block_generators(2)) == 15


@pytest.mark.parametrize("m", range(1, DEFAULT_MAX_M + 1))
def test_uniform_and_parity_families_coincide(m):
    # every m a closure check accepts; the per-parity reading is the paper's
    uniform = {(g.block, g.left, g.right) for g in block_generators(m)}
    parity = {(g.block, g.left, g.right) for g in block_generators_by_parity(m)}
    assert uniform == parity


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_block_generators_sorted_by_block_l_s(m):
    # the dependent_generator witness indexes into this order; s is the right factor's l
    keys = [(*g.block, g.left.l, g.right.l) for g in block_generators(m)]
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_top_row_even_blocks_have_single_generator(m):
    for j in range(m // 2 + 1):
        gens = [g for g in block_generators(m) if g.block == (0, 2 * j)]
        assert len(gens) == 1
        gen = gens[0]
        assert gen.left == HSpec(m, m - j, m - j, m)
        assert gen.right == HSpec(0, j, 0, m + 1)


def test_generator_shapes_match_blocks(graph_factory):
    g = graph_factory(3)
    for gen in block_generators(3):
        local = kron(gen.left.build(), gen.right.build())
        assert local.shape == (g.class_size(gen.block[0]), g.class_size(gen.block[1]))


# -- closure -------------------------------------------------------------------


def test_closure_m1_against_dense_oracle(graph_factory, closure_factory):
    from dense_oracle import dense, dense_algebra_dimension

    g = graph_factory(1)
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    adjacency = dense(g.adjacency())
    e0 = dense(g.dual_idempotent(0))
    e1 = dense(g.dual_idempotent(1))
    oracle_dim = dense_algebra_dimension([identity, adjacency, e0, e1])
    assert oracle_dim == 5 == binomial(5, 4)
    assert closure_factory(1).dimension == oracle_dim


@pytest.mark.parametrize("m,expected", [(1, 5), (2, 15), (3, 35)])
def test_closure_dimensions_small(closure_factory, m, expected):
    clo = closure_factory(m)
    assert clo.dimension == expected


def test_closure_dimension_independent_of_order(graph_factory):
    g = graph_factory(3)
    reference = closure(g).dimension
    for seed in (0, 1, 2):
        shuffled = closure(g, shuffle=random.Random(seed))
        space, _, _ = block_matrix_closure(g, DEFAULT_PRIMES[0], shuffle=random.Random(seed))
        assert shuffled.dimension == space.dim == reference


@pytest.mark.parametrize("m", [1, 2, 3])
def test_closure_dimension_same_across_fields(graph_factory, closure_factory, m):
    dims = {closure_factory(m, prime).dimension for prime in DEFAULT_PRIMES}
    dims.add(closure(graph_factory(m), prime=None).dimension)
    assert dims == {binomial(m + 4, 4)}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_closure_matches_block_matrix_reference(graph_factory, m, prime):
    g = graph_factory(m)
    clo = closure(g, prime=prime)
    space, rounds, products = block_matrix_closure(g, prime)
    assert list(clo.space.iter_basis()) == list(space.iter_basis())
    assert (clo.rounds, clo.products_computed) == (rounds, products)
    assert clo.dimension == binomial(m + 4, 4)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_exact_closure_basis_is_the_gf_p_basis_in_plain_ints(closure_factory, m):
    exact = list(closure_factory(m, None).space.iter_basis())
    assert exact == list(closure_factory(m, DEFAULT_PRIMES[0]).space.iter_basis())
    # Fraction(1) == 1, so only the type shows a rational value left unconverted
    assert {type(x) for _, row in exact for x in row.values()} == {int}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_closure_basis_rows_are_disjoint_zero_one_blocks(graph_factory, closure_factory, m, prime):
    # the shape elimination is fastest on: a candidate cancels whole 0/1 rows
    n = graph_factory(m).num_vertices
    rows = [row for _, row in closure_factory(m, prime).space.iter_basis()]
    assert all(set(row.values()) == {1} for row in rows)
    covered = set().union(*rows)
    assert len(covered) == sum(map(len, rows)) == n * n


def test_closure_call_counts_pinned_by_the_benchmark(graph_factory, monkeypatch):
    # perfbench/run.py pins these counts for every m = 5 closure, so a change
    # that moves them fails here before it reaches the benchmark
    g = graph_factory(5)
    calls = Counter()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(MatrixSpace, "insert_vector", counted("insert_vector", MatrixSpace.insert_vector))
    monkeypatch.setattr(OddGraph, "embed_vector", counted("embed_vector", OddGraph.embed_vector))
    clo = closure(g, prime=1_000_000_007)
    assert (clo.rounds, clo.products_computed, clo.dimension) == (5, 492, 126)
    assert calls == {"insert_vector": 509, "embed_vector": 509}


def test_tampered_adjacency_fails_closure_seeding():
    from oddterw import GraphStructureError, OddGraph

    g = OddGraph(3)
    entries = {(r, c): v for r, c, v in g.adjacency().iter_entries()}
    del entries[(0, 1)]  # vertex 1 is a neighbour of the base vertex: block (0, 1)
    g._adjacency = IntMatrix(g.num_vertices, g.num_vertices, entries)
    with pytest.raises(GraphStructureError, match=r"adjacency block \(0, 1\)"):
        closure(g)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_stray_zero_block_entry_fails_closure_seeding(m):
    # a symmetric pair of entries in the zero block (0, 2) leaves every
    # admissible block intact; the closure must still refuse the graph
    from oddterw import GraphStructureError, OddGraph

    g = OddGraph(m)
    stray = g.class_offset(2)
    entries = {(r, c): v for r, c, v in g.adjacency().iter_entries()}
    entries[(0, stray)] = entries[(stray, 0)] = 1
    g._adjacency = IntMatrix(g.num_vertices, g.num_vertices, entries)
    with pytest.raises(GraphStructureError, match=r"adjacency block \(0, 2\)"):
        closure(g)


def test_seed_guard_names_the_first_differing_entry():
    # vertex 3 is a neighbour of the base vertex, and (2, 7) is a non-edge
    # later in row-major order: only the first difference is named
    from oddterw import GraphStructureError, OddGraph

    g = OddGraph(2)
    entries = {(r, c): v for r, c, v in g.adjacency().iter_entries()}
    del entries[(0, 3)], entries[(3, 0)]
    entries[(2, 7)] = entries[(7, 2)] = 1
    g._adjacency = IntMatrix(g.num_vertices, g.num_vertices, entries)
    message = (
        "adjacency block (0, 1): the embedded adjacency seeds differ from"
        " the graph's adjacency at entry (0, 3)"
    )
    with pytest.raises(GraphStructureError) as raised:
        closure(g)
    assert str(raised.value) == message


def test_closure_divergence_cap():
    from oddterw import OddGraph

    with pytest.raises(ClosureDivergenceError):
        closure(OddGraph(3), max_rounds=1)


@pytest.mark.parametrize("m", [1, 2])
def test_closure_stabilized_under_all_generators(graph_factory, closure_factory, m):
    # once stabilized, multiplying any basis element by any generator on
    # either side stays inside the span
    g = graph_factory(m)
    clo = closure_factory(m)
    n = g.num_vertices
    generators = [g.adjacency()] + [g.dual_idempotent(d) for d in range(m + 1)]
    for _, row in clo.space.iter_basis():
        basis_matrix = IntMatrix(n, n, {divmod(k, n): v for k, v in row.items()})
        for gen in generators:
            assert clo.space.contains_vector((gen @ basis_matrix).vectorize())
            assert clo.space.contains_vector((basis_matrix @ gen).vectorize())


def test_closure_basis_elements_live_on_single_blocks(graph_factory, closure_factory):
    g = graph_factory(2)
    for block, local in basis_block_elements(g, closure_factory(2).space):
        assert local.shape == (g.class_size(block[0]), g.class_size(block[1]))
        assert not local.is_zero()


# -- the two containments ------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_both_containments_pass(graph_factory, m, prime):
    g = graph_factory(m)
    clo = closure(g, prime=prime)
    gens = block_generators(m)
    forward = verify_closure_in_generator_span(g, clo, gens)
    backward = verify_generators_in_closure(g, clo, gens)
    assert forward.status == "pass"
    assert backward.status == "pass"
    assert forward.params["span_dim"] == clo.dimension


def test_span_accepting_everything_fails_each_containment_check(monkeypatch, graph_factory, closure_factory):
    g, clo, gens = graph_factory(2), closure_factory(2), block_generators(2)
    monkeypatch.setattr(MatrixSpace, "contains_vector", lambda self, vec: True)
    for result in (
        verify_closure_in_generator_span(g, clo, gens),
        verify_generators_in_closure(g, clo, gens),
        verify_membership_families(g, clo),
    ):
        assert result.status == "fail"
        assert result.witnesses == [{"kind": "negative_control_accepted", "coordinate": 4}]
        assert result.params["negative_controls"] == 1


def recording_contains(monkeypatch):
    """Record the vector of every `contains_vector` call, then answer as before."""
    calls, original = [], MatrixSpace.contains_vector

    def contains(space, vec):
        calls.append(dict(vec))
        return original(space, vec)

    monkeypatch.setattr(MatrixSpace, "contains_vector", contains)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_closure_in_span_reduces_no_row_the_family_stores(
    monkeypatch, graph_factory, closure_factory, m, prime
):
    # the closure's reduced basis is the family's, so every closure row is
    # shared and the negative control is the only reduction left
    g, clo = graph_factory(m), closure_factory(m, prime)
    calls = recording_contains(monkeypatch)
    result = verify_closure_in_generator_span(g, clo, block_generators(m))
    assert result.status == "pass"
    assert calls == [{g.class_offset(m): 1}]


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_closure_row_the_family_does_not_store_is_reduced(monkeypatch, graph_factory, prime):
    # a proper subspace of T whose one row, the sum of two generators on one
    # block, is no row of the family span, but lies in it
    g = graph_factory(2)
    first, second = [gen for gen in block_generators(2) if gen.block == (1, 1)][:2]
    vec = g.embed_vector(first.left.build(), first.right.build(), first.block)
    vec.update(g.embed_vector(second.left.build(), second.right.build(), second.block))
    space = MatrixSpace(prime=prime)
    space.insert_vector(vec)
    clo = ClosureResult(space=space, rounds=0, products_computed=0, missed_words=())
    calls = recording_contains(monkeypatch)
    result = verify_closure_in_generator_span(g, clo, block_generators(2))
    assert result.status == "pass"
    assert calls == [{g.class_offset(2): 1}, vec]


def test_adjacency_in_generator_span(graph_factory):
    g = graph_factory(3)
    span, dependent = generator_span(g, block_generators(3), DEFAULT_PRIMES[0])
    assert dependent == []
    assert span.contains_vector(g.adjacency().vectorize())
    assert span.contains_vector(IntMatrix.identity(g.num_vertices).vectorize())


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_projector_factorizations(graph_factory, m):
    assert projector_factor_mismatches(graph_factory(m)) == []


ORIGINAL_DUAL_IDEMPOTENT = OddGraph.dual_idempotent


def leaky_dual_idempotent(graph, d):
    """E_d* of O_3, with one extra diagonal entry in class 2 when d = 1."""
    e = ORIGINAL_DUAL_IDEMPOTENT(graph, d)
    if d != 1:
        return e
    entries = {(r, c): v for r, c, v in e.iter_entries()}
    entries[(9, 9)] = 1
    return IntMatrix(10, 10, entries)


def test_projector_outside_its_block_reported(monkeypatch):
    # E_1* with one extra diagonal entry in class 2: its (1, 1) block still
    # matches the factors, so only the check outside that block catches it
    monkeypatch.setattr(OddGraph, "dual_idempotent", leaky_dual_idempotent)
    assert projector_factor_mismatches(OddGraph(2)) == [
        {"kind": "projector_mismatch", "class": 1,
         "left": "H(i=0,j=0,l=0,v=2)", "right": "H(i=2,j=2,l=2,v=3)"}
    ]


def test_leaky_projector_fails_the_closure_before_containment(tmp_path, capsys, monkeypatch):
    # the closure compares its embedded seeds with every projector first, so
    # within `verify` the same fault fails `closure-computation` and
    # `projector_factor_mismatches` never runs: containment is skipped
    monkeypatch.setattr(OddGraph, "dual_idempotent", leaky_dual_idempotent)
    code = main(["verify", "--m", "2", "--checks", "containment", "--out", str(tmp_path)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    checks = {c["name"]: c for c in json.loads((tmp_path / "report.json").read_text())["checks"]}
    assert checks["closure-computation"]["status"] == "fail"
    assert checks["closure-computation"]["witnesses"] == [
        {"kind": "internal",
         "detail": "GraphStructureError: the embedded seed of E_1* differs from the graph's projector"}
    ]
    assert checks["containment"]["status"] == "skipped"
    assert set(checks) == {"closure-computation", "containment"}


def test_dropped_generator_breaks_containment(graph_factory, closure_factory):
    g = graph_factory(2)
    clo = closure_factory(2)
    gens = block_generators(2)[:-1]
    result = verify_closure_in_generator_span(g, clo, gens)
    assert result.status == "fail"
    assert result.params["span_dim"] == 14
    assert any(w["kind"] == "closure_element_outside_family_span" for w in result.witnesses)


# -- basis ----------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_generator_family_is_basis(graph_factory, closure_factory, m):
    g = graph_factory(m)
    result = verify_generator_basis(g, closure_factory(m), block_generators(m))
    assert result.status == "pass"


def test_duplicated_generator_breaks_independence(graph_factory, closure_factory):
    g = graph_factory(2)
    gens = block_generators(2)
    result = verify_generator_basis(g, closure_factory(2), gens + [gens[0]])
    assert result.status == "fail"
    assert any(w["kind"] == "dependent_generator" for w in result.witnesses)


def test_family_missing_a_generator_fails_basis_by_dimension(graph_factory, closure_factory):
    # the 14 generators left stay independent, so only the dimension count sees the gap
    g = graph_factory(2)
    result = verify_generator_basis(g, closure_factory(2), block_generators(2)[:-1])
    assert result.status == "fail"
    assert result.witnesses == [{"kind": "dimension_mismatch", "family_span_dim": 14, "closure_dim": 15}]


def test_inserting_generator_matrices_all_new(graph_factory):
    # the m = 2 family: 15 inserts, every one grows the span
    g = graph_factory(2)
    space = MatrixSpace()
    for gen in block_generators(2):
        assert space.insert_vector(g.embed_vector(gen.left.build(), gen.right.build(), gen.block))
    assert space.dim == 15


# -- membership families ---------------------------------------------------------


def test_membership_case_ranges_m2():
    # whole cases, (family, (i, j, l), block, left, right) with H(i, j, l, v)
    # as (i, j, l, v), at m = 2 and m = 4: a changed factor of either family
    # passes `verify`, which only asks that each member lie in T
    expected = {
        2: [
            ("odd_odd", (0, 0, 0), (1, 1), (0, 0, 0, 2), (2, 2, 2, 3)),
            ("odd_even", (0, 1, 0), (1, 2), (0, 1, 0, 2), (2, 1, 0, 3)),
        ],
        4: [
            ("odd_odd", (0, 0, 0), (1, 1), (0, 0, 0, 4), (4, 4, 4, 5)),
            ("odd_odd", (0, 1, 0), (1, 3), (0, 1, 0, 4), (4, 3, 3, 5)),
            ("odd_odd", (1, 1, 0), (3, 3), (1, 1, 0, 4), (3, 3, 3, 5)),
            ("odd_odd", (1, 1, 1), (3, 3), (1, 1, 1, 4), (3, 3, 3, 5)),
            ("odd_even", (0, 1, 0), (1, 2), (0, 3, 0, 4), (4, 1, 0, 5)),
            ("odd_even", (0, 2, 0), (1, 4), (0, 2, 0, 4), (4, 2, 1, 5)),
            ("odd_even", (1, 2, 0), (3, 4), (1, 2, 0, 4), (3, 2, 0, 5)),
            ("odd_even", (1, 2, 1), (3, 4), (1, 2, 1, 4), (3, 2, 0, 5)),
        ],
    }
    for m, cases in expected.items():
        assert [
            (c["family"], (c["i"], c["j"], c["l"]), gen.block, astuple(gen.left), astuple(gen.right))
            for c in membership_family_cases(m)
            for gen in (c["generator"],)
        ] == cases


def test_membership_case_ranges_m5():
    cases = membership_family_cases(5)
    odd_odd = {(c["i"], c["j"], c["l"]) for c in cases if c["family"] == "odd_odd"}
    assert (2, 2, 2) in odd_odd and (0, 2, 0) in odd_odd
    assert all(i <= j <= 2 and l <= i for i, j, l in odd_odd)
    odd_even = {(c["i"], c["j"], c["l"]) for c in cases if c["family"] == "odd_even"}
    assert odd_even == {(0, 1, 0), (0, 2, 0), (1, 2, 0), (1, 2, 1)}


@pytest.mark.parametrize("m", [2, 3])
def test_membership_families_pass_small(graph_factory, closure_factory, m):
    result = verify_membership_families(graph_factory(m), closure_factory(m))
    assert result.status == "pass"
    assert result.params["cases"] == len(membership_family_cases(m))


def test_membership_note_says_the_check_is_a_transcription(graph_factory, closure_factory):
    result = verify_membership_families(graph_factory(2), closure_factory(2))
    assert result.notes == [
        "transcribes the paper's two derived families; it adds nothing once basis passes,"
        " because every well-shaped kron(H, H) on a block lies in T"
    ]
    # what the note claims: every member is a generator of the family basis checks
    for m in range(1, 7):
        members = {case["generator"] for case in membership_family_cases(m)}
        assert members <= set(block_generators(m))


def test_specific_membership_m3(graph_factory, closure_factory):
    g = graph_factory(3)
    clo = closure_factory(3)
    left, right = intersection_matrix(0, 1, 0, 3), intersection_matrix(3, 2, 2, 4)
    assert clo.space.contains_vector(g.embed_vector(left, right, (1, 3)))


# -- closure is an algebra: chains and block products ----------------------------


def admissible_walks(m, length):
    blocks = {(i, j) for i in range(m + 1) for j in range(m + 1) if abs(i - j) == 1}
    blocks.add((m, m))
    walks = [[i] for i in range(m + 1)]
    for _ in range(length):
        walks = [w + [s] for w in walks for s in range(m + 1) if (w[-1], s) in blocks]
    return walks


@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_product_chains_stay_in_closure(graph_factory, closure_factory, m):
    g = graph_factory(m)
    clo = closure_factory(m)
    for length in (1, 2, 3, 4):
        for walk in admissible_walks(m, length):
            assert product_chain_membership(g, clo, walk), walk


def test_first_chain_is_scaled_kron_m2(graph_factory):
    # the product of the first two superdiagonal blocks is c1 times a single
    # Kronecker generator, with c1 a positive integer (here 1); the same
    # value comes out of the factor-wise disjointness expansion
    g = graph_factory(2)
    a = g.adjacency()
    product = g.extract_block(a, (0, 1)) @ g.extract_block(a, (1, 2))
    target = kron(intersection_matrix(2, 1, 1, 2), intersection_matrix(0, 1, 0, 3))
    assert product == target  # c1 == 1
    left = disjoint_product_expansion(2, 0, 1, 0, 2)
    right = disjoint_product_expansion(0, 2, 1, 0, 3)
    assert left == {1: 1} and right == {0: 1}
    c1 = left[1] * right[0]
    assert c1 == 1 and c1 > 0


def test_block_products_of_basis_elements_stay_in_closure(graph_factory, closure_factory):
    # products of compatible single-block closure elements land back in the span
    rng = random.Random(99)
    for m in (2, 3):
        g = graph_factory(m)
        clo = closure_factory(m)
        elements = basis_block_elements(g, clo.space)
        by_row = {}
        for block, local in elements:
            by_row.setdefault(block[0], []).append((block, local))
        pairs = []
        for (b1, m1) in elements:
            for (b2, m2) in by_row.get(b1[1], []):
                pairs.append(((b1, m1), (b2, m2)))
        for (b1, m1), (b2, m2) in rng.sample(pairs, min(40, len(pairs))):
            product = m1 @ m2
            if product.is_zero():
                continue
            vec = g.embed_vector(product, IntMatrix.identity(1), (b1[0], b2[1]))
            assert clo.space.contains_vector(vec)


# -- dimension formula ------------------------------------------------------------


@pytest.mark.parametrize("m,expected", [(1, 5), (2, 15), (3, 35), (4, 70), (5, 126)])
def test_dimension_formula_values(m, expected):
    identity = dimension_formula(m)
    assert identity.block_sum == identity.binomial == expected


def test_dimension_formula_sweep():
    for m in range(1, 201):
        identity = dimension_formula(m)
        assert identity.block_sum == identity.binomial, m


def test_block_dimension_rows_match_intersection_ranges():
    # every term of the half-triangle block sum for m <= 200: the tail of
    # row i, j = i..v, holds |range(m-i, m-j, m)| on the left (v = m) and
    # |range(i, j, m+1)| on the right (v = m + 1)
    def sizes(v):
        return [[len(intersection_range(a, b, v)) for b in range(v + 1)] for a in range(v + 1)]

    upper = sizes(1)
    for m in range(1, 201):
        lower, upper = upper, sizes(m + 1)
        for i in range(m + 1):
            assert _range_tail(i, m) == lower[m - i][::-1][i:]
            assert _range_tail(i, m + 1) == upper[i][i:]


def test_block_row_sum_is_the_sum_of_the_tail_products():
    # row i's closed form against its terms j = i..m, the products of the two
    # tails; `map` stops after the left tail's m - i + 1 terms
    for m in range(201):
        for i in range(m + 1):
            assert _block_row_sum(i, m) == sum(map(mul, _range_tail(i, m), _range_tail(i, m + 1))), (i, m)


def test_block_dimension_sum_matches_the_full_double_sum():
    # the half-triangle sum against the plain sum over all (i, j) blocks
    for m in range(1, 201):
        full = sum(
            len(intersection_range(m - i, m - j, m)) * len(intersection_range(i, j, m + 1))
            for i in range(m + 1)
            for j in range(m + 1)
        )
        assert _block_dimension_sum(m) == full, m


def test_dimension_formula_rejects_bad_m():
    with pytest.raises(ParameterError):
        dimension_formula(0)


def test_block_generators_reject_bad_m():
    with pytest.raises(ParameterError):
        block_generators(0)
