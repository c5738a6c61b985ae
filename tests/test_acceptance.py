"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines and timings; criteria at m = 4 and m = 5 dominate the runtime.
"""

import random
import time

import pytest

from oddterw import (
    DEFAULT_PRIMES,
    IntMatrix,
    SubsetIndex,
    binomial,
    block_generators,
    closure,
    dimension_formula,
    intersection_matrix,
    intersection_range,
    kron,
    product_formula_failures,
    verify_adjacency_blocks,
    verify_closure_in_generator_span,
    verify_generator_basis,
    verify_generators_in_closure,
    verify_membership_families,
)

EXPECTED_DIMS = {1: 5, 2: 15, 3: 35, 4: 70, 5: 126}


def _report(num, desc, ok, detail=""):
    print(f"ACCEPTANCE CRITERION {num} ({desc}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_closure_dimension(graph_factory, closure_factory):
    t0 = time.perf_counter()
    dims = {m: closure_factory(m).dimension for m in range(1, 5)}
    small_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    dims[5] = closure_factory(5).dimension
    m5_elapsed = time.perf_counter() - t0
    ok = dims == EXPECTED_DIMS and small_elapsed < 10 and m5_elapsed < 120
    _report(
        1,
        "closure dimension equals C(m+4,4) for m=1..5",
        ok,
        f"dims={dims} m<=4 in {small_elapsed:.2f}s, m=5 in {m5_elapsed:.2f}s",
    )


def test_criterion_2_algebra_equality(graph_factory, closure_factory):
    failures = []
    for m in range(1, 6):
        g = graph_factory(m)
        gens = block_generators(m)
        fields = list(DEFAULT_PRIMES) + ([None] if m <= 3 else [])
        for prime in fields:
            clo = closure_factory(m, prime)
            for result in (
                verify_closure_in_generator_span(g, clo, gens),
                verify_generators_in_closure(g, clo, gens),
            ):
                if result.status != "pass":
                    failures.append((m, prime, result.name, result.witnesses[:1]))
    _report(2, "span equality both ways, two primes, exact for m<=3", not failures, str(failures))


def test_criterion_3_block_decomposition(graph_factory):
    failures = []
    for m in range(1, 6):
        result = verify_adjacency_blocks(graph_factory(m))
        if result.status != "pass":
            failures.append((m, result.witnesses[:1]))
    _report(3, "adjacency blocks equal their Kronecker products, m=1..5", not failures, str(failures))


def test_criterion_4_product_formula_sweep():
    t0 = time.perf_counter()
    witnesses = [w for v in range(8) for w in product_formula_failures(v)]
    elapsed = time.perf_counter() - t0
    ok = not witnesses and elapsed < 30
    _report(4, "product formula entry-exact for v<=7, s=0 case agrees", ok, f"{elapsed:.2f}s")


def test_criterion_5_basis(graph_factory, closure_factory):
    failures = []
    for m in range(1, 6):
        gens = block_generators(m)
        if len(gens) != binomial(m + 4, 4):
            failures.append((m, "count", len(gens)))
        result = verify_generator_basis(graph_factory(m), closure_factory(m), gens)
        if result.status != "pass":
            failures.append((m, result.witnesses[:1]))
    _report(5, "generator family independent and spanning, m=1..5", not failures, str(failures))


def test_criterion_6_membership_families(graph_factory, closure_factory):
    failures = []
    for m in range(2, 6):
        result = verify_membership_families(graph_factory(m), closure_factory(m))
        if result.status != "pass":
            failures.append((m, result.witnesses[:1]))
    _report(6, "derived membership families lie in the closure, m=2..5", not failures, str(failures))


def test_criterion_7_counting_identity():
    t0 = time.perf_counter()
    mismatched = []
    for m in range(1, 201):
        block_sum, expected = dimension_formula(m)
        if block_sum != expected:
            mismatched.append(m)
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "block dimension sum equals C(m+4,4) for m=1..200",
        not mismatched and elapsed < 1.0,
        f"{elapsed:.2f}s mismatched={mismatched}",
    )


def test_criterion_8_property_suites(graph_factory, closure_factory):
    problems = []

    # projector partition and orthogonality, m <= 5
    for m in range(1, 6):
        g = graph_factory(m)
        covered = []
        for d in range(m + 1):
            e = g.dual_idempotent(d)
            covered += e.vectorize().items()
            for d2 in range(d + 1, m + 1):
                if not (e @ g.dual_idempotent(d2)).is_zero():
                    problems.append(("projector orthogonality", m, d, d2))
        if sorted(covered) != sorted(IntMatrix.identity(g.num_vertices).vectorize().items()):
            problems.append(("projector partition", m))

    # partition of the all-ones matrix and transpose symmetry, v <= 8
    for v in range(0, 9):
        for i in range(v + 1):
            for j in range(v + 1):
                covered = []
                for l in intersection_range(i, j, v):
                    h = intersection_matrix(i, j, l, v)
                    covered += h.vectorize().items()
                    if h.transpose() != intersection_matrix(j, i, l, v):
                        problems.append(("transpose symmetry", v, i, j, l))
                # the H(i, j, l, v) sum to the all-ones matrix: each entry hit once, with 1
                if sorted(covered) != [(k, 1) for k in range(binomial(v, i) * binomial(v, j))]:
                    problems.append(("partition of ones", v, i, j))

    # Kronecker mixed product on random conforming shapes
    rng = random.Random(2024)
    for _ in range(20):
        dims = [rng.randint(1, 6) for _ in range(6)]
        def rand(nr, nc):
            return IntMatrix(
                nr, nc,
                {(r, c): rng.randint(-4, 4) for r in range(nr) for c in range(nc) if rng.random() < 0.6},
            )
        a, c = rand(dims[0], dims[1]), rand(dims[1], dims[2])
        b, d = rand(dims[3], dims[4]), rand(dims[4], dims[5])
        if kron(a, b) @ kron(c, d) != kron(a @ c, b @ d):
            problems.append(("kron mixed product", dims))

    # rank inverts the colex listing, up to n = 12
    for n in range(0, 13):
        for k in range(0, n + 1):
            idx = SubsetIndex(n, k)
            for r, subset in enumerate(idx.subsets()):
                if idx.rank(subset) != r:
                    problems.append(("rank/subsets", n, k, r))

    # closure order invariance at m <= 3
    for m in range(1, 4):
        reference = closure_factory(m).dimension
        for seed in (10, 11):
            if closure(graph_factory(m), shuffle=random.Random(seed)).dimension != reference:
                problems.append(("order invariance", m, seed))

    # two-prime dimension agreement at m <= 5
    for m in range(1, 6):
        dims = {closure_factory(m, prime).dimension for prime in DEFAULT_PRIMES}
        if len(dims) != 1:
            problems.append(("two-prime agreement", m, dims))

    _report(8, "property suites", not problems, str(problems[:5]))


def test_criterion_9_fault_injection(graph_factory, closure_factory, monkeypatch):
    problems = []

    # flipped adjacency entry
    g = graph_factory(2)
    entries = {(r, c): v for r, c, v in g.adjacency().iter_entries()}
    entries[(0, 5)] = 1
    with monkeypatch.context() as patch:
        patch.setattr(g, "adjacency", lambda: IntMatrix(10, 10, entries))
        tampered = verify_adjacency_blocks(g)
    if tampered.status != "fail" or not tampered.witnesses:
        problems.append("flipped adjacency entry not detected with a witness")

    # dropped generator
    clo = closure_factory(2)
    dropped = verify_closure_in_generator_span(g, clo, block_generators(2)[1:])
    if dropped.status != "fail" or not dropped.witnesses:
        problems.append("dropped generator not detected with a witness")

    # duplicated generator
    gens = block_generators(2)
    duplicated = verify_generator_basis(g, clo, gens + [gens[-1]])
    if duplicated.status != "fail" or not duplicated.witnesses:
        problems.append("duplicated generator not detected with a witness")

    _report(9, "fault injection produces failing reports with witnesses", not problems, str(problems))
