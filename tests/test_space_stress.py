"""Differential stress tests for the span kernel.

The echelon arithmetic is the one place everything else leans on, so it is
checked here against an independent dense implementation over the
rationals (fractions.Fraction, leading-from-the-left elimination) on
randomized workloads, together with the structural invariants the sparse
representation promises.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from oddterw import DEFAULT_PRIMES, IntMatrix, MatrixSpace, OddGraph, closure, exactmat


class FractionSpanOracle:
    """Dense incremental span over the rationals; nothing shared with MatrixSpace."""

    def __init__(self, length):
        self.length = length
        self.rows = {}  # lead index -> dense list of Fractions

    def _reduced(self, vec):
        v = [Fraction(x) for x in vec]
        while True:
            lead = next((i for i, a in enumerate(v) if a), None)
            if lead is None:
                return None, v
            row = self.rows.get(lead)
            if row is None:
                return lead, v
            f = v[lead] / row[lead]
            v = [a - f * b for a, b in zip(v, row)]

    def insert(self, vec):
        lead, v = self._reduced(vec)
        if lead is None:
            return False
        self.rows[lead] = v
        return True

    def contains(self, vec):
        lead, _ = self._reduced(vec)
        return lead is None

    @property
    def dim(self):
        return len(self.rows)


def dense_of(vec, length):
    flat = [0] * length
    for c, v in vec.items():
        flat[c] = v
    return flat


def combination(rng, pool, k, lo, hi):
    """Random integer combination of k vectors drawn from `pool`."""
    out = {}
    for vec in rng.sample(pool, k):
        f = rng.randint(lo, hi)
        for c, v in vec.items():
            out[c] = out.get(c, 0) + f * v
    return out


def check_structural_invariants(space):
    # the packed rows themselves
    for piv, (coords, values) in space._rows.items():
        assert coords.typecode == "i" and coords.itemsize == 4
        assert all(a < b for a, b in zip(coords, coords[1:])), "coords strictly ascending"
        assert coords[0] == piv, "coords[0] is the pivot"
        if type(values) is list:
            assert len(values) == len(coords)
            assert values.count(values[0]) < len(values), "a list only when the row is not uniform"
            pivot_value = values[0]
        else:
            pivot_value = values
        assert pivot_value == 1 and type(pivot_value) is int, "pivot value 1 in every field"
    # the dicts iter_basis hands out: fresh, and packing one gives its stored row back
    basis = list(space.iter_basis())
    assert [piv for piv, _ in basis] == sorted(space._rows)
    for piv, row in basis:
        assert exactmat._packed(row) == space._rows[piv]
        row.clear()
    assert all(row for _, row in space.iter_basis())
    pivots = set(space._rows)
    for piv, row in space.iter_basis():
        assert row, "stored rows are never empty"
        assert min(row) == piv, "pivot is the leading coordinate"
        foreign = (set(row) & pivots) - {piv}
        assert not foreign, f"row at {piv} contains foreign pivots {foreign}"
        assert row[piv] == 1 and type(row[piv]) is int, "pivot value 1 in every field"
        if space.prime is not None:
            assert all(0 < v < space.prime for v in row.values())
        else:
            assert all(v and (type(v) is int or v.denominator > 1) for v in row.values()), (
                "exact values are nonzero, and plain ints when integral"
            )


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], DEFAULT_PRIMES[1], None])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_space_against_fraction_oracle(prime, seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
    length = nrows * ncols
    space = MatrixSpace(prime=prime)
    oracle = FractionSpanOracle(length)
    pool = []
    for step in range(60):
        if pool and rng.random() < 0.45:
            # linear combination of earlier inserts: must already be in span
            candidate = combination(rng, pool, rng.randint(1, min(3, len(pool))), -3, 3)
        else:
            candidate = IntMatrix(
                nrows, ncols,
                {
                    (r, c): rng.randint(-6, 6)
                    for r in range(nrows)
                    for c in range(ncols)
                    if rng.random() < 0.5
                },
            ).vectorize()
        expected_new = oracle.insert(dense_of(candidate, length))
        got_new = space.insert_vector(candidate)
        # GF(p) can only disagree with the rationals when a nonzero minor is
        # divisible by p; the fixed seeds keep this deterministic and verified
        assert got_new == expected_new, f"step {step}"
        assert space.dim == oracle.dim
        pool.append(candidate)
        check_structural_invariants(space)
    # membership probes: random combinations of the pool stay inside,
    # random fresh matrices agree with the oracle either way
    for _ in range(20):
        k = rng.randint(1, min(4, len(pool)))
        assert space.contains_vector(combination(rng, pool, k, -5, 5))
    for _ in range(20):
        probe = IntMatrix(
            nrows, ncols,
            {(r, c): rng.randint(-6, 6) for r in range(nrows) for c in range(ncols) if rng.random() < 0.4},
        ).vectorize()
        assert space.contains_vector(probe) == oracle.contains(dense_of(probe, length))


def modulo(x, p):
    """The rational x in GF(p)."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


@pytest.mark.parametrize("seed", range(20))
def test_rational_basis_modulo_p_is_the_gf_p_basis(seed):
    # one echelon form in every field: the rational basis read mod p is the
    # GF(p) basis, pivot for pivot and value for value
    rng = random.Random(seed)
    p = DEFAULT_PRIMES[0]
    length = rng.randint(8, 12)
    exact, modular = MatrixSpace(prime=None), MatrixSpace(prime=p)
    for _ in range(rng.randint(3, 6)):
        vec = {c: rng.randint(-9, 9) for c in range(length) if rng.random() < 0.6}
        exact.insert_vector(vec)
        modular.insert_vector(vec)
    read_mod_p = [(piv, {c: modulo(x, p) for c, x in row.items()}) for piv, row in exact.iter_basis()]
    assert read_mod_p == list(modular.iter_basis())


def test_exact_mode_handles_content_growth():
    # vectors engineered so eliminations need both scaling directions
    space = MatrixSpace(prime=None)
    m1 = {0: 6, 1: 10, 2: 15}
    m2 = {0: 4, 1: 9, 3: 25}
    m3 = {1: 7, 2: 49}
    for m in (m1, m2, m3):
        assert space.insert_vector(m)
    check_structural_invariants(space)
    # an integer combination with large coefficients reduces to zero
    combo = {c: 35 * m1.get(c, 0) - 21 * m2.get(c, 0) + 15 * m3.get(c, 0) for c in range(4)}
    assert space.contains_vector(combo)
    assert not space.contains_vector({**combo, 3: combo[3] + 1})


def test_closure_m2_against_dense_oracle(graph_factory, closure_factory):
    # same independent pairwise-product oracle as the m=1 case, at the next size
    from dense_oracle import dense, dense_algebra_dimension

    g = graph_factory(2)
    mats = [dense(IntMatrix.identity(10)), dense(g.adjacency())]
    mats += [dense(g.dual_idempotent(d)) for d in range(3)]
    assert dense_algebra_dimension(mats) == 15 == closure_factory(2).dimension


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_closure_rows_each_store_one_shared_value(closure_factory, prime):
    # every basis row of T is 0/1, so each is stored as coords and the one value 1
    space = closure_factory(3, prime).space
    check_structural_invariants(space)
    assert {values for _, values in space._rows.values()} == {1}


def test_closure_basis_holds_at_most_12_bytes_per_entry():
    # a packed row of T costs 4 bytes per coordinate plus a fixed header;
    # 8-byte coordinates read 13.6 bytes per entry, {coordinate: value}
    # dict rows more than 80
    graph = OddGraph(4)
    closure(graph)  # fills the graph's caches, so only the second closure is counted
    gc.collect()
    tracemalloc.start()
    try:
        clo = closure(graph)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    nnz = sum(len(row) for _, row in clo.space.iter_basis())
    assert nnz == graph.num_vertices**2  # T's basis: disjoint 0/1 blocks covering every entry
    assert held <= 12 * nnz, f"{held / nnz:.1f} bytes per basis entry"
