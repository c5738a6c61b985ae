"""Differential stress tests for the span kernel.

The echelon arithmetic is the one place everything else leans on, so it is
checked here against an independent dense implementation over the
rationals (fractions.Fraction, leading-from-the-left elimination) on
randomized workloads, together with the structural invariants the sparse
representation promises.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from oddterw import DEFAULT_PRIMES, IntMatrix, MatrixSpace


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
    pivots = {piv for piv, _ in space.iter_basis()}
    for piv, row in space.iter_basis():
        assert row, "stored rows are never empty"
        assert min(row) == piv, "pivot is the leading coordinate"
        foreign = (set(row) & pivots) - {piv}
        assert not foreign, f"row at {piv} contains foreign pivots {foreign}"
        if space.prime is not None:
            assert row[piv] == 1
            assert all(0 < v < space.prime for v in row.values())
        else:
            assert row[piv] > 0
            content = 0
            for v in row.values():
                content = gcd(content, v)
            assert content == 1, "exact rows are primitive"


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
