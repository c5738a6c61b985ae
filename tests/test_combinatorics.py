import itertools

import pytest

from oddterw import ParameterError, SubsetIndex, binomial, intersection_range


def colex_enumeration(n, k):
    """Independent oracle: all k-subsets sorted colexicographically."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


@pytest.mark.parametrize(
    "n,k,expected",
    [(5, 2, 10), (4, -1, 0), (9, 4, 126), (0, 0, 1), (3, 5, 0), (-2, 1, 0), (6, 0, 1)],
)
def test_binomial_values(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_pascal_rule():
    for n in range(1, 31):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_rank_extremes():
    idx = SubsetIndex(5, 2)
    assert idx.rank((0, 1)) == 0
    assert idx.rank((3, 4)) == 9 == idx.count - 1


def test_rank_against_enumeration_oracle():
    idx = SubsetIndex(7, 3)
    oracle = colex_enumeration(7, 3)
    assert oracle.index((1, 2, 4)) == 6 == idx.rank((1, 2, 4))
    for r, subset in enumerate(oracle):
        assert idx.rank(subset) == r


def test_subsets_listing_matches_oracle():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert SubsetIndex(n, k).subsets() == colex_enumeration(n, k)


def test_rank_unrank_bijective_up_to_n_12():
    # `subsets()` is the unranking: position r holds the subset of rank r
    for n in range(0, 13):
        for k in range(0, n + 1):
            idx = SubsetIndex(n, k)
            listing = idx.subsets()
            assert len(set(listing)) == len(listing) == idx.count
            for r, s in enumerate(listing):
                assert idx.rank(s) == r


def test_rank_rejects_malformed_subsets():
    idx = SubsetIndex(5, 2)
    with pytest.raises(ParameterError):
        idx.rank((0, 1, 2))  # wrong cardinality
    with pytest.raises(ParameterError):
        idx.rank((0, 5))  # out of range
    with pytest.raises(ParameterError):
        idx.rank((2, 1))  # not increasing
    with pytest.raises(ParameterError):
        idx.rank((1, 1))  # repeated element


def test_subset_index_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        SubsetIndex(3, 4)
    with pytest.raises(ParameterError):
        SubsetIndex(-1, 0)


@pytest.mark.parametrize("i,j,v,lo,hi", [(1, 1, 2, 0, 1), (2, 3, 4, 1, 2), (0, 4, 4, 0, 0)])
def test_intersection_range_examples(i, j, v, lo, hi):
    rng = intersection_range(i, j, v)
    assert (rng[0], rng[-1]) == (lo, hi)
    assert list(rng) == list(range(lo, hi + 1))
    assert lo in rng and hi in rng and hi + 1 not in rng


def test_intersection_range_never_empty_and_length_formula():
    for v in range(0, 9):
        for i in range(v + 1):
            for j in range(v + 1):
                rng = intersection_range(i, j, v)
                assert len(rng) == min(i, j) - max(0, i + j - v) + 1
                assert len(rng) >= 1


def test_block_count_sum_matches_binomial_for_m3():
    m = 3
    total = sum(
        len(intersection_range(m - i, m - j, m)) * len(intersection_range(i, j, m + 1))
        for i in range(m + 1)
        for j in range(m + 1)
    )
    assert total == 35 == binomial(m + 4, 4)
