"""Binomial coefficients, colexicographic subset ranking, and intersection-size ranges.

Ground sets are always {0, ..., n-1}; callers that work with named ground
sets (a base vertex and its complement, say) relabel before ranking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import ParameterError


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer, zero whenever k < 0, n < 0 or k > n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class SubsetIndex:
    """Colexicographic bijection between k-subsets of {0..n-1} and 0..C(n,k)-1."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 0 or self.k < 0 or self.k > self.n:
            raise ParameterError(f"no {self.k}-subsets of a {self.n}-set")

    @property
    def count(self) -> int:
        return binomial(self.n, self.k)

    def rank(self, subset) -> int:
        """Colex rank of a strictly increasing k-tuple of elements of {0..n-1}."""
        s = tuple(subset)
        if len(s) != self.k:
            raise ParameterError(f"expected {self.k} elements, got {len(s)}")
        prev = -1
        for e in s:
            if not prev < e < self.n:
                raise ParameterError(f"malformed subset {s!r} for n={self.n}")
            prev = e
        return sum(comb(e, t + 1) for t, e in enumerate(s))

    def subsets(self) -> list[tuple[int, ...]]:
        """All k-subsets in colex order (index in this list == rank), the inverse of `rank`."""
        return sorted(itertools.combinations(range(self.n), self.k), key=lambda s: s[::-1])


def intersection_range(i: int, j: int, v: int) -> range:
    """Feasible |y ∩ z| for an i-subset y and a j-subset z of a v-set.

    The range runs from max(0, i+j-v) to min(i, j); it is nonempty for
    every 0 <= i, j <= v.
    """
    return range(max(0, i + j - v), min(i, j) + 1)
