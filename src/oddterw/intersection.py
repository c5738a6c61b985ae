"""Intersection matrices and the closed-form expansion of their products.

The matrix pairing i-subsets with j-subsets of a v-set by intersection size
l is written H(i, j, l, v) throughout.  Products of two such matrices over
the same ground set decompose in the family {H(i, k, g, v)}, whose members
have pairwise disjoint supports; both the closed-form coefficients and an
entry-reading decomposition are provided so each can check the other.

`product_formula_failures` is the `products` check.  For every admissible
pair it multiplies H(i, j, l, v) @ H(j, k, s, v) exactly with
`IntMatrix.__matmul__`, then `decompose_product` reads every entry of the
product back: the class of entry (r, c) is the popcount of the AND of the
bit masks of subsets r and c, taken from `SubsetIndex.subsets()` and not
from the intersection matrices, so a wrong `intersection_matrix` cannot
vouch for itself.  The loops take (j, k, s) outside and (i, l) inside:
each right factor H(j, k, s, v) then serves a run of consecutive
products, and the kernel packs it once for the whole run.

All functions here are pure and safe for unsynchronized concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import SubsetIndex, binomial, intersection_range
from .errors import ParameterError
from .exactmat import IntMatrix


@dataclass(frozen=True)
class HSpec:
    """Label for one intersection matrix: i-subsets x j-subsets of a v-set, meeting in l points."""

    i: int
    j: int
    l: int
    v: int

    @property
    def shape(self) -> tuple[int, int]:
        return (binomial(self.v, self.i), binomial(self.v, self.j))

    def build(self) -> IntMatrix:
        return intersection_matrix(self.i, self.j, self.l, self.v)

    def label(self) -> str:
        return f"H(i={self.i},j={self.j},l={self.l},v={self.v})"


@lru_cache(maxsize=None)
def intersection_matrix(i: int, j: int, l: int, v: int) -> IntMatrix:
    """The 0/1 matrix with entry (y, z) = 1 iff |y ∩ z| = l.

    Rows are i-subsets and columns j-subsets of {0..v-1}, both in colex
    order.  Out-of-range l yields the zero matrix.  Results are cached and
    shared; callers must not mutate them.
    """
    if not (0 <= i <= v and 0 <= j <= v):
        raise ParameterError(f"subset sizes ({i}, {j}) exceed ground size {v}")
    row_index = SubsetIndex(v, i)
    col_index = SubsetIndex(v, j)
    nrows, ncols = row_index.count, col_index.count
    if l < 0 or l > min(i, j):
        return IntMatrix.zeros(nrows, ncols)
    rows: dict[int, dict[int, int]] = {}
    # Per row y, enumerate exactly the columns meeting y in l points instead
    # of filtering all C(v, j) subsets.
    for r, y in enumerate(row_index.subsets()):
        complement = [e for e in range(v) if e not in y]
        row = {}
        for inside in itertools.combinations(y, l):
            for outside in itertools.combinations(complement, j - l):
                z = tuple(sorted(inside + outside))
                row[col_index.rank(z)] = 1
        if row:
            rows[r] = row
    return IntMatrix._wrap(nrows, ncols, rows)


def product_expansion_term(i: int, j: int, k: int, l: int, s: int, v: int, g: int, h: int) -> int:
    """One (g, h) summand of the product-expansion coefficient."""
    return (
        binomial(g, h)
        * binomial(i - g, l - h)
        * binomial(k - g, s - h)
        * binomial(v + g - i - k, j + h - l - s)
    )


def product_expansion(i: int, j: int, k: int, l: int, s: int, v: int) -> dict[int, int]:
    """Coefficients c_g with H(i,j,l,v) @ H(j,k,s,v) = sum_g c_g * H(i,k,g,v).

    Only nonzero coefficients appear in the returned map.
    """
    out = {}
    for g in range(0, min(i, k) + 1):
        c = sum(product_expansion_term(i, j, k, l, s, v, g, h) for h in range(0, g + 1))
        if c:
            out[g] = c
    return out


def disjoint_product_expansion(i: int, j: int, k: int, l: int, v: int) -> dict[int, int]:
    """Coefficients for multiplying H(i,j,l,v) by the disjointness matrix H(j,k,0,v).

    Specialization of product_expansion to s = 0; only nonzero coefficients
    appear in the returned map.
    """
    out = {}
    for g in range(max(0, i + j + k - l - v), min(i - l, k) + 1):
        c = binomial(i - g, l) * binomial(v + g - i - k, j - l)
        if c:
            out[g] = c
    return out


@lru_cache(maxsize=None)
def _subset_masks(v: int, size: int) -> list[int]:
    """Bit masks of the size-subsets of a v-set, in colex order: element e is bit e."""
    return [sum(1 << e for e in s) for s in SubsetIndex(v, size).subsets()]


def decompose_product(product: IntMatrix, i: int, k: int, v: int) -> dict[int, int]:
    """Write `product` in the disjoint-support family {H(i,k,g,v)} by reading entries.

    Works because the family members have pairwise disjoint supports: the
    coefficient of H(i,k,g,v) is just the entry value on any pair meeting in
    g points.  The class of an entry (r, c) is the popcount of the AND of
    the bit masks of row subset r and column subset c; the masks come from
    the subsets themselves, not from the intersection matrices.  Raises
    ParameterError if `product` is not constant on intersection classes,
    i.e. not in the span of the family at all.
    """
    if product.shape != (binomial(v, i), binomial(v, k)):
        raise ParameterError(f"shape {product.shape} does not match subset sizes ({i}, {k}) of a {v}-set")
    row_masks = _subset_masks(v, i)
    col_masks = _subset_masks(v, k)
    # indexed by class g, which is at most v; `seen` keeps first-seen order
    values: list[int | None] = [None] * (v + 1)
    counts = [0] * (v + 1)
    seen: list[int] = []
    rows = product._rows
    for r in sorted(rows):
        row_mask = row_masks[r]
        for c, val in rows[r].items():
            g = (row_mask & col_masks[c]).bit_count()
            held = values[g]
            if held != val:
                if held is not None:
                    raise ParameterError(
                        f"not constant on intersection classes: class {g} holds both {held} and {val}"
                    )
                values[g] = val
                seen.append(g)
            counts[g] += 1
    for g in seen:
        # Every pair in class g must carry the value, otherwise part of the
        # class is zero and the matrix is outside the span.
        class_size = binomial(v, i) * binomial(i, g) * binomial(v - i, k - g)
        if counts[g] != class_size:
            raise ParameterError(f"class {g} only partially covered ({counts[g]} of {class_size})")
    return {g: values[g] for g in seen}


def product_formula_failures(v: int) -> list[dict]:
    """Check every admissible product of two intersection matrices over a v-set.

    For each (i, j, k) and each feasible (l, s), the direct product is
    decomposed by entry reading and compared with the closed-form expansion;
    the s = 0 specialization is compared against the general formula once
    per (i, j, k, l) as well.  The loops run over (j, k, s) outside and
    (i, l) inside, so each right factor H(j, k, s, v) serves a run of
    consecutive products and `IntMatrix.__matmul__` packs it once.
    Returns machine-readable witnesses for any failures, in that order.
    """
    failures = []
    for j in range(v + 1):
        for k in range(v + 1):
            for s in intersection_range(j, k, v):
                right = intersection_matrix(j, k, s, v)
                for i in range(v + 1):
                    for l in intersection_range(i, j, v):
                        direct = intersection_matrix(i, j, l, v) @ right
                        expansion = product_expansion(i, j, k, l, s, v)
                        try:
                            decomposition = decompose_product(direct, i, k, v)
                        except ParameterError as exc:
                            failures.append(
                                {
                                    "kind": "product_not_class_constant",
                                    "v": v, "i": i, "j": j, "k": k, "l": l, "s": s,
                                    "detail": str(exc),
                                }
                            )
                            continue
                        if decomposition != expansion:
                            failures.append(
                                {
                                    "kind": "expansion_mismatch",
                                    "v": v, "i": i, "j": j, "k": k, "l": l, "s": s,
                                    "expansion": expansion,
                                    "decomposition": decomposition,
                                }
                            )
            for i in range(v + 1):
                for l in intersection_range(i, j, v):
                    disjoint = disjoint_product_expansion(i, j, k, l, v)
                    general = product_expansion(i, j, k, l, 0, v)
                    if disjoint != general:
                        failures.append(
                            {
                                "kind": "disjoint_specialization_mismatch",
                                "v": v, "i": i, "j": j, "k": k, "l": l,
                                "disjoint": disjoint,
                                "general": general,
                            }
                        )
    return failures
