"""Intersection matrices and the closed-form expansion of their products.

The matrix pairing i-subsets with j-subsets of a v-set by intersection size
l is written H(i, j, l, v) throughout.  Products of two such matrices over
the same ground set decompose in the family {H(i, k, g, v)}, whose members
have pairwise disjoint supports; both the closed-form coefficients and an
entry-reading decomposition are provided so each can check the other.
`product_expansion` is the one closed form, for every s; the paper's
separate s = 0 (disjointness) formula lives in the tests, checked
against it.

`product_formula_failures` is the `products` check.  For every admissible
pair it multiplies H(i, j, l, v) @ H(j, k, s, v) exactly with
`IntMatrix.__matmul__`, then `decompose_product` reads every entry of the
product back, one row at a time in class order: the class of entry (r, c)
is the popcount of the AND of the bit masks of subsets r and c, taken from
`SubsetIndex.subsets()` and not from the intersection matrices, so a wrong
`intersection_matrix` cannot vouch for itself.  The column order of each
(v, i, k) is computed once and kept, for one ground size at a time.  The
loops take (j, k, s) outside and (i, l) inside: each right factor
H(j, k, s, v) then serves a run of consecutive products, and the kernel
packs it once for the whole run.

All functions here are safe for unsynchronized concurrent use.  The one
module-level cache, the class tables of the last ground size, only gains
tables or is replaced whole, so concurrent callers at worst build a table
twice.
"""

from __future__ import annotations

import itertools
from array import array
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
def _rank_table(v: int, size: int) -> dict[tuple[int, ...], int]:
    """{subset: SubsetIndex(v, size).rank(subset)} over every size-subset of a v-set.

    One `rank` call per subset, for all the intersection matrices that share
    this column set.
    """
    index = SubsetIndex(v, size)
    return {subset: index.rank(subset) for subset in index.subsets()}


@lru_cache(maxsize=None)
def intersection_matrix(i: int, j: int, l: int, v: int) -> IntMatrix:
    """The 0/1 matrix with entry (y, z) = 1 iff |y ∩ z| = l.

    Rows are i-subsets and columns j-subsets of {0..v-1}, both in colex
    order.  Out-of-range l yields the zero matrix.  Column indices are read
    from `_rank_table(v, j)`.  Results are cached and shared; callers must
    not mutate them.
    """
    if not (0 <= i <= v and 0 <= j <= v):
        raise ParameterError(f"subset sizes ({i}, {j}) exceed ground size {v}")
    row_index = SubsetIndex(v, i)
    nrows, ncols = row_index.count, binomial(v, j)
    if l < 0 or l > min(i, j):
        return IntMatrix.zeros(nrows, ncols)
    rows: dict[int, dict[int, int]] = {}
    col_rank = _rank_table(v, j)
    # Per row y, enumerate exactly the columns meeting y in l points instead
    # of filtering all C(v, j) subsets.
    for r, y in enumerate(row_index.subsets()):
        complement = [e for e in range(v) if e not in y]
        row = {}
        for inside in itertools.combinations(y, l):
            for outside in itertools.combinations(complement, j - l):
                row[col_rank[tuple(sorted(inside + outside))]] = 1
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


@lru_cache(maxsize=None)
def _subset_masks(v: int, size: int) -> list[int]:
    """Bit masks of the size-subsets of a v-set, in colex order: element e is bit e."""
    return [sum(1 << e for e in s) for s in SubsetIndex(v, size).subsets()]


# The class tables of one ground size: (v, {(i, k): (row masks, column masks,
# order, segments)}).  A table for another ground size replaces the pair
# whole, so the sweep holds one ground size's tables at a time.
_class_tables: tuple = (None, {})


def _class_table(v: int, i: int, k: int) -> tuple:
    """(order, segments) for reading a C(v, i) x C(v, k) product class by class.

    `order` holds, for each row subset r in turn, the C(v, k) column indices
    sorted by class, the class of (r, c) being the popcount of the AND of the
    masks of subsets r and c from `_subset_masks`, and ascending within a
    class.  `segments` lists (g, start, stop) for each class g in
    `intersection_range(i, k, v)`: where its C(i, g) * C(v - i, k - g)
    columns sit in every row's slice of `order`.  Raises ParameterError when
    a row's class sizes differ from these, as they do for any class outside
    that range.  A table is kept while its mask lists are the same objects.
    """
    global _class_tables
    row_masks, col_masks = _subset_masks(v, i), _subset_masks(v, k)
    held_v, tables = _class_tables
    if held_v != v:
        tables = {}
        _class_tables = (v, tables)
    held = tables.get((i, k))
    if held is not None and held[0] is row_masks and held[1] is col_masks:
        return held[2], held[3]
    segments, profile = [], []
    for g in intersection_range(i, k, v):
        size = binomial(i, g) * binomial(v - i, k - g)
        segments.append((g, len(profile), len(profile) + size))
        profile += [g] * size
    ncols = len(col_masks)
    order = array("B" if ncols <= 256 else "L")
    for r, row_mask in enumerate(row_masks):
        classes = [(row_mask & col_mask).bit_count() for col_mask in col_masks]
        if sorted(classes) != profile:
            g = next(g for g in range(v + 1) if classes.count(g) != profile.count(g))
            raise ParameterError(
                f"row {r} meets {classes.count(g)} columns in {g} points, not "
                f"{profile.count(g)}, for subset sizes ({i}, {k}) of a {v}-set"
            )
        order.extend(sorted(range(ncols), key=classes.__getitem__))
    tables[(i, k)] = (row_masks, col_masks, order, segments)
    return order, segments


def decompose_product(product: IntMatrix, i: int, k: int, v: int) -> dict[int, int]:
    """Write `product` in the disjoint-support family {H(i,k,g,v)} by reading entries.

    Works because the family members have pairwise disjoint supports: the
    coefficient of H(i,k,g,v) is just the entry value on any pair meeting in
    g points.  The class of an entry (r, c) is the popcount of the AND of
    the bit masks of row subset r and column subset c; the masks come from
    the subsets themselves, not from the intersection matrices, through
    `_class_table`.  Each row is read once, in class order, and compared as
    one list with the row every member of the span has there: each class
    filled with the value of its first entry in row 0, or empty.  Raises
    ParameterError if `product` is not constant on intersection classes,
    i.e. not in the span of the family at all.
    """
    nrows, ncols = binomial(v, i), binomial(v, k)
    if product.shape != (nrows, ncols):
        raise ParameterError(f"shape {product.shape} does not match subset sizes ({i}, {k}) of a {v}-set")
    order, segments = _class_table(v, i, k)
    rows, empty = product._rows, {}
    first = list(map(rows.get(0, empty).get, order[:ncols]))
    values = [first[start] for _, start, _ in segments]
    expected = []
    for (_, start, stop), value in zip(segments, values):
        expected += [value] * (stop - start)
    for r in range(nrows):
        got = list(map(rows.get(r, empty).get, order[r * ncols : (r + 1) * ncols]))
        if got != expected:
            raise _class_fault(got, segments, values, r)
    return {g: value for (g, _, _), value in zip(segments, values) if value is not None}


def _class_fault(got: list, segments: list, values: list, r: int) -> ParameterError:
    """The error for row r, read in class order as `got`, where it differs from row 0."""
    g, start, stop, want = next(
        (g, start, stop, want)
        for (g, start, stop), want in zip(segments, values)
        if got[start:stop] != [want] * (stop - start)
    )
    found = [x for x in got[start:stop] if x is not None]
    held = want if want is not None else found[0]
    other = next((x for x in found if x != held), None)
    if other is not None:
        return ParameterError(
            f"not constant on intersection classes: class {g} holds both {held} and {other}"
        )
    # every pair in class g must carry the value, otherwise part of the class
    # is zero and the matrix is outside the span
    against = "" if r == 0 else f", against {0 if want is None else stop - start} in row 0"
    return ParameterError(
        f"class {g} only partially covered in row {r} ({len(found)} of {stop - start}{against})"
    )


def product_formula_failures(v: int) -> list[dict]:
    """Check every admissible product of two intersection matrices over a v-set.

    For each (i, j, k) and each feasible (l, s), the direct product is
    decomposed by entry reading and compared with `product_expansion`.  The
    loops run over (j, k, s) outside and (i, l) inside, so each right factor
    H(j, k, s, v) serves a run of consecutive products and
    `IntMatrix.__matmul__` packs it once.  Returns machine-readable
    witnesses for any failures, in loop order.
    """
    failures = []
    for j in range(v + 1):
        for k in range(v + 1):
            for s in intersection_range(j, k, v):
                right = intersection_matrix(j, k, s, v)
                for i in range(v + 1):
                    for l in intersection_range(i, j, v):
                        expansion = product_expansion(i, j, k, l, s, v)
                        try:
                            # the product is not bound to a name, so it is
                            # freed before the next one is computed
                            decomposition = decompose_product(
                                intersection_matrix(i, j, l, v) @ right, i, k, v
                            )
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
    return failures
