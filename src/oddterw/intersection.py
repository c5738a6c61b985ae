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
`IntMatrix.__matmul__`, then `decompose_product` checks every entry of the
product, one row at a time, without reading it back: each row, packed as
the kernel built it, is compared as one integer with the row every member
of the span holds there, the class values read from row 0 times the class
patterns of that row.  The class of entry (r, c) is the popcount of the
AND of the bit masks of subsets r and c, taken from `SubsetIndex.subsets()`
and not from the intersection matrices, so a wrong `intersection_matrix`
cannot vouch for itself.  Each row's classes are read as one map,
{class: its columns}.  The class data of each (v, i, k) and field width,
keyed by class, the first column of each class in row 0 and the packed
class patterns, is built from those maps once and kept for one (v, k) at a
time; no row's map is kept, and a faulty row's map is read from the masks
again.  The loops take (k, j, s) outside and (i, l) inside: each right
factor H(j, k, s, v) then serves a run of consecutive products, and the
kernel packs it once for the whole run, and every i of one k comes before
the next k.

All functions here are safe for unsynchronized concurrent use.  The one
module-level cache, the class data of the last (v, k), only gains entries
or is replaced whole, so concurrent callers at worst build an entry twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul

from .combinatorics import SubsetIndex, binomial, intersection_range
from .errors import ParameterError
from .exactmat import IntMatrix, _pack, _read_back


@dataclass(frozen=True)
class HSpec:
    """Label for one intersection matrix: i-subsets x j-subsets of a v-set, meeting in l points."""

    i: int
    j: int
    l: int
    v: int

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


def _row_classes(row_mask: int, col_masks: list[int]) -> dict[int, list[int]]:
    """{class g: its columns, ascending} for one row: the class of a column
    is the popcount of the AND of the two subsets' masks."""
    classes = {}
    for c, col_mask in enumerate(col_masks):
        classes.setdefault((row_mask & col_mask).bit_count(), []).append(c)
    return classes


# The class data of one (v, k): ((v, k), {(i, W): (firsts, patterns)}).
# Data for another (v, k) replaces the pair whole, so the sweep, which runs
# every i inside each k, holds one column size's data at a time.
_class_data_held: tuple = (None, {})


def _class_data(v: int, i: int, k: int, width: int) -> tuple:
    """(firsts, patterns) for reading a C(v, i) x C(v, k) product class by class.

    Both are keyed by the classes g of `intersection_range(i, k, v)`, in
    ascending order.  `firsts[g]` is the first column of class g in row 0.
    `patterns[g]` holds one item per row r: row r of the 0/1 matrix M[g]
    that is 1 exactly on class g, packed at `width` by `_pack`, so a member
    of the span with value x_g on class g packs to sum_g x_g * M[g][r] in
    row r.  The classes of each row are read from the masks of
    `_subset_masks` (`_row_classes`).  Raises ParameterError when a row's
    class sizes differ from C(i, g) * C(v - i, k - g), as they do for any
    class outside that range.
    """
    global _class_data_held
    key, held = _class_data_held
    if key != (v, k):
        held = {}
        _class_data_held = ((v, k), held)
    data = held.get((i, width))
    if data is not None:
        return data
    sizes = {g: binomial(i, g) * binomial(v - i, k - g) for g in intersection_range(i, k, v)}
    col_masks = _subset_masks(v, k)
    patterns = {g: [] for g in sizes}
    for r, row_mask in enumerate(_subset_masks(v, i)):
        classes = _row_classes(row_mask, col_masks)
        g = next((g for g in range(v + 1) if len(classes.get(g, ())) != sizes.get(g, 0)), None)
        if g is not None:
            raise ParameterError(
                f"row {r} meets {len(classes.get(g, ()))} columns in {g} points, not "
                f"{sizes.get(g, 0)}, for subset sizes ({i}, {k}) of a {v}-set"
            )
        if r == 0:
            firsts = {g: classes[g][0] for g in sizes}
        # row r of every class's pattern, packed as the rows of one matrix
        for g, word in _pack({g: dict.fromkeys(classes[g], 1) for g in sizes}, width, {}).items():
            patterns[g].append(word)
    data = held[(i, width)] = (firsts, patterns)
    return data


def decompose_product(product: IntMatrix, i: int, k: int, v: int) -> dict[int, int]:
    """Write `product` in the disjoint-support family {H(i,k,g,v)} by reading entries.

    Works because the family members have pairwise disjoint supports: the
    coefficient of H(i,k,g,v) is just the entry value on any pair meeting in
    g points.  The class of an entry (r, c) is the popcount of the AND of
    the bit masks of row subset r and column subset c; the masks come from
    the subsets themselves, not from the intersection matrices, through
    `_class_data`.  The value x_g of class g is read from row 0, at the
    first column of that class.

    Every row is then compared whole, as one integer: the product's packed
    row (`IntMatrix._packed_form`, one W-bit field per column) against
    sum_g x_g * M[g][r], where M[g][r] has a 1 in the field of every column
    of class g in row r.  Every |entry| is below 2**(W-1), so the
    signed base-2**W digits are unique and equal integers mean equal rows:
    every entry is compared.  A product of `IntMatrix.__matmul__` is read
    in the packing the kernel built and is left packed; a row that differs
    is read back, and its classes read from the masks again, only to name
    the fault.  Raises ParameterError if `product` is not constant on
    intersection classes, i.e. not in the span of the family at all.
    """
    nrows, ncols = binomial(v, i), binomial(v, k)
    if product.shape != (nrows, ncols):
        raise ParameterError(f"shape {product.shape} does not match subset sizes ({i}, {k}) of a {v}-set")
    width, packed = product._packed_form()
    firsts, patterns = _class_data(v, i, k, width)
    first = _read_back(width, {0: packed.get(0, 0)}, ncols)[0]
    values = {g: first.get(c) for g, c in firsts.items()}
    expected = [0] * nrows  # sum_g x_g * M[g][r] for each row r
    for g, value in values.items():
        if value is not None:
            pattern = patterns[g]
            scaled = pattern if value == 1 else map(mul, pattern, itertools.repeat(value))
            expected = list(map(add, expected, scaled))
    got = list(map(packed.get, range(nrows), itertools.repeat(0)))
    if got != expected:
        r = next(r for r, (x, y) in enumerate(zip(got, expected)) if x != y)
        row = _read_back(width, {r: got[r]}, ncols)[r]
        raise _class_fault(row, _row_classes(_subset_masks(v, i)[r], _subset_masks(v, k)), values, r)
    return {g: value for g, value in values.items() if value is not None}


def _class_fault(row: dict, classes: dict, values: dict, r: int) -> ParameterError:
    """The error for row r, read back as `row` and split by `classes`, where
    it differs from the class values `values` read in row 0."""
    for g, want in values.items():
        got = list(map(row.get, classes[g]))
        if got != [want] * len(got):
            break
    else:  # only a wrong class pattern gets here
        return ParameterError(f"row {r} reads class-constant but differs from its class pattern")
    found = [x for x in got if x is not None]
    held = want if want is not None else found[0]
    other = next((x for x in found if x != held), None)
    if other is not None:
        return ParameterError(
            f"not constant on intersection classes: class {g} holds both {held} and {other}"
        )
    # every pair in class g must carry the value, otherwise part of the class
    # is zero and the matrix is outside the span
    against = "" if r == 0 else f", against {0 if want is None else len(got)} in row 0"
    return ParameterError(
        f"class {g} only partially covered in row {r} ({len(found)} of {len(got)}{against})"
    )


def product_formula_failures(v: int) -> list[dict]:
    """Check every admissible product of two intersection matrices over a v-set.

    For each (i, j, k) and each feasible (l, s), the direct product is
    decomposed by `decompose_product`, which compares each packed row of
    it with the class pattern of its row 0 as one integer, and compared
    with `product_expansion`.  The loops run over (k, j, s) outside and
    (i, l) inside: each right factor H(j, k, s, v) serves a run of
    consecutive products and `IntMatrix.__matmul__` packs it once, and
    every product of one column size k comes before the next k, so the
    class data are kept for one (v, k) at a time.  Returns
    machine-readable witnesses for any failures, in that loop order: by k,
    then j, s, i and l.
    """
    failures = []
    for k in range(v + 1):
        for j in range(v + 1):
            for s in intersection_range(j, k, v):
                right = intersection_matrix(j, k, s, v)
                for i in range(v + 1):
                    for l in intersection_range(i, j, v):
                        try:
                            # the product is not bound to a name, so it is
                            # freed before the next one is computed
                            decomposition = decompose_product(
                                intersection_matrix(i, j, l, v) @ right, i, k, v
                            )
                        except ParameterError as exc:
                            kind, found = "product_not_class_constant", {"detail": str(exc)}
                        else:
                            expansion = product_expansion(i, j, k, l, s, v)
                            if decomposition == expansion:
                                continue
                            kind = "expansion_mismatch"
                            found = {"expansion": expansion, "decomposition": decomposition}
                        failures.append({"kind": kind, "v": v, "i": i, "j": j, "k": k, "l": l, "s": s, **found})
    return failures
