"""Second readings of the paper, kept only as test oracles.

The library states each fact once: the generator family by one rule over
part sizes (`block_generators`), products of intersection matrices by one
closed form (`product_expansion`), a product's coefficients in the
family {H(i, k, g, v)} by one class-ordered read per row
(`decompose_product`), and each row of the block dimension sum in closed
form (`_block_row_sum`).  Each is stated a second way here, so the tests
can hold the library's one reading against it:

* `block_generators_by_parity` lists the basis case by case on the
  parities of the row and column classes, as the paper does;
* `product_expansion_term` is one (g, h) summand of the closed form as
  the paper writes it, every binomial under the zero convention of
  `binomial`, so the literal sum over h = 0..g can be held against
  `product_expansion`, which sums the feasible h only;
* `disjoint_product_expansion` is the closed form for multiplying by a
  disjointness matrix H(j, k, 0, v), the products Levstein and Maldonado's
  method for J(n, m) is built on;
* `_range_tail` lists |intersection_range(i, j, v)| for j = i..v, the
  factors whose products `_block_row_sum` sums in closed form;
* `decompose_product_entrywise` reads a product one entry at a time, the
  class of each entry from its two subsets, and counts every class against
  C(v, i) * C(i, g) * C(v - i, k - g);
* `intersection_matrix_by_sorted_tuples` builds H(i, j, l, v) by ranking
  each column's sorted element tuple, where `intersection_matrix` ranks
  its bit mask;
* `class_data_by_row_maps` builds the class data of `_class_data` from
  one {class: columns} map per row, packed by the kernel's `_pack`, where
  `_class_data` adds each column's field into its class's word in one
  pass.
"""

from itertools import combinations, repeat

from oddterw import BlockGenerator, HSpec, IntMatrix, ParameterError, SubsetIndex, binomial, intersection_range
from oddterw.exactmat import _pack


def _family(block, left_ij_v, right_ij_v) -> list[BlockGenerator]:
    li, lj, lv = left_ij_v
    ri, rj, rv = right_ij_v
    return [
        BlockGenerator(block, HSpec(li, lj, l, lv), HSpec(ri, rj, s, rv))
        for l in intersection_range(li, lj, lv)
        for s in intersection_range(ri, rj, rv)
    ]


def block_generators_by_parity(m: int) -> list[BlockGenerator]:
    """The paper's basis, one pattern for each parity of the block (p, q)."""
    gens = []
    half_up = (m + 1) // 2
    half_down = m // 2
    for i in range(half_down + 1):  # even row class 2i
        for j in range(half_down + 1):  # even column class 2j
            gens += _family((2 * i, 2 * j), (m - i, m - j, m), (i, j, m + 1))
        for j in range(half_up):  # odd column class 2j+1
            gens += _family((2 * i, 2 * j + 1), (m - i, j, m), (i, m - j, m + 1))
    for i in range(half_up):  # odd row class 2i+1
        for j in range(half_down + 1):
            gens += _family((2 * i + 1, 2 * j), (i, m - j, m), (m - i, j, m + 1))
        for j in range(half_up):
            gens += _family((2 * i + 1, 2 * j + 1), (i, j, m), (m - i, m - j, m + 1))
    return gens


def product_expansion_term(i: int, j: int, k: int, l: int, s: int, v: int, g: int, h: int) -> int:
    """One (g, h) summand of the product-expansion coefficient."""
    return (
        binomial(g, h)
        * binomial(i - g, l - h)
        * binomial(k - g, s - h)
        * binomial(v + g - i - k, j + h - l - s)
    )


def disjoint_product_expansion(i: int, j: int, k: int, l: int, v: int) -> dict[int, int]:
    """Coefficients c_g with H(i,j,l,v) @ H(j,k,0,v) = sum_g c_g * H(i,k,g,v).

    Only nonzero coefficients appear in the returned map.
    """
    out = {}
    for g in range(max(0, i + j + k - l - v), min(i - l, k) + 1):
        c = binomial(i - g, l) * binomial(v + g - i - k, j - l)
        if c:
            out[g] = c
    return out


def decompose_product_entrywise(product, i: int, k: int, v: int) -> dict[int, int]:
    """Coefficients c_g with `product` = sum_g c_g * H(i,k,g,v), read entry by entry.

    Raises ParameterError when the product is not constant on intersection
    classes or covers a class only in part.
    """
    if product.shape != (binomial(v, i), binomial(v, k)):
        raise ParameterError(f"shape {product.shape} does not match ({i}, {k}, {v})")
    row_sets = [set(y) for y in SubsetIndex(v, i).subsets()]
    col_sets = [set(z) for z in SubsetIndex(v, k).subsets()]
    values, counts = {}, {}
    for r, c, value in product.iter_entries():
        g = len(row_sets[r] & col_sets[c])
        if values.setdefault(g, value) != value:
            raise ParameterError(f"class {g} holds both {values[g]} and {value}")
        counts[g] = counts.get(g, 0) + 1
    for g, count in counts.items():
        if count != binomial(v, i) * binomial(i, g) * binomial(v - i, k - g):
            raise ParameterError(f"class {g} only partially covered")
    return values


def _range_tail(i: int, v: int) -> list[int]:
    """|intersection_range(i, j, v)| for j = i..v, that is min(i, v - j) + 1.

    For j >= i, min(i, j, v - i, v - j) is min(i, v - j): the tail holds
    i + 1 while j <= v - i, then falls to 1.
    """
    return [*repeat(i + 1, v + 1 - 2 * i), *range(min(i, v + 1 - i), 0, -1)]


def intersection_matrix_by_sorted_tuples(i: int, j: int, l: int, v: int) -> IntMatrix:
    """H(i, j, l, v), each column of row y ranked by the sorted tuple of l
    elements of y and j - l elements outside it, in the same key order as
    `intersection_matrix`."""
    rows_index = SubsetIndex(v, i)
    if l < 0 or l > min(i, j):
        return IntMatrix.zeros(rows_index.count, binomial(v, j))
    index = SubsetIndex(v, j)
    col_rank = {subset: index.rank(subset) for subset in index.subsets()}
    rows = {}
    for r, y in enumerate(rows_index.subsets()):
        complement = [e for e in range(v) if e not in y]
        row = {}
        for inside in combinations(y, l):
            for outside in combinations(complement, j - l):
                row[col_rank[tuple(sorted(inside + outside))]] = 1
        if row:
            rows[r] = row
    return IntMatrix._wrap(rows_index.count, index.count, rows)


def class_data_by_row_maps(v: int, i: int, k: int, width: int) -> tuple:
    """(firsts, patterns) as `_class_data` returns them, for a sound (v, i, k):
    each row's classes read as one {class: its columns} map, and row r of
    every class's pattern packed from those maps by `_pack`."""
    row_masks = [sum(1 << e for e in y) for y in SubsetIndex(v, i).subsets()]
    col_masks = [sum(1 << e for e in z) for z in SubsetIndex(v, k).subsets()]
    classes_of = intersection_range(i, k, v)
    patterns = {g: [] for g in classes_of}
    for r, row_mask in enumerate(row_masks):
        classes = {}
        for c, col_mask in enumerate(col_masks):
            classes.setdefault((row_mask & col_mask).bit_count(), []).append(c)
        if r == 0:
            firsts = {g: classes[g][0] for g in classes_of}
        for g, word in _pack({g: dict.fromkeys(classes[g], 1) for g in classes_of}, width, {}).items():
            patterns[g].append(word)
    return firsts, patterns
