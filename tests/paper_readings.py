"""Second transcriptions of two of the paper's formulas, kept only as test oracles.

The library states each fact once: the generator family by one rule over
part sizes (`block_generators`), and products of intersection matrices by
one closed form (`product_expansion`).  The paper states both a second way,
transcribed here so the tests can hold the library's one reading against it:

* `block_generators_by_parity` lists the basis case by case on the
  parities of the row and column classes, as the paper does;
* `disjoint_product_expansion` is the closed form for multiplying by a
  disjointness matrix H(j, k, 0, v), the products Levstein and Maldonado's
  method for J(n, m) is built on.
"""

from oddterw import BlockGenerator, HSpec, binomial, intersection_range


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
