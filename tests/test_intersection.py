import pytest

from oddterw import (
    HSpec,
    IntMatrix,
    ParameterError,
    binomial,
    decompose_product,
    disjoint_product_expansion,
    intersection_matrix,
    intersection_range,
    product_expansion,
    product_expansion_term,
    product_formula_failures,
)
from oddterw import exactmat


def all_ones(nrows, ncols):
    return IntMatrix(nrows, ncols, {(r, c): 1 for r in range(nrows) for c in range(ncols)})


def combination(coeffs, i, k, v):
    """sum_g coeffs[g] * H(i, k, g, v), entry by entry; the supports must be disjoint."""
    entries = {}
    for g, c in coeffs.items():
        for r, col, _ in intersection_matrix(i, k, g, v).iter_entries():
            assert (r, col) not in entries
            entries[(r, col)] = c
    return IntMatrix(binomial(v, i), binomial(v, k), entries)


def test_singleton_matrices():
    assert intersection_matrix(1, 1, 1, 2) == IntMatrix.identity(2)
    assert intersection_matrix(1, 1, 0, 2) == IntMatrix(2, 2, {(0, 1): 1, (1, 0): 1})


def test_row_sums_count_choices():
    # picking 1 of the 2 elements inside and 1 of the 2 outside: 4 per row
    h = intersection_matrix(2, 2, 1, 4)
    for r in range(h.nrows):
        assert sum(h.row_values(r).values()) == 4


def test_out_of_range_l_gives_zero_matrix():
    assert intersection_matrix(2, 2, -1, 5).is_zero()
    assert intersection_matrix(2, 2, 3, 5).is_zero()
    assert intersection_matrix(2, 3, 0, 5).shape == (10, 10)


def test_parameter_error_when_sizes_exceed_ground():
    with pytest.raises(ParameterError):
        intersection_matrix(3, 1, 1, 2)


def test_nonzero_iff_in_intersection_range():
    for v in range(0, 7):
        for i in range(v + 1):
            for j in range(v + 1):
                rng = intersection_range(i, j, v)
                for l in range(-1, min(i, j) + 2):
                    assert intersection_matrix(i, j, l, v).is_zero() == (l not in rng)


def test_partition_of_all_ones():
    for v in range(0, 6):
        for i in range(v + 1):
            for j in range(v + 1):
                total = combination({l: 1 for l in intersection_range(i, j, v)}, i, j, v)
                assert total == all_ones(binomial(v, i), binomial(v, j))


def test_transpose_symmetry():
    for v in range(0, 6):
        for i in range(v + 1):
            for j in range(v + 1):
                for l in intersection_range(i, j, v):
                    built = intersection_matrix(j, i, l, v)
                    assert intersection_matrix(i, j, l, v).transpose() == built
    # the larger spot check from the module contract
    assert intersection_matrix(2, 3, 1, 5).transpose() == intersection_matrix(3, 2, 1, 5)


def test_hspec_helpers():
    spec = HSpec(2, 3, 1, 5)
    assert spec.shape == (10, 10)
    assert spec.build() == intersection_matrix(2, 3, 1, 5)
    assert "i=2" in spec.label()


def test_expansion_term_zero_when_h_exceeds_g():
    assert product_expansion_term(3, 3, 3, 1, 1, 7, 1, 2) == 0


def test_expansion_term_all_zero_lower_indices():
    # g = i = k, h = l = s = j = i: every binomial reduces to C(., 0) or C(i, i)
    assert product_expansion_term(2, 2, 2, 2, 2, 9, 2, 2) == 1
    assert product_expansion_term(3, 0, 3, 0, 0, 7, 3, 0) == 1


def test_identity_times_identity_expansion():
    assert product_expansion(1, 1, 1, 1, 1, 3) == {1: 1}


def test_expansion_all_zero_when_left_factor_vanishes():
    v = 5
    for (i, j, k, s) in [(2, 1, 2, 0), (1, 2, 2, 1)]:
        l = min(i, j) + 1  # out of range, left factor is the zero matrix
        coeffs = product_expansion(i, j, k, l, s, v)
        total = IntMatrix.zeros(binomial(v, i), binomial(v, k))
        for g, c in coeffs.items():
            total = total + c * intersection_matrix(i, k, g, v)
        assert total.is_zero()
        direct = intersection_matrix(i, j, l, v) @ intersection_matrix(j, k, s, v)
        assert direct.is_zero()


def test_disjoint_expansion_empty_when_l_exceeds_i():
    assert disjoint_product_expansion(2, 3, 2, 3, 7) == {}


def test_disjoint_expansion_matches_general_at_example():
    assert disjoint_product_expansion(2, 1, 2, 1, 5) == product_expansion(2, 1, 2, 1, 0, 5)


def test_squared_disjointness_matrix_against_expansion():
    v = 5
    direct = intersection_matrix(2, 2, 0, v) @ intersection_matrix(2, 2, 0, v)
    coeffs = product_expansion(2, 2, 2, 0, 0, v)
    assert direct == combination(coeffs, 2, 2, v)
    assert decompose_product(direct, 2, 2, v) == coeffs


def test_decompose_product_validates_class_constancy():
    # value differs inside one intersection class
    bad = IntMatrix(binomial(4, 1), binomial(4, 1), {(0, 1): 2, (0, 2): 3})
    with pytest.raises(ParameterError):
        decompose_product(bad, 1, 1, 4)
    # class only partially covered
    partial = IntMatrix(binomial(4, 1), binomial(4, 1), {(0, 1): 2})
    with pytest.raises(ParameterError):
        decompose_product(partial, 1, 1, 4)
    with pytest.raises(ParameterError):
        decompose_product(IntMatrix.zeros(3, 3), 1, 1, 4)  # wrong shape


def test_decompose_product_reads_identity():
    assert decompose_product(IntMatrix.identity(4), 1, 1, 4) == {1: 1}


@pytest.mark.parametrize("v", range(0, 6))
def test_product_formula_sweep_small(v):
    assert product_formula_failures(v) == []


def test_product_sweep_packs_each_right_factor_once(monkeypatch):
    # the sweep's loop order gives each H(j, k, s, v) one run of products,
    # so the kernel packs it once: one packing per distinct (j, k, s)
    v = 6
    original = exactmat._packed_rows
    packed = []

    def counting(matrix, width):
        before = exactmat._last_packed
        rows = original(matrix, width)
        if exactmat._last_packed is not before:
            packed.append(matrix)
        return rows

    monkeypatch.setattr(exactmat, "_last_packed", (None, 0, []))
    monkeypatch.setattr(exactmat, "_packed_rows", counting)
    assert product_formula_failures(v) == []
    rights = [
        intersection_matrix(j, k, s, v)
        for j in range(v + 1)
        for k in range(v + 1)
        for s in intersection_range(j, k, v)
    ]
    assert len(packed) == len(rights)
    assert all(got is want for got, want in zip(packed, rights))


def test_direct_matrix_reconstruction_small():
    # independent of the decomposition path: rebuild each product from the
    # expansion and compare matrices entry-exactly
    for v in range(0, 5):
        for i in range(v + 1):
            for j in range(v + 1):
                for k in range(v + 1):
                    for l in intersection_range(i, j, v):
                        for s in intersection_range(j, k, v):
                            direct = intersection_matrix(i, j, l, v) @ intersection_matrix(j, k, s, v)
                            expansion = product_expansion(i, j, k, l, s, v)
                            assert direct == combination(expansion, i, k, v)
