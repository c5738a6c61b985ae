import itertools

import pytest

from oddterw import (
    HSpec,
    IntMatrix,
    ParameterError,
    SubsetIndex,
    binomial,
    decompose_product,
    intersection_matrix,
    intersection_range,
    product_expansion,
    product_formula_failures,
)
from oddterw import exactmat, intersection
from oddterw.cli import SWEEP_MAX_LARGE
from paper_readings import (
    class_data_by_row_maps,
    decompose_product_entrywise,
    disjoint_product_expansion,
    intersection_matrix_by_sorted_tuples,
    product_expansion_term,
)


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


def test_matches_a_brute_force_filter_over_subset_pairs():
    # entry (y, z) is 1 exactly when |y ∩ z| = l, each subset ranked by its place in subsets()
    for v in range(0, 7):
        for i in range(v + 1):
            rows = SubsetIndex(v, i).subsets()
            for j in range(v + 1):
                cols = SubsetIndex(v, j).subsets()
                for l in range(-1, min(i, j) + 2):
                    entries = {
                        (r, c): 1
                        for r, y in enumerate(rows)
                        for c, z in enumerate(cols)
                        if len(set(y) & set(z)) == l
                    }
                    assert intersection_matrix(i, j, l, v) == IntMatrix(len(rows), len(cols), entries)


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
    assert spec.build().shape == (10, 10)
    assert spec.build() == intersection_matrix(2, 3, 1, 5)
    assert "i=2" in spec.label()


def test_expansion_term_zero_when_h_exceeds_g():
    assert product_expansion_term(3, 3, 3, 1, 1, 7, 1, 2) == 0


def test_expansion_term_all_zero_lower_indices():
    # g = i = k, h = l = s = j = i: every binomial reduces to C(., 0) or C(i, i)
    assert product_expansion_term(2, 2, 2, 2, 2, 9, 2, 2) == 1
    assert product_expansion_term(3, 0, 3, 0, 0, 7, 3, 0) == 1


def test_expansion_sums_every_term_it_can_skip():
    # the feasible (g, h) only against the literal sum over g = 0..min(i, k)
    # and h = 0..g under the zero convention, at every v <= 10, with l and s
    # each from one below to one above its feasible range
    for v in range(11):
        for i, j, k in itertools.product(range(v + 1), repeat=3):
            ls, ss = intersection_range(i, j, v), intersection_range(j, k, v)
            for l in range(ls.start - 1, ls.stop + 1):
                for s in range(ss.start - 1, ss.stop + 1):
                    literal = {}
                    for g in range(min(i, k) + 1):
                        c = sum(product_expansion_term(i, j, k, l, s, v, g, h) for h in range(g + 1))
                        if c:
                            literal[g] = c
                    assert list(product_expansion(i, j, k, l, s, v).items()) == list(literal.items()), (
                        i, j, k, l, s, v
                    )


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


def test_disjoint_expansion_is_the_general_formula_at_s_0():
    # every (i, j, k, l) at every ground size a `products` sweep can reach
    for v in range(SWEEP_MAX_LARGE + 1):
        for i, j, k in itertools.product(range(v + 1), repeat=3):
            for l in intersection_range(i, j, v):
                general = product_expansion(i, j, k, l, 0, v)
                assert disjoint_product_expansion(i, j, k, l, v) == general, (i, j, k, l, v)


def test_squared_disjointness_matrix_against_expansion():
    v = 5
    direct = intersection_matrix(2, 2, 0, v) @ intersection_matrix(2, 2, 0, v)
    coeffs = product_expansion(2, 2, 2, 0, 0, v)
    assert direct == combination(coeffs, 2, 2, v)
    assert decompose_product(direct, 2, 2, v) == coeffs


def complement_masks(monkeypatch):
    original = intersection._subset_masks
    monkeypatch.setattr(
        intersection, "_subset_masks", lambda v, size: [((1 << v) - 1) ^ mask for mask in original(v, size)]
    )


def doubled_patterns(monkeypatch):
    # every class pattern at twice its value: a class-constant row then
    # differs from the pattern row 0 gives it
    original = intersection._class_data

    def doubled(v, i, k, width):
        firsts, patterns = original(v, i, k, width)
        return firsts, {g: [2 * word for word in words] for g, words in patterns.items()}

    monkeypatch.setattr(intersection, "_class_data", doubled)


def test_decompose_product_reads_classes_from_the_current_masks(monkeypatch):
    # complement masks move each class g of a product with (i, k) = (1, 2)
    # at v = 4 to g + 1, leaving class 0 empty and class 2 outside the range,
    # which `_class_data` refuses once its cache is empty; the data of the
    # real masks still serve
    product = intersection_matrix(1, 2, 1, 4) @ intersection_matrix(2, 2, 2, 4)
    assert decompose_product(product, 1, 2, 4) == {1: 1}
    monkeypatch.setattr(intersection, "_class_data_held", (None, {}))
    complement_masks(monkeypatch)
    with pytest.raises(ParameterError, match="row 0 meets 0 columns in 0 points, not 3"):
        decompose_product(product, 1, 2, 4)
    monkeypatch.undo()
    assert decompose_product(product, 1, 2, 4) == {1: 1}


def test_decompose_product_reads_identity():
    assert decompose_product(IntMatrix.identity(4), 1, 1, 4) == {1: 1}


IDENTITY_4 = {(r, r): 1 for r in range(4)}


@pytest.mark.parametrize(
    "matrix, i, k, v, fault, text",
    [
        (IntMatrix(4, 4, {(0, 1): 2, (0, 2): 3}), 1, 1, 4, None,
         "not constant on intersection classes: class 0 holds both 2 and 3"),
        (IntMatrix(4, 4, {(0, 1): 2}), 1, 1, 4, None,
         "class 0 only partially covered in row 0 (1 of 3)"),
        (IntMatrix(4, 4, {key: 1 for key in IDENTITY_4 if key != (2, 2)}), 1, 1, 4, None,
         "class 1 only partially covered in row 2 (0 of 1, against 1 in row 0)"),
        (IntMatrix(4, 4, {**IDENTITY_4, (2, 0): 1}), 1, 1, 4, None,
         "class 0 only partially covered in row 2 (1 of 3, against 0 in row 0)"),
        (intersection_matrix(1, 2, 1, 4), 1, 2, 4, complement_masks,
         "row 0 meets 0 columns in 0 points, not 3, for subset sizes (1, 2) of a 4-set"),
        (IntMatrix(4, 4, IDENTITY_4), 1, 1, 4, doubled_patterns,
         "row 0 reads class-constant but differs from its class pattern"),
        (IntMatrix(4, 4, IDENTITY_4), 1, 2, 4, None,
         "shape (4, 4) does not match subset sizes (1, 2) of a 4-set"),
        (IntMatrix.zeros(3, 3), 1, 1, 4, None,
         "shape (3, 3) does not match subset sizes (1, 1) of a 4-set"),
    ],
    ids=["holds-both", "partial-in-row-0", "partial-in-a-later-row", "stray-in-a-later-row",
         "class-sizes", "class-pattern", "shape", "shape-of-a-zero-matrix"],
)
def test_decompose_product_error_texts(monkeypatch, matrix, i, k, v, fault, text):
    # the full text of every way `decompose_product` refuses a matrix, read
    # from the dict rows and from the packed rows alike
    monkeypatch.setattr(intersection, "_class_data_held", (None, {}))
    if fault is not None:
        fault(monkeypatch)
    for held in (matrix, packed_copy(matrix)):
        with pytest.raises(ParameterError) as raised:
            decompose_product(held, i, k, v)
        assert str(raised.value) == text


def test_decompose_product_reads_negative_class_values(monkeypatch):
    # row 0 holds -1 below three 5s: each digit is read with every lower
    # field biased, so the -1 borrows nothing from the 5 above it
    monkeypatch.setattr(intersection, "_class_data_held", (None, {}))
    matrix = IntMatrix(4, 4, {(r, c): -1 if r == c else 5 for r in range(4) for c in range(4)})
    for held in (matrix, packed_copy(matrix)):
        assert decompose_product(held, 1, 1, 4) == {0: 5, 1: -1}


def rows_in_order(matrix):
    """The rows of `matrix` with their entries, both in key order."""
    return [(r, list(row.items())) for r, row in matrix._rows.items()]


def test_matrices_and_class_data_equal_the_sorted_tuple_and_row_map_readings(monkeypatch):
    # the mask-ranked build and the one-pass class data against the readings
    # they replaced: every matrix, row and key order included, and every
    # class datum, at every v <= 9 and every field width
    for v in range(10):
        for i, j in itertools.product(range(v + 1), repeat=2):
            for l in intersection_range(i, j, v):
                want = intersection_matrix_by_sorted_tuples(i, j, l, v)
                got = intersection_matrix.__wrapped__(i, j, l, v)
                assert got.shape == want.shape and rows_in_order(got) == rows_in_order(want), (i, j, l, v)
        for k in range(v + 1):
            monkeypatch.setattr(intersection, "_class_data_held", (None, {}))
            for i, width in itertools.product(range(v + 1), (8, 16, 32, 64)):
                firsts, patterns = intersection._class_data(v, i, k, width)
                want_firsts, want_patterns = class_data_by_row_maps(v, i, k, width)
                assert list(firsts.items()) == list(want_firsts.items()), (v, i, k, width)
                assert list(patterns.items()) == list(want_patterns.items()), (v, i, k, width)


def faulty_copies(product):
    """Copies of `product` with one entry changed, one entry dropped, one stray
    entry where its first nonzero row is zero, and that row removed."""
    entries = {(r, c): x for r, c, x in product.iter_entries()}
    if not entries:
        return
    r, c = min(entries)
    shape = product.shape
    yield IntMatrix(*shape, {**entries, (r, c): entries[(r, c)] + 1})
    yield IntMatrix(*shape, {key: x for key, x in entries.items() if key != (r, c)})
    empty = next((col for col in range(shape[1]) if (r, col) not in entries), None)
    if empty is not None:
        yield IntMatrix(*shape, {**entries, (r, empty): 1})
    yield IntMatrix(*shape, {key: x for key, x in entries.items() if key[0] != r})


def decomposed(decompose, product, i, k, v):
    """The coefficients, or ("raises", the error text)."""
    try:
        return decompose(product, i, k, v)
    except ParameterError as exc:
        return "raises", str(exc)


def packed_copy(matrix):
    """`matrix` held packed, as a product of the kernel is."""
    return IntMatrix._wrap(*matrix.shape, matrix._packed_form())


@pytest.mark.parametrize("v", range(0, 7))
def test_decompose_product_agrees_with_the_entrywise_oracle(v):
    # every product of the sweep at v, and four faulty copies of each: the
    # packed comparison and the entry-by-entry oracle agree, in the
    # coefficients or in raising, and each input reads the same, coefficients
    # or error text, held packed at the kernel's width and held as row dicts
    faults = raised = 0
    for i, j, k in itertools.product(range(v + 1), repeat=3):
        for l in intersection_range(i, j, v):
            for s in intersection_range(j, k, v):
                product = intersection_matrix(i, j, l, v) @ intersection_matrix(j, k, s, v)
                held = product._store
                assert type(held) is tuple  # every product of the sweep is nonzero, so held packed
                packed = decompose_product(product, i, k, v)
                assert product._store is held
                want = decompose_product_entrywise(product, i, k, v)  # reads the rows
                assert type(product._store) is dict
                assert decompose_product(product, i, k, v) == packed == want == product_expansion(i, j, k, l, s, v)
                for copy in faulty_copies(product):
                    got = decomposed(decompose_product, copy, i, k, v)
                    assert decomposed(decompose_product, packed_copy(copy), i, k, v) == got
                    oracle = decomposed(decompose_product_entrywise, copy, i, k, v)
                    failed = type(got) is tuple
                    assert failed == (type(oracle) is tuple) and (failed or got == oracle), (i, j, k, l, s)
                    faults += 1
                    raised += failed
    # every ground size from 2 on has products with two rows and two columns,
    # and most faulty copies then leave the span
    assert v < 2 or raised > faults / 2


@pytest.mark.parametrize("v", range(0, 6))
def test_product_formula_sweep_small(v):
    assert product_formula_failures(v) == []


def test_decompose_product_leaves_a_sweep_product_packed():
    product = intersection_matrix(2, 3, 1, 6) @ intersection_matrix(3, 2, 2, 6)
    held = product._store
    assert decompose_product(product, 2, 2, 6) == product_expansion(2, 3, 2, 1, 2, 6)
    assert product._store is held


def test_sweep_holds_the_class_patterns_of_one_column_size(monkeypatch):
    # the loops take k outermost, so each (v, k) replaces the class data of the last
    monkeypatch.setattr(intersection, "_class_data_held", (None, {}))
    assert product_formula_failures(6) == []
    key, held = intersection._class_data_held
    assert key == (6, 6)
    assert set(held) == {(i, 8) for i in range(7)}


def test_sweep_to_v8_holds_the_class_data_of_its_last_column_size_only(monkeypatch):
    # one slot for every (v, i, k): after v = 8 it holds the data of (8, 8)
    # alone, one entry per row size, each keyed by class, without a per-row map
    monkeypatch.setattr(intersection, "_class_data_held", (None, {}))
    assert product_formula_failures(8) == []
    key, held = intersection._class_data_held
    assert key == (8, 8)
    assert set(held) == {(i, 8) for i in range(9)}
    for (i, _), (firsts, patterns) in held.items():
        assert firsts == {i: 0}
        assert patterns == {i: [1] * binomial(8, i)}


def test_product_sweep_packs_each_right_factor_once(monkeypatch):
    # the sweep's loop order, (k, j, s) outside and (i, l) inside, gives each
    # H(j, k, s, v) one run of products, so the kernel packs it once: one
    # packing per distinct (j, k, s)
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
        for k in range(v + 1)
        for j in range(v + 1)
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
