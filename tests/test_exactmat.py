import io
import random
import re
from fractions import Fraction

import pytest

from dense_oracle import dense, dense_from_matrix_market, dense_matmul
from oddterw import (
    DEFAULT_PRIMES,
    EliminationDivergenceError,
    IntMatrix,
    MatrixSpace,
    OddGraph,
    ParameterError,
    ShapeError,
    is_prime,
    kron,
    write_matrix_market,
)
from oddterw import exactmat
from oddterw.oddgraph import DEFAULT_MAX_M


def random_entries(rng, nrows, ncols, density=0.5, lo=-5, hi=5):
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                entries[(r, c)] = rng.randint(lo, hi)
    return entries


def random_matrix(rng, nrows, ncols, density=0.5, lo=-5, hi=5):
    return IntMatrix(nrows, ncols, random_entries(rng, nrows, ncols, density, lo, hi))


def test_identity_is_neutral():
    rng = random.Random(1)
    m = random_matrix(rng, 3, 3)
    assert IntMatrix.identity(3) @ m == m
    assert m @ IntMatrix.identity(3) == m


def test_swap_matrix_squares_to_identity():
    swap = IntMatrix(2, 2, {(0, 1): 1, (1, 0): 1})
    assert swap @ swap == IntMatrix.identity(2)


def test_matmul_associative_and_distributive():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 8)
        a = random_matrix(rng, n, n)
        eb, ec = random_entries(rng, n, n), random_entries(rng, n, n)
        b, c = IntMatrix(n, n, eb), IntMatrix(n, n, ec)
        b_plus_c = IntMatrix(n, n, {k: eb.get(k, 0) + ec.get(k, 0) for k in eb.keys() | ec.keys()})
        assert (a @ b) @ c == a @ (b @ c)
        # distributivity, entry by entry: vectorize keeps one value per coordinate
        for product, left, right in ((a @ b_plus_c, a @ b, a @ c), (b_plus_c @ a, b @ a, c @ a)):
            lv, rv = left.vectorize(), right.vectorize()
            summed = {k: lv.get(k, 0) + rv.get(k, 0) for k in lv.keys() | rv.keys()}
            assert product.vectorize() == {k: v for k, v in summed.items() if v}


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)


def test_kron_identities_and_shape():
    assert kron(IntMatrix.identity(2), IntMatrix.identity(3)) == IntMatrix.identity(6)
    rng = random.Random(3)
    a = random_matrix(rng, 2, 4)
    b = random_matrix(rng, 3, 5)
    assert kron(a, b).shape == (6, 20)


def test_kron_index_convention():
    a = IntMatrix(2, 2, {(0, 0): 2, (1, 1): 3})
    b = IntMatrix(1, 2, {(0, 0): 5, (0, 1): 7})
    k = kron(a, b)
    # out[ra*b.nrows + rb, ca*b.ncols + cb] = a[ra,ca] * b[rb,cb]
    assert k.entry(0, 0) == 10 and k.entry(0, 1) == 14
    assert k.entry(1, 2) == 15 and k.entry(1, 3) == 21


def random_sparse(rng, nrows, ncols):
    # about a third of the rows empty, values of both signs
    entries = {
        (r, c): rng.choice((-3, -1, 2, 5))
        for r in range(nrows)
        if rng.random() < 0.65
        for c in range(ncols)
        if rng.random() < 0.5
    }
    return IntMatrix(nrows, ncols, entries)


def dense_kron(a, b):
    # the textbook triple loop on dense lists: out[ra*q + rb][ca*s + cb] = a[ra][ca] * b[rb][cb]
    (n, m), (q, s) = a.shape, b.shape
    da, db = dense(a), dense(b)
    out = [[0] * (m * s) for _ in range(n * q)]
    for ra in range(n):
        for rb in range(q):
            for ca in range(m):
                for cb in range(s):
                    out[ra * q + rb][ca * s + cb] = da[ra][ca] * db[rb][cb]
    return out


def test_kron_matches_dense_triple_loop():
    rng = random.Random(17)
    for trial in range(40):
        a = random_sparse(rng, rng.randint(1, 6), rng.randint(1, 6))
        b = random_sparse(rng, rng.randint(1, 6), rng.randint(1, 6))
        if trial % 8 == 0:
            a = IntMatrix.zeros(*a.shape)
        elif trial % 8 == 1:
            b = IntMatrix.zeros(*b.shape)
        k = kron(a, b)
        expected = dense_kron(a, b)
        assert dense(k) == expected
        # no stored zeros or empty rows
        entries = {(r, c): v for r, row in enumerate(expected) for c, v in enumerate(row)}
        assert k == IntMatrix(*k.shape, entries)


def assert_matmul_matches_dense(a, b):
    before = (a.shape, list(a.iter_entries()), b.shape, list(b.iter_entries()))
    product = a @ b
    assert product.shape == (a.nrows, b.ncols)
    assert dense(product) == dense_matmul(dense(a), dense(b), b.ncols)
    # no stored zeros or empty rows, and both operands left as they were
    assert all(row and all(row.values()) for row in product._rows.values())
    assert before == (a.shape, list(a.iter_entries()), b.shape, list(b.iter_entries()))
    return product


def test_matmul_matches_dense_triple_loop():
    rng = random.Random(43)
    for trial in range(60):
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a, b = random_sparse(rng, n, k), random_sparse(rng, k, m)
        if trial % 10 == 0:
            a = IntMatrix.zeros(n, k)
        elif trial % 10 == 1:
            b = IntMatrix.zeros(k, m)
        assert_matmul_matches_dense(a, b)


@pytest.mark.parametrize("n, k, m", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)])
def test_matmul_empty_shapes(n, k, m):
    rng = random.Random(47)
    assert assert_matmul_matches_dense(random_sparse(rng, n, k), random_sparse(rng, k, m)).is_zero()


# The kernel has two loops, chosen once per left factor: one adds packed[k]
# for each nonzero of a left factor whose entries are all 1, the other scales
# packed[k] by the entry.  Each left factor below sits on one side of that choice.


def with_values(rng, nrows, ncols, values):
    # about half the entries drawn from `values`, and entry (0, 0) its last one
    entries = {(r, c): rng.choice(values) for r in range(nrows) for c in range(ncols) if rng.random() < 0.5}
    return IntMatrix(nrows, ncols, {**entries, (0, 0): values[-1]})


def permutation(rng, n):
    return IntMatrix(n, n, {(r, c): 1 for r, c in enumerate(rng.sample(range(n), n))})


# (factory, whether every entry is 1, whether it is a product still held packed)
LEFT_FACTORS = {
    "all-ones": (lambda rng, n, k: with_values(rng, n, k, (1,)), True, False),
    "max-one-with-minus-one": (lambda rng, n, k: with_values(rng, n, k, (1, 1, -1)), False, False),
    "ones-and-twos": (lambda rng, n, k: with_values(rng, n, k, (1, 2)), False, False),
    # a permutation of the rows keeps the entries
    "packed-product-of-ones": (
        lambda rng, n, k: permutation(rng, n) @ with_values(rng, n, k, (1,)), True, True),
    "packed-product-of-ones-and-twos": (
        lambda rng, n, k: permutation(rng, n) @ with_values(rng, n, k, (1, 2)), False, True),
}


@pytest.mark.parametrize("make, ones, packed", LEFT_FACTORS.values(), ids=LEFT_FACTORS)
def test_matmul_matches_dense_on_each_side_of_the_ones_choice(make, ones, packed):
    rng = random.Random(73)
    for _ in range(20):
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a, b = make(rng, n, k), with_values(rng, k, m, (-3, -1, 2, 5))
        assert (type(a._store) is tuple) is packed
        product = a @ b  # before anything else reads `a`
        assert dense(product) == dense_matmul(dense(a), dense(b), m)
        assert a._ones is ones


def test_ones_choice_is_made_once_per_left_factor(monkeypatch):
    calls = []
    all_ones = exactmat._all_ones

    def counted(rows):
        calls.append(rows)
        return all_ones(rows)

    monkeypatch.setattr(exactmat, "_all_ones", counted)
    rng = random.Random(79)
    checker = {(r, c): 1 for r in range(5) for c in range(4) if (r + c) % 2 == 0}
    lefts = [IntMatrix(5, 4, checker), IntMatrix(5, 4, {**checker, (0, 0): 2})]
    rights = [with_values(rng, 4, 6, (-3, -1, 2, 5)) for _ in range(3)]
    for a in lefts:
        for b in rights:
            assert_matmul_matches_dense(a, b)
    # once per left factor, on its rows; never on a right factor
    assert [id(rows) for rows in calls] == [id(a._rows) for a in lefts]
    assert [a._ones for a in lefts] == [True, False]


def assert_matmul_refused(a, b):
    """`a @ b` needs a field past 64 bits: ParameterError, before anything is packed."""
    held = exactmat._last_packed
    with pytest.raises(ParameterError, match="does not fit a signed 64-bit field"):
        a @ b
    assert exactmat._last_packed is held


# Fields are W bits wide, W the smallest of 8, 16, 32 and 64 with
# max|A| * max|B| * inner < 2**(W-1).  Here that bound is 5 * 2**(width-6):
# past the limit 2**(width/2 - 1) of the next narrower width and below
# 2**(width-1), so each case runs at `width`; 128 has no field and is refused.
@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
def test_matmul_each_field_width(width):
    rng = random.Random(width)
    inner, top = 5, 1 << (width // 2 - 3)
    for _ in range(10):
        entries_a = {(r, c): rng.randint(-top, top) for r in range(4) for c in range(inner) if rng.random() < 0.7}
        entries_b = {(r, c): rng.randint(-top, top) for r in range(inner) for c in range(6) if rng.random() < 0.7}
        entries_a[(0, 0)], entries_b[(0, 0)] = top, -top
        a, b = IntMatrix(4, inner, entries_a), IntMatrix(inner, 6, entries_b)
        if width > 64:
            assert_matmul_refused(a, b)
        else:
            assert_matmul_matches_dense(a, b)


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
def test_matmul_entries_on_the_width_edge(width):
    edge = (1 << (width - 1)) - 1
    # one inner index: the bound is |edge| itself, so the narrowest width holds
    # entries of exactly +-(2**(W-1) - 1) in neighbouring fields
    a = IntMatrix(2, 1, {(0, 0): edge, (1, 0): -edge})
    b = IntMatrix(1, 5, {(0, 0): 1, (0, 1): -1, (0, 3): 1, (0, 4): -1})
    if width > 64:
        assert_matmul_refused(a, b)
        return
    product = assert_matmul_matches_dense(a, b)
    assert [v for _, _, v in product.iter_entries()] == [edge, -edge, edge, -edge, -edge, edge, -edge, edge]
    # a bound of exactly 2**(W-1) must move to the next width, and past 64 bits is refused
    over = IntMatrix(1, 1, {(0, 0): edge + 1})
    for right in (b, IntMatrix(1, 1, {(0, 0): -1})):
        if width == 64:
            assert_matmul_refused(over, right)
        else:
            assert_matmul_matches_dense(over, right)
    # a sum over several inner indices reaching the edge: 7 * 31 * 151 = 2**15 - 1
    if width == 16:
        sums = assert_matmul_matches_dense(
            IntMatrix(2, 7, {(r, c): (31 if r == 0 else -31) for r in range(2) for c in range(7)}),
            IntMatrix(7, 3, {(r, c): 151 for r in range(7) for c in (0, 2)}),
        )
        assert sums == IntMatrix(2, 3, {(0, 0): edge, (0, 2): edge, (1, 0): -edge, (1, 2): -edge})


# A product holds the kernel's packing until its rows are first read.  That
# read replaces the packing whole with row dicts, so a product never holds both.
FIRST_READS = {
    "entry": lambda m: m.entry(1, 2),
    "row_values": lambda m: m.row_values(1),
    "iter_entries": lambda m: list(m.iter_entries()),
    "is_zero": lambda m: m.is_zero(),
    "eq": lambda m: m == IntMatrix.zeros(*m.shape),
    "transpose": lambda m: m.transpose(),
    "vectorize": lambda m: m.vectorize(),
    "kron": lambda m: kron(m, IntMatrix.identity(2)),
    "left-factor": lambda m: m @ IntMatrix.identity(m.ncols),
    "right-factor": lambda m: IntMatrix.identity(m.nrows) @ m,
}


@pytest.mark.parametrize("read", FIRST_READS.values(), ids=FIRST_READS)
def test_first_read_of_a_product_drops_its_packing(read):
    rng = random.Random(67)
    a, b = random_matrix(rng, 5, 4), random_matrix(rng, 4, 6)
    product = a @ b
    width, packed = product._store  # as the kernel built it: W and one integer per nonzero row
    assert width == 8 and product._packed_form() is product._store
    read(product)
    assert type(product._store) is dict
    expected = dense_matmul(dense(a), dense(b), 6)
    assert product._store == {
        r: {c: x for c, x in enumerate(row) if x} for r, row in enumerate(expected) if any(row)
    }
    assert product._packed_form() == (width, packed)  # packed anew, at the same W here


def test_nnz_counts_a_product_and_leaves_it_packed():
    # the per-product probe of a traced run must not change what
    # `decompose_product` is given
    rng = random.Random(71)
    a, b = random_matrix(rng, 5, 4), random_matrix(rng, 4, 6)
    product = a @ b
    held = product._store
    expected = dense_matmul(dense(a), dense(b), 6)
    nnz = sum(x != 0 for row in expected for x in row)
    assert product.nnz == nnz and repr(product) == f"IntMatrix(5x6, nnz={nnz})"
    assert product._store is held


@pytest.mark.parametrize("top", [1, 127, 128, 2**15, 2**40, 2**63, 2**100])
def test_packed_form_of_row_dicts_is_read_back_to_them(top):
    # smallest W with top < 2**(W-1); nothing is kept on the matrix, and an
    # entry of 2**63 or more in absolute value is refused
    rng = random.Random(top)
    entries = random_entries(rng, 4, 7, lo=-top + 1, hi=top - 1)
    entries[(2, 3)] = -top
    matrix = IntMatrix(4, 7, entries)
    if top >= 1 << 63:
        with pytest.raises(ParameterError, match=f"entry bound {top} does not fit"):
            matrix._packed_form()
        return
    width, packed = matrix._packed_form()
    assert width == next(w for w in (8, 16, 32, 64) if top < 1 << (w - 1))
    assert type(matrix._store) is dict
    assert exactmat._read_back(width, packed, 7) == matrix._rows


# The kernel keeps the packed rows of its last right factor in one slot and
# reuses them only for that same object at the same field width.


def left_with_max(rng, top, nrows=4, inner=5):
    entries = {(r, c): rng.randint(-top, top) for r in range(nrows) for c in range(inner) if rng.random() < 0.7}
    entries[(0, 0)] = top
    return IntMatrix(nrows, inner, entries)


def assert_packed_last(matrix, width):
    held, held_width, _ = exactmat._last_packed
    assert held is matrix and held_width == width


def test_matmul_reuses_one_right_factor_across_field_widths(monkeypatch):
    monkeypatch.setattr(exactmat, "_last_packed", (None, 0, []))
    rng = random.Random(53)
    b = left_with_max(rng, 3, nrows=5, inner=6)
    # max|a| * 3 * 5 sets the width: 8 * 15 = 120 < 2**7, 2000 * 15 < 2**15,
    # 10**12 * 15 >= 2**31; the 8-bit left comes back after each wider one
    for top, width in [(8, 8), (2000, 16), (8, 8), (10**12, 64), (8, 8)]:
        assert_matmul_matches_dense(left_with_max(rng, top), b)
        assert_packed_last(b, width)


def test_matmul_alternating_right_factors_of_one_shape(monkeypatch):
    monkeypatch.setattr(exactmat, "_last_packed", (None, 0, []))
    rng = random.Random(59)
    a = left_with_max(rng, 4)
    rights = [left_with_max(rng, 2, nrows=5, inner=6), left_with_max(rng, 2, nrows=5, inner=6)]
    assert rights[0] != rights[1]
    for step in range(6):
        b = rights[step % 2]
        assert_matmul_matches_dense(a, b)
        assert_packed_last(b, 8)


def test_matmul_repacks_an_equal_right_factor_that_is_another_object(monkeypatch):
    monkeypatch.setattr(exactmat, "_last_packed", (None, 0, []))
    rng = random.Random(61)
    a, b = left_with_max(rng, 4), left_with_max(rng, 2, nrows=5, inner=6)
    twin = IntMatrix(*b.shape, {(r, c): v for r, c, v in b.iter_entries()})
    assert twin == b and twin is not b
    assert_matmul_matches_dense(a, b)
    assert_packed_last(b, 8)
    assert_matmul_matches_dense(a, twin)
    assert_packed_last(twin, 8)


def test_kron_mixed_product_property():
    rng = random.Random(11)
    for _ in range(15):
        n1, n2, n3 = (rng.randint(1, 6) for _ in range(3))
        m1, m2, m3 = (rng.randint(1, 6) for _ in range(3))
        a = random_matrix(rng, n1, n2)
        c = random_matrix(rng, n2, n3)
        b = random_matrix(rng, m1, m2)
        d = random_matrix(rng, m2, m3)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_transpose_properties():
    rng = random.Random(5)
    a = random_matrix(rng, 4, 6)
    b = random_matrix(rng, 6, 3)
    assert IntMatrix.identity(4).transpose() == IntMatrix.identity(4)
    assert a.transpose().transpose() == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_vectorize_roundtrip():
    rng = random.Random(13)
    a = random_matrix(rng, 4, 7)
    assert IntMatrix(4, 7, {divmod(k, 7): v for k, v in a.vectorize().items()}) == a


def test_entry_bounds_checked():
    with pytest.raises(ShapeError):
        IntMatrix(2, 2, {(2, 0): 1})


def test_constructor_drops_zeros():
    with_zeros = IntMatrix(2, 3, {(0, 1): 4, (1, 2): -1, (0, 0): 0, (1, 0): 0})
    assert with_zeros == IntMatrix(2, 3, {(0, 1): 4, (1, 2): -1})
    assert with_zeros.nnz == 2
    assert IntMatrix(2, 3, {(1, 1): 0}).is_zero()


# -- MatrixSpace --------------------------------------------------------------


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_space_insert_idempotent(prime):
    rng = random.Random(17)
    space = MatrixSpace(prime=prime)
    m = random_matrix(rng, 3, 3).vectorize()
    assert space.insert_vector(m) is True
    assert space.insert_vector(m) is False
    assert space.dim == 1
    assert space.contains_vector(m)
    assert space.contains_vector({})


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_space_scalar_multiple_not_new(prime):
    rng = random.Random(19)
    space = MatrixSpace(prime=prime)
    m = random_matrix(rng, 3, 3).vectorize()
    space.insert_vector(m)
    assert space.insert_vector({k: 2 * v for k, v in m.items()}) is False
    assert space.insert_vector({k: -3 * v for k, v in m.items()}) is False


def test_space_dimension_monotone_and_bounded():
    rng = random.Random(23)
    space = MatrixSpace()
    last = 0
    for _ in range(30):
        space.insert_vector(random_matrix(rng, 3, 3).vectorize())
        assert space.dim >= last
        last = space.dim
    assert space.dim == 9  # full ambient reached with dense random input


def test_space_rejects_composite_modulus():
    with pytest.raises(ParameterError):
        MatrixSpace(prime=1_000_001)  # 101 * 9901


def test_is_prime_refuses_inputs_from_2_64():
    # 318665857834031151167461 is composite and a strong pseudoprime to all
    # twelve bases 2..37, so no answer for it could be trusted
    assert is_prime(2**64 - 59)  # the largest 64-bit prime
    for n in (2**64, 318665857834031151167461):
        with pytest.raises(ParameterError, match="below 2\\^64"):
            is_prime(n)
        with pytest.raises(ParameterError):
            MatrixSpace(prime=n)


def test_space_reads_values_modulo_p():
    p = DEFAULT_PRIMES[0]
    space = MatrixSpace(prime=p)
    # values >= p, negative values and zeros, all reduced mod p on the way in
    assert space.insert_vector({1: p + 2, 4: -1, 6: 0, 8: p})
    assert list(space.iter_basis()) == [(1, {1: 1, 4: (p - 1) * pow(2, -1, p) % p})]
    for same in ({1: 2, 4: -1}, {1: 2 - p, 4: 2 * p - 1, 9: 0}, {1: -2, 4: 1}):
        assert space.contains_vector(same)
        assert not space.insert_vector(same)
    for zero in ({}, {3: p}, {3: 0, 5: -p}):
        assert space.contains_vector(zero)
        assert not space.insert_vector(zero)
    assert not space.contains_vector({1: 2})
    assert not space.contains_vector({4: p - 1})
    assert space.dim == 1


def test_space_drops_zeros_over_the_rationals():
    space = MatrixSpace(prime=None)
    assert space.insert_vector({1: 4, 4: -2, 6: 0})
    ((pivot, row),) = space.iter_basis()
    # pivot value 1 as a plain int, as over GF(p); the other value is a Fraction
    assert (pivot, row) == (1, {1: 1, 4: Fraction(-1, 2)})
    assert type(row[1]) is int
    for same in ({1: -2, 4: 1}, {1: 6, 4: -3, 9: 0}):
        assert space.contains_vector(same)
        assert not space.insert_vector(same)
    for zero in ({}, {3: 0}):
        assert space.contains_vector(zero)
        assert not space.insert_vector(zero)
    assert not space.contains_vector({1: 1, 4: 1})
    assert space.dim == 1


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_space_never_mutates_its_input(prime):
    rng = random.Random(43)
    space, other = MatrixSpace(prime=prime), MatrixSpace(prime=prime)
    big = DEFAULT_PRIMES[0] + 1
    vectors = [random_matrix(rng, 3, 3).vectorize() for _ in range(5)]
    vectors += [{0: big, 1: -2, 2: 0}, {3: 0}, {}]
    for vec in vectors:
        before = dict(vec)
        space.insert_vector(vec)
        assert vec == before
        assert space.contains_vector(vec)
        assert vec == before
    for vec in (random_matrix(rng, 3, 3).vectorize() for _ in range(3)):
        other.insert_vector(vec)
    # a basis row of another space, as the containment check passes them
    snapshot = [(piv, dict(row)) for piv, row in other.iter_basis()]
    for _, row in other.iter_basis():
        space.contains_vector(row)
        space.insert_vector(row)
    assert [(piv, dict(row)) for piv, row in other.iter_basis()] == snapshot


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_spaces_of_one_span_store_no_row_apart(prime):
    # the reduced basis is unique, so two insert orders store identical rows,
    # values that are not all equal and Fractions included
    rng = random.Random(47)
    mats = [random_matrix(rng, 4, 4, density=0.4).vectorize() for _ in range(6)]
    space, other = MatrixSpace(prime=prime), MatrixSpace(prime=prime)
    for vec in mats:
        space.insert_vector(vec)
    for vec in reversed(mats):
        other.insert_vector({c: 3 * v for c, v in vec.items()})
    assert list(space.rows_not_stored_in(other)) == []
    assert list(other.rows_not_stored_in(space)) == []
    assert list(space.rows_not_stored_in(space)) == []


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_rows_not_stored_in_yields_each_differing_row_as_a_fresh_dict(prime):
    space, other = MatrixSpace(prime=prime), MatrixSpace(prime=prime)
    for vec in ({0: 1, 1: 1}, {2: 1}, {5: 2, 7: -4}):
        space.insert_vector(vec)
    for vec in ({0: 1}, {1: 1}, {2: 1}):
        other.insert_vector(vec)
    # pivot 0 is stored with another row, pivot 5 not at all, pivot 2 identically
    half = -2 if prime is None else -2 % prime
    expected = [(0, {0: 1, 1: 1}), (5, {5: 1, 7: half})]
    differing = list(space.rows_not_stored_in(other))
    assert differing == expected
    for _, row in differing:
        row.clear()
    assert list(space.rows_not_stored_in(other)) == expected
    assert [piv for piv, _ in space.rows_not_stored_in(MatrixSpace(prime=prime))] == [0, 2, 5]
    assert list(MatrixSpace(prime=prime).rows_not_stored_in(space)) == []


def test_rows_not_stored_in_refuses_spaces_over_different_fields():
    gf_p, other_p, exact = (MatrixSpace(prime=p) for p in (*DEFAULT_PRIMES, None))
    for space, other in ((gf_p, exact), (exact, gf_p), (gf_p, other_p)):
        space.insert_vector({0: 1})
        other.insert_vector({0: 1})
        with pytest.raises(ParameterError, match="cannot compare a basis over"):
            space.rows_not_stored_in(other)


def test_space_dim_agrees_across_fields():
    rng = random.Random(29)
    mats = [random_matrix(rng, 4, 4, density=0.4).vectorize() for _ in range(10)]
    dims = []
    for prime in (*DEFAULT_PRIMES, None):
        space = MatrixSpace(prime=prime)
        for m in mats:
            space.insert_vector(m)
        dims.append(space.dim)
    assert len(set(dims)) == 1


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_space_basis_is_canonical_under_insert_order(prime):
    rng = random.Random(31)
    mats = [random_matrix(rng, 4, 4, density=0.4).vectorize() for _ in range(8)]
    reference = None
    for seed in range(4):
        order = mats[:]
        random.Random(seed).shuffle(order)
        space = MatrixSpace(prime=prime)
        for m in order:
            space.insert_vector(m)
        basis = {piv: dict(row) for piv, row in space.iter_basis()}
        if reference is None:
            reference = basis
        else:
            assert basis == reference


def test_space_basis_matrices_span_inserted():
    rng = random.Random(37)
    space = MatrixSpace(prime=None)
    mats = [random_matrix(rng, 3, 3).vectorize() for _ in range(5)]
    for m in mats:
        space.insert_vector(m)
    rebuilt = MatrixSpace(prime=None)
    for _, row in space.iter_basis():
        rebuilt.insert_vector(row)
    assert rebuilt.dim == space.dim
    for m in mats:
        assert rebuilt.contains_vector(m)


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
@pytest.mark.parametrize(
    "basis, vector, stuck_pivot",
    [
        # the leading coordinate 0 is a pivot that never clears
        (({0: 1, 3: 1}, {1: 1, 4: 1}), {0: 1}, 0),
        # coordinate 0 is no pivot; the tail pivot 1 never clears
        (({1: 1, 3: 1}, {2: 1, 4: 1}), {0: 1, 1: 1}, 1),
    ],
    ids=["leading", "tail"],
)
def test_reduction_stops_after_dim_plus_one_pivots(monkeypatch, prime, basis, vector, stuck_pivot):
    # well within dim + 1: the stuck pivot fires once, and the one pass ends
    # with the pivot still in the vector
    space = MatrixSpace(prime=prime)
    for vec in basis:
        space.insert_vector(vec)
    before = list(space.iter_basis())
    calls = []

    def stuck(v, row, c):
        # an elimination that clears nothing; the cap keeps an unbounded loop from hanging the test
        calls.append(c)
        assert len(calls) < 100

    monkeypatch.setattr(space, "_eliminate", stuck)
    message = f"reduction left pivot {stuck_pivot} in a vector over {space.field_name}"
    for method in (space.insert_vector, space.contains_vector):
        calls.clear()
        with pytest.raises(EliminationDivergenceError, match=re.escape(message)):
            method(vector)
        assert calls == [stuck_pivot]
    assert list(space.iter_basis()) == before


def test_insert_refuses_a_vector_left_at_a_pivot(monkeypatch):
    # with the reduction skipped, the vector would overwrite the basis row at pivot 0
    space = MatrixSpace()
    space.insert_vector({0: 1, 3: 1})
    monkeypatch.setattr(space, "_reduce", lambda v: None)
    with pytest.raises(EliminationDivergenceError, match="reduction left pivot 0 in a vector over gf"):
        space.insert_vector({0: 1, 4: 1})
    assert [(piv, dict(row)) for piv, row in space.iter_basis()] == [(0, {0: 1, 3: 1})]


@pytest.mark.parametrize("coordinate", [2**63, -(2**63) - 1, 10**30])
def test_space_refuses_a_coordinate_outside_64_bits(coordinate):
    space = MatrixSpace()
    space.insert_vector({0: 1, 5: 1})
    with pytest.raises(ParameterError, match=f"coordinate {coordinate} is outside the signed 32-bit"):
        space.insert_vector({1: 1, 2: 3, coordinate: 1})
    # nothing was stored, and the extremes that fit are accepted
    assert [piv for piv, _ in space.iter_basis()] == [0]
    assert space.insert_vector({-(2**31): 1, 2**31 - 1: 2})
    assert list(space.iter_basis())[0] == (-(2**31), {-(2**31): 1, 2**31 - 1: 2})


@pytest.mark.parametrize(
    "row, itemsize",
    [
        ({0: 1, 2**31 - 1: 1}, 4),
        ({-(2**31): 1, 7: 1}, 4),
        ({0: 1, 2**31: 1}, 8),
        ({-(2**31) - 1: 1, 0: 1}, 8),
        ({-(2**63): 1, 2**63 - 1: 2}, 8),
    ],
)
def test_space_stores_coordinates_in_4_bytes_when_they_fit(row, itemsize):
    # `itemsize` is the width the row's coordinates need: 4 bytes are stored,
    # and a row that needs 8 is refused with nothing stored
    space = MatrixSpace()
    if itemsize > 4:
        with pytest.raises(ParameterError, match="outside the signed 32-bit range"):
            space.insert_vector(row)
        assert space.dim == 0
        return
    assert space.insert_vector(row)
    [(coords, _)] = space._rows.values()
    assert coords.itemsize == itemsize
    assert list(space.iter_basis()) == [(min(row), row)]
    assert space.contains_vector({c: 3 * x for c, x in row.items()})


def test_every_ambient_coordinate_fits_the_stored_width():
    # the largest graph the CLI accepts: coordinate n**2 - 1 must be storable,
    # so raising DEFAULT_MAX_M past the width fails here and not in a run
    n = OddGraph(DEFAULT_MAX_M).num_vertices
    space = MatrixSpace()
    assert space.insert_vector({0: 1, n * n - 1: 1})
    [(coords, _)] = space._rows.values()
    assert coords.itemsize == 4 and coords[-1] == n * n - 1


@pytest.mark.parametrize("value", ["p", -1, "2p+1"])
def test_gf_p_input_out_of_range_takes_the_reducing_path(value):
    p = DEFAULT_PRIMES[0]
    value = {"p": p, "2p+1": 2 * p + 1}.get(value, value)
    vec = {0: 1, 3: value}
    reduced = {c: x for c, x in {0: 1, 3: value % p}.items() if x}
    space = MatrixSpace(prime=p)
    assert space._normalize_input(vec) == reduced
    assert vec == {0: 1, 3: value}  # the input is not modified
    assert space.insert_vector(vec)
    assert list(space.iter_basis()) == [(0, reduced)]


def eliminate_entrywise(prime, v, row, c):
    """Elimination one entry at a time: the reference `MatrixSpace._eliminate` must match."""
    f = v[c]
    for cc, rv in row.items():
        nv = v.get(cc, 0) - f * rv
        if prime is not None:
            nv %= prime
        if nv:
            v[cc] = nv
        else:
            v.pop(cc, None)


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
@pytest.mark.parametrize(
    "row, v",
    [
        ({0: 1, 2: 1, 5: 1}, {0: 3, 2: 3, 5: 3, 7: 1}),
        ({0: 1, 2: 1, 5: 1}, {0: 2, 5: 2, 7: 4}),
        ({0: 1, 3: 2, 6: -1}, {0: 5, 3: 1, 6: 9, 8: 2}),
        ({0: 1, 4: 1, 9: 1}, {0: 1, 1: 7}),
        ({0: 2, 3: 1, 5: -3}, {0: 3, 3: 5, 4: 1, 5: -1}),
        ({0: 4, 3: 2, 5: 2}, {0: 6, 1: -1, 3: 3, 5: 3}),
    ],
    ids=["uniform-clears", "uniform-partly-covered", "non-uniform", "absent-coordinates",
         "rational-scale", "rational-scale-clears"],
)
def test_eliminate_matches_the_entrywise_loop(prime, row, v):
    # basis rows have pivot value 1 in every field, and values in 1..p-1 over GF(p)
    if prime is None:
        row = {c: Fraction(x, row[0]) for c, x in row.items()}
    else:
        inv = pow(row[0], -1, prime)
        row = {c: x * inv % prime for c, x in row.items()}
        v = {c: x % prime for c, x in v.items()}
    got, expected = dict(v), dict(v)
    MatrixSpace(prime=prime)._eliminate(got, exactmat._packed(row), 0)
    eliminate_entrywise(prime, expected, row, 0)
    assert 0 not in got
    assert got == expected
    # an integral value is kept as a plain int, never as a Fraction
    assert all(type(x) is int or x.denominator > 1 for x in got.values())


# -- Matrix Market ------------------------------------------------------------


def test_matrix_market_roundtrip():
    rng = random.Random(41)
    for _ in range(5):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), density=0.4)
        buf = io.StringIO()
        write_matrix_market(m, buf)
        assert dense_from_matrix_market(buf.getvalue()) == dense(m)


def test_matrix_market_format_details():
    m = IntMatrix(3, 2, {(2, 0): -4, (0, 1): 7})
    buf = io.StringIO()
    write_matrix_market(m, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
    assert lines[1] == "3 2 2"
    assert lines[2] == "1 2 7"  # sorted by (row, column), 1-based
    assert lines[3] == "3 1 -4"


def test_matrix_market_file_roundtrip(tmp_path):
    m = IntMatrix(2, 2, {(0, 0): 3, (1, 1): -9})
    path = tmp_path / "m.mtx"
    write_matrix_market(m, path)
    assert dense_from_matrix_market(path.read_text()) == dense(m)
