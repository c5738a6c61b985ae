import io
import random

import pytest

from oddterw import (
    DEFAULT_PRIMES,
    IntMatrix,
    MatrixSpace,
    ParameterError,
    ShapeError,
    kron,
    read_matrix_market,
    write_matrix_market,
)


def random_matrix(rng, nrows, ncols, density=0.5, lo=-5, hi=5):
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                entries[(r, c)] = rng.randint(lo, hi)
    return IntMatrix(nrows, ncols, entries)


def test_identity_is_neutral():
    rng = random.Random(1)
    m = random_matrix(rng, 3, 3)
    assert IntMatrix.identity(3) @ m == m
    assert m @ IntMatrix.identity(3) == m


def test_swap_matrix_squares_to_identity():
    swap = IntMatrix.from_dense([[0, 1], [1, 0]])
    assert swap @ swap == IntMatrix.identity(2)


def test_matmul_associative_and_distributive():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 8)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        c = random_matrix(rng, n, n)
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c
        assert (b + c) @ a == b @ a + c @ a


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)
    with pytest.raises(ShapeError):
        IntMatrix.zeros(2, 3) + IntMatrix.zeros(3, 2)


def test_kron_identities_and_shape():
    assert kron(IntMatrix.identity(2), IntMatrix.identity(3)) == IntMatrix.identity(6)
    rng = random.Random(3)
    a = random_matrix(rng, 2, 4)
    b = random_matrix(rng, 3, 5)
    assert kron(a, b).shape == (6, 20)


def test_kron_index_convention():
    a = IntMatrix.from_dense([[2, 0], [0, 3]])
    b = IntMatrix.from_dense([[5, 7]])
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
    da, db = a.to_dense(), b.to_dense()
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
        assert k.to_dense() == dense_kron(a, b)
        assert k == IntMatrix.from_dense(dense_kron(a, b))  # no stored zeros or empty rows


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


def test_scalar_and_negation():
    rng = random.Random(9)
    a = random_matrix(rng, 3, 3)
    assert a + (-a) == IntMatrix.zeros(3, 3)
    assert 2 * a == a + a
    assert 0 * a == IntMatrix.zeros(3, 3)


def test_vectorize_roundtrip():
    rng = random.Random(13)
    a = random_matrix(rng, 4, 7)
    assert IntMatrix.unvectorize(a.vectorize(), 4, 7) == a


def test_entry_bounds_checked():
    with pytest.raises(ShapeError):
        IntMatrix(2, 2, {(2, 0): 1})


def test_constructor_accepts_triples_and_drops_zeros():
    from_triples = IntMatrix(2, 3, [(0, 1, 4), (1, 2, -1), (0, 0, 0)])
    from_mapping = IntMatrix(2, 3, {(0, 1): 4, (1, 2): -1})
    assert from_triples == from_mapping
    assert from_triples.nnz == 2


# -- MatrixSpace --------------------------------------------------------------


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_space_insert_idempotent(prime):
    rng = random.Random(17)
    space = MatrixSpace(3, 3, prime=prime)
    m = random_matrix(rng, 3, 3)
    assert space.insert(m) is True
    assert space.insert(m) is False
    assert space.dim == 1
    assert space.contains(m)
    assert space.contains(IntMatrix.zeros(3, 3))


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_space_scalar_multiple_not_new(prime):
    rng = random.Random(19)
    space = MatrixSpace(3, 3, prime=prime)
    m = random_matrix(rng, 3, 3)
    space.insert(m)
    assert space.insert(2 * m) is False
    assert space.insert(-3 * m) is False


def test_space_dimension_monotone_and_bounded():
    rng = random.Random(23)
    space = MatrixSpace(3, 3)
    last = 0
    for _ in range(30):
        space.insert(random_matrix(rng, 3, 3))
        assert space.dim >= last
        last = space.dim
    assert space.dim == 9  # full ambient reached with dense random input


def test_space_shape_checked():
    space = MatrixSpace(3, 3)
    with pytest.raises(ShapeError):
        space.insert(IntMatrix.zeros(2, 3))
    with pytest.raises(ShapeError):
        space.contains(IntMatrix.zeros(3, 4))


def test_space_rejects_composite_modulus():
    with pytest.raises(ParameterError):
        MatrixSpace(2, 2, prime=1_000_001)  # 101 * 9901


def test_space_dim_agrees_across_fields():
    rng = random.Random(29)
    mats = [random_matrix(rng, 4, 4, density=0.4) for _ in range(10)]
    dims = []
    for prime in (*DEFAULT_PRIMES, None):
        space = MatrixSpace(4, 4, prime=prime)
        for m in mats:
            space.insert(m)
        dims.append(space.dim)
    assert len(set(dims)) == 1


@pytest.mark.parametrize("prime", [DEFAULT_PRIMES[0], None])
def test_space_basis_is_canonical_under_insert_order(prime):
    rng = random.Random(31)
    mats = [random_matrix(rng, 4, 4, density=0.4) for _ in range(8)]
    reference = None
    for seed in range(4):
        order = mats[:]
        random.Random(seed).shuffle(order)
        space = MatrixSpace(4, 4, prime=prime)
        for m in order:
            space.insert(m)
        basis = {piv: dict(row) for piv, row in space.iter_basis()}
        if reference is None:
            reference = basis
        else:
            assert basis == reference


def test_space_basis_matrices_span_inserted():
    rng = random.Random(37)
    space = MatrixSpace(3, 3, prime=None)
    mats = [random_matrix(rng, 3, 3) for _ in range(5)]
    for m in mats:
        space.insert(m)
    rebuilt = MatrixSpace(3, 3, prime=None)
    for b in space.basis_matrices():
        rebuilt.insert(b)
    assert rebuilt.dim == space.dim
    for m in mats:
        assert rebuilt.contains(m)


# -- Matrix Market ------------------------------------------------------------


def test_matrix_market_roundtrip():
    rng = random.Random(41)
    for _ in range(5):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), density=0.4)
        buf = io.StringIO()
        write_matrix_market(m, buf)
        buf.seek(0)
        assert read_matrix_market(buf) == m


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
    assert read_matrix_market(path) == m


@pytest.mark.parametrize(
    "content",
    [
        "%%MatrixMarket matrix coordinate real general\n1 1 0\n",
        "%%MatrixMarket matrix array integer general\n1 1 0\n",
        "not a header\n1 1 0\n",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n3 1 5\n",  # out of bounds
        "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5\n1 1 2\n",  # duplicate
        "%%MatrixMarket matrix coordinate integer general\n2 2 3\n1 1 5\n",  # count mismatch
    ],
)
def test_matrix_market_rejects_bad_input(content):
    with pytest.raises(ParameterError):
        read_matrix_market(io.StringIO(content))
