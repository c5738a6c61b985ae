"""Independent dense oracle for matrix-algebra dimensions.

Full pairwise-product closure with Fraction Gaussian elimination,
leading-from-the-left; intentionally shares nothing with the library's
span machinery so it can act as a cross-check.
"""

from fractions import Fraction


def dense_matmul(a, b, ncols):
    """The textbook triple loop on dense row lists; `ncols` is b's column count,
    which an empty `b` cannot tell."""
    return [[sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(ncols)] for r in range(len(a))]


def dense_algebra_dimension(mats):
    basis = {}

    def insert(vec):
        v = [Fraction(x) for x in vec]
        while True:
            lead = next((i for i, a in enumerate(v) if a), None)
            if lead is None:
                return False
            row = basis.get(lead)
            if row is None:
                basis[lead] = v
                return True
            f = v[lead] / row[lead]
            v = [a - f * b for a, b in zip(v, row)]

    elements = [m for m in mats]
    for m in elements:
        insert([x for row in m for x in row])
    while True:
        added = False
        snapshot = list(elements)
        for a in snapshot:
            for b in snapshot:
                p = dense_matmul(a, b, len(a))
                if insert([x for row in p for x in row]):
                    elements.append(p)
                    added = True
        if not added:
            return len(basis)


def dense(matrix):
    """Dense list-of-rows copy of an IntMatrix, read entry by entry."""
    out = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for r, c, v in matrix.iter_entries():
        out[r][c] = v
    return out


def dense_from_matrix_market(text):
    """Dense rows of a coordinate Matrix Market text, read without the library."""
    lines = text.splitlines()
    nrows, ncols, nnz = (int(t) for t in lines[1].split())
    assert len(lines) - 2 == nnz
    out = [[0] * ncols for _ in range(nrows)]
    for line in lines[2:]:
        r, c, v = (int(t) for t in line.split())
        out[r - 1][c - 1] = v
    return out
