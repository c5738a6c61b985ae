"""Exact sparse integer matrices and row-reduced matrix spans.

Everything here is exact: matrix entries are Python big integers, and span
arithmetic runs either over GF(p) for a configured prime p or over the
rationals via fraction-free integer elimination.  No floating point is used
anywhere in this module.

`IntMatrix.__matmul__` is the one product kernel for every caller.  It
packs each row of the right factor into a single Python integer, one
fixed-width bit field per column, wide enough for every entry of the
product, so a result row costs one big-integer add per nonzero of the left
row; the row is read back through `int.to_bytes` and a signed `array`.
One module-level slot holds the last right factor with its field width and
packed rows, as a tuple replaced whole; a product whose right factor is
that same object at that width reuses the rows, so a caller that runs its
products with one right factor in a row (as the `products` sweep does)
packs it once.  Each matrix computes its max |entry| once and keeps it.

`MatrixSpace` reduces each vector in one pass: it takes the pivots the
vector meets and eliminates each of them once, in ascending order, because
the stored basis is fully reduced.  One elimination pops the pivot row's
whole support out of the vector with one `map`, compares it with the
multiple of the row as a list, and puts back only the nonzero
differences.  The multiple of a row whose values are all equal, as in
every basis row of T, is one product.  A dependent candidate built from
T's disjoint 0/1 blocks cancels each row it meets exactly, so nothing
goes back.  The input is copied once on the way in (with `dict` when its
values are already in range) and never modified.  Over the rationals a
vector's content is stripped once, when it becomes a basis row, and once
for each row that is back-substituted, not after every elimination.  The
reduction stops with `EliminationDivergenceError` after dim + 1 pivot
eliminations of one vector, which correct arithmetic never needs, and
`insert_vector` raises it too when a reduced vector still starts at a
pivot, so a broken field kernel fails instead of looping forever or
overwriting a basis row.

IntMatrix values are immutable after construction and safe to share between
threads; the cached max |entry| and the packing slot are each written whole,
so concurrent products at worst compute one of them twice.  MatrixSpace is
single-writer: readers are fine once insertion stops, but concurrent
insertions must be serialized by the caller.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, compress, repeat
from math import gcd
from operator import sub
from pathlib import Path

from .errors import EliminationDivergenceError, ParameterError, ShapeError

#: Default prime for span arithmetic, with a second prime for confirmation
#: passes.  Both exceed 10**6 so small integer coefficients cannot collide
#: with zero mod p.
DEFAULT_PRIMES = (1_000_000_007, 998_244_353)
DEFAULT_PRIME = DEFAULT_PRIMES[0]

MM_HEADER = "%%MatrixMarket matrix coordinate integer general"

# Signed array typecodes by item size, for reading matmul fields of 8 to 64
# bits; wider fields are sliced from the bytes one by one.
_SIGNED_BY_SIZE = {array(t).itemsize: t for t in "bhiq"}
_BIG_ENDIAN = sys.byteorder == "big"


class IntMatrix:
    """Sparse matrix with exact integer entries, stored by row.

    Treat instances as frozen: none of the public operations mutate their
    operands, and shared instances (including cached ones) must never be
    modified in place.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_max")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"invalid shape ({nrows}, {ncols})")
        self.nrows = nrows
        self.ncols = ncols
        rows: dict[int, dict[int, int]] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise ShapeError(f"entry ({r}, {c}) outside shape ({nrows}, {ncols})")
                if v:
                    rows.setdefault(r, {})[c] = v
        self._rows = rows
        self._max = None

    @classmethod
    def _wrap(cls, nrows: int, ncols: int, rows: dict[int, dict[int, int]]) -> "IntMatrix":
        # Internal fast path: takes ownership of `rows`, which must contain
        # no zero values and no empty row dicts.
        m = cls.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m._rows = rows
        m._max = None
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls._wrap(nrows, ncols, {})

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._wrap(n, n, {i: {i: 1} for i in range(n)})

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def entry(self, r: int, c: int) -> int:
        return self._rows.get(r, {}).get(c, 0)

    def iter_entries(self):
        """Yield (row, col, value) in row-major sorted order."""
        for r in sorted(self._rows):
            row = self._rows[r]
            for c in sorted(row):
                yield r, c, row[c]

    def row_values(self, r: int) -> dict[int, int]:
        """Copy of one row as {col: value}."""
        return dict(self._rows.get(r, {}))

    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    __hash__ = None

    def __repr__(self) -> str:
        return f"IntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Exact product, one big-integer add per nonzero of `self`.

        Each row of `other` is packed into an integer with column c in the
        W-bit field at bit W*c, where W is the smallest of 8, 16, 32, 64,
        128, ... with max|self| * max|other| * inner dimension < 2**(W-1).
        A result row is the sum of a * packed[k] over the nonzeros a at
        (row, k): the integer with the row's entries as its base-2**W
        digits.  No entry reaches 2**(W-1) in absolute value, so adding a
        bias of 2**(W-1) in every field leaves each field in [1, 2**W - 1]
        with no carry across fields, and flipping each field's top bit then
        gives the entry in W-bit two's complement.  The fields are read back
        with a signed `array`, or past 64 bits with `int.from_bytes`.

        The packed rows of the last right factor are kept in one slot, and
        a product whose right factor is that same object, at the same W,
        reuses them: a run of products sharing a right factor packs it once.
        Each operand's max|entry| is computed once and kept on the matrix.
        """
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        ncols = other.ncols
        if not self._rows or not other._rows:
            return IntMatrix._wrap(self.nrows, ncols, {})
        bound = self._max_abs() * other._max_abs() * self.ncols
        nbytes = 1
        while bound >= 1 << (8 * nbytes - 1):
            nbytes *= 2
        width = 8 * nbytes
        packed = _packed_rows(other, width)
        biased = int.from_bytes((1 << (width - 1)).to_bytes(nbytes, "little") * ncols, "little")
        size = nbytes * ncols
        typecode = _SIGNED_BY_SIZE.get(nbytes)
        rows = {}
        for r, row in self._rows.items():
            acc = 0
            for k, a in row.items():
                acc += packed[k] if a == 1 else a * packed[k]
            if not acc:  # base-2**W digits in range are unique: this row is zero
                continue
            raw = ((acc + biased) ^ biased).to_bytes(size, "little")
            if typecode is None:
                fields = [
                    int.from_bytes(raw[i : i + nbytes], "little", signed=True)
                    for i in range(0, size, nbytes)
                ]
            else:
                fields = array(typecode, raw)
                if _BIG_ENDIAN:
                    fields.byteswap()
            # the (column, entry) pairs whose entry is nonzero
            rows[r] = dict(compress(enumerate(fields), fields))
        return IntMatrix._wrap(self.nrows, ncols, rows)

    def _max_abs(self) -> int:
        # max|entry|, computed on first use; 0 for the zero matrix
        if self._max is None:
            values = chain.from_iterable(map(dict.values, self._rows.values()))
            self._max = max(map(abs, values), default=0)
        return self._max

    def transpose(self) -> "IntMatrix":
        rows: dict[int, dict[int, int]] = {}
        for r, row in self._rows.items():
            for c, v in row.items():
                rows.setdefault(c, {})[r] = v
        return IntMatrix._wrap(self.ncols, self.nrows, rows)

    def vectorize(self) -> dict[int, int]:
        """Row-major flattening: coordinate r*ncols + c maps to the entry value."""
        ncols = self.ncols
        return {r * ncols + c: v for r, row in self._rows.items() for c, v in row.items()}


# The right factor `IntMatrix.__matmul__` packed last: (matrix, W, packed rows).
# The tuple is replaced whole and never changed, so a reader always sees
# one factor's rows with the W they were packed at.
_last_packed: tuple = (None, 0, [])


def _packed_rows(matrix: IntMatrix, width: int) -> list[int]:
    """Row k of `matrix` as one integer, entry (k, c) in the `width`-bit field at bit width*c.

    Reuses the last packing when `matrix` is that same object at the same
    width; an equal but distinct matrix is packed anew.
    """
    global _last_packed
    held, held_width, packed = _last_packed
    if held is matrix and held_width == width:
        return packed
    packed = [0] * matrix.nrows  # a row of zeros packs to 0
    for k, row in matrix._rows.items():
        word = 0
        for c, b in row.items():
            word += b << (width * c)
        packed[k] = word
    _last_packed = (matrix, width, packed)
    return packed


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product with index convention
    out[ra*b.nrows + rb, ca*b.ncols + cb] = a[ra, ca] * b[rb, cb]."""
    bn, bc = b.nrows, b.ncols
    rows: dict[int, dict[int, int]] = {}
    for ra, arow in a._rows.items():
        acols = [(ca * bc, va) for ca, va in arow.items()]
        for rb, brow in b._rows.items():
            rows[ra * bn + rb] = {
                base + cb: va * vb for base, va in acols for cb, vb in brow.items()
            }
    return IntMatrix._wrap(a.nrows * bn, a.ncols * bc, rows)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the twelve prime bases 2..37.

    Those bases decide every n below 318665857834031151167461, which is
    itself a strong pseudoprime to all of them.  The test is only used on
    64-bit inputs, so n >= 2**64 raises ParameterError instead of risking
    a composite accepted as a field modulus.
    """
    if n >= 1 << 64:
        raise ParameterError(f"{n} is too large: primality is only decided below 2^64")
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _scaled(values: list[int], f: int, p: int | None) -> list[int]:
    """f times each of `values`, reduced mod p unless p is None.

    When all values are equal, as in every basis row of T, this is one product.
    """
    first = values[0]
    if values.count(first) == len(values):
        return [f * first if p is None else f * first % p] * len(values)
    if p is None:
        return [f * x for x in values]
    return [f * x % p for x in values]


def field_name(prime: int | None) -> str:
    """Report label of the field: "gf(<prime>)", or "exact" for the rationals (prime None)."""
    return "exact" if prime is None else f"gf({prime})"


class MatrixSpace:
    """Linear span of sparse vectors, kept as a reduced echelon basis.

    A vector is a {coordinate: value} map; matrices enter row-major, as
    `IntMatrix.vectorize` or `OddGraph.embed_vector` lays them out.  The
    basis is held as sparse rows in reduced row-echelon form over GF(p)
    (pivot value 1) or, with prime=None, as primitive integer rows with
    positive pivots, reduced fraction-free so that membership and dimension
    are exact over the rationals.
    """

    def __init__(self, *, prime: int | None = DEFAULT_PRIME):
        if prime is not None and not is_prime(prime):
            raise ParameterError(f"{prime} is not prime")
        self.prime = prime
        self._rows: dict[int, dict[int, int]] = {}  # pivot coordinate -> row

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def field_name(self) -> str:
        return field_name(self.prime)

    def iter_basis(self):
        """Yield (pivot, row) pairs in pivot order.  Rows are internal: do not mutate."""
        for piv in sorted(self._rows):
            yield piv, self._rows[piv]

    def insert_vector(self, vec: dict[int, int]) -> bool:
        """Reduce `vec` against the basis; grow the basis if independent.

        Returns True when the dimension grew.  `vec` itself is not modified.
        """
        v = self._normalize_input(vec)
        self._reduce(v)
        if not v:
            return False
        piv = min(v)
        if piv in self._rows:
            # a reduced vector meets no pivot; storing it would overwrite a basis row
            raise EliminationDivergenceError(
                f"reduction left pivot {piv} in a vector over {self.field_name}"
            )
        self._normalize_row(v, piv)
        # Keep the basis fully reduced: clear the new pivot coordinate from
        # every existing row.  `v` carries no other pivot coordinates, so
        # existing pivots are untouched.
        for row in self._rows.values():
            if piv in row:
                self._eliminate(row, v, piv)
                if self.prime is None:
                    self._strip_content(row)
        self._rows[piv] = v
        return True

    def contains_vector(self, vec: dict[int, int]) -> bool:
        """True iff `vec` lies in the current span.  `vec` itself is not modified."""
        v = self._normalize_input(vec)
        self._reduce(v)
        return not v

    # -- internals ----------------------------------------------------------

    def _normalize_input(self, vec: dict[int, int]) -> dict[int, int]:
        # A copy of `vec` with every value in range: nonzero, and in 1..p-1
        # over GF(p).  Inputs already in range, as every embedded matrix
        # with small positive entries is, are copied without a loop.
        p = self.prime
        values = vec.values()
        if p is None:
            if 0 not in values:
                return dict(vec)
            return {c: v for c, v in vec.items() if v}
        if not vec or (min(values) > 0 and max(values) < p):
            return dict(vec)
        out = {}
        for c, v in vec.items():
            v %= p
            if v:
                out[c] = v
        return out

    def _reduce(self, v: dict[int, int]):
        """Clear every pivot coordinate of `v`, in place.

        One pass over the pivots `v` meets is enough.  Every stored row is
        zero at all other pivots and has no coordinate below its own pivot,
        so eliminating pivot c changes `v` at c and at non-pivot coordinates
        only: each pivot present at the start fires once, and none appears.
        The loop still re-reads the pivots `v` meets after each pass, and
        stops after dim + 1 firings with `EliminationDivergenceError`, so a
        broken field kernel fails instead of looping forever.
        """
        rows = self._rows
        dim, fired = len(rows), 0
        hits = v.keys() & rows.keys()
        while hits:
            for c in sorted(hits):
                if fired > dim:
                    raise EliminationDivergenceError(
                        f"reducing one vector did not finish after {fired} pivot eliminations "
                        f"against a basis of dimension {dim} over {self.field_name}"
                    )
                self._eliminate(v, rows[c], c)
                fired += 1
            hits = v.keys() & rows.keys()

    def _eliminate(self, v: dict[int, int], row: dict[int, int], c: int):
        # Subtract the multiple of `row` that clears coordinate c of `v`.
        # Over the rationals `v` is first scaled by row[c] / gcd, and its
        # content is left for the caller to strip.  The row's support is
        # popped out of `v` in one pass and compared with the multiple
        # whole; only nonzero differences are put back.
        p = self.prime
        if p is None:
            a, b = row[c], v[c]
            g = gcd(a, b)
            fa, fb = a // g, b // g
        else:
            fa, fb = 1, v[c]  # stored rows have pivot value 1
        want = _scaled(list(row.values()), fb, p)
        old = list(map(v.pop, row, repeat(0)))
        if fa != 1:
            for cc in v:
                v[cc] *= fa
            old = [fa * x for x in old]
        if old == want:  # the row's support cancels exactly
            return
        if p is None:
            new = list(map(sub, old, want))
        else:
            new = [(x - w) % p for x, w in zip(old, want)]
        v.update(compress(zip(row, new), new))

    @staticmethod
    def _strip_content(v: dict[int, int]):
        g = 0
        for val in v.values():
            g = gcd(g, val)
            if g == 1:
                return
        if g > 1:
            for c in v:
                v[c] //= g

    def _normalize_row(self, v: dict[int, int], piv: int):
        p = self.prime
        if p is not None:
            inv = pow(v[piv], -1, p)
            if inv != 1:
                for c in v:
                    v[c] = v[c] * inv % p
        else:
            self._strip_content(v)
            if v[piv] < 0:
                for c in v:
                    v[c] = -v[c]


# -- Matrix Market exchange format -----------------------------------------


def write_matrix_market(matrix: IntMatrix, destination):
    """Write `matrix` in coordinate integer general format, 1-based,
    entries sorted by (row, column)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="ascii") as fh:
            write_matrix_market(matrix, fh)
        return
    destination.write(MM_HEADER + "\n")
    destination.write(f"{matrix.nrows} {matrix.ncols} {matrix.nnz}\n")
    for r, c, v in matrix.iter_entries():
        destination.write(f"{r + 1} {c + 1} {v}\n")

