"""Exact sparse integer matrices and row-reduced matrix spans.

Everything here is exact: matrix entries are Python big integers, and span
arithmetic runs either over GF(p) for a configured prime p or over the
rationals, with `fractions.Fraction` for the values that are not integers.
No floating point is used anywhere in this module.

`IntMatrix.__matmul__` is the one product kernel for every caller.  It
packs each row of the right factor into a single Python integer, one
fixed-width bit field per column, wide enough for every entry of the
product, so a result row costs one big-integer add per nonzero of the left
row.  It has two loops, chosen from the left factor's entries: when every
entry is 1, as in every intersection matrix and so in every left factor of
the `products` sweep, each nonzero adds its packed right row as it is;
any other left factor takes the loop that scales that row by the entry.
Each matrix decides this once, on its first use as a left factor, and
keeps the answer beside its max |entry|.  A field is 8, 16, 32 or 64 bits
wide; a product that would need a wider one is refused with
`ParameterError` (the largest bound any check reaches is 12012, at
m = 6).  `_pack` is the one packing loop for row dicts.  The product
keeps its integers with their field width, and reads its rows back,
through `int.to_bytes` and a signed `array`, only when something first
reads them; `decompose_product` compares the integers themselves
(`IntMatrix._packed_form`), reads row 0's class values as single digits
(`_read_digits`, with the bias of `_read_back`), and never reads a sweep
product back.  One
module-level slot holds the last right factor with its field width and
packed rows, as a tuple replaced whole; a product whose right factor is
that same object at that width reuses the rows, so a caller that runs its
products with one right factor in a row (as the `products` sweep does)
packs it once.  Each matrix computes its max |entry| once and keeps it.

`MatrixSpace` stores each basis row packed, as (coords, values): the
row's coordinates in ascending order in a signed 4-byte `array`, so
coords[0] is the pivot, and one shared value when every entry is equal, as
in every basis row of T, or else a list parallel to coords.  Every ambient
coordinate is below n**2 <= 1716**2 < 2**31, so a row of T costs 4 bytes
per entry; a coordinate outside the signed 32-bit range is refused with
`ParameterError`.  Vectors in flight are {coordinate: value} dicts, and
`iter_basis` hands out a fresh dict per row.  `rows_not_stored_in`
compares two spaces' packed rows pivot by pivot and unpacks only the rows
the other space does not store, so the packed format stays in this
module.  The span reduces each vector in one pass: it eliminates each
pivot the vector meets once, because the stored basis is fully reduced.
One elimination pops the pivot row's coords out of the vector with one
`map`, compares them with the multiple of the row as a list, and puts
back only the nonzero differences.  The multiple of a row with one shared
value is one product.  A dependent
candidate built from T's disjoint 0/1 blocks cancels each row it meets
exactly, so nothing goes back.  The input is copied once on the way in
(with `dict` when its values are already in range) and never modified.
Every stored row, in every field, has pivot value 1: a new row's
coordinates are sorted once and its values scaled by the inverse of its
pivot value, one product when they are equal.  An older row is unpacked
only when `bisect` finds the new pivot among its coords.  Over the
rationals an integral value is kept as a plain `int`, so T's 0/1 rows
compare and multiply as ints.  Both `insert_vector` and `contains_vector`
check the reduction's defining property afterwards: a reduced vector that
still meets a pivot raises `EliminationDivergenceError`, so a broken field
kernel fails instead of overwriting a basis row or answering wrongly.

IntMatrix values are immutable after construction and safe to share between
threads; the cached max |entry| and all-ones answer, the packing slot and
a product's one storage slot are each written whole, so concurrent
products at worst compute one of them twice, and concurrent readers of a
product still held packed at worst read its rows back twice.  MatrixSpace is
single-writer: readers are fine once insertion stops, but concurrent
insertions must be serialized by the caller.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import chain, compress, repeat
from pathlib import Path

from .errors import EliminationDivergenceError, ParameterError, ShapeError

#: Default prime for span arithmetic, with a second prime for confirmation
#: passes.  Both exceed 10**6 so small integer coefficients cannot collide
#: with zero mod p.
DEFAULT_PRIMES = (1_000_000_007, 998_244_353)
DEFAULT_PRIME = DEFAULT_PRIMES[0]

MM_HEADER = "%%MatrixMarket matrix coordinate integer general"

# Signed array typecodes by item size, for reading matmul fields of 8 to 64 bits.
_SIGNED_BY_SIZE = {array(t).itemsize: t for t in "bhiq"}
# A packed basis row's coordinates are signed 4-byte items: each lies in
# [-_COORD_BOUND, _COORD_BOUND).
_COORD_TYPECODE = _SIGNED_BY_SIZE[4]
_COORD_BOUND = 1 << 31
_BIG_ENDIAN = sys.byteorder == "big"


class IntMatrix:
    """Sparse matrix with exact integer entries, stored by row.

    One slot holds the rows, in one of two forms and never both: row dicts
    {row: {col: value}}, or, for a product of `__matmul__` not yet read,
    its packing (W, {row: packed row}) as the kernel built it.  The first
    read of `_rows`, through any method but `nnz`, reads the packing back
    and replaces the slot whole with the dicts, so the packing is dropped
    and a concurrent reader at worst reads it back twice.  `nnz` counts on
    a read-back it does not keep.

    Treat instances as frozen: none of the public operations mutate their
    operands, and shared instances (including cached ones) must never be
    modified in place.
    """

    __slots__ = ("nrows", "ncols", "_store", "_max", "_ones")

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
        self._store = rows
        self._max = self._ones = None

    @classmethod
    def _wrap(cls, nrows: int, ncols: int, rows) -> "IntMatrix":
        # Internal fast path: takes ownership of `rows`, either row dicts
        # with no zero values and no empty row, or a packed (W, {row: int})
        # pair as `__matmul__` builds it, with no zero row.
        m = cls.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m._store = rows
        m._max = m._ones = None
        return m

    @property
    def _rows(self) -> dict[int, dict[int, int]]:
        # The rows as {row: {col: value}}.  A product still held packed is
        # read back on this first read, and the dicts replace the packing.
        store = self._store
        if type(store) is tuple:
            width, packed = store
            store = _read_back(width, packed, self.ncols)
            self._store = store
        return store

    def _packed_form(self) -> tuple[int, dict[int, int]]:
        """(W, {row: packed row}): every nonzero row as one integer, entry
        (r, c) the signed digit in the W-bit field at bit W*c.

        A product still held packed returns its packing as the kernel built
        it; any other matrix is packed anew at the smallest of 8, 16, 32 and
        64 bits with max|entry| < 2**(W-1), and nothing is kept (a larger
        entry raises ParameterError).  Each |entry| is then below 2**(W-1),
        so the signed base-2**W digits of a row's integer are unique: two
        rows with equal integers are equal.
        """
        store = self._store
        if type(store) is tuple:
            return store
        width = 8 * _field_bytes(self._max_abs())
        return width, _pack(store, width, {})

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
        # a product still held packed is counted on a read-back that is not
        # kept, so counting leaves it as `decompose_product` reads it
        store = self._store
        if type(store) is tuple:
            store = _read_back(*store, self.ncols)
        return sum(map(len, store.values()))

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
        W-bit field at bit W*c, where W is the smallest of 8, 16, 32 and 64
        with max|self| * max|other| * inner dimension < 2**(W-1); a larger
        bound raises ParameterError.
        A result row is the sum of a * packed[k] over the nonzeros a at
        (row, k): the integer with the row's entries as its base-2**W
        digits.  Two loops form it, chosen from the entries of `self`: when
        every one is 1 (`_all_ones`, decided on first use and kept), each
        nonzero adds packed[k] as it is, with no entry read; otherwise each
        adds a * packed[k], or packed[k] where a is 1.  The product keeps W
        and these integers, one per nonzero row, as they are; its rows are
        read back (`_read_back`) only when something first reads them, and
        a caller that needs only the packing (`decompose_product`, through
        `_packed_form`) never pays for it.

        The packed rows of the last right factor are kept in one slot, and
        a product whose right factor is that same object, at the same W,
        reuses them: a run of products sharing a right factor packs it once.
        Each operand's max|entry| is computed once and kept on the matrix.
        """
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        ncols, left = other.ncols, self._rows
        if not left or not other._rows:
            return IntMatrix._wrap(self.nrows, ncols, {})
        width = 8 * _field_bytes(self._max_abs() * other._max_abs() * self.ncols)
        packed = _packed_rows(other, width)
        if self._ones is None:  # decided on first use as a left factor, and kept
            self._ones = _all_ones(left)
        rows = {}
        if self._ones:
            for r, row in left.items():
                acc = 0
                for k in row:
                    acc += packed[k]
                if acc:  # base-2**W digits in range are unique: a zero row packs to 0
                    rows[r] = acc
        else:
            for r, row in left.items():
                acc = 0
                for k, a in row.items():
                    acc += packed[k] if a == 1 else a * packed[k]
                if acc:
                    rows[r] = acc
        return IntMatrix._wrap(self.nrows, ncols, (width, rows))

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


def _all_ones(rows: dict) -> bool:
    """Whether every value of the row dicts `rows` is 1."""
    return {1}.issuperset(chain.from_iterable(map(dict.values, rows.values())))


def _field_bytes(bound: int) -> int:
    """Bytes per field: the smallest of 1, 2, 4 and 8 with bound < 2**(8*bytes - 1).

    A bound of 2**63 or more raises ParameterError.
    """
    for nbytes in (1, 2, 4, 8):
        if bound < 1 << (8 * nbytes - 1):
            return nbytes
    raise ParameterError(f"entry bound {bound} does not fit a signed 64-bit field")


def _pack(rows: dict, width: int, packed):
    """`packed`, a dict or a list, with packed[r] set to row r of `rows` as
    one integer for every r in `rows`: entry (r, c) the signed digit in the
    `width`-bit field at bit width*c.  Every |entry| must be below
    2**(width-1)."""
    for r, row in rows.items():
        word = 0
        for c, x in row.items():
            word += x << (width * c)
        packed[r] = word
    return packed


def _read_back(width: int, packed: dict[int, int], ncols: int) -> dict[int, dict[int, int]]:
    """The rows of a packing as {row: {col: value}}, without zero entries.

    No entry reaches 2**(W-1) in absolute value, so adding a bias of
    2**(W-1) in every field leaves each field in [1, 2**W - 1] with no
    carry across fields, and flipping each field's top bit then gives the
    entry in W-bit two's complement, read with a signed `array`.
    """
    nbytes = width // 8
    size, typecode = nbytes * ncols, _SIGNED_BY_SIZE[nbytes]
    biased = _field_bias(width, ncols)
    rows = {}
    for r, acc in packed.items():
        fields = array(typecode, ((acc + biased) ^ biased).to_bytes(size, "little"))
        if _BIG_ENDIAN:
            fields.byteswap()
        # the (column, entry) pairs whose entry is nonzero
        rows[r] = dict(compress(enumerate(fields), fields))
    return rows


def _field_bias(width: int, ncols: int) -> int:
    """2**(W-1) in every one of `ncols` W-bit fields, the bias of `_read_back`."""
    nbytes = width // 8
    return int.from_bytes((1 << (width - 1)).to_bytes(nbytes, "little") * ncols, "little")


def _read_digits(width: int, word: int, ncols: int, columns) -> list[int]:
    """The entries at `columns` of one packed row `word` of `ncols` fields.

    As in `_read_back`, the bias 2**(W-1) goes into every field, so a
    negative field below a read one cannot borrow from it: each field is
    then its entry plus 2**(W-1), with no carry across fields.
    """
    biased = word + _field_bias(width, ncols)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    return [(biased >> (width * c) & mask) - half for c in columns]


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
    packed = _pack(matrix._rows, width, [0] * matrix.nrows)  # a row of zeros packs to 0
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


def _stored(x, p: int | None):
    """x as a stored field value: reduced mod p, or over the rationals (p None)
    a plain int when it is integral, whether x is an int or a Fraction."""
    if p is not None:
        return x % p
    return x.numerator if x.denominator == 1 else x


def _scaled(values, f, p: int | None):
    """f times the values of a packed row, as stored field values, packed the same way.

    One shared value, as in every basis row of T, takes one product.
    """
    if type(values) is list:
        return [_stored(f * x, p) for x in values]
    return _stored(f * values, p)


def _packed(row: dict) -> tuple:
    """`row` as (coords, values): its coordinates ascending in a signed 4-byte
    `array`, and its one value when every entry is equal, else its values in
    that order.  A coordinate outside the signed 32-bit range raises
    ParameterError."""
    coords = sorted(row)
    values = list(map(row.__getitem__, coords))
    first = values[0]
    lo, hi = coords[0], coords[-1]
    if lo < -_COORD_BOUND or hi >= _COORD_BOUND:
        bad = lo if lo < -_COORD_BOUND else hi
        raise ParameterError(f"coordinate {bad} is outside the signed 32-bit range")
    return array(_COORD_TYPECODE, coords), first if values.count(first) == len(values) else values


def _unpacked(row: tuple) -> dict:
    """A packed row as a fresh {coordinate: value} dict."""
    coords, values = row
    return dict(zip(coords, values if type(values) is list else repeat(values)))


def field_name(prime: int | None) -> str:
    """Report label of the field: "gf(<prime>)", or "exact" for the rationals (prime None)."""
    return "exact" if prime is None else f"gf({prime})"


class MatrixSpace:
    """Linear span of sparse vectors, kept as a reduced echelon basis.

    A vector is a {coordinate: value} map; matrices enter row-major, as
    `IntMatrix.vectorize` or `OddGraph.embed_vector` lays them out.  The
    basis is held in reduced row-echelon form with pivot value 1, over
    GF(p) or, with prime=None, over the rationals, where a value is an int
    when integral and a `fractions.Fraction` otherwise.  Each row is stored
    packed, as (coords, values) from `_packed`; `iter_basis` reads them
    back as dicts.  Coordinates must fit in a signed 32-bit integer.
    """

    def __init__(self, *, prime: int | None = DEFAULT_PRIME):
        if prime is not None and not is_prime(prime):
            raise ParameterError(f"{prime} is not prime")
        self.prime = prime
        self._rows: dict[int, tuple] = {}  # pivot coordinate -> packed row

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def field_name(self) -> str:
        return field_name(self.prime)

    def iter_basis(self):
        """Yield (pivot, row) pairs in pivot order, each row a fresh {coordinate: value} dict."""
        for piv in sorted(self._rows):
            yield piv, _unpacked(self._rows[piv])

    def insert_vector(self, vec: dict[int, int]) -> bool:
        """Reduce `vec` against the basis; grow the basis if independent.

        Returns True when the dimension grew.  `vec` itself is not modified.
        """
        v = self._reduced(vec)
        if not v:
            return False
        coords, values = _packed(v)
        piv = coords[0]
        new = coords, _scaled(values, self._inverse(v[piv]), self.prime)
        # Keep the basis fully reduced: clear the new pivot coordinate from
        # every existing row that holds it.  `new` carries no other pivot
        # coordinates, so existing pivots are untouched.
        rows = self._rows
        for key, (held, _) in rows.items():
            i = bisect_left(held, piv)
            if i < len(held) and held[i] == piv:
                row = _unpacked(rows[key])
                self._eliminate(row, new, piv)
                rows[key] = _packed(row)
        rows[piv] = new
        return True

    def contains_vector(self, vec: dict[int, int]) -> bool:
        """True iff `vec` lies in the current span.  `vec` itself is not modified."""
        return not self._reduced(vec)

    def rows_not_stored_in(self, other: "MatrixSpace"):
        """(pivot, row) pairs, in pivot order, for each basis row of this space
        that `other` does not store identically at the same pivot; each row is
        a fresh {coordinate: value} dict.

        A row `other` stores is one of its basis vectors, so every row left
        out lies in span(other) with no reduction.  Both spaces keep the one
        reduced row-echelon basis of their span, with pivot value 1, so
        equal spans yield nothing; a row yielded may still lie in
        span(other), and `contains_vector` decides.  The packed rows are
        compared as stored, and none is unpacked unless it is yielded.
        Spaces over different fields raise ParameterError.
        """
        if other.prime != self.prime:
            raise ParameterError(
                f"cannot compare a basis over {self.field_name} with one over {other.field_name}"
            )
        rows, held = self._rows, other._rows
        return ((piv, _unpacked(rows[piv])) for piv in sorted(rows) if held.get(piv) != rows[piv])

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
        distinct = set(values)  # one pass over the values, where min and max take two
        if not distinct or (min(distinct) > 0 and max(distinct) < p):
            return dict(vec)
        out = {}
        for c, v in vec.items():
            v %= p
            if v:
                out[c] = v
        return out

    def _reduced(self, vec: dict[int, int]) -> dict[int, int]:
        # `vec` normalized and reduced, as a fresh dict that meets no pivot.
        # The check after `_reduce` refuses a reduction that leaves a pivot,
        # as a stuck or sign-flipped elimination or a skipped pass does.
        v = self._normalize_input(vec)
        self._reduce(v)
        pivots_left = v.keys() & self._rows.keys()
        if pivots_left:
            raise EliminationDivergenceError(
                f"reduction left pivot {min(pivots_left)} in a vector over {self.field_name}"
            )
        return v

    def _reduce(self, v: dict[int, int]):
        """Clear every pivot coordinate of `v`, in place, in one pass.

        Every stored row is zero at all other pivots, so eliminating pivot c
        changes `v` at c and at non-pivot coordinates only: each pivot `v`
        meets fires once, and none appears.  `_reduced` checks that no pivot
        is left, so a broken field kernel fails after one pass.
        """
        rows = self._rows
        for c in v.keys() & rows.keys():
            self._eliminate(v, rows[c], c)

    def _eliminate(self, v: dict, row: tuple, c: int):
        # Subtract v[c] times the packed `row`, whose pivot value is 1,
        # clearing coordinate c of `v`.  The row's coords are popped out of
        # `v` in one pass and compared with the multiple whole; only nonzero
        # differences are put back.
        p = self.prime
        coords, values = row
        want = _scaled(values, v[c], p)
        if type(want) is not list:
            want = [want] * len(coords)
        old = list(map(v.pop, coords, repeat(0)))
        if old == want:  # the row's support cancels exactly
            return
        new = [_stored(x - w, p) for x, w in zip(old, want)]
        v.update(compress(zip(coords, new), new))

    def _inverse(self, x):
        """1 / x as a stored field value."""
        if self.prime is not None:
            return pow(x, -1, self.prime)
        # imported here, not with the module: `fractions` imports `decimal`,
        # and a run that builds no rational basis needs neither
        from fractions import Fraction

        return _stored(Fraction(1, x), None)


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

