"""The Odd graph on m-subsets of a (2m+1)-set, distance-partitioned around a base vertex.

Vertices are m-subsets of {0..2m}, adjacent exactly when disjoint.  The base
vertex is fixed to x = {0..m-1}: the graph is distance-transitive, so the
algebra built on top is the same for every choice and exposing one would
only add meaningless configuration.

The canonical vertex order sorts vertices by distance class and, inside a
class, by the pair (part inside x, part outside x), each part in colex
order with the inside part most significant.  Under this order every
nonzero block of the adjacency matrix literally equals a Kronecker product
of two intersection matrices (one on subsets of x, one on subsets of the
complement), not just up to permutation.

OddGraph instances are immutable after construction and safe to share.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations

from .combinatorics import SubsetIndex, binomial
from .errors import GraphStructureError, ParameterError, ShapeError
from .exactmat import IntMatrix, kron
from .intersection import intersection_matrix
from .report import CheckResult

BlockRef = tuple[int, int]

#: Building above this m is refused: C(13, 6) = 1716 vertices is the
#: largest graph the tooling builds.
DEFAULT_MAX_M = 6


def part_sizes(m: int, d: int) -> tuple[int, int]:
    """Sizes of (vertex ∩ x, vertex \\ x) for the vertices of distance class d.

    These two sizes fix both Kronecker factor shapes of every block that
    touches class d.
    """
    i = d // 2
    if d % 2 == 0:
        return m - i, i
    return i, m - i


class OddGraph:
    def __init__(self, m: int):
        if m < 1:
            raise ParameterError("m must be at least 1")
        if m > DEFAULT_MAX_M:
            raise ParameterError(f"m={m} exceeds the supported ceiling {DEFAULT_MAX_M}")
        self.m = m
        self.ground_size = 2 * m + 1
        self.x = tuple(range(m))
        self.diameter = m

        self.vertices: list[tuple[int, ...]] = []
        self.class_offsets: list[int] = []
        self._class_sizes: list[int] = []
        for d in range(m + 1):
            self.class_offsets.append(len(self.vertices))
            inside, outside = part_sizes(m, d)
            inside_index = SubsetIndex(m, inside)
            outside_index = SubsetIndex(m + 1, outside)
            for alpha in inside_index.subsets():
                for beta in outside_index.subsets():
                    self.vertices.append(tuple(sorted(alpha + tuple(b + m for b in beta))))
            self._class_sizes.append(inside_index.count * outside_index.count)
        self.num_vertices = len(self.vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._adjacency: IntMatrix | None = None

        self._neighbors = [
            sorted(self._index[z] for z in combinations(self._complement(y), m))
            for y in self.vertices
        ]
        self._check_structure()

    def _complement(self, y) -> tuple[int, ...]:
        ys = set(y)
        return tuple(e for e in range(self.ground_size) if e not in ys)

    def _check_structure(self):
        # The class assignment comes from intersection sizes with x; BFS from
        # x is the independent cross-check, along with regularity and diameter.
        if self.num_vertices != binomial(self.ground_size, self.m):
            raise GraphStructureError("vertex count mismatch")
        degree = self.m + 1
        if any(len(nbrs) != degree for nbrs in self._neighbors):
            raise GraphStructureError("graph is not (m+1)-regular")
        dist = self.bfs_distances()
        if max(dist) != self.diameter:
            raise GraphStructureError("BFS diameter mismatch")
        for idx in range(self.num_vertices):
            if dist[idx] != self.class_of(idx):
                raise GraphStructureError(f"class/BFS mismatch at vertex {idx}")

    # -- structure queries ---------------------------------------------------

    def class_size(self, d: int) -> int:
        if not 0 <= d <= self.m:
            raise ParameterError(f"distance class {d} out of range 0..{self.m}")
        return self._class_sizes[d]

    def class_offset(self, d: int) -> int:
        if not 0 <= d <= self.m:
            raise ParameterError(f"distance class {d} out of range 0..{self.m}")
        return self.class_offsets[d]

    def class_of(self, vertex_index: int) -> int:
        return bisect_right(self.class_offsets, vertex_index) - 1

    def vertex_index(self, y) -> int:
        return self._index[tuple(sorted(y))]

    def bfs_distances(self) -> list[int]:
        dist = [-1] * self.num_vertices
        dist[0] = 0
        frontier = [0]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in self._neighbors[u]:
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        if min(dist) < 0:
            raise GraphStructureError("graph is not connected")
        return dist

    # -- matrices --------------------------------------------------------------

    def adjacency(self) -> IntMatrix:
        """Symmetric 0/1 adjacency matrix in canonical vertex order."""
        if self._adjacency is None:
            rows = {i: {j: 1 for j in nbrs} for i, nbrs in enumerate(self._neighbors)}
            self._adjacency = IntMatrix._wrap(self.num_vertices, self.num_vertices, rows)
        return self._adjacency

    def dual_idempotent(self, d: int) -> IntMatrix:
        """Diagonal projector onto distance class d."""
        off = self.class_offset(d)
        rows = {i: {i: 1} for i in range(off, off + self.class_size(d))}
        return IntMatrix._wrap(self.num_vertices, self.num_vertices, rows)

    def extract_block(self, matrix: IntMatrix, block: BlockRef) -> IntMatrix:
        """Submatrix with rows from class block[0] and columns from class block[1]."""
        n = self.num_vertices
        if matrix.shape != (n, n):
            raise ShapeError(f"expected {n}x{n} matrix, got {matrix.shape}")
        bi, bj = block
        r0, c0 = self.class_offset(bi), self.class_offset(bj)
        nr, nc = self.class_size(bi), self.class_size(bj)
        rows: dict[int, dict[int, int]] = {}
        for r in range(r0, r0 + nr):
            src = matrix.row_values(r)
            row = {c - c0: v for c, v in src.items() if c0 <= c < c0 + nc}
            if row:
                rows[r - r0] = row
        return IntMatrix._wrap(nr, nc, rows)

    def embed_vector(self, left: IntMatrix, right: IntMatrix, block: BlockRef) -> dict[int, int]:
        """Row-major ambient coordinates of kron(left, right) placed at `block`.

        Entry (ra, ca) of `left` times entry (rb, cb) of `right` is entry
        (ra * right.nrows + rb, ca * right.ncols + cb) of the block, as in
        `kron`, and block entry (r, c) is ambient entry (offset_p + r,
        offset_q + c) at coordinate row * n + column.  Neither the Kronecker
        product nor the n x n ambient matrix is built.  A matrix that is not
        a Kronecker product embeds as kron(matrix, IntMatrix.identity(1)).
        """
        bi, bj = block
        nr, nc = self.class_size(bi), self.class_size(bj)
        shape = (left.nrows * right.nrows, left.ncols * right.ncols)
        if shape != (nr, nc):
            raise ShapeError(f"block {block} has shape {(nr, nc)}, got {shape}")
        n = self.num_vertices
        base = self.class_offset(bi) * n + self.class_offset(bj)
        row_step, col_step = right.nrows * n, right.ncols
        # each entry (rb, cb) of `right` as its offset rb * n + cb inside one left entry's tile
        right_entries = [(rb * n + cb, vb) for rb, brow in right._rows.items() for cb, vb in brow.items()]
        return {
            start + offset: va * vb
            for ra, arow in left._rows.items()
            for ca, va in arow.items()
            for start in (base + ra * row_step + ca * col_step,)
            for offset, vb in right_entries
        }

    def block_of_coordinate(self, coord: int) -> BlockRef:
        """Distance-class block containing one row-major ambient coordinate."""
        n = self.num_vertices
        return (self.class_of(coord // n), self.class_of(coord % n))

    # -- exports ----------------------------------------------------------------

    def vertex_manifest(self) -> dict:
        """JSON-ready vertex order: needed to interpret exported matrices."""
        return {
            "m": self.m,
            "vertices": [list(v) for v in self.vertices],
            "class_offsets": list(self.class_offsets),
        }


def expected_block_factors(m: int, block: BlockRef) -> tuple[IntMatrix, IntMatrix] | None:
    """The Kronecker factors the adjacency block must equal, or None for zero blocks.

    Two vertices are adjacent when both their parts inside x and outside x
    are disjoint, so the block is kron(H(a, b, 0, m), H(u, w, 0, m+1)) for
    the part sizes (a, u) and (b, w) of the two classes; it vanishes when no
    such disjoint pair fits.  This is the one rule for which blocks of the
    adjacency matrix are nonzero: (i, i ± 1) and (m, m).
    """
    (a, u), (b, w) = part_sizes(m, block[0]), part_sizes(m, block[1])
    if a + b > m or u + w > m + 1:
        return None
    return intersection_matrix(a, b, 0, m), intersection_matrix(u, w, 0, m + 1)


def first_difference(got: dict[int, int], expected: dict[int, int]) -> int | None:
    """Smallest row-major coordinate where two vectors differ, or None when they are equal."""
    if got == expected:
        return None
    return min(k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k))


def verify_adjacency_blocks(graph: OddGraph) -> CheckResult:
    """Entry-exact check of the adjacency matrix against its block Kronecker structure.

    Verifies that non-admissible blocks vanish (the graph is almost
    bipartite), that each admissible block equals its Kronecker product of
    intersection matrices under the canonical order, and that opposite
    blocks are mutual transposes.
    """
    a = graph.adjacency()
    m = graph.m
    witnesses = []
    blocks = {}
    for bi in range(m + 1):
        for bj in range(m + 1):
            blocks[(bi, bj)] = graph.extract_block(a, (bi, bj))
    for (bi, bj), got in sorted(blocks.items()):
        factors = expected_block_factors(m, (bi, bj))
        got_vec = got.vectorize()
        expected = {} if factors is None else kron(*factors).vectorize()
        coord = first_difference(got_vec, expected)
        if coord is not None:
            witnesses.append(
                {
                    "kind": "zero_block_violated" if factors is None else "block_mismatch",
                    "block": [bi, bj],
                    "entry": list(divmod(coord, got.ncols)),
                    "got": got_vec.get(coord, 0),
                    "expected": expected.get(coord, 0),
                }
            )
    for (bi, bj), got in sorted(blocks.items()):
        if bi <= bj and blocks[(bj, bi)] != got.transpose():
            witnesses.append({"kind": "symmetry_violated", "block": [bi, bj]})
    return CheckResult.from_witnesses("blocks", witnesses, params={"m": m})
