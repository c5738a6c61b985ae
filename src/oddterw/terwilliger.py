"""Span closure of the subconstituent algebra of an Odd graph, and its verification.

Two independent constructions of the same matrix algebra are provided:

* `closure` grows the span of all words in the adjacency matrix and the
  distance projectors until multiplication stabilizes it, and

* `block_generators` lists, block by block, an explicit family of embedded
  Kronecker products of intersection matrices.

The verify_* functions machine-check that the two coincide, that the
explicit family is a basis, that specific membership families hold, and
that the dimension matches the closed-form count C(m+4, 4).

The closure keeps every element it multiplies in the factored form the
paper's basis has: one distance-class block and a pair of small factors
(left, right) standing for kron(left, right).  Products are taken factor
by factor, and an element is expanded only when it is offered to the span:
`OddGraph.embed_vector` writes the ambient coordinates of kron(left, right)
straight from the two factors, and `MatrixSpace.insert_vector` reduces that
vector in one pass.  The closure reads its adjacency factor pairs from one
table, `expected_block_factors` over every block, and its diagonal seeds
from `projector_factors`, the one rule `projector_factor_mismatches`
checks.  It takes neither on trust: the embedded seeds are compared entry
by entry with the graph's own projectors and its whole adjacency matrix,
zero blocks included, so a wrong factor, a stray graph entry or a wrong
embedding index refuses the graph.  The closure runs sequentially: every
candidate product is reduced against the basis as soon as it is formed.

Each fact has one implementation here.  Every factor pair, of a
projector, an adjacency block or a generator, is a pair of `HSpec`
labels, built into matrices only where a product or an embedding needs
them.  `generator_span` builds the family's span for both the containment
and the basis verifier, and every verifier embeds a `BlockGenerator`
through `_embedded`, from its two factors, as the closure embeds its
elements.  A closure's dimension is read from its span.  Containment of
the closure in that span compares the two reduced bases row by row
(`MatrixSpace.rows_not_stored_in`) and reduces only the closure rows the
family span does not store.
`product_order_witnesses` compares (A A) A, whose left factor A^2 is not
0/1, with A (A A), once per run, for the `closure` check.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass

from .combinatorics import binomial, intersection_range
from .errors import ClosureDivergenceError, GraphStructureError, ParameterError
from .exactmat import DEFAULT_PRIME, IntMatrix, MatrixSpace, kron
from .intersection import HSpec
from .oddgraph import BlockRef, OddGraph, expected_block_factors, first_difference, part_sizes
from .report import CheckResult

#: Closure checks above this m are refused by default tooling; C(13, 6) =
#: 1716 vertices makes m = 6 a minutes-scale opt-in.
DEFAULT_CLOSURE_MAX_M = 5


@dataclass(frozen=True)
class BlockGenerator:
    """One spanning matrix: kron(left, right) embedded at `block`.

    `left` acts on subsets of the base vertex (ground size m), `right` on
    subsets of its complement (ground size m+1).
    """

    block: BlockRef
    left: HSpec
    right: HSpec

    def label(self) -> str:
        return f"block{self.block} {self.left.label()} x {self.right.label()}"


def block_generators(m: int) -> list[BlockGenerator]:
    """The full labeled generating family, one generator per (block, l, s).

    For the block (p, q), write (a, u) and (b, w) for the part sizes of the
    two classes.  The generators are kron(H(a, b, l, m), H(u, w, s, m+1))
    for every feasible l and s.  The count over all blocks is C(m+4, 4).
    This is the paper's basis, which it lists case by case on the parities
    of p and q; the part sizes carry the parity, so one rule covers all four
    cases.
    """
    if m < 1:
        raise ParameterError("m must be at least 1")
    gens = []
    for p in range(m + 1):
        a, u = part_sizes(m, p)
        for q in range(m + 1):
            b, w = part_sizes(m, q)
            gens += [
                BlockGenerator((p, q), HSpec(a, b, l, m), HSpec(u, w, s, m + 1))
                for l in intersection_range(a, b, m)
                for s in intersection_range(u, w, m + 1)
            ]
    return gens


DimensionIdentity = namedtuple("DimensionIdentity", "block_sum binomial")


def _block_row_sum(i: int, m: int) -> int:
    """Row i of the half-triangle block sum: the terms j = i..m, in closed form.

    With t = m - j running from 0 to m - i, term j is
    (min(i, t) + 1) * (min(i, t + 1) + 1): a ramp (t + 1)(t + 2) for
    t = 0..a, a = min(m - i, i - 1), which sums to (a + 1)(a + 2)(a + 3) / 3,
    then a plateau of (i + 1)^2 for each of the max(0, m - 2i + 1) values
    t = i..m - i.
    """
    a = min(m - i, i - 1)
    return (a + 1) * (a + 2) * (a + 3) // 3 + max(0, m - 2 * i + 1) * (i + 1) ** 2


def _block_dimension_sum(m: int) -> int:
    # sum over blocks (i, j) of |range(m-i, m-j, m)| * |range(i, j, m+1)|.
    # Complementing both subsets leaves the left size unchanged, so it is
    # |range(i, j, m)|, and both sizes are symmetric in (i, j): the sum is
    # twice the sum over j >= i, less the diagonal.  For j >= i the sizes
    # are min(i, m - j) + 1 and min(i, m + 1 - j) + 1, so row i's terms
    # j = i..m sum in closed form (`_block_row_sum`), and its diagonal term
    # is the one at j = i.
    total = diagonal = 0
    for i in range(m + 1):
        total += _block_row_sum(i, m)
        diagonal += (min(i, m - i) + 1) * (min(i, m + 1 - i) + 1)
    return 2 * total - diagonal


def dimension_formula(m: int) -> DimensionIdentity:
    """Evaluate the per-block dimension count and C(m+4, 4); the caller compares them."""
    if m < 1:
        raise ParameterError("m must be at least 1")
    return DimensionIdentity(_block_dimension_sum(m), binomial(m + 4, 4))


@dataclass
class ClosureResult:
    """Stabilized span produced by `closure`.

    Once stabilized, left and right multiplication by the adjacency matrix
    and by every distance projector maps the span into itself.
    `missed_words` names the spot-check words found outside the span; it is
    empty for a sound closure.  `dimension` is read from the span itself.
    """

    space: MatrixSpace
    rounds: int
    products_computed: int
    missed_words: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return self.space.dim


def projector_factors(m: int, d: int) -> tuple[HSpec, HSpec]:
    """Kronecker factors of the distance projector E_d* on its diagonal block (d, d).

    With (a, u) the part sizes of class d, both factors are identities:
    H(a, a, a, m) pairs each a-subset with itself, H(u, u, u, m+1) each
    u-subset.
    """
    a, u = part_sizes(m, d)
    return HSpec(a, a, a, m), HSpec(u, u, u, m + 1)


def closure(
    graph: OddGraph,
    prime: int | None = DEFAULT_PRIME,
    max_rounds: int | None = None,
    shuffle: random.Random | None = None,
) -> ClosureResult:
    """Span of all words in the adjacency matrix and the distance projectors.

    Seeds the space with the identity, the adjacency matrix and every
    distance projector, then repeatedly multiplies new basis elements by the
    adjacency matrix on both sides until a full round adds nothing.  Because
    the identity is seeded, multiplying by the generators alone reaches
    every word.

    Working elements are kept supported on single distance-class blocks by
    splitting each product into its blocks up front (the diagonal projectors
    fix or kill single-block matrices, so their products add nothing new);
    this keeps span vectors short without changing the resulting span.

    Every working element is a pair (left, right) standing for the block
    matrix kron(left, right), with `left` on subsets of the base vertex and
    `right` on subsets of its complement.  The seeds are the projector
    factors from `projector_factors` on each diagonal block and the
    adjacency factor pairs of one table: the `HSpec` pairs of
    `expected_block_factors` over all blocks in row-major order, keeping
    those that are not None, each built once into its two matrices.  Each
    element's neighbours are read from the table's keys in that order: one
    on block (p, q) is multiplied on the left by the pairs at (r, p), then
    on the right by those at (q, s).  Products are taken on the small factors,
    kron(AL, AR) @ kron(L, R) = kron(AL @ L, AR @ R), and an element is
    materialized only to be offered to the span, by one
    `graph.embed_vector(left, right, block)` call and one `insert_vector`.

    The seeds are the closure's only graph guard: the embedded projector
    seeds must equal `graph.dual_idempotent(d)` and the embedded adjacency
    seeds together the whole of `graph.adjacency()`, zero blocks included,
    both read entry by entry at coordinate r * n + c.  So the factor table,
    the graph and the embedding's index rule are checked at once.  A
    mismatch raises GraphStructureError naming the block and the entry
    (r, c) of the first difference in row-major order.  This reuses the
    seed vectors and adds no `embed_vector` call.

    The seed guard covers words of length one.  Once the span stabilizes,
    three longer words, A^2, A E_1* A and A^3 E_m*, are multiplied out as
    n x n products of `graph.adjacency()` and `graph.dual_idempotent(d)`
    and must lie in the span; each one missed is named in the result's
    `missed_words`, for the `closure` check to report, so the checks that
    read the span still run on it.  They use no factor and no
    `embed_vector`, so an embedding that moves products off the seeds'
    blocks cannot vouch for itself.

    `shuffle`, when given, randomizes processing order inside each round;
    the resulting dimension must not depend on it.
    """
    m = graph.m
    if max_rounds is None:
        max_rounds = 4 * (m + 1) ** 2
    space = MatrixSpace(prime=prime)
    # the nonzero blocks in row-major order, so neighbours read from the keys ascend
    factors = {
        (p, q): tuple(spec.build() for spec in pair)
        for p in range(m + 1)
        for q in range(m + 1)
        if (pair := expected_block_factors(m, (p, q))) is not None
    }

    frontier: list[tuple[BlockRef, IntMatrix, IntMatrix]] = []
    products = 0

    def offer(block: BlockRef, left: IntMatrix, right: IntMatrix) -> dict[int, int]:
        vec = graph.embed_vector(left, right, block)
        if space.insert_vector(vec):
            frontier.append((block, left, right))
        return vec

    # the seeds, each compared with the graph's own matrix read at r * n + c
    for d in range(m + 1):
        left, right = projector_factors(m, d)
        if offer((d, d), left.build(), right.build()) != graph.dual_idempotent(d).vectorize():
            raise GraphStructureError(
                f"the embedded seed of E_{d}* differs from the graph's projector"
            )
    adjacency: dict[int, int] = {}
    for block, (left, right) in factors.items():
        adjacency.update(offer(block, left, right))
    coord = first_difference(adjacency, graph.adjacency().vectorize())
    if coord is not None:
        (p, q), (r, c) = graph.block_of_coordinate(coord), divmod(coord, graph.num_vertices)
        raise GraphStructureError(
            f"adjacency block ({p}, {q}): the embedded adjacency seeds differ from"
            f" the graph's adjacency at entry ({r}, {c})"
        )

    rounds = 0
    while frontier:
        rounds += 1
        if rounds > max_rounds:
            raise ClosureDivergenceError(
                f"closure did not stabilize within {max_rounds} rounds at m={m}"
            )
        current, frontier = frontier, []
        if shuffle is not None:
            shuffle.shuffle(current)
        for (p, q), left, right in current:
            for (r, t), (a_left, a_right) in factors.items():
                if t == p:
                    products += 1
                    offer((r, q), a_left @ left, a_right @ right)
            for (t, s), (a_left, a_right) in factors.items():
                if t == q:
                    products += 1
                    offer((p, s), left @ a_left, right @ a_right)

    # the seeds vouch for words of length one; three longer words, multiplied
    # out as n x n products of the graph's own matrices, vouch for the products
    a = graph.adjacency()
    a_squared = a @ a
    words = {
        "A^2": a_squared,
        "A E_1* A": a @ (graph.dual_idempotent(1) @ a),
        f"A^3 E_{m}*": a_squared @ (a @ graph.dual_idempotent(m)),
    }
    missed = tuple(
        word for word, matrix in words.items() if not space.contains_vector(matrix.vectorize())
    )

    return ClosureResult(space=space, rounds=rounds, products_computed=products, missed_words=missed)


def _embedded(graph: OddGraph, gen: BlockGenerator) -> dict[int, int]:
    """The ambient coordinates of one generator, embedded from its two factors."""
    return graph.embed_vector(gen.left.build(), gen.right.build(), gen.block)


def generator_span(
    graph: OddGraph, gens: list[BlockGenerator], prime: int | None
) -> tuple[MatrixSpace, list[int]]:
    """Span of the embedded generating family over the given field.

    Each generator is inserted once, in order; also returns the indices of
    those that did not grow the span.
    """
    space = MatrixSpace(prime=prime)
    dependent = [
        idx
        for idx, gen in enumerate(gens)
        if not space.insert_vector(_embedded(graph, gen))
    ]
    return space, dependent


# -- verification ------------------------------------------------------------


def projector_factor_mismatches(graph: OddGraph) -> list[dict]:
    """Check every distance projector against `projector_factors`.

    E_d* must equal the Kronecker product of its two factors on the block
    (d, d) and vanish everywhere else.

    Inside `verify` this can never report: `closure` compares every
    embedded projector seed with `graph.dual_idempotent(d)` entry by entry
    first, and a projector that differs fails `closure-computation`, which
    skips containment.  What it still catches is a fault in `kron` or
    `OddGraph.extract_block`, neither of which the closure calls.  It stays
    only because it is the one caller of `exactmat.kron` on a closure-only
    run, whose traced layers must include `kron`; it goes when that list
    of layers is next re-pinned.
    """
    witnesses = []
    for d in range(graph.m + 1):
        left, right = projector_factors(graph.m, d)
        projector = graph.dual_idempotent(d)
        diagonal = graph.extract_block(projector, (d, d))
        if diagonal != kron(left.build(), right.build()) or diagonal.nnz != projector.nnz:
            witnesses.append(
                {"kind": "projector_mismatch", "class": d, "left": left.label(), "right": right.label()}
            )
    return witnesses


def product_order_witnesses(graph: OddGraph) -> list[dict]:
    """(A A) A must equal A (A A), entry by entry.

    A product kernel that multiplies by the left factor's 0/1 support, not
    by its entries, passes the `products` sweep, whose left factors are
    0/1, and the closure: the support of a combination of intersection
    matrices, which have disjoint 0/1 supports, is a sum of them, so every
    wrong product still lies in T.  The left factor A^2 of (A A) A has
    m + 1 on its diagonal and the left factors of A (A A) are 0/1, so the
    two differ under such a kernel.  Both products have the entry bound
    (m + 1) n and so one field width, and comparing their packed forms
    (`IntMatrix._packed_form`) compares every entry without reading either
    product back.  It depends on no field.
    """
    a = graph.adjacency()
    a_squared = a @ a
    # A (A A) is taken first, so the slot that keeps the last right factor's
    # packing ends up holding A, which the graph keeps anyway, and not A^2
    a_times_square = a @ a_squared
    if (a_squared @ a)._packed_form() != a_times_square._packed_form():
        return [{"kind": "product_order_mismatch", "detail": "(A A) A differs from A (A A)"}]
    return []


def negative_control_witnesses(graph: OddGraph, space: MatrixSpace) -> list[dict]:
    """The span must reject the single-entry matrix at ambient entry (0, class_offset(m)).

    That entry lies in block (0, m), where the only generator is the
    all-ones row of length class_size(m) >= 2, so the matrix is not in T.
    A span that accepts it accepts too much, and every containment it
    vouched for is void.  The entry is the first of that row, so it is the
    pivot of the all-ones row in the reduced basis of T: reducing the
    control cancels one entry of that row and must put the rest back, and a
    reduction that drops the differences accepts it.
    """
    coordinate = graph.class_offset(graph.m)  # row-major: row 0, column class_offset(m)
    if space.contains_vector({coordinate: 1}):
        return [{"kind": "negative_control_accepted", "coordinate": coordinate}]
    return []


def verify_closure_in_generator_span(
    graph: OddGraph, clo: ClosureResult, gens: list[BlockGenerator]
) -> CheckResult:
    """Every closure basis element lies in the span of the generating family.

    Both spaces keep the one reduced row-echelon basis of their span, with
    pivot value 1, so when the spans are equal they store identical rows.
    A closure row that the family span stores identically at the same
    pivot is one of that span's basis vectors, so it lies in the span and
    needs no reduction.  Only a row that differs (`rows_not_stored_in`) is
    reduced with `contains_vector`, and one outside the span is a
    `closure_element_outside_family_span` witness.

    Also checks the projector factorizations that put the closure seeds in
    that span in the first place, and that the span rejects a negative
    control.
    """
    witnesses = projector_factor_mismatches(graph)
    span, _ = generator_span(graph, gens, clo.space.prime)
    witnesses += negative_control_witnesses(graph, span)
    for pivot, row in clo.space.rows_not_stored_in(span):
        if not span.contains_vector(row):
            witnesses.append(
                {
                    "kind": "closure_element_outside_family_span",
                    "pivot": pivot,
                    "block": list(graph.block_of_coordinate(pivot)),
                }
            )
    return CheckResult.from_witnesses(
        f"containment-closure-in-span[{clo.space.field_name}]",
        witnesses,
        params={
            "m": graph.m,
            "field": clo.space.field_name,
            "closure_dim": clo.dimension,
            "span_dim": span.dim,
            "negative_controls": 1,
        },
    )


def verify_generators_in_closure(
    graph: OddGraph, clo: ClosureResult, gens: list[BlockGenerator]
) -> CheckResult:
    """Every embedded generator lies in the closure span; the negative control does not."""
    witnesses = negative_control_witnesses(graph, clo.space)
    for gen in gens:
        if not clo.space.contains_vector(_embedded(graph, gen)):
            witnesses.append({"kind": "generator_outside_closure", "generator": gen.label()})
    return CheckResult.from_witnesses(
        f"containment-span-in-closure[{clo.space.field_name}]",
        witnesses,
        params={
            "m": graph.m,
            "field": clo.space.field_name,
            "generators": len(gens),
            "negative_controls": 1,
        },
    )


def verify_generator_basis(
    graph: OddGraph, clo: ClosureResult, gens: list[BlockGenerator]
) -> CheckResult:
    """The generating family is linearly independent and spans the closure.

    Builds the family's span with `generator_span`: every insert must grow
    the dimension, and the final dimension must equal the closure's.
    """
    space, dependent = generator_span(graph, gens, clo.space.prime)
    witnesses = [
        {"kind": "dependent_generator", "index": idx, "generator": gens[idx].label()}
        for idx in dependent
    ]
    if space.dim != clo.dimension:
        witnesses.append(
            {"kind": "dimension_mismatch", "family_span_dim": space.dim, "closure_dim": clo.dimension}
        )
    return CheckResult.from_witnesses(
        f"basis[{clo.space.field_name}]",
        witnesses,
        params={"m": graph.m, "field": clo.space.field_name, "generators": len(gens)},
    )


def membership_family_cases(m: int) -> list[dict]:
    """Parameter tuples for the two derived membership families.

    odd_odd: kron(H(i,j,l,m), H(m-i,m-j,m-j,m+1)) in the (2i+1, 2j+1) block
    for i <= j <= ceil(m/2)-1 and 0 <= l <= i; odd_even: kron(H(i,m-j,l,m),
    H(m-i,j,j-i-1,m+1)) in the (2i+1, 2j) block for i+1 <= j <= floor(m/2)
    and 0 <= l <= i.
    """
    cases = []
    for j in range((m + 1) // 2):
        for i in range(j + 1):
            for l in range(i + 1):
                cases.append(
                    {
                        "family": "odd_odd",
                        "i": i, "j": j, "l": l,
                        "generator": BlockGenerator(
                            (2 * i + 1, 2 * j + 1),
                            HSpec(i, j, l, m),
                            HSpec(m - i, m - j, m - j, m + 1),
                        ),
                    }
                )
    for j in range(1, m // 2 + 1):
        for i in range(j):
            for l in range(i + 1):
                cases.append(
                    {
                        "family": "odd_even",
                        "i": i, "j": j, "l": l,
                        "generator": BlockGenerator(
                            (2 * i + 1, 2 * j),
                            HSpec(i, m - j, l, m),
                            HSpec(m - i, j, j - i - 1, m + 1),
                        ),
                    }
                )
    return cases


def verify_membership_families(graph: OddGraph, clo: ClosureResult) -> CheckResult:
    """Each matrix of the two derived families lies in the closure span.

    The closure span must also reject the negative control.  Every member is
    a generator of the family, so once `basis` passes this adds nothing.
    """
    witnesses = negative_control_witnesses(graph, clo.space)
    cases = membership_family_cases(graph.m)
    for case in cases:
        gen = case["generator"]
        if not clo.space.contains_vector(_embedded(graph, gen)):
            witnesses.append(
                {
                    "kind": "missing_member",
                    "family": case["family"],
                    "i": case["i"], "j": case["j"], "l": case["l"],
                    "block": list(gen.block),
                }
            )
    return CheckResult.from_witnesses(
        f"memberships[{clo.space.field_name}]",
        witnesses,
        params={
            "m": graph.m,
            "field": clo.space.field_name,
            "cases": len(cases),
            "negative_controls": 1,
        },
        notes=[
            "transcribes the paper's two derived families; it adds nothing once basis passes,"
            " because every well-shaped kron(H, H) on a block lies in T"
        ],
    )
