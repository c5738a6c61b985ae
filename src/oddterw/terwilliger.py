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
vector in one pass.  Before it uses any factor pair the closure runs the
same entry-exact adjacency check as the `blocks` verifier
(`verify_adjacency_blocks`), so it takes no Kronecker claim on trust and
refuses a graph with a stray entry anywhere, zero blocks included.  Its
diagonal seeds come from `projector_factors`, the one rule
`projector_factor_mismatches` checks.  The embedded seeds are then compared
with the graph's own matrices, so the embedding's index rule is checked
too.  The closure runs sequentially: every candidate product is reduced
against the basis as soon as it is formed.

Each fact has one implementation here: `generator_span` builds the
family's span for both the containment and the basis verifier, and every
verifier embeds a `BlockGenerator` from its two factors, as the closure
embeds its elements.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from operator import mul

from .combinatorics import binomial, intersection_range
from .errors import ClosureDivergenceError, FormulaError, GraphStructureError, ParameterError
from .exactmat import DEFAULT_PRIME, IntMatrix, MatrixSpace, kron
from .intersection import HSpec
from .oddgraph import (
    BlockRef,
    OddGraph,
    expected_block_factors,
    part_sizes,
    verify_adjacency_blocks,
)
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
    """
    if m < 1:
        raise ParameterError("m must be at least 1")
    gens = []
    for p in range(m + 1):
        a, u = part_sizes(m, p)
        for q in range(m + 1):
            b, w = part_sizes(m, q)
            for l in intersection_range(a, b, m):
                for s in intersection_range(u, w, m + 1):
                    gens.append(
                        BlockGenerator(
                            block=(p, q),
                            left=HSpec(a, b, l, m),
                            right=HSpec(u, w, s, m + 1),
                        )
                    )
    return gens


def block_generators_by_parity(m: int) -> list[BlockGenerator]:
    """The same family assembled case by case on block parities.

    Kept as an explicit transcription of the four per-parity patterns so the
    uniform construction above can be checked against it; the two agree
    because the factor shapes force the block assignment.
    """
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


def _family(block, left_ij_v, right_ij_v) -> list[BlockGenerator]:
    li, lj, lv = left_ij_v
    ri, rj, rv = right_ij_v
    return [
        BlockGenerator(block, HSpec(li, lj, l, lv), HSpec(ri, rj, s, rv))
        for l in intersection_range(li, lj, lv)
        for s in intersection_range(ri, rj, rv)
    ]


DimensionIdentity = namedtuple("DimensionIdentity", "block_sum binomial")


def _range_sizes(i: int, v: int) -> list[int]:
    """|intersection_range(i, j, v)| for j = 0..v, that is min(i, j, v - i, v - j) + 1.

    With c = min(i, v - i) the row rises 1..c, holds c + 1, and falls c..1.
    """
    c = min(i, v - i)
    return [*range(1, c + 1), *repeat(c + 1, v + 1 - 2 * c), *range(c, 0, -1)]


def _block_dimension_sum(m: int) -> int:
    # sum over blocks (i, j) of |range(m-i, m-j, m)| * |range(i, j, m+1)|.
    # Complementing both subsets leaves the left size unchanged, so row i of
    # the left sizes is _range_sizes(i, m); `map` stops after its m + 1
    # terms, dropping j = m + 1 from the right row.
    return sum(sum(map(mul, _range_sizes(i, m), _range_sizes(i, m + 1))) for i in range(m + 1))


def dimension_formula(m: int) -> DimensionIdentity:
    """Evaluate the per-block dimension count and C(m+4, 4); they must agree."""
    if m < 1:
        raise ParameterError("m must be at least 1")
    block_sum = _block_dimension_sum(m)
    expected = binomial(m + 4, 4)
    if block_sum != expected:
        raise FormulaError(f"block dimension sum {block_sum} != C({m}+4, 4) = {expected}")
    return DimensionIdentity(block_sum, expected)


@dataclass
class ClosureResult:
    """Stabilized span produced by `closure`.

    Once stabilized, left and right multiplication by the adjacency matrix
    and by every distance projector maps the span into itself.
    """

    space: MatrixSpace
    dimension: int
    rounds: int
    products_computed: int


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
    adjacency factor pairs from `expected_block_factors` on each admissible
    block.  Those pairs are used only once `verify_adjacency_blocks` passes
    on the graph, the `blocks` check itself: otherwise the closure raises
    GraphStructureError naming the first failing block.  Products are taken
    on the small factors, kron(AL, AR) @ kron(L, R) = kron(AL @ L, AR @ R),
    and an element is materialized only to be offered to the span, by one
    `graph.embed_vector(left, right, block)` call and one `insert_vector`.

    The embedding has its own index rule, so the seeds check it: the
    embedded projector seeds must equal `graph.dual_idempotent(d)` and the
    embedded adjacency seeds together `graph.adjacency()`, both read
    entry by entry at coordinate r * n + c.  A mismatch raises
    GraphStructureError.  This reuses the seed vectors and adds no
    `embed_vector` call.

    `shuffle`, when given, randomizes processing order inside each round;
    the resulting dimension must not depend on it.
    """
    m = graph.m
    if max_rounds is None:
        max_rounds = 4 * (m + 1) ** 2
    space = MatrixSpace(prime=prime)
    blocks = verify_adjacency_blocks(graph)
    if not blocks.passed:
        witness = blocks.witnesses[0]
        p, q = witness["block"]
        raise GraphStructureError(
            f"adjacency block ({p}, {q}) fails the blocks check: {witness['kind']}"
        )
    factors = {block: expected_block_factors(m, block) for block in graph.admissible_blocks()}

    frontier: list[tuple[BlockRef, IntMatrix, IntMatrix]] = []
    products = 0

    def offer(block: BlockRef, left: IntMatrix, right: IntMatrix) -> dict[int, int]:
        if left.is_zero() or right.is_zero():
            return {}
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
    if adjacency != graph.adjacency().vectorize():
        raise GraphStructureError("the embedded adjacency seeds differ from the graph's adjacency")

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
            for r in graph.adjacent_classes(p):
                products += 1
                a_left, a_right = factors[(r, p)]
                offer((r, q), a_left @ left, a_right @ right)
            for s in graph.adjacent_classes(q):
                products += 1
                a_left, a_right = factors[(q, s)]
                offer((p, s), left @ a_left, right @ a_right)

    return ClosureResult(
        space=space,
        dimension=space.dim,
        rounds=rounds,
        products_computed=products,
    )


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
        if not space.insert_vector(graph.embed_vector(gen.left.build(), gen.right.build(), gen.block))
    ]
    return space, dependent


# -- verification ------------------------------------------------------------


def projector_factor_mismatches(graph: OddGraph) -> list[dict]:
    """Check every distance projector against `projector_factors`.

    E_d* must equal the Kronecker product of its two factors on the block
    (d, d) and vanish everywhere else.
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

    Also checks the projector factorizations that put the closure seeds in
    that span in the first place, and that the span rejects a negative
    control.
    """
    witnesses = projector_factor_mismatches(graph)
    span, _ = generator_span(graph, gens, clo.space.prime)
    witnesses += negative_control_witnesses(graph, span)
    for pivot, row in clo.space.iter_basis():
        if not span.contains_vector(row):
            witnesses.append(
                {
                    "kind": "closure_element_outside_family_span",
                    "pivot": pivot,
                    "block": list(graph.block_of_coordinate(pivot)),
                }
            )
    return CheckResult.from_witnesses(
        "closure-in-generator-span",
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
        vec = graph.embed_vector(gen.left.build(), gen.right.build(), gen.block)
        if not clo.space.contains_vector(vec):
            witnesses.append({"kind": "generator_outside_closure", "generator": gen.label()})
    return CheckResult.from_witnesses(
        "generators-in-closure",
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
    the dimension, and the final dimension must equal the closure's.  The
    family checked must also equal the per-parity reading of the paper's
    basis.
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
    notes = []
    uniform = {(g.block, g.left, g.right) for g in gens}
    by_parity = {(g.block, g.left, g.right) for g in block_generators_by_parity(graph.m)}
    if uniform == by_parity:
        notes.append(
            "uniform-pattern family and per-parity family coincide, so both readings span"
        )
    else:
        witnesses.append(
            {
                "kind": "family_readings_differ",
                "only_uniform": len(uniform - by_parity),
                "only_parity": len(by_parity - uniform),
            }
        )
    return CheckResult.from_witnesses(
        "generator-family-basis",
        witnesses,
        params={"m": graph.m, "field": clo.space.field_name, "generators": len(gens)},
        notes=notes,
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

    The closure span must also reject the negative control.
    """
    witnesses = negative_control_witnesses(graph, clo.space)
    cases = membership_family_cases(graph.m)
    for case in cases:
        gen = case["generator"]
        vec = graph.embed_vector(gen.left.build(), gen.right.build(), gen.block)
        if not clo.space.contains_vector(vec):
            witnesses.append(
                {
                    "kind": "missing_member",
                    "family": case["family"],
                    "i": case["i"], "j": case["j"], "l": case["l"],
                    "block": list(gen.block),
                }
            )
    return CheckResult.from_witnesses(
        "membership-families",
        witnesses,
        params={
            "m": graph.m,
            "field": clo.space.field_name,
            "cases": len(cases),
            "negative_controls": 1,
        },
    )
