"""Faults injected into the kernels must turn a check red, never hang or crash.

Each fault is a monkeypatch on the running library, not an edit of its
files.  A fault counts as caught when `oddterw verify` exits 1, reports the
expected kind of witness and prints no traceback.

Faults covered here:

- the product-formula sweep (`products`): a matrix product that drops one
  entry, packed rows reused for any right factor of the same shape,
  subset bit masks replaced by their complements' masks, class patterns
  without the last column of the largest class, a closed-form
  expansion that starts at g = 1, and a column rank table that swaps the
  first two 2-subsets of a 5-set.  A bug that raises inside the sweep
  (`decompose_product` raising `IndexError`) fails `products` alone, with
  an `internal` witness, and one inside a per-field verifier
  (`verify_generator_basis` raising `IndexError`) fails that verifier's
  entries alone.  A closure raising `KeyError` fails `closure-computation`,
  as a kernel error does;
- row reduction, each run in a child process under a timeout: a sign flip
  in GF(p) elimination, the same sign flip in rational elimination alone,
  and `MatrixSpace._reduce` skipped.  With a sign flip the leading
  coordinate never clears, and a reduction that re-read its pivots until
  none was left would loop forever.  With the reduction skipped, every
  vector would be accepted and overwrite the basis row at its leading
  coordinate, so the frontier would grow every round.  The span checks
  after every reduction that no pivot is left, and refuses the vector;
- the closure and its inputs, each run as `verify --m 3 --checks all`: the
  closure cut to one round, `kron` with its two index roles swapped,
  intersection matrices with l mirrored in its range, a generator family
  missing its largest s in every block, `embed_vector` with the roles of
  its two factors swapped or with the two class offsets of its block
  swapped, an adjacency factor table with a zero left factor at block
  (1, 2), `embed_vector` reversing the column order of every block two or
  more classes off the diagonal, a matrix product that adds each right-factor
  row unscaled, whatever the left entry, and the product kernel's choice
  of loop (`exactmat._all_ones`) answering True for every left factor,
  which sends every product through the loop for all-ones left factors and
  so adds the same unscaled rows.  The closure calls no `kron`, so only
  `blocks` sees the swapped `kron`.  Factor roles swapped relocate the
  closure and the generator family alike, inside each distance class, so
  only the closure's comparison of its seeds with `graph.adjacency()` sees
  it.  Reversed far columns move the closure and the family alike on
  blocks that hold no seed, so only the closure's spot-check of longer
  words sees them: A^2 meets those blocks and is missed.  The one-round
  closure misses A^3 E_3*, and the `closure` entry names both words.
  Unscaled rows multiply by the left factor's 0/1 support instead.  The
  sweep's left factors are 0/1 already, and the support of a combination
  of intersection matrices is a sum of them, so every product the closure
  takes still lies in T and the closure still spans it.  The `products`
  sweep cannot see either fault at all: its left factors are all-ones
  matrices and take that loop anyway.  Only the `closure` entry's
  comparison of (A A) A, whose left factor A^2 holds m + 1 on its
  diagonal, with A (A A) sees either fault;
- span membership: `MatrixSpace.contains_vector` answering True for every
  vector, and an `_eliminate` that pops the pivot row's support out of the
  vector and drops the differences instead of putting them back.  Under
  the first every containment holds vacuously.  Under the second every
  elimination of an element of T still cancels the row's whole support,
  since every basis row of T is 0/1 on disjoint blocks.  In both cases
  only the negative control, a matrix outside T that each span must
  reject, sees the fault; it sits at the pivot of a basis row whose other
  entries must be put back;
- the dimension identity: a block sum off by one at m = 3.  `closure`
  reads C(m+4, 4) through the same `dimension_formula`, and must still
  report, while only `dimension` fails.  A row of the block sum that stops
  one term short fails `dimension` at every m.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import oddterw
from oddterw import cli, exactmat, intersection, oddgraph, terwilliger
from oddterw.cli import main
from oddterw.combinatorics import intersection_range
from oddterw.exactmat import IntMatrix, MatrixSpace, kron
from oddterw.intersection import HSpec
from oddterw.oddgraph import OddGraph

ORIGINAL_MATMUL = IntMatrix.__matmul__
ORIGINAL_PACKED_ROWS = exactmat._packed_rows
ORIGINAL_MASKS = intersection._subset_masks
ORIGINAL_CLASS_DATA = intersection._class_data
ORIGINAL_EXPANSION = intersection.product_expansion
ORIGINAL_MATRIX = intersection.intersection_matrix
ORIGINAL_RANK_TABLE = intersection._rank_table
ORIGINAL_EMBED = OddGraph.embed_vector
ORIGINAL_FACTORS = oddgraph.expected_block_factors
ORIGINAL_BLOCK_SUM = terwilliger._block_dimension_sum
ORIGINAL_ROW_SUM = terwilliger._block_row_sum


def matmul_dropping_one_entry(a, b):
    product = ORIGINAL_MATMUL(a, b)
    rows = {r: dict(row) for r, row in product._rows.items()}
    if rows:
        first = min(rows)
        del rows[first][min(rows[first])]
        if not rows[first]:
            del rows[first]
    return IntMatrix._wrap(product.nrows, product.ncols, rows)


def packed_rows_reused_by_shape(matrix, width):
    # reuses the last packing for any right factor of the same shape and width
    held, held_width, packed = exactmat._last_packed
    if held is not None and held.shape == matrix.shape and held_width == width:
        return packed
    return ORIGINAL_PACKED_ROWS(matrix, width)


def complement_masks(v, size):
    return [((1 << v) - 1) ^ mask for mask in ORIGINAL_MASKS(v, size)]


def patterns_missing_a_column(v, i, k, width):
    # the largest class's pattern lacks that class's last column in every row:
    # each field holds 0 or 1, so that column is the pattern's top set bit
    firsts, patterns = ORIGINAL_CLASS_DATA(v, i, k, width)
    g = max(patterns)
    return firsts, {**patterns, g: [p - (1 << (p.bit_length() - 1)) for p in patterns[g]]}


def rank_table_swapping_two_columns(v, size):
    # the first two 2-subsets of a 5-set, {0, 1} and {0, 2}, trade column indices
    table = ORIGINAL_RANK_TABLE(v, size)
    if (v, size) != (5, 2):
        return table
    return {**table, 0b011: table[0b101], 0b101: table[0b011]}


def expansion_from_g_1(*args):
    return {g: c for g, c in ORIGINAL_EXPANSION(*args).items() if g >= 1}


def verify_products(tmp_path, capsys):
    """Exit code, witness kinds and details of `verify --m 2 --checks products`."""
    code = main(["verify", "--m", "2", "--checks", "products", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads((tmp_path / "report.json").read_text())
    witnesses = [w for check in report["checks"] for w in check["witnesses"]]
    return code, Counter(w["kind"] for w in witnesses), [w.get("detail", "") for w in witnesses]


@pytest.mark.parametrize(
    "target, name, fault, kinds, detail",
    [
        (IntMatrix, "__matmul__", matmul_dropping_one_entry,
         {"product_not_class_constant", "expansion_mismatch"}, "only partially covered"),
        (exactmat, "_packed_rows", packed_rows_reused_by_shape,
         {"product_not_class_constant", "expansion_mismatch"}, ""),
        (intersection, "_subset_masks", complement_masks,
         {"product_not_class_constant"}, ""),
        (intersection, "_class_data", patterns_missing_a_column,
         {"product_not_class_constant"}, "reads class-constant but differs from its class pattern"),
        (intersection, "product_expansion", expansion_from_g_1,
         {"expansion_mismatch"}, ""),
        (intersection, "_rank_table", rank_table_swapping_two_columns,
         {"product_not_class_constant"}, ""),
    ],
    ids=["matmul-drops-an-entry", "packing-reused-by-shape", "complement-masks",
         "patterns-missing-a-column", "expansion-from-g-1", "rank-table-swaps-two-columns"],
)
def test_sweep_fault_fails_products(tmp_path, capsys, monkeypatch, target, name, fault, kinds, detail):
    # no packing, no class data and no intersection matrix left by earlier
    # tests: the sweep builds its matrices in an empty cache of its own
    monkeypatch.setattr(exactmat, "_last_packed", (None, 0, []))
    monkeypatch.setattr(intersection, "_class_data_held", (None, {}))
    monkeypatch.setattr(intersection, "intersection_matrix", lru_cache(maxsize=None)(ORIGINAL_MATRIX.__wrapped__))
    monkeypatch.setattr(target, name, fault)
    code, seen, details = verify_products(tmp_path, capsys)
    assert code == 1
    assert set(seen) == kinds
    assert any(detail in d for d in details)


def test_sweep_passes_without_a_fault(tmp_path, capsys):
    assert verify_products(tmp_path, capsys) == (0, Counter(), [])


def decompose_raising_index_error(product, i, k, v):
    raise IndexError(f"no row {product.nrows}")


def test_bug_in_the_sweep_fails_products_alone(tmp_path, capsys, monkeypatch):
    # an exception that is no verdict on the product still gives a report,
    # with `products` failing on an `internal` witness and the other checks run
    monkeypatch.setattr(intersection, "decompose_product", decompose_raising_index_error)
    code = main(["verify", "--m", "2", "--checks", "products,blocks,dimension", "--out", str(tmp_path)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["products"]["status"] == "fail"
    assert checks["products"]["witnesses"] == [{"kind": "internal", "detail": "IndexError: no row 1"}]
    assert checks["blocks"]["status"] == checks["dimension"]["status"] == "pass"


def basis_raising_index_error(graph, clo, gens):
    raise IndexError(f"no generator {len(gens)}")


def test_bug_in_a_verifier_fails_its_own_entries(tmp_path, capsys, monkeypatch):
    # the per-field verifiers run under the names of the entries they make,
    # so a bug in one fails each of its entries and nothing else
    monkeypatch.setattr(cli, "verify_generator_basis", basis_raising_index_error)
    code = main(["verify", "--m", "2", "--checks", "all", "--out", str(tmp_path)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    failed = {c["name"]: c["witnesses"] for c in report["checks"] if c["status"] == "fail"}
    fields = report["field"].split("+")
    internal = [{"kind": "internal", "detail": "IndexError: no generator 15"}]
    assert failed == {f"basis[{f}]": internal for f in fields}
    assert {c["status"] for c in report["checks"]} == {"pass", "fail"}


def closure_raising_key_error(graph, prime=None, **kwargs):
    raise KeyError(prime)


def test_bug_in_the_closure_fails_closure_computation(tmp_path, capsys, monkeypatch):
    # any exception from the closure, not only a kernel error, is the
    # `closure-computation` failure, with the closure-based checks skipped
    monkeypatch.setattr(cli, "closure", closure_raising_key_error)
    code = main(["verify", "--m", "2", "--checks", "all", "--out", str(tmp_path)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    failed = checks.pop("closure-computation")
    assert failed["witnesses"] == [{"kind": "internal", "detail": "KeyError: 1000000007"}]
    assert {name for name, c in checks.items() if c["status"] == "skipped"} == {
        "closure", "containment", "memberships", "basis",
    }
    assert {c["status"] for c in checks.values()} == {"pass", "skipped"}


SIGN_FLIP = """
import sys
from oddterw import cli
from oddterw.exactmat import MatrixSpace, _unpacked as unpacked

FLIP_EXACT = {flip_exact}
original = MatrixSpace._eliminate

def flipped(self, v, row, c):
    # elimination that adds the pivot row where it should subtract it, over
    # the rationals or over GF(p), and is correct in the other fields
    if (self.prime is None) != FLIP_EXACT:
        return original(self, v, row, c)
    f = v[c]
    for cc, rv in unpacked(row).items():
        nv = v.get(cc, 0) + f * rv
        if self.prime is not None:
            nv %= self.prime
        if nv:
            v[cc] = nv
        else:
            v.pop(cc, None)

MatrixSpace._eliminate = flipped
sys.exit(cli.main(sys.argv[1:]))
"""


REDUCE_SKIPPED = """
import sys
from oddterw import cli
from oddterw.exactmat import MatrixSpace

MatrixSpace._reduce = lambda self, v: None  # no pivot is ever cleared
sys.exit(cli.main(sys.argv[1:]))
"""


def verify_in_child(script, checks, tmp_path):
    """`verify --m 3 --checks <checks>` run by `script` in a child process under a timeout:
    the exit status and report, once stderr holds no traceback."""
    # the child imports the same sources as this process, installed or not
    path = [str(Path(oddterw.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify", "--m", "3", "--checks", checks, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert "Traceback" not in proc.stderr
    return proc.returncode, json.loads((tmp_path / "report.json").read_text())


@pytest.mark.parametrize("flip_exact, field", [(False, "over gf("), (True, "over exact")],
                         ids=["gf-p", "exact"])
def test_sign_flip_fails_closure_without_hanging(tmp_path, flip_exact, field):
    # `verify --m 3` runs the exact field after both primes
    code, report = verify_in_child(SIGN_FLIP.format(flip_exact=flip_exact), "closure", tmp_path)
    assert code == 1
    failed = report["checks"][0]
    assert failed["name"] == "closure-computation" and failed["status"] == "fail"
    (witness,) = failed["witnesses"]
    assert witness["kind"] == "internal"
    assert "reduction left pivot" in witness["detail"] and field in witness["detail"]
    assert [c["status"] for c in report["checks"][1:]] == ["skipped"]


def test_skipped_reduction_fails_closure_without_hanging(tmp_path):
    # every vector would be accepted and overwrite the basis row at its leading
    # coordinate, so the frontier would grow every round
    code, report = verify_in_child(REDUCE_SKIPPED, "all", tmp_path)
    assert code == 1
    checks = {c["name"]: c for c in report["checks"]}
    failed = checks.pop("closure-computation")
    assert failed["status"] == "fail"
    assert {c["status"] for c in checks.values()} == {"pass", "skipped"}
    (witness,) = failed["witnesses"]
    assert witness["kind"] == "internal"
    assert "reduction left pivot" in witness["detail"]


class FirstRoundOnly:
    """A `shuffle` for `closure` that empties every round after the first."""

    def __init__(self):
        self.rounds = 0

    def shuffle(self, current):
        self.rounds += 1
        if self.rounds > 1:
            current.clear()


def closure_cut_to_one_round(graph, prime):
    return terwilliger.closure(graph, prime=prime, shuffle=FirstRoundOnly())


def kron_indices_swapped(a, b):
    # a's entry index becomes the fast one: out[rb * a.nrows + ra, cb * a.ncols + ca]
    return kron(b, a)


def l_mirrored(i, j, l, v):
    lrange = intersection_range(i, j, v)
    if l in lrange:
        l = lrange.start + lrange.stop - 1 - l
    return ORIGINAL_MATRIX(i, j, l, v)


def family_missing_largest_s(m):
    return [
        gen for gen in terwilliger.block_generators(m)
        if gen.right.l != max(intersection_range(gen.right.i, gen.right.j, gen.right.v))
    ]


def embed_factors_swapped(graph, left, right, block):
    return ORIGINAL_EMBED(graph, right, left, block)


def embed_offsets_swapped(graph, left, right, block):
    # block entry (r, c) lands at ambient (offset_q + r, offset_p + c), not (offset_p + r, offset_q + c)
    n = graph.num_vertices
    op, oq = graph.class_offset(block[0]), graph.class_offset(block[1])
    return {
        (coord // n - op + oq) * n + coord % n - oq + op: value
        for coord, value in ORIGINAL_EMBED(graph, left, right, block).items()
    }


def embed_far_columns_reversed(graph, left, right, block):
    # blocks two or more classes off the diagonal hold no seed: column c of
    # class q moves to 2 * offset_q + size_q - 1 - c
    p, q = block
    vec = ORIGINAL_EMBED(graph, left, right, block)
    if abs(p - q) < 2:
        return vec
    n, last = graph.num_vertices, 2 * graph.class_offset(q) + graph.class_size(q) - 1
    return {coord - coord % n + last - coord % n: value for coord, value in vec.items()}


def factors_with_zero_left_at_1_2(m, block):
    factors = ORIGINAL_FACTORS(m, block)
    if block == (1, 2):
        left, right = factors
        # l = -1 is out of range, so this left factor builds as the zero matrix
        return HSpec(left.i, left.j, -1, left.v), right
    return factors


def matmul_adding_rows_unscaled(a, b):
    # the kernel adding packed[k] where it should add a * packed[k], at the
    # width the product was packed at: right whenever every left entry is 0 or 1
    product = ORIGINAL_MATMUL(a, b)
    if type(product._store) is not tuple:
        return product
    width, _ = product._store
    packed = exactmat._packed_rows(b, width)
    rows = {r: sum(packed[k] for k in row) for r, row in a._rows.items()}
    return IntMatrix._wrap(a.nrows, b.ncols, (width, {r: acc for r, acc in rows.items() if acc}))


def every_left_factor_all_ones(rows):
    # the kernel's choice of loop answering True for every left factor, so
    # each nonzero adds packed[k] unscaled
    return True


def accepts_everything(space, vec):
    return True


def eliminate_dropping_differences(space, v, row, c):
    # pops the pivot row's coords out of `v` and puts none of the differences back
    coords, _ = row
    for cc in coords:
        v.pop(cc, None)


def verify_m3_all(tmp_path, capsys):
    """Exit code and report of `verify --m 3 --checks all`."""
    code = main(["verify", "--m", "3", "--checks", "all", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads((tmp_path / "report.json").read_text())


@pytest.mark.parametrize(
    "patches, failing, witness",
    [
        ([(cli, "closure", closure_cut_to_one_round)],
         {"closure", "containment-span-in-closure[exact]", "basis[exact]"}, None),
        ([(oddgraph, "kron", kron_indices_swapped), (terwilliger, "kron", kron_indices_swapped)],
         {"blocks"}, None),
        ([(intersection, "intersection_matrix", l_mirrored)],
         {"closure-computation", "blocks", "products"},
         ("closure-computation", "internal", "differs from the graph's projector")),
        ([(cli, "block_generators", family_missing_largest_s)],
         {"containment-closure-in-span[exact]", "basis[exact]"}, None),
        ([(OddGraph, "embed_vector", embed_factors_swapped)],
         {"closure-computation"}, ("closure-computation", "internal", "embedded adjacency seeds differ")),
        ([(OddGraph, "embed_vector", embed_offsets_swapped)],
         {"closure-computation"}, ("closure-computation", "internal", "embedded adjacency seeds differ")),
        ([(MatrixSpace, "contains_vector", accepts_everything)],
         {"containment-closure-in-span[exact]", "containment-span-in-closure[exact]",
          "memberships[exact]"}, None),
        ([(oddgraph, "expected_block_factors", factors_with_zero_left_at_1_2),
          (terwilliger, "expected_block_factors", factors_with_zero_left_at_1_2)],
         {"blocks", "closure-computation"}, ("closure-computation", "internal", "adjacency block (1, 2)")),
        ([(OddGraph, "embed_vector", embed_far_columns_reversed)], {"closure"}, None),
        ([(IntMatrix, "__matmul__", matmul_adding_rows_unscaled)],
         {"closure"}, ("closure", "product_order_mismatch", "(A A) A differs from A (A A)")),
        ([(exactmat, "_all_ones", every_left_factor_all_ones)],
         {"closure"}, ("closure", "product_order_mismatch", "(A A) A differs from A (A A)")),
    ],
    ids=["closure-one-round", "kron-index-swap", "l-mirrored", "family-missing-one-s",
         "embed-factors-swapped", "embed-offsets-swapped", "contains-always-true",
         "factor-table-zero-left", "embed-far-columns-reversed", "matmul-left-entries-unscaled",
         "matmul-ones-loop-for-every-left"],
)
def test_closure_fault_fails_verify(tmp_path, capsys, monkeypatch, patches, failing, witness):
    # `witness`, when given, is (entry, kind, text): that entry's one witness
    # has that kind, and the text is in its detail
    for target, name, fault in patches:
        monkeypatch.setattr(target, name, fault)
    code, report = verify_m3_all(tmp_path, capsys)
    assert code == 1
    failed = {c["name"]: c["witnesses"] for c in report["checks"] if c["status"] == "fail"}
    assert failing <= failed.keys()
    if witness is not None:
        entry, kind, text = witness
        (seen,) = failed[entry]
        assert seen["kind"] == kind and text in seen["detail"]


@pytest.mark.parametrize(
    "target, name, fault, word",
    [
        (cli, "closure", closure_cut_to_one_round, "A^3 E_3*"),
        (OddGraph, "embed_vector", embed_far_columns_reversed, "A^2"),
    ],
    ids=["closure-one-round", "embed-far-columns-reversed"],
)
def test_closure_entry_names_the_words_outside_the_closure(tmp_path, capsys, monkeypatch,
                                                           target, name, fault, word):
    # each field's closure misses the one word, and the checks after it still run
    monkeypatch.setattr(target, name, fault)
    code, report = verify_m3_all(tmp_path, capsys)
    assert code == 1
    checks = {c["name"]: c for c in report["checks"]}
    missed = [w for w in checks["closure"]["witnesses"] if w["kind"] == "word_outside_closure"]
    fields = report["field"].split("+")
    assert missed == [{"kind": "word_outside_closure", "field": f, "word": word} for f in fields]
    assert "closure-computation" not in checks
    assert {c["status"] for c in checks.values()} <= {"pass", "fail"}


def test_eliminate_dropping_differences_fails_the_negative_controls(tmp_path, capsys, monkeypatch):
    # every elimination of T's own elements clears the pivot row's whole
    # support, so only the negative control, which meets the all-ones row of
    # block (0, m) at its pivot alone, reaches the put-back branch
    monkeypatch.setattr(MatrixSpace, "_eliminate", eliminate_dropping_differences)
    code, report = verify_m3_all(tmp_path, capsys)
    assert code == 1
    failed = {c["name"]: c["witnesses"] for c in report["checks"] if c["status"] == "fail"}
    assert {name.split("[")[0] for name in failed} == {
        "containment-closure-in-span", "containment-span-in-closure", "memberships"
    }
    control = {"kind": "negative_control_accepted", "coordinate": OddGraph(3).class_offset(3)}
    assert all(witnesses == [control] for witnesses in failed.values())


def block_sum_off_by_one_at_3(m):
    return ORIGINAL_BLOCK_SUM(m) + (m == 3)


def test_identity_fault_fails_dimension_alone(tmp_path, capsys, monkeypatch):
    # `closure` takes its expected dimension from the binomial side of the
    # identity, so it passes, and the report is still written
    monkeypatch.setattr(terwilliger, "_block_dimension_sum", block_sum_off_by_one_at_3)
    code, report = verify_m3_all(tmp_path, capsys)
    assert code == 1
    failed = {c["name"]: c["witnesses"] for c in report["checks"] if c["status"] == "fail"}
    assert failed == {
        "dimension": [
            {"kind": "identity_mismatch", "m": 3, "detail": "block dimension sum 36 != C(3+4, 4) = 35"}
        ]
    }
    assert next(c for c in report["checks"] if c["name"] == "closure")["status"] == "pass"


def row_sum_one_term_short(i, m):
    # row i summed over j = i..m - 1, dropping the term at j = m
    return ORIGINAL_ROW_SUM(i, m - 1)


def test_row_sum_fault_fails_dimension(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(terwilliger, "_block_row_sum", row_sum_one_term_short)
    code = main(["verify", "--m", "2", "--checks", "dimension", "--out", str(tmp_path)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    (check,) = report["checks"]
    assert check["name"] == "dimension" and check["status"] == "fail"
    assert {w["kind"] for w in check["witnesses"]} == {"identity_mismatch"}
    # one mismatch at every m, the first 50 of them kept as witnesses
    assert [w["m"] for w in check["witnesses"]] == list(range(1, 51))
    assert check["params"]["witnesses_truncated"] == 200
