"""Faults injected into the kernels must turn a check red, never hang or crash.

Each fault is a monkeypatch on the running library, not an edit of its
files.  A fault counts as caught when `oddterw verify` exits 1, reports the
expected kind of witness and prints no traceback.

Faults covered here:

- the product-formula sweep (`products`): a matrix product that drops one
  entry, subset bit masks replaced by their complements' masks, and a
  closed-form expansion that starts at g = 1;
- row reduction: a sign flip in GF(p) elimination.  The leading coordinate
  then never clears, so before the reduction loops were bounded the
  closure looped forever; it runs in a child process under a timeout;
- the closure and its inputs, each run as `verify --m 3 --checks all`: the
  closure cut to one round, `kron` with its two index roles swapped,
  intersection matrices with l mirrored in its range, a generator family
  missing its largest s in every block, and `embed_vector` with the roles
  of its two factors swapped.  The last one relocates the closure and the
  generator family alike, inside each distance class, so only the
  closure's comparison of its seeds with `graph.adjacency()` sees it;
- span membership: `MatrixSpace.contains_vector` answering True for every
  vector.  Every containment then holds vacuously, so only the negative
  control, a matrix outside T that each span must reject, sees it.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oddterw
from oddterw import cli, intersection, oddgraph, terwilliger
from oddterw.cli import main
from oddterw.combinatorics import intersection_range
from oddterw.exactmat import IntMatrix, MatrixSpace, kron
from oddterw.oddgraph import OddGraph

ORIGINAL_MATMUL = IntMatrix.__matmul__
ORIGINAL_MASKS = intersection._subset_masks
ORIGINAL_EXPANSION = intersection.product_expansion
ORIGINAL_MATRIX = intersection.intersection_matrix
ORIGINAL_EMBED = OddGraph.embed_vector


def matmul_dropping_one_entry(a, b):
    product = ORIGINAL_MATMUL(a, b)
    rows = {r: dict(row) for r, row in product._rows.items()}
    if rows:
        first = min(rows)
        del rows[first][min(rows[first])]
        if not rows[first]:
            del rows[first]
    return IntMatrix._wrap(product.nrows, product.ncols, rows)


def complement_masks(v, size):
    return [((1 << v) - 1) ^ mask for mask in ORIGINAL_MASKS(v, size)]


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
        (intersection, "_subset_masks", complement_masks,
         {"product_not_class_constant"}, ""),
        (intersection, "product_expansion", expansion_from_g_1,
         {"expansion_mismatch", "disjoint_specialization_mismatch"}, ""),
    ],
    ids=["matmul-drops-an-entry", "complement-masks", "expansion-from-g-1"],
)
def test_sweep_fault_fails_products(tmp_path, capsys, monkeypatch, target, name, fault, kinds, detail):
    monkeypatch.setattr(target, name, fault)
    code, seen, details = verify_products(tmp_path, capsys)
    assert code == 1
    assert set(seen) == kinds
    assert any(detail in d for d in details)


def test_sweep_passes_without_a_fault(tmp_path, capsys):
    assert verify_products(tmp_path, capsys) == (0, Counter(), [])


SIGN_FLIP = """
import sys
from oddterw import cli
from oddterw.exactmat import MatrixSpace

original = MatrixSpace._eliminate

def flipped(self, v, row, c):
    # GF(p) elimination that adds the pivot row where it should subtract it
    if self.prime is None:
        return original(self, v, row, c)
    f = v[c]
    for cc, rv in row.items():
        nv = (v.get(cc, 0) + f * rv) % self.prime
        if nv:
            v[cc] = nv
        else:
            v.pop(cc, None)

MatrixSpace._eliminate = flipped
sys.exit(cli.main(sys.argv[1:]))
"""


def test_gf_p_sign_flip_fails_closure_without_hanging(tmp_path):
    # the child imports the same sources as this process, installed or not
    path = [str(Path(oddterw.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", SIGN_FLIP, "verify", "--m", "3", "--checks", "closure", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    failed = report["checks"][0]
    assert failed["name"] == "closure-computation" and failed["status"] == "fail"
    assert failed["witnesses"][0]["kind"] == "internal"
    assert "pivot eliminations" in failed["witnesses"][0]["detail"]
    assert [c["status"] for c in report["checks"][1:]] == ["skipped"]


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


def accepts_everything(space, vec):
    return True


def verify_m3_all(tmp_path, capsys):
    """Exit code and report of `verify --m 3 --checks all`."""
    code = main(["verify", "--m", "3", "--checks", "all", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads((tmp_path / "report.json").read_text())


@pytest.mark.parametrize(
    "patches, failing, detail",
    [
        ([(cli, "closure", closure_cut_to_one_round)],
         {"closure", "containment-span-in-closure[exact]", "basis[exact]"}, None),
        ([(oddgraph, "kron", kron_indices_swapped), (terwilliger, "kron", kron_indices_swapped)],
         {"closure-computation", "blocks"}, "fails the blocks check"),
        ([(intersection, "intersection_matrix", l_mirrored), (oddgraph, "intersection_matrix", l_mirrored)],
         {"closure-computation", "blocks", "products"}, "fails the blocks check"),
        ([(cli, "block_generators", family_missing_largest_s)],
         {"containment-closure-in-span[exact]", "basis[exact]"}, None),
        ([(OddGraph, "embed_vector", embed_factors_swapped)],
         {"closure-computation"}, "embedded adjacency seeds differ"),
        ([(MatrixSpace, "contains_vector", accepts_everything)],
         {"containment-closure-in-span[exact]", "containment-span-in-closure[exact]",
          "memberships[exact]"}, None),
    ],
    ids=["closure-one-round", "kron-index-swap", "l-mirrored", "family-missing-one-s",
         "embed-factors-swapped", "contains-always-true"],
)
def test_closure_fault_fails_verify(tmp_path, capsys, monkeypatch, patches, failing, detail):
    for target, name, fault in patches:
        monkeypatch.setattr(target, name, fault)
    code, report = verify_m3_all(tmp_path, capsys)
    assert code == 1
    failed = {c["name"]: c["witnesses"] for c in report["checks"] if c["status"] == "fail"}
    assert failing <= failed.keys()
    if detail is not None:
        (witness,) = failed["closure-computation"]
        assert witness["kind"] == "internal" and detail in witness["detail"]
