"""Run one `oddterw` command with timing wrappers around each layer's public calls.

Usage (with the repository's `src` on PYTHONPATH):

    python3 perfbench/tracer.py SPANS.json verify --m 5 --checks all ...

The wrappers are installed from outside: nothing in `oddterw` is edited.
Functions are rebound in every `oddterw` namespace that holds them, since
`from .x import y` gives each importing module its own binding; methods are
wrapped on their class.  Each call becomes a span `[name, parent, start, end,
info]` kept in memory and written to SPANS.json when the command returns.
The process exits with the command's exit code.

`summarize` turns such a file into per-layer metrics; `run.py` imports it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

NAME, PARENT, START, END, INFO = range(5)

# Spans whose descendants are attributed to them when a metric is split by
# caller ("closure", "verifier" or "sweep").
CALLER_OF = {
    "terwilliger.closure": "closure",
    "terwilliger.in_span": "verifier",
    "terwilliger.in_closure": "verifier",
    "terwilliger.basis": "verifier",
    "terwilliger.memberships": "verifier",
    "oddgraph.blocks": "verifier",
    "intersection.sweep": "sweep",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name, fn, info=None):
        """Wrap `fn` so each call records a span; `info(args, result)` may annotate it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        """Wrap `fn` so calls are only counted: it is called too often for a span each."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def rebind(original, wrapped) -> int:
    """Replace `original` by `wrapped` in every loaded `oddterw` module; return how many."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "oddterw":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                bound += 1
    if not bound:
        raise RuntimeError(f"{original.__qualname__} is bound in no oddterw module")
    return bound


# (module, function, span name): functions, rebound in every namespace
FUNCTIONS = (
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("cli", "run_verify", "cli.run_verify"),
    ("oddgraph", "verify_adjacency_blocks", "oddgraph.blocks"),
    ("terwilliger", "block_generators", "terwilliger.generators"),
    ("terwilliger", "closure", "terwilliger.closure"),
    ("terwilliger", "verify_closure_in_generator_span", "terwilliger.in_span"),
    ("terwilliger", "verify_generators_in_closure", "terwilliger.in_closure"),
    ("terwilliger", "verify_generator_basis", "terwilliger.basis"),
    ("terwilliger", "verify_membership_families", "terwilliger.memberships"),
    ("terwilliger", "dimension_formula", "terwilliger.dimension_identity"),
    ("exactmat", "kron", "exactmat.kron"),
    ("intersection", "product_formula_failures", "intersection.sweep"),
    ("intersection", "decompose_product", "intersection.decompose"),
    ("intersection", "product_expansion", "intersection.expansion"),
    ("intersection", "intersection_matrix", "intersection.matrix"),
)
# (module, class, method, span name): methods, wrapped on their class
METHODS = (
    ("oddgraph", "OddGraph", "__init__", "oddgraph.build"),
    ("oddgraph", "OddGraph", "embed_vector", "oddgraph.embed_vector"),
    ("exactmat", "IntMatrix", "__matmul__", "exactmat.matmul"),
    ("exactmat", "MatrixSpace", "insert_vector", "exactmat.insert"),
    ("exactmat", "MatrixSpace", "contains_vector", "exactmat.contains"),
)
# counted without spans
COUNTED = (("combinatorics", "SubsetIndex", "rank", "combinatorics.rank"),)
TRACED = tuple(t[-1] for t in FUNCTIONS + METHODS + COUNTED)


def _closure_info(args, kwargs, clo):
    return {
        "prime": kwargs["prime"] if "prime" in kwargs else args[1],
        "rounds": clo.rounds,
        "products": clo.products_computed,
        "dimension": clo.dimension,
        "basis_nnz": sum(len(row) for _, row in clo.space.iter_basis()),
    }


def install(tracer: Tracer):
    """Wrap every traced entry point; return the original `intersection_matrix` cache."""
    import importlib

    importlib.import_module("oddterw.cli")  # loads every module whose bindings are replaced
    modules = {name: importlib.import_module(f"oddterw.{name}") for name, *_ in FUNCTIONS + METHODS + COUNTED}
    matrix_cache = modules["intersection"].intersection_matrix
    info = {
        "terwilliger.closure": _closure_info,
        "intersection.sweep": lambda args, kwargs, result: args[0],
        # misses so far, read after the call: a call that raised it was a build
        "intersection.matrix": lambda args, kwargs, result: matrix_cache.cache_info().misses,
        "exactmat.matmul": lambda args, kwargs, result: result.nnz,
        "exactmat.insert": lambda args, kwargs, result: result,
    }
    for module, attr, name in FUNCTIONS:
        fn = getattr(modules[module], attr)
        rebind(fn, tracer.span(name, fn, info.get(name)))
    for module, cls_name, attr, name in METHODS:
        cls = getattr(modules[module], cls_name)
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), info.get(name)))
    for module, cls_name, attr, name in COUNTED:
        cls = getattr(modules[module], cls_name)
        setattr(cls, attr, tracer.counter(name, getattr(cls, attr)))
    return matrix_cache


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json COMMAND [ARGS...]", file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[1:]
    tracer = Tracer()
    matrix_cache = install(tracer)
    from oddterw import cli

    code = cli.main(command)
    doc = {
        "exit": code,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "matrix_cache": matrix_cache.cache_info()._asdict(),
    }
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
    return code


# -- analysis (runs in the benchmark process) ----------------------------------


def _self_times(spans) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _ancestors(spans, idx):
    idx = spans[idx][PARENT]
    while idx >= 0:
        yield idx
        idx = spans[idx][PARENT]


def summarize(doc: dict, field_of) -> dict[str, float]:
    """Per-layer metrics from one tracer output.

    `field_of(prime)` names a closure's field ("p1", "p2" or "exact").  A
    name's time is the sum over its outermost spans, so recursion and the
    same function wrapped in two namespaces count once.  Splits by caller
    appear as `<metric>.<caller>` when a function has more than one caller.
    """
    spans = doc["spans"]
    own = _self_times(spans)
    names = [s[NAME] for s in spans]
    out: dict[str, float] = {}
    total = defaultdict(float)
    calls = defaultdict(int)
    by_caller = defaultdict(lambda: defaultdict(float))
    calls_by_caller = defaultdict(lambda: defaultdict(int))
    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        name = s[NAME]
        layer_self[name.split(".")[0]] += own[i]
        ancestors = [names[a] for a in _ancestors(spans, i)]
        if name in ancestors:
            continue
        total[name] += s[END] - s[START]
        calls[name] += 1
        caller = next((CALLER_OF[a] for a in ancestors if a in CALLER_OF), "other")
        by_caller[name][caller] += s[END] - s[START]
        calls_by_caller[name][caller] += 1

    def timed(metric, name, split=False):
        out[f"{metric}_s"] = total[name]
        out[f"{metric}_calls"] = calls[name]
        if split and len(by_caller[name]) > 1:
            for caller, seconds in sorted(by_caller[name].items()):
                out[f"{metric}_s.{caller}"] = seconds
                out[f"{metric}_calls.{caller}"] = calls_by_caller[name][caller]

    timed("oddgraph.build", "oddgraph.build")
    timed("oddgraph.embed_vector", "oddgraph.embed_vector", split=True)
    timed("oddgraph.blocks", "oddgraph.blocks")
    timed("terwilliger.generators", "terwilliger.generators")
    for short in ("in_span", "in_closure", "basis", "memberships", "dimension_identity"):
        out[f"terwilliger.{short}_s"] = total[f"terwilliger.{short}"]
    timed("exactmat.matmul", "exactmat.matmul", split=True)
    timed("exactmat.kron", "exactmat.kron", split=True)
    timed("exactmat.insert", "exactmat.insert", split=True)
    timed("exactmat.contains", "exactmat.contains", split=True)
    timed("intersection.decompose", "intersection.decompose")
    timed("intersection.expansion", "intersection.expansion", split=True)
    out["exactmat.matmul_out_nnz"] = sum(s[INFO] for s in spans if s[NAME] == "exactmat.matmul")

    # closures, one per field, with the split of each into its direct children
    accepted = attempted = products = basis_nnz = 0
    for i, s in enumerate(spans):
        if s[NAME] != "terwilliger.closure" or any(
            names[a] == "terwilliger.closure" for a in _ancestors(spans, i)
        ):
            continue
        field = field_of(s[INFO]["prime"])
        out[f"terwilliger.closure_s.{field}"] = s[END] - s[START]
        out[f"terwilliger.closure.self_s.{field}"] = own[i]
        for child_name, short in (
            ("exactmat.matmul", "matmul"),
            ("oddgraph.embed_vector", "embed_vector"),
            ("exactmat.insert", "insert"),
        ):
            children = [c for c in spans if c[PARENT] == i and c[NAME] == child_name]
            out[f"terwilliger.closure.{short}_s.{field}"] = sum(c[END] - c[START] for c in children)
            if short == "insert":
                out[f"terwilliger.closure.insert_calls.{field}"] = len(children)
                accepted += sum(1 for c in children if c[INFO])
                attempted += len(children)
        for key in ("rounds", "products", "dimension"):
            out[f"terwilliger.closure.{key}.{field}"] = s[INFO][key]
        out[f"exactmat.basis_nnz.{field}"] = s[INFO]["basis_nnz"]
        products += s[INFO]["products"]
        basis_nnz += s[INFO]["basis_nnz"]
    out["terwilliger.closure.products"] = products
    out["exactmat.basis_nnz"] = basis_nnz
    out["terwilliger.closure.accept_ratio"] = accepted / attempted if attempted else 0.0

    # sweep, one span per ground size
    for s in spans:
        if s[NAME] == "intersection.sweep":
            key = f"intersection.sweep_s.v{s[INFO]}"
            out[key] = out.get(key, 0.0) + s[END] - s[START]
    out["intersection.sweep_s"] = total["intersection.sweep"]

    # intersection matrices: builds and hits from the cache itself; a call is a
    # build when the cache's miss count rose during it
    cache = doc["matrix_cache"]
    out["intersection.matrix_builds"] = cache["misses"]
    out["intersection.matrix_cache_hits"] = cache["hits"]
    build_s, misses = 0.0, 0
    for s in spans:
        if s[NAME] == "intersection.matrix" and s[INFO] > misses:
            build_s += s[END] - s[START]
            misses = s[INFO]
    out["intersection.matrix_build_s"] = build_s

    out["combinatorics.rank_calls"] = doc["counts"].get("combinatorics.rank", 0)
    out["cli.run_verify_s"] = total["cli.run_verify"]
    # what `cmd_verify` does besides `run_verify` is rendering and writing the report
    out["report.emit_s"] = sum(own[i] for i, n in enumerate(names) if n == "cli.cmd_verify")
    for layer, seconds in sorted(layer_self.items()):
        out[f"{layer}.self_s"] = seconds
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
