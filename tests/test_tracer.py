"""The benchmark's tracer still sees every layer it wraps.

`perfbench/tracer.py` rebinds module attributes from outside.  A function
that the library captured elsewhere (in a table built at import, say)
escapes those wrappers, and the benchmark's traced run then fails its
self-check.  Each workload of `perfbench/run.py` must also still call
every layer it lists as exercised, and its report must hold exactly the
entry names the benchmark expects.  These tests run each workload's
command at m = 2, under the tracer where they read what it saw.  One test
runs each workload's command once at full size under the tracer and reads
the exact counts the benchmark pins.  Nothing under `perfbench/` is changed
or written.
"""

import functools
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import oddterw
from oddterw.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@functools.cache
def tracer_namespace() -> dict:
    # run_path compiles from source and leaves no bytecode cache in perfbench/
    return runpy.run_path(str(TRACER), run_name="perfbench_tracer")


def traced_run(argv, out_dir: Path) -> dict:
    """What the tracer recorded while running `argv`: its spans, counts and matrix cache."""
    # the child imports the same sources as this process, installed or not
    path = [str(Path(oddterw.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    spans = out_dir / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *argv, "--out", str(out_dir / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def traced_names(argv, out_dir: Path) -> set[str]:
    """Every name the tracer recorded a call to while running `argv`."""
    doc = traced_run(argv, out_dir)
    return {s[tracer_namespace()["NAME"]] for s in doc["spans"]} | {k for k, v in doc["counts"].items() if v}


def test_tracer_records_every_traced_name(tmp_path):
    seen = traced_names(["verify", "--m", "2", "--checks", "all"], tmp_path)
    assert set(tracer_namespace()["TRACED"]) - seen == set()


@functools.cache
def bench_namespace() -> dict:
    """The globals of perfbench/run.py, loaded without writing anything there."""
    # run.py imports tracer.py by name from its own directory; importing it
    # must write no bytecode there, and the import is dropped afterwards
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return runpy.run_path(str(PERFBENCH / "run.py"), run_name="perfbench_run")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("tracer", None)


def small_workloads():
    """Each benchmark workload's name, its argv at m = 2 with --sweep-max at most 3, and the workload."""
    bench = bench_namespace()
    for name, workload in bench["WORKLOADS"].items():
        argv = workload.argv(bench["DEFAULT_PRIMES"])
        argv[argv.index("--m") + 1] = "2"
        if "--sweep-max" in argv:
            at = argv.index("--sweep-max") + 1
            argv[at] = str(min(int(argv[at]), 3))
        if "exact" not in workload.fields:
            # exact arithmetic is on by default at m = 2; this workload's m runs without it
            argv.append("--no-exact")
        yield name, argv, workload


def test_each_benchmark_workload_calls_what_it_exercises(tmp_path):
    for name, argv, workload in small_workloads():
        (tmp_path / name).mkdir()
        missing = workload.exercises - traced_names(argv, tmp_path / name)
        assert missing == set(), f"{name} records no call to {sorted(missing)}"


def test_each_benchmark_workload_reports_the_checks_it_expects(tmp_path):
    # the benchmark refuses a report whose entry names or fields differ from these
    expected_primes = bench_namespace()["DEFAULT_PRIMES"]
    for name, argv, workload in small_workloads():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        report = json.loads((tmp_path / name / "report.json").read_text())
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names)), f"{name}: {names}"
        assert set(names) == workload.expected_checks(expected_primes), name
        assert report["field"] == "+".join(workload.field_labels(expected_primes)), name


def test_each_benchmark_workload_reads_its_pinned_counts_at_full_size(tmp_path):
    # the workload's own command, as the benchmark's traced runs make it; a
    # moved pin would otherwise show only in the benchmark's self-check
    bench = bench_namespace()
    primes = bench["DEFAULT_PRIMES"]
    for name, workload in bench["WORKLOADS"].items():
        (tmp_path / name).mkdir()
        doc = traced_run(workload.argv(primes), tmp_path / name)
        field_of = {workload.prime_of(f, primes): f for f in workload.fields}.__getitem__
        metrics = tracer_namespace()["summarize"](doc, field_of)
        assert {key: metrics.get(key) for key, _ in workload.counts} == dict(workload.counts), name
