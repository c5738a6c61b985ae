"""Benchmark for `oddterw verify`, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify-m5-all --seed 0 --seconds 30 --trace 0

Each sample is a fresh `python -m oddterw.cli verify ... --jobs 1` process,
one at a time (a closed loop with one client), because a command-line user
pays interpreter start, imports and cold caches on every run.  Every run's
exit code and report are checked.  `--trace 0` prints the end-to-end metrics
listed in BENCHMARK.json; `--trace 1` alternates untraced runs with runs under
`tracer.py` and prints the per-layer metrics.  `--workload all` runs every
workload in turn.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
give every metric by name with its unit, the seed, the primes it chose and
the environment.

The seed picks the primes and the program only sees `--primes`: seed 0 gives
the defaults 1000000007,998244353, any other seed two distinct primes drawn
from [10^9, 2^31).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# this invocation's scratch space, removed when it ends
WORK = ROOT / ".bench_build" / "perfbench" / str(os.getpid())
DEFAULT_PRIMES = (1000000007, 998244353)
# A workload's runs must end within 180 s: a child still running this long
# after the workload started is killed and its run counted as failed.
HARD_LIMIT_S = 170.0
SETUP_PROBES_PER_RUN = 3
SETUP_CODE = (
    "import sys, oddterw; m = int(sys.argv[1]); oddterw.OddGraph(m); oddterw.block_generators(m)"
)
ALL_CHECKS = ("products", "blocks", "closure", "containment", "memberships", "basis", "dimension")
CLOSURE_COUNTS = {"rounds": 5, "products": 492, "dimension": 126, "insert_calls": 509}


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    checks: str
    fields: tuple[str, ...]  # the report's fields, out of "p1", "p2" and "exact", in its order
    extra: tuple[str, ...]
    exercises: frozenset[str]  # traced names this workload must call at least once
    counts: tuple[tuple[str, int], ...]  # per-layer counts as they stand at this benchmark's commit

    def argv(self, primes) -> list[str]:
        plist = ",".join(str(p) for f, p in zip(("p1", "p2"), primes) if f in self.fields)
        return ["verify", "--m", str(self.m), "--checks", self.checks, "--primes", plist,
                "--jobs", "1", *self.extra]

    def expected_checks(self, primes) -> set[str]:
        """Names of the checks the report must hold, derived from the request alone."""
        names = set()
        fields = self.field_labels(primes)
        for check in ALL_CHECKS if self.checks == "all" else self.checks.split(","):
            if check == "containment":
                names |= {f"containment-{d}[{f}]" for f in fields
                          for d in ("closure-in-span", "span-in-closure")}
            elif check in ("memberships", "basis"):
                names |= {f"{check}[{f}]" for f in fields}
            else:
                names.add(check)
        return names

    def field_labels(self, primes) -> list[str]:
        return [field_label(self.prime_of(f, primes)) for f in self.fields]

    @staticmethod
    def prime_of(token: str, primes) -> int | None:
        return {"p1": primes[0], "p2": primes[1], "exact": None}[token]


def _closure_counts(*fields):
    return tuple(
        (f"terwilliger.closure.{key}.{f}", value) for f in fields for key, value in CLOSURE_COUNTS.items()
    )


_ALL_LAYERS = frozenset(tracer.TRACED)
_CLOSURE_ONLY = _ALL_LAYERS - {
    "oddgraph.blocks", "intersection.sweep", "intersection.decompose", "intersection.expansion",
}
_NO_CLOSURE = frozenset({
    "cli.cmd_verify", "cli.run_verify", "oddgraph.build", "oddgraph.blocks", "exactmat.kron",
    "exactmat.matmul", "terwilliger.dimension_identity", "intersection.sweep",
    "intersection.decompose", "intersection.expansion", "intersection.matrix", "combinatorics.rank",
})

# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-m5-all",
            5, "all", ("p1", "p2"), (), _ALL_LAYERS,
            _closure_counts("p1", "p2")
            + (("exactmat.insert_calls", 1522), ("oddgraph.embed_vector_calls", 1802)),
        ),
        Workload(
            "verify-m5-exact",
            5, "closure,containment,memberships,basis", ("p1", "exact"), ("--exact",), _CLOSURE_ONLY,
            _closure_counts("p1", "exact"),
        ),
        Workload(
            "sweep-v8",
            3, "products,blocks,dimension", ("p1", "p2", "exact"), ("--sweep-max", "8"), _NO_CLOSURE,
            (("exactmat.matmul_calls", 7359), ("intersection.decompose_calls", 7359),
             ("intersection.matrix_builds", 495)),
        ),
    )
}


def field_label(prime: int | None) -> str:
    return "exact" if prime is None else f"gf({prime})"


# -- seeded inputs ----------------------------------------------------------------


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with bases 2..13: exact for every n below 3.4e12."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_for(seed: int) -> tuple[int, int]:
    if seed == 0:
        return DEFAULT_PRIMES
    rng = random.Random(seed)
    chosen: list[int] = []
    while len(chosen) < 2:
        n = rng.randrange(10**9, 2**31)
        if n not in chosen and is_probable_prime(n):
            chosen.append(n)
    return chosen[0], chosen[1]


# -- child processes --------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], out_dir: Path, deadline: float) -> dict:
    """Run one child to exit; return its wall time, rusage and exit code.

    The child is reaped with `wait4` for its own rusage; a pidfd wakes the
    wait the moment it exits, so the wall time has no polling error.
    """
    with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(deadline - time.monotonic(), 0.0))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "timed_out": not ready,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    }


def check_report(workload: Workload, primes, out_dir: Path, sample: dict) -> list[str]:
    """Everything wrong with one run's output, as readable lines."""
    if sample["timed_out"]:
        return ["killed at the time limit"]
    problems = []
    if sample["exit"] != 0:
        tail = (out_dir / "stderr").read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit code {sample['exit']} {' '.join(tail)}".rstrip())
    try:
        report = json.loads((out_dir / "report.json").read_text())
        printed = json.loads((out_dir / "stdout").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable report: {exc}"]
    if printed != report:
        problems.append("report printed on stdout differs from report.json")
    labels = workload.field_labels(primes)
    if report.get("m") != workload.m or report.get("field") != "+".join(labels):
        problems.append(f"report is for m={report.get('m')} field={report.get('field')}")
    checks = report.get("checks", [])
    names = {c.get("name") for c in checks}
    expected = workload.expected_checks(primes)
    if names != expected or len(checks) != len(expected):
        problems.append(f"checks {sorted(names)} != expected {sorted(expected)}")
    problems += [f"check {c.get('name')} is {c.get('status')}" for c in checks if c.get("status") != "pass"]
    for c in checks:
        if c.get("name") == "closure":
            dims = c.get("params", {}).get("dims", {})
            want = math.comb(workload.m + 4, 4)
            if set(dims) != set(labels) or any(d != want for d in dims.values()):
                problems.append(f"closure dims {dims} != C(m+4, 4) = {want} on {sorted(labels)}")
    return problems


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def fail(self, message: str):
        print(f"FAIL: {message}", flush=True)
        self.correct = False


def verify_once(workload, primes, tally, deadline, index, traced=False) -> tuple[dict, dict | None]:
    out_dir = WORK / f"{workload.name}-run{index}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        argv = workload.argv(primes) + ["--out", str(out_dir)]
        if traced:
            spans = out_dir / "spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "oddterw.cli", *argv]
        sample = spawn(cmd, out_dir, deadline)
        problems = check_report(workload, primes, out_dir, sample)
        sample["failed"] = bool(problems)
        tally.attempted += 1
        if problems:
            tally.failed += 1
            for p in problems:
                tally.fail(f"{workload.name} run {index}: {p}")
        doc = json.loads(spans.read_text()) if traced and not problems else None
        return sample, doc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def setup_probe(workload, tally, deadline) -> float:
    out_dir = WORK / f"{workload.name}-setup"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        sample = spawn([sys.executable, "-c", SETUP_CODE, str(workload.m)], out_dir, deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if sample["exit"] != 0:
        tally.fail(f"set-up probe exited with {sample['exit']}")
    return sample["wall_s"]


# -- the two modes ---------------------------------------------------------------


def should_stop(start: float, runs: int, seconds: float, deadline: float) -> bool:
    """Stop when one more run would end nearer past `seconds` than it now is short of it,
    or could pass the deadline."""
    now = time.monotonic()
    per_run = (now - start) / runs
    return now - start + per_run / 2 > seconds or now + 1.5 * per_run > deadline


def measure(workload, primes, seconds, tally, deadline) -> tuple[dict, dict]:
    """Untraced runs for `seconds`, each after a few set-up probes; medians."""
    samples, setups = [], []
    start = time.monotonic()
    while True:
        setups += [setup_probe(workload, tally, deadline) for _ in range(SETUP_PROBES_PER_RUN)]
        sample, _ = verify_once(workload, primes, tally, deadline, len(samples))
        samples.append(sample)
        if should_stop(start, len(samples), seconds, deadline):
            break
    series = {key: [s[key] for s in samples] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    series["setup_s"] = setups
    metrics = {key: statistics.median(values) for key, values in series.items()}
    metrics["fail_ratio"] = sum(s["failed"] for s in samples) / len(samples)
    return metrics, series


def measure_traced(workload, primes, seconds, tally, deadline) -> tuple[dict, dict]:
    """Traced and untraced runs in turn for `seconds`, at least two traced."""
    plain, traced, layers = [], [], []
    field_of = {workload.prime_of(f, primes): f for f in workload.fields}.__getitem__
    start = time.monotonic()
    while True:
        is_traced = len(traced) <= len(plain)
        sample, doc = verify_once(workload, primes, tally, deadline, len(plain) + len(traced), is_traced)
        if is_traced:
            traced.append(sample["wall_s"])
            if doc is not None:
                layers.append((tracer.summarize(doc, field_of), doc))
        else:
            plain.append(sample["wall_s"])
        if len(traced) >= 2 and plain and should_stop(start, len(plain) + len(traced), seconds, deadline):
            break
        if should_stop(start, len(plain) + len(traced), math.inf, deadline):
            break
    self_check(workload, layers, tally)
    if not layers:
        return {}, {}
    # counts are equal in every traced run (see self_check); times are medians
    metrics = {
        key: value if isinstance(value, int) else statistics.median(m[key] for m, _ in layers)
        for key, value in layers[0][0].items()
    }
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, {"traced_wall_s": traced, "untraced_wall_s": plain}


def self_check(workload: Workload, layers, tally: Tally):
    """The tracer saw every layer this workload exercises, with repeatable exact counts."""
    if len(layers) < 2:
        tally.fail(f"{workload.name}: {len(layers)} usable traced runs, need two")
        return
    for metrics, doc in layers:
        seen = {s[tracer.NAME] for s in doc["spans"]} | {k for k, v in doc["counts"].items() if v}
        for name in sorted(workload.exercises - seen):
            tally.fail(f"{workload.name}: traced run recorded no call to {name}")
        for name, want in workload.counts:
            if metrics.get(name) != want:
                tally.fail(f"{workload.name}: {name} = {metrics.get(name)}, expected {want}")
    first = {k: v for k, v in layers[0][0].items() if isinstance(v, int)}
    for metrics, _ in layers[1:]:
        again = {k: v for k, v in metrics.items() if isinstance(v, int)}
        if again != first:
            changed = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
            tally.fail(f"{workload.name}: counts differ between traced runs: {changed}")


# -- reporting ------------------------------------------------------------------


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu": cpu}


def run_workload(workload, seed, seconds, trace, tally, declared) -> dict:
    from oddterw import is_prime

    deadline = time.monotonic() + HARD_LIMIT_S
    primes = primes_for(seed)
    for p in primes:
        if is_prime(p) != is_probable_prime(p):
            tally.fail(f"oddterw.is_prime({p}) = {is_prime(p)} but the benchmark's test says otherwise")
    # untimed: compiles the sources once, a cost no later run pays
    setup_probe(workload, tally, deadline)
    measured, series = (measure_traced if trace else measure)(workload, primes, seconds, tally, deadline)
    print(json.dumps({"workload": workload.name, "seed": seed, "primes": primes,
                      "argv": workload.argv(primes), "samples": series, "env": environment()}))
    for name, value in measured.items():
        n = f"median of {len(series[name])}" if name in series else ""
        if name == "fail_ratio":
            n = f"of {len(series['wall_s'])} runs"
        print(f"{workload.name:16s} {name:44s} {value:14.6g} {unit_of(name, value):6s} {n}")
    return {m["name"]: measured[m["name"]] for m in declared if m["name"] in measured}


def unit_of(name: str, value) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    return "count" if isinstance(value, int) else "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oddterw" / "cli.py").is_file():
        print(f"error: no oddterw sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    covered = frozenset().union(*(w.exercises for w in WORKLOADS.values()))
    if covered != frozenset(tracer.TRACED):
        print(f"error: no workload exercises {sorted(set(tracer.TRACED) - covered)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    tally = Tally()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, tally, declared)
            if args.workload == "all":
                result = {f"{name}.{k}": v for k, v in result.items()}
            metrics.update(result)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in declared}
    wanted = [m["name"] for m in declared]
    for name in names if args.workload == "all" else [None]:
        missing = [k for k in wanted if (f"{name}.{k}" if name else k) not in metrics]
        if missing:
            tally.fail(f"{name or args.workload}: no value for {missing}")
    out = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k.split(".", 1)[1] if args.workload == "all" else k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
