"""Command-line surface: build artifacts, run verification suites, export reports.

Subcommands:
  build   write the adjacency matrix, vertex manifest and distance
          projectors for one graph
  verify  run selected verification checks and write a JSON report
  tdim    tabulate the dimension count against the closed form, with
          computed closure dimensions where feasible

Exit codes: 0 all selected checks passed, 1 verification failure,
2 usage / parameter / IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .errors import OddTerwError, ParameterError
from .exactmat import DEFAULT_PRIMES, field_name, is_prime, write_matrix_market
from .intersection import product_formula_failures
from .oddgraph import DEFAULT_MAX_M, OddGraph, verify_adjacency_blocks
from .report import FAIL, SKIPPED, CheckResult, VerificationReport
from .terwilliger import (
    DEFAULT_CLOSURE_MAX_M,
    block_generators,
    closure,
    dimension_formula,
    verify_closure_in_generator_span,
    verify_generator_basis,
    verify_generators_in_closure,
    verify_membership_families,
)

CHECK_NAMES = ("products", "blocks", "closure", "containment", "memberships", "basis", "dimension")
CLOSURE_CHECKS = {"closure", "containment", "memberships", "basis"}
DEFAULT_SWEEP_MAX = 7
#: Sweeping above this ground size needs --allow-large: v = 9 alone takes
#: about 10 s, and the cost grows super-exponentially.
SWEEP_MAX_CEILING = 8
DIMENSION_IDENTITY_MAX = 200


@dataclass
class RunConfig:
    """Validated options for one verification run."""

    m: int
    checks: tuple[str, ...]
    primes: tuple[int, ...] = DEFAULT_PRIMES
    exact: bool | None = None  # None: on exactly when m <= 3
    jobs: int = 1
    out_dir: Path | None = None
    fmt: str = "json"
    sweep_max: int = DEFAULT_SWEEP_MAX
    allow_large: bool = False

    def __post_init__(self):
        if not self.checks:
            raise ParameterError("no checks selected")
        unknown = [c for c in self.checks if c not in CHECK_NAMES + ("all",)]
        if unknown:
            raise ParameterError(f"unknown checks: {', '.join(unknown)}")
        if "all" in self.checks:
            self.checks = CHECK_NAMES
        if self.m < 1:
            raise ParameterError("m must be at least 1")
        if not 1 <= len(self.primes) <= 2 or len(set(self.primes)) != len(self.primes):
            raise ParameterError("provide one or two distinct primes")
        if any(p <= 10**6 for p in self.primes):
            raise ParameterError("primes must exceed 10^6")
        for p in self.primes:
            if not is_prime(p):
                raise ParameterError(f"{p} is not prime")
        if self.m > DEFAULT_MAX_M:
            raise ParameterError(f"m={self.m} exceeds the supported ceiling {DEFAULT_MAX_M}")
        if self.jobs < 1:
            raise ParameterError("jobs must be at least 1")
        if self.sweep_max < 0:
            raise ParameterError("--sweep-max must be at least 0")
        if self.sweep_max > SWEEP_MAX_CEILING and not self.allow_large:
            raise ParameterError(f"--sweep-max above {SWEEP_MAX_CEILING} needs --allow-large")
        closure_cap = DEFAULT_MAX_M if self.allow_large else DEFAULT_CLOSURE_MAX_M
        if self.needs_closure and self.m > closure_cap:
            raise ParameterError(
                f"m={self.m} exceeds the closure ceiling {closure_cap}"
                + ("" if self.allow_large else " (use --allow-large up to 6)")
            )

    @property
    def needs_closure(self) -> bool:
        return bool(CLOSURE_CHECKS & set(self.checks))

    @property
    def needs_graph(self) -> bool:
        return self.needs_closure or "blocks" in self.checks

    @property
    def use_exact(self) -> bool:
        return self.m <= 3 if self.exact is None else self.exact

    @property
    def fields(self) -> list[int | None]:
        out: list[int | None] = list(self.primes)
        if self.use_exact:
            out.append(None)
        return out


def _check_products(config: RunConfig) -> CheckResult:
    vs = sorted(set(range(config.sweep_max + 1)) | {config.m, config.m + 1})
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            chunks = pool.map(product_formula_failures, vs)
            witnesses = [w for chunk in chunks for w in chunk]
    else:
        witnesses = [w for v in vs for w in product_formula_failures(v)]
    # jobs is an execution knob, not part of the report: reports must be a
    # function of (m, checks, primes, exact) alone, timings aside
    return CheckResult.from_witnesses("products", witnesses, params={"ground_sizes": vs})


def _check_dimension(config: RunConfig) -> CheckResult:
    witnesses = []
    for m in sorted(set(range(1, DIMENSION_IDENTITY_MAX + 1)) | {config.m}):
        try:
            dimension_formula(m)
        except OddTerwError as exc:
            witnesses.append({"kind": "identity_mismatch", "m": m, "detail": str(exc)})
    return CheckResult.from_witnesses(
        "dimension",
        witnesses,
        params={"checked_up_to": max(DIMENSION_IDENTITY_MAX, config.m)},
    )


def _check_closure_dimensions(config: RunConfig, closures: dict) -> CheckResult:
    witnesses = []
    dims = {field_name(p): clo.dimension for p, clo in closures.items()}
    expected = dimension_formula(config.m).binomial
    if len(set(dims.values())) > 1:
        witnesses.append({"kind": "dimension_disagreement", "dims": dims})
    for name, d in dims.items():
        if d != expected:
            witnesses.append(
                {"kind": "closure_dimension_mismatch", "field": name, "dim": d, "expected": expected}
            )
    return CheckResult.from_witnesses(
        "closure", witnesses, params={"dims": dims, "dimension": expected}
    )


def run_verify(config: RunConfig) -> VerificationReport:
    """Run the selected checks and return the aggregated report.

    Internal errors from the kernel (divergence, for instance) become a
    failing check with an "internal" witness instead of propagating, and
    the checks that needed the lost result are reported as skipped.
    """

    def timed(name: str, check, *args) -> CheckResult:
        t0 = time.perf_counter()
        result = check(*args)
        result.name = name
        result.ms = int((time.perf_counter() - t0) * 1000)
        return result

    graph = OddGraph(config.m) if config.needs_graph else None
    gens = block_generators(config.m) if config.needs_closure else None
    closures = {}
    checks: list[CheckResult] = []
    # the closures are computed once, up front, and timed as a whole
    closure_ms = 0
    if config.needs_closure:
        t0 = time.perf_counter()
        try:
            for prime in config.fields:
                closures[prime] = closure(graph, prime=prime)
        except OddTerwError as exc:
            checks.append(
                CheckResult(
                    name="closure-computation",
                    status=FAIL,
                    witnesses=[{"kind": "internal", "detail": str(exc)}],
                )
            )
            closures = None
        closure_ms = int((time.perf_counter() - t0) * 1000)

    first_entry = {}  # check name -> index of its first entry in the report
    for name in config.checks:
        first_entry.setdefault(name, len(checks))
        if name in CLOSURE_CHECKS and closures is None:
            checks.append(
                CheckResult(name=name, status=SKIPPED, params={"reason": "closure computation failed"})
            )
        elif name == "products":
            checks.append(timed("products", _check_products, config))
        elif name == "blocks":
            checks.append(timed("blocks", verify_adjacency_blocks, graph))
        elif name == "dimension":
            checks.append(timed("dimension", _check_dimension, config))
        elif name == "closure":
            checks.append(timed("closure", _check_closure_dimensions, config, closures))
        elif name == "containment":
            for prime, clo in closures.items():
                field = field_name(prime)
                checks.append(timed(f"containment-closure-in-span[{field}]",
                                    verify_closure_in_generator_span, graph, clo, gens))
                checks.append(timed(f"containment-span-in-closure[{field}]",
                                    verify_generators_in_closure, graph, clo, gens))
        elif name == "memberships":
            for prime, clo in closures.items():
                checks.append(timed(f"memberships[{field_name(prime)}]",
                                    verify_membership_families, graph, clo))
        elif name == "basis":
            for prime, clo in closures.items():
                checks.append(timed(f"basis[{field_name(prime)}]",
                                    verify_generator_basis, graph, clo, gens))
    if config.needs_closure:
        # the closure time goes into the first entry that reports on the
        # closures: closure-computation when they failed, else `closure` when
        # selected, else the first containment, membership or basis entry
        owner = "closure" if "closure" in first_entry else next(
            name for name in config.checks if name in CLOSURE_CHECKS
        )
        checks[0 if closures is None else first_entry[owner]].ms += closure_ms

    field_desc = "+".join(field_name(p) for p in config.fields)
    return VerificationReport(m=config.m, field=field_desc, checks=checks)


# -- commands -----------------------------------------------------------------


def cmd_build(m: int, out_dir: Path) -> int:
    try:
        graph = OddGraph(m)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_matrix_market(graph.adjacency(), out_dir / "adjacency.mtx")
        with open(out_dir / "vertices.json", "w", encoding="ascii") as fh:
            json.dump(graph.vertex_manifest(), fh, indent=2)
        for d in range(m + 1):
            write_matrix_market(graph.dual_idempotent(d), out_dir / f"estar_{d}.mtx")
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote adjacency.mtx, vertices.json and {m + 1} projector files to {out_dir}")
    return 0


def cmd_verify(config: RunConfig) -> int:
    report = run_verify(config)
    if config.out_dir is not None:
        try:
            config.out_dir.mkdir(parents=True, exist_ok=True)
            with open(config.out_dir / "report.json", "w", encoding="ascii") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    print(report.to_json() if config.fmt == "json" else report.render_text())
    return 0 if report.all_passed else 1


def cmd_tdim(m_max: int) -> int:
    print(f"{'m':>4} {'block sum':>12} {'C(m+4,4)':>12} {'closure dim':>12}")
    for m in range(1, m_max + 1):
        identity = dimension_formula(m)
        if m <= DEFAULT_CLOSURE_MAX_M:
            clo = closure(OddGraph(m))
            closure_col = str(clo.dimension)
        else:
            closure_col = "skipped"
        print(f"{m:>4} {identity.block_sum:>12} {identity.binomial:>12} {closure_col:>12}")
    return 0


# -- argument parsing -----------------------------------------------------------


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad prime list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oddterw", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="export graph matrices and the vertex manifest")
    p_build.add_argument("--m", type=int, required=True)
    p_build.add_argument("--out", type=Path, required=True)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument(
        "--checks",
        default="all",
        help=f"comma-separated subset of {', '.join(CHECK_NAMES)}, or 'all'",
    )
    p_verify.add_argument("--primes", type=_parse_primes, default=DEFAULT_PRIMES)
    p_verify.add_argument(
        "--exact",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="also run exact rational arithmetic (default: on for m <= 3)",
    )
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", type=Path, required=True)
    p_verify.add_argument("--format", choices=("json", "text"), default="json")
    p_verify.add_argument("--sweep-max", type=int, default=DEFAULT_SWEEP_MAX)
    p_verify.add_argument("--allow-large", action="store_true")

    p_tdim = sub.add_parser("tdim", help="tabulate dimensions")
    p_tdim.add_argument(
        "--max", type=int, required=True, help=f"largest m, 1 to {DIMENSION_IDENTITY_MAX}"
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "build":
            return cmd_build(args.m, args.out)
        if args.command == "verify":
            config = RunConfig(
                m=args.m,
                checks=tuple(t for t in args.checks.split(",") if t),
                primes=args.primes,
                exact=args.exact,
                jobs=args.jobs,
                out_dir=args.out,
                fmt=args.format,
                sweep_max=args.sweep_max,
                allow_large=args.allow_large,
            )
            return cmd_verify(config)
        if args.command == "tdim":
            if args.max < 1:
                raise ParameterError("--max must be at least 1")
            if args.max > DIMENSION_IDENTITY_MAX:
                raise ParameterError(f"--max must be at most {DIMENSION_IDENTITY_MAX}")
            return cmd_tdim(args.max)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OddTerwError as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
