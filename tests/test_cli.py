import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import oddterw
from dense_oracle import dense_from_matrix_market
from oddterw import GraphStructureError, IntMatrix, OddGraph, load_report_schema
from oddterw.cli import RunConfig, main, run_verify
from oddterw.report import CheckResult


def test_build_m2(tmp_path, capsys):
    out = tmp_path / "m2"
    assert main(["build", "--m", "2", "--out", str(out)]) == 0
    adjacency = dense_from_matrix_market((out / "adjacency.mtx").read_text())
    assert (len(adjacency), len(adjacency[0])) == (10, 10)
    assert sum(map(sum, adjacency)) == 30  # 15 edges, stored both ways, all entries 1
    manifest = json.loads((out / "vertices.json").read_text())
    assert manifest["m"] == 2
    assert manifest["class_offsets"] == [0, 1, 4]
    assert len(manifest["vertices"]) == 10
    for d in range(3):
        e = dense_from_matrix_market((out / f"estar_{d}.mtx").read_text())
        assert (len(e), len(e[0])) == (10, 10)
    assert dense_from_matrix_market((out / "estar_0.mtx").read_text())[0][0] == 1
    assert sum(map(sum, dense_from_matrix_market((out / "estar_0.mtx").read_text()))) == 1


def test_build_m3_edge_count(tmp_path):
    out = tmp_path / "m3"
    assert main(["build", "--m", "3", "--out", str(out)]) == 0
    adjacency = dense_from_matrix_market((out / "adjacency.mtx").read_text())
    assert (len(adjacency), len(adjacency[0])) == (35, 35)
    assert sum(map(sum, adjacency)) == 140


def test_build_bad_m_exits_2(tmp_path, capsys):
    assert main(["build", "--m", "0", "--out", str(tmp_path / "x")]) == 2
    assert main(["build", "--m", "9999", "--out", str(tmp_path / "y")]) == 2
    assert "error" in capsys.readouterr().err


def test_build_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    rc = main(["build", "--m", "2", "--out", str(blocker / "sub")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_verify_small_run_passes_and_validates_schema(tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(
        [
            "verify",
            "--m", "2",
            "--checks", "closure,blocks,containment,memberships,basis",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, load_report_schema())
    assert report["m"] == 2
    assert report["field"] == "gf(1000000007)+gf(998244353)+exact"
    names = [c["name"] for c in report["checks"]]
    assert "closure" in names
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["closure"]["params"]["dimension"] == 15
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_all_checks_m3(tmp_path, capsys):
    out = tmp_path / "m3all"
    rc = main(["verify", "--m", "3", "--checks", "all", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert json.loads(capsys.readouterr().out) == report
    jsonschema.validate(report, load_report_schema())
    # check names, params, notes and witnesses are pinned; only timings may change
    pinned = json.loads(Path(__file__).with_name("verify_m3_all_report.json").read_text())
    timeless = [{k: v for k, v in c.items() if k != "ms"} for c in report["checks"]]
    assert {**report, "checks": timeless} == pinned
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["closure"]["params"]["dimension"] == 35
    assert by_name["closure"]["params"]["dims"] == {
        "gf(1000000007)": 35, "gf(998244353)": 35, "exact": 35,
    }
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_reports_are_deterministic(tmp_path):
    args = ["verify", "--m", "2", "--checks", "closure,blocks", "--out", None]
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(args[:-1] + [str(out)])
        assert rc == 0
        data = json.loads((out / "report.json").read_text())
        for check in data["checks"]:
            check.pop("ms")
        reports.append(data)
    assert reports[0] == reports[1]


def test_verify_products_check(tmp_path, capsys):
    out = tmp_path / "products"
    rc = main(["verify", "--m", "2", "--checks", "products", "--sweep-max", "4", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"][0]["params"]["ground_sizes"] == [0, 1, 2, 3, 4]


def test_verify_products_parallel(tmp_path):
    out = tmp_path / "par"
    rc = main(
        ["verify", "--m", "2", "--checks", "products", "--sweep-max", "4", "--jobs", "2", "--out", str(out)]
    )
    assert rc == 0


def test_verify_text_format(tmp_path, capsys):
    out = tmp_path / "text"
    rc = main(["verify", "--m", "1", "--checks", "closure", "--format", "text", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in captured
    assert (out / "report.json").exists()  # JSON report is written regardless


def test_verify_rejects_bad_parameters(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["verify", "--m", "9999", "--checks", "all", "--out", out]) == 2
    assert main(["verify", "--m", "2", "--checks", "nonsense", "--out", out]) == 2
    assert main(["verify", "--m", "2", "--checks", "closure", "--primes", "10", "--out", out]) == 2
    # composite above the size floor: rejected when the space is built
    assert main(["verify", "--m", "2", "--checks", "closure", "--primes", "1000001", "--out", out]) == 2
    assert main(["verify", "--m", "6", "--checks", "closure", "--out", out]) == 2  # needs --allow-large
    capsys.readouterr()
    products = ["verify", "--m", "2", "--checks", "products", "--out", out]
    assert main(products + ["--sweep-max", "-5"]) == 2
    assert main(products + ["--sweep-max", "9"]) == 2
    assert "--sweep-max above 8 needs --allow-large" in capsys.readouterr().err
    # the ceiling itself and opted-in larger sweeps validate (not run: v = 9 alone takes about 10 s)
    RunConfig(m=2, checks=("products",), sweep_max=8)
    RunConfig(m=2, checks=("products",), sweep_max=9, allow_large=True)


@pytest.mark.parametrize("checks", [",", ""], ids=["comma", "empty"])
def test_verify_rejects_an_empty_check_selection(tmp_path, capsys, checks):
    out = tmp_path / "x"
    assert main(["verify", "--m", "2", "--checks", checks, "--out", str(out)]) == 2
    assert "error: no checks selected" in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_a_prime_above_64_bits(tmp_path, capsys):
    # a strong pseudoprime to every Miller-Rabin base the primality test uses
    out = tmp_path / "x"
    argv = ["verify", "--m", "3", "--checks", "closure,basis", "--primes", "318665857834031151167461"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "below 2^64" in capsys.readouterr().err
    assert not out.exists()


def test_verify_failure_exits_1(tmp_path, monkeypatch, capsys):
    import oddterw.cli as cli_module

    def failing_blocks(graph):
        return CheckResult(
            name="adjacency-blocks",
            status="fail",
            witnesses=[{"kind": "block_mismatch", "block": [0, 1], "entry": [0, 0]}],
        )

    monkeypatch.setattr(cli_module, "verify_adjacency_blocks", failing_blocks)
    rc = main(["verify", "--m", "2", "--checks", "blocks", "--out", str(tmp_path / "fail")])
    assert rc == 1
    report = json.loads((tmp_path / "fail" / "report.json").read_text())
    jsonschema.validate(report, load_report_schema())
    assert report["checks"][0]["status"] == "fail"
    assert report["checks"][0]["witnesses"]


def test_internal_error_surfaces_as_failed_check(tmp_path, monkeypatch):
    import oddterw.cli as cli_module
    from oddterw import ClosureDivergenceError

    def diverging_closure(graph, prime=None, **kwargs):
        time.sleep(0.05)
        raise ClosureDivergenceError("closure did not stabilize within 1 rounds at m=2")

    monkeypatch.setattr(cli_module, "closure", diverging_closure)
    rc = main(["verify", "--m", "2", "--checks", "closure,basis,blocks", "--out", str(tmp_path / "d")])
    assert rc == 1
    report = json.loads((tmp_path / "d" / "report.json").read_text())
    jsonschema.validate(report, load_report_schema())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["closure-computation"]["status"] == "fail"
    assert by_name["closure-computation"]["witnesses"][0]["kind"] == "internal"
    assert by_name["closure-computation"]["ms"] >= 50  # the failed attempt's time
    assert by_name["closure"]["status"] == "skipped"
    assert by_name["basis"]["status"] == "skipped"
    assert by_name["blocks"]["status"] == "pass"  # independent of the closure


def test_graph_structure_failure_exits_1(tmp_path, monkeypatch, capsys):
    bfs_distances = OddGraph.bfs_distances

    def one_wrong_distance(self):
        dist = bfs_distances(self)
        dist[1] += 1  # vertex 1 is in class 1
        return dist

    monkeypatch.setattr(OddGraph, "bfs_distances", one_wrong_distance)
    with pytest.raises(GraphStructureError) as info:
        OddGraph(2)
    assert isinstance(info.value, RuntimeError)
    # main returns 1 instead of raising, so the console shows no traceback
    assert main(["verify", "--m", "2", "--checks", "blocks", "--out", str(tmp_path / "v")]) == 1
    assert main(["build", "--m", "2", "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.count("internal check failure: class/BFS mismatch at vertex 1") == 2


def test_tampered_adjacency_fails_closure_computation(tmp_path, monkeypatch, capsys):
    adjacency = OddGraph.adjacency

    def one_edge_missing(self):
        entries = {(r, c): v for r, c, v in adjacency(self).iter_entries()}
        del entries[(0, 1)]  # inside the admissible block (0, 1)
        return IntMatrix(self.num_vertices, self.num_vertices, entries)

    monkeypatch.setattr(OddGraph, "adjacency", one_edge_missing)
    out = tmp_path / "t"
    rc = main(["verify", "--m", "3", "--checks", "closure,containment", "--out", str(out)])
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, load_report_schema())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["closure-computation"]["status"] == "fail"
    witness = by_name["closure-computation"]["witnesses"][0]
    assert witness["kind"] == "internal" and "(0, 1)" in witness["detail"]
    assert by_name["closure"]["status"] == "skipped"
    assert by_name["containment"]["status"] == "skipped"


def test_stray_zero_block_entry_fails_closure_computation(tmp_path, monkeypatch, capsys):
    # a symmetric pair of entries in the zero block (0, 2): every admissible
    # block still factors, so only the full blocks check inside the closure sees it
    adjacency = OddGraph.adjacency

    def stray_entry(self):
        stray = self.class_offset(2)
        entries = {(r, c): v for r, c, v in adjacency(self).iter_entries()}
        entries[(0, stray)] = entries[(stray, 0)] = 1
        return IntMatrix(self.num_vertices, self.num_vertices, entries)

    monkeypatch.setattr(OddGraph, "adjacency", stray_entry)
    out = tmp_path / "z"
    checks = "closure,containment,memberships,basis"
    rc = main(["verify", "--m", "3", "--checks", checks, "--out", str(out)])
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, load_report_schema())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["closure-computation"]["status"] == "fail"
    witness = by_name["closure-computation"]["witnesses"][0]
    assert witness["kind"] == "internal" and "(0, 2)" in witness["detail"]
    for name in ("closure", "containment", "memberships", "basis"):
        assert by_name[name]["status"] == "skipped"


def test_closure_ms_includes_computing_the_closures(monkeypatch):
    import oddterw.cli as cli_module

    real_closure = cli_module.closure

    def slow_closure(graph, **kwargs):
        time.sleep(0.05)
        return real_closure(graph, **kwargs)

    monkeypatch.setattr(cli_module, "closure", slow_closure)
    config = RunConfig(m=1, checks=("closure",))
    report = run_verify(config)
    (check,) = report.checks
    assert check.name == "closure" and check.status == "pass"
    assert check.ms >= 50 * len(config.fields)


@pytest.mark.parametrize(
    "checks,owner",
    [
        (("containment",), "containment-closure-in-span[gf(1000000007)]"),
        (("memberships", "basis"), "memberships[gf(1000000007)]"),
        (("basis", "closure"), "closure"),
    ],
    ids=["first-containment-entry", "first-membership-entry", "closure-listed-last"],
)
def test_closure_ms_goes_to_first_entry_using_the_closures(monkeypatch, checks, owner):
    import oddterw.cli as cli_module

    real_closure = cli_module.closure

    def slow_closure(graph, **kwargs):
        time.sleep(0.05)
        return real_closure(graph, **kwargs)

    monkeypatch.setattr(cli_module, "closure", slow_closure)
    config = RunConfig(m=1, checks=checks)
    report = run_verify(config)
    (entry,) = [c for c in report.checks if c.name == owner]
    assert entry.ms >= 50 * len(config.fields)


def test_run_config_validation():
    with pytest.raises(Exception):
        RunConfig(m=0, checks=("closure",))
    config = RunConfig(m=2, checks=("all",))
    assert set(config.checks) == {
        "products", "blocks", "closure", "containment", "memberships", "basis", "dimension",
    }
    assert config.use_exact  # m <= 3 default
    assert not RunConfig(m=4, checks=("closure",)).use_exact
    assert RunConfig(m=4, checks=("closure",), exact=True).use_exact
    with pytest.raises(Exception):
        RunConfig(m=2, checks=("closure",), jobs=0)


def test_run_verify_in_process():
    report = run_verify(RunConfig(m=1, checks=("closure", "basis"), primes=(1_000_000_007,)))
    assert report.all_passed
    assert report.m == 1


def test_tdim_table(capsys):
    assert main(["tdim", "--max", "4"]) == 0
    out = capsys.readouterr().out
    lines = [line.split() for line in out.strip().splitlines()[1:]]
    assert [row[1] for row in lines] == ["5", "15", "35", "70"]
    assert [row[2] for row in lines] == ["5", "15", "35", "70"]
    assert [row[3] for row in lines] == ["5", "15", "35", "70"]


def test_tdim_skips_closure_above_ceiling(monkeypatch, capsys):
    import oddterw.cli as cli_module

    monkeypatch.setattr(cli_module, "DEFAULT_CLOSURE_MAX_M", 2)
    assert cli_module.cmd_tdim(3) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_tdim_bad_max(capsys):
    assert main(["tdim", "--max", "0"]) == 2


def test_tdim_max_capped_at_identity_range(monkeypatch, capsys):
    import oddterw.cli as cli_module

    assert main(["tdim", "--max", "201"]) == 2
    assert "error: --max must be at most 200" in capsys.readouterr().err
    # the cap itself validates; the table is not built here
    seen = []
    monkeypatch.setattr(cli_module, "cmd_tdim", lambda m_max: seen.append(m_max) or 0)
    assert main(["tdim", "--max", "200"]) == 0
    assert seen == [200]


def test_console_entry_point_runs():
    # the child imports the same sources as this process, installed or not
    path = [str(Path(oddterw.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "oddterw.cli", "tdim", "--max", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert "5" in proc.stdout


def test_check_result_witness_truncation():
    witnesses = [{"n": i} for i in range(120)]
    result = CheckResult.from_witnesses("demo", witnesses)
    assert result.status == "fail"
    assert len(result.witnesses) == 50
    assert result.params["witnesses_truncated"] == 120
