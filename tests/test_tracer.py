"""The benchmark's tracer still sees every layer it wraps.

`perfbench/tracer.py` rebinds module attributes from outside.  A function
that the library captured elsewhere (in a table built at import, say)
escapes those wrappers, and the benchmark's traced run then fails its
self-check.  This runs the tracer on a small command and reads what it saw;
nothing under `perfbench/` is changed.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import oddterw

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_records_every_traced_name(tmp_path):
    # run_path compiles from source and leaves no bytecode cache in perfbench/
    tracer = runpy.run_path(str(TRACER), run_name="perfbench_tracer")
    # the child imports the same sources as this process, installed or not
    path = [str(Path(oddterw.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    spans = tmp_path / "spans.json"
    argv = ["verify", "--m", "2", "--checks", "all", "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    seen = {s[tracer["NAME"]] for s in doc["spans"]} | {k for k, v in doc["counts"].items() if v}
    assert set(tracer["TRACED"]) - seen == set()
