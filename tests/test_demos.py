"""Every narrative script under demos/, and the benchmark's tracer, runs to
completion on this source tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylchar

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = str(Path(weylchar.__file__).resolve().parents[1])


def _run(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_tracer_installs(tmp_path):
    # The tracer rebinds memos and functions by name, so renaming one of them
    # in src/ breaks every traced benchmark run; this catches it in seconds.
    report = tmp_path / "r.json"
    tracer = ROOT / "bench" / "trace_child.py"
    proc = _run(tracer, report, "beta", "--lambda", "[[1],[]]", "--mu", "[[1],[]]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"
    memos = json.loads(report.read_text(encoding="utf-8"))["memos"]
    assert {"branching._kostka", "branching._subpartitions"} <= set(memos)
    for name, record in memos.items():
        assert sorted(record) == ["entries", "hits", "misses"], name


def import_bench():
    # No bytecode cache either: the test writes nothing under bench/.
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
    return run, workloads


@pytest.mark.parametrize("workload", ["matrix", "oracle", "scan", "queries"])
def test_bench_trace_records_every_required_name(workload, tmp_path):
    # A traced benchmark run fails when a name it requires records no calls,
    # e.g. when a route stops calling a traced function through the module
    # global the tracer rebinds. The tiny jobs show it in a couple of seconds.
    run, workloads = import_bench()
    calls: dict = {}
    for i, job in enumerate(workloads.jobs(workload, 0, tiny=True)):
        report = tmp_path / f"{i}.json"
        cache_dir = tmp_path / f"cache-{i}"
        proc = _run(BENCH / "trace_child.py", report, *job.argv, "--cache-dir", cache_dir)
        assert proc.returncode == 0, proc.stderr
        for name, record in json.loads(report.read_text(encoding="utf-8"))["funcs"].items():
            calls[name] = calls.get(name, 0) + record["calls"]
    assert [name for name in run.REQUIRED[workload] if not calls.get(name)] == []
