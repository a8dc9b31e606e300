"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_run.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a corrupted reference digest makes the run fail, and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", "--tiny", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def import_bench():
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return run, workloads


def test_spec_matches_runner():
    run, workloads = import_bench()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, key):
    proc = bench(ROOT, "--workload", "queries", "--seed", "7", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if key == "end_to_end":
        for name, unit in expected.items():
            assert any(line.startswith(f"queries {name} ") and line.endswith(f" {unit}")
                       for line in proc.stdout.splitlines())


def test_corrupted_reference_fails(tmp_path, monkeypatch, capsys):
    run, _ = import_bench()
    refs = json.loads((BENCH / "references.json").read_text())
    ref = "beta-matrix json n=3 r=2"  # the tiny matrix job
    refs[ref] = ("0" if refs[ref][0] != "0" else "1") + refs[ref][1:]
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCES", bad)
    code = run.main(["--workload", "matrix", "--seconds", "1", "--tiny"])
    stdout = capsys.readouterr().out
    assert code != 0
    out = last_json(stdout)
    assert out["correct"] is False and out["failed"] > 0
    frac = next(line for line in stdout.splitlines() if " fail_frac " in line)
    assert float(frac.split()[2]) > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = bench(tmp_path, "--workload", "matrix")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
