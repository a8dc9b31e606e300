"""Byte check of the CLI against the benchmark's reference table.

`bench/references.json` maps each benchmark job to the sha256 of its
stdout. This test runs the small jobs in-process through `cli.main`, so an
ordering or formatting change shows up in the test suite, not only in a
benchmark run. Every `conjecture-scan` job runs here, the full-size ones of
the `scan` workload included (about 1 s each); the other full-size workload
jobs are left to the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from weylchar import cli

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text()
)

# Largest beta-matrix size checked here per component count.
MATRIX_N_MAX = {2: 5, 3: 4}
PLAIN = ("beta ", "tilde ", "cmul ", "character ", "crystal-graph ")


def _jobs():
    """(reference key, argv) for every job small enough for the test suite."""
    for key in REFERENCES:
        if key.startswith(PLAIN + ("conjecture-scan ",)):
            yield key, key.split()
        elif key.startswith("beta-matrix tsv"):
            n, r = (x.split("=")[1] for x in key.split()[2:])
            yield key, ["beta-matrix", "--n", n, "--r", r, "--format", "tsv"]
        elif key.startswith("beta-matrix json"):
            n, r = (int(x.split("=")[1]) for x in key.split()[2:])
            if n <= MATRIX_N_MAX.get(r, -1):
                for method in ("chain", "solve", "singular"):
                    argv = ["beta-matrix", "--n", str(n), "--r", str(r), "--method", method]
                    yield key, argv


JOBS = list(_jobs())


def test_jobs_cover_the_small_references():
    keys = {key for key, _ in JOBS}
    assert "crystal-graph --lambda [[2,1],[1,1]]" in keys
    assert "beta-matrix json n=4 r=3" in keys and "beta-matrix tsv n=6 r=2" in keys
    assert {
        "conjecture-scan --n-max 2 --r 2",
        "conjecture-scan --n-max 7 --r 2",
        "conjecture-scan --n-max 5 --r 3",
    } <= keys
    assert not any(k.startswith(("factorize", "beta-matrix json n=6")) for k in keys)


@pytest.mark.parametrize("key,argv", JOBS, ids=[" ".join(argv) for _, argv in JOBS])
def test_stdout_matches_reference(key, argv, capsys, monkeypatch):
    monkeypatch.delenv("WEYLCHAR_CACHE", raising=False)
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFERENCES[key]
