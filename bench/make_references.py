"""Rebuild references.json and the identity matrices under bench/data/.

    python3 bench/make_references.py

Runs every job that any workload can draw, in both sizes, once and records
the sha256 of its stdout. Refuses to write anything when a job fails or
when jobs that share a reference print different bytes: the chain, solve
and singular matrices of one size, and `factorize` against the chain
`beta-matrix`. Rebuild only on a commit whose outputs are known to be right;
the table is what every later run is checked against.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def identity_file(matrix_json: bytes) -> str:
    obj = json.loads(matrix_json)
    dim = len(obj["order"])
    obj["rows"] = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return json.dumps(obj, separators=(",", ":")) + "\n"


def main() -> int:
    jobs = workloads.reference_jobs()
    # factorize reads identity files made from the chain matrices: run it last.
    jobs.sort(key=lambda job: job.argv[0] == "factorize")
    outputs: dict = {}
    failed = False
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)
        for job in [run.SETUP_JOB] + jobs:
            if job.argv[0] == "factorize":
                path = run.ROOT / job.argv[2]
                if not path.exists():
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(identity_file(outputs[job.ref]))
            res = run.run_job(job.argv, work)
            print(f"{res.wall_s:7.3f}s {' '.join(job.argv)}", flush=True)
            why = run.check(job, res, {job.ref: hashlib.sha256(res.stdout).hexdigest()})
            if why:
                print(f"  FAIL: {why}", file=sys.stderr)
                failed = True
            elif outputs.setdefault(job.ref, res.stdout) != res.stdout:
                print(f"  FAIL: differs from another job of {job.ref!r}", file=sys.stderr)
                failed = True
    if failed:
        return 1
    digests = {ref: hashlib.sha256(out).hexdigest() for ref, out in sorted(outputs.items())}
    run.REFERENCES.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} references", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
