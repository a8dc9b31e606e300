"""Benchmark of the `weylchar` command line, end to end and layer by layer.

    python3 bench/run.py --workload matrix --seed 1 --seconds 28 --trace 0

Run from the repository root. Every job is `python -m weylchar.cli ...` in a
fresh process with PYTHONPATH=src, so the in-process memos start cold as
they do for a user. One client runs one job at a time (a closed loop).

A run repeats rounds while the next round still fits in --seconds (at least
one). A round times a trivial job a few times (setup_s), makes a cold pass
over the workload's jobs through a fresh --cache-dir, then warm passes over
the same jobs that replay every result from that cache. The last round fills
the time left with more warm passes. Every job must exit
0, print no traceback, and print stdout whose sha256 matches
references.json; a warm job must also repeat its cold bytes. With --trace 1
one more round runs under trace_child.py and the per-layer metrics come from
it.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics. The run also writes a results file under bench/results/. The
exit code is 0 only when every job passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
REFERENCES = BENCH / "references.json"

SETUP_JOB = workloads.plain_job("beta", "--lambda", "[[1],[]]", "--mu", "[[1],[]]")
# Trivial jobs per round. They are spread over the run, and short jobs are
# noisier than long ones on a shared host, so a run takes many.
SETUP_PROBES = 12
# A round repeats the warm pass until it has run this many jobs, so that a
# warm pass of a few 0.1 s replays is not timed only once per round.
WARM_JOBS = 10

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "job_tail_s": "s",
    "warm_wall_s": "s",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "shapes.Partition.inits": "count",
    "shapes.MultiPartition.inits": "count",
    "shapes.SkewShape.inits": "count",
    "shapes.SkewShape.self_s": "s",
    "shapes.multipartitions.self_s": "s",
    "shapes.memo_entries": "count",
    "tableaux.visited": "count",
    "tableaux.enumerate.self_s": "s",
    "tableaux.count_tableaux.calls": "count",
    "tableaux.count_tableaux.s": "s",
    "tableaux.is_semistandard.calls": "count",
    "crystal.reading.calls": "count",
    "crystal.reading.self_s": "s",
    "crystal.ftilde.calls": "count",
    "crystal.ftilde.self_s": "s",
    "crystal.is_singular.calls": "count",
    "crystal.singular_ratio": "ratio",
    "crystal.crystal_components.s": "s",
    "branching.multiplicity.calls": "count",
    "branching.multiplicity.self_s": "s",
    "branching.chain_value.hits": "count",
    "branching.chain_value.misses": "count",
    "branching.chain_value.hit_ratio": "ratio",
    "branching.chain_value.self_s": "s",
    "branching.chain_value.nonzero_ratio": "ratio",
    "branching.layer_chains.calls": "count",
    "branching.layer_chains.chains": "count",
    "branching.layer_chains.self_s": "s",
    "branching.skew_singular_count.calls": "count",
    "branching.skew_singular_count.hit_ratio": "ratio",
    "branching.skew_singular_count.self_s": "s",
    "branching.memo_entries": "count",
    "branching.kostka.hits": "count",
    "branching.kostka.misses": "count",
    "branching.solve_row.self_s": "s",
    "branching.lr_coeff.calls": "count",
    "branching.lr_coeff.self_s": "s",
    "branching.lr.hit_ratio": "ratio",
    "branching.multiplicity_matrix.s": "s",
    "branching.invert_unitriangular.s": "s",
    "symfunc.structure_constants.calls": "count",
    "symfunc.structure_constants.s": "s",
    "symfunc.weyl_schur.calls": "count",
    "symfunc.weyl_schur.self_s": "s",
    "symfunc.schur_product.self_s": "s",
    "symfunc.to_weyl_basis.self_s": "s",
    "symfunc.schur_times.hit_ratio": "ratio",
    "symfunc.basis_change.misses": "count",
    "symfunc.memo_entries": "count",
    "serialize.self_s": "s",
    "serialize.bytes_out": "bytes",
    "cache.get.calls": "count",
    "cache.get.hits": "count",
    "cache.get.s": "s",
    "cache.put.calls": "count",
    "cache.put.s": "s",
    "cache.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

# Wrapped names a workload must reach. A name with zero calls means the
# tracer missed an import site, so the traced run fails instead of reading low.
REQUIRED = {
    "matrix": (
        "branching.multiplicity",
        "branching.chain_value",
        "branching.layer_chains",
        "branching.skew_singular_count",
        "shapes.SkewShape",
        "shapes.multipartitions",
        "serialize",
        "cache.put",
    ),
    "oracle": (
        "tableaux.enumerate_tableaux",
        "tableaux.enumerate_all_tableaux",
        "tableaux.count_tableaux",
        "tableaux.is_semistandard",
        "crystal.reading",
        "crystal.ftilde",
        "crystal.is_singular",
        "crystal.crystal_components",
        "branching.solve_row",
    ),
    "scan": (
        "symfunc.structure_constants",
        "symfunc.weyl_schur",
        "symfunc.schur_product",
        "symfunc.to_weyl_basis",
        "branching.lr_coeff",
        "branching.multiplicity_matrix",
        "branching.invert_unitriangular",
        "branching.chain_value",
    ),
    "queries": (
        "cli.main",
        "cli.command",
        "serialize",
        "cache.get",
        "cache.put",
        "symfunc.weyl_schur",
        "symfunc.structure_constants",
        "crystal.crystal_components",
    ),
}


class Result(NamedTuple):
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("WEYLCHAR_CACHE", None)  # would turn the cache on for every job
    return env


def run_job(argv, work: Path, cache_dir=None, report=None) -> Result:
    """Run one command line in a fresh process and wait for it."""
    if report is None:
        cmd = [sys.executable, "-m", "weylchar.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "trace_child.py"), str(report), *argv]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


def check(job, res: Result, refs: dict, cold=None):
    """Why a job failed, or None when its output is right."""
    if res.code != 0:
        return f"exit code {res.code}"
    if b"Traceback" in res.stderr:
        return "traceback on stderr"
    if "all" in job.argv and b'"agree":true' not in res.stdout:
        return "routes disagree"
    expected = refs.get(job.ref)
    if expected is None:
        return f"no reference for {job.ref!r}"
    if hashlib.sha256(res.stdout).hexdigest() != expected:
        return "stdout differs from reference"
    if cold is not None and res.stdout != cold.stdout:
        return "warm stdout differs from cold"
    return None


class Pass(NamedTuple):
    wall_s: float
    results: list


def run_pass(jobs, work: Path, cache_dir: Path, reports=None) -> Pass:
    results = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        report = None if reports is None else reports / f"{i}.json"
        results.append(run_job(job.argv, work, cache_dir, report))
    return Pass(time.perf_counter() - start, results)


def cache_state(cache_dir: Path) -> dict:
    """Name and mtime of every cache entry."""
    return {p.name: p.stat().st_mtime_ns for p in cache_dir.iterdir()}


def run_round(jobs, work: Path, refs: dict, failures: list, warm_passes=1, traced=False,
              deadline=None):
    """Cold pass through a fresh cache directory, then warm passes.

    With a deadline, warm passes go on while another still fits before it.
    """
    cache_dir = Path(tempfile.mkdtemp(dir=work, prefix="cache-"))
    reports = None
    if traced:
        reports = Path(tempfile.mkdtemp(dir=work, prefix="trace-"))
        (reports / "cold").mkdir()
        (reports / "warm").mkdir()
    try:
        cold = run_pass(jobs, work, cache_dir, reports and reports / "cold")
        filled = cache_state(cache_dir)
        cache_bytes = sum(p.stat().st_size for p in cache_dir.iterdir())
        warm = []
        while len(warm) < warm_passes or (
            deadline is not None
            and time.perf_counter() + statistics.mean(w.wall_s for w in warm) <= deadline
        ):
            warm.append(run_pass(jobs, work, cache_dir, reports and reports / "warm"))
        if cache_state(cache_dir) != filled:
            # A warm job that misses recomputes, prints the same bytes and
            # rewrites its entry, so only the directory shows the miss.
            failures.append({"argv": [], "pass": "warm", "why": "cache entries changed"})
        for i, (job, c) in enumerate(zip(jobs, cold.results)):
            checked = [("cold", c, None)] + [("warm", w.results[i], c) for w in warm]
            for phase, res, base in checked:
                why = check(job, res, refs, base)
                if why:
                    failures.append({"argv": list(job.argv), "pass": phase, "why": why})
        loaded = []
        if traced:
            for phase in ("cold", "warm"):
                for i, job in enumerate(jobs):
                    path = reports / phase / f"{i}.json"
                    if path.is_file():
                        rep = json.loads(path.read_text())
                        loaded.append(dict(rep, argv=list(job.argv), phase=phase))
        return cold, warm, cache_bytes, loaded
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        if reports is not None:
            shutil.rmtree(reports, ignore_errors=True)


def tail(walls: list):
    """Per-job wall at the highest percentile with ten jobs beyond it.

    A pass of ten jobs or fewer has no such percentile; its slowest job is
    used instead. Returns (value, percentile label).
    """
    walls = sorted(walls)
    if len(walls) > 10:
        return walls[-11], f"p{100 * (len(walls) - 10) / len(walls):.1f}"
    return walls[-1], "max"


def end_to_end(setup: list, rounds: list) -> dict:
    med = statistics.median
    return {
        "wall_s": med(c.wall_s for c, _ in rounds),
        "cpu_s": med(sum(r.cpu_s for r in c.results) for c, _ in rounds),
        "setup_s": med(setup),
        "peak_rss_mb": med(max(r.maxrss_kib for r in c.results) / 1024 for c, _ in rounds),
        "job_tail_s": med(tail([r.wall_s for r in c.results])[0] for c, _ in rounds),
        "warm_wall_s": med(w.wall_s for _, warm in rounds for w in warm),
    }


def layer_metrics(reports: list, cache_bytes: int, overhead_s: float) -> tuple:
    """Per-layer values, plus the summed aggregates and memo counters."""
    funcs: dict = {}
    memos: dict = {}
    for rep in reports:
        for name, agg in rep["funcs"].items():
            acc = funcs.setdefault(name, {})
            for key, val in agg.items():
                acc[key] = acc.get(key, 0) + val
        for name, info in rep["memos"].items():
            acc = memos.setdefault(name, {})
            for key, val in info.items():
                acc[key] = acc.get(key, 0) + val

    def f(name, key):
        return funcs.get(name, {}).get(key, 0)

    def m(name, key):
        return memos.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(name):
        return ratio(m(name, "hits"), m(name, "hits") + m(name, "misses"))

    def entries(layer):
        return sum(v["entries"] for k, v in memos.items() if k.startswith(layer + "."))

    enumerators = ("tableaux.enumerate_tableaux", "tableaux.enumerate_all_tableaux")
    values = {
        "cli.import_s": sum(rep["import_s"] for rep in reports),
        "cli.main.self_s": f("cli.main", "self_s"),
        "shapes.Partition.inits": f("shapes.Partition", "calls"),
        "shapes.MultiPartition.inits": f("shapes.MultiPartition", "calls"),
        "shapes.SkewShape.inits": f("shapes.SkewShape", "calls"),
        "shapes.SkewShape.self_s": f("shapes.SkewShape", "self_s"),
        "shapes.multipartitions.self_s": f("shapes.multipartitions", "self_s"),
        "shapes.memo_entries": entries("shapes"),
        "tableaux.visited": sum(f(n, "yields") for n in enumerators),
        "tableaux.enumerate.self_s": sum(f(n, "self_s") for n in enumerators),
        "tableaux.count_tableaux.calls": f("tableaux.count_tableaux", "calls"),
        "tableaux.count_tableaux.s": f("tableaux.count_tableaux", "total_s"),
        "tableaux.is_semistandard.calls": f("tableaux.is_semistandard", "calls"),
        "crystal.reading.calls": f("crystal.reading", "calls"),
        "crystal.reading.self_s": f("crystal.reading", "self_s"),
        "crystal.ftilde.calls": f("crystal.ftilde", "calls"),
        "crystal.ftilde.self_s": f("crystal.ftilde", "self_s"),
        "crystal.is_singular.calls": f("crystal.is_singular", "calls"),
        "crystal.singular_ratio": ratio(
            f("crystal.is_singular", "true"), f("crystal.is_singular", "calls")
        ),
        "crystal.crystal_components.s": f("crystal.crystal_components", "total_s"),
        "branching.multiplicity.calls": f("branching.multiplicity", "calls"),
        "branching.multiplicity.self_s": f("branching.multiplicity", "self_s"),
        "branching.chain_value.hits": m("branching._chain_value", "hits"),
        "branching.chain_value.misses": m("branching._chain_value", "misses"),
        "branching.chain_value.hit_ratio": hit_ratio("branching._chain_value"),
        "branching.chain_value.self_s": f("branching.chain_value", "self_s"),
        "branching.chain_value.nonzero_ratio": ratio(
            f("branching.chain_value", "nonzero"), m("branching._chain_value", "misses")
        ),
        "branching.layer_chains.calls": f("branching.layer_chains", "calls"),
        "branching.layer_chains.chains": f("branching.layer_chains", "yields"),
        "branching.layer_chains.self_s": f("branching.layer_chains", "self_s"),
        "branching.skew_singular_count.calls": f("branching.skew_singular_count", "calls"),
        "branching.skew_singular_count.hit_ratio": hit_ratio("branching.skew_singular_count"),
        "branching.skew_singular_count.self_s": f("branching.skew_singular_count", "self_s"),
        "branching.memo_entries": entries("branching"),
        "branching.kostka.hits": m("branching._kostka", "hits"),
        "branching.kostka.misses": m("branching._kostka", "misses"),
        "branching.solve_row.self_s": f("branching.solve_row", "self_s"),
        "branching.lr_coeff.calls": f("branching.lr_coeff", "calls"),
        "branching.lr_coeff.self_s": f("branching.lr_coeff", "self_s"),
        "branching.lr.hit_ratio": hit_ratio("branching._lr"),
        "branching.multiplicity_matrix.s": f("branching.multiplicity_matrix", "total_s"),
        "branching.invert_unitriangular.s": f("branching.invert_unitriangular", "total_s"),
        "symfunc.structure_constants.calls": f("symfunc.structure_constants", "calls"),
        "symfunc.structure_constants.s": f("symfunc.structure_constants", "total_s"),
        "symfunc.weyl_schur.calls": f("symfunc.weyl_schur", "calls"),
        "symfunc.weyl_schur.self_s": f("symfunc.weyl_schur", "self_s"),
        "symfunc.schur_product.self_s": f("symfunc.schur_product", "self_s"),
        "symfunc.to_weyl_basis.self_s": f("symfunc.to_weyl_basis", "self_s"),
        "symfunc.schur_times.hit_ratio": hit_ratio("symfunc._schur_times"),
        "symfunc.basis_change.misses": m("symfunc._basis_change", "misses"),
        "symfunc.memo_entries": entries("symfunc"),
        "serialize.self_s": f("serialize", "self_s"),
        "serialize.bytes_out": f("serialize", "bytes"),
        "cache.get.calls": f("cache.get", "calls"),
        "cache.get.hits": f("cache.get", "true"),
        "cache.get.s": f("cache.get", "total_s"),
        "cache.put.calls": f("cache.put", "calls"),
        "cache.put.s": f("cache.put", "total_s"),
        "cache.bytes_written": cache_bytes,
        "trace.overhead_s": overhead_s,
    }
    return values, funcs, memos


def environment(args, rounds: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a plain checkout; src_sha256 identifies the code
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weylchar").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload == "queries",
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "runs": rounds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weylchar" / "cli.py").is_file():
        print(f"bench: no weylchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text())
    jobs = workloads.jobs(args.workload, args.seed, args.tiny)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    failures: list = []
    attempted = 0
    try:
        def setup_probe() -> float:
            res = run_job(SETUP_JOB.argv, work)
            why = check(SETUP_JOB, res, refs)
            if why:
                failures.append({"argv": list(SETUP_JOB.argv), "pass": "setup", "why": why})
            return res.wall_s

        setup_probe()  # untimed warm-up, so bytecode compilation is not counted
        attempted += 1
        setup: list = []
        rounds: list = []
        warm_passes = -(-WARM_JOBS // len(jobs))
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            # A round after which no other fits spends the rest on warm passes.
            last = bool(rounds) and elapsed * (len(rounds) + 2) / len(rounds) > args.seconds
            setup.extend(setup_probe() for _ in range(SETUP_PROBES))
            cold, warm, _, _ = run_round(
                jobs, work, refs, failures, warm_passes,
                deadline=start + args.seconds if last else None,
            )
            rounds.append((cold, warm))
            attempted += SETUP_PROBES + (1 + len(warm)) * len(jobs)
            elapsed = time.perf_counter() - start
            if last or elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        e2e = end_to_end(setup, rounds)

        layers = None
        if args.trace:
            tcold, twarm, cache_bytes, reports = run_round(
                jobs, work, refs, failures, traced=True
            )
            attempted += 2 * len(jobs)
            if len(reports) != 2 * len(jobs):
                failures.append({"argv": [], "pass": "trace", "why": "missing trace reports"})
            values, funcs, memos = layer_metrics(
                reports, cache_bytes, tcold.wall_s - e2e["wall_s"]
            )
            for name in REQUIRED[args.workload]:
                if not funcs.get(name, {}).get("calls"):
                    failures.append(
                        {"argv": [], "pass": "trace", "why": f"{name} recorded no calls"}
                    )
            layers = {
                "values": values,
                "traced_wall_s": tcold.wall_s,
                "traced_warm_wall_s": twarm[0].wall_s,
                "funcs": funcs,
                "memos": memos,
                "jobs": [
                    {k: rep[k] for k in ("argv", "phase", "memos", "spans")}
                    for rep in reports
                ],
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures:
        print(f"FAIL [{f['pass']}] {' '.join(f['argv'])}: {f['why']}", file=sys.stderr)
    failed = len(failures)
    _, tail_label = tail([r.wall_s for r in rounds[0][0].results])
    summary = {
        "environment": environment(args, len(rounds)),
        "jobs": [list(job.argv) for job in jobs],
        "job_tail": {"percentile": tail_label, "samples_per_round": len(jobs)},
        "fail_frac": failed / attempted,
        "failures": failures,
        "end_to_end": e2e,
        "rounds": [
            {
                "cold": [r.wall_s for r in c.results],
                "warm": [[r.wall_s for r in w.results] for w in warm],
                "cold_cpu": [r.cpu_s for r in c.results],
                "cold_maxrss_kib": [r.maxrss_kib for r in c.results],
            }
            for c, warm in rounds
        ],
        "layers": layers,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (RESULTS / f"{name}.json").write_text(json.dumps(summary, indent=1) + "\n")

    for key, unit in END_TO_END.items():
        print(f"{args.workload} {key} {e2e[key]:.6g} {unit}")
    print(f"{args.workload} fail_frac {failed / attempted:.6g} failed/attempted")
    print(f"{args.workload} job_tail_s is the {tail_label} of {len(jobs)} cold jobs per round")
    if layers is not None:
        print(f"{args.workload} trace overhead {values['trace.overhead_s']:.6g} s")
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
