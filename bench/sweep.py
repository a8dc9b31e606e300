"""Run the benchmark over many seeds and record its spread and baseline.

    python3 bench/sweep.py --out bench/baseline.json

For each of two sets and each workload, runs `bench/run.py` once per seed
(set 1 uses seeds 1-10, set 2 seeds 11-20) and records every end-to-end
value, its median, its quartiles and the spread (q3 - q1) / median. It also
records how far the second median moved from the first. A (workload, metric)
pair is ok when both spreads and the move, either way, are within the bound
of BENCHMARK.json. Then it makes two traced runs per workload, checks that
every count agrees between them and records the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETS = 2
SEEDS = 10
# Fields of a run's environment that every run of the sweep shares.
SHARED = ("nproc", "python", "platform", "commit", "src_sha256")


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    results_file = BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["environment"] = json.loads(results_file.read_text())["environment"]
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    envs = []
    sets = []
    for k in range(SETS):
        per_workload = {}
        for workload in WORKLOADS:
            runs = []
            for seed in range(SEEDS * k + 1, SEEDS * (k + 1) + 1):
                res = run_once(workload, seed, 0, SPEC["run_seconds"])
                envs.append(res["environment"])
                runs.append(res)
                line = " ".join(f"{n}={v['value']:.4g}" for n, v in res["metrics"].items())
                print(f"set {k + 1} {workload} seed {seed}: {line}", flush=True)
            per_workload[workload] = {
                "seeds": [r["environment"]["seed"] for r in runs],
                "failed": sum(r["failed"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "rounds": [r["environment"]["runs"] for r in runs],
                "metrics": {
                    name: summarize([r["metrics"][name]["value"] for r in runs])
                    for name in bounds
                },
            }
        sets.append(per_workload)

    verdicts = {}
    for workload in WORKLOADS:
        for name, bound in bounds.items():
            first, second = (s[workload]["metrics"][name] for s in sets)
            row = {"spread": [s[workload]["metrics"][name]["spread"] for s in sets],
                   "bound": bound,
                   "drift": (second["median"] - first["median"]) / first["median"]}
            row["ok"] = all(x <= bound for x in row["spread"]) and abs(row["drift"]) <= bound
            verdicts[f"{workload}/{name}"] = row
            print(f"{workload:8s} {name:12s} spread "
                  + " ".join(f"{x:.4f}" for x in row["spread"])
                  + f" drift {row['drift']:+.4f} bound {bound} {'ok' if row['ok'] else 'NOT OK'}",
                  flush=True)

    traced = {}
    for workload in WORKLOADS:
        runs = [run_once(workload, 1, 1, SPEC["run_seconds"]) for _ in range(2)]
        envs.extend(r["environment"] for r in runs)
        counts = [
            {n: v["value"] for n, v in r["metrics"].items() if v["unit"] == "count"}
            for r in runs
        ]
        traced[workload] = {
            "counts_identical": all(c == counts[0] for c in counts),
            "overhead_s": [r["metrics"]["trace.overhead_s"]["value"] for r in runs],
            "metrics": runs[0]["metrics"],
        }
        print(f"{workload:8s} traced: counts identical {traced[workload]['counts_identical']},"
              f" overhead {traced[workload]['overhead_s']}", flush=True)

    environment = {key: sorted({e[key] for e in envs}, key=str) for key in SHARED}
    environment["untraced_runs"] = SETS * SEEDS * len(WORKLOADS)
    environment["traced_runs"] = 2 * len(WORKLOADS)
    environment["seeds"] = {f"set {k + 1}": [SEEDS * k + 1, SEEDS * (k + 1)] for k in range(SETS)}
    environment["traced_seed"] = 1
    report = {"environment": environment, "run_seconds": SPEC["run_seconds"],
              "sets": sets, "verdicts": verdicts, "traced": traced}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    ok = all(v["ok"] for v in verdicts.values()) and all(
        t["counts_identical"] for t in traced.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
