"""Job lists of the four benchmark workloads.

A job is one `weylchar` command line. Its `ref` names the entry of
references.json that its stdout must hash to; jobs that must print the same
bytes share a ref (chain, solve and singular matrices of one size, and
`factorize --Dbar <identity>` with the chain `beta-matrix` it reproduces).

Only `queries` depends on the seed: the seed draws its requests from fixed
candidate pools, a fixed number per command, so every seed runs the same mix
at similar cost. The other workloads run fixed sizes whatever the seed.
"""

import random
from typing import NamedTuple

WORKLOADS = ("matrix", "oracle", "scan", "queries")

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "matrix": "chain-route beta-matrix at r=2 and r=3: every entry misses the "
    "chain memo, time goes to layer_chains, skew_singular_count and shapes",
    "oracle": "solve and singular cross-check routes plus a crystal graph: "
    "time goes to tableau enumeration, Kostka numbers and crystal operators",
    "scan": "conjecture-scan: the chain memo mostly hits, time goes to Schur "
    "products, basis changes, LR coefficients and MultiPartition hashing",
    "queries": "about 40 small seeded requests, cold then warm through one "
    "--cache-dir: start-up, argparse, serialization and the file cache",
}


class Job(NamedTuple):
    argv: tuple
    ref: str


def shape_arg(mp) -> str:
    return "[" + ",".join("[" + ",".join(map(str, c)) + "]" for c in mp) + "]"


def identity_path(n: int, r: int) -> str:
    """Identity matrix file over the canonical order, relative to the root."""
    return f"bench/data/identity-n{n}-r{r}.json"


def matrix_job(n: int, r: int, method: str = "chain", fmt: str = "json") -> Job:
    argv = ("beta-matrix", "--n", str(n), "--r", str(r))
    if method != "chain":
        argv += ("--method", method)
    if fmt != "json":
        argv += ("--format", fmt)
    return Job(argv, f"beta-matrix {fmt} n={n} r={r}")


def factorize_job(n: int, r: int) -> Job:
    return Job(("factorize", "--Dbar", identity_path(n, r)), f"beta-matrix json n={n} r={r}")


def plain_job(*argv: str) -> Job:
    return Job(tuple(argv), " ".join(argv))


def _partitions(n: int, cap: int = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def multipartitions(n: int, r: int) -> list:
    """All r-tuples of partitions of total size n, in a fixed order."""
    if r == 1:
        return [(p,) for p in _partitions(n)]
    return [
        (p,) + rest
        for a in range(n, -1, -1)
        for p in _partitions(a)
        for rest in multipartitions(n - a, r - 1)
    ]


QUERY_MATRIX_SIZES = ((4, 2), (5, 2), (3, 3), (6, 2), (4, 3))


# Candidate pools for `queries`, fixed for every seed. Each pool holds jobs
# of similar cost so that the seed changes which requests run, not how much
# work they are.
def _query_pools(tiny: bool) -> list:
    """(count per pass, candidate jobs) for each request kind."""
    if tiny:
        mp2 = multipartitions(2, 2)
        return [
            (2, [plain_job("beta", "--lambda", shape_arg(a), "--mu", shape_arg(b),
                           "--method", "all") for a in mp2 for b in mp2]),
            (1, [plain_job("tilde", "--lambda", shape_arg(a)) for a in mp2]),
            (1, [plain_job("cmul", "--lambda", "[[1],[]]", "--mu", shape_arg(b))
                 for b in multipartitions(1, 2)]),
            (1, [plain_job("crystal-graph", "--lambda", shape_arg(a)) for a in mp2]),
            (1, [matrix_job(2, 2, fmt="tsv")]),
            (1, [factorize_job(2, 2)]),
        ]
    pick = random.Random(0)
    mp5 = multipartitions(5, 2)
    beta_pairs = pick.sample([(a, b) for a in mp5 for b in mp5], 30)
    cmul_pairs = [
        (a, b) for a in multipartitions(2, 2) for b in multipartitions(2, 2)
    ]
    return [
        (10, [plain_job("beta", "--lambda", shape_arg(a), "--mu", shape_arg(b),
                        "--method", "all") for a, b in beta_pairs]),
        (6, [plain_job("character", "--lambda", shape_arg(a))
             for a in multipartitions(4, 2)]),
        (6, [plain_job("tilde", "--lambda", shape_arg(a))
             for a in multipartitions(5, 2)]),
        (6, [plain_job("cmul", "--lambda", shape_arg(a), "--mu", shape_arg(b))
             for a, b in cmul_pairs]),
        (4, [plain_job("crystal-graph", "--lambda", shape_arg(a))
             for a in multipartitions(3, 2)]),
        (4, [matrix_job(n, r, fmt="tsv") for n, r in QUERY_MATRIX_SIZES]),
        (4, [factorize_job(n, r) for n, r in QUERY_MATRIX_SIZES]),
    ]


def query_pool(tiny: bool = False) -> list:
    """Every candidate query job, for building references."""
    return [job for _, pool in _query_pools(tiny) for job in pool]


def jobs(workload: str, seed: int, tiny: bool = False) -> list:
    """The job list of one pass of a workload."""
    if workload == "matrix":
        sizes = ((3, 2), (2, 3)) if tiny else ((8, 2), (6, 3))
        return [matrix_job(n, r) for n, r in sizes]
    if workload == "oracle":
        if tiny:
            return [
                matrix_job(3, 2, "solve"),
                matrix_job(3, 2, "singular"),
                plain_job("crystal-graph", "--lambda", "[[1],[1]]"),
            ]
        return [
            matrix_job(7, 2, "solve"),
            matrix_job(5, 3, "solve"),
            matrix_job(6, 2, "singular"),
            plain_job("crystal-graph", "--lambda", "[[2,1],[1,1]]"),
        ]
    if workload == "scan":
        sizes = ((2, 2),) if tiny else ((7, 2), (5, 3))
        return [
            plain_job("conjecture-scan", "--n-max", str(n), "--r", str(r))
            for n, r in sizes
        ]
    if workload == "queries":
        rng = random.Random(seed)
        out = []
        for count, pool in _query_pools(tiny):
            out.extend(rng.sample(pool, count))
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")


def reference_jobs() -> list:
    """Every job of every workload and seed, in both sizes, without repeats.

    Each `beta-matrix json` reference also gets its chain-route job, which
    the cross-check routes and `factorize` must reproduce byte for byte.
    """
    out = []
    for tiny in (False, True):
        for workload in WORKLOADS[:3]:
            out.extend(jobs(workload, 0, tiny))
        out.extend(query_pool(tiny))
    for job in list(out):
        if job.ref.startswith("beta-matrix json"):
            n, r = (int(x.split("=")[1]) for x in job.ref.split()[2:])
            out.append(matrix_job(n, r))
    return list(dict.fromkeys(out))
