"""The multiplicity routes stay independent: each one, run on a cold engine,
reaches none of the primitives that define another route.

Singular, chain and solve agree on every entry only because they compute
the same integer three unrelated ways; a fourth, LR-only route builds the
character basis from Littlewood-Richardson coefficients alone. If a
refactor let one route call into another, their agreement would stop
checking anything. Each route runs in its own child process, so no memo is
warm, under sys.setprofile, which records every Python function of the
engine that it enters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylchar

SRC = str(Path(weylchar.__file__).resolve().parents[1])

# Every (la, mu) at (n, r) = (3, 2) and (3, 3) through one route; the LR-only
# route multiplies, per la, the Schur functions of its components on the
# union of the alphabets k..r-1. Prints the entered functions as
# "module.name", module without the package prefix.
CHILD = """
import json, sys
from weylchar import (
    MultiPartition, SchurExpansion, multipartitions, multiplicity,
    schur_product, union_alphabet_schur,
)

route = sys.argv[1]
orders = [(r, multipartitions(n, r)) for n, r in ((3, 2), (3, 3))]
reached = set()

def profile(frame, event, arg):
    module = frame.f_globals.get("__name__", "")
    if event == "call" and module.startswith("weylchar."):
        reached.add(module[len("weylchar."):] + "." + frame.f_code.co_name)

sys.setprofile(profile)
for r, order in orders:
    for la in order:
        if route == "lr":
            row = SchurExpansion(r, 0, {MultiPartition.empty(r): 1})
            for k, p in enumerate(la.components):
                row = schur_product(row, union_alphabet_schur(p, k, r))
        else:
            for mu in order:
                multiplicity(la, mu, method=route)
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""

ROUTES = ("singular", "chain", "solve", "lr")

# The chain route's slicing enumeration, its memos of levels, layers and
# row blocks, and the count shapes it builds from a layer's pieces.
CHAIN_ONLY = {
    "branching.layer_chains",
    "branching._lower_levels",
    "branching._sized_picks",
    "branching._layer",
    "branching._chain_layers",
    "branching._pieces",
    "branching._canonical_piece",
    "branching._count_shape",
}

# What each route must reach, so that an empty record cannot pass.
OWN = {
    "singular": {"branching._singular_value", "crystal.is_singular"},
    "chain": {"branching._chain_value", "branching.skew_singular_count"} | CHAIN_ONLY,
    "solve": {"branching._solve_row", "branching._kostka"},
    "lr": {"symfunc.union_alphabet_schur", "branching._lr"},
}

NEVER = {
    "singular": {
        "branching._kostka",
        "branching._lr",
        "branching._lattice_count",
        "branching._chain_value",
    }
    | CHAIN_ONLY,
    "solve": {
        "branching._lattice_count",
        "branching._chain_value",
        "crystal.etilde",
        "crystal.ftilde",
    }
    | CHAIN_ONLY,
    "chain": {
        "branching._kostka",
        "branching._lr",
        "tableaux._fillings",
        "crystal.is_singular",
    },
    "lr": {"branching.skew_singular_count", "branching._chain_value"} | CHAIN_ONLY,
}

# The accepted shares, each with exactly the routes that reach it: the
# lattice-word counter behind skew singular counts and LR coefficients, the
# subdiagram list behind layer slicings, Kostka peeling and the union-
# alphabet coproduct, and the tableau enumerator behind both fillings counts.
SHARED = {
    "branching._lattice_count": {"chain", "lr"},
    "branching._subpartitions": {"chain", "solve", "lr"},
    "tableaux._fillings": {"singular", "solve"},
}


@pytest.fixture(scope="module")
def reached():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = {}
    for route in ROUTES:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, route],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        out[route] = set(json.loads(proc.stdout))
    return out


@pytest.mark.parametrize("route", ROUTES)
def test_route_reaches_no_other_route(route, reached):
    assert OWN[route] <= reached[route], OWN[route] - reached[route]
    assert not NEVER[route] & reached[route], NEVER[route] & reached[route]


def test_accepted_shares(reached):
    for name, routes in SHARED.items():
        assert {r for r in ROUTES if name in reached[r]} == routes, name
