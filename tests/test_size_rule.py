"""One size rule at every call site.

A size n is an integer with 0 <= n <= MAX_CAP, a component count r an
integer with 1 <= r <= MAX_CAP, and a weight a weak composition of its size:
integers, none negative, with the right sum. Every public function that
takes one of these refuses anything else with InputError, with the same
message wherever it is taken, and a memo never answers a call its function
would refuse: a float is refused on a cold memo and again after the same
call with the integer has filled it.

A call that ran away before the rule reached it runs in a child process
with a bounded address space and a timeout, so a regression fails here
instead of hanging the suite or exhausting the machine's memory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylchar
from weylchar import (
    IndexedMatrix,
    InputError,
    MonomialPoly,
    MultiPartition,
    SchurExpansion,
    ShapeBound,
    SkewShape,
    character,
    crystal_components,
    enumerate_all_tableaux,
    kostka,
    layer_chains,
    multicompositions,
    multipartitions,
    scan_structure_constants,
    union_alphabet_schur,
)
from weylchar import symfunc
from weylchar.branching import skew_singular_count
from weylchar.serialize import matrix_from_obj
from weylchar.shapes import compositions_of, partitions_of

SRC = str(Path(weylchar.__file__).resolve().parents[1])

NEGATIVE = "need n >= 0, got n=-1"
NO_COMPONENT = "need r >= 1, got r=0"
SIZE_ABOVE = "size n=10001 is above 10000"
COUNT_ABOVE = "more than 10000 components"
NOT_COMPOSITION = "is no weak composition of"


def refused(call, message=None):
    with pytest.raises(InputError, match=message):
        call()


# Each site that takes a size and a component count, called with every
# (n, r) the rule refuses that its arguments can express.
OUTSIDE = [
    ((-1, 2), NEGATIVE),
    ((2, 0), NO_COMPONENT),
    ((10_001, 1), SIZE_ABOVE),
    ((1, 10_001), COUNT_ABOVE),
]
SIZE_SITES = {
    "ShapeBound.for_size": (ShapeBound.for_size, OUTSIDE),
    "multipartitions": (multipartitions, OUTSIDE),
    "compositions_of": (compositions_of, OUTSIDE),
    "scan_structure_constants": (scan_structure_constants, OUTSIDE),
    # A bound has at least one component, so r = 0 cannot be passed.
    "multicompositions": (
        lambda n, r: multicompositions(n, ShapeBound([1] * r)),
        [((-1, 2), NEGATIVE), ((10_001, 1), SIZE_ABOVE), ((0, 10_001), COUNT_ABOVE)],
    ),
    # The size is that of a partition, so it cannot be negative.
    "union_alphabet_schur": (
        lambda n, r: union_alphabet_schur([n], 0, r),
        [((1, 0), NO_COMPONENT), ((10_001, 1), SIZE_ABOVE), ((1, 10_001), COUNT_ABOVE)],
    ),
    # The integer fields of the expansions and matrices; a bound has at
    # least one component and at most MAX_CAP, so only the size varies.
    "SchurExpansion": (lambda n, r: SchurExpansion(r, n, {}), OUTSIDE),
    "MonomialPoly": (
        lambda n, r: MonomialPoly(ShapeBound([1] * r), n, {}),
        [((-1, 2), NEGATIVE), ((10_001, 1), SIZE_ABOVE)],
    ),
    "IndexedMatrix": (
        lambda n, r: IndexedMatrix(n, ShapeBound([1] * r), [], []),
        [((-1, 2), NEGATIVE), ((10_001, 1), SIZE_ABOVE)],
    ),
    # A matrix file is read through IndexedMatrix.
    "matrix_from_obj": (
        lambda n, r: matrix_from_obj({"n": n, "r": r, "m": [1] * r, "order": [], "rows": []}),
        [((-1, 1), NEGATIVE), ((10_001, 1), SIZE_ABOVE)],
    ),
    # One component always; n = 10,001 would enumerate before the rule
    # existed, so it runs in a child below.
    "partitions_of": (lambda n, r: partitions_of(n), [((-3, 1), "need n >= 0, got n=-3")]),
}


@pytest.mark.parametrize("site", sorted(SIZE_SITES))
def test_site_refuses_every_size_and_count_outside_the_rule(site):
    call, cases = SIZE_SITES[site]
    for (n, r), message in cases:
        refused(lambda: call(n, r), message)


# Each site that takes a weak composition of a known size.
MP = MultiPartition
STRIP = SkewShape(MP([[2], []]))
COMPOSITION_SITES = {
    "kostka": lambda w: kostka([2], w),
    "skew_singular_count": lambda w: skew_singular_count(STRIP, 0, w),
    "layer_chains": lambda w: layer_chains(MP([[2], []]), w),
}


@pytest.mark.parametrize("site", sorted(COMPOSITION_SITES))
def test_site_refuses_a_weight_that_is_no_composition(site):
    call = COMPOSITION_SITES[site]
    for weight in ((3, -1), (10_001, -9_999), (1, 0), (2, 1)):
        refused(lambda: call(weight), NOT_COMPOSITION)


# A float where the rule wants an integer, refused on a cold memo and again
# once the same call with the integer has filled it.
B = ShapeBound([2, 2])
FLOAT_CALLS = {
    "partitions_of": (partitions_of, lambda: partitions_of(2.0), lambda: partitions_of(2)),
    "compositions_of": (None, lambda: compositions_of(2.0, 2), lambda: compositions_of(2, 2)),
    "multicompositions": (
        multicompositions,
        lambda: multicompositions(1.0, B),
        lambda: multicompositions(1, B),
    ),
    "union_alphabet_schur": (
        None,
        lambda: union_alphabet_schur([1], 1.0, 2),
        lambda: union_alphabet_schur([1], 1, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
def test_float_refused_cold_and_warm(name):
    memo, with_float, with_int = FLOAT_CALLS[name]
    if memo is not None:
        memo.cache_clear()
    refused(with_float, "expected integers")
    with_int()
    refused(with_float, "expected integers")


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND: skew_singular_count's memo answers (1.0,) from (1,); "
    "typed keys do not reach tuple elements",
)
def test_skew_count_float_refused_warm():
    shape = SkewShape(MP([[1]]))
    skew_singular_count(shape, 0, (1,))
    refused(lambda: skew_singular_count(shape, 0, (1.0,)), "expected integers")


# Calls that ran away before the rule: they must be refused within a second,
# in a child held to 512 MiB of address space and 8 s of wall time.
CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from weylchar import InputError, ShapeBound, multicompositions, union_alphabet_schur
from weylchar.shapes import compositions_of, partitions_of
start = time.perf_counter()
try:
    eval(sys.argv[1])
except InputError as exc:
    print(time.perf_counter() - start, exc)
"""

RUNAWAY = {
    "compositions_of": ("list(compositions_of(-1, 2))", NEGATIVE),
    "multicompositions": ("multicompositions(-1, ShapeBound([2, 2]))", NEGATIVE),
    "union_alphabet_schur": ("union_alphabet_schur([1], 0, 10**7)", COUNT_ABOVE),
    "partitions_of": ("partitions_of(10_001)", SIZE_ABOVE),
}


@pytest.mark.parametrize("name", sorted(RUNAWAY))
def test_runaway_call_refused_at_once(name):
    call, message = RUNAWAY[name]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, call],
        capture_output=True,
        text=True,
        timeout=8,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    seconds, _, said = proc.stdout.strip().partition(" ")
    assert said == message
    assert float(seconds) < 1.0


# A bound must have as many components as the shape it fills.
TWO = MP([[1], [1]])
ONE_COMPONENT = ShapeBound([2])
COUNT_MISMATCH = "component counts disagree: 2 vs 1"


def test_fillings_refuse_a_bound_of_another_component_count():
    refused(lambda: enumerate_all_tableaux(SkewShape(TWO), ONE_COMPONENT), COUNT_MISMATCH)
    refused(lambda: crystal_components(SkewShape(TWO), ONE_COMPONENT), COUNT_MISMATCH)


def test_character_refuses_a_bound_of_another_component_count(monkeypatch):
    # The refusal comes before any row is built.
    def built(*args):
        raise AssertionError("weyl_schur was called")

    monkeypatch.setattr(symfunc, "weyl_schur", built)
    refused(lambda: character(TWO, ONE_COMPONENT), COUNT_MISMATCH)
