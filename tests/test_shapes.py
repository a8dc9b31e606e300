import json
from itertools import product

import pytest
from hypothesis import given, strategies as st

from weylchar import (
    Cell,
    Grouping,
    InputError,
    MultiComposition,
    MultiPartition,
    Partition,
    ShapeBound,
    SkewShape,
    as_composition,
    canonical_key,
    cell_order_cmp,
    component_sizes,
    dominates,
    group_sizes,
    multipartitions,
    prefix_dominates,
    split_components,
)
from weylchar import (
    CrystalWord,
    IndexedMatrix,
    MonomialPoly,
    SchurExpansion,
    Tableau,
    identity_matrix,
    multicompositions,
    multiplicity_matrix,
    superstandard,
)
from weylchar.serialize import multipartition_from_obj, multipartition_to_obj
from weylchar.shapes import Frozen, compositions_of

from oracles import brute_multipartition_count


def mp(rows):
    return MultiPartition(rows)


def test_partition_strips_trailing_zeros():
    assert Partition([3, 2, 0, 0]).parts == (3, 2)
    assert Partition([]).parts == ()
    assert Partition([]).size == 0


def test_partition_rejects_increasing():
    with pytest.raises(InputError):
        Partition([1, 2])


def test_component_sizes_worked_weight():
    mu = MultiComposition([(2, 1), (2, 2), (3, 1)])
    assert component_sizes(mu) == (3, 4, 4)


def test_component_sizes_trivial():
    assert component_sizes(MultiComposition([(0,), (0,)])) == (0, 0)
    assert component_sizes(mp([[1], [1]])) == (1, 1)


def test_prefix_dominates():
    assert prefix_dominates((3, 1), (2, 2))
    assert prefix_dominates((1, 1), (0, 2))
    assert not prefix_dominates((0, 2), (1, 1))
    with pytest.raises(InputError):
        prefix_dominates((1,), (1, 0))


@given(st.lists(st.integers(0, 8), min_size=1, max_size=6))
def test_prefix_dominates_reflexive(v):
    assert prefix_dominates(v, v)


def test_dominance_examples():
    assert dominates(mp([[2], []]), mp([[1], [1]]))
    assert dominates(mp([[1], [1]]), mp([[1], [1]]))
    assert not dominates(mp([[1], [1]]), mp([[2], []]))
    with pytest.raises(InputError):
        dominates(mp([[2], []]), mp([[1], []]))


def test_dominance_partial_order_exhaustive():
    for n, r in ((4, 2), (6, 2), (3, 3)):
        mps = multipartitions(n, r)
        ge = {
            (x, y)
            for x in mps
            for y in mps
            if dominates(x, y)
        }
        for x in mps:
            assert (x, x) in ge
        for x, y in ge:
            if (y, x) in ge:
                assert x == y
        for x, y in ge:
            for z in mps:
                if (y, z) in ge:
                    assert (x, z) in ge


def test_dominance_implies_size_vector_order():
    for n in range(7):
        mps = multipartitions(n, 2)
        for x in mps:
            for y in mps:
                if dominates(x, y):
                    assert prefix_dominates(component_sizes(x), component_sizes(y))


def test_enumeration_examples():
    assert multipartitions(1, 2) == (
        mp([[1], []]),
        mp([[], [1]]),
    )
    assert multipartitions(2, 1) == (mp([[2]]), mp([[1, 1]]))
    # frozen from the independent convolution counter
    assert brute_multipartition_count(5, (5, 5)) == 36
    assert len(multipartitions(5, 2)) == 36


def test_enumeration_matches_counter_and_is_duplicate_free():
    for n, r in ((0, 2), (3, 2), (5, 2), (4, 3)):
        b = ShapeBound.for_size(n, r)
        mps = multipartitions(n, r)
        assert len(set(mps)) == len(mps)
        assert len(mps) == brute_multipartition_count(n, b.m)


def test_multipartitions_of_many_components():
    # Nothing recurses once per component: 1,500 components is past the
    # interpreter's default recursion limit of 1,000.
    assert len(multipartitions(1, 1500)) == 1500


def test_compositions_descending_lexicographic():
    for parts in range(1, 5):
        for n in range(6):
            brute = sorted(
                (c for c in product(range(n + 1), repeat=parts) if sum(c) == n),
                reverse=True,
            )
            assert list(compositions_of(n, parts)) == brute, (n, parts)


def test_canonical_order_extends_dominance():
    for n, r in ((5, 2), (4, 3)):
        mps = multipartitions(n, r)
        pos = {x: i for i, x in enumerate(mps)}
        for x in mps:
            for y in mps:
                if x != y and dominates(x, y):
                    assert pos[x] < pos[y]


def test_engine_refuses_small_bound():
    with pytest.raises(InputError):
        multiplicity_matrix(3, ShapeBound((2, 3)))
    with pytest.raises(InputError):
        identity_matrix(3, ShapeBound((2, 3)))


@pytest.mark.parametrize(
    "n, r", [(-1, 2), (1, 0), (1, 10_001), (10_001, 1), (1.5, 1), (1, "1")]
)
def test_multipartitions_refuses(n, r):
    with pytest.raises(InputError):
        multipartitions(n, r)


def test_size_above_max_cap_is_named():
    # The refusal names the size the caller passed, not a bound it never did.
    for call in (lambda: ShapeBound.for_size(10_001, 1), lambda: multipartitions(10_001, 1)):
        with pytest.raises(InputError, match="size n=10001 is above 10000"):
            call()
    with pytest.raises(InputError, match="bound has a cap above 10000"):
        ShapeBound([10_001])


def test_multipartition_refuses_size_or_r_above_max_cap():
    # The value type holds the cap, so no enumerator meets a size it refuses.
    with pytest.raises(InputError, match="size n=10001 is above 10000"):
        MultiPartition([[10_001]])
    with pytest.raises(InputError, match="more than 10000 components"):
        MultiPartition([[]] * 10_001)
    assert MultiPartition([[10_000]]).size == MultiPartition([[]] * 10_000).r == 10_000


@pytest.mark.parametrize("r", [0, -1])
def test_default_bound_refuses_r_below_1(r):
    # The refusal names the r the caller passed, not the empty bound.
    with pytest.raises(InputError, match=f"need r >= 1, got r={r}"):
        ShapeBound.for_size(2, r)


def test_multipartitions_refusal_does_not_depend_on_call_history():
    # 1.0 == 1 and they hash equal, so an untyped memo would replay the
    # answer for 1 to the float.
    assert multipartitions(1, 1) == (MultiPartition([[1]]),)
    with pytest.raises(InputError):
        multipartitions(1.0, 1)


def test_multipartitions_come_in_canonical_order():
    # Generated in canonical order, not sorted into it.
    for r, n_max in ((1, 8), (2, 8), (3, 7), (4, 5)):
        for n in range(n_max + 1):
            mps = multipartitions(n, r)
            assert list(mps) == sorted(mps, key=canonical_key), (n, r)


def _padded(x, bound):
    """The concatenated coordinate vector of x, each component zero-padded
    to its cap, built by hand."""
    rows = x.rows if isinstance(x, MultiComposition) else [c.parts for c in x.components]
    out = []
    for row, mk in zip(rows, bound.m):
        assert len(row) <= mk
        out += list(row) + [0] * (mk - len(row))
    return out


def test_dominates_needs_no_bound():
    # Multipartitions and stable multicompositions of one size, compared
    # under the stable bound and two larger ones: every bound agrees.
    for n, r in ((4, 1), (3, 2), (2, 3)):
        stable = ShapeBound.for_size(n, r)
        values = multipartitions(n, r) + multicompositions(n, stable)
        for extra in (0, 1, 2):
            bound = ShapeBound.for_size(n + extra, r)
            for x in values:
                for y in values:
                    expected = prefix_dominates(_padded(x, bound), _padded(y, bound))
                    assert dominates(x, y) == expected, (x, y, bound)
    # Rows of unequal length: the shorter one is padded with zeros.
    assert dominates(mp([[2], []]), MultiComposition([(1, 1, 0), ()]))
    assert not dominates(MultiComposition([(0, 2), ()]), mp([[1, 1], []]))
    with pytest.raises(InputError):
        dominates(mp([[1], []]), mp([[1]]))


def test_group_split_examples():
    la = mp([[1], [1], [2]])
    p = Grouping([1, 2])
    assert group_sizes(la, p) == (1, 3)
    assert split_components(la, p) == (mp([[1]]), mp([[1], [2]]))
    assert split_components(la, Grouping([3])) == (la,)
    with pytest.raises(InputError):
        split_components(la, Grouping([1, 1]))


def test_singleton_grouping_collapses_to_component_sizes():
    fine = Grouping([1, 1, 1])
    for n in range(6):
        for la in multipartitions(n, 3):
            assert group_sizes(la, fine) == component_sizes(la)


def test_cell_order_reference_chain():
    # 1-based (5,4,2) > (2,3,2) > (5,3,2) > (6,4,1), shifted to 0-based
    chain = [Cell(4, 3, 1), Cell(1, 2, 1), Cell(4, 2, 1), Cell(5, 3, 0)]
    for a, b in zip(chain, chain[1:]):
        assert cell_order_cmp(a, b) > 0
        assert cell_order_cmp(b, a) < 0
    assert cell_order_cmp(Cell(0, 0, 0), Cell(0, 0, 0)) == 0


def test_cell_order_total_on_diagrams():
    for n in range(1, 6):
        for la in multipartitions(n, 2):
            cells = SkewShape(la).cells()
            for a in cells:
                for b in cells:
                    ca, cb = cell_order_cmp(a, b), cell_order_cmp(b, a)
                    assert (ca == 0) == (a == b)
                    if a != b:
                        assert ca == -cb != 0
            for a in cells:
                for b in cells:
                    for c in cells:
                        if cell_order_cmp(a, b) > 0 and cell_order_cmp(b, c) > 0:
                            assert cell_order_cmp(a, c) > 0


def test_skew_cells_examples():
    s = SkewShape(mp([[1], [1]]))
    assert s.cells() == (Cell(0, 0, 1), Cell(0, 0, 0))
    assert SkewShape(mp([[1], []]), mp([[1], []])).cells() == ()
    assert SkewShape(mp([[2], []]), mp([[1], []])).cells() == (Cell(0, 1, 0),)
    assert all(type(part) is tuple for part in s.neighbours())
    with pytest.raises(InputError):
        SkewShape(mp([[1], []]), mp([[2], []]))


def test_multipartition_json_roundtrip():
    obj = [[3, 2], [3, 1], [1, 1]]
    la = multipartition_from_obj(obj)
    assert multipartition_to_obj(la) == obj
    assert json.loads(json.dumps(multipartition_to_obj(la))) == obj
    with pytest.raises(InputError):
        multipartition_from_obj([[2, 3]])
    with pytest.raises(InputError):
        multipartition_from_obj("nope")


def test_canonical_key_deterministic():
    mps = multipartitions(2, 2)
    keys = [canonical_key(x) for x in mps]
    assert keys == sorted(keys)


_B = ShapeBound([2, 2])
# One instance of each value type and one of its fields.
VALUE_TYPES = [
    (lambda: Partition([2, 1]), "parts"),
    (lambda: ShapeBound([2, 1]), "m"),
    (lambda: mp([[2], [1]]), "components"),
    (lambda: MultiComposition([[1, 0], [0, 1]]), "rows"),
    (lambda: Grouping([1, 1]), "sizes"),
    (lambda: SkewShape(mp([[2], [1]]), mp([[1], []])), "outer"),
    (lambda: identity_matrix(1, _B), "rows"),
    (lambda: SchurExpansion(2, 1, {mp([[1], []]): 2}), "terms"),
    (lambda: MonomialPoly(_B, 1, {MultiComposition([[1, 0], [0, 0]]): 1}), "terms"),
    (lambda: superstandard(mp([[2], [1]]), _B), "entries"),
    (lambda: CrystalWord([[0, 1], [1]], _B), "words"),
]


@pytest.mark.parametrize(
    "make, field", VALUE_TYPES, ids=[type(make()).__name__ for make, _ in VALUE_TYPES]
)
def test_value_types_are_immutable(make, field):
    obj, fresh = make(), make()
    assert isinstance(obj, Frozen)
    hashable = type(obj).__hash__ is not None
    before = hash(obj) if hashable else None
    attempts = (
        lambda: setattr(obj, field, getattr(fresh, field)),
        lambda: setattr(obj, "extra", 1),
        lambda: delattr(obj, field),
    )
    for attempt in attempts:
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            attempt()
    assert all(getattr(obj, s) == getattr(fresh, s) for s in type(obj).__slots__)
    if hashable:
        assert hash(obj) == before


# Each constructor with one integer slot filled by x.
INT_SLOTS = [
    ("Partition", lambda x: Partition([x])),
    ("ShapeBound", lambda x: ShapeBound([x])),
    ("Grouping", lambda x: Grouping([x])),
    ("MultiComposition", lambda x: MultiComposition([[x]])),
    ("IndexedMatrix", lambda x: IndexedMatrix(1, _B, multipartitions(1, _B.r)[:1], [[x]])),
    ("CrystalWord", lambda x: CrystalWord([[x], []], _B)),
    ("SchurExpansion", lambda x: SchurExpansion(2, 1, {mp([[1], []]): x})),
    ("MonomialPoly", lambda x: MonomialPoly(_B, 1, {MultiComposition([[1, 0], [0, 0]]): x})),
]


@pytest.mark.parametrize("x", [1.0, 1.7, "1"], ids=["float", "fraction", "string"])
@pytest.mark.parametrize(
    "make", [make for _, make in INT_SLOTS], ids=[name for name, _ in INT_SLOTS]
)
def test_value_types_refuse_non_integers(make, x):
    make(1)
    with pytest.raises(InputError, match="expected integers"):
        make(x)


# Equal values built along different paths, one pair per hashable type, and
# the hash formula each keeps, so that no set or dict order can change.
_EMPTY2 = MultiPartition.empty(2)
STORED_HASHES = [
    (Partition([2, 1, 0]), Partition((2, 1)), lambda p: hash(p.parts)),
    (ShapeBound([2, 2]), ShapeBound.for_size(2, 2), lambda b: hash(b.m)),
    (
        mp([[2], [1]]),
        MultiPartition((Partition([2]), Partition([1]))),
        lambda x: hash(x.components),
    ),
    (
        MultiComposition([[1, 0], [1, 0]]),
        as_composition(mp([[1], [1]]), _B),
        lambda c: hash(c.rows),
    ),
    (Grouping([1, 2]), Grouping((1, 2)), lambda g: hash(g.sizes)),
    (
        SkewShape(mp([[2], [1]])),
        SkewShape(mp([[2], [1]]), _EMPTY2),
        lambda s: hash((s.outer, s.inner)),
    ),
    (
        superstandard(mp([[2], [1]]), _B),
        # The bound is not part of the value.
        Tableau(
            SkewShape(mp([[2], [1]]), _EMPTY2),
            [(0, 1), (0, 0), (0, 0)],
            ShapeBound([3, 3]),
        ),
        lambda t: hash((t.shape, t.entries)),
    ),
    (
        CrystalWord([[0, 1], [1]], _B),
        CrystalWord([[0, 0], [1]], ShapeBound([2, 2])).replace(0, 1, 1),
        lambda w: hash((w.words, w.bound)),
    ),
]


def test_frozen_base_derives_equality_from_the_key():
    types = {type(make()) for make, _ in VALUE_TYPES}
    hashable = {cls for cls in types if cls.__hash__ is not None}
    assert {type(a) for a, _, _ in STORED_HASHES} == hashable
    for a, b, _ in STORED_HASHES:
        assert a is not b and a == b and hash(a) == hash(b)
    # Every value type, the unhashable ones included, equals itself built again.
    for make, _ in VALUE_TYPES:
        assert make() == make()
    # A value never equals another type's value with an equal key, nor its key.
    same_key = [Partition([1, 1]), ShapeBound([1, 1]), Grouping([1, 1])]
    assert len({x._key() for x in same_key}) == 1
    for x in same_key:
        assert [y for y in same_key if y == x] == [x]
        assert x != x._key()
    for cls in (IndexedMatrix, MonomialPoly, SchurExpansion):
        assert cls.__hash__ is None


def test_grouping_is_a_value():
    assert Grouping([1, 2]) == Grouping([1, 2])
    assert len({Grouping([1, 2]), Grouping([1, 2])}) == 1
    assert Grouping([1, 2]) != Grouping([2, 1])


@pytest.mark.parametrize(
    "a, b, formula", STORED_HASHES, ids=[type(a).__name__ for a, _, _ in STORED_HASHES]
)
def test_stored_hashes_keep_the_value_formula(a, b, formula):
    assert a == b and hash(a) == hash(b)
    assert hash(a) == formula(a) == formula(b)
    assert len({a, b}) == 1
