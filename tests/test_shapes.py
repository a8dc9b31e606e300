import json

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
    canonical_key,
    cell_order_cmp,
    component_sizes,
    dominates,
    group_sizes,
    multipartitions,
    prefix_dominates,
    skew_cells,
    split_components,
)
from weylchar import (
    CrystalWord,
    IndexedMatrix,
    MonomialPoly,
    SchurExpansion,
    identity_matrix,
    superstandard,
)
from weylchar.serialize import multipartition_from_obj, multipartition_to_obj
from weylchar.shapes import Frozen

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
    b = ShapeBound((2, 2))
    assert dominates(mp([[2], []]), mp([[1], [1]]), b)
    assert dominates(mp([[1], [1]]), mp([[1], [1]]), b)
    assert not dominates(mp([[1], [1]]), mp([[2], []]), b)
    with pytest.raises(InputError):
        dominates(mp([[2], []]), mp([[1], []]), b)


def test_dominance_partial_order_exhaustive():
    for n, r in ((4, 2), (6, 2), (3, 3)):
        b = ShapeBound.for_size(n, r)
        mps = multipartitions(n, b)
        ge = {
            (x, y)
            for x in mps
            for y in mps
            if dominates(x, y, b)
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
        b = ShapeBound.for_size(n, 2)
        mps = multipartitions(n, b)
        for x in mps:
            for y in mps:
                if dominates(x, y, b):
                    assert prefix_dominates(component_sizes(x), component_sizes(y))


def test_enumeration_examples():
    assert multipartitions(1, ShapeBound((1, 1))) == (
        mp([[1], []]),
        mp([[], [1]]),
    )
    assert multipartitions(2, ShapeBound((2,))) == (mp([[2]]), mp([[1, 1]]))
    # frozen from the independent convolution counter
    assert brute_multipartition_count(5, (5, 5)) == 36
    assert len(multipartitions(5, ShapeBound((5, 5)))) == 36


def test_enumeration_matches_counter_and_is_duplicate_free():
    for n, r in ((0, 2), (3, 2), (5, 2), (4, 3)):
        b = ShapeBound.for_size(n, r)
        mps = multipartitions(n, b)
        assert len(set(mps)) == len(mps)
        assert len(mps) == brute_multipartition_count(n, b.m)


def test_canonical_order_extends_dominance():
    for n, r in ((5, 2), (4, 3)):
        b = ShapeBound.for_size(n, r)
        mps = multipartitions(n, b)
        pos = {x: i for i, x in enumerate(mps)}
        for x in mps:
            for y in mps:
                if x != y and dominates(x, y, b):
                    assert pos[x] < pos[y]


def test_engine_refuses_small_bound():
    with pytest.raises(InputError):
        multipartitions(3, ShapeBound((2, 3)))


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
        b = ShapeBound.for_size(n, 3)
        for la in multipartitions(n, b):
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
        for la in multipartitions(n, ShapeBound.for_size(n, 2)):
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
    assert skew_cells(s) == (Cell(0, 0, 1), Cell(0, 0, 0))
    assert skew_cells(SkewShape(mp([[1], []]), mp([[1], []]))) == ()
    assert skew_cells(SkewShape(mp([[2], []]), mp([[1], []]))) == (Cell(0, 1, 0),)
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
    b = ShapeBound((2, 2))
    mps = multipartitions(2, b)
    keys = [canonical_key(x, b) for x in mps]
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


def test_frozen_base_leaves_equality_to_subclasses():
    assert "__eq__" not in vars(Frozen) and "__hash__" not in vars(Frozen)
    for cls in (IndexedMatrix, MonomialPoly, SchurExpansion):
        assert cls.__hash__ is None
