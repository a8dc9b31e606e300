import pytest

from weylchar import (
    Cell,
    Entry,
    InputError,
    MultiComposition,
    MultiPartition,
    ShapeBound,
    SkewShape,
    as_composition,
    component_sizes,
    count_straight_tableaux,
    count_tableaux,
    dominates,
    entry_le,
    enumerate_all_tableaux,
    enumerate_tableaux,
    equivalence_classes,
    equivalence_key,
    is_semistandard,
    kostka,
    multicompositions,
    multipartitions,
    reading,
    superstandard,
    weight_of,
    word_weight,
)
from weylchar.tableaux import Tableau

from oracles import brute_multipartition_tableaux


def mp(rows):
    return MultiPartition(rows)


def build(la, entries_1based, n=None):
    """Tableau from 1-based {(i,j,k): (a,c)} dicts, stable default bound."""
    la = mp(la)
    bound = ShapeBound.for_size(la.size if n is None else n, la.r)
    mapping = {
        Cell(i - 1, j - 1, k - 1): Entry(a - 1, c - 1)
        for (i, j, k), (a, c) in entries_1based.items()
    }
    return Tableau.from_cell_map(SkewShape(la), mapping, bound)


# The worked 11-cell example of shape ((3,2),(3,1),(1,1)).
EXAMPLE_SHAPE = [[3, 2], [3, 1], [1, 1]]
EXAMPLE_ENTRIES = {
    (1, 1, 1): (1, 1), (1, 2, 1): (1, 1), (1, 3, 1): (1, 2),
    (2, 1, 1): (2, 1), (2, 2, 1): (1, 3),
    (1, 1, 2): (1, 2), (1, 2, 2): (2, 2), (1, 3, 2): (1, 3), (2, 1, 2): (2, 2),
    (1, 1, 3): (1, 3), (2, 1, 3): (2, 3),
}


def test_entry_le():
    assert entry_le(Entry(2, 0), Entry(0, 1))  # higher component dominates
    assert entry_le(Entry(1, 1), Entry(1, 1))
    assert not entry_le(Entry(1, 1), Entry(0, 1))


def test_example_tableau_is_semistandard_with_expected_weight():
    t = build(EXAMPLE_SHAPE, EXAMPLE_ENTRIES)
    assert is_semistandard(t)
    w = weight_of(t)
    assert component_sizes(w) == (3, 4, 4)
    assert [list(row[:3]) for row in w.rows] == [[2, 1, 0], [2, 2, 0], [3, 1, 0]]


def test_superstandard_is_semistandard_and_weight_is_shape():
    for n in range(1, 5):
        b = ShapeBound.for_size(n, 2)
        for la in multipartitions(n, 2):
            t = superstandard(la, b)
            assert is_semistandard(t)
            assert weight_of(t) == as_composition(la, b)


def test_component_floor_violation():
    t = build([[1], [1]], {(1, 1, 1): (1, 1), (1, 1, 2): (1, 1)})
    assert not is_semistandard(t)


def test_single_cell_weight():
    t = build([[], [1]], {(1, 1, 2): (1, 2)})
    assert weight_of(t).rows[1][0] == 1
    assert weight_of(t).size == 1


def test_enumerate_two_cell_example():
    shape = SkewShape(mp([[1], [1]]))
    weight = MultiComposition([(0, 0), (1, 1)])
    ts = list(enumerate_tableaux(shape, weight))
    assert len(ts) == 2
    # brute-force oracle over all fillings agrees
    assert len(brute_multipartition_tableaux([[1], [1]], [[0, 0], [1, 1]])) == 2


def test_enumerate_shape_equals_weight_single():
    for n in range(1, 5):
        b = ShapeBound.for_size(n, 2)
        for la in multipartitions(n, 2):
            ts = list(enumerate_tableaux(SkewShape(la), as_composition(la, b)))
            assert len(ts) == 1
            assert ts[0] == superstandard(la, b)


def test_example_shape_weight_contains_example():
    la = mp(EXAMPLE_SHAPE)
    b = ShapeBound.for_size(la.size, 3)
    weight = MultiComposition(
        [(2, 1) + (0,) * 9, (2, 2) + (0,) * 9, (3, 1) + (0,) * 9]
    )
    ts = list(enumerate_tableaux(SkewShape(la), weight))
    assert build(EXAMPLE_SHAPE, EXAMPLE_ENTRIES) in ts
    assert len(ts) >= 1


def test_all_tableaux_restrict_to_enumerate_tableaux():
    # Filtering by weight must keep the per-weight order: crystal graphs are
    # serialized in enumeration order. Caps of 2 keep the weights few.
    for r in range(1, 4):
        for n in range(1, 5):
            b = ShapeBound((min(n, 2),) * r)
            for la in multipartitions(n, r):
                inners = [mp([[]] * r)] + [
                    ka for ka in multipartitions(1, r) if la.contains(ka)
                ]
                for ka in inners:
                    shape = SkewShape(la, ka)
                    by_weight = {}
                    for t in enumerate_all_tableaux(shape, b):
                        by_weight.setdefault(weight_of(t), []).append(t)
                    for w in multicompositions(shape.n_cells, b):
                        assert by_weight.pop(w, []) == list(enumerate_tableaux(shape, w))
                    assert not by_weight


def test_enumerate_size_mismatch():
    with pytest.raises(InputError):
        list(enumerate_tableaux(SkewShape(mp([[1], []])), MultiComposition([(0,), (0,)])))


# Equivalence examples: four fillings of ((2,2),(2,1)).
T1 = {
    (1, 1, 1): (1, 1), (1, 2, 1): (1, 1), (2, 1, 1): (1, 2), (2, 2, 1): (2, 2),
    (1, 1, 2): (1, 2), (1, 2, 2): (2, 2), (2, 1, 2): (3, 2),
}
T2 = {
    (1, 1, 1): (1, 1), (1, 2, 1): (2, 1), (2, 1, 1): (1, 2), (2, 2, 1): (3, 2),
    (1, 1, 2): (2, 2), (1, 2, 2): (2, 2), (2, 1, 2): (4, 2),
}
T3 = {
    (1, 1, 1): (1, 1), (1, 2, 1): (1, 2), (2, 1, 1): (2, 1), (2, 2, 1): (3, 2),
    (1, 1, 2): (2, 2), (1, 2, 2): (2, 2), (2, 1, 2): (4, 2),
}
T4 = {
    (1, 1, 1): (1, 1), (1, 2, 1): (2, 2), (2, 1, 1): (3, 1), (2, 2, 1): (3, 2),
    (1, 1, 2): (1, 2), (1, 2, 2): (1, 2), (2, 1, 2): (2, 2),
}
EQ_SHAPE = [[2, 2], [2, 1]]


def test_equivalence_examples():
    ts = [build(EQ_SHAPE, e) for e in (T1, T2, T3, T4)]
    for t in ts:
        assert is_semistandard(t)
    k1, k2, k3, k4 = (equivalence_key(t) for t in ts)
    assert k1 == k2
    assert k2 != k3
    assert k3 == k4
    classes = equivalence_classes(ts)
    assert sorted(len(c) for c in classes) == [2, 2]


def test_equivalence_singleton_and_two_cell_class():
    b = ShapeBound.for_size(2, 2)
    la = mp([[1], [1]])
    sup = superstandard(la, b)
    assert equivalence_classes([sup]) == [[sup]]
    ts = list(enumerate_tableaux(SkewShape(la), MultiComposition([(0, 0), (1, 1)])))
    assert len(equivalence_classes(ts)) == 1  # all cells carry component-2 entries


def test_equivalence_key_matches_component_cell_sets():
    # The key reads no cells; within one shape it must still separate
    # fillings exactly as the sets of cells carrying each component do.
    shapes = [
        SkewShape(la)
        for r in (1, 2)
        for n in range(4)
        for la in multipartitions(n, r)
    ]
    shapes.append(SkewShape(mp([[2, 1], [1]]), mp([[1], []])))
    for shape in shapes:
        n = shape.n_cells
        bound = ShapeBound.for_size(n, shape.r)
        ts = list(enumerate_all_tableaux(shape, bound))
        cell_sets = [
            tuple(
                frozenset(cell for cell, e in zip(shape.cells(), t.entries) if e.c == c)
                for c in range(shape.r)
            )
            for t in ts
        ]
        keys = [equivalence_key(t) for t in ts]
        for x in range(len(ts)):
            for y in range(len(ts)):
                assert (keys[x] == keys[y]) == (cell_sets[x] == cell_sets[y])


def test_equivalence_rejects_mixed_shapes():
    b = ShapeBound.for_size(1, 2)
    t1 = superstandard(mp([[1], []]), b)
    t2 = superstandard(mp([[], [1]]), b)
    with pytest.raises(InputError):
        equivalence_classes([t1, t2])


def test_equivalent_tableaux_share_size_vector():
    la = mp([[2], [1]])
    b = ShapeBound.for_size(3, 2)
    ts = list(enumerate_all_tableaux(SkewShape(la), b))
    for cls in equivalence_classes(ts):
        vecs = {component_sizes(weight_of(t)) for t in cls}
        assert len(vecs) == 1


def test_reading_worked_example():
    t = build(EXAMPLE_SHAPE, EXAMPLE_ENTRIES)
    word = reading(t)
    assert [[a + 1 for a in w] for w in word.words] == [
        [1, 1, 2],
        [2, 1, 2, 1],
        [1, 2, 1, 1],
    ]


def test_reading_superstandard_row():
    b = ShapeBound.for_size(2, 2)
    t = superstandard(mp([[2], []]), b)
    assert reading(t).words == ((0, 0), ())


def test_reading_two_cell_words():
    ts = list(
        enumerate_tableaux(
            SkewShape(mp([[1], [1]])), MultiComposition([(0, 0), (1, 1)])
        )
    )
    words = sorted(reading(t).words for t in ts)
    assert words == [((), (0, 1)), ((), (1, 0))]


def test_reading_rejects_non_semistandard():
    t = build([[1], [1]], {(1, 1, 1): (1, 1), (1, 1, 2): (1, 1)})
    with pytest.raises(InputError):
        reading(t)


def test_reading_injective_within_class():
    for n in range(1, 5):
        for r in (2, 3):
            b = ShapeBound.for_size(n, r)
            for la in multipartitions(n, r):
                ts = list(enumerate_all_tableaux(SkewShape(la), b))
                for cls in equivalence_classes(ts):
                    words = {reading(t) for t in cls}
                    assert len(words) == len(cls)


def test_reading_collides_across_classes():
    # Swapping the two boldface entries of the worked example changes the
    # equivalence class but not the reading.
    other = dict(EXAMPLE_ENTRIES)
    other[(1, 3, 1)] = (1, 3)
    other[(2, 2, 1)] = (1, 2)
    t = build(EXAMPLE_SHAPE, EXAMPLE_ENTRIES)
    t2 = build(EXAMPLE_SHAPE, other)
    assert is_semistandard(t2)
    assert equivalence_key(t) != equivalence_key(t2)
    assert reading(t) == reading(t2)


def test_nonzero_count_implies_dominance():
    for n in range(1, 6):
        b = ShapeBound.for_size(n, 2)
        for la in multipartitions(n, 2):
            for t in enumerate_all_tableaux(SkewShape(la), b):
                assert dominates(la, weight_of(t))


def test_count_straight_tableaux_needs_no_bound():
    # Padding the weight to any bound it fits gives the same count.
    for r, n_max in ((1, 5), (2, 4), (3, 3)):
        for n in range(n_max + 1):
            mps = multipartitions(n, r)
            for extra in (0, 1, 3):
                b = ShapeBound.for_size(n + extra, r)
                for la in mps:
                    for mu in mps:
                        expected = count_tableaux(SkewShape(la), as_composition(mu, b))
                        assert count_straight_tableaux(la, mu) == expected, (la, mu, b)


def test_count_straight_tableaux_refuses_unequal_r():
    with pytest.raises(InputError, match="component counts disagree"):
        count_straight_tableaux(MultiPartition([[1], [1]]), MultiPartition([[1]]))


def test_count_factorizes_when_size_vectors_match():
    for n in range(1, 5):
        b = ShapeBound.for_size(n, 2)
        mps = multipartitions(n, 2)
        for la in mps:
            for mu in mps:
                if component_sizes(la) != component_sizes(mu):
                    continue
                prod = 1
                for k in range(2):
                    prod *= kostka(la.component(k), mu.component(k))
                assert count_tableaux(SkewShape(la), as_composition(mu, b)) == prod


def test_word_letter_multiplicities_match_weight():
    for n in range(1, 5):
        b = ShapeBound.for_size(n, 2)
        for la in multipartitions(n, 2):
            for t in enumerate_all_tableaux(SkewShape(la), b):
                assert word_weight(reading(t)) == weight_of(t)
