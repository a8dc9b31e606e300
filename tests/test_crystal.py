from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from weylchar import (
    CrystalWord,
    InputError,
    MultiComposition,
    MultiPartition,
    OperatorIndex,
    ShapeBound,
    SkewShape,
    component_sizes,
    crystal_components,
    enumerate_all_tableaux,
    equivalence_classes,
    etilde,
    ftilde,
    is_singular,
    is_singular_word,
    multipartitions,
    operator_indices,
    reading,
    superstandard,
    weight_of,
    word_weight,
)


def mp(rows):
    return MultiPartition(rows)


def cw(words, m):
    return CrystalWord(words, ShapeBound(m))


def test_word_weight_examples():
    w = cw([(0, 0, 1), (), ()], (3, 3, 3))
    assert word_weight(w).rows[0] == (2, 1, 0)
    assert word_weight(cw([()], (2,))).size == 0
    w2 = cw([(), (0, 1)], (2, 2))
    assert word_weight(w2).rows == ((0, 0), (1, 1))


def test_etilde_single_letter_crystal():
    assert etilde(cw([(1,)], (2,)), OperatorIndex(0, 0)) == cw([(0,)], (2,))
    assert etilde(cw([(0,)], (2,)), OperatorIndex(0, 0)) is None


def test_ftilde_etilde_roundtrip_example():
    w = cw([(), (1, 0)], (2, 2))
    op = OperatorIndex(0, 1)
    up = etilde(w, op)
    assert up is not None
    assert ftilde(up, op) == w


def test_operator_index_validation():
    with pytest.raises(InputError):
        etilde(cw([(0,)], (2,)), OperatorIndex(1, 0))
    with pytest.raises(InputError):
        ftilde(cw([(0,)], (2,)), OperatorIndex(0, 1))


def all_words(m, total_len):
    """Every word distribution over components with the given total length."""
    r = len(m)

    def splits(n, parts):
        if parts == 1:
            yield (n,)
            return
        for a in range(n + 1):
            for rest in splits(n - a, parts - 1):
                yield (a,) + rest

    for lens in splits(total_len, r):
        pools = [product(range(m[k]), repeat=lens[k]) for k in range(r)]
        for combo in product(*pools):
            yield cw(combo, m)


def test_roundtrip_exhaustive():
    for m in ((3,), (2, 2)):
        for ln in range(0, 6):
            for w in all_words(m, ln):
                for op in operator_indices(w.bound):
                    up = etilde(w, op)
                    if up is not None:
                        assert ftilde(up, op) == w
                    down = ftilde(w, op)
                    if down is not None:
                        assert etilde(down, op) == w


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=5), st.integers(0, 1))
def test_roundtrip_random_words(letters, i):
    w = cw([tuple(letters)], (3,))
    op = OperatorIndex(i, 0)
    up = etilde(w, op)
    if up is not None:
        assert ftilde(up, op) == w


def test_weight_shift():
    for m in ((3,), (2, 2)):
        for ln in range(0, 4):
            for w in all_words(m, ln):
                for op in operator_indices(w.bound):
                    up = etilde(w, op)
                    if up is None:
                        continue
                    before = [list(r) for r in word_weight(w).rows]
                    before[op.k][op.i] += 1
                    before[op.k][op.i + 1] -= 1
                    assert word_weight(up) == MultiComposition(before)


def test_is_singular_word_examples():
    assert is_singular_word(cw([(), (0, 1)], (2, 2)))
    assert not is_singular_word(cw([(), (1, 0)], (2, 2)))
    # the worked reading example, 0-based
    w = cw([(0, 0, 1), (1, 0, 1, 0), (0, 1, 0, 0)], (11, 11, 11))
    assert not is_singular_word(w)


def test_singular_iff_all_raising_null():
    for n in range(1, 5):
        for r in (2, 3):
            if r == 3 and n > 3:
                continue
            b = ShapeBound.for_size(n, r)
            for la in multipartitions(n, r):
                for t in enumerate_all_tableaux(SkewShape(la), b):
                    w = reading(t)
                    nulls = all(
                        etilde(w, op) is None for op in operator_indices(b)
                    )
                    assert nulls == is_singular(t)


def test_superstandard_is_singular():
    for n in range(1, 5):
        b = ShapeBound.for_size(n, 2)
        for la in multipartitions(n, 2):
            assert is_singular(superstandard(la, b))


def test_two_cell_singularity():
    shape = SkewShape(mp([[1], [1]]))
    weight = MultiComposition([(0, 0), (1, 1)])
    from weylchar import enumerate_tableaux

    flags = {
        reading(t).words: is_singular(t)
        for t in enumerate_tableaux(shape, weight)
    }
    assert flags == {((), (0, 1)): True, ((), (1, 0)): False}


def test_closure_within_class():
    for n in range(1, 5):
        for r in (2, 3):
            if r == 3 and n > 3:
                continue
            b = ShapeBound.for_size(n, r)
            for la in multipartitions(n, r):
                ts = list(enumerate_all_tableaux(SkewShape(la), b))
                for cls in equivalence_classes(ts):
                    words = {reading(t) for t in cls}
                    for w in words:
                        for op in operator_indices(b):
                            for out in (etilde(w, op), ftilde(w, op)):
                                assert out is None or out in words


def test_crystal_components_single_box():
    comps = crystal_components(SkewShape(mp([[1], []])), ShapeBound((1, 1)))
    labels = [c.highest_weight for c in comps]
    assert labels == [mp([[1], []]), mp([[], [1]])]
    assert [len(c.tableaux) for c in comps] == [1, 1]


def test_crystal_components_one_alphabet_row():
    for n in range(1, 5):
        m = ShapeBound((n,))
        comps = crystal_components(SkewShape(mp([[n]])), m)
        assert len(comps) == 1
        assert len(comps[0].tableaux) == sum(
            1 for _ in enumerate_all_tableaux(SkewShape(mp([[n]])), m)
        )


def test_crystal_components_two_boxes():
    comps = crystal_components(SkewShape(mp([[1], [1]])), ShapeBound((2, 2)))
    got = [(c.highest_weight, len(c.tableaux)) for c in comps]
    assert got == [
        (mp([[1], [1]]), 4),
        (mp([[], [2]]), 3),
        (mp([[], [1, 1]]), 1),
    ]


def test_one_singular_per_component():
    for n in range(1, 5):
        b = ShapeBound.for_size(n, 2)
        for la in multipartitions(n, 2):
            comps = crystal_components(SkewShape(la), b)
            for c in comps:
                singulars = [t for t in c.tableaux if is_singular(t)]
                assert len(singulars) == 1
                assert weight_of(singulars[0]) == word_weight(
                    reading(singulars[0])
                )


def test_component_sizes_partition_the_shape_dimension():
    b = ShapeBound((3, 3))
    la = mp([[2], [1]])
    total = sum(1 for _ in enumerate_all_tableaux(SkewShape(la), b))
    comps = crystal_components(SkewShape(la), b)
    assert sum(len(c.tableaux) for c in comps) == total
