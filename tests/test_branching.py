import inspect
import random
import sys
from itertools import product as iproduct

import pytest
from hypothesis import given, seed, settings, strategies as st

from weylchar import (
    Grouping,
    InputError,
    MultiPartition,
    Partition,
    ShapeBound,
    SkewShape,
    character,
    component_sizes,
    count_straight_tableaux,
    derive_decomposition,
    dominates,
    factorization_residual,
    grouping_factorization_check,
    group_sizes,
    identity_matrix,
    invert_unitriangular,
    kostka,
    layer_chains,
    lr_coeff,
    matrix_product,
    multiplicity,
    multiplicity_matrix,
    multiplicity_row_by_solve,
    multipartitions,
    partitions_of,
    skew_singular_count,
    weyl_schur,
)
from weylchar.branching import (
    IndexedMatrix,
    _chain_value,
    _layer,
    _pieces,
    _sized_picks,
    _subpartitions,
)
from weylchar.shapes import EMPTY, canonical_key, compositions_of

from oracles import (
    brute_layer_chains,
    brute_lr,
    brute_ssyt_count,
    brute_subdiagrams,
    dense_unitriangular_inverse,
    double_loop_residual,
    product_filter_layer_chains,
    unindexed_chain_sum,
)


def mp(rows):
    return MultiPartition(rows)


def test_kostka_examples():
    for n in range(1, 6):
        for la in partitions_of(n):
            assert kostka(la, la) == 1
        for mu in partitions_of(n):
            assert kostka(Partition([n]), mu) == 1
    assert kostka(Partition([2, 1]), (1, 1, 1)) == 2  # frozen from brute force
    assert brute_ssyt_count([2, 1], [1, 1, 1]) == 2
    with pytest.raises(InputError):
        kostka(Partition([2]), (1,))
    # a shape that is not a partition, a negative or a non-integer weight
    for shape, weight in (((1, 2), (2, 1)), ((2, -1), (1,)), ((2,), (3, -1)), ((1,), (1.0,))):
        with pytest.raises(InputError):
            kostka(shape, weight)


def test_kostka_against_brute_force():
    for n in range(0, 6):
        # partition weights, then weak compositions: zero strips and short etas
        weights = list(partitions_of(n)) + [
            w for parts in range(1, 5) for w in compositions_of(n, parts)
        ]
        for la in partitions_of(n):
            for mu in weights:
                assert kostka(la, mu) == brute_ssyt_count(list(la.parts), list(mu))


def test_kostka_composition_weights():
    # weight order does not change the count
    assert kostka(Partition([2, 1]), (0, 1, 2)) == brute_ssyt_count([2, 1], [0, 1, 2])
    assert kostka(Partition([3, 1]), (1, 0, 2, 1)) == brute_ssyt_count(
        [3, 1], [1, 0, 2, 1]
    )


def test_lr_examples():
    for n in range(0, 5):
        for la in partitions_of(n):
            assert lr_coeff(la, Partition(), la) == 1
    assert lr_coeff(Partition([3]), Partition([1, 1]), Partition([1])) == 0
    assert lr_coeff(Partition([2, 2]), Partition([2, 1]), Partition([1])) == 1
    assert brute_lr([2, 2], [2, 1], [1]) == 1


def test_lr_against_brute_force():
    for n in range(0, 7):
        for nu in partitions_of(n):
            for a in range(n + 1):
                for la in partitions_of(a):
                    for mu in partitions_of(n - a):
                        assert lr_coeff(nu, la, mu) == brute_lr(
                            list(nu.parts), list(la.parts), list(mu.parts)
                        )


def test_lattice_count_needs_no_stack_per_cell():
    # The lattice count backtracks in one loop: a 1200-cell row, far past
    # the recursion limit, counts its one filling.
    long_row = Partition([1200])
    assert lr_coeff(long_row, Partition(), long_row) == 1
    assert multiplicity(mp([[], [1200]]), mp([[], [1200]])) == 1
    assert lr_coeff(Partition([600, 600]), Partition([600]), Partition([600])) == 1


def test_lr_symmetry():
    for n in range(0, 7):
        for nu in partitions_of(n):
            for a in range(n + 1):
                for la in partitions_of(a):
                    for mu in partitions_of(n - a):
                        assert lr_coeff(nu, la, mu) == lr_coeff(nu, mu, la)


def test_skew_singular_single_cell():
    s = SkewShape(mp([[1], []]))
    assert skew_singular_count(s, 0, (1,)) == 1
    assert skew_singular_count(s, 1, (1,)) == 1


def test_skew_singular_reduces_to_lr():
    for n in range(1, 6):
        for nu in partitions_of(n):
            for a in range(n + 1):
                for la in partitions_of(a):
                    if not nu.contains(la):
                        continue
                    for mu in partitions_of(n - a):
                        s = SkewShape(mp([nu]), mp([la]))
                        assert skew_singular_count(s, 0, mu.parts) == lr_coeff(
                            nu, la, mu
                        )


def test_skew_singular_two_components():
    s = SkewShape(mp([[1], [1]]))
    assert skew_singular_count(s, 1, (1, 1)) == 1


def test_skew_singular_rejects_high_cells():
    s = SkewShape(mp([[], [1]]))
    assert skew_singular_count(s, 0, (1,)) == 0


@pytest.mark.parametrize("row", [(2, -1), (-1, 2), (0.5, 0.5), ("1",)])
def test_skew_singular_refuses_a_row_that_is_not_a_weight(row):
    # (2, -1) sums to the one cell, yet it is no weight.
    with pytest.raises(InputError):
        skew_singular_count(SkewShape(mp([[1]])), 0, row)


def test_skew_singular_pruned_matches_filtered():
    # the counting backtracker must agree with enumerate-then-filter
    from weylchar import MultiComposition, enumerate_tableaux, is_singular

    def filtered(shape, comp, weight_row):
        m = max(shape.outer.size, 1, len(weight_row) or 1)
        b = ShapeBound.for_size(m, shape.r)
        rows = [
            tuple(weight_row) + (0,) * (b.m[k] - len(weight_row))
            if k == comp
            else (0,) * b.m[k]
            for k in range(shape.r)
        ]
        weight = MultiComposition(rows)
        return sum(1 for t in enumerate_tableaux(shape, weight) if is_singular(t))

    for n in range(0, 5):
        b = ShapeBound.for_size(n, 2)
        for outer in multipartitions(n, 2):
            for inner_sz in range(n + 1):
                for inner in multipartitions(inner_sz, 2):
                    if not outer.contains(inner):
                        continue
                    shape = SkewShape(outer, inner)
                    for comp in range(2):
                        for wt in partitions_of(shape.n_cells):
                            assert skew_singular_count(
                                shape, comp, wt.parts
                            ) == filtered(shape, comp, wt.parts)


def test_layer_chains_examples():
    la = mp([[1], [1]])
    chains = list(layer_chains(la, tuple(c.size for c in mp([[1], [1]]).components)))
    assert len(chains) == 1
    assert chains[0] == (mp([[], []]), mp([[1], []]), la)

    chains = list(layer_chains(la, tuple(c.size for c in mp([[], [2]]).components)))
    assert len(chains) == 1
    assert chains[0][1] == mp([[], []])

    assert list(layer_chains(mp([[], [2]]), tuple(c.size for c in mp([[2], []]).components))) == []


def test_layer_chains_refuses_non_integer_sizes():
    with pytest.raises(InputError, match="expected integers"):
        layer_chains(mp([[1], [1]]), (1.0, 1))


def test_layer_chains_match_brute_force():
    # Every documented chain, and each one once.
    for r in range(1, 4):
        for n in range(5):
            order = multipartitions(n, r)
            for la in order:
                rows = [list(c.parts) for c in la.components]
                for mu in order:
                    got = [
                        tuple(tuple(c.parts for c in level.components) for level in chain)
                        for chain in layer_chains(la, tuple(c.size for c in mu.components))
                    ]
                    assert len(got) == len(set(got)), (la, mu)
                    sizes = [c.size for c in mu.components]
                    assert set(got) == brute_layer_chains(rows, sizes), (la, mu)


def test_subpartitions_descending():
    for n in range(9):
        for p in partitions_of(n):
            expected = sorted(brute_subdiagrams(p.parts), reverse=True)
            assert [q.parts for q in _subpartitions(p)] == expected, p


def test_chain_route_needs_no_stack_per_component():
    # Enumerating chains takes no stack frame per component, so a shape with
    # far more components than the spare stack still works. So does the walk
    # of 200 pools of a cell or nothing with a target of 1, and the one chain
    # of [[1]] * 200, where each level's walk takes all but one cell above it.
    la = mp([[1]] + [[]] * 199)
    ones = mp([[1]] * 200)
    cell = Partition([1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        assert len(list(layer_chains(la, tuple(c.size for c in la.components)))) == 1
        assert multiplicity(la, la, method="chain") == 1
        picks = _sized_picks([(cell, EMPTY)] * 200, 1)
        chains = list(layer_chains(ones, (1,) * 200))
    finally:
        sys.setrecursionlimit(limit)
    assert picks == [tuple(cell if i == j else EMPTY for i in range(200)) for j in range(200)]
    assert [[level.size for level in chain] for chain in chains] == [list(range(201))]


def test_level_walk_pools_only_nonempty_components(monkeypatch):
    # An empty component of a level can only stay empty under it, so the
    # walk gets a pool per nonempty component, not one per component below
    # k - 1: with one box among 300 components, at most one pool.
    from weylchar import branching

    pools_seen = []
    sized_picks = branching._sized_picks

    def spy(pools, target):
        pools_seen.append(len(pools))
        return sized_picks(pools, target)

    monkeypatch.setattr(branching, "_sized_picks", spy)
    branching._lower_levels.cache_clear()
    for at in (0, 150, 299):
        la = mp([[1] if k == at else [] for k in range(300)])
        assert multiplicity(la, la, method="chain") == 1
    branching._lower_levels.cache_clear()
    assert pools_seen and max(pools_seen) <= 1


def test_multiplicity_diagonal_one():
    for n in range(0, 5):
        for la in multipartitions(n, 2):
            assert multiplicity(la, la) == 1


def test_multiplicity_row_shape_row():
    la = mp([[2], []])
    hits = {
        mu for mu in multipartitions(2, 2) if multiplicity(la, mu) == 1
    }
    assert hits == {mp([[2], []]), mp([[1], [1]]), mp([[], [2]])}
    assert all(
        multiplicity(la, mu) in (0, 1) for mu in multipartitions(2, 2)
    )


def test_multiplicity_lr_value():
    la = mp([[2, 1], []])
    mu = mp([[1], [1, 1]])
    assert multiplicity(la, mu) == lr_coeff(
        Partition([2, 1]), Partition([1, 1]), Partition([1])
    ) == 1


def test_layer_chains_in_product_filter_order():
    # The memoized, pruned walk yields the chains of the original
    # product-and-filter enumeration, in the same order.
    for r in range(1, 4):
        for n in range(6):
            for la in multipartitions(n, r):
                rows = [list(c.parts) for c in la.components]
                for sizes in compositions_of(n, r):
                    got = [
                        tuple(tuple(c.parts for c in level.components) for level in chain)
                        for chain in layer_chains(la, sizes)
                    ]
                    assert got == product_filter_layer_chains(rows, sizes), (la, sizes)


def test_sized_picks_match_filtered_product():
    rng = random.Random(17)
    candidates = [p for n in range(4) for p in partitions_of(n)]
    cases = [([], 0), ([], 1), ([[]], 0), ([candidates, []], 0), ([candidates], -1)]
    for _ in range(300):
        pools = [rng.sample(candidates, rng.randrange(len(candidates))) for _ in range(rng.randrange(5))]
        top = sum(max((q.size for q in pool), default=0) for pool in pools)
        cases.extend((pools, t) for t in (0, rng.randrange(-1, top + 3)))
    for pools, target in cases:
        expected = [c for c in iproduct(*pools) if sum(q.size for q in c) == target]
        assert _sized_picks(pools, target) == expected, (pools, target)


def test_straight_component0_layer_is_kronecker():
    # What lets the chain route read only the slicings whose innermost
    # level is mu's component 0: c^eta_{0,nu} = 1 if eta = nu, else 0.
    for r in (1, 3):
        for n in range(8):
            for eta in partitions_of(n):
                layer = SkewShape(mp([eta.parts] + [[]] * (r - 1)))
                for nu in partitions_of(n):
                    assert skew_singular_count(layer, 0, nu.parts) == (eta == nu), (eta, nu)


def test_chain_value_matches_unindexed_sum():
    def count(outer, inner, k, row):
        return skew_singular_count(SkewShape(mp(outer), mp(inner)), k, row)

    _chain_value.cache_clear()
    for r, n_max in ((1, 4), (2, 4), (3, 4), (4, 3)):
        for n in range(n_max + 1):
            order = multipartitions(n, r)
            for la in order:
                rows = [list(c.parts) for c in la.components]
                for mu in order:
                    expected = unindexed_chain_sum(rows, [list(c.parts) for c in mu.components], count)
                    assert _chain_value(la, mu) == expected, (la, mu)


def test_count_shape_keeps_every_layer_count():
    # Every layer outer/inner with outer of at most 8 boxes in one component
    # or at most 6 in two, counted against every partition weight, once on
    # the layer itself (alphabet r-1 may fill every component) and once on
    # its count shape, one piece per component, by its last alphabet.
    for r, n_max in ((1, 8), (2, 6)):
        for n in range(n_max + 1):
            for outer in multipartitions(n, r):
                for inners in iproduct(*map(_subpartitions, outer.components)):
                    inner = mp(inners)
                    shape = _layer(outer, inner)
                    assert shape.n_cells == n - inner.size
                    assert shape.outer.size <= n
                    for nu in partitions_of(shape.n_cells):
                        assert skew_singular_count(
                            SkewShape(outer, inner), r - 1, nu.parts
                        ) == skew_singular_count(shape, shape.r - 1, nu.parts), (
                            outer, inner, nu
                        )


def test_layer_splits_into_canonical_pieces():
    # (3,1)/(1): row 0 ends its inner part where row 1 ends, so no column
    # joins them, and each row is a piece of its own, moved to the origin.
    assert _pieces(Partition([3, 1]), Partition([1])) == (((2, 0),), ((1, 0),))
    assert _pieces(Partition([3, 2]), Partition([1])) == (((3, 1), (2, 0)),)
    # An empty row ends a piece; the count shape puts the sorted pieces one
    # per component.
    assert _pieces(Partition([3, 2, 1]), Partition([2, 2])) == (((1, 0),), ((1, 0),))
    assert _layer(mp([[3, 1]]), mp([[1]])) == SkewShape(mp([[1], [2]]))
    # Of a piece and its rotation, the one with fewer outer cells is kept.
    assert _pieces(Partition([3, 3]), Partition([2])) == (((3, 0), (1, 0)),)


def test_count_shape_stays_within_the_layer_size():
    # 150 one-box pieces in one layer: their count shape has 150 cells, and
    # is refused by no size cap.
    la, mu = mp([[1]] * 150), mp([[]] * 149 + [[150]])
    assert multiplicity(la, mu) == 1
    assert multiplicity(la, mu, method="singular") == 1
    la, mu = mp([[10]] * 45), mp([[]] * 44 + [[450]])
    assert multiplicity(la, mu) == 1


def test_count_shape_is_interned():
    # A piece and its 180-degree rotation give the same object.
    assert _layer(mp([[3, 1]]), mp([[]])) is _layer(mp([[3, 3]]), mp([[2]]))
    # Pieces commute, whichever component they lie in.
    two = mp([[], []])
    assert _layer(mp([[2], [1]]), two) is _layer(mp([[1], [2]]), two)
    assert _layer(mp([[2], [1]]), two) is _layer(mp([[3, 1]]), mp([[1]]))


def test_empty_layer_counts_one():
    shape = _layer(mp([[2], [1]]), mp([[2], [1]]))
    assert shape == SkewShape(mp([[]]))
    assert skew_singular_count(shape, shape.r - 1, ()) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: layer_chains([[1]], (1,)),
        lambda: count_straight_tableaux([[1]], [[1]]),
        lambda: multiplicity_row_by_solve([[1]]),
        lambda: grouping_factorization_check([[1]], [[1]], Grouping([1])),
        lambda: grouping_factorization_check(mp([[1]]), mp([[1]]), [1]),
        lambda: weyl_schur([[1], [1]]),
        lambda: weyl_schur(Partition([1])),
        lambda: character(None),
        lambda: character([[1]]),
        lambda: character(mp([[1]]), "x"),
        lambda: invert_unitriangular(None),
    ],
    ids=[
        "layer_chains",
        "count_straight_tableaux",
        "multiplicity_row_by_solve",
        "grouping_factorization_check",
        "grouping_factorization_check-grouping",
        "weyl_schur",
        "weyl_schur-partition",
        "character-none",
        "character",
        "character-bound",
        "invert_unitriangular",
    ],
)
def test_library_entries_refuse_non_multipartitions(call):
    # A list is unhashable, so a memo consulted first would raise TypeError.
    with pytest.raises(InputError, match="expected"):
        call()


def test_three_routes_agree_small():
    for n in range(0, 5):
        mps = multipartitions(n, 2)
        for la in mps:
            row = multiplicity_row_by_solve(la)
            for mu in mps:
                s = multiplicity(la, mu, method="singular")
                c = multiplicity(la, mu, method="chain")
                assert s == c == row[mu], (la, mu)


def test_chain_blocks_in_shuffled_order():
    # The chain route keeps the slicings of one (la, size vector) block at a
    # time. Read in a shuffled order the blocks alternate, so a block served
    # for the wrong size vector would show up as a wrong entry.
    _chain_value.cache_clear()
    pairs = [
        (la, mu)
        for r in range(1, 4)
        for n in range(5)
        for order in [multipartitions(n, r)]
        for la in order
        for mu in order
    ]
    random.Random(10).shuffle(pairs)
    for la, mu in pairs:
        assert multiplicity(la, mu, method="chain") == multiplicity(
            la, mu, method="singular"
        ), (la, mu)


def test_unknown_method():
    with pytest.raises(InputError):
        multiplicity(mp([[1]]), mp([[1]]), method="guess")


@pytest.mark.parametrize("method", [["chain"], None])
def test_method_that_is_not_a_name(method):
    with pytest.raises(InputError, match="unknown method"):
        multiplicity(mp([[1]]), mp([[1]]), method=method)


@pytest.mark.parametrize("method", ["singular", "chain", "solve"])
def test_multiplicity_refusals_in_order(method):
    # The method first, then the argument types, then r, then the size.
    la = mp([[1], []])
    for args, kwargs, message in (
        ((la, la), {"method": "guess"}, "unknown method"),
        (([[1]], [[1]]), {"method": "guess"}, "unknown method"),
        (([[1]], [[1]]), {"method": method}, "expected two MultiPartition"),
        ((la, [[1], []]), {"method": method}, "expected two MultiPartition"),
        ((la, mp([[1]])), {"method": method}, "component counts disagree"),
        ((mp([[2], []]), la), {"method": method}, "sizes disagree"),
    ):
        with pytest.raises(InputError, match=message):
            multiplicity(*args, **kwargs)


def test_solve_row_r1_is_indicator():
    for n in range(1, 6):
        for la in multipartitions(n, 1):
            row = multiplicity_row_by_solve(la)
            assert row[la] == 1
            assert all(v == 0 for mu, v in row.items() if mu != la)


def test_solve_row_is_a_copy():
    # Editing a returned row must not reach the memo behind the solve route.
    la = mp([[1], [1]])
    b = ShapeBound.for_size(2, 2)
    row = multiplicity_row_by_solve(la)
    row[la] = 99
    assert multiplicity(la, la, method="solve") == 1
    assert multiplicity_row_by_solve(la)[la] == 1


def test_unitriangularity_properties():
    for n in range(0, 5):
        mps = multipartitions(n, 2)
        for la in mps:
            for mu in mps:
                v = multiplicity(la, mu)
                if v:
                    assert dominates(la, mu)
                if la != mu and component_sizes(la) == component_sizes(mu):
                    assert v == 0


def test_matrices_are_the_same_under_every_stable_bound():
    # Why no multiplicity takes a bound: in the stable regime m_k >= n the
    # caps change neither the index order nor any entry, on any route.
    for r, n_max in ((1, 5), (2, 4), (3, 3)):
        for n in range(n_max + 1):
            bounds = (
                ShapeBound.for_size(n, r),
                ShapeBound((n + 1,) * r),
                ShapeBound((max(n, 1),) + (n + 1,) * (r - 1)),
            )
            for method in ("singular", "chain", "solve"):
                mats = [multiplicity_matrix(n, b, method=method) for b in bounds]
                assert len({m.order for m in mats}) == 1, (n, r, method)
                assert len({m.rows for m in mats}) == 1, (n, r, method)


def test_multiplicity_layer_takes_no_bound():
    for fn in (
        multiplicity,
        multiplicity_row_by_solve,
        weyl_schur,
        grouping_factorization_check,
        canonical_key,
    ):
        assert "bound" not in inspect.signature(fn).parameters, fn.__name__
    # A stale positional bound is refused, never read as a method name.
    la = mp([[1], []])
    with pytest.raises(TypeError):
        multiplicity(la, la, ShapeBound((1, 1)))


def test_matrix_n2_r2():
    b = ShapeBound((2, 2))
    mat = multiplicity_matrix(2, b)
    assert mat.order == multipartitions(2, b.r)
    assert [list(r) for r in mat.rows] == [
        [1, 0, 1, 1, 0],
        [0, 1, 1, 0, 1],
        [0, 0, 1, 1, 1],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    assert mat.value(mp([[2], []]), mp([[1], [1]])) == 1


def test_matrix_r1_identity():
    for n in range(0, 6):
        b = ShapeBound.for_size(n, 1)
        assert multiplicity_matrix(n, b) == identity_matrix(n, b)


def test_matrix_inverse_exact():
    for n in range(0, 5):
        b = ShapeBound.for_size(n, 2)
        mat = multiplicity_matrix(n, b)
        inv = invert_unitriangular(mat)
        assert matrix_product(mat, inv) == identity_matrix(n, b)
        assert matrix_product(inv, mat) == identity_matrix(n, b)


def test_matrix_cross_check_route():
    b = ShapeBound((3, 3))
    assert multiplicity_matrix(3, b) == multiplicity_matrix(3, b, method="solve")


def test_inverse_matches_dense_reference_on_chain_matrices():
    for r, n_max in ((2, 7), (3, 5)):
        for n in range(n_max + 1):
            b = ShapeBound.for_size(n, r)
            mat = multiplicity_matrix(n, b)
            inv = invert_unitriangular(mat)
            assert inv.same_index(mat)
            assert list(map(list, inv.rows)) == dense_unitriangular_inverse(mat.rows), (n, r)
            assert matrix_product(mat, inv) == identity_matrix(n, b), (n, r)


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_inverse_matches_dense_reference_on_random_unitriangular(data):
    # Any d <= 12 distinct index entries; off-diagonal entries of either
    # sign, zeros frequent, and whole rows with nothing right of the
    # diagonal.
    b = ShapeBound.for_size(6, 2)
    d = data.draw(st.integers(1, 12))
    order = multipartitions(6, 2)[:d]
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = []
    for i in range(d):
        bare = data.draw(st.booleans())
        rows.append([int(i == j) if j <= i or bare else data.draw(entry) for j in range(d)])
    mat = IndexedMatrix(6, b, order, rows)
    inv = invert_unitriangular(mat)
    assert list(map(list, inv.rows)) == dense_unitriangular_inverse(rows)
    unit = IndexedMatrix(6, b, order, [[int(i == j) for j in range(d)] for i in range(d)])
    assert matrix_product(mat, inv) == unit
    # Any change on or below the diagonal is refused.
    i = data.draw(st.integers(0, d - 1))
    j = data.draw(st.integers(0, i))
    rows[i][j] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    with pytest.raises(InputError):
        invert_unitriangular(IndexedMatrix(6, b, order, rows))


def test_invert_rejects_non_unitriangular():
    b = ShapeBound((1, 1))
    order = multipartitions(1, b.r)
    bad = IndexedMatrix(1, b, order, [[2, 0], [0, 1]])
    with pytest.raises(InputError):
        invert_unitriangular(bad)


def test_zero_size_matrix():
    b = ShapeBound((1, 1))
    mat = multiplicity_matrix(0, b)
    assert mat.rows == ((1,),)


def test_grouping_factorization_examples():
    la = mp([[1], [1], [1]])
    ok, full, prod = grouping_factorization_check(la, la, Grouping([3]))
    assert ok and full == prod == 1

    for n in range(0, 5):
        mps = multipartitions(n, 3)
        for p in (Grouping([1, 2]), Grouping([2, 1]), Grouping([1, 1, 1])):
            for la in mps:
                for mu in mps:
                    if group_sizes(la, p) != group_sizes(mu, p):
                        continue
                    ok, full, prod = grouping_factorization_check(la, mu, p)
                    assert ok, (la, mu, p, full, prod)


def test_grouping_requires_matching_sizes():
    with pytest.raises(InputError):
        grouping_factorization_check(
            mp([[1], []]), mp([[], [1]]), Grouping([1, 1])
        )


def _random_unitriangular(order, rng, lo=-4, hi=4):
    d = len(order)
    rows = [
        [1 if i == j else (rng.randint(lo, hi) if j > i else 0) for j in range(d)]
        for i in range(d)
    ]
    return rows


def test_factorization_identity_case():
    b = ShapeBound((3, 3))
    bmat = multiplicity_matrix(3, b)
    ident = identity_matrix(3, b)
    derived = derive_decomposition(bmat, ident)
    assert derived == bmat
    report = factorization_residual(bmat, ident, ident, bmat)
    assert report["zero"] and report["max_abs"] == 0


def test_factorization_residual_none_is_the_identity():
    b = ShapeBound((3, 3))
    bmat = multiplicity_matrix(3, b)
    ident = identity_matrix(3, b)
    rng = random.Random(11)
    dbar = IndexedMatrix(3, b, bmat.order, _random_unitriangular(bmat.order, rng))
    derived = derive_decomposition(bmat, dbar)
    wrong = IndexedMatrix(3, b, bmat.order, _random_unitriangular(bmat.order, rng))
    for d in (derived, wrong, ident):
        report = factorization_residual(bmat, dbar, None, d)
        assert report == factorization_residual(bmat, dbar, ident, d)
    assert not report["zero"]


def test_factorization_b_identity_case():
    # one-component toy: left factor is the identity, derived equals dbar
    b = ShapeBound((3,))
    ident = identity_matrix(3, b)
    rng = random.Random(7)
    dbar = IndexedMatrix(3, b, ident.order, _random_unitriangular(ident.order, rng))
    assert derive_decomposition(ident, dbar) == dbar


def test_factorization_random_unitriangular():
    b = ShapeBound((3, 3))
    bmat = multiplicity_matrix(3, b)
    ident = identity_matrix(3, b)
    rng = random.Random(20240803)
    for _ in range(5):
        dbar = IndexedMatrix(3, b, bmat.order, _random_unitriangular(bmat.order, rng))
        derived = derive_decomposition(bmat, dbar)
        report = factorization_residual(bmat, dbar, ident, derived)
        assert report["zero"]


def test_factorization_warns_on_non_unitriangular():
    b = ShapeBound((1, 1))
    order = multipartitions(1, b.r)
    bmat = multiplicity_matrix(1, b)
    lumpy = IndexedMatrix(1, b, order, [[1, 0], [3, 1]])
    with pytest.warns(UserWarning):
        derive_decomposition(bmat, lumpy)


def test_factorization_rejects_mismatched_index():
    b2 = ShapeBound((2, 2))
    b3 = ShapeBound((3, 3))
    with pytest.raises(InputError):
        derive_decomposition(
            multiplicity_matrix(2, b2), identity_matrix(3, b3)
        )


# The four matrix functions, each with its number of matrix arguments.
MATRIX_CALLS = [
    (invert_unitriangular, 1),
    (matrix_product, 2),
    (derive_decomposition, 2),
    (factorization_residual, 4),
]
NOT_MATRICES = [None, [[1, 0], [0, 1]], "x", MultiPartition([[1], []])]


@pytest.mark.parametrize("bad", NOT_MATRICES, ids=["none", "lists", "str", "multipartition"])
@pytest.mark.parametrize(
    "call,arity", MATRIX_CALLS, ids=lambda v: getattr(v, "__name__", str(v))
)
def test_matrix_functions_refuse_non_matrices(call, arity, bad):
    ident = identity_matrix(1, ShapeBound((1, 1)))
    for pos in range(arity):
        if bad is None and (call, pos) == (factorization_residual, 2):
            continue  # x=None stands for the identity
        mats = [ident] * arity
        mats[pos] = bad
        with pytest.raises(InputError, match="expected an IndexedMatrix"):
            call(*mats)


@pytest.mark.parametrize(
    "call,arity", MATRIX_CALLS[1:], ids=lambda v: getattr(v, "__name__", str(v))
)
def test_matrix_functions_refuse_mismatched_indices(call, arity):
    # Same size and bound, the index order reversed: only the order differs.
    b = ShapeBound((2, 2))
    ident = identity_matrix(2, b)
    flipped = IndexedMatrix(2, b, ident.order[::-1], ident.rows)
    for other in (flipped, identity_matrix(1, ShapeBound((1, 1)))):
        for pos in range(arity):
            mats = [ident] * arity
            mats[pos] = other
            with pytest.raises(InputError, match="matrix indices disagree"):
                call(*mats)


def test_factorization_residual_refuses_index_before_warning():
    # A non-unitriangular factor over another index is refused, not warned.
    b = ShapeBound((1, 1))
    ident = identity_matrix(1, b)
    other = IndexedMatrix(1, b, ident.order[::-1], [[2, 0], [0, 1]])
    with pytest.raises(InputError, match="matrix indices disagree"):
        factorization_residual(ident, ident, other, ident)
    with pytest.raises(InputError, match="expected an IndexedMatrix"):
        factorization_residual(ident, ident, ident, None)


@pytest.mark.filterwarnings("ignore:.* is not unitriangular")
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_pass_residual_matches_double_loop(data):
    # Entries from a short range tie the largest difference often, so the
    # first entry in reading order where it is reached is what is tested.
    b = ShapeBound((2, 2))
    order = multipartitions(2, b.r)
    d = len(order)
    entry = st.integers(-2, 2)
    square = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
    bm, dbar, x, dm = (IndexedMatrix(2, b, order, data.draw(square)) for _ in range(4))
    for xm in (x, None):
        lhs = matrix_product(bm, dbar).rows
        rhs = dm.rows if xm is None else matrix_product(dm, xm).rows
        expected = double_loop_residual(lhs, rhs)
        assert factorization_residual(bm, dbar, xm, dm) == expected


def test_harness_modes_warn_in_one_wording():
    b = ShapeBound((1, 1))
    order = multipartitions(1, b.r)
    lower = IndexedMatrix(1, b, order, [[1, 0], [1, 1]])
    ident = identity_matrix(1, b)
    with pytest.warns(UserWarning) as derived:
        derive_decomposition(lower, lower)
    assert [str(w.message) for w in derived] == [
        "b is not unitriangular", "dbar is not unitriangular",
    ]
    with pytest.warns(UserWarning) as residual:
        factorization_residual(lower, lower, lower, lower)
    assert [str(w.message) for w in residual] == [
        "b is not unitriangular", "dbar is not unitriangular",
        "x is not unitriangular", "d is not unitriangular",
    ]
    with pytest.warns(UserWarning) as residual:
        factorization_residual(ident, lower, None, ident)
    assert [str(w.message) for w in residual] == ["dbar is not unitriangular"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**63))
def test_factorization_residual_random_seeds(seed):
    b = ShapeBound((2, 2))
    bmat = multiplicity_matrix(2, b)
    ident = identity_matrix(2, b)
    rng = random.Random(seed)
    dbar = IndexedMatrix(2, b, bmat.order, _random_unitriangular(bmat.order, rng))
    derived = derive_decomposition(bmat, dbar)
    assert factorization_residual(bmat, dbar, ident, derived)["zero"]


def test_dimension_identity_small():
    for n in range(0, 5):
        mps = multipartitions(n, 2)
        for la in mps:
            for mu in mps:
                lhs = count_straight_tableaux(la, mu)
                rhs = 0
                for nu in mps:
                    if component_sizes(nu) != component_sizes(mu):
                        continue  # some Kostka factor vanishes
                    v = multiplicity(la, nu)
                    if not v:
                        continue
                    prod = 1
                    for k in range(2):
                        prod *= kostka(nu.component(k), mu.component(k))
                    rhs += v * prod
                assert lhs == rhs
