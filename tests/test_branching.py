import random

import pytest
from hypothesis import given, settings, strategies as st

from weylchar import (
    Grouping,
    InputError,
    MultiPartition,
    Partition,
    ShapeBound,
    SkewShape,
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
    multiplicity_by_chains,
    multiplicity_by_singular,
    multiplicity_matrix,
    multiplicity_row_by_solve,
    multipartitions,
    partitions_of,
    skew_singular_count,
)
from weylchar.branching import IndexedMatrix

from oracles import brute_lr, brute_ssyt_count


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


def test_kostka_against_brute_force():
    for n in range(0, 6):
        for la in partitions_of(n):
            for mu in partitions_of(n):
                assert kostka(la, mu) == brute_ssyt_count(
                    list(la.parts), list(mu.parts)
                )


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
        for outer in multipartitions(n, b):
            for inner_sz in range(n + 1):
                ib = ShapeBound.for_size(max(inner_sz, 1), 2)
                for inner in multipartitions(inner_sz, ib):
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
    chains = list(layer_chains(la, mp([[1], [1]])))
    assert len(chains) == 1
    assert chains[0] == (mp([[], []]), mp([[1], []]), la)

    chains = list(layer_chains(la, mp([[], [2]])))
    assert len(chains) == 1
    assert chains[0][1] == mp([[], []])

    assert list(layer_chains(mp([[], [2]]), mp([[2], []]))) == []


def test_multiplicity_diagonal_one():
    for n in range(0, 5):
        b = ShapeBound.for_size(n, 2)
        for la in multipartitions(n, b):
            assert multiplicity(la, la, b) == 1


def test_multiplicity_row_shape_row():
    b = ShapeBound.for_size(2, 2)
    la = mp([[2], []])
    hits = {
        mu for mu in multipartitions(2, b) if multiplicity(la, mu, b) == 1
    }
    assert hits == {mp([[2], []]), mp([[1], [1]]), mp([[], [2]])}
    assert all(
        multiplicity(la, mu, b) in (0, 1) for mu in multipartitions(2, b)
    )


def test_multiplicity_lr_value():
    la = mp([[2, 1], []])
    mu = mp([[1], [1, 1]])
    assert multiplicity(la, mu) == lr_coeff(
        Partition([2, 1]), Partition([1, 1]), Partition([1])
    ) == 1


def test_three_routes_agree_small():
    for n in range(0, 5):
        b = ShapeBound.for_size(n, 2)
        mps = multipartitions(n, b)
        for la in mps:
            row = multiplicity_row_by_solve(la, b)
            for mu in mps:
                s = multiplicity_by_singular(la, mu, b)
                c = multiplicity_by_chains(la, mu, b)
                assert s == c == row[mu], (la, mu)


def test_unknown_method():
    with pytest.raises(InputError):
        multiplicity(mp([[1]]), mp([[1]]), method="guess")


def test_solve_row_r1_is_indicator():
    for n in range(1, 6):
        b = ShapeBound.for_size(n, 1)
        for la in multipartitions(n, b):
            row = multiplicity_row_by_solve(la, b)
            assert row[la] == 1
            assert all(v == 0 for mu, v in row.items() if mu != la)


def test_solve_row_is_a_copy():
    # Editing a returned row must not reach the memo behind the solve route.
    la = mp([[1], [1]])
    b = ShapeBound.for_size(2, 2)
    row = multiplicity_row_by_solve(la, b)
    row[la] = 99
    assert multiplicity(la, la, b, method="solve") == 1
    assert multiplicity_row_by_solve(la, b)[la] == 1


def test_unitriangularity_properties():
    for n in range(0, 5):
        b = ShapeBound.for_size(n, 2)
        mps = multipartitions(n, b)
        for la in mps:
            for mu in mps:
                v = multiplicity(la, mu, b)
                if v:
                    assert dominates(la, mu, b)
                if la != mu and component_sizes(la) == component_sizes(mu):
                    assert v == 0


def test_matrix_n2_r2():
    b = ShapeBound((2, 2))
    mat = multiplicity_matrix(2, b)
    assert mat.order == multipartitions(2, b)
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
    multiplicity_matrix(3, b, cross_check=True)


def test_invert_rejects_non_unitriangular():
    b = ShapeBound((1, 1))
    order = multipartitions(1, b)
    bad = IndexedMatrix(1, b, order, [[2, 0], [0, 1]])
    with pytest.raises(InputError):
        invert_unitriangular(bad)


def test_zero_size_matrix():
    b = ShapeBound((1, 1))
    mat = multiplicity_matrix(0, b)
    assert mat.rows == ((1,),)


def test_grouping_factorization_examples():
    b3 = ShapeBound.for_size(3, 3)
    la = mp([[1], [1], [1]])
    ok, full, prod = grouping_factorization_check(la, la, Grouping([3]), b3)
    assert ok and full == prod == 1

    for n in range(0, 5):
        b = ShapeBound.for_size(n, 3)
        mps = multipartitions(n, b)
        for p in (Grouping([1, 2]), Grouping([2, 1]), Grouping([1, 1, 1])):
            for la in mps:
                for mu in mps:
                    if group_sizes(la, p) != group_sizes(mu, p):
                        continue
                    ok, full, prod = grouping_factorization_check(la, mu, p, b)
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
    order = multipartitions(1, b)
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
        b = ShapeBound.for_size(n, 2)
        mps = multipartitions(n, b)
        for la in mps:
            for mu in mps:
                lhs = count_straight_tableaux(la, mu, b)
                rhs = 0
                for nu in mps:
                    if component_sizes(nu) != component_sizes(mu):
                        continue  # some Kostka factor vanishes
                    v = multiplicity(la, nu, b)
                    if not v:
                        continue
                    prod = 1
                    for k in range(2):
                        prod *= kostka(nu.component(k), mu.component(k))
                    rhs += v * prod
                assert lhs == rhs
