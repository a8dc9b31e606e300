import inspect
import sys
from collections import Counter

import pytest
from hypothesis import given, seed, settings, strategies as st

from weylchar import (
    InputError,
    MonomialPoly,
    MultiComposition,
    MultiPartition,
    Partition,
    SchurExpansion,
    ShapeBound,
    SkewShape,
    as_composition,
    character,
    component_sizes,
    count_straight_tableaux,
    count_tableaux,
    kostka,
    lr_coeff,
    multicompositions,
    multipartitions,
    multiplicity,
    scan_structure_constants,
    schur_product,
    schur_to_monomials,
    structure_constants,
    to_schur_basis,
    to_weyl_basis,
    union_alphabet_schur,
    weyl_schur,
)
from weylchar import symfunc
from weylchar.shapes import canonical_key

from oracles import naive_scan


def mp(rows):
    return MultiPartition(rows)


def mc(rows):
    return MultiComposition(rows)


def test_schur_to_monomials_single_box():
    poly = schur_to_monomials(mp([[1], []]), ShapeBound((2, 2)))
    assert poly.terms == {
        mc([(1, 0), (0, 0)]): 1,
        mc([(0, 1), (0, 0)]): 1,
    }


def test_schur_to_monomials_one_variable():
    poly = schur_to_monomials(mp([[2], []]), ShapeBound((1, 1)))
    assert poly.terms == {mc([(2,), (0,)]): 1}


def test_schur_to_monomials_kostka_coefficient():
    poly = schur_to_monomials(mp([[2, 1], []]), ShapeBound((3, 1)))
    assert poly.coeff(mc([(1, 1, 1), (0,)])) == 2


def test_character_diagonal_coefficient():
    for n in range(1, 4):
        b = ShapeBound.for_size(n, 2)
        for la in multipartitions(n, 2):
            ch = character(la, b)
            diag = mc(
                c.parts + (0,) * (mk - len(c))
                for c, mk in zip(la.components, b.m)
            )
            assert ch.coeff(diag) == 1


def test_character_single_box_all_variables():
    b = ShapeBound((2, 2))
    ch = character(mp([[1], []]), b)
    assert len(ch.terms) == 4
    assert set(ch.terms.values()) == {1}


def test_character_counts_tableaux():
    for n in range(1, 5):
        for r in (2, 3):
            if r == 3 and n > 3:
                continue
            b = ShapeBound.for_size(n, r)
            for la in multipartitions(n, r):
                ch = character(la, b)
                for mu in multicompositions(n, b):
                    assert ch.coeff(mu) == count_tableaux(SkewShape(la), mu)


def test_weyl_schur_r1_is_plain_schur():
    for n in range(0, 5):
        for la in multipartitions(n, 1):
            assert weyl_schur(la).terms == {la: 1}


def test_weyl_schur_examples():
    assert weyl_schur(mp([[1], [1]])).terms == {
        mp([[1], [1]]): 1,
        mp([[], [2]]): 1,
        mp([[], [1, 1]]): 1,
    }
    assert weyl_schur(mp([[2], []])).terms == {
        mp([[2], []]): 1,
        mp([[1], [1]]): 1,
        mp([[], [2]]): 1,
    }


def test_schur_product_identity():
    one = SchurExpansion(2, 0, {mp([[], []]): 1})
    s = weyl_schur(mp([[1], [1]]))
    s_schur = SchurExpansion(2, 2, dict(s.terms))
    assert schur_product(one, s_schur).terms == s_schur.terms


def test_schur_product_pieri():
    e1 = SchurExpansion(2, 1, {mp([[1], []]): 1})
    prod = schur_product(e1, e1)
    assert prod.terms == {mp([[2], []]): 1, mp([[1, 1], []]): 1}


def test_schur_product_degree_additivity():
    a = SchurExpansion(2, 2, {mp([[2], []]): 1, mp([[1], [1]]): 3})
    b = SchurExpansion(2, 1, {mp([[], [1]]): 2})
    prod = schur_product(a, b)
    assert prod.degree == 3
    assert all(x.size == 3 for x in prod.terms)


def test_structure_constants_unit():
    for n in range(0, 4):
        for la in multipartitions(n, 2):
            c = structure_constants(mp([[], []]), la)
            assert c.terms == {la: 1}


def test_structure_constants_concentrated():
    c = structure_constants(mp([[1], []]), mp([[1], []]))
    assert c.terms == {mp([[2], []]): 1, mp([[1, 1], []]): 1}
    c2 = structure_constants(mp([[1], []]), mp([[], [1]]))
    assert c2.terms == {mp([[1], [1]]): 1}


def test_structure_constants_symmetry_and_degree():
    for asize in range(0, 3):
        for bsize in range(0, 3):
            for la in multipartitions(asize, 2):
                for mu in multipartitions(bsize, 2):
                    ab = structure_constants(la, mu)
                    ba_ = structure_constants(mu, la)
                    assert ab.terms == ba_.terms
                    assert ab.degree == asize + bsize
                    assert all(nu.size == asize + bsize for nu in ab.terms)


def test_structure_constants_match_lr_product_on_size_match():
    for asize in range(0, 3):
        for bsize in range(0, 3):
            for la in multipartitions(asize, 2):
                for mu in multipartitions(bsize, 2):
                    target = tuple(
                        x.size + y.size
                        for x, y in zip(la.components, mu.components)
                    )
                    for nu, c in structure_constants(la, mu).terms.items():
                        if component_sizes(nu) != target:
                            continue
                        prod = 1
                        for k in range(2):
                            prod *= lr_coeff(
                                nu.component(k), la.component(k), mu.component(k)
                            )
                        assert c == prod


def test_basis_roundtrip():
    for r, n_max in ((2, 5), (3, 4)):
        for n in range(0, n_max + 1):
            for la in multipartitions(n, r):
                e = SchurExpansion(r, n, {la: 1})
                assert to_weyl_basis(to_schur_basis(e)).terms == e.terms
                assert to_schur_basis(to_weyl_basis(e)).terms == e.terms


def test_basis_element_is_its_character():
    for r in (1, 2, 3):
        for n in range(0, 5):
            for la in multipartitions(n, r):
                w = weyl_schur(la)
                assert to_schur_basis(SchurExpansion(r, n, {la: 1})) == w
                assert to_weyl_basis(w).terms == {la: 1}
                # The memoized value is shared, so its terms refuse writes.
                expected = dict(w.terms)
                with pytest.raises((AttributeError, TypeError)):
                    w.terms.clear()
                with pytest.raises(TypeError):
                    w.terms[la] = 0
                assert weyl_schur(la).terms == expected


def test_weyl_basis_spans_with_unit_diagonal():
    from weylchar import multiplicity_matrix

    for n in range(0, 5):
        b = ShapeBound.for_size(n, 2)
        mat = multiplicity_matrix(n, b)
        assert mat.is_unitriangular()  # hence determinant one: a basis change


def test_character_two_evaluations_agree():
    for n in range(1, 4):
        b = ShapeBound.for_size(n, 2)
        for la in multipartitions(n, 2):
            via_schur = {}
            for mu_mp, coeff in weyl_schur(la).terms.items():
                for mono, c in schur_to_monomials(mu_mp, b).terms.items():
                    via_schur[mono] = via_schur.get(mono, 0) + coeff * c
            via_schur = {k: v for k, v in via_schur.items() if v}
            assert via_schur == character(la, b).terms


def test_union_alphabet_single_box():
    e = union_alphabet_schur(Partition([1]), 0, 2)
    assert e.terms == {mp([[1], []]): 1, mp([[], [1]]): 1}


def test_union_alphabet_last_component():
    e = union_alphabet_schur(Partition([2, 1]), 2, 3)
    assert e.terms == {mp([[], [], [2, 1]]): 1}


def test_union_alphabet_matches_weyl_schur():
    for r in (2, 3):
        for t in range(r):
            for size in range(1, 4):
                for p in [pp for pp in __import__("weylchar").partitions_of(size)]:
                    concentrated = mp(
                        [[] if k != t else list(p.parts) for k in range(r)]
                    )
                    assert (
                        union_alphabet_schur(p, t, r).terms
                        == weyl_schur(concentrated).terms
                    )


def test_union_alphabet_needs_no_stack_per_component():
    # The expansion walks the components with a loop, so a shape spread over
    # far more alphabets than the spare stack still expands, in term order.
    r = 300
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        e = union_alphabet_schur((1,), 0, r)
    finally:
        sys.setrecursionlimit(limit)
    boxes = [mp([[]] * k + [[1]] + [[]] * (r - 1 - k)) for k in range(r)]
    assert list(e.terms.items()) == [(box, 1) for box in boxes]


def test_union_alphabet_bad_component():
    with pytest.raises(InputError):
        union_alphabet_schur(Partition([1]), 2, 2)


def test_lr_only_route_matches_weyl_schur():
    # A fourth route built from LR coefficients alone: the row of la is the
    # product over k of s_{la^(k)} on the union of the alphabets k..r-1.
    for r, n_max in ((2, 7), (3, 5)):
        for n in range(n_max + 1):
            for la in multipartitions(n, r):
                row = SchurExpansion(r, 0, {MultiPartition.empty(r): 1})
                for k, p in enumerate(la.components):
                    row = schur_product(row, union_alphabet_schur(p, k, r))
                assert row.terms == weyl_schur(la).terms, la


@seed(20261019)
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_routes_agree_on_sampled_entries_at_four_and_five_components(data):
    # No exhaustive route check reaches r >= 4; sample (la, mu) there. The
    # four routes and the tableau count are definitional identities, so no
    # two of them can agree by sharing a bug.
    r, n_max = data.draw(st.sampled_from([(4, 5), (5, 4)]))
    n = data.draw(st.integers(0, n_max))
    bound = ShapeBound.for_size(n, r)
    index = multipartitions(n, r)
    la = data.draw(st.sampled_from(index))
    mu = data.draw(st.sampled_from(index))
    lr_only = SchurExpansion(r, 0, {MultiPartition.empty(r): 1})
    for k, p in enumerate(la.components):
        lr_only = schur_product(lr_only, union_alphabet_schur(p, k, r))
    values = {
        method: multiplicity(la, mu, method=method)
        for method in ("singular", "chain", "solve")
    }
    assert values == dict.fromkeys(values, lr_only.coeff(mu)), (la, mu)
    assert character(la).coeff(as_composition(mu, bound)) == count_straight_tableaux(
        la, mu
    ), (la, mu)


def test_terms_are_read_only():
    la, mu = mp([[1], [1]]), mp([[1, 1], []])
    b = ShapeBound((2, 3))
    values = {
        "weyl_schur": lambda: weyl_schur(la),
        "schur_to_monomials": lambda: schur_to_monomials(mu, b),
        "schur_product": lambda: schur_product(weyl_schur(la), weyl_schur(mu)),
        "to_weyl_basis": lambda: to_weyl_basis(weyl_schur(la)),
        "SchurExpansion": lambda: SchurExpansion(2, 2, {la: 1, mu: -2}),
        "MonomialPoly": lambda: MonomialPoly(b, 1, {mc([(1, 0), (0, 0, 0)]): 3}),
    }
    for name, build in values.items():
        value = build()
        expected = dict(value.terms)
        key = next(iter(expected))
        with pytest.raises(TypeError):
            value.terms[key] = 0
        with pytest.raises((AttributeError, TypeError)):
            value.terms.clear()
        assert build().terms == expected, name


def test_scan_structure_constants_shape():
    report = scan_structure_constants(3, 2)
    assert report["scanned"] > 0
    assert isinstance(report["c1_violations"], list)
    assert isinstance(report["c2_violations"], list)
    # expected empty at this scale; recorded, not asserted
    print(
        "scan n_max=3 r=2:",
        len(report["c1_violations"]),
        "negative,",
        len(report["c2_violations"]),
        "support violations",
    )


def _scan_index(r):
    return lambda a: multipartitions(a, r)


def _fake_constants(la, mu):
    # Commutative, with negative and off-support terms: every multipartition
    # of the total size gets a coefficient in -2..2 from a symmetric seed.
    seed = sum(canonical_key(la)) + sum(canonical_key(mu)) + la.size * mu.size
    total = la.size + mu.size
    index = multipartitions(total, la.r)
    return SchurExpansion(
        la.r, total, {nu: (k + seed) % 5 - 2 for k, nu in enumerate(index)}
    )


def test_scan_places_each_violation_at_its_ordered_pair(monkeypatch):
    n_max, r = 4, 2
    calls = Counter()

    def counted(la, mu):
        calls[frozenset((la, mu))] += 1
        return _fake_constants(la, mu)

    monkeypatch.setattr(symfunc, "structure_constants", counted)
    report = scan_structure_constants(n_max, r)
    expected = naive_scan(
        n_max, r, _scan_index(r), lambda la, mu: _fake_constants(la, mu).canonical_items()
    )
    assert expected["c1_violations"] and expected["c2_violations"]
    assert report == expected
    # one product per unordered pair, the pair la = mu included
    unordered = {
        frozenset((la, mu))
        for total in range(n_max + 1)
        for a in range(total + 1)
        for la in _scan_index(r)(a)
        for mu in _scan_index(r)(total - a)
    }
    assert set(calls) == unordered
    assert set(calls.values()) == {1}


def test_structure_constants_commute_at_r3():
    # The scan computes each unordered pair once and reads the swapped pair
    # from it; the two orders multiply through separate LR products.
    r = 3
    for total in range(5):
        for a in range(total + 1):
            for la in multipartitions(a, r):
                for mu in multipartitions(total - a, r):
                    assert (
                        structure_constants(la, mu).terms
                        == structure_constants(mu, la).terms
                    ), (la, mu)


def _validated(value):
    if isinstance(value, SchurExpansion):
        return SchurExpansion(value.r, value.degree, dict(value.terms))
    return MonomialPoly(value.bound, value.degree, dict(value.terms))


def test_trusted_sites_equal_validated_values():
    # Every value symfunc builds goes through the checks of __init__; each
    # must equal the value __init__ builds again from its terms, with no
    # zero term.
    from weylchar import truncate_to_bound

    la, mu = mp([[1], [1]]), mp([[1, 1], []])
    product = schur_product(weyl_schur(la), weyl_schur(mu))
    in_weyl = to_weyl_basis(product)
    values = [
        weyl_schur(la),
        product,
        in_weyl,
        to_schur_basis(in_weyl),
        truncate_to_bound(product, ShapeBound((1, 1))),
        schur_to_monomials(mu, ShapeBound((2, 3))),
    ]
    for value in values:
        assert value == _validated(value)
        assert all(value.terms.values())
    assert to_schur_basis(in_weyl) == product
    # the basis change cancels every term but la itself
    assert to_weyl_basis(weyl_schur(la)).terms == {la: 1}


def test_trusted_value_is_immutable():
    e = weyl_schur(mp([[1], []]))
    with pytest.raises(AttributeError):
        e.terms = {}


def test_schur_to_monomials_returns_a_fresh_value():
    la, b = mp([[1], [1]]), ShapeBound((2, 2))
    first = schur_to_monomials(la, b)
    with pytest.raises((AttributeError, TypeError)):
        first.terms.clear()
    with pytest.raises(TypeError):
        first.terms[mc([(1, 0), (1, 0)])] = 0
    assert schur_to_monomials(la, b).terms == {
        mc([(1, 0), (1, 0)]): 1,
        mc([(1, 0), (0, 1)]): 1,
        mc([(0, 1), (1, 0)]): 1,
        mc([(0, 1), (0, 1)]): 1,
    }


def test_monomial_poly_validates():
    b = ShapeBound((2, 2))
    with pytest.raises(InputError):
        MonomialPoly(b, 2, {mc([(1, 0), (0, 0)]): 1})


def test_schur_expansion_drops_zeros():
    e = SchurExpansion(2, 1, {mp([[1], []]): 0, mp([[], [1]]): 2})
    assert e.terms == {mp([[], [1]]): 2}


def test_truncate_to_bound():
    from weylchar import truncate_to_bound

    e = weyl_schur(mp([[1, 1], []]))
    tight = truncate_to_bound(e, ShapeBound((1, 1)))
    # two-row indices die with a single variable per alphabet
    assert tight.terms == {mp([[1], [1]]): 1}
    assert truncate_to_bound(e, ShapeBound((2, 2))).terms == e.terms
    with pytest.raises(InputError):
        truncate_to_bound(e, ShapeBound((2,)))
