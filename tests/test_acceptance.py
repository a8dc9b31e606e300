"""Acceptance suite: every criterion exact, printed one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import functools
import json
import random
import tempfile

from weylchar import (
    Cell,
    Entry,
    Grouping,
    MultiPartition,
    Partition,
    ShapeBound,
    SkewShape,
    cell_order_cmp,
    component_sizes,
    count_straight_tableaux,
    crystal_components,
    derive_decomposition,
    dominates,
    equivalence_key,
    etilde,
    factorization_residual,
    ftilde,
    grouping_factorization_check,
    group_sizes,
    identity_matrix,
    is_semistandard,
    is_singular,
    kostka,
    lr_coeff,
    multicompositions,
    multipartitions,
    multiplicity,
    multiplicity_matrix,
    multiplicity_row_by_solve,
    operator_indices,
    partitions_of,
    reading,
    scan_structure_constants,
    schur_to_monomials,
    structure_constants,
    union_alphabet_schur,
    weyl_schur,
)
from weylchar.branching import IndexedMatrix
from weylchar.serialize import matrix_to_json
from weylchar.tableaux import Tableau, enumerate_all_tableaux


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL  {label}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS  {label}")

        return run

    return wrap


def mp(rows):
    return MultiPartition(rows)


@criterion(1, "triple-oracle multiplicity equality, r=2 n<=5 and r=3 n<=4")
def test_criterion_01_triple_oracle():
    cases = [(n, 2) for n in range(6)] + [(n, 3) for n in range(5)]
    checked = 0
    for n, r in cases:
        mps = multipartitions(n, r)
        for la in mps:
            solve_row = multiplicity_row_by_solve(la)
            for mu in mps:
                s = multiplicity(la, mu, method="singular")
                c = multiplicity(la, mu, method="chain")
                v = solve_row[mu]
                assert s == c == v, (la, mu, s, c, v)
                checked += 1
    assert checked > 36 * 36 + 51 * 51


@criterion(2, "unitriangularity suite, n<=6 r=2")
def test_criterion_02_unitriangularity():
    for n in range(7):
        mps = multipartitions(n, 2)
        for la in mps:
            assert multiplicity(la, la) == 1
            for mu in mps:
                v = multiplicity(la, mu)
                if v:
                    assert dominates(la, mu), (la, mu)
                if la != mu and component_sizes(la) == component_sizes(mu):
                    assert v == 0, (la, mu)


def _rows_pattern(x):
    return all(len(c.parts) <= 1 for c in x.components)


def _cols_pattern(x):
    return all(all(p == 1 for p in c.parts) for c in x.components)


@criterion(3, "extreme-shape patterns, n<=6 r<=3")
def test_criterion_03_extreme_shapes():
    for r in (2, 3):
        for n in range(1, 7):
            mps = multipartitions(n, r)
            row_la = mp([[n]] + [[]] * (r - 1))
            col_la = mp([[1] * n] + [[]] * (r - 1))
            row_mu = mp([[]] * (r - 1) + [[n]])
            col_mu = mp([[]] * (r - 1) + [[1] * n])
            for other in mps:
                assert multiplicity(row_la, other) == int(
                    _rows_pattern(other)
                ), (row_la, other)
                assert multiplicity(col_la, other) == int(
                    _cols_pattern(other)
                ), (col_la, other)
                assert multiplicity(other, row_mu) == int(
                    _rows_pattern(other)
                ), (other, row_mu)
                assert multiplicity(other, col_mu) == int(
                    _cols_pattern(other)
                ), (other, col_mu)


@criterion(4, "two-component multiplicity equals classical LR, |la|<=6")
def test_criterion_04_generalized_lr():
    for n in range(7):
        for lam in partitions_of(n):
            la = mp([lam, Partition()])
            for mu in multipartitions(n, 2):
                lhs = multiplicity(la, mu)
                rhs = lr_coeff(lam, mu.component(1), mu.component(0))
                assert lhs == rhs, (la, mu, lhs, rhs)


@criterion(5, "Kostka dimension identity, n<=5 r=2")
def test_criterion_05_dimension_identity():
    for n in range(6):
        mps = multipartitions(n, 2)
        for la in mps:
            for mu in mps:
                lhs = count_straight_tableaux(la, mu)
                rhs = 0
                for nu in mps:
                    if component_sizes(nu) != component_sizes(mu):
                        continue  # a Kostka factor vanishes
                    v = multiplicity(la, nu, method="chain")
                    if not v:
                        continue
                    prod = 1
                    for k in range(2):
                        prod *= kostka(nu.component(k), mu.component(k))
                    rhs += v * prod
                assert lhs == rhs, (la, mu, lhs, rhs)


@criterion(6, "character dual evaluation, n<=5 r<=3")
def test_criterion_06_character_dual():
    from weylchar.branching import _kostka

    for r in (1, 2, 3):
        for n in range(6):
            bound = ShapeBound.for_size(n, r)
            mps = multipartitions(n, r)
            by_sizes = {}
            for mu in multicompositions(n, bound):
                by_sizes.setdefault(component_sizes(mu), []).append(mu)
            for la in mps:
                row = {
                    nu: multiplicity(la, nu, method="chain")
                    for nu in mps
                }
                # route one: per-weight Kostka products
                direct = {}
                for nu, v in row.items():
                    if not v:
                        continue
                    for mu in by_sizes.get(component_sizes(nu), ()):
                        prod = v
                        for k in range(r):
                            prod *= _kostka(
                                nu.component(k).parts, mu.rows[k]
                            )
                            if not prod:
                                break
                        if prod:
                            direct[mu] = direct.get(mu, 0) + prod
                direct = {k: v for k, v in direct.items() if v}
                # route two: expansion in the Schur basis, then monomials
                via_schur = {}
                for nu, v in row.items():
                    if not v:
                        continue
                    for mono, c in schur_to_monomials(nu, bound).terms.items():
                        via_schur[mono] = via_schur.get(mono, 0) + v * c
                via_schur = {k: v for k, v in via_schur.items() if v}
                assert direct == via_schur, la
                if r <= 2 and n <= 4:
                    # spot-exhaustive: every weight agrees, including zeros
                    for mu in multicompositions(n, bound):
                        lhs = direct.get(mu, 0)
                        rhs = sum(
                            v * _prod_kostka(nu, mu, r)
                            for nu, v in row.items()
                        )
                        assert lhs == rhs


def _prod_kostka(nu, mu, r):
    from weylchar.branching import _kostka

    prod = 1
    for k in range(r):
        prod *= _kostka(nu.component(k).parts, mu.rows[k])
        if not prod:
            return 0
    return prod


@criterion(7, "union-alphabet identity for concentrated shapes, size<=5 r<=3")
def test_criterion_07_union_alphabet():
    for r in (1, 2, 3):
        for t in range(r):
            for size in range(6):
                for p in partitions_of(size):
                    concentrated = mp(
                        [list(p.parts) if k == t else [] for k in range(r)]
                    )
                    lhs = weyl_schur(concentrated).terms
                    rhs = union_alphabet_schur(p, t, r).terms
                    assert lhs == rhs, (p, t, r)


@criterion(8, "structure-constant suite and scan, |la|+|mu|<=5 r=2")
def test_criterion_08_structure_constants():
    for total in range(6):
        for a in range(total + 1):
            b = total - a
            for la in multipartitions(a, 2):
                for mu in multipartitions(b, 2):
                    coeffs = structure_constants(la, mu)
                    assert coeffs.degree == total
                    assert all(nu.size == total for nu in coeffs.terms)
                    assert coeffs.terms == structure_constants(mu, la).terms
                    target = tuple(
                        x.size + y.size
                        for x, y in zip(la.components, mu.components)
                    )
                    for nu, c in coeffs.terms.items():
                        if component_sizes(nu) == target:
                            prod = 1
                            for k in range(2):
                                prod *= lr_coeff(
                                    nu.component(k),
                                    la.component(k),
                                    mu.component(k),
                                )
                            assert c == prod, (la, mu, nu)
                    conc_la = la.concentrated_at()
                    conc_mu = mu.concentrated_at()
                    if (
                        conc_la is not None
                        and conc_la == conc_mu
                    ):
                        t = conc_la
                        for nu, c in coeffs.terms.items():
                            expected = (
                                lr_coeff(
                                    nu.component(t),
                                    la.component(t),
                                    mu.component(t),
                                )
                                if nu.concentrated_at() == t
                                else 0
                            )
                            assert c == expected
    report = scan_structure_constants(5, 2)
    from weylchar.serialize import scan_report_to_obj

    out = tempfile.NamedTemporaryFile(
        "w", prefix="scan-report-", suffix=".json", delete=False
    )
    json.dump(scan_report_to_obj(report), out)
    out.close()
    print(
        f"  scan report emitted to {out.name} (recorded, not asserted): "
        f"scanned={report['scanned']} "
        f"negatives={len(report['c1_violations'])} "
        f"support={len(report['c2_violations'])}"
    )


@criterion(9, "grouped factorization, n<=5 r=3, three groupings")
def test_criterion_09_grouped_factorization():
    groupings = (Grouping([1, 2]), Grouping([2, 1]), Grouping([1, 1, 1]))
    for n in range(6):
        mps = multipartitions(n, 3)
        for p in groupings:
            buckets = {}
            for x in mps:
                buckets.setdefault(group_sizes(x, p), []).append(x)
            for group in buckets.values():
                for la in group:
                    for mu in group:
                        ok, full, prod = grouping_factorization_check(la, mu, p)
                        assert ok, (la, mu, p, full, prod)


@criterion(10, "crystal convention lock, n<=4 r<=3")
def test_criterion_10_convention_lock():
    for r in (1, 2, 3):
        for n in range(1, 5):
            bound = ShapeBound.for_size(n, r)
            ops = tuple(operator_indices(bound))
            for la in multipartitions(n, r):
                shape = SkewShape(la)
                for t in enumerate_all_tableaux(shape, bound):
                    w = reading(t)
                    annihilated = all(etilde(w, op) is None for op in ops)
                    assert annihilated == is_singular(t), (la, t)
                    for op in ops:
                        up = etilde(w, op)
                        if up is not None:
                            assert ftilde(up, op) == w
                        down = ftilde(w, op)
                        if down is not None:
                            assert etilde(down, op) == w
                comps = crystal_components(shape, bound)
                for comp in comps:
                    singulars = [x for x in comp.tableaux if is_singular(x)]
                    assert len(singulars) == 1, (la, comp.highest_weight)


@criterion(11, "worked examples: reading word, equivalences, cell order")
def test_criterion_11_worked_examples():
    la = mp([[3, 2], [3, 1], [1, 1]])
    bound = ShapeBound.for_size(11, 3)
    entries = {
        (1, 1, 1): (1, 1), (1, 2, 1): (1, 1), (1, 3, 1): (1, 2),
        (2, 1, 1): (2, 1), (2, 2, 1): (1, 3),
        (1, 1, 2): (1, 2), (1, 2, 2): (2, 2), (1, 3, 2): (1, 3),
        (2, 1, 2): (2, 2),
        (1, 1, 3): (1, 3), (2, 1, 3): (2, 3),
    }
    mapping = {
        Cell(i - 1, j - 1, k - 1): Entry(a - 1, c - 1)
        for (i, j, k), (a, c) in entries.items()
    }
    t = Tableau.from_cell_map(SkewShape(la), mapping, bound)
    assert is_semistandard(t)
    word = reading(t)
    assert [[a + 1 for a in w] for w in word.words] == [
        [1, 1, 2], [2, 1, 2, 1], [1, 2, 1, 1]
    ]

    shape = [[2, 2], [2, 1]]
    defs = (
        {(1, 1, 1): (1, 1), (1, 2, 1): (1, 1), (2, 1, 1): (1, 2),
         (2, 2, 1): (2, 2), (1, 1, 2): (1, 2), (1, 2, 2): (2, 2),
         (2, 1, 2): (3, 2)},
        {(1, 1, 1): (1, 1), (1, 2, 1): (2, 1), (2, 1, 1): (1, 2),
         (2, 2, 1): (3, 2), (1, 1, 2): (2, 2), (1, 2, 2): (2, 2),
         (2, 1, 2): (4, 2)},
        {(1, 1, 1): (1, 1), (1, 2, 1): (1, 2), (2, 1, 1): (2, 1),
         (2, 2, 1): (3, 2), (1, 1, 2): (2, 2), (1, 2, 2): (2, 2),
         (2, 1, 2): (4, 2)},
        {(1, 1, 1): (1, 1), (1, 2, 1): (2, 2), (2, 1, 1): (3, 1),
         (2, 2, 1): (3, 2), (1, 1, 2): (1, 2), (1, 2, 2): (1, 2),
         (2, 1, 2): (2, 2)},
    )
    eq_la = mp(shape)
    eq_bound = ShapeBound.for_size(7, 2)
    ts = []
    for d in defs:
        m = {
            Cell(i - 1, j - 1, k - 1): Entry(a - 1, c - 1)
            for (i, j, k), (a, c) in d.items()
        }
        ts.append(Tableau.from_cell_map(SkewShape(eq_la), m, eq_bound))
    assert all(is_semistandard(x) for x in ts)
    k1, k2, k3, k4 = (equivalence_key(x) for x in ts)
    assert k1 == k2 and k2 != k3 and k3 == k4

    chain = [Cell(4, 3, 1), Cell(1, 2, 1), Cell(4, 2, 1), Cell(5, 3, 0)]
    for a, b in zip(chain, chain[1:]):
        assert cell_order_cmp(a, b) > 0


@criterion(12, "factorization harness: identity case and random unitriangular")
def test_criterion_12_factorization():
    bound = ShapeBound((3, 3))
    bmat = multiplicity_matrix(3, bound)
    ident = identity_matrix(3, bound)
    derived = derive_decomposition(bmat, ident)
    assert matrix_to_json(derived) == matrix_to_json(bmat)
    rng = random.Random(1105)
    dim = bmat.dim
    for _ in range(10):
        rows = [
            [1 if i == j else (rng.randint(-9, 9) if j > i else 0) for j in range(dim)]
            for i in range(dim)
        ]
        dbar = IndexedMatrix(3, bound, bmat.order, rows)
        derived = derive_decomposition(bmat, dbar)
        report = factorization_residual(bmat, dbar, ident, derived)
        assert report["zero"] and report["max_abs"] == 0
