"""Metamorphic relations: transformations of the input that must leave every
route's answer unchanged, checked exhaustively at small sizes.

  * Conjugation. The involution omega sends each component Schur function
    s_p to s_p', so beta(la, mu) = beta(la', mu') with every component
    conjugated, and the structure constants of the character basis satisfy
    c(la, mu; nu) = c(la', mu'; nu').
  * Empty components. Setting an alphabet to zero removes a component that
    is empty in both la and mu, so inserting one leaves beta unchanged.
"""

import pytest

from weylchar import (
    MultiPartition,
    Partition,
    multipartitions,
    multiplicity,
    structure_constants,
)
from weylchar.shapes import EMPTY


def conjugate(la: MultiPartition) -> MultiPartition:
    return MultiPartition(
        Partition(sum(1 for x in c.parts if x > j) for j in range(c.row(0)))
        for c in la.components
    )


def with_empty(la: MultiPartition, k: int) -> MultiPartition:
    comps = la.components
    return MultiPartition(comps[:k] + (EMPTY,) + comps[k:])


CONJUGATION_SIZES = {
    "chain": ((2, 7), (3, 5), (4, 4)),
    "solve": ((2, 5), (3, 4)),
    "singular": ((2, 5), (3, 4)),
}


@pytest.mark.parametrize("method", sorted(CONJUGATION_SIZES))
def test_conjugation_keeps_beta(method):
    for r, n_max in CONJUGATION_SIZES[method]:
        for n in range(n_max + 1):
            order = multipartitions(n, r)
            conj = {la: conjugate(la) for la in order}
            assert sorted(conj.values(), key=order.index) == list(order)
            for la in order:
                for mu in order:
                    assert multiplicity(la, mu, method=method) == multiplicity(
                        conj[la], conj[mu], method=method
                    ), (method, la, mu)


def test_empty_component_keeps_chain_beta():
    for r, n_max in ((1, 7), (2, 5), (3, 4)):
        for n in range(n_max + 1):
            order = multipartitions(n, r)
            for la in order:
                for mu in order:
                    value = multiplicity(la, mu)
                    for k in range(r + 1):
                        wide = multiplicity(with_empty(la, k), with_empty(mu, k))
                        assert wide == value, (la, mu, k)


def test_conjugation_keeps_structure_constants():
    r = 2
    for total in range(7):
        for a in range(total + 1):
            for la in multipartitions(a, r):
                for mu in multipartitions(total - a, r):
                    expected = {
                        conjugate(nu): c
                        for nu, c in structure_constants(la, mu).terms.items()
                    }
                    got = structure_constants(conjugate(la), conjugate(mu)).terms
                    assert got == expected, (la, mu)
