"""Symmetric polynomials in r alphabets: Schur and monomial expansions,
Weyl-module characters, the character basis, its structure constants, and
the scan backing the positivity/support conjectures.

Products are taken in the stable ring (no cap on part counts); a bound only
enters when expanding into monomials of finitely many variables.
"""

from collections.abc import Mapping
from functools import cache, lru_cache
from itertools import product as iproduct
from math import prod
from types import MappingProxyType

from .errors import InputError
from .branching import (
    _chain_value,
    _kostka,
    _subpartitions,
    invert_unitriangular,
    lr_coeff,
    multiplicity_matrix,
)
from .shapes import (
    EMPTY,
    Frozen,
    MultiComposition,
    MultiPartition,
    Partition,
    ShapeBound,
    canonical_key,
    compositions_of,
    expect,
    ints,
    multipartitions,
    one_r,
    partitions_of,
    size_and_count,
)


class SchurExpansion(Frozen):
    """Finitely supported integer combination of Schur-product basis elements."""

    __slots__ = ("r", "degree", "terms")

    def __init__(self, r: int, degree: int, terms: dict):
        expect(Mapping, terms)
        clean = {mp: c for mp, c in zip(terms, ints(terms.values())) if c}
        expect(MultiPartition, *clean)
        for mp in clean:
            if mp.r != r or mp.size != degree:
                raise InputError(f"index {mp} not of degree {degree} with {r} components")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def coeff(self, mp: MultiPartition) -> int:
        return self.terms.get(mp, 0)

    def canonical_items(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0]))

    def _key(self) -> tuple:
        return self.r, self.degree, self.terms

    __hash__ = None

    def __repr__(self) -> str:
        parts = " + ".join(f"{c}*S{mp!r}" for mp, c in self.canonical_items())
        return parts or "0"


class MonomialPoly(Frozen):
    """Finitely supported integer combination of monomials x^mu."""

    __slots__ = ("bound", "degree", "terms")

    def __init__(self, bound: ShapeBound, degree: int, terms: dict):
        expect(ShapeBound, bound)
        expect(Mapping, terms)
        clean = {mc: c for mc, c in zip(terms, ints(terms.values())) if c}
        expect(MultiComposition, *clean)
        for mc in clean:
            if mc.size != degree or tuple(map(len, mc.rows)) != bound.m:
                raise InputError(f"monomial {mc} does not match degree/bound")
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def coeff(self, mc: MultiComposition) -> int:
        return self.terms.get(mc, 0)

    def canonical_items(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: kv[0].rows, reverse=True)

    def _key(self) -> tuple:
        return self.bound, self.degree, self.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"MonomialPoly(degree={self.degree}, {len(self.terms)} terms)"


@cache
def _schur_component_monomials(p: Partition, m: int) -> tuple:
    """Monomial expansion of one Schur polynomial in m variables, as its
    (composition, Kostka number) pairs with a nonzero number."""
    pairs = ((w, _kostka(p.parts, w)) for w in compositions_of(p.size, m))
    return tuple((w, c) for w, c in pairs if c)


def _monomials(row, bound: ShapeBound, degree: int) -> MonomialPoly:
    """The monomial expansion of the sum of b * s_mu over the (mu, b) pairs
    of row, s_mu the product of the component Schur polynomials. Terms are
    summed by row tuples, each the product of its component Kostka numbers,
    and each multicomposition is built once, for the polynomial returned,
    without checking again the rows that compositions_of made."""
    terms: dict = {}
    for mu, b in row:
        factors = [
            _schur_component_monomials(c, mk) for c, mk in zip(mu.components, bound.m)
        ]
        for combo in iproduct(*factors):
            rows, coeffs = zip(*combo)
            terms[rows] = terms.get(rows, 0) + b * prod(coeffs)
    return MonomialPoly(
        bound,
        degree,
        {MultiComposition._trusted(rows, degree): c for rows, c in terms.items()},
    )


def schur_to_monomials(la: MultiPartition, bound: ShapeBound) -> MonomialPoly:
    """Monomial expansion of the product of component Schur polynomials.

    The coefficient of x^mu is the product of the component Kostka numbers.
    """
    if not la.fits(bound):
        raise InputError(f"{la} does not fit {bound}")
    return _monomials(((la, 1),), bound, la.size)


def weyl_schur(la: MultiPartition) -> SchurExpansion:
    """The Weyl-module character written in the Schur-product basis.

    Its coefficients form the chain-route multiplicity row of la, so the
    expansion is unitriangular against the Schur basis. Memoized: each la
    has one expansion.
    """
    expect(MultiPartition, la)
    return _weyl_schur(la)


@cache
def _weyl_schur(la: MultiPartition) -> SchurExpansion:
    row = {mu: _chain_value(la, mu) for mu in multipartitions(la.size, la.r)}
    return SchurExpansion(la.r, la.size, row)


def character(la: MultiPartition, bound: ShapeBound = None) -> MonomialPoly:
    """Monomial character of the Weyl module attached to la.

    Computed as the multiplicity-weighted sum of Schur monomial expansions,
    in one pass over the row weyl_schur(la); by construction the coefficient
    of x^mu equals the semistandard tableau count of shape la and weight mu.
    """
    expect(MultiPartition, la)
    if bound is None:
        bound = ShapeBound.for_size(la.size, la.r)
    expect(ShapeBound, bound)
    one_r(la, bound)
    bound.require_stable(la.size)
    return _monomials(weyl_schur(la).terms.items(), bound, la.size)


@cache
def _schur_times(p: Partition, q: Partition) -> tuple:
    """Single-alphabet Schur product expansion as ((partition, coeff), ...)."""
    out = []
    for nu in partitions_of(p.size + q.size):
        c = lr_coeff(nu, p, q)
        if c:
            out.append((nu, c))
    return tuple(out)


@lru_cache(maxsize=1)
def _product_table(r: int, da: int, db: int) -> tuple:
    """The Schur-basis products s_xi * s_eta met so far with |xi| = da and
    |eta| = db, keyed by (xi, eta), and the result multipartitions built for
    them, keyed by components. One entry: the scan multiplies its size pairs
    one after another, so a size pair's table goes when the next one
    starts."""
    return {}, {}


def _basis_product(xi: MultiPartition, eta: MultiPartition, interned: dict) -> tuple:
    """s_xi * s_eta as ((nu, coeff), ...), componentwise LR; each nu is
    built once per table through interned."""
    out = []
    factor_lists = [_schur_times(p, q) for p, q in zip(xi.components, eta.components)]
    for combo in iproduct(*factor_lists):
        key = tuple(part for part, _ in combo)
        nu = interned.get(key)
        if nu is None:
            nu = interned[key] = MultiPartition(key)
        c = 1
        for _, lr in combo:
            c *= lr
        out.append((nu, c))
    return tuple(out)


def schur_product(a: SchurExpansion, b: SchurExpansion) -> SchurExpansion:
    """Product of Schur expansions in the stable ring, componentwise LR."""
    expect(SchurExpansion, a, b)
    one_r(a, b)
    products, interned = _product_table(a.r, a.degree, b.degree)
    terms: dict = {}
    for xi, ca in a.terms.items():
        for eta, cb in b.terms.items():
            pair = products.get((xi, eta))
            if pair is None:
                pair = products[xi, eta] = _basis_product(xi, eta, interned)
            weight = ca * cb
            for nu, c in pair:
                terms[nu] = terms.get(nu, 0) + weight * c
    return SchurExpansion(a.r, a.degree + b.degree, terms)


@cache
def _basis_change(degree: int, r: int) -> dict:
    """The inverse multiplicity matrix at a degree, stable bound, as sparse
    rows: each index entry maps to the nonzero (position, coefficient) pairs
    of its row, a position being one in multipartitions(degree, r). The
    matrix itself is not kept: its row at la is weyl_schur(la)."""
    bound = ShapeBound.for_size(degree, r)
    inv = invert_unitriangular(multiplicity_matrix(degree, bound, method="chain"))
    return {
        src: tuple((j, c) for j, c in enumerate(row) if c)
        for src, row in zip(inv.order, inv.rows)
    }


def to_weyl_basis(expansion: SchurExpansion) -> SchurExpansion:
    """Rewrite a Schur-basis expansion in the character basis. The sum is
    kept by position in the canonical order of the degree, so no
    multipartition is hashed per product."""
    rows = _basis_change(expansion.degree, expansion.r)
    order = multipartitions(expansion.degree, expansion.r)
    acc = [0] * len(order)
    for src, a in expansion.terms.items():
        for j, c in rows[src]:
            acc[j] += a * c
    terms = {order[j]: x for j, x in enumerate(acc) if x}
    return SchurExpansion(expansion.r, expansion.degree, terms)


def to_schur_basis(expansion: SchurExpansion) -> SchurExpansion:
    """Rewrite a character-basis expansion in the Schur basis: the basis
    element la is weyl_schur(la)."""
    terms: dict = {}
    for la, a in expansion.terms.items():
        for mu, c in weyl_schur(la).terms.items():
            terms[mu] = terms.get(mu, 0) + a * c
    return SchurExpansion(expansion.r, expansion.degree, terms)


def structure_constants(la: MultiPartition, mu: MultiPartition) -> SchurExpansion:
    """Expansion of a product of two character-basis elements in that basis."""
    expect(MultiPartition, la, mu)
    one_r(la, mu)
    product = schur_product(weyl_schur(la), weyl_schur(mu))
    return to_weyl_basis(product)


def union_alphabet_schur(p, t: int, r: int) -> SchurExpansion:
    """One Schur function evaluated on the union of the alphabets t..r-1.

    Expanded into the Schur-product basis through the iterated coproduct
    S(X u Y) = sum of LR-weighted pairs; components before t carry the empty
    partition. Components are 0-based.
    """
    p = p if isinstance(p, Partition) else Partition(p)
    _, r = size_and_count(p.size, r)
    [t] = ints((t,))
    if not 0 <= t < r:
        raise InputError(f"component {t} out of range for r={r}")

    # One level per component from t on. Each state is [the partitions
    # chosen so far, the partition left for the remaining alphabets, its
    # coefficient]; splitting off the next component keeps the states in
    # first-seen order. A state with nothing left is carried as it is,
    # without rehashing its prefix: every later component is empty, and no
    # other state reaches its extension.
    states = [[(), p, 1]]
    for _ in range(t, r - 1):
        nxt, seen = [], {}
        for state in states:
            chosen, q, c = state
            if not q.size:
                nxt.append(state)
                continue
            for alpha in _subpartitions(q):
                for gamma in partitions_of(q.size - alpha.size):
                    lr = lr_coeff(q, alpha, gamma)
                    if not lr:
                        continue
                    key = (chosen + (alpha,), gamma)
                    if key not in seen:
                        seen[key] = [key[0], gamma, 0]
                        nxt.append(seen[key])
                    seen[key][2] += c * lr
        states = nxt
    head = (EMPTY,) * t
    terms = {
        MultiPartition(head + chosen + (q,) + (EMPTY,) * (r - t - 1 - len(chosen))): c
        for chosen, q, c in states
    }
    return SchurExpansion(r, p.size, terms)


def truncate_to_bound(expansion: SchurExpansion, bound: ShapeBound) -> SchurExpansion:
    """Drop terms whose index does not fit the bound.

    Products live in the stable ring; restricting to finitely many variables
    kills every Schur factor with more rows than variables.
    """
    expect(SchurExpansion, expansion)
    expect(ShapeBound, bound)
    one_r(expansion, bound)
    return SchurExpansion(
        expansion.r,
        expansion.degree,
        {mp: c for mp, c in expansion.terms.items() if mp.fits(bound)},
    )


def scan_structure_constants(n_max: int, r: int) -> dict:
    """Exhaustive structure-constant scan for the two open claims.

    Reports every negative coefficient and every nonzero coefficient whose
    component-size vector differs from that of the factor sum. Violations
    are reported, never asserted absent.
    """
    n_max, r = size_and_count(n_max, r)
    # The product is commutative, so each unordered pair is computed once:
    # (la, mu) at position (a, i) x (b, j) when (a, i) <= (b, j). Its swap
    # comes later in the scan and has the same violations with la and mu
    # exchanged; the nonempty ones are held until the swap reads them.
    scanned, negatives, support = 0, [], []
    held: dict = {}
    for total in range(n_max + 1):
        for a in range(total + 1):
            b = total - a
            rights = multipartitions(b, r)
            for i, la in enumerate(multipartitions(a, r)):
                for j, mu in enumerate(rights):
                    scanned += 1
                    if (a, i) > (b, j):
                        neg, sup = held.pop((mu, la), ((), ()))
                    else:
                        neg, sup = _violations(la, mu)
                        if (neg or sup) and (a, i) < (b, j):
                            held[la, mu] = neg, sup
                    negatives += [(la, mu, nu, c) for nu, c in neg]
                    support += [(la, mu, nu, c) for nu, c in sup]
    return {
        "n_max": n_max,
        "r": r,
        "scanned": scanned,
        "c1_violations": negatives,
        "c2_violations": support,
    }


def _violations(la: MultiPartition, mu: MultiPartition) -> tuple:
    """The (nu, c) terms of structure_constants(la, mu) that break each
    claim, in canonical order: negative ones, and nonzero ones whose
    component-size vector is not that of the factor sum."""
    target = tuple(x.size + y.size for x, y in zip(la.components, mu.components))
    negatives, support = [], []
    for nu, c in structure_constants(la, mu).canonical_items():
        if c < 0:
            negatives.append((nu, c))
        if c and tuple(comp.size for comp in nu.components) != target:
            support.append((nu, c))
    return negatives, support
