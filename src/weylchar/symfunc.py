"""Symmetric polynomials in r alphabets: Schur and monomial expansions,
Weyl-module characters, the character basis, its structure constants, and
the scan backing the positivity/support conjectures.

Products are taken in the stable ring (no cap on part counts); a bound only
enters when expanding into monomials of finitely many variables.
"""

from functools import cache
from itertools import product as iproduct

from .errors import InputError
from .branching import (
    invert_unitriangular,
    kostka,
    lr_coeff,
    multiplicity_matrix,
    multiplicity,
)
from .shapes import (
    Frozen,
    MultiComposition,
    MultiPartition,
    Partition,
    ShapeBound,
    canonical_key,
    compositions_of,
    multipartitions,
    partitions_of,
)


class SchurExpansion(Frozen):
    """Finitely supported integer combination of Schur-product basis elements."""

    __slots__ = ("r", "degree", "terms")

    def __init__(self, r: int, degree: int, terms: dict):
        clean = {mp: int(c) for mp, c in terms.items() if c}
        for mp in clean:
            if mp.r != r or mp.size != degree:
                raise InputError(f"index {mp} not of degree {degree} with {r} components")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def coeff(self, mp: MultiPartition) -> int:
        return self.terms.get(mp, 0)

    def canonical_items(self) -> list:
        bound = ShapeBound.for_size(self.degree, self.r)
        return sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0], bound))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchurExpansion)
            and self.r == other.r
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        parts = " + ".join(f"{c}*S{mp!r}" for mp, c in self.canonical_items())
        return parts or "0"


class MonomialPoly(Frozen):
    """Finitely supported integer combination of monomials x^mu."""

    __slots__ = ("bound", "degree", "terms")

    def __init__(self, bound: ShapeBound, degree: int, terms: dict):
        clean = {mc: int(c) for mc, c in terms.items() if c}
        for mc in clean:
            if mc.size != degree or mc.bound != bound:
                raise InputError(f"monomial {mc} does not match degree/bound")
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def coeff(self, mc: MultiComposition) -> int:
        return self.terms.get(mc, 0)

    def canonical_items(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: kv[0].rows, reverse=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialPoly)
            and self.bound == other.bound
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"MonomialPoly(degree={self.degree}, {len(self.terms)} terms)"


@cache
def _schur_component_monomials(p: Partition, m: int) -> dict:
    """Monomial expansion of one Schur polynomial in m variables."""
    out = {}
    for w in compositions_of(p.size, m):
        c = kostka(p, w)
        if c:
            out[w] = c
    return out


def schur_to_monomials(la: MultiPartition, bound: ShapeBound) -> MonomialPoly:
    """Monomial expansion of the product of component Schur polynomials.

    The coefficient of x^mu is the product of the component Kostka numbers.
    """
    if not la.fits(bound):
        raise InputError(f"{la} does not fit {bound}")
    factor_dicts = [
        _schur_component_monomials(c, mk) for c, mk in zip(la.components, bound.m)
    ]
    terms: dict = {}
    for combo in iproduct(*(d.items() for d in factor_dicts)):
        rows = tuple(w for w, _ in combo)
        coeff = 1
        for _, c in combo:
            coeff *= c
        terms[MultiComposition(rows)] = coeff
    return MonomialPoly(bound, la.size, terms)


def weyl_schur(la: MultiPartition, bound: ShapeBound = None) -> SchurExpansion:
    """The Weyl-module character written in the Schur-product basis.

    Its coefficients form the multiplicity row of la, so the expansion is
    unitriangular against the Schur basis.
    """
    if bound is None:
        bound = ShapeBound.for_size(la.size, la.r)
    terms = {
        mu: multiplicity(la, mu, bound, method="chain")
        for mu in multipartitions(la.size, bound)
    }
    return SchurExpansion(la.r, la.size, terms)


def character(la: MultiPartition, bound: ShapeBound = None) -> MonomialPoly:
    """Monomial character of the Weyl module attached to la.

    Computed as the multiplicity-weighted sum of Schur monomial expansions;
    by construction the coefficient of x^mu equals the semistandard tableau
    count of shape la and weight mu.
    """
    if bound is None:
        bound = ShapeBound.for_size(la.size, la.r)
    expansion = weyl_schur(la, bound)
    terms: dict = {}
    for mu, b in expansion.terms.items():
        for mc, c in schur_to_monomials(mu, bound).terms.items():
            terms[mc] = terms.get(mc, 0) + b * c
    return MonomialPoly(bound, la.size, terms)


@cache
def _schur_times(p: Partition, q: Partition) -> tuple:
    """Single-alphabet Schur product expansion as ((partition, coeff), ...)."""
    out = []
    for nu in partitions_of(p.size + q.size):
        c = lr_coeff(nu, p, q)
        if c:
            out.append((nu, c))
    return tuple(out)


def schur_product(a: SchurExpansion, b: SchurExpansion) -> SchurExpansion:
    """Product of Schur expansions in the stable ring, componentwise LR."""
    if a.r != b.r:
        raise InputError("component counts disagree")
    terms: dict = {}
    for xi, ca in a.terms.items():
        for eta, cb in b.terms.items():
            weight = ca * cb
            factor_lists = [
                _schur_times(p, q) for p, q in zip(xi.components, eta.components)
            ]
            for combo in iproduct(*factor_lists):
                mp = MultiPartition(tuple(part for part, _ in combo))
                c = weight
                for _, lr in combo:
                    c *= lr
                terms[mp] = terms.get(mp, 0) + c
    return SchurExpansion(a.r, a.degree + b.degree, terms)


@cache
def _basis_change(degree: int, r: int) -> tuple:
    """Multiplicity matrix and its inverse at a degree, stable bound."""
    bound = ShapeBound.for_size(degree, r)
    mat = multiplicity_matrix(degree, bound, method="chain")
    return mat, invert_unitriangular(mat)


def _change_basis(expansion: SchurExpansion, mat) -> SchurExpansion:
    """Multiply the coefficient row vector of an expansion by mat."""
    terms: dict = {}
    for src, a in expansion.terms.items():
        row = mat.rows[mat._pos[src]]
        for c, dst in zip(row, mat.order):
            if c:
                terms[dst] = terms.get(dst, 0) + a * c
    return SchurExpansion(expansion.r, expansion.degree, terms)


def to_weyl_basis(expansion: SchurExpansion) -> SchurExpansion:
    """Rewrite a Schur-basis expansion in the character basis."""
    _, inv = _basis_change(expansion.degree, expansion.r)
    return _change_basis(expansion, inv)


def to_schur_basis(expansion: SchurExpansion) -> SchurExpansion:
    """Rewrite a character-basis expansion in the Schur basis."""
    mat, _ = _basis_change(expansion.degree, expansion.r)
    return _change_basis(expansion, mat)


def structure_constants(la: MultiPartition, mu: MultiPartition) -> SchurExpansion:
    """Expansion of a product of two character-basis elements in that basis."""
    if la.r != mu.r:
        raise InputError("component counts disagree")
    product = schur_product(weyl_schur(la), weyl_schur(mu))
    return to_weyl_basis(product)


def union_alphabet_schur(p, t: int, r: int) -> SchurExpansion:
    """One Schur function evaluated on the union of the alphabets t..r-1.

    Expanded into the Schur-product basis through the iterated coproduct
    S(X u Y) = sum of LR-weighted pairs; components before t carry the empty
    partition. Components are 0-based.
    """
    p = p if isinstance(p, Partition) else Partition(p)
    if not 0 <= t < r:
        raise InputError(f"component {t} out of range for r={r}")

    def expand(q: Partition, k: int) -> dict:
        if k == r - 1:
            return {(q,): 1}
        out: dict = {}
        for sz in range(q.size + 1):
            for alpha in partitions_of(sz):
                if not q.contains(alpha):
                    continue
                for gamma in partitions_of(q.size - sz):
                    c = lr_coeff(q, alpha, gamma)
                    if not c:
                        continue
                    for rest, c2 in expand(gamma, k + 1).items():
                        key = (alpha,) + rest
                        out[key] = out.get(key, 0) + c * c2
        return out

    terms = {
        MultiPartition((Partition(),) * t + tail): c
        for tail, c in expand(p, t).items()
    }
    return SchurExpansion(r, p.size, terms)


def truncate_to_bound(expansion: SchurExpansion, bound: ShapeBound) -> SchurExpansion:
    """Drop terms whose index does not fit the bound.

    Products live in the stable ring; restricting to finitely many variables
    kills every Schur factor with more rows than variables.
    """
    if bound.r != expansion.r:
        raise InputError("component counts disagree")
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
    pairs = []
    for total in range(n_max + 1):
        for a in range(total + 1):
            b = total - a
            for la in multipartitions(a, ShapeBound.for_size(a, r)):
                for mu in multipartitions(b, ShapeBound.for_size(b, r)):
                    pairs.append((la, mu))

    negatives, support = [], []
    for la, mu in pairs:
        target_sizes = tuple(
            x.size + y.size for x, y in zip(la.components, mu.components)
        )
        for nu, c in structure_constants(la, mu).canonical_items():
            sizes = tuple(comp.size for comp in nu.components)
            if c < 0:
                negatives.append((la, mu, nu, c))
            if c and sizes != target_sizes:
                support.append((la, mu, nu, c))
    return {
        "n_max": n_max,
        "r": r,
        "scanned": len(pairs),
        "c1_violations": negatives,
        "c2_violations": support,
    }
