"""Multiplicities of products of one-component highest-weight modules inside
a restricted Weyl module, computed three independent ways, plus the matrix
machinery built on them.

The three routes:
  * singular -- enumerate semistandard fillings of the straight shape and
    count those whose reading word passes the prefix-partition test;
  * chain    -- slice the shape into nested skew layers, one per component
    of the weight, and multiply singular skew counts over each slicing; the
    slicings depend on the weight's size vector only, so they are built once
    per row block (shape, size vector), indexed by their innermost level,
    and an entry reads only the slicings whose innermost level is its own
    component 0, where the component-0 factor is 1 and is not counted. The
    levels under a level are memoized, so blocks share them. Each layer is
    replaced by its count shape: its connected pieces, each moved to the
    origin and kept as whichever of it and its 180-degree rotation has
    fewer outer cells, sorted, one piece per component, all filled by the
    last alphabet.
    Every layer with the same pieces has the same count, so the skew-count
    memo counts each count shape once, found by identity. The route
    memoizes its blocks, levels, layers, count shapes and skew counts, but
    not its entries: a matrix has d^2 of them, and each is read once per
    pass over the matrix;
  * solve    -- solve the unitriangular linear system that expresses tableau
    counts through Kostka numbers.
All arithmetic is exact integer arithmetic.
"""

import warnings
from functools import cache, lru_cache
from typing import Iterator, Optional

from .errors import ConsistencyError, InputError
from .crystal import is_singular
from .shapes import (
    EMPTY,
    Frozen,
    MultiPartition,
    Partition,
    Grouping,
    ShapeBound,
    SkewShape,
    as_composition,
    ints,
    multipartitions,
    split_components,
    weak_composition,
)
from .tableaux import count_straight_tableaux, enumerate_tableaux

METHODS = ("singular", "chain", "solve")


# ---------------------------------------------------------------------------
# Kostka numbers


@cache
def _kostka(shape: tuple, weight: tuple) -> int:
    if sum(shape) != sum(weight):
        return 0
    while weight and weight[-1] == 0:
        weight = weight[:-1]
    if not weight:
        return 1 if not shape else 0
    # Peel the cells holding the largest letter: a horizontal strip, so the
    # leftover rows eta interlace the shape (a missing row of eta reads 0).
    size = sum(shape) - weight[-1]
    return sum(
        _kostka(eta.parts, weight[:-1])
        for eta in _subpartitions(Partition(shape))
        if eta.size == size
        and all(eta.row(i) >= below for i, below in enumerate(shape[1:]))
    )


def kostka(shape, weight) -> int:
    """Number of semistandard fillings of a one-component shape and weight."""
    sh = (shape if isinstance(shape, Partition) else Partition(shape)).parts
    return _kostka(sh, weak_composition(weight, sum(sh)))


# ---------------------------------------------------------------------------
# Classical Littlewood-Richardson coefficients (lattice-word rule)


def _lattice_count(right: list, above: list, weight: tuple) -> int:
    """Fillings of cells 0..n-1 by letters of the given weight, read in cell
    order, that form a lattice word.

    right[p] and above[p] are the positions of the neighbors of cell p, or
    None; both come before p, so rows weakly increase and columns strictly
    increase. Every prefix must stay a lattice word, which prunes the
    backtracking as it goes. The backtracking is one loop over the cells,
    not one call per cell, so a long shape cannot exhaust the stack:
    placed[p] is the letter in cell p, or -1 while the cell has none.
    """
    letters = len(weight)
    n = len(right)
    counts = [0] * letters
    placed = [-1] * n
    total, pos = 0, 0
    while pos >= 0:
        if pos == n:
            total += 1
            pos -= 1
            continue
        a = placed[pos]
        if a >= 0:  # back at this cell: take its letter off, try the next
            counts[a] -= 1
            a += 1
        elif above[pos] is not None:
            a = placed[above[pos]] + 1
        else:
            a = 0
        rp = right[pos]
        hi = placed[rp] if rp is not None else letters - 1
        # Skip a used-up letter and one after which the prefix would stop
        # being a lattice word.
        while a <= hi and (counts[a] == weight[a] or a and counts[a - 1] <= counts[a]):
            a += 1
        if a > hi:
            placed[pos] = -1
            pos -= 1
        else:
            counts[a] += 1
            placed[pos] = a
            pos += 1
    return total


@cache
def _lr(outer: tuple, inner: tuple, weight: tuple) -> int:
    rows = len(outer)
    inner = inner + (0,) * (rows - len(inner))
    # Reverse reading order: rows top to bottom, each row right to left. The
    # neighbor above and the neighbor to the right are both already filled.
    cells = [
        (i, j) for i in range(rows) for j in range(outer[i] - 1, inner[i] - 1, -1)
    ]
    pos = {cell: p for p, cell in enumerate(cells)}
    return _lattice_count(
        [pos.get((i, j + 1)) for i, j in cells],
        [pos.get((i - 1, j)) for i, j in cells],
        weight,
    )


def lr_coeff(outer, inner, weight) -> int:
    """Littlewood-Richardson coefficient by the classical lattice-word rule.

    Counts semistandard fillings of the skew shape outer/inner with the given
    weight whose reverse reading word is a lattice word. Returns 0 on any
    size or containment failure.
    """
    nu = outer if isinstance(outer, Partition) else Partition(outer)
    la = inner if isinstance(inner, Partition) else Partition(inner)
    mu = weight if isinstance(weight, Partition) else Partition(weight)
    if nu.size != la.size + mu.size or not nu.contains(la):
        return 0
    if mu.size == 0:
        return 1 if nu == la else 0
    return _lr(nu.parts, la.parts, mu.parts)


# ---------------------------------------------------------------------------
# Singular skew counts and the three multiplicity routes


@cache
def skew_singular_count(shape: SkewShape, comp: int, weight_row: tuple) -> int:
    """Singular semistandard fillings of a skew shape by one alphabet.

    Entries all carry component `comp`; the count is of fillings whose
    reading word satisfies the prefix-partition test. Cells are filled in
    reading order, so the prefix test prunes the backtracking as it goes:
    every partial filling already read so far must stay a lattice word.
    """
    weight_row = weak_composition(weight_row, shape.n_cells)
    if not 0 <= comp < shape.r:
        raise InputError(f"component {comp} out of range")
    cells, right, above = shape.neighbours()
    if any(c.k > comp for c in cells):
        return 0
    return _lattice_count(right, above, weight_row)


@cache
def _singular_value(la: MultiPartition, mu: MultiPartition) -> int:
    """Count singular semistandard fillings of shape la with weight mu."""
    weight = as_composition(mu, ShapeBound.for_size(la.size, la.r))
    return sum(
        1 for t in enumerate_tableaux(SkewShape(la), weight) if is_singular(t)
    )


@cache
def _subpartitions(p: Partition) -> tuple:
    """All partitions contained in p, in descending lexicographic order.

    Built from the last row up: each row prefixes a value v to every shape
    of the rows below whose first row is at most v, then adds the empty one.
    """
    subs = [()]
    for cap in reversed(p.parts):
        subs = [(v,) + q for v in range(cap, 0, -1) for q in subs if not q or q[0] <= v]
        subs.append(())
    return tuple(map(Partition, subs))


def _sized_picks(pools: list, target: int) -> list:
    """Every tuple of one item per pool whose sizes sum to target, in the
    order itertools.product gives.

    The tuples grow one pool at a time, each partial tuple extended in list
    order, so no stack frame is taken per pool. An item is taken only when
    the pools after it can still make up the rest of the target.
    """
    # Together the pools j.. take between lo[j] and hi[j] cells.
    lo, hi = [0], [0]
    for pool in reversed(pools):
        sizes = [q.size for q in pool]
        lo.append(lo[-1] + min(sizes, default=0))
        hi.append(hi[-1] + max(sizes, default=0))
    lo.reverse()
    hi.reverse()
    partial = [((), target)] if lo[0] <= target <= hi[0] else []
    for j, pool in enumerate(pools):
        partial = [
            (picks + (q,), need - q.size)
            for picks, need in partial
            for q in pool
            if lo[j + 1] <= need - q.size <= hi[j + 1]
        ]
    return [picks for picks, _ in partial]


@cache
def _lower_levels(level: MultiPartition, k: int, target: int) -> tuple:
    """Every level that fits under level as levels[k-1] of a slicing: of
    size target, its components 0..k-2 inside those of level, the rest
    empty. In the product order of the _subpartitions pools. Only the
    nonempty components among 0..k-2 get a pool: an empty one stays empty,
    its pool being the empty partition alone, so the order is the same."""
    picked = [j for j in range(k - 1) if level.component(j).size]
    pools = [_subpartitions(level.component(j)) for j in picked]
    lower = []
    for picks in _sized_picks(pools, target):
        comps = [EMPTY] * level.r
        for j, q in zip(picked, picks):
            comps[j] = q
        lower.append(MultiPartition(comps))
    return tuple(lower)


def layer_chains(la: MultiPartition, sizes: tuple) -> Iterator[tuple]:
    """All slicings of la into nested layers of the given sizes.

    sizes is the size vector of a weight mu. The slicings depend on nothing
    else of mu, so one enumeration serves the whole row block of la with
    that size vector. Yields tuples (levels[0], ..., levels[r]) of
    multipartitions: levels[r] is la, levels[0] is empty, level k has empty
    components past k, and the layer from levels[k] to levels[k+1] has
    exactly sizes[k] cells. The chains are built level by level from la
    down, each partial chain extended in list order, so they come in
    lexicographic order of their levels from levels[r-1] down. The levels
    under one level are memoized, so every block that reaches a level
    shares them.
    """
    if not isinstance(la, MultiPartition):
        raise InputError(f"expected a MultiPartition, got {la!r}")
    sizes = weak_composition(sizes, la.size)
    if len(sizes) != la.r:
        raise InputError("component counts disagree")
    chains = [(la,)]
    for k in range(la.r, 0, -1):
        # chain[0] plays levels[k]; the new front is levels[k-1].
        chains = [
            (lower,) + chain
            for chain in chains
            for lower in _lower_levels(chain[0], k, chain[0].size - sizes[k - 1])
        ]
    return iter(chains)


def _canonical_piece(rows: list) -> tuple:
    """One connected piece, given as its (outer, inner) row pairs from the
    top: moved to the origin, then the one of it and its 180-degree rotation
    with the fewer outer cells, the smaller tuple on a tie. Both have the
    same skew Schur function, and the outer cells stay within the piece's
    own rows."""
    top, shift = rows[0][0], rows[-1][1]
    piece = tuple((a - shift, b - shift) for a, b in rows)
    turned = tuple((top - b, top - a) for a, b in reversed(rows))
    return min(piece, turned, key=lambda p: (sum(a for a, _ in p), p))


@cache
def _pieces(outer: Partition, inner: Partition) -> tuple:
    """The connected pieces of the skew diagram outer/inner, from the top,
    each in its canonical form. Rows i and i+1 share a piece when they
    share a column, i.e. inner row i ends left of outer row i+1; an empty
    row ends a piece."""
    pieces, rows = [], []
    for i, a in enumerate(outer.parts):
        b = inner.row(i)
        if rows and (a == b or rows[-1][1] >= a):
            pieces.append(_canonical_piece(rows))
            rows = []
        if a > b:
            rows.append((a, b))
    if rows:
        pieces.append(_canonical_piece(rows))
    return tuple(pieces)


@cache
def _count_shape(pieces: tuple) -> SkewShape:
    """The sorted pieces as one skew shape, one piece per component (one
    empty component when there is none). Filled by its last alphabet, its
    reading word runs through the pieces one after another, so its count is
    the coefficient in the product of their skew Schur functions. Its outer
    size is at most the layer's. One object per piece tuple."""
    if not pieces:
        return SkewShape(MultiPartition([EMPTY]))
    return SkewShape(
        MultiPartition([[a for a, _ in piece] for piece in pieces]),
        MultiPartition([[b for _, b in piece] for piece in pieces]),
    )


@cache
def _layer(outer: MultiPartition, inner: MultiPartition) -> SkewShape:
    """The count shape of the layer outer/inner. A layer's singular count
    for a partition weight nu is the coefficient of s_nu in the product of
    the skew Schur functions of its connected pieces, whatever component
    each piece lies in, where it sits, and whether it is turned by 180
    degrees. So every layer with the same canonical pieces shares one
    count shape, and the skew-count memo counts it once, by identity."""
    pieces = sorted(
        piece
        for a, b in zip(outer.components, inner.components)
        for piece in _pieces(a, b)
    )
    return _count_shape(tuple(pieces))


# The component-0 layer of a slicing is its straight innermost level eta =
# levels[1], filled by alphabet 0 alone. Its singular count c^eta_{0,nu} is
# 1 when eta is mu's component 0 = nu and 0 otherwise, so each block keeps
# its slicings grouped by the parts of eta, an entry reads only the group
# of its own component 0, and that factor is never counted: a slicing keeps
# only its layers 1..r-1. One block entry suffices: multipartitions sorts by
# size vector first, so each reader of a row (multiplicity_matrix and
# symfunc.weyl_schur) reads each of its blocks in one run. The structure-
# constant scan reads every row twice, through weyl_schur and through the
# multiplicity matrix behind symfunc._basis_change, so it builds each block
# twice; the second build finds its levels, layers and counts memoized.
@lru_cache(maxsize=1)
def _chain_layers(la: MultiPartition, sizes: tuple) -> dict:
    """The row block of (la, sizes): the parts of each innermost level, mapped
    to its slicings, each slicing as the count shapes of its layers 1..r-1,
    each with its last alphabet, the one that may fill all its pieces."""
    groups: dict = {}
    for levels in layer_chains(la, sizes):
        shapes = [_layer(levels[k + 1], levels[k]) for k in range(1, la.r)]
        layers = tuple((shape, shape.r - 1) for shape in shapes)
        groups.setdefault(levels[1].component(0).parts, []).append(layers)
    return {eta: tuple(slicings) for eta, slicings in groups.items()}


# No entry memo: maxsize=0 counts the calls and stores nothing, so a matrix
# keeps its blocks and counts but not its d^2 entries. It stays a functools
# wrapper only because bench/trace_child.py reads its cache_info(), in MEMOS
# and in count_nonzero_misses; ROADMAP item 1's counters replace it.
@lru_cache(maxsize=0)
def _chain_value(la: MultiPartition, mu: MultiPartition) -> int:
    """Sum over layer slicings of products of singular skew counts."""
    comps = mu.components
    group = _chain_layers(la, tuple([c.size for c in comps])).get(comps[0].parts)
    if not group:
        return 0
    rows = [c.parts for c in comps[1:]]
    total = 0
    for layers in group:
        product = 1
        for (shape, comp), row in zip(layers, rows):
            product *= skew_singular_count(shape, comp, row)
            if not product:
                break
        total += product
    return total


@cache
def _solve_row(la: MultiPartition) -> dict:
    """The multiplicity row of la from the unitriangular Kostka system."""
    row: dict = {}
    for mu in multipartitions(la.size, la.r):
        t = count_straight_tableaux(la, mu)
        acc = 0
        for nu, val in row.items():
            if not val:
                continue
            prod = 1
            for k in range(la.r):
                prod *= _kostka(nu.component(k).parts, mu.component(k).parts)
                if not prod:
                    break
            acc += val * prod
        row[mu] = t - acc
    return row


def multiplicity_row_by_solve(la: MultiPartition) -> dict:
    """Whole multiplicity row of la via the Kostka linear system.

    Traverses weights in canonical order; each value is the tableau count
    minus the contributions of the earlier rows, using that the Kostka
    matrix is unitriangular along that order.
    """
    if not isinstance(la, MultiPartition):
        raise InputError(f"expected a MultiPartition, got {la!r}")
    return dict(_solve_row(la))


def multiplicity(la: MultiPartition, mu: MultiPartition, *, method: str = "chain") -> int:
    """Branching multiplicity of the weight mu summand inside shape la, by
    the named route. No route takes a bound: a multiplicity is the same
    under every bound of the stable regime m_k >= n, the only regime the
    engine accepts."""
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; pick from {METHODS}")
    if not (isinstance(la, MultiPartition) and isinstance(mu, MultiPartition)):
        raise InputError(f"expected two MultiPartition values, got {la!r} and {mu!r}")
    if la.r != mu.r:
        raise InputError("component counts disagree")
    if la.size != mu.size:
        raise InputError(f"sizes disagree: {la.size} vs {mu.size}")
    if method == "chain":
        return _chain_value(la, mu)
    if method == "singular":
        return _singular_value(la, mu)
    return _solve_row(la)[mu]


# ---------------------------------------------------------------------------
# Matrices over the canonical index


class IndexedMatrix(Frozen):
    """A square integer matrix indexed by the canonical multipartition order."""

    __slots__ = ("n", "bound", "order", "rows", "_pos")

    def __init__(self, n: int, bound: ShapeBound, order, rows):
        order = tuple(order)
        rows = tuple(map(ints, rows))
        if len(rows) != len(order) or any(len(r) != len(order) for r in rows):
            raise InputError("matrix is not square over its index")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_pos", {mp: i for i, mp in enumerate(order)})
        if len(self._pos) != len(order):
            raise InputError("matrix index repeats an entry")
        for mp in order:
            if mp.size != n or not mp.fits(bound):
                raise InputError(f"index entry {mp} is not of size {n} within {bound}")

    @property
    def r(self) -> int:
        return self.bound.r

    @property
    def dim(self) -> int:
        return len(self.order)

    def value(self, la: MultiPartition, mu: MultiPartition) -> int:
        return self.rows[self._pos[la]][self._pos[mu]]

    def same_index(self, other: "IndexedMatrix") -> bool:
        return (
            self.n == other.n
            and self.bound == other.bound
            and self.order == other.order
        )

    def unitriangular_fault(self):
        """The first (row, column) position, in reading order, that breaks a
        unit diagonal with zeros below it, or None."""
        for i, row in enumerate(self.rows):
            for j in range(i + 1):
                if row[j] != (i == j):
                    return i, j
        return None

    def is_unitriangular(self) -> bool:
        """Unit diagonal and zeros below it, in the canonical order."""
        return self.unitriangular_fault() is None

    def _key(self) -> tuple:
        return self.n, self.bound, self.order, self.rows

    __hash__ = None

    def __repr__(self) -> str:
        return f"IndexedMatrix(n={self.n}, dim={self.dim})"


def _one_index(*mats) -> None:
    """Refuse anything but IndexedMatrix values over one shared index."""
    for m in mats:
        if not isinstance(m, IndexedMatrix):
            raise InputError(f"expected an IndexedMatrix, got {m!r}")
    if not all(mats[0].same_index(m) for m in mats[1:]):
        raise InputError("matrix indices disagree")


def identity_matrix(n: int, bound: ShapeBound) -> IndexedMatrix:
    order = multipartitions(n, bound.r)
    d = len(order)
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    return IndexedMatrix(n, bound, order, rows)


def multiplicity_matrix(
    n: int, bound: ShapeBound, method: str = "chain"
) -> IndexedMatrix:
    """The full multiplicity matrix over the canonical order."""
    bound.require_stable(n)
    order = multipartitions(n, bound.r)
    rows = [
        [multiplicity(la, mu, method=method) for mu in order] for la in order
    ]
    mat = IndexedMatrix(n, bound, order, rows)
    fault = mat.unitriangular_fault()
    if fault is not None:
        i, j = fault
        raise ConsistencyError(
            f"multiplicity matrix is not unitriangular: entry ({order[i]!r}, "
            f"{order[j]!r}) is {rows[i][j]}, expected {int(i == j)}"
        )
    return mat


def invert_unitriangular(mat: IndexedMatrix) -> IndexedMatrix:
    """Exact integer inverse of a unitriangular indexed matrix, found by
    back substitution over the nonzero entries only."""
    _one_index(mat)
    if not mat.is_unitriangular():
        raise InputError("matrix is not unitriangular")
    # Back substitution from the last row up: U X = I gives
    # X[i] = e_i - sum of U[i][k] X[k] over the nonzero U[i][k], k > i.
    # Each row of X is kept as a dict of its nonzero entries until the end.
    d = mat.dim
    sparse = [None] * d
    for i in range(d - 1, -1, -1):
        acc = {i: 1}
        for k, c in enumerate(mat.rows[i]):
            if c and k != i:
                for j, x in sparse[k].items():
                    acc[j] = acc.get(j, 0) - c * x
        sparse[i] = {j: x for j, x in acc.items() if x}
    rows = []
    for entries in sparse:
        row = [0] * d
        for j, x in entries.items():
            row[j] = x
        rows.append(row)
    return IndexedMatrix(mat.n, mat.bound, mat.order, rows)


def matrix_product(a: IndexedMatrix, b: IndexedMatrix) -> IndexedMatrix:
    _one_index(a, b)
    bt = list(zip(*b.rows))
    rows = [
        [sum(x * y for x, y in zip(arow, bcol) if x and y) for bcol in bt]
        for arow in a.rows
    ]
    return IndexedMatrix(a.n, a.bound, a.order, rows)


# ---------------------------------------------------------------------------
# Factorization of grouped component blocks


def grouping_factorization_check(
    la: MultiPartition, mu: MultiPartition, grouping: Grouping
) -> tuple:
    """Compare the full multiplicity with the product over component groups.

    Requires equal grouped size vectors; returns (equal, full value, product
    of group values), each group evaluated in its own smaller engine.
    """
    if not (isinstance(la, MultiPartition) and isinstance(mu, MultiPartition)):
        raise InputError(f"expected two MultiPartition values, got {la!r} and {mu!r}")
    if not isinstance(grouping, Grouping):
        raise InputError(f"expected a Grouping, got {grouping!r}")
    las = split_components(la, grouping)
    mus = split_components(mu, grouping)
    if tuple(x.size for x in las) != tuple(x.size for x in mus):
        raise InputError("grouped size vectors disagree")
    full = multiplicity(la, mu, method="chain")
    product = 1
    for sub_la, sub_mu in zip(las, mus):
        product *= multiplicity(sub_la, sub_mu, method="chain")
        if not product:
            break
    return (full == product, full, product)


# ---------------------------------------------------------------------------
# Decomposition-matrix harness over externally supplied matrices


def _harness_factors(**factors) -> None:
    """Refuse factors off one index; warn for each not unitriangular."""
    _one_index(*factors.values())
    for name, m in factors.items():
        if not m.is_unitriangular():
            warnings.warn(f"{name} is not unitriangular", stacklevel=3)


def derive_decomposition(b: IndexedMatrix, dbar: IndexedMatrix) -> IndexedMatrix:
    """The product b * dbar, the derived decomposition matrix when X = I."""
    _harness_factors(b=b, dbar=dbar)
    return matrix_product(b, dbar)


def factorization_residual(
    b: IndexedMatrix,
    dbar: IndexedMatrix,
    x: Optional[IndexedMatrix],
    d: IndexedMatrix,
) -> dict:
    """Entrywise report on b*dbar - d*x over a shared index. x=None stands
    for the identity: b*dbar is then compared with d itself."""
    _harness_factors(b=b, dbar=dbar, **({} if x is None else {"x": x}), d=d)
    lhs = matrix_product(b, dbar)
    rhs = d if x is None else matrix_product(d, x)
    max_abs, worst = 0, None
    for i, (lrow, rrow) in enumerate(zip(lhs.rows, rhs.rows)):
        deltas = [abs(p - q) for p, q in zip(lrow, rrow)]
        top = max(deltas)
        if top > max_abs:
            max_abs, worst = top, (i, deltas.index(top))
    return {"max_abs": max_abs, "zero": max_abs == 0, "worst_entry": worst}
