"""Multiplicities of products of one-component highest-weight modules inside
a restricted Weyl module, computed three independent ways, plus the matrix
machinery built on them.

The three routes:
  * singular -- enumerate semistandard fillings of the straight shape and
    count those whose reading word passes the prefix-partition test;
  * chain    -- slice the shape into nested skew layers, one per component
    of the weight, and multiply singular skew counts over each slicing;
  * solve    -- solve the unitriangular linear system that expresses tableau
    counts through Kostka numbers.
All arithmetic is exact integer arithmetic.
"""

import warnings
from functools import cache
from typing import Iterator, Optional

from .errors import ConsistencyError, InputError
from .crystal import is_singular
from .shapes import (
    EMPTY,
    Cell,
    Frozen,
    MultiPartition,
    Partition,
    Grouping,
    ShapeBound,
    SkewShape,
    as_composition,
    multipartitions,
    split_components,
)
from .tableaux import count_tableaux, enumerate_tableaux

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
    strip = weight[-1]
    rest = weight[:-1]
    total = 0
    # Peel the cells holding the largest letter: a horizontal strip, so the
    # leftover rows interlace the shape.
    for eta in _interlacing(shape, strip):
        total += _kostka(eta, rest)
    return total


def _interlacing(shape: tuple, removed: int) -> Iterator[tuple]:
    """Sub-shapes eta with shape/eta a horizontal strip of the given size."""

    def rec(i: int, left: int, prev_cap: int, acc: tuple) -> Iterator[tuple]:
        if i == len(shape):
            if left == 0:
                eta = acc
                while eta and eta[-1] == 0:
                    eta = eta[:-1]
                yield eta
            return
        below = shape[i + 1] if i + 1 < len(shape) else 0
        hi = min(shape[i], prev_cap)
        lo = below
        # eta_i ranges over [lo, hi]; it removes shape[i] - eta_i cells.
        for eta_i in range(hi, lo - 1, -1):
            used = shape[i] - eta_i
            if used > left:
                continue
            yield from rec(i + 1, left - used, eta_i, acc + (eta_i,))

    return rec(0, removed, shape[0] if shape else 0, ())


def kostka(shape, weight) -> int:
    """Number of semistandard fillings of a one-component shape and weight."""
    sh = shape.parts if isinstance(shape, Partition) else tuple(shape)
    wt = tuple(weight.parts) if isinstance(weight, Partition) else tuple(weight)
    if sum(sh) != sum(wt):
        raise InputError(f"size mismatch: {sh} vs {wt}")
    return _kostka(sh, wt)


# ---------------------------------------------------------------------------
# Classical Littlewood-Richardson coefficients (lattice-word rule)


def _lattice_count(right: list, above: list, weight: tuple) -> int:
    """Fillings of cells 0..n-1 by letters of the given weight, read in cell
    order, that form a lattice word.

    right[p] and above[p] are the positions of the neighbors of cell p, or
    None; both come before p, so rows weakly increase and columns strictly
    increase. Every prefix must stay a lattice word, which prunes the
    backtracking as it goes.
    """
    letters = len(weight)
    n = len(right)
    counts = [0] * letters
    placed = [0] * n

    def rec(pos: int) -> int:
        if pos == n:
            return 1
        rp, ap = right[pos], above[pos]
        hi = placed[rp] if rp is not None else letters - 1
        lo = placed[ap] + 1 if ap is not None else 0
        total = 0
        for a in range(lo, hi + 1):
            if counts[a] == weight[a]:
                continue
            if a and counts[a - 1] <= counts[a]:
                continue  # the prefix would stop being a lattice word
            counts[a] += 1
            placed[pos] = a
            total += rec(pos + 1)
            counts[a] -= 1
        return total

    return rec(0)


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
    if sum(weight_row) != shape.n_cells:
        raise InputError("weight size does not match the skew shape")
    if not 0 <= comp < shape.r:
        raise InputError(f"component {comp} out of range")
    cells = shape.cells()
    if any(c.k > comp for c in cells):
        return 0
    return _lattice_count(
        [shape.position(Cell(c.i, c.j + 1, c.k)) for c in cells],
        [shape.position(Cell(c.i - 1, c.j, c.k)) for c in cells],
        weight_row,
    )


def _prepare(la: MultiPartition, mu: MultiPartition, bound: Optional[ShapeBound]):
    if bound is None:
        bound = ShapeBound.for_size(la.size, la.r)
    if la.r != mu.r or la.r != bound.r:
        raise InputError("component counts disagree")
    if la.size != mu.size:
        raise InputError(f"sizes disagree: {la.size} vs {mu.size}")
    bound.require_stable(la.size)
    return bound


@cache
def _singular_value(la: MultiPartition, mu: MultiPartition, bound: ShapeBound) -> int:
    weight = as_composition(mu, bound)
    return sum(
        1 for t in enumerate_tableaux(SkewShape(la), weight) if is_singular(t)
    )


def multiplicity_by_singular(
    la: MultiPartition, mu: MultiPartition, bound: ShapeBound = None
) -> int:
    """Count singular semistandard fillings of shape la with weight mu."""
    bound = _prepare(la, mu, bound)
    return _singular_value(la, mu, bound)


@cache
def _subpartitions(p: Partition) -> tuple:
    """All partitions contained in p, grouped into nothing, plain tuple."""

    def rec(i: int, cap: int) -> Iterator[tuple]:
        if i == len(p.parts):
            yield ()
            return
        for v in range(min(cap, p.parts[i]), -1, -1):
            if v == 0:
                yield ()
                return
            for rest in rec(i + 1, v):
                yield (v,) + rest

    return tuple(Partition(q) for q in rec(0, p.parts[0] if p.parts else 0))


def layer_chains(la: MultiPartition, mu: MultiPartition) -> Iterator[tuple]:
    """All slicings of la into nested layers with component sizes from mu.

    Yields tuples (levels[0], ..., levels[r]) of multipartitions: levels[r]
    is la, levels[0] is empty, level k has empty components past k, and the
    layer between consecutive levels has exactly the size of component k of
    mu.
    """
    if la.r != mu.r:
        raise InputError("component counts disagree")
    if la.size != mu.size:
        raise InputError(f"sizes disagree: {la.size} vs {mu.size}")
    r = la.r
    sizes = [c.size for c in mu.components]

    def rec(k: int, current: MultiPartition) -> Iterator[tuple]:
        # current plays levels[k]; all its components past k are empty.
        if k == 0:
            yield (current,)
            return
        target = current.size - sizes[k - 1]
        if target < 0:
            return
        pools = [_subpartitions(current.component(j)) for j in range(k - 1)]

        def choose(j: int, left: int, acc: tuple):
            if j == k - 1:
                if left == 0:
                    prev = MultiPartition(acc + (EMPTY,) * (r - k + 1))
                    for chain_rest in rec(k - 1, prev):
                        yield chain_rest + (current,)
                return
            for q in pools[j]:
                if q.size <= left:
                    yield from choose(j + 1, left - q.size, acc + (q,))

        yield from choose(0, target, ())

    # levels[r] = la itself; its components past r are vacuously empty.
    yield from rec(r, la)


@cache
def _chain_value(la: MultiPartition, mu: MultiPartition) -> int:
    total = 0
    for levels in layer_chains(la, mu):
        product = 1
        for k in range(la.r, 0, -1):
            shape = SkewShape(levels[k], levels[k - 1])
            product *= skew_singular_count(shape, k - 1, mu.component(k - 1).parts)
            if not product:
                break
        total += product
    return total


def multiplicity_by_chains(
    la: MultiPartition, mu: MultiPartition, bound: ShapeBound = None
) -> int:
    """Sum over layer slicings of products of singular skew counts."""
    _prepare(la, mu, bound)
    return _chain_value(la, mu)


@cache
def _solve_row(la: MultiPartition, bound: ShapeBound) -> dict:
    order = multipartitions(la.size, bound)
    row: dict = {}
    for mu in order:
        t = count_tableaux(SkewShape(la), as_composition(mu, bound))
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


def multiplicity_row_by_solve(la: MultiPartition, bound: ShapeBound = None) -> dict:
    """Whole multiplicity row of la via the Kostka linear system.

    Traverses weights in canonical order; each value is the tableau count
    minus the contributions of the earlier rows, using that the Kostka
    matrix is unitriangular along that order.
    """
    if bound is None:
        bound = ShapeBound.for_size(la.size, la.r)
    bound.require_stable(la.size)
    if not la.fits(bound):
        raise InputError(f"{la} does not fit {bound}")
    return dict(_solve_row(la, bound))


def multiplicity_by_solve(
    la: MultiPartition, mu: MultiPartition, bound: ShapeBound = None
) -> int:
    bound = _prepare(la, mu, bound)
    return _solve_row(la, bound)[mu]


_DISPATCH = {
    "singular": multiplicity_by_singular,
    "chain": multiplicity_by_chains,
    "solve": multiplicity_by_solve,
}


def multiplicity(
    la: MultiPartition, mu: MultiPartition, bound: ShapeBound = None, method: str = "chain"
) -> int:
    """Branching multiplicity of the weight mu summand inside shape la."""
    try:
        fn = _DISPATCH[method]
    except KeyError:
        raise InputError(f"unknown method {method!r}; pick from {METHODS}")
    return fn(la, mu, bound)


# ---------------------------------------------------------------------------
# Matrices over the canonical index


class IndexedMatrix(Frozen):
    """A square integer matrix indexed by the canonical multipartition order."""

    __slots__ = ("n", "bound", "order", "rows", "_pos")

    def __init__(self, n: int, bound: ShapeBound, order, rows):
        order = tuple(order)
        rows = tuple(tuple(int(x) for x in row) for row in rows)
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

    def is_unitriangular(self) -> bool:
        """Unit diagonal and zeros below it, in the canonical order."""
        for i, row in enumerate(self.rows):
            if row[i] != 1 or any(row[j] for j in range(i)):
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexedMatrix)
            and self.same_index(other)
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"IndexedMatrix(n={self.n}, dim={self.dim})"


def identity_matrix(n: int, bound: ShapeBound) -> IndexedMatrix:
    order = multipartitions(n, bound)
    d = len(order)
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    return IndexedMatrix(n, bound, order, rows)


def multiplicity_matrix(
    n: int, bound: ShapeBound, method: str = "chain", cross_check: bool = False
) -> IndexedMatrix:
    """The full multiplicity matrix over the canonical order.

    With cross_check, every row is re-derived through the linear-system route
    and compared entry by entry.
    """
    bound.require_stable(n)
    order = multipartitions(n, bound)
    rows = []
    for la in order:
        row = [multiplicity(la, mu, bound, method=method) for mu in order]
        if cross_check:
            solved = _solve_row(la, bound)
            if row != [solved[mu] for mu in order]:
                raise ConsistencyError(f"row of {la} disagrees with the solver route")
        rows.append(row)
    mat = IndexedMatrix(n, bound, order, rows)
    if not mat.is_unitriangular():
        raise ConsistencyError("multiplicity matrix is not unitriangular: bug")
    return mat


def invert_unitriangular(mat: IndexedMatrix) -> IndexedMatrix:
    """Exact integer inverse of a unitriangular indexed matrix."""
    if not mat.is_unitriangular():
        raise InputError("matrix is not unitriangular")
    d = mat.dim
    u = mat.rows
    inv = [[0] * d for _ in range(d)]
    for i in range(d):
        inv[i][i] = 1
        for j in range(i + 1, d):
            s = 0
            for k in range(i, j):
                if inv[i][k] and u[k][j]:
                    s += inv[i][k] * u[k][j]
            inv[i][j] = -s
    return IndexedMatrix(mat.n, mat.bound, mat.order, inv)


def matrix_product(a: IndexedMatrix, b: IndexedMatrix) -> IndexedMatrix:
    if not a.same_index(b):
        raise InputError("matrix indices disagree")
    d = a.dim
    bt = list(zip(*b.rows))
    rows = [
        [sum(x * y for x, y in zip(arow, bcol) if x and y) for bcol in bt]
        for arow in a.rows
    ]
    return IndexedMatrix(a.n, a.bound, a.order, rows)


# ---------------------------------------------------------------------------
# Factorization of grouped component blocks


def grouping_factorization_check(
    la: MultiPartition, mu: MultiPartition, grouping: Grouping, bound: ShapeBound = None
) -> tuple:
    """Compare the full multiplicity with the product over component groups.

    Requires equal grouped size vectors; returns (equal, full value, product
    of group values), each group evaluated in its own smaller engine.
    """
    if bound is None:
        bound = ShapeBound.for_size(la.size, la.r)
    las = split_components(la, grouping)
    mus = split_components(mu, grouping)
    if tuple(x.size for x in las) != tuple(x.size for x in mus):
        raise InputError("grouped size vectors disagree")
    full = multiplicity(la, mu, bound, method="chain")
    product = 1
    for sub_la, sub_mu, off in zip(las, mus, grouping.offsets()):
        sub_bound = ShapeBound(bound.m[off : off + sub_la.r])
        sub_bound.require_stable(sub_la.size)
        product *= multiplicity(sub_la, sub_mu, sub_bound, method="chain")
        if not product:
            break
    return (full == product, full, product)


# ---------------------------------------------------------------------------
# Decomposition-matrix harness over externally supplied matrices


def derive_decomposition(b: IndexedMatrix, dbar: IndexedMatrix) -> IndexedMatrix:
    """The product b * dbar, the derived decomposition matrix when X = I."""
    if not b.same_index(dbar):
        raise InputError("matrix indices disagree")
    for name, m in (("left", b), ("dbar", dbar)):
        if not m.is_unitriangular():
            warnings.warn(f"{name} factor is not unitriangular", stacklevel=2)
    return matrix_product(b, dbar)


def factorization_residual(
    b: IndexedMatrix, dbar: IndexedMatrix, x: IndexedMatrix, d: IndexedMatrix
) -> dict:
    """Entrywise report on b*dbar - d*x over a shared index."""
    for other in (dbar, x, d):
        if not b.same_index(other):
            raise InputError("matrix indices disagree")
    for name, m in (("dbar", dbar), ("x", x), ("d", d)):
        if not m.is_unitriangular():
            warnings.warn(f"{name} is not unitriangular", stacklevel=2)
    lhs = matrix_product(b, dbar)
    rhs = matrix_product(d, x)
    max_abs = 0
    worst = None
    for i in range(lhs.dim):
        for j in range(lhs.dim):
            delta = lhs.rows[i][j] - rhs.rows[i][j]
            if abs(delta) > max_abs:
                max_abs = abs(delta)
                worst = (i, j)
    return {"max_abs": max_abs, "zero": max_abs == 0, "worst_entry": worst}
