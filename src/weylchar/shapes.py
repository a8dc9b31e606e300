"""Partitions, multipartitions, multicompositions, diagrams and their orders.

All indices (rows, columns, components, letters) are 0-based in memory; the
serialization layer converts to the 1-based external format.
"""

import operator
from functools import cache, lru_cache
from itertools import product, zip_longest
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import InputError


def ints(xs: Iterable) -> tuple:
    """The entries of xs as a tuple of ints. A float, a string or any other
    non-integer is refused, never truncated or converted; bools count as ints."""
    try:
        return tuple(map(operator.index, xs))
    except TypeError as exc:
        raise InputError(f"expected integers: {exc}") from None


# The largest cap m_k, and the largest size and component count of a
# multipartition or a default bound.
MAX_CAP = 10_000


def size_and_count(n, r) -> tuple:
    """A size n and a component count r as ints, refused unless 0 <= n <= MAX_CAP
    and 1 <= r <= MAX_CAP."""
    n, r = ints((n, r))
    if r < 1:
        raise InputError(f"need r >= 1, got r={r}")
    if r > MAX_CAP:
        raise InputError(f"more than {MAX_CAP} components")
    if n < 0:
        raise InputError(f"need n >= 0, got n={n}")
    if n > MAX_CAP:
        raise InputError(f"size n={n} is above {MAX_CAP}")
    return n, r


def weak_composition(xs: Iterable, n: int) -> tuple:
    """The entries of xs as ints, refused unless none is negative and they sum to n."""
    c = ints(xs)
    if min(c, default=0) < 0 or sum(c) != n:
        raise InputError(f"{c} is no weak composition of {n}")
    return c


class Frozen:
    """Base of the immutable value types.

    Subclasses declare their __slots__ and store each field once in __init__
    through object.__setattr__; afterwards no field can be set or deleted.
    Every public field holds an immutable value (a tuple, a frozen value, a
    read-only mapping), so one memoized value can serve every caller.
    Each subclass declares _key(), the fields that make the value: two values
    are equal when they have the same type and equal keys, and hash as the
    key. The hot memo keys (Partition, MultiPartition, SkewShape) store that
    hash once, in an _h slot; the expansions and matrices are unhashable.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._key())})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Partition(Frozen):
    """A weakly decreasing sequence of positive parts; trailing zeros are stripped."""

    __slots__ = ("parts", "size", "_h")

    def __init__(self, parts: Iterable[int] = ()):
        ps = ints(parts)
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise InputError(f"not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise InputError(f"negative part in {ps}")
        object.__setattr__(self, "parts", ps)
        object.__setattr__(self, "size", sum(ps))
        object.__setattr__(self, "_h", hash(ps))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def row(self, i: int) -> int:
        """Length of row i, 0 when i is past the last row."""
        return self.parts[i] if i < len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        """Containment of diagrams: every row of other fits in this shape."""
        return all(self.row(i) >= p for i, p in enumerate(other.parts))

    def _key(self) -> tuple:
        return self.parts

    def __hash__(self) -> int:
        return self._h


EMPTY = Partition()


class ShapeBound(Frozen):
    """Per-component caps (m_1,...,m_r): row counts of shapes and letter alphabets."""

    __slots__ = ("m",)

    def __init__(self, m: Iterable[int]):
        mt = ints(m)
        if not mt or any(x < 1 for x in mt):
            raise InputError(f"bound must be positive in every component: {mt}")
        if any(x > MAX_CAP for x in mt):
            raise InputError(f"bound has a cap above {MAX_CAP}")
        object.__setattr__(self, "m", mt)

    @classmethod
    def for_size(cls, n: int, r: int) -> "ShapeBound":
        """Default bound m_k = n (m_k = 1 for n = 0), the stable regime, for
        n and r within size_and_count."""
        n, r = size_and_count(n, r)
        return cls((max(n, 1),) * r)

    @property
    def r(self) -> int:
        return len(self.m)

    def require_stable(self, n: int) -> None:
        """The engine works in the stable regime m_k >= n only."""
        if any(mk < n for mk in self.m):
            raise InputError(f"bound {self.m} has a component below n={n}")

    def _key(self) -> tuple:
        return self.m


class MultiPartition(Frozen):
    """An r-tuple of partitions, of size and r at most MAX_CAP."""

    __slots__ = ("components", "size", "_h")

    def __init__(self, components: Iterable):
        comps = tuple(
            c if isinstance(c, Partition) else Partition(c) for c in components
        )
        if not comps:
            raise InputError("need at least one component")
        size, _ = size_and_count(sum(c.size for c in comps), len(comps))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_h", hash(comps))

    @classmethod
    def empty(cls, r: int) -> "MultiPartition":
        return cls((EMPTY,) * r)

    @property
    def r(self) -> int:
        return len(self.components)

    def component(self, k: int) -> Partition:
        return self.components[k]

    def contains(self, other: "MultiPartition") -> bool:
        if self.r != other.r:
            return False
        return all(a.contains(b) for a, b in zip(self.components, other.components))

    def concentrated_at(self) -> Union[int, None]:
        """Index of the single nonempty component, or None."""
        idx = [k for k, c in enumerate(self.components) if c.size]
        return idx[0] if len(idx) == 1 else None

    def fits(self, bound: ShapeBound) -> bool:
        return self.r == bound.r and all(
            len(c) <= mk for c, mk in zip(self.components, bound.m)
        )

    def _key(self) -> tuple:
        return self.components

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        return "MP" + repr([list(c.parts) for c in self.components])


class MultiComposition(Frozen):
    """An r-tuple of nonnegative integer rows, the k-th of fixed length m_k."""

    __slots__ = ("rows", "size")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(map(ints, rows))
        if not rs:
            raise InputError("need at least one component")
        if any(x < 0 for row in rs for x in row):
            raise InputError("negative entry in composition")
        object.__setattr__(self, "rows", rs)
        object.__setattr__(self, "size", sum(sum(row) for row in rs))

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def bound(self) -> ShapeBound:
        return ShapeBound(len(row) for row in self.rows)

    def _key(self) -> tuple:
        return self.rows

    def __repr__(self) -> str:
        return "MC" + repr([list(row) for row in self.rows])


def as_composition(la: MultiPartition, bound: ShapeBound) -> MultiComposition:
    """View a multipartition as a zero-padded multicomposition."""
    if not la.fits(bound):
        raise InputError(f"{la} does not fit {bound}")
    return MultiComposition(
        c.parts + (0,) * (mk - len(c)) for c, mk in zip(la.components, bound.m)
    )


class Cell(NamedTuple):
    """A box (row i, column j) in component k of a diagram; all 0-based."""

    i: int
    j: int
    k: int


class Grouping(Frozen):
    """A composition (r_1,...,r_g) of r, slicing components into consecutive groups."""

    __slots__ = ("sizes",)

    def __init__(self, sizes: Iterable[int]):
        st = ints(sizes)
        if not st or any(x < 1 for x in st):
            raise InputError(f"group sizes must be positive: {st}")
        object.__setattr__(self, "sizes", st)

    @property
    def g(self) -> int:
        return len(self.sizes)

    def offsets(self) -> tuple:
        out, acc = [], 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    def _key(self) -> tuple:
        return self.sizes


def _rows(x: Union[MultiPartition, MultiComposition]) -> tuple:
    """The r coordinate rows: each component's parts, or each row."""
    if isinstance(x, MultiPartition):
        return tuple(c.parts for c in x.components)
    return x.rows


def component_sizes(x: Union[MultiPartition, MultiComposition]) -> tuple:
    """The r-vector of component sizes."""
    return tuple(map(sum, _rows(x)))


def prefix_dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when every prefix sum of a is >= the matching prefix sum of b."""
    if len(a) != len(b):
        raise InputError(f"length mismatch: {len(a)} vs {len(b)}")
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa < sb:
            return False
    return True


def dominates(la, mu) -> bool:
    """Dominance order on the concatenated coordinate vectors.

    Both arguments may be MultiPartition or MultiComposition values of equal
    r and total size. Each component is zero-padded to the longer of its two
    rows; more padding would only repeat a prefix comparison already made.
    """
    ra, rb = _rows(la), _rows(mu)
    if len(ra) != len(rb):
        raise InputError(f"component counts disagree: {len(ra)} vs {len(rb)}")
    if la.size != mu.size:
        raise InputError(f"unequal sizes: {la.size} vs {mu.size}")
    pairs = [p for a, b in zip(ra, rb) for p in zip_longest(a, b, fillvalue=0)]
    return prefix_dominates([x for x, _ in pairs], [y for _, y in pairs])


def group_sizes(la: MultiPartition, grouping: Grouping) -> tuple:
    """Total sizes of the grouped component blocks."""
    return tuple(m.size for m in split_components(la, grouping))


def split_components(la: MultiPartition, grouping: Grouping) -> tuple:
    """Slice la into g consecutive multipartitions per the grouping."""
    if sum(grouping.sizes) != la.r:
        raise InputError(f"grouping {grouping} does not sum to r={la.r}")
    out = []
    for off, sz in zip(grouping.offsets(), grouping.sizes):
        out.append(MultiPartition(la.components[off : off + sz]))
    return tuple(out)


def _reading_key(c: Cell) -> tuple:
    """Sort key of the reading order: a larger component, then a larger
    column, then a smaller row comes first."""
    return -c.k, -c.j, c.i


def cell_order_cmp(x: Cell, y: Cell) -> int:
    """Total order on cells: positive when x comes first in reading order."""
    kx, ky = _reading_key(x), _reading_key(y)
    return (kx < ky) - (kx > ky)


@cache
def _bounded_partitions(n: int, max_part: int) -> tuple:
    """All partitions of n with parts <= max_part, in descending
    lexicographic order."""
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in _bounded_partitions(n - first, first)
    )


@lru_cache(maxsize=None, typed=True)
def partitions_of(n: int) -> tuple:
    """All partitions of n as Partition values."""
    n, _ = size_and_count(n, 1)
    return tuple(Partition(p) for p in _bounded_partitions(n, n))


def _compositions(n: int, parts: int) -> Iterator[tuple]:
    """Weak compositions in descending lexicographic order, without recursion:
    each step moves one unit from the last nonzero part before the end one
    place right and gathers the last part behind it."""
    c = [n] + [0] * (parts - 1)
    while True:
        yield tuple(c)
        i = parts - 2
        while i >= 0 and not c[i]:
            i -= 1
        if i < 0:
            return
        last, c[-1] = c[-1], 0
        c[i] -= 1
        c[i + 1] = last + 1


def compositions_of(n: int, parts: int) -> Iterator[tuple]:
    """All weak compositions of n into a fixed number of parts."""
    return _compositions(*size_and_count(n, parts))


def canonical_key(la: MultiPartition) -> tuple:
    """Sort key for the canonical total order on multipartitions of fixed size.

    Primary: component-size vector, descending lexicographic (a linear
    extension of the prefix order on size vectors). Secondary: the parts of
    each component in turn, descending lexicographic; no padding is needed,
    since two partitions of one size are never a proper prefix of each
    other. Strict dominance always sorts earlier, so multiplicity matrices
    indexed this way are unitriangular.
    """
    comps = la.components
    return tuple(-c.size for c in comps) + tuple(-x for c in comps for x in c.parts)


# typed=True: 1.0 and 1 are equal keys, so an untyped memo would answer
# multipartitions(1.0, 1) from multipartitions(1, 1) instead of refusing it.
@lru_cache(maxsize=None, typed=True)
def multipartitions(n: int, r: int) -> tuple:
    """All r-multipartitions of n. They are generated in canonical order (size
    vectors, then components, descending lexicographic), so none is sorted."""
    n, r = size_and_count(n, r)
    return tuple(
        MultiPartition(combo)
        for sizes in _compositions(n, r)
        for combo in product(*map(partitions_of, sizes))
    )


@lru_cache(maxsize=None, typed=True)
def multicompositions(n: int, bound: ShapeBound) -> tuple:
    """All multicompositions of n with row lengths m_k, in a fixed order:
    size vectors in descending lexicographic order, then the rows of each."""
    n, _ = size_and_count(n, bound.r)
    return tuple(
        MultiComposition(rows)
        for sizes in _compositions(n, bound.r)
        for rows in product(*map(_compositions, sizes, bound.m))
    )


# Shared by every caller, hence all tuples. One entry suffices: the fillings
# of one shape are generated, checked, read and printed back to back.
@lru_cache(maxsize=1)
def _cell_table(outer: MultiPartition, inner: MultiPartition) -> tuple:
    cells = [
        Cell(i, j, k)
        for k, comp in enumerate(outer.components)
        for i, rowlen in enumerate(comp.parts)
        for j in range(inner.component(k).row(i), rowlen)
    ]
    cells.sort(key=_reading_key)
    index = {c: p for p, c in enumerate(cells)}
    right = tuple(index.get(Cell(c.i, c.j + 1, c.k)) for c in cells)
    above = tuple(index.get(Cell(c.i - 1, c.j, c.k)) for c in cells)
    return tuple(cells), right, above


class SkewShape(Frozen):
    """A multipartition diagram minus a contained inner multipartition."""

    __slots__ = ("outer", "inner", "_h")

    def __init__(self, outer: MultiPartition, inner: MultiPartition = None):
        if inner is None:
            inner = MultiPartition.empty(outer.r)
        if not outer.contains(inner):
            raise InputError(f"inner {inner} not contained in outer {outer}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_h", hash((outer, inner)))

    @property
    def r(self) -> int:
        return self.outer.r

    @property
    def n_cells(self) -> int:
        return self.outer.size - self.inner.size

    def cells(self) -> tuple:
        """All cells in reading order."""
        return _cell_table(self.outer, self.inner)[0]

    def neighbours(self) -> tuple:
        """(cells, right, above): the cells in reading order and, per cell, the
        position of its right and of its upper neighbour, or None. Both come
        earlier in reading order."""
        return _cell_table(self.outer, self.inner)

    def _key(self) -> tuple:
        return self.outer, self.inner

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        return f"SkewShape({self.outer!r}, {self.inner!r})"

