"""Partitions, multipartitions, multicompositions, diagrams and their orders.

All indices (rows, columns, components, letters) are 0-based in memory; the
serialization layer converts to the 1-based external format.
"""

from functools import cache
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import InputError


class Frozen:
    """Base of the immutable value types.

    Subclasses declare their __slots__ and store each field once in __init__
    through object.__setattr__; afterwards no field can be set or deleted.
    Equality and hashing stay with each subclass.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Partition(Frozen):
    """A weakly decreasing sequence of positive parts; trailing zeros are stripped."""

    __slots__ = ("parts", "size")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise InputError(f"not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise InputError(f"negative part in {ps}")
        object.__setattr__(self, "parts", ps)
        object.__setattr__(self, "size", sum(ps))

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


EMPTY = Partition()


class ShapeBound(Frozen):
    """Per-component caps (m_1,...,m_r): row counts of shapes and letter alphabets."""

    __slots__ = ("m",)

    def __init__(self, m: Iterable[int]):
        mt = tuple(int(x) for x in m)
        if not mt or any(x < 1 for x in mt):
            raise InputError(f"bound must be positive in every component: {mt}")
        object.__setattr__(self, "m", mt)

    @classmethod
    def for_size(cls, n: int, r: int) -> "ShapeBound":
        """Default bound m_k = n (m_k = 1 for n = 0), the stable regime."""
        return cls((max(n, 1),) * r)

    @property
    def r(self) -> int:
        return len(self.m)

    def require_stable(self, n: int) -> None:
        """The engine works in the stable regime m_k >= n only."""
        if any(mk < n for mk in self.m):
            raise InputError(f"bound {self.m} has a component below n={n}")

    def __eq__(self, other) -> bool:
        return isinstance(other, ShapeBound) and self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self) -> str:
        return f"ShapeBound({list(self.m)})"


class MultiPartition(Frozen):
    """An r-tuple of partitions."""

    __slots__ = ("components", "size")

    def __init__(self, components: Iterable):
        comps = tuple(
            c if isinstance(c, Partition) else Partition(c) for c in components
        )
        if not comps:
            raise InputError("need at least one component")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "size", sum(c.size for c in comps))

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

    def padded(self, bound: ShapeBound) -> tuple:
        """Concatenated coordinate vector, each component zero-padded to m_k."""
        if not self.fits(bound):
            raise InputError(f"{self} does not fit {bound}")
        return tuple(
            chain.from_iterable(
                c.parts + (0,) * (mk - len(c)) for c, mk in zip(self.components, bound.m)
            )
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPartition) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "MP" + repr([list(c.parts) for c in self.components])


class MultiComposition(Frozen):
    """An r-tuple of nonnegative integer rows, the k-th of fixed length m_k."""

    __slots__ = ("rows", "size")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(tuple(int(x) for x in row) for row in rows)
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

    def padded(self, bound: ShapeBound) -> tuple:
        if self.r != bound.r or any(
            len(row) != mk for row, mk in zip(self.rows, bound.m)
        ):
            raise InputError(f"{self} does not match {bound}")
        return tuple(chain.from_iterable(self.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiComposition) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

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
        st = tuple(int(x) for x in sizes)
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

    def __repr__(self) -> str:
        return f"Grouping({list(self.sizes)})"


def component_sizes(x: Union[MultiPartition, MultiComposition]) -> tuple:
    """The r-vector of component sizes."""
    if isinstance(x, MultiPartition):
        return tuple(c.size for c in x.components)
    return tuple(sum(row) for row in x.rows)


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


def dominates(la, mu, bound: ShapeBound) -> bool:
    """Dominance order on the concatenated coordinate vectors under a bound.

    Both arguments may be MultiPartition or MultiComposition values of equal
    total size; prefix sums of the concatenated vectors are compared.
    """
    va = la.padded(bound)
    vb = mu.padded(bound)
    if la.size != mu.size:
        raise InputError(f"unequal sizes: {la.size} vs {mu.size}")
    return prefix_dominates(va, vb)


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


def cell_order_cmp(x: Cell, y: Cell) -> int:
    """Total order on cells: positive when x comes first in reading order.

    x precedes y when its component is larger, then its column is larger,
    then its row is smaller.
    """
    if x.k != y.k:
        return 1 if x.k > y.k else -1
    if x.j != y.j:
        return 1 if x.j > y.j else -1
    if x.i != y.i:
        return 1 if x.i < y.i else -1
    return 0


def reading_key(cell: Cell) -> tuple:
    """Sort key placing cells in reading order (descending cell order)."""
    return (-cell.k, -cell.j, cell.i)


@cache
def _bounded_partitions(n: int, max_part: int, max_rows: int) -> tuple:
    """All partitions of n with parts <= max_part and at most max_rows rows,
    in descending lexicographic order."""
    if n == 0:
        return ((),)
    if max_rows == 0 or max_part == 0:
        return ()
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _bounded_partitions(n - first, first, max_rows - 1):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int, max_rows: int = None) -> tuple:
    """All partitions of n (optionally with a row cap) as Partition values."""
    cap = n if max_rows is None else min(max_rows, n)
    return tuple(Partition(p) for p in _bounded_partitions(n, n, cap))


def _compositions(n: int, parts: int) -> Iterator[tuple]:
    if parts == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def compositions_of(n: int, parts: int) -> Iterator[tuple]:
    """All weak compositions of n into a fixed number of parts."""
    if parts < 1:
        raise InputError("need at least one part")
    return _compositions(n, parts)


def canonical_key(la: MultiPartition, bound: ShapeBound) -> tuple:
    """Sort key for the canonical total order on multipartitions of fixed size.

    Primary: component-size vector, descending lexicographic (a linear
    extension of the prefix order on size vectors). Secondary: concatenated
    padded coordinates, descending lexicographic. Strict dominance always
    sorts earlier, so multiplicity matrices indexed this way are
    unitriangular.
    """
    sizes = component_sizes(la)
    concat = la.padded(bound)
    return tuple(-s for s in sizes) + tuple(-x for x in concat)


@cache
def multipartitions(n: int, bound: ShapeBound) -> tuple:
    """All r-multipartitions of n fitting the bound, in canonical order."""
    if n < 0:
        raise InputError("n must be nonnegative")
    bound.require_stable(n)
    r = bound.r
    out = []
    for sizes in compositions_of(n, r):
        pools = [
            _bounded_partitions(nk, nk, min(mk, nk)) if nk else ((),)
            for nk, mk in zip(sizes, bound.m)
        ]

        def rec(k, acc):
            if k == r:
                out.append(MultiPartition(acc))
                return
            for p in pools[k]:
                rec(k + 1, acc + (p,))

        rec(0, ())
    out.sort(key=lambda mp: canonical_key(mp, bound))
    return tuple(out)


@cache
def multicompositions(n: int, bound: ShapeBound) -> tuple:
    """All multicompositions of n with row lengths m_k, in a fixed order."""
    r = bound.r

    def rec(k, remaining):
        if k == r:
            if remaining == 0:
                yield ()
            return
        for sz in range(remaining, -1, -1):
            for row in _compositions(sz, bound.m[k]):
                for rest in rec(k + 1, remaining - sz):
                    yield (row,) + rest

    return tuple(MultiComposition(rows) for rows in rec(0, n))


class SkewShape(Frozen):
    """A multipartition diagram minus a contained inner multipartition."""

    __slots__ = ("outer", "inner", "_cells", "_index")

    def __init__(self, outer: MultiPartition, inner: MultiPartition = None):
        if inner is None:
            inner = MultiPartition.empty(outer.r)
        if not outer.contains(inner):
            raise InputError(f"inner {inner} not contained in outer {outer}")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        cells = [
            Cell(i, j, k)
            for k, comp in enumerate(outer.components)
            for i, rowlen in enumerate(comp.parts)
            for j in range(inner.component(k).row(i), rowlen)
        ]
        cells.sort(key=reading_key)
        object.__setattr__(self, "_cells", tuple(cells))
        object.__setattr__(self, "_index", {c: p for p, c in enumerate(cells)})

    @property
    def r(self) -> int:
        return self.outer.r

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def cells(self) -> tuple:
        """All cells in reading order."""
        return self._cells

    def position(self, cell: Cell):
        """Index of a cell in reading order, or None when absent."""
        return self._index.get(cell)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

    def __repr__(self) -> str:
        return f"SkewShape({self.outer!r}, {self.inner!r})"


def skew_cells(shape: SkewShape) -> tuple:
    """Cells of the difference diagram, sorted in reading order."""
    return shape.cells()
