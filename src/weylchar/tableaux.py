"""Semistandard tableaux on (skew) multipartition diagrams.

Entries are pairs (a, c): letter a in the alphabet of component c. A filling
is semistandard when every cell of component k carries an entry with c >= k,
rows weakly increase and columns strictly increase in the entry order.
"""

from typing import Iterator, NamedTuple

from .errors import InputError
from .shapes import (
    Cell,
    Frozen,
    MultiComposition,
    MultiPartition,
    ShapeBound,
    SkewShape,
    as_composition,
)


class Entry(NamedTuple):
    """Letter a (0-based) in the alphabet of component c (0-based)."""

    a: int
    c: int


def entry_le(e1: Entry, e2: Entry) -> bool:
    """Entry order: component first, then letter."""
    return e1.c < e2.c or (e1.c == e2.c and e1.a <= e2.a)


class Tableau(Frozen):
    """A filling of a skew shape, entries aligned with the reading order."""

    __slots__ = ("shape", "entries", "bound")

    def __init__(self, shape: SkewShape, entries, bound: ShapeBound):
        ents = tuple(e if isinstance(e, Entry) else Entry(*e) for e in entries)
        if len(ents) != shape.n_cells:
            raise InputError(
                f"{len(ents)} entries for {shape.n_cells} cells"
            )
        if bound.r != shape.r:
            raise InputError("bound and shape disagree on component count")
        for e in ents:
            if not (0 <= e.c < bound.r and 0 <= e.a < bound.m[e.c]):
                raise InputError(f"entry {e} outside bound {bound}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "bound", bound)

    @classmethod
    def from_cell_map(cls, shape: SkewShape, mapping: dict, bound: ShapeBound):
        """Build from an explicit cell -> entry dict covering every cell."""
        missing = [c for c in shape.cells() if c not in mapping]
        if missing or len(mapping) != shape.n_cells:
            raise InputError("mapping does not cover the shape exactly")
        return cls(shape, tuple(mapping[c] for c in shape.cells()), bound)

    def entry(self, cell: Cell) -> Entry:
        pos = self.shape.position(cell)
        if pos is None:
            raise InputError(f"{cell} not in shape")
        return self.entries[pos]

    def items(self) -> Iterator:
        return zip(self.shape.cells(), self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tableau)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.entries))

    def __repr__(self) -> str:
        return f"Tableau({self.shape!r}, {list(self.entries)})"


def superstandard(la: MultiPartition, bound: ShapeBound) -> Tableau:
    """The filling sending every cell (i, j, k) to entry (i, k)."""
    shape = SkewShape(la)
    return Tableau(shape, tuple(Entry(c.i, c.k) for c in shape.cells()), bound)


def is_semistandard(t: Tableau) -> bool:
    shape = t.shape
    for cell, e in t.items():
        if e.c < cell.k:
            return False
        right = shape.position(Cell(cell.i, cell.j + 1, cell.k))
        if right is not None and not entry_le(e, t.entries[right]):
            return False
        below = shape.position(Cell(cell.i + 1, cell.j, cell.k))
        if below is not None:
            b = t.entries[below]
            if not (entry_le(e, b) and e != b):
                return False
    return True


def weight_of(t: Tableau) -> MultiComposition:
    """Entry multiplicities, one slot per (letter, component)."""
    rows = [[0] * mk for mk in t.bound.m]
    for e in t.entries:
        rows[e.c][e.a] += 1
    return MultiComposition(rows)


def _fillings(shape: SkewShape, bound: ShapeBound, remaining: list) -> Iterator[Tableau]:
    """Semistandard fillings using entry (a, c) at most remaining[c][a] times.

    Cells are filled in reading order; at each cell the candidate entries are
    tried in ascending entry order, so the output order is deterministic.
    """
    cells = shape.cells()
    n = len(cells)
    # Neighbors filled earlier in reading order: the cell to the right and
    # the cell above.
    right_pos = [shape.position(Cell(c.i, c.j + 1, c.k)) for c in cells]
    above_pos = [shape.position(Cell(c.i - 1, c.j, c.k)) for c in cells]
    entries: list = [None] * n

    def rec(pos: int) -> Iterator[Tableau]:
        if pos == n:
            yield Tableau(shape, tuple(entries), bound)
            return
        rp, ap = right_pos[pos], above_pos[pos]
        hi = entries[rp] if rp is not None else None
        lo = entries[ap] if ap is not None else None
        for c in range(cells[pos].k, bound.r):
            if hi is not None and c > hi.c:
                break
            row = remaining[c]
            for a in range(bound.m[c]):
                if not row[a]:
                    continue
                e = Entry(a, c)
                if hi is not None and not entry_le(e, hi):
                    break
                if lo is not None and entry_le(e, lo):
                    continue
                row[a] -= 1
                entries[pos] = e
                yield from rec(pos + 1)
                row[a] += 1

    return rec(0)


def enumerate_tableaux(
    shape: SkewShape, weight: MultiComposition
) -> Iterator[Tableau]:
    """All semistandard fillings of the shape with the given weight."""
    if shape.n_cells != weight.size:
        raise InputError(
            f"shape has {shape.n_cells} cells but weight has size {weight.size}"
        )
    bound = weight.bound
    if bound.r != shape.r:
        raise InputError("weight and shape disagree on component count")
    return _fillings(shape, bound, [list(row) for row in weight.rows])


def enumerate_all_tableaux(shape: SkewShape, bound: ShapeBound) -> Iterator[Tableau]:
    """All semistandard fillings of the shape, over every weight.

    The order is that of enumerate_tableaux restricted to each weight.
    """
    # No filling has more than n_cells uses of one entry, so this never binds.
    return _fillings(shape, bound, [[shape.n_cells] * mk for mk in bound.m])


def count_tableaux(shape: SkewShape, weight: MultiComposition) -> int:
    return sum(1 for _ in enumerate_tableaux(shape, weight))


def count_straight_tableaux(
    la: MultiPartition, mu: MultiPartition, bound: ShapeBound
) -> int:
    """Tableau count for a straight shape with a multipartition weight."""
    return count_tableaux(SkewShape(la), as_composition(mu, bound))


def equivalence_key(t: Tableau) -> tuple:
    """For each entry component c, the set of cells carrying a c-entry.

    Two fillings of one shape are equivalent exactly when their keys agree;
    equivalent fillings have the same component-size vector.
    """
    buckets: list = [[] for _ in range(t.bound.r)]
    for cell, e in t.items():
        buckets[e.c].append(cell)
    return tuple(frozenset(b) for b in buckets)


def equivalence_classes(ts) -> list:
    """Group same-shape tableaux by equivalence key; deterministic order."""
    ts = list(ts)
    shapes = {t.shape for t in ts}
    if len(shapes) > 1:
        raise InputError("tableaux of mixed shapes cannot be compared")
    groups: dict = {}
    for t in ts:
        groups.setdefault(equivalence_key(t), []).append(t)
    return list(groups.values())
