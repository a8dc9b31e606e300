"""Tensor-power crystals of vector representations and Kashiwara operators.

A word holds one letter sequence per component; the operator (i, k) acts on
sequence k alone through the signature rule: letters i are opening marks,
letters i+1 closing marks, a mark pair "open immediately left of close"
cancels, the raising operator rewrites the rightmost surviving close and the
lowering operator the leftmost surviving open. This pairing is the one under
which a word is annihilated by every raising operator exactly when each of
its prefixes has weakly decreasing letter counts.
"""

from typing import Iterator, NamedTuple, Optional

from .errors import ConsistencyError, InputError
from .shapes import (
    Frozen,
    MultiComposition,
    MultiPartition,
    Partition,
    ShapeBound,
    expect,
    ints,
    items,
)
from .tableaux import (
    Tableau,
    equivalence_classes,
    enumerate_all_tableaux,
    is_semistandard,
)


class CrystalWord(Frozen):
    """One letter sequence per component; letters live in 0..m_k-1."""

    __slots__ = ("words", "bound")

    def __init__(self, words, bound: ShapeBound):
        expect(ShapeBound, bound)
        ws = tuple(map(ints, items(words)))
        if len(ws) != bound.r:
            raise InputError("word count does not match component count")
        for w, mk in zip(ws, bound.m):
            if any(not 0 <= a < mk for a in w):
                raise InputError(f"letter out of range in {w} (alphabet {mk})")
        object.__setattr__(self, "words", ws)
        object.__setattr__(self, "bound", bound)

    def replace(self, k: int, pos: int, letter: int) -> "CrystalWord":
        w = self.words[k]
        new = w[:pos] + (letter,) + w[pos + 1 :]
        return CrystalWord(
            self.words[:k] + (new,) + self.words[k + 1 :], self.bound
        )

    def _key(self) -> tuple:
        return self.words, self.bound

    def __repr__(self) -> str:
        return f"CrystalWord({[list(w) for w in self.words]})"


class OperatorIndex(NamedTuple):
    """Raising/lowering index i within component k; 0 <= i <= m_k - 2."""

    i: int
    k: int


def operator_indices(bound: ShapeBound) -> Iterator[OperatorIndex]:
    for k, mk in enumerate(bound.m):
        for i in range(mk - 1):
            yield OperatorIndex(i, k)


def word_weight(w: CrystalWord) -> MultiComposition:
    rows = [[0] * mk for mk in w.bound.m]
    for k, word in enumerate(w.words):
        for a in word:
            rows[k][a] += 1
    return MultiComposition(rows)


def _check_op(w: CrystalWord, op: OperatorIndex) -> None:
    i, k = op
    if not (0 <= k < w.bound.r and 0 <= i < w.bound.m[k] - 1):
        raise InputError(f"operator {op} invalid for bound {w.bound}")


def _signature(word, i: int):
    """Surviving closing (letter i+1) and opening (letter i) positions."""
    opens: list = []
    closes: list = []
    for pos, a in enumerate(word):
        if a == i:
            opens.append(pos)
        elif a == i + 1:
            if opens:
                opens.pop()
            else:
                closes.append(pos)
    return closes, opens


def etilde(w: CrystalWord, op: OperatorIndex) -> Optional[CrystalWord]:
    """Raising operator: rewrite the rightmost surviving i+1 to i, or None."""
    _check_op(w, op)
    closes, _ = _signature(w.words[op.k], op.i)
    if not closes:
        return None
    return w.replace(op.k, closes[-1], op.i)


def ftilde(w: CrystalWord, op: OperatorIndex) -> Optional[CrystalWord]:
    """Lowering operator: rewrite the leftmost surviving i to i+1, or None."""
    _check_op(w, op)
    _, opens = _signature(w.words[op.k], op.i)
    if not opens:
        return None
    return w.replace(op.k, opens[0], op.i + 1)


def is_singular_word(w: CrystalWord) -> bool:
    """True when every prefix of every component word has partition weight."""
    for k, word in enumerate(w.words):
        counts = [0] * w.bound.m[k]
        for a in word:
            counts[a] += 1
            if a and counts[a] > counts[a - 1]:
                return False
    return True


def reading(t: Tableau) -> CrystalWord:
    """Letter sequences of a semistandard filling, one per entry component.

    Cells are scanned once in reading order; the letter of each entry is
    appended to the sequence of its entry component.
    """
    if not is_semistandard(t):
        raise InputError("reading is defined on semistandard fillings only")
    words: list = [[] for _ in range(t.bound.r)]
    for e in t.entries:
        words[e.c].append(e.a)
    return CrystalWord(words, t.bound)


def is_singular(t: Tableau) -> bool:
    return is_singular_word(reading(t))


class CrystalComponent(NamedTuple):
    """One connected piece of the crystal graph of a shape."""

    highest_weight: MultiPartition
    tableaux: tuple
    edges: tuple  # (source index, operator, target index)


def crystal_components(shape, bound: ShapeBound) -> list:
    """Connected components of the crystal graph on all fillings of a shape.

    The graph is built inside each equivalence class; every component holds
    exactly one singular filling, whose weight labels the component.
    """
    # enumerate_all_tableaux refuses a bad shape or bound before ops reads it.
    fillings = enumerate_all_tableaux(shape, bound)
    ops = tuple(operator_indices(bound))
    components = []
    for cls in equivalence_classes(fillings):
        words = [reading(t) for t in cls]
        by_word = {w: p for p, w in enumerate(words)}
        parent = list(range(len(cls)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges = []
        for p, w in enumerate(words):
            for op in ops:
                out = ftilde(w, op)
                if out is None:
                    continue
                q = by_word.get(out)
                if q is None:
                    raise ConsistencyError(
                        "lowering left the equivalence class: convention bug"
                    )
                edges.append((p, op, q))
                ra, rb = find(p), find(q)
                if ra != rb:
                    parent[ra] = rb
        groups: dict = {}
        for p in range(len(cls)):
            groups.setdefault(find(p), []).append(p)
        for members in groups.values():
            sing = [p for p in members if is_singular_word(words[p])]
            if len(sing) != 1:
                raise ConsistencyError(
                    f"component has {len(sing)} singular fillings: convention bug"
                )
            weight = word_weight(words[sing[0]])
            hw = MultiPartition(Partition(row) for row in weight.rows)
            remap = {p: q for q, p in enumerate(members)}
            comp_edges = tuple(
                (remap[s], op, remap[d]) for (s, op, d) in edges if s in remap
            )
            components.append(
                CrystalComponent(hw, tuple(cls[p] for p in members), comp_edges)
            )
    components.sort(
        key=lambda c: (
            _component_sort_key(c.highest_weight),
            -len(c.tableaux),
            c.tableaux[0].entries,
        )
    )
    return components


def _component_sort_key(mp: MultiPartition) -> tuple:
    return tuple((-c.size,) + tuple(-x for x in c.parts) for c in mp.components)
