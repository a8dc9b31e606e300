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
    expect(ShapeBound, bound)
    return (OperatorIndex(i, k) for k, mk in enumerate(bound.m) for i in range(mk - 1))


def word_weight(w: CrystalWord) -> MultiComposition:
    expect(CrystalWord, w)
    rows = [[0] * mk for mk in w.bound.m]
    for k, word in enumerate(w.words):
        for a in word:
            rows[k][a] += 1
    return MultiComposition(rows)


def _operator(w: CrystalWord, op) -> tuple:
    """The pair (i, k) of op, refused unless it names an operator of w's bound."""
    expect(CrystalWord, w)
    pair = ints(op)
    m = w.bound.m
    if len(pair) == 2:
        i, k = pair
        if 0 <= k < len(m) and 0 <= i < m[k] - 1:
            return pair
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
    i, k = _operator(w, op)
    closes, _ = _signature(w.words[k], i)
    if not closes:
        return None
    return w.replace(k, closes[-1], i)


def ftilde(w: CrystalWord, op: OperatorIndex) -> Optional[CrystalWord]:
    """Lowering operator: rewrite the leftmost surviving i to i+1, or None."""
    i, k = _operator(w, op)
    word = w.words[k]
    # Without a letter i there is nothing to lower. Most calls from
    # crystal_components end here, before the signature scan.
    if i not in word:
        return None
    _, opens = _signature(word, i)
    if not opens:
        return None
    return w.replace(k, opens[0], i + 1)


def is_singular_word(w: CrystalWord) -> bool:
    """True when every prefix of every component word has partition weight."""
    expect(CrystalWord, w)
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

    Inside each equivalence class, every component is the lowering orbit of
    its one singular filling, whose weight labels the component. Its
    tableaux are in enumeration order, its edges by source and then in
    operator_indices order.
    """
    # enumerate_all_tableaux refuses a bad shape or bound before ops reads it.
    fillings = enumerate_all_tableaux(shape, bound)
    ops = tuple(operator_indices(bound))
    components = []
    for cls in equivalence_classes(fillings):
        words = [reading(t) for t in cls]
        by_word = {w.words: p for p, w in enumerate(words)}
        tops = [p for p, w in enumerate(words) if is_singular_word(w)]
        owner = {top: top for top in tops}
        lowered = {}  # filling -> its (operator, target) pairs in operator order
        for top in tops:
            members = [top]
            for p in members:
                out = lowered[p] = []
                for op in ops:
                    down = ftilde(words[p], op)
                    if down is None:
                        continue
                    q = by_word.get(down.words)
                    if q is None:
                        raise ConsistencyError(
                            "lowering left the equivalence class: convention bug"
                        )
                    if q not in owner:
                        owner[q] = top
                        members.append(q)
                    elif owner[q] != top:
                        raise ConsistencyError(
                            "two singular fillings share a component: convention bug"
                        )
                    out.append((op, q))
            members.sort()
            remap = {p: i for i, p in enumerate(members)}
            weight = word_weight(words[top])
            hw = MultiPartition(Partition(row) for row in weight.rows)
            comp_edges = tuple(
                (remap[p], op, remap[q]) for p in members for op, q in lowered[p]
            )
            components.append(
                CrystalComponent(hw, tuple(cls[p] for p in members), comp_edges)
            )
        if len(owner) < len(cls):
            raise ConsistencyError(
                "a filling lies below no singular filling: convention bug"
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
