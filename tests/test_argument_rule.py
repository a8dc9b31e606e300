"""One argument rule at every call site.

A value argument that is not of its type is refused with InputError in one
wording, "expected a <Class>, got <repr>" ("an" before a vowel), and two
values whose component counts differ are refused in one other wording,
"component counts disagree: <a.r> vs <b.r>". Every value-type constructor
refuses with InputError what it cannot hold: a value of the wrong type in a
typed field, and anything that is not iterable where it takes a sequence.

The memoized public names (partitions_of, multipartitions,
multicompositions, skew_singular_count) are left out: their memos hash the
arguments before the body checks them.
"""

import re
from collections.abc import Mapping

import pytest

from weylchar import (
    CrystalWord,
    Grouping,
    IndexedMatrix,
    InputError,
    MonomialPoly,
    MultiComposition,
    MultiPartition,
    SchurExpansion,
    ShapeBound,
    SkewShape,
    Tableau,
    character,
    count_straight_tableaux,
    crystal_components,
    derive_decomposition,
    dominates,
    enumerate_all_tableaux,
    enumerate_tableaux,
    equivalence_classes,
    equivalence_key,
    etilde,
    factorization_residual,
    ftilde,
    grouping_factorization_check,
    identity_matrix,
    invert_unitriangular,
    is_semistandard,
    is_singular,
    is_singular_word,
    layer_chains,
    matrix_product,
    multipartitions,
    multiplicity,
    multiplicity_matrix,
    multiplicity_row_by_solve,
    operator_indices,
    reading,
    schur_product,
    structure_constants,
    superstandard,
    truncate_to_bound,
    weight_of,
    weyl_schur,
    word_weight,
)
from weylchar.serialize import matrix_from_obj

LA = MultiPartition([[1], [1]])
MU = MultiPartition([[2], []])
BOUND = ShapeBound([2, 2])
SHAPE = SkewShape(LA)
WEIGHT = MultiComposition([[1, 0], [1, 0]])
ENTRIES = ((0, 0), (0, 1))
EXPANSION = SchurExpansion(2, 2, {LA: 1})
MATRIX = identity_matrix(1, ShapeBound([1, 1]))
TABLEAU = superstandard(LA, BOUND)
WORD = CrystalWord([[0], [1]], BOUND)
OP = (0, 1)

# A value in each wrong form: nothing, a list and a string.
HOSTILE = (None, [[1], [1]], "x")
# A sequence argument in each form it cannot take.
NOT_SEQUENCE = (None, 5, "x", [None])


def typed(cls, values=HOSTILE):
    """The hostile values of a typed position, each with the rule's wording."""
    names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    article = "an" if names[0] in "AEIOU" else "a"
    return [(v, re.escape(f"expected {article} {names}, got {v!r}")) for v in values]


def untyped(values):
    """Hostile values refused with InputError in whatever wording fits."""
    return [(v, None) for v in values]


MP, SB = MultiPartition, ShapeBound
# (function, valid arguments, {position: [(hostile value, message)]})
SITES = [
    (layer_chains, (LA, (1, 1)), {0: typed(MP)}),
    (multiplicity_row_by_solve, (LA,), {0: typed(MP)}),
    (multiplicity, (LA, MU), {0: typed(MP), 1: typed(MP)}),
    (
        grouping_factorization_check,
        (LA, LA, Grouping([1, 1])),
        {0: typed(MP), 1: typed(MP), 2: typed(Grouping)},
    ),
    (invert_unitriangular, (MATRIX,), {0: typed(IndexedMatrix)}),
    (
        matrix_product,
        (MATRIX, MATRIX),
        {0: typed(IndexedMatrix), 1: typed(IndexedMatrix)},
    ),
    (
        derive_decomposition,
        (MATRIX, MATRIX),
        {0: typed(IndexedMatrix), 1: typed(IndexedMatrix)},
    ),
    (
        factorization_residual,
        (MATRIX, MATRIX, MATRIX, MATRIX),
        # x=None stands for the identity, so only a list and a string there.
        {p: typed(IndexedMatrix, HOSTILE[1:] if p == 2 else HOSTILE) for p in range(4)},
    ),
    (count_straight_tableaux, (LA, MU), {0: typed(MP), 1: typed(MP)}),
    (weyl_schur, (LA,), {0: typed(MP)}),
    # None is character's default bound, so only a list and a string there.
    (character, (LA, BOUND), {0: typed(MP), 1: typed(SB, HOSTILE[1:])}),
    (
        Tableau,
        (SHAPE, ENTRIES, BOUND),
        {0: typed(SkewShape), 1: untyped(NOT_SEQUENCE), 2: typed(SB)},
    ),
    (
        enumerate_tableaux,
        (SHAPE, WEIGHT),
        {0: typed(SkewShape), 1: typed(MultiComposition)},
    ),
    (enumerate_all_tableaux, (SHAPE, BOUND), {0: typed(SkewShape), 1: typed(SB)}),
    (crystal_components, (SHAPE, BOUND), {0: typed(SkewShape), 1: typed(SB)}),
    (
        schur_product,
        (EXPANSION, EXPANSION),
        {0: typed(SchurExpansion), 1: typed(SchurExpansion)},
    ),
    (structure_constants, (LA, MU), {0: typed(MP), 1: typed(MP)}),
    (truncate_to_bound, (EXPANSION, BOUND), {0: typed(SchurExpansion), 1: typed(SB)}),
    (
        dominates,
        (LA, WEIGHT),
        {0: typed((MP, MultiComposition)), 1: typed((MP, MultiComposition))},
    ),
    (
        IndexedMatrix,
        (1, MATRIX.bound, MATRIX.order, MATRIX.rows),
        {
            0: untyped(HOSTILE),
            1: typed(SB),
            2: untyped(NOT_SEQUENCE) + [(["x"], "expected a MultiPartition, got 'x'")],
            3: untyped(NOT_SEQUENCE),
        },
    ),
    (
        identity_matrix,
        (1, BOUND),
        {0: untyped(HOSTILE), 1: typed(SB, HOSTILE + ((2, 2),))},
    ),
    (
        multiplicity_matrix,
        (1, BOUND),
        {0: untyped(HOSTILE), 1: typed(SB, HOSTILE + ((2, 2),))},
    ),
    (MultiPartition, ([[1], [1]],), {0: untyped(NOT_SEQUENCE)}),
    (MultiComposition, ([[1, 0], [1]],), {0: untyped(NOT_SEQUENCE)}),
    (CrystalWord, ([[0], [1]], BOUND), {0: untyped(NOT_SEQUENCE), 1: typed(SB)}),
    # None is SkewShape's default inner shape, so only a list and a string there.
    (SkewShape, (LA, MU.empty(2)), {0: typed(MP), 1: typed(MP, HOSTILE[1:])}),
    (
        SchurExpansion,
        (2, 2, {LA: 1}),
        {0: untyped(HOSTILE), 1: untyped(HOSTILE), 2: typed(Mapping)},
    ),
    (
        MonomialPoly,
        (BOUND, 2, {WEIGHT: 1}),
        {0: typed(SB), 1: untyped(HOSTILE), 2: typed(Mapping)},
    ),
    (reading, (TABLEAU,), {0: typed(Tableau)}),
    (is_singular, (TABLEAU,), {0: typed(Tableau)}),
    (is_semistandard, (TABLEAU,), {0: typed(Tableau)}),
    (weight_of, (TABLEAU,), {0: typed(Tableau)}),
    (equivalence_key, (TABLEAU,), {0: typed(Tableau)}),
    (
        equivalence_classes,
        ([TABLEAU],),
        # Each item of a list or a string is checked.
        {
            0: [
                (None, "not iterable: None"),
                ([[1], [1]], re.escape("expected a Tableau, got [1]")),
                ("x", re.escape("expected a Tableau, got 'x'")),
            ]
        },
    ),
    # The operator pair goes through ints and must name an operator of the
    # word's bound.
    (
        etilde,
        (WORD, OP),
        {0: typed(CrystalWord), 1: untyped(HOSTILE + ((0, 1, 0), (0,), (1, 1)))},
    ),
    (
        ftilde,
        (WORD, OP),
        {0: typed(CrystalWord), 1: untyped(HOSTILE + ((0, 1, 0), (0,), (1, 1)))},
    ),
    (is_singular_word, (WORD,), {0: typed(CrystalWord)}),
    (word_weight, (WORD,), {0: typed(CrystalWord)}),
    # Refused when called, not when the returned iterator is first read.
    (operator_indices, (BOUND,), {0: typed(SB)}),
]

CASES = [
    pytest.param(fn, args, pos, value, message, id=f"{fn.__name__}-{pos}-{value!r}")
    for fn, args, positions in SITES
    for pos, hostiles in positions.items()
    for value, message in hostiles
]


@pytest.mark.parametrize("fn, args, pos, value, message", CASES)
def test_hostile_argument_is_refused(fn, args, pos, value, message):
    bad = args[:pos] + (value,) + args[pos + 1 :]
    with pytest.raises(InputError, match=message):
        fn(*bad)


# Calls that ended in AttributeError or TypeError before the rule.
NAMED = {
    "structure_constants(None, la)": lambda: structure_constants(None, LA),
    "schur_product(None, e)": lambda: schur_product(None, EXPANSION),
    "truncate_to_bound(e, None)": lambda: truncate_to_bound(EXPANSION, None),
    "Tableau(sh, entries, None)": lambda: Tableau(SHAPE, ENTRIES, None),
    "enumerate_tableaux(sh, None)": lambda: enumerate_tableaux(SHAPE, None),
    "enumerate_all_tableaux(None, b)": lambda: enumerate_all_tableaux(None, BOUND),
    "dominates(None, la)": lambda: dominates(None, LA),
    "crystal_components(sh, None)": lambda: crystal_components(SHAPE, None),
    "identity_matrix(2, None)": lambda: identity_matrix(2, None),
    "IndexedMatrix(1, None, ...)": lambda: IndexedMatrix(
        1, None, multipartitions(1, 2), [[1, 0], [0, 1]]
    ),
    "multiplicity_matrix(2, (2, 2))": lambda: multiplicity_matrix(2, (2, 2)),
    "identity_matrix([2], b)": lambda: identity_matrix([2], BOUND),
    "MultiPartition(None)": lambda: MultiPartition(None),
    "MultiPartition(5)": lambda: MultiPartition(5),
    "MultiComposition(None)": lambda: MultiComposition(None),
    "CrystalWord(None, b)": lambda: CrystalWord(None, ShapeBound([1])),
    "Tableau(sh, None, b)": lambda: Tableau(SHAPE, None, BOUND),
    "IndexedMatrix(1, b, None, rows)": lambda: IndexedMatrix(
        1, ShapeBound([1]), None, [[1]]
    ),
    "SkewShape([[1], [1]])": lambda: SkewShape([[1], [1]]),
    "SkewShape(la, 'x')": lambda: SkewShape(LA, "x"),
    "Tableau(None, [], b)": lambda: Tableau(None, [], BOUND),
    "CrystalWord([[0]], None)": lambda: CrystalWord([[0]], None),
    "SchurExpansion(2, 1, None)": lambda: SchurExpansion(2, 1, None),
    "MonomialPoly(b, 1, None)": lambda: MonomialPoly(BOUND, 1, None),
    "MonomialPoly(None, 0, {})": lambda: MonomialPoly(None, 0, {}),
    "operator_indices(None)": lambda: operator_indices(None),
    "SchurExpansion(None, 0, {})": lambda: SchurExpansion(None, 0, {}),
    "SchurExpansion(2, 'x', {})": lambda: SchurExpansion(2, "x", {}),
    "MonomialPoly(b, None, {})": lambda: MonomialPoly(ShapeBound([1]), None, {}),
    "IndexedMatrix(None, b, [], [])": lambda: IndexedMatrix(None, ShapeBound([1]), [], []),
    "matrix_from_obj(n=-1)": lambda: matrix_from_obj(
        {"n": -1, "r": 1, "m": [1], "order": [], "rows": []}
    ),
}


@pytest.mark.parametrize("call", sorted(NAMED))
def test_named_call_is_refused(call):
    with pytest.raises(InputError):
        NAMED[call]()


def test_valid_arguments_are_accepted():
    # So each hostile case fails for its hostile argument alone.
    for fn, args, _ in SITES:
        result = fn(*args)
        if fn.__name__.startswith("enumerate"):
            list(result)


# Two values of different component counts, refused in the rule's wording
# with the first argument's count first.
ONE = MultiPartition([[1]])
COUNT_SITES = {
    "multiplicity": lambda: multiplicity(LA, ONE),
    "count_straight_tableaux": lambda: count_straight_tableaux(LA, ONE),
    "Tableau": lambda: Tableau(SHAPE, ENTRIES, ShapeBound([2])),
    "enumerate_tableaux": lambda: enumerate_tableaux(SHAPE, MultiComposition([[2]])),
    "enumerate_all_tableaux": lambda: enumerate_all_tableaux(SHAPE, ShapeBound([2])),
    "crystal_components": lambda: crystal_components(SHAPE, ShapeBound([2])),
    "character": lambda: character(LA, ShapeBound([2])),
    "schur_product": lambda: schur_product(EXPANSION, weyl_schur(ONE)),
    "structure_constants": lambda: structure_constants(LA, ONE),
    "truncate_to_bound": lambda: truncate_to_bound(EXPANSION, ShapeBound([2])),
    "dominates": lambda: dominates(LA, MultiComposition([[2]])),
}


@pytest.mark.parametrize("name", sorted(COUNT_SITES))
def test_component_counts_refused_in_one_wording(name):
    with pytest.raises(InputError, match=r"^component counts disagree: 2 vs 1$"):
        COUNT_SITES[name]()


def test_multiplicity_refuses_a_type_before_a_count():
    with pytest.raises(InputError, match="expected a MultiPartition, got None"):
        multiplicity(ONE, None)


def test_trusted_composition_equals_a_checked_one():
    for n, r in ((0, 1), (2, 2), (3, 2)):
        for mc in multipartitions(n, r):
            rows = tuple(c.parts + (0,) * (n - len(c)) for c in mc.components)
            checked = MultiComposition(rows)
            trusted = MultiComposition._trusted(rows, n)
            assert trusted == checked and checked == trusted
            assert hash(trusted) == hash(checked)
            assert (trusted.rows, trusted.size) == (checked.rows, checked.size)
            with pytest.raises(AttributeError):
                trusted.rows = ()
            with pytest.raises(AttributeError):
                del trusted.size
