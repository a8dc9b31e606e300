"""Exact combinatorics of multipartition tableaux, crystal words, branching
multiplicities, Weyl-module characters and their structure constants.

Each public name is imported from its submodule on first access (PEP 562),
so `import weylchar` alone loads no engine code.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each submodule.
_EXPORTS = {
    "shapes": (
        "Cell", "Grouping", "MultiComposition", "MultiPartition", "Partition",
        "ShapeBound", "SkewShape", "as_composition", "canonical_key",
        "cell_order_cmp", "component_sizes", "dominates", "group_sizes",
        "multicompositions", "multipartitions", "partitions_of",
        "prefix_dominates", "split_components",
    ),
    "tableaux": (
        "Entry", "Tableau", "count_tableaux", "count_straight_tableaux",
        "entry_le", "enumerate_all_tableaux", "enumerate_tableaux",
        "equivalence_classes", "equivalence_key", "is_semistandard",
        "superstandard", "weight_of",
    ),
    "crystal": (
        "CrystalWord", "OperatorIndex", "crystal_components", "etilde", "ftilde",
        "is_singular", "is_singular_word", "operator_indices", "reading",
        "word_weight",
    ),
    "branching": (
        "IndexedMatrix", "derive_decomposition", "factorization_residual",
        "grouping_factorization_check", "identity_matrix", "invert_unitriangular",
        "kostka", "layer_chains", "lr_coeff", "matrix_product", "multiplicity",
        "multiplicity_matrix", "multiplicity_row_by_solve", "skew_singular_count",
    ),
    "symfunc": (
        "MonomialPoly", "SchurExpansion", "character", "scan_structure_constants",
        "schur_product", "schur_to_monomials", "structure_constants",
        "to_schur_basis", "to_weyl_basis", "truncate_to_bound",
        "union_alphabet_schur", "weyl_schur",
    ),
    "errors": ("ConsistencyError", "InputError"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
