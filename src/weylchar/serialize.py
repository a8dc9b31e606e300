"""External formats: JSON, TSV and DOT. All indices are 1-based here.

Internally everything is 0-based; this module is the only place where the
shift happens. Emitted JSON is deterministic byte for byte.
"""

import json

from .branching import IndexedMatrix
from .errors import InputError
from .shapes import MultiComposition, MultiPartition, Partition, ShapeBound
from .symfunc import MonomialPoly, SchurExpansion
from .tableaux import Tableau


def json_bytes(obj) -> bytes:
    """Canonical JSON encoding: fixed separators, preserved key order."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def multipartition_to_obj(mp: MultiPartition) -> list:
    return [list(c.parts) for c in mp.components]


def _is_int(x) -> bool:
    """A JSON integer; bools and floats are refused, never coerced."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


def multipartition_from_obj(obj, r: int = None) -> MultiPartition:
    if not isinstance(obj, list) or not obj or not all(_is_int_list(c) for c in obj):
        raise InputError(f"not a multipartition: {obj!r}")
    if r is not None and len(obj) != r:
        raise InputError(f"expected {r} components, got {len(obj)}")
    return MultiPartition(Partition(c) for c in obj)


def multicomposition_to_obj(mc: MultiComposition) -> list:
    return [list(row) for row in mc.rows]


def tableau_to_obj(t: Tableau) -> dict:
    """Cells listed in reading order as 1-based [i, j, k, a, c] rows."""
    return {
        "shape": multipartition_to_obj(t.shape.outer),
        "inner": multipartition_to_obj(t.shape.inner),
        "entries": [
            [cell.i + 1, cell.j + 1, cell.k + 1, e.a + 1, e.c + 1]
            for cell, e in zip(t.shape.cells(), t.entries)
        ],
    }


def matrix_to_obj(m: IndexedMatrix) -> dict:
    return {
        "n": m.n,
        "r": m.r,
        "m": list(m.bound.m),
        "order": [multipartition_to_obj(mp) for mp in m.order],
        "rows": [list(row) for row in m.rows],
    }


def matrix_from_obj(obj) -> IndexedMatrix:
    try:
        n, r, m, order, rows = (obj[k] for k in ("n", "r", "m", "order", "rows"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad matrix object: {exc}")
    if not (
        _is_int(n)
        and _is_int(r)
        and _is_int_list(m)
        and isinstance(order, list)
        and isinstance(rows, list)
        and all(_is_int_list(row) for row in rows)
    ):
        raise InputError("bad matrix object: n, r, m and rows must hold integers")
    if len(m) != r:
        raise InputError(f"bad matrix object: r is {r} but m has {len(m)} entries")
    order = tuple(multipartition_from_obj(mp, r) for mp in order)
    return IndexedMatrix(n, ShapeBound(m), order, rows)


def residual_report_to_obj(report: dict) -> dict:
    """The factorization residual report; worst_entry is a 1-based
    [row, column] pair, or null when the residual is zero."""
    worst = report["worst_entry"]
    return dict(report, worst_entry=None if worst is None else [i + 1 for i in worst])


def matrix_to_tsv(m: IndexedMatrix) -> str:
    lines = [f"# n={m.n} r={m.r} m={','.join(str(x) for x in m.bound.m)}"]
    for mp, row in zip(m.order, m.rows):
        label = json.dumps(multipartition_to_obj(mp), separators=(",", ":"))
        lines.append(label + "\t" + "\t".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def expansion_to_obj(e) -> dict:
    if isinstance(e, MonomialPoly):
        basis, index = "monomial", multicomposition_to_obj
    elif isinstance(e, SchurExpansion):
        basis, index = "schur", multipartition_to_obj
    else:
        raise InputError(f"cannot serialize {type(e).__name__}")
    return {
        "basis": basis,
        "degree": e.degree,
        "terms": [{"index": index(x), "coeff": c} for x, c in e.canonical_items()],
    }


def weyl_expansion_to_obj(e: SchurExpansion) -> dict:
    obj = expansion_to_obj(e)
    obj["basis"] = "tilde"
    return obj


def scan_report_to_obj(report: dict) -> dict:
    def triple(v):
        la, mu, nu, c = v
        return {
            "lambda": multipartition_to_obj(la),
            "mu": multipartition_to_obj(mu),
            "nu": multipartition_to_obj(nu),
            "coeff": c,
        }

    return {
        "n_max": report["n_max"],
        "r": report["r"],
        "scanned": report["scanned"],
        "c1_violations": [triple(v) for v in report["c1_violations"]],
        "c2_violations": [triple(v) for v in report["c2_violations"]],
    }


def components_to_dot(components) -> str:
    """Crystal graph in DOT: one cluster per connected component, labeled by
    its highest weight; node labels are serialized tableaux, edges carry the
    lowering operator."""
    lines = ["digraph crystal {"]
    counter = 0
    for ci, comp in enumerate(components):
        hw = json.dumps(multipartition_to_obj(comp.highest_weight), separators=(",", ":"))
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="{hw}";')
        ids = []
        for t in comp.tableaux:
            label = json.dumps(tableau_to_obj(t), separators=(",", ":"))
            lines.append(f'    t{counter} [label="{label.replace(chr(34), chr(39))}"];')
            ids.append(f"t{counter}")
            counter += 1
        for src, op, dst in sorted(comp.edges):
            lines.append(
                f'    {ids[src]} -> {ids[dst]} [label="f({op.i + 1},{op.k + 1})"];'
            )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def components_to_summary(components) -> list:
    return [
        {
            "highest_weight": multipartition_to_obj(c.highest_weight),
            "size": len(c.tableaux),
        }
        for c in components
    ]
