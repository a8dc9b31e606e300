"""External formats: JSON, TSV and DOT. All indices are 1-based here.

Internally everything is 0-based; this module is the only place where the
shift happens. Emitted JSON is deterministic byte for byte.
"""

import json

from .branching import IndexedMatrix
from .errors import InputError
from .shapes import MultiPartition, Partition, ShapeBound
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


def _ints_json(row) -> str:
    """One row of integers as canonical JSON, the form json_bytes gives."""
    return "[" + ",".join(map(str, row)) + "]"


def matrix_to_json(m: IndexedMatrix) -> str:
    """The matrix as canonical JSON text with keys n, r, m, order and rows.
    The rows are written one at a time, so the encoder never holds a string
    per entry of the whole matrix; the bytes are those json_bytes gives."""
    head = json.dumps(
        {
            "n": m.n,
            "r": m.r,
            "m": list(m.bound.m),
            "order": [multipartition_to_obj(mp) for mp in m.order],
        },
        separators=(",", ":"),
    )
    return head[:-1] + ',"rows":[' + ",".join(map(_ints_json, m.rows)) + "]}\n"


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


def expansion_to_json(e, basis: str = None) -> str:
    """The expansion as canonical JSON text with keys basis, degree and
    terms, each term {"index": rows, "coeff": c} in canonical order. basis
    names the basis, by default "monomial" or "schur" after the type ("tilde"
    for a character-basis expansion). Like matrix_to_json, the terms are
    written one at a time; the bytes are those json_bytes gives."""
    if isinstance(e, MonomialPoly):
        basis, rows_of = basis or "monomial", lambda mc: mc.rows
    elif isinstance(e, SchurExpansion):
        basis, rows_of = basis or "schur", lambda mp: (c.parts for c in mp.components)
    else:
        raise InputError(f"cannot serialize {type(e).__name__}")
    terms = ",".join(
        f'{{"index":[{",".join(map(_ints_json, rows_of(x)))}],"coeff":{c}}}'
        for x, c in e.canonical_items()
    )
    return f'{{"basis":{json.dumps(basis)},"degree":{e.degree},"terms":[{terms}]}}\n'


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
