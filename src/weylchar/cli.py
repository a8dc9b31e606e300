"""Command-line surface.

Shapes are passed as strict JSON (quote them in the shell). Exit codes:
0 success, 2 malformed input or an OS error (such as an unwritable --out),
3 internal consistency failure. Results are deterministic byte for byte for
fixed inputs, and a warm cache replays them unchanged.
"""

import argparse
import json
import os
import sys
import warnings

from . import branching, symfunc
from .cache import FileCache
from .crystal import crystal_components
from .errors import ConsistencyError, InputError
from .serialize import (
    components_to_dot,
    components_to_summary,
    json_bytes,
    matrix_from_obj,
    matrix_to_obj,
    matrix_to_tsv,
    expansion_to_obj,
    multipartition_from_obj,
    scan_report_to_obj,
    weyl_expansion_to_obj,
)
from .shapes import ShapeBound, SkewShape, multipartitions


def _parse_shape(text: str, r=None):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON shape: {exc}")
    return multipartition_from_obj(obj, r)


def _parse_m(text: str) -> ShapeBound:
    try:
        return ShapeBound(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad --m value {text!r}: {exc}")


def _resolve_bound(args, n: int, r: int) -> ShapeBound:
    if getattr(args, "m", None):
        bound = _parse_m(args.m)
        if bound.r != r:
            raise InputError(f"--m has {bound.r} components, expected {r}")
    else:
        bound = ShapeBound.for_size(n, r)
    bound.require_stable(n)
    return bound


def cmd_beta(args) -> tuple:
    la = _parse_shape(args.lam, args.r)
    mu = _parse_shape(args.mu, la.r)
    bound = _resolve_bound(args, la.size, la.r)
    if args.method == "all":
        values = {
            name: branching.multiplicity(la, mu, bound, method=name)
            for name in branching.METHODS
        }
        agree = len(set(values.values())) == 1
        out = json_bytes({**values, "agree": agree}).decode()
        return out, (0 if agree else 3)
    return f"{branching.multiplicity(la, mu, bound, method=args.method)}\n", 0


def cmd_beta_matrix(args) -> tuple:
    if args.n is None or args.r is None:
        raise InputError("beta-matrix needs --n and --r")
    bound = _resolve_bound(args, args.n, args.r)
    mat = branching.multiplicity_matrix(args.n, bound, method=args.method)
    if args.format == "tsv":
        return matrix_to_tsv(mat), 0
    return json_bytes(matrix_to_obj(mat)).decode(), 0


def cmd_character(args) -> tuple:
    la = _parse_shape(args.lam, args.r)
    bound = _resolve_bound(args, la.size, la.r)
    poly = symfunc.character(la, bound)
    return json_bytes(expansion_to_obj(poly)).decode(), 0


def cmd_tilde(args) -> tuple:
    la = _parse_shape(args.lam, args.r)
    bound = _resolve_bound(args, la.size, la.r)
    exp = symfunc.weyl_schur(la, bound)
    return json_bytes(expansion_to_obj(exp)).decode(), 0


def cmd_cmul(args) -> tuple:
    la = _parse_shape(args.lam)
    mu = _parse_shape(args.mu, la.r)
    exp = symfunc.structure_constants(la, mu)
    return json_bytes(weyl_expansion_to_obj(exp)).decode(), 0


def cmd_conjecture_scan(args) -> tuple:
    if args.n_max is None or args.r is None:
        raise InputError("conjecture-scan needs --n-max and --r")
    report = symfunc.scan_structure_constants(args.n_max, args.r)
    return json_bytes(scan_report_to_obj(report)).decode(), 0


def cmd_crystal_graph(args) -> tuple:
    la = _parse_shape(args.lam, args.r)
    inner = (
        _parse_shape(args.inner, la.r) if args.inner else None
    )
    bound = _resolve_bound(args, la.size, la.r)
    shape = SkewShape(la, inner)
    comps = crystal_components(shape, bound)
    if args.format == "json":
        return json_bytes(components_to_summary(comps)).decode(), 0
    return components_to_dot(comps), 0


def _load_matrix(path: str) -> branching.IndexedMatrix:
    try:
        with open(path, "rb") as fh:
            obj = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}")
    return matrix_from_obj(obj)


def cmd_factorize(args) -> tuple:
    dbar = _load_matrix(args.dbar)
    if args.b and args.b != "auto":
        bmat = _load_matrix(args.b)
    else:
        if multipartitions(dbar.n, dbar.bound) != dbar.order:
            raise InputError("dbar order is not the canonical order")
        bmat = branching.multiplicity_matrix(dbar.n, dbar.bound)
    if not bmat.same_index(dbar):
        raise InputError("B and Dbar are indexed differently")
    if args.x and not args.d:
        raise InputError("--X is only meaningful with --D (residual report)")
    if args.d:
        if args.x:
            xmat = _load_matrix(args.x)
        else:
            dim = dbar.dim
            xmat = branching.IndexedMatrix(
                dbar.n,
                dbar.bound,
                dbar.order,
                [[int(i == j) for j in range(dim)] for i in range(dim)],
            )
        dmat = _load_matrix(args.d)
        report = branching.factorization_residual(bmat, dbar, xmat, dmat)
        worst = report["worst_entry"]
        obj = {
            "max_abs": report["max_abs"],
            "zero": report["zero"],
            "worst_entry": None if worst is None else list(worst),
        }
        return json_bytes(obj).decode(), 0
    derived = branching.derive_decomposition(bmat, dbar)
    if args.format == "tsv":
        return matrix_to_tsv(derived), 0
    return json_bytes(matrix_to_obj(derived)).decode(), 0


_COMMANDS = {
    "beta": cmd_beta,
    "beta-matrix": cmd_beta_matrix,
    "character": cmd_character,
    "tilde": cmd_tilde,
    "cmul": cmd_cmul,
    "conjecture-scan": cmd_conjecture_scan,
    "crystal-graph": cmd_crystal_graph,
    "factorize": cmd_factorize,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--cache-dir", help="cache directory (or env WEYLCHAR_CACHE)")
    p.add_argument("--m", help="comma-separated component caps, default n each")
    p.add_argument("--r", type=int, help="number of components")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylchar",
        description="exact multipartition tableau, crystal and character engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("beta", help="one branching multiplicity")
    p.add_argument("--lambda", dest="lam", required=True, help="shape, JSON")
    p.add_argument("--mu", required=True, help="weight shape, JSON")
    p.add_argument(
        "--method",
        choices=list(branching.METHODS) + ["all"],
        default="chain",
    )
    _add_common(p)

    p = sub.add_parser("beta-matrix", help="full multiplicity matrix")
    p.add_argument("--n", type=int)
    p.add_argument("--method", choices=list(branching.METHODS), default="chain")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    _add_common(p)

    p = sub.add_parser("character", help="monomial character of a shape")
    p.add_argument("--lambda", dest="lam", required=True)
    _add_common(p)

    p = sub.add_parser("tilde", help="character in the Schur basis")
    p.add_argument("--lambda", dest="lam", required=True)
    _add_common(p)

    p = sub.add_parser("cmul", help="structure constants of a product")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    _add_common(p)

    p = sub.add_parser("conjecture-scan", help="scan structure constants")
    p.add_argument("--n-max", dest="n_max", type=int)
    _add_common(p)

    p = sub.add_parser("crystal-graph", help="crystal graph of a shape")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--inner", help="inner shape for a skew diagram, JSON")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    _add_common(p)

    p = sub.add_parser("factorize", help="decomposition-matrix harness")
    p.add_argument("--B", dest="b", default="auto", help="matrix file or 'auto'")
    p.add_argument("--Dbar", dest="dbar", required=True, help="matrix file")
    p.add_argument("--X", dest="x", help="matrix file, default identity")
    p.add_argument("--D", dest="d", help="matrix file; emit residual report")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    _add_common(p)

    return parser


def _cache_key(args) -> dict:
    skip = {"out", "cache_dir"}
    key = {}
    for name, value in sorted(vars(args).items()):
        if name in skip:
            continue
        if name in ("b", "dbar", "x", "d") and value and value != "auto":
            try:
                with open(value, "rb") as fh:
                    value = fh.read().decode("utf-8", "replace")
            except OSError:
                pass
        key[name] = value
    return key


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get("WEYLCHAR_CACHE")
    try:
        cache = FileCache(cache_dir) if cache_dir else None
        cached = cache.get("cli-" + args.command, _cache_key(args)) if cache else None
        if cached is not None:
            output, code = cached["output"], cached["code"]
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                output, code = _COMMANDS[args.command](args)
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
            if cache:
                cache.put(
                    "cli-" + args.command,
                    _cache_key(args),
                    {"output": output, "code": code},
                )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    if not args.out:
        sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
