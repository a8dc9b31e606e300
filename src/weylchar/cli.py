"""Command-line surface.

Shapes are passed as strict JSON (quote them in the shell). Exit codes:
0 success, 2 malformed input, an input too deep to compute or an OS error
(such as an unwritable --out), 3 internal consistency failure. Results are
deterministic byte for byte for fixed inputs, and a warm cache replays
them unchanged, warning lines and exit code included.
"""

import argparse
import json
import os
import re
import sys
import warnings

from .cache import FileCache
from .errors import ConsistencyError, InputError

# The route names of branching.METHODS, here so that building the parser
# loads no engine code. Each command imports the engine modules it uses when
# it runs, so a warm cache replay loads none of them.
_ROUTES = ("singular", "chain", "solve")


def _parse_shape(text: str, r=None):
    from .serialize import multipartition_from_obj

    try:
        obj = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer of too many digits
        raise InputError(f"invalid JSON shape: {exc}")
    return multipartition_from_obj(obj, r)


def _parse_m(text: str):
    from .shapes import MAX_CAP, ShapeBound

    if not re.fullmatch(r"[0-9]+(,[0-9]+)*", text):
        raise InputError(f"bad --m value {text!r}: need comma-separated integers")
    try:
        caps = [int(x) for x in text.split(",")]
    except ValueError:  # more digits than int() converts, so far above any cap
        raise InputError(f"bad --m value: a cap above {MAX_CAP}")
    return ShapeBound(caps)


def _resolve_bound(args, n: int, r: int):
    from .shapes import ShapeBound

    if args.m is not None:
        bound = _parse_m(args.m)
        if bound.r != r:
            raise InputError(f"--m has {bound.r} components, expected {r}")
    else:
        bound = ShapeBound.for_size(n, r)
    bound.require_stable(n)
    return bound


def _json(obj) -> str:
    from .serialize import json_bytes

    return json_bytes(obj).decode()


def _matrix_output(mat, fmt: str) -> tuple:
    from .serialize import matrix_to_json, matrix_to_tsv

    if fmt == "tsv":
        return matrix_to_tsv(mat), 0
    return matrix_to_json(mat), 0


def cmd_beta(args) -> tuple:
    from . import branching

    la = _parse_shape(args.lam)
    mu = _parse_shape(args.mu, la.r)
    if args.method == "all":
        values = {
            name: branching.multiplicity(la, mu, method=name)
            for name in branching.METHODS
        }
        agree = len(set(values.values())) == 1
        return _json({**values, "agree": agree}), (0 if agree else 3)
    return f"{branching.multiplicity(la, mu, method=args.method)}\n", 0


def cmd_beta_matrix(args) -> tuple:
    from .branching import multiplicity_matrix

    bound = _resolve_bound(args, args.n, args.r)
    mat = multiplicity_matrix(args.n, bound, method=args.method)
    return _matrix_output(mat, args.format)


def cmd_character(args) -> tuple:
    from .serialize import expansion_to_json
    from .symfunc import character

    la = _parse_shape(args.lam)
    bound = _resolve_bound(args, la.size, la.r)
    return expansion_to_json(character(la, bound)), 0


def cmd_tilde(args) -> tuple:
    from .serialize import expansion_to_json
    from .symfunc import weyl_schur

    return expansion_to_json(weyl_schur(_parse_shape(args.lam))), 0


def cmd_cmul(args) -> tuple:
    from .serialize import expansion_to_json
    from .symfunc import structure_constants

    la = _parse_shape(args.lam)
    mu = _parse_shape(args.mu, la.r)
    return expansion_to_json(structure_constants(la, mu), "tilde"), 0


def cmd_conjecture_scan(args) -> tuple:
    from .serialize import scan_report_to_obj
    from .symfunc import scan_structure_constants

    report = scan_structure_constants(args.n_max, args.r)
    return _json(scan_report_to_obj(report)), 0


def cmd_crystal_graph(args) -> tuple:
    from .crystal import crystal_components
    from .serialize import components_to_dot, components_to_summary
    from .shapes import SkewShape

    la = _parse_shape(args.lam)
    inner = _parse_shape(args.inner, la.r) if args.inner is not None else None
    bound = _resolve_bound(args, la.size, la.r)
    comps = crystal_components(SkewShape(la, inner), bound)
    if args.format == "json":
        return _json(components_to_summary(comps)), 0
    return components_to_dot(comps), 0


def _read_matrix_files(args) -> dict:
    """The text of every matrix file the command names, read once as UTF-8."""
    texts = {}
    for name in ("b", "dbar", "x", "d"):
        path = getattr(args, name, None)
        if path is not None and path != "auto":
            try:
                with open(path, "rb") as fh:
                    texts[name] = fh.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path} is not UTF-8: {exc}")
            except ValueError as exc:  # a NUL byte or lone surrogate in the path
                raise InputError(f"bad path {path!r}: {exc}")
    return texts


def _load_matrix(args, name: str):
    from .serialize import matrix_from_obj

    try:
        obj = json.loads(args.texts[name])
    except ValueError as exc:
        raise InputError(f"invalid JSON in {getattr(args, name)}: {exc}")
    return matrix_from_obj(obj)


def cmd_factorize(args) -> tuple:
    from . import branching
    from .serialize import residual_report_to_obj
    from .shapes import multipartitions

    if args.x is not None and args.d is None:
        raise InputError("--X is only meaningful with --D (residual report)")
    if args.d is not None and args.format != "json":
        raise InputError("--D emits a JSON residual report; --format must be json")
    dbar = _load_matrix(args, "dbar")
    if "b" in args.texts:
        bmat = _load_matrix(args, "b")
    else:
        if multipartitions(dbar.n, dbar.r) != dbar.order:
            raise InputError("dbar order is not the canonical order")
        bmat = branching.multiplicity_matrix(dbar.n, dbar.bound)
    if args.d is not None:
        xmat = None if args.x is None else _load_matrix(args, "x")
        dmat = _load_matrix(args, "d")
        report = branching.factorization_residual(bmat, dbar, xmat, dmat)
        return _json(residual_report_to_obj(report)), 0
    return _matrix_output(branching.derive_decomposition(bmat, dbar), args.format)


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


def _add_bound(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", help="comma-separated component caps, default n each")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylchar",
        description="exact multipartition tableau, crystal and character engine",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = command("beta", "one branching multiplicity")
    p.add_argument("--lambda", dest="lam", required=True, help="shape, JSON")
    p.add_argument("--mu", required=True, help="weight shape, JSON")
    p.add_argument(
        "--method",
        choices=list(_ROUTES) + ["all"],
        default="chain",
    )
    _add_common(p)

    p = command("beta-matrix", "full multiplicity matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="number of components")
    p.add_argument("--method", choices=list(_ROUTES), default="chain")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    _add_bound(p)
    _add_common(p)

    p = command("character", "monomial character of a shape")
    p.add_argument("--lambda", dest="lam", required=True)
    _add_bound(p)
    _add_common(p)

    p = command("tilde", "character in the Schur basis")
    p.add_argument("--lambda", dest="lam", required=True)
    _add_common(p)

    p = command("cmul", "structure constants of a product")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    _add_common(p)

    p = command("conjecture-scan", "scan structure constants")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="number of components")
    _add_common(p)

    p = command("crystal-graph", "crystal graph of a shape")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--inner", help="inner shape for a skew diagram, JSON")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    _add_bound(p)
    _add_common(p)

    p = command("factorize", "decomposition-matrix harness")
    p.add_argument("--B", dest="b", default="auto", help="matrix file or 'auto'")
    p.add_argument("--Dbar", dest="dbar", required=True, help="matrix file")
    p.add_argument("--X", dest="x", help="matrix file, default identity")
    p.add_argument("--D", dest="d", help="matrix file; emit residual report")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    _add_common(p)

    return parser


def _cache_key(args) -> dict:
    """Every option but --out and --cache-dir; a matrix file by its text."""
    return {
        name: args.texts.get(name, value)
        for name, value in sorted(vars(args).items())
        if name not in ("out", "cache_dir", "texts")
    }


def _replayable(record) -> bool:
    """True for a cached record of exactly the form _run returns."""
    return (
        isinstance(record, dict)
        and record.keys() == {"output", "code", "warnings"}
        and isinstance(record["output"], str)
        and type(record["code"]) is int and record["code"] in (0, 3)
        and isinstance(record["warnings"], list)
        and all(isinstance(w, str) for w in record["warnings"])
    )


def _run(args) -> dict:
    """Run one command; the record a warm cache replays in full."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        output, code = _COMMANDS[args.command](args)
    messages = [str(w.message) for w in caught]
    return {"output": output, "code": code, "warnings": messages}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env = os.environ.get("WEYLCHAR_CACHE") or None  # empty means unset
    cache_dir = env if args.cache_dir is None else args.cache_dir
    op = "cli-" + args.command
    try:
        args.texts = _read_matrix_files(args)
        cache = FileCache(cache_dir) if cache_dir is not None else None
        key = _cache_key(args) if cache else None
        record = cache.get(op, key) if cache else None
        if not _replayable(record):
            record = _run(args)
            if cache:
                cache.put(op, key, record)
        for message in record["warnings"]:
            print(f"warning: {message}", file=sys.stderr)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(record["output"])
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too large: recursion limit exceeded", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(record["output"])
    return record["code"]


if __name__ == "__main__":
    sys.exit(main())
