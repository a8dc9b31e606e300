"""Run one `weylchar` command line under the benchmark's tracer.

    python3 bench/trace_child.py REPORT.json <weylchar arguments...>

The tracer rebinds public functions of every layer at each module that
imports them, then calls `weylchar.cli.main(argv)`, so stdout and the exit
code are those of the plain command. Hot functions are kept as aggregates
(calls, total seconds, self seconds); the job and command boundaries are
kept as spans. Self time is a span's duration minus the time of the wrapped
spans it contains. A generator is timed inside each `next`. After the job,
the report adds `cache_info()` of every memo in `shapes`, `branching` and
`symfunc`, and everything is written to REPORT.json at once.
"""

import json
import sys
from time import perf_counter

_t0 = perf_counter()
import weylchar.cli as cli  # noqa: E402  (its import time is measured)

IMPORT_S = perf_counter() - _t0

from weylchar import branching, cache, crystal, serialize, shapes, symfunc, tableaux  # noqa: E402

# The functools.cache memos whose hits, misses and entries are reported.
MEMOS = {
    shapes: ("_bounded_partitions", "multipartitions", "multicompositions"),
    branching: (
        "_kostka",
        "_lr",
        "skew_singular_count",
        "_singular_value",
        "_subpartitions",
        "_chain_value",
        "_solve_row",
    ),
    symfunc: ("_schur_component_monomials", "_schur_times", "_basis_change"),
}


class Agg:
    __slots__ = ("calls", "total_s", "self_s", "yields", "true", "nonzero", "bytes", "active")

    def __init__(self):
        self.calls = self.yields = self.true = self.nonzero = self.bytes = 0
        self.total_s = self.self_s = 0.0
        self.active = 0

    def to_obj(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "active"}


AGGS: dict = {}
SPANS: list = []
# Time covered by wrapped children of each open span; the bottom entry
# collects the time of outermost spans.
_child = [0.0]
_open: list = []


def _agg(name: str) -> Agg:
    return AGGS.setdefault(name, Agg())


def _enter(agg: Agg) -> float:
    _child.append(0.0)
    agg.active += 1
    return perf_counter()


def _leave(agg: Agg, start: float) -> float:
    dt = perf_counter() - start
    agg.active -= 1
    agg.self_s += dt - _child.pop()
    if not agg.active:
        agg.total_s += dt
    _child[-1] += dt
    return dt


def timed(name: str, fn, observe=None, span=False):
    """Wrap fn so each call is counted and timed under name."""
    agg = _agg(name)

    def wrapper(*args, **kwargs):
        agg.calls += 1
        if span:
            SPANS.append({"name": name, "parent": _open[-1] if _open else None})
            _open.append(len(SPANS) - 1)
        start = _enter(agg)
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = _leave(agg, start)
            if span:
                rec = SPANS[_open.pop()]
                rec["start_s"], rec["dur_s"] = start - _t0, dt
        if observe is not None:
            observe(agg, result)
        return result

    return wrapper


def timed_generator(name: str, fn):
    """Wrap a function returning an iterator; time creation and each next."""
    agg = _agg(name)

    def each(it):
        while True:
            start = _enter(agg)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                _leave(agg, start)
            agg.yields += 1
            yield item

    def wrapper(*args, **kwargs):
        agg.calls += 1
        start = _enter(agg)
        try:
            it = fn(*args, **kwargs)
        finally:
            _leave(agg, start)
        return each(iter(it))

    return wrapper


def counted_init(name: str, cls) -> None:
    """Count constructions of a hot value class without timing them."""
    agg = _agg(name)
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        agg.calls += 1
        init(self, *args, **kwargs)

    cls.__init__ = __init__


def rebind(obj, wrapper) -> None:
    """Replace obj by wrapper in every weylchar module that holds it."""
    sites = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "weylchar" and not modname.startswith("weylchar."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is obj:
                setattr(mod, attr, wrapper)
                sites += 1
    if not sites:
        raise SystemExit(f"trace: no import site holds {obj!r}")


def count_true(agg: Agg, result) -> None:
    agg.true += bool(result)


def count_cache_hit(agg: Agg, result) -> None:
    agg.true += result is not None


def count_bytes(agg: Agg, result) -> None:
    # Only the outermost serializer call returns the text that is printed.
    if not agg.active and isinstance(result, (str, bytes)):
        agg.bytes += len(result.encode("utf-8") if isinstance(result, str) else result)


def count_nonzero_misses(memo):
    """Count nonzero results of calls that missed the memo."""
    seen = [memo.cache_info().misses]

    def observe(agg: Agg, result) -> None:
        misses = memo.cache_info().misses
        if misses != seen[0]:
            seen[0] = misses
            agg.nonzero += bool(result)

    return observe


def install() -> dict:
    """Install every wrapper; return the original memo functions by name."""
    memos = {
        f"{mod.__name__.split('.')[-1]}.{attr}": getattr(mod, attr)
        for mod, attrs in MEMOS.items()
        for attr in attrs
    }
    plain = {
        "shapes.multipartitions": shapes.multipartitions,
        "tableaux.count_tableaux": tableaux.count_tableaux,
        "tableaux.is_semistandard": tableaux.is_semistandard,
        "crystal.reading": crystal.reading,
        "crystal.ftilde": crystal.ftilde,
        "crystal.crystal_components": crystal.crystal_components,
        "branching.multiplicity": branching.multiplicity,
        "branching.skew_singular_count": branching.skew_singular_count,
        "branching.solve_row": branching._solve_row,
        "branching.lr_coeff": branching.lr_coeff,
        "branching.multiplicity_matrix": branching.multiplicity_matrix,
        "branching.invert_unitriangular": branching.invert_unitriangular,
        "symfunc.structure_constants": symfunc.structure_constants,
        "symfunc.weyl_schur": symfunc.weyl_schur,
        "symfunc.schur_product": symfunc.schur_product,
        "symfunc.to_weyl_basis": symfunc.to_weyl_basis,
    }
    for name, fn in plain.items():
        rebind(fn, timed(name, fn))
    rebind(crystal.is_singular, timed("crystal.is_singular", crystal.is_singular, count_true))
    chain_value = branching._chain_value
    rebind(
        chain_value,
        timed("branching.chain_value", chain_value, count_nonzero_misses(chain_value)),
    )
    for name in ("enumerate_tableaux", "enumerate_all_tableaux"):
        fn = getattr(tableaux, name)
        rebind(fn, timed_generator(f"tableaux.{name}", fn))
    rebind(branching.layer_chains, timed_generator("branching.layer_chains", branching.layer_chains))
    for name in dir(serialize):
        fn = getattr(serialize, name)
        if callable(fn) and getattr(fn, "__module__", None) == serialize.__name__:
            if not name.startswith("_"):
                rebind(fn, timed("serialize", fn, count_bytes))

    counted_init("shapes.Partition", shapes.Partition)
    counted_init("shapes.MultiPartition", shapes.MultiPartition)
    shapes.SkewShape.__init__ = timed("shapes.SkewShape", shapes.SkewShape.__init__)
    cache.FileCache.get = timed("cache.get", cache.FileCache.get, count_cache_hit)
    cache.FileCache.put = timed("cache.put", cache.FileCache.put)

    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = timed("cli.command", fn, span=True)
    cli.main = timed("cli.main", cli.main, span=True)
    return memos


def main(argv) -> int:
    report_path, cli_argv = argv[0], argv[1:]
    memos = install()
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    report = {
        "argv": cli_argv,
        "import_s": IMPORT_S,
        "funcs": {name: agg.to_obj() for name, agg in sorted(AGGS.items())},
        "memos": {
            name: {"hits": ci.hits, "misses": ci.misses, "entries": ci.currsize}
            for name, ci in ((n, fn.cache_info()) for n, fn in memos.items())
        },
        "spans": SPANS,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
