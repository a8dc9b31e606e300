"""A warm cache replay loads no engine code, and `import weylchar` loads each
submodule only when one of its names is first read."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylchar

SRC = str(Path(weylchar.__file__).resolve().parents[1])
# What a cache hit may load: the package, the command line, the cache and
# the exception types.
REPLAY_MODULES = ["weylchar", "weylchar.cache", "weylchar.cli", "weylchar.errors"]

# Runs cli.main on argv[2:] and writes the weylchar modules it loaded to argv[1].
CHILD = """
import json, sys
from weylchar import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(m for m in sys.modules if m.split(".")[0] == "weylchar"), fh)
sys.exit(code)
"""


def _python(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("WEYLCHAR_CACHE", None)
    return subprocess.run(
        [sys.executable, *map(str, argv)], capture_output=True, text=True, timeout=120, env=env
    )


# The swapped Dbar is not unitriangular, so factorize warns.
SWAPPED = {
    "n": 1, "r": 2, "m": [1, 1], "order": [[[1], []], [[], [1]]], "rows": [[0, 1], [1, 0]]
}

COMMANDS = {
    "beta": ["beta", "--lambda", "[[1],[1]]", "--mu", "[[1],[1]]", "--method", "all"],
    "beta-matrix": ["beta-matrix", "--n", "2", "--r", "2", "--format", "tsv"],
    "character": ["character", "--lambda", "[[1],[1]]"],
    "tilde": ["tilde", "--lambda", "[[2],[1]]"],
    "cmul": ["cmul", "--lambda", "[[1],[]]", "--mu", "[[],[1]]"],
    "conjecture-scan": ["conjecture-scan", "--n-max", "2", "--r", "2"],
    "crystal-graph": ["crystal-graph", "--lambda", "[[2],[1]]"],
    "factorize": ["factorize", "--Dbar", "{swapped}"],
}


def test_every_command_is_covered():
    from weylchar import cli

    assert sorted(COMMANDS) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_warm_replay_loads_no_engine_code(command, tmp_path):
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(SWAPPED))
    argv = [a.format(swapped=swapped) for a in COMMANDS[command]]
    argv += ["--cache-dir", tmp_path / "cache"]
    runs = []
    for phase in ("cold", "warm"):
        report = tmp_path / f"{phase}.json"
        proc = _python("-c", CHILD, report, *argv)
        assert "Traceback" not in proc.stderr, proc.stderr
        modules = json.loads(report.read_text())
        warnings = [line for line in proc.stderr.splitlines() if line.startswith("warning:")]
        runs.append((proc.returncode, proc.stdout, warnings, modules))
    (cold_code, cold_out, cold_warnings, cold_modules) = runs[0]
    (warm_code, warm_out, warm_warnings, warm_modules) = runs[1]
    assert "weylchar.branching" in cold_modules  # the cold run computed
    assert warm_modules == REPLAY_MODULES
    assert (warm_code, warm_out, warm_warnings) == (cold_code, cold_out, cold_warnings)
    assert cold_code == 0 and cold_out
    if command == "factorize":
        assert cold_warnings == ["warning: dbar factor is not unitriangular"]


def test_import_loads_no_submodule():
    code = "import sys, weylchar; print(sorted(m for m in sys.modules if 'weylchar' in m))"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['weylchar']\n"


def test_public_names_are_their_submodules_objects():
    assert len(weylchar.__all__) == len(set(weylchar.__all__))
    for name in weylchar.__all__:
        obj = getattr(weylchar, name)
        assert obj.__module__.startswith("weylchar."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_dir_and_version():
    namespace: dict = {}
    exec("from weylchar import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(weylchar.__all__)
    assert set(weylchar.__all__) <= set(dir(weylchar))
    assert "__version__" in dir(weylchar)
    assert weylchar.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylchar.no_such_name
