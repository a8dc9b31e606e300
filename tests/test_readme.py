"""The README's command-line examples and its library example run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import weylchar
from weylchar.branching import identity_matrix
from weylchar.serialize import matrix_to_json
from weylchar.shapes import ShapeBound

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
SRC = str(Path(weylchar.__file__).resolve().parents[1])


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under a heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("weylchar ")
]


def test_command_block_is_found():
    assert COMMANDS
    assert sum(argv[0] == "factorize" for argv in COMMANDS) == 2


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_readme_command_runs(argv, tmp_path):
    # The factorize lines name dbar.json, x.json and d.json in the working
    # directory; each is the identity over the README's matrix index.
    ident = matrix_to_json(identity_matrix(2, ShapeBound.for_size(2, 2)))
    for name in ("dbar.json", "x.json", "d.json"):
        (tmp_path / name).write_text(ident, encoding="utf-8")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("WEYLCHAR_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "weylchar.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and proc.stderr == ""
    if "--D" in argv:
        assert sorted(json.loads(proc.stdout)) == ["max_abs", "worst_entry", "zero"]


def test_readme_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
