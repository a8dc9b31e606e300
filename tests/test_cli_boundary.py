"""Generated boundary test: cli.main on drawn argv never ends in a traceback.

Every drawn option value is either hostile or tiny, so no case starts a large
computation: shapes have at most two components of at most two parts, each
part at most 2 and the whole shape at most 3 cells; counts and caps are at
most 3. --out and --cache-dir are never drawn.

A second test runs shapes too large for memory in a child process whose
address space is capped, and checks that each exits 2 with one error line.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import weylchar
from weylchar import cli

SRC = str(Path(weylchar.__file__).resolve().parents[1])

HOSTILE = [
    "NaN", "Infinity", "-Infinity", "1e400", str(2**63), str(2**64 + 1),
    "-" + str(2**63), "[]", "{}", "\ud800", "", "[[NaN]]", "[[1e400]]",
    f"[[{2**63}]]", f"[[1],[{2**63}]]", '"\\ud800"',
    "99999999999999999999,2", " 2,2", "+2,2", "1_0,2", "２,2", "10001,2",
    "9" * 5000, "[[" + "9" * 5000 + "]]",  # more digits than int() converts
]

shape = (
    st.lists(
        st.lists(st.integers(1, 2), max_size=2).map(sorted).map(lambda p: p[::-1]),
        min_size=1,
        max_size=2,
    )
    .filter(lambda la: sum(map(sum, la)) <= 3)
    .map(json.dumps)
)
count = st.integers(-1, 3).map(str)
caps = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda m: ",".join(map(str, m))
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Matrix files: a valid identity, malformed JSON, non-UTF-8 bytes and
    caps above the ceiling."""
    d = tmp_path_factory.mktemp("matrices")
    contents = {
        "identity": b'{"n":1,"r":1,"m":[1],"order":[[[1]]],"rows":[[1]]}',
        "huge-entry": b'{"n":1,"r":1,"m":[1],"order":[[[1]]],"rows":[[%d]]}' % 2**63,
        "nan": b'{"n":NaN,"r":1,"m":[1],"order":[[[1]]],"rows":[[1]]}',
        "huge-cap": b'{"n":1,"r":1,"m":[99999999999999999999],"order":[[[1]]],"rows":[[1]]}',
        "broken": b"{broken",
        "not-utf8": b'{"n":1,\xff\xfe}',
    }
    paths = []
    for name, data in contents.items():
        path = d / f"{name}.json"
        path.write_bytes(data)
        paths.append(str(path))
    return paths


def options(files):
    matrix = st.sampled_from(files)
    return {
        "beta": {"--lambda": shape, "--mu": shape,
                 "--method": st.sampled_from(["singular", "chain", "solve", "all"])},
        "beta-matrix": {"--n": count, "--r": count, "--m": caps,
                        "--method": st.sampled_from(["singular", "chain", "solve"]),
                        "--format": st.sampled_from(["json", "tsv"])},
        "character": {"--lambda": shape, "--m": caps},
        "tilde": {"--lambda": shape},
        "cmul": {"--lambda": shape, "--mu": shape},
        "conjecture-scan": {"--n-max": count, "--r": count},
        "crystal-graph": {"--lambda": shape, "--inner": shape, "--m": caps,
                          "--format": st.sampled_from(["dot", "json"])},
        "factorize": {"--B": matrix | st.just("auto"), "--Dbar": matrix, "--X": matrix,
                      "--D": matrix, "--format": st.sampled_from(["json", "tsv"])},
    }


@st.composite
def argvs(draw, files):
    command, table = draw(st.sampled_from(sorted(options(files).items())))
    argv = [command]
    # Options may be missing, repeated or in any order.
    for name in draw(st.lists(st.sampled_from(sorted(table)), max_size=6)):
        value = draw(table[name] | st.sampled_from(HOSTILE))
        argv.append(f"{name}={value}")
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_boundary_generated(files, data):
    argv = data.draw(argvs(files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            assert exc.code == 2
            assert out.getvalue() == ""
            assert sum(": error: " in line for line in err.getvalue().splitlines()) == 1
            return
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


# One large shape per command that runs out of memory before it finishes.
OUT_OF_MEMORY = [
    ["tilde", "--lambda", "[[200]]"],
    ["character", "--lambda", "[[200]]"],
    ["beta-matrix", "--n", "200", "--r", "1"],
    ["beta", "--method", "solve", "--lambda", "[[200]]", "--mu", "[[200]]"],
    ["cmul", "--lambda", "[[200]]", "--mu", "[[1]]"],
]
ADDRESS_SPACE = 256 * 2**20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("argv", OUT_OF_MEMORY, ids=" ".join)
def test_out_of_memory_exits_2(argv):
    # The limit is set in the child only, between fork and exec.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from weylchar.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path, WEYLCHAR_CACHE=""),
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: input too large: out of memory"]
    assert "Traceback" not in proc.stderr
