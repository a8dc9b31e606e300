import argparse
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from weylchar import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_beta_command(capsys):
    code, out, _ = run(capsys, "beta", "--lambda", "[[2],[]]", "--mu", "[[1],[1]]")
    assert code == 0
    assert out == "1\n"


def test_beta_diagonal(capsys):
    code, out, _ = run(capsys, "beta", "--lambda", "[[2,1],[1]]", "--mu", "[[2,1],[1]]")
    assert code == 0 and out == "1\n"


def test_beta_method_all_agrees(capsys):
    code, out, _ = run(
        capsys, "beta", "--lambda", "[[2],[]]", "--mu", "[[1],[1]]", "--method", "all"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["singular"] == payload["chain"] == payload["solve"] == 1


def test_malformed_shape_exits_2(tmp_path, capsys):
    # JSON values that are not integers are refused, never coerced.
    for lam in ("not json", "[[1.7],[]]", "[[true],[]]", '[["1"],[]]'):
        code, _, err = run(capsys, "beta", "--lambda", lam, "--mu", "[[1],[]]")
        assert code == 2, lam
        assert "error" in err
    # Matrix files: a float entry, a repeated order entry, r unequal to the
    # length of m, an entry of the wrong size, an entry that does not fit m.
    matrices = (
        '{"n":1,"r":1,"m":[1],"order":[[[1]]],"rows":[[1.9]]}',
        '{"n":1,"r":2,"m":[1,1],"order":[[[1],[]],[[1],[]]],"rows":[[1,0],[0,1]]}',
        '{"n":0,"r":3,"m":[1,1],"order":[[[],[],[]]],"rows":[[1]]}',
        '{"n":2,"r":2,"m":[2,2],"order":[[[1],[]]],"rows":[[1]]}',
        '{"n":2,"r":2,"m":[1,2],"order":[[[1,1],[]]],"rows":[[1]]}',
        # Caps above the ceiling, refused before anything is allocated.
        '{"n":2,"r":2,"m":[99999999999999999999,2],"order":[[[2],[]]],"rows":[[1]]}',
        '{"n":1,"r":1,"m":[10001],"order":[[[1]]],"rows":[[1]]}',
    )
    bad = tmp_path / "bad.json"
    for text in matrices:
        bad.write_text(text)
        code, _, err = run(capsys, "factorize", "--B", str(bad), "--Dbar", str(bad))
        assert code == 2, text
        assert "error" in err
    # A negative scan bound.
    code, _, err = run(capsys, "conjecture-scan", "--n-max", "-1", "--r", "2")
    assert code == 2
    assert "error" in err


def assert_one_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "m", ["99999999999999999999,2", "", " 2,2", "+2,2", "1_0,2", "\uff12,2", "10001,2"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ("beta-matrix", "--n", "2", "--r", "2"),
        ("character", "--lambda", "[[1],[1]]"),
        ("crystal-graph", "--lambda", "[[1],[1]]"),
    ],
    ids=["beta-matrix", "character", "crystal-graph"],
)
def test_bad_m_exits_2(argv, m, capsys):
    # --m is exactly [0-9]+(,[0-9]+)* with every cap at most MAX_CAP.
    assert_one_error(*run(capsys, *argv, "--m", m))


@pytest.mark.parametrize(
    "argv",
    [
        ("factorize", "--Dbar", ""),
        ("factorize", "--Dbar", "{identity}", "--B", ""),
        ("factorize", "--Dbar", "{identity}", "--D", ""),
        ("factorize", "--Dbar", "{identity}", "--D", "{identity}", "--X", ""),
        ("crystal-graph", "--lambda", "[[1],[]]", "--inner", ""),
        ("beta", "--lambda", "[[1]]", "--mu", "[[1]]", "--out", ""),
        ("beta", "--lambda", "[[1]]", "--mu", "[[1]]", "--cache-dir", ""),
    ],
    ids=["Dbar", "B", "D", "X", "inner", "out", "cache-dir"],
)
def test_empty_option_value_exits_2(argv, tmp_path, capsys):
    identity = tmp_path / "identity.json"
    identity.write_text('{"n":1,"r":1,"m":[1],"order":[[[1]]],"rows":[[1]]}')
    argv = [a.format(identity=identity) for a in argv]
    assert_one_error(*run(capsys, *argv))


def test_empty_cache_env_means_unset(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("WEYLCHAR_CACHE", "")
    assert run(capsys, "beta", "--lambda", "[[1]]", "--mu", "[[1]]") == (0, "1\n", "")
    assert not any(tmp_path.iterdir())


def test_size_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "beta", "--lambda", "[[2],[]]", "--mu", "[[1],[]]")
    assert code == 2


def test_beta_matrix_identity(capsys):
    code, out, _ = run(capsys, "beta-matrix", "--n", "2", "--r", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [[1, 0], [0, 1]]
    assert payload["order"] == [[[2]], [[1, 1]]]


def test_beta_matrix_tsv(capsys):
    code, out, _ = run(capsys, "beta-matrix", "--n", "2", "--r", "1", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1].endswith("1\t0")


def test_beta_matrix_methods_match(capsys):
    outputs = []
    for method in ("singular", "chain", "solve"):
        code, out, _ = run(
            capsys, "beta-matrix", "--n", "3", "--r", "2", "--method", method
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_matrix_json_writer_matches_json_encoder():
    # The writer prints the rows one at a time; the bytes are those of the
    # whole object through the canonical encoder, and read back the same.
    from weylchar import branching
    from weylchar.serialize import json_bytes, matrix_from_obj, matrix_to_json
    from weylchar.shapes import ShapeBound

    def whole(m):
        return json_bytes(
            {
                "n": m.n,
                "r": m.r,
                "m": list(m.bound.m),
                "order": [[list(c.parts) for c in mp.components] for mp in m.order],
                "rows": [list(row) for row in m.rows],
            }
        ).decode()

    mats = [
        branching.multiplicity_matrix(n, ShapeBound.for_size(n, r), method=method)
        for n, r in ((0, 2), (4, 2), (3, 3))
        for method in ("chain", "solve", "singular")
    ]
    b = mats[3]
    rng = random.Random(20)
    d = b.dim
    rows = [[int(i == j) if j <= i else rng.randint(-9, 9) for j in range(d)] for i in range(d)]
    dbar = branching.IndexedMatrix(b.n, b.bound, b.order, rows)
    mats.append(branching.derive_decomposition(b, dbar))
    for m in mats:
        text = matrix_to_json(m)
        assert text == whole(m), m
        assert matrix_from_obj(json.loads(text)) == m


# The whole beta-matrix job, engine imports excluded, under tracemalloc in a
# fresh interpreter: its peak and the entries left in the chain memo.
MEMORY_CHILD = """
import sys, tracemalloc
from weylchar import branching, cli, serialize, symfunc

tracemalloc.start()
code = cli.main(["beta-matrix", "--n", "6", "--r", "3", "--out", sys.argv[1]])
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(code, peak, branching._chain_value.cache_info().currsize)
"""


def test_matrix_job_keeps_no_entry_memo(tmp_path):
    # The chain route keeps its blocks and counts, not the d^2 entries, and
    # the JSON text is written one row at a time: the (6,3) job peaked at
    # 10.6 MiB with an entry memo and a whole-document encode, 2.5 MiB
    # without.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("WEYLCHAR_CACHE", None)  # a cache hit would compute nothing
    out = tmp_path / "matrix.json"
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CHILD, str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak, entries = map(int, proc.stdout.split())
    assert code == 0 and out.stat().st_size > 0
    assert peak < 6 * 2**20, peak
    assert entries == 0


def test_expansion_json_writer_matches_json_encoder():
    # The writer prints the terms one at a time; the bytes are those of the
    # whole object through the canonical encoder.
    from weylchar.serialize import expansion_to_json, json_bytes
    from weylchar.shapes import MultiComposition, MultiPartition, ShapeBound
    from weylchar.symfunc import (
        MonomialPoly,
        SchurExpansion,
        character,
        structure_constants,
        weyl_schur,
    )

    def whole(e, basis):
        def rows(x):
            if isinstance(x, MultiComposition):
                return [list(row) for row in x.rows]
            return [list(c.parts) for c in x.components]

        terms = [{"index": rows(x), "coeff": c} for x, c in e.canonical_items()]
        return json_bytes({"basis": basis, "degree": e.degree, "terms": terms}).decode()

    la, mu = MultiPartition([[2, 1], [1]]), MultiPartition([[1], [2]])
    negative = SchurExpansion(
        2, 3, {MultiPartition([[2], [1]]): -3, MultiPartition([[], [3]]): 2, mu: 0}
    )
    cases = [
        (character(la), None, "monomial"),
        (character(MultiPartition([[1], []]), ShapeBound((2, 2))), None, "monomial"),
        (MonomialPoly(ShapeBound((1, 1)), 0, {}), None, "monomial"),
        (weyl_schur(la), None, "schur"),
        (weyl_schur(la), "tilde", "tilde"),
        (structure_constants(mu, mu), "tilde", "tilde"),
        (SchurExpansion(2, 1, {}), None, "schur"),
        (SchurExpansion(2, 1, {}), "tilde", "tilde"),
        (negative, None, "schur"),
        (weyl_schur(MultiPartition([[], []])), None, "schur"),
    ]
    assert any(c < 0 for c in negative.terms.values())
    for e, basis, name in cases:
        assert expansion_to_json(e, basis) == whole(e, name), (e, basis)


# The whole character job, engine imports excluded, under tracemalloc in a
# fresh interpreter.
CHARACTER_CHILD = """
import sys, tracemalloc
from weylchar import cli

tracemalloc.start()
code = cli.main(["character", "--lambda", "[[2],[2],[1,1]]", "--out", sys.argv[1]])
print(code, tracemalloc.get_traced_memory()[1])
"""


def test_character_job_builds_each_term_once(tmp_path):
    # One monomial loop builds each term once and the JSON is written term
    # by term: the job peaked at 67.1 MiB with a memoized polynomial per
    # weight and a whole-document encode, 26 MiB without.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("WEYLCHAR_CACHE", None)  # a cache hit would compute nothing
    out = tmp_path / "character.json"
    proc = subprocess.run(
        [sys.executable, "-c", CHARACTER_CHILD, str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 0 and out.stat().st_size > 0
    assert peak < 40 * 2**20, peak


def test_character_and_tilde(capsys):
    code, out, _ = run(capsys, "tilde", "--lambda", "[[1],[1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "schur"
    assert {json.dumps(t["index"]) for t in payload["terms"]} == {
        "[[1], [1]]",
        "[[], [2]]",
        "[[], [1, 1]]",
    }
    code, out, _ = run(capsys, "character", "--lambda", "[[1],[]]", "--m", "2,2")
    payload = json.loads(out)
    assert payload["basis"] == "monomial"
    assert len(payload["terms"]) == 4


def test_cmul(capsys):
    code, out, _ = run(capsys, "cmul", "--lambda", "[[1],[]]", "--mu", "[[],[1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "tilde"
    assert payload["terms"] == [{"index": [[1], [1]], "coeff": 1}]


def test_conjecture_scan(capsys):
    code, out, _ = run(capsys, "conjecture-scan", "--n-max", "2", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["c1_violations"] == []
    assert payload["c2_violations"] == []
    assert payload["scanned"] > 0


def test_crystal_graph_dot(capsys):
    code, out, _ = run(
        capsys, "crystal-graph", "--lambda", "[[1],[1]]", "--m", "2,2"
    )
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert 'f(1,1)' in out or 'f(1,2)' in out


def test_crystal_graph_summary(capsys):
    code, out, _ = run(
        capsys,
        "crystal-graph", "--lambda", "[[1],[1]]", "--m", "2,2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"highest_weight": [[1], [1]], "size": 4},
        {"highest_weight": [[], [2]], "size": 3},
        {"highest_weight": [[], [1, 1]], "size": 1},
    ]


def test_crystal_graph_skew_inner(capsys):
    argv = ["crystal-graph", "--lambda", "[[2],[1]]", "--format", "json"]
    code, out, _ = run(capsys, *argv, "--inner", "[[1],[]]")
    assert code == 0
    assert out == (
        '[{"highest_weight":[[1],[1]],"size":9},'
        '{"highest_weight":[[],[2]],"size":6},'
        '{"highest_weight":[[],[1,1]],"size":3}]\n'
    )
    # An inner shape that does not fit inside the outer one.
    code, out, err = run(capsys, *argv, "--inner", "[[3],[]]")
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_factorize_identity_matches_beta_matrix(tmp_path, capsys):
    code, bmat_out, _ = run(capsys, "beta-matrix", "--n", "2", "--r", "2")
    assert code == 0
    payload = json.loads(bmat_out)
    dim = len(payload["order"])
    payload["rows"] = [[int(i == j) for j in range(dim)] for i in range(dim)]
    ident = tmp_path / "identity.json"
    ident.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    code, derived_out, _ = run(capsys, "factorize", "--Dbar", str(ident))
    assert code == 0
    assert derived_out == bmat_out  # byte-identical


def test_factorize_residual(tmp_path, capsys):
    code, bmat_out, _ = run(capsys, "beta-matrix", "--n", "2", "--r", "2")
    payload = json.loads(bmat_out)
    dim = len(payload["order"])
    payload_i = dict(payload)
    payload_i["rows"] = [[int(i == j) for j in range(dim)] for i in range(dim)]
    ident = tmp_path / "identity.json"
    ident.write_text(json.dumps(payload_i, separators=(",", ":")) + "\n")
    bfile = tmp_path / "b.json"
    bfile.write_text(bmat_out)
    code, out, _ = run(
        capsys, "factorize", "--Dbar", str(ident), "--D", str(bfile)
    )
    assert code == 0
    assert json.loads(out) == {"max_abs": 0, "zero": True, "worst_entry": None}


def test_factorize_residual_worst_entry_is_1_based(tmp_path, capsys):
    # B * B - B * I is nonzero; its largest entry sits at 0-based (0, 3).
    code, bmat_out, _ = run(capsys, "beta-matrix", "--n", "2", "--r", "2")
    bfile = tmp_path / "b.json"
    bfile.write_text(bmat_out)
    code, out, _ = run(capsys, "factorize", "--Dbar", str(bfile), "--D", str(bfile))
    assert code == 0
    assert out == '{"max_abs":2,"zero":false,"worst_entry":[1,4]}\n'


def test_factorize_residual_refuses_tsv(tmp_path, capsys):
    code, bmat_out, _ = run(capsys, "beta-matrix", "--n", "2", "--r", "2")
    bfile = tmp_path / "b.json"
    bfile.write_text(bmat_out)
    argv = ["factorize", "--Dbar", str(bfile), "--D", str(bfile), "--format", "tsv"]
    assert_one_error(*run(capsys, *argv))
    assert run(capsys, *argv[:-1], "json")[0] == 0


def test_readme_option_table_matches_parser():
    # Every row of README's command table lists exactly the options of that
    # subcommand, less the --out and --cache-dir every command takes.
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    documented = {
        m.group(1): set(re.findall(r"--[A-Za-z-]+", m.group(2)))
        for m in re.finditer(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M)
    }
    actions = cli.build_parser()._actions
    [sub] = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {o for a in p._actions for o in a.option_strings}
        - {"-h", "--help", "--out", "--cache-dir"}
        for name, p in sub.choices.items()
    }
    assert documented == parsed


def test_method_choices_are_the_routes():
    # The parser holds its own copy of the route names, so that it loads no
    # engine code; it must stay the engine's list.
    from weylchar import branching

    [sub] = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]

    def choices(command):
        [action] = [a for a in sub.choices[command]._actions if a.dest == "method"]
        return action.choices

    assert choices("beta-matrix") == list(branching.METHODS)
    assert choices("beta") == list(branching.METHODS) + ["all"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("conjecture-scan", "--n-max", "10001", "--r", "1"), "size n=10001 is above 10000"),
        (("beta-matrix", "--n", "10001", "--r", "1"), "size n=10001 is above 10000"),
        (("beta-matrix", "--n", "2", "--r", "1", "--m", "10001"), "bound has a cap above 10000"),
    ],
    ids=["scan-size", "matrix-size", "m-cap"],
)
def test_refusal_above_max_cap_names_what_was_passed(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert_one_error(code, out, err)
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("conjecture-scan", "--n-max", "2", "--r", "0"),
        ("conjecture-scan", "--n-max", "2", "--r", "-1"),
        ("beta-matrix", "--n", "2", "--r", "0"),
    ],
    ids=["scan-r0", "scan-r-1", "matrix-r0"],
)
def test_r_below_1_is_named(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert_one_error(code, out, err)
    assert f"need r >= 1, got r={argv[-1]}" in err


@pytest.mark.parametrize(
    "argv, entry",
    [
        (("tilde", "--lambda", "[[9223372036854775808]]"), "weyl_schur"),
        (("cmul", "--lambda", "[[9223372036854775808]]", "--mu", "[[1]]"), "structure_constants"),
        (("character", "--lambda", "[[9223372036854775808]]"), "character"),
    ],
    ids=["tilde", "cmul", "character"],
)
def test_part_above_max_cap_refused_at_parse(argv, entry, capsys, monkeypatch):
    # Reading the shape refuses its size; the engine is never entered.
    from weylchar import symfunc

    def entered(*args, **kwargs):
        raise AssertionError(f"{entry} was called")

    monkeypatch.delenv("WEYLCHAR_CACHE", raising=False)
    monkeypatch.setattr(symfunc, entry, entered)
    code, out, err = run(capsys, *argv)
    assert_one_error(code, out, err)
    assert "size n=9223372036854775808 is above 10000" in err


def test_factorize_residual_non_canonical_order(tmp_path, capsys):
    # The default X must follow the order of Dbar, not the canonical one.
    code, bmat_out, _ = run(capsys, "beta-matrix", "--n", "2", "--r", "2")
    assert code == 0
    payload = json.loads(bmat_out)
    dim = len(payload["order"])
    perm = list(reversed(range(dim)))
    reordered = dict(payload, order=[payload["order"][i] for i in perm])
    reordered["rows"] = [[payload["rows"][i][j] for j in perm] for i in perm]
    ident = dict(reordered, rows=[[int(i == j) for j in range(dim)] for i in range(dim)])
    bfile = tmp_path / "b.json"
    bfile.write_text(json.dumps(reordered))
    ifile = tmp_path / "identity.json"
    ifile.write_text(json.dumps(ident))
    code, out, err = run(
        capsys, "factorize", "--B", str(bfile), "--Dbar", str(ifile), "--D", str(bfile)
    )
    assert code == 0
    assert '"zero":true' in out
    # A library warning is one plain line, without category or source path.
    assert "warning: d is not unitriangular\n" in err
    assert "UserWarning" not in err and ".py:" not in err


def test_factorize_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "factorize", "--Dbar", "/nonexistent/x.json")
    assert code == 2


def test_factorize_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # Broken JSON, and bytes that are not UTF-8.
    for data in (b"{broken", b'{"n":1,\xff\xfe}'):
        bad.write_bytes(data)
        code, out, err = run(capsys, "factorize", "--Dbar", str(bad))
        assert code == 2, data
        assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_cache_idempotent(tmp_path, capsys):
    args = [
        "beta-matrix", "--n", "3", "--r", "2", "--cache-dir", str(tmp_path / "c")
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert any((tmp_path / "c").iterdir())


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEYLCHAR_CACHE", str(tmp_path / "envcache"))
    code, out, _ = run(capsys, "beta", "--lambda", "[[1],[]]", "--mu", "[[],[1]]")
    assert code == 0
    assert any((tmp_path / "envcache").iterdir())


def test_jobs_option_refused():
    with pytest.raises(SystemExit) as exc:
        cli.main(["beta-matrix", "--n", "2", "--r", "2", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("beta", "--lambda", "[[2],[]]", "--mu", "[[1],[1]]", "--r", "2"),
        ("character", "--lambda", "[[1],[]]", "--r", "2"),
        ("tilde", "--lambda", "[[1],[]]", "--r", "2"),
        ("crystal-graph", "--lambda", "[[1],[1]]", "--r", "2"),
        ("cmul", "--lambda", "[[1],[]]", "--mu", "[[],[1]]", "--r", "2"),
        ("cmul", "--lambda", "[[1],[]]", "--mu", "[[],[1]]", "--m", "1,1"),
        ("conjecture-scan", "--n-max", "1", "--r", "2", "--m", "1,1"),
        ("factorize", "--Dbar", "identity.json", "--r", "2"),
        ("factorize", "--Dbar", "identity.json", "--m", "1,1"),
        ("beta", "--lam", "[[2],[]]", "--mu", "[[1],[1]]"),
        ("beta", "--lambda", "[[2],[]]", "--mu", "[[1],[1]]", "--meth", "solve"),
        ("beta", "--lambda", "[[2],[]]", "--mu", "[[1],[1]]", "--m", "2,2"),
        ("tilde", "--lambda", "[[1],[]]", "--m", "1,1"),
    ],
)
def test_unread_or_abbreviated_option_refused(argv, capsys):
    # argparse refuses these itself, before any file is read.
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_deep_input_exits_2(capsys):
    # With one component the chain route counts no layer: the answer is 1.
    code, out, err = run(capsys, "beta", "--lambda", "[[1200]]", "--mu", "[[1200]]")
    assert (code, out, err) == (0, "1\n", "")
    # The singular route recurses once per cell, past the recursion limit.
    code, out, err = run(
        capsys, "beta", "--lambda", "[[1200]]", "--mu", "[[1200]]", "--method", "singular"
    )
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_long_row_in_the_last_component_answers(capsys):
    # The chain route counts the one layer of a 1200-cell row in a loop,
    # not one call per cell.
    code, out, err = run(capsys, "beta", "--lambda", "[[],[1200]]", "--mu", "[[],[1200]]")
    assert (code, out, err) == (0, "1\n", "")


def test_many_components_agree(capsys):
    # The chain route nests once per component, not once per pair of them.
    shape = json.dumps([[1]] + [[]] * 59)
    code, out, _ = run(capsys, "beta", "--lambda", shape, "--mu", shape, "--method", "all")
    assert code == 0
    assert '"agree":true' in out


@pytest.mark.parametrize("method", ["singular", "chain", "solve"])
def test_size_above_max_cap_exits_2(method, capsys):
    # Every route refuses a size above MAX_CAP before it starts.
    code, out, err = run(
        capsys, "beta", "--lambda", "[[10001]]", "--mu", "[[10001]]", "--method", method
    )
    assert code == 2
    assert out == "" and "above 10000" in err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda entry: [],
        lambda entry: dict(entry, result=[1]),
        lambda entry: dict(entry, result=dict(entry["result"], output=5)),
        lambda entry: dict(entry, result=dict(entry["result"], code="0")),
    ],
    ids=["not-an-object", "result-list", "output-int", "code-str"],
)
def test_unreadable_cache_entry_is_recomputed(corrupt, tmp_path, capsys):
    args = ["tilde", "--lambda", "[[1],[]]", "--cache-dir", str(tmp_path / "c")]
    cold = run(capsys, *args)
    assert cold[0] == 0 and cold[2] == ""
    (path,) = (tmp_path / "c").iterdir()
    entry = json.loads(path.read_text())
    path.write_text(json.dumps(corrupt(entry)))
    assert run(capsys, *args) == cold
    # The warm run rewrote the entry.
    assert json.loads(path.read_text()) == entry


def test_warm_cache_replays_warnings(tmp_path, capsys):
    code, bmat_out, _ = run(capsys, "beta-matrix", "--n", "1", "--r", "2")
    assert code == 0
    swapped = dict(json.loads(bmat_out), rows=[[0, 1], [1, 0]])
    dbar = tmp_path / "swapped.json"
    dbar.write_text(json.dumps(swapped))
    args = ["factorize", "--Dbar", str(dbar), "--cache-dir", str(tmp_path / "c")]
    cold = run(capsys, *args)
    warm = run(capsys, *args)
    assert cold == warm
    assert cold[0] == 0
    assert cold[2] == "warning: dbar factor is not unitriangular\n"


def test_factorize_residual_warns_on_non_unitriangular_b(tmp_path, capsys):
    code, bmat_out, _ = run(capsys, "beta-matrix", "--n", "1", "--r", "2")
    assert code == 0
    # B has a 1 below its diagonal; Dbar and D are the identity.
    ident = tmp_path / "identity.json"
    ident.write_text(json.dumps(dict(json.loads(bmat_out), rows=[[1, 0], [0, 1]])))
    lower = tmp_path / "lower.json"
    lower.write_text(json.dumps(dict(json.loads(bmat_out), rows=[[1, 0], [1, 1]])))
    args = [
        "factorize", "--B", str(lower), "--Dbar", str(ident), "--D", str(ident),
        "--cache-dir", str(tmp_path / "c"),
    ]
    cold = run(capsys, *args)
    assert cold == run(capsys, *args)
    assert cold[:2] == (0, '{"max_abs":1,"zero":false,"worst_entry":[2,1]}\n')
    assert cold[2] == "warning: b is not unitriangular\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "matrix.json"
    code, out, _ = run(
        capsys, "beta-matrix", "--n", "2", "--r", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rows"] == [[1, 0], [0, 1]]


def test_out_in_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "matrix.json"
    code, out, err = run(
        capsys, "beta-matrix", "--n", "2", "--r", "1", "--out", str(target)
    )
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_cache_dir_on_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    code, out, err = run(
        capsys, "beta-matrix", "--n", "2", "--r", "1", "--cache-dir", str(blocker)
    )
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_consistency_exit_code(monkeypatch, capsys):
    # force one route to lie: the bug sentinel must exit 3
    from weylchar import branching

    real = branching.multiplicity

    def lying(la, mu, *, method="chain"):
        value = real(la, mu, method=method)
        return value + 1 if method == "solve" else value

    monkeypatch.setattr(branching, "multiplicity", lying)
    code, out, _ = run(
        capsys, "beta", "--lambda", "[[1],[]]", "--mu", "[[],[1]]", "--method", "all"
    )
    assert code == 3
    assert json.loads(out)["agree"] is False


def test_matrix_consistency_failure_names_the_entry(monkeypatch, capsys):
    # A value below the diagonal breaks unitriangularity: exit 3, print
    # nothing, and name the first offending entry.
    from weylchar import branching, multipartitions

    real = branching.multiplicity
    order = multipartitions(2, 2)
    pos = {mp: i for i, mp in enumerate(order)}

    def lying(la, mu, *, method="chain"):
        return 1 if pos[mu] < pos[la] else real(la, mu, method=method)

    monkeypatch.setattr(branching, "multiplicity", lying)
    monkeypatch.delenv("WEYLCHAR_CACHE", raising=False)
    code, out, err = run(capsys, "beta-matrix", "--n", "2", "--r", "2")
    assert code == 3
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("consistency failure:")
    assert repr(order[1]) in line and repr(order[0]) in line and "is 1" in line


def test_stale_bound_rejected(capsys):
    code, _, err = run(capsys, "character", "--lambda", "[[2],[]]", "--m", "1,1")
    assert code == 2
