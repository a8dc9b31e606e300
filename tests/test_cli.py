import json

import pytest

from weylchar import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_beta_command(capsys):
    code, out, _ = run(
        capsys, "beta", "--lambda", "[[2],[]]", "--mu", "[[1],[1]]", "--r", "2"
    )
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
    )
    bad = tmp_path / "bad.json"
    for text in matrices:
        bad.write_text(text)
        code, _, err = run(capsys, "factorize", "--B", str(bad), "--Dbar", str(bad))
        assert code == 2, text
        assert "error" in err


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
    bad.write_text("{broken")
    code, _, err = run(capsys, "factorize", "--Dbar", str(bad))
    assert code == 2


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

    def lying(la, mu, bound=None, method="chain"):
        value = real(la, mu, bound, method=method)
        return value + 1 if method == "solve" else value

    monkeypatch.setattr(branching, "multiplicity", lying)
    code, out, _ = run(
        capsys, "beta", "--lambda", "[[1],[]]", "--mu", "[[],[1]]", "--method", "all"
    )
    assert code == 3
    assert json.loads(out)["agree"] is False


def test_stale_bound_rejected(capsys):
    code, _, err = run(
        capsys, "beta", "--lambda", "[[2],[]]", "--mu", "[[1],[1]]", "--m", "1,1"
    )
    assert code == 2
