import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polarcographs import catalog, cli, obstructions


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "P3 + C4")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 7
    assert payload["type"] == [2, 0]
    assert payload["version"]


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", "P4")
    assert code == 2
    assert "P4" in err


def test_eval_canonical_graph6(capsys):
    _, a, _ = run(capsys, "eval", "K{2,2}", "--format", "graph6")
    _, b, _ = run(capsys, "eval", "C4", "--format", "graph6")
    assert a == b


def test_eval_dot_and_table(capsys):
    code, out, _ = run(capsys, "eval", "K3", "--format", "dot")
    assert code == 0 and "--" in out
    code, out, _ = run(capsys, "eval", "K3", "--format", "table")
    assert code == 0 and "order\t3" in out


def test_recognize_cograph(capsys):
    code, out, _ = run(capsys, "recognize", "2K2")
    assert code == 0
    payload = json.loads(out)
    assert payload["cograph"] is True
    assert payload["cotree"].startswith("U(")


def test_recognize_p4_certificate(capsys):
    # path on 4 vertices as graph6
    code, out, _ = run(capsys, "recognize", "Ch", "--graph6")
    assert code == 3
    payload = json.loads(out)
    assert payload["cograph"] is False
    assert len(payload["p4"]) == 4


@pytest.mark.parametrize(
    "argv", [["profile", "Ch", "--graph6"], ["polarity", "Ch", "--graph6", "--s", "1", "--k", "1"]]
)
def test_a_non_cograph_profile_writes_its_p4_to_stderr(capsys, argv):
    # the same P4 payload recognize prints, then the error line; exit 3
    _, p4, _ = run(capsys, "recognize", "Ch", "--graph6")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    first, second = err.splitlines()
    assert first + "\n" == p4
    assert second.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["polarity", "K2", "--s", "1"], ["mine", "--k", "2"]])
def test_s_and_k_are_required(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    assert "--" in capsys.readouterr().err


def test_polarity_not_polar(capsys):
    code, out, _ = run(capsys, "polarity", "K1 + 3K2", "--s", "inf", "--k", "2")
    assert code == 0
    assert out.startswith("NOT-POLAR")


def test_polarity_with_witness(capsys):
    code, out, _ = run(capsys, "polarity", "2K2", "--s", "0", "--k", "2")
    assert code == 0
    head, body = out.split("\n", 1)
    assert head == "POLAR"
    payload = json.loads(body)
    assert payload["witness"]["A"] == []
    assert sorted(payload["witness"]["B"]) == [0, 1, 2, 3]


def test_polarity_oracle_agreement(capsys):
    code, out, _ = run(capsys, "polarity", "P3 + C4", "--s", "2", "--k", "2", "--oracle")
    assert code == 0
    assert json.loads(out.split("\n", 1)[1])["oracle_agrees"] is True


def test_polarity_bad_param(capsys):
    code, _, err = run(capsys, "polarity", "K2", "--s", "-1", "--k", "2")
    assert code == 2


def test_recognize_order_zero_is_a_parse_error(capsys):
    code, out, err = run(capsys, "recognize", "?")
    assert (code, out) == (2, "")
    assert "the empty graph has no cotree" in err and "Traceback" not in err


def test_polarity_order_zero_is_polar_with_the_empty_witness(capsys):
    code, out, _ = run(capsys, "polarity", "?", "--s", "0", "--k", "0", "--oracle")
    assert code == 0
    head, body = out.split("\n", 1)
    assert head == "POLAR"
    payload = json.loads(body)
    assert payload["n"] == 0 and payload["signatures"] == [[0, 0]]
    assert payload["witness"] == {"A": [], "B": [], "signature": [0, 0]}
    assert payload["oracle_agrees"] is True


def test_profile_order_zero(capsys):
    code, out, _ = run(capsys, "profile", "?", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["signatures"], payload["oracle_agrees"]) == (0, [[0, 0]], True)


def test_profile_json(capsys):
    code, out, _ = run(capsys, "profile", "P3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "signatures": [[1, 1], [2, 0]], "version": payload["version"]}


def test_profile_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("P3"))
    code, out, _ = run(capsys, "profile", "-")
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_mine_known_count(capsys):
    code, out, _ = run(capsys, "mine", "--s", "1", "--k", "1", "--n-max", "6")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert all(line["bound"] == 6 for line in lines)


def test_mine_bound_exceeded(capsys):
    n = obstructions.MINING_MAX_ORDER + 1
    code, _, err = run(capsys, "mine", "--s", "inf", "--k", "2", "--n-max", str(n))
    assert code == 4
    assert f"mining bound {n} exceeds" in err


def test_mine_cost_limit_exceeded(capsys, monkeypatch):
    monkeypatch.setattr(obstructions, "MINING_MAX_PAIRS", 100)
    code, out, err = run(capsys, "mine", "--s", "inf", "--k", "4", "--n-max", "14")
    assert code == 4 and out == ""
    assert "above the limit 100" in err


def test_mine_without_records_writes_nothing(capsys, tmp_path):
    # (inf,4) has no minimal obstruction of order <= 5
    code, out, _ = run(capsys, "mine", "--s", "inf", "--k", "4", "--n-max", "5")
    assert code == 0 and out == ""
    target = tmp_path / "none.jsonl"
    code, out, _ = run(capsys, "mine", "--s", "inf", "--k", "4", "--n-max", "5", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == ""


def test_census_bound_exceeded(capsys):
    code, _, err = run(capsys, "census", "--n-max", "16")
    assert code == 4
    assert "enumeration bound 16 exceeds 15" in err


def test_census(capsys):
    code, out, _ = run(capsys, "census", "--n-max", "7")
    assert code == 0
    assert json.loads(out)["counts"] == [1, 2, 4, 10, 24, 66, 180]


def test_verify_claim_pass(capsys):
    code, out, _ = run(capsys, "verify", "fig1", "--k", "2")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "bogus", "--k", "2")
    assert code == 5


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "remark4", "--k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "PASS"


def test_verify_every_claim_without_k(capsys):
    # a claim that needs k is a parameter error naming it; a fixed list is
    # checked at its own k; no claim may crash into exit 1
    for row in catalog.CLAIMS:
        code, out, err = run(capsys, "verify", row.id)
        if row.k_min is not None:
            assert code == 2, row.id
            assert row.id in err and "Traceback" not in err
        else:
            assert code == 0, (row.id, out, err)
            assert out.split()[:2] in (["PASS", row.id], ["INFO", row.id])
            if row.k_only is not None:
                assert f"k={row.k_only}" in out


def test_verify_unprobed_conjecture_is_inconclusive(capsys):
    code, out, _ = run(capsys, "verify", "conj2", "--k", "4", "--n-max", "9", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "INCONCLUSIVE" and payload["bound"] == 9


def test_verify_unprobed_uniqueness_conjecture_is_inconclusive(capsys):
    code, out, _ = run(capsys, "verify", "conj1", "--k", "2", "--n-max", "9")
    assert code == 1
    assert out.startswith("INCONCLUSIVE conj1 ")
    assert "bound 9 does not probe beyond the conjecture" in out


def test_verify_all_refuses_n_max(capsys):
    code, out, err = run(capsys, "verify", "all", "--k", "2", "--n-max", "9")
    assert (code, out) == (2, "")
    assert "--n-max applies to one claim" in err


def test_verify_table_pads_the_status_column(capsys):
    code, out, _ = run(capsys, "verify", "conj2", "--k", "2", "--n-max", "9")
    assert code == 1
    assert out.startswith("INCONCLUSIVE conj2 ")
    rows = [
        catalog.VerdictReport("fig1", 2, 9, "PASS", 4, 4),
        catalog.VerdictReport("conj2", 2, 9, "INCONCLUSIVE"),
        catalog.VerdictReport("sixteen-note", 2, None, "INFO"),
    ]
    lines = cli._verdict_table(rows).splitlines()
    assert [line.index(" k=2 ") for line in lines] == [len("INCONCLUSIVE ") + 16] * 3


def test_verify_missing_catalog_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "thm21", "--k", "2", "--catalog-dir", str(tmp_path))
    assert code == 2
    assert str(tmp_path / "thm21.k2.txt") in err


def test_unparsable_catalog_file_is_a_parse_error(capsys, tmp_path):
    (tmp_path / "fig1.txt").write_text("P4\n")
    code, out, err = run(capsys, "verify", "fig1", "--catalog-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "P4" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "{path}"],
        ["recognize", "{path}"],
        ["eval", "K1", "--out", "{path}"],
        ["mine", "--s", "inf", "--k", "2", "--n-max", "5", "--out", "{path}"],
        ["verify", "fig1", "--catalog-dir", "{dir}"],
    ],
    ids=["graph", "recognize", "eval-out", "mine-out", "catalog-file"],
)
def test_a_directory_as_a_file_is_an_error_not_a_failed_verification(capsys, tmp_path, argv):
    # exit 1 would read as a failed verification; a bad path is a usage error
    (tmp_path / "fig1.txt").mkdir()
    argv = [arg.format(path=tmp_path / "fig1.txt", dir=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("error: ") and "Is a directory" in err and "Traceback" not in err


def test_an_unreadable_graph_file_is_an_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "graph.txt"
    path.write_text("P3\n")

    def unreadable(name, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(name))

    monkeypatch.setattr(cli, "open", unreadable, raising=False)
    code, out, err = run(capsys, "profile", str(path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == f"error: [Errno 13] Permission denied: '{path}'\n"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "eval", "C4", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["order"] == 4


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--version"])
    assert e.value.code == 0


def test_python_dash_m_runs_the_cli(capsys):
    # the package runs as a module, in a fresh interpreter, as cli.main does
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["verify", "all", "--k", "2", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "polarcographs", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0 and proc.stdout == out
    assert {json.loads(line)["status"] for line in out.splitlines()} == {"PASS", "INFO"}
