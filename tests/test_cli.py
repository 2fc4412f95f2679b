from __future__ import annotations

import json

import pytest

from bgraph.cli import main
from bgraph.graph import parse_graph, serialize_graph
from helpers_brute import path_graph


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.edges"
    path.write_text(serialize_graph(path_graph(5)))
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text(serialize_graph(path_graph(4)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha(capsys, p5_file):
    code, out, _ = run(capsys, ["alpha", p5_file])
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == 3 and data["witness"] == [0, 2, 4]


def test_check_1ext_exit_codes(capsys, p5_file, p4_file):
    code, out, _ = run(capsys, ["check-1ext", p5_file])
    assert code == 1
    data = json.loads(out)
    assert data["one_extendable"] is False
    uncovered = [v["id"] for v in data["vertices"] if not v["covered"]]
    assert uncovered == [1, 3]

    code, out, _ = run(capsys, ["check-1ext", p4_file])
    assert code == 0
    assert json.loads(out)["one_extendable"] is True


def test_check_param(capsys, p5_file):
    code, out, _ = run(capsys, ["check-param", p5_file, "--k", "2"])
    assert code == 0
    code, out, _ = run(capsys, ["check-param", p5_file, "--k", "3"])
    assert code == 1


def test_transform_t1(capsys, p4_file, tmp_path):
    out_path = str(tmp_path / "t1.edges")
    code, out, _ = run(capsys, ["transform", "t1", p4_file, "--out", out_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    g = parse_graph(open(out_path).read())
    assert g.n == 8 and g.m == 7


def test_transform_gap_partition_syntax(capsys, tmp_path):
    src = tmp_path / "k2.edges"
    src.write_text("2 1\n0 1\n")
    out_path = str(tmp_path / "gap.edges")
    code, out, _ = run(
        capsys, ["transform", "gap", str(src), "--cliques", "0 1", "--out", out_path]
    )
    assert code == 0
    assert json.loads(out)["n"] == 6


def test_gadget_table(capsys):
    code, out, _ = run(capsys, ["gadget", "table"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].split()[-3:] == ["7", "8", "8"]
    assert lines[2].split()[-3:] == ["8", "9", "9"]
    assert lines[3].split()[-3:] == ["7", "8", "9"]


def test_gadget_emit(capsys, tmp_path):
    out_path = str(tmp_path / "gadget.edges")
    code, out, _ = run(capsys, ["gadget", "emit", "--out", out_path])
    assert code == 0
    g = parse_graph(open(out_path).read())
    assert g.n == 22 and g.vertex_by_label("x'") == 1


def test_replace_crossings_cli(capsys, tmp_path):
    src = tmp_path / "two.edges"
    src.write_text("4 2\n0 1\n2 3\n")
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"through": [0, 1], "crossed": [[2, 3]]}]))
    out_path = str(tmp_path / "plus.edges")
    code, out, _ = run(
        capsys,
        ["replace-crossings", str(src), "--specs", str(specs), "--out", out_path],
    )
    assert code == 0
    assert json.loads(out)["n"] == 26


def test_reduce_3sat_cli(capsys, tmp_path):
    formula = tmp_path / "phi.json"
    formula.write_text(json.dumps({
        "variables": [{"name": "a", "x": 0}, {"name": "b", "x": 4}, {"name": "c", "x": 8}],
        "clauses": [{"sign": "+", "y": 1,
                     "legs": [{"var": "a"}, {"var": "b"}, {"var": "c"}]}],
    }))
    out_path = str(tmp_path / "gphi.edges")
    code, out, _ = run(capsys, ["reduce-3sat", str(formula), "--out", out_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 34
    code, _, _ = run(capsys, ["check-1ext", out_path])
    assert code == 0


def test_kernelize_cli(capsys, tmp_path):
    src = tmp_path / "g.edges"
    src.write_text(serialize_graph(path_graph(20)))
    out_path = str(tmp_path / "kernel.edges")
    code, out, _ = run(
        capsys,
        ["kernelize", str(src), "--k", "2", "--oracle", "degen", "--out", out_path],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] <= 20
    assert "trace" in payload


def test_throughput_and_limit(capsys, p4_file):
    code, out, _ = run(capsys, ["throughput", p4_file, "--theta", "1"])
    assert code == 0
    assert json.loads(out)["p"] == ["3/8", "1/4", "1/4", "3/8"]

    code, out, _ = run(capsys, ["limit", p4_file])
    assert code == 0
    assert json.loads(out)["p"] == ["2/3", "1/3", "1/3", "2/3"]


def test_sweep_csv(capsys, p4_file):
    code, out, _ = run(capsys, ["sweep", p4_file, "--thetas", "1,10,100"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,p_0,p_1,p_2,p_3"
    assert len(lines) == 4


def test_starvation_exit_codes(capsys, p5_file, p4_file):
    code, out, _ = run(capsys, ["starvation", p5_file])
    assert code == 1
    assert json.loads(out)["starving"] == [1, 3]
    code, out, _ = run(capsys, ["starvation", p4_file])
    assert code == 0


def test_unitdisk_and_verify(capsys, tmp_path):
    src = tmp_path / "k2.edges"
    src.write_text("2 1\n0 1\n")
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps({
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 4, "y": 0}],
        "edges": [{"u": 0, "v": 1, "bends": []}],
    }))
    out_path = str(tmp_path / "ud.edges")
    layout_path = str(tmp_path / "layout.json")
    code, out, _ = run(capsys, [
        "unitdisk", str(src), "--embedding", str(emb),
        "--out", out_path, "--layout", layout_path,
    ])
    assert code == 0
    code, out, _ = run(capsys, ["verify-disks", out_path, "--layout", layout_path])
    assert code == 0
    assert json.loads(out)["match"] is True
    # a wrong graph fails verification
    code, _, _ = run(capsys, ["verify-disks", str(src), "--layout", layout_path])
    assert code == 1


def test_input_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, ["alpha", str(bad)])
    assert code == 2 and "error" in err
    code, _, err = run(capsys, ["alpha", str(tmp_path / "missing.edges")])
    assert code == 2


def test_budget_exit_3(capsys, tmp_path):
    import random
    from helpers_brute import random_graph
    src = tmp_path / "dense.edges"
    src.write_text(serialize_graph(random_graph(random.Random(0), 30, 0.5)))
    code, _, err = run(capsys, ["alpha", str(src), "--budget", "2"])
    assert code == 3


def test_internal_error_exit_4(capsys, monkeypatch, p5_file):
    from bgraph import cli

    def boom(args):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(cli, "_cmd_check_1ext", boom)
    code, out, err = run(capsys, ["check-1ext", p5_file])
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "solver crashed" in err


def test_deterministic_output(capsys, p5_file):
    _, out1, _ = run(capsys, ["check-1ext", p5_file])
    _, out2, _ = run(capsys, ["check-1ext", p5_file])
    assert out1 == out2
