from __future__ import annotations

import argparse
import copy
import io
import json
import random
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgraph.cli import build_parser, main
from bgraph.extendability import is_one_extendable, param_one_extendability
from bgraph.graph import Graph, parse_graph, serialize_graph
from bgraph.transforms import g_plus, t2_subdivide, t3_degree_reduce, w1_construction
from helpers_brute import path_graph, random_graph


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


_STAR = Graph.from_edges(5, [(0, v) for v in range(1, 5)])
_K2 = Graph.from_edges(2, [(0, 1)])


@pytest.mark.parametrize("argv, g, build", [
    pytest.param(["t2", "--s", "2"], _STAR, lambda g: t2_subdivide(g, 2), id="t2"),
    pytest.param(["t3"], _STAR, t3_degree_reduce, id="t3"),
    pytest.param(["gplus", "--r", "1"], _STAR, lambda g: (g_plus(g, 1), None), id="gplus"),
    pytest.param(["w1", "--cliques", "0|1"], _K2,
                 lambda g: (w1_construction(g, [(0,), (1,)]), None), id="w1"),
])
def test_transform_dispatch(capsys, tmp_path, argv, g, build):
    src = tmp_path / "g.edges"
    src.write_text(serialize_graph(g))
    out_path = tmp_path / "out.edges"
    kind, *options = argv
    code, out, _ = run(capsys, ["transform", kind, str(src), *options, "--out", str(out_path)])
    assert code == 0
    expected, cert = build(g)
    assert out_path.read_text() == serialize_graph(expected)
    payload = json.loads(out)
    assert (payload["n"], payload["m"]) == (expected.n, expected.m)
    if cert is None:
        assert "certificate" not in payload
    else:
        assert payload["certificate"] == json.loads(json.dumps(cert.to_json_dict()))


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


def test_sweep_csv(capsys, p4_file, tmp_path):
    code, out, _ = run(capsys, ["sweep", p4_file, "--thetas", "1,10,100"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,p_0,p_1,p_2,p_3"
    assert len(lines) == 4
    # no vertices: one column, header included
    empty = tmp_path / "empty.edges"
    empty.write_text("0 0\n")
    code, out, _ = run(capsys, ["sweep", str(empty), "--thetas", "1,10"])
    assert (code, out) == (0, "theta\n1\n10\n")


def test_starvation_exit_codes(capsys, p5_file, p4_file, tmp_path):
    code, out, _ = run(capsys, ["starvation", p5_file])
    assert code == 1
    assert json.loads(out)["starving"] == [1, 3]
    code, out, _ = run(capsys, ["starvation", p4_file])
    assert code == 0
    # an even path is 1-extendable; 1000 vertices must not overflow the stack
    long_path = tmp_path / "p1000.edges"
    long_path.write_text(serialize_graph(path_graph(1000)))
    code, out, _ = run(capsys, ["starvation", str(long_path)])
    assert code == 0
    assert json.loads(out) == {"starving": []}


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
    # the drawing that test_malformed_json_exits_2 spoils is valid, integral floats too
    src.write_text("4 2\n0 1\n2 3\n")
    emb.write_text(_two_edges_embedding(x=4.0))
    code, _, _ = run(capsys, [
        "unitdisk", str(src), "--embedding", str(emb),
        "--out", out_path, "--layout", layout_path,
    ])
    assert code == 0
    # one file for both outputs: the layout would overwrite the graph
    same = tmp_path / "same.edges"
    code, out, err = run(capsys, [
        "unitdisk", str(src), "--embedding", str(emb),
        "--out", str(same), "--layout", f"{tmp_path}/./same.edges",
    ])
    assert (code, out) == (2, "") and "same file" in err
    assert not same.exists()


def test_input_errors_exit_2(capsys, tmp_path, p4_file):
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, ["alpha", str(bad)])
    assert code == 2 and "error" in err
    code, _, err = run(capsys, ["alpha", str(tmp_path / "missing.edges")])
    assert code == 2
    # a header past the stated vertex limit is refused before any allocation
    huge = tmp_path / "huge.edges"
    huge.write_text("400000000 0\n")
    code, out, err = run(capsys, ["alpha", str(huge)])
    assert code == 2 and out == "" and "limit of 16777216 vertices" in err
    code, out, err = run(capsys, ["sweep", p4_file, "--thetas", "1", "--precision", "-1"])
    assert code == 2 and out == "" and "precision" in err
    code, out, err = run(capsys, ["throughput", p4_file, "--theta", "1e999999999"])
    assert code == 2 and out == "" and "theta" in err
    code, out, err = run(capsys, ["sweep", p4_file, "--thetas", "1,1e-999999999"])
    assert code == 2 and out == "" and "theta" in err
    # a zero denominator is an input error, not a ZeroDivisionError crash
    code, out, err = run(capsys, ["throughput", p4_file, "--theta", "1/0"])
    assert code == 2 and out == "" and "zero denominator" in err
    code, out, err = run(capsys, ["sweep", p4_file, "--thetas", "1,1/0"])
    assert code == 2 and out == "" and "zero denominator" in err
    # refused at once, not after building 10**100000000 for digits Python cannot print
    code, out, err = run(capsys, ["sweep", p4_file, "--thetas", "1", "--precision", "100000000"])
    assert code == 2 and out == "" and "precision" in err
    # a negative budget is refused, not reported as a search that ran out
    for argv in (["alpha", p4_file, "--budget", "-3"], ["limit", p4_file, "--budget", "-1"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "budget must be non-negative" in err
    # options a command needs for one choice only, and lists that come out empty
    written = tmp_path / "written.edges"
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"through": [0, 1], "crossed": 5}]))
    for argv, message in (
        (["transform", "gplus", p4_file], "gplus requires --r"),
        (["transform", "gap", p4_file], "gap requires --cliques"),
        (["transform", "w1", p4_file], "w1 requires --cliques"),
        (["transform", "gap", p4_file, "--cliques", "0||1"], "empty clique in partition"),
        (["kernelize", p4_file, "--k", "2", "--oracle", "krfree"], "krfree oracle requires --r"),
        (["replace-crossings", p4_file, "--specs", str(specs)], "'crossed' must be a list"),
    ):
        code, out, err = run(capsys, [*argv, "--out", str(written)])
        assert code == 2 and out == "" and message in err
        assert not written.exists()
    code, out, err = run(capsys, ["gadget", "emit"])
    assert code == 2 and out == "" and "gadget emit requires --out" in err
    code, out, err = run(capsys, ["sweep", p4_file, "--thetas", ","])
    assert code == 2 and out == "" and "no theta values given" in err


def test_unitdisk_failed_write_leaves_no_output(capsys, tmp_path):
    src = tmp_path / "k2.edges"
    src.write_text("2 1\n0 1\n")
    emb = tmp_path / "k2.json"
    emb.write_text(json.dumps(_K2_EMBEDDING))
    missing = tmp_path / "missing"
    out_path, layout_path = tmp_path / "out.edges", tmp_path / "l.json"
    # the graph is written first, so it is removed again when the layout fails
    code, out, err = run(capsys, ["unitdisk", str(src), "--embedding", str(emb),
                                  "--out", str(out_path), "--layout", str(missing / "l.json")])
    assert code == 2 and out == "" and "No such file or directory" in err
    assert not out_path.exists()
    code, out, err = run(capsys, ["unitdisk", str(src), "--embedding", str(emb),
                                  "--out", str(missing / "out.edges"), "--layout", str(layout_path)])
    assert code == 2 and out == "" and "No such file or directory" in err
    assert not layout_path.exists()


def _formula(names, legs) -> str:
    return json.dumps({
        "variables": [{"name": name, "x": 4 * i} for i, name in enumerate(names)],
        "clauses": [{"sign": "+", "y": 1, "legs": legs}],
    })


_ABC = ["a", "b", "c"]
_DEEP = "[" * 100000 + "]" * 100000
_K2_EMBEDDING = {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 4, "y": 0}],
                 "edges": [{"u": 0, "v": 1, "bends": []}]}


def _two_edges_embedding(**vertex_3) -> str:
    """A valid drawing of the test graph "4 2 / 0 1 / 2 3", with vertex 3's
    fields overridden."""
    vertices = [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 4, "y": 0},
                {"id": 2, "x": 0, "y": 4}, {"id": 3, "x": 4, "y": 4, **vertex_3}]
    return json.dumps({"vertices": vertices, "edges": [
        {"u": 0, "v": 1, "bends": []}, {"u": 2, "v": 3, "bends": []}]})


@pytest.mark.parametrize("command, text", [
    pytest.param("reduce-3sat", "[]", id="formula-list"),
    pytest.param("reduce-3sat", '{"variables": 5}', id="formula-variables-int"),
    pytest.param("reduce-3sat", json.dumps({"variables": [{"name": "a", "x": 0}],
                                            "clauses": [3]}), id="formula-clause-int"),
    pytest.param("reduce-3sat", _formula(_ABC, [{"var": "a"}, "b", {"var": "c"}]),
                 id="formula-leg-str"),
    pytest.param("reduce-3sat", _formula(_ABC, 3), id="formula-legs-int"),
    pytest.param("reduce-3sat", json.dumps({"variables": [{"name": "a", "x": "1/0"}],
                                            "clauses": []}), id="formula-x-zero-denominator"),
    # refused as input errors, not a TypeError from Fraction()
    *(pytest.param("reduce-3sat", json.dumps({"variables": [{"name": "a", "x": x}],
                                              "clauses": []}), id=f"formula-x-{name}")
      for name, x in (("null", None), ("list", [1]), ("bool", True))),
    # read at once, not after building 10**99999999
    pytest.param("reduce-3sat", json.dumps({"variables": [{"name": "a", "x": "1e99999999"}],
                                            "clauses": []}), id="formula-x-huge-exponent"),
    # a variable name that would break the edge-list label line
    pytest.param("reduce-3sat", _formula(["a\n0 1", "b", "c"],
                                         [{"var": "a\n0 1"}, {"var": "b"}, {"var": "c"}]),
                 id="formula-name-newline"),
    pytest.param("unitdisk", "[]", id="embedding-list"),
    pytest.param("unitdisk", json.dumps({"vertices": 3, "edges": []}),
                 id="embedding-vertices-int"),
    pytest.param("unitdisk", json.dumps({**_K2_EMBEDDING, "vertices": [
        {"id": 0, "x": None, "y": 0}, {"id": 1, "x": 4, "y": 0}]}), id="embedding-x-null"),
    pytest.param("unitdisk", json.dumps({**_K2_EMBEDDING, "edges": [
        {"u": 0, "v": 1, "bends": 7}]}), id="embedding-bends-int"),
    pytest.param("unitdisk", json.dumps({**_K2_EMBEDDING, "edges": [
        {"u": 0, "v": 1, "bends": [[4, 0, 1]]}]}), id="embedding-bend-three-coordinates"),
    pytest.param("unitdisk", json.dumps({**_K2_EMBEDDING, "edges": [
        {"u": 0, "v": 1, "bends": [[4]]}]}), id="embedding-bend-one-coordinate"),
    pytest.param("unitdisk", '{"vertices": [{"id": 0, "x": 4e2000, "y": 0}], "edges": []}',
                 id="embedding-x-huge-exponent"),
    # int() would overflow, truncate or read True as 1 on these fields
    pytest.param("unitdisk", _two_edges_embedding(x=float("inf")), id="embedding-x-infinity"),
    pytest.param("unitdisk", _two_edges_embedding(x=4.5), id="embedding-x-fraction"),
    pytest.param("unitdisk", _two_edges_embedding(id=3.5), id="embedding-id-fraction"),
    pytest.param("unitdisk", _two_edges_embedding(x=True), id="embedding-x-bool"),
    pytest.param("verify-disks", "[]", id="layout-list"),
    pytest.param("verify-disks", json.dumps({"points": [{"id": 0, "x": None, "y": 0}]}),
                 id="layout-x-null"),
    pytest.param("verify-disks", json.dumps({"points": [{"id": 0, "x": float("inf"), "y": 0}]}),
                 id="layout-x-infinity"),
    pytest.param("verify-disks", json.dumps({"points": [{"id": 0, "x": 0, "y": float("nan")}]}),
                 id="layout-y-nan"),
    pytest.param("verify-disks", json.dumps({"points": [{"id": 0.5, "x": 0, "y": 0}]}),
                 id="layout-id-fraction"),
    pytest.param("verify-disks", '{"points": [{"id": 0, "x": 1e999999999, "y": 0}]}',
                 id="layout-x-huge-exponent"),
    pytest.param("verify-disks", json.dumps({"points": [{"id": 0, "x": "1/0", "y": 0}]}),
                 id="layout-x-zero-denominator"),
    pytest.param("replace-crossings", "[3]", id="specs-int"),
    pytest.param("replace-crossings", json.dumps([{"through": 5, "crossed": []}]),
                 id="specs-through-int"),
    pytest.param("replace-crossings", "{}", id="specs-object"),
    pytest.param("replace-crossings", '[{"through": [1e2000, 1], "crossed": []}]',
                 id="specs-id-huge-exponent"),
    pytest.param("replace-crossings", json.dumps([{"through": [0, 1], "crossed": [[8, 9]]}]),
                 id="specs-vertex-out-of-range"),
    # valid JSON, but deeper than the parser's recursion allows
    *(pytest.param(command, _DEEP, id=f"{command}-nested-too-deeply")
      for command in ("reduce-3sat", "unitdisk", "verify-disks", "replace-crossings")),
])
def test_malformed_json_exits_2(capsys, tmp_path, command, text):
    code, out, err = _run_document(capsys, tmp_path, command, text)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not (tmp_path / "out.edges").exists()


def _run_document(capsys, tmp_path, command, text):
    """Run command on the graph "4 2 / 0 1 / 2 3" with text as its JSON input."""
    src = tmp_path / "two.edges"
    src.write_text("4 2\n0 1\n2 3\n")
    doc = tmp_path / "input.json"
    doc.write_text(text)
    argv = {
        "reduce-3sat": [str(doc)],
        "unitdisk": [str(src), "--embedding", str(doc), "--layout", str(tmp_path / "l.json")],
        "verify-disks": [str(src), "--layout", str(doc)],
        "replace-crossings": [str(src), "--specs", str(doc)],
    }[command]
    if command != "verify-disks":
        argv += ["--out", str(tmp_path / "out.edges")]
    return run(capsys, [command, *argv])


def _dropped(document, *path) -> str:
    """document as JSON, without the field that path leads to."""
    document = copy.deepcopy(document)
    *steps, key = path
    row = document
    for step in steps:
        row = row[step]
    del row[key]
    return json.dumps(document)


_ABC_FORMULA = json.loads(_formula(_ABC, [{"var": name} for name in _ABC]))
_LAYOUT = {"points": [{"id": 0, "x": 0, "y": 0}]}
_SPECS = [{"through": [0, 1], "crossed": [[2, 3]]}]


@pytest.mark.parametrize("command, text, where, key", [
    *(("unitdisk", _dropped(_K2_EMBEDDING, "vertices", 1, key), "embedding vertex", key)
      for key in ("id", "x", "y")),
    *(("unitdisk", _dropped(_K2_EMBEDDING, "edges", 0, key), "embedding edge", key)
      for key in ("u", "v")),
    *(("verify-disks", _dropped(_LAYOUT, "points", 0, key), "layout point", key)
      for key in ("id", "x", "y")),
    *(("reduce-3sat", _dropped(_ABC_FORMULA, "variables", 1, key), "variable", key)
      for key in ("name", "x")),
    ("reduce-3sat", _dropped(_ABC_FORMULA, "clauses", 0, "y"), "clause 0", "y"),
    ("reduce-3sat", _dropped(_ABC_FORMULA, "clauses", 0, "legs", 2, "var"), "clause 0 leg",
     "var"),
    *(("replace-crossings", _dropped(_SPECS, 0, key), "crossing spec", key)
      for key in ("through", "crossed")),
])
def test_missing_field_is_named(capsys, tmp_path, command, text, where, key):
    code, out, err = _run_document(capsys, tmp_path, command, text)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where} {{") and f"has no field {key!r}" in err


def test_budget_exit_3(capsys, tmp_path, p4_file):
    import random
    from helpers_brute import random_graph
    src = tmp_path / "dense.edges"
    src.write_text(serialize_graph(random_graph(random.Random(0), 30, 0.5)))
    code, _, err = run(capsys, ["alpha", str(src), "--budget", "2"])
    assert code == 3
    code, out, err = run(capsys, ["limit", p4_file, "--budget", "1"])
    assert code == 3 and out == "" and "budget" in err
    # each solver call of the P4 scan fits in one node; the scan needs two
    code, out, err = run(capsys, ["check-1ext", p4_file, "--budget", "1"])
    assert code == 3 and out == "" and "budget" in err
    # --k 2, since check-param answers --k 1 without a solve
    for argv in (["check-param", p4_file, "--k", "2"], ["gadget", "table"],
                 ["throughput", p4_file, "--theta", "1"], ["sweep", p4_file, "--thetas", "1"],
                 ["starvation", p4_file]):
        code, out, err = run(capsys, [*argv, "--budget", "0"])
        assert (code, out) == (3, ""), argv
        assert "budget" in err


# Per command: its positionals in command-line order and its option
# strings, as the command line has always accepted them.
_COMMAND_LINE = {
    "alpha": (["graph"], {"--budget"}),
    "check-1ext": (["graph"], {"--budget", "--first-uncovered"}),
    "check-param": (["graph"], {"--budget", "--k"}),
    "transform": (["kind", "graph"], {"--cliques", "--out", "--r", "--s"}),
    "gadget": (["what"], {"--budget", "--out"}),
    "replace-crossings": (["graph"], {"--out", "--specs"}),
    "reduce-3sat": (["formula"], {"--out", "--t3"}),
    "kernelize": (["graph"], {"--k", "--oracle", "--out", "--r"}),
    "throughput": (["graph"], {"--budget", "--theta"}),
    "sweep": (["graph"], {"--budget", "--precision", "--thetas"}),
    "limit": (["graph"], {"--budget"}),
    "starvation": (["graph"], {"--budget"}),
    "unitdisk": (["graph"], {"--embedding", "--layout", "--out"}),
    "verify-disks": (["graph"], {"--layout"}),
}


def test_command_line_options_pinned():
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    found = {
        name: ([a.dest for a in p._actions if not a.option_strings],
               {s for a in p._actions for s in a.option_strings} - {"-h", "--help"})
        for name, p in commands.choices.items()
    }
    assert found == _COMMAND_LINE


def test_internal_error_exit_4(capsys, monkeypatch, p5_file):
    from bgraph import cli

    def boom(*args, **kwargs):
        raise RuntimeError("solver crashed")

    # the cached parser holds the handler itself, so patch the library call
    monkeypatch.setattr(cli, "is_one_extendable", boom)
    code, out, err = run(capsys, ["check-1ext", p5_file])
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "solver crashed" in err


def test_internal_key_error_exits_4(capsys, monkeypatch, p5_file):
    # a missing key of an internal table is a crash, not an input error
    from bgraph import cli, csma

    def lookup(*args, **kwargs):
        return {}[0]

    monkeypatch.setattr(csma, "_packed_polynomials", lookup)
    code, out, err = run(capsys, ["limit", p5_file])
    assert code == cli.EXIT_INTERNAL == 4
    assert out == "" and "KeyError" in err


def test_deterministic_output(capsys, p5_file):
    _, out1, _ = run(capsys, ["check-1ext", p5_file])
    _, out2, _ = run(capsys, ["check-1ext", p5_file])
    assert out1 == out2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 14), st.sampled_from([0.1, 0.3, 0.6]), st.integers(0, 2**32),
       st.integers(0, 6))
def test_reports_match_json_dumps_byte_for_byte(n, p, seed, k):
    g = random_graph(random.Random(seed), n, p)
    ok, verdicts = param_one_extendability(g, k)
    cases = [
        (["check-1ext", "-"], is_one_extendable(g).to_json_dict()),
        (["check-1ext", "-", "--first-uncovered"],
         is_one_extendable(g, stop_at_first_uncovered=True).to_json_dict()),
        (["check-param", "-", "--k", str(k)],
         {"k": k, "all_covered": ok, "vertices": [v.to_json_dict() for v in verdicts]}),
    ]
    for argv, payload in cases:
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(serialize_graph(g))), redirect_stdout(out):
            main(argv)
        assert out.getvalue() == json.dumps(payload, sort_keys=True) + "\n"
