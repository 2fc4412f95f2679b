"""The benchmark's own tests: a tiny smoke run and failure counting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import instances  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, key):
    result = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[key]}


def test_same_seed_same_inputs(tmp_path):
    for name in ("a", "b"):
        instances.setup("airtime", 3, str(tmp_path / name), tiny=True)
    files = sorted(os.listdir(tmp_path / "a"))
    assert files == sorted(os.listdir(tmp_path / "b"))
    for f in files:
        assert (tmp_path / "a" / f).read_text() == (tmp_path / "b" / f).read_text()


def _corrupting(main, corrupt):
    """A CLI entry point that prints corrupt(its real output)."""
    def wrapped(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        print(corrupt(argv, buf.getvalue()), end="")
        return code
    return wrapped


def _flip_verdict(argv, text):
    if argv[0] != "check-1ext":
        return text
    rep = json.loads(text)
    rep["one_extendable"] = not rep["one_extendable"]
    return json.dumps(rep)


def _adjacent_witness(argv, text):
    if argv[0] != "check-1ext":
        return text
    rep = json.loads(text)
    with open(argv[1], encoding="utf-8") as f:
        edge = f.read().splitlines()[1]  # first edge "u v"
    u, v = map(int, edge.split())
    for verdict in rep["vertices"]:
        if verdict["id"] == u and verdict["covered"]:
            verdict["witness"] = sorted({u, v} | set(verdict["witness"][2:]))
    return json.dumps(rep)


@pytest.mark.parametrize("corrupt", [_flip_verdict, _adjacent_witness])
def test_corrupted_output_counts_as_failure(tmp_path, corrupt):
    import bgraph.cli

    instances.setup("gphi-decide", 1, str(tmp_path), tiny=True)
    op_list = ops.load_ops(str(tmp_path))
    honest = run.run_pass(bgraph.cli.main, op_list)
    assert honest.failures == []
    bad = run.run_pass(_corrupting(bgraph.cli.main, corrupt), op_list)
    checks = [op for op in op_list if op.argv[0] == "check-1ext"]
    assert [name for name, _ in bad.failures] == [op.name for op in checks]
    metrics = run.end_to_end([honest, bad], [0.1])
    assert metrics["ok_share"][0] < 1


def test_crash_and_input_error_count_as_failures(tmp_path):
    instances.setup("gphi-decide", 1, str(tmp_path), tiny=True)
    op_list = ops.load_ops(str(tmp_path))

    def crash(argv):
        raise RecursionError("maximum recursion depth exceeded")

    assert len(run.run_pass(crash, op_list).failures) == len(op_list)
    assert len(run.run_pass(lambda argv: 2, op_list).failures) == len(op_list)


def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(BENCH, name), encoding="utf-8").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "build",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
