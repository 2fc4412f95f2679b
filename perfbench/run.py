"""bgraph benchmark: one closed-loop client driving the `bgraph` CLI in-process.

    python3 perfbench/run.py --workload gphi-decide --seed 1 --seconds 40 --trace 0

Run from the root of a bgraph checkout; the program is imported from its
src/ directory.  Set-up runs several times, each in a fresh interpreter,
and writes the seeded inputs under .perfbench/.  Then whole passes over
the workload's operations run back to back until --seconds would be
exceeded; every operation's output is checked.  The last line of stdout
is one JSON object with the metrics: the end-to-end ones with --trace 0,
the per-layer ones with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import instances  # noqa: E402
import ops as ops_mod  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 9


def layer_units() -> dict[str, str]:
    """Unit of each per-layer metric BENCHMARK.json names, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def workdir_for(args) -> str:
    return os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}")


def timed_setups(args, workdir: str) -> list[float]:
    """Seconds of each set-up, in a fresh interpreter: imports, instance
    generation and writing the input files."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


class Pass:
    """Outcome of one pass: per-operation seconds, failures, and the
    elapsed seconds of the whole pass, checks included."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.elapsed = 0.0


def op_medians(passes: list[Pass]) -> list[float]:
    """Median seconds of each operation over the passes."""
    return [statistics.median(times) for times in zip(*(p.seconds for p in passes))]


def run_pass(main, op_list) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for op in op_list:
        code, stdout, seconds = ops_mod.call(main, op.argv)
        result.seconds.append(seconds)
        try:
            ops_mod.verify(op, code, stdout)
        except Exception as exc:  # any check error, KeyError included, fails the operation
            result.failures.append((op.name, f"{type(exc).__name__}: {exc}"))
    result.elapsed = time.perf_counter() - start
    return result


def run_passes(main, op_list, deadline: float) -> list[Pass]:
    """Whole passes, at least one, while the next one is expected to end
    before the deadline."""
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(main, op_list))
        typical = statistics.median(p.elapsed for p in passes)
        if time.perf_counter() + typical > deadline:
            return passes


def end_to_end(passes: list[Pass], setups: list[float]) -> dict:
    attempted = sum(len(p.seconds) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    per_op = op_medians(passes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_geomean_ms": (math.exp(statistics.fmean(math.log(1000 * s) for s in per_op)), "ms"),
        "slowest_op_s": (max(per_op), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }


def report(op_list, passes: list[Pass], metrics: dict) -> dict:
    for op, med in zip(op_list, op_medians(passes)):
        print(f"op {med:10.4f} s  {op.name}")
    failures = [f for p in passes for f in p.failures]
    for name, why in failures[:20]:
        print(f"FAILED {name}: {why}", file=sys.stderr)
    attempted = sum(len(p.seconds) for p in passes)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small instances, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bgraph", "cli.py")):
        print(f"error: no bgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = workdir_for(args)
    if args.setup_only:
        import bgraph.cli  # noqa: F401  imports count as set-up

        instances.setup(args.workload, args.seed, workdir, args.tiny)
        return 0

    deadline = time.perf_counter() + args.seconds  # set-ups and checks count too
    setups = timed_setups(args, workdir)
    import bgraph.cli

    if not os.path.abspath(bgraph.cli.__file__).startswith(SRC + os.sep):
        print(f"error: bgraph imported from {bgraph.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    op_list = ops_mod.load_ops(workdir)

    def cli_main(cli_argv):  # looked up per call, so a traced cli.main is seen
        return bgraph.cli.main(cli_argv)

    if not args.trace:
        passes = run_passes(cli_main, op_list, deadline)
        print(json.dumps(report(op_list, passes, end_to_end(passes, setups))))
        return 0

    # untraced and traced passes alternate, so slow drifts of machine speed
    # fall on both sides of the overhead estimate
    tracer = Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    while True:
        untraced.append(run_pass(cli_main, op_list))
        tracer.install()
        try:
            traced.append(run_pass(cli_main, op_list))
        finally:
            tracer.uninstall()
        typical = statistics.median(p.elapsed for p in untraced + traced)
        if time.perf_counter() + 2 * typical > deadline:
            break
    tracer.dump(os.path.join(workdir, "spans.json"))
    units = layer_units()
    values = tracer.layer_values(len(traced), units)
    values["trace.overhead_s"] = sum(op_medians(traced)) - sum(op_medians(untraced))
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"layer {value:14.6f} {unit:6s} {name}")
    print(json.dumps(report(op_list, untraced + traced, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
