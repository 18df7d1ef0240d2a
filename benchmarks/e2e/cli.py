"""Command line of the benchmark.

* ``--workload NAME --seed N --seconds S --trace 0|1`` (the form
  ``BENCHMARK.json`` names) runs one workload once and prints one JSON
  object as the last line of standard output.
* ``run [--seed N] [--workloads a,b] [--out DIR] [--quick]`` runs every
  workload untraced and traced, each in its own process, prints every
  metric by name with its unit and writes ``DIR/result.json``.
* ``compare --base A.json ... --new B.json ...`` judges two sets of runs.
* ``selftest`` runs the harness's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import unittest
from typing import Dict, List, Optional

from . import env, metrics
from .metrics import WORKLOAD_NAMES

DEFAULT_OUT = ".bench_out"
DEFAULT_SEED = 2018
#: a single run must end well inside the driver's 180 s.
SINGLE_RUN_TIMEOUT_S = 175


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="inputs and op schedule are a pure function of it")
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="length of the timed window")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for result and trace files (inside the checkout)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: a tenth of the window, one set-up; never "
                             "comparable with full runs")
    parser.add_argument("--inject-slowdown", metavar="TEMPLATE", default=None,
                        help="self-test: stretch this template's timed ops")


# -- one workload, once ------------------------------------------------------------------


def single_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    _add_run_options(parser)
    args = parser.parse_args(argv)
    try:
        cleared = env.prepare()
    except env.MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from . import runner  # imports numpy: only after env.prepare()

    detail = runner.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.out,
        quick=args.quick, slowdown=args.inject_slowdown,
    )
    detail["env"] = env.env_block(cleared)
    if args.trace:
        values, units = detail["per_layer"], metrics.PER_LAYER_UNITS
    else:
        values, units = detail["end_to_end"], metrics.END_TO_END_UNITS
    with open(_detail_path(args.out, args.workload, args.trace), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
        handle.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {detail['seconds']:g}  "
          f"trace {args.trace}" + ("  (quick)" if args.quick else ""))
    _print_metrics(values, units)
    _print_notes(detail)
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics.with_units(values, units),
    }))
    return 0


def _detail_path(out: str, workload: str, trace: int) -> str:
    return os.path.join(out, f"run_{workload}_trace{int(trace)}.json")


def _print_metrics(values: Dict[str, float], units: Dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")


def _print_notes(detail: Dict[str, object]) -> None:
    print(f"  {metrics.FAILED_RATIO:<36} {detail['failed'] / detail['attempted']:>14.6g} ratio"
          f"  ({detail['failed']} failed of {detail['attempted']} attempted)")
    for failure in detail["failures"]:
        print(f"  FAILED {failure['template']} {failure['key']}: {failure['why']}")
    window = detail.get("window")
    if window:
        print(f"  timed window: {window['ops']} ops in {window['wall_s']:.2f} s, "
              "every one a latency sample")
        if not window["p95_supported"]:
            print("  warning: fewer than 10 samples lie beyond p95; read latency_p95_ms with care")
    trace = detail.get("trace_info")
    if trace:
        if detail["per_layer"]["client.send_lateness_p95_ms"] > 5.0:
            print("  warning: the generator ran more than 5 ms late; the open-loop "
                  "latencies are the generator's, not the server's")
        print(f"  trace: {trace['spans']} spans of {trace['walked_ops']} walked ops in "
              f"{trace['file']}; children cover "
              f"{trace['core_query_child_coverage']:.1%} of core.query")
    if detail.get("cut_short"):
        print(f"  warning: {detail['cut_short']}; the ops it never ran are counted as failed")
    if detail.get("leftover_children"):
        print(f"  error: processes outlived teardown: {detail['leftover_children']}")


# -- every workload ---------------------------------------------------------------------


def run_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e run")
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES),
                        help="comma-separated subset of " + ",".join(WORKLOAD_NAMES))
    _add_run_options(parser)
    args = parser.parse_args(argv)
    names = [name for name in args.workloads.split(",") if name]
    unknown = [name for name in names if name not in WORKLOAD_NAMES]
    if unknown:
        parser.error(f"unknown workloads {unknown}; know {list(WORKLOAD_NAMES)}")

    entry = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    document: Dict[str, object] = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "inject_slowdown": args.inject_slowdown, "workloads": {},
    }
    status = 0
    for name in names:
        merged: Dict[str, object] = {}
        for trace in (0, 1):
            command = [
                sys.executable, entry, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out,
            ]
            if args.quick:
                command.append("--quick")
            if args.inject_slowdown and not trace:
                command += ["--inject-slowdown", args.inject_slowdown]
            code = _run_child(command)
            if code != 0:
                print(f"error: {name} trace={trace} exited with status {code}", file=sys.stderr)
                status = 1
                continue
            with open(_detail_path(args.out, name, trace), "r", encoding="utf-8") as handle:
                detail = json.load(handle)
            document.setdefault("env", detail["env"])
            merged["traced" if trace else "untraced"] = detail
            merged["per_layer" if trace else "end_to_end"] = detail[
                "per_layer" if trace else "end_to_end"
            ]
            if detail["failed"]:
                status = 1
        document["workloads"][name] = merged
    path = os.path.join(args.out, "result.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}")
    return status


def _run_child(command: List[str]) -> int:
    """Run one single-workload process; it is stopped if we are interrupted."""
    child = subprocess.Popen(command)
    try:
        return child.wait(SINGLE_RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


# -- dispatch --------------------------------------------------------------------------------


def selftest_main(argv: List[str]) -> int:
    env.prepare()
    tests = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tests")
    suite = unittest.defaultTestLoader.discover(tests, top_level_dir=env.ROOT)
    result = unittest.TextTestRunner(verbosity=2 if "-v" in argv else 1).run(suite)
    return 0 if result.wasSuccessful() else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] == "compare":
        from .compare import compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "selftest":
        return selftest_main(argv[1:])
    return single_main(argv)
