#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table1-tree --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

The harness is built with dune into the checkout's own _build
directory.  The last line of standard output is the harness's result
object; this wrapper checks its shape and metric names against
BENCHMARK.json before passing it on, and exits nonzero (printing no
result) when the checkout holds no sources to build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "harness.exe")
RUN_TIMEOUT_S = 175


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no %s under %s: run from a full source checkout" % (need, ROOT))
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release", "./perfbench/harness.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        die("build failed (dune exit %d)" % proc.returncode)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    group = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a non-negative integer")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError("metrics %s differ from BENCHMARK.json %s" % (got, want))
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise ValueError("metric %s has no numeric value" % k)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and not args.workload:
        ap.error("--workload is required")
    build()
    if args.selfcheck:
        cmd = [EXE, "--selfcheck"]
    else:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("harness exceeded %d s" % RUN_TIMEOUT_S, code=1)
    out = proc.stdout.decode().strip().splitlines()
    if args.selfcheck:
        sys.exit(proc.returncode)
    if not out:
        die("harness printed no result (exit %d)" % proc.returncode, code=1)
    try:
        result = check_result(out[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        die("malformed result: %s" % e, code=1)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
