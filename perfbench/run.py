#!/usr/bin/env python3
"""Build and run the ASK performance benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (a CMake package over the
repository's src/) into $CARGO_TARGET_DIR, or .bench_build when unset;
later calls only rebuild what changed. The run prints the benchmark's
`meta` and `sim_digest` lines, then, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. Each result is also
appended, with its metadata, to .bench_build/results/results.jsonl (or
--results PATH), which perfbench/compare.py reads. Traced runs write
their spans to .bench_build/traces/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build(out_dir):
    """Configure (once) and build askbench; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ask", "cluster.h")):
        fail(f"no ASK sources under {ROOT}/src; run from a full checkout")
    cmake_dir = os.path.join(out_dir, "askbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", cmake_dir, "--target", "askbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
        fail("build failed")
    return os.path.join(cmake_dir, "askbench")


def parse_result(line):
    """The benchmark's last line, validated against the output contract."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    if not isinstance(res["failed"], int) or not isinstance(res["correct"], bool):
        return None
    for m in res["metrics"].values():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            return None
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="workload name (askbench lists them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="JSON-lines file to append the result to")
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    env = dict(os.environ, ASK_SIM_THREADS="1")
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"], env=env,
                                timeout=RUN_TIMEOUT_S).returncode)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.trace.json")]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = parse_result(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        fail(f"askbench exited with {proc.returncode} and no valid result")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "result": result}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if tag in ("meta", "sim_digest"):
            record[tag] = json.loads(body)
    results = args.results or os.path.join(out_dir, "results", "results.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(results)), exist_ok=True)
    with open(results, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print("\n".join(lines))


if __name__ == "__main__":
    main()
