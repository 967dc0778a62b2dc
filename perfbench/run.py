#!/usr/bin/env python3
"""Repository benchmark: builds the geofem library and the benchmark binary
from source, runs one workload, checks its answers, and prints one JSON
result line (the last line of stdout).

    python3 perfbench/run.py --workload swj_pdjds --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when set
(a path inside the repository), else to .bench_build. --trace 1 prints the
per-layer metrics and writes a Chrome trace to <build>/traces/. --self-check
runs every workload at toy sizes for a second, traced and untraced, and
validates the emitted metric names and units against BENCHMARK.json.
See perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (a no-op after the first time) and build incrementally.
    Returns the binary path."""
    out = build_dir()
    subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "3", "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.trace.json")]
    if tiny:
        cmd.append("--tiny")
    # Kernel teams are sized by the benchmark (2 threads); keep OpenMP's
    # default team below the core count as well.
    env = dict(os.environ, OMP_NUM_THREADS="2")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = p.stdout.strip().splitlines()
    if not lines:
        return p.returncode or 1, None
    try:
        return p.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: unparsable result line: {lines[-1]!r}")
        return 1, None


def validate(result, trace):
    """Names and units of the emitted metrics against BENCHMARK.json."""
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"missing {k}" for k in want if k not in got]
    problems += [f"unexpected {k}" for k in got if k not in want]
    problems += [f"{k}: unit {got[k]!r}, expected {want[k]!r}"
                 for k in want if k in got and got[k] != want[k]]
    return problems


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for w in workloads:
        for trace in (False, True):
            code, res = run(binary, w, 1, 1, trace, tiny=True)
            problems = validate(res, trace) if res else ["no result"]
            if code != 0 or not res or not res["correct"]:
                problems.append(f"exit {code}, correct={res and res['correct']}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            log(f"self-check {w} trace={int(trace)}: {status}")
            ok = ok and not problems
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    if args.self_check:
        return self_check(binary)

    code, res = run(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    if res is None:
        return code or 1
    problems = validate(res, args.trace == 1)
    if problems:
        log("metrics do not match BENCHMARK.json: " + "; ".join(problems))
        return 3
    print(json.dumps(res))
    return code


if __name__ == "__main__":
    sys.exit(main())
