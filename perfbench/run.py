#!/usr/bin/env python3
"""Whole-run benchmark of the CoS simulator (see perfbench/README.md).

Builds the library and the `perfbench` driver from source (Release,
SILENCE_OBS=OFF) under .bench_build/, runs one workload -- or all three --
and prints every metric by name and unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload net_dense|net_obss|link_trials|all \
        [--seed N] [--seconds S] [--trace 0|1] [--reference BENCH_net.json]

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload
untraced and then traced over the same ops and prints the per-layer
metrics. Exits nonzero when the build fails or any op fails its output
checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("net_dense", "net_obss", "link_trials")
# setup_s is the median over this many processes: the measured run plus
# SETUP_PROCESSES - 1 that stop after set-up.
SETUP_PROCESSES = 5
# A run may take twice --seconds to reach its minimum op count, plus set-up.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def launch(binary, args):
    """Runs the driver once; returns its parsed result line and exit code."""
    t0 = time.monotonic_ns()
    done = subprocess.run([str(binary), *args, "--t0-ns", str(t0)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {' '.join(args)} printed nothing "
                 f"(exit {done.returncode})")
    return json.loads(lines[-1]), done.returncode


def run_workload(binary, workload, opts):
    args = ["--workload", workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.reference:
        args += ["--reference", opts.reference]
    setups = []
    for _ in range(SETUP_PROCESSES - 1):
        line, code = launch(binary, args + ["--setup-only"])
        if code != 0:
            sys.exit(f"perfbench: {workload} set-up failed (exit {code})")
        setups.append(line["setup_s"])
    result, code = launch(binary, args)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["exit_code"] = code
    if not opts.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"]}
    return result


def report(result):
    ctx = result["context"]
    print(f"== {ctx['workload']}  seed={ctx['seed']} seconds={ctx['seconds']}"
          f" trace={int(ctx['trace'])}")
    print("   context: " + " ".join(f"{k}={v}" for k, v in ctx.items()
                                    if k not in ("workload", "seed",
                                                 "seconds", "trace")))
    notes = {
        "setup_s": f"median of {len(result['setup_samples'])} processes",
        "ops_per_s": f"{ctx['ops']} ops on {ctx['threads']} thread(s)",
        "op_ms_p50": f"n={ctx['percentile_samples']}",
        "op_ms_p90": f"n={ctx['percentile_samples']}",
        "fail_ratio": f"{result['failed']}/{result['attempted']} ops",
    }
    for name, m in result["metrics"].items():
        note = notes.get(name, "")
        print(f"   {name:<30} {m['value']:>14.6g} {m['unit']:<6} {note}")
    for why in result["failures"]:
        print(f"   FAILED: {why}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=None,
                        help="BENCH_net.json to check the net rows against "
                             "(default: results/BENCH_net.json)")
    opts = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if opts.workload == "all" else (opts.workload,)
    results = []
    for workload in workloads:
        result = run_workload(binary, workload, opts)
        report(result)
        results.append(result)

    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["correct"] and r["exit_code"] == 0
                                  for r in results)
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            # The result line carries failures as failed/attempted.
            if name == "fail_ratio":
                continue
            key = name if len(results) == 1 else f"{r['workload']}.{name}"
            metrics[key] = m
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
