#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 20 --trace 0

Run from the repository root. The harness (perfbench/src) is built from
source into .bench_build/perfbench together with the libraries under src/.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The lines before it list every metric the
harness measured, with unit and sample count, and the run's labels; the
full report is also written to .bench_build/perfbench/reports/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(".bench_build", "perfbench")
BUILD_DIR = os.path.join(BUILD_ROOT, "build")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
REPORT_DIR = os.path.join(BUILD_ROOT, "reports")
HARNESS = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def git_commit():
    env = dict(os.environ)
    # Never let git climb out of the checkout looking for a repository.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small job lists, for the self-test")
    args = ap.parse_args()

    declared = declared_metrics(args.trace)
    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(REPORT_DIR, exist_ok=True)

    cmd = [HARNESS, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK_DIR]
    if args.reduced:
        cmd.append("--reduced")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"harness exited with {proc.returncode} and printed no result")
        return 1
    result = json.loads(lines[-1])
    result["labels"].update({
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "run_s": round(time.monotonic() - started, 3),
    })

    measured = {m["name"]: m for m in result["metrics"]}
    missing = [d["name"] for d in declared
               if d["name"] not in measured
               or measured[d["name"]]["unit"] != d["unit"]]
    if missing:
        log("harness did not report, or reported in another unit: "
            + ", ".join(missing))
        return 1

    print(f"workload {result['workload']}  trace {args.trace}  "
          + "  ".join(f"{k}={v}" for k, v in result["labels"].items()))
    print(f"jobs attempted {result['attempted']}  failed {result['failed']}  "
          f"wrong outcomes {result['wrong']}")
    for m in result["metrics"]:
        print(f"  {m['name']:<28} {m['value']:>16.6g} {m['unit']:<6} "
              f"n={m['samples']}")
    report = os.path.join(
        REPORT_DIR,
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w") as f:
        json.dump(result, f, indent=1)

    line = {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {d["name"]: {"value": measured[d["name"]]["value"],
                                "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
