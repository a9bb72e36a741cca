#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks that the same seed gives an identical job list and another seed a
different one, and that a reduced-size run of every workload, untraced and
traced, reports every metric of BENCHMARK.json with its unit and has no
wrong outcome.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("sim-paper", "serve-batch", "router-small")


def job_list(workload, seed):
    return subprocess.run(
        [run.HARNESS, "list", "--workload", workload, "--seed", str(seed)],
        check=True, capture_output=True, text=True).stdout


def main():
    run.build()
    failures = []
    for w in WORKLOADS:
        first, again, other = job_list(w, 7), job_list(w, 7), job_list(w, 8)
        if not first or first != again:
            failures.append(f"{w}: seed 7 gave two different job lists")
        if first == other:
            failures.append(f"{w}: seeds 7 and 8 gave the same job list")
    for w in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", w, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--reduced"],
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            name = f"{w} --trace {trace}"
            if out.returncode != 0 or not lines:
                failures.append(f"{name}: exit {out.returncode}: "
                                + out.stderr.strip()[-500:])
                continue
            result = json.loads(lines[-1])
            declared = run.declared_metrics(trace)
            if not result["correct"]:
                failures.append(f"{name}: outcomes not correct")
            if set(result["metrics"]) != {d["name"] for d in declared}:
                failures.append(f"{name}: metric names differ from BENCHMARK.json")
            report = os.path.join(run.REPORT_DIR,
                                  f"{w}-seed3-trace{trace}.json")
            with open(report) as f:
                if json.load(f)["wrong"] != 0:
                    failures.append(f"{name}: wrong outcomes")
            print(f"ok  {name}", flush=True)
    for f in failures:
        print("FAIL " + f)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
