#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json artifacts.

Compares a freshly produced bench JSON against a committed baseline
(benchmarks/baselines/). Raw wall-clock is machine-dependent, so the gate
is *ratio-based*: for every configuration row `<instance>/<config>` the
speedup relative to that instance's `<instance>/sequential` row is computed
within the same file, and the gate fails when the current speedup falls
more than --threshold (default 15%) below the baseline's speedup for the
same row.

A row that finished in the baseline but timed out (`timed_out` /
`partial_result`) in the current run is a regression, whatever its ratio:
its `wall_ms` is then the time limit, a lower bound on the real time.

Rows are skipped (never failed by ratio) when:
  * the row or its sequential reference timed out in the baseline, or the
    sequential reference timed out in the current run (that row is itself
    reported as a regression if it finished in the baseline);
  * the sequential reference or the row itself ran under --min-ms in either
    file — sub-50ms cells are noise-dominated.

Rows that exist on only one side are *reported* in both directions:
baseline rows missing from the current run (a configuration silently
stopped being measured — the classic way a perf gate rots) and current
rows absent from the baseline (new configurations whose baselines should
be committed). By default these are warnings; with --strict any
baseline-only row fails the gate, so CI cannot drop coverage unnoticed.

Exit code 0 = no regression, 1 = at least one regression (or, under
--strict, a baseline row missing from the current run), 2 = bad input.
"""

import argparse
import json
import sys


def load_rows(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for row in data.get("results", []):
        rows[row["name"]] = row
    if not rows:
        print(f"error: {path} has no results", file=sys.stderr)
        sys.exit(2)
    return rows


def sequential_name(name):
    instance = name.split("/", 1)[0]
    return f"{instance}/sequential"


def timed_out(row):
    return row.get("timed_out", False) or row.get("partial_result", False)


def usable(row, min_ms):
    return (
        row is not None
        and not timed_out(row)
        and row.get("wall_ms", 0.0) >= min_ms
    )


def speedup(rows, name, min_ms):
    """Speedup of row `name` vs its instance's sequential row, or None when
    either side is missing/timed-out/too-fast-to-measure."""
    row = rows.get(name)
    seq = rows.get(sequential_name(name))
    if not usable(row, min_ms) or not usable(seq, min_ms):
        return None
    return seq["wall_ms"] / row["wall_ms"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="maximum allowed relative speedup drop (default 0.15)",
    )
    parser.add_argument(
        "--min-ms",
        type=float,
        default=50.0,
        help="skip rows whose wall time is below this in either file",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail when a baseline row is missing from the current run "
        "(instead of warning); current-only rows still only warn",
    )
    args = parser.parse_args()

    base = load_rows(args.baseline)
    curr = load_rows(args.current)

    missing_in_current = sorted(set(base) - set(curr))
    missing_in_baseline = sorted(set(curr) - set(base))
    for name in missing_in_current:
        print(f"   MISSING  {name:<40} in baseline but not in current run")
    for name in missing_in_baseline:
        print(f"       NEW  {name:<40} in current run but not in baseline")

    regressions = []
    checked = 0
    for name in sorted(base):
        row = curr.get(name)
        if row is not None and timed_out(row) and not timed_out(base[name]):
            checked += 1
            regressions.append(name)
            print(
                f"{'REGRESSION':>10}  {name:<40} finished in baseline"
                f" ({base[name].get('wall_ms', 0.0):.0f} ms), timed out now"
                f" (>= {row.get('wall_ms', 0.0):.0f} ms)"
            )
            continue
        if name.endswith("/sequential"):
            continue
        base_speedup = speedup(base, name, args.min_ms)
        curr_speedup = speedup(curr, name, args.min_ms)
        if base_speedup is None or curr_speedup is None:
            continue
        checked += 1
        floor = base_speedup * (1.0 - args.threshold)
        status = "ok"
        if curr_speedup < floor:
            status = "REGRESSION"
            regressions.append(name)
        print(
            f"{status:>10}  {name:<40} baseline {base_speedup:6.2f}x"
            f"  current {curr_speedup:6.2f}x  (floor {floor:.2f}x)"
        )

    print(
        f"\nchecked {checked} rows, {len(regressions)} regression(s), "
        f"{len(missing_in_current)} missing, {len(missing_in_baseline)} new"
    )
    failed = False
    if regressions:
        for name in regressions:
            print(f"  regressed: {name}", file=sys.stderr)
        failed = True
    if missing_in_current:
        for name in missing_in_current:
            print(f"  missing from current run: {name}", file=sys.stderr)
        if args.strict:
            failed = True
    if failed:
        return 1
    if checked == 0:
        print(
            "warning: no comparable rows (all skipped) — treating as pass",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
