#!/usr/bin/env python3
"""Validate a ddsim_router cluster-stats dump against its own shards.

The router's --stats file has the shape

    {"workers_live": N,
     "aggregate": { ...ServiceStats JSON... },
     "shards": [{"endpoint": "...", "stats": { ...ServiceStats JSON... }}]}

where `aggregate` is produced by serve::mergeStats folding the per-shard
snapshots. This script re-derives the aggregate element-wise in Python and
fails loudly when the C++ merge and the naive merge disagree:

  * counters (submitted, completed, cache.hits, spill.appended, ...) must
    be the exact sum across shards;
  * max fields (elapsed_seconds, queue_latency_max_seconds, histogram
    max) must be the max across shards;
  * histogram bucket counts must sum bound-by-bound, and count/sum must
    sum;
  * derived figures (jobs_per_second, means, quantiles) are NOT re-derived
    exactly — quantiles are interpolated from merged buckets — but they are
    sanity-bounded: a quantile must lie within [0, histogram max] and the
    mean within [0, max].

Exit code 0 = aggregate consistent, 1 = at least one mismatch, 2 = bad
input (missing file, malformed JSON, missing keys).
"""

import argparse
import json
import sys

# Integer counter fields at the top level of ServiceStats JSON: the
# aggregate must be the exact sum over shards.
TOP_SUM_FIELDS = [
    "workers",
    "queue_depth",
    "submitted",
    "rejected",
    "coalesced",
    "simulations_run",
    "completed",
    "cached",
    "timed_out",
    "expired",
    "cancelled",
    "resource_exhausted",
    "failed",
]

# Float fields that sum.
TOP_SUM_FLOAT_FIELDS = ["exec_seconds_total"]

# Fields where the merge takes the maximum across shards.
TOP_MAX_FIELDS = ["elapsed_seconds", "queue_latency_max_seconds"]

# Nested counter objects: every key inside sums (backoff_seconds_total is
# a double but still sums).
NESTED_SUM_OBJECTS = ["cache", "degradation", "retry", "spill"]

HISTOGRAMS = ["queue_latency_histogram", "exec_histogram",
              "degradation_per_job_histogram"]

# Derived fields we only sanity-bound, never compare exactly.
DERIVED_FIELDS = [
    "jobs_per_second",
    "queue_latency_mean_seconds",
    "queue_latency_p50_seconds",
    "queue_latency_p95_seconds",
    "queue_latency_p99_seconds",
    "exec_p50_seconds",
    "exec_p95_seconds",
    "exec_p99_seconds",
]

EPS = 1e-9

# ServiceStats::toJson streams doubles at the default ostream precision
# (6 significant digits), so every float in the dump carries ~1e-6
# relative rounding and sums across shards accumulate it. The float
# tolerance is therefore a merge-correctness gate, not a precision gate.
FLOAT_REL = 1e-4
FLOAT_ABS = 1e-6


class Mismatch(Exception):
    pass


def approx_equal(a, b, rel=FLOAT_REL, abs_tol=FLOAT_ABS):
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def check_sum(errors, path, aggregate_value, shard_values, integral):
    expected = sum(shard_values)
    if integral:
        ok = aggregate_value == expected
    else:
        ok = approx_equal(aggregate_value, expected)
    if not ok:
        errors.append(
            f"{path}: aggregate={aggregate_value!r} but shard sum="
            f"{expected!r} (shards: {shard_values!r})")


def check_max(errors, path, aggregate_value, shard_values):
    expected = max(shard_values) if shard_values else 0.0
    if not approx_equal(aggregate_value, expected):
        errors.append(
            f"{path}: aggregate={aggregate_value!r} but shard max="
            f"{expected!r} (shards: {shard_values!r})")


def check_histogram(errors, name, aggregate_hist, shard_hists):
    check_sum(errors, f"{name}.count", aggregate_hist["count"],
              [h["count"] for h in shard_hists], integral=True)
    check_sum(errors, f"{name}.sum", aggregate_hist["sum"],
              [h["sum"] for h in shard_hists], integral=False)
    check_max(errors, f"{name}.max", aggregate_hist["max"],
              [h["max"] for h in shard_hists])

    # Bucket counts must sum bound-by-bound. Shards share one layout (same
    # build), but be defensive: key by the `le` bound, not by position.
    agg_buckets = {b["le"]: b["count"] for b in aggregate_hist["buckets"]}
    merged = {}
    for h in shard_hists:
        for b in h["buckets"]:
            merged[b["le"]] = merged.get(b["le"], 0) + b["count"]
    if set(agg_buckets) != set(merged):
        errors.append(
            f"{name}.buckets: bound sets differ — aggregate has "
            f"{sorted(agg_buckets)} vs shards {sorted(merged)}")
        return
    for le in sorted(agg_buckets):
        if agg_buckets[le] != merged[le]:
            errors.append(
                f"{name}.buckets[le={le}]: aggregate={agg_buckets[le]} "
                f"but shard sum={merged[le]}")


def check_derived_bounds(errors, aggregate):
    hist_max = {
        "queue_latency": aggregate["queue_latency_histogram"]["max"],
        "exec": aggregate["exec_histogram"]["max"],
    }
    for field in DERIVED_FIELDS:
        value = aggregate[field]
        if value < -EPS:
            errors.append(f"aggregate.{field}: negative ({value!r})")
        if field.startswith("queue_latency_p") or field == \
                "queue_latency_mean_seconds":
            # Quantiles are interpolated inside a bucket, so they can
            # overshoot the exact max by up to one bucket width; only flag
            # the clearly-broken case where there were observations but the
            # quantile is wildly above everything recorded.
            count = aggregate["queue_latency_histogram"]["count"]
            if count > 0 and hist_max["queue_latency"] > 0 and \
                    value > 100.0 * hist_max["queue_latency"]:
                errors.append(
                    f"aggregate.{field}: {value!r} is implausibly above "
                    f"histogram max {hist_max['queue_latency']!r}")


def validate(cluster):
    for key in ("workers_live", "aggregate", "shards"):
        if key not in cluster:
            raise Mismatch(f"top-level key {key!r} missing from dump")

    aggregate = cluster["aggregate"]
    shards = [s["stats"] for s in cluster["shards"]]
    if not shards:
        raise Mismatch("dump has no shards to merge")

    errors = []

    for field in TOP_SUM_FIELDS:
        check_sum(errors, field, aggregate[field],
                  [s[field] for s in shards], integral=True)
    for field in TOP_SUM_FLOAT_FIELDS:
        check_sum(errors, field, aggregate[field],
                  [s[field] for s in shards], integral=False)
    for field in TOP_MAX_FIELDS:
        check_max(errors, field, aggregate[field],
                  [s[field] for s in shards])

    for obj in NESTED_SUM_OBJECTS:
        agg_obj = aggregate[obj]
        keys = set(agg_obj)
        for s in shards:
            if set(s[obj]) != keys:
                errors.append(
                    f"{obj}: shard key set {sorted(s[obj])} differs from "
                    f"aggregate key set {sorted(keys)}")
        for key in sorted(keys):
            values = [s[obj].get(key, 0) for s in shards]
            integral = all(isinstance(v, int) for v in values) and \
                isinstance(agg_obj[key], int)
            check_sum(errors, f"{obj}.{key}", agg_obj[key], values,
                      integral=integral)

    for name in HISTOGRAMS:
        check_histogram(errors, name, aggregate[name],
                        [s[name] for s in shards])

    check_derived_bounds(errors, aggregate)
    return errors


def main():
    parser = argparse.ArgumentParser(
        description="Check a ddsim_router cluster stats dump for "
                    "aggregate/shard consistency.")
    parser.add_argument("dump", help="cluster stats JSON from "
                                     "ddsim_router --stats")
    args = parser.parse_args()

    try:
        with open(args.dump, "r", encoding="utf-8") as fh:
            cluster = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_stats_merge: cannot load {args.dump}: {exc}",
              file=sys.stderr)
        return 2

    try:
        errors = validate(cluster)
    except (Mismatch, KeyError, TypeError) as exc:
        print(f"check_stats_merge: malformed dump: {exc!r}",
              file=sys.stderr)
        return 2

    shard_count = len(cluster["shards"])
    if errors:
        print(f"check_stats_merge: FAIL — {len(errors)} mismatch(es) "
              f"across {shard_count} shard(s):")
        for e in errors:
            print(f"  - {e}")
        return 1

    print(f"check_stats_merge: OK — aggregate matches the element-wise "
          f"merge of {shard_count} shard(s) "
          f"(submitted={cluster['aggregate']['submitted']}, "
          f"simulations_run={cluster['aggregate']['simulations_run']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
