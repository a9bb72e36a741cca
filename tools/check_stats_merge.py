#!/usr/bin/env python3
"""Validate a ddsim_router cluster-stats dump against its own shards.

The router's --stats file has the shape

    {"workers_live": N,
     "aggregate": { ...ServiceStats JSON... },
     "shards": [{"endpoint": "...", "stats": { ...ServiceStats JSON... }}],
     "merge_rules": {"workers": "sum", ..., "cache.hits": "sum", ...}}

where `aggregate` is produced by serve::mergeStats folding the per-shard
snapshots, and `merge_rules` maps every JSON path of a snapshot to its rule.
Both come from serve::visitFields, the one field table of ServiceStats, so
this script keeps no field list of its own. It re-derives the aggregate in
Python by those rules and fails loudly when the C++ merge disagrees:

  * sum: the exact sum over shards (within float rounding for doubles);
  * max: the max over shards;
  * concat: the shards' lists appended in shard order;
  * histogram: bucket counts sum bound by bound, `sum` sums, `max` takes
    the max;
  * derived: never merged, so in the aggregate and in every shard it must
    equal its definition:
      - jobs_per_second = finished jobs / elapsed_seconds;
      - <name>_mean_seconds = <name>_histogram sum / count;
      - <name>_pNN_seconds = <name>_histogram pNN, and
        <name>_max_seconds = <name>_histogram max;
    and inside every histogram, count = the sum of the bucket counts and
    each pNN = the quantile interpolated from the buckets.

An aggregate key without a rule, or a rule naming no key, is a mismatch.

Exit code 0 = aggregate consistent, 1 = at least one mismatch, 2 = bad
input (missing file, malformed JSON, missing keys).
"""

import argparse
import json
import re
import sys

# The job statuses whose counts add up to the finished jobs that
# jobs_per_second divides by elapsed time (ServiceStats::derive).
FINISHED = ["completed", "cached", "timed_out", "expired", "cancelled",
            "resource_exhausted", "failed"]

# obs::Histogram's bucket layout: bucket i has upper bound
# FIRST_BOUND * GROWTH^i, built by repeated multiplication as in C++; one
# overflow bucket follows with bound "+inf".
BUCKETS = 64
FIRST_BOUND = 1e-6
GROWTH = 1.5
QUANTILES = {"p50": 0.50, "p95": 0.95, "p99": 0.99}

# ServiceStats::toJson streams doubles at the default ostream precision
# (6 significant digits), so every float in the dump carries ~1e-6
# relative rounding and sums across shards accumulate it. The float
# tolerance is therefore a merge-correctness gate, not a precision gate.
FLOAT_REL = 1e-4
FLOAT_ABS = 1e-6


class Mismatch(Exception):
    pass


def bucket_bounds():
    bounds = []
    bound = FIRST_BOUND
    for _ in range(BUCKETS):
        bounds.append(bound)
        bound *= GROWTH
    return bounds


BOUNDS = bucket_bounds()


def approx_equal(a, b, rel=FLOAT_REL, abs_tol=FLOAT_ABS):
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def check_sum(errors, path, aggregate_value, shard_values):
    expected = sum(shard_values)
    if isinstance(aggregate_value, int) and \
            all(isinstance(v, int) for v in shard_values):
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


def check_concat(errors, path, aggregate_value, shard_values):
    expected = [x for values in shard_values for x in values]
    if aggregate_value != expected:
        errors.append(
            f"{path}: aggregate={aggregate_value!r} but shards appended="
            f"{expected!r}")


def check_histogram(errors, path, aggregate_hist, shard_hists):
    check_sum(errors, f"{path}.sum", aggregate_hist["sum"],
              [h["sum"] for h in shard_hists])
    check_max(errors, f"{path}.max", aggregate_hist["max"],
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
            f"{path}.buckets: bound sets differ — aggregate has "
            f"{sorted(agg_buckets, key=str)} vs shards "
            f"{sorted(merged, key=str)}")
        return
    for le in sorted(agg_buckets, key=str):
        if agg_buckets[le] != merged[le]:
            errors.append(
                f"{path}.buckets[le={le}]: aggregate={agg_buckets[le]} "
                f"but shard sum={merged[le]}")


def bucket_index(le):
    """Layout index of a printed bucket bound (6 significant digits)."""
    if le == "+inf":
        return BUCKETS
    return min(range(BUCKETS), key=lambda i: abs(BOUNDS[i] - le))


def quantile(counts, q, max_value):
    """obs::Histogram's estimator: walk the cumulative counts, interpolate
    linearly inside the selected bucket, clamp to the observed maximum."""
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        before = cumulative
        cumulative += c
        if cumulative >= target:
            if i >= BUCKETS:
                return max_value
            lower = 0.0 if i == 0 else BOUNDS[i - 1]
            upper = BOUNDS[i]
            fraction = min(max((target - before) / c, 0.0), 1.0)
            return min(lower + fraction * (upper - lower), max_value)
    return max_value


def check_histogram_derived(errors, path, hist):
    counts = [0] * (BUCKETS + 1)
    for b in hist["buckets"]:
        counts[bucket_index(b["le"])] += b["count"]
    if hist["count"] != sum(counts):
        errors.append(f"{path}.count: {hist['count']!r} but its buckets "
                      f"hold {sum(counts)}")
    for name, q in QUANTILES.items():
        expected = quantile(counts, q, hist["max"])
        if not approx_equal(hist[name], expected):
            errors.append(f"{path}.{name}: {hist[name]!r} but its buckets "
                          f"give {expected!r}")


def derived_value(stats, key):
    """The definition of derived field `key`, evaluated on `stats`."""
    if key == "jobs_per_second":
        elapsed = stats["elapsed_seconds"]
        finished = sum(stats[s] for s in FINISHED)
        return finished / elapsed if elapsed > 0 else 0.0
    m = re.fullmatch(r"(.+)_mean_seconds", key)
    if m:
        hist = stats[f"{m.group(1)}_histogram"]
        return hist["sum"] / hist["count"] if hist["count"] > 0 else 0.0
    m = re.fullmatch(r"(.+)_(p50|p95|p99|max)_seconds", key)
    if m:
        return stats[f"{m.group(1)}_histogram"][m.group(2)]
    raise Mismatch(f"derived field {key!r} has no known definition")


def flatten(stats, rules):
    """JSON path -> value; a nested object without a rule of its own is a
    group whose keys become `group.key`."""
    flat = {}
    for key, value in stats.items():
        if isinstance(value, dict) and key not in rules:
            for sub, sub_value in value.items():
                flat[f"{key}.{sub}"] = sub_value
        else:
            flat[key] = value
    return flat


def check_derived(errors, where, stats, rules):
    flat = flatten(stats, rules)
    for path, rule in rules.items():
        if rule == "histogram":
            check_histogram_derived(errors, f"{where}.{path}", flat[path])
        elif rule == "derived":
            expected = derived_value(stats, path)
            if not approx_equal(flat[path], expected):
                errors.append(f"{where}.{path}: {flat[path]!r} but its "
                              f"definition gives {expected!r}")


def validate(cluster):
    for key in ("workers_live", "aggregate", "shards", "merge_rules"):
        if key not in cluster:
            raise Mismatch(f"top-level key {key!r} missing from dump")

    rules = cluster["merge_rules"]
    aggregate = flatten(cluster["aggregate"], rules)
    shards = [flatten(s["stats"], rules) for s in cluster["shards"]]
    if not shards:
        raise Mismatch("dump has no shards to merge")

    errors = []
    for path in sorted(set(aggregate) - set(rules)):
        errors.append(f"{path}: aggregate key has no merge rule")
    for path in sorted(set(rules) - set(aggregate)):
        errors.append(f"{path}: merge rule names no aggregate key")

    checks = {"sum": check_sum, "max": check_max, "concat": check_concat,
              "histogram": check_histogram}
    for path, rule in rules.items():
        if path not in aggregate or rule == "derived":
            continue
        if rule not in checks:
            errors.append(f"{path}: unknown merge rule {rule!r}")
            continue
        checks[rule](errors, path, aggregate[path],
                     [s[path] for s in shards])

    check_derived(errors, "aggregate", cluster["aggregate"], rules)
    for i, shard in enumerate(cluster["shards"]):
        check_derived(errors, f"shards[{i}]", shard["stats"], rules)
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
