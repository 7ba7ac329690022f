#!/usr/bin/env python3
"""Compare two sets of servebench results under the benchmark's own bounds.

    python3 servebench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds result files written by servebench/run.py (searched
recursively; .bench_results/ is the default location). For every
(workload, trace mode, metric) the comparator prints each side's median and
quartiles, the ratio new/base with its base, and a verdict:

  improved    the new median is better, the new side wins at least 9 in 10
              seed-paired runs, and the medians differ by more than the
              base side's own quartile spread
  unchanged   neither improved nor worse
  worse       the new median is worse than the base by more than the bound
  unresolved  a side's quartile spread (as a share of its median) is wider
              than the bound, unless every new run beats every base run

End-to-end metrics use their BENCHMARK.json bounds; per-layer metrics have
none and get no verdict. Results whose environment fingerprints differ are
refused (exit 2). The exit code is 1 when any metric is worse, else 0.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

WIN_SHARE = 0.9


class FingerprintMismatch(Exception):
    pass


def load_results(directory):
    """All result files under `directory`, as dicts."""
    results = []
    for dirpath, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json") or name.endswith(".spans.json"):
                continue
            with open(os.path.join(dirpath, name)) as f:
                record = json.load(f)
            if {"workload", "trace", "metrics", "fingerprint"} <= set(record):
                results.append(record)
    return results


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """Verdict for one metric. `base` and `new` map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    b_vals, n_vals = list(base.values()), list(new.values())
    b_q1, b_med, b_q3 = quartiles(b_vals)
    _, n_med, _ = quartiles(n_vals)
    all_better = all(sign * (n - b) < 0 for n in n_vals for b in b_vals)
    if max(spread(b_vals), spread(n_vals)) > bound:
        return "improved" if all_better else "unresolved"
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        return "worse"
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    if (seeds and wins >= WIN_SHARE * len(seeds)
            and sign * (n_med - b_med) < 0
            and abs(n_med - b_med) > (b_q3 - b_q1)):
        return "improved"
    return "unchanged"


def group(results):
    """(workload, trace) -> metric -> seed -> value, plus fingerprints."""
    values = defaultdict(lambda: defaultdict(dict))
    prints = defaultdict(list)
    for r in results:
        key = (r["workload"], int(r["trace"]))
        prints[key].append(r["fingerprint"])
        for name, m in r["metrics"].items():
            values[key][name][r["seed"]] = m["value"]
    return values, prints


def compare(base_results, new_results, spec):
    """Rows of (workload, trace, metric, unit, base stats, new stats, ratio,
    verdict). Raises FingerprintMismatch when the environments differ."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_prints = group(base_results)
    new, new_prints = group(new_results)
    rows = []
    for key in sorted(set(base) & set(new)):
        prints = base_prints[key] + new_prints[key]
        if any(p != prints[0] for p in prints):
            raise FingerprintMismatch(
                "%s trace %d: fingerprints differ: %s" % (
                    key[0], key[1],
                    sorted({json.dumps(p, sort_keys=True) for p in prints})))
        for metric in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][metric], new[key][metric]
            b_stats, n_stats = quartiles(list(b.values())), quartiles(list(n.values()))
            ratio = n_stats[1] / b_stats[1] if b_stats[1] else float("nan")
            spec_m = bounds.get(metric)
            v = (verdict(b, n, spec_m["better"], spec_m["bound"])
                 if spec_m else "-")
            rows.append((key[0], key[1], metric, units.get(metric, ""),
                         b_stats, n_stats, ratio, v))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        spec = json.load(f)
    try:
        rows = compare(load_results(args.base), load_results(args.new), spec)
    except FingerprintMismatch as e:
        print("compare: refusing to compare: %s" % e, file=sys.stderr)
        return 2
    if not rows:
        print("compare: no (workload, mode) present on both sides",
              file=sys.stderr)
        return 2
    print("%-15s %-2s %-32s %-8s %32s %32s %7s  %s" % (
        "workload", "tr", "metric", "unit", "base q1 / median / q3",
        "new q1 / median / q3", "new/base", "verdict"))
    for w, t, metric, unit, b, n, ratio, v in rows:
        print("%-15s %-2d %-32s %-8s %10.4g %10.4g %10.4g %10.4g %10.4g "
              "%10.4g %7.3f  %s" % (w, t, metric, unit, b[0], b[1], b[2],
                                    n[0], n[1], n[2], ratio, v))
    return 1 if any(r[7] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
