#!/usr/bin/env python3
"""Compares benchmark records of two commits; see perfbench/README.md.

    python3 perfbench/compare.py BASE.record.json ... --against NEW.record.json ...

Records are the files run.py leaves in .bench_out/. For every workload and
metric the script prints the median of each side and the change. Records
whose host or build fingerprints differ (CPU model, thread count, compiler,
build type) are not comparable: the script says so and exits with status 2.
"""

import json
import statistics
import sys

HOST_FIELDS = ("cpu_model", "nproc", "compiler", "build_type")


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    return records


def medians(records):
    """{(workload, trace): {metric: (median, unit, count)}}"""
    values = {}
    for r in records:
        key = (r["workload"], r["trace"])
        for name, m in r["result"]["metrics"].items():
            values.setdefault(key, {}).setdefault(name, (m["unit"], []))[1].append(
                m["value"])
    return {key: {name: (statistics.median(v), unit, len(v))
                  for name, (unit, v) in metrics.items()}
            for key, metrics in values.items()}


def main(argv):
    if "--against" not in argv:
        print(__doc__, file=sys.stderr)
        return 1
    split = argv.index("--against")
    base, new = load(argv[:split]), load(argv[split + 1:])
    if not base or not new:
        print("compare.py: need records on both sides", file=sys.stderr)
        return 1

    mismatched = []
    for field in HOST_FIELDS:
        seen = {str(r["fingerprint"].get(field)) for r in base + new}
        if len(seen) > 1:
            mismatched.append("%s differs: %s" % (field, " vs ".join(sorted(seen))))

    base_m, new_m = medians(base), medians(new)
    for key in sorted(set(base_m) & set(new_m)):
        print("== %s (trace %d)" % key)
        for name, (b, unit, nb) in base_m[key].items():
            if name not in new_m[key]:
                continue
            n, _, nn = new_m[key][name]
            change = "%+.1f%%" % ((n / b - 1) * 100) if b else "n/a"
            print("  %-24s %14.6g -> %-14.6g %-9s %8s  (n=%d/%d)"
                  % (name, b, n, unit, change, nb, nn))
    if mismatched:
        print("NOT COMPARABLE: " + "; ".join(mismatched))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
