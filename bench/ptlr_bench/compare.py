#!/usr/bin/env python3
"""Compare two sets of ptlr_bench results under BENCHMARK.json's bounds.

    python3 bench/ptlr_bench/compare.py A/ B/

A and B are directories of result files (ptlr_bench --out, or run.py's
<build>/runs/); trace files are ignored. For each (end-to-end metric,
workload) it prints both sets' median and quartiles of the per-invocation
medians, the change of B against A, and a verdict:

  ok          B is not worse than A by more than the metric's bound
  regressed   B's median is worse than A's by more than the bound
  unresolved  a set's quartile spread (IQR / median) is wider than the
              bound, unless every B run beats every A run

Exits 1 when any pair is regressed or unresolved, or any run failed.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: [result, ...]} of every result file under `directory`."""
    out = {}
    for dirpath, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json") or ".trace" in name:
                continue
            with open(os.path.join(dirpath, name)) as f:
                doc = json.load(f)
            if doc.get("bench") == "ptlr_bench":
                out.setdefault(doc["workload"], []).append(doc)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, bound, lower_better):
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if lower_better else -1.0
    worse = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        beats = all(sign * (x - y) < 0 for x in b for y in a)
        return worse, ("ok" if beats else "unresolved")
    return worse, ("regressed" if worse > bound else "ok")


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load(d) for d in sys.argv[1:]]
    bad = 0
    for name, runs in zip("AB", sets):
        for w, docs in sorted(runs.items()):
            for d in docs:
                if not d.get("correct"):
                    print(f"{name}: {w} seed {d.get('seed')} failed: "
                          f"{d.get('failures')}")
                    bad += 1

    fmt = "{:<12} {:<10} {:>30} {:>30} {:>8} {:>6}  {}"
    print(fmt.format("metric", "workload", "A median [q1, q3]",
                     "B median [q1, q3]", "worse", "bound", "verdict"))
    for m in spec["end_to_end"]:
        for w in [x["name"] for x in spec["workloads"]]:
            a, b = ([d["metrics"][m["name"]]["median"]
                     for d in s.get(w, []) if m["name"] in d["metrics"]]
                    for s in sets)
            if not a or not b:
                print(fmt.format(m["name"], w, "-", "-", "-", "-", "missing"))
                bad += 1
                continue
            worse, v = verdict(a, b, m["bound"], m["better"] == "lower")
            cell = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
            print(fmt.format(m["name"], w, cell(quartiles(a)),
                             cell(quartiles(b)), f"{100 * worse:+.1f}%",
                             f"{100 * m['bound']:.0f}%", v))
            bad += v != "ok"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
