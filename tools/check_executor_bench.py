#!/usr/bin/env python3
"""Gate the executor benchmark (bench/bench_executor.cpp).

Reads a BENCH_executor.json artifact (the work-stealing engine at 1 and 2
workers) and fails when the run-on-finisher release path stops firing on
the shapes it owns:

  * serial_chain   — zero available parallelism. Every hop but the first
    of each kInlineChainMax + 1 = 257 segment must run inline on the
    finishing worker (inline_runs == ntasks - ceil(ntasks / 257)) and wake
    nobody (wakeups == 0), at every worker count. From 50,000 tasks up,
    the 2-worker time must also stay at or above --min-x of the 1-worker
    time (default 0.95x: parity minus noise), or the idle second worker is
    costing the chain. Shorter chains are reported only: there a 2-worker
    run pays a fixed ~20 us to start and join its second thread, which
    reads as 0.82-0.99x at 10,000 tasks (~0.3 ms) on a quiet 4-core host.
  * forkjoin_empty — the last task of each stage releases the stage's
    barrier as its sole successor and runs it inline, so at 2 workers
    inline_runs == stages (ntasks / 16: 15 forked tasks plus the barrier
    per stage).

The counts are exact. The time ratio is deliberately loose because CI
runners are shared. forkjoin_empty's 2-worker/1-worker time ratio and the
independent_* shapes are reported, not gated: nothing engine-independent
is left to compare them with.

Usage:
  check_executor_bench.py BENCH_executor.json [--min-x 0.95]

Exits 0 when every gated point holds, 1 with a diagnostic otherwise — CI
runs it in the bench-smoke job right after the benchmark.
"""
import argparse
import json
import sys

CHAIN_SEGMENT = 257  # kInlineChainMax + 1 (runtime/executor.cpp)
MIN_TIMED_CHAIN = 50000  # shorter chains: thread start/join dominates
FORKJOIN_STAGE = 16  # fanout 15 + one barrier (bench/bench_executor.cpp)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("json_path")
    ap.add_argument("--min-x", type=float, default=0.95,
                    help="minimum 2-worker over 1-worker speedup on "
                         "serial_chain (default: %(default)s)")
    args = ap.parse_args()

    with open(args.json_path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = doc.get("results") or []
    speedups = doc.get("speedup_2w_over_1w") or []

    failures = []
    gated = 0

    def gate(point, ok, what):
        nonlocal gated
        gated += 1
        print(f"  [gate] {point}: {what} ({'ok' if ok else 'FAILED'})")
        if not ok:
            failures.append(f"{point}: {what}")

    for r in rows:
        shape, n, threads = r.get("shape"), r.get("ntasks"), r.get("threads")
        point = f"{shape} ntasks={n} threads={threads}"
        inline = r.get("inline_runs")
        if shape == "serial_chain":
            want = n - -(-n // CHAIN_SEGMENT)
            gate(point, inline == want, f"inline_runs {inline} == {want}")
            gate(point, r.get("wakeups") == 0,
                 f"wakeups {r.get('wakeups')} == 0")
        elif shape == "forkjoin_empty" and threads == 2:
            stages = n // FORKJOIN_STAGE
            gate(point, inline == stages, f"inline_runs {inline} == {stages}")

    for s in speedups:
        shape, x = s.get("shape"), s.get("x")
        point = f"{shape} ntasks={s.get('ntasks')}"
        if shape == "serial_chain" and s.get("ntasks") >= MIN_TIMED_CHAIN:
            gate(point, x >= args.min_x,
                 f"2w/1w = {x:.2f}x >= {args.min_x:.2f}x")
        else:
            print(f"  [info] {point}: 2w/1w = {x:.2f}x")

    shapes = {r.get("shape") for r in rows}
    if not {"serial_chain", "forkjoin_empty"} <= shapes or not speedups:
        print("FAILED: serial_chain/forkjoin_empty rows or the "
              "speedup_2w_over_1w section are missing", file=sys.stderr)
        return 1
    if failures:
        print("FAILED: executor release path regressed:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"OK: {gated} gated points hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
