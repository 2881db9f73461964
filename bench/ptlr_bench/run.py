#!/usr/bin/env python3
"""Build ptlr_bench from this source tree and run one workload.

    python3 bench/ptlr_bench/run.py --workload band_auto --seed 42 \
        --seconds 12 --trace 0

Run from the repository root. Builds into $CARGO_TARGET_DIR (default
.bench_build) with CMake, runs one invocation of the binary, and prints as
its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics, each {"value": median, "unit": ...}.
The full result (min/max/reps, manifest, notes) and any Chrome traces stay
in <build>/runs/. Exits non-zero when the build fails, a check fails or a
metric is missing.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 165  # the binary's own watchdog ends a stuck rep at 150 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    quiet["env"] = dict(os.environ, TMPDIR=tmp)
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                    "ptlr_bench"], check=True, **quiet)
    return os.path.join(build_dir, "ptlr_bench")


def run(binary, args, out):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--traced")
    # Own session, so a timeout can stop the binary and all it started.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"ptlr_bench exceeded {TIMEOUT_S} s")
        return -1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        p.error(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    # Chrome traces run to tens of MB: keep only the newest per workload.
    for name in os.listdir(runs):
        if name.startswith(args.workload + "-") and ".trace" in name:
            os.remove(os.path.join(runs, name))
    out = os.path.join(runs, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    code = run(binary, args, out)
    if not os.path.exists(out):
        log(f"ptlr_bench exited {code} without a result")
        return 1
    with open(out) as f:
        result = json.load(f)

    metrics = {}
    for m in wanted:
        row = result["metrics"].get(m["name"])
        if row is None or not isinstance(row.get("median"), (int, float)):
            log(f"metric {m['name']} missing from {out}")
            code = code or 1
            continue
        metrics[m["name"]] = {"value": row["median"], "unit": m["unit"]}
    for failure in result.get("failures", []):
        log("FAILED", failure)
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
