#!/usr/bin/env python3
"""Check BENCHMARK.json against its schema and against `ptlr_bench --list`.

    python3 bench/ptlr_bench/check_benchmark.py [--bench .bench_build/ptlr_bench]

Schema: exact key sets, name and unit syntax, 2-8 workloads, 1-16
end-to-end and 1-128 per-layer metrics, bounds in (0, 0.25] with setup_s
holding the largest, a command that names nothing outside `paths`.
Catalogue: the binary lists exactly the workloads and metrics (name, unit,
direction) of BENCHMARK.json, and every layer metric's "moves" entries
name an existing end-to-end metric and workloads. Exits 1 on any error.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def schema_errors(spec, raw_size):
    err = []
    if raw_size > 64 * 1024:
        err.append("BENCHMARK.json is larger than 64 KiB")
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        return err + [f"top-level keys {sorted(spec)} != {sorted(keys)}"]

    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        err.append("command must be a list of 1-32 strings of <= 200 chars")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        err.append("paths must list 1-16 directories")
        paths = []
    for p in paths:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            err.append(f"bad path {p!r}")
    for c in cmd:
        if c.startswith("/") or ".." in c.split("/"):
            err.append(f"command argument {c!r} leaves the repository")
        elif "/" in c and not any(c == p or c.startswith(p.rstrip("/") + "/")
                                  for p in paths):
            err.append(f"command argument {c!r} is outside paths")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        err.append("run_seconds must be a whole number in 1..60")

    sections = {"workloads": ({"name", "why"}, 2, 8),
                "end_to_end": ({"name", "unit", "better", "bound"}, 1, 16),
                "per_layer": ({"name", "unit", "better"}, 1, 128)}
    seen = set()
    for sec, (fields, lo, hi) in sections.items():
        items = spec[sec]
        if not lo <= len(items) <= hi:
            err.append(f"{sec}: {len(items)} entries, want {lo}-{hi}")
        for it in items:
            if set(it) != fields:
                err.append(f"{sec}: {it.get('name')} has keys {sorted(it)}")
                continue
            n = it["name"]
            if not NAME.match(n):
                err.append(f"{sec}: bad name {n!r}")
            if n in seen:
                err.append(f"name {n!r} used twice")
            seen.add(n)
            if "why" in it and (len(it["why"]) > 200 or "\n" in it["why"]):
                err.append(f"workload {n}: why must be one line <= 200 chars")
            if "unit" in it and not UNIT.match(it["unit"]):
                err.append(f"{n}: bad unit {it['unit']!r}")
            if "better" in it and it["better"] not in ("higher", "lower"):
                err.append(f"{n}: better must be higher or lower")
            if "bound" in it and not (isinstance(it["bound"], (int, float))
                                      and 0 < it["bound"] <= 0.25):
                err.append(f"{n}: bound must be in (0, 0.25]")

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" or setup.get("better") != "lower":
        err.append("end_to_end must hold setup_s in s, better lower")
    elif any(m.get("bound", 0) > setup["bound"] for m in e2e.values()):
        err.append("setup_s must have the largest bound")
    return err


def catalogue_errors(spec, cat):
    err = []
    want_w = [w["name"] for w in spec["workloads"]]
    if sorted(cat["workloads"]) != sorted(want_w):
        err.append(f"workloads: binary {cat['workloads']} != {want_w}")
    for sec in ("end_to_end", "per_layer"):
        mine = {(m["name"], m["unit"], m["better"]) for m in spec[sec]}
        theirs = {(m["name"], m["unit"], m["better"]) for m in cat[sec]}
        for m in sorted(theirs - mine):
            err.append(f"{sec}: binary lists {m}, BENCHMARK.json does not")
        for m in sorted(mine - theirs):
            err.append(f"{sec}: BENCHMARK.json lists {m}, binary does not")
    e2e = {m["name"] for m in spec["end_to_end"]}
    for m in cat["per_layer"]:
        if not m["moves"]:
            err.append(f"{m['name']}: no moves entry")
        for mv in m["moves"]:
            if mv["metric"] not in e2e:
                err.append(f"{m['name']} moves unknown metric {mv['metric']}")
            for w in mv["workloads"]:
                if w not in want_w:
                    err.append(f"{m['name']} moves on unknown workload {w}")
    return err


def main():
    root = os.path.dirname(os.path.dirname(HERE))
    build = os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--bench", default=os.path.join(build, "ptlr_bench"))
    p.add_argument("--benchmark-json",
                   default=os.path.join(root, "BENCHMARK.json"))
    args = p.parse_args()

    with open(args.benchmark_json, "rb") as f:
        raw = f.read()
    spec = json.loads(raw)
    err = schema_errors(spec, len(raw))
    if not err:
        listed = subprocess.run([args.bench, "--list"], check=True,
                                capture_output=True, text=True).stdout
        err = catalogue_errors(spec, json.loads(listed))
    for e in err:
        print("bench_schema:", e)
    if err:
        return 1
    print(f"bench_schema: OK ({len(spec['workloads'])} workloads, "
          f"{len(spec['end_to_end'])} end-to-end, "
          f"{len(spec['per_layer'])} per-layer metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
