#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
prints, per metric, the median, the quartiles and the quartile spread as
a share of the median (the figure BENCHMARK.json bounds hold against).

Run from the repository root:

    python3 tpbench/steady.py --seeds 1-10 --workloads paper_sweeps,field_100k
    python3 tpbench/steady.py --seeds 1-5 --trace 1

Each run's result line is appended to tpbench/runs/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    log = open(os.path.join(ROOT, "tpbench", "runs", "steady.jsonl"), "a")
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", args.seconds, "--trace", args.trace]
            env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                  "result": result}) + "\n")
            log.flush()
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT ({result['failed']} failed)")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"{workload}: {name:<32} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
