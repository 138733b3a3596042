#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one point of the BENCH trajectory.

    python3 perfbench/trajectory.py --runs 10 --out perfbench/BENCH_1.json

For each seed it runs every workload untraced (workloads interleaved, so
drift in machine load hits all of them alike), then one traced run per
workload.  Per end-to-end metric it reports the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  Later performance changes quote their
deltas against these medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads as W

RUN = os.path.join(W.HERE, "run.py")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=W.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = os.path.join(W.HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(record, encoding="utf-8") as fh:
        result["record"] = json.load(fh)
    return result


def stats(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(W.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = W.WORKLOADS
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result = bench(name, seed, seconds, 0)
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.6g}" for k, m in result["metrics"].items())
                + f"; failed {result['failed']}/{result['attempted']}", file=sys.stderr)

    doc = {"run_seconds": seconds, "seeds": seeds,
           "env": runs[names[0]][0]["record"]["env"], "workloads": {}}
    for name in names:
        entry = {
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "end_to_end": {m["name"]: stats([r["metrics"][m["name"]]["value"] for r in runs[name]],
                                            m["bound"]) | {"unit": m["unit"]}
                           for m in spec["end_to_end"]},
            "runs": [{k: m["value"] for k, m in r["metrics"].items()} for r in runs[name]],
        }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        traced = bench(name, seeds[0], seconds, 1)
        entry["per_layer"] = traced["metrics"]
        entry["layer_shares"] = traced["record"]["detail"]["layer_shares"]
        doc["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:8s} {metric:20s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
