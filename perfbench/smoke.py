#!/usr/bin/env python3
"""Smoke test of the benchmark, in well under a minute.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes, untraced and traced, and checks that each
run passes its result checks and prints every metric BENCHMARK.json names,
with its unit.  Then copies BENCHMARK.json and perfbench/ alone into a
scratch directory and checks that the benchmark fails there without printing
a result, since there is no walklab source to build from.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads as W


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(stdout: str, expected_units: dict) -> list[str]:
    result = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected_units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected_units))}")
    for name, unit in expected_units.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: {got}")
    return problems


def main() -> int:
    with open(os.path.join(W.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    failures = 0
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            done = run(W.ROOT, workload, trace)
            problems = ([f"exit {done.returncode}: {done.stderr[-1500:]}"] if done.returncode
                        else check_result(done.stdout, units[trace]))
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else problems}")

    bare = os.path.join(W.HERE, "out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(W.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(W.ROOT, "BENCHMARK.json"), bare)
    try:
        done = run(bare, "walk", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{") for line in done.stdout.splitlines())
    ok = done.returncode != 0 and not printed_result
    failures += not ok
    print(f"without sources: exit {done.returncode}, "
          f"{'no result' if not printed_result else 'printed a result'}: {'ok' if ok else 'FAIL'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
