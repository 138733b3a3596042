#!/usr/bin/env python3
"""walklab benchmark: one closed-loop client in one process, one op at a time.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 25 --trace 0

Workloads (NOTES.md says why each was chosen, and why `predict` is not one):
  walk     `walklab run` on six arena families plus one `amplify`, in process
  oracle   dense unitary, Schur eigenphases and dense evolution at the
           dimension cap, cross-checked against `engine.step` and `solve_alpha`

A run sets up (imports walklab from ./src, builds the arenas), then runs a
fixed number of whole passes over the workload's op list: as many as fit in
--seconds at the workload's nominal pass time, at least three (see
`pass_count`).  Every output is compared byte for byte with its first run,
and wall_s and site_updates_per_s take each op at its fastest pass (see
`fastest`).  Every op's result is checked against reference.json.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the named
workload's untraced passes, then one traced pass of every workload, and prints
the per-layer metrics: each layer metric is defined on the workload that
exercises it (engine kernels on the walk states; `step`, spectral and search
on the oracle arenas), so a traced run covers both.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  A fuller record (environment, op samples, layer shares, and
in traced runs the spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import spans
import workloads as W

BENCHMARK_JSON = os.path.join(W.ROOT, "BENCHMARK.json")
OUT = os.path.join(W.HERE, "out")
MIN_PASSES = 3
SETUP_SAMPLES = 3  # this process's set-up plus two fresh interpreters


# -- one op, one pass ------------------------------------------------------------


def execute(ctx, op, reference, records) -> None:
    """Run one op, check it, and append its record."""
    op_id = len(ctx.op_meta)
    ctx.op_meta.append((op.workload, op.key))
    ctx.tracer.op = op_id
    try:
        outcome = op.run(ctx)
        problems = outcome.problems + W.compare(outcome.observed, reference[op.workload][op.key],
                                                f"{op.workload}.{op.key}")
    except Exception:  # an op that raises is a failed op; the run goes on
        traceback.print_exc(file=sys.stderr)
        outcome, problems = None, ["raised"]
    finally:
        ctx.tracer.op = -1
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    records.append({"id": op_id, "workload": op.workload, "key": op.key,
                    "outcome": outcome, "problems": problems})


def run_pass(ctx, workload, reference, records) -> float:
    """One pass over the op list; returns the summed op latency."""
    first = len(records)
    for op in W.ops(ctx, workload):
        execute(ctx, op, reference, records)
    return sum(r["outcome"].latency for r in records[first:] if r["outcome"])


# -- set-up ---------------------------------------------------------------------


def timed_setup(workload_names, scale, seed, workdir):
    t0 = time.perf_counter()
    wl = W.import_walklab()
    ctx = W.Context(wl, scale, seed, workdir)
    for name in workload_names:
        W.setup(ctx, name)
    return ctx, time.perf_counter() - t0


def setup_probe(workload, scale, seed) -> float:
    """Set-up time in a fresh interpreter, so the import is timed cold each time."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
            "--scale", scale, "--seed", str(seed)]
    done = subprocess.run(argv, cwd=W.ROOT, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# -- metrics --------------------------------------------------------------------


def declared_units() -> tuple[dict, dict]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, never below the median."""
    xs = sorted(samples)
    rank = max(len(xs) - 11, (len(xs) - 1) // 2)
    return xs[rank], 100.0 * (rank + 1) / len(xs)


def pass_count(cfg, workload: str, seconds: float) -> int:
    """Passes to run: as many nominal passes as fit in `seconds`, at least
    MIN_PASSES.  The count never depends on the clock, so two commits take
    the same number of samples and op_tail_s is the same percentile on both."""
    return max(MIN_PASSES, int(seconds // cfg["pass_s"][workload]))


def fastest(records, attr: str = "latency") -> dict:
    """Per op key: the outcome with the smallest `attr` over the run's passes.

    The shared 2-vCPU VM this was tuned on has slow phases of several seconds,
    in which pure-Python code runs up to 1.8x slower.  They only ever add
    time, and a run's share of them varies, so each op's fastest pass is the
    figure that repeats from run to run.  It also drops the first, cold
    pass, where fresh allocations fault pages in.
    """
    best = {}
    for r in records:
        o = r["outcome"]
        if o and (r["key"] not in best or getattr(o, attr) < getattr(best[r["key"]], attr)):
            best[r["key"]] = o
    return best


def op_list_wall(records) -> float:
    """The op list's time, with each op at its fastest pass."""
    return sum(o.latency for o in fastest(records).values())


def end_to_end(records, passes, setup_samples) -> tuple[dict, dict]:
    latencies = [r["outcome"].latency for r in records if r["outcome"]]
    evolve = fastest(records, "sites_s").values()
    tail_s, tail_pct = tail(latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": op_list_wall(records),
        "site_updates_per_s": sum(o.sites for o in evolve) / sum(o.sites_s for o in evolve),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"op_samples": len(latencies), "op_tail_percentile": tail_pct,
              "passes": passes, "setup_samples": setup_samples}
    return values, detail


def layer_metrics(ctx, records, walls, wall_untraced, workload) -> tuple[dict, dict]:
    """Per-layer figures from the traced passes (one per workload)."""
    span_list = ctx.tracer.spans
    selfs = spans.self_times(span_list)
    by_op = defaultdict(list)
    for i, span in enumerate(span_list):
        by_op[span[spans.OP]].append(i)
    traced = {r["id"]: r for r in records}

    def pick(wl_name, *names, key=None):
        return [i for op_id, idx in by_op.items() if op_id in traced
                and traced[op_id]["workload"] == wl_name
                and (key is None or traced[op_id]["key"] == key)
                for i in idx if span_list[i][spans.NAME] in names]

    def total(ids):
        return sum(spans.duration(span_list[i]) for i in ids)

    def mean_us(ids):
        return 1e6 * total(ids) / len(ids)

    def outcomes(wl_name):
        return [r["outcome"] for r in records if r["workload"] == wl_name and r["outcome"]]

    v = {
        "graphs.build_s": total(pick("walk", "graphs.build_graph")),
        "graphs.neighbors_first_s": total(pick("walk", "graphs.neighbors_first")),
        "graphs.vertices_built": sum(span_list[i][spans.SIZE]
                                     for i in pick("walk", "graphs.build_graph")),
    }
    for fam in W.FAMILIES:
        graph, _ = ctx.graphs[("walk", fam)]
        coin = pick("walk", "engine.apply_coin", key=fam)
        shift = pick("walk", "engine.apply_shift", key=fam)
        measure = pick("walk", "engine.vertex_probabilities", key=fam)
        run_walk_ids = pick("walk", "runner.run_walk", key=fam)
        run_walk = total(run_walk_ids)
        v[f"engine.coin_us.{fam}"] = mean_us(coin)
        v[f"engine.shift_us.{fam}"] = mean_us(shift)
        v[f"engine.measure_us.{fam}"] = mean_us(measure)
        v[f"engine.computed_bytes_per_step.{fam}"] = computed_bytes_per_step(graph)
        v[f"runner.run_walk_s.{fam}"] = run_walk
        v[f"runner.loop_overhead_frac.{fam}"] = 1.0 - (
            (total(coin) + total(shift) + total(measure))
            / spans.time_less_table_builds(span_list, run_walk_ids))
    v["engine.step_us.tiny"] = mean_us(pick("oracle", "engine.step"))
    v["engine.max_norm_drift"] = max(o.norm_drift for o in outcomes("walk"))
    v["runner.amplify_s"] = total(pick("walk", "runner.amplify"))
    v["cli.self_s"] = sum(selfs[i] for i in range(len(span_list))
                          if span_list[i][spans.NAME].startswith("cli.")
                          and traced.get(span_list[i][spans.OP], {}).get("workload") == "walk")
    v["cli.bytes_written"] = sum(o.bytes_out for o in outcomes("walk"))

    modes = sum(a.modes() for a in ctx.cfg["oracle"] if a.shift != "moving")
    levels = sum(span_list[i][spans.SIZE] for i in pick("oracle", "spectral.mode_spectrum"))
    v["spectral.mode_spectrum_s"] = total(pick("oracle", "spectral.mode_spectrum"))
    v["spectral.modes"] = modes
    v["spectral.levels_per_mode"] = levels / modes
    v["search.solve_alpha_s"] = total(pick("oracle", "search.solve_alpha"))
    v["search.secular_evals"] = len(pick("oracle", "search.secular_value"))
    v["oracle.dense_unitary_s"] = total(pick("oracle", "oracle.dense_unitary"))
    v["oracle.dense_eigens_s"] = total(pick("oracle", "oracle.dense_eigens"))
    v["oracle.evolve_dense_s"] = total(pick("oracle", "oracle.evolve_dense"))
    v["oracle.dense_dim_total"] = sum(span_list[i][spans.SIZE]
                                      for i in pick("oracle", "oracle.dense_unitary"))
    v["oracle.max_trace_dev"] = max(o.trace_dev for o in outcomes("oracle"))

    shares = layer_shares(span_list, selfs, records, walls)
    v["trace.wall_untraced_s"] = wall_untraced
    v["trace.wall_traced_s"] = walls[workload]
    v["trace.overhead_s"] = walls[workload] - wall_untraced
    v["trace.self_sum_s"] = sum(s for layer, s in shares[workload]["self_s"].items()
                                if layer != "bench")
    v["trace.spans"] = len(span_list)
    return v, shares


def computed_bytes_per_step(graph) -> int:
    """Compulsory memory traffic of one step, computed from array sizes: the
    coin reads and writes the state (only the marked column for the dirac
    coin, which is the identity elsewhere), the shift reads and writes it, and
    the measurement reads it and writes one float64 per vertex."""
    state = 16 * graph.coin_dim * graph.n
    coin = 2 * 16 * graph.coin_dim if graph.spec.coin == "dirac2" else 2 * state
    return coin + 2 * state + state + 8 * graph.n


def layer_shares(span_list, selfs, records, walls) -> dict:
    """Per workload: self seconds and share of the traced pass for each layer.
    'bench' is op time outside every span (the benchmark's own glue)."""
    workload_of = {r["id"]: r["workload"] for r in records}
    out = {}
    for name, wall in walls.items():
        self_s = defaultdict(float)
        for i, span in enumerate(span_list):
            if workload_of.get(span[spans.OP]) == name:
                self_s[spans.layer_of(span[spans.NAME])] += selfs[i]
        self_s["bench"] = wall - sum(self_s.values())
        out[name] = {"wall_s": wall, "self_s": dict(self_s),
                     "share": {k: s / wall for k, s in self_s.items()}}
    return out


# -- environment -----------------------------------------------------------------


def _quiet(argv) -> str | None:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_commit() -> str | None:
    if _quiet(["git", "-C", W.ROOT, "rev-parse", "--show-toplevel"]) != W.ROOT:
        return None  # not a git checkout of its own
    return _quiet(["git", "-C", W.ROOT, "rev-parse", "HEAD"])


def blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy bundle."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def environment(ctx, workload, seed, trace) -> dict:
    import hashlib

    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg_dir = os.path.join(W.SRC, "walklab")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    states = {}
    for (name, key), (graph, _) in ctx.graphs.items():
        if name == workload:
            dim = graph.coin_dim * graph.n
            states[key] = {"state_bytes": 16 * dim, **({"dense_bytes": 16 * dim * dim}
                                                      if name == "oracle" else {})}
    return {
        "workload": workload, "seed": seed, "trace": trace, "scale": ctx.scale,
        "commit": git_commit(), "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "WALKLAB_THREADS": os.environ.get("WALKLAB_THREADS"),
        "cache_bytes": {"L2": _quiet(["getconf", "LEVEL2_CACHE_SIZE"]),
                        "L3": _quiet(["getconf", "LEVEL3_CACHE_SIZE"])},
        "states": states,
    }


# -- main ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(W.SCALES), default="full",
                        help="tiny: every workload at toy sizes (smoke.py)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, seconds = timed_setup([args.workload], args.scale, args.seed, None)
        print(json.dumps({"setup_s": seconds}))
        return 0

    e2e_units, layer_units = declared_units()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        names = W.WORKLOADS if args.trace else (args.workload,)
        ctx, setup_s = timed_setup(names, args.scale, args.seed, workdir)
        reference = W.load_reference(args.scale)
        records = []
        ctx.tracer.install(only=spans.EVOLVE)
        passes = [run_pass(ctx, args.workload, reference, records)
                  for _ in range(pass_count(ctx.cfg, args.workload, args.seconds))]
        ctx.tracer.uninstall()

        detail = {}
        if args.trace:
            ctx.tracer = spans.Tracer()
            ctx.tracer.install()
            first = len(records)
            walls = {name: run_pass(ctx, name, reference, records) for name in W.WORKLOADS}
            ctx.tracer.uninstall()
            values, shares = layer_metrics(ctx, records[first:], walls,
                                           op_list_wall(records[:first]), args.workload)
            metrics = with_units(values, layer_units)
            detail["layer_shares"] = shares
        else:
            samples = [setup_s] + [setup_probe(args.workload, args.scale, args.seed)
                                   for _ in range(SETUP_SAMPLES - 1)]
            values, detail = end_to_end(records, passes, samples)
            metrics = with_units(values, e2e_units)
        env = environment(ctx, args.workload, args.seed, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    write_record(args, env, detail, records, result, ctx)
    print("env " + json.dumps(env, sort_keys=True))
    summarize(args, detail, records, failed)
    print(json.dumps(result))
    return 0


def write_record(args, env, detail, records, result, ctx) -> None:
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    ops = [{"workload": r["workload"], "key": r["key"], "problems": r["problems"],
            "latency_s": r["outcome"].latency if r["outcome"] else None} for r in records]
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "detail": detail, "ops": ops, "result": result}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in ctx.tracer.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(args, detail, records, failed) -> None:
    print(f"{args.workload}: {failed} of {len(records)} ops failed "
          f"(failed_frac {failed / len(records):.4f})")
    if args.trace:
        for name, share in detail["layer_shares"].items():
            parts = ", ".join(f"{k} {100 * s:.1f}%" for k, s in
                              sorted(share["share"].items(), key=lambda kv: -kv[1]))
            print(f"  traced {name} pass {share['wall_s']:.3f} s: {parts}")
    else:
        print(f"  {detail['op_samples']} op samples over {len(detail['passes'])} passes; "
              f"op_tail_s is p{detail['op_tail_percentile']:.0f}")


if __name__ == "__main__":
    sys.exit(main())
