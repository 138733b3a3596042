#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the checked figures of every op, at
both scales, with each marked vertex at the origin.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted (the goldens pass).  The
benchmark compares every later run, at any seed, with these values: the
arena families are translation (torus), XOR (hypercube) or relabelling
(complete graph) symmetric, so the figures do not depend on where the
marked vertex sits.
"""

import json
import os
import shutil
import sys

import spans
import workloads as W


def main() -> int:
    wl = W.import_walklab()
    workdir = os.path.join(W.HERE, "out", "reference-work")
    os.makedirs(workdir, exist_ok=True)
    doc = {"tolerance": {"rel": W.REL_TOL, "abs": W.ABS_TOL, "noise_abs": W.NOISE_TOL,
                         "noise_keys": list(W.NOISE_KEYS)}}
    try:
        for scale in W.SCALES:
            ctx = W.Context(wl, scale, None, workdir)
            ctx.tracer.install(only=spans.EVOLVE)
            figures = {}
            for name in W.WORKLOADS:
                W.setup(ctx, name)
                for op in W.ops(ctx, name):
                    outcome = op.run(ctx)
                    if outcome.problems:
                        raise SystemExit(f"{scale} {name}.{op.key}: {outcome.problems}")
                    figures.setdefault(name, {})[op.key] = outcome.observed
                    print(f"{scale} {name}.{op.key}: {outcome.latency:.3f} s", file=sys.stderr)
            ctx.tracer.uninstall()
            doc[scale] = figures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(W.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
