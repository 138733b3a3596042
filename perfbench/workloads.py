"""Workloads of the walklab benchmark: arenas, inputs from the seed, op lists
and the checks on every op's result.

Ops reach walklab through module attributes looked up at call time
(`wl.cli.main`, `wl.oracle.dense_eigens`, ...), so the wrappers that
`spans.Tracer` installs see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("walk", "oracle")

REL_TOL = 1e-9   # the goldens' tolerance; integers and booleans compare exactly
ABS_TOL = 1e-12  # floor for figures near zero
NOISE_TOL = 1e-9  # absolute, for figures that are rounding noise (defects, deviations)
NOISE_KEYS = ("unitarity_defect", "trace_dev")
NORM_TOL = 1e-9
CSV_HEADER = "t,p_marked,p_nbhd,norm"


def import_walklab():
    """Import walklab from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "walklab", "__init__.py")):
        raise SystemExit(f"perfbench: walklab sources not found under {SRC}")
    sys.path.insert(0, SRC)
    wl = importlib.import_module("walklab")
    importlib.import_module("walklab.cli")
    if not os.path.abspath(wl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported walklab from {wl.__file__}, not from {SRC}")
    return wl


# -- arenas ----------------------------------------------------------------------


@dataclass(frozen=True)
class Arena:
    key: str
    family: str  # torus | hypercube | complete
    size: int    # side, degree or order
    ndim: int
    shift: str

    def spec(self, wl):
        if self.family == "torus":
            return wl.torus_spec(self.size, self.ndim, self.shift)
        if self.family == "hypercube":
            return wl.hypercube_spec(self.size)
        return wl.complete_spec(self.size)

    def flags(self) -> list[str]:
        if self.family == "torus":
            return ["--family", "torus", "--side", str(self.size), "--dims", str(self.ndim),
                    "--shift", self.shift.replace("_", "-")]
        if self.family == "hypercube":
            return ["--family", "hypercube", "--degree", str(self.size)]
        return ["--family", "complete", "--n", str(self.size)]

    def modes(self) -> int:
        """Iterations mode_spectrum makes: Fourier modes on tori, Hamming
        weight classes on the hypercube, one rotation on the complete graph."""
        if self.family == "torus":
            return self.size ** self.ndim
        return self.size if self.family == "hypercube" else 1


# family tag -> (graph family, torus dimension, shift)
FAMILY_SHAPES = {
    "ff2d": ("torus", 2, "flip_flop"),
    "ff3d": ("torus", 3, "flip_flop"),
    "dirac": ("torus", 2, "dirac"),
    "moving2d": ("torus", 2, "moving"),
    "hypercube": ("hypercube", 1, "flip_flop"),
    "complete": ("complete", 1, "swap"),
}


def _family(tag: str, size: int, key: str | None = None) -> Arena:
    family, ndim, shift = FAMILY_SHAPES[tag]
    return Arena(key or f"{tag}-{size}", family, size, ndim, shift)


# walk: (family, size, t_max); t_max is the predicted peak step count, the
# moving shift (no prediction) runs as long as the flip-flop walk on its torus
SCALES = {
    "full": {
        "walk": [("ff2d", 256, 550), ("ff3d", 40, 342), ("dirac", 256, 377),
                 ("moving2d", 256, 550), ("hypercube", 16, 295), ("complete", 1024, 50)],
        "amplify": ("ff2d", 128, 258, 1),  # family, side, walk length, rounds
        "oracle": [_family(t, s) for t, s in (("ff2d", 16), ("moving2d", 12), ("dirac", 22),
                                               ("ff3d", 5), ("hypercube", 7), ("complete", 32))],
        "oracle_steps": 50,
        "pass_s": {"walk": 13.0, "oracle": 5.5},  # nominal pass time on the baseline host
    },
    "tiny": {
        "walk": [("ff2d", 16, 25), ("ff3d", 6, 19), ("dirac", 16, 17),
                 ("moving2d", 16, 25), ("hypercube", 6, 10), ("complete", 32, 8)],
        "amplify": ("ff2d", 16, 25, 1),
        "oracle": [_family(t, s) for t, s in (("ff2d", 6), ("moving2d", 5), ("dirac", 6),
                                               ("ff3d", 3), ("hypercube", 4), ("complete", 8))],
        "oracle_steps": 10,
        "pass_s": {"walk": 0.25, "oracle": 0.25},
    },
}


def walk_arenas(cfg) -> list[tuple[Arena, int]]:
    """(arena, t_max) per walk op; walk ops are keyed by family alone."""
    return [(_family(tag, size, tag), t_max) for tag, size, t_max in cfg["walk"]]


def amplify_arena(cfg) -> Arena:
    tag, side, _, _ = cfg["amplify"]
    return _family(tag, side, "amplify")


def pick_vertex(seed, workload: str, key: str, n: int) -> int:
    """The marked vertex: the origin for the reference data, else drawn from the seed."""
    if seed is None:
        return 0
    return random.Random(f"{seed}/{workload}/{key}").randrange(n)


FAMILIES = tuple(FAMILY_SHAPES)


# -- context and set-up --------------------------------------------------------------


@dataclass
class Outcome:
    latency: float                 # seconds inside walklab for the op
    observed: dict                 # figures the reference data pins
    problems: list[str]            # checks that need no reference
    sites: float                   # coin_dim * N * steps done
    sites_s: float                 # seconds those site updates took
    bytes_out: int = 0
    norm_drift: float = 0.0
    trace_dev: float = 0.0


@dataclass
class Op:
    workload: str
    key: str
    run: Callable[["Context"], Outcome]


@dataclass
class Context:
    wl: object
    scale: str
    seed: int | None
    workdir: str
    tracer: spans.Tracer = field(default_factory=spans.Tracer)
    graphs: dict = field(default_factory=dict)   # (workload, key) -> (graph, marked vertex)
    hashes: dict = field(default_factory=dict)   # key -> sha256 of the first output
    op_meta: list = field(default_factory=list)  # op id -> (workload, key)

    @property
    def cfg(self):
        return SCALES[self.scale]

    def same_bytes(self, key: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        if self.hashes.setdefault(key, digest) != digest:
            return [f"{key}: output bytes differ from this arena's first run"]
        return []


def arenas(cfg, workload: str) -> list[Arena]:
    if workload == "walk":
        return [a for a, _ in walk_arenas(cfg)] + [amplify_arena(cfg)]
    return list(cfg[workload])


def setup(ctx: Context, workload: str) -> None:
    """Build every arena and make the first neighbours call on its marked vertex."""
    for arena in arenas(ctx.cfg, workload):
        graph = ctx.wl.build_graph(arena.spec(ctx.wl))
        vertex = pick_vertex(ctx.seed, workload, arena.key, graph.n)
        graph.neighbors(vertex)
        ctx.graphs[(workload, arena.key)] = (graph, vertex)


def ops(ctx: Context, workload: str) -> list[Op]:
    cfg = ctx.cfg
    if workload == "walk":
        out = [Op("walk", a.key, lambda c, a=a, t=t: walk_run(c, a, t)) for a, t in walk_arenas(cfg)]
        _, _, length, rounds = cfg["amplify"]
        arena = amplify_arena(cfg)
        out.append(Op("walk", "amplify", lambda c: walk_amplify(c, arena, length, rounds)))
        return out
    steps = cfg["oracle_steps"]
    return [Op("oracle", a.key, lambda c, a=a: oracle_op(c, a, steps)) for a in cfg["oracle"]]


# -- ops -------------------------------------------------------------------------------


def _marked_text(arena: Arena, graph, vertex: int) -> str:
    if arena.family == "torus":
        return ",".join(str(c) for c in graph.vertex_coords(vertex))
    return str(vertex)


def _cli(ctx: Context, argv: list[str], out: str) -> tuple[float, float, bytes, list[str]]:
    """Run one CLI command; returns latency, evolve seconds (time in run_walk
    and amplify, less the neighbour-table build they trigger), output bytes
    and problems."""
    first = len(ctx.tracer.spans)
    t0 = time.perf_counter()
    code = ctx.wl.cli.main(argv + ["--out", out])
    latency = time.perf_counter() - t0
    span_list = ctx.tracer.spans
    evolve = spans.time_less_table_builds(
        span_list, [i for i in range(first, len(span_list)) if span_list[i][spans.NAME] in spans.EVOLVE])
    with open(out, "rb") as fh:
        data = fh.read()
    return latency, evolve, data, ([] if code == 0 else [f"exit code {code}"])


def walk_run(ctx: Context, arena: Arena, t_max: int) -> Outcome:
    graph, vertex = ctx.graphs[("walk", arena.key)]
    out = os.path.join(ctx.workdir, f"walk-{arena.key}.csv")
    argv = ["run", *arena.flags(), "--marked", _marked_text(arena, graph, vertex),
            "--t-max", str(t_max)]
    latency, evolve, data, problems = _cli(ctx, argv, out)
    problems += ctx.same_bytes(arena.key, data)
    observed, drift, csv_problems = read_trace(data, t_max)
    return Outcome(latency, observed, problems + csv_problems,
                   sites=graph.coin_dim * graph.n * t_max, sites_s=evolve,
                   bytes_out=len(data), norm_drift=drift)


def read_trace(data: bytes, t_max: int) -> tuple[dict, float, list[str]]:
    """Peaks of both figures, the worst norm drift, and format problems."""
    lines = data.decode("ascii").splitlines()
    problems = [] if lines[:1] == [CSV_HEADER] else ["bad CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(t_max + 1)):
        problems.append(f"CSV steps are not 0..{t_max}")
    p_marked = [float(r[1]) for r in rows]
    p_nbhd = [float(r[2]) for r in rows]
    drift = max(abs(float(r[3]) - 1.0) for r in rows)
    if drift > NORM_TOL:
        problems.append(f"norm drift {drift:.3e} above {NORM_TOL:.0e}")
    i, j = _peak(p_nbhd), _peak(p_marked)
    observed = {"t_star": i, "p_star": p_nbhd[i], "t_star_marked": j, "p_star_marked": p_marked[j]}
    return observed, drift, problems


def _peak(values: list[float]) -> int:
    """The earliest step within REL_TOL of the maximum.  Unlike a bare argmax
    it cannot move on rounding-level ties, such as the complete graph's
    p_nbhd, which is 1 at every step."""
    top = max(values)
    return next(i for i, v in enumerate(values) if v >= top - REL_TOL * abs(top))


def walk_amplify(ctx: Context, arena: Arena, length: int, rounds: int) -> Outcome:
    graph, vertex = ctx.graphs[("walk", arena.key)]
    out = os.path.join(ctx.workdir, "walk-amplify.json")
    argv = ["amplify", *arena.flags(), "--marked", _marked_text(arena, graph, vertex),
            "--walk-length", str(length), "--rounds", str(rounds)]
    latency, evolve, data, problems = _cli(ctx, argv, out)
    problems += ctx.same_bytes(arena.key, data)
    doc = json.loads(data)
    steps = doc["ledger"]["step_count"]
    observed = {"success": doc["success"], "overshoot": doc["overshoot"], "step_count": steps}
    return Outcome(latency, observed, problems, sites=graph.coin_dim * graph.n * steps,
                   sites_s=evolve, bytes_out=len(data))


def oracle_op(ctx: Context, arena: Arena, steps: int) -> Outcome:
    import numpy as np

    wl = ctx.wl
    graph, vertex = ctx.graphs[("oracle", arena.key)]
    spec = graph.spec
    t0 = time.perf_counter()
    coin = wl.engine.default_coin(graph, marked=(vertex,))
    dense = wl.oracle.dense_unitary(graph, coin)  # one engine.step per basis state
    defect = dense.unitarity_defect()
    phases, _ = wl.oracle.dense_eigens(dense)
    history = wl.oracle.evolve_dense(dense, wl.engine.uniform_state(graph).vector, steps)
    state = wl.engine.uniform_state(graph)
    fast = [wl.engine.vertex_probabilities(state)[vertex]]
    for _ in range(steps):
        wl.engine.step(state, coin)
        fast.append(wl.engine.vertex_probabilities(state)[vertex])
    alpha = None
    if spec.shift != "moving":  # the moving shift has no spectral route
        alpha = wl.search.solve_alpha(wl.spectral.mode_spectrum(spec))
    latency = time.perf_counter() - t0

    at_marked = history.reshape(steps + 1, graph.coin_dim, graph.n)[:, :, vertex]
    dense_trace = (at_marked.real ** 2 + at_marked.imag ** 2).sum(axis=1)
    deviation = float(np.max(np.abs(np.asarray(fast) - dense_trace)))
    principal = float(np.min(np.abs(phases[np.abs(phases) > 1e-8])))
    problems = []
    if alpha is not None and not math.isclose(principal, alpha, rel_tol=REL_TOL):
        problems.append(f"dense principal phase {principal!r} != solve_alpha {alpha!r}")
    observed = {"principal_phase": principal, "unitarity_defect": defect, "trace_dev": deviation}
    # per second of the whole op: timed alone, the engine part is per-call
    # Python overhead of a few milliseconds and too noisy to compare runs by
    dim = graph.coin_dim * graph.n
    return Outcome(latency, observed, problems, sites=dim * (dim + steps), sites_s=latency,
                   trace_dev=deviation)


# -- reference data ------------------------------------------------------------------


def load_reference(scale: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[scale]


def compare(observed, expected, where: str) -> list[str]:
    """Reference check: floats to REL_TOL, noise figures to NOISE_TOL, the rest exactly."""
    if isinstance(expected, dict):
        problems = []
        for key, value in expected.items():
            if key not in observed:
                problems.append(f"{where}.{key}: missing")
            elif key in NOISE_KEYS:
                if abs(observed[key] - value) > NOISE_TOL:
                    problems.append(f"{where}.{key}: {observed[key]!r} vs {value!r}")
            else:
                problems += compare(observed[key], value, f"{where}.{key}")
        return problems
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [f"{where}: length differs"]
        return [p for i, (o, e) in enumerate(zip(observed, expected))
                for p in compare(o, e, f"{where}[{i}]")]
    if isinstance(expected, float):
        ok = (isinstance(observed, (int, float)) and not isinstance(observed, bool)
              and math.isclose(observed, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL))
    else:
        ok = type(observed) is type(expected) and observed == expected
    return [] if ok else [f"{where}: {observed!r} vs reference {expected!r}"]
