"""End-to-end experiments: traces, peaks, amplification, sweeps.

A run starts in the uniform state, applies the marked walk step by step,
and records two success figures per step: the probability on the marked
set and the probability on the marked set plus its graph neighborhood
(the final state concentrates on both).  Sweeps fan out over sizes,
fit the peak-time exponent, and carry the spectral predictions along
for side-by-side comparison.  Amplitude amplification walks once and
then alternates the marked flip with a reflection about the walked state,
which equals the algorithm's undo-walk, reflect-about-uniform, redo-walk
round.  The two-marked diagnostics watch the point reflection through
the marked pair's midpoint (Graph.reflect).  A CostLedger charges what
the algorithm runs: the walk steps of every round and the locality
model's preparation and reflection charges; the local circuit that
realizes those is a test reference (tests/helpers.py).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .engine import (WalkState, flip_marked_vertices, reflect_about, squared_norm, step,
                     uniform_state, vertex_probabilities)
from .graphs import ConfigurationError, Graph, GraphSpec, build_graph, check_count
from .search import PredictionReport, predict
from .spectral import NoSearchStructure

_PEAK_REL_TOL = 1e-9  # values this close to a maximum are rounding ties


# -- traces ------------------------------------------------------------------


@dataclass
class RunTrace:
    """Per-step success probabilities from the uniform start, indexed by
    the step t."""

    p_marked: np.ndarray
    p_nbhd: np.ndarray
    norm: np.ndarray


@dataclass(frozen=True)
class PeakInfo:
    t_star: int
    p_star: float
    t_star_marked: int
    p_star_marked: float


def evolve(state: WalkState, marked: tuple[int, ...], steps: int, observe=None) -> WalkState:
    """Apply `steps` walk steps marking `marked` to `state` in place.

    observe(t, state), if given, is called at t = 0 and after each step t.
    """
    for t in range(steps + 1):
        if t:
            step(state, marked)
        if observe is not None:
            observe(t, state)
    return state


class _Watch:
    """Observer recording, per step, the probability on the marked set (vertex
    0 if nothing is marked), on its closed neighborhood, and the state norm."""

    def __init__(self, graph: Graph, marked: tuple[int, ...], t_max: int):
        self.watch = np.array(marked or (0,), dtype=np.int64)
        self.support = graph.closed_neighborhood(self.watch)
        # a neighborhood of every vertex (the complete graph) holds the total
        # probability, which the norm gives without gathering every column
        self.everything = len(self.support) == graph.n
        self.at = np.searchsorted(self.support, self.watch)
        self.p_marked = np.empty(t_max + 1)
        self.p_nbhd = np.empty(t_max + 1)
        self.norms = np.empty(t_max + 1)

    def __call__(self, t: int, state: WalkState) -> None:
        norm2 = squared_norm(state)
        if self.everything:
            self.p_marked[t] = vertex_probabilities(state, self.watch).sum()
            self.p_nbhd[t] = norm2
        else:
            p = vertex_probabilities(state, self.support)
            self.p_marked[t] = p[self.at].sum()
            self.p_nbhd[t] = p.sum()
        self.norms[t] = math.sqrt(norm2)

    def trace(self) -> RunTrace:
        return RunTrace(self.p_marked, self.p_nbhd, self.norms)


def run_walk(graph: Graph, marked, t_max: int) -> RunTrace:
    """Evolve t_max steps recording marked and neighborhood probability."""
    marked = graph.marked_set(marked)
    check_count("t_max", t_max)
    watch = _Watch(graph, marked, t_max)
    evolve(uniform_state(graph), marked, t_max, watch)
    return watch.trace()


def find_peak(trace: RunTrace) -> PeakInfo:
    """The earliest step within _PEAK_REL_TOL of each figure's maximum.  A bare
    argmax would move on rounding-level ties, such as the complete graph's
    p_nbhd, which is the norm squared and 1 at every step."""
    i, j = _earliest_peak(trace.p_nbhd), _earliest_peak(trace.p_marked)
    return PeakInfo(i, float(trace.p_nbhd[i]), j, float(trace.p_marked[j]))


def _earliest_peak(values: np.ndarray) -> int:
    return int(np.argmax(values >= values.max() * (1.0 - _PEAK_REL_TOL)))


# -- amplitude amplification ---------------------------------------------------


@dataclass
class CostLedger:
    """Locality-model accounting (Aaronson & Ambainis, quant-ph/0303041):
    preparing the uniform state by local moves costs 2 sqrt(N), and each
    reflection about it (unprepare, flip, re-prepare) 4 sqrt(N)."""

    n_vertices: int
    step_count: int = 0
    amplification_rounds: int = 0

    @property
    def prep_cost(self) -> float:
        return 2.0 * math.sqrt(self.n_vertices)

    @property
    def reflection_unit(self) -> float:
        return 4.0 * math.sqrt(self.n_vertices)

    @property
    def reflection_cost(self) -> float:
        return self.amplification_rounds * self.reflection_unit

    @property
    def total(self) -> float:
        return self.prep_cost + self.step_count + self.reflection_cost


@dataclass
class AmplifyResult:
    success: np.ndarray  # marked-set probability after each round, index 0 = no rounds
    ledger: CostLedger
    overshoot: bool  # probability decreased on the last round (rotated past the peak)


def amplify(graph: Graph, marked, walk_length: int, rounds: int) -> AmplifyResult:
    """Amplitude amplification with the walk as the inner algorithm.

    The algorithm's round flips the marked vertices, undoes the walk U'^t,
    reflects about the uniform state |u>, and reruns the walk; the ledger
    charges each round those 2*walk_length steps plus one 4*sqrt(N)
    reflection.  As an operator, U'^t (2|u><u| - I) U'^-t is the reflection
    about the walked state U'^t|u>, so the simulation walks once, keeps that
    state, and applies each round as a flip and a reflection about it.
    Success probability follows the exact sin^2((2r+1) gamma) law with gamma
    set by the walk's end-of-run marked probability.
    """
    marked = graph.marked_set(marked)
    if not marked:
        raise ConfigurationError("amplification needs a marked set")
    check_count("walk_length", walk_length)
    check_count("rounds", rounds)
    state = evolve(uniform_state(graph), marked, walk_length)
    walked = state.copy()

    success = np.empty(rounds + 1)
    success[0] = vertex_probabilities(state, marked).sum()
    for r in range(rounds):
        flip_marked_vertices(state, marked)
        reflect_about(state, walked)
        success[r + 1] = vertex_probabilities(state, marked).sum()
    overshoot = bool(rounds > 0 and success[-1] < success[-2] - 1e-12)
    ledger = CostLedger(graph.n, walk_length * (2 * rounds + 1), rounds)
    return AmplifyResult(success, ledger, overshoot)


# -- two marked vertices -------------------------------------------------------


@dataclass
class TwoMarkedResult:
    trace: RunTrace
    symmetry_residual: float       # || mirror(state_t) - state_t ||, worst t
    reflection_form_deviation: float  # fast two-coin walk vs rank-one form, worst t


def _flip_symmetric_pair(state: WalkState, v1: int, v2: int) -> None:
    # reflection about (|s,v1> + |s,v2>)/sqrt(2)
    amps = state.amps
    d = state.graph.coin_dim
    comp = (amps[:, v1].sum() + amps[:, v2].sum()) / math.sqrt(2 * d)
    amps[:, v1] -= 2.0 * comp / math.sqrt(2 * d)
    amps[:, v2] -= 2.0 * comp / math.sqrt(2 * d)


def run_two_marked(graph: Graph, v1: int, v2: int, t_max: int) -> TwoMarkedResult:
    """Two-marked walk with its symmetry and reduction diagnostics.

    Tracks (a) invariance of the evolved state under the v1 <-> v2 grid
    symmetry, the point reflection through their midpoint lifted to the
    basis by Graph.lift (compared as state.vector[lift]), and (b) agreement
    between the two-marked-coin walk and the walk whose marking is the
    single reflection about the symmetrized state (|s,v1> + |s,v2>)/sqrt(2).
    """
    if graph.spec.family != "torus" or graph.spec.shift != "flip_flop":
        raise ConfigurationError("two-marked analysis runs on flip-flop tori")
    check_count("t_max", t_max)
    marked = graph.marked_set((v1, v2))
    mirror = graph.lift(graph.reflect(np.add(graph.vertex_coords(v1), graph.vertex_coords(v2))))

    twin = uniform_state(graph)  # rank-one reflection form
    watch = _Watch(graph, marked, t_max)
    worst_sym = 0.0
    worst_dev = 0.0

    def observe(t: int, state: WalkState) -> None:
        nonlocal worst_sym, worst_dev
        watch(t, state)
        if t:
            _flip_symmetric_pair(twin, v1, v2)
            step(twin, ())
        worst_sym = max(worst_sym, float(np.max(np.abs(state.vector[mirror] - state.vector))))
        worst_dev = max(worst_dev, float(np.max(np.abs(twin.amps - state.amps))))

    evolve(uniform_state(graph), marked, t_max, observe)
    return TwoMarkedResult(watch.trace(), worst_sym, worst_dev)


# -- sweeps --------------------------------------------------------------------


@dataclass
class SweepRow:
    n_vertices: int
    size: int
    t_star: int
    p_star: float
    t_star_marked: int
    p_star_marked: float
    cap: int
    prediction: PredictionReport | None


def _default_cap(spec: GraphSpec, report: PredictionReport | None) -> int:
    """Trace window for peak hunting.

    Twice the predicted peak step count: wide enough that the crest is well
    inside, narrow enough to exclude the quasi-periodic revivals at roughly
    3x, 5x, ... the peak time, whose heights fluctuate within a few percent
    of the first crest and would otherwise capture the argmax.  An arena
    without a prediction (the moving shift, which has no crest) gets the
    lower-bound verification window.
    """
    n = spec.n_vertices
    if report is None:
        return int(math.ceil(4.0 * math.sqrt(n * math.log2(n))))
    return max(10, 2 * report.peak_steps)


def sweep_point(spec: GraphSpec) -> SweepRow:
    """One sweep entry: evolve to the cap, locate peaks, attach predictions."""
    graph = build_graph(spec)
    report = None
    with suppress(NoSearchStructure):
        report = predict(spec)
    cap = _default_cap(spec, report)
    trace = run_walk(graph, (0,), cap)
    peak = find_peak(trace)
    return SweepRow(
        n_vertices=graph.n,
        size=spec.dims[0],
        t_star=peak.t_star,
        p_star=peak.p_star,
        t_star_marked=peak.t_star_marked,
        p_star_marked=peak.p_star_marked,
        cap=cap,
        prediction=report,
    )


def fit_exponent(rows: list[SweepRow]) -> float | None:
    """Least-squares slope of log2(t_star) vs log2(N), the rows of the
    smallest N dropped (finite-size transients distort it).  None when
    fewer than two distinct N are left (the fit is underdetermined), or when
    some peak sits at t = 0 (a stalled walk has no scaling law to fit)."""
    rows = sorted(rows, key=lambda r: r.n_vertices)
    rows = [r for r in rows if r.n_vertices > rows[0].n_vertices]
    if len({r.n_vertices for r in rows}) < 2:
        return None
    peaks = [r.t_star for r in rows]
    if any(t < 1 for t in peaks):
        return None
    xs = np.log2([r.n_vertices for r in rows])
    slope = np.polyfit(xs, np.log2(peaks), 1)[0]
    return float(slope)
