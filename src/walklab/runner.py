"""End-to-end experiments: traces, peaks, schedules, amplification, sweeps.

A run starts in the uniform state, applies the marked walk step by step,
and records two success figures per step: the probability on the marked
set and the probability on the marked set plus its graph neighborhood
(the final state concentrates on both).  Sweeps fan out over sizes,
fit the peak-time exponent, and carry the spectral predictions along
for side-by-side comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (CoinConfig, WalkState, closed_neighborhood, default_coin,
                     flip_marked_vertices, reflect_about_uniform, step, uniform_state,
                     unstep, vertex_probabilities)
from .graphs import ConfigurationError, Graph, GraphSpec, build_graph
from .search import PredictionReport, predict


# -- traces ------------------------------------------------------------------


@dataclass
class RunTrace:
    """Per-step success probabilities from the uniform start."""

    t: np.ndarray
    p_marked: np.ndarray
    p_nbhd: np.ndarray
    norm: np.ndarray
    config: dict

    def csv_rows(self):
        yield "t,p_marked,p_nbhd,norm"
        for i in range(len(self.t)):
            yield (f"{int(self.t[i])},{float(self.p_marked[i])!r},"
                   f"{float(self.p_nbhd[i])!r},{float(self.norm[i])!r}")


@dataclass(frozen=True)
class PeakInfo:
    t_star: int
    p_star: float
    t_star_marked: int
    p_star_marked: float


def _check_count(name: str, value: int) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be a non-negative count, got {value}")


def evolve(state: WalkState, coin: CoinConfig, steps: int, observe=None,
           inverse: bool = False) -> WalkState:
    """Apply `steps` walk steps, or inverse steps, to `state` in place.

    observe(t, state), if given, is called at t = 0 and after each step t.
    """
    advance = unstep if inverse else step
    for t in range(steps + 1):
        if t:
            advance(state, coin)
        if observe is not None:
            observe(t, state)
    return state


class _Watch:
    """Observer recording, per step, the probability on the marked set (vertex
    0 if nothing is marked), on its closed neighborhood, and the state norm."""

    def __init__(self, graph: Graph, coin: CoinConfig, t_max: int):
        self.config = {
            "graph": graph.spec.label(),
            "marked": list(coin.marked),
            "marking": graph.spec.marking,
            "t_max": t_max,
        }
        self.watch = np.array(coin.marked or (0,), dtype=np.int64)
        self.support = closed_neighborhood(graph, self.watch)
        # a neighborhood of every vertex (the complete graph) holds the total
        # probability, which the norm gives without gathering every column
        self.everything = len(self.support) == graph.n
        self.at = np.searchsorted(self.support, self.watch)
        self.p_marked = np.empty(t_max + 1)
        self.p_nbhd = np.empty(t_max + 1)
        self.norms = np.empty(t_max + 1)

    def __call__(self, t: int, state: WalkState) -> None:
        norm2 = np.vdot(state.amps, state.amps).real
        if self.everything:
            self.p_marked[t] = vertex_probabilities(state, self.watch).sum()
            self.p_nbhd[t] = norm2
        else:
            p = vertex_probabilities(state, self.support)
            self.p_marked[t] = p[self.at].sum()
            self.p_nbhd[t] = p.sum()
        self.norms[t] = math.sqrt(norm2)

    def trace(self) -> RunTrace:
        return RunTrace(np.arange(len(self.norms)), self.p_marked, self.p_nbhd,
                        self.norms, self.config)


def run_walk(graph: Graph, coin: CoinConfig, t_max: int) -> RunTrace:
    """Evolve t_max steps recording marked and neighborhood probability."""
    coin.validate_for(graph)
    _check_count("t_max", t_max)
    watch = _Watch(graph, coin, t_max)
    evolve(uniform_state(graph), coin, t_max, watch)
    return watch.trace()


def find_peak(trace: RunTrace) -> PeakInfo:
    """Argmax of the neighborhood figure (ties to the earliest step)."""
    i = int(np.argmax(trace.p_nbhd))
    j = int(np.argmax(trace.p_marked))
    return PeakInfo(int(trace.t[i]), float(trace.p_nbhd[i]),
                    int(trace.t[j]), float(trace.p_marked[j]))


# -- repetition schedule -------------------------------------------------------


def repetition_schedule(t_min: float, t_max: float, epsilon: float) -> list[int]:
    """Geometric run-length ladder t_min, (1+eps) t_min, ... capped at t_max.

    Both endpoints are included, so some entry is within a factor (1 +- eps)
    of any time in [t_min, t_max].
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if t_min <= 0 or t_max < t_min:
        raise ConfigurationError("need 0 < t_min <= t_max")
    ladder = []
    value = float(t_min)
    while value < t_max - 1e-9:
        ladder.append(round(value))
        value *= 1.0 + epsilon
    ladder.append(round(t_max))
    out = []
    for entry in ladder:  # rounding can collide at small t
        if not out or entry > out[-1]:
            out.append(int(entry))
    return out


# -- amplitude amplification ---------------------------------------------------


@dataclass
class CostLedger:
    """Locality-model accounting: prep 2 sqrt(N), each reflection 4 sqrt(N)."""

    n_vertices: int
    prep_cost: float = 0.0
    step_count: int = 0
    amplification_rounds: int = 0

    @property
    def reflection_unit(self) -> float:
        return 4.0 * math.sqrt(self.n_vertices)

    @property
    def reflection_cost(self) -> float:
        return self.amplification_rounds * self.reflection_unit

    @property
    def total(self) -> float:
        return self.prep_cost + self.step_count + self.reflection_cost

    def to_json_dict(self) -> dict:
        return {
            "prep_cost": self.prep_cost,
            "step_count": self.step_count,
            "amplification_rounds": self.amplification_rounds,
            "reflection_cost": self.reflection_cost,
            "total": self.total,
        }


@dataclass
class AmplifyResult:
    success: np.ndarray  # marked-set probability after each round, index 0 = no rounds
    ledger: CostLedger
    overshoot: bool  # probability decreased on the last round (rotated past the peak)
    config: dict


def amplify(graph: Graph, coin: CoinConfig, walk_length: int, rounds: int) -> AmplifyResult:
    """Amplitude amplification with the walk as the inner algorithm.

    One round reflects about the marked vertices, undoes the walk, reflects
    about the uniform state, and reruns the walk; each round therefore costs
    2*walk_length steps plus one 4*sqrt(N) reflection.  Success probability
    follows the exact sin^2((2r+1) gamma) law with gamma set by the walk's
    end-of-run marked probability.
    """
    coin.validate_for(graph)
    if not coin.marked:
        raise ConfigurationError("amplification needs a marked set")
    _check_count("walk_length", walk_length)
    _check_count("rounds", rounds)
    ledger = CostLedger(graph.n, prep_cost=2.0 * math.sqrt(graph.n))
    state = evolve(uniform_state(graph), coin, walk_length)
    ledger.step_count += walk_length

    marked = list(coin.marked)
    success = np.empty(rounds + 1)
    success[0] = vertex_probabilities(state, marked).sum()
    for r in range(rounds):
        flip_marked_vertices(state, marked)
        evolve(state, coin, walk_length, inverse=True)
        reflect_about_uniform(state)
        evolve(state, coin, walk_length)
        ledger.step_count += 2 * walk_length
        ledger.amplification_rounds += 1
        success[r + 1] = vertex_probabilities(state, marked).sum()
    overshoot = bool(rounds > 0 and success[-1] < success[-2] - 1e-12)
    config = {
        "graph": graph.spec.label(),
        "marked": marked,
        "walk_length": walk_length,
        "rounds": rounds,
    }
    return AmplifyResult(success, ledger, overshoot, config)


def rounds_to_quarter(gamma: float) -> int:
    """Smallest round count with sin^2((2r+1) gamma) >= 1/4."""
    if gamma <= 0:
        raise ConfigurationError("need a positive initial amplitude")
    r = 0
    while math.sin((2 * r + 1) * gamma) ** 2 < 0.25:
        r += 1
    return r


# -- two marked vertices -------------------------------------------------------


@dataclass
class TwoMarkedResult:
    trace: RunTrace
    symmetry_residual: float       # || mirror(state_t) - state_t ||, worst t
    reflection_form_deviation: float  # fast two-coin walk vs rank-one form, worst t


def _mirror_index(graph: Graph, v1: int, v2: int) -> tuple[np.ndarray, np.ndarray]:
    """Index into amps of the grid symmetry exchanging v1 and v2: point
    reflection through their midpoint combined with direction reversal (the
    reversal keeps it commuting with the flip-flop shift)."""
    spec = graph.spec
    c1 = graph.vertex_coords(v1)
    c2 = graph.vertex_coords(v2)
    sums = [a + b for a, b in zip(c1, c2)]
    vperm = np.empty(graph.n, dtype=np.int64)
    for v in range(graph.n):
        coords = graph.vertex_coords(v)
        vperm[v] = graph.vertex_index(tuple(s - c for s, c in zip(sums, coords)))
    cperm = np.empty(graph.coin_dim, dtype=np.int64)
    for axis in range(len(spec.dims)):
        cperm[2 * axis] = 2 * axis + 1
        cperm[2 * axis + 1] = 2 * axis
    return np.ix_(cperm, vperm)


def _flip_symmetric_pair(state: WalkState, v1: int, v2: int) -> None:
    # reflection about (|s,v1> + |s,v2>)/sqrt(2)
    amps = state.amps
    d = state.graph.coin_dim
    comp = (amps[:, v1].sum() + amps[:, v2].sum()) / math.sqrt(2 * d)
    amps[:, v1] -= 2.0 * comp / math.sqrt(2 * d)
    amps[:, v2] -= 2.0 * comp / math.sqrt(2 * d)


def run_two_marked(spec: GraphSpec, v1: int, v2: int, t_max: int) -> TwoMarkedResult:
    """Two-marked walk with its symmetry and reduction diagnostics.

    Tracks (a) invariance of the evolved state under the v1 <-> v2 grid
    symmetry and (b) agreement between the two-marked-coin walk and the
    walk whose marking is the single reflection about the symmetrized
    state (|s,v1> + |s,v2>)/sqrt(2).
    """
    if spec.family != "torus" or spec.shift != "flip_flop":
        raise ConfigurationError("two-marked analysis runs on flip-flop tori")
    if v1 == v2:
        raise ConfigurationError("marked vertices must differ")
    _check_count("t_max", t_max)
    graph = build_graph(spec)
    coin = default_coin(graph, marked=(v1, v2))
    unmarked = default_coin(graph)
    mirror = _mirror_index(graph, v1, v2)

    twin = uniform_state(graph)  # rank-one reflection form
    watch = _Watch(graph, coin, t_max)
    worst_sym = 0.0
    worst_dev = 0.0

    def observe(t: int, state: WalkState) -> None:
        nonlocal worst_sym, worst_dev
        watch(t, state)
        if t:
            _flip_symmetric_pair(twin, v1, v2)
            step(twin, unmarked)
        worst_sym = max(worst_sym, float(np.max(np.abs(state.amps[mirror] - state.amps))))
        worst_dev = max(worst_dev, float(np.max(np.abs(twin.amps - state.amps))))

    evolve(uniform_state(graph), coin, t_max, observe)
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

    def to_json_dict(self) -> dict:
        out = {
            "n_vertices": self.n_vertices,
            "size": self.size,
            "t_star": self.t_star,
            "p_star": self.p_star,
            "t_star_marked": self.t_star_marked,
            "p_star_marked": self.p_star_marked,
            "cap": self.cap,
        }
        if self.prediction is not None:
            out["prediction"] = self.prediction.to_json_dict()
        return out


@dataclass
class SweepResult:
    rows: list[SweepRow]
    exponent: float | None  # d log2(t_star) / d log2(N), smallest size excluded

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_json_dict() for r in self.rows],
            "fitted_exponent": self.exponent,
        }


def _default_cap(spec: GraphSpec, report: PredictionReport | None) -> int:
    """Trace window for peak hunting.

    Twice the predicted peak step count: wide enough that the crest is well
    inside, narrow enough to exclude the quasi-periodic revivals at roughly
    3x, 5x, ... the peak time, whose heights fluctuate within a few percent
    of the first crest and would otherwise capture the argmax.  The moving
    shift has no crest; it gets the lower-bound verification window.
    """
    n = spec.n_vertices
    if spec.shift == "moving" or report is None:
        return int(math.ceil(4.0 * math.sqrt(n * math.log2(n))))
    return max(10, 2 * report.peak_steps)


def sweep_point(spec: GraphSpec) -> SweepRow:
    """One sweep entry: evolve to the cap, locate peaks, attach predictions."""
    graph = build_graph(spec)
    coin = default_coin(graph, marked=(0,))
    report = None
    if spec.shift != "moving":
        report = predict(spec)
    cap = _default_cap(spec, report)
    trace = run_walk(graph, coin, cap)
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
    """Least-squares slope of log2(t_star) vs log2(N), smallest size dropped
    (finite-size transients distort it).  None when underdetermined or when
    some peak sits at t = 0 (a stalled walk has no scaling law to fit)."""
    if len(rows) < 3:
        return None
    rows = sorted(rows, key=lambda r: r.n_vertices)[1:]
    peaks = [r.t_star for r in rows]
    if any(t < 1 for t in peaks):
        return None
    xs = np.log2([r.n_vertices for r in rows])
    slope = np.polyfit(xs, np.log2(peaks), 1)[0]
    return float(slope)


def scaling_sweep(specs: list[GraphSpec]) -> SweepResult:
    """Run one sweep point per spec and fit the peak-time exponent."""
    rows = sorted(map(sweep_point, specs), key=lambda r: r.n_vertices)
    return SweepResult(rows, fit_exponent(rows))


# -- local state preparation ---------------------------------------------------


class _LocalOp:
    """One reversible layer of the local preparation circuit."""

    def __init__(self, forward, inverse):
        self.forward = forward
        self.inverse = inverse


def _rotation_layer(graph: Graph, vertices: np.ndarray, phi: float) -> _LocalOp:
    c, s = math.cos(phi), math.sin(phi)

    def fwd(amps):
        a0, a1 = amps[0, vertices].copy(), amps[1, vertices].copy()
        amps[0, vertices] = c * a0 - s * a1
        amps[1, vertices] = s * a0 + c * a1

    def inv(amps):
        a0, a1 = amps[0, vertices].copy(), amps[1, vertices].copy()
        amps[0, vertices] = c * a0 + s * a1
        amps[1, vertices] = -s * a0 + c * a1

    return _LocalOp(fwd, inv)


def _carry_layer(graph: Graph, axis: int) -> _LocalOp:
    ndim = len(graph.spec.dims)
    np_axis = ndim - 1 - axis

    def fwd(amps):
        grid = amps.reshape((graph.coin_dim,) + tuple(reversed(graph.vertex_shape)))
        grid[1] = np.roll(grid[1], 1, axis=np_axis)

    def inv(amps):
        grid = amps.reshape((graph.coin_dim,) + tuple(reversed(graph.vertex_shape)))
        grid[1] = np.roll(grid[1], -1, axis=np_axis)

    return _LocalOp(fwd, inv)


def _fanout_layer(graph: Graph) -> _LocalOp:
    d = graph.coin_dim
    e0 = np.zeros(d)
    e0[0] = 1.0
    s = np.full(d, 1.0 / math.sqrt(d))
    u = e0 - s
    u /= np.linalg.norm(u)
    house = np.eye(d) - 2.0 * np.outer(u, u)  # involution mapping e0 <-> s

    def apply(amps):
        amps[:, :] = house @ amps

    return _LocalOp(apply, apply)


def _preparation_circuit(graph: Graph) -> list[_LocalOp]:
    spec = graph.spec
    if spec.family != "torus" or len(spec.dims) != 2 or spec.coin != "grover":
        raise ConfigurationError("local preparation is implemented for 2D grover tori")
    length = spec.dims[0]
    ops: list[_LocalOp] = []
    for axis in range(2):
        for j in range(1, length):
            # frontier vertex (j-1, 0) on axis 0; whole row y = j-1 on axis 1
            remaining = math.sqrt((length - j + 1) / length)
            keep = math.sqrt(1.0 / length)
            phi = math.acos(min(1.0, keep / remaining))
            if axis == 0:
                frontier = np.array([graph.vertex_index((j - 1, 0))])
                landing = np.array([graph.vertex_index((j, 0))])
            else:
                frontier = np.array([graph.vertex_index((x, j - 1)) for x in range(length)])
                landing = np.array([graph.vertex_index((x, j)) for x in range(length)])
            ops.append(_rotation_layer(graph, frontier, phi))
            ops.append(_carry_layer(graph, axis))
            # park the carried amplitude back into coin 0 with positive sign
            ops.append(_rotation_layer(graph, landing, -math.pi / 2))
    ops.append(_fanout_layer(graph))
    return ops


def prepare_uniform_locally(graph: Graph) -> tuple[WalkState, CostLedger]:
    """Build the uniform state from a point state by local moves.

    Amplitude is spread down one row by rotate/carry/park rounds, then down
    every column in parallel, then fanned out over the coin register; the
    ledger charges the standard 2 sqrt(N) preparation units.
    """
    state = WalkState(graph, np.zeros((graph.coin_dim, graph.n), dtype=np.complex128))
    state.amps[0, 0] = 1.0
    for op in _preparation_circuit(graph):
        op.forward(state.amps)
    ledger = CostLedger(graph.n, prep_cost=2.0 * math.sqrt(graph.n))
    return state, ledger


def reflect_via_preparation(graph: Graph, state: WalkState) -> tuple[WalkState, float]:
    """I - 2|Phi0><Phi0| realized as unprepare, point flip, re-prepare.

    Equals -reflect_about_uniform (a global phase); costs 4 sqrt(N) units.
    """
    ops = _preparation_circuit(graph)
    for op in reversed(ops):
        op.inverse(state.amps)
    state.amps[0, 0] *= -1.0
    for op in ops:
        op.forward(state.amps)
    return state, 4.0 * math.sqrt(graph.n)
