"""Experiment harness: traces, peaks, amplification, sweeps, prep."""

import json
import math
import re

import numpy as np
import pytest

import walklab.engine
import walklab.runner
from walklab import (ConfigurationError, GraphSpec, RunTrace, amplify, build_graph,
                     complete_spec, default_coin, dense_unitary, find_peak, fit_exponent,
                     hypercube_spec, reflect_about, run_two_marked,
                     run_walk, step, sweep_point, torus_spec,
                     uniform_state, vertex_probabilities)
from walklab.cli import main
from walklab.engine import squared_norm

from helpers import (arenas, dense, neighborhood_probability, prepare_uniform_locally,
                     random_state, reflect_via_preparation, rounds_to_quarter, traced_peak)


def test_unmarked_trace_is_flat():
    g = build_graph(torus_spec(4))
    trace = run_walk(g, default_coin(g), 30)
    assert np.allclose(trace.p_marked, 1 / 16, atol=1e-12)
    assert np.allclose(trace.norm, 1.0, atol=1e-12)


def test_dirac_walk_holds_its_norm():
    # the dirac step rounds through no sqrt(2): its halves and its negated
    # swap are exact, so only the butterflies' sums round
    for side, t_max in ((16, 200), (64, 400)):
        g = build_graph(torus_spec(side, shift="dirac"))
        for marked in ((3,), (3, g.n // 2 + 5)):
            trace = run_walk(g, default_coin(g, marked=marked), t_max)
            assert np.max(np.abs(trace.norm - 1.0)) <= 1e-14, (side, marked)


def test_trace_starts_uniform():
    g = build_graph(torus_spec(8))
    trace = run_walk(g, default_coin(g, marked=(5,)), 10)
    assert trace.p_marked[0] == pytest.approx(1 / 64, abs=1e-12)


@pytest.mark.parametrize("spec", arenas("trace"), ids=GraphSpec.label)
def test_trace_matches_stepwise_measurement(spec):
    g = build_graph(spec)
    coin = default_coin(g, marked=(2, 3))
    trace = run_walk(g, coin, 12)
    state = uniform_state(g)
    for t in range(13):
        if t:
            step(state, coin)
        p = vertex_probabilities(state)
        assert trace.p_marked[t] == p[[2, 3]].sum()
        assert trace.p_nbhd[t] == pytest.approx(neighborhood_probability(state, [2, 3]),
                                                abs=1e-14)
        assert trace.norm[t] == pytest.approx(math.sqrt(p.sum()), abs=1e-14)


def _synthetic_trace(p):
    p = np.asarray(p, dtype=float)
    return RunTrace(p, p, np.ones_like(p))


def test_find_peak_monotone_and_constant():
    rising = _synthetic_trace(np.linspace(0, 1, 11))
    assert find_peak(rising).t_star == 10
    flat = _synthetic_trace(np.full(11, 0.25))
    assert find_peak(flat).t_star == 0  # earliest tie wins


def test_find_peak_ignores_rounding_level_ties():
    # the complete graph's p_nbhd: 1 at every step up to rounding
    noisy = _synthetic_trace(1.0 + np.array([-3e-13, 1e-13, 4e-13, 2e-13, -1e-13]))
    peak = find_peak(noisy)
    assert (peak.t_star, peak.t_star_marked) == (0, 0)
    assert peak.p_star == noisy.p_nbhd[0]
    # a real crest, above the tolerance, still wins
    assert find_peak(_synthetic_trace([0.5, 0.5 + 1e-6, 0.5])).t_star == 1


def test_peak_inside_bracket_L16():
    spec = torus_spec(16)
    row = sweep_point(spec)
    lo, hi = row.prediction.t_bracket
    assert lo / 2 <= row.t_star <= 2 * hi


def test_peak_tracks_predicted_half_rotation():
    for spec in (torus_spec(16), torus_spec(8, 3)):
        row = sweep_point(spec)
        peak = row.prediction.peak_steps
        assert peak / 2 <= row.t_star <= 2 * peak
        assert row.prediction.t_star / 2 <= row.t_star  # quarter-turn lower bound
        ratio = row.p_star_marked / row.prediction.predicted_peak_probability
        assert 0.25 < ratio < 4.0


def test_side16_argmax_within_quarter_turn_factor_two():
    row = sweep_point(torus_spec(16))
    t_star_pred = row.prediction.t_star
    assert t_star_pred / 2 <= row.t_star <= 2 * t_star_pred


# -- amplification ---------------------------------------------------------


def test_amplify_zero_rounds_equals_run_walk():
    g = build_graph(torus_spec(8))
    coin = default_coin(g, marked=(0,))
    result = amplify(g, coin, 11, 0)
    trace = run_walk(g, coin, 11)
    assert result.success[0] == pytest.approx(trace.p_marked[-1], abs=1e-12)
    assert result.ledger.step_count == 11
    assert result.ledger.amplification_rounds == 0


def test_amplify_follows_sin_squared_law():
    # with a 1-step inner walk the complete graph reduces to plain
    # amplitude amplification at angle asin(1/sqrt(N))
    n = 64
    g = build_graph(complete_spec(n))
    coin = default_coin(g, marked=(7,))
    result = amplify(g, coin, 1, 5)
    gamma = math.asin(1 / math.sqrt(n))
    for r, value in enumerate(result.success):
        assert value == pytest.approx(math.sin((2 * r + 1) * gamma) ** 2, abs=1e-6)


def test_amplify_reaches_quarter_and_ledger_scales():
    worst_c = 0.0
    for side in (16, 32):
        spec = torus_spec(side)
        g = build_graph(spec)
        row = sweep_point(spec)
        gamma = math.asin(math.sqrt(row.p_star_marked))
        rounds = rounds_to_quarter(gamma)
        assert rounds <= math.ceil(math.sqrt(math.log2(g.n)))
        result = amplify(g, default_coin(g, marked=(0,)), row.t_star_marked, rounds)
        assert result.success[-1] >= 0.25
        worst_c = max(worst_c, result.ledger.total / (math.sqrt(g.n) * math.log2(g.n)))
    assert worst_c < 2.0


def test_ledger_arithmetic():
    g = build_graph(torus_spec(16))
    result = amplify(g, default_coin(g, marked=(0,)), 20, 3)
    ledger = result.ledger
    assert ledger.step_count == 20 + 3 * 40
    assert ledger.prep_cost == 2 * 16
    assert ledger.reflection_cost == 3 * 4 * 16
    assert ledger.total == ledger.prep_cost + ledger.step_count + ledger.reflection_cost


# walk length 5 leaves the complete graph's amplified state held transposed,
# while the walked copy it is reflected about is C-ordered
AMPLIFY_ARENAS = [(torus_spec(4), (1, 6), 6), (torus_spec(3, 3), (1, 13), 6),
                  (torus_spec(4, shift="moving"), (1, 6), 6),
                  (torus_spec(4, shift="dirac"), (1, 6), 6),
                  (hypercube_spec(4), (1,), 6), (complete_spec(8), (1,), 6),
                  (complete_spec(8), (1,), 5)]


@pytest.mark.parametrize("spec, marked, walk_length", AMPLIFY_ARENAS,
                         ids=[spec.label() + ("" if length == 6 else f"-length{length}")
                              for spec, _, length in AMPLIFY_ARENAS])
def test_amplify_matches_dense_route(spec, marked, walk_length, monkeypatch):
    # the algorithm's rounds, as dense matrices: flip, undo the walk with the
    # transpose, reflect about the uniform state, redo the walk
    g = build_graph(spec)
    coin = default_coin(g, marked=marked)
    u = dense(dense_unitary(g, coin))
    uniform = uniform_state(g).vector
    flip = np.ones((g.coin_dim, g.n))
    flip[:, list(marked)] = -1.0
    rounds = 3

    def walk(vec, matrix):
        for _ in range(walk_length):
            vec = matrix @ vec
        return vec

    def p_marked(vec):
        return float(np.sum(vec.reshape(g.coin_dim, g.n)[:, list(marked)] ** 2))

    psi = walk(uniform, u)
    expected = [p_marked(psi)]
    for _ in range(rounds):
        psi = walk(flip.reshape(-1) * psi, u.T)
        psi = walk(2.0 * (uniform @ psi) * uniform - psi, u)
        expected.append(p_marked(psi))

    steps = []
    monkeypatch.setattr(walklab.runner, "step",
                        lambda state, c: steps.append(1) or step(state, c))
    result = amplify(g, coin, walk_length, rounds)
    np.testing.assert_allclose(result.success, expected, rtol=0, atol=1e-12)
    assert len(steps) == walk_length  # the simulation walks once
    assert result.ledger.step_count == walk_length * (1 + 2 * rounds)


def test_amplify_flags_overshoot():
    n = 64
    g = build_graph(complete_spec(n))
    result = amplify(g, default_coin(g, marked=(0,)), 1, 9)  # past the crest
    assert result.overshoot


def test_amplify_rejects_an_empty_marked_set():
    with pytest.raises(ConfigurationError, match="amplification needs a marked set"):
        amplify(build_graph(torus_spec(4)), (), 5, 1)


# -- two marked -------------------------------------------------------------


@pytest.mark.parametrize("side", [2, 3, 8])
def test_two_marked_symmetry_and_reduction(side):
    # on side 2 the two senses of an axis share a target, and the lift keeps the label
    graph = build_graph(torus_spec(side))
    res = run_two_marked(graph, 0, graph.vertex_index((3, 5)), 200)
    assert res.symmetry_residual < 1e-10
    assert res.reflection_form_deviation < 1e-10
    assert res.trace.p_marked[0] == pytest.approx(2 / graph.n, abs=1e-12)


def test_two_marked_rejects_same_vertex():
    with pytest.raises(ConfigurationError):
        run_two_marked(build_graph(torus_spec(8)), 3, 3, 10)


def test_two_marked_rejects_other_shifts():
    with pytest.raises(ConfigurationError, match="two-marked analysis runs on flip-flop tori"):
        run_two_marked(build_graph(torus_spec(4, shift="moving")), 0, 5, 3)


# -- sweeps -------------------------------------------------------------------


def test_scaling_sweep_2d_exponent(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--sides", "32,8,16", "--out", str(out)]) == 0
    sweep = json.loads(out.read_text())["sweep"]
    assert [row["n_vertices"] for row in sweep["rows"]] == [64, 256, 1024]
    assert sweep["fitted_exponent"] is not None


def test_fit_exponent_drops_smallest_by_default():
    rows = [sweep_point(torus_spec(side)) for side in (8, 16, 32, 64)]
    with_drop = fit_exponent(rows)
    without = np.polyfit(np.log2([r.n_vertices for r in rows]),
                         np.log2([r.t_star for r in rows]), 1)[0]
    assert with_drop != pytest.approx(without)


def test_fit_exponent_needs_two_distinct_sizes_past_the_smallest():
    # the rows of the smallest N are dropped; one N left gives no slope,
    # where a fit would be rank-deficient
    small, large = sweep_point(torus_spec(4)), sweep_point(torus_spec(8))
    for rows in ([small] * 3, [small, large, large], [small, small, large], []):
        assert fit_exponent(rows) is None


def test_moving_sweep_stays_flat():
    spec = torus_spec(16, shift="moving")
    row = sweep_point(spec)
    assert row.prediction is None
    assert row.p_star_marked < 20 / row.n_vertices


# -- local preparation ---------------------------------------------------------


@pytest.mark.parametrize("side", [4, 8, 16])
def test_prepare_uniform_locally(side):
    g = build_graph(torus_spec(side))
    state, ledger = prepare_uniform_locally(g)
    assert np.max(np.abs(state.amps - uniform_state(g).amps)) < 1e-12
    assert ledger.prep_cost == 2 * math.sqrt(g.n)


def test_reflection_via_preparation_matches_direct():
    g = build_graph(torus_spec(8))
    state = random_state(g, seed=11)
    twin = state.copy()
    state, cost = reflect_via_preparation(g, state)
    reflect_about(twin, uniform_state(g))
    # the prepared route realizes the same reflection up to a global sign
    assert np.max(np.abs(state.amps + twin.amps)) < 1e-10
    assert cost == 4 * math.sqrt(g.n)


def test_prepare_rejects_other_arenas():
    with pytest.raises(ConfigurationError):
        prepare_uniform_locally(build_graph(torus_spec(4, 3)))


# -- the step loop -------------------------------------------------------------


ENGINE_KERNELS = ("apply_coin", "apply_shift", "vertex_probabilities")


@pytest.mark.parametrize("spec", arenas("loop"), ids=GraphSpec.label)
def test_each_step_goes_through_the_engine_kernels(spec, monkeypatch):
    # perfbench's trace wraps these module attributes and divides each
    # kernel's time by its call count, so a step that fuses or bypasses
    # them would leave it nothing to divide by
    g = build_graph(spec)
    calls = dict.fromkeys(ENGINE_KERNELS, 0)
    for name in ENGINE_KERNELS:
        kernel = getattr(walklab.engine, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        for module in (walklab, walklab.engine, walklab.runner):
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counted)
    t_max = 7
    run_walk(g, default_coin(g, marked=(1,)), t_max)
    assert calls == {"apply_coin": t_max, "apply_shift": t_max,
                     "vertex_probabilities": t_max + 1}


@pytest.mark.parametrize("spec", arenas("loop"), ids=GraphSpec.label)
def test_step_loop_never_reaches_blas(spec, monkeypatch):
    # a BLAS reduction splits its sum over threads, so its bits depend on
    # the thread count; the traces must not.  A two-thread dot sums a norm
    # several times faster than einsum, so every numpy entry to one is shut
    g = build_graph(spec)
    coin = default_coin(g, marked=(1,))
    probe = random_state(g, seed=3)

    def blas(*args, **kwargs):
        raise AssertionError("the step loop called a BLAS routine")

    for module, name in [(np, "vdot"), (np, "dot"), (np, "inner"), (np, "vecdot"),
                         (np, "tensordot"), (np, "matmul"), (np.linalg, "vecdot"),
                         (np.linalg, "norm")]:
        # vecdot is numpy 2's; on an older numpy nothing can call it
        monkeypatch.setattr(module, name, blas, raising=False)
    run_walk(g, coin, 12)
    amplify(g, coin, 6, 2)
    for state in (uniform_state(g), probe):
        assert abs(math.sqrt(squared_norm(state)) - 1.0) < 1e-9


@pytest.mark.parametrize("spec", arenas("memory"), ids=GraphSpec.label)
def test_walks_hold_the_state_and_its_rows(spec):
    # no spare state: run_walk holds the state, the vertex rows it steps
    # through, its move plans and numpy's 64 KiB ufunc buffers; amplify adds
    # the walked copy, and its odd walk length ends owing a flip-flop shift,
    # which the state pays in place before it is copied
    g = build_graph(spec)
    state_bytes = 8 * g.coin_dim * g.n
    peak = traced_peak(lambda: run_walk(g, default_coin(g, marked=(3,)), 9))
    assert state_bytes <= peak < 2 * state_bytes
    coin = default_coin(g, marked=(3,))
    for walk_length in (30, 31):
        peak = traced_peak(lambda: amplify(g, coin, walk_length, 3))
        assert peak < 3 * state_bytes, walk_length


def test_hypercube_run_holds_its_state_and_one_vertex_row():
    # the owed coin reads each hypercube row through a view of its flipped
    # bit, so only the column sums take a vertex row; at smaller degrees
    # numpy's 64 KiB ufunc buffers would swamp the row
    g = build_graph(hypercube_spec(16))
    row_bytes = 8 * g.n
    state_bytes = g.coin_dim * row_bytes
    peak = traced_peak(lambda: run_walk(g, default_coin(g, marked=(3,)), 9))
    assert state_bytes + row_bytes <= peak < state_bytes + 1.5 * row_bytes


COPYING_SHIFT_RUNS = [(torus_spec(128, shift="moving"), (1.0, 1.5)),
                      (torus_spec(256, shift="dirac"), (2.0, 2.25))]


@pytest.mark.parametrize("spec, bounds", COPYING_SHIFT_RUNS,
                         ids=[spec.label() for spec, _ in COPYING_SHIFT_RUNS])
def test_copying_shift_run_holds_the_state_and_its_spare(spec, bounds):
    # the moving and dirac shifts no longer copy through a spare state: the
    # moving shift copies one row into the state's first vertex row, and
    # dirac's butterfly takes two vertex rows, a whole state at coin_dim 2
    g = build_graph(spec)
    peak = traced_peak(lambda: run_walk(g, default_coin(g, marked=(3,)), 9))
    assert bounds[0] * 8 * g.coin_dim * g.n <= peak < bounds[1] * 8 * g.coin_dim * g.n


@pytest.mark.parametrize("shift, bound", [("moving", 2.5), ("dirac", 3.2)], ids=str)
def test_amplify_on_copying_shifts_reflects_in_the_spare_row(shift, bound):
    # the state, its vertex rows and the walked copy: reflect_about forms its
    # rows in the first vertex row, which is free between steps
    g = build_graph(torus_spec(64, shift=shift))
    coin = default_coin(g, marked=(3,))
    for walk_length in (30, 31):
        peak = traced_peak(lambda: amplify(g, coin, walk_length, 3))
        assert peak < bound * 8 * g.coin_dim * g.n, walk_length


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
def test_a_count_that_is_no_integer_is_refused(value):
    # a step or round count is an integer: True does not run one step, and
    # 2.0 does not escape as a bare TypeError
    g = build_graph(torus_spec(4))
    for entry in (lambda: run_walk(g, (1,), value), lambda: amplify(g, (1,), value, 1),
                  lambda: amplify(g, (1,), 2, value),
                  lambda: run_two_marked(g, 0, 5, value)):
        with pytest.raises(ConfigurationError, match=re.escape(repr(value))):
            entry()
