"""Experiment harness: traces, peaks, amplification, sweeps, prep."""

import math
import tracemalloc

import numpy as np
import pytest

import walklab.engine
import walklab.runner
from walklab import (ConfigurationError, RunTrace, amplify, build_graph,
                     complete_spec, default_coin, dense_unitary, find_peak, fit_exponent,
                     hypercube_spec, predict, reflect_about, run_two_marked,
                     run_walk, scaling_sweep, step, sweep_point, torus_spec,
                     uniform_state, vertex_probabilities)

from helpers import (neighborhood_probability, prepare_uniform_locally, random_state,
                     reflect_via_preparation, rounds_to_quarter)


def test_unmarked_trace_is_flat():
    g = build_graph(torus_spec(4))
    trace = run_walk(g, default_coin(g), 30)
    assert np.allclose(trace.p_marked, 1 / 16, atol=1e-12)
    assert np.allclose(trace.norm, 1.0, atol=1e-12)


def test_trace_starts_uniform():
    g = build_graph(torus_spec(8))
    trace = run_walk(g, default_coin(g, marked=(5,)), 10)
    assert trace.p_marked[0] == pytest.approx(1 / 64, abs=1e-12)


@pytest.mark.parametrize("spec", [torus_spec(6), torus_spec(6, shift="dirac"),
                                  hypercube_spec(5), complete_spec(12)],
                         ids=lambda s: s.label())
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
    t = np.arange(len(p))
    return RunTrace(t, p, p, np.ones_like(p), {})


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
    u = dense_unitary(g, coin).matrix
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


# -- two marked -------------------------------------------------------------


def test_two_marked_symmetry_and_reduction():
    res = run_two_marked(torus_spec(8), 0, build_graph(torus_spec(8)).vertex_index((3, 5)), 200)
    assert res.symmetry_residual < 1e-10
    assert res.reflection_form_deviation < 1e-10
    assert res.trace.p_marked[0] == pytest.approx(2 / 64, abs=1e-12)


def test_two_marked_rejects_same_vertex():
    with pytest.raises(ConfigurationError):
        run_two_marked(torus_spec(8), 3, 3, 10)


# -- sweeps -------------------------------------------------------------------


def test_scaling_sweep_2d_exponent():
    result = scaling_sweep([torus_spec(side) for side in (8, 16, 32)])
    assert len(result.rows) == 3
    assert result.rows[0].n_vertices == 64
    assert result.exponent is not None


def test_fit_exponent_drops_smallest_by_default():
    rows = [sweep_point(torus_spec(side)) for side in (8, 16, 32, 64)]
    with_drop = fit_exponent(rows)
    without = np.polyfit(np.log2([r.n_vertices for r in rows]),
                         np.log2([r.t_star for r in rows]), 1)[0]
    assert with_drop != pytest.approx(without)


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


STEP_LOOP_ARENAS = [torus_spec(8), torus_spec(8, shift="moving"),
                    torus_spec(8, shift="dirac"), torus_spec(4, 3),
                    hypercube_spec(5), complete_spec(16)]
ENGINE_KERNELS = ("apply_coin", "apply_shift", "vertex_probabilities")


@pytest.mark.parametrize("spec", STEP_LOOP_ARENAS, ids=lambda s: s.label())
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


@pytest.mark.parametrize("spec", STEP_LOOP_ARENAS, ids=lambda s: s.label())
def test_step_loop_never_reaches_blas(spec, monkeypatch):
    # a BLAS reduction splits its sum over threads, so its bits depend on
    # the thread count; the traces must not
    g = build_graph(spec)
    coin = default_coin(g, marked=(1,))
    probe = random_state(g, seed=3)

    def blas(*args, **kwargs):
        raise AssertionError("the step loop called a BLAS routine")

    monkeypatch.setattr(np, "vdot", blas)
    monkeypatch.setattr(np, "dot", blas)
    monkeypatch.setattr(np.linalg, "norm", blas)
    run_walk(g, coin, 12)
    amplify(g, coin, 6, 2)
    uniform_state(g).check_normalized()
    probe.check_normalized()


@pytest.mark.parametrize("spec", [torus_spec(128), torus_spec(24, 3), hypercube_spec(13)],
                         ids=lambda s: s.label())
def test_flip_flop_run_holds_one_state_sized_array(spec):
    # the flip-flop shift is owed, not copied, so no spare state is made;
    # the two scratch rows are a fraction of the state (coin_dim > 2 here),
    # and numpy's 64 KiB ufunc buffers a small one at these sizes
    g = build_graph(spec)
    coin = default_coin(g, marked=(3,))
    state_bytes = 8 * g.coin_dim * g.n
    tracemalloc.start()
    try:
        run_walk(g, coin, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state_bytes <= peak < 2 * state_bytes
