"""State evolution: coins, shifts, steps, reflections, and measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import (CoinConfig, ConfigurationError, WalkState, apply_coin,
                     apply_shift, build_graph, complete_spec, default_coin,
                     dense_unitary, evolve_dense, hypercube_spec, load_state,
                     marked_coin_state, neighborhood_probability, overlap,
                     reflect_about_uniform, save_state, step, torus_spec,
                     uniform_state, unstep, vertex_probabilities)

from helpers import random_state

ALL_FAMILIES = [torus_spec(4), torus_spec(4, shift="moving"),
                torus_spec(4, shift="dirac"), torus_spec(3, 3),
                hypercube_spec(4), complete_spec(8)]


def test_uniform_state_values():
    g = build_graph(torus_spec(2))
    st_ = uniform_state(g)
    assert np.allclose(st_.amps, 0.25)
    assert abs(st_.norm() - 1) < 1e-15


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_uniform_state_is_fixed_point(spec):
    g = build_graph(spec)
    state = uniform_state(g)
    coin = default_coin(g)
    for _ in range(20):
        step(state, coin)
    assert np.max(np.abs(state.amps - uniform_state(g).amps)) < 1e-12


def test_grover_coin_on_basis_block():
    g = build_graph(torus_spec(4))
    state = WalkState(g, np.zeros((4, 16), dtype=complex))
    state.amps[0, 5] = 1.0
    apply_coin(state, CoinConfig())
    assert np.allclose(state.amps[:, 5], [-0.5, 0.5, 0.5, 0.5])


def test_grover_coin_fixes_uniform_block():
    g = build_graph(torus_spec(4))
    state = WalkState(g, np.zeros((4, 16), dtype=complex))
    state.amps[:, 3] = 0.5
    apply_coin(state, CoinConfig())
    assert np.allclose(state.amps[:, 3], 0.5)


def test_marking_negates_block():
    g = build_graph(torus_spec(4))
    rng = np.random.default_rng(3)
    block = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = WalkState(g, np.zeros((4, 16), dtype=complex))
    state.amps[:, 7] = block
    apply_coin(state, CoinConfig(marked=(7,)))
    assert np.allclose(state.amps[:, 7], -block)


def test_shift_moves_delta():
    g = build_graph(torus_spec(4))
    state = WalkState(g, np.zeros((4, 16), dtype=complex))
    state.amps[0, g.vertex_index((0, 0))] = 1.0
    apply_shift(state)
    expected = np.zeros((4, 16), dtype=complex)
    expected[1, g.vertex_index((1, 0))] = 1.0
    assert np.array_equal(state.amps, expected)


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_step_preserves_norm(spec):
    g = build_graph(spec)
    state = random_state(g, seed=1)
    coin = default_coin(g, marked=(2,))
    for _ in range(25):
        step(state, coin)
    assert abs(state.norm() - 1.0) < 1e-12


def test_flip_flop_shift_involution_on_states():
    g = build_graph(torus_spec(6))
    state = random_state(g, seed=2)
    ref = state.amps.copy()
    apply_shift(apply_shift(state))
    assert np.max(np.abs(state.amps - ref)) < 1e-15


PERMUTATION_FAMILIES = [torus_spec(2), torus_spec(5), torus_spec(6, 1),
                        torus_spec(4, shift="moving"), torus_spec(3, 3, shift="moving"),
                        torus_spec(2, 3), hypercube_spec(1), hypercube_spec(5),
                        complete_spec(2), complete_spec(40)]


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("spec", PERMUTATION_FAMILIES, ids=lambda s: s.label())
def test_shift_equals_shift_permutation(spec, inverse):
    g = build_graph(spec)
    perm = g.shift_permutation()  # p[c*N+v] = c'*N+v', from the per-edge rule
    state = random_state(g, seed=11)
    before = state.vector.copy()
    apply_shift(state, inverse=inverse)
    if inverse:
        expected = before[perm]
    else:
        expected = np.empty_like(before)
        expected[perm] = before
    assert np.array_equal(state.vector, expected)


def _dirac_shift_by_rolls(amps, side, inverse):
    """The dirac half-moves written with np.roll, as a reference."""
    grid = amps.reshape(2, side, side).copy()
    sign = -1 if inverse else 1

    def move_y():
        grid[0] = np.roll(grid[0], -sign, axis=0)
        grid[1] = np.roll(grid[1], sign, axis=0)

    def move_x():
        left = np.roll((grid[0] + grid[1]) / np.sqrt(2.0), -sign, axis=1)
        right = np.roll((grid[0] - grid[1]) / np.sqrt(2.0), sign, axis=1)
        grid[0] = (left + right) / np.sqrt(2.0)
        grid[1] = (left - right) / np.sqrt(2.0)

    for move in ((move_x, move_y) if inverse else (move_y, move_x)):
        move()
    return grid.reshape(2, side * side)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("side", [2, 3, 7])
def test_dirac_shift_matches_roll_reference(side, inverse):
    g = build_graph(torus_spec(side, shift="dirac"))
    state = random_state(g, seed=side)
    expected = _dirac_shift_by_rolls(state.amps, side, inverse)
    apply_shift(state, inverse=inverse)
    assert np.array_equal(state.amps, expected)


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_copy_does_not_follow_the_original(spec):
    g = build_graph(spec)
    coin = default_coin(g, marked=(1,))
    state = random_state(g, seed=12)
    twin = state.copy()
    ref = state.amps.copy()
    for _ in range(3):
        step(state, coin)
    assert np.array_equal(twin.amps, ref)
    for _ in range(3):
        step(twin, coin)
    assert np.array_equal(twin.amps, state.amps)


@pytest.mark.parametrize("spec", ALL_FAMILIES + [hypercube_spec(10), complete_spec(40)])
def test_vertex_probabilities_on_a_subset_is_exact(spec):
    g = build_graph(spec)
    state = random_state(g, seed=13)
    full = vertex_probabilities(state)
    for vs in [[v] for v in range(g.n)] + [[g.n - 1, 2], list(range(0, g.n, 3)),
                                            list(range(g.n))]:
        assert np.array_equal(vertex_probabilities(state, vs), full[vs])


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_unstep_inverts_step(spec):
    g = build_graph(spec)
    state = random_state(g, seed=4)
    ref = state.amps.copy()
    coin = default_coin(g, marked=(1,))
    unstep(step(state, coin), coin)
    assert np.max(np.abs(state.amps - ref)) < 1e-12


def test_reflect_about_uniform():
    g = build_graph(torus_spec(4))
    phi0 = uniform_state(g)
    reflect_about_uniform(phi0)
    assert np.allclose(phi0.amps, uniform_state(g).amps)

    perp = random_state(g, seed=5)
    c = overlap(uniform_state(g), perp)
    perp.amps -= c * uniform_state(g).amps
    perp.amps /= np.linalg.norm(perp.amps)
    ref = perp.amps.copy()
    reflect_about_uniform(perp)
    assert np.max(np.abs(perp.amps + ref)) < 1e-12

    anything = random_state(g, seed=6)
    ref = anything.amps.copy()
    reflect_about_uniform(reflect_about_uniform(anything))
    assert np.max(np.abs(anything.amps - ref)) < 1e-12


def test_complete_graph_two_steps_equal_grover_iterate():
    n = 4
    g = build_graph(complete_spec(n))
    coin = default_coin(g, marked=(2,))
    state = uniform_state(g)
    step(state, coin)
    step(state, coin)
    s = np.full(n, 1 / np.sqrt(n))
    rv = s.copy()
    rv[2] *= -1
    grover = 2 * s * (s @ rv) - rv  # one reflection-about-mean after the flip
    assert np.max(np.abs(vertex_probabilities(state) - grover ** 2)) < 1e-10


def test_measure_probabilities():
    g = build_graph(torus_spec(4))
    state = uniform_state(g)
    p = vertex_probabilities(state, range(g.n))
    p_nb = np.array([neighborhood_probability(state, [v]) for v in range(g.n)])
    assert np.allclose(p, 1 / 16)
    assert np.allclose(p_nb, 5 / 16)
    assert abs(p.sum() - 1) < 1e-9


def test_peak_neighborhood_probability_exceeds_uniform():
    # frozen from the dense-validated evolution: 2D side 8, marked origin
    g = build_graph(torus_spec(8))
    coin = default_coin(g, marked=(0,))
    state = uniform_state(g)
    for _ in range(11):
        step(state, coin)
    p_nb = neighborhood_probability(state, [0])
    assert p_nb == pytest.approx(0.7383, abs=2e-4)
    assert p_nb > 10 / g.n


def test_overlap_values():
    g = build_graph(torus_spec(4))
    assert overlap(uniform_state(g), uniform_state(g)) == pytest.approx(1.0)
    sv = marked_coin_state(g, 0)
    assert overlap(uniform_state(g), sv) == pytest.approx(1 / 4)
    a = WalkState(g, np.zeros((4, 16), dtype=complex))
    b = WalkState(g, np.zeros((4, 16), dtype=complex))
    a.amps[0, 0] = 1
    b.amps[1, 0] = 1
    assert overlap(a, b) == 0


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_fast_step_matches_dense_powers(spec):
    g = build_graph(spec)
    coin = default_coin(g, marked=(1,))
    op = dense_unitary(g, coin)
    state = uniform_state(g)
    history = evolve_dense(op, state.vector.copy(), 50)
    worst = 0.0
    for t in range(50):
        step(state, coin)
        worst = max(worst, np.max(np.abs(state.vector - history[t + 1])))
    assert worst < 1e-10


def test_translation_covariance():
    spec = torus_spec(6)
    g = build_graph(spec)
    offset = (2, 5)
    shifted_vertex = g.translate(0, offset)
    a = uniform_state(g)
    b = uniform_state(g)
    ca = default_coin(g, marked=(0,))
    cb = default_coin(g, marked=(shifted_vertex,))
    for _ in range(40):
        step(a, ca)
        step(b, cb)
    translated = np.empty_like(a.amps)
    for v in range(g.n):
        translated[:, g.translate(v, offset)] = a.amps[:, v]
    assert np.max(np.abs(translated - b.amps)) < 1e-12


@given(seed=st.integers(0, 2 ** 31), spec_i=st.integers(0, len(ALL_FAMILIES) - 1))
@settings(max_examples=25, deadline=None)
def test_step_unitary_on_random_states(seed, spec_i):
    g = build_graph(ALL_FAMILIES[spec_i])
    state = random_state(g, seed=seed)
    coin = default_coin(g, marked=(0,))
    step(state, coin)
    assert abs(state.norm() - 1.0) < 1e-12


def test_marking_validation():
    gt = build_graph(torus_spec(4))
    with pytest.raises(ConfigurationError):
        CoinConfig(marked=(99,)).validate_for(gt)


def test_state_serialization_roundtrip(tmp_path):
    g = build_graph(torus_spec(5, shift="dirac"))
    state = random_state(g, seed=9)
    path = tmp_path / "state.bin"
    save_state(state, path)
    loaded = load_state(g, path)
    assert np.array_equal(loaded.amps, state.amps)
    other = build_graph(torus_spec(4))
    with pytest.raises(ValueError):
        load_state(other, path)


def test_check_normalized():
    g = build_graph(torus_spec(4))
    uniform_state(g).check_normalized()
    bad = WalkState(g, np.full((4, 16), 0.3, dtype=complex))
    with pytest.raises(ValueError, match="norm"):
        bad.check_normalized()


def test_neighborhood_probability_union_semantics():
    from walklab import neighborhood_probability
    g = build_graph(torus_spec(4))
    state = uniform_state(g)
    # adjacent marked pair: closed neighborhoods overlap, union counts once
    value = neighborhood_probability(state, [0, 1])
    union = {0, 1}
    for v in (0, 1):
        union.update(int(u) for u in g.neighbors(v))
    assert value == pytest.approx(len(union) / 16, abs=1e-12)


@pytest.mark.parametrize("change", [-24, 16])
def test_load_state_rejects_wrong_payload_length(tmp_path, change):
    g = build_graph(torus_spec(4))
    path = tmp_path / "state.bin"
    save_state(random_state(g, seed=14), path)
    data = path.read_bytes()
    path.write_bytes(data[:change] if change < 0 else data + b"\x00" * change)
    expected, actual = 16 * g.coin_dim * g.n, len(data) - 16 + change
    with pytest.raises(ValueError, match=f"payload is {actual} bytes.*needs {expected}"):
        load_state(g, path)


def test_load_state_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAWALK" + b"\x00" * 24)
    with pytest.raises(ValueError, match="state file"):
        load_state(build_graph(torus_spec(4)), path)
