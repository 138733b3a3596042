"""State evolution: coins, shifts, steps, reflections, and measurement."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import (ConfigurationError, GraphSpec, WalkState, amplify, apply_coin,
                     apply_shift, build_graph, complete_spec, default_coin,
                     dense_unitary, evolve_dense, reflect_about, run_walk, step, torus_spec,
                     uniform_state, vertex_probabilities)
from walklab.engine import _apply, _pay_shift, _vertex_index, squared_norm

from helpers import (arenas, load_state, marked_coin_state, neighborhood_probability,
                     random_state, save_state, translate)


def real_random_state(graph, seed=0) -> WalkState:
    amps = np.random.default_rng(seed).normal(size=(graph.coin_dim, graph.n))
    return WalkState(graph, amps / math.sqrt(math.fsum(amps.ravel() ** 2)))


def as_complex(state: WalkState) -> WalkState:
    return WalkState(state.graph, state.amps.astype(np.complex128))


def test_uniform_state_values():
    g = build_graph(torus_spec(2))
    st_ = uniform_state(g)
    assert np.allclose(st_.amps, 0.25)
    assert abs(math.sqrt(squared_norm(st_)) - 1) < 1e-15


def test_state_of_the_wrong_shape_rejected():
    g = build_graph(torus_spec(4))
    with pytest.raises(ValueError, match=r"amplitude array must have shape \(4, 16\)"):
        WalkState(g, np.zeros((3, g.n)))


@pytest.mark.parametrize("spec", arenas("small"))
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
    apply_coin(state, ())
    assert np.allclose(state.amps[:, 5], [-0.5, 0.5, 0.5, 0.5])


def test_grover_coin_fixes_uniform_block():
    g = build_graph(torus_spec(4))
    state = WalkState(g, np.zeros((4, 16), dtype=complex))
    state.amps[:, 3] = 0.5
    apply_coin(state, ())
    assert np.allclose(state.amps[:, 3], 0.5)


def test_marking_negates_block():
    g = build_graph(torus_spec(4))
    rng = np.random.default_rng(3)
    block = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = WalkState(g, np.zeros((4, 16), dtype=complex))
    state.amps[:, 7] = block
    apply_coin(state, (7,))
    assert np.allclose(state.amps[:, 7], -block)


def test_shift_moves_delta():
    g = build_graph(torus_spec(4))
    state = WalkState(g, np.zeros((4, 16), dtype=complex))
    state.amps[0, g.vertex_index((0, 0))] = 1.0
    apply_shift(state)
    expected = np.zeros((4, 16), dtype=complex)
    expected[1, g.vertex_index((1, 0))] = 1.0
    assert np.array_equal(state.amps, expected)


@pytest.mark.parametrize("spec", arenas("small"))
def test_step_preserves_norm(spec):
    g = build_graph(spec)
    state = random_state(g, seed=1)
    coin = default_coin(g, marked=(2,))
    for _ in range(25):
        step(state, coin)
    assert abs(math.sqrt(squared_norm(state)) - 1.0) < 1e-12


def test_flip_flop_shift_involution_on_states():
    g = build_graph(torus_spec(6))
    state = random_state(g, seed=2)
    ref = state.amps.copy()
    apply_shift(apply_shift(state))
    assert np.max(np.abs(state.amps - ref)) < 1e-15


def _start_states(g, seed):
    real = real_random_state(g, seed)
    real.amps[:, ::3] = -0.0  # np.sum's start from +0.0 shows in the signs of zeros
    return real, as_complex(real)


# "-False" in the ids keeps the case names from when apply_shift had an
# inverse flag
@pytest.mark.parametrize("spec", arenas("moves", shift=("flip_flop", "moving", "swap")),
                         ids=lambda s: f"{s.label()}-False")
def test_shift_equals_shift_permutation(spec):
    # three shifts in a row: the complete graph's swap holds the state
    # transposed after the first and third, C-ordered after the second
    g = build_graph(spec)
    perm = g.shift_permutation()  # p[c*N+v] = c'*N+v', from the per-edge rule
    for state in (_start_states(g, seed=11)[0], random_state(g, seed=11)):
        expected = state.vector.copy()
        for _ in range(3):
            apply_shift(state)
            moved = np.empty_like(expected)
            moved[perm] = expected
            expected = moved
            assert state.vector.tobytes() == expected.tobytes()


def _dirac_shift_by_rolls(amps, side):
    """The dirac half-moves written with np.roll, as a reference: the two
    Hadamards unscaled, and their 1/sqrt(2) factors as one exact 1/2 on
    each half-move's sum and difference."""
    grid = amps.reshape(2, side, side).copy()
    grid[0] = np.roll(grid[0], -1, axis=0)
    grid[1] = np.roll(grid[1], 1, axis=0)
    left = np.roll((grid[0] + grid[1]) * 0.5, -1, axis=1)
    right = np.roll((grid[0] - grid[1]) * 0.5, 1, axis=1)
    grid[0] = left + right
    grid[1] = left - right
    return grid.reshape(2, side * side)


@pytest.mark.parametrize("spec", arenas("moves", shift="dirac"),
                         ids=lambda s: f"{s.dims[0]}-False")
def test_dirac_shift_matches_roll_reference(spec):
    g = build_graph(spec)
    for state in (_start_states(g, seed=spec.dims[0])[0], random_state(g, seed=spec.dims[0])):
        for _ in range(3):
            expected = _dirac_shift_by_rolls(state.amps, spec.dims[0])
            apply_shift(state)
            assert state.amps.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", arenas("trace", shift="dirac"), ids=GraphSpec.label)
def test_dirac_marking_is_a_negated_swap(spec):
    # I - 2|s,v><s,v| on two directions is exactly -X: each marked column
    # swaps its two amplitudes and negates them, bit for bit
    g = build_graph(spec)
    coin = default_coin(g, marked=(3, 20))
    real = real_random_state(g, seed=7)
    rng = np.random.default_rng(8)
    amps = rng.normal(size=real.amps.shape) + 1j * rng.normal(size=real.amps.shape)
    for state in (real, WalkState(g, amps)):
        before = state.amps.copy()
        apply_coin(state, coin)
        assert state.amps[:, [3, 20]].tobytes() == (-before[::-1, [3, 20]]).tobytes()
        rest = np.setdiff1d(np.arange(g.n), [3, 20])
        assert state.amps[:, rest].tobytes() == before[:, rest].tobytes()


@pytest.mark.parametrize("spec", arenas("moves", family="torus"), ids=GraphSpec.label)
def test_move_plans_agree_with_shift_targets(spec):
    # every plan read over a row of vertex numbers gives its move's target at
    # every vertex: one plan per direction; dirac's plans read row c where the
    # first half-move brings it from, after the second half-move's read
    # (role 2 at target_3, role 3 at target_2)
    g = build_graph(spec)
    targets = g.shift_targets()
    if spec.shift == "dirac":
        moves = [g.shift_targets(targets[role])[[1, 0]] for role in (3, 2)]
    else:
        moves = [targets[c:c + 1] for c in range(g.coin_dim)]
    plans = uniform_state(g)._move_plans()
    assert len(plans) == len(moves)
    for plan, expected in zip(plans, moves):
        assert plan.wrap.size <= g.n // spec.dims[0]  # one face: the rotation wraps the slowest axis
        for j, move in enumerate(expected):
            rows = [np.zeros(g.n) for _ in expected]
            rows[j] = np.arange(g.n, dtype=np.float64)
            read = np.full(g.n, -1.0)
            _apply(plan, np.add if len(rows) > 1 else None, read, rows)
            assert np.array_equal(read, move)


@pytest.mark.parametrize("spec", arenas("small"))
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


@pytest.mark.parametrize("spec", arenas("subsets"))
def test_vertex_probabilities_on_a_subset_is_exact(spec):
    # after one shift the complete graph's state is held transposed
    g = build_graph(spec)
    state = random_state(g, seed=13)
    for _ in range(2):
        full = vertex_probabilities(state)
        for vs in [[v] for v in range(g.n)] + [[g.n - 1, 2], list(range(0, g.n, 3)),
                                                list(range(g.n))]:
            assert np.array_equal(vertex_probabilities(state, vs), full[vs])
        apply_shift(state)


@pytest.mark.parametrize("axis", ["uniform", "random"])
def test_reflect_about_uniform(axis):
    g = build_graph(torus_spec(4))
    a = uniform_state(g) if axis == "uniform" else random_state(g, seed=4)
    fixed = a.copy()
    reflect_about(fixed, a)
    assert np.max(np.abs(fixed.amps - a.amps)) < 1e-12

    perp = random_state(g, seed=5)
    c = np.vdot(a.amps, perp.amps)
    perp.amps -= c * a.amps
    perp.amps /= np.linalg.norm(perp.amps)
    ref = perp.amps.copy()
    reflect_about(perp, a)
    assert np.max(np.abs(perp.amps + ref)) < 1e-12

    anything = random_state(g, seed=6)
    ref = anything.amps.copy()
    reflect_about(reflect_about(anything, a), a)
    assert np.max(np.abs(anything.amps - ref)) < 1e-12

    expected = 2.0 * np.vdot(a.amps, ref) * a.amps - ref
    reflect_about(anything, a)
    assert np.max(np.abs(anything.amps - expected)) < 1e-12


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
    assert np.vdot(uniform_state(g).amps, uniform_state(g).amps) == pytest.approx(1.0)
    sv = marked_coin_state(g, 0)
    assert np.vdot(uniform_state(g).amps, sv.amps) == pytest.approx(1 / 4)
    a = WalkState(g, np.zeros((4, 16), dtype=complex))
    b = WalkState(g, np.zeros((4, 16), dtype=complex))
    a.amps[0, 0] = 1
    b.amps[1, 0] = 1
    assert np.vdot(a.amps, b.amps) == 0


@pytest.mark.parametrize("spec", arenas("small"))
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
    shifted_vertex = translate(g, 0, offset)
    a = uniform_state(g)
    b = uniform_state(g)
    ca = default_coin(g, marked=(0,))
    cb = default_coin(g, marked=(shifted_vertex,))
    for _ in range(40):
        step(a, ca)
        step(b, cb)
    translated = np.empty_like(a.amps)
    for v in range(g.n):
        translated[:, translate(g, v, offset)] = a.amps[:, v]
    assert np.max(np.abs(translated - b.amps)) < 1e-12


@given(seed=st.integers(0, 2 ** 31), spec=st.sampled_from(arenas("small")))
@settings(max_examples=25, deadline=None)
def test_step_unitary_on_random_states(seed, spec):
    g = build_graph(spec)
    state = random_state(g, seed=seed)
    coin = default_coin(g, marked=(0,))
    step(state, coin)
    assert abs(math.sqrt(squared_norm(state)) - 1.0) < 1e-12


def test_marking_validation():
    gt = build_graph(torus_spec(4))
    with pytest.raises(ConfigurationError, match="out of range"):
        gt.marked_set((99,))
    with pytest.raises(ConfigurationError, match="distinct"):
        gt.marked_set((3, 3))


@pytest.mark.parametrize("marked", [(1.9,), (np.float64(2.0),), ("3",)],
                         ids=["float", "float64", "string"])
def test_a_marked_vertex_that_is_no_integer_is_refused(marked):
    # no vertex is truncated or parsed into range: every entry that takes a
    # marked set refuses one that holds anything but integers
    for spec in arenas("small"):
        g = build_graph(spec)
        for entry in (lambda: default_coin(g, marked=marked), lambda: run_walk(g, marked, 1),
                      lambda: amplify(g, marked, 1, 1), lambda: dense_unitary(g, marked)):
            with pytest.raises(ConfigurationError, match="must be integers"):
                entry()


def test_state_serialization_roundtrip(tmp_path):
    g = build_graph(torus_spec(5, shift="dirac"))
    state = random_state(g, seed=9)
    path = tmp_path / "state.bin"
    save_state(state, path)
    loaded = load_state(g, path)
    assert loaded.amps.dtype == np.complex128
    assert np.array_equal(loaded.amps, state.amps)
    other = build_graph(torus_spec(4))
    with pytest.raises(ValueError):
        load_state(other, path)


def test_neighborhood_probability_union_semantics():
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


# -- real states ---------------------------------------------------------------


def test_driver_states_are_real_and_complex_input_stays_complex():
    g = build_graph(torus_spec(4))
    assert uniform_state(g).amps.dtype == np.float64
    assert marked_coin_state(g, 3).amps.dtype == np.float64
    assert random_state(g).amps.dtype == np.complex128
    assert WalkState(g, np.zeros((4, 16), dtype=np.complex64)).amps.dtype == np.complex128
    assert WalkState(g, np.zeros((4, 16), dtype=np.float32)).amps.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_a_state_leaves_the_array_it_was_built_from_alone(dtype):
    g = build_graph(torus_spec(4))
    a = np.zeros((4, 16), dtype=dtype)
    a[:, 1] = 0.5
    before = a.copy()
    state = WalkState(g, a)
    twin = state.copy()
    step(state, default_coin(g, marked=(1,)))
    assert not np.shares_memory(state.amps, a) and not np.shares_memory(twin.amps, state.amps)
    assert np.array_equal(a, before)
    assert np.array_equal(twin.amps, before)


@pytest.mark.parametrize("marked", [(), (1,), (1, 5)], ids=["unmarked", "one", "two"])
@pytest.mark.parametrize("spec", arenas("small"), ids=GraphSpec.label)
def test_real_state_steps_like_complex(spec, marked):
    g = build_graph(spec)
    coin = default_coin(g, marked=marked)
    real = real_random_state(g, seed=7)
    cplx = as_complex(real)
    for advance in [step] * 18:
        advance(real, coin)
        advance(cplx, coin)
        assert real.amps.dtype == np.float64
        np.testing.assert_array_equal(real.amps, cplx.amps)


@pytest.mark.parametrize("spec", arenas("small"), ids=GraphSpec.label)
def test_vertex_probabilities_real_equals_complex(spec):
    g = build_graph(spec)
    real = real_random_state(g, seed=8)
    cplx = as_complex(real)
    for vs in (None, [2, 0, 5]):
        assert (vertex_probabilities(real, vs).tobytes()
                == vertex_probabilities(cplx, vs).tobytes())


def test_real_state_roundtrips_through_the_complex_file_format(tmp_path):
    g = build_graph(torus_spec(5, shift="dirac"))
    state = real_random_state(g, seed=9)
    path, complex_path = tmp_path / "real.bin", tmp_path / "complex.bin"
    save_state(state, path)
    save_state(as_complex(state), complex_path)
    assert path.read_bytes() == complex_path.read_bytes()
    assert path.stat().st_size == 16 + 16 * g.coin_dim * g.n
    loaded = load_state(g, path)
    assert loaded.amps.dtype == np.float64
    assert loaded.amps.tobytes() == state.amps.tobytes()


@pytest.mark.parametrize("imag, dtype", [(-0.0, np.float64), (5e-324, np.complex128)],
                         ids=["negative-zero", "smallest-subnormal"])
def test_load_state_is_complex_iff_an_imaginary_part_is_nonzero(tmp_path, imag, dtype):
    g = build_graph(torus_spec(4))
    amps = as_complex(real_random_state(g, seed=10)).amps
    amps.imag[:] = -0.0
    amps.imag[3, 5] = imag
    path = tmp_path / "state.bin"
    save_state(WalkState(g, amps), path)
    loaded = load_state(g, path)
    assert loaded.amps.dtype == dtype
    np.testing.assert_array_equal(loaded.amps, amps)


@pytest.mark.parametrize("seed", [0, 1])
def test_squared_norm_is_the_sum_of_squares(seed):
    g = build_graph(torus_spec(16))
    for state in (random_state(g, seed), real_random_state(g, seed)):
        exact = math.fsum(np.abs(state.vector) ** 2)
        assert squared_norm(state) == pytest.approx(exact, rel=1e-14)


# -- the owed flip-flop shift -----------------------------------------------------

@pytest.mark.parametrize("spec", arenas("moves", shift="flip_flop"), ids=GraphSpec.label)
def test_owed_steps_match_coin_and_settle(spec):
    # the reference makes every shift at once and never owes one
    g = build_graph(spec)
    coin = default_coin(g, marked=sorted({0, g.n - 1}))
    for start in _start_states(g, seed=12):
        settled = start.copy()
        for t in range(1, 10):
            apply_coin(settled, coin)
            _pay_shift(settled)
            owing = start.copy()
            for _ in range(t):
                step(owing, coin)
            assert owing.amps.tobytes() == settled.amps.tobytes(), t


@pytest.mark.parametrize("spec", arenas("edge", shift="flip_flop"), ids=GraphSpec.label)
def test_owed_coin_on_columns_of_negative_zeros(spec):
    # no step leaves a -0.0 in an owing buffer, so set one up: the owed
    # coin's column sums start from 0.0 as np.sum's do, and a column of -0.0
    # comes out +0.0 on both routes
    g = build_graph(spec)
    coin = default_coin(g, marked=(1,))
    real, cplx = _start_states(g, seed=15)  # psi with a column of -0.0 at every third vertex
    signed = as_complex(real)
    signed.amps.imag[:, 1::2] = -0.0
    for start in (real, cplx, signed):
        owing = start.copy()
        _pay_shift(owing)  # the buffer S psi,
        owing._owed = True  # of a state that owes S: it holds psi
        settled = start.copy()
        apply_coin(owing, coin)
        apply_coin(settled, coin)
        assert owing.amps.tobytes() == settled.amps.tobytes()


@pytest.mark.parametrize("spec", arenas("moves", shift="flip_flop"), ids=GraphSpec.label)
def test_amps_after_an_odd_number_of_steps_is_the_shifted_array(spec):
    # S moves the entry at flat index i to perm[i]; an owing state holds the
    # array before that move, and reading amps makes it
    g = build_graph(spec)
    perm = g.shift_permutation()
    coin = default_coin(g, marked=(g.n // 2,))
    for state in _start_states(g, seed=13):
        for _ in range(3):
            step(state, coin)
        before = state._amps.copy()
        shifted = np.empty_like(before.ravel())
        shifted[perm] = before.ravel()
        assert state.amps.tobytes() == shifted.tobytes()
        assert state._amps is state.amps and not state._owed  # paid in place


@pytest.mark.parametrize("spec", arenas("edge", shift="flip_flop"), ids=GraphSpec.label)
def test_vertex_probabilities_of_an_owing_state_match_the_settled_state(spec):
    g = build_graph(spec)
    coin = default_coin(g, marked=(1 % g.n,))
    # the state keeps the index of the last vertex set it was read at, if
    # its table is no larger than a vertex row; the reads that alternate
    # between two orders of one set show that it follows the vertices, not
    # their count.  Both paths take the vertices through the graph's one
    # vertex rule: a negative, an out-of-range, a float or a bool entry is
    # refused whether or not the state owes its shift
    subsets = [[0], [g.n - 1, 0], np.arange(g.n)[::2], np.arange(g.n),
               [g.n - 1, 0], [0, g.n - 1], [g.n - 1, 0], [0]]
    for start in _start_states(g, seed=14):
        owing, settled = start.copy(), start.copy()
        step(owing, coin)
        step(settled, coin)
        settled.amps  # pays the shift
        array = owing._amps
        for vs in subsets:
            expected = vertex_probabilities(settled, vs).tobytes()
            assert vertex_probabilities(owing, vs).tobytes() == expected
            # kept while coin_dim * len(vs) <= N, keyed by the vertices' contents
            kept = _vertex_index(owing, np.array(vs)) is _vertex_index(owing, list(vs))
            assert kept == (g.coin_dim * len(vs) <= g.n)
            assert owing._amps is array and owing._owed  # read through the shift, not settled
        for bad in ([-1], [g.n], [2.0], [True, False], np.array([2.0]), np.array([g.n])):
            for state in (settled, owing):
                with pytest.raises(ConfigurationError, match="vertex|vertices"):
                    vertex_probabilities(state, bad)
        assert (vertex_probabilities(owing).tobytes()
                == vertex_probabilities(settled).tobytes())


def test_a_read_of_an_owing_state_at_every_vertex_keeps_no_index():
    # the read's (coin_dim, N) target table is as large as the state
    g = build_graph(torus_spec(256))
    state = step(uniform_state(g), default_coin(g, marked=(3,)))
    every = np.arange(g.n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vertex_probabilities(state, every)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert state._owed and held < 8 * g.n  # less than one vertex row
