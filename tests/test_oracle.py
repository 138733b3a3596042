"""Dense oracle self-checks and its cross-validation duties."""

import numpy as np
import pytest

import walklab.engine
import walklab.oracle
from walklab import (CoinConfig, block_eigens, build_graph, compare_traces, complete_spec,
                     default_coin, dense_eigens, dense_unitary,
                     eigenspace_projection, hypercube_spec, run_walk, step, torus_spec,
                     uniform_state)

from helpers import random_state, step_built_unitary

FAMILIES_SMALL = [torus_spec(4), torus_spec(4, shift="moving"),
                  torus_spec(4, shift="dirac"), torus_spec(3, 3),
                  hypercube_spec(4), complete_spec(16)]


@pytest.mark.parametrize("spec", FAMILIES_SMALL)
def test_dense_unitarity(spec):
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    assert op.unitarity_defect() < 1e-10


@pytest.mark.parametrize("marked", [(), (1,)], ids=["unmarked", "marked"])
@pytest.mark.parametrize("spec", FAMILIES_SMALL, ids=lambda spec: spec.label())
def test_dense_unitary_equals_step_built(spec, marked):
    g = build_graph(spec)
    coin = default_coin(g, marked=marked)
    matrix = dense_unitary(g, coin).matrix
    reference = step_built_unitary(g, coin)
    assert matrix.dtype == np.float64
    if spec.shift == "dirac":  # the engine rounds the marked reflection through sqrt(2)
        assert np.max(np.abs(matrix - reference)) <= 1e-15
    else:  # a permutation of the exact coin entries
        assert np.array_equal(matrix, reference)


def test_dense_unitary_does_not_call_the_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense oracle called the engine it checks")

    for name in ("step", "apply_coin", "apply_shift"):
        monkeypatch.setattr(walklab.engine, name, refuse)
        monkeypatch.setattr(walklab.oracle, name, refuse, raising=False)
    for spec in FAMILIES_SMALL:
        g = build_graph(spec)
        op = dense_unitary(g, default_coin(g, marked=(1,)))
        assert op.unitarity_defect() < 1e-10


def test_unmarked_dense_fixes_uniform():
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, CoinConfig())
    vec = uniform_state(g).vector
    assert np.max(np.abs(op.matrix @ vec - vec)) < 1e-12


def test_unmarked_dirac_coin_is_the_identity():
    # a coin names only its marked set; the dirac arena fixes the identity coin
    g = build_graph(torus_spec(4, shift="dirac"))
    assert np.array_equal(dense_unitary(g, CoinConfig()).matrix,
                          dense_unitary(g, default_coin(g)).matrix)
    state = random_state(g, seed=11)
    twin = state.copy()
    step(state, CoinConfig())
    step(twin, default_coin(g))
    assert np.array_equal(state.amps, twin.amps)


def test_dimension_cap():
    g = build_graph(torus_spec(32))  # 4 * 1024 = 4096 > 1024
    with pytest.raises(ValueError, match="capped"):
        dense_unitary(g, CoinConfig())


def _assert_orthonormal_eigensystem(op):
    phases, vectors = dense_eigens(op)
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(op.dim))) < 1e-10
    assert np.all(np.diff(np.abs(phases)) >= -1e-12)  # sorted by |phase|
    recon = vectors @ np.diag(np.exp(1j * phases)) @ vectors.conj().T
    assert np.max(np.abs(recon - op.matrix)) < 1e-9


def test_eigens_orthonormal_basis():
    g = build_graph(torus_spec(4))
    _assert_orthonormal_eigensystem(dense_unitary(g, CoinConfig(marked=(0,))))


@pytest.mark.parametrize("spec,marked", [
    *(pytest.param(spec, (1,), id=spec.label()) for spec in FAMILIES_SMALL),
    # unmarked, both spectra are heavily degenerate
    pytest.param(hypercube_spec(6), (), id="hypercube(6)-unmarked"),
    pytest.param(complete_spec(16), (), id="complete(16)-unmarked"),
])
def test_eigens_orthonormal_basis_every_family(spec, marked):
    g = build_graph(spec)
    _assert_orthonormal_eigensystem(dense_unitary(g, default_coin(g, marked=marked)))


@pytest.mark.parametrize("spec", FAMILIES_SMALL, ids=lambda spec: spec.label())
def test_block_eigens_real_matches_complex(spec):
    g = build_graph(spec)
    matrix = dense_unitary(g, default_coin(g, marked=(1,))).matrix

    def sorted_phases(m):
        # -1 comes out as pi or, by rounding, as -pi: count it as pi
        phases, _ = block_eigens(m)
        return np.sort(np.where(phases < -np.pi + 1e-9, phases + 2 * np.pi, phases))

    real, complex_ = sorted_phases(matrix), sorted_phases(matrix.astype(np.complex128))
    assert np.max(np.abs(real - complex_)) < 1e-12


def test_exactly_two_phases_inside_arc():
    from walklab import mode_spectrum
    spec = torus_spec(4)
    g = build_graph(spec)
    op = dense_unitary(g, CoinConfig(marked=(0,)))
    phases, _ = dense_eigens(op)
    theta_min = mode_spectrum(spec).theta_min
    inside = (np.abs(phases) > 1e-9) & (np.abs(phases) < theta_min - 1e-9)
    assert int(np.sum(inside)) == 2


def test_moving_one_eigenspace_projection_matches_formula():
    from walklab import moving_shift_stationary_overlap
    spec = torus_spec(4, shift="moving")
    g = build_graph(spec)
    op = dense_unitary(g, CoinConfig(marked=(0,)))
    phases, vectors = dense_eigens(op)
    proj = eigenspace_projection(phases, vectors, 0.0, uniform_state(g).vector)
    assert proj == pytest.approx(moving_shift_stationary_overlap(spec), abs=1e-10)


def test_compare_traces_basics():
    a = np.linspace(0, 1, 20)
    assert compare_traces(a, a) == 0.0
    with pytest.raises(ValueError):
        compare_traces(a, a[:-1])


def test_compare_traces_flip_flop_vs_dense_and_negative_control():
    from walklab import evolve_dense
    spec = torus_spec(4)
    g = build_graph(spec)
    coin = default_coin(g, marked=(0,))
    trace = run_walk(g, coin, 50)

    op = dense_unitary(g, coin)
    history = evolve_dense(op, uniform_state(g).vector.copy(), 50)
    dense_p = [np.sum(np.abs(history[t].reshape(g.coin_dim, g.n)[:, 0]) ** 2)
               for t in range(51)]
    assert compare_traces(trace.p_marked, dense_p) < 1e-10

    # negative control: the moving-shift trace is very different
    gm = build_graph(torus_spec(4, shift="moving"))
    moving = run_walk(gm, default_coin(gm, marked=(0,)), 50)
    assert compare_traces(trace.p_marked, moving.p_marked) > 1e-3
