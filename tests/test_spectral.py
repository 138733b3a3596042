"""Mode blocks, closed-form spectra, weights, sums, and the stalled walk."""

import math
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from walklab import (ConfigurationError, GraphSpec, build_graph,
                     complete_spec, default_coin, dense_eigens, dense_unitary,
                     grover_coin, hypercube_spec, mode_spectrum,
                     moving_shift_stationary_overlap, run_walk, sin2_half_theta,
                     torus_modes, torus_spec, uniform_state)

from helpers import (arenas, closed_form_block_phases, coin_block, dense, eigenspace_projection,
                     lift_block_vector, marked_coin_state, per_level_sums, per_mode_levels,
                     per_mode_stationary_overlap, schur_eigens)

TORUS4 = torus_spec(4)
ALL_MODES_4 = [m for m in product(range(4), repeat=2)]


def _unitarity_defect(m):
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))


@pytest.mark.parametrize("spec,mode", [
    (TORUS4, (0, 0)), (TORUS4, (1, 3)), (torus_spec(4, shift="moving"), (2, 1)),
    (torus_spec(4, shift="dirac"), (1, 2)), (torus_spec(4, 3), (1, 0, 3)),
    (hypercube_spec(5), (1, 0, 1, 1, 0)),
])
def test_blocks_are_unitary(spec, mode):
    assert _unitarity_defect(coin_block(spec, mode)) < 1e-12


def test_zero_mode_block_is_plain_coin():
    block = coin_block(TORUS4, (0, 0))
    # D at the zero mode swaps each axis pair, which fixes |s>
    s = np.full(4, 0.5)
    assert np.allclose(block @ s, s)
    phases, _ = schur_eigens(block)
    assert sum(abs(p) < 1e-12 for p in phases) == 3  # triple eigenvalue 1


def test_block_eigenphases_match_cosine_form():
    phases, _ = schur_eigens(coin_block(TORUS4, (0, 1)))
    expected = [0.0, math.pi, math.pi / 3, -math.pi / 3]
    a = np.sort(np.mod(phases + np.pi, 2 * np.pi))
    b = np.sort(np.mod(np.array(expected) + np.pi, 2 * np.pi))
    assert np.allclose(a, b, atol=1e-9)
    assert sin2_half_theta(TORUS4, (0, 1)) == pytest.approx(0.25)  # cos(theta) = 1/2


@pytest.mark.parametrize("spec,modes", [
    (TORUS4, ALL_MODES_4),
    (torus_spec(4, shift="moving"), ALL_MODES_4),
    (torus_spec(4, shift="dirac"), ALL_MODES_4),
    (torus_spec(5, shift="dirac"), list(product(range(5), repeat=2))),
    (torus_spec(4, 3), list(product(range(4), repeat=3))),
    (hypercube_spec(4), list(product((0, 1), repeat=4))),
])
def test_closed_forms_match_numeric_blocks(spec, modes):
    for mode in modes:
        numeric, _ = schur_eigens(coin_block(spec, mode))
        closed = closed_form_block_phases(spec, mode)
        a = np.sort(np.mod(numeric + 2 * np.pi, 2 * np.pi))
        b = np.sort(np.mod(np.array(closed) + 2 * np.pi, 2 * np.pi))
        assert np.max(np.abs(a - b)) < 1e-9


def test_moving_zero_mode_has_minus_one():
    phases, _ = schur_eigens(coin_block(torus_spec(4, shift="moving"), (0, 0)))
    assert any(abs(abs(p) - math.pi) < 1e-12 for p in phases)
    assert sin2_half_theta(torus_spec(4, shift="moving"), (0, 0)) == pytest.approx(1.0)


def test_hypercube_level_degeneracy():
    spec = hypercube_spec(4)
    ms = mode_spectrum(spec)
    level = [e for e in ms.entries if abs(e.theta - math.pi / 2) < 1e-12]
    assert len(level) == 1 and level[0].multiplicity == 6  # cos = 1 - 2*2/4 = 0


@pytest.mark.parametrize("mode", [m for m in ALL_MODES_4 if m != (0, 0)])
def test_one_eigenvectors_orthogonal_to_s(mode):
    phases, vecs = schur_eigens(coin_block(TORUS4, mode))
    s = np.full(4, 0.5)
    for j, phase in enumerate(phases):
        if abs(phase) < 1e-12:
            assert abs(np.vdot(s, vecs[:, j])) < 1e-12


def test_minus_one_eigenvectors_orthogonal_to_s_flip_flop():
    for mode in ALL_MODES_4:
        if sin2_half_theta(TORUS4, mode) >= 1 - 1e-12:
            continue  # theta = pi levels carry the |s> component by construction
        phases, vecs = schur_eigens(coin_block(TORUS4, mode))
        s = np.full(4, 0.5)
        for j, phase in enumerate(phases):
            if abs(abs(phase) - math.pi) < 1e-12:
                assert abs(np.vdot(s, vecs[:, j])) < 1e-12


def test_mode_spectrum_torus4():
    ms = mode_spectrum(TORUS4)
    assert ms.a0_sq == pytest.approx(1 / 16)
    assert sum(e.multiplicity for e in ms.entries) == 15
    assert all(e.weight == pytest.approx(1 / 32) for e in ms.entries)
    assert ms.theta_min == pytest.approx(math.pi / 3)
    assert ms.completeness_defect() < 1e-9
    assert ms.retained_dim == 30  # 14 conjugate pairs plus Phi0 and one -1 level


@pytest.mark.parametrize("d", [12, 66, 67, 68])
def test_hypercube_multiplicities_are_exact_integers(d):
    # comb(67, 33) outgrows int64 but not uint64, comb(68, 34) both
    ms = mode_spectrum(hypercube_spec(d))
    assert type(ms.retained_dim) is int and ms.retained_dim == 2 ** (d + 1) - 2
    assert ms.entries.multiplicity[d // 2 - 1] == math.comb(d, d // 2)


def test_mode_spectrum_completeness_all_families():
    for spec in [TORUS4, torus_spec(6), torus_spec(4, shift="dirac"),
                 torus_spec(5, shift="dirac"), torus_spec(4, 3),
                 hypercube_spec(6), complete_spec(12)]:
        assert mode_spectrum(spec).completeness_defect() < 1e-9


@pytest.mark.parametrize("spec", arenas("spectra"), ids=GraphSpec.label)
def test_mode_spectrum_equals_per_mode_reference(spec):
    theta, mult, frozen = per_mode_levels(spec)
    ms = mode_spectrum(spec)
    assert len(ms.entries) == len(theta)
    assert_array_equal(ms.entries.theta, theta)
    assert_array_equal(ms.entries.multiplicity, mult)
    assert ms.frozen_weight == frozen


def test_dirac_even_side_frozen_weight():
    ms = mode_spectrum(torus_spec(4, shift="dirac"))
    assert ms.frozen_weight == pytest.approx(1 / 16)
    ms_odd = mode_spectrum(torus_spec(5, shift="dirac"))
    assert ms_odd.frozen_weight == 0.0


def test_moving_shift_rejected():
    with pytest.raises(ConfigurationError):
        mode_spectrum(torus_spec(4, shift="moving"))


def test_hypercube_inverse_gap_sum():
    ms = mode_spectrum(hypercube_spec(4))
    s1, _, _ = ms.sums
    # (d/2) * sum_k binom(d,k)/k over k = 1..d, for d = 4
    assert 2 * s1 == pytest.approx(103 / 6, abs=1e-9)


@pytest.mark.parametrize("spec", arenas("sums"), ids=GraphSpec.label)
def test_sums_equal_per_level_reference(spec):
    ms = mode_spectrum(spec)
    assert ms.sums == pytest.approx(per_level_sums(ms), rel=1e-12, abs=0)


def test_conjugate_pairing_of_dense_spectrum():
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, (0,))
    phases, _ = dense_eigens(op)
    finite = phases[(np.abs(phases) > 1e-9) & (np.abs(np.abs(phases) - np.pi) > 1e-9)]
    assert len(finite) % 2 == 0
    a = np.sort(finite[finite > 0])
    b = np.sort(-finite[finite < 0])
    assert np.allclose(a, b, atol=1e-9)


def test_weight_recovery_flip_flop():
    g = build_graph(TORUS4)
    sv = marked_coin_state(g, 0).vector
    expected = 1 / math.sqrt(2 * g.n)
    for mode in ALL_MODES_4:
        if mode == (0, 0):
            continue
        phases, vecs = schur_eigens(coin_block(TORUS4, mode))
        for j, phase in enumerate(phases):
            if 1e-9 < abs(phase) < math.pi - 1e-9:
                full = lift_block_vector(g, mode, vecs[:, j])
                assert abs(np.vdot(full, sv)) == pytest.approx(expected, abs=1e-9)


def test_block_lift_is_dense_eigenvector():
    spec = torus_spec(4, shift="dirac")
    g = build_graph(spec)
    op = dense_unitary(g, ())
    for mode in [(0, 1), (2, 2), (3, 1)]:
        phases, vecs = schur_eigens(coin_block(spec, mode))
        for j, phase in enumerate(phases):
            full = lift_block_vector(g, mode, vecs[:, j])
            resid = np.linalg.norm(dense(op) @ full - np.exp(1j * phase) * full)
            assert resid < 1e-12


def test_complete_graph_spectrum_is_two_phase():
    ms = mode_spectrum(complete_spec(8))
    assert len(ms.entries) == 1
    assert ms.entries[0].theta == pytest.approx(math.pi)
    assert ms.retained_dim == 2


def test_coin_block_rejects_complete():
    with pytest.raises(ConfigurationError):
        coin_block(complete_spec(8), (0,))


# -- moving shift -------------------------------------------------------------


def test_stationary_overlap_alpha00():
    # the zero mode contributes exactly 1/sqrt(N)
    spec = torus_spec(4, shift="moving")
    overlap_sq = moving_shift_stationary_overlap(spec)
    assert overlap_sq == pytest.approx(14 / 17, abs=1e-12)  # dense-verified value


def test_stationary_overlap_matches_dense_projection():
    for side in (4, 6):
        spec = torus_spec(side, shift="moving")
        g = build_graph(spec)
        op = dense_unitary(g, (0,))
        phases, vectors = dense_eigens(op)
        dense_value = eigenspace_projection(phases, vectors, uniform_state(g).vector)
        assert moving_shift_stationary_overlap(spec) == pytest.approx(
            dense_value, abs=1e-8)


# side 11 is where complex array arithmetic would round the result differently
@pytest.mark.parametrize("side", [4, 8, 11, 33])
def test_stationary_overlap_equals_per_mode_reference(side):
    spec = torus_spec(side, shift="moving")
    assert moving_shift_stationary_overlap(spec) == per_mode_stationary_overlap(spec)


def test_stationary_overlap_grows_toward_one():
    values = [moving_shift_stationary_overlap(torus_spec(side, shift="moving"))
              for side in (4, 6, 8, 12, 16)]
    assert all(0 < v <= 1 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))
    for side, v in zip((4, 6, 8, 12, 16), values):
        assert v >= 1 - 16 / side ** 2


def test_stationary_overlap_rejects_other_walks():
    with pytest.raises(ConfigurationError,
                       match="stationary overlap analysis is for the 2D moving shift"):
        moving_shift_stationary_overlap(torus_spec(8))


def test_no_closed_form_for_the_swap():
    with pytest.raises(ConfigurationError, match="no closed form for shift 'swap'"):
        sin2_half_theta(complete_spec(8), [[1]])


def test_moving_walk_stays_under_its_stationary_bound():
    # the part of the uniform start in U''s +1 eigenspace never moves, so
    # sqrt(p_marked(t)) <= 1/sqrt(N) + 2 sqrt(1 - ov^2) at every t
    for side in (8, 16, 32, 64, 128, 256, 512, 1024):
        spec = torus_spec(side, shift="moving")
        n = spec.n_vertices
        moving = 1.0 - moving_shift_stationary_overlap(spec)
        assert moving * n == pytest.approx(2.752, abs=0.01)
        if side > 64:
            continue
        bound = (1 / math.sqrt(n) + 2 * math.sqrt(moving)) ** 2
        cap = math.ceil(4 * math.sqrt(n * math.log2(n)))
        g = build_graph(spec)
        for marked in (0, g.vertex_index((side // 2, side // 3))):
            trace = run_walk(g, default_coin(g, marked=(marked,)), cap)
            assert trace.p_marked.max() <= bound, (side, marked)


def test_grover_coin_matrix():
    c = grover_coin(4)
    assert np.allclose(c, 0.5 * np.ones((4, 4)) - np.eye(4))
    assert _unitarity_defect(c) < 1e-12


@pytest.mark.parametrize("spec", arenas("small", family=("torus", "hypercube"),
                                         shift=("flip_flop", "dirac")))
def test_retained_subspace_is_closed_under_perturbed_walk(spec):
    """The span of the uniform state and the walk eigendirections carrying
    marked-coin weight (with their conjugate partners) is invariant under
    the perturbed walk and contains |s, v>.

    Per mode and per distinct block eigenphase the weight-carrying direction
    is the projection of the symmetric coin state onto that eigenspace; the
    pair bookkeeping in ModeSpectrum.retained_dim is an upper bound on the
    resulting dimension (tight unless some pair member carries no weight,
    which happens for the two-dimensional coin).
    """
    g = build_graph(spec)
    if spec.family == "hypercube":
        modes = [m for m in product((0, 1), repeat=spec.dims[0]) if any(m)]
    else:
        modes = [m for m in torus_modes(spec) if any(m)]
    s_coin = np.full(g.coin_dim, 1 / np.sqrt(g.coin_dim))
    collected = [uniform_state(g).vector]
    for mode in modes:
        phases, vecs = schur_eigens(coin_block(spec, mode))
        phases = np.where(phases < -np.pi + 1e-9, phases + 2 * np.pi, phases)
        for phase in np.unique(np.round(phases, 9)):
            cluster = np.abs(phases - phase) < 1e-8
            carrier = vecs[:, cluster] @ (vecs[:, cluster].conj().T @ s_coin)
            if np.linalg.norm(carrier) > 1e-10:
                lifted = lift_block_vector(g, mode, carrier / np.linalg.norm(carrier))
                collected.append(lifted)
                collected.append(lifted.conj())  # the conjugate pair partner
    import scipy.linalg
    q = scipy.linalg.orth(np.array(collected).T, rcond=1e-8)
    assert q.shape[1] <= mode_spectrum(spec).retained_dim
    if spec.coin != "dirac2":
        assert q.shape[1] == mode_spectrum(spec).retained_dim

    sv = marked_coin_state(g, 0).vector
    assert np.linalg.norm(sv - q @ (q.conj().T @ sv)) < 1e-10

    u_prime = dense(dense_unitary(g, default_coin(g, marked=(0,))))
    image = u_prime @ q
    outside = image - q @ (q.conj().T @ image)
    assert np.linalg.norm(outside) < 1e-9
