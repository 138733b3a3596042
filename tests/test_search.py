"""Secular root, principal eigenvectors, overlaps, and run-time prediction.

Every prediction has an independent dense route: eigenphases from the
explicit perturbed unitary, overlaps from its aligned eigenvectors.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walklab.search
from walklab import (ConfigurationError, GraphSpec, ModeSpectrum, alpha_bracket,
                     complete_spec, hypercube_spec, mode_spectrum, predict,
                     predict_overlaps, predict_runtime, secular_value, solve_alpha,
                     torus_spec)

from helpers import arenas, dense, levels, lift_principal_eigenvector, principal_dense_data


def _outside_regime(spec):
    """The side-2 arenas and the 1D tori: all but the 3D one have their root
    outside the small-angle regime (alpha >= theta_min/2)."""
    return spec.dims[0] <= 2 or spec.family == "torus" and len(spec.dims) == 1


# the other spectra small enough for the dense route
DENSE_SPECS = [spec for spec in arenas("spectra", max_dim=650) if not _outside_regime(spec)]


@pytest.mark.parametrize("spec", DENSE_SPECS)
def test_alpha_matches_dense_principal_phase(spec):
    ms = mode_spectrum(spec)
    alpha = solve_alpha(ms)
    data = principal_dense_data(spec)
    assert alpha == pytest.approx(data["alpha"], abs=1e-6)


def test_alpha_complete_graph_is_grover_angle():
    for n in (16, 64, 256):
        alpha = solve_alpha(mode_spectrum(complete_spec(n)))
        assert alpha == pytest.approx(2 * math.atan(1 / math.sqrt(n - 1)), abs=1e-12)
        assert abs(alpha - 2 / math.sqrt(n)) / (2 / math.sqrt(n)) < 0.10


@pytest.mark.parametrize("spec", DENSE_SPECS)
def test_alpha_within_rigorous_bracket(spec):
    ms = mode_spectrum(spec)
    alpha = solve_alpha(ms)
    lo, hi = alpha_bracket(ms)
    assert lo <= alpha <= hi
    # the bracket itself obeys the inverse-gap-sum scalings
    s1, _, _ = ms.sums
    sigma = s1 * ms.a0_sq / (ms.a0_sq + ms.frozen_weight)
    assert hi <= 0.5 * math.pi / math.sqrt(sigma) + 1e-12
    assert lo >= 1.0 / math.sqrt(2.0 * sigma) - 1e-12


def test_secular_root_unique_on_grid():
    ms = mode_spectrum(torus_spec(8))
    grid = np.linspace(1e-9, ms.theta_min * (1 - 1e-9), 10_000)
    values = np.array([secular_value(ms, a) for a in grid])
    assert np.count_nonzero(np.sign(values[:-1]) != np.sign(values[1:])) == 1


def test_secular_value_signs_at_ends():
    ms = mode_spectrum(torus_spec(8))
    assert secular_value(ms, ms.theta_min * 1e-9) > 0
    assert secular_value(ms, ms.theta_min * (1 - 1e-9)) < 0


def _exactly_summed_secular_value(ms, alpha):
    """The reference: the same level terms, every one summed exactly."""
    s = walklab.search
    lv = ms.entries
    terms = lv.weight * lv.multiplicity.astype(float) * s._pair_term(alpha, lv.theta)
    return s._effective_a0_sq(ms) * s._cot(alpha / 2) + math.fsum(terms.tolist())


def _float_root(ms):
    """The largest float at which the exactly summed secular value is positive."""
    alpha = solve_alpha(ms)
    lo, hi = alpha * (1 - 1e-9), alpha * (1 + 1e-9)
    assert _exactly_summed_secular_value(ms, lo) > 0 > _exactly_summed_secular_value(ms, hi)
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if _exactly_summed_secular_value(ms, mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("spec", arenas("roots"), ids=GraphSpec.label)
def test_secular_value_has_the_sign_of_the_exact_sum(spec):
    ms = mode_spectrum(spec)
    root = _float_root(ms)
    # the ulps next to the root, where a plain np.sum can take the wrong
    # sign (it does one ulp above the root of torus 128 and hypercube 30),
    # then out to 1e-4
    near = root + np.arange(-16, 17) * math.ulp(root)
    far = root * (1.0 + np.concatenate([np.geomspace(1e-14, 1e-4, 11),
                                        -np.geomspace(1e-14, 1e-4, 11)]))
    for a in np.concatenate([near, far]):
        assert np.sign(secular_value(ms, a)) == np.sign(_exactly_summed_secular_value(ms, a))


@pytest.mark.parametrize("spec", arenas("roots"), ids=GraphSpec.label)
def test_solve_alpha_is_bit_identical_to_the_exact_sum(monkeypatch, spec):
    ms = mode_spectrum(spec)
    alpha = solve_alpha(ms)
    monkeypatch.setattr(walklab.search, "secular_value", _exactly_summed_secular_value)
    assert solve_alpha(ms) == alpha


# solve_alpha's bits and its secular_value call count on fixed spectra
SOLVE_ALPHA_BITS = [
    (torus_spec(16), "0x1.006eaabb3118fp-4"),
    (torus_spec(5, 3), "0x1.cd4015f88d3eep-4"),
    (hypercube_spec(40), "0x1.653a6318cc200p-20"),
]


@pytest.mark.parametrize("spec, alpha_hex", SOLVE_ALPHA_BITS,
                         ids=[spec.label() for spec, _ in SOLVE_ALPHA_BITS])
def test_solve_alpha_bits_and_secular_call_count(monkeypatch, spec, alpha_hex):
    ms = mode_spectrum(spec)
    calls = []
    original = walklab.search.secular_value

    def counted(ms_, alpha):
        calls.append(alpha)
        return original(ms_, alpha)

    monkeypatch.setattr(walklab.search, "secular_value", counted)
    assert solve_alpha(ms).hex() == alpha_hex
    assert len(calls) == 42


def test_empty_spectrum_rejected():
    # a spectrum checks itself when it is built
    with pytest.raises(ConfigurationError, match="empty"):
        ModeSpectrum(a0_sq=1.0, entries=levels(), n_vertices=4, family="torus")
    with pytest.raises(ConfigurationError, match="incomplete"):
        ModeSpectrum(a0_sq=0.5, entries=levels((0.1, 0.01, 1)), n_vertices=4, family="torus")


def test_spectrum_with_a_still_first_level_rejected():
    with pytest.raises(ConfigurationError, match="theta_min must be positive"):
        ModeSpectrum(a0_sq=0.5, entries=levels((0.0, 0.25, 1)), n_vertices=4, family="torus")


def test_principal_vector_orthogonal_to_good_state():
    ms = mode_spectrum(torus_spec(4))
    alpha = solve_alpha(ms)
    lv = ms.entries

    def cot(x):
        return np.cos(x) / np.sin(x)

    # coefficients of |w'_alpha> over psi_start and each pair's Phi_j^+ and Phi_j^-
    c_start = math.sqrt(ms.a0_sq) * cot(alpha / 2)
    c_plus = np.sqrt(lv.weight) * cot((alpha - lv.theta) / 2)
    c_minus = np.sqrt(lv.weight) * cot((alpha + lv.theta) / 2)
    # <psi_good | w'_alpha> is exactly the secular value
    inner = math.sqrt(ms.a0_sq) * c_start
    inner += np.sum(np.sqrt(lv.weight) * lv.multiplicity * (c_plus + c_minus))
    assert abs(inner) < 1e-10


@pytest.mark.parametrize("spec", DENSE_SPECS)
def test_lifted_principal_eigenvector_residual(spec):
    ms = mode_spectrum(spec)
    alpha = solve_alpha(ms)
    data = principal_dense_data(spec)
    x = lift_principal_eigenvector(data["graph"], 0, alpha)
    matrix = dense(data["op"])
    resid = np.linalg.norm(matrix @ x - np.exp(1j * alpha) * x)
    assert resid < 1e-8
    # complex conjugation gives the partner eigenvector
    resid_conj = np.linalg.norm(matrix @ x.conj() - np.exp(-1j * alpha) * x.conj())
    assert resid_conj < 1e-8


@pytest.mark.parametrize("spec", DENSE_SPECS)
def test_overlaps_match_dense_eigenvectors(spec):
    ms = mode_spectrum(spec)
    alpha = solve_alpha(ms)
    start, good = predict_overlaps(ms, alpha)
    data = principal_dense_data(spec)
    assert start == pytest.approx(data["start_overlap"], abs=1e-6)
    assert good == pytest.approx(data["good_overlap"], abs=1e-6)
    assert 0 < start <= 1 and 0 < good <= 1


def test_start_overlap_approaches_one_in_3d():
    values = []
    for side in (4, 6, 8, 12):
        ms = mode_spectrum(torus_spec(side, 3))
        values.append(predict_overlaps(ms, solve_alpha(ms))[0])
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.97


def test_good_overlap_log_band_2d():
    # good_overlap^2 * log2(N) pinned to a constant band across sides
    ratios = []
    for side in (8, 16, 32, 64):
        ms = mode_spectrum(torus_spec(side))
        _, good = predict_overlaps(ms, solve_alpha(ms))
        ratios.append(good ** 2 * math.log2(side ** 2))
    assert max(ratios) / min(ratios) < 1.6


def test_predict_runtime_quarter_turn():
    spec = torus_spec(4)  # any arena; alpha given explicitly
    t_star, _ = predict_runtime(mode_spectrum(spec), math.pi / 4, spec)
    assert t_star == 1


def test_predict_runtime_2d_bracket():
    spec = torus_spec(16)
    ms = mode_spectrum(spec)
    alpha = solve_alpha(ms)
    _, bracket = predict_runtime(ms, alpha, spec)
    n = 256
    assert bracket[0] == pytest.approx(math.sqrt(n * math.log2(n)) / 2)
    assert bracket[1] == pytest.approx(math.pi * math.sqrt(n * math.log2(n))
                                       / (2 * math.sqrt(2)))


@pytest.mark.parametrize("spec", arenas("sums"), ids=GraphSpec.label)
def test_predict_forms_the_spectral_sums_once(spec, monkeypatch):
    # solve_alpha, predict_runtime and the report's alpha_bracket share them
    form, formed = ModeSpectrum.sums.func, []

    def counted(ms):
        formed.append(ms)
        return form(ms)

    sums = functools.cached_property(counted)
    sums.__set_name__(ModeSpectrum, "sums")
    monkeypatch.setattr(ModeSpectrum, "sums", sums)
    predict(spec)
    assert len(formed) == 1


def test_complete_graph_peak_steps_doubles_grover():
    for n in (64, 256):
        report = predict(complete_spec(n))
        grover_t = (math.pi / 4) * math.sqrt(n)
        assert abs(report.peak_steps - 2 * grover_t) / (2 * grover_t) < 0.2


def test_report_fields_finite_and_regime():
    report = predict(torus_spec(16))
    assert report.in_small_angle_regime
    assert 0 < report.alpha < report.theta_min
    assert report.t_star >= 1
    assert report.t_bracket[0] < report.t_bracket[1]
    assert 0 < report.predicted_peak_probability <= 1


def test_alpha_can_leave_small_angle_regime():
    # a dominant start weight pushes the root toward theta_min
    ms = ModeSpectrum(a0_sq=0.98, entries=levels((0.1, 0.01, 1)),
                      n_vertices=100, family="torus")
    alpha = solve_alpha(ms)
    assert ms.theta_min / 2 < alpha < ms.theta_min


def test_dirac_even_side_prediction_halves_peak():
    even = predict(torus_spec(8, shift="dirac"))
    # half the start weight is frozen, so the start overlap is capped by ~1/sqrt(2)
    assert even.start_overlap < 0.75
    odd = predict(torus_spec(9, shift="dirac"))
    assert odd.start_overlap > 0.9


def test_theta_pi_entry_contributes_tangent_term():
    # a pure theta = pi spectrum reduces the secular equation to
    # a0^2 cot(a/2) = 2 w tan(a/2), the two-phase rotation angle
    ms = ModeSpectrum(a0_sq=0.1, entries=levels((math.pi, 0.45, 1)),
                      n_vertices=10, family="complete")
    alpha = solve_alpha(ms)
    assert math.tan(alpha / 2) ** 2 == pytest.approx(0.1 / 0.9, rel=1e-10)


def test_outside_regime_overlaps_match_the_dense_route():
    # the side-2 torus root lands exactly on theta_min/2, outside the
    # strict small-angle regime; the report still carries valid overlaps
    report = predict(torus_spec(2))
    assert not report.in_small_angle_regime
    data = principal_dense_data(torus_spec(2))
    assert report.start_overlap == pytest.approx(data["start_overlap"], abs=1e-9)
    assert report.good_overlap == pytest.approx(data["good_overlap"], abs=1e-9)


# the closed-form overlaps hold outside the small-angle regime too
@pytest.mark.parametrize("spec", [spec for spec in arenas("spectra") if _outside_regime(spec)],
                         ids=GraphSpec.label)
def test_secular_prediction_matches_the_dense_route_on_small_arenas(spec):
    report = predict(spec)
    assert report.in_small_angle_regime == (spec.dims == (2, 2, 2))
    data = principal_dense_data(spec)
    assert report.alpha == pytest.approx(data["alpha"], rel=0, abs=1e-12)
    assert report.start_overlap == pytest.approx(data["start_overlap"], rel=0, abs=1e-12)
    assert report.good_overlap == pytest.approx(data["good_overlap"], rel=0, abs=1e-12)


def test_1d_torus_matches_its_closed_form_past_the_dense_cap():
    # the marked 1D walk is one signed cycle of length 2L (the two minus
    # signs are the marked vertex's coin entries), so its phases are k pi/L;
    # from cos(theta) = cos(2 pi k/L) the phases lost relative accuracy as
    # side^2 (alpha off by 7.8e-11 at side 10^4 and 6.9e-9 at 10^5), while
    # the half-angle form keeps them to rounding; the quarter turn pi/(4 alpha)
    # is then L/4 up to alpha's last bits, which t_star must not round up
    for side in (100, 1000, 10 ** 4, 10 ** 5):
        report = predict(torus_spec(side, 1))
        assert report.t_star == side // 4
        assert report.alpha == pytest.approx(math.pi / side, rel=1e-12, abs=0)
        start = math.sqrt(2.0) / math.tan(math.pi / (2 * side)) / side
        assert report.start_overlap == pytest.approx(start, rel=1e-12, abs=0)
        assert report.good_overlap == pytest.approx(math.sqrt(2.0 / side), rel=1e-12, abs=0)


# frozen regression constants, each verified against the dense oracle when
# first recorded
FROZEN_ALPHAS = {
    "torus4": 0.3295290179133187,
    "dirac5": 0.2499646316580615,
    "hypercube6": 0.16089699766126758,
}


def test_frozen_alpha_values():
    assert solve_alpha(mode_spectrum(torus_spec(4))) == pytest.approx(
        FROZEN_ALPHAS["torus4"], abs=1e-11)
    assert solve_alpha(mode_spectrum(torus_spec(5, shift="dirac"))) == pytest.approx(
        FROZEN_ALPHAS["dirac5"], abs=1e-11)
    assert solve_alpha(mode_spectrum(hypercube_spec(6))) == pytest.approx(
        FROZEN_ALPHAS["hypercube6"], abs=1e-11)


# roots of the exact hypercube secular equation, found with 60-digit mpmath
# arithmetic; the pair term's cotangent form, which cancels two O(1/theta)
# numbers down to O(alpha), misses them by 3.6e-11 at d=40 and more beyond
HYPERCUBE_ALPHAS = {
    40: 1.3307782806392327e-06,
    50: 4.1704660454195659e-08,
    60: 1.3056707220415527e-09,
    80: 1.2779423787379028e-12,
    105: 2.2096366388769507e-16,
    110: 3.9070100071507125e-17,
    200: 1.112796714004758e-30,
}


@pytest.mark.parametrize("degree", sorted(HYPERCUBE_ALPHAS))
def test_hypercube_alpha_matches_high_precision_root(degree):
    alpha = solve_alpha(mode_spectrum(hypercube_spec(degree)))
    assert alpha == pytest.approx(HYPERCUBE_ALPHAS[degree], rel=1e-11, abs=0)


@pytest.mark.parametrize("factors", [(0.2, 0.5), (1.5, 3.0)], ids=["below", "above"])
def test_bracket_guard_raises_when_the_root_is_outside(monkeypatch, factors):
    ms = mode_spectrum(torus_spec(8))
    alpha = solve_alpha(ms)
    wrong = (factors[0] * alpha, factors[1] * alpha)
    monkeypatch.setattr(walklab.search, "alpha_bracket", lambda _ms: wrong)
    with pytest.raises(ArithmeticError, match="not inside its bracket"):
        solve_alpha(ms)


def test_frozen_dirac_even_overlaps():
    # the frozen (identity-block) weight caps the even-side start overlap
    report = predict(torus_spec(4, shift="dirac"))
    assert report.start_overlap == pytest.approx(0.6597396084411709, abs=1e-9)
    assert report.good_overlap == pytest.approx(0.7071067811865476, abs=1e-9)


@given(a0_sq=st.floats(0.01, 0.5),
       thetas=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=6, unique=True))
@settings(max_examples=50, deadline=None)
def test_secular_function_decreases_between_poles(a0_sq, thetas):
    rest = (1.0 - a0_sq) / (2 * len(thetas))
    entries = levels(*[(theta, rest, 1) for theta in sorted(thetas)])
    ms = ModeSpectrum(a0_sq=a0_sq, entries=entries, n_vertices=10, family="torus")
    grid = np.linspace(ms.theta_min * 1e-6, ms.theta_min * (1 - 1e-6), 200)
    values = [secular_value(ms, a) for a in grid]
    assert all(x > y for x, y in zip(values, values[1:]))
    alpha = solve_alpha(ms)
    assert 0 < alpha < ms.theta_min
