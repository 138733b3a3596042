"""Principal eigenphase and run-time prediction for the perturbed walk.

The perturbed walk U' = U * (I - 2|psi_good><psi_good|) has exactly one
eigenvalue pair e^(+-i alpha) strictly inside the arc |phase| < theta_min.
alpha is the root of the secular equation

    a0_eff^2 cot(a/2) + sum_j w_j m_j [cot((a+th_j)/2) + cot((a-th_j)/2)] = 0

on (0, theta_min), where (th_j, w_j, m_j) come from the mode spectrum and
a0_eff^2 folds in any stationary (+1) weight.  The left side decreases
strictly from +inf to -inf.  Each pair term is evaluated in its sine form
-sin(a) / (sin((th+a)/2) sin((th-a)/2)), which does not cancel two
O(1/th) cotangents down to O(a), so the sign of the sum holds however
small a is.  Bisection runs inside the rigorous two-sided bound on the
root (alpha_bracket), with one sign check at its ends as the guard.
From alpha follow the two principal eigenvectors, the overlaps of start
and target states with them, and the step count to the probability peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphSpec
from .spectral import ModeSpectrum, mode_spectrum

_PI = math.pi
_BISECTION_TOL = 1e-12  # final bracket width relative to its lower end
_UNIT_ROUNDOFF = 2.0 ** -53  # float64, round to nearest


def _cot(x: np.ndarray | float):
    return np.cos(x) / np.sin(x)


def _effective_a0_sq(ms: ModeSpectrum) -> float:
    # stationary +1 weight rotates nothing but enters the secular equation
    # exactly like the uniform component
    return ms.a0_sq + ms.frozen_weight


def _pair_term(alpha: float, thetas: np.ndarray) -> np.ndarray:
    """cot((a+th)/2) + cot((a-th)/2), in its sine form, free of cancellation."""
    return -np.sin(alpha) / (np.sin((thetas + alpha) / 2) * np.sin((thetas - alpha) / 2))


def secular_value(ms: ModeSpectrum, alpha: float) -> float:
    """Left side of the secular equation at a candidate eigenphase.

    The level terms are summed by np.sum.  Where the result is larger
    than that sum's rigorous error bound (gamma_n * sum |t_j|, doubled
    to cover the rounding of the bound and of the pole term's addition),
    its sign is the sign of the exactly rounded sum; only inside the bound,
    near the root, are the terms summed again exactly by math.fsum.  So
    bisection on the sign takes the same steps as with an exact sum.
    """
    thetas, wm = ms.level_columns
    terms = wm * _pair_term(alpha, thetas)
    pole = _effective_a0_sq(ms) * _cot(alpha / 2)
    fast = float(terms.sum())
    value = pole + fast
    gamma = terms.size * _UNIT_ROUNDOFF / (1.0 - terms.size * _UNIT_ROUNDOFF)
    if abs(value) > 2.0 * gamma * float(np.abs(terms).sum()) + 2.0 * _UNIT_ROUNDOFF * abs(fast):
        return value
    return pole + math.fsum(terms.tolist())


def alpha_bracket(ms: ModeSpectrum) -> tuple[float, float]:
    """Rigorous two-sided bound on the root.

    With Sigma = sum (w_j/a0_eff^2) m_j / (1 - cos th_j), which is S1 of
    ModeSpectrum.sums scaled by a0^2/a0_eff^2: the exact secular
    equation pins 1/(4 Sigma) <= 1 - cos(alpha) <= 1/(2 Sigma) (the lower
    half under alpha < theta_min/2), and 2x^2/pi^2 <= 1-cos x <= x^2/2
    turns that into 1/sqrt(2 Sigma) <= alpha <= (pi/2)/sqrt(Sigma).
    """
    s1, _, _ = ms.sums
    sigma = s1 * ms.a0_sq / _effective_a0_sq(ms)
    return 1.0 / math.sqrt(2.0 * sigma), 0.5 * _PI / math.sqrt(sigma)


def solve_alpha(ms: ModeSpectrum) -> float:
    """Unique root of the secular equation in (0, theta_min), by bisection
    inside alpha_bracket.  Its lower end is proven only for roots below
    theta_min/2, so the search starts at the smaller of the two."""
    theta_min = ms.theta_min
    blo, bhi = alpha_bracket(ms)
    lo = min(blo, 0.5 * theta_min) * (1.0 - 1e-9)
    hi = min(bhi * (1.0 + 1e-9), theta_min * (1.0 - 1e-15))
    f_lo, f_hi = secular_value(ms, lo), secular_value(ms, hi)
    if not f_lo > 0 > f_hi:
        raise ArithmeticError(
            f"the secular root is not inside its bracket: f({lo:.3e})={f_lo:.3e}, "
            f"f({hi:.3e})={f_hi:.3e}, theta_min={theta_min:.6e}"
        )
    while hi - lo > _BISECTION_TOL * lo:
        mid = 0.5 * (lo + hi)
        if secular_value(ms, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def predict_overlaps(ms: ModeSpectrum, alpha: float) -> tuple[float, float]:
    """(start_overlap, good_overlap) of the true start/target states with
    the normalized principal combinations w_start and w_good.

    Derived exactly from the eigenvector coefficients:

      <psi_start|w_start> = sqrt(2) a0 cot(alpha/2) / ||w'_start||,
      ||w'_start||^2 = 2 a0_eff^2 cot^2(alpha/2)
                       + sum_j w_j m_j (cot((a-th)/2) + cot((a+th)/2))^2

      <psi_good|w_good> = 2 / ||w'_good||,
      ||w'_good||^2 = 4 + 2 sum_j w_j m_j (cot((a+th)/2) + cot((th-a)/2))^2

    At the secular root both denominators equal sqrt(2) * ||psi_good +
    i w'_alpha||, so these are the inner products with the normalized
    principal eigenvector combinations.  The small-angle regime of the
    surrounding theory additionally wants alpha < theta_min/2; the report
    records whether that holds.
    """
    thetas, wm = ms.level_columns
    sum_mix = float(np.sum(wm * _pair_term(alpha, thetas) ** 2))
    cot_half = _cot(alpha / 2)
    start_norm_sq = 2.0 * _effective_a0_sq(ms) * cot_half ** 2 + sum_mix
    start_overlap = math.sqrt(2.0 * ms.a0_sq) * cot_half / math.sqrt(start_norm_sq)

    delta = _cot((alpha + thetas) / 2) + _cot((thetas - alpha) / 2)
    good_norm_sq = 4.0 + 2.0 * float(np.sum(wm * delta ** 2))
    good_overlap = 2.0 / math.sqrt(good_norm_sq)
    return start_overlap, good_overlap


# -- run time ----------------------------------------------------------------


def predict_runtime(ms: ModeSpectrum, alpha: float,
                    spec: GraphSpec) -> tuple[int, tuple[float, float]]:
    """(t_star, (t_min, t_max)).

    t_star = ceil(pi / 4 alpha) is the quarter-rotation step count, taken
    at alpha's upper end (alpha is known to _BISECTION_TOL), so an exact
    integer such as L/4 on the 1D torus does not round up by alpha's last
    bits; the probability peak sits near the half rotation pi / 2 alpha
    (see PredictionReport.peak_steps).  The flip-flop 2D grid gets the
    explicit pair (sqrt(N log2 N)/2, pi sqrt(N log2 N)/(2 sqrt 2)); other
    families derive their bracket from the rigorous alpha bracket.
    """
    t_star = math.ceil(_PI / (4.0 * alpha) * (1.0 - _BISECTION_TOL))
    if spec.family == "torus" and spec.shift == "flip_flop" and len(spec.dims) == 2:
        n = spec.n_vertices
        scale = math.sqrt(n * math.log2(n))
        bracket = (0.5 * scale, _PI * scale / (2.0 * math.sqrt(2.0)))
    else:
        blo, bhi = alpha_bracket(ms)
        bracket = (_PI / (4.0 * bhi), _PI / (4.0 * blo))
    return t_star, bracket


@dataclass(frozen=True)
class PredictionReport:
    """Everything the spectral route predicts about one search instance."""

    family: str
    n_vertices: int
    alpha: float
    theta_min: float
    in_small_angle_regime: bool
    t_star: int
    t_bracket: tuple[float, float]
    peak_steps: int
    start_overlap: float
    good_overlap: float
    predicted_peak_probability: float
    alpha_bracket: tuple[float, float]


def predict(spec: GraphSpec) -> PredictionReport:
    """Full spectral prediction for a single marked vertex on this arena.

    peak_steps is where the success probability should crest: the half
    rotation pi/(2 alpha), doubled on the complete graph where one
    amplitude-amplification turn costs two swap-walk steps.  The overlaps
    are exact at the secular root, so they hold outside the small-angle
    regime too (alpha at or above theta_min/2), which the report flags.
    """
    ms = mode_spectrum(spec)
    alpha = solve_alpha(ms)
    start_overlap, good_overlap = predict_overlaps(ms, alpha)
    in_regime = alpha < 0.5 * ms.theta_min * (1.0 - 1e-9)
    t_star, bracket = predict_runtime(ms, alpha, spec)
    if spec.family == "complete":
        # U'^2 advances the two-register rotation by alpha on each register
        peak_steps = 2 * max(1, round(_PI / (2.0 * alpha) - 0.5))
    else:
        peak_steps = max(1, round(_PI / (2.0 * alpha)))
    return PredictionReport(
        family=spec.family,
        n_vertices=spec.n_vertices,
        alpha=alpha,
        theta_min=ms.theta_min,
        in_small_angle_regime=in_regime,
        t_star=t_star,
        t_bracket=bracket,
        peak_steps=peak_steps,
        start_overlap=float(start_overlap),
        good_overlap=float(good_overlap),
        predicted_peak_probability=float((start_overlap * good_overlap) ** 2),
        alpha_bracket=alpha_bracket(ms),
    )

