"""Principal eigenphase and run-time prediction for the perturbed walk.

The perturbed walk U' = U * (I - 2|psi_good><psi_good|) has exactly one
eigenvalue pair e^(+-i alpha) strictly inside the arc |phase| < theta_min.
alpha is the root of the secular equation

    a0_eff^2 cot(a/2) + sum_j w_j m_j [cot((a+th_j)/2) + cot((a-th_j)/2)] = 0

on (0, theta_min), where (th_j, w_j, m_j) come from the mode spectrum and
a0_eff^2 folds in any stationary (+1) weight.  The left side decreases
strictly from +inf to -inf, so bisection is exact and unconditionally
safe.  From alpha follow the two principal eigenvectors, the overlaps of
start and target states with them, and the step count to the probability
peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphSpec
from .spectral import ModeSpectrum, mode_spectrum, spectral_sums

_PI = math.pi
_BISECTION_TOL = 1e-12  # final bracket width relative to its lower end


def _cot(x: np.ndarray | float):
    return np.cos(x) / np.sin(x)


def _effective_a0_sq(ms: ModeSpectrum) -> float:
    # stationary +1 weight rotates nothing but enters the secular equation
    # exactly like the uniform component
    return ms.a0_sq + ms.frozen_weight


def secular_value(ms: ModeSpectrum, alpha: float) -> float:
    """Left side of the secular equation at a candidate eigenphase."""
    thetas = np.array([e.theta for e in ms.entries])
    wm = np.array([e.weight * e.multiplicity for e in ms.entries])
    terms = wm * (_cot((alpha + thetas) / 2) + _cot((alpha - thetas) / 2))
    total = math.fsum(terms.tolist())
    return _effective_a0_sq(ms) * _cot(alpha / 2) + total


def alpha_bracket(ms: ModeSpectrum) -> tuple[float, float]:
    """Rigorous two-sided bound on the root.

    With Sigma = sum (w_j/a0_eff^2) m_j / (1 - cos th_j): the exact secular
    equation pins 1/(4 Sigma) <= 1 - cos(alpha) <= 1/(2 Sigma) (the lower
    half under alpha < theta_min/2), and 2x^2/pi^2 <= 1-cos x <= x^2/2
    turns that into 1/sqrt(2 Sigma) <= alpha <= (pi/2)/sqrt(Sigma).
    """
    s1, _, _ = spectral_sums(ms)
    sigma = s1 * ms.a0_sq / _effective_a0_sq(ms)
    return 1.0 / math.sqrt(2.0 * sigma), 0.5 * _PI / math.sqrt(sigma)


def solve_alpha(ms: ModeSpectrum) -> float:
    """Unique root of the secular equation in (0, theta_min), by bisection."""
    ms.validate()
    theta_min = ms.theta_min
    lo = theta_min * 1e-15
    hi = theta_min * (1.0 - 1e-15)
    f_lo, f_hi = secular_value(ms, lo), secular_value(ms, hi)
    shrink = 0
    while not (f_lo > 0 > f_hi):
        # poles at both ends guarantee a sign change; shrink inward if the
        # end evaluations ever land on the wrong side of a rounding cliff
        lo *= 10.0
        hi = theta_min - (theta_min - hi) * 10.0
        f_lo, f_hi = secular_value(ms, lo), secular_value(ms, hi)
        shrink += 1
        if shrink > 12 or lo >= hi:
            raise ArithmeticError(
                f"could not bracket the secular root: f({lo:.3e})={f_lo:.3e}, "
                f"f({hi:.3e})={f_hi:.3e}, theta_min={theta_min:.6e}"
            )
    while hi - lo > _BISECTION_TOL * lo:
        mid = 0.5 * (lo + hi)
        if secular_value(ms, mid) > 0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)

    blo, bhi = alpha_bracket(ms)
    if alpha > bhi * (1 + 1e-9):
        raise AssertionError(f"alpha {alpha:.6e} above rigorous bound {bhi:.6e}")
    if alpha < 0.5 * theta_min and alpha < blo * (1 - 1e-9):
        raise AssertionError(f"alpha {alpha:.6e} below rigorous bound {blo:.6e}")
    return alpha


# -- principal eigenvectors -------------------------------------------------


@dataclass(frozen=True)
class PrincipalVector:
    """Coefficients of |w'_alpha> over (psi_start, Phi_j^+, Phi_j^-, frozen).

    The eigenvector of U' for e^(i alpha) is |psi_good> + i |w'_alpha>.
    Entries are aligned with the ModeSpectrum levels; each of the m_j pairs
    in a level shares the same pair of cotangent coefficients.
    """

    c_start: float
    c_plus: np.ndarray
    c_minus: np.ndarray
    c_frozen: float

    def norm_sq(self, ms: ModeSpectrum) -> float:
        mults = np.array([e.multiplicity for e in ms.entries], dtype=float)
        # c_plus/c_minus already carry the per-pair weight a_j
        pair_part = float(np.sum(mults * (self.c_plus ** 2 + self.c_minus ** 2)))
        return self.c_start ** 2 + self.c_frozen ** 2 + pair_part


def build_principal_eigenvector(ms: ModeSpectrum, alpha: float) -> PrincipalVector:
    """Coefficient list of |w'_alpha> (unnormalized)."""
    thetas = np.array([e.theta for e in ms.entries])
    a = np.sqrt(np.array([e.weight for e in ms.entries]))
    c_start = math.sqrt(ms.a0_sq) * _cot(alpha / 2)
    c_frozen = math.sqrt(ms.frozen_weight) * _cot(alpha / 2)
    return PrincipalVector(
        c_start=c_start,
        c_plus=a * _cot((alpha - thetas) / 2),
        c_minus=a * _cot((alpha + thetas) / 2),
        c_frozen=c_frozen,
    )


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
    thetas = np.array([e.theta for e in ms.entries])
    wm = np.array([e.weight * e.multiplicity for e in ms.entries])
    sum_mix = float(np.sum(wm * (_cot((alpha - thetas) / 2) + _cot((alpha + thetas) / 2)) ** 2))
    cot_half = _cot(alpha / 2)
    start_norm_sq = 2.0 * _effective_a0_sq(ms) * cot_half ** 2 + sum_mix
    start_overlap = math.sqrt(2.0 * ms.a0_sq) * cot_half / math.sqrt(start_norm_sq)

    delta = _cot((alpha + thetas) / 2) + _cot((thetas - alpha) / 2)
    good_norm_sq = 4.0 + 2.0 * float(np.sum(wm * delta ** 2))
    good_overlap = 2.0 / math.sqrt(good_norm_sq)
    return start_overlap, good_overlap


# -- run time ----------------------------------------------------------------


def predict_runtime(ms: ModeSpectrum, alpha: float,
                    spec: GraphSpec | None = None) -> tuple[int, tuple[float, float]]:
    """(t_star, (t_min, t_max)).

    t_star = ceil(pi / 4 alpha) is the quarter-rotation step count; the
    probability peak sits near the half rotation pi / 2 alpha (see
    PredictionReport.peak_steps).  The flip-flop 2D grid gets the explicit
    pair (sqrt(N log2 N)/2, pi sqrt(N log2 N)/(2 sqrt 2)); other families
    derive their bracket from the rigorous alpha bracket.
    """
    t_star = math.ceil(_PI / (4.0 * alpha))
    if spec is not None and spec.family == "torus" and spec.shift == "flip_flop" \
            and len(spec.dims) == 2:
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

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n_vertices": self.n_vertices,
            "alpha": self.alpha,
            "theta_min": self.theta_min,
            "in_small_angle_regime": self.in_small_angle_regime,
            "t_star": self.t_star,
            "t_bracket": list(self.t_bracket),
            "peak_steps": self.peak_steps,
            "start_overlap": self.start_overlap,
            "good_overlap": self.good_overlap,
            "predicted_peak_probability": self.predicted_peak_probability,
            "alpha_bracket": list(self.alpha_bracket),
        }


def predict(spec: GraphSpec) -> PredictionReport:
    """Full spectral prediction for a single marked vertex on this arena.

    peak_steps is where the success probability should crest: the half
    rotation pi/(2 alpha), doubled on the complete graph where one
    amplitude-amplification turn costs two swap-walk steps.  If alpha sits
    at or above theta_min/2 the closed-form overlap regime is gone; small
    instances then take their overlaps from the dense eigenvectors instead.
    """
    ms = mode_spectrum(spec)
    alpha = solve_alpha(ms)
    start_overlap, good_overlap = predict_overlaps(ms, alpha)
    in_regime = alpha < 0.5 * ms.theta_min * (1.0 - 1e-9)
    if not in_regime and spec.family != "complete":
        dense = _dense_overlap_fallback(spec)
        if dense is not None:
            start_overlap, good_overlap = dense
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


def _dense_overlap_fallback(spec: GraphSpec) -> tuple[float, float] | None:
    """Overlaps from the aligned dense principal eigenvectors (small N only)."""
    from .engine import default_coin
    from .graphs import build_graph
    from .oracle import DIMENSION_CAP, dense_principal_pair, dense_unitary

    graph = build_graph(spec)
    if graph.coin_dim * graph.n > DIMENSION_CAP:
        return None
    _, start, good = dense_principal_pair(dense_unitary(graph, default_coin(graph, marked=(0,))), 0)
    return start, good
