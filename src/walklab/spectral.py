"""Closed-form Fourier-mode spectra of the unperturbed walk.

Translation-invariant shifts act mode by mode: on mode k the walk
reduces to a coin-sized unitary block D_k * C0, whose non-trivial
eigenphase pair +-theta_k has a closed form in the half angle over the
step set, sin^2(theta_k/2) (`sin2_half_theta` of GraphSpec.steps), from
which theta_k = 2 asin(sqrt(.)) keeps its relative accuracy however small.
This module evaluates that form on every mode at once and assembles the
abstract-search input (eigenphases, projection weights of the marked
coin state, multiplicities), the spectral sums that set the run-time
scale, and the stationary overlap that stalls the moving-shift walk.

Nothing here builds a block or a mode's vertex wave.  Those, with the
lift of a block eigenvector to the full space, are the test references
(tests/helpers.py) that check the closed forms against the dense oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import ConfigurationError, GraphSpec

_PI = math.pi
_MERGE_DECIMALS = 10  # eigenphases closer than this are one degenerate level
_COMPLETENESS_TOL = 1e-9  # largest |sum of all weights - 1| a spectrum may have


def sin2_half_theta(spec: GraphSpec, mode) -> float | np.ndarray:
    """sin^2(theta/2) = (1 - cos theta)/2 of the non-trivial eigenphase pair
    on one mode k, or on each row of an (M, d) array of modes: on a torus
    the mean of trig^2(pi k.e/L) over the + move e of each axis pair.

    The half-angle form has no cancellation near theta = 0, where
    acos(mean cos(2 pi k_i/L)) loses about eps/theta^2 relative accuracy.
    """
    mode = np.asarray(mode)
    if spec.family == "hypercube":
        return mode.sum(axis=-1) / spec.dims[0]
    if spec.shift == "swap":
        raise ConfigurationError(f"no closed form for shift {spec.shift!r}")
    steps = spec.steps  # on dirac a step is a y half-move plus an x half-move
    steps = steps[:, :1] + steps[:, 2:] if spec.shift == "dirac" else steps[:, ::2]
    trig = np.cos if spec.shift == "moving" else np.sin
    return np.mean(trig(_PI * (mode @ steps) / spec.dims[0]) ** 2, axis=-1)


def _theta(sin2_half) -> np.ndarray:
    return 2.0 * np.arcsin(np.sqrt(sin2_half))


# -- mode spectrum ---------------------------------------------------------


class NoSearchStructure(ConfigurationError):
    """The walk has no abstract-search reduction (the moving shift)."""


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Abstract-search input: start weight a0^2 plus the rotating levels.

    entries is a record array with one row per degenerate level of
    conjugate eigenphase pairs, sorted by theta, and the columns theta,
    weight and multiplicity.  theta is in (0, pi]; weight is the squared
    projection of the marked coin state onto one member of each pair
    (theta = pi levels carry the full projection split as two half-weight
    virtual pair members, which keeps every downstream formula uniform).

    frozen_weight is the squared projection of the marked coin state onto
    +1-eigenvectors of the walk other than the uniform state (nonzero only
    for the two-dimensional coin on even sides); that amplitude never
    rotates and is accounted separately.

    A spectrum checks itself when it is built: it has a level, theta_min
    is positive and its weights are complete.  It is not changed after
    construction: level_columns and sums are formed from entries on first
    use and kept.
    """

    a0_sq: float
    entries: np.recarray
    n_vertices: int
    family: str
    frozen_weight: float = 0.0

    @property
    def theta_min(self) -> float:
        return float(self.entries.theta[0])

    @cached_property
    def level_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, weight * multiplicity) as float64 arrays."""
        # a float column even where a hypercube's counts outgrow int64 (object ints)
        return self.entries.theta, self.entries.weight * self.entries.multiplicity.astype(float)

    @cached_property
    def sums(self) -> tuple[float, float, float]:
        """(S1, S2, Scot): the inverse-gap, squared-inverse-gap and cot sums.

        S1 = sum (a_j^2/a_0^2) m_j / (1-cos theta_j)   -- sets the eigenphase alpha
        S2 = sum (a_j^2/a_0^2) m_j / (1-cos theta_j)^2 -- sets the start overlap
        Scot = sum a_j^2 m_j cot^2(theta_j/4)          -- sets the good overlap
        """
        theta, wm = self.level_columns
        gap = 2.0 * np.sin(theta / 2.0) ** 2  # 1 - cos(theta), free of cancellation
        ratio = wm / self.a0_sq
        return (float(np.sum(ratio / gap)), float(np.sum(ratio / gap ** 2)),
                float(np.sum(wm / np.tan(theta / 4.0) ** 2)))

    @property
    def retained_dim(self) -> int:
        # Python ints: a hypercube's level counts outgrow int64
        mult = self.entries.multiplicity.astype(object)
        single = mult[self.entries.theta > _PI - 1e-12].sum()  # pi levels are not pairs
        return 1 + (1 if self.frozen_weight > 0 else 0) + 2 * mult.sum() - single

    def completeness_defect(self) -> float:
        total = self.a0_sq + self.frozen_weight
        total += float(np.sum(2.0 * self.entries.weight * self.entries.multiplicity))
        return abs(total - 1.0)

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise ConfigurationError("empty mode spectrum")
        if self.theta_min <= 0:
            raise ConfigurationError("theta_min must be positive")
        defect = self.completeness_defect()
        if defect > _COMPLETENESS_TOL:
            raise ConfigurationError(f"mode weights are incomplete (defect {defect:.3e})")


def _levels(theta, weight: float, multiplicity) -> np.recarray:
    return np.rec.fromarrays([theta, np.full(len(theta), weight), multiplicity],
                             names="theta,weight,multiplicity")


def torus_modes(spec: GraphSpec) -> np.ndarray:
    """Every Fourier mode of the torus as an (M, d) int array, one row per
    mode in itertools.product order; C order, so that reductions along a row
    round as they do on a single mode."""
    length = spec.dims[0]
    ndim = len(spec.dims)
    return np.ascontiguousarray(np.indices((length,) * ndim).reshape(ndim, -1).T)


def mode_spectrum(spec: GraphSpec) -> ModeSpectrum:
    """Eigenphase levels and weights feeding the run-time prediction.

    Supported: flip-flop tori in any dimension, the two-dimensional coin
    walk, the hypercube, and the complete graph (whose reduction is the
    textbook two-phase rotation).  The moving shift has no such structure;
    its stationary overlap is computed by moving_shift_stationary_overlap.
    """
    n = spec.n_vertices
    if spec.shift == "moving":
        raise NoSearchStructure(
            "moving shift has no abstract-search structure; "
            "use moving_shift_stationary_overlap (CLI: analyze-moving)"
        )

    if spec.family == "complete":
        return ModeSpectrum(1.0 / n, _levels([_PI], (n - 1) / (2.0 * n), [1]), n, spec.family)

    if spec.family == "hypercube":
        d = spec.dims[0]
        if 2 * n > sys.float_info.max:
            raise ConfigurationError(
                f"hypercube degree {d} is beyond the spectral route: the level weight "
                f"1/(2N) needs 2N = 2^{d + 1} as a float64, which stops at degree 1022")
        # row w-1 of the lower triangle is a mode of Hamming weight w
        theta = _theta(sin2_half_theta(spec, np.tri(d, dtype=np.int64)))
        mult = [math.comb(d, w) for w in range(1, d + 1)]
        # int64 counts while they fit, Python ints (an object column) past that
        mult = np.array(mult, dtype=np.int64 if max(mult) <= np.iinfo(np.int64).max else object)
        return ModeSpectrum(1.0 / n, _levels(theta, 1.0 / (2 * n), mult), n, spec.family)

    # tori: flip-flop any dimension, dirac in two; row 0 is the zero mode
    sin2_half = sin2_half_theta(spec, torus_modes(spec)[1:])
    rotating = 2.0 * sin2_half >= 1e-12  # 1 - cos(theta) of at least 1e-12
    # each extra +1 block keeps its share of |s,v> from rotating
    frozen = np.count_nonzero(~rotating) / n
    theta = _theta(sin2_half[rotating])
    # one level per eigenphase to _MERGE_DECIMALS, valued at its first mode
    _, first, mult = np.unique(np.round(theta, _MERGE_DECIMALS),
                               return_index=True, return_counts=True)
    return ModeSpectrum(1.0 / n, _levels(theta[first], 1.0 / (2 * n), mult),
                        n, spec.family, frozen_weight=frozen)


# -- moving shift ------------------------------------------------------------


def _sum_in_order(terms: np.ndarray) -> float:
    """Left-to-right float sum; np.sum adds pairwise and rounds differently."""
    return float(np.add.accumulate(terms)[-1])


def moving_shift_stationary_overlap(spec: GraphSpec) -> float:
    """Squared overlap of the uniform start with the 1-eigenspace of U'.

    Computed exactly from the closed-form 1-eigenvectors of the moving-shift
    blocks, u1_kl = (w^k(1+w^l), 1+w^l, w^l(1+w^k), 1+w^k).  The result
    approaches 1 as N grows, which is what stalls this walk: nearly all of
    the start state is stationary under the perturbed evolution.  By
    translation symmetry it does not depend on which vertex is marked.
    """
    if spec.family != "torus" or len(spec.dims) != 2 or spec.shift != "moving":
        raise ConfigurationError("stationary overlap analysis is for the 2D moving shift")
    n = spec.n_vertices

    length = spec.dims[0]
    # per mode: <s|u1> = (1+w^k)(1+w^l) for s = (1,1,1,1)/2, |1+w^k|^2 = 4a and
    # |u1|^2 = 8(a+b), with a = cos^2(pi k/L) and b = cos^2(pi l/L), so that
    # |<s|u1>|^2/|u1|^2 is their harmonic mean 2ab/(a+b); |<v|chi_k chi_l>| = 1/sqrt(N)
    a = np.cos(_PI * np.arange(length) / length)[:, None] ** 2
    b = a.T
    # a degenerate mode's 1-eigenvectors are orthogonal to |s> (k = l = L/2,
    # where a and b are 0 but for rounding, about 4e-33)
    total = _sum_in_order((2.0 / (1.0 / a + 1.0 / b) / n)[8.0 * (a + b) >= 1e-24])
    alpha00_sq = 1.0 / n
    overlap_sq = float(1.0 - alpha00_sq / total)
    if overlap_sq < 1.0 - 16.0 / n:
        raise AssertionError(
            f"stationary overlap {overlap_sq:.6f} below 1 - 16/N; "
            "the closed-form weights are inconsistent"
        )
    return overlap_sq
