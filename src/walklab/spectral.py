"""Fourier-mode block spectra of the unperturbed walk.

Translation-invariant shifts act mode by mode: on mode k the walk
reduces to a coin-sized unitary block D_k * C0, whose eigenphases have
closed cosine forms.  From those blocks this module assembles the
abstract-search input (eigenphases, projection weights of the marked
coin state, multiplicities), the spectral sums that set the run-time
scale, and the stationary overlap that stalls the moving-shift walk.

Mode conventions: the vertex wave of torus mode k is chi_k(x) =
omega^(-k.x)/sqrt(N) with omega = exp(2*pi*i/L), which reproduces the
coin blocks below exactly; hypercube modes are (-1)^(k.x)/sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .graphs import ConfigurationError, Graph, GraphSpec, build_graph

_PI = math.pi
_MERGE_DECIMALS = 10  # eigenphases closer than this are one degenerate level


def grover_coin(d: int) -> np.ndarray:
    """2|s><s| - I on the coin register."""
    return (2.0 / d) * np.ones((d, d), dtype=np.complex128) - np.eye(d, dtype=np.complex128)


# -- coin blocks -----------------------------------------------------------


def coin_block(spec: GraphSpec, mode) -> np.ndarray:
    """The coin-sized unitary the walk reduces to on one Fourier mode.

    mode: tuple of d integers for tori (k_i in 0..L-1), tuple of d bits for
    the hypercube.
    """
    mode = tuple(int(m) for m in mode)
    if spec.family == "complete":
        raise ConfigurationError("the complete-graph walk has no Fourier mode structure")
    if spec.family == "hypercube":
        d = spec.dims[0]
        if len(mode) != d or any(b not in (0, 1) for b in mode):
            raise ConfigurationError("hypercube mode must be a tuple of d bits")
        signs = np.array([1.0 if b == 0 else -1.0 for b in mode])
        return np.diag(signs).astype(np.complex128) @ grover_coin(d)

    length = spec.dims[0]
    ndim = len(spec.dims)
    if len(mode) != ndim or any(not 0 <= k < length for k in mode):
        raise ConfigurationError(f"mode must lie in {{0..{length - 1}}}^{ndim}")
    omega = np.exp(2j * _PI / length)

    if spec.shift == "dirac":
        # y-move is diagonal in the coin basis, x-move in the Hadamard basis;
        # with chi_k(x) = omega^(-kx) the composed block on mode (k, l) is
        # the (-k, -l) relabeling of the same two-parameter family.
        k, el = mode
        ck, sk = np.cos(2 * _PI * k / length), np.sin(2 * _PI * k / length)
        wl = omega ** el
        return np.array([[ck / wl, -1j * wl * sk],
                         [-1j * sk / wl, wl * ck]], dtype=np.complex128)

    d = 2 * ndim
    diag = np.zeros((d, d), dtype=np.complex128)
    for axis, k in enumerate(mode):
        wk = omega ** k
        i = 2 * axis
        if spec.shift == "flip_flop":
            diag[i, i + 1] = 1.0 / wk
            diag[i + 1, i] = wk
        elif spec.shift == "moving":
            diag[i, i] = wk
            diag[i + 1, i + 1] = 1.0 / wk
        else:
            raise ConfigurationError(f"no coin block for shift {spec.shift!r}")
    return diag @ grover_coin(d)


def closed_form_cos(spec: GraphSpec, mode) -> float:
    """cos(theta) of the non-trivial eigenphase pair on one mode."""
    if spec.family == "hypercube":
        d = spec.dims[0]
        w = sum(mode)
        return 1.0 - 2.0 * w / d
    length = spec.dims[0]
    angles = [2 * _PI * k / length for k in mode]
    if spec.shift == "flip_flop":
        return float(np.mean(np.cos(angles)))
    if spec.shift == "moving":
        return float(-np.mean(np.cos(angles)))
    if spec.shift == "dirac":
        k, el = mode
        return 0.5 * (math.cos(2 * _PI * (k + el) / length)
                      + math.cos(2 * _PI * (k - el) / length))
    raise ConfigurationError(f"no closed form for shift {spec.shift!r}")


def closed_form_block_phases(spec: GraphSpec, mode) -> list[float]:
    """All coin_dim eigenphases of the mode block, from the closed forms.

    Tori contribute the +/-theta pair plus (d-1)-fold 1 and -1 levels; the
    hypercube pair sits beside (w-1) ones and (d-w-1) minus-ones where w is
    the mode weight; the two-dimensional coin has just the pair.
    """
    theta = math.acos(max(-1.0, min(1.0, closed_form_cos(spec, mode))))
    if spec.shift == "dirac":
        return [theta, -theta]
    if spec.family == "hypercube":
        d = spec.dims[0]
        w = sum(mode)
        if w == 0:
            return [0.0] + [_PI] * (d - 1)
        if w == d:
            return [_PI] + [0.0] * (d - 1)
        return [theta, -theta] + [0.0] * (w - 1) + [_PI] * (d - w - 1)
    ndim = len(spec.dims)
    return [theta, -theta] + [0.0] * (ndim - 1) + [_PI] * (ndim - 1)


def mode_vertex_wave(graph: Graph, mode) -> np.ndarray:
    """chi_mode as a length-N vertex vector (see module docstring)."""
    spec = graph.spec
    if spec.family == "hypercube":
        mask = sum(1 << i for i, b in enumerate(mode) if b)
        parity = np.array([bin(v & mask).count("1") & 1 for v in range(graph.n)])
        wave = np.where(parity, -1.0, 1.0).astype(np.complex128)
        return wave / math.sqrt(graph.n)
    length = spec.dims[0]
    omega = np.exp(-2j * _PI / length)
    axes = [omega ** (k * np.arange(length)) for k in mode]
    wave = axes[0]
    for ax in axes[1:]:
        wave = np.multiply.outer(ax, wave).reshape(-1)  # later coords vary slower
    return wave / math.sqrt(graph.n)


def lift_block_vector(graph: Graph, mode, coin_vec: np.ndarray) -> np.ndarray:
    """coin_vec (x) chi_mode as a flat (coin_dim*N,) state vector."""
    wave = mode_vertex_wave(graph, mode)
    return np.kron(np.asarray(coin_vec, dtype=np.complex128), wave)


# -- mode spectrum ---------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    """One degenerate level of conjugate eigenphase pairs.

    theta is in (0, pi]; weight is the squared projection of the marked
    coin state onto one member of each pair (theta = pi levels carry the
    full projection split as two half-weight virtual pair members, which
    keeps every downstream formula uniform).
    """

    theta: float
    weight: float
    multiplicity: int


@dataclass(frozen=True)
class ModeSpectrum:
    """Abstract-search input: start weight a0^2 plus the rotating levels.

    frozen_weight is the squared projection of the marked coin state onto
    +1-eigenvectors of the walk other than the uniform state (nonzero only
    for the two-dimensional coin on even sides); that amplitude never
    rotates and is accounted separately.
    """

    a0_sq: float
    entries: tuple[SpectrumEntry, ...]
    n_vertices: int
    family: str
    frozen_weight: float = 0.0

    @property
    def theta_min(self) -> float:
        return self.entries[0].theta

    @property
    def retained_dim(self) -> int:
        dim = 1 + (1 if self.frozen_weight > 0 else 0)
        for e in self.entries:
            dim += e.multiplicity if e.theta > _PI - 1e-12 else 2 * e.multiplicity
        return dim

    def completeness_defect(self) -> float:
        total = self.a0_sq + self.frozen_weight
        total += sum(2.0 * e.weight * e.multiplicity for e in self.entries)
        return abs(total - 1.0)

    def validate(self, tol: float = 1e-9) -> None:
        if not self.entries:
            raise ConfigurationError("empty mode spectrum")
        if self.theta_min <= 0:
            raise ConfigurationError("theta_min must be positive")
        defect = self.completeness_defect()
        if defect > tol:
            raise ConfigurationError(f"mode weights are incomplete (defect {defect:.3e})")

    def to_json_dict(self) -> dict:
        return {
            "a0_sq": self.a0_sq,
            "frozen_weight": self.frozen_weight,
            "theta_min": self.theta_min,
            "retained_dim": self.retained_dim,
            "n_vertices": self.n_vertices,
            "family": self.family,
            "entries": [
                {"theta": e.theta, "weight": e.weight, "multiplicity": e.multiplicity}
                for e in self.entries
            ],
        }


class _LevelAccumulator:
    """Groups eigenphases that agree to _MERGE_DECIMALS, keeping exact values."""

    def __init__(self):
        self._levels: dict[float, list] = {}

    def add(self, theta: float, multiplicity: int = 1) -> None:
        key = round(theta, _MERGE_DECIMALS)
        slot = self._levels.setdefault(key, [theta, 0])
        slot[1] += multiplicity

    def entries(self, weight: float) -> tuple[SpectrumEntry, ...]:
        levels = sorted(self._levels.values())
        return tuple(SpectrumEntry(theta, weight, mult) for theta, mult in levels)


def torus_modes(spec: GraphSpec):
    length = spec.dims[0]
    ndim = 2 if spec.shift == "dirac" else len(spec.dims)
    yield from product(range(length), repeat=ndim)


def mode_spectrum(spec: GraphSpec) -> ModeSpectrum:
    """Eigenphase levels and weights feeding the run-time prediction.

    Supported: flip-flop tori in any dimension, the two-dimensional coin
    walk, the hypercube, and the complete graph (whose reduction is the
    textbook two-phase rotation).  The moving shift has no such structure;
    its stationary overlap is computed by moving_shift_stationary_overlap.
    """
    n = spec.n_vertices
    if spec.shift == "moving":
        raise ConfigurationError(
            "moving shift has no abstract-search structure; "
            "use moving_shift_stationary_overlap (CLI: analyze-moving)"
        )

    if spec.family == "complete":
        entry = SpectrumEntry(_PI, (n - 1) / (2.0 * n), 1)
        ms = ModeSpectrum(1.0 / n, (entry,), n, spec.family)
        ms.validate()
        return ms

    if spec.family == "hypercube":
        d = spec.dims[0]
        acc = _LevelAccumulator()
        for w in range(1, d + 1):
            acc.add(math.acos(1.0 - 2.0 * w / d), math.comb(d, w))
        ms = ModeSpectrum(1.0 / n, acc.entries(1.0 / (2 * n)), n, spec.family)
        ms.validate()
        return ms

    # tori: flip-flop any dimension, dirac in two
    frozen = 0.0
    acc = _LevelAccumulator()
    for mode in torus_modes(spec):
        if all(k == 0 for k in mode):
            continue
        cos_theta = closed_form_cos(spec, mode)
        if cos_theta > 1.0 - 1e-12:
            # an extra +1 block: its share of |s,v> never rotates
            frozen += 1.0 / n
            continue
        acc.add(math.acos(max(-1.0, cos_theta)))
    ms = ModeSpectrum(1.0 / n, acc.entries(1.0 / (2 * n)), n,
                      spec.family, frozen_weight=frozen)
    ms.validate()
    return ms


# -- spectral sums ---------------------------------------------------------


def spectral_sums(ms: ModeSpectrum) -> tuple[float, float, float]:
    """(S1, S2, Scot): the inverse-gap, squared-inverse-gap and cot sums.

    S1 = sum (a_j^2/a_0^2) m_j / (1-cos theta_j)   -- sets the eigenphase alpha
    S2 = sum (a_j^2/a_0^2) m_j / (1-cos theta_j)^2 -- sets the start overlap
    Scot = sum a_j^2 m_j cot^2(theta_j/4)          -- sets the good overlap
    """
    s1 = s2 = scot = 0.0
    for e in ms.entries:
        gap = 1.0 - math.cos(e.theta)
        ratio = e.weight / ms.a0_sq * e.multiplicity
        s1 += ratio / gap
        s2 += ratio / gap ** 2
        scot += e.weight * e.multiplicity / math.tan(e.theta / 4.0) ** 2
    return s1, s2, scot


# -- moving shift ------------------------------------------------------------


def moving_shift_stationary_overlap(spec: GraphSpec, marked_vertex: int = 0) -> float:
    """Squared overlap of the uniform start with the 1-eigenspace of U'.

    Computed exactly from the closed-form 1-eigenvectors of the moving-shift
    blocks, u1_kl = (w^k(1+w^l), 1+w^l, w^l(1+w^k), 1+w^k).  The result
    approaches 1 as N grows, which is what stalls this walk: nearly all of
    the start state is stationary under the perturbed evolution.
    """
    if spec.family != "torus" or len(spec.dims) != 2 or spec.shift != "moving":
        raise ConfigurationError("stationary overlap analysis is for the 2D moving shift")
    n = spec.n_vertices
    graph = build_graph(spec)
    if not 0 <= marked_vertex < n:
        raise ConfigurationError(f"marked vertex {marked_vertex} out of range")

    length = spec.dims[0]
    omega = np.exp(2j * _PI / length)
    total = 0.0
    for k, el in torus_modes(spec):
        wk, wl = omega ** k, omega ** el
        u1 = np.array([wk * (1 + wl), 1 + wl, wl * (1 + wk), 1 + wk])
        nrm = np.linalg.norm(u1)
        if nrm < 1e-12:
            continue  # degenerate mode; its 1-eigenvectors are orthogonal to |s>
        # <s|u1> = (1+w^k)(1+w^l) for s = (1,1,1,1)/2, and |<v|chi_k chi_l>| = 1/sqrt(N)
        total += (abs((1 + wk) * (1 + wl)) / nrm) ** 2 / n
    alpha00_sq = 1.0 / n
    overlap_sq = float(1.0 - alpha00_sq / total)
    if overlap_sq < 1.0 - 16.0 / n:
        raise AssertionError(
            f"stationary overlap {overlap_sq:.6f} below 1 - 16/N; "
            "the closed-form weights are inconsistent"
        )
    return overlap_sq
