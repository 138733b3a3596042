"""Ground truth for small instances: explicit unitaries and eigensystems.

Everything here is validation machinery.  The fast engine is never
checked against itself: the dense U' = S * C' is assembled from the
explicit coin matrix and the shift rule of `graphs` (shift_permutation,
or shift_target per dirac half-move), without calling the engine.  Every
walk here is real, so U' is a float64 matrix; it is powered explicitly
and eigendecomposed via a Schur reduction (which hands back an
orthonormal eigenbasis, since a unitary matrix is normal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .engine import CoinConfig, marked_coin_state, uniform_state
from .graphs import Graph
from .spectral import (coin_block, grover_coin, lift_block_vector, mode_vertex_wave,
                       torus_modes)

DIMENSION_CAP = 1024
# scaling by the reciprocal, as the engine's dirac shift does, rounds alike
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class DenseOperator:
    """A full (coin_dim*N)-dimensional real unitary with its arena."""

    graph: Graph
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        m = self.matrix
        return float(np.max(np.abs(m.conj().T @ m - np.eye(self.dim))))


def dense_unitary(graph: Graph, coin: CoinConfig) -> DenseOperator:
    """U' = S * C' as a float64 matrix, index c*N + v.

    The rows of the explicit coin matrix C' are scattered through the
    shift permutation.  The dirac step is the coin-basis half-move along
    y, then the half-move along x conjugated by the Hadamard.
    """
    dim = graph.coin_dim * graph.n
    if dim > DIMENSION_CAP:
        raise ValueError(
            f"dense oracle capped at dimension {DIMENSION_CAP}; "
            f"requested coin_dim*N = {dim}"
        )
    coin.validate_for(graph)
    c_prime = _coin_matrix(graph, coin)
    matrix = np.empty_like(c_prime)
    if graph.spec.shift != "dirac":
        matrix[graph.shift_permutation()] = c_prime
    else:
        matrix[_half_move(graph, (0, 1))] = c_prime
        _hadamard_rows(matrix, graph.n)
        c_prime[_half_move(graph, (2, 3))] = matrix  # c_prime's buffer is free
        matrix = _hadamard_rows(c_prime, graph.n)
    return DenseOperator(graph, matrix)


def _coin_matrix(graph: Graph, coin: CoinConfig) -> np.ndarray:
    """C': the unmarked coin on every vertex, the marking's block on marked ones."""
    d, n = graph.coin_dim, graph.n
    grover = grover_coin(d).real
    marking = graph.spec.marking
    if marking == "projector_flip":  # the identity; I - 2|s><s| = -grover
        unmarked, marked = np.eye(d), -grover
    elif marking == "minus_c0":
        unmarked, marked = grover, -grover
    else:
        unmarked, marked = grover, -np.eye(d)
    c_prime = np.kron(unmarked, np.eye(n))
    for v in coin.marked:
        block = np.arange(d) * n + v
        c_prime[np.ix_(block, block)] = marked
    return c_prime


def _half_move(graph: Graph, roles: tuple[int, int]) -> np.ndarray:
    """Row permutation of one dirac half-move: component c moves as roles[c]."""
    n = graph.n
    perm = np.empty(2 * n, dtype=np.int64)
    for c, role in enumerate(roles):
        for v in range(n):
            target, _ = graph.shift_target(v, role)
            perm[c * n + v] = c * n + target
    return perm


def _hadamard_rows(m: np.ndarray, n: int) -> np.ndarray:
    """Apply the Hadamard to the coin index of the rows of `m`, in place."""
    top, bottom = m[:n], m[n:]
    total = (top + bottom) * _INV_SQRT2
    np.subtract(top, bottom, out=bottom)
    bottom *= _INV_SQRT2
    top[...] = total
    return m


def block_eigens(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and an orthonormal eigenbasis of a unitary matrix.

    Schur of a normal matrix is diagonal, so the Schur vectors are exact
    eigenvectors; plain eig would not hand back an orthonormal basis on
    the heavily degenerate spectra these walks have.  A real matrix takes
    the real Schur form, whose 2x2 blocks rsf2csf then splits into
    complex conjugate pairs.
    """
    if np.isrealobj(block):
        t, z = scipy.linalg.rsf2csf(*scipy.linalg.schur(block, output="real"))
    else:
        t, z = scipy.linalg.schur(block, output="complex")
    return np.angle(np.diag(t)), z


def dense_eigens(op: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases (sorted by |phase|) and an orthonormal eigenbasis."""
    phases, vectors = block_eigens(op.matrix)
    order = np.argsort(np.abs(phases), kind="stable")
    return phases[order], vectors[:, order]


def dense_principal_pair(op: DenseOperator, marked_vertex: int) -> tuple[float, float, float]:
    """(alpha, start_overlap, good_overlap) of the principal pair of `op`,
    the walk perturbed at `marked_vertex`.

    alpha is the smallest nonzero |eigenphase|.  The eigenvectors w+ and w-
    for e^(+-i alpha) are phase-aligned so their projections on |s, v> are
    real positive; the overlaps are those of the uniform start with
    (w+ - w-)/sqrt(2) and of |s, v> with (w+ + w-)/sqrt(2).
    """
    phases, vectors = dense_eigens(op)
    alpha = float(np.min(np.abs(phases[np.abs(phases) > 1e-8])))
    i_plus = int(np.argmin(np.abs(phases - alpha)))
    i_minus = int(np.argmin(np.abs(phases + alpha)))
    sv = marked_coin_state(op.graph, marked_vertex).vector
    phi0 = uniform_state(op.graph).vector
    w_plus = vectors[:, i_plus] * np.exp(-1j * np.angle(np.vdot(sv, vectors[:, i_plus])))
    w_minus = vectors[:, i_minus] * np.exp(-1j * np.angle(np.vdot(sv, vectors[:, i_minus])))
    start = abs(np.vdot(phi0, (w_plus - w_minus) / np.sqrt(2)))
    good = abs(np.vdot(sv, (w_plus + w_minus) / np.sqrt(2)))
    return alpha, float(start), float(good)


def eigenspace_projection(phases: np.ndarray, vectors: np.ndarray,
                          target_phase: float, vector: np.ndarray,
                          tol: float = 1e-9) -> float:
    """Squared norm of the projection of `vector` onto one eigenphase space."""
    sel = np.abs(np.angle(np.exp(1j * (phases - target_phase)))) < tol
    if not np.any(sel):
        return 0.0
    coeffs = vectors[:, sel].conj().T @ vector
    return float(np.sum(np.abs(coeffs) ** 2))


def evolve_dense(op: DenseOperator, vector: np.ndarray, steps: int) -> np.ndarray:
    """Step-by-step matrix application; returns the complex (steps+1, dim) history.

    The real matrix acts on the (dim, 2) float64 view of each state, its
    real and imaginary parts, in one real product per step.
    """
    out = np.empty((steps + 1, op.dim), dtype=np.complex128)
    out[0] = vector
    pairs = out.view(np.float64).reshape(steps + 1, op.dim, 2)
    for t in range(steps):
        np.matmul(op.matrix, pairs[t], out=pairs[t + 1])
    return out


def lift_principal_eigenvector(graph: Graph, marked_vertex: int,
                               alpha: float) -> np.ndarray:
    """|psi_good> + i |w'_alpha> assembled in the full space, normalized.

    Built mode by mode from the coin blocks: each block's conjugate pair is
    phase-aligned so its projection on |s, v> is real positive, theta = pi
    levels enter through the |s, v>-carrying direction of the -1 eigenspace,
    and stationary +1 blocks enter like the uniform state.  If alpha solves
    the secular equation this is an eigenvector of U' for e^(i alpha) up to
    rounding, which is exactly what the residual tests check.
    """
    spec = graph.spec
    n = graph.n
    sv = np.zeros(graph.coin_dim * n, dtype=np.complex128)
    sv[marked_vertex::n] = 1.0 / np.sqrt(graph.coin_dim)  # layout is c*N + v

    if spec.family == "hypercube":
        modes = [m for m in np.ndindex(*(2,) * spec.dims[0]) if any(m)]
    else:
        modes = [m for m in torus_modes(spec) if any(m)]

    def cot(x):
        return np.cos(x) / np.sin(x)

    w_prime = np.sqrt(1.0 / n) * cot(alpha / 2) * uniform_state(graph).vector
    for mode in modes:
        block = coin_block(spec, mode)
        phases, vecs = block_eigens(block)
        phases = np.where(phases < -np.pi + 1e-9, phases + 2 * np.pi, phases)
        s_coin = np.full(graph.coin_dim, 1.0 / np.sqrt(graph.coin_dim))
        wave_at_v = mode_vertex_wave(graph, mode)[marked_vertex].conj()
        for j, phase in enumerate(phases):
            if phase < -1e-9:
                continue  # conjugate partners are added explicitly below
            coin_vec = vecs[:, j]
            amp = np.vdot(coin_vec, s_coin) * wave_at_v  # <Phi_mode,j | s,v>
            if abs(amp) < 1e-13:
                continue
            coin_vec = coin_vec * (amp / abs(amp))  # align: projection real > 0
            a_j = abs(amp)
            plus = lift_block_vector(graph, mode, coin_vec)
            if phase > np.pi - 1e-9:  # -1 level: a single real direction
                w_prime += a_j * cot((alpha - np.pi) / 2) * plus
            elif phase < 1e-9:  # stationary +1 block beyond the uniform state
                w_prime += a_j * cot(alpha / 2) * plus
            else:
                w_prime += a_j * (cot((alpha - phase) / 2) * plus
                                  + cot((alpha + phase) / 2) * plus.conj())
    vec = sv + 1j * w_prime
    return vec / np.linalg.norm(vec)


def compare_traces(fast, dense) -> float:
    """Max absolute deviation between two equal-length probability traces."""
    a = np.asarray(fast, dtype=float)
    b = np.asarray(dense, dtype=float)
    if a.shape != b.shape:
        raise ValueError("traces must have equal length")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))
