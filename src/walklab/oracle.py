"""Ground truth for small instances: explicit unitaries and eigensystems.

Everything here is validation machinery, and none of it rests on the
code it validates.  The dense U' = S * C' is assembled from the explicit
coin matrix (the Grover coin is defined here) and the shift rule of
`graphs` (shift_permutation, or shift_target per dirac half-move),
without stepping a state through the engine and without the closed-form
spectra of `spectral`.  Every walk here is real, so U' is a float64
matrix; it is powered explicitly and eigendecomposed through its
symmetric part U' + U'^T by numpy.linalg.eigh (LAPACK syevd, on numpy's
own BLAS: walklab loads no second one), split in two half-size blocks
where the shift S is an involution (then S C' + C' S commutes with S; this
is checked).  The skew part U' - U'^T then splits those eigenvectors into
complex pairs level by level (see block_eigens; a level that the skew part
does not keep, which only a non-normal matrix has, raises).  From the
engine it takes only the two start states, the uniform state and |s, v>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CoinConfig, marked_coin_state, uniform_state
from .graphs import Graph

DIMENSION_CAP = 1024
# scaling by the reciprocal, as the engine's dirac shift does, rounds alike
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# eigenvalues of U + U^T closer than this belong to one level
_LEVEL_GAP = 2e-9
# a level that the skew part maps to within this of zero has theta = 0 or pi
_SKEW_ZERO = 1e-12
# how far the skew part may map a level out of itself before U counts as not normal
_INVARIANCE_TOL = 1e-10


@dataclass
class DenseOperator:
    """A full (coin_dim*N)-dimensional real unitary with its arena, and the
    shift permutation as `reflection` where it is an involution."""

    graph: Graph
    matrix: np.ndarray
    reflection: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        """max |M^H M - I|, formed in the one product's buffer."""
        gram = self.matrix.conj().T @ self.matrix
        gram.reshape(-1)[::self.dim + 1] -= 1.0
        return float(np.max(np.abs(gram, out=gram)))


def grover_coin(d: int) -> np.ndarray:
    """2|s><s| - I on the coin register, as a float64 matrix."""
    return (2.0 / d) * np.ones((d, d)) - np.eye(d)


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
    reflection = None
    if graph.spec.shift != "dirac":
        perm = graph.shift_permutation()
        matrix[perm] = c_prime
        if np.array_equal(perm[perm], np.arange(dim)):
            reflection = perm
    else:
        matrix[_half_move(graph, (0, 1))] = c_prime
        _hadamard_rows(matrix, graph.n)
        c_prime[_half_move(graph, (2, 3))] = matrix  # c_prime's buffer is free
        matrix = _hadamard_rows(c_prime, graph.n)
    return DenseOperator(graph, matrix, reflection)


def _coin_matrix(graph: Graph, coin: CoinConfig) -> np.ndarray:
    """C': the unmarked coin on every vertex, the marking's block on marked ones."""
    d, n = graph.coin_dim, graph.n
    grover = grover_coin(d)
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


def block_eigens(block: np.ndarray,
                 reflection: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and an orthonormal eigenbasis of a real orthogonal matrix.

    An orthogonal U is normal, so its symmetric part U + U^T (eigenvalues
    2 cos theta) and its skew part U - U^T (eigenvalues 2i sin theta)
    commute and share U's eigenvectors.  numpy.linalg.eigh of U + U^T
    (LAPACK syevd, a divide-and-conquer solve that deflates on the
    heavily degenerate spectra these walks have) gives a real orthonormal
    basis X; its eigenvalues split into levels at gaps above _LEVEL_GAP.
    Given a `reflection` (an involutive index permutation), eigh runs on
    the halves of U + U^T on its two eigenspaces (_reflection_eigh), and
    raises ArithmeticError if U + U^T does not commute with it.
    The skew part maps each level's span into itself, as the small skew
    matrix B = x^T (U - U^T) x.
    Where it maps the level to zero (theta = 0 or pi, the big +-1
    eigenspaces) the real basis is kept.  Elsewhere the Hermitian -iB is
    diagonalised: its eigenvalues are 2 sin theta, its vectors v lift the
    level to the eigenvectors x v, and theta = atan2(2 sin theta,
    2 cos theta).  A level that the skew part maps out of itself by more
    than _INVARIANCE_TOL (U is not normal) raises ArithmeticError instead
    of returning a wrong basis.  Complex input is refused.
    """
    if np.iscomplexobj(block):
        raise TypeError("block_eigens takes a real orthogonal matrix, "
                        f"not a {block.dtype} one")
    n = block.shape[0]
    if reflection is None:
        sym_eigs, basis = np.linalg.eigh(block + block.T)
        # column-major, as LAPACK leaves it: each level is one contiguous block of
        # columns, and the level products below round as they do on that layout
        basis = np.asfortranarray(basis)
    vectors = np.empty((n, n), dtype=np.complex128)
    # The levels below write every entry of `vectors`; until then its buffer,
    # two float64 n x n halves, holds the n x n temporaries.  The whole eigh
    # above runs first: its LAPACK workspace (about 3 n^2 floats) is freed
    # before the buffer is touched.  The halves need far less.
    scratch = vectors.reshape(-1).view(np.float64).reshape(2, n, n)
    if reflection is not None:
        sym_eigs, basis = _reflection_eigh(block, reflection, scratch)
    skewed = np.subtract(block, block.T, out=scratch[0]) @ basis
    phases = np.empty(n)
    cuts = [0, *(np.flatnonzero(np.diff(sym_eigs) > _LEVEL_GAP) + 1), n]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x, y = basis[:, lo:hi], skewed[:, lo:hi]
        if np.max(np.abs(y)) <= _SKEW_ZERO:  # B = x^T y is zero too
            phases[lo:hi] = np.where(sym_eigs[lo:hi] > 0, 0.0, np.pi)
            vectors[:, lo:hi] = x
            continue
        skew = x.T @ y
        leak = float(np.max(np.abs(y - x @ skew)))
        if leak > _INVARIANCE_TOL:
            raise ArithmeticError(
                f"the skew part maps the level at 2cos(theta)={sym_eigs[lo]:.6f} "
                f"(width {hi - lo}) {leak:.3e} out of itself: the matrix is not normal"
            )
        sines, v = np.linalg.eigh(-1j * skew)
        cosines = (v.real ** 2 + v.imag ** 2).T @ sym_eigs[lo:hi]
        phases[lo:hi] = np.arctan2(sines, cosines)
        vectors.real[:, lo:hi] = x @ v.real
        vectors.imag[:, lo:hi] = x @ v.imag
    return phases, vectors


def _reflection_eigh(block: np.ndarray, reflection: np.ndarray,
                     scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of U + U^T (ascending, column-major basis) by one half-size eigh
    per eigenspace of the involution `reflection`.

    With (p, q) its 2-cycles and f its fixed points, (e_p + e_q)/sqrt(2) and
    e_f span the +1 eigenspace and (e_p - e_q)/sqrt(2) the -1 one.  The
    spectra of the two halves merge by a stable sort.
    """
    n = block.shape[0]
    index = np.arange(n)
    if reflection.shape != (n,) or not np.array_equal(reflection[reflection], index):
        raise ValueError("reflection must be an involutive permutation of the indices")
    p = np.flatnonzero(reflection > index)
    q, fixed, k = reflection[p], np.flatnonzero(reflection == index), p.size
    plus, minus = _reflection_halves(block, np.concatenate([p, q, fixed]), k, scratch)
    plus_eigs, plus_vecs = np.linalg.eigh(plus)
    del plus
    minus_eigs, minus_vecs = np.linalg.eigh(minus)
    del minus
    sym_eigs = np.concatenate([plus_eigs, minus_eigs])
    merge = np.argsort(sym_eigs, kind="stable")
    column = np.empty(n, dtype=np.int64)
    column[merge] = index  # where each eigenvector of [+ | -] lands
    plus_cols, minus_cols = column[:n - k], column[n - k:]
    basis = np.empty((n, n), order="F")
    rows = basis.T  # row j is eigenvector j
    lift = np.ascontiguousarray(plus_vecs.T)  # row i is + eigenvector i
    lift[:, :k] *= _INV_SQRT2
    rows[np.ix_(plus_cols, p)] = rows[np.ix_(plus_cols, q)] = lift[:, :k]
    rows[np.ix_(plus_cols, fixed)] = lift[:, k:]
    lift = np.ascontiguousarray(minus_vecs.T) * _INV_SQRT2
    rows[np.ix_(minus_cols, p)] = lift
    rows[np.ix_(minus_cols, q)] = -lift
    rows[np.ix_(minus_cols, fixed)] = 0.0
    return sym_eigs[merge], basis


def _reflection_halves(block: np.ndarray, order: np.ndarray, k: int,
                       scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The +1 block (size n-k) and the -1 block (size k) of U + U^T, from one
    copy reordered as [p, q, fixed] in `scratch` (two n x n float64 buffers);
    raises if the mixed block between them is not zero."""
    n = block.shape[0]
    np.add(block, block.T, out=scratch[0])
    # mode="clip" writes straight into `out` (the indices are a permutation)
    np.take(scratch[0], order, axis=0, out=scratch[1], mode="clip")
    sym = np.take(scratch[1], order, axis=1, out=scratch[0], mode="clip")
    P, Q, F = slice(0, k), slice(k, 2 * k), slice(2 * k, n)
    mixed = max(np.max(np.abs((sym[P, P] - sym[Q, Q]) + (sym[P, Q] - sym[Q, P])), initial=0.0) / 2,
                np.max(np.abs(sym[P, F] - sym[Q, F]), initial=0.0) * _INV_SQRT2)
    if mixed > _INVARIANCE_TOL:
        raise ArithmeticError(f"U + U^T does not commute with the reflection: "
                              f"the mixed block reaches {mixed:.3e}")
    diag, cross = sym[P, P] + sym[Q, Q], sym[P, Q] + sym[Q, P]  # exactly symmetric
    plus = np.empty((n - k, n - k))
    plus[:k, :k] = (diag + cross) * 0.5
    plus[:k, k:] = (sym[P, F] + sym[Q, F]) * _INV_SQRT2
    plus[k:, :k] = plus[:k, k:].T
    plus[k:, k:] = sym[F, F]
    return plus, (diag - cross) * 0.5


def dense_eigens(op: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases (sorted by |phase|) and an orthonormal eigenbasis."""
    phases, vectors = block_eigens(op.matrix, op.reflection)
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


def evolve_dense(op: DenseOperator, vector: np.ndarray, steps: int) -> np.ndarray:
    """Step-by-step matrix application; returns the (steps+1, dim) history,
    float64 for a real start and complex for a complex one."""
    out = np.empty((steps + 1, op.dim), dtype=np.result_type(vector, op.matrix))
    out[0] = vector
    for t in range(steps):
        np.matmul(op.matrix, out[t], out=out[t + 1])
    return out

