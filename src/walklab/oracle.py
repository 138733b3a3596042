"""Ground truth for small instances: explicit unitaries and eigensystems.

Everything here is validation machinery, and none of it rests on the
code it validates.  The dense U' = S * C' is assembled from the explicit
coin matrix (the Grover coin is defined here) and the shift rule of
`graphs` (shift_permutation, or shift_target per dirac half-move),
without stepping a state through the engine and without the closed-form
spectra of `spectral`.  Every walk here is real, so U' is a float64
matrix; it is powered explicitly and eigendecomposed through its
symmetric part U' + U'^T by numpy.linalg.eigh (LAPACK syevd, on numpy's
own BLAS: walklab loads no second one).  The skew part U' - U'^T then
splits those eigenvectors into complex pairs level by level (see
block_eigens; a level that the skew part does not keep, which only a
non-normal matrix has, raises).  Where the shift S is an involution it is
a time reversal, S U' S = C' S = U'^T (C' is symmetric; this is checked),
and the whole eigensolve runs in the eigenbasis of S: there U' + U'^T is
two half-size blocks and U' - U'^T only maps each half into the other.
From the engine it takes only the two start states, the uniform state
and |s, v>.
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
# the split route maps this many eigenvectors at a time back to the original rows
_ROW_CHUNK = 16


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
        n = graph.n  # each _butterfly is the Hadamard on the rows' coin index
        matrix[_half_move(graph, (0, 1))] = c_prime
        _butterfly(matrix[:n], matrix[n:])
        c_prime[_half_move(graph, (2, 3))] = matrix  # c_prime's buffer is free
        matrix = c_prime
        _butterfly(matrix[:n], matrix[n:])
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


def _butterfly(top: np.ndarray, bottom: np.ndarray, total: np.ndarray | None = None) -> None:
    """(top, bottom) <- ((top + bottom), (top - bottom)) / sqrt(2), in place;
    the sum passes through `total` (top's shape) if given."""
    total = np.add(top, bottom, out=total)
    np.subtract(top, bottom, out=bottom)
    np.multiply(total, _INV_SQRT2, out=top)
    bottom *= _INV_SQRT2


def block_eigens(block: np.ndarray,
                 reflection: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases, sorted by |phase| (stably), and an orthonormal eigenbasis
    of a real orthogonal matrix.

    An orthogonal U is normal, so its symmetric part U + U^T (eigenvalues
    2 cos theta) and its skew part U - U^T (eigenvalues 2i sin theta)
    commute and share U's eigenvectors.  numpy.linalg.eigh of U + U^T
    (LAPACK syevd, a divide-and-conquer solve that deflates on the
    heavily degenerate spectra these walks have) gives a real orthonormal
    basis X; its eigenvalues split into levels at gaps above _LEVEL_GAP.
    The skew part maps each level's span into itself, as the small skew
    matrix B = x^T (U - U^T) x.
    Where it maps the level to zero (theta = 0 or pi, the big +-1
    eigenspaces) the real basis is kept.  Elsewhere the Hermitian -iB is
    diagonalised: its eigenvalues are 2 sin theta, its vectors v lift the
    level to the eigenvectors x v, and theta = atan2(2 sin theta,
    2 cos theta).  All phases are found before any level is lifted, so each
    level goes straight to its sorted columns.  A level that the skew part
    maps out of itself by more than _INVARIANCE_TOL (U is not normal)
    raises ArithmeticError instead of returning a wrong basis.  Complex
    input is refused.

    A `reflection` (an involutive index permutation S) with 2-cycles must
    be a time reversal of U, S U S = U^T (as for S C' with a symmetric
    coin), and the whole solve runs in its eigenbasis (_reversal_eigens);
    else ArithmeticError.  A reflection without 2-cycles splits nothing.
    """
    if np.iscomplexobj(block):
        raise TypeError("block_eigens takes a real orthogonal matrix, "
                        f"not a {block.dtype} one")
    n = block.shape[0]
    if reflection is not None:
        index = np.arange(n)
        if reflection.shape != (n,) or not np.array_equal(reflection[reflection], index):
            raise ValueError("reflection must be an involutive permutation of the indices")
        p = np.flatnonzero(reflection > index)
        if p.size:
            fixed = np.flatnonzero(reflection == index)
            return _reversal_eigens(block, np.concatenate([p, fixed, reflection[p]]), p.size)
    sym_eigs, basis = np.linalg.eigh(block + block.T)
    # column-major, as LAPACK leaves it: each level is one contiguous block of
    # columns, and the level products below round as they do on that layout
    basis = np.asfortranarray(basis)
    # The whole eigh above runs before the eigenvector buffer is allocated: its
    # LAPACK workspace (about 3 n^2 floats) is freed by then.
    vectors, scratch = _eigenvector_buffer(n)
    skewed = np.matmul(np.subtract(block, block.T, out=scratch[0]), basis, out=scratch[1])
    levels, phases = [], np.empty(n)
    for lo, hi in _levels(sym_eigs):
        x, y = basis[:, lo:hi], skewed[:, lo:hi]
        if _max_abs(y, copy=True) <= _SKEW_ZERO:  # B = x^T y is zero too
            phases[lo:hi], v = _still_phases(sym_eigs[lo:hi]), None
        else:
            skew = x.T @ y
            _check_level(_max_abs(y - x @ skew), sym_eigs[lo], hi - lo)
            phases[lo:hi], v = _turn(skew, sym_eigs[lo:hi])
        levels.append((lo, hi, [(slice(None), x)], v))
    phases, columns = _sorted_columns(phases)
    _lift(vectors, levels, columns)
    return phases, vectors


def _reversal_eigens(block: np.ndarray, order: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """block_eigens in the eigenbasis R of a reflection S with k 2-cycles (p, q).

    (e_p + e_q)/sqrt(2) and the fixed e_f span the +1 half (size m = n - k),
    (e_p - e_q)/sqrt(2) the -1 half; `order` lists [p, fixed, q].  In
    V = R^T U R the time reversal D V D = V^T (D = diag(I_m, -I_k)) says that
    V++ and V-- are symmetric and V+- = -V-+^T: this is checked.  The
    symmetric part is then the two halves 2 V++ and 2 V--, one eigh each, and
    the skew part only crosses between them, through A = V+- - V-+^T: it maps
    + eigenvectors X+ to -A^T X+ in the - half and X- to A X- in the + half,
    so every level is handled on half-length columns.  The levels are lifted
    in these coordinates, and R maps the rows back at the end.
    """
    n = block.shape[0]
    m = n - k
    vectors, (first, second) = _eigenvector_buffer(n)
    # rotated = V: rows and columns taken in the order [p, fixed, q], then R's
    # butterflies between the p and q rows and columns; mode="clip" writes
    # straight into `out` (the indices are a permutation)
    np.take(block, order, axis=0, out=second, mode="clip")
    rotated = np.take(second, order, axis=1, out=first, mode="clip")
    _butterfly(rotated[:k], rotated[m:], second[:k])
    _butterfly(rotated[:, :k], rotated[:, m:], second.reshape(-1)[:n * k].reshape(n, k))
    pp, mm = rotated[:m, :m], rotated[m:, m:]
    pm, mp = rotated[:m, m:], rotated[m:, :m]
    plus, minus, cross = _carve(second, (m, m), (k, k), (m, k))
    np.add(pp, pp.T, out=plus)
    np.add(mm, mm.T, out=minus)
    np.subtract(pm, mp.T, out=cross)
    # V++ - V++^T = 2 V++ - plus, V-- likewise, V+- + V-+^T = 2 V+- - cross,
    # formed in V's buffer (only the three results are read from here on)
    defect = max(_max_abs(np.subtract(np.multiply(part, 2.0, out=part), half, out=part))
                 for part, half in ((pp, plus), (mm, minus), (pm, cross)))
    if defect > _INVARIANCE_TOL:
        raise ArithmeticError(f"the reflection S is no time reversal of U (U does not commute "
                              f"with S up to transposition): S U S - U^T reaches {defect:.3e} "
                              f"in the eigenbasis of S")
    # column-major, so that each level's columns are contiguous, images included
    plus_eigs, plus_vecs = np.linalg.eigh(plus)
    plus_vecs = np.asfortranarray(plus_vecs)
    minus_eigs, minus_vecs = np.linalg.eigh(minus)
    minus_vecs = np.asfortranarray(minus_vecs)
    to_minus, to_plus = (image.T for image in _carve(first, (m, k), (k, m)))
    np.negative(np.matmul(plus_vecs.T, cross, out=to_minus.T), out=to_minus.T)
    np.matmul(minus_vecs.T, cross.T, out=to_plus.T)

    sym_eigs = np.concatenate([plus_eigs, minus_eigs])
    merge = np.argsort(sym_eigs, kind="stable")
    # the spectra ascend, so a level's + and - columns are contiguous in each half
    plus_before = np.concatenate([[0], np.cumsum(merge < m)])
    levels, phases = [], np.empty(n)
    for lo, hi in _levels(sym_eigs[merge]):
        a0, a1 = plus_before[lo], plus_before[hi]
        a, b = slice(a0, a1), slice(lo - a0, hi - a1)
        eigs = np.concatenate([plus_eigs[a], minus_eigs[b]])
        xa, xb, ya, yb = plus_vecs[:, a], minus_vecs[:, b], to_minus[:, a], to_plus[:, b]
        if max(_max_abs(ya, copy=True), _max_abs(yb, copy=True)) <= _SKEW_ZERO:
            phases[lo:hi], v = _still_phases(eigs), None
        else:
            na = a1 - a0
            skew = np.zeros((hi - lo, hi - lo))
            skew[:na, na:] = xa.T @ yb
            skew[na:, :na] = xb.T @ ya
            leak = max(_max_abs(yb - xa @ skew[:na, na:]), _max_abs(ya - xb @ skew[na:, :na]))
            _check_level(leak, eigs[0], hi - lo)
            phases[lo:hi], v = _turn(skew, eigs)
        levels.append((lo, hi, [(slice(0, m), xa), (slice(m, n), xb)], v))
    phases, columns = _sorted_columns(phases)
    _lift(vectors, levels, columns)
    # R maps the rows back: the butterfly gives the rows [p, fixed, q], and
    # original row r is row back[r] of those
    back = np.empty_like(order)
    back[order] = np.arange(n)
    eigenrows = vectors.T  # row j is eigenvector j
    buffer = np.empty((_ROW_CHUNK, n), dtype=np.complex128)
    for lo in range(0, n, _ROW_CHUNK):
        chunk = eigenrows[lo:lo + _ROW_CHUNK]
        moved = buffer[:len(chunk)]
        _butterfly(chunk[:, :k], chunk[:, m:], moved[:, :k])
        np.take(chunk, back, axis=1, out=moved, mode="clip")
        chunk[...] = moved
    return phases, vectors


def _eigenvector_buffer(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A column-major n x n complex array for the eigenvectors, and its buffer
    as two n x n float64 arrays.  The lift writes every entry of the array;
    until then the buffer holds the n x n temporaries (U - U^T and its image
    of the basis, or V, the halves and the images)."""
    flat = np.empty(n * n, dtype=np.complex128)
    return flat.reshape(n, n, order="F"), flat.view(np.float64).reshape(2, n, n)


def _lift(vectors: np.ndarray, levels: list, columns: np.ndarray) -> None:
    """Write each level's eigenvectors into its sorted columns of `vectors`.

    A level is (lo, hi, parts, v): each part (rows, x) is the level's real
    basis on a slice of the rows (zero on the other parts' rows), and the
    rows of its rotation v follow the parts' columns in turn; v None keeps
    the basis.  The columns are whole columns of the column-major array.
    """
    for lo, hi, parts, v in levels:
        cols, start = columns[lo:hi], 0
        for rows, x in parts:
            stop = start + x.shape[1]
            if v is None:
                for other, _ in parts:
                    vectors[other, cols[start:stop]] = x if other is rows else 0.0
            else:
                vectors.real[rows, cols] = x @ v.real[start:stop]
                vectors.imag[rows, cols] = x @ v.imag[start:stop]
            start = stop


def _carve(buffer: np.ndarray, *shapes: tuple[int, int]) -> list[np.ndarray]:
    """Consecutive C-ordered arrays of the given shapes at the start of `buffer`."""
    flat, start, out = buffer.reshape(-1), 0, []
    for rows, cols in shapes:
        out.append(flat[start:start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return out


def _max_abs(a: np.ndarray, copy: bool = False) -> float:
    """max |a| (0 if empty); takes |a| in place unless `copy`."""
    return float((np.abs(a) if copy else np.abs(a, out=a)).max(initial=0.0))


def _levels(sym_eigs: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) of each level of ascending eigenvalues of U + U^T."""
    cuts = [0, *(np.flatnonzero(np.diff(sym_eigs) > _LEVEL_GAP) + 1), sym_eigs.size]
    return list(zip(cuts[:-1], cuts[1:]))


def _still_phases(sym_eigs: np.ndarray) -> np.ndarray:
    """theta of a level the skew part maps to zero: 0 at 2cos = 2, pi at -2."""
    return np.where(sym_eigs > 0, 0.0, np.pi)


def _turn(skew: np.ndarray, sym_eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A level's phases and its rotation v from its skew block B, by eigh of -iB."""
    sines, v = np.linalg.eigh(-1j * skew)
    cosines = (v.real ** 2 + v.imag ** 2).T @ sym_eigs
    return np.arctan2(sines, cosines), v


def _check_level(leak: float, sym_eig: float, width: int) -> None:
    if leak > _INVARIANCE_TOL:
        raise ArithmeticError(
            f"the skew part maps the level at 2cos(theta)={sym_eig:.6f} "
            f"(width {width}) {leak:.3e} out of itself: the matrix is not normal"
        )


def _sorted_columns(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phases sorted by |phase| (stably), and the sorted column of each."""
    order = np.argsort(np.abs(phases), kind="stable")
    columns = np.empty_like(order)
    columns[order] = np.arange(order.size)
    return phases[order], columns


def dense_eigens(op: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases (sorted by |phase|) and an orthonormal eigenbasis."""
    return block_eigens(op.matrix, op.reflection)


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

