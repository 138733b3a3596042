"""Ground truth for small instances: explicit unitaries and eigensystems.

Everything here is validation machinery, and none of it rests on the
code it validates.  The dense U' = S * C' is assembled from the explicit
coin matrix (the Grover coin is defined here) and the shift rule of
`graphs` (shift_permutation, or shift_targets per dirac half-move),
without stepping a state through the engine and without the closed-form
spectra of `spectral`.  Every walk here is real, so U' is a float64
matrix; it is powered explicitly and eigendecomposed through its
symmetric part U' + U'^T by numpy.linalg.eigh (LAPACK syevd, on numpy's
own BLAS: walklab loads no second one).  The skew part U' - U'^T then
splits those eigenvectors into complex pairs, the levels of one shape
at a time (see block_eigens; a level that the skew part does not keep,
which only a non-normal matrix has, raises).  Two involutions split the
eigensolve, one at a time.  With one marked vertex, the arena's mirror
through it (Graph.mirror), lifted to the basis states, is a symmetry P
of U' (checked), and U' splits first into P's two eigenspaces, about n/2
each.  A permutation time reversal S, S U' S = C' S = U'^T (C' is
symmetric; this is checked), then splits each of them in two: S is the
shift itself where the shift is an involution, and the shift after the
direction reversal on the moving torus.  In S's eigenbasis U' + U'^T is
two half-size blocks and U' - U'^T only maps each half into the other.
The dirac walk has no S, and without P it is solved as it stands.  Every
eigenvector is lifted back through the two stages in turn.  From the
engine the oracle takes only the two start states, the uniform state and
|s, v>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CoinConfig, marked_coin_state, uniform_state
from .graphs import Graph

DIMENSION_CAP = 1024
# scaling by the reciprocal, as the engine's dirac shift does, rounds alike
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_SQRT2 = np.sqrt(2.0)
# eigenvalues of U + U^T closer than this belong to one level
_LEVEL_GAP = 2e-9
# a level that the skew part maps to within this of zero has theta = 0 or pi
_SKEW_ZERO = 1e-12
# how far the skew part may map a level out of itself before U counts as not normal
_INVARIANCE_TOL = 1e-10
# the levels go through the batched products and the lift this many columns
# at a time, a wider level alone: it bounds the lift's temporaries, which
# hold about 2 dim complex numbers per eigenvector
_LIFT_COLUMNS = 32


@dataclass
class DenseOperator:
    """A full (coin_dim*N)-dimensional real unitary with its arena; as
    `reflection`, a permutation time reversal S of it (S M S = M^T, an
    involution: the shift itself where the shift is an involution, the
    shift after the direction reversal on the moving torus, none on the
    dirac walk); and as `symmetry` the arena's mirror through the one marked
    vertex, lifted to the basis states, where exactly one vertex is marked
    and it moves some."""

    graph: Graph
    matrix: np.ndarray
    reflection: np.ndarray | None = None
    symmetry: np.ndarray | None = None

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

    Each entry of the explicit coin matrix C' goes straight to its row
    under the shift permutation (_shifted_coin).  The dirac step is the
    coin-basis half-move along y, then the half-move along x conjugated by
    the Hadamard.  The moving shift S_m is no involution past side 2, but
    with the direction reversal T (c <-> c^1) T S_m T = S_m^T, and T
    commutes with C', so S_m T is a time reversal of U' = (S_m T)(T C').
    """
    dim = graph.coin_dim * graph.n
    if dim > DIMENSION_CAP:
        raise ValueError(
            f"dense oracle capped at dimension {DIMENSION_CAP}; "
            f"requested coin_dim*N = {dim}"
        )
    coin.validate_for(graph)
    reflection = None
    if graph.spec.shift != "dirac":
        move = graph.shift_permutation()
        matrix = _shifted_coin(graph, coin, move)
        reflection = move
        if graph.spec.shift == "moving":  # after T: c*N + v -> (c^1)*N + v
            reflection = move.reshape(graph.coin_dim, -1)[np.arange(graph.coin_dim) ^ 1].ravel()
        if not np.array_equal(reflection[reflection], np.arange(dim)):
            reflection = None
    else:
        n = graph.n  # each _butterfly is the Hadamard on the rows' coin index
        move = _half_move(graph, (0, 1))
        first = _shifted_coin(graph, coin, move)
        _butterfly(first[:n], first[n:])
        matrix = np.empty_like(first)
        matrix[_half_move(graph, (2, 3))] = first
        _butterfly(matrix[:n], matrix[n:], first[:n])  # first's buffer is free
    symmetry = None
    if len(coin.marked) == 1:
        symmetry = _lift_mirror(graph.mirror(coin.marked[0]), move % graph.n)
        if np.array_equal(symmetry, np.arange(dim)):
            symmetry = None
    return DenseOperator(graph, matrix, reflection, symmetry)


def _lift_mirror(mirror: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The vertex automorphism g lifted to the index c*N + v: direction c at
    v goes to the direction at g(v) whose target is g of c's target.

    `targets` holds each direction's target vertex at index c*N + v (for
    dirac, the first half-move's).  Where several directions at g(v) have
    that target (the two senses of an axis of side 2), c keeps its label.
    """
    n = mirror.size
    targets = targets.reshape(-1, n)
    d = targets.shape[0]
    hits = targets[None, :, mirror] == mirror[targets][:, None, :]  # [c, c', v]
    if not hits.any(axis=1).all():
        raise ValueError("the vertex map is no automorphism of the arena")
    own = np.arange(d)
    label = np.where(hits[own, own], own[:, None], hits.argmax(axis=1))
    return (label * n + mirror).reshape(-1)


def _shifted_coin(graph: Graph, coin: CoinConfig, move: np.ndarray) -> np.ndarray:
    """S C' for the row permutation S = `move`.  C' holds the unmarked coin
    on every vertex and the marking's block on marked ones; each of its
    d*N*d entries C'[c*N + v, c'*N + v] goes to row move[c*N + v] of a
    zeroed matrix."""
    d, n = graph.coin_dim, graph.n
    grover = grover_coin(d)
    marking = graph.spec.marking
    if marking == "projector_flip":  # the identity; I - 2|s><s| = -grover
        unmarked, marked = np.eye(d), -grover
    elif marking == "minus_c0":
        unmarked, marked = grover, -grover
    else:
        unmarked, marked = grover, -np.eye(d)
    blocks = np.repeat(unmarked[:, :, None], n, axis=2)  # [c, c', v]
    blocks[:, :, list(coin.marked)] = marked[:, :, None]
    matrix = np.zeros((d * n, d * n))
    matrix[move.reshape(d, 1, n), np.arange(d * n).reshape(1, d, n)] = blocks
    return matrix


def _half_move(graph: Graph, roles: tuple[int, int]) -> np.ndarray:
    """Row permutation of one dirac half-move: component c moves as roles[c]."""
    return (np.arange(2)[:, None] * graph.n + graph.shift_targets()[list(roles)]).ravel()


def _butterfly(top: np.ndarray, bottom: np.ndarray, total: np.ndarray | None = None) -> None:
    """(top, bottom) <- ((top + bottom), (top - bottom)) / sqrt(2), in place;
    the sum passes through `total` (top's shape) if given."""
    total = np.add(top, bottom, out=total)
    np.subtract(top, bottom, out=bottom)
    np.multiply(total, _INV_SQRT2, out=top)
    bottom *= _INV_SQRT2


def block_eigens(block: np.ndarray, reflection: np.ndarray | None = None,
                 symmetry: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
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
    2 cos theta), for all levels of one shape at once (_grouped_levels).
    All phases are found before any level is lifted, so each level goes
    straight to its sorted columns.  A level that the skew part maps out
    of itself by more than _INVARIANCE_TOL (U is not normal) raises
    ArithmeticError instead of returning a wrong basis.  Complex input is
    refused.

    Two optional involutions split the solve, one at a time.  A `symmetry`
    (an involutive index permutation P) with 2-cycles must commute with U:
    P U P = U is checked on every entry, else ArithmeticError, and U splits
    into P's two blocks, gathered straight from U (_symmetry_blocks).  A
    `reflection` (an involutive index permutation S) with 2-cycles must
    commute with P and be a time reversal of U, S U S = U^T (as for S C'
    with a symmetric coin).  In P's eigenbasis S is a signed permutation of
    each block; a block on which it has a 2-cycle or a -1 is rotated into
    S's eigenbasis and solved on its two halves (_reversal_levels, which
    checks the time reversal, else ArithmeticError).  Any other block, and
    U without either, is solved whole (U itself in place).  A permutation
    without 2-cycles splits nothing.  All phases of all blocks are merged
    by |phase| before any level is lifted, and the lift runs the stages
    backwards: S's butterfly on a block's half-length vectors, then one
    signed gather into the original rows (_lift_batches).
    """
    if np.iscomplexobj(block):
        raise TypeError("block_eigens takes a real orthogonal matrix, "
                        f"not a {block.dtype} one")
    n = block.shape[0]
    reflection = _involution(reflection, n, "reflection")
    symmetry = _involution(symmetry, n, "symmetry")
    if (reflection is not None and symmetry is not None
            and not np.array_equal(reflection[symmetry], symmetry[reflection])):
        raise ValueError("the reflection and the symmetry must commute")
    # an unsplit U's eigh runs before the eigenvector buffer is allocated:
    # its temporaries (U + U^T and the row-major basis) are freed by then
    solved = _symmetric_eigh(block) if reflection is None and symmetry is None else None
    vectors, buffer = _eigenvector_buffer(n)
    first, second = buffer
    if symmetry is None:  # one block, U itself
        blocks, free = [(block, reflection, None)], buffer
    else:  # P's blocks in `second`
        blocks, free = _symmetry_blocks(block, symmetry, reflection, second, first), first
    phases, found, start = [], [], 0
    for matrix, pairing, flips in blocks:
        h = matrix.shape[0]
        order, pairs, m, signed = _split_order(np.arange(h) if pairing is None else pairing, flips)
        if 0 < m < h:
            # U is rotated into `second`, a block of P where it lies
            rotated, work = (second if matrix is block else matrix), _carve(first, (h, h))[0]
            _rotate(matrix, order, pairs, signed, rotated, work)
            eigs, spans, parts = _reversal_levels(rotated, m, work)
            turn = order, pairs, signed
        else:
            one, other = _carve(free, (h, h), (h, h))
            sym_eigs, basis = solved or _symmetric_eigh(matrix, one)
            eigs, spans, parts = _whole_levels(matrix, sym_eigs, basis, one, other)
            turn = None
        block_phases, batches = _grouped_levels(eigs, spans, parts)
        phases.append(block_phases)
        found.append((start, parts, batches, turn))
        start += h
    phases, columns = _sorted_columns(np.concatenate(phases))
    ways = [(np.arange(n), None)] if symmetry is None else _symmetry_ways(symmetry)
    for (start, *lift), way in zip(found, ways):
        _lift_batches(vectors, columns[start:], *lift, *way)
    return phases, vectors


def _symmetric_eigh(matrix: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """eigh of matrix + matrix^T (formed in `out` if given), its basis
    column-major, as LAPACK leaves it: each level is then one contiguous
    block of columns, and the level products round as they do on that layout."""
    sym_eigs, basis = np.linalg.eigh(np.add(matrix, matrix.T, out=out))
    return sym_eigs, np.asfortranarray(basis)


def _involution(perm: np.ndarray | None, n: int, name: str) -> np.ndarray | None:
    """`perm` if it is an involutive permutation of range(n) with a 2-cycle,
    None if it is None or the identity; else ValueError."""
    if perm is None:
        return None
    index = np.arange(n)
    if perm.shape != (n,) or not np.array_equal(perm[perm], index):
        raise ValueError(f"{name} must be an involutive permutation of the indices")
    return None if np.array_equal(perm, index) else perm


def _symmetry_blocks(block: np.ndarray, symmetry: np.ndarray, reflection: np.ndarray | None,
                     out: np.ndarray, work: np.ndarray) -> list[tuple]:
    """P's two blocks of U, gathered straight from U into `out`, each as
    (matrix, pairing, flips): S on the block's coordinates, a signed
    involution (S e_j = -e_pairing[j] where flips[j]; None without S).

    P U P = U is checked first, on every entry (`out` and `work`, both
    U's shape, are the scratch).  P's 2-cycles (t, P t), t < P t, give
    (e_t + e_Pt)/sqrt(2) to the + block and (e_t - e_Pt)/sqrt(2) to the
    - block, and its fixed points f give e_f to the + block after them.
    As P U P = U, the entries between two t's are U[t, t'] +- U[t, P t'],
    and the rows and columns of the f's enter the + block as sqrt(2) U
    (U between two f's).  S maps P's 2-cycles to 2-cycles and its fixed
    points to fixed points, so it permutes the + block's coordinates, and
    the - block's up to sign: S sends e_t - e_Pt to -(e_t' - e_Pt') where
    S t = P t'.
    """
    np.take(block, symmetry, axis=0, out=work, mode="clip")
    np.take(block, symmetry, axis=1, out=out, mode="clip")
    leak = _max_abs(np.subtract(work, out, out=work))
    if leak > _INVARIANCE_TOL:
        raise ArithmeticError(f"U does not commute with the symmetry P: P U P - U reaches "
                              f"{leak:.3e}")
    order, k, h, _ = _split_order(symmetry)  # [t, f, P t]
    tops = order[:k]
    plus, minus = _carve(out, (h, h), (k, k))
    head, mates = _carve(work, (h, order.size), (k, k))
    np.take(block, order[:h], axis=0, out=head, mode="clip")
    np.take(head[:k], tops, axis=1, out=minus, mode="clip")
    np.take(head[:k], order[h:], axis=1, out=mates, mode="clip")
    np.add(minus, mates, out=plus[:k, :k])
    np.subtract(minus, mates, out=minus)
    plus[:, k:] = head[:, order[k:h]]
    plus[k:, :k] = head[k:, tops]
    plus[:k, k:] *= _SQRT2
    plus[k:, :k] *= _SQRT2
    if reflection is None:
        return [(plus, None, None), (minus, None, None)]
    coordinate, image = np.argsort(order) % h, reflection[tops]
    return [(plus, coordinate[reflection[order[:h]]], None),
            (minus, coordinate[image], symmetry[image] < image)]


def _symmetry_ways(symmetry: np.ndarray):
    """(rows, scale) of P's + block, then of its - block, each made as the
    block is lifted: its vectors y read x[r] = scale[r] * y[rows[r]] in the
    original rows, so x[t] = y/sqrt(2), x[P t] = +-y/sqrt(2), and x[f] = y
    on the + block and 0 on the - block."""
    order, k, h, _ = _split_order(symmetry)
    place = np.argsort(order)  # the t's, the f's, then the P t's
    rows, still = place % h, (place >= k) & (place < h)
    yield rows, np.where(still, 1.0, _INV_SQRT2)
    yield np.where(still, 0, rows), np.select([place < k, still], [_INV_SQRT2, 0.0], -_INV_SQRT2)


def _split_order(pairing: np.ndarray, flips: np.ndarray | None = None) -> tuple:
    """(order, k, m, signed) of the eigenbasis of an involutive permutation
    S, signed where `flips` says: S e_i = -e_pairing[i].  Its k 2-cycles
    (p, q), p < q, of sign s give (e_p + s e_q)/sqrt(2) to the +1 half and
    (e_p - s e_q)/sqrt(2) to the -1 half, the `signed` ones (s = -1) last,
    and its fixed indices go to the half of their sign.  `order` lists
    [p, fixed, q]; the +1 half is its first m."""
    index = np.arange(pairing.size)
    flips = np.zeros(pairing.size, dtype=bool) if flips is None else flips
    p = np.flatnonzero(pairing > index)
    p = p[np.argsort(flips[p], kind="stable")]
    fixed = np.flatnonzero(pairing == index)
    fixed = fixed[np.argsort(flips[fixed], kind="stable")]
    return (np.concatenate([p, fixed, pairing[p]]), p.size,
            p.size + np.count_nonzero(~flips[fixed]), np.count_nonzero(flips[p]))


def _rotate(block: np.ndarray, order: np.ndarray, pairs: int, signed: int,
            out: np.ndarray, work: np.ndarray) -> None:
    """R^T block R in `out` (which may be `block`): rows and columns taken in
    `order`, the last `signed` of them negated, then the butterfly between
    the rows, and the columns, [0, pairs) and the last `pairs`.  `work`
    (block's shape) is scratch; mode="clip" writes straight into `out` (the
    indices are a permutation)."""
    n = block.shape[0]
    np.take(block, order, axis=0, out=work, mode="clip")
    np.take(work, order, axis=1, out=out, mode="clip")
    out[n - signed:] *= -1.0
    out[:, n - signed:] *= -1.0
    _butterfly(out[:pairs], out[n - pairs:], work[:pairs])
    _butterfly(out[:, :pairs], out[:, n - pairs:], work.reshape(-1)[:n * pairs].reshape(n, pairs))


def _whole_levels(block: np.ndarray, sym_eigs: np.ndarray, basis: np.ndarray,
                  skew: np.ndarray, skewed: np.ndarray) -> tuple[tuple, list, tuple]:
    """The whole route's levels for _grouped_levels: the eigenvalues, each
    level's columns [(lo, hi)] and the one part (basis, images of the basis
    under block - block^T, 0); `skew` and `skewed` (block's shape) are
    scratch."""
    skewed = np.matmul(np.subtract(block, block.T, out=skew), basis, out=skewed)
    return (sym_eigs,), [((lo, hi),) for lo, hi in _levels(sym_eigs)], ((basis, skewed, 0),)


def _reversal_levels(rotated: np.ndarray, m: int, spare: np.ndarray) -> tuple[tuple, list, tuple]:
    """The levels of V = R^T U R, U's matrix in the eigenbasis R of a time
    reversal S whose +1 half is the first m indices, for _grouped_levels:
    the eigenvalues of each half, each level's columns on each, and the parts
    (basis, its images, the part the images lie on).  `rotated` (V, which
    must be contiguous) is overwritten, and `spare` (as large) is scratch.

    The -1 half has size r = n - m.  The time reversal D V D = V^T
    (D = diag(I_m, -I_r)) says that V++ and V-- are symmetric and
    V+- = -V-+^T: this is checked.  The symmetric part is then the two
    halves 2 V++ and 2 V--, one eigh each, and the skew part only crosses
    between them, through A = V+- - V-+^T: it maps + eigenvectors X+ to
    -A^T X+ in the - half and X- to A X- in the + half, so every level is
    handled on half-length columns, and lifted in R's coordinates.
    """
    n = rotated.shape[0]
    r = n - m
    pp, mm = rotated[:m, :m], rotated[m:, m:]
    pm, mp = rotated[:m, m:], rotated[m:, :m]
    plus, minus, cross = _carve(spare, (m, m), (r, r), (m, r))
    plus_eigs, plus_vecs = _symmetric_eigh(pp, plus)  # eigh copies its input
    minus_eigs, minus_vecs = _symmetric_eigh(mm, minus)
    np.subtract(pm, mp.T, out=cross)
    # V++ - V++^T = 2 V++ - plus, V-- likewise, V+- + V-+^T = 2 V+- - cross,
    # formed in V's buffer (only the three results are read from here on)
    defect = max(_max_abs(np.subtract(np.multiply(part, 2.0, out=part), half, out=part))
                 for part, half in ((pp, plus), (mm, minus), (pm, cross)))
    if defect > _INVARIANCE_TOL:
        raise ArithmeticError(f"the reflection S is no time reversal of U (U does not commute "
                              f"with S up to transposition): S U S - U^T reaches {defect:.3e} "
                              f"in the eigenbasis of S")
    to_minus, to_plus = (image.T for image in _carve(rotated, (m, r), (r, m)))
    np.negative(np.matmul(plus_vecs.T, cross, out=to_minus.T), out=to_minus.T)
    np.matmul(minus_vecs.T, cross.T, out=to_plus.T)

    sym_eigs = np.concatenate([plus_eigs, minus_eigs])
    merge = np.argsort(sym_eigs, kind="stable")
    # the spectra ascend, so a level's + and - columns are contiguous in each half
    plus_before = np.concatenate([[0], np.cumsum(merge < m)]).tolist()
    spans = [((plus_before[lo], plus_before[hi]), (lo - plus_before[lo], hi - plus_before[hi]))
             for lo, hi in _levels(sym_eigs[merge])]
    return (plus_eigs, minus_eigs), spans, ((plus_vecs, to_minus, 1), (minus_vecs, to_plus, 0))


def _grouped_levels(eigs: tuple, spans: list, parts: tuple) -> tuple[np.ndarray, list]:
    """Phases and rotations of one block's levels (_whole_levels,
    _reversal_levels), run at once on all turning levels of one shape
    (their widths on each part), about _LIFT_COLUMNS columns at a time and
    a wider level alone.

    Part p's basis lies on its own rows (the parts' rows follow in turn),
    and the images of its columns under the skew part on the rows of the
    part that its third entry names.
    A level is a run of columns on each part; its skew block B = X^T Y
    pairs each part's images with the basis of the part they lie on.
    Returns the phases and the batches for _lift_batches: (positions,
    columns, v), the phases' positions (L, w), each part's columns
    (L, width) and the levels' rotations (L, w, w), or (positions (1, k),
    (p, columns), None) for a run of still columns on part p.
    """
    widths = np.array([[c1 - c0 for c0, c1 in span] for span in spans])
    firsts = np.array([[c0 for c0, _ in span] for span in spans])
    starts = np.concatenate([[0], np.cumsum(widths.sum(axis=1))])
    level_eigs = np.concatenate([e[c0:c1] for span in spans for e, (c0, c1) in zip(eigs, span)])
    # the skew part's largest image on each level: the levels' columns run in
    # turn on each part, so each level's maximum is a reduceat over them (each
    # column's max |y| is max(max y, -min y), which needs no |image| temporary)
    largest = np.zeros(len(spans))
    for p, (_, image, _) in enumerate(parts):
        column_peaks = np.maximum(image.max(axis=0, initial=0.0), -image.min(axis=0, initial=0.0))
        peaks = np.maximum.reduceat(np.append(column_peaks, 0.0), firsts[:, p])
        largest = np.maximum(largest, np.where(widths[:, p] > 0, peaks, 0.0))
    phases, batches = np.empty(starts[-1]), []
    # B = X^T Y is zero too on a still level: theta is 0 at 2cos = 2, pi at -2
    for level in np.flatnonzero(largest <= _SKEW_ZERO):
        lo, at = starts[level], starts[level]
        phases[lo:starts[level + 1]] = np.where(level_eigs[lo:starts[level + 1]] > 0, 0.0, np.pi)
        for p, (c0, c1) in enumerate(spans[level]):
            for c in range(c0, c1, _LIFT_COLUMNS):
                stop = min(c + _LIFT_COLUMNS, c1)
                batches.append((np.arange(at, at + stop - c)[None], (p, np.arange(c, stop)), None))
                at += stop - c
    turning = np.flatnonzero(largest > _SKEW_ZERO)
    for shape in sorted({tuple(row) for row in widths[turning].tolist()}):
        alike = turning[(widths[turning] == shape).all(axis=1)]
        shape = np.array(shape)
        w, edges = shape.sum(), np.concatenate([[0], np.cumsum(shape)])
        for chunk in np.array_split(alike, min(alike.size, -(-alike.size * w // _LIFT_COLUMNS))):
            columns = [firsts[chunk, p][:, None] + np.arange(width) for p, width in enumerate(shape)]
            xs = [basis.T[c] for (basis, _, _), c in zip(parts, columns)]  # (L, width, rows)
            skew, leak = np.zeros((chunk.size, w, w)), np.zeros(chunk.size)
            for q, (_, image, p) in enumerate(parts):
                ys = image.T[columns[q]]
                block = xs[p] @ ys.transpose(0, 2, 1)
                skew[:, edges[p]:edges[p + 1], edges[q]:edges[q + 1]] = block
                residue = np.abs(ys - block.transpose(0, 2, 1) @ xs[p])
                leak = np.maximum(leak, residue.max(axis=(1, 2), initial=0.0))
            positions = starts[chunk][:, None] + np.arange(w)
            _check_level(leak.max(), level_eigs[starts[chunk[leak.argmax()]]], w)
            sines, v = np.linalg.eigh(-1j * skew)
            cosines = ((v.real ** 2 + v.imag ** 2).transpose(0, 2, 1)
                       @ level_eigs[positions][:, :, None])[:, :, 0]
            phases[positions] = np.arctan2(sines, cosines)
            batches.append((positions, columns, v))
    return phases, batches


def _eigenvector_buffer(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A column-major n x n complex array for the eigenvectors, and its buffer
    as two n x n float64 arrays.  The lift writes every entry of the array;
    until then the buffer holds the temporaries: P's check and blocks, each
    block's rotation, the skew part and its images of the basis, or the
    halves and the images."""
    flat = np.empty(n * n, dtype=np.complex128)
    return flat.reshape(n, n, order="F"), flat.view(np.float64).reshape(2, n, n)


def _lift_batches(vectors: np.ndarray, columns: np.ndarray, parts: tuple, batches: list,
                  turn: tuple | None, rows: np.ndarray, scale: np.ndarray | None) -> None:
    """Write one block's eigenvectors, a batch of _grouped_levels at a
    time, each whole into its sorted column (`columns`, by the block's phase
    positions).  An eigenvector z is formed on the block's coordinates (the
    parts' rows in turn) and taken back through S's rotation `turn`
    ((order, pairs, signed) of _split_order, or None): its butterfly
    between the first and the last `pairs` coordinates, then its order,
    with the signed q's negated.  That gives the block's vector y, gathered
    into the original rows as x[r] = scale[r] * y[rows[r]] (scale None: 1)."""
    edges = np.cumsum([0] + [basis.shape[0] for basis, _, _ in parts])
    h, pairs = edges[-1], 0
    if turn is not None:
        order, pairs, signed = turn
        rows = np.argsort(order)[rows]
        if signed:
            scale = np.where(rows < h - signed, 1.0, -1.0) * (1.0 if scale is None else scale)
    eigenrows = vectors.T  # row j is eigenvector j
    for positions, part_columns, v in batches:
        if v is None:  # a run of still columns: the real basis itself
            p, cols = part_columns
            z = np.zeros((cols.size, h))
            z[:, edges[p]:edges[p + 1]] = parts[p][0].T[cols]
        else:
            z = np.empty((*v.shape[:2], h), dtype=np.complex128)
            first = 0
            for (basis, _, _), cols, lo, hi in zip(parts, part_columns, edges, edges[1:]):
                last = first + cols.shape[1]
                # the real product with v's (re, im) pairs gives z's
                product = basis.T[cols].transpose(0, 2, 1) @ v[:, first:last].view(np.float64)
                z[:, :, lo:hi] = product.view(np.complex128).transpose(0, 2, 1)
                first = last
            z = z.reshape(-1, h)
        _butterfly(z[:, :pairs], z[:, h - pairs:])
        for level, at in zip(z.reshape(*positions.shape, h), positions):
            targets = columns[at]
            # a turning level whose columns run in order is taken straight into them
            straight = z.dtype == np.complex128 and np.all(np.diff(targets) == 1)
            lifted = np.take(level, rows, axis=1, mode="clip",
                             out=eigenrows[targets[0]:targets[-1] + 1] if straight else None)
            if scale is not None:
                lifted *= scale
            if not straight:
                eigenrows[targets] = lifted
            del lifted  # before the next level's take


def _carve(buffer: np.ndarray, *shapes: tuple[int, int]) -> list[np.ndarray]:
    """Consecutive C-ordered arrays of the given shapes at the start of
    `buffer`, or of a new array where `buffer` is too small."""
    flat, start, out = buffer.reshape(-1), 0, []
    if sum(rows * cols for rows, cols in shapes) > flat.size:
        flat = np.empty(sum(rows * cols for rows, cols in shapes))
    for rows, cols in shapes:
        out.append(flat[start:start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return out


def _max_abs(a: np.ndarray) -> float:
    """max |a| (0 if empty), taking |a| in place."""
    return float(np.abs(a, out=a).max(initial=0.0))


def _levels(sym_eigs: np.ndarray) -> list[tuple[int, int]]:
    """[lo, hi) of each level of ascending eigenvalues of U + U^T."""
    cuts = [0, *(np.flatnonzero(np.diff(sym_eigs) > _LEVEL_GAP) + 1), sym_eigs.size]
    return list(zip(cuts[:-1], cuts[1:]))


def _check_level(leak: float, sym_eig: float, width: int) -> None:
    if leak > _INVARIANCE_TOL:
        raise ArithmeticError(
            f"the skew part maps the level at 2cos(theta)={sym_eig:.6f} "
            f"(width {width}) {leak:.3e} out of itself: the matrix is not normal"
        )


def _sorted_columns(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phases sorted by |phase| (stably), and the sorted column of each."""
    order = np.argsort(np.abs(phases), kind="stable")
    return phases[order], np.argsort(order)


def dense_eigens(op: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases (sorted by |phase|) and an orthonormal eigenbasis."""
    return block_eigens(op.matrix, op.reflection, op.symmetry)


def dense_principal_pair(op: DenseOperator, marked_vertex: int) -> tuple[float, float, float]:
    """(alpha, start_overlap, good_overlap) of the principal pair of `op`,
    the walk perturbed at `marked_vertex`.

    alpha is the smallest nonzero |eigenphase|.  The eigenvectors w+ and w-
    for e^(+-i alpha) are phase-aligned so their projections on |s, v> are
    real positive; the overlaps are those of the uniform start with
    (w+ - w-)/sqrt(2) and of |s, v> with (w+ + w-)/sqrt(2).  A degenerate
    principal level (more than one phase within _LEVEL_GAP of +alpha or of
    -alpha) has no such pair, and raises ArithmeticError: its overlaps
    would depend on the eigenbasis the solver returns.
    """
    phases, vectors = dense_eigens(op)
    alpha = float(np.min(np.abs(phases[np.abs(phases) > 1e-8])))
    for sign in (1.0, -1.0):
        width = np.count_nonzero(np.abs(phases - sign * alpha) <= _LEVEL_GAP)
        if width > 1:
            raise ArithmeticError(f"the principal level at {sign * alpha:+.6e} holds {width} "
                                  f"eigenphases: no unique principal pair")
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

