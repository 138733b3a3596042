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
splits those eigenvectors into complex pairs, the levels of one shape
at a time (see block_eigens; a level that the skew part does not keep,
which only a non-normal matrix has, raises).  The eigensolve has one
route, with two optional parts.  Where the shift S is an involution it
is a time reversal, S U' S = C' S = U'^T (C' is symmetric; this is
checked), and the solve runs in the eigenbasis of S: there U' + U'^T is
two half-size blocks and U' - U'^T only maps each half into the other.
With one marked vertex, the arena's mirror through it (Graph.mirror),
lifted to the basis states, is a symmetry P of U' that commutes with S
(checked), and the solve splits first into P's two eigenspaces, about
n/2 each.  Without either, U' is solved as it stands.  Every
eigenvector is lifted whole into the original rows.  From the engine it
takes only the two start states, the uniform state and |s, v>.
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
# the levels go through the batched products and the lift this many columns
# at a time, a wider level alone: it bounds the lift's tables, which hold
# about 2 dim complex numbers per eigenvector
_LIFT_COLUMNS = 32


@dataclass
class DenseOperator:
    """A full (coin_dim*N)-dimensional real unitary with its arena, the
    shift permutation as `reflection` where it is an involution, and as
    `symmetry` the arena's mirror through the one marked vertex, lifted to
    the basis states, where exactly one vertex is marked and it moves some."""

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
        move = graph.shift_permutation()
        matrix[move] = c_prime
        if np.array_equal(move[move], np.arange(dim)):
            reflection = move
    else:
        n = graph.n  # each _butterfly is the Hadamard on the rows' coin index
        move = _half_move(graph, (0, 1))
        matrix[move] = c_prime
        _butterfly(matrix[:n], matrix[n:])
        c_prime[_half_move(graph, (2, 3))] = matrix  # c_prime's buffer is free
        matrix = c_prime
        _butterfly(matrix[:n], matrix[n:])
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

    Two optional parts split the solve.  A `reflection` (an involutive
    index permutation S) with 2-cycles must be a time reversal of U,
    S U S = U^T (as for S C' with a symmetric coin), and the solve runs
    in its eigenbasis (_reversal_levels); else ArithmeticError.  A
    `symmetry` (an involutive index permutation P) with 2-cycles must
    commute with U, and with S if both are given; U then splits into two
    blocks, one per eigenvalue of P, and the entries between them, which
    commuting with P zeroes, are checked.  A permutation without 2-cycles
    splits nothing.  U is rotated once (_plan) into the eigenbasis of S
    and then of P, which maps S's eigenvectors to eigenvectors; without
    either, U is solved in place.  Each block is solved on its own: by
    the reversal route on its S-halves, or by the whole route.  All phases
    of all blocks are merged by |phase| before any level is lifted.  Each
    eigenvector lies in one block, so undoing P's butterflies only copies
    its entries, and undoing S's adds them in pairs: the lift takes each
    eigenvector whole, in the original order, from a table of its
    entries, their pair sums and differences (_unfold).
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
    order, outer, inner, blocks = _plan(reflection, symmetry, n)
    turned = outer > 0 or len(inner) > 0
    # an unturned U's eigh runs before the eigenvector buffer is allocated:
    # its temporaries (U + U^T and the row-major basis) are freed by then
    solved = None if turned else _symmetric_eigh(block)
    vectors, buffer = _eigenvector_buffer(n)
    first, second = buffer
    rotated = _rotate(block, order, [(0, outer, n)] + inner, first, second) if turned else block
    if len(blocks) == 1:  # no cross block to check and nothing to gather
        matrices, scratch = [rotated], (second if turned else buffer)
    else:
        (plus, _), (minus, _) = blocks
        leak = max(max(_max_abs(rotated[a:b, c:d]), _max_abs(rotated[c:d, a:b]))
                   for a, b in plus for c, d in minus)
        if leak > _INVARIANCE_TOL:
            raise ArithmeticError(f"U does not commute with the symmetry P: P U P - U reaches "
                                  f"{leak:.3e} in the eigenbasis of P")
        matrices = _carve(second, *((_span(ranges),) * 2 for ranges, _ in blocks))
        for out, (ranges, _) in zip(matrices, blocks):
            _gather(rotated, ranges, out)
        scratch = first  # `rotated` is read no more: each block's scratch in turn
    phases, found, start = [], [], 0
    for matrix, (ranges, m) in zip(matrices, blocks):
        h = matrix.shape[0]
        if 0 < m < h:
            eigs, spans, parts = _reversal_levels(matrix, m, scratch)
        else:
            one, other = _carve(scratch, (h, h), (h, h))
            sym_eigs, basis = solved or _symmetric_eigh(matrix, one)
            eigs, spans, parts = _whole_levels(matrix, sym_eigs, basis, one, other)
        block_phases, batches = _grouped_levels(eigs, spans, parts)
        phases.append(block_phases)
        found.append((start, parts, batches, _unfold(ranges, inner, outer, n)))
        start += h
    phases, columns = _sorted_columns(np.concatenate(phases))
    back = _inverse(order)
    for start, parts, batches, (size, pairs, pick) in found:
        _lift_batches(vectors, columns[start:], parts, batches, size, pairs, pick[back])
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


def _split_order(pairing: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(order, k, m) of the eigenbasis of an involutive permutation: its k
    2-cycles (p, q), p < q, give (e_p + e_q)/sqrt(2) to the +1 half and
    (e_p - e_q)/sqrt(2) to the -1 half, and the fixed indices go to the +1
    half.  `order` lists [p, fixed, q]; the +1 half is its first m."""
    index = np.arange(pairing.size)
    p = np.flatnonzero(pairing > index)
    fixed = np.flatnonzero(pairing == index)
    return np.concatenate([p, fixed, pairing[p]]), p.size, p.size + fixed.size


def _inverse(order: np.ndarray) -> np.ndarray:
    back = np.empty_like(order)
    back[order] = np.arange(order.size)
    return back


def _rotate(block: np.ndarray, order: np.ndarray, turns: list,
            out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """R^T block R in `out`: rows and columns taken in `order`, then each
    butterfly (a, k, b) of `turns` between the rows, and the columns,
    [a, a + k) and [b - k, b).  `work` (block's shape) is scratch;
    mode="clip" writes straight into `out` (the indices are a permutation)."""
    n = block.shape[0]
    np.take(block, order, axis=0, out=work, mode="clip")
    rotated = np.take(work, order, axis=1, out=out, mode="clip")
    for a, k, b in turns:
        _butterfly(rotated[a:a + k], rotated[b - k:b], work[:k])
        _butterfly(rotated[:, a:a + k], rotated[:, b - k:b],
                   work.reshape(-1)[:n * k].reshape(n, k))
    return rotated


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
    for level in np.flatnonzero(largest <= _SKEW_ZERO):  # B = X^T Y is zero too
        lo, at = starts[level], starts[level]
        phases[lo:starts[level + 1]] = _still_phases(level_eigs[lo:starts[level + 1]])
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


def _plan(reflection: np.ndarray | None, symmetry: np.ndarray | None, n: int):
    """(order, outer, inner, blocks) of block_eigens' rotation.

    Rows and columns go in `order`, then S's butterflies between its outer
    2-cycles' p's and q's, (0, outer, n), then P's butterflies `inner`.
    Each block is ([(lo, hi), ...], m): the rotated indices it gathers, the
    first m on S's +1 half.

    Without P there is one block, all n indices: with S, `order` is S's
    [p, fixed, q] with outer = k; without S, the identity order.
    With P but not S, `order` is P's [p, fixed, q] and the blocks are its
    halves, each all on the +1 half.
    With both, S's 2-cycles (p, S p) have p's that P maps to p's or to their
    own partner (_paired_tops), and `order` is S's [p, fixed, S p] with
    P's structure inside: the p's as [t, f1, f2, P t] (P swaps two
    2-cycles, keeps one, swaps one's p and q), and the fixed indices as
    [t', f', P t'].  P then maps S's eigenvectors to eigenvectors, and its
    butterflies pair t with P t on both halves of S and t' with P t'.
    On S's -1 half, P negates the f2 2-cycles' (e_p - e_q)/sqrt(2).
    """
    if symmetry is None:
        order, k, m = _split_order(np.arange(n) if reflection is None else reflection)
        return order, k, [], [([(0, n)], m)]
    if reflection is None:
        order, k, m = _split_order(symmetry)
        return order, 0, [(0, k, n)], [([(0, m)], m), ([(m, n)], k)]
    index = np.arange(n)
    tops = np.flatnonzero(_paired_tops(reflection, symmetry))
    image = symmetry[tops]
    kept, swapped = image == tops, image == reflection[tops]
    t = tops[~kept & ~swapped & (tops < image)]
    still = np.flatnonzero(reflection == index)
    t2 = still[symmetry[still] > still]
    p = np.concatenate([t, tops[kept], tops[swapped], symmetry[t]])
    fixed = np.concatenate([t2, still[symmetry[still] == still], symmetry[t2]])
    order = np.concatenate([p, fixed, reflection[p]])
    k, m = p.size, p.size + fixed.size
    f1, f2 = np.count_nonzero(kept), np.count_nonzero(swapped)
    inner = [(0, t.size, k), (k, t2.size, m), (m, t.size, n)]
    plus = [(0, t.size + f1 + f2), (k, m - t2.size), (m, m + t.size + f1)]
    minus = [(k - t.size, k), (m - t2.size, m), (m + t.size + f1, n)]
    return order, k, inner, [(plus, n - k - t.size - t2.size), (minus, t.size + t2.size)]


def _paired_tops(pairing: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Flags one index p of each 2-cycle of `pairing` such that `other` (an
    involution commuting with it) maps each p to a p or to its own partner:
    p is the smallest index of its orbit under both, or `other` of that
    unless that is the smallest index's partner."""
    index = np.arange(pairing.size)
    least = np.minimum.reduce([index, pairing, other, other[pairing]])
    image = other[least]
    return (pairing != index) & ((index == least) | ((index == image) & (image != pairing[least])))


def _part_rows(parts: tuple) -> list[slice]:
    """The rows of each part of a route's levels: they follow in turn."""
    rows, at = [], 0
    for basis, _, _ in parts:
        rows.append(slice(at, at + basis.shape[0]))
        at += basis.shape[0]
    return rows


def _span(ranges: list) -> int:
    return sum(hi - lo for lo, hi in ranges)


def _gather(matrix: np.ndarray, ranges: list, out: np.ndarray) -> None:
    """out = matrix restricted to the rows and columns of `ranges`, in turn."""
    at = np.cumsum([0] + [hi - lo for lo, hi in ranges])
    for (a, b), r in zip(ranges, at):
        for (c, d), s in zip(ranges, at):
            out[r:r + b - a, s:s + d - c] = matrix[a:b, c:d]


def _unfold(ranges: list, inner: list, outer: int, n: int) -> tuple[np.ndarray, int, np.ndarray]:
    """How a vector z on a block's coordinates (`ranges`) reads before the
    rotation of _plan: (size, pairs, pick).

    Undoing P's butterflies `inner` only copies a coordinate, scaled by
    1/sqrt(2) and negated or not, or zeroes it: each of P's 2-cycles has one
    row in each block.  Undoing S's butterfly (rows [0, outer) and
    [n - outer, n)) then adds, within a block, coordinate i < pairs on S's
    +1 half to coordinate h - pairs + i on its -1 half, or subtracts it.  So
    entry r is an entry of the table [z * size, pair sums, pair differences,
    0, and the first three negated]: the pick[r]th.
    """
    h = _span(ranges)
    source, scale = np.zeros(n, dtype=np.intp), np.zeros(n)
    at = np.concatenate([np.arange(lo, hi) for lo, hi in ranges])
    source[at], scale[at] = np.arange(h), 1.0
    for a, k, b in inner:
        top, bottom = slice(a, a + k), slice(b - k, b)
        source[top] = source[bottom] = np.maximum(source[top], source[bottom])
        _butterfly(scale[top], scale[bottom])
    # S's butterfly: row i < outer is (y_i + y_j)/sqrt(2), row j = n - outer + i
    # is (y_i - y_j)/sqrt(2); (source, scale) becomes y_i's term, (mate, weight) y_j's
    mate, weight = np.zeros(n, dtype=np.intp), np.zeros(n)
    top, bottom = slice(0, outer), slice(n - outer, n)
    mate[top], mate[bottom] = source[bottom], source[bottom]
    weight[top], weight[bottom] = scale[bottom] * _INV_SQRT2, scale[bottom] * -_INV_SQRT2
    source[bottom], scale[bottom] = source[top], scale[top]
    scale[:outer] *= _INV_SQRT2
    scale[n - outer:] *= _INV_SQRT2
    size = np.zeros(h)
    for terms, weights in ((source, scale), (mate, weight)):
        size[terms[weights != 0]] = np.abs(weights[weights != 0])
    both = (scale != 0) & (weight != 0)
    pairs = h - int(mate[both].min(initial=h))
    alone = (scale == 0) & (weight != 0)
    source[alone], scale[alone] = mate[alone], weight[alone]
    width = h + 2 * pairs
    pick = np.where(both, np.where((scale > 0) == (weight > 0), h, h + pairs) + source, source)
    pick[scale < 0] += width + 1
    pick[scale == 0] = width
    return size, pairs, pick


def _eigenvector_buffer(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A column-major n x n complex array for the eigenvectors, and its buffer
    as two n x n float64 arrays.  The lift writes every entry of the array;
    until then the buffer holds the temporaries: V and its gathered blocks,
    the skew part and its images of the basis, or the halves and the
    images."""
    flat = np.empty(n * n, dtype=np.complex128)
    return flat.reshape(n, n, order="F"), flat.view(np.float64).reshape(2, n, n)


def _lift_batches(vectors: np.ndarray, columns: np.ndarray, parts: tuple, batches: list,
                  size: np.ndarray, pairs: int, pick: np.ndarray) -> None:
    """Write one block's eigenvectors, a batch of _grouped_levels at a
    time: each eigenvector z, formed on the block's coordinates, goes whole
    into its sorted column (`columns`, by the block's phase positions),
    taken in the original order from the table of _unfold."""
    h = size.size
    width = h + 2 * pairs
    needed = int(pick.max()) + 1
    rows = _part_rows(parts)
    eigenrows = vectors.T  # row j is eigenvector j
    for positions, part_columns, v in batches:
        if v is None:  # a run of still columns: the real basis itself
            p, cols = part_columns
            table = np.zeros((cols.size, needed))
            np.multiply(parts[p][0].T[cols], size[rows[p]], out=table[:, rows[p]])
        else:
            table = np.empty((*v.shape[:2], needed), dtype=np.complex128)
            first = 0
            for (basis, _, _), cols, part_rows in zip(parts, part_columns, rows):
                last = first + cols.shape[1]
                # the real product with v's (re, im) pairs gives z's
                z = (basis.T[cols].transpose(0, 2, 1) @ v[:, first:last].view(np.float64))
                np.multiply(z.view(np.complex128).transpose(0, 2, 1), size[part_rows],
                            out=table[:, :, part_rows])
                first = last
            table = table.reshape(-1, needed)
        np.add(table[:, :pairs], table[:, h - pairs:h], out=table[:, h:h + pairs])
        np.subtract(table[:, :pairs], table[:, h - pairs:h], out=table[:, h + pairs:width])
        if needed > width:
            table[:, width] = 0.0
            np.negative(table[:, :width], out=table[:, width + 1:])
        # each level (each still run) takes straight into its columns where they run in order
        for level, at in zip(table.reshape(*positions.shape, needed), positions):
            targets = columns[at]
            if level.dtype == np.complex128 and np.all(np.diff(targets) == 1):
                np.take(level, pick, axis=1, out=eigenrows[targets[0]:targets[-1] + 1], mode="clip")
            else:
                eigenrows[targets] = np.take(level, pick, axis=1)


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


def _still_phases(sym_eigs: np.ndarray) -> np.ndarray:
    """theta of a level the skew part maps to zero: 0 at 2cos = 2, pi at -2."""
    return np.where(sym_eigs > 0, 0.0, np.pi)


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

