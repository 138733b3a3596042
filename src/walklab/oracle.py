"""Ground truth for small instances: explicit unitaries and eigensystems.

Everything here is validation machinery, and none of it rests on the
code it validates.  The dense U' = S * C' is assembled from the explicit
coin matrix (the Grover coin is defined here) and the shift rule of
`graphs` (shift_permutation, or shift_targets per dirac half-move),
without stepping a state through the engine and without the closed-form
spectra of `spectral`.  Every walk here is real, so U' is a float64
matrix, with only coin_dim nonzeros in each column, and DenseOperator
holds it as that sorted nonzero listing alone, never as an n x n array.
So only dense_eigens, whose complex eigenvectors make the one n x n array
here, is capped (DIMENSION_CAP); the listing's routes are not.
Every pass reads the listing whole: evolve_dense powers U' through each
row's nonzeros, dense_eigens checks its involutions on them (each must
map them onto themselves, so one sort of the images reads every image's
value) before it allocates, then scatters them into U''s blocks in the
involutions' eigenbasis, and unitarity_defect forms U'^T U' only inside
each group of columns that share a row, scattered from the listing,
where the rest of the product is exact zeros.  U' is eigendecomposed
through its symmetric part U' + U'^T by numpy.linalg.eigh (LAPACK syevd,
on numpy's own BLAS: walklab loads no second one), whose real
eigenvectors its skew part U' - U'^T pairs into complex ones (see
dense_eigens; a matrix that is not normal raises).  dense_eigens and
unitarity_defect make every BLAS and LAPACK call here, and each runs
with numpy's OpenBLAS pinned to one thread, its count restored on
every exit (_one_blas_thread): their bits do not depend on the thread
count.  Where no OpenBLAS thread-count symbol sits next to numpy (numpy
built on another BLAS), the pin does nothing, and the bits may follow
that BLAS's threads.
Involutions split the eigensolve, and U' enters their joint eigenbasis
one nonzero at a time: the arena's maps that fix the marked set
(Graph.symmetries), lifted (Graph.lift).  With one marked vertex, its
commuting mirrors generate a group G = Z_2^k, and U' splits into one
block per character of G.  The swap, the last symmetry, exchanges the
first two mirrors: it halves each block whose character bits 0 and 1
agree and exchanges the others in pairs, (1, 0) with (0, 1).  The first
of each pair is solved, and the other's eigenvectors are the solved ones
read through the swap, which the lift reads through the solved block's
maps gathered by the swap: it writes every eigenvector.  A signed
permutation time reversal S, S U' S = U'^T, then splits each block in
two (every relation is checked entry by entry on U''s nonzeros): S is
the shift itself, the shift after the direction reversal on the moving
torus (`Graph.reverse_moves`, the one owner of which move undoes which),
and on the dirac walk the point reflection T of each coin row
(`Graph.reflect`) between two copies of the marking C' (dense_unitary).
In S's eigenbasis U' + U'^T is two half-size blocks and U' - U'^T only
maps each half into the other, so each eigenvector of the +1 half and
its image there make a pair of eigenvectors of U', with no further
eigensolve (near theta = 0 or pi, the singular vectors of a small cross
block re-pair them).  An operator without a time reversal is refused.
Every eigenvector is lifted back through the map that built its block,
read backward in real arithmetic: its real part from x, its imaginary
part from y.  The oracle imports nothing from the engine: `graphs`
checks the marked set (Graph.marked_set).
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import Graph, check_count, is_integer

DIMENSION_CAP = 1024
# each 2-cycle of an involution puts this weight on its two indices in its eigenbasis
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# an eigenvector that the skew part maps to within this of zero has theta = 0 or pi
_SKEW_ZERO = 1e-12
# below this image length under the skew part (|sin theta| < 0.05), eigh may mix
# a turning eigenvector into the still ones at theta = 0 or pi enough to give
# them images past _SKEW_ZERO (_pair_near_still)
_NEAR_STILL = 0.1
# how far the skew part may map an eigenvector off its pair, or P U P and
# S U S may stray from U and U^T, before the check raises
_INVARIANCE_TOL = 1e-10
# the lift takes this many still eigenvectors, or turning pairs, at a time:
# it bounds the lift's temporaries, which hold at most 4 dim float64s each
_LIFT_COLUMNS = 32
# the (get, set) thread-count calls of numpy's OpenBLAS, by their names in
# the scipy-openblas builds numpy 2 bundles, then in older OpenBLAS builds
_THREAD_CALLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"))
# the thread count is the process's: one pinned body runs at a time
_PIN_LOCK = threading.RLock()
# which case _one_blas_thread found on its first use (the set call's name,
# or why it pins nothing), and the (get, set) calls where it found them
_pin_case: str | None = None
_pin_calls: tuple | None = None


def _numpy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy's wheel bundles next to its package
    (numpy.libs/ on Linux and Windows, numpy/.dylibs/ on macOS), or None
    where there is none."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        with suppress(OSError):
            return ctypes.CDLL(str(path))
    return None


def _blas_thread_calls() -> tuple | None:
    """(get, set) of the thread count of numpy's OpenBLAS, looked up on the
    first call and kept, or None where there is no library or no symbol;
    _pin_case says which case ran."""
    global _pin_case, _pin_calls
    if _pin_case is None:
        library = _numpy_openblas()
        names = next((pair for pair in _THREAD_CALLS
                      if all(hasattr(library, name) for name in pair)), None)
        if names is None:
            _pin_case = ("no OpenBLAS library next to numpy" if library is None
                         else "no OpenBLAS thread-count symbol")
        else:
            get, put = (getattr(library, name) for name in names)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            _pin_case, _pin_calls = names[1], (get, put)
    return _pin_calls


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, and restore the
    count it had on every exit, a raise included; where _blas_thread_calls
    finds no calls, run it as it is.  One thread leaves no sum split by the
    thread count, and a small eigh no wait for the pool (one thread was as
    fast or faster up to 256-wide blocks).  Bodies take turns under
    _PIN_LOCK, and a nested one restores the 1 it found."""
    with _PIN_LOCK:
        calls = _blas_thread_calls()
        if calls is None:
            yield
            return
        get, put = calls
        before = get()
        put(1)
        try:
            yield
        finally:
            put(before)


@dataclass
class DenseOperator:
    """A full (coin_dim*N)-dimensional real unitary M, held as `dim` and
    its sorted nonzero listing `nonzeros` = (flat, values): entry values[i]
    at flat index flat[i] = r*dim + c, strictly ascending (row-major), with
    no exact zero; as `reflection` and `flips`, a signed permutation time
    reversal S of it, S e_j = -e_reflection[j] where flips[j] and
    e_reflection[j] elsewhere (an involution, S M S = M^T: the shift
    itself, the shift after the direction reversal on the moving torus,
    C' T C' on the dirac walk; see dense_unitary); and as `symmetries`
    involutive index permutations that commute with M and S and with one
    another, but for the last, which may instead exchange the first two
    under conjugation and commute with the rest (dense_unitary's are
    Graph.symmetries of its marked set, lifted by Graph.lift).

    An operator checks itself when it is built: complex values raise
    TypeError, real values of another dtype are taken as float64 (and the
    flat indices as intp), flips are all False if not given (None without
    a reflection) and an identity symmetry is dropped, and a dim that is no
    positive integer, flat indices that are not one-dimensional integers
    strictly ascending in [0, dim^2), values that are not one per index or
    hold an exact zero, a reflection or symmetry that is no involutive
    permutation (any integer array-like, taken as an array), flips that are
    not one bool per index or differ on a 2-cycle of S or under a symmetry,
    flips without a reflection, a symmetry that does not commute with S, or
    one that does not commute with the symmetries before it (the last but
    for that exchange), raise ValueError.  dense_eigens checks, on M's
    nonzeros, that S and each symmetry map them onto themselves, S as a
    time reversal of M and each symmetry as a symmetry of it."""

    dim: int
    nonzeros: tuple
    reflection: np.ndarray | None = None
    symmetries: tuple = ()
    flips: np.ndarray | None = None

    def __post_init__(self) -> None:
        flat, values = self.nonzeros
        if np.iscomplexobj(values):
            raise TypeError(f"a DenseOperator is a real orthogonal matrix, not one of "
                            f"{np.asarray(values).dtype} entries")
        flat, values = np.asarray(flat), np.asarray(values, dtype=np.float64)
        if not is_integer(self.dim) or self.dim < 1:
            raise ValueError(f"a DenseOperator's dim must be a positive integer, not {self.dim!r}")
        if flat.dtype.kind not in "iu" or flat.ndim != 1 or np.any(flat[1:] <= flat[:-1]) \
                or flat.size and not 0 <= flat[0] <= flat[-1] < self.dim ** 2:
            raise ValueError("a DenseOperator's flat indices must be 1-D integers, strictly "
                             "ascending in [0, dim^2)")
        if values.shape != flat.shape or not values.all():
            raise ValueError("a DenseOperator's listing must hold one nonzero value per index")
        self.nonzeros = flat.astype(np.intp, copy=False), values
        flips = np.zeros(self.dim, dtype=bool) if self.flips is None else np.asarray(self.flips)
        if flips.dtype.kind != "b" or flips.shape != (self.dim,):
            raise ValueError("flips must be one flag per index, each a bool")
        if self.reflection is None and flips.any():
            raise ValueError("flips sign a reflection, and there is none")
        s = self.reflection = _involution(self.reflection, self.dim, "reflection")
        found = (_involution(g, self.dim, "symmetry") for g in self.symmetries)
        self.symmetries = tuple(g for g in found if not np.array_equal(g, np.arange(self.dim)))
        self.flips = None if s is None else flips
        if s is not None and not np.array_equal(flips[s], flips):
            raise ValueError("the reflection's flips must agree on each of its 2-cycles")
        last = len(self.symmetries) - 1
        for i, g in enumerate(self.symmetries):
            before = self.symmetries[:i]
            images = [g[h[g]] for h in before]  # each one before, conjugated by g
            exchanged = images[1::-1] + images[2:]  # the first two swapped back
            if not (all(map(np.array_equal, images, before))
                    or i == last and all(map(np.array_equal, exchanged, before))) \
                    or s is not None and not (np.array_equal(s[g], g[s])
                                              and np.array_equal(flips[g], flips)):
                raise ValueError("the reflection and the symmetries must commute, but for "
                                 "the last symmetry, which may exchange the first two")

    @_one_blas_thread()
    def unitarity_defect(self) -> float:
        """max |M^T M - I|, with M^T M formed only inside each group of
        columns that share a row (_column_groups): an entry between two
        groups sums products with a zero factor, an exact zero of the dense
        product.  Groups of one shape take one batched product; a zero
        column is a group of no rows, whose diagonal entry 0 gives 1.  The
        groups' maxima meet in np.max, so a NaN or an inf in M gives a
        defect that is not finite.  It runs on one BLAS thread
        (_one_blas_thread), so its bits do not depend on the thread count."""
        maxima = []
        for blocks in _column_groups(self.dim, self.nonzeros):
            gram = np.matmul(blocks.transpose(0, 2, 1), blocks)
            gram.reshape(len(gram), -1)[:, ::gram.shape[1] + 1] -= 1.0
            maxima.append(np.max(np.abs(gram, out=gram)))
        return float(np.max(maxima))


def grover_coin(d: int) -> np.ndarray:
    """2|s><s| - I on the coin register, as a float64 matrix."""
    return (2.0 / d) * np.ones((d, d)) - np.eye(d)


def dense_unitary(graph: Graph, marked) -> DenseOperator:
    """U' = S * C' as a DenseOperator, index c*N + v, C' marking `marked`.

    Each entry of the explicit coin matrix C' goes straight to its flat
    index under the shift permutation, listed row by row with no n x n
    array (_shifted_coin).  The dirac step is the coin-basis half-move
    along y, then the half-move along x conjugated by the Hadamard, each
    Hadamard a sum and a difference of the listing's two row halves
    (_butterfly): both go in unscaled and their two 1/sqrt(2) factors as
    one exact 1/2, so every entry is exact.  The moving shift
    S_m is no involution past side 2, but with the direction reversal T
    (c <-> `Graph.reverse_moves`[c]) T S_m T = S_m^T, and T commutes with
    C', so S_m T is a time reversal of U' = (S_m T)(T C').  Every other
    permutation shift here is an involution, its own time reversal, kept
    as `reflection`: DenseOperator refuses one that is not.  The dirac
    walk's time reversal is signed (_dirac_reversal); where the marked set
    has no point symmetry it has none, and the reflection is None.  The
    symmetries are Graph.symmetries of the marked set, lifted (Graph.lift).
    """
    dim = graph.coin_dim * graph.n
    marked = graph.marked_set(marked)
    flips = None
    if graph.spec.shift != "dirac":
        move = graph.shift_permutation()
        nonzeros = _shifted_coin(graph, marked, move)
        reflection = move
        if graph.spec.shift == "moving":  # after T: c*N + v -> reverse(c)*N + v
            reflection = move.reshape(graph.coin_dim, -1)[graph.reverse_moves()].ravel()
    else:  # the first _butterfly is unscaled, the second takes both 1/sqrt(2)
        first = _butterfly(_shifted_coin(graph, marked, _half_move(graph, (0, 1))), dim, 1.0)
        nonzeros = _butterfly(first, dim, 0.5, _half_move(graph, (2, 3)))
        reflection, flips = _dirac_reversal(graph, marked)
    return DenseOperator(dim, nonzeros, reflection,
                         [graph.lift(g) for g in graph.symmetries(marked)], flips)


def _dirac_reversal(graph: Graph, marked: tuple[int, ...]) -> tuple:
    """(reflection, flips) of the dirac walk's signed time reversal
    S' = C' T C', or (None, None) if the marked set M has no point symmetry.

    T sends row c at vertex v to row c at b_c - v (Graph.reflect), with
    b_0 = s + (1, 1) and b_1 = s + (1, -1) in (x, y), where s is a centre
    of M: some m_0 + m_j with s - M = M (0 unmarked; if M has a centre,
    s - m_0 lies in M, so these candidates find it).  C' is the marking,
    -X on both rows of each marked vertex: C' e_j = -e_swap[j] there.  So
    S' e_j is e_swap[T swap[j]], negated where exactly one of j and
    T swap[j] sits at a marked vertex."""
    n, marked = graph.n, list(marked)
    points = np.array([graph.vertex_coords(m) for m in marked or [0]])
    for s in points[:1] + points:
        if set(graph.reflect(s)[marked].tolist()) == set(marked):
            break
    else:
        return None, None
    ends = s + np.array([[1, 1], [1, -1]])  # b_c, one row per c
    turn = np.arange(2)[:, None] * n + np.array([graph.reflect(end) for end in ends])
    swap = np.arange(2 * n).reshape(2, n)
    swap[:, marked] = swap[::-1, marked]
    swap = swap.ravel()
    on = swap != np.arange(2 * n)  # the rows of marked vertices
    through = turn.ravel()[swap]
    return swap[through], on ^ on[through]


def _shifted_coin(graph: Graph, marked: tuple[int, ...], move: np.ndarray) -> tuple:
    """The listing of S C' for the row permutation S = `move`.  C' holds
    the unmarked coin on every vertex and the marking's block on marked
    ones; row move[c*N + v] holds C'[c*N + v, c'*N + v] at column c'*N + v
    for each c' in turn, so listing each row's d entries row by row keeps
    the flat indices ascending."""
    d, n = graph.coin_dim, graph.n
    grover = grover_coin(d)
    marking = graph.spec.marking
    if marking == "projector_flip":  # the identity; I - 2|s><s| = -grover
        unmarked, flipped = np.eye(d), -grover
    elif marking == "minus_c0":
        unmarked, flipped = grover, -grover
    else:
        unmarked, flipped = grover, -np.eye(d)
    coin, vertex = np.divmod(np.argsort(move), n)  # the (c, v) that lands on each row
    on = np.zeros(n, dtype=bool)
    on[list(marked)] = True
    values = unmarked[coin]
    values[on[vertex]] = flipped[coin[on[vertex]]]
    flat = (np.arange(d * n) * (d * n) + vertex)[:, None] + np.arange(d) * n
    keep = values != 0
    return flat[keep], values[keep]


def _half_move(graph: Graph, roles: tuple[int, int]) -> np.ndarray:
    """Row permutation of one dirac half-move: component c moves as roles[c]."""
    return (np.arange(2)[:, None] * graph.n + graph.shift_targets()[list(roles)]).ravel()


def _butterfly(nonzeros: tuple, dim: int, scale: float, move: np.ndarray | None = None) -> tuple:
    """The listing of H M for M given by its listing `nonzeros`, its rows
    first moved by the permutation `move` (row r to move[r]) if given:
    each top row i and its bottom row i + dim/2 become (top + bottom) *
    scale and (top - bottom) * scale, each sum formed before it is scaled,
    with 0 for an entry M lacks, as the dense butterfly forms them."""
    half = dim // 2
    rows, cols = np.divmod(nonzeros[0], dim)
    if move is not None:
        rows = move[rows]
    low = rows >= half
    keys, at = np.unique((rows - half * low) * dim + cols, return_inverse=True)
    top, bottom = pair = np.zeros((2, keys.size))
    pair[low.astype(np.intp), at] = nonzeros[1]
    values = np.concatenate([top + bottom, top - bottom])
    values *= scale
    keep = values != 0
    return np.concatenate([keys, keys + half * dim])[keep], values[keep]


@_one_blas_thread()
def dense_eigens(op: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases, sorted by |phase| (stably), and an orthonormal eigenbasis
    of the operator's real orthogonal matrix U.

    An orthogonal U is normal, so its symmetric part U + U^T (eigenvalues
    2 cos theta) and its skew part U - U^T (eigenvalues 2i sin theta)
    commute and share U's eigenvectors.  numpy.linalg.eigh (LAPACK syevd,
    a divide-and-conquer solve that deflates on the heavily degenerate
    spectra these walks have) diagonalises the symmetric part, and the
    skew part pairs its real eigenvectors into complex ones.  A matrix
    that is not normal raises ArithmeticError instead of returning a wrong
    basis.

    It runs on one BLAS thread (_one_blas_thread), so its bits do not
    depend on the thread count.

    Only this n x n complex eigenvector array grows with dim^2, so an
    operator past DIMENSION_CAP raises ValueError here, before anything is
    allocated.

    The solve runs through the operator's involutions.  Each of its
    `symmetries` (involutive index permutations: commuting mirrors, then
    perhaps a swap of the first two) must commute with U, and its
    `reflection` (the signed involutive permutation S of `reflection` and
    `flips`, which commutes with them) must be a time reversal of U,
    S U S = U^T: all are checked on every nonzero of U, which sees every
    entry, else ArithmeticError (_check_involutions), before the
    eigenvector buffer is taken; an operator without a reflection raises
    ValueError.  U splits into one block per joint eigenspace of the
    involutions, each formed straight in S's eigenbasis from U's nonzeros
    in the rows at its coordinates' least indices (_split_maps, _rotated_blocks), where each
    eigenvector of the +1 half and its image under the skew part make a
    pair of U's eigenvectors (_reversal_eigens; either half may be empty).
    Of two blocks that the swap exchanges, one is solved and the other
    copied: the same phases, and the solved eigenvectors read through the
    swap, which the lift forms from the solved block's eigenvectors
    through its two maps read through the swap's gather, (into[gather],
    weight[gather]).  All phases of all blocks are merged by |phase| before
    any eigenvector is formed, and the lift reads each half's map backward
    in real arithmetic: an original row has at most one coordinate in each
    half of a block, so an eigenvector's real part comes from its x alone
    and its imaginary part from its y alone, each by one weighted gather
    into the original rows (_lift).
    """
    if op.dim > DIMENSION_CAP:
        raise ValueError(f"dense_eigens is capped at dimension {DIMENSION_CAP}: its complex "
                         f"eigenvector array would be {op.dim} x {op.dim}")
    if op.reflection is None:
        raise ValueError("dense_eigens solves through a time reversal S of U (S U S = U^T), "
                         "and this operator has no reflection")
    # the check's and the split's temporaries are freed before the buffer is
    # taken: small blocks freed past it could part its freed place from the
    # heap's top, and a later, larger buffer would grow the heap
    _check_involutions(op)
    maps = _split_maps(op)
    vectors, buffer = _eigenvector_buffer(op.dim)  # the first large allocation
    first, second = buffer
    phases, found = [], []
    blocks, copies = _rotated_blocks(op, maps, second)
    for rotated, m, ways in blocks:
        block_phases, eigens = _reversal_eigens(rotated, m, _carve(first, rotated.shape)[0])
        phases.append(block_phases)
        found.append((eigens, ways))
    phases += [phases[block] for block, _ in copies]
    ends = np.cumsum([len(part) for part in phases[:-1]])
    phases, columns = _sorted_columns(np.concatenate(phases))
    # each solved block through its own maps, then each copy through its solved block's
    lifts = [*((block, slice(None)) for block in range(len(found))), *copies]
    for at, (block, gather) in zip(np.split(columns, ends), lifts):
        eigens, ways = found[block]
        _lift(vectors.T, at, *eigens, *((into[gather], weight[gather]) for into, weight in ways))
    return phases, vectors


def _rotated_blocks(op: DenseOperator, maps: tuple,
                    buffer: np.ndarray) -> tuple[list[tuple], list]:
    """U's blocks in the joint eigenbasis of its involutions, given by
    `maps` (_split_maps'), each as (matrix, m, ways): the block, carved from
    `buffer`, whose first m coordinates are S's +1 half, and per half of S
    the map that built it, (into, weight), views of the maps': index i
    enters coordinate into[i] with weight weight[i]; and the maps' copies,
    the blocks that are not solved.  The scatter (_scatter) reads both
    halves' maps as one map's two slots, and the lift reads each backward
    (_lift).  The scatter reads U's nonzeros in the rows the block reads
    alone (dense_eigens has checked the involutions on them), and the
    nonzeros it gathers are dropped before any eigensolve."""
    sizes, into, weights, reads, copies = maps
    rows = op.nonzeros[0] // op.dim
    read = (reads > 0).any(axis=0)[rows]
    nonzeros, rows = tuple(part[read] for part in op.nonzeros), rows[read]
    rotated = []
    for block, out in enumerate(_carve(buffer, *((size, size) for size in sizes.sum(axis=0)))):
        targets = np.maximum(into[:, block] + [[0], [sizes[0, block]]], 0)
        own = tuple(part[(reads[block] > 0)[rows]] for part in nonzeros)
        _scatter(own, (targets, weights[:, block] * reads[block]), (targets, weights[:, block]),
                 out)
        rotated.append((out, sizes[0, block], [(into[half, block], weights[half, block])
                                               for half in (0, 1)]))
    return rotated, copies


def _check_involutions(op: DenseOperator) -> None:
    """Check, on U's nonzeros, that each of the operator's symmetries P
    commutes with U and its reflection S is a time reversal of U, else
    ArithmeticError.  Each must map U's nonzeros onto U's nonzeros: the
    images' one sort must give the listing, and each image's value is read
    through it; one that moves a nonzero onto a zero of U deviates by inf,
    whatever the entry's size.  Then P U P = U where |U[P r, P c] - U[r, c]|
    and S U S = U^T where |s_r s_c U[S c, S r] - U[r, c]| (s = -1 where
    `flips`) is at most _INVARIANCE_TOL at every nonzero (r, c); a
    deviation that is not finite (a NaN or an inf in U) is refused too.  P
    and S are signed permutations, so an entry that breaks either relation
    is a nonzero of U or the image of one: the check sees every entry."""
    flat, values = op.nonzeros
    rows, cols = np.divmod(flat, op.dim)
    key, found = np.empty_like(flat), np.empty_like(values)
    deviations = []
    # an inf in U gives a NaN (inf - inf, inf * 0), which is refused below
    with np.errstate(invalid="ignore"):
        for image, first, second, flips in [*((p, rows, cols, None) for p in op.symmetries),
                                            (op.reflection, cols, rows, op.flips)]:
            np.take(image, first, out=key)
            key *= op.dim
            key += np.take(image, second)
            order = np.argsort(key, kind="stable")  # the images are distinct
            if not np.array_equal(np.take(key, order), flat):  # a nonzero moved onto a zero
                deviations.append(np.inf)
                continue
            found[order] = values
            if flips is not None:
                found *= np.where(flips[first] != flips[second], -1.0, 1.0)
            found -= values
            deviations.append(_max_abs(found))
    leak, defect = np.max(deviations[:-1], initial=0.0), deviations[-1]
    if not leak <= _INVARIANCE_TOL:
        raise ArithmeticError(f"U does not commute with the symmetry P: P U P - U reaches "
                              f"{leak:.3e}")
    if not defect <= _INVARIANCE_TOL:
        raise ArithmeticError(f"the reflection S is no time reversal of U (U does not commute "
                              f"with S up to transposition): S U S - U^T reaches {defect:.3e}")


def _symmetric_eigh(matrix: np.ndarray, out: np.ndarray) -> tuple:
    """eigh of matrix + matrix^T (formed in `out`), its basis column-major,
    as LAPACK leaves it: basis.T holds each eigenvector as one contiguous
    row."""
    sym_eigs, basis = np.linalg.eigh(np.add(matrix, matrix.T, out=out))
    return sym_eigs, np.asfortranarray(basis)


def _involution(perm: np.ndarray | None, n: int, name: str) -> np.ndarray | None:
    """`perm`, as an array, if it is an integer array-like that is an
    involutive permutation of range(n); None if it is None; else
    ValueError."""
    if perm is None:
        return None
    perm, index = np.asarray(perm), np.arange(n)
    if perm.dtype.kind not in "iu" or perm.shape != (n,) \
            or not np.array_equal(np.sort(perm), index) or not np.array_equal(perm[perm], index):
        raise ValueError(f"{name} must be an involutive permutation of the indices")
    return perm


def _split_maps(op: DenseOperator) -> tuple:
    """The joint eigenbasis of the operator's symmetries g_1 .. g_k and
    then of its reflection S, as (sizes, into, weights, reads, copies), the
    first three per half h (0: S's +1 half, 1: its -1 half) of each block b
    that dense_eigens solves.  A half has sizes[h, b] coordinates, and index
    i enters coordinate into[h, b, i] with weight weights[h, b, i] (-1 and 0
    where it enters none).  copies lists the blocks that are not solved, in
    turn, each as (b, gather): its eigenvectors are block b's, v[gather].

    Each involution in turn splits every block that it maps onto itself
    into its +1 half and its -1 half, and drops the empty ones (S keeps
    them).  A mirror, which commutes with the involutions before it,
    splits every block, so the mirrors leave one block per character chi
    of the group they generate that has a vector, in the order of its bits
    c = sum of 2^(l-1) over the l with chi(g_l) = -1.  The swap, the last
    symmetry, exchanges g_1 and g_2, so it maps block c onto the block of
    c with bits 0 and 1 exchanged: it splits the blocks whose two bits
    agree, and of each pair it exchanges, the block whose bits 0 and 1
    read (1, 0) is kept whole and the later one, (0, 1), is dropped and
    copied from it through the swap.  The swap and S put their +1 halves
    and the whole blocks before their -1 halves.  A coordinate is known by
    the least index it holds, whose weight is positive; in a block it
    splits, the involution maps a coordinate to the one that holds
    that index's image, negated where the image's weight is negative or the
    involution is signed there.  A 2-cycle of coordinates p < q gives
    (e_p + e_q)/sqrt(2) to the +1 half and (e_p - e_q)/sqrt(2) to the -1
    half (e_q's signs swapped where it is negated), a fixed one goes to the
    half of its sign, and a half lists its coordinates by their least
    index.  An index's weight in a block is +-2^(-j/2), j the number of
    2-cycles that merged its coordinate: 2^(-j//2) times _INV_SQRT2 if j is
    odd.

    U commutes with the symmetries, so a block's row at a coordinate that
    holds the index set O before S is |O| times the weight at any index of
    O times that row of U R: the scatter reads each such row at its least
    index alone, scaled by reads[b] = |O| there (0 at every other row)."""
    n, k = op.dim, len(op.symmetries)
    index = np.arange(n)
    # per block and index: the least index of its coordinate (-1: none), its
    # weight's sign and how many 2-cycles merged its coordinate; per block,
    # its character's bits and whether the swap copies it
    lead, negated = np.arange(n)[None], np.zeros((1, n), dtype=bool)
    merges, chars, copied = np.zeros((1, n), np.int8), np.zeros(1, np.intp), np.zeros(1, bool)
    involutions = [*((g, np.zeros(n, dtype=bool)) for g in op.symmetries),
                   (op.reflection, op.flips)]
    for level, (image, flipped) in enumerate(involutions):
        whole = np.zeros(len(lead), dtype=bool)  # a commuting involution splits every block
        if level == k:
            reads = np.where(lead == index, np.ldexp(1.0, merges), 0.0)
        elif not np.array_equal(image[op.symmetries[0]], op.symmetries[0][image]):
            low = chars & 3  # the swap exchanges bits 0 and 1
            whole = (low == 1) | (low == 2)
            lead[low == 2] = -1  # the copy of the block of low == 1
            copied = low == 1
        inside, at = lead >= 0, np.maximum(lead, 0)
        place = image[at]  # of each coordinate's image, in the flat blocks
        place += np.arange(len(lead))[:, None] * n
        partner, minus = lead.take(place), negated.take(place)
        minus ^= flipped[at]  # the involution negates the coordinate
        merged, later, moved = np.minimum(at, partner), partner < at, partner != at
        split = ~whole[:, None]
        moved &= split
        plus = np.where(inside & (moved | ~minus), merged, -1)
        plus[whole] = lead[whole]
        lead = np.concatenate([plus, np.where(inside & (moved | minus) & split, merged, -1)])
        negated = np.concatenate([negated ^ (later & minus & split), negated ^ (later & ~minus)])
        merges += moved
        merges = np.concatenate([merges, merges])
        if level < k:
            kept = (lead >= 0).any(axis=1)
            lead, negated, merges = lead[kept], negated[kept], merges[kept]
            chars = np.concatenate([chars, chars | 1 << level])[kept]
            copied = np.concatenate([copied, np.zeros_like(copied)])[kept]
    held = lead == index
    at = np.maximum(lead, 0)
    at += np.arange(len(lead))[:, None] * n
    into = (np.cumsum(held, axis=1) - 1).take(at)
    into[lead < 0] = -1
    j = np.arange(merges.max() + 1)
    weights = np.ldexp(np.where(j % 2, _INV_SQRT2, 1.0), -(j // 2)).take(merges)
    np.negative(weights, out=weights, where=negated)
    weights[lead < 0] = 0.0
    return (held.sum(axis=1).reshape(2, -1), into.reshape(2, -1, n), weights.reshape(2, -1, n),
            reads, [(b, op.symmetries[-1]) for b in np.flatnonzero(copied).tolist()])


def _column_groups(n: int, nonzeros: tuple) -> list[np.ndarray]:
    """The groups of columns of the n x n matrix with these `nonzeros`
    (DenseOperator's listing) that share a row (the connected components
    of its nonzero pattern), each with the rows it fills: a zero column is
    a group of no rows.  The groups of one shape come as one stack
    (groups, rows, columns), rows and columns ascending, scattered from
    the listing one shape at a time; a group of every column is one block
    of the filled rows, and only it is as large as the matrix.

    Labels propagate over the nonzeros: each column starts at its own
    index; a pass gives each row the least label among its columns, then
    each column the least among its rows', and then jumps each label to
    its own label's until none moves; passes repeat until a pass moves no
    label.  Each label is then the least column of its group."""
    flat, values = nonzeros
    cols = flat % n
    starts = np.flatnonzero(np.diff(flat // n, prepend=-1))  # each filled row's first nonzero
    row_of = np.repeat(np.arange(starts.size), np.diff(starts, append=cols.size))
    label = np.arange(n)
    while cols.size:
        moved = label.copy()
        np.minimum.at(moved, cols, np.minimum.reduceat(label[cols], starts)[row_of])
        while not np.array_equal(jumped := moved[moved], moved):
            moved = jumped
        if np.array_equal(moved, label):
            break
        label = moved
    row_group = label[cols[starts]]
    heights, widths = np.bincount(row_group, minlength=n), np.bincount(label, minlength=n)
    shapes = heights * (n + 1) + widths  # per group, at its label
    roots = np.flatnonzero(widths)  # one per group
    row_rank, col_rank = _ranks(row_group, heights), _ranks(label, widths)
    groups = []
    for shape in np.unique(shapes[roots]):
        height, width = divmod(int(shape), n + 1)
        first = roots[shapes[roots] == shape]
        inside = np.flatnonzero(shapes[label[cols]] == shape)
        # each nonzero's flat place in the stack: its group's, row's and column's
        at = np.searchsorted(first, label[cols[inside]])
        at *= height
        at += row_rank[row_of[inside]]
        at *= width
        at += col_rank[cols[inside]]
        stack = np.zeros((first.size, height, width))
        stack.reshape(-1)[at] = values[inside]
        groups.append(stack)
    return groups


def _ranks(group: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each item's rank among the items of its group (`group[i]`, whose
    size is sizes[group[i]]), in the items' order."""
    order = np.argsort(group, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - (np.cumsum(sizes) - sizes)[group[order]]
    return rank


def _scatter(nonzeros: tuple, row_way: tuple, way: tuple, out: np.ndarray) -> None:
    """L^T U R in `out` (contiguous), for U given by its `nonzeros`
    (DenseOperator's listing) and L and R by their maps (targets, weights), each of shape
    (slots, n): index i enters R's column targets[s, i] with weight
    weights[s, i], R[i, targets[s, i]] = weights[s, i] (zero weights pad).
    Each nonzero U[i, j] adds L[i, a] U[i, j] R[j, c] to out[a, c] for
    every slot of i in `row_way` and of j in `way`, by np.add.at (which
    sums the repeated entries), over all the nonzeros at once."""
    (rows, cols), part = np.divmod(nonzeros[0], way[0].shape[1]), nonzeros[1]
    width, total = out.shape[1], out.reshape(-1)
    total.fill(0.0)
    for into, weights in zip(*row_way):
        at = np.take(into, rows)
        at *= width
        weight = np.take(weights, rows)
        weight *= part
        for then, scale in zip(*way):
            index = np.take(then, cols)
            index += at
            value = np.take(scale, cols)
            value *= weight
            np.add.at(total, index, value)


def _reversal_eigens(rotated: np.ndarray, m: int, spare: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Phases and eigenvectors of V = R^T U R, U's matrix in the
    eigenbasis R of a time reversal S whose +1 half is the first m
    indices.  `rotated` (V, which must be contiguous) is overwritten, and
    `spare` (as large) is scratch.  The eigenvectors come as the rows of
    (xs, ys, still_x, still_y) for _lift, all in one array: the pairs
    (x, +-i y)/sqrt(2) at +-theta, then the still x and the still columns
    of the -1 half, in the phases' order.

    The -1 half has size r = n - m (V is n x n).  The time reversal D V D = V^T
    (D = diag(I_m, -I_r)) says that V++ and V-- are symmetric and
    V+- = -V-+^T (_check_involutions has checked S on U).  The symmetric
    part is then the two halves 2 V++ and 2 V--, one eigh each, and the
    skew part only crosses between them: it is [[0, A], [-A^T, 0]] with
    A = V+- - V-+^T.  As V is orthogonal, A A^T = 4 - (2 V++)^2, so an
    eigenvector x of 2 V++ at 2 cos theta has the image y = A^T x of
    length 2 |sin theta|.  Where y is not zero, V's eigenvectors at +-atan2(|y|, 2 cos theta) are
    (x, +-i y/|y|)/sqrt(2), if U is normal: y/|y| must be an eigenvector of
    2 V-- at the same 2 cos theta and A y/|y| = |y| x, and both halves must
    have as many such turning columns (each checked, else ArithmeticError).
    The x with y = 0, and the eigenvectors of 2 V-- that A maps to zero,
    lie at 2 cos theta = +-2: they are real eigenvectors at theta = 0 or
    pi.  Near +-2, where eigh mixes them with turning columns of a small
    theta, _pair_near_still first parts and pairs the two halves' columns
    again.  One Newton-Schulz step, Y <- Y (3/2 I - Y^T Y / 2), over the
    y/|y| and those -1 half columns keeps them orthonormal to rounding.
    """
    r = rotated.shape[0] - m
    pp, mm, pm, mp = rotated[:m, :m], rotated[m:, m:], rotated[:m, m:], rotated[m:, :m]
    plus, minus, cross = _carve(spare, (m, m), (r, r), (m, r))
    plus_eigs, plus_vecs = _symmetric_eigh(pp, plus)  # eigh copies its input
    minus_eigs, minus_vecs = _symmetric_eigh(mm, minus)
    np.subtract(pm, mp.T, out=cross)
    # in V's buffer, as rows: each y = A^T x, each A z of the -1 half's
    # eigenvectors z, and the -1 half's new columns q, the y/|y| then the still z
    ys, zs, q = _carve(rotated, (m, r), (r, m), (r, r))
    np.matmul(plus_vecs.T, cross, out=ys)
    np.matmul(minus_vecs.T, cross.T, out=zs)
    _pair_near_still((plus_eigs, plus_vecs.T, ys), (minus_eigs, minus_vecs.T, zs))
    lengths = np.sqrt(np.einsum("ij,ij->i", ys, ys))
    turning = lengths > _SKEW_ZERO
    still = np.einsum("ij,ij->i", zs, zs) <= _SKEW_ZERO ** 2
    t, s = np.count_nonzero(turning), np.count_nonzero(still)
    if t + s != r:
        raise ArithmeticError(f"the skew part turns {t} columns of the +1 half of S but "
                              f"{r - s} of its -1 half: the matrix is not normal "
                              f"({_normality_defect(plus, minus, cross)})")
    np.divide(ys[turning], lengths[turning, None], out=q[:t])
    q[t:] = minus_vecs.T[still]
    # y/|y| against 2 V-- y/|y| and A y/|y| against |y| x, in the images' rows
    level = np.matmul(q[:t], minus, out=_carve(zs, (t, r))[0])
    level -= plus_eigs[turning, None] * q[:t]
    pair = np.matmul(q[:t], cross.T, out=_carve(ys, (t, m))[0])
    pair -= lengths[turning, None] * plus_vecs.T[turning]
    if max(_max_abs(level), _max_abs(pair)) > _INVARIANCE_TOL:
        raise ArithmeticError(f"the skew part maps the +1 half of S off its eigenvector "
                              f"pairs: the matrix is not normal "
                              f"({_normality_defect(plus, minus, cross)})")
    gram = np.matmul(q, q.T, out=_carve(spare, (r, r))[0])
    gram *= -0.5
    gram.reshape(-1)[::r + 1] += 1.5
    theta = np.arctan2(lengths[turning], plus_eigs[turning])
    fixed = np.concatenate([plus_eigs[~turning], minus_eigs[still]])
    # one array per block waits for the lift: three small ones each can
    # fragment the heap past reuse for the next large array
    xs, xs_still, qs = _carve(np.empty(m * m + r * r), (t, m), (m - t, m), (r, r))
    np.matmul(gram, q, out=qs)
    for rows, out in ((turning, xs), (~turning, xs_still)):  # "clip" skips a buffered copy
        np.take(plus_vecs.T, np.flatnonzero(rows), axis=0, out=out, mode="clip")
    return (np.concatenate([theta, -theta, np.where(fixed > 0, 0.0, np.pi)]),
            (xs, qs[:t], xs_still, qs[t:]))


def _normality_defect(plus: np.ndarray, minus: np.ndarray, cross: np.ndarray) -> str:
    """How far a block V is from normal, for a refusal: max |V^T V - V V^T|
    = max |H K - K H| / 2, H = diag(plus, minus) its symmetric part (S is
    a time reversal) and K its skew part, whose +- block is `cross` A."""
    defect = _max_abs(plus @ cross - cross @ minus) / 2
    return f"max |V^T V - V V^T| = {defect:.3e}"


def _pair_near_still(plus: tuple, minus: tuple) -> None:
    """Re-pair, in place, the eigenvectors of both halves near 2 cos theta =
    2, and those near -2, whose images are neither zero nor past
    _NEAR_STILL.  `plus` is (eigenvalues, eigenvectors x as rows, images
    A^T x as rows) of the +1 half and `minus` the same for the -1 half's
    z and A z.  eigh resolves 2 cos theta = 2 - theta^2 from 2 only to
    about eps/theta^2, so it may return mixtures of still vectors and a
    turning pair with a small theta, and y/|y| from so short an image
    loses the digits that its length lost.  The singular value
    decomposition B = W diag(sigma) K^T of the cross block B = X A Z^T
    between the two groups parts them: x' = W^T x and z' = K^T z have
    A^T x' = sigma z' and A z' = sigma x'.  Each group's vectors and
    images turn alike, the images A^T x' are then set to exactly sigma z',
    and each x' takes its Rayleigh quotient as its eigenvalue."""
    (plus_eigs, xs, ys), (minus_eigs, zs, azs) = plus, minus
    near_x, near_z = ((a > _SKEW_ZERO ** 2) & (a <= _NEAR_STILL ** 2)
                      for a in (np.einsum("ij,ij->i", v, v) for v in (ys, azs)))
    for i, j in ((np.flatnonzero(near_x & (plus_eigs * sign > 0)),
                  np.flatnonzero(near_z & (minus_eigs * sign > 0))) for sign in (1, -1)):
        if not i.size + j.size:  # nothing to re-pair on this side
            continue
        # x . A z; with one group empty, the other turns by the identity
        turn_x, sines, turn_z = np.linalg.svd(ys[i] @ zs[j].T)
        xs[i], ys[i] = turn_x.T @ xs[i], turn_x.T @ ys[i]
        zs[j], azs[j] = turn_z @ zs[j], turn_z @ azs[j]
        plus_eigs[i] = np.square(turn_x).T @ plus_eigs[i]
        ys[i[:sines.size]] = sines[:, None] * zs[j[:sines.size]]


def _eigenvector_buffer(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A column-major n x n complex array for the eigenvectors, and its buffer
    as two n x n float64 arrays.  The lift writes every entry of the array;
    until then the buffer holds the temporaries: the blocks, the halves,
    their images and checks."""
    flat = np.empty(n * n, dtype=np.complex128)
    return flat.reshape(n, n, order="F"), flat.view(np.float64).reshape(2, n, n)


def _gathered(vectors: np.ndarray, prescale: float, way: tuple) -> np.ndarray:
    """The rows v of `vectors`, each on one half of S's eigenbasis, read
    into the original rows by the half's map `way` (_split_maps): entry r
    of a row is v[index[r]] * prescale, times weight[r], as the complex
    lift rounds it."""
    index, weight = way
    lifted = np.take(np.multiply(vectors, prescale), index, axis=1)
    lifted *= weight
    return lifted


def _lift(eigenrows: np.ndarray, columns: np.ndarray, xs: np.ndarray, ys: np.ndarray,
          still_x: np.ndarray, still_y: np.ndarray, x_way: tuple, y_way: tuple) -> None:
    """Write one block's eigenvectors (_reversal_eigens), or a copied
    block's through its solved block's maps gathered, _LIFT_COLUMNS at a
    time, into their sorted rows of `eigenrows` (row j is eigenvector j;
    `columns` by the block's phase positions).  The turning pair
    (x, +-i y)/sqrt(2) takes its real part from x / sqrt(2) and its
    imaginary part, +-, from y / sqrt(2), each by _gathered; the still x
    and the still columns of the -1 half are real.  Every entry equals the
    complex lift's, whose term from the other half is an exact zero."""
    x_way, y_way = ((np.maximum(into, 0), weight) for into, weight in (x_way, y_way))
    t = len(xs)
    turning, conjugate = columns[:t], columns[t:2 * t]
    for lo in range(0, t, _LIFT_COLUMNS):
        part = slice(lo, lo + _LIFT_COLUMNS)
        real = _gathered(xs[part], _INV_SQRT2, x_way)
        imag = _gathered(ys[part], _INV_SQRT2, y_way)
        eigenrows.real[turning[part]] = real
        eigenrows.real[conjugate[part]] = real
        eigenrows.imag[turning[part]] = imag
        eigenrows.imag[conjugate[part]] = np.negative(imag, out=imag)
    start = 2 * t
    for vectors, way in ((still_x, x_way), (still_y, y_way)):
        for lo in range(0, len(vectors), _LIFT_COLUMNS):
            part = vectors[lo:lo + _LIFT_COLUMNS]
            eigenrows[columns[start + lo:start + lo + len(part)]] = _gathered(part, 1.0, way)
        start += len(vectors)


def _carve(buffer: np.ndarray, *shapes: tuple[int, int]) -> list[np.ndarray]:
    """Consecutive C-ordered arrays of the given shapes at the start of
    `buffer`, which must hold them all."""
    flat, start, out = buffer.reshape(-1), 0, []
    for rows, cols in shapes:
        out.append(flat[start:start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return out


def _max_abs(a: np.ndarray) -> float:
    """max |a| (0 if empty), taking |a| in place."""
    return float(np.abs(a, out=a).max(initial=0.0))


def _sorted_columns(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phases sorted by |phase| (stably), and the sorted column of each."""
    order = np.argsort(np.abs(phases), kind="stable")
    return phases[order], np.argsort(order)


def evolve_dense(op: DenseOperator, vector: np.ndarray, steps: int) -> np.ndarray:
    """Step-by-step application of the matrix through its nonzeros; returns
    the (steps+1, dim) history, float64 for a real start and complex for a
    complex one.  Each step gathers the state at every row's nonzero
    columns (_row_slots) and sums each row with one np.einsum: no BLAS
    call, so the history's bits do not depend on the thread count; steps
    that are no non-negative integer raise ConfigurationError, and a start
    vector of another shape than (dim,) ValueError."""
    check_count("steps", steps)
    if np.shape(vector) != (op.dim,):
        raise ValueError(f"the start vector must have shape {(op.dim,)}, not {np.shape(vector)}")
    out = np.empty((steps + 1, op.dim), dtype=np.result_type(vector, op.nonzeros[1]))
    out[0] = vector
    columns, weights = _row_slots(op, out.dtype)
    gathered = np.empty(columns.shape, dtype=out.dtype)
    for t in range(steps):
        np.take(out[t], columns, out=gathered, mode="clip")  # "clip" skips a buffered copy
        np.einsum("ij,ij->i", weights, gathered, out=out[t + 1])
    return out


def _row_slots(op: DenseOperator, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(columns, weights), each (rows, width): row i's nonzero entries
    weights[i, s] at columns columns[i, s], padded to the widest row's
    width with zero weights at column 0; weights in `dtype`."""
    flat, values = op.nonzeros
    rows, cols = np.divmod(flat, op.dim)
    counts = np.bincount(rows, minlength=op.dim)
    width = counts.max(initial=0)
    # each entry's flat place in the padded rows, its row's start plus its
    # rank in the row, formed in `rows` (fewer temporaries, a lower peak)
    rows *= width
    rows += np.arange(flat.size)
    rows -= np.repeat(np.cumsum(counts) - counts, counts)
    columns = np.zeros((op.dim, width), dtype=np.intp)
    weights = np.zeros(columns.shape, dtype=dtype)
    columns.reshape(-1)[rows] = cols
    weights.reshape(-1)[rows] = values
    return columns, weights

