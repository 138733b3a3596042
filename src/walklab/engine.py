"""Walk states and the one-step evolution U' = S * C'.

The state is an array indexed (direction, vertex).  Every walk here is
real (real orthogonal coins, permutation shifts, real start states), so
the drivers run float64 states; a complex128 state takes the same code,
and with zero imaginary parts steps to the same bits.  One step costs
O(coin_dim * N) and allocates no state-sized array.  The Grover coin works
in place from one column sum per vertex.

The flip-flop shift S|c, v> = |label(c), target_c(v)> (label c^1 on tori,
the reversed direction; c on the hypercube) is an involution, S^2 = I, so
a state takes it without moving its amplitudes: `apply_shift` marks the
shift owed, and the buffer P then holds psi = S P, psi[c, w] =
P[label(c), target_c(w)].  The next coin acts on P as S C' S, in place and
through two scratch rows, so the state holds C' psi and still owes the
shift; the next `apply_shift` pays it by clearing the mark.  Reading
`WalkState.amps` settles an owed shift first, by the copy the moving and
dirac shifts always make: the moved amplitudes go into a spare buffer that
the state owns, and the state and the spare swap roles (slices with
wrap-around on tori, neighbouring runs per hypercube bit).  The complete
graph's register swap copies nothing either: it holds `amps` as the
transpose of the array it had, so `amps` is C-ordered after an even number
of swaps and F-ordered after an odd number.  The kernels here take either
order without copying the state; only `WalkState.vector` copies a
transposed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import ConfigurationError, Graph

# numpy divides complex by a real as a product with its reciprocal, so
# scaling by reciprocals steps a real state to the same bits as the complex one
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_NORM_TOL = 1e-9


@dataclass(frozen=True)
class CoinConfig:
    """Which vertices are marked; the arena's `GraphSpec.marking` says how
    the coin acts on them."""

    marked: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "marked", tuple(int(v) for v in self.marked))
        if len(set(self.marked)) != len(self.marked):
            raise ConfigurationError("marked vertices must be distinct")

    def validate_for(self, graph: Graph) -> None:
        for v in self.marked:
            if not 0 <= v < graph.n:
                raise ConfigurationError(f"marked vertex {v} out of range")


def default_coin(graph: Graph, marked=()) -> CoinConfig:
    """The coin marking `marked`, checked against the arena."""
    cfg = CoinConfig(marked=tuple(marked))
    cfg.validate_for(graph)
    return cfg


class WalkState:
    """Amplitudes over (direction, vertex) for one arena, in an array of the
    state's own (a copy of the input): float64 for real input, complex128
    for complex input."""

    __slots__ = ("graph", "_amps", "_owed", "_spare", "_rows")

    def __init__(self, graph: Graph, amps: np.ndarray):
        if amps.shape != (graph.coin_dim, graph.n):
            raise ValueError(f"amplitude array must have shape {(graph.coin_dim, graph.n)}")
        self.graph = graph
        dtype = np.complex128 if np.iscomplexobj(amps) else np.float64
        self.amps = np.array(amps, dtype=dtype, order="C")
        self._spare = None
        self._rows = None

    @property
    def amps(self) -> np.ndarray:
        """The amplitudes, after the state pays a shift it owes."""
        if self._owed:
            _settle(self)
        return self._amps

    @amps.setter
    def amps(self, amps: np.ndarray) -> None:
        self._amps = amps
        self._owed = False  # True while _amps holds S psi (see apply_shift)

    @property
    def buffer(self) -> np.ndarray:
        """The amplitude array as it stands: `amps`, or while the state owes
        its shift, the same amplitudes in another order."""
        return self._amps

    def copy(self) -> "WalkState":
        return WalkState(self.graph, self.amps)

    def norm(self) -> float:
        return math.sqrt(squared_norm(self.amps))

    def check_normalized(self) -> None:
        defect = abs(self.norm() - 1.0)
        if defect > _NORM_TOL:
            raise ValueError(f"state norm off by {defect:.3e} (tolerance {_NORM_TOL:.1e})")

    @property
    def vector(self) -> np.ndarray:
        """The amplitudes flat, index c*N + v: a view of a C-ordered state,
        a copy while the state is held transposed."""
        return self.amps.reshape(-1)

    def _spare_buffer(self) -> np.ndarray:
        """C-ordered scratch array shaped like amps, owned by this state alone."""
        if self._spare is None:
            self._spare = np.empty(self._amps.shape, self._amps.dtype)
        return self._spare

    def _scratch_rows(self) -> np.ndarray:
        """Two vertex rows of the state's dtype, owned by this state alone:
        the column sums and one moved row."""
        if self._rows is None:
            self._rows = np.empty((2, self.graph.n), self._amps.dtype)
        return self._rows


def uniform_state(graph: Graph) -> WalkState:
    """The walk's 1-eigenvector: every amplitude 1/sqrt(coin_dim*N)."""
    amp = 1.0 / np.sqrt(graph.coin_dim * graph.n)
    return WalkState(graph, np.broadcast_to(amp, (graph.coin_dim, graph.n)))


def marked_coin_state(graph: Graph, vertex: int) -> WalkState:
    """|s, v>: uniform coin at one vertex."""
    amps = np.zeros((graph.coin_dim, graph.n))
    amps[:, vertex] = 1.0 / np.sqrt(graph.coin_dim)
    return WalkState(graph, amps)


def squared_norm(amps: np.ndarray) -> float:
    """sum |a|^2 of a state array, over the float64 (re, im) view if complex.

    The terms are summed in memory order, which a transposed state gives
    without a copy.  einsum sums in numpy's own loop, so unlike a BLAS dot
    its bits do not depend on the thread count.
    """
    flat = amps.ravel(order="K").view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


# -- coin ----------------------------------------------------------------


def apply_coin(state: WalkState, coin: CoinConfig) -> WalkState:
    """C': the unmarked coin everywhere, the arena's marking at marked vertices."""
    amps = state._amps
    d = state.graph.coin_dim
    spec = state.graph.spec
    marking = spec.marking
    if marking == "projector_flip":
        inv_sqrt_d = 1.0 / np.sqrt(d)
        for v in coin.marked:  # rank-one reflection I - 2|s,v><s,v|
            c = amps[:, v].sum() * inv_sqrt_d
            amps[:, v] -= (2.0 * c) * inv_sqrt_d
        return state
    if state._owed:
        _coin_through_shift(state, coin)
        return state

    marked = list(coin.marked)
    # the moving shift fills the spare every step, and its coin measured
    # faster with the column sums in the spare's first row
    colsum = (state._spare_buffer() if spec.shift == "moving" else state._scratch_rows())[0]
    if np.iscomplexobj(amps):
        # on a transposed state numpy sums along the contiguous axis
        # pairwise, and pairs complex terms unlike float64 ones; summing the
        # float64 views keeps a real state and its complex copy on the same bits
        np.sum(amps.real, axis=0, out=colsum.real)
        np.sum(amps.imag, axis=0, out=colsum.imag)
    else:
        np.sum(amps, axis=0, out=colsum)
    colsum *= 2.0 / d
    if marking == "minus_identity":
        colsum[marked] = 0.0  # 0 - a: the marked blocks come out negated
    np.subtract(colsum, amps, out=amps)
    if marked and marking == "minus_c0":  # negate the Grover result
        amps[:, marked] *= -1.0
    return state


def _coin_through_shift(state: WalkState, coin: CoinConfig) -> None:
    """C' on a state that owes its flip-flop shift: S C' S on the buffer P,
    in place, so that the state owes the shift of C' psi.

    With psi[c, w] = P[label(c), target_c(w)], psi's column sums add row
    label(c) read through direction c's move, in direction order from 0 as
    np.sum adds the rows of a settled state.  Then P[c, v] becomes
    colsum[target_c(v)] - P[c, v]: the Grover update of psi's entry
    (label(c), target_c(v)), which S sends to (c, v).  Every amplitude gets
    the bits the settled state would.
    """
    graph = state.graph
    buf = state._amps
    colsum, moved = state._scratch_rows()
    d = graph.coin_dim
    flip = graph.spec.family == "torus"  # label c^1; the hypercube keeps c
    for c in range(d):
        for part, values in _moved_parts(colsum, buf[c ^ 1 if flip else c], c, graph, moved):
            if c:
                np.add(part, values, out=part)
            else:
                np.add(values, 0.0, out=part)  # np.sum starts from 0: -0.0 + 0 = 0.0
    colsum *= 2.0 / d
    colsum[list(coin.marked)] = 0.0  # every flip-flop arena marks by -I
    for c in range(d):
        for part, values in _moved_parts(buf[c], colsum, c, graph, moved):
            np.subtract(values, part, out=part)


def _moved_parts(dst: np.ndarray, row: np.ndarray, c: int, graph: Graph, scratch: np.ndarray):
    """Pairs (part of dst, row read through direction c's move over that
    part) that cover the row: values[j] = row[target_c(w_j)] for the
    vertices w_j of the part.  A move along the slowest torus axis is a flat
    rotation, read as two views of the row; any other move is copied into
    `scratch` whole."""
    if graph.spec.family == "hypercube":
        _flip_bit(scratch, row, c)
        return ((dst, scratch),)
    axis, sign = c // 2, 1 - 2 * (c % 2)  # axis pairs (axis 0 +, axis 0 -, ...)
    shape = graph.vertex_shape
    np_axis = len(shape) - 1 - axis  # the last axis is the fastest coordinate
    if np_axis == 0:
        n = row.size
        k = sign * (n // shape[0]) % n
        return ((dst[:n - k], row[k:]), (dst[n - k:], row[:k]))
    _roll_into(scratch.reshape(shape), row.reshape(shape), -sign, np_axis)
    return ((dst, scratch),)


# -- shift ---------------------------------------------------------------


def apply_shift(state: WalkState) -> WalkState:
    """S: permute amplitudes along the edges (norm preserved exactly).

    A flip-flop shift is owed, not made: the state's mark flips and no
    amplitude moves (see the module docstring).  The complete graph's swap,
    amps[c, v] -> amps[v, c], sets `amps` to its transpose, a view; a second
    swap gives back the C-ordered array.  The moving and dirac shifts copy
    (`_settle`).
    """
    shift = state.graph.spec.shift
    if shift == "flip_flop":
        state._owed = not state._owed
    elif shift == "swap":
        state._amps = state._amps.T
    else:
        _settle(state)
    return state


def _settle(state: WalkState) -> None:
    """Make the shift by copying: the moved amplitudes go into the state's
    spare buffer, which then becomes the state, and the old amplitude array
    becomes the spare.  This is the moving and dirac shifts, and a flip-flop
    state's way to pay a shift it owes."""
    graph = state.graph
    spec = graph.spec
    src, dst = state._amps, state._spare_buffer()
    if spec.family == "hypercube":
        for i in range(graph.coin_dim):
            _flip_bit(dst[i], src[i], i)
    else:
        # grid views (coin, *vertex axes); the last axis is the fastest coordinate
        shape = (graph.coin_dim, *graph.vertex_shape)
        if spec.shift == "dirac":
            _dirac_shift(dst.reshape(shape), src.reshape(shape))
        else:
            _torus_shift(dst.reshape(shape), src.reshape(shape), spec)
    state.amps, state._spare = dst, src


def _flip_bit(dst: np.ndarray, src: np.ndarray, i: int) -> None:
    """dst[v] = src[v ^ 2^i] on one hypercube direction's row.

    The row is a sequence of runs of 2^i amplitudes, and the flip swaps
    neighbouring runs.  A reversed-axis copy of the (2^(d-1-i), 2, 2^i)
    view moves only 2^i amplitudes per inner loop, so short runs move
    otherwise: a 32-byte run (bit 2 of a float64 row, bit 1 of a complex
    one) as one void element, two strided assignments over the whole row;
    runs of one or two float64 words word by word, as strided int64
    assignments.  Each is a raw byte move, so every route gives the same
    bits.
    """
    if src.itemsize << i == 32:
        src_w, dst_w = src.view("V32"), dst.view("V32")
        dst_w[0::2] = src_w[1::2]
        dst_w[1::2] = src_w[0::2]
    elif i <= 1 and src.dtype == np.float64:
        k = 1 << i
        src_w, dst_w = src.view(np.int64), dst.view(np.int64)
        for j in range(k):
            dst_w[j::2 * k] = src_w[k + j::2 * k]
            dst_w[k + j::2 * k] = src_w[j::2 * k]
    else:
        view = (-1, 2, 1 << i)
        np.copyto(dst.reshape(view), src.reshape(view)[:, ::-1])


def _roll_pairs(shape, shift: int, axis: int):
    """(dst, src) index pairs that move every entry `shift` places along
    `axis` with wrap-around, as np.roll does."""
    n = shape[axis]
    k = shift % n
    lead = (slice(None),) * axis
    return ((lead + (slice(k, n),), lead + (slice(0, n - k),)),
            (lead + (slice(0, k),), lead + (slice(n - k, n),)))


def _roll_into(dst: np.ndarray, src: np.ndarray, shift: int, axis: int) -> None:
    for d, s in _roll_pairs(src.shape, shift, axis):
        dst[d] = src[s]


def _torus_shift(dst: np.ndarray, src: np.ndarray, spec) -> None:
    ndim = len(spec.dims)
    flip = spec.shift == "flip_flop"
    for axis in range(ndim):
        np_axis = ndim - 1 - axis  # vertex axes of src[c]
        plus, minus = 2 * axis, 2 * axis + 1
        _roll_into(dst[minus if flip else plus], src[plus], 1, np_axis)
        _roll_into(dst[plus if flip else minus], src[minus], -1, np_axis)


def _dirac_shift(dst: np.ndarray, src: np.ndarray) -> None:
    # half-move 1 moves the coin basis along y, from src into dst; half-move
    # 2 moves the Hadamard basis along x, through src, back into dst.  Axes
    # of the grid views: (coin, y, x).
    _roll_into(dst[0], src[0], -1, 0)  # up: y -> y-1
    _roll_into(dst[1], src[1], 1, 0)
    for d, s in _roll_pairs(dst.shape[1:], -1, 1):  # left: x -> x-1
        np.add(dst[0][s], dst[1][s], out=src[0][d])
    for d, s in _roll_pairs(dst.shape[1:], 1, 1):  # right
        np.subtract(dst[0][s], dst[1][s], out=src[1][d])
    src *= _INV_SQRT2
    np.add(src[0], src[1], out=dst[0])
    np.subtract(src[0], src[1], out=dst[1])
    dst *= _INV_SQRT2


# -- steps ---------------------------------------------------------------


def step(state: WalkState, coin: CoinConfig) -> WalkState:
    """One walk step U' = S * C'."""
    return apply_shift(apply_coin(state, coin))


def reflect_about(state: WalkState, axis: WalkState) -> WalkState:
    """state -> 2 <axis|state> axis - state, for a unit `axis`.

    The overlap pairs the entries by (direction, vertex) whatever the memory
    order of either state.  einsum takes it in numpy's own loop, so its bits
    do not depend on the BLAS thread count.  Each row of (2 overlap) axis
    is formed in the state's first scratch row, so no state-sized
    temporary is made.
    """
    amps, row = state.amps, state._scratch_rows()[0]
    scale = 2.0 * np.einsum("ij,ij->", axis.amps.conj(), amps)
    for axis_row, state_row in zip(axis.amps, amps):
        np.subtract(np.multiply(scale, axis_row, out=row), state_row, out=state_row)
    return state


def flip_marked_vertices(state: WalkState, marked) -> WalkState:
    """Membership oracle I - 2 Pi_v: negate all amplitudes at marked vertices."""
    state.amps[:, list(marked)] *= -1.0
    return state


# -- measurement -----------------------------------------------------------


def vertex_probabilities(state: WalkState, vertices=None, owed_at=None) -> np.ndarray:
    """p(v) summed over the coin register, for every vertex or for `vertices`.

    A state that owes its shift is read through it at `vertices`, without
    settling: at `owed_at`, which `owed_index(graph, vertices)` gives and a
    caller reading the same vertices every step computes once.
    """
    if vertices is not None and state._owed:
        a = state._amps[owed_index(state.graph, vertices) if owed_at is None else owed_at]
    else:
        a = state.amps
        if vertices is not None:
            a = a[:, vertices]  # take would copy a transposed state whole first
    squares = a.real * a.real
    if np.iscomplexobj(a):
        squares += a.imag * a.imag
    # accumulate adds the coin rows in order for any number of columns;
    # sum(axis=0) would add a single column pairwise, in other bits
    return np.add.accumulate(squares, axis=0)[-1]


def owed_index(graph: Graph, vertices) -> tuple[np.ndarray, np.ndarray]:
    """The index into the buffer of a state that owes its flip-flop shift
    that reads amps[:, vertices]: direction c's entry at w sits at
    (label(c), target_c(w))."""
    labels = np.arange(graph.coin_dim)
    if graph.spec.family == "torus":
        labels ^= 1
    return labels[:, None], graph.shift_targets(vertices)


def closed_neighborhood(graph: Graph, vertices) -> np.ndarray:
    """Sorted union of `vertices` and all their neighbors."""
    out = set()
    for v in vertices:
        out.add(int(v))
        out.update(graph.neighbors(int(v)).tolist())  # np.unique would import numpy.ma
    return np.array(sorted(out), dtype=np.int64)
