"""Walk states and the one-step evolution U' = S * C'.

The state is an array indexed (direction, vertex).  Every walk here is
real (real orthogonal coins, permutation shifts, real start states), so
the drivers run float64 states; a complex128 state takes the same code,
and with zero imaginary parts steps to the same bits.  One step costs
O(coin_dim * N) and allocates no state-sized array.  The Grover coin works
in place from one column sum per vertex.  The shift copies the moved
amplitudes into a spare buffer that each state owns, and the state and the
spare then swap roles: slices with wrap-around on tori, neighbouring runs
per hypercube bit.  The complete graph's register swap copies nothing: it
holds `amps` as the transpose of the array it had, so `amps` is C-ordered
after an even number of swaps and F-ordered after an odd number.  The
kernels here take either order without copying the state; only
`WalkState.vector` copies a transposed one.
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
    """Amplitudes over (direction, vertex) for one arena: float64 for real
    input, complex128 for complex input."""

    __slots__ = ("graph", "amps", "_spare")

    def __init__(self, graph: Graph, amps: np.ndarray):
        if amps.shape != (graph.coin_dim, graph.n):
            raise ValueError(f"amplitude array must have shape {(graph.coin_dim, graph.n)}")
        self.graph = graph
        dtype = np.complex128 if np.iscomplexobj(amps) else np.float64
        self.amps = np.ascontiguousarray(amps, dtype=dtype)
        self._spare = None

    def copy(self) -> "WalkState":
        return WalkState(self.graph, self.amps.copy())

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
            self._spare = np.empty(self.amps.shape, self.amps.dtype)
        return self._spare


def uniform_state(graph: Graph) -> WalkState:
    """The walk's 1-eigenvector: every amplitude 1/sqrt(coin_dim*N)."""
    amp = 1.0 / np.sqrt(graph.coin_dim * graph.n)
    return WalkState(graph, np.full((graph.coin_dim, graph.n), amp))


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
    amps = state.amps
    d = state.graph.coin_dim
    marking = state.graph.spec.marking
    if marking == "projector_flip":
        inv_sqrt_d = 1.0 / np.sqrt(d)
        for v in coin.marked:  # rank-one reflection I - 2|s,v><s,v|
            c = amps[:, v].sum() * inv_sqrt_d
            amps[:, v] -= (2.0 * c) * inv_sqrt_d
        return state

    marked = list(coin.marked)
    colsum = state._spare_buffer()[0]
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


# -- shift ---------------------------------------------------------------


def apply_shift(state: WalkState) -> WalkState:
    """S: permute amplitudes along the edges (norm preserved exactly).

    The complete graph's swap, amps[c, v] -> amps[v, c], sets `amps` to its
    transpose, a view; a second swap gives back the C-ordered array.  Every
    other shift writes the moved amplitudes into the state's spare buffer,
    which then becomes the state; the old amplitude array becomes the spare.
    """
    graph = state.graph
    spec = graph.spec
    if spec.shift == "swap":
        state.amps = state.amps.T
        return state
    src, dst = state.amps, state._spare_buffer()
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
    return state


def _flip_bit(dst: np.ndarray, src: np.ndarray, i: int) -> None:
    """dst[v] = src[v ^ 2^i] on one hypercube direction's row.

    The row is a sequence of runs of 2^i amplitudes, and the flip swaps
    neighbouring runs.  A reversed-axis copy of the (2^(d-1-i), 2, 2^i)
    view moves only 2^i amplitudes per inner loop.  On a float64 row, bits
    0 and 1 (runs of one or two 8-byte words) move word by word instead:
    two strided int64 assignments per word, whose inner loops span the
    whole row.  A complex row keeps the copy, which measured faster than
    word moves for its 16- and 32-byte runs.
    """
    if i <= 1 and src.dtype == np.float64:
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
    do not depend on the BLAS thread count.
    """
    overlap = np.einsum("ij,ij->", axis.amps.conj(), state.amps)
    np.subtract((2.0 * overlap) * axis.amps, state.amps, out=state.amps)
    return state


def flip_marked_vertices(state: WalkState, marked) -> WalkState:
    """Membership oracle I - 2 Pi_v: negate all amplitudes at marked vertices."""
    state.amps[:, list(marked)] *= -1.0
    return state


# -- measurement -----------------------------------------------------------


def vertex_probabilities(state: WalkState, vertices=None) -> np.ndarray:
    """p(v) summed over the coin register, for every vertex or for `vertices`."""
    a = state.amps
    if vertices is not None:
        a = a[:, vertices]  # take would copy a transposed state whole first
    squares = a.real * a.real
    if np.iscomplexobj(a):
        squares += a.imag * a.imag
    # accumulate adds the coin rows in order for any number of columns;
    # sum(axis=0) would add a single column pairwise, in other bits
    return np.add.accumulate(squares, axis=0)[-1]


def closed_neighborhood(graph: Graph, vertices) -> np.ndarray:
    """Sorted union of `vertices` and all their neighbors."""
    vs = [int(v) for v in vertices]
    return np.unique(np.concatenate([np.array(vs, dtype=np.int64)]
                                    + [graph.neighbors(v) for v in vs]))
