"""Walk states and the one-step evolution U' = S * C'.

The state is a complex128 array indexed (direction, vertex).  One step
costs O(coin_dim * N) and allocates no state-sized array.  The Grover coin
works in place from one column sum per vertex.  The shift copies the moved
amplitudes into a spare buffer that each state owns: slices with
wrap-around on tori, halves per hypercube bit, a blocked transpose for the
complete graph's register swap.  The state and the spare then swap roles.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .graphs import ConfigurationError, Graph

# numpy divides complex by real sqrt(2) as a product with this reciprocal:
# multiplying gives the same bits without the cost of complex division
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_MAGIC = b"WLKSTAT1"


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
    """Complex amplitudes over (direction, vertex) for one arena."""

    __slots__ = ("graph", "amps", "_spare")

    def __init__(self, graph: Graph, amps: np.ndarray):
        if amps.shape != (graph.coin_dim, graph.n):
            raise ValueError(f"amplitude array must have shape {(graph.coin_dim, graph.n)}")
        self.graph = graph
        self.amps = np.ascontiguousarray(amps, dtype=np.complex128)
        self._spare = None

    def copy(self) -> "WalkState":
        return WalkState(self.graph, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def check_normalized(self, tol: float = 1e-9) -> None:
        defect = abs(self.norm() - 1.0)
        if defect > tol:
            raise ValueError(f"state norm off by {defect:.3e} (tolerance {tol:.1e})")

    @property
    def vector(self) -> np.ndarray:
        """Flat view, index c*N + v."""
        return self.amps.reshape(-1)

    def _spare_buffer(self) -> np.ndarray:
        """Scratch array shaped like amps, owned by this state alone."""
        if self._spare is None:
            self._spare = np.empty_like(self.amps)
        return self._spare


def uniform_state(graph: Graph) -> WalkState:
    """The walk's 1-eigenvector: every amplitude 1/sqrt(coin_dim*N)."""
    amp = 1.0 / np.sqrt(graph.coin_dim * graph.n)
    return WalkState(graph, np.full((graph.coin_dim, graph.n), amp, dtype=np.complex128))


def marked_coin_state(graph: Graph, vertex: int) -> WalkState:
    """|s, v>: uniform coin at one vertex."""
    amps = np.zeros((graph.coin_dim, graph.n), dtype=np.complex128)
    amps[:, vertex] = 1.0 / np.sqrt(graph.coin_dim)
    return WalkState(graph, amps)


def overlap(a: WalkState, b: WalkState) -> complex:
    """<a|b>."""
    return complex(np.vdot(a.amps, b.amps))


# -- coin ----------------------------------------------------------------


def apply_coin(state: WalkState, coin: CoinConfig) -> WalkState:
    """C': the unmarked coin everywhere, the arena's marking at marked vertices."""
    amps = state.amps
    d = state.graph.coin_dim
    marking = state.graph.spec.marking
    if marking == "projector_flip":
        for v in coin.marked:  # rank-one reflection I - 2|s,v><s,v|
            c = amps[:, v].sum() / np.sqrt(d)
            amps[:, v] -= (2.0 * c) / np.sqrt(d)
        return state

    marked = list(coin.marked)
    colsum = np.sum(amps, axis=0, out=state._spare_buffer()[0])
    colsum *= 2.0 / d
    if marking == "minus_identity":
        colsum[marked] = 0.0  # 0 - a: the marked blocks come out negated
    np.subtract(colsum, amps, out=amps)
    if marked and marking == "minus_c0":  # negate the Grover result
        amps[:, marked] *= -1.0
    return state


# -- shift ---------------------------------------------------------------


def apply_shift(state: WalkState, inverse: bool = False) -> WalkState:
    """S: permute amplitudes along the edges (norm preserved exactly).

    The moved amplitudes are written into the state's spare buffer, which
    then becomes the state; the old amplitude array becomes the spare.
    """
    graph = state.graph
    spec = graph.spec
    src, dst = state.amps, state._spare_buffer()
    if spec.shift == "swap":
        # blocks of 32 rows keep the strided writes within few cache lines
        for i in range(0, graph.n, 32):
            dst[:, i:i + 32] = src[i:i + 32].T
    elif spec.family == "hypercube":
        # direction i flips vertex bit i: the middle axis of a (2^(d-1-i), 2, 2^i) view
        for i in range(graph.coin_dim):
            view = (-1, 2, 1 << i)
            np.copyto(dst[i].reshape(view), src[i].reshape(view)[:, ::-1])
    else:
        # grid views (coin, *vertex axes); the last axis is the fastest coordinate
        shape = (graph.coin_dim,) + tuple(reversed(graph.vertex_shape))
        if spec.shift == "dirac":
            _dirac_shift(dst.reshape(shape), src.reshape(shape), inverse)
        else:
            _torus_shift(dst.reshape(shape), src.reshape(shape), spec, inverse)
    state.amps, state._spare = dst, src
    return state


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


def _torus_shift(dst: np.ndarray, src: np.ndarray, spec, inverse: bool) -> None:
    ndim = len(spec.dims)
    flip = spec.shift == "flip_flop"
    # the flip-flop shift is an involution, so its inverse is itself
    sign = -1 if inverse and not flip else 1
    for axis in range(ndim):
        np_axis = ndim - 1 - axis  # vertex axes of src[c]
        plus, minus = 2 * axis, 2 * axis + 1
        _roll_into(dst[minus if flip else plus], src[plus], sign, np_axis)
        _roll_into(dst[plus if flip else minus], src[minus], -sign, np_axis)


def _dirac_shift(dst: np.ndarray, src: np.ndarray, inverse: bool) -> None:
    # half-move 1: coin basis moves along y; half-move 2: Hadamard basis
    # moves along x.  Axes of the grid views: (coin, y, x).  Either order
    # leaves the result in dst.
    sign = -1 if inverse else 1

    def move_y(a, b):  # a -> b
        _roll_into(b[0], a[0], -sign, 0)  # up: y -> y-1
        _roll_into(b[1], a[1], sign, 0)

    def move_x(a, b):  # a -> a, through b
        for d, s in _roll_pairs(a.shape[1:], -sign, 1):  # left: x -> x-1
            np.add(a[0][s], a[1][s], out=b[0][d])
        for d, s in _roll_pairs(a.shape[1:], sign, 1):  # right
            np.subtract(a[0][s], a[1][s], out=b[1][d])
        b *= _INV_SQRT2
        np.add(b[0], b[1], out=a[0])
        np.subtract(b[0], b[1], out=a[1])
        a *= _INV_SQRT2

    if inverse:
        move_x(src, dst)
        move_y(src, dst)
    else:
        move_y(src, dst)
        move_x(dst, src)


# -- steps ---------------------------------------------------------------


def step(state: WalkState, coin: CoinConfig) -> WalkState:
    """One walk step U' = S * C'."""
    return apply_shift(apply_coin(state, coin))


def unstep(state: WalkState, coin: CoinConfig) -> WalkState:
    """Inverse step C'^-1 * S^-1; every coin here is an involution."""
    apply_shift(state, inverse=True)
    return apply_coin(state, coin)


def reflect_about_uniform(state: WalkState) -> WalkState:
    """state -> 2 <Phi0|state> |Phi0> - state."""
    amps = state.amps
    d_n = amps.size
    mean = amps.sum() / d_n  # <Phi0|state> / sqrt(dN)
    np.subtract(2.0 * mean, amps, out=amps)
    return state


def flip_marked_vertices(state: WalkState, marked) -> WalkState:
    """Membership oracle I - 2 Pi_v: negate all amplitudes at marked vertices."""
    state.amps[:, list(marked)] *= -1.0
    return state


# -- measurement -----------------------------------------------------------


def vertex_probabilities(state: WalkState, vertices=None) -> np.ndarray:
    """p(v) summed over the coin register, for every vertex or for `vertices`."""
    a = state.amps if vertices is None else state.amps.take(vertices, axis=1)
    # accumulate adds the coin rows in order for any number of columns;
    # sum(axis=0) would add a single column pairwise, in other bits
    return np.add.accumulate(a.real * a.real + a.imag * a.imag, axis=0)[-1]


def closed_neighborhood(graph: Graph, vertices) -> np.ndarray:
    """Sorted union of `vertices` and all their neighbors."""
    vs = [int(v) for v in vertices]
    return np.unique(np.concatenate([np.array(vs, dtype=np.int64)]
                                    + [graph.neighbors(v) for v in vs]))


def neighborhood_probability(state: WalkState, vertices) -> float:
    """Combined probability of the union of {v} and its neighbors over vertices."""
    support = closed_neighborhood(state.graph, vertices)
    return float(vertex_probabilities(state, support).sum())


# -- serialization ---------------------------------------------------------


def save_state(state: WalkState, path) -> None:
    """Raw little-endian dump: 16-byte header (magic, coin_dim, N) + re/im pairs."""
    header = _MAGIC + struct.pack("<II", state.graph.coin_dim, state.graph.n)
    data = np.empty((state.amps.size, 2), dtype="<f8")
    flat = state.vector
    data[:, 0] = flat.real
    data[:, 1] = flat.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_state(graph: Graph, path) -> WalkState:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:8] != _MAGIC:
            raise ValueError("not a walklab state file")
        coin_dim, n = struct.unpack("<II", header[8:])
        if (coin_dim, n) != (graph.coin_dim, graph.n):
            raise ValueError(
                f"state file is for coin_dim={coin_dim}, N={n}; "
                f"graph has coin_dim={graph.coin_dim}, N={graph.n}"
            )
        payload = fh.read()
    expected = 16 * coin_dim * n
    if len(payload) != expected:
        raise ValueError(
            f"state file payload is {len(payload)} bytes; a coin_dim={coin_dim}, "
            f"N={n} state needs {expected}"
        )
    raw = np.frombuffer(payload, dtype="<f8").reshape(-1, 2)
    amps = (raw[:, 0] + 1j * raw[:, 1]).reshape(coin_dim, n)
    return WalkState(graph, amps)
