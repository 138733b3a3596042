"""Walk states and the one-step evolution U' = S * C'.

A state is one amplitude array indexed (direction, vertex) plus a few
vertex rows of scratch that it owns; every step runs inside that array.
Every walk here is real (real orthogonal coins, permutation shifts, real
start states), so the drivers run float64 states; a complex128 state takes
the same code, and with zero imaginary parts steps to the same bits.  One
step costs O(coin_dim * N) and allocates no state-sized array.  The Grover
coin works in place from one column sum per vertex.

The flip-flop shift S|c, v> = |label(c), target_c(v)> (on tori the
label is the reversed direction, the move that undoes c's as
`Graph.reverse_moves` says; c on the hypercube; see
`Graph.shift_labels`) is an involution, S^2 = I, so a state takes it
without moving its amplitudes: `apply_shift` marks the shift owed, and
the array P then holds psi = S P, psi[c, w] = P[label(c), target_c(w)].
The next coin acts on P as S C' S, in place and through one scratch row
for the column sums, so the state holds C' psi and still owes the shift;
the next `apply_shift` pays it by clearing the mark.  Only this module
knows whether a state owes its shift: reading `WalkState.amps` pays it
first, in place, while `vertex_probabilities` reads an owing state
through the shift and `squared_norm` sums the array in whatever order it
stands.

Every permutation shift that moves amplitudes, the moving shift each
step and a flip-flop shift when it is paid, is paid by `_pay_shift`:
row label(c) becomes row c read through the move that undoes c's
(`Graph.reverse_moves`), one row permutation (`_move_rows`) in which a
row pair trades places through a scratch row.  `_through` reads a row
through a move: a hypercube row through a strided view with its bit
flipped (`_runs`), so the owed coin copies nothing, and a torus row by
its plan (`_build_plans`), built from `Graph.shift_targets` at the first
step and held by the state.  Away from the faces a torus move is a flat
offset, target(v) = v + k, so one ufunc over two contiguous views does
most of the row; the few vertices where it wraps are read through two
small index arrays, written after the flat op from values taken before
it.  The dirac shift reads both rows through its two composed half-moves
into two scratch rows as the unscaled Hadamard butterfly, halves them
(both Hadamards' 1/sqrt(2) at once, exactly), and writes the state from
them by the unscaled butterfly back; with its marking, the negated swap
of each marked column, the dirac walk steps in exact constants.  The
complete graph's register swap copies nothing either: it holds `amps`
as the transpose of the array it had, so `amps` is C-ordered after an
even number of swaps and F-ordered after an odd number.  The kernels
here take either order without copying the state; only
`WalkState.vector` copies a transposed one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import Graph


def default_coin(graph: Graph, marked=()) -> tuple[int, ...]:
    """The marked set `marked`, checked against the arena (`Graph.marked_set`);
    the arena's `GraphSpec.marking` says how the coin acts on it."""
    return graph.marked_set(marked)


class WalkState:
    """Amplitudes over (direction, vertex) for one arena, in an array of the
    state's own (a copy of the input): float64 for real input, complex128
    for complex input."""

    __slots__ = ("graph", "_amps", "_owed", "_rows", "_plans", "_index", "_row_map")

    def __init__(self, graph: Graph, amps: np.ndarray):
        if amps.shape != (graph.coin_dim, graph.n):
            raise ValueError(f"amplitude array must have shape {(graph.coin_dim, graph.n)}")
        self.graph = graph
        dtype = np.complex128 if np.iscomplexobj(amps) else np.float64
        self.amps = np.array(amps, dtype=dtype, order="C")
        self._rows = None
        self._plans = None
        self._index = None
        self._row_map = None

    @property
    def amps(self) -> np.ndarray:
        """The amplitudes, after the state pays a shift it owes."""
        if self._owed:
            _pay_shift(self)
        return self._amps

    @amps.setter
    def amps(self, amps: np.ndarray) -> None:
        self._amps = amps
        self._owed = False  # True while _amps holds S psi (see apply_shift)

    def copy(self) -> "WalkState":
        return WalkState(self.graph, self.amps)

    @property
    def vector(self) -> np.ndarray:
        """The amplitudes flat, index c*N + v: a view of a C-ordered state,
        a copy while the state is held transposed."""
        return self.amps.reshape(-1)

    def _scratch_rows(self) -> np.ndarray:
        """Vertex rows of the state's dtype, owned by this state alone: the
        column sums or a moved row, and on dirac a second row (the
        butterfly's other half)."""
        if self._rows is None:
            count = 2 if self.graph.spec.shift == "dirac" else 1
            self._rows = np.empty((count, self.graph.n), self._amps.dtype)
        return self._rows

    def _move_plans(self) -> tuple:
        """The torus's move plans (`_build_plans`), built at first use and
        held, like the scratch rows, for the state's life."""
        if self._plans is None:
            self._plans = _build_plans(self.graph)
        return self._plans

    def _shift_map(self) -> tuple[list[int], list[int]]:
        """Per row r, the row that a paid shift reads into r and the move it
        reads through (`_pay_shift`), read off the graph at first use and
        held, so a step makes no graph call."""
        if self._row_map is None:
            labels = self.graph.shift_labels().ravel().tolist()
            reverse = self.graph.reverse_moves().tolist()
            self._row_map = labels, [reverse[c] for c in labels]
        return self._row_map


def uniform_state(graph: Graph) -> WalkState:
    """The walk's 1-eigenvector: every amplitude 1/sqrt(coin_dim*N)."""
    amp = 1.0 / np.sqrt(graph.coin_dim * graph.n)
    return WalkState(graph, np.broadcast_to(amp, (graph.coin_dim, graph.n)))


def squared_norm(state: WalkState) -> float:
    """sum |a|^2 of a state, over the float64 (re, im) view if complex.

    The terms are summed in the memory order of the state's array as it
    stands, which a transposed state gives without a copy; a state that
    owes its shift holds the same amplitudes in another order, so only the
    last bits can differ from the paid state's.  einsum sums in numpy's own
    loop, so unlike a BLAS dot its bits do not depend on the thread count.
    """
    flat = state._amps.ravel(order="K").view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


# -- coin ----------------------------------------------------------------


def apply_coin(state: WalkState, marked: tuple[int, ...]) -> WalkState:
    """C': the unmarked coin everywhere, the arena's marking at `marked`."""
    amps = state._amps
    d = state.graph.coin_dim
    marking = state.graph.spec.marking
    marked = list(marked)
    if marking == "projector_flip":  # I - 2|s,v><s,v| on two directions is -X
        amps[:, marked] = -amps[::-1, marked]
        return state
    if state._owed:
        _coin_through_shift(state, marked)
        return state

    colsum = state._scratch_rows()[0]
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


def _coin_through_shift(state: WalkState, marked: list[int]) -> None:
    """C' on a state that owes its flip-flop shift: S C' S on the array P,
    in place, so that the state owes the shift of C' psi.

    With psi[c, w] = P[label(c), target_c(w)], psi's column sums add row
    label(c) read through direction c's move, in direction order from 0 as
    np.sum adds the rows of a settled state.  Then P[c, v] becomes
    colsum[target_c(v)] - P[c, v]: the Grover update of psi's entry
    (label(c), target_c(v)), which S sends to (c, v).  Every amplitude gets
    the bits the settled state would.
    """
    buf = state._amps
    colsum = state._scratch_rows()[0]
    d = state.graph.coin_dim
    labels = state._shift_map()[0]
    for c in range(d):
        # np.sum starts from 0: -0.0 + 0 = 0.0
        _through(state, np.add, colsum, c, buf[labels[c]], colsum if c else 0.0)
    colsum *= 2.0 / d
    colsum[marked] = 0.0  # every flip-flop arena marks by -I
    for c in range(d):
        _through(state, np.subtract, buf[c], c, colsum, buf[c])


def _through(state: WalkState, ufunc, out: np.ndarray, c: int, row: np.ndarray,
             other=None) -> None:
    """out[v] = ufunc(row[target_c(v)], other[v]) over a whole row, `other` a
    row (`out` itself, for an update in place) or a scalar, and with no
    ufunc out[v] = row[target_c(v)]: through the direction's move plan on a
    torus, through a view of `row` with bit c flipped on the hypercube
    (`_runs`), walked in the views' index order."""
    if state.graph.spec.family != "hypercube":
        _apply(state._move_plans()[c], ufunc, out, (row,), other)
    elif ufunc is None:
        np.copyto(_runs(out, c), _runs(row, c)[:, ::-1])
    else:
        ufunc(_runs(row, c)[:, ::-1], _runs(other, c), out=_runs(out, c), order="C")


def _runs(row, c: int):
    """A hypercube row as its (2^(d-1-c), 2, 2^c) runs of 2^c amplitudes,
    so that flipping axis 1 flips bit c, a scalar as itself.  Runs of at
    most 32 bytes (four float64 amplitudes, two complex128) are transposed,
    the long axis last, so that a ufunc told order="C" moves along the row,
    not along the short runs."""
    if not isinstance(row, np.ndarray):
        return row
    runs = row.reshape(-1, 2, 1 << c)
    return runs.T if row.itemsize << c <= 32 else runs


# -- move plans ----------------------------------------------------------


class _Plan(NamedTuple):
    """Rows read through translations t_j of a torus, each a rotation of the
    flat row, t_j(v) = (v + k_j) mod N, away from the faces: each part
    (span, reads) is one flat op over `span` that reads row j over
    `reads[j]`, a contiguous view, and the other vertices, `wrap`, read
    row j at `ends[j]`."""

    parts: tuple[tuple[slice, tuple[slice, ...]], ...]
    wrap: np.ndarray  # the vertices where some move is no rotation, or in no part
    ends: np.ndarray  # (move, wrap vertex): t_j at `wrap`


def _apply(plan: _Plan, ufunc, out: np.ndarray, rows, other=None) -> None:
    """out[v] = ufunc(rows[0][t_0(v)], rows[1][t_1(v)], ..., other[v]) over a
    whole row; `other` is an unmoved row (`out` itself, for an update in
    place), a scalar or absent, and with no ufunc out[v] = rows[0][t_0(v)].

    The flat ops write `out` and so may write `other`: `other` is read at
    the wrap vertices before them, and the wrap entries are written after
    them over what they left there, so every entry gets the bits of one
    elementwise op.
    """
    in_place = isinstance(other, np.ndarray)
    if in_place and plan.wrap.size:
        kept = other[plan.wrap]
    for span, reads in plan.parts:
        flat = [row[s] for row, s in zip(rows, reads)]
        if ufunc is None:
            out[span] = flat[0]
            continue
        if other is not None:
            flat.append(other[span] if in_place else other)
        ufunc(*flat, out=out[span])
    if plan.wrap.size:
        edge = [row[t] for row, t in zip(rows, plan.ends)]
        if other is not None:
            edge.append(kept if in_place else other)
        out[plan.wrap] = edge[0] if ufunc is None else ufunc(*edge)


def _build_plans(graph: Graph) -> tuple[_Plan, ...]:
    """A torus's move plans, from `Graph.shift_targets` at an interior probe
    vertex (every coordinate 1; on sides of 3 and more no move wraps there)
    and at the face vertices, the only ones whose moves can wrap.  The faces
    are read a face's worth (N / side vertices, and at least 256, so that a
    small arena takes one call) at a time, so the target tables stay a
    fraction ndim / side of the state.

    A move's flat rotation is right also where it wraps along the slowest
    axis, so only the faces of the faster axes are left to `wrap`: none
    for a move along the slowest axis.  A part that holds only wrap
    vertices (the one vertex past the row's end of a move by +-1) is
    dropped.
    """
    n = graph.n
    probe = graph.vertex_index((1,) * len(graph.spec.dims))
    offsets = [(ends[:, 0] - probe) % n for ends in _move_images(graph, [probe])]
    faces = graph.face_vertices()
    chunk = max(n // graph.spec.dims[0], 256)
    pieces = [[] for _ in offsets]  # per plan, (wrap vertices, their ends) per chunk
    for lo in range(0, faces.size, chunk):
        vertices = faces[lo:lo + chunk]
        for found, k, ends in zip(pieces, offsets, _move_images(graph, vertices)):
            wraps = (ends != (vertices + k[:, None]) % n).any(axis=0)
            found.append((vertices[wraps], ends[:, wraps]))
    plans = []
    for found, k in zip(pieces, offsets):
        wrap = np.concatenate([w for w, _ in found])
        k = k.tolist()
        cuts = sorted({0, n} | {n - x for x in k if x})
        spans = [(lo, hi) for lo, hi in zip(cuts, cuts[1:])
                 if np.searchsorted(wrap, hi) - np.searchsorted(wrap, lo) < hi - lo]
        parts = tuple((slice(lo, hi), tuple(slice((lo + x) % n, (lo + x) % n + hi - lo) for x in k))
                      for lo, hi in spans)
        plans.append(_Plan(parts, wrap, np.concatenate([e for _, e in found], axis=1)))
    return tuple(plans)


def _move_images(graph: Graph, vertices) -> list[np.ndarray]:
    """Per plan, where its moves take `vertices`: one row per move.

    Flip-flop and moving tori have one plan per direction c, reading
    through target_c.  Dirac has one plan per second half-move: role r's
    amplitude at v arrives from target_r'(v), r' the role whose move undoes
    r's (`Graph.reverse_moves`: 3 for role 2, 2 for role 3), and each of
    those reads row c of the state where the first half-move brings it
    from, target_c'(v) (1 for row 0, 0 for row 1); so the two plans read
    (row 0, row 1) through (target_1 target_3, target_0 target_3) and
    through (target_1 target_2, target_0 target_2).
    """
    targets = graph.shift_targets(vertices)
    if graph.spec.shift == "dirac":
        reverse = graph.reverse_moves()
        return [graph.shift_targets(targets[reverse[role]])[reverse[:2]] for role in (2, 3)]
    return [targets[c:c + 1] for c in range(graph.coin_dim)]


# -- shift ---------------------------------------------------------------


def apply_shift(state: WalkState) -> WalkState:
    """S: permute amplitudes along the edges (norm preserved exactly).

    A flip-flop shift is owed, not made: the state's mark flips and no
    amplitude moves (see the module docstring).  The complete graph's swap,
    amps[c, v] -> amps[v, c], sets `amps` to its transpose, a view; a second
    swap gives back the C-ordered array.  The moving shift is paid at
    once (`_pay_shift`), and it and the dirac shift move the amplitudes
    through the state's scratch rows.
    """
    shift = state.graph.spec.shift
    if shift == "flip_flop":
        state._owed = not state._owed
    elif shift == "swap":
        state._amps = state._amps.T
    elif shift == "moving":
        _pay_shift(state)
    else:
        _dirac_step(state)
    return state


def _pay_shift(state: WalkState) -> None:
    """Pay the moving shift, or the flip-flop shift a state owes, in place,
    and clear the owed mark: row label(c) becomes row c read through the
    move that undoes c's, by the row map the state holds (`_shift_map`).
    A moving row so arrives from its reverse direction's side, and a
    flip-flop row c is row label(c) read through move c."""
    _move_rows(state, *state._shift_map())
    state._owed = False


def _move_rows(state: WalkState, sources, moves) -> None:
    """Row c becomes row sources[c] read through move moves[c] (`_through`),
    in place, for `sources` that pair rows or keep them: a row pair trades
    places through the first scratch row, and a row that is its own source
    is copied into that row and read back."""
    buf, row = state._amps, state._scratch_rows()[0]
    for c, source in enumerate(sources):
        if source < c:
            continue  # moved with its pair
        np.copyto(row, buf[c])
        if source != c:
            _through(state, None, buf[c], moves[c], buf[source])
        _through(state, None, buf[source], moves[source], row)


def _dirac_step(state: WalkState) -> None:
    """The dirac shift: the y half-move in the coin basis, then the x
    half-move in the Hadamard basis.  The first is folded into the second's
    reads (see `_build_plans`), whose unscaled butterflies go into the two
    scratch rows; the rows take both Hadamards' 1/sqrt(2), an exact 1/2,
    and the unscaled butterfly back to the coin basis writes the state."""
    amps, rows = state._amps, state._scratch_rows()
    left, right = state._move_plans()
    _apply(left, np.add, rows[0], (amps[0], amps[1]))
    _apply(right, np.subtract, rows[1], (amps[0], amps[1]))
    rows *= 0.5
    np.add(rows[0], rows[1], out=amps[0])
    np.subtract(rows[0], rows[1], out=amps[1])


# -- steps ---------------------------------------------------------------


def step(state: WalkState, marked: tuple[int, ...]) -> WalkState:
    """One walk step U' = S * C', C' marking the `marked` vertices."""
    return apply_shift(apply_coin(state, marked))


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


def vertex_probabilities(state: WalkState, vertices=None) -> np.ndarray:
    """p(v) summed over the coin register, for every vertex or for `vertices`,
    which pass the graph's one vertex rule (`Graph._vertices`) whether or
    not the state owes its shift: an entry that is no vertex raises
    ConfigurationError.

    A state that owes its shift is read through it at `vertices`, without
    paying it (`_vertex_index`).
    """
    a = state.amps if vertices is None else state._amps[_vertex_index(state, vertices)]
    squares = a.real * a.real
    if np.iscomplexobj(a):
        squares += a.imag * a.imag
    # accumulate adds the coin rows in order for any number of columns;
    # sum(axis=0) would add a single column pairwise, in other bits
    return np.add.accumulate(squares, axis=0)[-1]


def _vertex_index(state: WalkState, vertices) -> tuple:
    """The index into the state's array as it stands that reads
    amps[:, vertices], for `vertices` that pass `Graph._vertices`: (:,
    vertices) on a settled state, and (label(c), target_c(w)) on one that
    owes its flip-flop shift, where direction c's entry at w sits.  A run
    reads the same vertices every step, and the check and the shift table
    cost microseconds a call, so the state keeps the last vertex set it
    was read at, keyed by the bytes of its int64 array, with its owed
    index once one is taken, while coin_dim * len(vertices) <= N (no kept
    index is larger than one vertex row): an int64 array with the kept
    bytes is not checked again."""
    graph, kept = state.graph, state._index
    if not (isinstance(vertices, np.ndarray) and vertices.dtype == np.int64
            and vertices.ndim == 1 and kept is not None and kept[0] == vertices.tobytes()):
        vertices = np.array(graph._vertices(vertices, "vertices"), dtype=np.int64)
        if kept is None or kept[0] != vertices.tobytes():
            kept = vertices.tobytes(), None
    if state._owed and kept[1] is None:
        kept = kept[0], (graph.shift_labels(), graph.shift_targets(vertices))
    if graph.coin_dim * vertices.size <= graph.n:
        state._index = kept
    # an index, not np.take: take would copy a transposed state whole first
    return kept[1] if state._owed else (slice(None), vertices)
