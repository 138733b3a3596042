"""Shared test utilities and the references the package is checked against.

- the arena registry: every parametrized arena test draws its arenas from
  one of its named sets;
- dense principal-pair extraction, a step-built reference unitary, a
  complex-Schur reference eigensolver, and the dense matrix-vector product
  and character basis the oracle's nonzero passes are checked against;
- the dense matrix of an oracle operator and the listing of a dense
  matrix, and the zero-filled dense build of U' the listing's build is
  checked against bit for bit;
- per-mode references for the columnar spectral layer;
- the Fourier-mode chain behind the closed-form spectra (c03) and the
  abstract-search eigenvector (c04): coin blocks, their closed-form phases
  and their lifts to the full space;
- the local preparation circuit, the executable check of the ledger's
  preparation and reflection charges;
- state factories, the raw state-file format and small measurement
  conveniences.
"""

from __future__ import annotations

import functools
import math
import struct
import tracemalloc
from itertools import product

import numpy as np
import scipy.linalg

import walklab.oracle
from walklab import (ConfigurationError, CostLedger, GraphSpec, WalkState, build_graph,
                     complete_spec, default_coin, dense_eigens, dense_unitary, grover_coin,
                     hypercube_spec, sin2_half_theta, step, torus_modes, torus_spec,
                     uniform_state, vertex_probabilities)

_PHASE_TOL = 1e-9  # eigenphases this close to 0 belong to the +1 eigenspace
_LEVEL_GAP = 2e-9  # eigenphases this close to one another form one degenerate level
_MAGIC = b"WLKSTAT1"


# -- the arena registry ------------------------------------------------------------
#
# The suite reports a test by the labels (or positions) of the arenas it
# draws, so a set keeps its order and only grows.


def _one_per_family(side, cube_side, degree, *orders):
    return (torus_spec(side), torus_spec(side, shift="moving"), torus_spec(side, shift="dirac"),
            torus_spec(cube_side, 3), hypercube_spec(degree),
            *(complete_spec(n) for n in orders))


ARENA_SETS = {
    # one arena per family and shift: the flip-flop torus in 2D and 3D, the
    # moving and dirac tori, the hypercube and the complete graph (at N = 8
    # and 16), each small enough for a dense check
    "small": _one_per_family(4, 3, 4, 8, 16),
    # the same families a size up, for the step loop
    "loop": _one_per_family(8, 4, 5, 16),
    # every move kernel: flip-flop and moving tori of sides 2 (both senses of
    # an axis reach the same vertex) to 5 in 1D-3D, dirac from side 2 to 16,
    # the hypercube's bits 0-2 (float64 runs of at most 32 bytes, walked
    # along the row) and 3-9 (walked run by run), and the swap at both ends
    "moves": (*(torus_spec(side, ndim, shift) for shift in ("flip_flop", "moving")
                for ndim in (1, 2, 3) for side in (2, 3, 4, 5)),
              torus_spec(6, 1), *(torus_spec(side, shift="dirac") for side in (2, 3, 4, 7, 16)),
              *(hypercube_spec(d) for d in range(1, 11)), complete_spec(2), complete_spec(40)),
    # the move kernels' edge cases, each small enough to check vertex by
    # vertex: side 2, odd sides and 1D-3D tori, every shift, the hypercube
    # at d = 1, 4 and 6, the swap at N = 2 and 7
    "edge": (torus_spec(3, 1), torus_spec(5, 1), torus_spec(2), torus_spec(3), torus_spec(5),
             torus_spec(2, 3), torus_spec(3, 3), torus_spec(4, shift="moving"),
             torus_spec(2, shift="dirac"), torus_spec(5, shift="dirac"),
             *(hypercube_spec(d) for d in (1, 4, 6)), complete_spec(2), complete_spec(7)),
    # arenas of odd and even size in every family: 1D and 2D tori of odd and
    # even side, every shift, hypercubes of odd and even degree, complete
    # graphs of odd and even order
    "parity": (torus_spec(5, 1), torus_spec(6, 1), torus_spec(7, 1), torus_spec(4),
               torus_spec(5), torus_spec(6), torus_spec(3, 3), torus_spec(4, shift="moving"),
               torus_spec(5, shift="moving"), torus_spec(4, shift="dirac"),
               torus_spec(5, shift="dirac"), *(hypercube_spec(d) for d in (1, 3, 4, 5)),
               *(complete_spec(n) for n in (2, 5, 7, 8))),
    # mode spectra small enough to enumerate mode by mode: flip-flop tori in
    # 1D-4D and 8D (np.mean adds 8 axes pairwise), dirac of odd and even
    # side, hypercubes d = 1-12
    "spectra": (*(torus_spec(side, 1) for side in (2, 3, 5, 16, 64, 200)),
                *(torus_spec(side) for side in (2, 3, 4, 5, 8, 16)),
                torus_spec(2, 3), torus_spec(4, 3), torus_spec(5, 3), torus_spec(3, 4),
                torus_spec(3, 8), *(torus_spec(side, shift="dirac") for side in (2, 4, 5, 6, 8)),
                *(hypercube_spec(d) for d in range(1, 13))),
    # spectra past the dense cap, whose secular root is checked ulp by ulp
    "roots": (torus_spec(16), torus_spec(128), torus_spec(22, shift="dirac"), torus_spec(10, 3),
              hypercube_spec(30), hypercube_spec(110), complete_spec(64)),
    # one spectrum per family that has one, whose sums are checked level by
    # level: the flip-flop tori in 2D and 3D, dirac, the hypercube and the
    # complete graph
    "sums": (torus_spec(64), torus_spec(12, 3), torus_spec(22, shift="dirac"), hypercube_spec(9),
             complete_spec(64)),
    # arenas of a few MiB whose walks' traced peaks are pinned in states
    "memory": (torus_spec(128), torus_spec(24, 3), hypercube_spec(13), complete_spec(512)),
    # one arena per family and shift at 0.85-1 times oracle.DIMENSION_CAP
    # (no 3D torus lies in that band)
    "dense_cap": (torus_spec(16), torus_spec(16, shift="moving"), torus_spec(22, shift="dirac"),
                  hypercube_spec(7), complete_spec(32)),
    # runs traced against step-by-step measurement: an owed shift on the
    # torus and the hypercube, dirac's copying shift and the swap
    "trace": (torus_spec(6), torus_spec(6, shift="dirac"), hypercube_spec(5), complete_spec(12)),
    # arenas whose mirror swaps some 2-cycles of the shift itself: the 3D
    # torus of side 3 and complete graphs of odd and even order
    "mirror_swaps": (torus_spec(3, 3), complete_spec(5), complete_spec(8)),
    # the smallest arenas with a swap (Graph.symmetries) in each family and shift
    # that has one, and the first with more mirrors than the two it exchanges
    "swap": (torus_spec(3), torus_spec(3, shift="moving"), torus_spec(3, 3), hypercube_spec(4),
             hypercube_spec(6), complete_spec(5), complete_spec(9)),
    # reads at vertex subsets: the arenas of `small`, then a hypercube and a
    # complete graph of more than a thousand amplitudes
    "subsets": (*_one_per_family(4, 3, 4, 8, 16), hypercube_spec(10), complete_spec(40)),
    # the arenas of perfbench's oracle workload, at their sizes
    "oracle": (torus_spec(16), torus_spec(12, shift="moving"), torus_spec(22, shift="dirac"),
               torus_spec(5, 3), hypercube_spec(7), complete_spec(32)),
}


def _names(value):
    return (value,) if isinstance(value, str) else tuple(value)


def arenas(name: str, *, family=None, shift=None, max_dim=None) -> list[GraphSpec]:
    """The arenas of registry set `name`, in its order, that pass every
    filter given: `family` and `shift` (a name or a tuple of names) and
    `max_dim` (at most that many amplitudes, coin_dim * N)."""
    return [spec for spec in ARENA_SETS[name]
            if (family is None or spec.family in _names(family))
            and (shift is None or spec.shift in _names(shift))
            and (max_dim is None or spec.coin_dim * spec.n_vertices <= max_dim)]


def random_state(graph, seed=0) -> WalkState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(graph.coin_dim, graph.n)) \
        + 1j * rng.normal(size=(graph.coin_dim, graph.n))
    amps /= np.linalg.norm(amps)
    return WalkState(graph, amps)


def marked_coin_state(graph, vertex: int) -> WalkState:
    """|s, v>: uniform coin at one vertex."""
    amps = np.zeros((graph.coin_dim, graph.n))
    amps[:, vertex] = 1.0 / np.sqrt(graph.coin_dim)
    return WalkState(graph, amps)


def step_built_unitary(graph, coin) -> np.ndarray:
    """U' column by column: column c*N+v is one engine step of the basis state (c, v)."""
    dim = graph.coin_dim * graph.n
    matrix = np.empty((dim, dim), dtype=np.complex128)
    for col in range(dim):
        amps = np.zeros(dim, dtype=np.complex128)
        amps[col] = 1.0
        state = WalkState(graph, amps.reshape(graph.coin_dim, graph.n))
        matrix[:, col] = step(state, coin).vector
    return matrix


def listed(matrix) -> tuple[np.ndarray, np.ndarray]:
    """(flat, values): the flat indices of `matrix`'s nonzero entries, in
    row-major order, and the entries, the listing an oracle.DenseOperator
    holds."""
    matrix = np.asarray(matrix)
    flat = np.flatnonzero(matrix != 0)
    return flat, np.take(matrix, flat)


def dense(op) -> np.ndarray:
    """The dim x dim float64 matrix of an oracle.DenseOperator, scattered
    from its listing."""
    flat, values = op.nonzeros
    matrix = np.zeros((op.dim, op.dim))
    matrix.reshape(-1)[flat] = values
    return matrix


def zero_filled_unitary(graph, marked) -> np.ndarray:
    """U' = S C' as a dense float64 matrix, built into zero-filled n x n
    arrays: each coin entry C'[c*N + v, c'*N + v] goes to row move[c*N + v]
    (_shifted_coin), and the dirac step's two Hadamards are in-place
    butterflies of the row halves (_butterfly) around the second half-move.
    The bit reference for oracle.dense_unitary's listing."""
    marked = graph.marked_set(marked)
    if graph.spec.shift != "dirac":
        return _shifted_coin(graph, marked, graph.shift_permutation())
    n = graph.n
    first = _shifted_coin(graph, marked, walklab.oracle._half_move(graph, (0, 1)))
    _butterfly(first[:n], first[n:], 1.0)
    matrix = np.empty_like(first)
    matrix[walklab.oracle._half_move(graph, (2, 3))] = first
    _butterfly(matrix[:n], matrix[n:], 0.5)
    return matrix


def _shifted_coin(graph, marked, move) -> np.ndarray:
    """S C' for the row permutation S = `move`, in a zeroed matrix."""
    d, n = graph.coin_dim, graph.n
    grover = grover_coin(d)
    if graph.spec.marking == "projector_flip":
        unmarked, flipped = np.eye(d), -grover
    elif graph.spec.marking == "minus_c0":
        unmarked, flipped = grover, -grover
    else:
        unmarked, flipped = grover, -np.eye(d)
    blocks = np.repeat(unmarked[:, :, None], n, axis=2)  # [c, c', v]
    blocks[:, :, list(marked)] = flipped[:, :, None]
    matrix = np.zeros((d * n, d * n))
    matrix[move.reshape(d, 1, n), np.arange(d * n).reshape(1, d, n)] = blocks
    return matrix


def _butterfly(top, bottom, scale) -> None:
    """(top, bottom) <- ((top + bottom), (top - bottom)) * scale, in place,
    each sum formed before it is scaled."""
    total = top + bottom
    np.subtract(top, bottom, out=bottom)
    np.multiply(total, scale, out=top)
    bottom *= scale


def levels(*rows) -> np.recarray:
    """ModeSpectrum.entries from (theta, weight, multiplicity) rows."""
    return np.rec.fromarrays(list(zip(*rows)) or [[], [], []],
                             names="theta,weight,multiplicity")


def per_mode_levels(spec: GraphSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """(theta, multiplicity, frozen_weight) of mode_spectrum, one mode at a time.

    sin2_half_theta is called per mode and theta taken in the same half-angle
    form; eigenphases are grouped on round(theta, 10) and each level keeps
    the theta of its first mode in itertools.product order.
    """
    if spec.family == "hypercube":
        modes = product((0, 1), repeat=spec.dims[0])
    else:
        ndim = 2 if spec.shift == "dirac" else len(spec.dims)
        modes = product(range(spec.dims[0]), repeat=ndim)
    n = spec.n_vertices
    frozen = 0.0
    found: dict[float, list] = {}
    for mode in modes:
        if not any(mode):
            continue
        sin2_half = sin2_half_theta(spec, mode)
        if 2.0 * sin2_half < 1e-12:
            frozen += 1.0 / n
            continue
        theta = float(2.0 * np.arcsin(np.sqrt(sin2_half)))  # math.asin differs in the last bits
        found.setdefault(round(theta, 10), [theta, 0])[1] += 1
    theta, mult = zip(*sorted(found.values()))
    return np.array(theta), np.array(mult), frozen


def per_level_sums(ms) -> tuple[float, float, float]:
    """ModeSpectrum.sums one level at a time, with math.tan and left-to-right sums."""
    s1 = s2 = scot = 0.0
    for theta, weight, mult in ms.entries.tolist():
        gap = 2.0 * math.sin(theta / 2.0) ** 2
        ratio = weight / ms.a0_sq * mult
        s1 += ratio / gap
        s2 += ratio / gap ** 2
        scot += weight * mult / math.tan(theta / 4.0) ** 2
    return s1, s2, scot


def per_mode_stationary_overlap(spec: GraphSpec) -> float:
    """moving_shift_stationary_overlap with one complex 4-vector per mode."""
    length, n = spec.dims[0], spec.n_vertices
    omega = np.exp(2j * math.pi / length)
    total = 0.0
    for k, el in product(range(length), repeat=2):
        wk, wl = omega ** k, omega ** el
        u1 = np.array([wk * (1 + wl), 1 + wl, wl * (1 + wk), 1 + wk])
        nrm = np.linalg.norm(u1)
        if nrm < 1e-12:
            continue
        total += (abs((1 + wk) * (1 + wl)) / nrm) ** 2 / n
    return float(1.0 - (1.0 / n) / total)


def dense_principal_pair(op, graph, marked_vertex: int) -> tuple[float, float, float]:
    """(alpha, start_overlap, good_overlap) of the principal pair of `op`,
    the dense operator of `graph`'s walk perturbed at `marked_vertex`.

    alpha is the smallest nonzero |eigenphase|.  The eigenvectors w+ and w-
    for e^(+-i alpha) are phase-aligned so their projections on |s, v> are
    real positive; the overlaps are those of the uniform start with
    (w+ - w-)/sqrt(2) and of |s, v> with (w+ + w-)/sqrt(2).  A degenerate
    principal level (more than one phase within _LEVEL_GAP of +alpha or
    of -alpha) has no such pair, and raises ArithmeticError: its
    overlaps would depend on the eigenbasis the solver returns.
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
    sv = marked_coin_state(graph, marked_vertex).vector
    phi0 = uniform_state(graph).vector
    w_plus = vectors[:, i_plus] * np.exp(-1j * np.angle(np.vdot(sv, vectors[:, i_plus])))
    w_minus = vectors[:, i_minus] * np.exp(-1j * np.angle(np.vdot(sv, vectors[:, i_minus])))
    start = abs(np.vdot(phi0, (w_plus - w_minus) / np.sqrt(2)))
    good = abs(np.vdot(sv, (w_plus + w_minus) / np.sqrt(2)))
    return alpha, float(start), float(good)


@functools.cache
def principal_dense_data(spec: GraphSpec, marked: int = 0) -> dict:
    """Dense ground truth for the perturbed walk's principal pair
    (see `dense_principal_pair`), with the arena and the operator; kept
    for the session, so its readers must not change it."""
    graph = build_graph(spec)
    op = dense_unitary(graph, default_coin(graph, marked=(marked,)))
    alpha, start, good = dense_principal_pair(op, graph, marked)
    return {"graph": graph, "op": op, "alpha": alpha,
            "start_overlap": start, "good_overlap": good}


def matvec_history(matrix: np.ndarray, vector: np.ndarray, steps: int) -> np.ndarray:
    """The (steps+1, dim) history of `vector` under `matrix`, one dense
    matrix-vector product per step: the reference for oracle.evolve_dense,
    which steps through the nonzeros alone."""
    out = np.empty((steps + 1, matrix.shape[0]), dtype=np.result_type(vector, matrix))
    out[0] = vector
    for t in range(steps):
        np.matmul(matrix, out[t], out=out[t + 1])
    return out


def character_basis(op) -> list[tuple[np.ndarray, int, int | None]]:
    """Per block of dense_eigens(op), in its order, (rotation, m, source):
    the block's dense orthonormal basis, an n x size matrix whose first m
    columns are S's +1 half, built from the definition of the split rather
    than by chaining its butterflies, and None for a block that dense_eigens
    solves, or the solved block that one it copies is copied from.  The
    reference for the oracle's maps.

    The symmetries that commute (all but a last one that does not) generate
    a group G, listed element by element (word w holds g_l where bit l - 1
    is set).  For each character chi of G, in the order of c = sum of
    2^(l-1) over the l with chi(g_l) = -1, each orbit with least index r
    gives b = sum over w of chi(w) e_(g^w r), normalized, unless that sum
    is zero (chi is not trivial on r's stabilizer).  A last symmetry, the
    swap W, maps each g_l onto some g_pi(l) under conjugation, so it maps
    chi's block onto the block of chi' = chi o pi.  Where chi' = chi, W
    splits the block (_halves) and its +1 halves come before its -1 halves;
    where chi' comes later, chi's block stays whole among the +1 halves,
    and chi''s block is W applied to it, copied after every solved block.
    The signed reflection S then splits each block.  Each entry is then set
    to the exact +-2^(-j/2) it rounds: 2^(-j//2) times 1/sqrt(2) if j is
    odd."""
    n, mirrors, swaps = op.dim, [], list(op.symmetries)
    while swaps and all(np.array_equal(swaps[0][g], g[swaps[0]]) for g in mirrors):
        mirrors.append(swaps.pop(0))
    assert len(swaps) <= 1, "the reference splits by one swap at most"
    if swaps:  # W g_l W = g_pi(l)
        (swap,) = swaps
        pi = [next(j for j, h in enumerate(mirrors) if np.array_equal(swap[g[swap]], h))
              for g in mirrors]
    elements = [np.arange(n)]
    for g in mirrors:
        elements += [g[e] for e in elements]
    images = np.array(elements)
    starts = np.flatnonzero(images.min(axis=0) == np.arange(n))  # each orbit's least index
    words = np.arange(len(elements))
    plus, minus = [], []  # (columns, whether W copies them)
    for c in words:
        chars = np.array([(-1.0) ** bin(c & w).count("1") for w in words])
        q = np.zeros((n, starts.size))
        np.add.at(q, (images[:, starts], np.arange(starts.size)), chars[:, None])
        q = q[:, np.any(q, axis=0)]
        if not q.size:
            continue
        q /= np.linalg.norm(q, axis=0)
        if not swaps:
            plus.append((q, False))
            continue
        image = sum(((c >> pi[bit]) & 1) << bit for bit in range(len(mirrors)))
        if image == c:
            halves = _halves(q, swap, np.ones(n))
            plus.append((halves[0], False))
            minus.append((halves[1], False))
        elif c < image:
            plus.append((q, True))
    sign = np.where(op.flips, -1.0, 1.0)
    blocks, copies = [], []
    for q, copied in (block for block in plus + minus if block[0].shape[1]):
        halves = _halves(q, op.reflection, sign)
        rotation = np.hstack(halves)
        rows, cols = np.nonzero(rotation)
        value = rotation[rows, cols]
        j = np.round(-2.0 * np.log2(np.abs(value))).astype(int)
        rotation[rows, cols] = np.copysign(
            np.ldexp(np.where(j % 2, 1.0 / np.sqrt(2.0), 1.0), -(j // 2)), value)
        if copied:
            copies.append((rotation[swap], halves[0].shape[1], len(blocks)))
        blocks.append((rotation, halves[0].shape[1], None))
    return blocks + copies


def _halves(q, image, sign):
    """The +1 half and the -1 half of the span of the columns of q (each on
    its own rows, its least row positive), which the signed permutation
    e_i -> sign[i] e_image[i] maps each onto + or - one of them, in the
    order of the columns' least rows: a pair of columns p before r gives
    (q_p + P q_p)/sqrt(2) and (q_p - P q_p)/sqrt(2), and a column mapped
    onto +- itself goes to the half of its sign."""
    column = np.arange(q.shape[1])
    holder = np.full(len(q), -1)
    holder[np.nonzero(q)[0]] = np.nonzero(q)[1]  # the column with an entry in each row
    at = image[np.argmax(q != 0, axis=0)]  # the image of each column's least row
    partner = holder[at]
    moved = np.empty_like(q)
    moved[image] = sign[:, None] * q
    first = column < partner
    still = (partner == column) * moved[at, column] * q[at, column]
    paired = np.where(first, 1.0, 0.0) * moved
    scale = np.where(first, np.sqrt(2.0), 1.0)
    return (((q + paired) / scale)[:, first | (still > 0)],
            ((q - paired) / scale)[:, first | (still < 0)])


def _halves_back(rotation, m):
    """Per half of a block's basis (character_basis), each original row's
    one entry there, as (column in the half, entry); entry 0.0 for a row
    with none (a column of zeros stands in for an empty half)."""
    ways = []
    for half in (rotation[:, :m], rotation[:, m:]):
        half = np.hstack([half, np.zeros((len(half), 1))])
        index = np.argmax(np.abs(half), axis=1)
        ways.append((index, half[np.arange(len(half)), index]))
    return ways


# the complex lift takes this many eigenvectors at a time
_LIFT_COLUMNS = 32


def complex_lift_eigens(op) -> tuple[np.ndarray, np.ndarray]:
    """dense_eigens(op) with each block's eigenvectors lifted as complex
    vectors on the block's coordinates, (x, +-i y)/sqrt(2) for a turning
    pair and x or y alone for a still vector, a batch at a time, into the
    original rows through the block's dense basis (character_basis): each
    row sums the complex coordinate of its entry in the +1 half and that
    of its entry in the -1 half, each times the entry.  A copied block's
    eigens are its source's, lifted through its own basis.  The reference
    for the oracle's real-arithmetic lift, which forms the real and
    imaginary parts apart from its own maps, and for its copies."""
    oracle = walklab.oracle
    vectors, (first, second) = oracle._eigenvector_buffer(op.dim)
    phases, found, start = [], [], 0
    blocks, _ = oracle._rotated_blocks(op, oracle._split_maps(op), second)
    basis = character_basis(op)
    for (rotated, m, _), (rotation, _, _) in zip(blocks, basis):
        block_phases, eigens = oracle._reversal_eigens(rotated, m,
                                                       oracle._carve(first, rotated.shape)[0])
        phases.append(block_phases)
        found.append((start, eigens, m, _halves_back(rotation, m)))
        start += rotated.shape[0]
    for rotation, m, source in basis[len(blocks):]:  # a copied block: its source's eigens
        phases.append(phases[source])
        found.append((start, found[source][1], m, _halves_back(rotation, m)))
        start += rotation.shape[1]
    phases, columns = oracle._sorted_columns(np.concatenate(phases))
    eigenrows = vectors.T  # row j is eigenvector j
    for start, eigens, m, ((plus, plus_weight), (minus, minus_weight)) in found:
        for positions, z in _complex_batches(*eigens):
            # "clip" reads a row's stand-in entry of an empty half in range
            eigenrows[columns[start + positions]] = (
                np.take(z, plus, axis=1, mode="clip") * plus_weight
                + np.take(z, m + minus, axis=1, mode="clip") * minus_weight)
    return phases, vectors


def _real_batches(vectors, first, width, at=0):
    """(positions, z) for real eigenvectors, the rows of `vectors`, at most
    _LIFT_COLUMNS at a time from phase position `first`, each row written
    from coordinate `at` of a zero row `width` wide."""
    for lo in range(0, len(vectors), _LIFT_COLUMNS):
        part = vectors[lo:lo + _LIFT_COLUMNS]
        z = np.zeros((len(part), width))
        z[:, at:at + part.shape[1]] = part
        yield first + lo + np.arange(len(part)), z


def _complex_batches(tops, q, still, q_still):
    """(positions, z) of one block's eigenvectors, in its phases' order:
    (x, i y)/sqrt(2) and (x, -i y)/sqrt(2) for _LIFT_COLUMNS / 2 turning
    pairs (x, y), the rows of `tops` and `q`, at a time, then at most
    _LIFT_COLUMNS at a time the still x and the still columns of the -1
    half."""
    (t, m), r = tops.shape, q.shape[1]
    for lo in range(0, t, _LIFT_COLUMNS // 2):
        k = min(_LIFT_COLUMNS // 2, t - lo)
        z = np.empty((2 * k, m + r), dtype=np.complex128)
        z[:k, :m] = z[k:, :m] = tops[lo:lo + k] * (1.0 / np.sqrt(2.0))
        np.multiply(q[lo:lo + k], 1j * (1.0 / np.sqrt(2.0)), out=z[:k, m:])
        np.negative(z[:k, m:], out=z[k:, m:])
        yield np.r_[lo:lo + k, t + lo:t + lo + k], z
    yield from _real_batches(still, 2 * t, m + r)
    yield from _real_batches(q_still, m + t, m + r, m)


def json_numbers_close(a, b, atol=1e-9, path="$") -> None:
    """Recursive comparison of parsed JSON with numeric tolerance; the keys
    of each object must come in the same order."""
    if isinstance(a, dict) and isinstance(b, dict):
        assert list(a) == list(b), f"{path}: keys {list(a)} != {list(b)}"
        for key in a:
            json_numbers_close(a[key], b[key], atol, f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            json_numbers_close(x, y, atol, f"{path}[{i}]")
    elif isinstance(a, bool) or isinstance(b, bool):
        assert a == b, f"{path}: {a} != {b}"
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        assert abs(a - b) <= atol * max(1.0, abs(a), abs(b)), f"{path}: {a} != {b}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def traced_peak(call) -> int:
    """numpy's peak traced allocation, in bytes above the start, while `call` runs.

    numpy registers every array buffer with tracemalloc, so this counts
    each array held at once.  It does not count LAPACK's workspace inside
    numpy.linalg.eigh, which numpy allocates untraced, nor memory that the
    C allocator keeps after a free: the process's resident size can still
    differ for the same traced peak.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


# -- state files -------------------------------------------------------------


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


def load_state(graph, path) -> WalkState:
    """Read a save_state file: a float64 state if every stored imaginary
    part is zero, a complex128 one otherwise."""
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
    amps = raw[:, 0] + 1j * raw[:, 1] if raw[:, 1].any() else raw[:, 0]
    return WalkState(graph, amps.reshape(coin_dim, n))


# -- measurement conveniences ------------------------------------------------


def neighborhood_probability(state: WalkState, vertices) -> float:
    """Combined probability of the union of {v} and its neighbors over vertices."""
    support = state.graph.closed_neighborhood(vertices)
    return float(vertex_probabilities(state, support).sum())


def translate(graph, vertex: int, offset) -> int:
    """Torus vertex translated componentwise mod L."""
    coords = graph.vertex_coords(vertex)
    return graph.vertex_index(tuple(c + o for c, o in zip(coords, offset)))


def rounds_to_quarter(gamma: float) -> int:
    """Smallest round count with sin^2((2r+1) gamma) >= 1/4."""
    if gamma <= 0:
        raise ConfigurationError("need a positive initial amplitude")
    r = 0
    while math.sin((2 * r + 1) * gamma) ** 2 < 0.25:
        r += 1
    return r


def schur_eigens(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and an orthonormal eigenbasis of a unitary matrix, real or
    complex, by the complex Schur form: the reference the package's real
    orthogonal solver is checked against, and the solver of the complex
    mode blocks.  The Schur form of a normal matrix is diagonal, so the Schur
    vectors are exact eigenvectors; plain eig would not hand back an
    orthonormal basis on degenerate spectra."""
    t, z = scipy.linalg.schur(block, output="complex")
    return np.angle(np.diag(t)), z


def eigenspace_projection(phases: np.ndarray, vectors: np.ndarray,
                          vector: np.ndarray) -> float:
    """Squared norm of the projection of `vector` onto the +1 eigenspace."""
    sel = np.abs(phases) < _PHASE_TOL
    if not np.any(sel):
        return 0.0
    coeffs = vectors[:, sel].conj().T @ vector
    return float(np.sum(np.abs(coeffs) ** 2))


# -- Fourier-mode blocks ---------------------------------------------------------
#
# Translation-invariant shifts act mode by mode: on mode k the walk reduces
# to a coin-sized unitary block D_k * C0.  The vertex wave of torus mode k
# is chi_k(x) = omega^(-k.x)/sqrt(N) with omega = exp(2*pi*i/L), which
# reproduces the blocks below exactly; hypercube modes are (-1)^(k.x)/sqrt(N).


def coin_block(spec: GraphSpec, mode) -> np.ndarray:
    """The coin-sized unitary the walk reduces to on one Fourier mode.

    mode: tuple of d integers for tori (k_i in 0..L-1), tuple of d bits for
    the hypercube.
    """
    mode = tuple(int(m) for m in mode)
    if spec.family == "complete":
        raise ConfigurationError("the complete-graph walk has no Fourier mode structure")
    if spec.family == "hypercube":
        d = spec.dims[0]
        if len(mode) != d or any(b not in (0, 1) for b in mode):
            raise ConfigurationError("hypercube mode must be a tuple of d bits")
        signs = np.array([1.0 if b == 0 else -1.0 for b in mode])
        return np.diag(signs).astype(np.complex128) @ grover_coin(d)

    length = spec.dims[0]
    ndim = len(spec.dims)
    if len(mode) != ndim or any(not 0 <= k < length for k in mode):
        raise ConfigurationError(f"mode must lie in {{0..{length - 1}}}^{ndim}")
    omega = np.exp(2j * math.pi / length)

    if spec.shift == "dirac":
        # y-move is diagonal in the coin basis, x-move in the Hadamard basis;
        # with chi_k(x) = omega^(-kx) the composed block on mode (k, l) is
        # the (-k, -l) relabeling of the same two-parameter family.
        k, el = mode
        ck, sk = np.cos(2 * math.pi * k / length), np.sin(2 * math.pi * k / length)
        wl = omega ** el
        return np.array([[ck / wl, -1j * wl * sk],
                         [-1j * sk / wl, wl * ck]], dtype=np.complex128)

    d = 2 * ndim
    diag = np.zeros((d, d), dtype=np.complex128)
    for axis, k in enumerate(mode):
        wk = omega ** k
        i = 2 * axis
        if spec.shift == "flip_flop":
            diag[i, i + 1] = 1.0 / wk
            diag[i + 1, i] = wk
        elif spec.shift == "moving":
            diag[i, i] = wk
            diag[i + 1, i + 1] = 1.0 / wk
        else:
            raise ConfigurationError(f"no coin block for shift {spec.shift!r}")
    return diag @ grover_coin(d)


def closed_form_block_phases(spec: GraphSpec, mode) -> list[float]:
    """All coin_dim eigenphases of the mode block, from the closed forms.

    Tori contribute the +/-theta pair plus (d-1)-fold 1 and -1 levels; the
    hypercube pair sits beside (w-1) ones and (d-w-1) minus-ones where w is
    the mode weight; the two-dimensional coin has just the pair.
    """
    theta = 2.0 * math.asin(math.sqrt(sin2_half_theta(spec, mode)))
    if spec.shift == "dirac":
        return [theta, -theta]
    if spec.family == "hypercube":
        d = spec.dims[0]
        w = sum(mode)
        if w == 0:
            return [0.0] + [math.pi] * (d - 1)
        if w == d:
            return [math.pi] + [0.0] * (d - 1)
        return [theta, -theta] + [0.0] * (w - 1) + [math.pi] * (d - w - 1)
    ndim = len(spec.dims)
    return [theta, -theta] + [0.0] * (ndim - 1) + [math.pi] * (ndim - 1)


def mode_vertex_wave(graph, mode) -> np.ndarray:
    """chi_mode as a length-N vertex vector."""
    spec = graph.spec
    if spec.family == "hypercube":
        mask = sum(1 << i for i, b in enumerate(mode) if b)
        parity = np.array([bin(v & mask).count("1") & 1 for v in range(graph.n)])
        wave = np.where(parity, -1.0, 1.0).astype(np.complex128)
        return wave / math.sqrt(graph.n)
    length = spec.dims[0]
    omega = np.exp(-2j * math.pi / length)
    axes = [omega ** (k * np.arange(length)) for k in mode]
    wave = axes[0]
    for ax in axes[1:]:
        wave = np.multiply.outer(ax, wave).reshape(-1)  # later coords vary slower
    return wave / math.sqrt(graph.n)


def lift_block_vector(graph, mode, coin_vec: np.ndarray) -> np.ndarray:
    """coin_vec (x) chi_mode as a flat (coin_dim*N,) state vector."""
    wave = mode_vertex_wave(graph, mode)
    return np.kron(np.asarray(coin_vec, dtype=np.complex128), wave)


def lift_principal_eigenvector(graph, marked_vertex: int, alpha: float) -> np.ndarray:
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
        modes = torus_modes(spec)[1:]  # row 0 is the zero mode

    def cot(x):
        return np.cos(x) / np.sin(x)

    # complex from the start: the modes below add complex terms in place
    w_prime = (np.sqrt(1.0 / n) * cot(alpha / 2) * uniform_state(graph).vector
               ).astype(np.complex128)
    for mode in modes:
        block = coin_block(spec, mode)
        phases, vecs = schur_eigens(block)
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


# -- local state preparation (Aaronson & Ambainis, quant-ph/0303041) -----------
#
# Too slow to drive `amplify` (one reflection took 113 ms at L=128 on a
# 2-vCPU VM, against 0.15 ms for `reflect_about` with the uniform axis);
# kept as the executable check of the CostLedger's locality charges.


class _LocalOp:
    """One reversible layer of the local preparation circuit."""

    def __init__(self, forward, inverse):
        self.forward = forward
        self.inverse = inverse


def _rotation_layer(graph, vertices: np.ndarray, phi: float) -> _LocalOp:
    c, s = math.cos(phi), math.sin(phi)

    def fwd(amps):
        a0, a1 = amps[0, vertices].copy(), amps[1, vertices].copy()
        amps[0, vertices] = c * a0 - s * a1
        amps[1, vertices] = s * a0 + c * a1

    def inv(amps):
        a0, a1 = amps[0, vertices].copy(), amps[1, vertices].copy()
        amps[0, vertices] = c * a0 + s * a1
        amps[1, vertices] = -s * a0 + c * a1

    return _LocalOp(fwd, inv)


def _carry_layer(graph, axis: int) -> _LocalOp:
    ndim = len(graph.spec.dims)
    np_axis = ndim - 1 - axis

    def fwd(amps):
        grid = amps.reshape((graph.coin_dim,) + tuple(reversed(graph.vertex_shape)))
        grid[1] = np.roll(grid[1], 1, axis=np_axis)

    def inv(amps):
        grid = amps.reshape((graph.coin_dim,) + tuple(reversed(graph.vertex_shape)))
        grid[1] = np.roll(grid[1], -1, axis=np_axis)

    return _LocalOp(fwd, inv)


def _fanout_layer(graph) -> _LocalOp:
    d = graph.coin_dim
    e0 = np.zeros(d)
    e0[0] = 1.0
    s = np.full(d, 1.0 / math.sqrt(d))
    u = e0 - s
    u /= np.linalg.norm(u)
    house = np.eye(d) - 2.0 * np.outer(u, u)  # involution mapping e0 <-> s

    def apply(amps):
        amps[:, :] = house @ amps

    return _LocalOp(apply, apply)


def _preparation_circuit(graph) -> list[_LocalOp]:
    spec = graph.spec
    if spec.family != "torus" or len(spec.dims) != 2 or spec.coin != "grover":
        raise ConfigurationError("local preparation is implemented for 2D grover tori")
    length = spec.dims[0]
    ops: list[_LocalOp] = []
    for axis in range(2):
        for j in range(1, length):
            # frontier vertex (j-1, 0) on axis 0; whole row y = j-1 on axis 1
            remaining = math.sqrt((length - j + 1) / length)
            keep = math.sqrt(1.0 / length)
            phi = math.acos(min(1.0, keep / remaining))
            if axis == 0:
                frontier = np.array([graph.vertex_index((j - 1, 0))])
                landing = np.array([graph.vertex_index((j, 0))])
            else:
                frontier = np.array([graph.vertex_index((x, j - 1)) for x in range(length)])
                landing = np.array([graph.vertex_index((x, j)) for x in range(length)])
            ops.append(_rotation_layer(graph, frontier, phi))
            ops.append(_carry_layer(graph, axis))
            # park the carried amplitude back into coin 0 with positive sign
            ops.append(_rotation_layer(graph, landing, -math.pi / 2))
    ops.append(_fanout_layer(graph))
    return ops


def prepare_uniform_locally(graph) -> tuple[WalkState, CostLedger]:
    """Build the uniform state from a point state by local moves.

    Amplitude is spread down one row by rotate/carry/park rounds, then down
    every column in parallel, then fanned out over the coin register; the
    returned ledger carries the preparation charge, CostLedger.prep_cost.
    """
    state = WalkState(graph, np.zeros((graph.coin_dim, graph.n)))
    state.amps[0, 0] = 1.0
    for op in _preparation_circuit(graph):
        op.forward(state.amps)
    return state, CostLedger(graph.n)


def reflect_via_preparation(graph, state: WalkState) -> tuple[WalkState, float]:
    """I - 2|Phi0><Phi0| realized as unprepare, point flip, re-prepare.

    Equals -reflect_about(state, uniform_state(graph)) (a global phase);
    costs one CostLedger.reflection_unit.
    """
    ops = _preparation_circuit(graph)
    for op in reversed(ops):
        op.inverse(state.amps)
    state.amps[0, 0] *= -1.0
    for op in ops:
        op.forward(state.amps)
    return state, CostLedger(graph.n).reflection_unit
