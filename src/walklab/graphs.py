"""Walk arenas: periodic grids, hypercubes, complete graphs, and shift rules.

A walk lives on the joint space coin ⊗ vertex.  Vertices are indexed
row-major with the first coordinate fastest, so a torus vertex (x, y)
has index y*L + x and a hypercube vertex is its bit pattern.  Torus
directions come in axis pairs (axis 0 +, axis 0 -, axis 1 +, ...);
hypercube direction i flips bit i; on the complete graph the direction
register names the target vertex.  This module alone spells the arena's
geometry: the step set (`GraphSpec.steps`), the point reflections
(`Graph.reflect`), which move undoes which (`Graph.reverse_moves`) and
which maps fix the marked set (`Graph.symmetries`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

FAMILIES = ("torus", "hypercube", "complete")
SHIFTS = ("flip_flop", "moving", "dirac", "swap")


class ConfigurationError(ValueError):
    """A walk configuration violates a structural constraint."""


def is_integer(value) -> bool:
    """The one integer rule for inputs: what `operator.index` takes, but no bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def _integers(values, name: str) -> tuple[int, ...]:
    """`values` as a tuple of ints if each `is_integer`, else ConfigurationError."""
    items = tuple(values) if np.iterable(values) else None
    if items is None or not all(map(is_integer, items)):
        raise ConfigurationError(f"{name} must be integers, got {values!r}")
    return tuple(map(operator.index, items))


@dataclass(frozen=True)
class GraphSpec:
    """Immutable description of a walk arena.

    dims: torus -> d equal side lengths; hypercube -> (d,); complete -> (N,).
    The shift fixes the coin (see `coin`).
    """

    family: str
    dims: tuple[int, ...]
    shift: str = "flip_flop"

    def __post_init__(self):
        object.__setattr__(self, "dims", _integers(self.dims, "dims"))
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.shift not in SHIFTS:
            raise ConfigurationError(f"unknown shift {self.shift!r}; choose from {SHIFTS}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigurationError("dims must be positive integers")

        if self.family == "torus":
            if len(set(self.dims)) != 1:
                raise ConfigurationError("torus sides must all be equal")
            if self.dims[0] < 2:
                raise ConfigurationError("torus side must be at least 2")
            if self.shift == "swap":
                raise ConfigurationError("swap shift is only valid on the complete graph")
            if self.shift == "dirac" and len(self.dims) != 2:
                raise ConfigurationError("dirac walk is only defined on the 2D torus")
        elif self.family == "hypercube":
            if len(self.dims) != 1:
                raise ConfigurationError("hypercube takes a single dimension entry")
            if self.shift != "flip_flop":
                raise ConfigurationError(
                    "hypercube uses the bit-flip shift (spell it flip_flop); "
                    f"{self.shift!r} is not valid here"
                )
        else:  # complete
            if len(self.dims) != 1 or self.dims[0] < 2:
                raise ConfigurationError("complete graph takes a single entry N >= 2")
            if self.shift != "swap":
                raise ConfigurationError("complete graph uses the swap shift")

    @property
    def coin(self) -> str:
        """The two-dimensional coin for the dirac shift, the Grover coin otherwise."""
        return "dirac2" if self.shift == "dirac" else "grover"

    @property
    def marking(self) -> str:
        """How the coin acts at a marked vertex; the arena fixes it.

        minus_identity   C1 = -I per marked vertex (grids, hypercube)
        minus_c0         C1 = -C0 per marked vertex (complete graph)
        projector_flip   the two-dimensional coin: the unmarked coin is the
                         identity and each marked vertex reflects the whole
                         state, I - 2|s,v><s,v|: on two directions, -X
        """
        if self.shift == "dirac":
            return "projector_flip"
        return "minus_c0" if self.family == "complete" else "minus_identity"

    @property
    def n_vertices(self) -> int:
        if self.family == "torus":
            return math.prod(self.dims)
        if self.family == "hypercube":
            return 2 ** self.dims[0]
        return self.dims[0]

    @property
    def coin_dim(self) -> int:
        if self.family == "torus":
            return 2 if self.shift == "dirac" else 2 * len(self.dims)
        return self.dims[0]

    @property
    def steps(self) -> np.ndarray:
        """The (ndim, rows) coordinate step of each row of a torus's
        `shift_targets`: axis pairs (axis 0 +, axis 0 -, axis 1 +, ...), or
        the dirac roles' (x, y) steps up, down, left, right."""
        if self.shift == "dirac":
            return np.array([[0, 0, -1, 1], [-1, 1, 0, 0]])
        ndim = len(self.dims)
        return np.eye(ndim, dtype=np.int64).repeat(2, axis=1) * np.tile([1, -1], ndim)

    def label(self) -> str:
        dims = "x".join(str(d) for d in self.dims)
        return f"{self.family}({dims},{self.shift},{self.coin})"


class Graph:
    """A built arena: sizes, coordinate maps, neighbors, and the shift map."""

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        self.n = spec.n_vertices
        self.coin_dim = spec.coin_dim
        # the float64 state is one numpy array; this also keeps 1 << bit in int64
        if self.coin_dim * self.n > np.iinfo(np.intp).max // 8:
            raise ConfigurationError(
                f"{spec.label()} has {self.coin_dim} x {self.n} amplitudes, "
                "more than one float64 array can hold"
            )
        if spec.family == "torus":
            # numpy axes hold coordinates in reverse so x1 is the fastest index
            self.vertex_shape = (spec.dims[0],) * len(spec.dims)
        elif spec.family == "hypercube":
            self.vertex_shape = (2,) * spec.dims[0]
        else:
            self.vertex_shape = (self.n,)

    # -- coordinates ---------------------------------------------------

    def vertex_index(self, coords):
        """Flat index of a coordinate tuple (first coordinate fastest), each
        coordinate taken modulo its side; a (ndim, ...) array of coordinates
        gives an array of indices."""
        index = np.ravel_multi_index(tuple(coords)[::-1], self.vertex_shape, mode="wrap")
        return int(index) if np.ndim(index) == 0 else index

    def vertex_coords(self, vertex: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(vertex, self.vertex_shape)[::-1])

    def coordinates(self) -> np.ndarray:
        """The (ndim, N) coordinates of every vertex."""
        return np.array(np.unravel_index(np.arange(self.n), self.vertex_shape)[::-1])

    def face_vertices(self) -> np.ndarray:
        """The vertices with some coordinate at 0 or at its side's end,
        sorted: on a torus, the only ones whose moves can wrap around."""
        on_face = np.zeros(self.vertex_shape, dtype=bool)
        for axis in range(on_face.ndim):
            on_face.swapaxes(0, axis)[[0, -1]] = True
        return np.flatnonzero(on_face)

    def marked_set(self, vertices=()) -> tuple[int, ...]:
        """`vertices` as the walk's marked set: distinct vertices, each
        passing `_vertices` (the CLI checks a vertex index here too).
        Anything else, a bool, a float or a string included, raises
        ConfigurationError."""
        marked = self._vertices(vertices, "marked vertices")
        if len(set(marked)) != len(marked):
            raise ConfigurationError("marked vertices must be distinct")
        return marked

    def _vertices(self, values, name: str) -> tuple[int, ...]:
        """`values` as a tuple of ints if each is an integer (_integers) in
        range(N), else ConfigurationError: the one check of vertex indices."""
        vertices = _integers(values, name)
        for vertex in vertices:
            if not 0 <= vertex < self.n:
                raise ConfigurationError(f"vertex {vertex} out of range for N={self.n}")
        return vertices

    # -- adjacency -----------------------------------------------------

    def closed_neighborhood(self, vertices) -> np.ndarray:
        """`vertices` and every vertex one walk step reaches from them, sorted.

        Read off one `shift_targets` call: every direction's target at each
        vertex.  The two-dimensional coin's step composes its half-moves,
        roles 0/1 and then 2/3, so it lands on the diagonal sites.
        """
        vertices = self._vertices(vertices, "vertices")
        targets = self.shift_targets(vertices)
        if self.spec.shift == "dirac":
            targets = self.shift_targets(targets[:2].ravel())[2:]
        out = set(targets.ravel().tolist())  # np.unique would import numpy.ma
        out.update(vertices)
        return np.array(sorted(out), dtype=np.int64)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Vertices reachable from `vertex` in one walk step, sorted: its
        closed neighborhood less `vertex` itself (the complete graph's
        self-loop)."""
        around = self.closed_neighborhood((vertex,))
        return around[around != vertex]

    def symmetries(self, marked) -> tuple[np.ndarray, ...]:
        """Involutive automorphisms g[v] of the arena that fix the marked set
        (`marked_set`) and, lifted, commute with the step: the chain by which
        the dense oracle splits U'.  For one marked vertex w, its mirrors,
        commuting and none the identity, which generate Z_2^k; then, where
        there are two or more mirrors for it to exchange, the swap, which maps
        each mirror onto one of them under conjugation, the first two
        exchanged.  () for any other marked set.

        torus       mirrors: each axis reflected through w (dirac: the last
                    alone, as no other commutes with its step); swap: axes 0
                    and 1 exchanged through w
        hypercube   x -> w ^ pi(x ^ w); mirrors: pi swapping bits 2i and
                    2i + 1; swap: pi exchanging bits 0 and 2, and 1 and 3
        complete    the other vertices labelled 0, 1, ... in index order, in
                    whole runs of 2^k, k the most whose runs hold two thirds
                    of them; mirrors: label bit i < k flipped; swap: label
                    bits 0 and 1 exchanged
        The dirac walk's one mirror has no swap, and none would commute with
        its U': no signed permutation of a coin swap and signs times a
        dihedral map through w does (all searched at L = 6).
        """
        marked = self.marked_set(marked)
        if len(marked) != 1:
            return ()
        (vertex,), index = marked, np.arange(self.n, dtype=np.int64)
        if self.spec.family == "torus":
            w = np.array(self.vertex_coords(vertex))
            axes = [-1] if self.spec.shift == "dirac" else range(w.size)
            mirrors = [self.reflect(2 * w[axis], axes=(axis,)) for axis in axes]
            coords = self.coordinates()  # axes 0 and 1 exchanged; 1D: axis 0 kept
            coords[:2] = coords[1::-1] + (w[:2] - w[1::-1])[:, None]
            swap = self.vertex_index(coords)
        elif self.spec.family == "hypercube":
            flipped = index ^ vertex  # bits b and b + 1 of x ^ w swap where they differ
            mirrors = [index ^ (((flipped >> b) ^ (flipped >> b + 1)) & 1) * (3 << b)
                       for b in range(0, self.spec.dims[0] - 1, 2)]
            swap = vertex ^ (flipped & ~0b1111 | (flipped & 0b11) << 2 | (flipped >> 2) & 0b11)
        else:
            others = np.flatnonzero(index != vertex)
            bits = max(k for k in range(others.size.bit_length())
                       if 3 * (others.size >> k << k) >= 2 * others.size)
            runs = others[:others.size >> bits << bits]
            mirrors, swap = [index.copy() for _ in range(bits)], index.copy()
            for bit, g in enumerate(mirrors):  # axis 1: the labels' bit `bit`
                pairs = runs.reshape(-1, 2, 1 << bit)
                g[pairs] = pairs[:, ::-1]
            quads = runs[:runs.size >> 2 << 2].reshape(-1, 4)  # all runs where k >= 2
            swap[quads] = quads[:, [0, 2, 1, 3]]
        mirrors = [g for g in mirrors if np.any(g != index)]
        # the one rule for the swap: it follows only where it has two mirrors
        # to exchange (elsewhere the map built above need be no automorphism)
        return (*mirrors, swap) if len(mirrors) >= 2 else tuple(mirrors)

    def reflect(self, total, axes=None) -> np.ndarray:
        """The torus vertex map v -> total - v on `axes` (every axis if None),
        modulo the side, as g[v]: the point reflection through total/2, which
        swaps u and w when total = u + w (one total per axis, or one for all)."""
        coords = self.coordinates()
        axes = slice(None) if axes is None else list(axes)
        coords[axes] = np.reshape(total, (-1, 1)) - coords[axes]
        return self.vertex_index(coords)

    def lift(self, vertex_map: np.ndarray) -> np.ndarray:
        """An automorphism g of the arena (g[v] per vertex) lifted to the
        basis index c*N + v: direction c at v goes to the direction at g(v)
        whose target is g of c's target.

        The targets are those of `shift_targets` (for dirac, the first
        half-move's).  Where several directions at g(v) have that target (the
        two senses of an axis of side 2), c keeps its label.
        """
        targets = self.shift_targets()[:self.coin_dim]
        hits = targets[None, :, vertex_map] == vertex_map[targets][:, None, :]  # [c, c', v]
        if not hits.any(axis=1).all():
            raise ValueError("the vertex map is no automorphism of the arena")
        own = np.arange(self.coin_dim)
        label = np.where(hits[own, own], own[:, None], hits.argmax(axis=1))
        return (label * self.n + vertex_map).reshape(-1)

    # -- shift map -------------------------------------------------------

    def shift_targets(self, vertices=None) -> np.ndarray:
        """Where each direction (row) moves the amplitude at each of
        `vertices` (column; default all N) in one shift: the target vertex.

        For the dirac walk the rows are the four roles up/down/left/right;
        roles 0/1 describe the first half-move (coin basis) and roles 2/3 the
        second (Hadamard basis).  Each half is a permutation of its own
        (role, vertex) domain that keeps the role; the composed step mixes
        bases, and the state engine and the dense oracle compose it from the
        two halves.  `shift_labels` gives the direction labels.
        """
        spec = self.spec
        vertices = np.arange(self.n) if vertices is None else np.asarray(vertices, np.int64)
        if spec.shift == "swap":  # direction c goes to vertex c
            return np.repeat(np.arange(self.n)[:, None], vertices.size, axis=1)
        if spec.family == "hypercube":  # direction i flips bit i
            return vertices ^ (1 << np.arange(self.coin_dim))[:, None]
        coords = np.unravel_index(vertices, self.vertex_shape)[::-1]
        return self.vertex_index(np.array(coords)[:, None, :] + spec.steps[:, :, None])

    def reverse_moves(self) -> np.ndarray:
        """For each row c of `shift_targets`, the row r whose move undoes
        c's, target_r(target_c(v)) = v: on a torus the negated step (c's
        axis partner, the dirac role pair's other role), on the hypercube c
        itself.  The swap sends direction c to vertex c from anywhere, so
        no move undoes another: ConfigurationError."""
        if self.spec.shift == "swap":
            raise ConfigurationError("the swap has no reverse moves: no move undoes another")
        if self.spec.family == "hypercube":
            return np.arange(self.coin_dim)
        steps = self.spec.steps
        return (steps[:, :, None] == -steps[:, None, :]).all(axis=0).argmax(axis=1)

    def shift_labels(self) -> np.ndarray:
        """The direction c' in which direction c's amplitude at v arrives
        under one shift, broadcast against `shift_targets`: the reverse move
        (`reverse_moves`) on flip-flop tori, c on moving tori and the
        hypercube, v on the swap."""
        if self.spec.shift == "swap":
            return np.arange(self.n)
        if self.spec.family == "torus" and self.spec.shift == "flip_flop":
            return self.reverse_moves()[:, None]
        return np.arange(self.coin_dim)[:, None]

    def shift_permutation(self) -> np.ndarray:
        """Permutation p with p[c*N+v] = c'*N+v' under one shift: v' is the
        target vertex and c' the direction label (`shift_labels`).

        Not available for the dirac walk, whose step is not a permutation of
        any single basis; use shift_targets per role there.
        """
        if self.spec.shift == "dirac":
            raise ConfigurationError(
                "dirac step is a composition of two basis-conditional moves, "
                "not a basis permutation"
            )
        return (self.shift_labels() * self.n + self.shift_targets()).ravel()


def build_graph(spec: GraphSpec) -> Graph:
    """The built arena of a spec (the spec validated itself when made)."""
    return Graph(spec)


def torus_spec(side: int, ndim: int = 2, shift: str = "flip_flop") -> GraphSpec:
    if not is_integer(ndim):
        raise ConfigurationError(f"ndim must be an integer, got {ndim!r}")
    return GraphSpec("torus", (side,) * ndim, shift=shift)


def hypercube_spec(degree: int) -> GraphSpec:
    return GraphSpec("hypercube", (degree,))


def complete_spec(n: int) -> GraphSpec:
    return GraphSpec("complete", (n,), shift="swap")
