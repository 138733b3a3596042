"""Walk arenas: periodic grids, hypercubes, complete graphs, and shift rules.

A walk lives on the joint space coin ⊗ vertex.  Vertices are indexed
row-major with the first coordinate fastest, so a torus vertex (x, y)
has index y*L + x and a hypercube vertex is its bit pattern.  Torus
directions come in axis pairs (axis 0 +, axis 0 -, axis 1 +, ...);
hypercube direction i flips bit i; on the complete graph the direction
register names the target vertex.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

FAMILIES = ("torus", "hypercube", "complete")
SHIFTS = ("flip_flop", "moving", "dirac", "swap")


class ConfigurationError(ValueError):
    """A walk configuration violates a structural constraint."""


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
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
            raise ConfigurationError(f"dims must be integers, got {self.dims!r}") from None
        object.__setattr__(self, "dims", dims)
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
                         state, I - 2|s,v><s,v|
        """
        if self.coin == "dirac2":
            return "projector_flip"
        return "minus_c0" if self.family == "complete" else "minus_identity"

    @property
    def n_vertices(self) -> int:
        if self.family == "torus":
            return int(np.prod(self.dims))
        if self.family == "hypercube":
            return 2 ** self.dims[0]
        return self.dims[0]

    @property
    def coin_dim(self) -> int:
        if self.family == "torus":
            return 2 if self.coin == "dirac2" else 2 * len(self.dims)
        if self.family == "hypercube":
            return self.dims[0]
        return self.dims[0]

    def label(self) -> str:
        dims = "x".join(str(d) for d in self.dims)
        return f"{self.family}({dims},{self.shift},{self.coin})"


class Graph:
    """A built arena: sizes, coordinate maps, neighbors, and the shift map."""

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        self.n = spec.n_vertices
        self.coin_dim = spec.coin_dim
        if spec.family == "torus":
            d = len(spec.dims)
            length = spec.dims[0]
            # numpy axes hold coordinates in reverse so x1 is the fastest index
            self.vertex_shape = (length,) * d
        elif spec.family == "hypercube":
            self.vertex_shape = (2,) * spec.dims[0]
        else:
            self.vertex_shape = (self.n,)

    # -- coordinates ---------------------------------------------------

    def vertex_index(self, coords) -> int:
        """Flat index of a coordinate tuple (first coordinate fastest)."""
        spec = self.spec
        if spec.family == "torus":
            length = spec.dims[0]
            idx = 0
            for c in reversed(coords):
                idx = idx * length + (int(c) % length)
            return idx
        if spec.family == "hypercube":
            idx = 0
            for i, b in enumerate(coords):
                idx |= (int(b) & 1) << i
            return idx
        return int(coords[0]) % self.n

    def vertex_coords(self, vertex: int) -> tuple[int, ...]:
        spec = self.spec
        if spec.family == "torus":
            length = spec.dims[0]
            coords = []
            v = int(vertex)
            for _ in spec.dims:
                coords.append(v % length)
                v //= length
            return tuple(coords)
        if spec.family == "hypercube":
            d = spec.dims[0]
            return tuple((vertex >> i) & 1 for i in range(d))
        return (int(vertex),)

    # -- adjacency -----------------------------------------------------

    def neighbors(self, vertex: int) -> np.ndarray:
        """Vertices reachable from `vertex` in one walk step, sorted.

        Read off `shift_target`: every direction's target, less `vertex`
        itself (the complete graph's self-loop).  The two-dimensional coin's
        step composes its half-moves, so it lands on the diagonal sites.
        """
        if self.spec.shift == "dirac":
            out = {self.shift_target(self.shift_target(vertex, r)[0], r2)[0]
                   for r in (0, 1) for r2 in (2, 3)}
        else:
            out = {self.shift_target(vertex, c)[0] for c in range(self.coin_dim)}
        out.discard(vertex)
        return np.array(sorted(out), dtype=np.int64)

    def mirror(self, vertex: int) -> np.ndarray:
        """An involutive automorphism g of the arena that fixes `vertex`, as
        the vertex permutation g[v].

        torus       the last axis reflected through `vertex`
        hypercube   x -> w ^ pi(x ^ w), pi swapping the bit pairs (0 1)(2 3)...
        complete    the other vertices paired up in index order
        """
        if not 0 <= vertex < self.n:
            raise IndexError(f"vertex {vertex} out of range for N={self.n}")
        index = np.arange(self.n, dtype=np.int64)
        family = self.spec.family
        if family == "torus":
            length = self.spec.dims[0]
            stride = self.n // length  # the last coordinate is the slowest
            last = index // stride
            return (2 * (vertex // stride) - last) % length * stride + index % stride
        if family == "hypercube":
            evens = sum(1 << b for b in range(0, self.spec.dims[0] - 1, 2))
            flipped = index ^ vertex
            swapped = ((flipped & evens) << 1) | ((flipped >> 1) & evens) \
                | (flipped & ~(evens | evens << 1))
            return swapped ^ vertex
        others = index[index != vertex]
        pairs = others.size // 2
        index[others[0:2 * pairs:2]], index[others[1:2 * pairs:2]] = \
            others[1:2 * pairs:2], others[0:2 * pairs:2]
        return index

    # -- shift map -------------------------------------------------------

    def shift_target(self, vertex: int, direction: int) -> tuple[int, int]:
        """Where the amplitude at (direction, vertex) moves in one shift.

        For the dirac walk, directions 0..3 are the roles up/down/left/right;
        roles 0/1 describe the first half-move (coin basis) and roles 2/3 the
        second (Hadamard basis).  Each half is a permutation of its own
        (role, vertex) domain; the composed step mixes bases, and the state
        engine and the dense oracle compose it from the two halves.
        """
        spec = self.spec
        if not 0 <= vertex < self.n:
            raise IndexError(f"vertex {vertex} out of range for N={self.n}")
        ndir = 4 if spec.shift == "dirac" else self.coin_dim
        if not 0 <= direction < ndir:
            raise IndexError(f"direction {direction} out of range")

        if spec.shift == "swap":
            return direction, vertex
        if spec.family == "hypercube":
            return vertex ^ (1 << direction), direction
        if spec.shift == "dirac":
            x, y = self.vertex_coords(vertex)
            if direction == 0:  # up: y - 1
                return self.vertex_index((x, y - 1)), 0
            if direction == 1:  # down: y + 1
                return self.vertex_index((x, y + 1)), 1
            if direction == 2:  # left: x - 1
                return self.vertex_index((x - 1, y)), 2
            return self.vertex_index((x + 1, y)), 3

        axis, sign = divmod(direction, 2)
        coords = list(self.vertex_coords(vertex))
        coords[axis] += 1 if sign == 0 else -1
        new_vertex = self.vertex_index(coords)
        if spec.shift == "flip_flop":
            return new_vertex, axis * 2 + (1 - sign)
        return new_vertex, direction  # moving shift keeps the label

    def shift_permutation(self) -> np.ndarray:
        """Permutation p with p[c*N+v] = c'*N+v' under one shift.

        Not available for the dirac walk, whose step is not a permutation of
        any single basis; use shift_target per role there.
        """
        if self.spec.shift == "dirac":
            raise ConfigurationError(
                "dirac step is a composition of two basis-conditional moves, "
                "not a basis permutation"
            )
        perm = np.empty(self.coin_dim * self.n, dtype=np.int64)
        for c in range(self.coin_dim):
            for v in range(self.n):
                v2, c2 = self.shift_target(v, c)
                perm[c * self.n + v] = c2 * self.n + v2
        return perm


def build_graph(spec: GraphSpec) -> Graph:
    """Validate a spec and return the built arena."""
    return Graph(spec)


def torus_spec(side: int, ndim: int = 2, shift: str = "flip_flop") -> GraphSpec:
    return GraphSpec("torus", (side,) * ndim, shift=shift)


def hypercube_spec(degree: int) -> GraphSpec:
    return GraphSpec("hypercube", (degree,))


def complete_spec(n: int) -> GraphSpec:
    return GraphSpec("complete", (n,), shift="swap")
