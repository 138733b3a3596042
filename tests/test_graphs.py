"""Arena construction, shift maps, and their structural invariants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import (ConfigurationError, GraphSpec, build_graph, complete_spec, dense_unitary,
                     hypercube_spec, torus_spec)

from helpers import arenas, translate


def test_torus_sizes():
    g = build_graph(torus_spec(4))
    assert (g.n, g.coin_dim) == (16, 4)


def test_hypercube_sizes():
    g = build_graph(hypercube_spec(4))
    assert (g.n, g.coin_dim) == (16, 4)


def test_complete_swap_rule():
    g = build_graph(complete_spec(8))
    assert g.coin_dim == 8
    targets, perm = g.shift_targets(), g.shift_permutation()
    for i in range(8):
        for j in range(8):  # direction i at vertex j -> direction j at vertex i
            assert targets[i, j] == i
            assert perm[i * 8 + j] == j * 8 + i


@pytest.mark.parametrize("bad", [
    dict(family="torus", dims=(4, 5)),                      # unequal sides
    dict(family="torus", dims=(4, 4, 4), shift="dirac"),    # dirac is 2D only
    dict(family="torus", dims=(4, 4), shift="swap"),
    dict(family="torus", dims=(1, 1)),                      # side below 2
    dict(family="ladder", dims=(4,)),                       # unknown family
    dict(family="hypercube", dims=(3, 3)),
    dict(family="hypercube", dims=(3,), shift="moving"),
    dict(family="complete", dims=(8,), shift="flip_flop"),
    dict(family="complete", dims=(1,), shift="swap"),
    dict(family="torus", dims=(4, 4), shift="nope"),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ConfigurationError):
        GraphSpec(**bad)


def test_zero_dimensions_rejected():
    with pytest.raises(ConfigurationError, match="dims must be positive integers"):
        torus_spec(4, 0)
    with pytest.raises(ConfigurationError, match="dims must be positive integers"):
        GraphSpec("hypercube", (0,))


def test_flip_flop_wraps_and_reverses():
    g = build_graph(torus_spec(4))
    v = g.vertex_index((3, 0))
    assert g.shift_targets([v])[0, 0] == g.vertex_index((0, 0))
    assert g.shift_permutation()[v] == 1 * g.n + g.vertex_index((0, 0))


def test_moving_keeps_direction():
    g = build_graph(torus_spec(4, shift="moving"))
    v = g.vertex_index((3, 0))
    assert g.shift_targets([v])[0, 0] == g.vertex_index((0, 0))
    assert g.shift_permutation()[v] == 0 * g.n + g.vertex_index((0, 0))


def test_flip_flop_shift_is_involution():
    g = build_graph(torus_spec(5, 3))
    perm = g.shift_permutation()
    assert np.array_equal(perm[perm], np.arange(g.coin_dim * g.n))


@pytest.mark.parametrize("spec", arenas("parity", shift=("flip_flop", "moving", "swap")))
def test_shift_is_permutation(spec):
    g = build_graph(spec)
    perm = g.shift_permutation()
    assert np.array_equal(np.sort(perm), np.arange(g.coin_dim * g.n))


def test_dirac_substeps_are_role_permutations():
    g = build_graph(torus_spec(5, shift="dirac"))
    targets = g.shift_targets()
    assert targets.shape == (4, g.n)
    for role in range(4):  # each role moves every vertex to a distinct vertex
        assert np.array_equal(np.sort(targets[role]), np.arange(g.n))
    # up, down, left, right from (2, 2)
    assert list(targets[:, g.vertex_index((2, 2))]) == [
        g.vertex_index(c) for c in [(2, 1), (2, 3), (1, 2), (3, 2)]]


@pytest.mark.parametrize("spec", list(dict.fromkeys(arenas("moves") + arenas("small"))),
                         ids=GraphSpec.label)
def test_reverse_moves_undo_each_move(spec):
    # the one statement of which move undoes which: the flip-flop shift's
    # labels, the moving shift's reads and the oracle's reversal take it
    g = build_graph(spec)
    if spec.shift == "swap":
        with pytest.raises(ConfigurationError, match="no move undoes another"):
            g.reverse_moves()
        return
    reverse = g.reverse_moves()
    targets = g.shift_targets()
    assert reverse.shape == (targets.shape[0],)
    assert np.array_equal(reverse[reverse], np.arange(reverse.size))
    for c, back in enumerate(reverse):
        assert np.array_equal(g.shift_targets(targets[c])[back], np.arange(g.n)), c
    if spec.family == "torus" and spec.shift == "flip_flop":
        assert np.array_equal(reverse, g.shift_labels().ravel())


def test_dirac_has_no_single_basis_permutation():
    g = build_graph(torus_spec(4, shift="dirac"))
    with pytest.raises(ConfigurationError):
        g.shift_permutation()


@given(side=st.integers(2, 9), ndim=st.integers(1, 3),
       shift=st.sampled_from(["flip_flop", "moving"]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_torus_shift_commutes_with_translations(side, ndim, shift, data):
    g = build_graph(torus_spec(side, ndim, shift=shift))
    v = data.draw(st.integers(0, g.n - 1))
    c = data.draw(st.integers(0, g.coin_dim - 1))
    offset = data.draw(st.tuples(*[st.integers(0, side - 1)] * ndim))
    perm = g.shift_permutation()
    c2, v2 = divmod(int(perm[c * g.n + v]), g.n)
    c2t, v2t = divmod(int(perm[c * g.n + translate(g, v, offset)]), g.n)
    assert (v2t, c2t) == (translate(g, v2, offset), c2)


def test_out_of_range_indices():
    # one vertex check for every lookup: a bool or a float is no vertex, even
    # where it equals one, and a marked set repeats no vertex
    g = build_graph(torus_spec(4))
    for vertex in (-1, 16, True, 2.0):
        with pytest.raises(ConfigurationError):
            g.neighbors(vertex)
        with pytest.raises(ConfigurationError):
            g.symmetries((vertex,))
    with pytest.raises(ConfigurationError, match="distinct"):
        g.symmetries((3, 3))


def test_vertex_indexing_first_coordinate_fastest():
    g = build_graph(torus_spec(4, 2))
    assert g.vertex_index((1, 0)) == 1
    assert g.vertex_index((0, 1)) == 4
    assert g.vertex_coords(7) == (3, 1)
    assert g.vertex_index((-1, 5)) == g.vertex_index((3, 1))  # coordinates wrap


def test_neighbors():
    g = build_graph(torus_spec(4))
    assert list(g.neighbors(0)) == sorted([g.vertex_index(c)
                                           for c in [(1, 0), (3, 0), (0, 1), (0, 3)]])
    gd = build_graph(torus_spec(4, shift="dirac"))
    assert list(gd.neighbors(0)) == sorted([gd.vertex_index(c)
                                            for c in [(1, 1), (1, 3), (3, 1), (3, 3)]])
    gh = build_graph(hypercube_spec(3))
    assert list(gh.neighbors(0)) == [1, 2, 4]
    gc = build_graph(complete_spec(5))
    assert list(gc.neighbors(2)) == [0, 1, 3, 4]


def _adjacent(g, u, v) -> bool:
    """One-step reachability from the definitions, pair by pair."""
    spec = g.spec
    if u == v:
        return False
    if spec.family == "complete":
        return True
    if spec.family == "hypercube":
        return bin(u ^ v).count("1") == 1
    length = spec.dims[0]
    gaps = [(a - b) % length for a, b in zip(g.vertex_coords(u), g.vertex_coords(v))]
    unit = [gap in (1, length - 1) for gap in gaps]
    if spec.shift == "dirac":  # both coordinates move
        return all(unit)
    return sum(unit) == 1 and sum(gap != 0 for gap in gaps) == 1


@pytest.mark.parametrize("spec", arenas("edge"), ids=GraphSpec.label)
def test_neighbors_match_brute_force(spec):
    g = build_graph(spec)
    for v in range(g.n):
        expected = [u for u in range(g.n) if _adjacent(g, u, v)]
        assert list(g.neighbors(v)) == expected
    with pytest.raises(ConfigurationError, match="out of range"):
        g.neighbors(g.n)


def test_side_two_torus_deduplicates_neighbors():
    g = build_graph(torus_spec(2))
    # +x and -x wrap to the same vertex on side 2
    assert list(g.neighbors(0)) == [1, 2]


@pytest.mark.parametrize("spec", dict.fromkeys(arenas("edge") + arenas("small")),
                         ids=GraphSpec.label)
def test_closed_neighborhood_is_the_union_of_single_steps(spec):
    # one shift_targets call for a vertex set reaches what each vertex's
    # own step reaches (dict.fromkeys drops the arenas both sets hold)
    g = build_graph(spec)
    for vertices in [(0,), (0, g.n - 1), tuple(range(0, g.n, 3))]:
        union = set(vertices).union(*(g.neighbors(v).tolist() for v in vertices))
        around = g.closed_neighborhood(vertices)
        assert around.dtype == np.int64
        assert around.tolist() == sorted(union)
    for value in (True, 1.0, g.n):
        with pytest.raises(ConfigurationError, match=re.escape(str(value))):
            g.closed_neighborhood((value,))


def test_arena_too_large_for_one_array_rejected():
    spec = torus_spec(10**7, 3)
    assert spec.n_vertices == 10**21  # exact, not wrapped at 2^64
    with pytest.raises(ConfigurationError, match="float64 array"):
        build_graph(spec)
    with pytest.raises(ConfigurationError, match="float64 array"):
        build_graph(hypercube_spec(55))
    cube = build_graph(hypercube_spec(54))  # the largest degree whose state fits one array
    assert np.array_equal(cube.shift_targets([0])[:, 0], [1 << i for i in range(54)])


def test_spec_accepts_list_dims():
    spec = GraphSpec("torus", [4, 4])
    assert spec.dims == (4, 4)


def test_spec_rejects_non_integer_dims():
    for dims in [(4.7, 4.7), (4.0, 4.0), ("4", "4")]:
        with pytest.raises(ConfigurationError, match="integers"):
            GraphSpec("torus", dims)
    assert GraphSpec("torus", np.array([4, 4])).dims == (4, 4)


@pytest.mark.parametrize("value", [True, 4.0], ids=["bool", "float"])
def test_a_size_or_vertex_that_is_no_integer_is_refused(value):
    # operator.index takes True as 1; a bool is no size, dimension count or
    # vertex, and each refusal names the value
    marked_set = build_graph(torus_spec(4)).marked_set
    entries = (hypercube_spec, complete_spec, torus_spec, lambda v: torus_spec(4, v),
               lambda v: GraphSpec("torus", (4, v)), marked_set, lambda v: marked_set((v,)))
    for entry in entries:
        with pytest.raises(ConfigurationError, match=re.escape(repr(value))):
            entry(value)


def test_shift_fixes_the_coin():
    assert torus_spec(4, shift="dirac").coin == "dirac2"
    labels = [spec.label() for spec in (
        torus_spec(4), torus_spec(4, shift="moving"), torus_spec(4, shift="dirac"),
        torus_spec(3, 3), hypercube_spec(5), complete_spec(9))]
    assert labels == ["torus(4x4,flip_flop,grover)", "torus(4x4,moving,grover)",
                      "torus(4x4,dirac,dirac2)", "torus(3x3x3,flip_flop,grover)",
                      "hypercube(5,flip_flop,grover)", "complete(9,swap,grover)"]


def test_arena_fixes_the_marking():
    markings = [spec.marking for spec in (
        torus_spec(4), torus_spec(4, shift="moving"), torus_spec(4, shift="dirac"),
        torus_spec(3, 3), hypercube_spec(5), complete_spec(9))]
    assert markings == ["minus_identity", "minus_identity", "projector_flip",
                        "minus_identity", "minus_identity", "minus_c0"]


@pytest.mark.parametrize("spec", arenas("parity"), ids=GraphSpec.label)
def test_mirror_is_an_involutive_automorphism_fixing_its_vertex(spec):
    g = build_graph(spec)
    vertices = sorted({0, 3 % g.n, g.n - 1})
    maps = [(mirror, vertex, vertex) for vertex in vertices
            for mirror in g.symmetries((vertex,))]
    if spec.family == "torus":  # the point reflection through (u + w)/2 swaps u and w
        maps += [(g.reflect(np.add(g.vertex_coords(u), g.vertex_coords(w))), u, w)
                 for u in vertices for w in vertices]
    for mirror, u, w in maps:
        assert (mirror[u], mirror[w]) == (w, u)
        assert np.array_equal(mirror[mirror], np.arange(g.n))
        for v in range(g.n):  # every edge goes to an edge
            assert np.array_equal(np.sort(mirror[g.neighbors(v)]), g.neighbors(int(mirror[v])))


@pytest.mark.parametrize("spec", arenas("parity"), ids=GraphSpec.label)
def test_lift_sends_each_direction_to_the_image_of_its_target(spec):
    g = build_graph(spec)
    (mirror, *_) = g.symmetries((3 % g.n,)) or (np.arange(g.n),)
    lift = g.lift(mirror).reshape(g.coin_dim, g.n)
    targets = g.shift_targets()[:g.coin_dim]
    assert np.array_equal(np.sort(lift.ravel()), np.arange(g.coin_dim * g.n))
    assert np.array_equal(lift % g.n, np.broadcast_to(mirror, lift.shape))
    assert np.array_equal(targets.ravel()[lift], mirror[targets])
    if spec.shift != "dirac":  # the lift commutes with the shift
        perm, flat = g.shift_permutation(), lift.ravel()
        assert np.array_equal(perm[flat], flat[perm])


def _mirror_id(case):
    spec, where = case
    return f"{spec.label()}-{where}"


@pytest.mark.parametrize("case", [(spec, where) for name in ("small", "parity", "mirror_swaps")
                                  for spec in arenas(name) for where in ("first", "last")],
                         ids=_mirror_id)
def test_mirrors_are_commuting_reflections_through_the_vertex(case):
    # each mirror of Graph.symmetries is an involutive automorphism that
    # fixes its vertex and is no identity; they commute pairwise and, lifted,
    # with a permutation shift (the oracle checks every shift's U' against
    # them)
    spec, where = case
    g = build_graph(spec)
    vertex = 0 if where == "first" else g.n - 1
    chain = g.symmetries((vertex,))
    mirrors = chain[:-1] if len(chain) >= 3 else chain  # a swap follows two or more mirrors
    lifts = [g.lift(mirror) for mirror in mirrors]
    for mirror, lift in zip(mirrors, lifts):
        assert mirror[vertex] == vertex and np.any(mirror != np.arange(g.n))
        assert np.array_equal(mirror[mirror], np.arange(g.n))
        for v in range(g.n):  # every edge goes to an edge
            assert np.array_equal(np.sort(mirror[g.neighbors(v)]), g.neighbors(int(mirror[v])))
        assert all(np.array_equal(lift[other], other[lift]) for other in lifts)
        if spec.shift != "dirac":
            move = g.shift_permutation()
            assert np.array_equal(move[lift], lift[move])
    if spec.family == "torus":  # one per axis of more than two sites; dirac's last alone
        axes = 1 if spec.shift == "dirac" else len(spec.dims)
        assert len(mirrors) == (spec.dims[0] > 2) * axes
    elif spec.family == "hypercube":
        assert len(mirrors) == spec.dims[0] // 2


@pytest.mark.parametrize("side", [2, 3, 4])
def test_lift_of_a_point_reflection_reverses_directions_past_side_2(side):
    g = build_graph(torus_spec(side, 3))
    lift = g.lift(g.reflect(0)).reshape(g.coin_dim, g.n) // g.n
    # on side 2 both senses of an axis reach the same vertex: the label stays
    own = np.arange(g.coin_dim) if side == 2 else g.reverse_moves()
    assert np.array_equal(lift, np.broadcast_to(own[:, None], lift.shape))
    swap = np.arange(g.n)
    swap[[0, 1]] = 1, 0  # moves one vertex onto a neighbour, no automorphism
    with pytest.raises(ValueError, match="no automorphism"):
        g.lift(swap)


def test_mirror_maps_of_each_family():
    torus = build_graph(torus_spec(5, 3))
    vertex = torus.vertex_index((1, 2, 3))
    for u in range(torus.n):
        x, y, z = torus.vertex_coords(u)
        assert [mirror[u] for mirror in torus.symmetries((vertex,))[:3]] == [
            torus.vertex_index(c) for c in ((2 - x, y, z), (x, 4 - y, z), (x, y, 6 - z))]
    dirac = build_graph(torus_spec(5, shift="dirac"))  # its last axis alone
    assert np.array_equal(*dirac.symmetries((7,)), dirac.reflect(2 * 1, axes=(-1,)))
    cube = build_graph(hypercube_spec(5))  # bits (0 1), then (2 3), swap; bit 4 stays
    low, high, _ = cube.symmetries((0b00110,))
    assert low[0b00110 ^ 0b00001] == 0b00110 ^ 0b00010 and high[0b00110 ^ 0b00001] == 0b00111
    assert high[0b00110 ^ 0b10100] == 0b00110 ^ 0b11000 and low[0b00110 ^ 0b10100] == 0b10010
    # N = 6: the others 0, 1, 3, 4, 5 are labels 0..4, and one whole run of 4
    # holds two thirds of them (k = 2); label 4, vertex 5, stays
    assert [m.tolist() for m in build_graph(complete_spec(6)).symmetries((2,))[:2]] == [
        [1, 0, 2, 4, 3, 5], [3, 4, 2, 0, 1, 5]]
    # N = 32: the 31 others hold three runs of 8 (k = 3), not one of 16
    others = [v for v in range(32) if v != 5]
    *mirrors, _ = build_graph(complete_spec(32)).symmetries((5,))
    assert len(mirrors) == 3
    for bit, mirror in enumerate(mirrors):
        assert [others.index(mirror[v]) for v in others] == [
            label ^ (1 << bit) if label < 24 else label for label in range(31)]


@pytest.mark.parametrize("case", [(spec, where) for name in ("parity", "edge", "swap")
                                  for spec in arenas(name) for where in ("first", "last")],
                         ids=_mirror_id)
def test_swap_is_an_automorphism_that_exchanges_the_first_two_mirrors(case):
    # the swap of Graph.symmetries is an involutive automorphism that fixes
    # its vertex and maps the mirrors through it onto one another under
    # conjugation, the first two exchanged; lifted, it commutes with a
    # permutation shift and with the dense oracle's time reversal.  One rule
    # says where there is one: a swap, the last map of the chain and the one
    # that does not commute with the first, follows only two or more mirrors,
    # so a chain holds 0, 1 or at least 3 maps.  No marked vertex, or two,
    # have no chain
    spec, where = case
    g = build_graph(spec)
    vertex = 0 if where == "first" else g.n - 1
    assert g.symmetries(()) == () == g.symmetries((vertex, (vertex + 1) % g.n))
    chain, index = g.symmetries((vertex,)), np.arange(g.n)
    assert len(chain) != 2
    swap = chain[-1] if len(chain) > 1 and not np.array_equal(chain[0][chain[-1]],
                                                              chain[-1][chain[0]]) else None
    mirrors = chain[:len(chain) - (swap is not None)]
    assert (swap is not None) == (len(mirrors) >= 2)
    if swap is None:
        return
    assert swap[vertex] == vertex and np.any(swap != index)
    assert np.array_equal(swap[swap], index)
    for v in range(g.n):  # every edge goes to an edge
        assert np.array_equal(np.sort(swap[g.neighbors(v)]), g.neighbors(int(swap[v])))
    onto = [next(i for i, other in enumerate(mirrors) if np.array_equal(swap[mirror[swap]], other))
            for mirror in mirrors]
    assert onto == [1, 0, *range(2, len(mirrors))]
    lift = g.lift(swap)
    move = g.shift_permutation()
    assert np.array_equal(move[lift], lift[move])
    reflection = dense_unitary(g, (vertex,)).reflection
    assert np.array_equal(reflection[lift], lift[reflection])


def test_swap_maps_of_each_family():
    torus = build_graph(torus_spec(5, 3))  # axes 0 and 1 exchanged through (1, 2, 3)
    *_, swap = torus.symmetries((torus.vertex_index((1, 2, 3)),))
    for u in range(torus.n):
        x, y, z = torus.vertex_coords(u)
        assert torus.vertex_coords(int(swap[u])) == ((y - 1) % 5, (x + 1) % 5, z)
    cube = build_graph(hypercube_spec(5))  # bits 0 and 2, 1 and 3 of x ^ w exchange
    *_, swap = cube.symmetries((0b00110,))
    for flipped, image in ((0b00001, 0b00100), (0b00010, 0b01000), (0b10011, 0b11100),
                           (0b10000, 0b10000), (0b01111, 0b01111)):
        assert swap[0b00110 ^ flipped] == 0b00110 ^ image
    # N = 6 at vertex 2: labels 0..3 are vertices 0, 1, 3, 4; bits 0 and 1
    # exchange labels 1 and 2, vertices 1 and 3; label 4, vertex 5, stays
    assert build_graph(complete_spec(6)).symmetries((2,))[-1].tolist() == [0, 3, 2, 1, 4, 5]
    # N = 32 at vertex 5: the 31 others hold three runs of 8, and label 24 stays
    others = [v for v in range(32) if v != 5]
    *_, swap = build_graph(complete_spec(32)).symmetries((5,))
    assert [others.index(swap[v]) for v in others] == [
        label & ~3 | (label & 1) << 1 | (label >> 1) & 1 if label < 24 else label
        for label in range(31)]
    # N = 3 and 4: the others hold one run of 2 (k = 1), one mirror and no swap
    for n in (3, 4):
        assert len(build_graph(complete_spec(n)).symmetries((0,))) == 1


@pytest.mark.parametrize("spec", arenas("parity"), ids=GraphSpec.label)
def test_coordinates_round_trip(spec):
    g = build_graph(spec)
    coords = g.coordinates()
    assert coords.shape == (len(g.vertex_shape), g.n)
    assert np.array_equal(g.vertex_index(coords), np.arange(g.n))
    for v in range(g.n):
        assert g.vertex_coords(v) == tuple(coords[:, v])
        index = g.vertex_index(g.vertex_coords(v))
        assert type(index) is int and index == v


@pytest.mark.parametrize("spec", arenas("parity"), ids=GraphSpec.label)
def test_shift_targets_of_a_subset_are_columns_of_the_table(spec):
    g = build_graph(spec)
    table = g.shift_targets()
    assert table.shape == (4 if spec.shift == "dirac" else g.coin_dim, g.n)
    for subset in ([0], [g.n - 1, 0], list(range(g.n))[::-2]):
        assert np.array_equal(g.shift_targets(subset), table[:, subset])
