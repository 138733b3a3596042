"""Arena construction, shift maps, and their structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import (ConfigurationError, GraphSpec, build_graph, complete_spec,
                     hypercube_spec, torus_spec)


def test_torus_sizes():
    g = build_graph(torus_spec(4))
    assert (g.n, g.coin_dim) == (16, 4)


def test_hypercube_sizes():
    g = build_graph(hypercube_spec(4))
    assert (g.n, g.coin_dim) == (16, 4)


def test_complete_swap_rule():
    g = build_graph(complete_spec(8))
    assert g.coin_dim == 8
    for i in range(8):
        for j in range(8):
            assert g.shift_target(j, i) == (i, j)


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


def test_flip_flop_wraps_and_reverses():
    g = build_graph(torus_spec(4))
    v = g.vertex_index((3, 0))
    assert g.shift_target(v, 0) == (g.vertex_index((0, 0)), 1)


def test_moving_keeps_direction():
    g = build_graph(torus_spec(4, shift="moving"))
    v = g.vertex_index((3, 0))
    assert g.shift_target(v, 0) == (g.vertex_index((0, 0)), 0)


def test_flip_flop_shift_is_involution():
    g = build_graph(torus_spec(5, 3))
    for v in range(g.n):
        for c in range(g.coin_dim):
            v2, c2 = g.shift_target(v, c)
            assert g.shift_target(v2, c2) == (v, c)


@pytest.mark.parametrize("spec", [
    torus_spec(4), torus_spec(4, shift="moving"), torus_spec(3, 3),
    hypercube_spec(5), complete_spec(9), torus_spec(8),
    torus_spec(16), torus_spec(8, 3), hypercube_spec(9), complete_spec(64),
])
def test_shift_is_permutation(spec):
    g = build_graph(spec)
    perm = g.shift_permutation()
    assert np.array_equal(np.sort(perm), np.arange(g.coin_dim * g.n))


def test_dirac_substeps_are_role_permutations():
    g = build_graph(torus_spec(5, shift="dirac"))
    for roles in ((0, 1), (2, 3)):
        seen = set()
        for v in range(g.n):
            for c in roles:
                v2, c2 = g.shift_target(v, c)
                assert c2 == c  # each half-move keeps its role
                seen.add((v2, c2))
        assert len(seen) == 2 * g.n


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
    v2, c2 = g.shift_target(v, c)
    v2t, c2t = g.shift_target(g.translate(v, offset), c)
    assert (v2t, c2t) == (g.translate(v2, offset), c2)


def test_out_of_range_indices():
    g = build_graph(torus_spec(4))
    with pytest.raises(IndexError):
        g.shift_target(16, 0)
    with pytest.raises(IndexError):
        g.shift_target(0, 4)


def test_vertex_indexing_first_coordinate_fastest():
    g = build_graph(torus_spec(4, 2))
    assert g.vertex_index((1, 0)) == 1
    assert g.vertex_index((0, 1)) == 4
    assert g.vertex_coords(7) == (3, 1)


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


@pytest.mark.parametrize("spec", [
    torus_spec(2), torus_spec(5), torus_spec(3, 1), torus_spec(4, shift="moving"),
    torus_spec(2, 3), torus_spec(3, 3), torus_spec(2, shift="dirac"),
    torus_spec(5, shift="dirac"), hypercube_spec(1), hypercube_spec(4),
    complete_spec(2), complete_spec(7),
], ids=lambda s: s.label())
def test_neighbors_match_brute_force(spec):
    g = build_graph(spec)
    for v in range(g.n):
        expected = [u for u in range(g.n) if _adjacent(g, u, v)]
        assert list(g.neighbors(v)) == expected
    with pytest.raises(IndexError):
        g.neighbors(g.n)


def test_side_two_torus_deduplicates_neighbors():
    g = build_graph(torus_spec(2))
    # +x and -x wrap to the same vertex on side 2
    assert list(g.neighbors(0)) == [1, 2]


def test_spec_accepts_list_dims():
    spec = GraphSpec("torus", [4, 4])
    assert spec.dims == (4, 4)


def test_spec_rejects_non_integer_dims():
    for dims in [(4.7, 4.7), (4.0, 4.0), ("4", "4")]:
        with pytest.raises(ConfigurationError, match="integers"):
            GraphSpec("torus", dims)
    assert GraphSpec("torus", np.array([4, 4])).dims == (4, 4)


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
