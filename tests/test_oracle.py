"""Dense oracle self-checks and its cross-validation duties."""

import ast
import inspect
import math
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import walklab.engine
import walklab.oracle
import walklab.spectral
from walklab import (GraphSpec, apply_shift, build_graph, complete_spec, default_coin,
                     dense_eigens, dense_unitary, hypercube_spec, mode_spectrum, run_walk,
                     solve_alpha, step, torus_spec, uniform_state)

from helpers import (arenas, character_basis, complex_lift_eigens, dense, dense_principal_pair,
                     eigenspace_projection, listed, matvec_history, random_state, schur_eigens,
                     step_built_unitary, traced_peak, zero_filled_unitary)


def _operator(matrix, *involutions, **named):
    """The DenseOperator of a dense square `matrix`, from its listing."""
    return walklab.oracle.DenseOperator(len(matrix), listed(matrix), *involutions, **named)


# the listing of the 2 x 2 swap [[0, 1], [1, 0]]
SWAP = (np.array([1, 2]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("spec", arenas("small"))
def test_dense_unitarity(spec):
    # every entry of U' is a multiple of 2/coin_dim (of 1/2 on dirac), so where
    # coin_dim is a power of two U'^T U' is formed without rounding: exactly I
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    if spec.coin_dim & (spec.coin_dim - 1) == 0:
        assert op.unitarity_defect() == 0.0
    else:  # the 3D torus's Grover coin holds 1/3
        assert op.unitarity_defect() < 1e-10


def _exactly_summed_gram(m):
    """(M^T M, exact): each entry of M^T M as math.fsum of its products
    M[r, a] M[r, b], and whether float64 forms every sum of those products
    exactly, in any order.  It does where every entry of M is an integer
    multiple of 2^-k and every entry of |M|^T |M| lies below 2^(52 - 2k):
    every product and every partial sum is then an integer multiple of
    2^-2k below 2^(53 - 2k) in size (the factor 2 covers the rounding of
    |M|^T |M| itself)."""
    gram = np.array([[math.fsum(products) for products in (m * column[:, None]).T.tolist()]
                     for column in m.T])
    k = next((k for k in range(27) if np.array_equal(np.ldexp(m, k), np.round(np.ldexp(m, k)))),
             None)
    return gram, k is not None and bool(np.max(np.abs(m).T @ np.abs(m)) < 2.0 ** (52 - 2 * k))


@pytest.mark.parametrize("spec", arenas("small"), ids=GraphSpec.label)
def test_unitarity_defect_equals_the_explicit_formula(spec):
    # the reference sums each entry of U^T U exactly, so it rests on no
    # BLAS kernel's order.  Where every sum is exact (a coin_dim that is a
    # power of two; the reference checks this itself), the defect keeps its
    # bits.  Elsewhere each entry of the batched product sums at most dim
    # rounded products, and the defect lies within 2 dim ulps of the
    # largest entry of |U|^T |U| from the reference
    g = build_graph(spec)
    exact = dense_unitary(g, default_coin(g, marked=(1,)))
    noise = np.random.default_rng(5).normal(scale=1e-9, size=(exact.dim, exact.dim))
    power_of_two = spec.coin_dim & (spec.coin_dim - 1) == 0
    for op, every_sum_exact in ((exact, power_of_two), (_operator(dense(exact) + noise), False)):
        before = [part.copy() for part in op.nonzeros]
        m = dense(op)
        gram, summed_exactly = _exactly_summed_gram(m)
        assert summed_exactly == every_sum_exact
        reference = float(np.max(np.abs(gram - np.eye(op.dim))))
        if summed_exactly:
            assert op.unitarity_defect().hex() == reference.hex()
        else:
            ulp = np.spacing(np.max(np.abs(m).T @ np.abs(m)))
            assert abs(op.unitarity_defect() - reference) <= 2 * op.dim * ulp
        assert all(np.array_equal(part, kept) for part, kept in zip(op.nonzeros, before))


def _explicit_defect(m):
    with np.errstate(invalid="ignore"):  # an inf meets the zeros of its column's partners
        return float(np.max(np.abs(m.T @ m - np.eye(len(m)))))


def _permuted_block_diagonal(rng, sizes, block):
    """The block-diagonal matrix of block(k) for each k in `sizes`, under
    random row and column permutations."""
    m = scipy.linalg.block_diag(*(block(k) for k in sizes))
    return m[rng.permutation(len(m))][:, rng.permutation(len(m))]


def _dyadic(rng, size):
    """Random entries +-1/4 and +-3/4: every product and every sum of a few
    of them is exact, so no summation order changes a bit."""
    return rng.choice([-0.75, -0.25, 0.25, 0.75], size=size)


def _random_orthogonal(rng, k):
    return np.linalg.qr(rng.normal(size=(k, k)))[0]


@pytest.mark.parametrize("seed", range(6))
def test_unitarity_defect_of_permuted_blocks_matches_the_explicit_formula(seed):
    # each block is one group of columns that share a row, and the groups of
    # one shape take one batched product; where every sum is exact, each bit
    # of the dense product is kept, and where sums round, BLAS's dense
    # kernel adds a column pair's products in an order set by where the
    # zeros between them sit, so the two agree to rounding
    rng = np.random.default_rng(seed)
    sizes = (1, 2, 3, 3, 5, 8, 8, 13)
    exact = _permuted_block_diagonal(rng, sizes, lambda k: _dyadic(rng, (k, k)))
    rounded = _permuted_block_diagonal(rng, sizes, lambda k: _random_orthogonal(rng, k))
    for m in (exact, rounded):
        groups = walklab.oracle._column_groups(len(m), listed(m))
        assert sorted(g.shape for g in groups) == [(1, 1, 1), (1, 2, 2), (1, 5, 5), (1, 13, 13),
                                                  (2, 3, 3), (2, 8, 8)]
    defect = _operator(exact).unitarity_defect()
    assert defect.hex() == _explicit_defect(exact).hex()
    defect = _operator(rounded).unitarity_defect()
    assert abs(defect - _explicit_defect(rounded)) <= max(sizes) * np.finfo(float).eps


@pytest.mark.parametrize("seed", range(3))
def test_unitarity_defect_of_bidiagonal_chains_matches_the_explicit_formula(seed):
    # a bidiagonal pattern broken into chains of unequal length: a chain's
    # columns share a row only pairwise, so labels travel along it, and with
    # the columns permuted they take several passes to settle
    rng = np.random.default_rng(seed)
    lengths = (1, 2, 7, 12, 30)
    n = sum(lengths)
    columns = rng.permutation(n)
    for exact, draw in ((True, lambda size: _dyadic(rng, size)), (False, rng.normal)):
        m = np.diag(draw(size=n)) + np.diag(draw(size=n - 1), 1)
        m[np.cumsum(lengths)[:-1] - 1, np.cumsum(lengths)[:-1]] = 0.0  # break the chains
        m = m[:, columns]
        groups = walklab.oracle._column_groups(n, listed(m))
        assert sorted(g.shape[2] for g in groups for _ in g) == sorted(lengths)
        defect, reference = _operator(m).unitarity_defect(), _explicit_defect(m)
        if exact:
            assert defect.hex() == reference.hex()
        else:  # each entry sums at most two products
            assert abs(defect - reference) <= 2 * np.finfo(float).eps * (reference + 1.0)


@pytest.mark.parametrize("kind", ["nan", "inf", "zero column"])
def test_unitarity_defect_keeps_a_bad_entry_visible(kind):
    # the groups' maxima meet in np.max: a NaN or an inf anywhere gives a
    # defect that is not finite, as the dense product's does; a zero column
    # has a zero diagonal entry in M^T M, so the defect is exactly 1
    rng = np.random.default_rng(0)
    m = _permuted_block_diagonal(rng, (1, 2, 3, 5, 8), lambda k: _random_orthogonal(rng, k))
    column = np.flatnonzero(m[:, 7])
    if kind == "zero column":
        m[:, 7] = 0.0
    else:
        m[column[0], 7] = np.nan if kind == "nan" else np.inf
    defect = _operator(m).unitarity_defect()
    if kind == "zero column":
        assert defect == 1.0 == _explicit_defect(m)
    else:
        assert not np.isfinite(defect) and not np.isfinite(_explicit_defect(m))


@pytest.mark.parametrize("spec", arenas("dense_cap"), ids=GraphSpec.label)
def test_unitarity_defect_allocation_peak_at_the_dimension_cap(spec):
    """unitarity_defect's traced peak near the dimension cap stays at or
    below 0.25 dim^2 float64s: the column labels of U's nonzeros and each
    nonzero's place in its group's block, then each shape's stack of
    blocks, scattered from the listing, and their products (with numpy
    2.4: 0.03 at 2D and moving L=16, 0.05 at dirac L=22, 0.06 at the
    hypercube d=7 and 0.20 at the complete graph N=32, the longest
    listing).  The mask of a dense U's nonzeros alone took 0.125, and the
    dense product's Gram 1.00."""
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(0,)))
    assert 0.85 * walklab.oracle.DIMENSION_CAP <= op.dim <= walklab.oracle.DIMENSION_CAP
    assert traced_peak(op.unitarity_defect) <= 0.25 * op.dim ** 2 * 8


@pytest.mark.parametrize("marked", [(), (1,)], ids=["unmarked", "marked"])
@pytest.mark.parametrize("spec", arenas("small"), ids=GraphSpec.label)
def test_dense_unitary_equals_step_built(spec, marked):
    g = build_graph(spec)
    coin = default_coin(g, marked=marked)
    op = dense_unitary(g, coin)
    reference = step_built_unitary(g, coin)
    assert op.nonzeros[1].dtype == np.float64
    assert np.array_equal(dense(op), reference)


# the arenas of `small`, `parity` and `dense_cap`, once each, marked at
# every set that fits in the arena
_LISTED_SPECS = {spec.label(): spec for name in ("small", "parity", "dense_cap")
                 for spec in arenas(name)}.values()


@pytest.mark.parametrize("spec,marked", [
    pytest.param(spec, marked, id=f"{spec.label()}-{'-'.join(map(str, marked)) or 'unmarked'}")
    for spec in _LISTED_SPECS for marked in ((), (0,), (1, 2))
    if max(marked, default=0) < spec.n_vertices])
def test_dense_unitary_lists_the_zero_filled_build_bit_for_bit(spec, marked):
    # the listing is built with no n x n array; the zero-filled dense build
    # it replaced (helpers.zero_filled_unitary), listed, is its reference
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=marked))
    flat, values = op.nonzeros
    reference = listed(zero_filled_unitary(g, marked))
    assert np.array_equal(flat, reference[0]) and np.array_equal(values, reference[1])
    # each symmetry P, and the reflection S, maps the listing's positions
    # onto themselves, (r, c) to (P r, P c) and to (S c, S r): the one rule
    # that _check_involutions reads the images by
    rows, cols = np.divmod(flat, op.dim)
    images = [p[rows] * op.dim + p[cols] for p in op.symmetries]
    if op.reflection is not None:
        images.append(op.reflection[cols] * op.dim + op.reflection[rows])
    for image in images:
        assert np.array_equal(np.sort(image), flat)


def test_dense_unitary_does_not_call_the_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense oracle called the engine it checks")

    for name in ("step", "apply_coin", "apply_shift"):
        monkeypatch.setattr(walklab.engine, name, refuse)
        monkeypatch.setattr(walklab.oracle, name, refuse, raising=False)
    for spec in arenas("small"):
        g = build_graph(spec)
        op = dense_unitary(g, default_coin(g, marked=(1,)))
        assert op.unitarity_defect() < 1e-10


def test_unmarked_dense_fixes_uniform():
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, ())
    vec = uniform_state(g).vector
    assert np.max(np.abs(dense(op) @ vec - vec)) < 1e-12


def test_unmarked_dirac_coin_is_the_identity():
    # the two-dimensional coin is the identity off the marked set: unmarked,
    # a step is the shift alone, and marking a vertex moves only its columns
    g = build_graph(torus_spec(4, shift="dirac"))
    state = random_state(g, seed=11)
    shifted = state.copy()
    step(state, ())
    apply_shift(shifted)
    assert state.amps.tobytes() == shifted.amps.tobytes()
    unmarked, marked = (dense(dense_unitary(g, m)) for m in ((), (7,)))
    own = np.arange(g.coin_dim) * g.n + 7
    others = np.setdiff1d(np.arange(g.coin_dim * g.n), own)
    assert np.array_equal(marked[:, others], unmarked[:, others])
    assert not np.array_equal(marked[:, own], unmarked[:, own])


def test_dimension_cap():
    # only dense_eigens' n x n eigenvector array is capped: the listing's
    # routes run past the cap
    from walklab import evolve_dense
    g = build_graph(torus_spec(32))  # 4 * 1024 = 4096 > 1024
    op = dense_unitary(g, ())
    assert op.unitarity_defect() == 0.0
    start = uniform_state(g).vector
    history = evolve_dense(op, start, 3)  # unmarked: the uniform state is fixed
    assert np.max(np.abs(history - start)) < 1e-15
    with pytest.raises(ValueError, match="capped"):
        dense_eigens(op)


def _assert_eigensystem(matrix, phases, vectors, gram_tol=1e-12, recon_tol=1e-12):
    """`vectors` is an orthonormal eigenbasis of `matrix` for `phases`."""
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(len(phases)))) < gram_tol
    recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    assert np.max(np.abs(recon - matrix)) < recon_tol


def _assert_orthonormal_eigensystem(op, gram_tol=1e-10):
    phases, vectors = dense_eigens(op)
    _assert_eigensystem(dense(op), phases, vectors, gram_tol, recon_tol=1e-9)
    assert np.all(np.diff(np.abs(phases)) >= -1e-12)  # sorted by |phase|
    return phases, vectors


def test_eigens_orthonormal_basis():
    g = build_graph(torus_spec(4))
    _assert_orthonormal_eigensystem(dense_unitary(g, (0,)))


@pytest.mark.parametrize("spec,marked", [
    *(pytest.param(spec, (1,), id=spec.label()) for spec in arenas("small")),
    # unmarked, both spectra are heavily degenerate
    pytest.param(hypercube_spec(6), (), id="hypercube(6)-unmarked"),
    pytest.param(complete_spec(16), (), id="complete(16)-unmarked"),
    # wide turning cos-levels: 42 and 70 eigenvalues wide unmarked, and wide
    # ones in the mirrors' blocks when marked at vertex 0
    pytest.param(hypercube_spec(7), (), id="hypercube(7)-unmarked"),
    pytest.param(hypercube_spec(7), (0,), id="hypercube(7)-marked-0"),
    # close cos-levels of U + U^T (the moving tori) and arenas at the dimension
    # cap: every eigenvector still holds to rounding
    pytest.param(torus_spec(10, shift="moving"), (10,), id="moving(10x10)-marked-10"),
    pytest.param(torus_spec(12, shift="moving"), (12,), id="moving(12x12)-marked-12"),
    pytest.param(torus_spec(12, shift="moving"), (60,), id="moving(12x12)-marked-60"),
    pytest.param(torus_spec(16), (7,), id="torus(16x16)-marked-7"),
    pytest.param(torus_spec(16), (0, 1), id="torus(16x16)-two-marked"),
    # the dirac walk at the cap, through its signed time reversal
    pytest.param(torus_spec(22, shift="dirac"), (), id="dirac(22)-unmarked"),
    pytest.param(torus_spec(22, shift="dirac"), (0,), id="dirac(22)-marked-0"),
    pytest.param(torus_spec(22, shift="dirac"), (7,), id="dirac(22)-marked-7"),
    pytest.param(torus_spec(22, shift="dirac"), (0, 1), id="dirac(22)-two-marked"),
])
def test_eigens_orthonormal_basis_every_family(spec, marked):
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=marked))
    phases, vectors = _assert_orthonormal_eigensystem(op, gram_tol=1e-14)
    # U is real: two real products cost half of one complex product
    matrix = dense(op)
    image = matrix @ vectors.real + 1j * (matrix @ vectors.imag)
    residuals = np.linalg.norm(image - vectors * np.exp(1j * phases), axis=0)
    assert residuals.max() <= 3e-14


def test_dense_eigens_at_the_dimension_cap():
    spec = torus_spec(16)  # 4 * 256 = 1024, the cap
    g = build_graph(spec)
    phases, _ = _assert_orthonormal_eigensystem(dense_unitary(g, (0,)))
    principal = np.min(np.abs(phases[np.abs(phases) > 1e-8]))
    assert principal == pytest.approx(solve_alpha(mode_spectrum(spec)), rel=1e-9, abs=0)


def _eigens(matrix, reflection=None, symmetries=(), flips=None):
    """dense_eigens of `matrix` with these involutions, checked as the operator is built."""
    return dense_eigens(_operator(matrix, reflection, symmetries, flips))


def _signed_matrix(pairing, flips):
    """The matrix of the signed involution S e_j = -+e_pairing[j] (- where flips[j])."""
    n = len(pairing)
    matrix = np.zeros((n, n))
    matrix[pairing, np.arange(n)] = np.where(flips, -1.0, 1.0)
    return matrix


def _signed_pairing(matrix):
    """(pairing, flips) of a signed permutation matrix, to rounding."""
    pairing = np.argmax(np.abs(matrix), axis=0)
    return pairing, matrix[pairing, np.arange(len(pairing))] < 0


def _fold(phases):
    # -1 comes out as pi or, by rounding, as -pi: count it as pi
    return np.sort(np.where(phases < -np.pi + 1e-9, phases + 2 * np.pi, phases))


def _orthogonal_with_known_phases(seed, small=1e-6):
    """A dense orthogonal U with the eigenphases of a block-diagonal D of
    rotations (by `small` and pi - `small` among them) and +-1 singletons,
    and a seeded random signed involution S (10 2-cycles and 3 fixed
    points, random signs) that is a time reversal of it.  U = Q D Q^T,
    where Q = X W: X is an eigenbasis of S, W maps each of S's eigenspaces
    into itself at random, and each rotation of D turns a +1 and a -1
    eigenvector of S, so that diag(S) D diag(S) = D^T.  Returns (U, the
    phases of D folded, (pairing, flips) of S)."""
    angles = [0.0, np.pi, small, np.pi - small, *[0.7] * 4, 2.0]  # 0.7 is fourfold
    singletons = [1.0, 1.0, 1.0, -1.0, -1.0]
    n = 2 * len(angles) + len(singletons)
    rng = np.random.default_rng(seed)
    pairing = _random_pairing(n, seed, pairs=10)
    flips = rng.random(n) < 0.5
    flips = flips[np.minimum(pairing, np.arange(n))]  # one sign per 2-cycle
    signs, basis = np.linalg.eigh(_signed_matrix(pairing, flips))
    plus, minus = np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
    turn = np.zeros((n, n))
    for half in (plus, minus):
        turn[np.ix_(half, half)] = np.linalg.qr(rng.normal(size=(half.size, half.size)))[0]
    d = np.zeros((n, n))
    for a, i, j in zip(angles, plus, minus):
        d[np.ix_([i, j], [i, j])] = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
    rest = np.r_[plus[len(angles):], minus[len(angles):]]
    d[rest, rest] = singletons
    q = basis @ turn
    phases = [*angles, *(-a for a in angles), *(0.0 if s > 0 else np.pi for s in singletons)]
    return q @ d @ q.T, _fold(np.array(phases)), (pairing, flips)


@pytest.mark.parametrize("seed,small", [
    *(pytest.param(seed, 1e-6, id=str(seed)) for seed in (0, 1, 2)),
    # eigh resolves 2 cos(theta) = 2 - theta^2 from the still vectors at 2
    # only to about eps/theta^2 and mixes them; the cross block's singular
    # vectors part them again, on both sides of _NEAR_STILL (|sin| = 0.05)
    *(pytest.param(seed, small, id=f"{seed}-{small:g}")
      for small in (1e-10, 1e-8, 1e-4, 1e-3, 0.03, 0.05, 0.07) for seed in range(6)),
])
def test_block_eigens_recovers_known_phases(seed, small):
    matrix, expected, (pairing, flips) = _orthogonal_with_known_phases(seed, small)
    phases, vectors = _eigens(matrix, pairing, flips=flips)
    assert np.max(np.abs(_fold(phases) - expected)) < 1e-12
    _assert_eigensystem(matrix, phases, vectors)


def test_near_still_pairing_runs_its_svd_only_where_a_vector_is_near_still(monkeypatch):
    # no block of the oracle arenas, marked at vertex 0, has a vector near
    # still, so no side of any block needs the cross block's SVD; a small
    # angle does
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args: calls.append(args) or svd(*args))
    for spec in arenas("oracle"):
        g = build_graph(spec)
        dense_eigens(dense_unitary(g, default_coin(g, marked=(0,))))
    assert calls == []
    matrix, _, (pairing, flips) = _orthogonal_with_known_phases(0, 1e-4)
    _eigens(matrix, pairing, flips=flips)
    assert calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_eigens_refuses_a_non_normal_matrix(seed):
    # U + S E with E symmetric keeps S a time reversal, but is not normal
    matrix, _, (pairing, flips) = _orthogonal_with_known_phases(seed)
    bump = np.zeros_like(matrix)
    bump[0, 1] = bump[1, 0] = 1e-6
    matrix += _signed_matrix(pairing, flips) @ bump
    with pytest.raises(ArithmeticError, match="not normal"):
        _eigens(matrix, pairing, flips=flips)


def test_block_eigens_refuses_complex_input():
    matrix, _, (pairing, flips) = _orthogonal_with_known_phases(0)
    with pytest.raises(TypeError, match="real orthogonal"):
        _eigens(matrix.astype(np.complex128), pairing, flips=flips)


@pytest.mark.parametrize("spec", arenas("small"), ids=GraphSpec.label)
def test_block_eigens_real_matches_complex(spec):
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))

    matrix = dense(op)
    real = _fold(_eigens(matrix, op.reflection, flips=op.flips)[0])  # S alone, without G
    reference = _fold(schur_eigens(matrix.astype(np.complex128))[0])
    assert np.max(np.abs(real - reference)) < 1e-12


@pytest.mark.parametrize("marked", [(), (1,)], ids=["unmarked", "marked"])
@pytest.mark.parametrize("side", range(2, 23))
def test_dirac_phases_match_schur(side, marked):
    # every dirac side up to the cap, solved through its signed time reversal
    # (and its one mirror, with one marked vertex), against the complex Schur
    # form on sides 2-6 and past them against np.linalg.eigvals of the real
    # matrix (LAPACK dgeev), which reads the same phases in a third of the time
    op = dense_unitary(build_graph(torus_spec(side, shift="dirac")), marked)
    phases = _fold(dense_eigens(op)[0])
    if side <= 6:
        reference = _fold(schur_eigens(dense(op).astype(np.complex128))[0])
    else:
        reference = _fold(np.angle(np.linalg.eigvals(dense(op))))
    assert np.max(np.abs(phases - reference)) < 1e-12


# (arena, marked set) whose dense operator has a reflection, so dense_eigens
# runs in its eigenbasis: the shift where it is a symmetric involution, the
# moving shift after the direction reversal (its smallest nonzero phase is
# degenerate, so it has no principal pair to compare); unmarked, the
# hypercube and complete spectra are heavily degenerate
SPLIT_CASES = [(torus_spec(32, 1), (1,)), (torus_spec(4), (1,)), (torus_spec(3, 3), (1,)),
               (hypercube_spec(5), (1,)), (complete_spec(16), (1,)), (torus_spec(6), (0, 14)),
               (hypercube_spec(6), ()), (complete_spec(16), ()),
               (torus_spec(8, 1, shift="moving"), (1,)), (torus_spec(4, shift="moving"), (1,)),
               (torus_spec(5, shift="moving"), (1,)), (torus_spec(3, 3, shift="moving"), (1,)),
               (torus_spec(6, shift="moving"), (0, 14)), (torus_spec(4, shift="moving"), ())]


def _split_id(case):
    spec, marked = case
    name = "moving" if spec.shift == "moving" else spec.family
    one_d = "-1D" if spec.family == "torus" and len(spec.dims) == 1 else ""
    marking = {0: "-unmarked", 1: "", 2: "-two-marked"}[len(marked)]
    return f"{name}({'x'.join(map(str, spec.dims))}){one_d}{marking}"


@pytest.mark.parametrize("case", SPLIT_CASES, ids=_split_id)
def test_split_eigensolve_matches_the_whole_one_and_schur(case):
    spec, marked = case
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=marked))
    assert op.reflection is not None
    split = _fold(dense_eigens(op)[0])  # by the mirrors first where one vertex is marked
    whole = _fold(_eigens(dense(op), op.reflection, flips=op.flips)[0])  # S alone
    reference = _fold(schur_eigens(dense(op).astype(np.complex128))[0])
    assert np.max(np.abs(split - whole)) < 1e-12
    assert np.max(np.abs(split - reference)) < 1e-12
    _assert_orthonormal_eigensystem(op)


@pytest.mark.parametrize("case", [c for c in SPLIT_CASES if c[0].shift != "moving"],
                         ids=_split_id)
def test_split_principal_pair_matches_the_whole_route(case):
    spec, marked = case
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=marked))
    whole = walklab.oracle.DenseOperator(op.dim, op.nonzeros, op.reflection,
                                         flips=op.flips)  # S alone
    vertex = marked[0] if marked else 0
    if not marked:  # the principal level is degenerate: its overlaps would depend on the basis
        for route in (op, whole):
            with pytest.raises(ArithmeticError, match="no unique principal pair"):
                dense_principal_pair(route, g, vertex)
        return
    split = dense_principal_pair(op, g, vertex)
    assert split == pytest.approx(dense_principal_pair(whole, g, vertex), rel=0, abs=1e-12)


@pytest.mark.parametrize("spec,involutive", [
    (torus_spec(32, 1), True), (torus_spec(4), True), (torus_spec(3, 3), True),
    (torus_spec(2), True), (hypercube_spec(4), True), (complete_spec(16), True),
    (torus_spec(4, shift="dirac"), False),  # the dirac step is no permutation
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_dense_operator_keeps_the_shift_as_reflection_iff_it_is_an_involution(spec, involutive):
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    if not involutive:  # its reflection is the signed C' T C' (see the time reversal tests)
        assert op.reflection is not None and op.flips.any()
        return
    assert not op.flips.any()
    perm = g.shift_permutation()
    assert np.array_equal(op.reflection, perm)
    assert np.array_equal(perm[perm], np.arange(op.dim))
    matrix = dense(op)
    assert np.array_equal(matrix[perm][:, perm], matrix.T)  # S U S = U^T, exactly


@pytest.mark.parametrize("spec", arenas("moves", shift="moving", max_dim=750),
                         ids=GraphSpec.label)
def test_dense_operator_keeps_the_reversed_moving_shift_as_reflection(spec):
    """The moving walk's reflection is its shift after the direction reversal c <-> c^1."""
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    reversal = (np.arange(g.coin_dim) ^ 1)[:, None] * g.n + np.arange(g.n)
    perm = g.shift_permutation()[reversal.reshape(-1)]
    assert np.all(perm != np.arange(op.dim))  # no fixed point
    assert np.array_equal(op.reflection, perm)
    assert np.array_equal(perm[perm], np.arange(op.dim))
    matrix = dense(op)
    assert np.array_equal(matrix[perm][:, perm], matrix.T)  # S U S = U^T, exactly


def _assert_time_reversal(op):
    """The operator's signed reflection S is a time reversal of its matrix,
    S U S = U^T exactly (signs included), and commutes with each of its
    symmetries."""
    assert op.reflection is not None
    s, sign = op.reflection, np.where(op.flips, -1.0, 1.0)
    matrix = dense(op)
    assert np.array_equal(sign[:, None] * matrix[s][:, s] * sign, matrix.T)
    for p in op.symmetries:
        assert np.array_equal(s[p], p[s]) and np.array_equal(sign[p], sign)


@pytest.mark.parametrize("marked", ["unmarked", "one", "pair"])
@pytest.mark.parametrize("spec", arenas("moves", max_dim=walklab.oracle.DIMENSION_CAP),
                         ids=GraphSpec.label)
def test_every_dense_operator_has_a_time_reversal(spec, marked):
    g = build_graph(spec)
    vertices = {"unmarked": (), "one": (1,), "pair": (0, g.n - 1)}[marked]
    _assert_time_reversal(dense_unitary(g, default_coin(g, marked=vertices)))


# dirac marked sets of three at side 8: (1, 1), (3, 2), (5, 3) are symmetric
# about (3, 2); (0, 0), (1, 0), (3, 0) have no centre
DIRAC_TRIPLES = {"symmetric": (9, 19, 29), "asymmetric": (0, 1, 3)}


def test_a_point_symmetric_dirac_triple_has_a_time_reversal():
    g = build_graph(torus_spec(8, shift="dirac"))
    op = dense_unitary(g, DIRAC_TRIPLES["symmetric"])
    _assert_time_reversal(op)
    phases, vectors = dense_eigens(op)
    reference = _fold(schur_eigens(dense(op).astype(np.complex128))[0])
    assert np.max(np.abs(_fold(phases) - reference)) < 1e-12
    _assert_eigensystem(dense(op), phases, vectors)


def test_an_asymmetric_dirac_triple_has_none_and_is_refused():
    g = build_graph(torus_spec(8, shift="dirac"))
    op = dense_unitary(g, DIRAC_TRIPLES["asymmetric"])
    assert op.reflection is None and op.flips is None
    with pytest.raises(ValueError, match="time reversal"):
        dense_eigens(op)


@pytest.mark.parametrize("delta", [1e-11, 3e-11])
def test_the_not_normal_refusal_quotes_how_far_the_block_is_from_normal(delta):
    # one nonzero of U moved by delta, below the involution check's
    # tolerance, leaves U (one block: S alone) max |U^T U - U U^T| = delta / 2
    # from normal; the refusal quotes that, not the noise of y / |y|
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    s = op.reflection
    matrix = dense(op)
    rows, cols = np.nonzero(matrix)
    free = (s[cols] != rows) | (s[rows] != cols)
    matrix[rows[free][0], cols[free][0]] += delta
    with pytest.raises(ArithmeticError, match="not normal") as refused:
        _eigens(matrix, s)
    quoted = float(re.search(r"max \|V\^T V - V V\^T\| = (\S+)\)", str(refused.value)).group(1))
    assert delta / 4 <= quoted <= delta


def _random_pairing(n, seed, pairs=None):
    """An involution of range(n) with `pairs` (default n // 2) random 2-cycles."""
    shuffled = np.random.default_rng(seed).permutation(n)
    pairing = np.arange(n)
    pairs = n // 2 if pairs is None else pairs
    a, b = shuffled[0:2 * pairs:2], shuffled[1:2 * pairs:2]
    pairing[a], pairing[b] = b, a
    return pairing


def _time_reversible(n, pairs):
    """S C for a random symmetric orthogonal C and a random pairing S, which
    is a time reversal of it: S (S C) S = C S = (S C)^T.  Returns (S C, S)."""
    q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
    signs = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    pairing = _random_pairing(n, n + pairs, pairs)
    return ((q * signs) @ q.T)[pairing], pairing


@pytest.mark.parametrize("n,pairs", [(12, 6), (13, 6), (15, 4)])
def test_split_eigensolve_with_fixed_points(n, pairs):
    matrix, pairing = _time_reversible(n, pairs)
    phases, vectors = _eigens(matrix, reflection=pairing)
    reference = _fold(schur_eigens(matrix.astype(np.complex128))[0])
    assert np.max(np.abs(_fold(phases) - reference)) < 1e-12
    assert np.all(np.diff(np.abs(phases)) >= -1e-12)
    _assert_eigensystem(matrix, phases, vectors)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_eigens_refuses_a_reflection_it_does_not_commute_with(seed):
    matrix = _orthogonal_with_known_phases(seed)[0]
    with pytest.raises(ArithmeticError, match="does not commute"):
        _eigens(matrix, reflection=_random_pairing(len(matrix), seed + 10))


@pytest.mark.parametrize("n,pairs", [(12, 6), (13, 6), (15, 4)])
def test_split_eigensolve_refuses_a_non_normal_matrix(n, pairs):
    # S (C + E) with E symmetric keeps S a time reversal, but is not normal
    matrix, pairing = _time_reversible(n, pairs)
    bump = np.random.default_rng(pairs).normal(scale=1e-6, size=(n, n))
    matrix += (bump + bump.T)[pairing]
    with pytest.raises(ArithmeticError, match="not normal"):
        _eigens(matrix, reflection=pairing)


def _from_reflection_basis(pairing, inner):
    """R inner R^T, with R the eigenbasis of the involution `pairing`: first
    its +1 eigenvectors (e_p + e_q)/sqrt(2) and e_f, then its -1 ones
    (e_p - e_q)/sqrt(2), each 2-cycle (p, q) in the order of p."""
    n = len(pairing)
    index = np.arange(n)
    p = np.flatnonzero(pairing > index)
    q, fixed, k = pairing[p], np.flatnonzero(pairing == index), p.size
    basis = np.zeros((n, n))
    basis[p, index[:k]] = basis[q, index[:k]] = basis[p, n - k + index[:k]] = 1 / np.sqrt(2)
    basis[q, n - k + index[:k]] = -1 / np.sqrt(2)
    basis[fixed, k + index[:fixed.size]] = 1.0
    return basis @ inner @ basis.T


@pytest.mark.parametrize("kind", ["rotation-in-plus", "rotation-in-minus", "reflection-across"])
@pytest.mark.parametrize("n,pairs", [(12, 6), (13, 6), (12, 3)])
def test_block_eigens_refuses_a_reflection_that_is_no_time_reversal(n, pairs, kind):
    # In S's eigenbasis, a rotation inside the +1 or the -1 eigenspace
    # commutes with S, so U + U^T does too, but is not symmetric there; a
    # reflection across a +1 and a -1 eigenvector keeps both diagonal blocks
    # symmetric, but its mixed blocks are equal, not opposite.  None has
    # S U S = U^T.
    pairing = _random_pairing(n, n + pairs, pairs)
    c, s = np.cos(0.7), np.sin(0.7)
    plane, turn = {"rotation-in-plus": ([0, 1], [[c, -s], [s, c]]),
                   "rotation-in-minus": ([n - 2, n - 1], [[c, -s], [s, c]]),
                   "reflection-across": ([0, n - 1], [[c, s], [s, -c]])}[kind]
    inner = np.eye(n)
    inner[np.ix_(plane, plane)] = turn
    matrix = _from_reflection_basis(pairing, inner)
    assert np.max(np.abs(matrix @ matrix.T - np.eye(n))) < 1e-14
    if kind != "reflection-across":
        sym = matrix + matrix.T
        assert np.max(np.abs(sym[pairing][:, pairing] - sym)) < 1e-14
    with pytest.raises(ArithmeticError, match="time reversal"):
        _eigens(matrix, reflection=pairing)
    # another time reversal takes it: in S's eigenbasis, the diagonal D
    # with -1 on the second coordinate of the rotation's plane, or off the
    # reflection's; R D R^T is S's second 2-cycle (p, q) as e_p -> -e_q, or
    # its last as e_p -> e_q, and the identity elsewhere
    flipped = np.ones(n)
    flipped[n - 1 if kind == "rotation-in-minus" else 1] = -1.0
    other, flips = _signed_pairing(_from_reflection_basis(pairing, np.diag(flipped)))
    phases, _ = _eigens(matrix, other, flips=flips)
    expected = [np.pi] if kind == "reflection-across" else [0.7, -0.7]
    expected = _fold(np.array([*expected, *[0.0] * (n - len(expected))]))
    assert np.max(np.abs(_fold(phases) - expected)) < 1e-12


def test_block_eigens_refuses_a_reflection_that_is_not_an_involution():
    matrix = _orthogonal_with_known_phases(0)[0]
    with pytest.raises(ValueError, match="involutive"):
        _eigens(matrix, reflection=np.roll(np.arange(len(matrix)), 1))


def test_block_eigens_with_the_identity_as_reflection():
    # the operator keeps S = I, a time reversal of a symmetric U alone: the
    # check refuses any other U, and a symmetric orthogonal U, whose phases
    # are 0 and pi, solves through it with its -1 half empty
    matrix = _orthogonal_with_known_phases(0)[0]
    op = _operator(matrix, np.arange(len(matrix)))
    assert np.array_equal(op.reflection, np.arange(len(matrix))) and not op.flips.any()
    with pytest.raises(ArithmeticError, match="no time reversal"):
        dense_eigens(op)
    q = np.linalg.qr(np.random.default_rng(5).normal(size=(9, 9)))[0]
    reflection = (q * ([1.0] * 4 + [-1.0] * 5)) @ q.T  # Q diag(1, 1, 1, 1, -1, ...) Q^T
    for symmetric, stills in ((np.eye(4)[[1, 0, 3, 2]], 2), ((reflection + reflection.T) / 2, 4)):
        phases, vectors = _eigens(symmetric, np.arange(len(symmetric)))
        expected = [0.0] * stills + [np.pi] * (len(phases) - stills)
        assert np.max(np.abs(_fold(phases) - expected)) <= 1e-12
        assert np.max(np.abs(symmetric @ vectors - vectors * np.exp(1j * phases))) <= 1e-12


@pytest.mark.parametrize("spec,marked", [
    *(pytest.param(spec, (0,), id=spec.label()) for spec in arenas("dense_cap")),
    # no mirror: split by the reflection alone
    pytest.param(torus_spec(22, shift="dirac"), (), id="dirac(22)-unmarked"),
    pytest.param(torus_spec(16), (0, 1), id="torus(16x16)-two-marked"),
])
def test_dense_eigens_allocation_peak_at_the_dimension_cap(spec, marked):
    """numpy's peak allocation in dense_eigens stays at or below 4.5 dim^2
    float64s near the dimension cap (with numpy 2.4, split by the mirrors,
    the swap and then the reflection: 2.19 dim^2 at 2D L=16, moving L=16 and
    the hypercube d=7 (2.24-2.25 by the mirrors alone), 2.17 at the complete
    graph N=32 and, by its one mirror, 2.40 at dirac L=22; by the reflection
    alone, without a mirror, 3.01 at unmarked dirac L=22 and at 2D L=16 with
    two marked vertices).  The peak is the eigensolve of the blocks.  The
    involution check, over the whole listing, peaks at 0.02-0.05 dim^2 (0.19
    at the complete graph) and the split's maps are formed before the
    eigenvector buffer's 2 is taken, and the scatter of U's nonzeros
    into the blocks at 0.04-0.06 (0.12 at the hypercube, 0.11 at the
    complete graph) past it; the real lift's batches add little past the
    buffer and the blocks' eigenvectors.  See traced_peak for what it
    counts."""
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=marked))
    assert 0.85 * walklab.oracle.DIMENSION_CAP <= op.dim <= walklab.oracle.DIMENSION_CAP
    assert bool(op.symmetries) == (len(marked) == 1)
    assert traced_peak(lambda: dense_eigens(op)) <= 4.5 * op.dim ** 2 * 8


@pytest.mark.parametrize("spec", [
    *(pytest.param(spec, id=spec.label()) for spec in arenas("dense_cap")),
    # past the cap
    pytest.param(torus_spec(32), id=torus_spec(32).label()),
])
def test_dense_eigens_refuses_before_it_allocates(spec):
    """One nonzero of U moved by 1e-9 breaks S U S = U^T (or P U P = U)
    there, and dense_eigens refuses it before it takes its 2 dim^2
    eigenvector buffer: its traced peak is the involution check's, 0.02-0.05
    dim^2 float64s (0.19 at the complete graph, with numpy 2.4).  Past the
    cap (2D L=32, 4096 dims) it refuses before the check, with a traced
    peak of about 1 KiB."""
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(0,)))
    if op.dim > walklab.oracle.DIMENSION_CAP:
        refused, bound = pytest.raises(ValueError, match="capped"), 16 * 1024
    else:
        flat, values = op.nonzeros
        values = values.copy()
        values[values.size // 2] += 1e-9
        op = walklab.oracle.DenseOperator(op.dim, (flat, values), op.reflection, op.symmetries,
                                          op.flips)
        refused, bound = pytest.raises(ArithmeticError), 0.5 * op.dim ** 2 * 8

    def refuse():
        with refused:
            dense_eigens(op)

    assert traced_peak(refuse) < bound


@pytest.mark.parametrize("spec,marked", [
    # the mirrors split first; dirac's reflection is signed on the marked rows
    *(pytest.param(spec, (0,), id=spec.label()) for spec in arenas("dense_cap")),
    # no mirror: the reflection alone
    pytest.param(torus_spec(22, shift="dirac"), (), id="dirac(22)-unmarked"),
    pytest.param(torus_spec(16), (0, 1), id="torus(16x16)-two-marked"),
    pytest.param(hypercube_spec(6), (), id="hypercube(6)-unmarked"),
    pytest.param(complete_spec(16), (), id="complete(16)-unmarked"),
])
def test_dense_eigens_equals_the_complex_lift(spec, marked):
    # the real and imaginary parts, each gathered from x or y alone, are the
    # complex butterfly's entries to the bit: its other term is an exact zero
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=marked))
    phases, vectors = dense_eigens(op)
    reference_phases, reference_vectors = complex_lift_eigens(op)
    assert np.array_equal(phases, reference_phases)
    assert np.array_equal(vectors, reference_vectors)


@pytest.mark.parametrize("spec,bound", [
    *(pytest.param(spec, 0.3, id=spec.label())
      for spec in arenas("dense_cap", shift=("flip_flop", "moving", "swap"))),
    pytest.param(*arenas("dense_cap", shift="dirac"), 0.3, id="dirac(22)"),
])
def test_dense_unitary_allocation_peak_at_the_dimension_cap(spec, bound):
    """dense_unitary's traced peak near the dimension cap, in dim^2 float64s:
    no n x n array, only the listing of U''s coin_dim nonzeros per column
    and a few arrays of its size (with numpy 2.4: 0.02 at 2D and moving
    L=16, 0.03 at dirac L=22, whose butterflies each sum the listing's two
    row halves, 0.04 at the hypercube d=7 and 0.13 at the complete graph
    N=32, whose 31 nonzeros per column make the longest listing).  The
    zero-filled dense build took 1.01-1.05, and 2.02 on the dirac walk."""
    g = build_graph(spec)
    coin = default_coin(g, marked=(0,))
    dim = g.coin_dim * g.n
    assert 0.85 * walklab.oracle.DIMENSION_CAP <= dim <= walklab.oracle.DIMENSION_CAP
    assert traced_peak(lambda: dense_unitary(g, coin)) <= bound * dim ** 2 * 8


# one marked vertex: the arena's mirrors through it, and its swap where it
# has one, split the eigensolve (on two vertices, and on a torus of side 2,
# each mirror is the identity)
MIRRORED = [spec for spec in arenas("parity") if spec.n_vertices > 2]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("spec", MIRRORED, ids=GraphSpec.label)
def test_lifted_mirror_commutes_with_the_walk(spec, where):
    g = build_graph(spec)
    vertex = {"first": 0, "middle": g.n // 2, "last": g.n - 1}[where]
    op = dense_unitary(g, default_coin(g, marked=(vertex,)))
    chain = g.symmetries((vertex,))
    swap = chain[-1] if len(chain) >= 3 else None  # a swap follows two or more mirrors
    mirrors = op.symmetries[:len(chain) - (swap is not None)]
    assert mirrors and len(op.symmetries) == len(chain)
    for p in op.symmetries:
        assert np.any(p != np.arange(op.dim))
        assert np.array_equal(p[p], np.arange(op.dim))
        assert np.array_equal(dense(op)[p][:, p], dense(op))  # exactly
        if op.reflection is not None:
            assert np.array_equal(op.reflection[p], p[op.reflection])
    for p in mirrors:
        assert all(np.array_equal(p[other], other[p]) for other in mirrors)
    if swap is not None:  # the swap exchanges the first two mirrors and keeps the others
        w = op.symmetries[-1]
        assert np.array_equal(w, g.lift(swap))
        onto = [next(i for i, q in enumerate(mirrors) if np.array_equal(w[p[w]], q))
                for p in mirrors]
        assert onto == [1, 0, *range(2, len(mirrors))]


@pytest.mark.parametrize("spec", MIRRORED, ids=GraphSpec.label)
def test_mirror_split_matches_the_unsplit_eigensolve(spec):
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    phases, vectors = dense_eigens(op)
    plain, _ = _eigens(dense(op), op.reflection, flips=op.flips)
    assert np.max(np.abs(_fold(phases) - _fold(plain))) < 1e-13
    assert np.all(np.diff(np.abs(phases)) >= -1e-12)
    _assert_eigensystem(dense(op), phases, vectors)
    if spec.shift == "moving":  # its smallest nonzero phase is degenerate: no principal pair
        return
    unsplit = walklab.oracle.DenseOperator(op.dim, op.nonzeros, op.reflection, flips=op.flips)
    assert dense_principal_pair(op, g, 1) == pytest.approx(
        dense_principal_pair(unsplit, g, 1), rel=0, abs=1e-12)


@pytest.mark.parametrize("spec", arenas("mirror_swaps"), ids=GraphSpec.label)
def test_mirror_swaps_some_of_the_reflections_pairs(spec):
    # where a mirror P swaps a 2-cycle (p, q) of S itself, P negates
    # (e_p - e_q)/sqrt(2) on S's -1 half: the split must carry that sign
    # (covered above)
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    index = np.arange(op.dim)
    assert any(np.any((p == op.reflection) & (op.reflection != index)) for p in op.symmetries)


def test_block_eigens_refuses_a_symmetry_it_does_not_commute_with():
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    row = int(np.flatnonzero(op.symmetries[-1] != np.arange(op.dim))[0])
    matrix = dense(op)
    matrix[row, int(np.flatnonzero(matrix[row])[0])] += 1e-6
    with pytest.raises(ArithmeticError, match="does not commute with the symmetry"):
        _eigens(matrix, op.reflection, op.symmetries)


def test_block_eigens_refuses_a_symmetry_that_is_not_an_involution():
    matrix = _orthogonal_with_known_phases(0)[0]
    with pytest.raises(ValueError, match="involutive"):
        _eigens(matrix, symmetries=[np.roll(np.arange(len(matrix)), 1)])


@pytest.mark.parametrize("n,pairs", [(12, 6), (13, 6), (15, 4)])
def test_mirror_split_of_a_random_commuting_matrix(n, pairs):
    # R diag(A, B) R^T, with R the eigenbasis of the pairing P, commutes with
    # P.  A = D_A C_A and B = D_B C_B, with C symmetric orthogonal and D a
    # random diagonal of signs, have D as a time reversal, so S = R D R^T
    # is one of the matrix; S is a signed permutation that commutes with P
    # (a 2-cycle of P where D's two signs on it differ, else two fixed points)
    pairing = _random_pairing(n, n + pairs, pairs)
    rng = np.random.default_rng(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    inner = np.zeros((n, n))
    for lo, hi in ((0, n - pairs), (n - pairs, n)):
        q = np.linalg.qr(rng.normal(size=(hi - lo, hi - lo)))[0]
        symmetric = (q * np.where(np.arange(hi - lo) % 3, 1.0, -1.0)) @ q.T
        inner[lo:hi, lo:hi] = signs[lo:hi, None] * symmetric
    matrix = _from_reflection_basis(pairing, inner)
    reflection, flips = _signed_pairing(_from_reflection_basis(pairing, np.diag(signs)))
    phases, vectors = _eigens(matrix, reflection, [pairing], flips)
    reference = _fold(schur_eigens(matrix.astype(np.complex128))[0])
    assert np.max(np.abs(_fold(phases) - reference)) < 1e-12
    _assert_eigensystem(matrix, phases, vectors)
    # a perturbation R D diag(E_A, E_B) R^T, E symmetric, commutes with P and
    # keeps S a time reversal, but leaves a matrix that is not normal
    bump = np.zeros((n, n))
    for lo, hi in ((0, n - pairs), (n - pairs, n)):
        e = rng.normal(scale=1e-6, size=(hi - lo, hi - lo))
        bump[lo:hi, lo:hi] = signs[lo:hi, None] * (e + e.T)
    with pytest.raises(ArithmeticError, match="not normal"):
        _eigens(matrix + _from_reflection_basis(pairing, bump), reflection, [pairing], flips)


def _commuting_pairings(seed, quads, p_pairs, s_pairs, shared, fixed):
    """Commuting involutions P and S of a shuffled index set: `quads` orbits
    (a b)(c d) under P and (a c)(b d) under S, `p_pairs` 2-cycles of P alone,
    `s_pairs` of S alone, `shared` 2-cycles of both, and `fixed` points."""
    n = 4 * quads + 2 * (p_pairs + s_pairs + shared) + fixed
    index = np.random.default_rng(seed).permutation(n)
    p, s = np.arange(n), np.arange(n)
    a, b, c, d = index[:4 * quads].reshape(4, quads)
    p[a], p[b], p[c], p[d] = b, a, d, c
    s[a], s[b], s[c], s[d] = c, d, a, b
    at = 4 * quads
    for count, maps in ((p_pairs, (p,)), (s_pairs, (s,)), (shared, (p, s))):
        x, y = index[at:at + 2 * count].reshape(2, count)
        for pairing in maps:
            pairing[x], pairing[y] = y, x
        at += 2 * count
    return p, s


@pytest.mark.parametrize("counts", [(3, 2, 2, 2, 3), (4, 0, 0, 3, 0), (2, 3, 1, 0, 1),
                                    (1, 1, 1, 1, 1)])
def test_mirror_split_with_a_reflection_of_every_orbit_kind(counts):
    # U = S C with C symmetric orthogonal and commuting with P: S is a time
    # reversal of U and P a symmetry, for every kind of orbit of the two
    p, s = _commuting_pairings(sum(counts), *counts)
    n = p.size
    rng = np.random.default_rng(n)
    k = np.count_nonzero(p > np.arange(n))
    halves = np.zeros((n, n))
    for lo, hi in ((0, n - k), (n - k, n)):
        q, _ = np.linalg.qr(rng.normal(size=(hi - lo, hi - lo)))
        halves[lo:hi, lo:hi] = (q * np.where(np.arange(hi - lo) % 3, 1.0, -1.0)) @ q.T
    matrix = _from_reflection_basis(p, halves)[s]
    phases, vectors = _eigens(matrix, reflection=s, symmetries=[p])
    reference = _fold(schur_eigens(matrix.astype(np.complex128))[0])
    assert np.max(np.abs(_fold(phases) - reference)) < 1e-12
    _assert_eigensystem(matrix, phases, vectors)


def test_block_eigens_refuses_a_symmetry_that_does_not_commute_with_the_reflection():
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    with pytest.raises(ValueError, match="must commute"):
        _eigens(dense(op), op.reflection, [_random_pairing(op.dim, 3)])


def test_dense_operator_checks_its_symmetries_when_built():
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    identity = np.arange(op.dim)
    DenseOperator = walklab.oracle.DenseOperator
    # the identity reflection is kept, and the identity symmetry dropped
    built = DenseOperator(op.dim, op.nonzeros, identity, [identity, *op.symmetries])
    assert np.array_equal(built.reflection, identity) and not built.flips.any()
    assert len(built.symmetries) == len(op.symmetries)
    assert all(map(np.array_equal, built.symmetries, op.symmetries))
    for involutions in ((np.roll(identity, 1), ()), (None, [np.roll(identity, 1)])):
        with pytest.raises(ValueError, match="involutive"):
            DenseOperator(op.dim, op.nonzeros, *involutions)
    with pytest.raises(ValueError, match="must commute"):
        DenseOperator(op.dim, op.nonzeros, op.reflection, [_random_pairing(op.dim, 3)])
    with pytest.raises(ValueError, match="must commute"):  # two symmetries that do not
        DenseOperator(op.dim, op.nonzeros, None, [op.symmetries[0], _random_pairing(op.dim, 3)])
    with pytest.raises(TypeError, match="real orthogonal"):
        DenseOperator(op.dim, (op.nonzeros[0], op.nonzeros[1].astype(np.complex128)))


def _axis_swap(g, vertex, axes):
    """The lift of the torus map that exchanges two axes through `vertex`."""
    coords, centre = g.coordinates(), np.array(g.vertex_coords(vertex))
    a, b = axes
    coords[[a, b]] = coords[b] + centre[a] - centre[b], coords[a] + centre[b] - centre[a]
    return g.lift(g.vertex_index(coords))


def test_dense_operator_takes_a_last_symmetry_that_exchanges_the_first_two():
    # the xy swap, last, exchanges the x and y mirrors and commutes with
    # the z mirror; the xz swap exchanges the x and z mirrors, and the yz
    # swap after the xy swap exchanges the xy swap with the xz swap: both
    # are refused, as is the xy swap before the mirrors
    g = build_graph(torus_spec(4, 3))
    op = dense_unitary(g, default_coin(g, marked=(5,)))
    *mirrors, xy = op.symmetries
    assert np.array_equal(xy, _axis_swap(g, 5, (0, 1)))
    assert not np.array_equal(xy[mirrors[0]], mirrors[0][xy])  # it does not commute
    DenseOperator = walklab.oracle.DenseOperator
    assert len(DenseOperator(op.dim, op.nonzeros, op.reflection, [*mirrors, xy]).symmetries) == 4
    for symmetries in ([*mirrors, _axis_swap(g, 5, (0, 2))],
                       [*mirrors, xy, _axis_swap(g, 5, (1, 2))], [xy, *mirrors]):
        with pytest.raises(ValueError, match="must commute"):
            DenseOperator(op.dim, op.nonzeros, op.reflection, symmetries)


def test_dense_operator_checks_its_flips_when_built():
    g = build_graph(torus_spec(4, shift="dirac"))
    op = dense_unitary(g, (1,))
    s, (p,), flips = op.reflection, op.symmetries, op.flips
    DenseOperator = walklab.oracle.DenseOperator
    assert not DenseOperator(op.dim, op.nonzeros, s).flips.any()  # unsigned unless given
    identity = np.arange(op.dim)
    signed = DenseOperator(op.dim, op.nonzeros, identity, flips=identity % 2 == 1)
    assert np.array_equal(signed.reflection, identity)  # a signed identity splits
    one = np.flatnonzero(s != identity)[0]
    for bad, message in ((flips[:-1], "one flag per index"),
                         (flips.astype(float), "one flag per index"),
                         (np.where(flips, 0.5, 2.0), "one flag per index"),
                         (np.where(identity == one, ~flips, flips), "each of its 2-cycles")):
        with pytest.raises(ValueError, match=message):
            DenseOperator(op.dim, op.nonzeros, s, flips=bad)
    with pytest.raises(ValueError, match="one flag per index"):  # numbers, even where nonzero
        DenseOperator(2, SWAP, [1, 0], flips=[0.5, 2.0])
    with pytest.raises(ValueError, match="there is none"):
        DenseOperator(op.dim, op.nonzeros, flips=flips)
    # flips that agree on S's 2-cycles but not under P: flip one 2-cycle of S
    # whose rows P moves off it
    moved = flips.copy()
    orbit = np.flatnonzero((p != identity) & (s != identity) & (s != p))[0]
    moved[[orbit, s[orbit]]] = ~moved[[orbit, s[orbit]]]
    with pytest.raises(ValueError, match="must commute"):
        DenseOperator(op.dim, op.nonzeros, s, [p], moved)


@pytest.mark.parametrize("listing", [(np.arange(6), np.ones(6)), (np.int64(1), 1.0),
                                     (np.array([[[1, 2]]]), np.ones((1, 1, 2)))],
                         ids=["not-square", "one-dimensional", "three-dimensional"])
def test_dense_operator_refuses_a_matrix_that_is_not_square(listing):
    # a listing's counterparts of a matrix of another shape than dim x dim:
    # a 2 x 3 matrix's entries, past dim^2 = 4; and flat indices with no
    # dimension, or with three, where they must be one-dimensional
    with pytest.raises(ValueError, match=r"1-D integers, strictly ascending in \[0, dim\^2\)"):
        walklab.oracle.DenseOperator(2, listing)


@pytest.mark.parametrize("values", [np.array([1, 1]), np.array([True, True]), [1, 1],
                                    np.array([1.0, 1.0])],
                         ids=["integer", "bool", "list", "float64"])
def test_dense_operator_takes_a_real_matrix_as_float64(values):
    # the swap, its own time reversal: float64 values are kept as they are
    op = walklab.oracle.DenseOperator(2, (SWAP[0], values), [1, 0])
    assert op.nonzeros[1].dtype == np.float64 and np.array_equal(dense(op), [[0, 1], [1, 0]])
    kept = isinstance(values, np.ndarray) and values.dtype == np.float64
    assert (op.nonzeros[1] is values) == kept
    assert op.unitarity_defect() == 0.0
    assert np.array_equal(np.abs(dense_eigens(op)[0]), [0.0, np.pi])


@pytest.mark.parametrize("dim,listing,message", [
    (2, ([1.0, 2.0], [1.0, 1.0]), "1-D integers"),
    (2, (np.array([True, False]), [1.0]), "1-D integers"),
    (2, ([2, 1], [1.0, 1.0]), "strictly ascending"),
    (2, ([1, 1], [1.0, 1.0]), "strictly ascending"),
    (2, (np.array([2, 1], np.uint64), [1.0, 1.0]), "strictly ascending"),
    (2, ([-1, 2], [1.0, 1.0]), r"in \[0, dim\^2\)"),
    (2, ([1, 4], [1.0, 1.0]), r"in \[0, dim\^2\)"),
    (2, ([1, 2], [1.0]), "one nonzero value per index"),
    (2, ([1, 2], [[1.0, 1.0]]), "one nonzero value per index"),
    (2, ([1, 2], [1.0, 0.0]), "one nonzero value per index"),
    (2, ([1, 2], [-0.0, 1.0]), "one nonzero value per index"),
    (2.0, SWAP, "positive integer"),
    (0, ([], []), "positive integer"),
], ids=["float-indices", "bool-indices", "descending", "repeated", "unsigned-descending",
        "negative", "past-the-end", "short-values", "two-dimensional-values", "zero",
        "negative-zero", "float-dim", "zero-dim"])
def test_dense_operator_refuses_a_bad_listing(dim, listing, message):
    with pytest.raises(ValueError, match=message):
        walklab.oracle.DenseOperator(dim, listing)


def test_dense_operator_takes_integer_flat_indices_as_intp():
    for flat in ([1, 2], np.array([1, 2], np.uint8), np.array([1, 2], np.int32)):
        op = walklab.oracle.DenseOperator(2, (flat, SWAP[1]))
        assert op.nonzeros[0].dtype == np.intp and np.array_equal(op.nonzeros[0], [1, 2])


@pytest.mark.parametrize("perm", [[1.0, 0.0], [True, False], [2, 0], [-1, 0], [[1, 0]], "10"],
                         ids=["float", "bool", "out-of-range", "negative", "nested", "string"])
@pytest.mark.parametrize("field", ["reflection", "symmetry"])
def test_dense_operator_refuses_an_involution_that_is_no_integer_permutation(field, perm):
    given = {"reflection": perm} if field == "reflection" else {"symmetries": [perm]}
    with pytest.raises(ValueError, match=f"{field} must be an involutive permutation"):
        walklab.oracle.DenseOperator(2, SWAP, **given)


@pytest.mark.parametrize("field", ["reflection", "symmetry"])
def test_dense_operator_takes_an_involution_as_an_integer_array_like(field):
    given = {"reflection": (1, 0)} if field == "reflection" else {"symmetries": [(1, 0)]}
    op = walklab.oracle.DenseOperator(2, SWAP, **given)
    kept = op.reflection if field == "reflection" else op.symmetries[0]
    assert isinstance(kept, np.ndarray)
    assert np.array_equal(kept, [1, 0])


@pytest.mark.parametrize("marked", [(), (0, 5)], ids=["unmarked", "two-marked"])
def test_no_symmetry_unless_one_vertex_is_marked(marked):
    for spec in arenas("small"):
        g = build_graph(spec)
        assert dense_unitary(g, default_coin(g, marked=marked)).symmetries == ()


def test_every_oracle_benchmark_arena_takes_the_mirror_split():
    # every mirror, and the swap past them (none on the dirac walk), moves
    # a third of the basis states or more
    for spec in arenas("oracle"):
        g = build_graph(spec)
        for vertex in (0, 7, g.n - 1):
            symmetries = dense_unitary(g, default_coin(g, marked=(vertex,))).symmetries
            assert len(symmetries) == {"torus": 1 if spec.shift == "dirac" else len(spec.dims) + 1,
                                       "hypercube": 4, "complete": 4}[spec.family]
            for p in symmetries:
                assert np.count_nonzero(p != np.arange(p.size)) >= p.size // 3


@pytest.mark.parametrize("spec", [*arenas("oracle", shift=("flip_flop", "moving", "swap")),
                                  *arenas("swap")], ids=GraphSpec.label)
def test_a_copied_block_is_its_source_through_the_swap(spec):
    # dense_eigens solves one block of each pair the swap W exchanges and
    # writes the other's phases as the same array, and its eigenvectors as
    # the solved ones read through W: equal bit for bit
    oracle = walklab.oracle
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    phases, vectors = dense_eigens(op)
    maps = oracle._split_maps(op)
    blocks, copies = oracle._rotated_blocks(op, maps, np.empty((op.dim, op.dim)))
    assert copies and all(np.array_equal(gather, op.symmetries[-1]) for _, gather in copies)
    found = [oracle._reversal_eigens(rotated, m, np.empty_like(rotated))[0]
             for rotated, m, _ in blocks]
    found += [found[block] for block, _ in copies]
    # the sorted column of each block position, as dense_eigens sorts them
    columns = np.argsort(np.argsort(np.abs(np.concatenate(found)), kind="stable"))
    starts = np.cumsum([0, *map(len, found)])
    for (block, gather), start in zip(copies, starts[len(blocks):]):
        source = columns[starts[block]:starts[block + 1]]
        target = columns[start:start + len(found[block])]
        assert np.array_equal(phases[target], phases[source])
        assert np.array_equal(vectors[:, target], vectors[gather][:, source])


def test_dense_operator_refuses_a_symmetry_after_the_swap():
    # the swap must be last: a mirror after it, the 2D torus's anti-diagonal
    # reflection through the vertex (the swap times the point reflection)
    # after it, and a second swap, of axes 2 and 3 on the 4D torus, each
    # leave a symmetry that does not commute with the mirrors short of the
    # last place
    cube = build_graph(torus_spec(3, 3))
    op = dense_unitary(cube, default_coin(cube, marked=(5,)))
    first, second, third, swap = op.symmetries
    square = build_graph(torus_spec(5))
    flat = dense_unitary(square, default_coin(square, marked=(7,)))
    across = flat.symmetries[-1][flat.symmetries[0][flat.symmetries[1]]]
    tesseract = build_graph(torus_spec(3, 4))
    four = dense_unitary(tesseract, default_coin(tesseract, marked=(5,)))
    for base, symmetries in ((op, [first, second, swap, third]),
                             (flat, [*flat.symmetries, across]),
                             (four, [*four.symmetries, _axis_swap(tesseract, 5, (2, 3))])):
        with pytest.raises(ValueError, match="must commute"):
            walklab.oracle.DenseOperator(base.dim, base.nonzeros, base.reflection, symmetries)


# per oracle arena, marked at vertex 3 (or 0: the same), the blocks dense_eigens
# solves, their largest eigh half and the sum of the halves' cubes, eigh's
# flop count up to a constant, and the blocks it copies.  Split by one mirror,
# the largest halves were 272, 156, 242, 225, 228 and 273, and the sums 67.9M,
# 12.2M, 56.7M, 28.1M, 45.0M and 67.5M; by every mirror and no swap, 144, 84,
# 242, 81, 135 and 108, and 17.2M, 3.1M, 56.7M, 2.0M, 7.1M and 4.7M.  The
# dirac walk has no second reflection and no swap
SPLIT_SIZES = {"torus(16x16,flip_flop,grover)": (5, 128, 6_389_760, 1),
               "torus(12x12,moving,grover)": (5, 72, 1_150_848, 1),
               "torus(22x22,dirac,dirac2)": (2, 242, 56_689_952, 0),
               "torus(5x5x5,flip_flop,grover)": (10, 54, 728_485, 2),
               "hypercube(7,flip_flop,grover)": (10, 78, 2_242_392, 2),
               "complete(32,swap,grover)": (10, 96, 2_897_200, 2)}


@pytest.mark.parametrize("spec", arenas("oracle"), ids=GraphSpec.label)
def test_the_split_sizes_of_each_oracle_arena(spec):
    g = build_graph(spec)
    for vertex in (3, 0):
        op = dense_unitary(g, default_coin(g, marked=(vertex,)))
        halves, *_, copies = walklab.oracle._split_maps(op)  # (2, solved blocks)
        assert halves.sum() + sum(halves[:, block].sum() for block, _ in copies) == op.dim
        assert (halves.shape[1], halves.max(), np.sum(halves.astype(np.int64) ** 3),
                len(copies)) == SPLIT_SIZES[spec.label()]


def test_exactly_two_phases_inside_arc():
    spec = torus_spec(4)
    g = build_graph(spec)
    op = dense_unitary(g, (0,))
    phases, _ = dense_eigens(op)
    theta_min = mode_spectrum(spec).theta_min
    inside = (np.abs(phases) > 1e-9) & (np.abs(phases) < theta_min - 1e-9)
    assert int(np.sum(inside)) == 2


def test_moving_one_eigenspace_projection_matches_formula():
    from walklab import moving_shift_stationary_overlap
    spec = torus_spec(4, shift="moving")
    g = build_graph(spec)
    op = dense_unitary(g, (0,))
    phases, vectors = dense_eigens(op)
    proj = eigenspace_projection(phases, vectors, uniform_state(g).vector)
    assert proj == pytest.approx(moving_shift_stationary_overlap(spec), abs=1e-10)


def test_compare_traces_flip_flop_vs_dense_and_negative_control():
    from walklab import evolve_dense
    spec = torus_spec(4)
    g = build_graph(spec)
    coin = default_coin(g, marked=(0,))
    trace = run_walk(g, coin, 50)

    op = dense_unitary(g, coin)
    history = evolve_dense(op, uniform_state(g).vector.copy(), 50)
    dense_p = [np.sum(np.abs(history[t].reshape(g.coin_dim, g.n)[:, 0]) ** 2)
               for t in range(51)]
    assert np.max(np.abs(trace.p_marked - np.array(dense_p))) < 1e-10

    # negative control: the moving-shift trace is very different
    gm = build_graph(torus_spec(4, shift="moving"))
    moving = run_walk(gm, default_coin(gm, marked=(0,)), 50)
    assert np.max(np.abs(trace.p_marked - moving.p_marked)) > 1e-3


@pytest.mark.parametrize("spec,steps", [
    pytest.param(torus_spec(64), 300, id="torus(64x64)"),
    pytest.param(torus_spec(16, 3), 200, id="torus(16x16x16)"),
])
def test_evolve_dense_matches_run_walk_past_the_cap(spec, steps):
    # c02's comparison from the uniform start, at 16,384 and 24,576 dims:
    # the cap binds dense_eigens alone
    from walklab import evolve_dense
    g = build_graph(spec)
    coin = default_coin(g, marked=(3,))
    op = dense_unitary(g, coin)
    assert op.dim > 10 * walklab.oracle.DIMENSION_CAP
    at_marked = evolve_dense(op, uniform_state(g).vector, steps).reshape(
        steps + 1, g.coin_dim, g.n)[:, :, 3]
    dense_p = np.sum(np.square(at_marked), axis=1)
    assert np.max(np.abs(run_walk(g, coin, steps).p_marked - dense_p)) < 1e-12


def test_evolve_dense_matches_step_from_an_asymmetric_start_past_the_cap():
    # a random complex start and two marked vertices have no point symmetry,
    # so a shift that moved each amplitude the wrong way would show here
    from walklab import evolve_dense
    g = build_graph(torus_spec(64))
    coin = default_coin(g, marked=(3, 11))
    state = random_state(g, seed=5)
    history = evolve_dense(dense_unitary(g, coin), state.vector.copy(), 100)
    worst = 0.0
    for t in range(100):
        step(state, coin)
        worst = max(worst, float(np.max(np.abs(state.vector - history[t + 1]))))
    assert worst < 1e-12


def test_evolve_dense_keeps_a_real_history_for_a_real_start():
    from walklab import evolve_dense
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(0,)))
    start = random_state(g).vector.real.copy()
    real = evolve_dense(op, start, 20)
    cplx = evolve_dense(op, start.astype(np.complex128), 20)
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert real.shape == cplx.shape == (21, op.dim)
    # the real and the complex matrix-vector products may add in other orders
    np.testing.assert_allclose(cplx.real, real, rtol=0, atol=1e-14)
    assert not np.any(cplx.imag)


@pytest.mark.parametrize("steps", [True, 2.0, -1, "3", None])
def test_evolve_dense_takes_only_a_non_negative_integer_step_count(steps):
    # every step count passes graphs.is_integer: a bool is no count, and a
    # float or a negative count is refused with its value, not an IndexError
    # or a TypeError from inside the loop
    from walklab import ConfigurationError, evolve_dense
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(0,)))
    start = uniform_state(g).vector
    with pytest.raises(ConfigurationError, match=re.escape(repr(steps))):
        evolve_dense(op, start, steps)
    for count in (0, np.int64(2)):
        assert evolve_dense(op, start, count).shape == (count + 1, op.dim)
    # a start of another shape than (dim,) is refused with its shape, not
    # broadcast into the history
    for wrong in (np.array([1.0]), 0.5, np.ones((2, op.dim)), start[:-1], start[:, None]):
        shape = re.escape(f"must have shape {(op.dim,)}, not {np.shape(wrong)}")
        with pytest.raises(ValueError, match=shape):
            evolve_dense(op, wrong, 2)


def _assert_steps_match_matvec(matrix, history):
    """Each step of `history` is the dense product of `matrix` with the one
    before, to 1e-15 on every entry."""
    for t in range(len(history) - 1):
        step_ = matvec_history(matrix, history[t], 1)[1]
        assert np.max(np.abs(history[t + 1] - step_)) <= 1e-15, t


@pytest.mark.parametrize("start", ["real", "complex"])
@pytest.mark.parametrize("spec", [*arenas("small"), *arenas("dense_cap")], ids=GraphSpec.label)
def test_evolve_dense_matches_the_matrix_product_at_every_step(spec, start):
    from walklab import evolve_dense
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    vector = random_state(g).vector
    history = evolve_dense(op, vector.real.copy() if start == "real" else vector, 20)
    assert history.dtype == (np.float64 if start == "real" else np.complex128)
    _assert_steps_match_matvec(dense(op), history)


@pytest.mark.parametrize("kind", ["dense-orthogonal", "zero-row"])
def test_evolve_dense_on_a_full_matrix_and_an_empty_row(kind):
    # every entry of a random orthogonal matrix is a nonzero, and a row
    # without one is all padding
    from walklab import evolve_dense
    rng = np.random.default_rng(5)
    matrix = np.linalg.qr(rng.normal(size=(40, 40)))[0]
    if kind == "zero-row":
        matrix[7] = 0.0
    start = rng.normal(size=40) + 1j * rng.normal(size=40)
    start /= np.linalg.norm(start)
    for vector in (start.real.copy(), start):
        history = evolve_dense(_operator(matrix), vector, 12)
        _assert_steps_match_matvec(matrix, history)
        assert np.any(history[1:, 7]) == (kind != "zero-row")


def _matmul_operators(*functions):
    """The `@` operators in the source of `functions`."""
    return [node for func in functions
            for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func))))
            if isinstance(node, ast.MatMult)]


@pytest.mark.parametrize("spec", arenas("small"), ids=GraphSpec.label)
def test_evolve_dense_never_reaches_blas(spec, monkeypatch):
    # a BLAS product splits its sums over threads, so its bits may depend on
    # the thread count; the dense history must not.  Every numpy entry to
    # one is shut, and `@`, which reaches matmul without the module's name,
    # must not appear
    from walklab import evolve_dense
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    starts = (random_state(g).vector.real.copy(), random_state(g).vector)
    expected = [evolve_dense(op, vector, 12) for vector in starts]

    def blas(*args, **kwargs):
        raise AssertionError("evolve_dense called a BLAS routine")

    for name in ("dot", "vdot", "inner", "vecdot", "tensordot", "matmul"):
        # vecdot is numpy 2's; on an older numpy nothing can call it
        monkeypatch.setattr(np, name, blas, raising=False)
    for vector, history in zip(starts, expected):
        assert np.array_equal(evolve_dense(op, vector, 12), history)
    oracle = walklab.oracle
    assert _matmul_operators(oracle.evolve_dense, oracle._row_slots) == []


_THREADS_CHILD = """
import json
from helpers import oracle_digests
from walklab import build_graph, dense_unitary, torus_spec

spec = torus_spec(22, shift="dirac")
defect = dense_unitary(build_graph(spec), (3,)).unitarity_defect()
print(json.dumps([oracle_digests([spec], (3,)), defect.hex()]))
"""


def test_oracle_bits_do_not_depend_on_blas_threads():
    # the dirac L=22 solve is the oracle arena whose eigh bits once followed
    # the OpenBLAS thread count; each child pins one thread around its BLAS calls
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    children = [subprocess.Popen([sys.executable, "-c", _THREADS_CHILD], stdout=subprocess.PIPE,
                                 env=dict(os.environ, PYTHONPATH=path,
                                          OPENBLAS_NUM_THREADS=threads))
                for threads in ("1", "2")]  # side by side
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs[0] == outputs[1]


def test_the_blas_pin_restores_the_thread_count():
    # dense_eigens and unitarity_defect run on one thread and give back the
    # count they found, after a return and after a refusal inside the pin
    oracle = walklab.oracle
    calls = oracle._blas_thread_calls()
    if calls is None:
        pytest.skip(f"numpy's BLAS has no thread-count call: {oracle._pin_case}")
    get, put = calls
    g = build_graph(torus_spec(8))
    op = dense_unitary(g, (3,))
    # the identity is no time reversal of U, which is not symmetric
    no_reversal = oracle.DenseOperator(op.dim, op.nonzeros, np.arange(op.dim))
    seen = []

    def spy(function):
        def counted(*args):
            seen.append(get())
            return function(*args)
        return counted

    original = get()
    try:
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_symmetric_eigh", "_column_groups"):
                patch.setattr(oracle, name, spy(getattr(oracle, name)))
            put(2)
            before = get()
            dense_eigens(op)
            assert get() == before
            op.unitarity_defect()
            assert get() == before
            with pytest.raises(ArithmeticError, match="no time reversal"):
                dense_eigens(no_reversal)
            assert get() == before
    finally:
        put(original)
    assert seen and set(seen) == {1}


@pytest.mark.parametrize("library,case", [
    (None, "no OpenBLAS library next to numpy"),
    (types.SimpleNamespace(), "no OpenBLAS thread-count symbol"),
], ids=["no-library", "no-symbol"])
def test_dense_eigens_solves_without_the_blas_pin(library, case, monkeypatch):
    # where the lookup finds nothing the pin does nothing, says why, and
    # the solve is the pinned one's to rounding
    g = build_graph(torus_spec(8))
    op = dense_unitary(g, (3,))
    pinned, _ = dense_eigens(op)
    monkeypatch.setattr(walklab.oracle, "_numpy_openblas", lambda: library)
    monkeypatch.setattr(walklab.oracle, "_pin_case", None)
    monkeypatch.setattr(walklab.oracle, "_pin_calls", None)
    phases, vectors = dense_eigens(op)
    assert walklab.oracle._pin_case == case
    assert walklab.oracle._blas_thread_calls() is None
    np.testing.assert_allclose(phases, pinned, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dense(op) @ vectors, vectors * np.exp(1j * phases),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec,marked", [
    # the mirrors and the swap split first; dirac's reflection is signed on
    # the marked rows
    *(pytest.param(spec, (0,), id=spec.label()) for spec in arenas("dense_cap")),
    # the smallest arenas with a swap, the 3D torus among them
    *(pytest.param(spec, (1,), id=spec.label()) for spec in arenas("swap")),
    # no mirror: the reflection alone
    pytest.param(torus_spec(22, shift="dirac"), (), id="dirac(22)-unmarked"),
    pytest.param(torus_spec(16), (0, 1), id="torus(16x16)-two-marked"),
])
def test_scattered_blocks_match_the_dense_rotation(spec, marked):
    # each block, scattered from U's nonzeros in the rows at orbit
    # representatives, is R^T U R for the dense character basis R of
    # helpers.character_basis, which is orthonormal and leaves no entry of
    # R^T U R outside the blocks; a block the swap W copies has the basis
    # W R of its source's, and so its source's block
    oracle = walklab.oracle
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=marked))
    maps = oracle._split_maps(op)
    blocks, copies = oracle._rotated_blocks(op, maps, np.empty((op.dim, op.dim)))
    basis = character_basis(op)
    assert [(b.shape[0], m) for b, m, _ in blocks] \
        == [(r.shape[1], m) for r, m, _ in basis[:len(blocks)]]
    assert [(source, True) for _, _, source in basis[len(blocks):]] \
        == [(block, np.array_equal(gather, op.symmetries[-1])) for block, gather in copies]
    assert bool(copies) == (len(g.symmetries(marked)) >= 3)  # a swap follows two mirrors
    whole = scipy.sparse.csr_array(np.hstack([rotation for rotation, _, _ in basis]))
    assert np.max(np.abs((whole.T @ whole).toarray() - np.eye(op.dim))) <= 1e-15
    full = (whole.T @ (scipy.sparse.csr_array(dense(op)) @ whole)).toarray()
    start = 0
    for rotated in [b for b, _, _ in blocks] + [blocks[block][0] for block, _ in copies]:
        span = slice(start, start + len(rotated))
        assert np.max(np.abs(rotated - full[span, span])) <= 1e-15
        full[span, span] = 0.0
        start += len(rotated)
    assert np.max(np.abs(full)) <= 1e-15
    assert op.flips.any() == (spec.shift == "dirac" and len(marked) == 1)  # S is signed


def test_block_eigens_refuses_a_symmetry_broken_at_a_zero_entry():
    # the check reads P's image of every nonzero, so a new nonzero where U
    # has none counts as much as a changed one
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    row = int(np.flatnonzero(op.symmetries[-1] != np.arange(op.dim))[0])
    matrix = dense(op)
    matrix[row, int(np.flatnonzero(matrix[row] == 0)[0])] = 1e-9
    with pytest.raises(ArithmeticError, match="does not commute with the symmetry"):
        _eigens(matrix, op.reflection, op.symmetries)


@pytest.mark.parametrize("mirror", [True, False], ids=["mirror", "no-mirror"])
def test_block_eigens_refuses_a_time_reversal_broken_at_a_zero_entry(mirror):
    # the check reads S's image of every nonzero, so a new nonzero where U
    # and its S-image are both zero counts as much as a changed one; with a
    # mirror P, P's image of the entry is set too, so that P still commutes
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    s, p = op.reflection, op.symmetries[-1] if mirror else np.arange(op.dim)
    matrix = dense(op)
    rows, cols = np.nonzero(matrix == 0)
    image = s[cols], s[rows]
    free = ((matrix[image] == 0) & ((image[0] != rows) | (image[1] != cols))
            & ((image[0] != p[rows]) | (image[1] != p[cols])))
    r, c = rows[free][0], cols[free][0]
    matrix[r, c] = matrix[p[r], p[c]] = 1e-9
    with pytest.raises(ArithmeticError, match="no time reversal"):
        _eigens(matrix, op.reflection, [p])


@pytest.mark.parametrize("delta", [1e-11, 1e-9])
@pytest.mark.parametrize("broken,message", [
    ("symmetry", "does not commute with the symmetry"),
    ("time-reversal", "no time reversal"),
])
def test_involution_check_is_entrywise_at_its_tolerance(broken, message, delta):
    # one nonzero of U moved by delta, which a mirror P moves and S does not
    # send to itself or to its P-image: P U P - U and S U S - U^T reach delta
    # there, and the check refuses past _INVARIANCE_TOL = 1e-10 only.  P is
    # checked first; to break S alone, the entry's P-image moves with it.
    # (Past the check, the eigensolve refuses 1e-11 as not normal where it
    # reads the moved row: test_the_not_normal_refusal_quotes_how_far_...)
    oracle = walklab.oracle
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    s, p = op.reflection, op.symmetries[-1]
    matrix = dense(op)
    rows, cols = np.nonzero(matrix)
    image = s[cols], s[rows]
    free = (((p[rows] != rows) | (p[cols] != cols))
            & ((image[0] != rows) | (image[1] != cols))
            & ((image[0] != p[rows]) | (image[1] != p[cols])))
    r, c = rows[free][0], cols[free][0]
    matrix[r, c] += delta
    if broken == "time-reversal":
        matrix[p[r], p[c]] += delta
    moved = _operator(matrix, s, [p])
    if delta > oracle._INVARIANCE_TOL:
        with pytest.raises(ArithmeticError, match=message):
            dense_eigens(moved)
    else:
        oracle._check_involutions(moved)


@pytest.mark.parametrize("delta", [1e-11, 1e-9])
def test_involution_check_reads_an_absent_image_as_zero(delta):
    # a new entry of U at a zero whose images under P and S are zeros too:
    # P and S then move a nonzero of U onto a zero of U, so they no longer
    # map U's nonzeros onto themselves, and the check refuses the entry
    # whatever its size, P first
    oracle = walklab.oracle
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    s, p = op.reflection, op.symmetries[-1]
    matrix = dense(op)
    rows, cols = np.nonzero(matrix == 0)
    free = ((matrix[p[rows], p[cols]] == 0) & (matrix[s[cols], s[rows]] == 0)
            & ((p[rows] != rows) | (p[cols] != cols)) & ((s[cols] != rows) | (s[rows] != cols)))
    matrix[rows[free][0], cols[free][0]] = delta
    moved = _operator(matrix, s, [p])
    with pytest.raises(ArithmeticError, match="does not commute with the symmetry"):
        oracle._check_involutions(moved)


@pytest.mark.parametrize("pattern", ["kept", "broken"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_involution_check_refuses_a_value_that_is_not_finite(value, pattern):
    # a NaN deviation is never above the tolerance, so the check asks
    # whether each is within it; eigh never sees the operator.  With a new
    # entry at a zero, the involutions no longer map U's nonzeros onto
    # themselves, which is refused whatever the values
    g = build_graph(torus_spec(4))
    op = dense_unitary(g, default_coin(g, marked=(1,)))
    matrix = dense(op)
    matrix.reshape(-1)[op.nonzeros[0][0]] = value
    if pattern == "broken":
        matrix[0, int(np.flatnonzero(matrix[0] == 0)[0])] = 0.5
    bad = _operator(matrix, op.reflection, op.symmetries, op.flips)  # taken as it stands
    with pytest.raises(ArithmeticError, match="does not commute with the symmetry P"):
        dense_eigens(bad)
    with pytest.raises(ArithmeticError, match="no time reversal"):  # S alone
        dense_eigens(walklab.oracle.DenseOperator(op.dim, bad.nonzeros, op.reflection))


# engine functions that step a state; the oracle builds U' without them
_STEPPING = {"step", "apply_coin", "apply_shift"}


def _oracle_imports():
    """(module, name) per name oracle.py imports, relative imports resolved."""
    tree = ast.parse(Path(walklab.oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "walklab" + (f".{module}" if module else "")
            for alias in node.names:
                yield module, alias.name


def test_oracle_imports_neither_spectral_nor_the_step():
    imports = list(_oracle_imports())
    assert ("walklab.graphs", "Graph") in imports  # the parse sees them
    # the oracle takes nothing from the engine, neither the module itself
    # nor an engine name the package re-exports
    reexported = {name for name, value in vars(walklab).items()
                  if getattr(value, "__module__", None) == "walklab.engine"}
    taken = [name for module, name in imports if module == "walklab.engine"
             or (module == "walklab" and name in reexported | {"engine"})]
    assert taken == [], f"oracle imports {taken} from the engine"
    for module, name in imports:
        full = f"{module}.{name}" if name else module
        assert not full.startswith("walklab.spectral"), f"oracle imports {full}"
        if module == "walklab":  # a spectral name the package re-exports
            defined_in = getattr(getattr(walklab.spectral, name, None), "__module__", None)
            assert defined_in != "walklab.spectral", f"oracle imports {full}"
        if module in ("walklab", "walklab.engine"):
            assert name not in _STEPPING, f"oracle imports {full}"


def test_the_package_exports_every_public_oracle_name_lazily():
    public = {name for name, value in vars(walklab.oracle).items()
              if not name.startswith("_") and isinstance(value, type | types.FunctionType)
              and value.__module__ == "walklab.oracle"}
    assert walklab._ORACLE_NAMES == public
    for name in public:
        assert getattr(walklab, name) is getattr(walklab.oracle, name)
