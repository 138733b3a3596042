"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at run time.
Criterion 11's peak-time clause is expected to fail and is marked xfail:
the measured crest sits at (pi/2)*sqrt(N/2)*(1+o(1)), which leaves the
stated 25% band around (pi/2)*sqrt(N) for part of the degree range (see
the project decisions ledger).
"""

import math
import time

import numpy as np
import pytest

from walklab import (CoinConfig, build_graph, complete_spec, default_coin,
                     dense_eigens, dense_unitary, evolve_dense, find_peak,
                     hypercube_spec, lift_principal_eigenvector,
                     mode_spectrum, moving_shift_stationary_overlap, predict,
                     rounds_to_quarter, run_two_marked, run_walk, amplify,
                     solve_alpha, spectral_sums, step, sweep_point, torus_spec,
                     torus_modes, uniform_state, vertex_probabilities,
                     closed_form_block_phases, eigenspace_projection)


def _verdict(num: int, name: str, started: float, limit: float, detail: str = ""):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {num:02d} [{name}]: PASS ({elapsed:.1f}s; limit {limit:.0f}s) {detail}")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_c01_unitarity_and_fixed_point():
    started = time.time()
    g = build_graph(torus_spec(64))

    marked_state = uniform_state(g)
    coin = default_coin(g, marked=(0,))
    for _ in range(10_000):
        step(marked_state, coin)
    drift = abs(marked_state.norm() - 1.0)
    assert drift < 1e-9

    free_state = uniform_state(g)
    unmarked = default_coin(g)
    for _ in range(10_000):
        step(free_state, unmarked)
    deviation = np.max(np.abs(free_state.amps - uniform_state(g).amps))
    assert deviation < 1e-12
    _verdict(1, "unitarity-fixed-point", started, 10,
             f"drift={drift:.1e} fixed-point dev={deviation:.1e}")


def test_c02_oracle_equivalence():
    started = time.time()
    cases = [torus_spec(8), torus_spec(8, shift="moving"), torus_spec(8, shift="dirac"),
             torus_spec(11, shift="dirac"), torus_spec(3, 3), hypercube_spec(5),
             complete_spec(16)]
    worst = 0.0
    for spec in cases:
        g = build_graph(spec)
        assert g.coin_dim * g.n <= 256
        coin = default_coin(g, marked=(1,))
        op = dense_unitary(g, coin)
        history = evolve_dense(op, uniform_state(g).vector.copy(), 50)
        state = uniform_state(g)
        for t in range(50):
            step(state, coin)
            worst = max(worst, float(np.max(np.abs(state.vector - history[t + 1]))))
    assert worst < 1e-10
    _verdict(2, "oracle-equivalence", started, 30, f"max amplitude dev={worst:.1e}")


def test_c03_spectrum_reproduction():
    started = time.time()
    worst = 0.0
    for spec in [torus_spec(4), torus_spec(4, shift="moving"),
                 torus_spec(4, shift="dirac"), torus_spec(4, 3)]:
        g = build_graph(spec)
        coin = CoinConfig()
        phases, _ = dense_eigens(dense_unitary(g, coin))
        closed = []
        for mode in torus_modes(spec):
            closed.extend(closed_form_block_phases(spec, mode))
        a = np.sort(np.mod(phases + np.pi, 2 * np.pi))
        b = np.sort(np.mod(np.array(closed) + np.pi, 2 * np.pi))
        worst = max(worst, float(np.max(np.abs(a - b))))

    # hypercube: binomial multiplicities on cos(theta_k) = 1 - 2k/d
    d = 4
    g = build_graph(hypercube_spec(d))
    phases, _ = dense_eigens(dense_unitary(g, CoinConfig()))
    for k in range(1, d):
        theta = math.acos(1 - 2 * k / d)
        count = int(np.sum(np.abs(phases - theta) < 1e-9))
        assert count == math.comb(d, k), f"level {k}: {count} != C({d},{k})"
    closed = []
    for mode in np.ndindex(*(2,) * d):
        closed.extend(closed_form_block_phases(hypercube_spec(d), mode))
    a = np.sort(np.mod(phases + np.pi, 2 * np.pi))
    b = np.sort(np.mod(np.array(closed) + np.pi, 2 * np.pi))
    worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-9
    _verdict(3, "spectrum-reproduction", started, 10, f"max phase dev={worst:.1e}")


def test_c04_abstract_search_validation():
    started = time.time()
    spec = torus_spec(4)
    ms = mode_spectrum(spec)
    alpha = solve_alpha(ms)
    g = build_graph(spec)
    op = dense_unitary(g, default_coin(g, marked=(0,)))
    phases, _ = dense_eigens(op)
    alpha_dense = float(np.min(np.abs(phases[np.abs(phases) > 1e-8])))
    assert abs(alpha - alpha_dense) < 1e-6

    x = lift_principal_eigenvector(g, 0, alpha)
    residual = float(np.linalg.norm(op.matrix @ x - np.exp(1j * alpha) * x))
    assert residual < 1e-8

    inside = (np.abs(phases) > 1e-9) & (np.abs(phases) < ms.theta_min - 1e-9)
    assert int(np.sum(inside)) == 2
    _verdict(4, "abstract-search-L4", started, 5,
             f"|alpha-dense|={abs(alpha - alpha_dense):.1e} residual={residual:.1e}")


def test_c05_grid_2d_scaling():
    started = time.time()
    rows = [sweep_point(torus_spec(side)) for side in (8, 16, 32, 64)]

    # exponent fitted over the full stated size set (see decisions ledger)
    xs = np.log2([r.n_vertices for r in rows])
    ys = np.log2([r.t_star for r in rows])
    exponent = float(np.polyfit(xs, ys, 1)[0])
    assert 0.45 <= exponent <= 0.60

    ratios = [r.p_star * math.log2(r.n_vertices) for r in rows]
    assert max(ratios) / min(ratios) <= 4.0

    for row in rows:
        n = row.n_vertices
        scale = math.sqrt(n * math.log2(n))
        lo, hi = scale / 2, math.pi * scale / (2 * math.sqrt(2))
        assert lo / 2 <= row.t_star <= 2 * hi
    _verdict(5, "grid-2d-scaling", started, 300,
             f"exponent={exponent:.3f} p*log2N band={min(ratios):.2f}..{max(ratios):.2f}")


def test_c06_moving_shift_separation():
    started = time.time()
    ratios = []
    for side in (8, 16, 32):
        n = side * side
        cap = int(math.ceil(4 * math.sqrt(n * math.log2(n))))
        gm = build_graph(torus_spec(side, shift="moving"))
        moving = find_peak(run_walk(gm, default_coin(gm, marked=(0,)), cap))
        assert moving.p_star_marked < 20 / n

        flip = sweep_point(torus_spec(side))
        ratio = flip.p_star_marked / moving.p_star_marked
        assert ratio >= side  # the separation grows at least linearly
        ratios.append(ratio)
    assert ratios[1] >= 1.8 * ratios[0] and ratios[2] >= 1.8 * ratios[1]
    _verdict(6, "moving-shift-separation", started, 120,
             f"flip/moving peak ratios={[round(r, 1) for r in ratios]}")


def test_c07_moving_shift_mechanism():
    started = time.time()
    spec = torus_spec(4, shift="moving")
    g = build_graph(spec)
    phases, vectors = dense_eigens(dense_unitary(g, default_coin(g, marked=(0,))))
    dense_value = eigenspace_projection(phases, vectors, 0.0, uniform_state(g).vector)
    formula = moving_shift_stationary_overlap(spec)
    assert abs(formula - dense_value) < 1e-8

    series = [float(moving_shift_stationary_overlap(torus_spec(side, shift="moving")))
              for side in (4, 6, 8)]
    assert series[0] < series[1] < series[2]
    for side, value in zip((4, 6, 8), series):
        assert value >= 1 - 16 / side ** 2
    _verdict(7, "moving-shift-mechanism", started, 30,
             f"|formula-dense|={abs(formula - dense_value):.1e} trend={[round(v, 4) for v in series]}")


def test_c08_three_dimensions_constant_probability():
    started = time.time()
    rows = [sweep_point(torus_spec(side, 3)) for side in (5, 8, 12, 16)]
    p = [r.p_star for r in rows]
    pm = [r.p_star_marked for r in rows]
    assert max(p) / min(p) < 2.0
    assert max(pm) / min(pm) < 2.0

    rows_fit = sorted(rows, key=lambda r: r.n_vertices)[1:]  # drop smallest
    xs = np.log2([r.n_vertices for r in rows_fit])
    ys = np.log2([r.t_star for r in rows_fit])
    exponent = float(np.polyfit(xs, ys, 1)[0])
    assert 0.45 <= exponent <= 0.55
    _verdict(8, "3d-constant-probability", started, 300,
             f"exponent={exponent:.3f} p* spread={max(p) / min(p):.2f}x")


def test_c09_dirac_coin_parity():
    started = time.time()
    details = []
    for side in (8, 16, 32):
        flip = sweep_point(torus_spec(side))
        dirac = sweep_point(torus_spec(side, shift="dirac"))
        p_ratio = flip.p_star / dirac.p_star
        t_ratio = flip.t_star / dirac.t_star
        assert 0.5 <= p_ratio <= 2.0, f"side {side}: peak ratio {p_ratio}"
        assert 0.5 <= t_ratio <= 2.0, f"side {side}: time ratio {t_ratio}"
        details.append((side, round(p_ratio, 2), round(t_ratio, 2)))
    _verdict(9, "dirac-2dim-coin-parity", started, 120, f"(side,p,t) ratios={details}")


def test_c10_grover_equivalence():
    started = time.time()
    for n in (16, 64):
        g = build_graph(complete_spec(n))
        coin = default_coin(g, marked=(3,))
        state = uniform_state(g)
        step(state, coin)
        step(state, coin)
        s = np.full(n, 1 / math.sqrt(n))
        rv = s.copy()
        rv[3] *= -1.0
        grover = 2 * s * (s @ rv) - rv
        marginal_dev = float(np.max(np.abs(vertex_probabilities(state) - grover ** 2)))
        assert marginal_dev < 1e-10

        steps = 2 * round((math.pi / 4) * math.sqrt(n))
        state = uniform_state(g)
        for _ in range(steps):
            step(state, coin)
        success = float(vertex_probabilities(state)[3])
        assert success >= 0.8
    _verdict(10, "grover-equivalence", started, 10,
             f"marginal dev={marginal_dev:.1e} success@{steps}={success:.3f}")


def _hypercube_rows():
    return [(d, sweep_point(hypercube_spec(d))) for d in (8, 9, 10, 11, 12)]


def test_c11_hypercube_probability():
    started = time.time()
    values = []
    for d, row in _hypercube_rows():
        assert 0.3 <= row.p_star_marked <= 0.7, f"d={d}: p*={row.p_star_marked}"
        values.append(round(row.p_star_marked, 3))
    _verdict(11, "hypercube-probability", started, 120, f"p*(marked)={values}")


@pytest.mark.xfail(strict=True,
                   reason="crest sits at (pi/2)sqrt(N/2)(1+o(1)), ~25-27% below "
                          "(pi/2)sqrt(N); the stated band straddles its boundary "
                          "(see decisions ledger)")
def test_c11_hypercube_peak_time():
    started = time.time()
    deviations = {}
    for d, row in _hypercube_rows():
        target = (math.pi / 2) * math.sqrt(row.n_vertices)
        deviations[d] = abs(row.t_star - target) / target
    print(f"\nACCEPTANCE 11 [hypercube-peak-time]: deviations from (pi/2)sqrt(N) "
          f"= { {d: round(v, 4) for d, v in deviations.items()} } "
          f"({time.time() - started:.1f}s)")
    assert all(v <= 0.25 for v in deviations.values()), \
        f"outside the 25% band: { {d: round(v, 3) for d, v in deviations.items() if v > 0.25} }"


def test_c12_two_marked():
    started = time.time()
    g = build_graph(torus_spec(16))
    v2 = g.vertex_index((5, 7))
    result = run_two_marked(torus_spec(16), 0, v2, 1000)
    assert result.symmetry_residual < 1e-10
    assert result.reflection_form_deviation < 1e-10

    # the pair rotates at its own (higher) rate; give the window headroom
    report = predict(torus_spec(16))
    window = 3 * report.peak_steps
    pair_peak = find_peak(run_two_marked(torus_spec(16), 0, v2, window).trace)
    single = sweep_point(torus_spec(16))
    ratio = pair_peak.p_star / single.p_star
    assert 0.5 <= ratio <= 2.0
    _verdict(12, "two-marked-items", started, 60,
             f"sym={result.symmetry_residual:.1e} form-dev="
             f"{result.reflection_form_deviation:.1e} pair/single={ratio:.2f}")


def test_c13_amplification_ledger():
    started = time.time()
    budget_constant = 2.0  # fixed: ledger total <= C sqrt(N) log2(N) for all sides
    summary = []
    for side in (16, 32, 64):
        g = build_graph(torus_spec(side))
        row = sweep_point(torus_spec(side))
        gamma = math.asin(math.sqrt(row.p_star_marked))
        rounds = rounds_to_quarter(gamma)
        assert rounds <= math.ceil(math.sqrt(math.log2(g.n)))
        result = amplify(g, default_coin(g, marked=(0,)), row.t_star_marked, rounds)
        scale = math.sqrt(g.n) * math.log2(g.n)
        assert result.ledger.total <= budget_constant * scale
        summary.append((side, rounds, round(float(result.success[-1]), 3),
                        round(result.ledger.total / scale, 2)))
        if side == 32:
            assert result.success[-1] >= 0.25
    _verdict(13, "amplification-ledger", started, 300,
             f"(side,rounds,success,C)={summary}")


def test_c14_spectral_sum_bands():
    started = time.time()
    r1_2d, r2_2d, r1_3d = [], [], []
    for side in (8, 16, 32, 64):
        ms = mode_spectrum(torus_spec(side))
        s1, s2, _ = spectral_sums(ms)
        n = side ** 2
        r1_2d.append(2 * s1 / (n * math.log2(n)))
        r2_2d.append(2 * s2 / n ** 2)
    for side in (5, 8, 12, 16):
        ms = mode_spectrum(torus_spec(side, 3))
        s1, _, _ = spectral_sums(ms)
        r1_3d.append(2 * s1 / side ** 3)
    assert all(0.20 <= v <= 0.30 for v in r1_2d)
    assert all(0.05 <= v <= 0.09 for v in r2_2d)
    assert all(1.00 <= v <= 1.70 for v in r1_3d)
    _verdict(14, "spectral-sum-bands", started, 30,
             f"2d S1 band {min(r1_2d):.3f}..{max(r1_2d):.3f}, "
             f"2d S2 band {min(r2_2d):.3f}..{max(r2_2d):.3f}, "
             f"3d S1 band {min(r1_3d):.3f}..{max(r1_3d):.3f}")
