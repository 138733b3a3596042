"""Shared test utilities: dense principal-pair extraction, a step-built
reference unitary, per-mode references for the spectral layer and state
factories."""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from walklab import (GraphSpec, WalkState, build_graph, closed_form_cos, default_coin,
                     dense_principal_pair, dense_unitary, step)


def random_state(graph, seed=0) -> WalkState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(graph.coin_dim, graph.n)) \
        + 1j * rng.normal(size=(graph.coin_dim, graph.n))
    amps /= np.linalg.norm(amps)
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


def levels(*rows) -> np.recarray:
    """ModeSpectrum.entries from (theta, weight, multiplicity) rows."""
    return np.rec.fromarrays(list(zip(*rows)) or [[], [], []],
                             names="theta,weight,multiplicity")


def per_mode_levels(spec: GraphSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """(theta, multiplicity, frozen_weight) of mode_spectrum, one mode at a time.

    closed_form_cos is called per mode; eigenphases are grouped on
    round(theta, 10) and each level keeps the theta of its first mode in
    itertools.product order.
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
        cos_theta = float(closed_form_cos(spec, mode))
        if cos_theta > 1.0 - 1e-12:
            frozen += 1.0 / n
            continue
        theta = math.acos(max(-1.0, cos_theta))
        found.setdefault(round(theta, 10), [theta, 0])[1] += 1
    theta, mult = zip(*sorted(found.values()))
    return np.array(theta), np.array(mult), frozen


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


def principal_dense_data(spec: GraphSpec, marked: int = 0) -> dict:
    """Dense ground truth for the perturbed walk's principal pair
    (see `dense_principal_pair`), with the arena and the operator."""
    graph = build_graph(spec)
    op = dense_unitary(graph, default_coin(graph, marked=(marked,)))
    alpha, start, good = dense_principal_pair(op, marked)
    return {"graph": graph, "op": op, "alpha": alpha,
            "start_overlap": start, "good_overlap": good}


def json_numbers_close(a, b, atol=1e-9, path="$") -> None:
    """Recursive comparison of parsed JSON with numeric tolerance."""
    if isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), f"{path}: keys {sorted(a)} != {sorted(b)}"
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
