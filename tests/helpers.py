"""Shared test utilities: dense principal-pair extraction, a step-built
reference unitary and state factories."""

from __future__ import annotations

import numpy as np

from walklab import (GraphSpec, WalkState, build_graph, default_coin,
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
