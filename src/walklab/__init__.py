"""Coined discrete-time quantum walk search on grids, hypercubes, and
complete graphs: a fast structured simulator, a spectral run-time
predictor, and a dense ground-truth oracle for cross-validation."""

import importlib

from .engine import (WalkState, apply_coin, apply_shift, default_coin, flip_marked_vertices,
                     reflect_about, step, uniform_state, vertex_probabilities)
from .graphs import (ConfigurationError, Graph, GraphSpec, build_graph,
                     complete_spec, hypercube_spec, torus_spec)
from .runner import (AmplifyResult, CostLedger, PeakInfo, RunTrace, TwoMarkedResult, amplify,
                     find_peak, fit_exponent, run_two_marked, run_walk, sweep_point)
from .search import (PredictionReport, alpha_bracket, predict, predict_overlaps,
                     predict_runtime, secular_value, solve_alpha)
from .spectral import (ModeSpectrum, mode_spectrum, moving_shift_stationary_overlap,
                       sin2_half_theta, torus_modes)

# the dense oracle loads on first use, so that no command imports it
_ORACLE_NAMES = {"DenseOperator", "dense_eigens", "dense_unitary", "evolve_dense",
                 "grover_coin"}


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
