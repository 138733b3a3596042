"""Coined discrete-time quantum walk search on grids, hypercubes, and
complete graphs: a fast structured simulator, a spectral run-time
predictor, and a dense ground-truth oracle for cross-validation."""

from .engine import (CoinConfig, WalkState, apply_coin, apply_shift, default_coin,
                     flip_marked_vertices, marked_coin_state, reflect_about, step,
                     uniform_state, vertex_probabilities)
from .graphs import (ConfigurationError, Graph, GraphSpec, build_graph,
                     complete_spec, hypercube_spec, torus_spec)
from .oracle import (DenseOperator, block_eigens, dense_eigens, dense_principal_pair,
                     dense_unitary, evolve_dense, grover_coin)
from .runner import (AmplifyResult, CostLedger, PeakInfo, RunTrace, SweepResult,
                     TwoMarkedResult, amplify, find_peak, fit_exponent, run_two_marked,
                     run_walk, scaling_sweep, sweep_point)
from .search import (PredictionReport, alpha_bracket, predict, predict_overlaps,
                     predict_runtime, secular_value, solve_alpha)
from .spectral import (ModeSpectrum, closed_form_cos, mode_spectrum,
                       moving_shift_stationary_overlap, spectral_sums, torus_modes)

__version__ = "0.1.0"
