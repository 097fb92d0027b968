"""Sub-sampled Newton methods with global convergence guarantees."""

from .data import generate_synthetic, load_dataset, save_dataset
from .linesearch import LineSearchParams, armijo
from .linsolve import InexactnessSpec, solve_exact, solve_inexact, verify_inexact
from .model import ConditionEstimates, Dataset, ObjectiveModel
from .regularize import min_eigenvalue, ridge, spectral_floor
from .sampling import SampleSet, draw, gradient_sample_size, hessian_sample_size, \
    subsampled_gradient, subsampled_hessian
from .solvers import SolverConfig, Trace, TraceRecord, plan, run
from .theory import RatePrediction, rate_alg1, rate_alg4, rate_ridge, rate_spectral

__all__ = [
    "ConditionEstimates", "Dataset", "InexactnessSpec", "LineSearchParams",
    "ObjectiveModel", "RatePrediction", "SampleSet", "SolverConfig", "Trace",
    "TraceRecord", "armijo", "draw", "generate_synthetic",
    "gradient_sample_size", "hessian_sample_size", "load_dataset",
    "min_eigenvalue", "plan", "rate_alg1", "rate_alg4", "rate_ridge",
    "rate_spectral", "ridge", "run", "save_dataset", "solve_exact",
    "solve_inexact", "spectral_floor", "subsampled_gradient",
    "subsampled_hessian", "verify_inexact",
]

__version__ = "0.1.0"
