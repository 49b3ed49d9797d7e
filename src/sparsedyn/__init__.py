"""Sparse spectral dynamics for periodic PDEs.

Evolve a PDE in the Fourier coefficient domain while soft-thresholding the
coefficient vector at every step, so only modes whose amplitude stays above
the shrinkage threshold are carried.  Includes dense and low-frequency
reference solvers, error metrics, and an experiment harness.
"""

from .coefficients import CoefficientSpec, coefficient_field_of, sample_coefficient
from .errors import (
    CflViolation,
    CflWarning,
    ConfigError,
    GridMismatch,
    HermitianViolation,
    ModeOutOfRange,
    NegativeLambda,
    NonpositiveDt,
    NotOneDimensional,
    NotTwoDimensional,
    SolverDiverged,
    UnderResolved,
    UnknownInitialSpec,
)
from .evaluation import (
    RunReport,
    StepRecord,
    error_metrics,
    inject,
    iter_dense_states,
    iter_low_frequency_states,
    match_mode_count,
    project_low_frequency,
)
from .grid import GridSpec, fft_index_to_mode, mode_to_fft_index
from .harness import (
    ExperimentConfig,
    bench_convolution,
    bundled_recipes,
    convergence_study,
    format_config,
    load_recipe,
    parse_config_file,
    parse_config_text,
    run,
)
from .shrinkage import (
    LambdaSchedule,
    SparseSpectrum,
    dense_convolve,
    dump_spectrum,
    dumps_spectrum,
    lambda_at,
    load_spectrum,
    soft_threshold,
    sparse_convolve,
    sparsity_fraction,
)
from .solvers import (
    EquationParams,
    InitialSpec,
    SolverState,
    advance,
    initial_condition,
    iter_states,
    step_burgers,
    step_convection,
    step_parabolic,
    step_vorticity,
)
from .spectral import (
    DenseSpectrum,
    SpatialField,
    dft_forward,
    dft_inverse,
    spectral_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSpec",
    "DenseSpectrum",
    "EquationParams",
    "ExperimentConfig",
    "GridSpec",
    "InitialSpec",
    "LambdaSchedule",
    "RunReport",
    "SolverState",
    "SparseSpectrum",
    "SpatialField",
    "StepRecord",
    "advance",
    "bench_convolution",
    "bundled_recipes",
    "coefficient_field_of",
    "convergence_study",
    "dense_convolve",
    "dft_forward",
    "dft_inverse",
    "dump_spectrum",
    "dumps_spectrum",
    "error_metrics",
    "fft_index_to_mode",
    "format_config",
    "initial_condition",
    "inject",
    "iter_dense_states",
    "iter_low_frequency_states",
    "iter_states",
    "lambda_at",
    "load_recipe",
    "load_spectrum",
    "match_mode_count",
    "mode_to_fft_index",
    "parse_config_file",
    "parse_config_text",
    "project_low_frequency",
    "run",
    "sample_coefficient",
    "soft_threshold",
    "sparse_convolve",
    "sparsity_fraction",
    "spectral_derivative",
    "step_burgers",
    "step_convection",
    "step_parabolic",
    "step_vorticity",
]
