"""Reference solutions and baselines.

The dense reference steps the sparse run's schemes (``solvers``) on full
coefficient arrays with no shrinkage; its containers, its full-grid mode
factors and its convolution (padded transforms instead of entry pairs)
differ, so agreement with the sparse path still cross-checks them.  The
low-frequency baseline replaces shrinkage with a hard wavenumber cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

# coefficient_field_of and dense_convolve are re-exported: callers, and the
# layer tracer in perfbench/, look them up in this module
from .coefficients import coefficient_field_of  # noqa: F401
from .errors import GridMismatch
from .grid import GridSpec, box_blocks
from .shrinkage import SparseSpectrum
from .shrinkage import dense_convolve  # noqa: F401
from .solvers import EquationParams, _iterate
from .spectral import DenseSpectrum, SpatialField, dft_inverse


@dataclass
class StepRecord:
    step: int
    time: float
    n_s: int
    sparsity_fraction: float
    l2_error: float | None
    linf_error: float | None
    mean: complex


@dataclass
class RunReport:
    """Per-step time series of a run plus its defining metadata."""

    equation: str
    grid: GridSpec
    dt: float
    lambda_rule: str
    records: list[StepRecord] = field(default_factory=list)
    wall_clock_per_step: float = 0.0
    extras: dict = field(default_factory=dict)


def iter_dense_states(
    initial: DenseSpectrum,
    params: EquationParams,
    dt: float,
    n_steps: int,
    strict_cfl: bool = False,
):
    """Dense no-shrinkage trajectory; yields steps 0..n_steps."""
    return (s.current for s in _iterate(initial, params, dt, n_steps, strict_cfl, lambda v: v))


def project_low_frequency(spec: DenseSpectrum, cutoff: int) -> DenseSpectrum:
    """Zero every coefficient whose mode has any |k_d| > cutoff."""
    keep = np.abs(spec.grid.mode_numbers()) <= cutoff
    if spec.grid.dims == 2:
        keep = np.logical_and.outer(keep, keep)
    return DenseSpectrum(spec.grid, spec.coeffs * keep)


def iter_low_frequency_states(
    initial: DenseSpectrum,
    params: EquationParams,
    dt: float,
    n_steps: int,
    cutoff: int,
):
    """Dense stepping with a hard cutoff applied at entry and after every
    step (the fixed-band comparison baseline)."""
    project = partial(project_low_frequency, cutoff=cutoff)
    states = _iterate(project(initial), params, dt, n_steps, False, project)
    return (s.current for s in states)


def _as_field(state) -> SpatialField:
    if isinstance(state, SpatialField):
        return state
    if isinstance(state, SparseSpectrum):
        state = state.to_dense()
    if isinstance(state, DenseSpectrum):
        return dft_inverse(state)
    raise TypeError(f"cannot interpret {type(state).__name__} as a field")


def error_metrics(a, b) -> tuple[float, float]:
    """L2 and Linf distance between two states, measured in space.

    Accepts any mix of SpatialField, DenseSpectrum, SparseSpectrum on a
    common grid.
    """
    fa = _as_field(a)
    fb = _as_field(b)
    if fa.grid != fb.grid:
        raise GridMismatch("error metrics need a common grid")
    diff = fa.values - fb.values
    l2 = float(np.sqrt(np.sum(np.abs(diff) ** 2) * fa.grid.cell_volume))
    linf = float(np.max(np.abs(diff))) if diff.size else 0.0
    return l2, linf


def match_mode_count(run: RunReport) -> int:
    """Smallest cutoff K whose box |k_d| <= K holds at least the sparse
    run's final n_s modes."""
    n_s = run.records[-1].n_s if run.records else 0
    dims = run.grid.dims
    k = 0
    while (2 * k + 1) ** dims < n_s and k < run.grid.box_edge:
        k += 1
    return k


def inject(spec: DenseSpectrum | SparseSpectrum, fine: GridSpec) -> DenseSpectrum:
    """Embed a coarse spectrum into a finer grid on the same domain (same
    modes, zeros above); the coarse grid's unpaired Nyquist mode is dropped."""
    if isinstance(spec, SparseSpectrum):
        spec = spec.to_dense()
    coarse = spec.grid
    same_domain = (fine.dims, fine.domain_length) == (coarse.dims, coarse.domain_length)
    if not same_domain or fine.n_per_dim < coarse.n_per_dim:
        raise GridMismatch("target grid must match dims and domain and be at least as fine")
    k = coarse.box_edge
    coeffs = np.zeros(fine.shape, dtype=np.complex128)
    for dst, src in zip(box_blocks(fine.dims, k, fine.n_per_dim),
                        box_blocks(coarse.dims, k, coarse.n_per_dim)):
        coeffs[dst.at] = spec.coeffs[src.at]
    return DenseSpectrum(fine, coeffs)
