"""Closed-form variable coefficients and forcing fields.

Each named form wraps a slow envelope around a fast oscillation, e.g.
``0.25 * exp((0.6 + 0.2*cos(x)) / (1 + 0.7*sin(64*x)))``.  The highest
embedded frequency must be resolvable on the target grid.  The spectrum of
a 1-D form is the DFT of its samples (:func:`coefficient_field_of`); that
of ``constant`` and ``vorticity_forcing`` is built without sampling the
grid (:func:`closed_form_spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnderResolved
from .grid import TWO_PI, GridSpec
from .shrinkage import SparseSpectrum
from .spectral import DenseSpectrum, SpatialField, dft_forward

# name -> (required dims, max embedded frequency)
_NAMED_FORMS = {
    "constant": (None, 0),
    "convection_oscillatory": (1, 64),
    "parabolic_oscillatory": (1, 256),
    "burgers_oscillatory": (1, 128),
    "vorticity_forcing": (2, 64),
}

# on a 2*pi period the vorticity forcing repeats this many times per axis
FORCING_REPEATS = 32


@dataclass(frozen=True)
class CoefficientSpec:
    """A named closed-form coefficient a(x) or forcing f(x, y).

    ``kind`` is one of ``constant``, ``convection_oscillatory``,
    ``parabolic_oscillatory``, ``burgers_oscillatory``,
    ``vorticity_forcing``; ``value`` applies to ``constant`` only.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _NAMED_FORMS:
            raise ValueError(
                f"unknown coefficient kind {self.kind!r}; "
                f"expected one of {sorted(_NAMED_FORMS)}"
            )
        if not np.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")

    @classmethod
    def constant(cls, value: float) -> "CoefficientSpec":
        return cls("constant", value)


def _check_grid(spec: CoefficientSpec, grid: GridSpec) -> None:
    """Raises ``ValueError`` on a grid of other dims than the form needs,
    ``UnderResolved`` if ``n_per_dim <= 2 * max embedded frequency``."""
    required_dims, max_freq = _NAMED_FORMS[spec.kind]
    if required_dims is not None and grid.dims != required_dims:
        raise ValueError(f"{spec.kind} requires a {required_dims}-D grid")
    if max_freq and grid.n_per_dim <= 2 * max_freq:
        raise UnderResolved(
            f"{spec.kind} oscillates at frequency {max_freq}; "
            f"needs n_per_dim > {2 * max_freq}, got {grid.n_per_dim}"
        )


def sample_coefficient(spec: CoefficientSpec, grid: GridSpec) -> np.ndarray:
    """Evaluate the closed form on the grid points.

    Raises
    ------
    UnderResolved
        If ``n_per_dim <= 2 * max embedded frequency``.
    """
    _check_grid(spec, grid)
    if spec.kind == "constant":
        return np.full(grid.shape, spec.value)

    x = grid.axis_coordinates()
    if spec.kind == "convection_oscillatory":
        return 0.25 * np.exp((0.6 + 0.2 * np.cos(x)) / (1.0 + 0.7 * np.sin(64 * x)))

    if spec.kind == "parabolic_oscillatory":
        return 0.1 * np.exp((0.6 + 0.2 * np.cos(x)) / (1.0 + 0.7 * np.sin(256 * x)))

    if spec.kind == "burgers_oscillatory":
        return 0.075 * np.exp((0.65 + 0.2 * np.cos(x)) / (1.0 + 0.7 * np.sin(128 * x)))

    return _vorticity_forcing(x)


def _vorticity_forcing(x: np.ndarray) -> np.ndarray:
    """The vorticity forcing at the points ``x`` along each axis, from its
    terms along each axis."""
    sin, cos = np.sin(32 * x), np.cos(64 * x)
    return 0.025 * np.add.outer(sin, sin) / (1.0 + 0.25 * np.add.outer(cos, cos))


def coefficient_field_of(spec: CoefficientSpec, grid: GridSpec) -> DenseSpectrum:
    """Spectrum of the named coefficient sampled on ``grid``."""
    return dft_forward(SpatialField(grid, sample_coefficient(spec, grid)))


def closed_form_spectrum(spec: CoefficientSpec, grid: GridSpec) -> SparseSpectrum | None:
    """The spectrum of a form known without sampling the grid, or ``None``
    for a form whose spectrum is that of its samples
    (:func:`coefficient_field_of`); raises as :func:`sample_coefficient`.

    ``constant`` is its one mode k = 0, and no entry at all for 0.  The
    samples of ``vorticity_forcing`` repeat every ``n / FORCING_REPEATS``
    points along each axis when the domain is a whole number of ``2*pi``
    periods, so its spectrum is the DFT of one period cell
    (:meth:`~sparsedyn.shrinkage.SparseSpectrum.from_period_cell`); on any
    other domain its samples do not repeat and it is sampled.
    """
    _check_grid(spec, grid)
    if spec.kind == "constant":
        return SparseSpectrum.from_modes(grid, np.zeros((grid.dims, 1)), [spec.value])
    if spec.kind == "vorticity_forcing" and (grid.domain_length / TWO_PI).is_integer():
        cell = grid.axis_coordinates()[: grid.n_per_dim // FORCING_REPEATS]
        return SparseSpectrum.from_period_cell(grid, _vorticity_forcing(cell))
    return None
