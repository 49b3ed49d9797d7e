"""Closed-form variable coefficients and forcing fields.

Each named form wraps a slow envelope around a fast oscillation, e.g.
``0.25 * exp((0.6 + 0.2*cos(x)) / (1 + 0.7*sin(64*x)))``.  The highest
embedded frequency must be resolvable on the target grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnderResolved
from .grid import GridSpec
from .spectral import DenseSpectrum, SpatialField, dft_forward

# name -> (required dims, max embedded frequency)
_NAMED_FORMS = {
    "constant": (None, 0),
    "convection_oscillatory": (1, 64),
    "parabolic_oscillatory": (1, 256),
    "burgers_oscillatory": (1, 128),
    "vorticity_forcing": (2, 64),
}


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


def sample_coefficient(spec: CoefficientSpec, grid: GridSpec) -> np.ndarray:
    """Evaluate the closed form on the grid points.

    Raises
    ------
    UnderResolved
        If ``n_per_dim <= 2 * max embedded frequency``.
    """
    required_dims, max_freq = _NAMED_FORMS[spec.kind]
    if required_dims is not None and grid.dims != required_dims:
        raise ValueError(f"{spec.kind} requires a {required_dims}-D grid")
    if max_freq and grid.n_per_dim <= 2 * max_freq:
        raise UnderResolved(
            f"{spec.kind} oscillates at frequency {max_freq}; "
            f"needs n_per_dim > {2 * max_freq}, got {grid.n_per_dim}"
        )

    if spec.kind == "constant":
        return np.full(grid.shape, spec.value)

    x = grid.axis_coordinates()
    if spec.kind == "convection_oscillatory":
        return 0.25 * np.exp((0.6 + 0.2 * np.cos(x)) / (1.0 + 0.7 * np.sin(64 * x)))

    if spec.kind == "parabolic_oscillatory":
        return 0.1 * np.exp((0.6 + 0.2 * np.cos(x)) / (1.0 + 0.7 * np.sin(256 * x)))

    if spec.kind == "burgers_oscillatory":
        return 0.075 * np.exp((0.65 + 0.2 * np.cos(x)) / (1.0 + 0.7 * np.sin(128 * x)))

    # vorticity_forcing, from its terms along each axis
    sin, cos = np.sin(32 * x), np.cos(64 * x)
    return 0.025 * np.add.outer(sin, sin) / (1.0 + 0.25 * np.add.outer(cos, cos))


def coefficient_field_of(spec: CoefficientSpec, grid: GridSpec) -> DenseSpectrum:
    """Spectrum of the named coefficient sampled on ``grid``."""
    return dft_forward(SpatialField(grid, sample_coefficient(spec, grid)))
