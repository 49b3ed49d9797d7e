"""Dense spectral containers, transforms and the padded-transform convolution.

The forward transform carries the ``1/N_total`` factor, so coefficients are
amplitudes: the k=0 coefficient equals the spatial mean and a unit-amplitude
mode has a unit-magnitude coefficient pair.  Spatial fields are real; their
spectra are Hermitian-symmetric.  Convolutions multiply in space on a grid
padded to ``P = 3n/2`` points per dimension (the 2/3 rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatch, HermitianViolation
from .grid import GridSpec, derivative_factor

# Imaginary residual above this aborts a nominally real inverse transform.
IMAG_RESIDUAL_LIMIT = 1e-8


@dataclass(frozen=True)
class SpatialField:
    """Real samples on the grid, shape ``grid.shape``."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}"
            )


@dataclass(frozen=True)
class DenseSpectrum:
    """Complex amplitude per resolved mode, FFT layout, shape ``grid.shape``."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"spectrum shape {self.coeffs.shape} != grid shape {self.grid.shape}"
            )

    def mean_mode(self) -> complex:
        """The k=0 coefficient (spatial mean of the represented field)."""
        return complex(self.coeffs[(0,) * self.grid.dims])

    def modes(self) -> np.ndarray:
        """Integer mode vectors, shape ``(dims, *grid.shape)``, FFT layout;
        read-only and shared by every spectrum on the grid."""
        return _mode_mesh(self.grid)

    def apply_mode_factor(self, factors: np.ndarray) -> "DenseSpectrum":
        """Multiply entrywise by ``factors`` (aligned with :meth:`modes`)."""
        return DenseSpectrum(self.grid, self.coeffs * factors)

    def __add__(self, other: "DenseSpectrum") -> "DenseSpectrum":
        if not isinstance(other, DenseSpectrum):
            return NotImplemented
        if other.grid != self.grid:
            raise GridMismatch("cannot add spectra on different grids")
        return DenseSpectrum(self.grid, self.coeffs + other.coeffs)

    def __mul__(self, scalar: complex) -> "DenseSpectrum":
        return DenseSpectrum(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


@lru_cache(maxsize=8)
def _mode_mesh(grid: GridSpec) -> np.ndarray:
    m = grid.mode_numbers()
    mesh = np.stack(np.meshgrid(*([m] * grid.dims), indexing="ij"))
    mesh.setflags(write=False)
    return mesh


def dft_forward(field: SpatialField) -> DenseSpectrum:
    """Forward transform; the k=0 output equals the spatial mean."""
    coeffs = np.fft.fftn(field.values) / field.grid.n_total
    return DenseSpectrum(field.grid, coeffs)


def dft_inverse(spec: DenseSpectrum) -> SpatialField:
    """Inverse transform back to a real field.

    Raises
    ------
    HermitianViolation
        If the reconstructed field has an imaginary residual larger than
        ``IMAG_RESIDUAL_LIMIT`` (signals a solver bug upstream).
    """
    values = np.fft.ifftn(spec.coeffs) * spec.grid.n_total
    residual = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if residual > IMAG_RESIDUAL_LIMIT:
        raise HermitianViolation(
            f"imaginary residual {residual:.3e} exceeds {IMAG_RESIDUAL_LIMIT:.0e}"
        )
    return SpatialField(spec.grid, values.real.copy())


def spectral_derivative(spec, axis: int = 0):
    """Multiply a dense or sparse spectrum by ``i*k`` along ``axis``; the
    Nyquist mode is zeroed."""
    if not 0 <= axis < spec.grid.dims:
        raise ValueError(f"axis {axis} out of range for dims={spec.grid.dims}")
    return spec.apply_mode_factor(derivative_factor(spec.grid, spec.modes()[axis]))


def _resize(coeffs: np.ndarray, n_out: int) -> np.ndarray:
    """Pad or crop an FFT-layout coefficient array to ``n_out`` points per
    dimension, keeping every mode the two grids share; the smaller grid's
    unpaired Nyquist mode is zeroed."""
    n_in = coeffs.shape[0]
    n = min(n_in, n_out)
    src = tuple(slice(n_in // 2 - n // 2, n_in // 2 + n // 2) for _ in range(coeffs.ndim))
    dst = tuple(slice(n_out // 2 - n // 2, n_out // 2 + n // 2) for _ in range(coeffs.ndim))
    out = np.zeros((n_out,) * coeffs.ndim, dtype=np.complex128)
    out[dst] = np.fft.fftshift(coeffs)[src]
    for axis in range(coeffs.ndim):
        nyquist = [slice(None)] * coeffs.ndim
        nyquist[axis] = n_out // 2 - n // 2
        out[tuple(nyquist)] = 0.0
    return np.fft.ifftshift(out)


class HeldField:
    """A convolution operand whose field on the padded grid is made on first
    use and then kept: for an operand that every step convolves again, such
    as a run's coefficient.  The field is as large as the padded grid, so
    hold one per run, never one per state."""

    __slots__ = ("spectrum", "field")

    def __init__(self, spectrum) -> None:
        self.spectrum = spectrum
        self.field: np.ndarray | None = None


def spectrum_of(operand):
    """The spectrum of a convolution operand, held or not."""
    return operand.spectrum if isinstance(operand, HeldField) else operand


def padded_field(padded: np.ndarray) -> np.ndarray:
    """Field values on the padded grid of a spectrum already zero-padded to
    ``P = 3n/2`` points per dimension, FFT layout (one inverse transform)."""
    return np.fft.ifftn(padded) * padded.size


def padded_product(terms, make) -> np.ndarray:
    """Spectrum of ``sum w * f(a) * f(b)`` over terms ``(w, a, b)``, with one
    forward transform, where ``f(x)`` is operand x's field on the padded
    grid.

    ``make(spectrum)`` gives a spectrum's field (see :func:`padded_field`).
    It runs once per distinct operand of the call, so ``u*u`` transforms
    ``u`` once; a :class:`HeldField` makes its field once for as long as it
    is held.

    This is the one place that multiplies in physical space.  Every product
    of two modes with ``|m| < n/2`` lands on its own padded mode or outside
    the resolved box (see :attr:`~sparsedyn.grid.GridSpec.n_padded`), so
    cropping the result to the box is free of aliasing.
    """
    made: dict[int, np.ndarray] = {}

    def field(operand) -> np.ndarray:
        if isinstance(operand, HeldField):
            if operand.field is None:
                operand.field = make(operand.spectrum)
            return operand.field
        if id(operand) not in made:
            made[id(operand)] = make(operand)
        return made[id(operand)]

    total = None
    for w, a, b in terms:
        prod = field(a) * field(b)
        if w != 1:
            prod *= w
        if total is None:
            total = prod
        else:
            total += prod
    return np.fft.fftn(total) / total.size


def dense_convolve_sum(terms) -> DenseSpectrum:
    """Galerkin-truncated ``sum w * (a * b)`` over terms ``(w, a, b)`` of
    dense spectra (or :class:`HeldField` of one), with one forward
    transform.

    Each distinct operand is zero-padded to ``P = 3n/2`` points per
    dimension (:attr:`~sparsedyn.grid.GridSpec.n_padded`, the 2/3 rule) and
    inverse-transformed once; the products are weighted and summed in space
    by :func:`padded_product` and the sum is cropped back to the box, its
    unpaired Nyquist mode zeroed.
    """
    grid = spectrum_of(terms[0][1]).grid
    if any(spectrum_of(op).grid != grid for _, a, b in terms for op in (a, b)):
        raise GridMismatch("convolution operands on different grids")
    product = padded_product(terms, lambda s: padded_field(_resize(s.coeffs, grid.n_padded)))
    return DenseSpectrum(grid, _resize(product, grid.n_per_dim))


def dense_convolve(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Galerkin-truncated convolution of amplitude spectra through transforms
    padded to ``P = 3n/2`` points per dimension: the one-term case of
    :func:`dense_convolve_sum`, with the same truncation contract as the
    sparse entry-pair kernel."""
    sa = DenseSpectrum(grid, a)
    sb = sa if b is a else DenseSpectrum(grid, b)
    return dense_convolve_sum(((1.0, sa, sb),)).coeffs


def is_hermitian(spec: DenseSpectrum, rtol: float = 1e-12) -> bool:
    """Check u(-k) == conj(u(k)) up to ``rtol`` of the largest amplitude."""
    c = spec.coeffs
    flipped = np.conj(_reverse_modes(c))
    scale = float(np.max(np.abs(c))) or 1.0
    return bool(np.max(np.abs(c - flipped)) <= rtol * scale)


def _reverse_modes(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient array at negated modes (FFT layout, Nyquist fixed point)."""
    out = coeffs
    for axis in range(coeffs.ndim):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out
