"""Dense spectral containers, transforms and the padded-transform convolution.

The forward transform carries the ``1/N_total`` factor, so coefficients are
amplitudes: the k=0 coefficient equals the spatial mean and a unit-amplitude
mode has a unit-magnitude coefficient pair.  Spatial fields are real; their
spectra are Hermitian-symmetric.  Convolutions multiply in space on a grid
padded just enough for the operands' reach (at most ``P = 3n/2`` points per
dimension, the 2/3 rule), in one place for both containers
(:func:`padded_product`); the grid's index arithmetic
(:func:`~sparsedyn.grid.transform_size`, :func:`~sparsedyn.grid.box_index`)
sizes, pads and crops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatch, HermitianViolation
from .grid import GridSpec, box_index, derivative_factor, transform_size

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


class HeldField:
    """A convolution operand whose field on the padded grid is made on first
    use and then kept, with the grid's size: for an operand that every step
    convolves again, such as a run's coefficient.  A call on another size
    makes it again.  A sparse operand also keeps its open-box entries and
    reach (``entries``, made by the sparse convolution on first use).  The
    field is as large as the padded grid, so hold one per run, never one
    per state."""

    __slots__ = ("spectrum", "field", "size", "entries")

    def __init__(self, spectrum) -> None:
        self.spectrum = spectrum
        self.field: np.ndarray | None = None
        self.size = 0
        self.entries = None


def spectrum_of(operand):
    """The spectrum of a convolution operand, held or not."""
    return operand.spectrum if isinstance(operand, HeldField) else operand


def padded_product(grid: GridSpec, terms, entries, size: int, out: np.ndarray) -> np.ndarray:
    """Values of ``sum w * a * b`` over terms ``(w, a, b)`` at the flat
    indices ``out``, made on the grid of ``size`` points per dimension with
    one forward transform.

    ``size`` comes from :func:`~sparsedyn.grid.transform_size` for the
    largest sum of the operands' reaches, and ``out`` indexes the box it
    reads (:func:`~sparsedyn.grid.box_index`), so every product lands on
    its own mode or outside that box: the result is free of aliasing.
    ``entries(spectrum)`` gives a spectrum's open-box entries as (flat
    index on the ``size`` grid, value).  They are scattered and
    inverse-transformed once per distinct operand of the call, so ``u*u``
    transforms ``u`` once; a :class:`HeldField` makes its field once for as
    long as it is held and calls keep its size.

    This is the one place that multiplies in physical space, for sparse and
    dense spectra alike.
    """
    shape = (size,) * grid.dims
    made: dict[int, np.ndarray] = {}

    def make(spectrum) -> np.ndarray:
        index, values = entries(spectrum)
        padded = np.zeros(size**grid.dims, dtype=np.complex128)
        padded[index] = values
        return np.fft.ifftn(padded.reshape(shape)) * padded.size

    def field(operand) -> np.ndarray:
        if isinstance(operand, HeldField):
            if operand.size != size:
                operand.field, operand.size = make(operand.spectrum), size
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
    product = np.fft.fftn(total) / total.size
    return product.ravel()[out]


def dense_convolve_sum(terms) -> DenseSpectrum:
    """Galerkin-truncated ``sum w * (a * b)`` over terms ``(w, a, b)`` of
    dense spectra (or :class:`HeldField` of one), with one forward
    transform.

    Dense operands fill the box, so :func:`padded_product` works on
    ``P = 3n/2`` points per dimension (:attr:`~sparsedyn.grid.GridSpec.n_padded`,
    the 2/3 rule) for ``n >= 8``: each distinct operand's open-box
    coefficients are placed there, and the weighted sum is written back to
    the open box, so the unpaired Nyquist mode is zero.
    """
    grid = spectrum_of(terms[0][1]).grid
    if any(spectrum_of(op).grid != grid for _, a, b in terms for op in (a, b)):
        raise GridMismatch("convolution operands on different grids")
    size, k = transform_size(grid, 2 * (grid.n_per_dim // 2 - 1))
    index, padded = box_index(grid, k, grid.n_per_dim)[1], box_index(grid, k, size)[1]
    coeffs = np.zeros(grid.n_total, dtype=np.complex128)
    coeffs[index] = padded_product(
        grid, terms, lambda s: (padded, s.coeffs.ravel()[index]), size, padded
    )
    return DenseSpectrum(grid, coeffs.reshape(grid.shape))


def dense_convolve(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Galerkin-truncated convolution of amplitude spectra through padded
    transforms: the one-term case of :func:`dense_convolve_sum`, with the
    same truncation contract as the sparse entry-pair kernel."""
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
