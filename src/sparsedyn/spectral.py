"""Dense spectral containers, transforms and the padded-transform convolution.

The forward transform carries the ``1/N_total`` factor, so coefficients are
amplitudes: the k=0 coefficient equals the spatial mean and a unit-amplitude
mode has a unit-magnitude coefficient pair.  Spatial fields are real; their
spectra are Hermitian-symmetric.  The one convolution entry,
:func:`~sparsedyn.shrinkage.convolve_sum`, multiplies in space here, on a
grid padded just enough for the operands' reach (at most ``P = 3n/2``
points per dimension, the 2/3 rule), in one place for both containers
(:func:`padded_product`), with real-to-complex transforms only: a caller
that declares its operands real (the solver) makes one real field per
operand; any other operand is split into two real fields.  Each operand,
behind a :class:`HeldField`, places itself on the padded grid, a sparse one
by its keys (the images of one sparse spectrum, its operands times mode
factors, at the places of its keys, found once for all of them) and a
dense one by copying the box; the grid's index
arithmetic sizes (:func:`~sparsedyn.grid.transform_size`), places keys
(:func:`~sparsedyn.grid.half_index`) and gives the box's blocks
(:func:`~sparsedyn.grid.box_blocks`), whose slices pad a dense operand and
crop every product (:func:`read_box`), with no index table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, HermitianViolation
from .grid import (
    DERIVATIVE_FACTORS,
    GridSpec,
    at_negated_modes,
    box_blocks,
    half_index,
    mode_table,
    negated_keys,
)

# Imaginary residual above this, relative to the field's largest real value
# when that exceeds one, aborts a nominally real inverse transform.
IMAG_RESIDUAL_LIMIT = 1e-8

_STACK_BYTES = 128 << 10  # half-grid bytes per inverse transform: glibc's mmap threshold


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
        """Integer mode vectors, shape ``(dims, *grid.shape)``, FFT layout,
        made from the per-axis :meth:`~sparsedyn.grid.GridSpec.mode_numbers`
        on each call."""
        return np.stack(np.meshgrid(*[self.grid.mode_numbers()] * self.grid.dims, indexing="ij"))

    def at(self, factor) -> np.ndarray:
        """A mode factor (such as :func:`~sparsedyn.grid.wavenumber_squares`)
        at every mode, aligned with ``coeffs``: its cached table
        (:func:`~sparsedyn.grid.mode_table`)."""
        return mode_table(self.grid, factor)

    def is_hermitian(self, rtol: float = 1e-12) -> bool:
        """Whether this is the spectrum of a real field (:func:`is_hermitian`)."""
        return is_hermitian(self, rtol)

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
        ``IMAG_RESIDUAL_LIMIT`` times ``max(1, max|real part|)`` (signals a
        solver bug upstream; a huge but finite field is not one).
    """
    values = np.fft.ifftn(spec.coeffs) * spec.grid.n_total
    residual = float(np.max(np.abs(values.imag), initial=0.0))
    limit = IMAG_RESIDUAL_LIMIT * max(1.0, float(np.max(np.abs(values.real), initial=0.0)))
    if residual > limit:
        raise HermitianViolation(f"imaginary residual {residual:.3e} exceeds {limit:.0e}")
    return SpatialField(spec.grid, values.real.copy())


def spectral_derivative(spec, axis: int = 0):
    """Multiply a dense or sparse spectrum by ``i*k`` along ``axis``; the
    Nyquist mode is zeroed."""
    if not 0 <= axis < spec.grid.dims:
        raise ValueError(f"axis {axis} out of range for dims={spec.grid.dims}")
    return spec.apply_mode_factor(spec.at(DERIVATIVE_FACTORS[axis]))


class HeldField:
    """One convolution operand with its memos: its field on the padded
    grid, kept with the grid's size and whether the call declared its
    operands real (a call on another size or contract makes it again), and
    the plans of its one-term calls with sparse operands, by the other
    operand's support and side (:func:`~sparsedyn.shrinkage.convolve_sum`):
    whether such a call takes the transform, or the pair-to-output index of
    its entry pairs, at most ``shrinkage._PLANS`` of them, the oldest
    evicted first.  A sparse operand's open-box entries (:meth:`entries`)
    are kept on the spectrum itself, or, for a sparse spectrum times a mode
    factor, with the other such operands of its spectrum (``images``, a
    :class:`_Images`, at ``row``).

    Every call holds its operands (:func:`hold_operands`), marked
    ``call_only`` if made for that call, which keep no plans; hold one
    across calls for an operand that every step convolves again, such as a
    run's coefficient, for as long as the run lasts, but never one per
    state: the field is as large as the padded grid (a stacked one keeps
    its stack, of at most ``_STACK_BYTES`` half grids, alive)."""

    __slots__ = ("spectrum", "images", "row", "field", "size", "real", "call_only", "plans")

    def __init__(self, spectrum, images: "_Images | None" = None, row: int = 0) -> None:
        self.spectrum = spectrum
        self.images, self.row = images, row
        self.field: np.ndarray | None = None
        self.size = 0
        self.real = False
        self.call_only = False
        self.plans: dict = {}

    def entries(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Keys, values and reach of a sparse operand's open-box entries
        (:attr:`~sparsedyn.shrinkage.SparseSpectrum.open_entries`, or those
        of its row of :class:`_Images`)."""
        if self.images is None:
            return self.spectrum.open_entries
        return self.images.entries[self.row]

    def place(self, half: np.ndarray, size: int) -> None:
        """Write the operand onto ``half``, zeros of shape ``(rows, size, ...,
        size//2 + 1)`` on the half grid of a real transform on ``size`` points
        per dimension: in row 0 its open-box entries with ``m_last >= 0``, in
        a second row, if any, those with ``m_last <= 0`` at their negated
        mode, conjugated.  A sparse operand places the keys of its entries
        (:func:`~sparsedyn.grid.half_index`; a stack of images of one
        spectrum places them together, :func:`_place_stack`), a dense one
        copies the open box's blocks (:func:`~sparsedyn.grid.box_blocks`),
        for the second row from its coefficients at the negated modes
        (:func:`~sparsedyn.grid.at_negated_modes`)."""
        spec, grid = self.spectrum, self.spectrum.grid
        if isinstance(spec, DenseSpectrum):
            rows = [spec.coeffs]
            if len(half) == 2:
                rows.append(np.conjugate(at_negated_modes(spec.coeffs)))
            edge = grid.box_edge
            for src, dst in zip(box_blocks(grid.dims, edge, grid.n_per_dim),
                                box_blocks(grid.dims, edge, size)):
                if dst.half:
                    for row, coeffs in zip(half, rows):
                        row[dst.at] = coeffs[src.at]
            return
        keys, vals, _ = self.entries()
        flat = half.reshape(len(half), -1)
        keep, index = half_index(grid, keys, size)
        flat[0, index] = vals[keep]
        if len(half) == 2:
            keys, vals = negated_keys(grid, keys[::-1]), np.conjugate(vals[::-1])
            keep, index = half_index(grid, keys, size)
            flat[1, index] = vals[keep]


def _place_stack(stack: list, half: np.ndarray, size: int) -> None:
    """Place each held operand of ``stack`` on its row of ``half``
    (:meth:`HeldField.place`), a run of images of one spectrum in
    consecutive rows, as :func:`hold_operands` lists the operands of
    ``advection_term``, in one scatter (:meth:`_Images.place`).  Where
    ``size`` is too small for the spectrum's keys, as when its images drop
    its outermost entries, a key would land on another's place, so each
    image places its own entries."""
    at = 0
    while at < len(stack):
        made, run = stack[at], 1
        if made.images is None or 2 * made.spectrum.open_entries[2] >= size:
            made.place(half[at], size)
        else:
            while (at + run < len(stack) and stack[at + run].images is made.images
                   and stack[at + run].row == made.row + run):
                run += 1
            made.images.place(half[at:at + run], made.row, size)
        at += run


class _Images:
    """The operands of one call that are one sparse spectrum times mode
    factors, ``(spectrum, factor)`` (:func:`hold_operands`), one row each:
    ``products``, their values at every open-box entry of the spectrum,
    and ``entries``, the keys, values and reach of each one's own open-box
    entries (:meth:`~sparsedyn.shrinkage.SparseSpectrum.open_products`,
    made once the call's factors are known), and the places of the
    spectrum's keys on the half grid of each padded size, found once for
    all of them."""

    __slots__ = ("spectrum", "factors", "products", "entries", "placed")

    def __init__(self, spectrum) -> None:
        self.spectrum = spectrum
        self.factors: list = []
        self.placed: dict = {}

    def place(self, half: np.ndarray, first: int, size: int) -> None:
        """Write images ``first``, ``first + 1``, ... onto the rows of
        ``half`` (:meth:`HeldField.place`): their products at the spectrum's
        open-box keys, those that underflow as zeros, one scatter per
        part."""
        grid, keys = self.spectrum.grid, self.spectrum.open_entries[0]
        products = self.products[first:first + len(half)]
        flat = half.reshape(half.shape[:2] + (-1,))
        for part in range(half.shape[1]):
            if (size, part) not in self.placed:
                ordered = keys if part == 0 else negated_keys(grid, keys[::-1])
                self.placed[size, part] = half_index(grid, ordered, size)
            keep, index = self.placed[size, part]
            vals = products if part == 0 else np.conjugate(products[:, ::-1])
            flat[:, part, index] = vals[:, keep]


def hold_operands(terms) -> tuple[GridSpec, list]:
    """The common grid of terms ``(w, a, b)`` and the terms with every
    operand a :class:`HeldField`: a held operand as it is, any other behind
    one made for this call and shared by each term it appears in, so every
    distinct operand is made once per call.

    An operand is a spectrum, or ``(spectrum, factor)`` for the spectrum
    times the mode factor ``factor`` (as ``spectrum.apply_mode_factor(
    spectrum.at(factor))`` gives it).  A dense one is made so; the sparse
    ones of one spectrum, its images, share its open-box entries and its
    placement on the padded grid (:class:`_Images`).

    Raises
    ------
    GridMismatch
        If the operands are not all on one grid.
    """
    held: dict = {}
    images: dict[int, _Images] = {}

    def hold(operand) -> HeldField:
        if isinstance(operand, HeldField):
            return operand
        if isinstance(operand, tuple):
            spectrum, factor = operand
            key = id(spectrum), factor
        else:
            spectrum, factor = operand, None
            key = id(spectrum)
        if key not in held:
            if factor is None:
                made = HeldField(spectrum)
            elif isinstance(spectrum, DenseSpectrum):
                made = HeldField(spectrum.apply_mode_factor(spectrum.at(factor)))
            else:
                if id(spectrum) not in images:
                    images[id(spectrum)] = _Images(spectrum)
                group = images[id(spectrum)]
                group.factors.append(factor)
                made = HeldField(spectrum, group, len(group.factors) - 1)
            made.call_only = True
            held[key] = made
        return held[key]

    terms = [(w, hold(a), hold(b)) for w, a, b in terms]
    grid = terms[0][1].spectrum.grid
    if any(op.spectrum.grid != grid for _, a, b in terms for op in (a, b)):
        raise GridMismatch("convolution operands on different grids")
    for group in images.values():
        group.products, group.entries = group.spectrum.open_products(group.factors)
    return grid, terms


def padded_product(
    grid: GridSpec, terms, size: int, k: int, real: bool, fft_layout: bool = False
) -> np.ndarray:
    """Values of ``sum w * a * b`` over terms ``(w, a, b)`` of held operands
    (:func:`hold_operands`) at the modes ``|s_d| <= k``, made on the grid
    of ``size`` points per dimension with real transforms: the box in key
    order (:func:`~sparsedyn.grid.box_index`), shape ``(2k + 1,) * dims``,
    or with ``fft_layout`` written straight into the grid's own FFT layout,
    shape ``grid.shape``, zero outside the box (:func:`read_box`).

    ``size`` and ``k`` come from :func:`~sparsedyn.grid.transform_size` for
    the largest sum of the operands' reaches, so every product lands on its
    own mode or outside the box read: the result is free of aliasing.
    Operands not held at this size and contract are made in the order of
    first need, as many as ``_STACK_BYTES`` of half grids hold (one at
    least) by one inverse transform of their rows of one zeroed stack
    (:meth:`HeldField.place`; the images of one sparse spectrum, its
    operands ``(spectrum, factor)``, find the places of its keys once,
    :class:`_Images`), and kept as long as calls keep that size and
    contract, so ``u*u`` transforms ``u`` once; the field of a ``call_only``
    operand is dropped after the last term that needs it.

    With ``real`` the caller declares every operand the spectrum of a real
    field and every weight real: each operand's field is one real row, the
    weighted products are summed as one real array, and one real forward
    transform makes the result.  Any asymmetry of an operand (roundoff,
    say) is folded into its real field.  Otherwise an operand ``c`` takes
    two rows, the real fields of its Hermitian part ``(c(m) + conj
    c(-m))/2`` and of ``(c(m) - conj c(-m))/2i``, so ``c`` is their first
    plus ``i`` times their second, and the real and imaginary parts of the
    product are made by one forward call.  Either way the box is read off
    the half spectrum by :func:`read_box`, so the spectrum of each real
    product field is exactly Hermitian.  In 1-D the transforms are
    ``irfft``/``rfft``: the bits of ``irfftn``/``rfftn`` for less.

    This is the one place that multiplies in physical space, for sparse and
    dense spectra alike.
    """
    half_shape = (size,) * (grid.dims - 1) + (size // 2 + 1,)
    parts = 1 if real else 2  # real fields per operand, on the second axis
    one_d = grid.dims == 1  # where the n-d wrappers cost more for the same bits
    inverse, forward = (np.fft.irfft, np.fft.rfft) if one_d else (np.fft.irfftn, np.fft.rfftn)
    shape, axes = (size, -1) if one_d else ((size, size), (-2, -1))
    fresh = [h for h in dict.fromkeys(op for _, a, b in terms for op in (a, b))
             if (h.size, h.real) != (size, real)]
    per_stack = max(1, _STACK_BYTES // (16 * parts * size ** (grid.dims - 1) * half_shape[-1]))

    def field(held: HeldField) -> np.ndarray:
        if (held.size, held.real) == (size, real):
            return held.field
        stack, fresh[:per_stack] = fresh[:per_stack], []
        half = np.zeros((len(stack), parts) + half_shape, dtype=np.complex128)
        _place_stack(stack, half, size)
        if not real:  # rows c(m) and conj c(-m) become the two parts
            own, odd = half.swapaxes(0, 1)
            own[:], odd[:] = (own + odd) * 0.5, (odd - own) * 0.5j
        for made, rows in zip(stack, inverse(half, shape, axes, norm="forward")):
            made.field = rows[0] if real else rows[0] + 1j * rows[1]
            made.size, made.real = size, real
        return held.field

    # a field made for this call alone is dropped after its last product,
    # so the call holds few fields at once and none through the forward
    # transform: a smaller peak, which the heap can serve again next call
    last = {id(held): j for j, (_, a, b) in enumerate(terms) for held in (a, b)}
    total = None
    for j, (w, a, b) in enumerate(terms):
        prod = field(a) * field(b)
        for held in (a, b):
            if held.call_only and last[id(held)] == j:
                held.field, held.size = None, 0
        if w != 1:
            prod *= w
        if total is None:
            total = prod
        else:
            total += prod
    del prod

    stacked = total[None] if real else np.stack((total.real, total.imag))
    del total
    spectra = forward(stacked, shape, axes, norm="forward")
    del stacked  # the sum's memory can serve the box read
    out = read_box(spectra, size, k, grid.n_per_dim if fft_layout else 0)
    return out[0] if real else out[0] + 1j * out[1]


def read_box(spectra: np.ndarray, size: int, k: int, layout: int) -> np.ndarray:
    """The box ``|m_d| <= k`` of half spectra, ``spectra`` of shape
    ``(rows, size, ..., size//2 + 1)`` from real transforms on ``size``
    points per dimension, one row each: on a ``layout``-point FFT layout
    per dimension, zero outside the box, or with ``layout`` 0 the box
    alone in key order (:func:`~sparsedyn.grid.box_blocks`).

    A block in the canonical half-space (``m_last > 0``, or ``m_last == 0``
    and ``m_0 >= 0``) is copied, every other one read as the conjugate of
    its negation, reversed: every mode and its negation read one stored
    value, so the box of a real field's spectrum is exactly Hermitian.
    """
    rows, dims = len(spectra), spectra.ndim - 1
    points = layout or 2 * k + 1
    out = (np.zeros if layout else np.empty)((rows,) + (points,) * dims, dtype=np.complex128)
    every = (slice(None),)
    for dst, src in zip(box_blocks(dims, k, layout), box_blocks(dims, k, size)):
        if src.negated is None:
            out[every + dst.at] = spectra[every + src.at]
        else:
            np.conjugate(spectra[every + src.negated], out=out[every + dst.at])
    return out


def is_hermitian(spec: DenseSpectrum, rtol: float = 1e-12) -> bool:
    """Check u(-k) == conj(u(k)) up to ``rtol`` of the largest amplitude; the
    unpaired Nyquist mode is its own negation."""
    c = spec.coeffs
    gap = np.max(np.abs(c - np.conj(at_negated_modes(c))))
    scale = float(np.max(np.abs(c))) or 1.0
    return bool(gap <= rtol * scale)
