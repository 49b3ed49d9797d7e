"""Periodic grid geometry and wavenumber bookkeeping.

A grid is square (same point count per dimension), uniform, and periodic.
Spectra are stored in standard FFT layout; the resolved integer mode set per
dimension is ``{-n/2, ..., -1, 0, 1, ..., n/2 - 1}``.  Physical (angular)
wavenumbers are ``2*pi*m / domain_length``, which reduces to the integer
modes themselves on the default ``2*pi`` domain.

All index arithmetic lives here.  A sparse key holds its mode's digits
``m + n/2`` (:func:`mode_to_key`, :func:`key_digit`, and
:func:`product_keys` for every combination of per-axis digits), and
:func:`in_open_box` reads from them alone whether the mode lies in the open
box ``|m| < n/2``.  Entry pairs are summed in the box of their digit sums
(:func:`sum_box`), into which the operands' keys are re-keyed
(:func:`box_cells`) and out of which the sums are read back as keys
(:func:`box_cell_keys`): its size follows the operands' reach, not ``n``.
Between keys and a dense spectrum there is one pair of
conversions, with no sort: a key's FFT-layout index
(:func:`key_to_fft_index`), and the key of an index into the
``fftshift``-ed layout, which is in key order (:func:`shifted_index_to_key`).
A product of operands is made on the smallest alias-free grid for their
reach (:func:`key_reach`, :func:`transform_size`) with real transforms,
which keep the half grid ``m_last >= 0``: sparse entries are placed there
by :func:`half_index`.  The box ``|m_d| <= k`` is a few sign blocks, each
contiguous on any FFT layout, on the half grid and in key order
(:func:`box_blocks`), so a dense spectrum is padded onto the half grid, and
the box of modes a product can reach read back from it, as conjugated
reversed slices where needed, by block copies with no index table; a
sparse result takes the box's keys from :func:`box_index`.

The factors of the diagonal operators (:data:`DERIVATIVE_FACTORS`,
:func:`wavenumber_squares`, :data:`VELOCITY_FACTORS`) are each one
formula of per-axis tables of length ``n`` (:func:`axis_tables`), read at
the modes' key digits.  A sparse spectrum evaluates the formula at the
digits of its own keys, so it builds nothing the size of the grid; a dense
spectrum reads the whole table (:func:`mode_table`), made from the same
per-axis values by the same formula the first time a dense spectrum asks,
and a sparse operand placed on a padded grid multiplies its row by the
factor on that half grid (:func:`half_mode_table`), made so per padded size.

Every per-grid table is built here once, cached and shared read-only:
:func:`axis_tables`, :func:`mode_table`, :func:`half_mode_table`,
:func:`mean_key`, :func:`box_index` and :func:`transform_size`; the box's blocks
(:func:`box_blocks`) are cached per layout.  Nothing else the size of the
grid is kept: a dense spectrum's modes come from the per-axis
:meth:`GridSpec.mode_numbers`, and its values at the negated modes from a
reversal and a roll (:func:`at_negated_modes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a periodic 1-D or 2-D grid.

    Equal grids hash equal; the hash is computed once, when the grid is
    made, since every cached per-grid table is looked up by it.

    Parameters
    ----------
    dims : int
        1 or 2.
    n_per_dim : int
        Points per dimension; a power of two, at least 4.
    domain_length : float
        Physical period per dimension, default ``2*pi``.
    """

    dims: int
    n_per_dim: int
    domain_length: float = TWO_PI

    def __post_init__(self) -> None:
        if self.dims not in (1, 2):
            raise ValueError(f"dims must be 1 or 2, got {self.dims}")
        n = self.n_per_dim
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"n_per_dim must be a power of two >= 4, got {n}")
        if not 0 < self.domain_length < math.inf:  # NaN fails too
            raise ValueError(f"domain_length must be positive and finite, got {self.domain_length}")
        object.__setattr__(self, "_hash", hash((self.dims, n, self.domain_length)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dx(self) -> float:
        return self.domain_length / self.n_per_dim

    @property
    def n_total(self) -> int:
        return self.n_per_dim**self.dims

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_dim,) * self.dims

    @property
    def cell_volume(self) -> float:
        """Volume element dx**dims of one grid cell."""
        return self.dx**self.dims

    def axis_coordinates(self) -> np.ndarray:
        """Sample points 0, dx, ..., L - dx along one axis."""
        return np.arange(self.n_per_dim) * self.dx

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of the grid shape, indexed row-major (x first)."""
        x = self.axis_coordinates()
        if self.dims == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def mode_numbers(self) -> np.ndarray:
        """Integer modes along one axis in FFT order: 0..n/2-1, -n/2..-1."""
        return np.fft.ifftshift(np.arange(self.nyquist_mode, -self.nyquist_mode))

    def wavenumbers(self) -> np.ndarray:
        """Physical angular wavenumbers along one axis in FFT order."""
        return wavenumbers_of(self, self.mode_numbers())

    @property
    def n_padded(self) -> int:
        """Points per dimension of the padded transform grid for operands
        that fill the box, ``P = 3n/2``: the largest size
        :func:`transform_size` gives.

        A product of two modes with ``|m| < n/2`` has ``|s| <= n - 2``; on
        ``P`` points it either lands on its own mode or wraps to ``|s - P| >=
        n/2 + 2``, outside the resolved box, so truncating to the box leaves
        no aliasing (the 2/3 rule: Orszag, J. Atmos. Sci. 28 (1971) 1074;
        Canuto et al., *Spectral Methods in Fluid Dynamics* §3.2).  ``n`` is
        a power of two >= 4, so ``P`` is an even integer.
        """
        return 3 * self.n_per_dim // 2

    @property
    def nyquist_mode(self) -> int:
        """The unpaired integer mode -n/2; zeroed by derivatives."""
        return -(self.n_per_dim // 2)

    @property
    def box_edge(self) -> int:
        """Largest ``|m_d|`` of the open box ``|m_d| < n/2``: ``n/2 - 1``."""
        return self.n_per_dim // 2 - 1


def wavenumbers_of(grid: GridSpec, modes: np.ndarray) -> np.ndarray:
    """Physical angular wavenumbers ``2*pi*m / domain_length`` of integer
    modes ``m`` (any shape)."""
    return modes * (TWO_PI / grid.domain_length)


def _read_only(*arrays) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: cached results are shared."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


class AxisTables(NamedTuple):
    """Per key digit ``d`` along one axis (mode ``d - n/2``), length ``n``,
    the values the mode factors are made of.  With ``k`` the wavenumber:
    ``derivative`` is ``i*k``, but 0 at the unpaired Nyquist mode -n/2
    (digit 0), which has no real-valued derivative, so zeroing it keeps
    real fields real; ``square`` is ``k^2``; ``i_k`` and ``minus_i_k`` are
    ``i*k`` and ``-i*k``."""

    derivative: np.ndarray
    square: np.ndarray
    i_k: np.ndarray
    minus_i_k: np.ndarray


@lru_cache(maxsize=8)
def axis_tables(grid: GridSpec) -> AxisTables:
    """The per-axis tables of ``grid``; read-only, shared per grid."""
    digits = np.arange(grid.n_per_dim)
    k = wavenumbers_of(grid, digits - grid.n_per_dim // 2)
    return AxisTables(*_read_only(1j * np.where(digits == 0, 0.0, k), k * k, 1j * k, -1j * k))


# A mode factor is a function ``factor(grid, digits)`` of the key digits of
# a set of modes, one integer array per dimension (broadcast together),
# that returns the factor at each of them.  Sparse and dense spectra read
# it through ``spec.at(factor)``.


def derivative_factor(grid: GridSpec, digits, axis: int) -> np.ndarray:
    """The derivative factor ``i*k_axis``, 0 at the Nyquist mode."""
    return axis_tables(grid).derivative.take(digits[axis])


def wavenumber_squares(grid: GridSpec, digits) -> np.ndarray:
    """``|k|^2``, the sum of ``k_d^2`` over the dimensions."""
    squares = axis_tables(grid).square
    ksq = squares.take(digits[0])
    for d in digits[1:]:
        ksq = ksq + squares.take(d)
    return ksq


def velocity_factor(grid: GridSpec, digits, axis: int) -> np.ndarray:
    """Component ``axis`` of ``(i*k_1, -i*k_0) / |k|^2``: the factor that
    takes a 2-D vorticity to that velocity component, the perpendicular
    gradient of the inverse Laplacian; 0 at k = 0 (a mean-free
    streamfunction)."""
    tables, ksq = axis_tables(grid), wavenumber_squares(grid, digits)
    inv = np.divide(1.0, ksq, out=np.zeros(ksq.shape), where=ksq != 0)
    along = tables.i_k.take(digits[1]) if axis == 0 else tables.minus_i_k.take(digits[0])
    return along * inv


DERIVATIVE_FACTORS = tuple(partial(derivative_factor, axis=axis) for axis in range(2))
VELOCITY_FACTORS = tuple(partial(velocity_factor, axis=axis) for axis in range(2))


@lru_cache(maxsize=32)
def mode_table(grid: GridSpec, factor) -> np.ndarray:
    """The mode factor ``factor`` at every mode, FFT layout, shape
    ``grid.shape``: what a dense spectrum reads.  Made from the per-axis
    tables at the digits of the FFT layout the first time it is asked for;
    read-only, shared per grid and factor."""
    digits = np.ix_(*[grid.mode_numbers() + grid.n_per_dim // 2] * grid.dims)
    return _read_only(np.broadcast_to(factor(grid, digits), grid.shape).copy())[0]


@lru_cache(maxsize=32)
def half_mode_table(grid: GridSpec, factor, size: int, part: int) -> tuple[np.ndarray, float]:
    """The mode factor ``factor`` on the half grid of a real transform on
    ``size`` points per dimension (:func:`half_index`), for ``part`` 1 as
    ``conj f(-m)``, the factor of an operand's second row, and the smallest
    nonzero magnitude it holds (``inf`` if none): what a sparse operand
    with a factor multiplies its placed row by.  Made by calling the factor
    on the half grid's broadcast digits, so a factor of one axis stays a
    sliver along it; a mode beyond the grid's, where nothing is placed,
    reads the factor at the nearest digit.  Read-only, shared per grid,
    factor, size and part."""
    half, sign = grid.n_per_dim // 2, -1 if part else 1
    lead = np.arange(size)
    modes = [np.where(lead > size // 2, lead - size, lead)] * (grid.dims - 1)
    modes.append(np.arange(size // 2 + 1))
    digits = np.ix_(*[np.clip(sign * m + half, 0, grid.n_per_dim - 1) for m in modes])
    table = factor(grid, digits)
    if part:
        table = np.conjugate(table)
    mags = np.abs(table)
    return _read_only(table)[0], float(mags[mags > 0].min(initial=np.inf))


def _to_flat(digits, base: int) -> np.ndarray:
    """Row-major flat index of per-dimension ``digits`` (first axis slowest)."""
    flat = np.zeros(np.shape(digits[0]), dtype=np.int64)
    for d in digits:
        flat = flat * base + d
    return flat


def fft_index_to_mode(grid: GridSpec, index: int | np.ndarray) -> np.ndarray:
    """Map a flat FFT-layout index to its integer mode vector.

    Returns an array of shape ``(dims,)`` for a scalar index, or
    ``(dims, len(index))`` for an index array.  Inverse of
    :func:`mode_to_fft_index`.
    """
    idx = np.asarray(index)
    if np.any((idx < 0) | (idx >= grid.n_total)):
        raise IndexError("flat index out of range")
    return grid.mode_numbers()[np.stack(np.unravel_index(idx, grid.shape))]


def at_negated_modes(values: np.ndarray) -> np.ndarray:
    """An array on an FFT layout (or the ``fftshift``-ed one) read at the
    negated modes: digit ``-j mod n`` on every axis, so the unpaired
    Nyquist mode is its own negation.  The array reversed, then rolled by
    one on every axis."""
    return np.roll(np.flip(values), 1, tuple(range(values.ndim)))


def check_resolved(grid: GridSpec, modes) -> np.ndarray:
    """``modes`` as an array, once it has the shape ``(dims,)`` of one mode
    vector or ``(dims, m)`` of ``m`` (``ValueError`` otherwise) and every
    component lies in the resolved set ``[-n/2, n/2)`` (``IndexError``
    otherwise)."""
    modes = np.asarray(modes)
    if modes.ndim not in (1, 2) or modes.shape[0] != grid.dims:
        want = f"({grid.dims},) or ({grid.dims}, m)"
        raise ValueError(f"modes of shape {modes.shape} on a {grid.dims}-D grid: need {want}")
    half = grid.n_per_dim // 2
    if np.any((modes < -half) | (modes >= half)):
        raise IndexError("mode outside the resolved set")
    return modes


def mode_to_fft_index(grid: GridSpec, modes: np.ndarray) -> np.ndarray:
    """Map integer mode vectors (shape ``(dims,)`` or ``(dims, m)``) to flat
    FFT-layout indices: digit ``m mod n`` per dimension."""
    n = grid.n_per_dim
    return _to_flat([np.mod(m, n) for m in check_resolved(grid, modes)], n)


def mode_to_key(grid: GridSpec, modes: np.ndarray) -> np.ndarray:
    """Sparse sort keys of integer mode vectors (shape ``(dims,)`` or
    ``(dims, m)``): row-major digits ``m + n/2`` in base ``2n``.

    Keys ascend in lexicographic mode order.  A resolved mode's digits lie
    in ``[0, n)``, so two keys add without carries: ``key(a) + key(b) ==
    key(a + b) + key(0)`` whenever ``a + b`` is itself resolved.
    """
    half = grid.n_per_dim // 2
    return _to_flat([m + half for m in np.asarray(modes, dtype=np.int64)], 2 * grid.n_per_dim)


@lru_cache(maxsize=8)
def mean_key(grid: GridSpec) -> int:
    """Key of the mode k = 0."""
    return int(mode_to_key(grid, np.zeros(grid.dims, dtype=np.int64)))


def key_to_mode(grid: GridSpec, keys: np.ndarray) -> np.ndarray:
    """Integer mode vectors, shape ``(dims, len(keys))``, of sparse keys;
    inverse of :func:`mode_to_key`."""
    half = grid.n_per_dim // 2
    return np.stack([key_digit(grid, keys, axis) - half for axis in range(grid.dims)])


def key_digit(grid: GridSpec, keys: np.ndarray, axis: int) -> np.ndarray:
    """Digit ``m_axis + n/2`` of sparse keys along ``axis``, read from the
    key's bits (``2n`` is a power of two): a 1-D key is its one digit; in
    2-D the leading digit is the key shifted down, with nothing above it,
    and the last digit the key's low bits."""
    if grid.dims == 1:
        return keys
    bits = grid.n_per_dim.bit_length()  # 2n == 1 << bits
    return keys >> bits if axis == 0 else keys & ((1 << bits) - 1)


def product_keys(grid: GridSpec, digits) -> np.ndarray:
    """Keys, ascending, of every mode whose digit along each axis is taken
    from that axis's ascending digit array (one per dimension), in
    row-major order: first axis slowest."""
    keys = np.zeros(1, dtype=np.int64)
    for d in digits:
        keys = np.add.outer(keys * (2 * grid.n_per_dim), d).ravel()
    return keys


def key_to_fft_index(grid: GridSpec, keys: np.ndarray) -> np.ndarray:
    """Flat FFT-layout index of sparse keys: digit ``(d + n/2) & (n - 1)``
    per dimension, ``d`` the key digit, which is ``m mod n`` for the mode
    ``m = d - n/2``.  Read from the key's bits: ``n`` divides the base, so
    that of the last digit is ``(key + n/2) & (n - 1)`` (``key ^ n/2`` in
    1-D); in 2-D the leading digit is ``key >> log2(2n)``."""
    n = grid.n_per_dim
    if grid.dims == 1:
        return keys ^ (n // 2)
    last = (keys + n // 2) & (n - 1)
    return (((keys >> n.bit_length()) + n // 2) & (n - 1)) * n + last


def shifted_index_to_key(grid: GridSpec, index: np.ndarray) -> np.ndarray:
    """Sparse keys of flat indices into the ``fftshift``-ed FFT layout, which
    holds mode ``m`` at digit ``m + n/2`` per dimension, the key's own
    digits in base ``n`` rather than ``2n``.  Both orders are lexicographic
    in the mode, so ascending indices give ascending keys: in 1-D the index
    is the key, in 2-D the leading digit moves up one bit,
    ``j + (j >> log2 n) * n``."""
    if grid.dims == 1:
        return index
    n = grid.n_per_dim
    return index + (index >> (n.bit_length() - 1)) * n


def fft_shifted(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """An FFT-layout array, ``fftshift``-ed and flattened: mode ``m`` at
    digit ``m + n/2`` per dimension, so in key order
    (:func:`shifted_index_to_key`).  Made of two slices per dimension."""
    h = grid.n_per_dim // 2
    out = np.concatenate((coeffs[h:], coeffs[:h]))
    if grid.dims == 2:
        out = np.concatenate((out[:, h:], out[:, :h]), axis=1)
    return out.ravel()


def negated_keys(grid: GridSpec, keys: np.ndarray) -> np.ndarray:
    """Keys of the negated modes: digit ``(n - d) mod n`` per dimension, so
    the unpaired Nyquist mode -n/2 (digit 0) is its own negation modulo
    ``n``.  Each digit lies in ``[0, n)``, so ``n - d`` borrows nothing from
    the next digit and a mask takes ``n`` to 0; on the open box this is
    ``2*key(0) - key``."""
    n, bits = grid.n_per_dim, grid.n_per_dim.bit_length()
    shifts = [bits * axis for axis in range(grid.dims)]
    return (sum(n << s for s in shifts) - keys) & sum((n - 1) << s for s in shifts)


def in_open_box(grid: GridSpec, keys: np.ndarray) -> np.ndarray:
    """Mask of the keys whose mode lies in the open box ``|m_d| < n/2``, so
    that the unpaired Nyquist mode -n/2 is out: every digit lies in ``[1,
    n)``, and a negative key is out.  This also decides for a sum of keys
    less ``key(0)`` (:func:`mode_to_key`), whose digits ``s_d + n/2`` lie in
    ``[-n/2, 3n/2)``: a negative digit borrows from the one above and reads
    ``>= n`` itself, and a negative leading digit makes the key negative."""
    n = grid.n_per_dim
    if grid.dims == 1:
        return (keys > 0) & (keys < n)
    lead, last = key_digit(grid, keys, 0), key_digit(grid, keys, 1)  # a negative key leads < 0
    return (lead > 0) & (lead < n) & (last > 0) & (last < n)


def key_reach(grid: GridSpec, keys: np.ndarray) -> int:
    """Reach of an ascending key array, capped at the box edge: the largest
    ``|m_d|`` over its modes and dimensions, or ``n/2 - 1`` if that is
    larger (the unpaired Nyquist mode counts as the edge); 0 when there are
    no keys.

    The leading digit is monotone in the key, so the first and last keys
    bound it; only in 2-D, when that does not already reach the edge, are
    the last digits decoded.
    """
    half, edge = grid.n_per_dim // 2, grid.box_edge
    if keys.size == 0:
        return 0
    if grid.dims == 1:
        return min(max(half - int(keys[0]), int(keys[-1]) - half), edge)
    base = 2 * grid.n_per_dim
    reach = max(half - int(keys[0]) // base, int(keys[-1]) // base - half)
    if reach >= edge:
        return edge
    last = keys % base
    return min(max(reach, half - int(last.min()), int(last.max()) - half), edge)


def open_support(grid: GridSpec, keys: np.ndarray) -> tuple[slice | np.ndarray | None, int]:
    """Which of ascending keys lie in the open box, those a convolution
    reads (``None`` for all of them, else a slice, or a mask where a 2-D
    Nyquist key may lie among them), and the reach of those
    (:func:`key_reach`), so a Nyquist key, which every convolution drops,
    does not count: the one rule for the reach of a convolution operand.
    Only keys that reach the box edge can hold a Nyquist key."""
    reach = key_reach(grid, keys)
    if reach < grid.box_edge:
        return None, reach
    if grid.dims == 1:  # the Nyquist key is 0, the smallest
        if keys[0] != 0:
            return None, reach
        keep = slice(1, None)
    else:
        keep = in_open_box(grid, keys)
        if keep.all():
            return None, reach
    return keep, key_reach(grid, keys[keep])


def sum_box(grid: GridSpec, pairs) -> tuple[list[int], list[int]]:
    """``(shape, low)`` of the box of digit sums of ascending, non-empty key
    arrays ``(a, b)`` of operand pairs: along each axis, the lowest sum of
    a key digit of ``a`` and one of ``b`` over the pairs, and the count of
    sums from there to the highest.  In 1-D that is the window from
    ``a[0] + b[0]`` to ``a[-1] + b[-1]``; in any dims it holds at most
    ``(2R + 1)**dims`` cells for ``R`` the largest sum of two reaches,
    whatever the grid."""
    if grid.dims == 1:
        low = min(int(a[0]) + int(b[0]) for a, b in pairs)
        return [max(int(a[-1]) + int(b[-1]) for a, b in pairs) - low + 1], [low]
    spans = [(_digit_span(grid, a), _digit_span(grid, b)) for a, b in pairs]
    low = [min(a[0][d] + b[0][d] for a, b in spans) for d in range(grid.dims)]
    high = [max(a[1][d] + b[1][d] for a, b in spans) for d in range(grid.dims)]
    return [h - lo + 1 for h, lo in zip(high, low)], low


def _digit_span(grid: GridSpec, keys: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lowest and the highest key digit along each axis of ascending 2-D
    keys: the leading digit is monotone in the key, the last one is not."""
    digits = key_digit(grid, keys, 1)
    lead = key_digit(grid, int(keys[0]), 0), key_digit(grid, int(keys[-1]), 0)
    return (lead[0], int(digits.min())), (lead[1], int(digits.max()))


def box_cells(grid: GridSpec, keys: np.ndarray, shape, low) -> np.ndarray:
    """Keys re-keyed into a box of ``shape`` cells (:func:`sum_box`): key
    digit ``d`` less ``low[axis]`` along each axis, row-major.  The map is
    linear, so the cells of one operand's keys with the box's ``low`` and of
    another's with zeros add to the cell of their digit sum, and cells
    ascend in lexicographic mode order (:func:`box_cell_keys` reads them
    back)."""
    cells = key_digit(grid, keys, 0) - low[0]
    for axis in range(1, grid.dims):
        cells = cells * shape[axis] + (key_digit(grid, keys, axis) - low[axis])
    return cells


def box_cell_keys(grid: GridSpec, cells: np.ndarray, shape, low) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the digit sums at ascending ``cells`` of the box of
    :func:`sum_box`, and the mask of those in the open box: a sum of keys
    less ``key(0)`` (:func:`mode_to_key`), as :func:`in_open_box` decides
    it."""
    half = grid.n_per_dim // 2
    if grid.dims == 1:
        keys = cells + (low[0] - half)
    else:
        lead, last = np.divmod(cells, shape[1])
        keys = (lead + (low[0] - half)) * (2 * grid.n_per_dim) + last + (low[1] - half)
    return keys, in_open_box(grid, keys)


@lru_cache(maxsize=256)
def transform_size(grid: GridSpec, reach: int) -> tuple[int, int]:
    """``(P, K)`` for a product of operands whose reaches sum to ``reach``:
    the product is read at the box ``|s_d| <= K = min(reach, n/2 - 1)``,
    and ``P`` is the smallest ``2^a 3^b >= reach + K + 1``, at most
    ``3n/2`` (:attr:`GridSpec.n_padded`).

    A product mode with ``|s_d| <= reach`` either lands on its own mode of
    the ``P``-point grid or wraps to ``|s_d -+ P| >= P - reach > K``,
    outside the box read, so the result is free of aliasing (Orszag's rule
    for any band).  Operands that fill the box have ``reach = n - 2`` and
    get ``P = 3n/2`` for ``n >= 8``.
    """
    k = min(reach, grid.box_edge)
    size, threes = grid.n_padded, 1
    while threes < size:
        p = threes
        while p < reach + k + 1:
            p *= 2
        size, threes = min(size, p), 3 * threes
    return size, k


@lru_cache(maxsize=32)
def box_index(grid: GridSpec, k: int) -> np.ndarray:
    """Keys, ascending, of the modes ``|m_d| <= k`` (``k < n/2``).  With
    ``k`` the box edge (:attr:`GridSpec.box_edge`) this is the open box.
    The box is symmetric, so its keys reversed are those of the negated
    modes.  Read-only, shared per grid and ``k``."""
    digits = np.arange(-k, k + 1) + grid.n_per_dim // 2
    return _read_only(product_keys(grid, [digits] * grid.dims))[0]


class BoxBlock(NamedTuple):
    """One block of the box (:func:`box_blocks`): its slices on a layout;
    for a block outside the canonical half-space (``m_last < 0``, or
    ``m_last == 0`` and ``m_0 < 0``) the slices of its negation, in the
    order of its own modes, else None; and whether ``m_last >= 0``."""

    at: tuple[slice, ...]
    negated: tuple[slice, ...] | None
    half: bool


@lru_cache(maxsize=64)
def box_blocks(dims: int, k: int, size: int) -> tuple[BoxBlock, ...]:
    """The box ``|m_d| <= k`` as blocks of whole sign ranges per dimension,
    placed on a ``size``-point FFT layout per dimension (mode ``m`` at digit
    ``m mod size``, ``size > 2k``) or, with ``size`` 0, on the box itself in
    key order (mode ``m`` at ``m + k``).

    Every block is contiguous on every such layout, so the box moves
    between layouts by block slices, not index tables; every call lists the
    same blocks in the same order, so two layouts pair block for block.  A
    block read as it is spans ``0..k`` along a dimension where it can; one
    read as the conjugate of its negation (its ``negated`` slices, on the
    half grid of a real transform on ``size`` points, shape ``(size, ...,
    size//2 + 1)``) keeps the mode 0 apart, since the negation of ``0..k``
    wraps around the layout.  Padding and truncation are block copies, as
    in Orszag's rule (J. Atmos. Sci. 28 (1971) 1074)."""

    def span(first: int, last: int) -> slice:  # the modes first..last, in that order
        i, j = (first + k, last + k) if size == 0 else (first % size, last % size)
        step = 1 if j >= i else -1
        return slice(i, j + step if j + step >= 0 else None, step)

    zero, pos, neg, nonneg = (0, 0), (1, k), (-k, -1), (0, k)
    if k == 0:
        read, folded = [(zero,) * dims], []
    elif dims == 1:
        read, folded = [(nonneg,)], [(neg,)]
    else:
        read = [(nonneg, nonneg), (neg, pos)]
        folded = [(neg, zero), (zero, neg), (pos, neg), (neg, neg)]
    return tuple(
        BoxBlock(
            tuple(span(lo, hi) for lo, hi in ranges),
            tuple(span(-lo, -hi) for lo, hi in ranges) if fold else None,
            ranges[-1][0] >= 0,
        )
        for fold, blocks in ((False, read), (True, folded))
        for ranges in blocks
    )


def half_index(grid: GridSpec, keys: np.ndarray, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Which sparse keys have a last mode component ``m_last >= 0`` (a
    mask), and their flat index on the half grid of a real transform on
    ``n_out`` points per dimension, shape ``(n_out, ..., n_out//2 + 1)``
    (``n_out > 2 max m_last``): digit ``m mod n_out`` per leading dimension
    and ``m`` along the last."""
    half = grid.n_per_dim // 2
    last = key_digit(grid, keys, grid.dims - 1) - half
    keep = last >= 0
    index = last[keep]
    if grid.dims == 2:
        lead = key_digit(grid, keys[keep], 0) - half
        index = np.mod(lead, n_out) * (n_out // 2 + 1) + index
    return keep, index
