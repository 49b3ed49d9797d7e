"""Sparsity machinery: sparse coefficient container, the soft threshold of
every update, sparse or dense, threshold schedule, and the one truncated
spectral convolution entry, :func:`convolve_sum`, whose operands' container
picks the result's layout: sparse on the path its plan picks (entry pairs
or a padded transform, :func:`plan_convolution`), or dense in FFT layout.

Entries are keyed by integer mode vectors and stored sorted (lexicographic
mode order), so iteration and serialization are deterministic.

What counts as a zero coefficient: sparse arithmetic drops only true
underflow (``DROP_TOL``); a spectrum made densely, by
:meth:`SparseSpectrum.from_dense`, :func:`soft_threshold` of a dense update
or the transform path of a convolution, also drops its roundoff tail, every
entry below ``ROUNDOFF_FLOOR`` times its largest magnitude.  Nothing
non-finite is ever dropped.  Only the soft threshold removes small coefficients beyond that.
"""

from __future__ import annotations

import cmath
import io
import math
import re
from dataclasses import dataclass
from typing import IO, Iterator, NamedTuple

import numpy as np

from .errors import GridMismatch, ModeOutOfRange, NegativeLambda, NonpositiveDt
from .grid import (
    GridSpec,
    at_negated_modes,
    box_cells,
    box_index,
    check_resolved,
    fft_shifted,
    half_index,
    key_digit,
    key_to_fft_index,
    key_to_mode,
    mean_key,
    mode_to_key,
    negated_keys,
    open_support,
    open_window,
    product_keys,
    shifted_index_to_key,
    sum_box,
    transform_size,
)
from .spectral import DROP_TOL, DenseSpectrum, _nonzero, hold_operands, padded_product

# Share of the largest magnitude below which a densely made coefficient is
# roundoff.  The FFT roundoff of the bundled coefficient and forcing spectra
# reaches about 15 eps of their largest entry; 16 eps lies just above that
# and far below any threshold a run uses.
ROUNDOFF_FLOOR = 16 * np.finfo(np.float64).eps

# Prices of the path rule in units of one pair: per row of the smaller
# operand on entry pairs (fitted when pairs ran one row at a time; blocked
# rows cost less), per unit of M log2 M on the padded transform (M = P**dims
# the padded grid size of the call), and the transform's fixed part beyond
# that of pairs.  From the sweep in scripts/calibrate_convolution.py.
_ROW_COST = 750
_TRANSFORM_COST = 1.5
_TRANSFORM_FIXED = 10_000
_PAIR_BLOCK = 1 << 14  # most pairs the entry-pair path forms at once
_PLAN_PAIRS = 1 << 16  # most pairs a kept plan indexes

_DUMP_HEADER = re.compile(r"# grid=([0-9]+)(?:,([0-9]+))? n_s=([0-9]+)")


def _roundoff_floor(mags: np.ndarray) -> float:
    """Magnitude below which an entry of a densely made spectrum is
    roundoff: ``ROUNDOFF_FLOOR`` times the largest of ``mags``, at least
    ``DROP_TOL``, and ``DROP_TOL`` alone when any entry is NaN or infinite,
    so nothing finite is dropped on the way to a divergence error."""
    top = float(mags.max(initial=0.0))
    return max(ROUNDOFF_FLOOR * top, DROP_TOL) if math.isfinite(top) else DROP_TOL


def _above_roundoff(values: np.ndarray) -> np.ndarray:
    """Mask of entries of a densely made spectrum that are not roundoff
    (:func:`_roundoff_floor`)."""
    mags = np.abs(values)
    return ~(mags < _roundoff_floor(mags))


@dataclass(frozen=True)
class SparseSpectrum:
    """Nonzero spectral coefficients only.

    ``keys`` (ascending, unique) encode each entry's mode row-major with
    digits ``m + n/2`` in base ``2n`` (see :func:`~sparsedyn.grid.mode_to_key`),
    so they sort in lexicographic mode order and two keys add without
    carries; ``values`` are the matching complex amplitudes.  Treat both
    arrays as immutable.
    """

    grid: GridSpec
    keys: np.ndarray
    values: np.ndarray

    @property
    def n_s(self) -> int:
        return int(self.keys.size)

    @classmethod
    def empty(cls, grid: GridSpec) -> "SparseSpectrum":
        return cls(grid, np.empty(0, np.int64), np.empty(0, np.complex128))

    @classmethod
    def from_modes(
        cls, grid: GridSpec, modes: np.ndarray, values: np.ndarray
    ) -> "SparseSpectrum":
        """Build from mode vectors ``(dims, m)`` of whole numbers and one
        amplitude per mode; duplicate modes accumulate.  Other arrays raise
        ``ValueError``, a mode outside the resolved set ``ModeOutOfRange``."""
        modes = check_resolved(grid, np.atleast_2d(modes))
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != modes.shape[1:]:
            raise ValueError(f"values of shape {values.shape} for modes of shape {modes.shape}")
        return _accumulate(grid, mode_to_key(grid, modes), values)

    @classmethod
    def from_dict(cls, grid: GridSpec, entries: dict) -> "SparseSpectrum":
        """Build from ``{mode: amplitude}`` by :meth:`from_modes`; modes are
        ints (1-D) or tuples."""
        if not entries:
            return cls.empty(grid)
        return cls.from_modes(grid, np.array(list(entries)).T, list(entries.values()))

    @classmethod
    def from_dense(cls, spec: DenseSpectrum) -> "SparseSpectrum":
        """Sparsify a dense spectrum, dropping its roundoff tail (see
        :func:`_roundoff_floor`), with nothing sorted (:func:`_dense_kept`)."""
        keys, values, _ = _dense_kept(spec, 0.0, False)
        return cls(spec.grid, keys, values)

    @classmethod
    def from_separable(cls, grid: GridSpec, *factors: np.ndarray) -> "SparseSpectrum":
        """The spectrum of the real field ``f_0(x_0) * ... * f_last(x_last)``,
        one factor of ``n`` samples per dimension, as the outer product of
        the factors' 1-D spectra: nothing the size of the grid is built.

        Each 1-D spectrum is one ``rfft``, normalised as
        :func:`~sparsedyn.spectral.dft_forward` normalises, with its negative
        half mirrored as conjugates, so the product is exactly Hermitian.
        The zero rule (:func:`_above_roundoff`) drops each factor's roundoff
        tail, then that of the product of the surviving entries.
        """
        n, half = grid.n_per_dim, grid.n_per_dim // 2
        digits, values = [], np.ones(1, dtype=np.complex128)
        for samples in factors:
            positive = np.fft.rfft(samples) / n
            spectrum = np.concatenate((np.conjugate(positive[half:0:-1]), positive[:half]))
            kept = np.flatnonzero(_above_roundoff(spectrum))  # key digits, ascending
            digits.append(kept)
            values = np.multiply.outer(values, spectrum[kept]).ravel()
        keep = _above_roundoff(values)
        return cls(grid, product_keys(grid, digits)[keep], values[keep])

    @classmethod
    def from_period_cell(cls, grid: GridSpec, cell: np.ndarray) -> "SparseSpectrum":
        """The spectrum of the real field whose samples repeat every ``p``
        points along each axis, from one ``p**dims`` period cell of them
        (``p`` divides ``n``): nothing the size of the grid is built.

        It lives on the modes that are multiples of ``n/p``, where it equals
        the DFT of the cell normalised as
        :func:`~sparsedyn.spectral.dft_forward` normalises, taken here as
        its Hermitian part ``(c(q) + conj c(-q)) / 2`` so that it is exactly
        Hermitian; then the zero rule (:func:`_above_roundoff`) applies.
        """
        p = cell.shape[0]
        coeffs = np.fft.fftshift(np.fft.fftn(cell)) / cell.size  # index i holds q = i - p/2
        flat = ((coeffs + np.conjugate(at_negated_modes(coeffs))) * 0.5).ravel()
        digits = (grid.n_per_dim // p) * np.arange(p)  # digit of mode (n/p)*q
        keep = _above_roundoff(flat)
        return cls(grid, product_keys(grid, [digits] * grid.dims)[keep], flat[keep])

    def to_dense(self) -> DenseSpectrum:
        """The spectrum in FFT layout (:func:`~sparsedyn.grid.key_to_fft_index`)."""
        grid = self.grid
        coeffs = np.zeros(grid.n_total, dtype=np.complex128)
        coeffs[key_to_fft_index(grid, self.keys)] = self.values
        return DenseSpectrum(grid, coeffs.reshape(grid.shape))

    def modes(self) -> np.ndarray:
        """Integer mode vectors, shape ``(dims, n_s)``, sorted order."""
        return key_to_mode(self.grid, self.keys)

    @property
    def digits(self) -> tuple[np.ndarray, ...]:
        """The key digits along each axis (:func:`~sparsedyn.grid.key_digit`),
        made on first use and kept."""
        memo = self.__dict__  # the dataclass is frozen, its __dict__ is not
        if "_digits" not in memo:
            grid = self.grid
            memo["_digits"] = tuple([key_digit(grid, self.keys, axis) for axis in range(grid.dims)])
        return memo["_digits"]

    @property
    def open_entries(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Keys, values and reach of the entries in the open box, those a
        convolution reads (:func:`~sparsedyn.grid.open_support`: the unpaired
        Nyquist mode is dropped and does not count in the reach), made on
        first use and kept."""
        entries = self.__dict__.get("_open")
        if entries is None:
            keys, vals = self.keys, self.values
            keep, reach = open_support(self.grid, keys)
            if keep is not None:
                keys, vals = keys[keep], vals[keep]
            entries = self.__dict__["_open"] = keys, vals, reach
        return entries

    @property
    def open_smallest(self) -> float:
        """The smallest magnitude of the open-box entries (NaN if one is
        NaN, ``inf`` if there are none), which bounds a factor operand's
        products from below (:meth:`~sparsedyn.spectral.HeldField.place`),
        made on first use and kept."""
        low = self.__dict__.get("_smallest")
        if low is None:
            low = float(np.abs(self.open_entries[1]).min(initial=np.inf))
            self.__dict__["_smallest"] = low
        return low

    def half_places(self, size: int, part: int) -> tuple[np.ndarray, np.ndarray]:
        """Where the open-box entries go on the half grid of a real
        transform on ``size`` points per dimension
        (:func:`~sparsedyn.grid.half_index`), for ``part`` 1 at their
        negated modes, in reverse order, made on first use per size and
        part and kept."""
        memo = self.__dict__.get("_places")
        if memo is None:  # setdefault would make a spare dict on every call
            memo = self.__dict__["_places"] = {}
        if (size, part) not in memo:
            keys = self.open_entries[0]
            if part:
                keys = negated_keys(self.grid, keys[::-1])
            memo[size, part] = half_index(self.grid, keys, size)
        return memo[size, part]

    def at(self, factor) -> np.ndarray:
        """A mode factor (such as :func:`~sparsedyn.grid.wavenumber_squares`)
        at each entry, in sorted order: its formula evaluated at the key
        :attr:`digits`, the same values that :meth:`to_dense` meets in the
        dense table, with nothing built the size of the grid."""
        return factor(self.grid, self.digits)

    def is_hermitian(self, rtol: float = 1e-12) -> bool:
        """Whether ``u(-k) == conj(u(k))`` up to ``rtol`` of the largest
        amplitude, as :func:`~sparsedyn.spectral.is_hermitian` checks a
        dense spectrum; a missing partner counts as zero, so a state made
        from real samples, whose roundoff partners may have underflowed,
        passes.  Each partner is found by a binary search of the keys, so
        the check takes O(n_s log n_s) and builds no array the size of the
        grid."""
        if not self.n_s:
            return True
        partner = negated_keys(self.grid, self.keys)
        at = np.minimum(np.searchsorted(self.keys, partner), self.n_s - 1)
        mirror = np.where(self.keys[at] == partner, np.conj(self.values[at]), 0.0)
        gap = float(np.max(np.abs(self.values - mirror)))
        return gap <= rtol * (float(np.max(np.abs(self.values))) or 1.0)

    def items(self) -> Iterator[tuple]:
        """Yield ``(mode, amplitude)`` sorted by mode; mode is an int in 1-D,
        a tuple in 2-D."""
        for mode, value in zip(self.modes().T.tolist(), self.values.tolist()):
            yield (mode[0] if self.grid.dims == 1 else tuple(mode)), value

    def to_dict(self) -> dict:
        return dict(self.items())

    def mean_mode(self) -> complex:
        """Amplitude at k = 0 (zero when absent)."""
        key = mean_key(self.grid)
        pos = np.searchsorted(self.keys, key)
        if pos < self.n_s and self.keys[pos] == key:
            return complex(self.values[pos])
        return 0.0

    def apply_mode_factor(self, factors: np.ndarray) -> "SparseSpectrum":
        """Multiply entrywise by per-entry ``factors`` (aligned with sorted
        order); entries that underflow are dropped."""
        vals = self.values * factors
        keep = _nonzero(vals)
        if keep.all():
            return SparseSpectrum(self.grid, self.keys, vals)
        return SparseSpectrum(self.grid, self.keys[keep], vals[keep])

    def __add__(self, other: "SparseSpectrum") -> "SparseSpectrum":
        if not isinstance(other, SparseSpectrum):
            return NotImplemented
        if other.grid != self.grid:
            raise GridMismatch("cannot add spectra on different grids")
        if not (self.n_s and other.n_s):  # nothing to merge: _accumulate's result, unsorted
            spec = other if self.n_s == 0 else self
            vals = spec.values + 0.0
            keep = _nonzero(vals)
            return SparseSpectrum(self.grid, spec.keys[keep], vals[keep])
        return _accumulate(
            self.grid,
            np.concatenate([self.keys, other.keys]),
            np.concatenate([self.values, other.values]),
        )

    def __mul__(self, scalar: complex) -> "SparseSpectrum":
        return self.apply_mode_factor(scalar)

    __rmul__ = __mul__


def _accumulate(grid: GridSpec, keys: np.ndarray, values: np.ndarray) -> SparseSpectrum:
    """Sum duplicate keys, sort, and drop underflow.

    A stable sort keeps duplicates in input order, so each sum runs in input
    order; on two concatenated sorted runs (``__add__``) it is a linear merge.
    """
    if keys.size == 0:
        return SparseSpectrum.empty(grid)
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    # + 0.0 turns a -0.0 sum into 0.0, as a sum that starts from zero gives
    vals = np.add.reduceat(values, starts) + 0.0
    keep = _nonzero(vals)
    return SparseSpectrum(grid, keys[starts][keep], vals[keep])


@dataclass(frozen=True)
class LambdaSchedule:
    """Shrinkage threshold rule: a fixed value, or ``C * dt**p``.

    A power law with exponent above the time scheme's order keeps the
    shrinkage from degrading convergence as dt goes to zero.
    """

    mode: str
    fixed_lambda: float = 0.0
    c: float = 0.0
    p: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "power_law"):
            raise ValueError(f"mode must be 'fixed' or 'power_law', got {self.mode!r}")
        if not 0 <= self.fixed_lambda < math.inf:  # NaN fails too
            raise ValueError(f"fixed_lambda must be >= 0 and finite, got {self.fixed_lambda}")
        if not 0 <= self.c < math.inf:
            raise ValueError(f"C must be >= 0 and finite, got {self.c}")
        if not 0 < self.p < math.inf:
            raise ValueError(f"p must be > 0 and finite, got {self.p}")

    @classmethod
    def fixed(cls, value: float) -> "LambdaSchedule":
        return cls("fixed", fixed_lambda=value)

    @classmethod
    def power_law(cls, c: float, p: float) -> "LambdaSchedule":
        return cls("power_law", c=c, p=p)


def lambda_at(schedule: LambdaSchedule, dt: float) -> float:
    """Threshold value for one step of size ``dt``."""
    if not dt > 0:
        raise NonpositiveDt(f"dt must be positive, got {dt}")
    if schedule.mode == "fixed":
        return schedule.fixed_lambda
    return schedule.c * dt**schedule.p


def soft_threshold(
    spec: DenseSpectrum | SparseSpectrum,
    lam: float,
    protect_mean: bool = False,
) -> SparseSpectrum:
    """Shrink every coefficient toward zero by ``lam``; drop those at or
    below it.

    Each amplitude z maps to ``max(|z| - lam, 0) * z/|z|``.  With
    ``protect_mean`` the k = 0 coefficient is exempt.  A NaN amplitude is
    kept (as NaN), never dropped.  A dense spectrum (the update of a step
    in FFT layout) also drops its roundoff tail, in the same pass
    (:func:`_dense_kept`).
    """
    if isinstance(spec, DenseSpectrum):
        keys, values, mags = _dense_kept(spec, lam, protect_mean)
        return _shrunk(spec.grid, keys, values, mags, lam, protect_mean)
    mags = np.abs(spec.values)
    keep = _kept(mags, lam, DROP_TOL)
    if protect_mean:
        keep |= (spec.keys == mean_key(spec.grid)) & ~(mags < DROP_TOL)
    return _shrunk(spec.grid, spec.keys[keep], spec.values[keep], mags[keep], lam, protect_mean)


def _dense_kept(spec: DenseSpectrum, lam: float, protect_mean: bool):
    """Keys, values and magnitudes, in key order, of the entries of a dense
    spectrum that are not roundoff (:func:`_roundoff_floor`) and lie above
    ``lam``; with ``protect_mean`` k = 0 unless it is roundoff.  Only the
    mask is read ``fftshift``-ed, which is key order
    (:func:`~sparsedyn.grid.fft_shifted`)."""
    grid, flat = spec.grid, spec.coeffs.ravel()
    mags = np.abs(flat)
    floor = _roundoff_floor(mags)
    keep = _kept(mags, lam, floor)
    if protect_mean:  # FFT index 0 holds k = 0
        keep[0] = not mags[0] < floor
    keys = shifted_index_to_key(grid, fft_shifted(grid, keep.reshape(grid.shape)).nonzero()[0])
    at = key_to_fft_index(grid, keys)
    return keys, flat[at].astype(np.complex128, copy=False), mags[at]


def _kept(mags: np.ndarray, lam: float, floor: float) -> np.ndarray:
    """Mask of the magnitudes above ``lam`` and not below ``floor``, NaN
    included; one comparison, as one bound implies the other."""
    if not lam >= 0:  # NaN fails too
        raise NegativeLambda(f"lambda must be >= 0, got {lam}")
    return ~(mags <= lam) if lam >= floor else ~(mags < floor)


def _shrunk(grid, keys, values, mags, lam, protect_mean) -> SparseSpectrum:
    """Kept entries of magnitudes ``mags`` shrunk to ``c (|c| - lam) / |c|``;
    with ``protect_mean`` the k = 0 entry, if kept, as it is."""
    vals = values * ((mags - lam) / mags)
    if protect_mean:
        exempt = keys == mean_key(grid)
        vals[exempt] = values[exempt]
    return SparseSpectrum(grid, keys, vals)


def sparsity_fraction(spec: SparseSpectrum) -> float:
    """Share of resolved modes retained: n_s / N_total."""
    return spec.n_s / spec.grid.n_total


def sparse_convolve(a: SparseSpectrum, b: SparseSpectrum) -> SparseSpectrum:
    """Linear convolution, truncated to the resolved box: the one-term
    :func:`convolve_sum` of sparse spectra.

    Output at k sums ``a(k1) * b(k2)`` over ``k1 + k2 = k``; products that
    leave the resolved box are discarded rather than aliased.  The unpaired
    Nyquist mode -n/2 neither contributes nor is produced, which keeps real
    fields real.
    """
    return convolve_sum(((1.0, a, b),))


def dense_convolve(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Galerkin-truncated convolution of amplitude spectra in FFT layout:
    the one-term :func:`convolve_sum` of dense spectra, with the same
    truncation contract as :func:`sparse_convolve`."""
    sa = DenseSpectrum(grid, a)
    sb = sa if b is a else DenseSpectrum(grid, b)
    return convolve_sum(((1.0, sa, sb),)).coeffs


def convolve_sum(terms, *, real: bool = False) -> SparseSpectrum | DenseSpectrum:
    """Truncated ``sum w * (a * b)`` over terms ``(w, a, b)`` of spectra,
    ``(spectrum, factor)`` for a spectrum times a mode factor, or
    :class:`~sparsedyn.spectral.HeldField` of one
    (:func:`~sparsedyn.spectral.hold_operands`), the one convolution
    entry: the first term's second operand, a step's state, picks the layout.

    A :class:`~sparsedyn.spectral.DenseSpectrum` there fills the box, so the
    products are made on ``P = 3n/2`` points per dimension (the 2/3 rule)
    and the sum written into FFT layout, zero outside the open box; any
    other operand may be sparse, as a run's coefficient is.  Otherwise the
    call takes the one path :func:`plan_convolution` picks: entry pairs, all
    terms into one accumulator over the box of their digit sums
    (:func:`_pair_convolve`), or the transform, whose terms share the padded grid
    (:func:`~sparsedyn.spectral.padded_product`) and whose sum drops its
    roundoff tail (:func:`_above_roundoff`).  With operands that fill the
    box the two layouts give the same values, less that tail.  An operand
    with a factor is planned by its spectrum's entries; entry pairs read
    the entries of the spectrum it stands for, made on first use
    (:meth:`~sparsedyn.spectral.HeldField.entries`), and the transform
    makes its products on the padded grid
    (:meth:`~sparsedyn.spectral.HeldField.place`), so the transform path
    forms no product entry by entry.

    A one-term call of a held operand (not ``call_only``, such as a run's
    coefficient) that takes entry pairs keeps on that operand the pair
    plan (:func:`_pair_plan`, for at most ``_PLAN_PAIRS`` pairs) of the
    other operand's support and side, the latest one's only
    (:attr:`~sparsedyn.spectral.HeldField.plan`).  The plan is made on the
    support's second entry-pair call in a row, so a support seen once costs
    no more than the box; a later call skips the path rule and the box and
    accumulates into its output cells alone (:func:`_planned_convolve`),
    bit for bit as :func:`_pair_convolve` sums.  A call that takes the
    transform keeps nothing, as do calls of ``call_only`` operands alone,
    such as a state times itself.

    With ``real`` the caller declares every operand the spectrum of a real
    field and every weight real (the solver's promise, not a user option):
    each operand takes one real field, and the output is exactly Hermitian.
    Without it any complex operand is taken, as two real fields.
    """
    grid, terms = hold_operands(terms)
    if isinstance(terms[0][2].spectrum, DenseSpectrum):
        size, k = transform_size(grid, 2 * grid.box_edge)
        return DenseSpectrum(grid, padded_product(grid, terms, size, k, real, fft_layout=True))
    _, a, b = terms[0]
    key = None
    if len(terms) == 1 and not (a.call_only and b.call_only):
        held, other = (b, a) if a.call_only else (a, b)
        key = held is a, other.entries()[0].tobytes()
        if held.plan and held.plan[0] == key:  # the support's plan, made on its second call
            plan = held.plan[1] or _pair_plan(grid, a, b)
            held.plan = key, plan
            return _planned_convolve(grid, plan, *terms[0])
    live, size, k, transform = plan_convolution(grid, terms)
    if not live:
        return SparseSpectrum.empty(grid)
    if not transform:  # a factor operand's own entries may be fewer, or none
        pairs = [(w, a.entries(), b.entries()) for w, a, b in live]
        pairs = [(w, a, b) for w, a, b in pairs if a[0].size and b[0].size]
        if not pairs:
            return SparseSpectrum.empty(grid)
        if key and pairs[0][1][0].size * pairs[0][2][0].size <= _PLAN_PAIRS:
            held.plan = key, None
        return _pair_convolve(grid, pairs)
    vals = padded_product(grid, live, size, k, real).ravel()
    keep = _above_roundoff(vals)
    return SparseSpectrum(grid, box_index(grid, k)[keep], vals[keep])


def plan_convolution(grid: GridSpec, terms) -> tuple[list, int, int, bool]:
    """``(live, P, K, transform)``: the path :func:`convolve_sum` takes on
    terms ``(w, a, b)`` of held sparse operands (:func:`~sparsedyn.spectral.hold_operands`).

    The live terms are those whose two operands' spectra both have
    open-box entries, whose count and reach (largest ``|m_d|``) stand for
    the operand's, with a factor too: an upper bound there, since the
    product's entries are among the spectrum's, and every size the rule
    gives for a reach at or above the true one is free of aliasing.  With ``R``
    the largest sum of the two operands' reaches over the live terms,
    products are made on ``P`` points per dimension,
    the smallest ``2^a 3^b >= R + K + 1`` and at most ``3n/2``, and read at
    the box ``|s_d| <= K = min(R, n/2 - 1)`` (:func:`~sparsedyn.grid.transform_size`).
    The call takes entry pairs, a fixed cost per row of the smaller operand
    plus one per pair, or the transform, O(M log M) for ``M = P**dims``,
    whichever costs less for its term with the most pairs
    (:func:`_transform_is_cheaper`).  With no live term the plan reads
    ``P = K = 0`` and pairs."""
    live, reach, rows, cols = [], -1, 0, 0
    for w, a, b in terms:
        a_keys, _, a_reach = a.spectrum.open_entries
        b_keys, _, b_reach = b.spectrum.open_entries
        if a_keys.size and b_keys.size:
            live.append((w, a, b))
            reach = max(reach, a_reach + b_reach)
            if a_keys.size * b_keys.size > rows * cols:
                rows, cols = a_keys.size, b_keys.size
    if not live:
        return live, 0, 0, False
    size, k = transform_size(grid, reach)
    return live, size, k, _transform_is_cheaper(grid, rows, cols, size)


class _PairPlan(NamedTuple):
    """The entry pairs of two operand supports, indexed once
    (:func:`_pair_plan`): whether the second operand's entries are the rows
    (the smaller operand gives the rows), the ascending open-box output
    keys, and each pair's output cell, shape ``(rows, columns)``, with
    ``len(keys)`` for the one spare cell that takes every pair outside the
    open box.  A held operand keeps its latest support's
    (:attr:`~sparsedyn.spectral.HeldField.plan`)."""

    swap: bool
    keys: np.ndarray
    cells: np.ndarray


def _pair_plan(grid: GridSpec, a, b) -> _PairPlan:
    """The pair plan of held sparse operands ``a`` and ``b``, from their
    cells in the box of their digit sums (:func:`~sparsedyn.grid.sum_box`):
    the cells their pairs reach in its open window
    (:func:`~sparsedyn.grid.open_window`) are the outputs, ranked in
    ascending order, and every other cell is the spare one."""
    a_keys, b_keys = a.entries()[0], b.entries()[0]
    swap = b_keys.size < a_keys.size
    if swap:
        a_keys, b_keys = b_keys, a_keys
    shape, low = sum_box(grid, [(a_keys, b_keys)])
    rows = box_cells(grid, a_keys, shape, low)
    cells = np.add.outer(rows, box_cells(grid, b_keys, shape, [0] * grid.dims))
    reached = np.zeros(math.prod(shape), dtype=bool)
    reached[cells] = True
    window, keys = open_window(grid, shape, low)
    inside = reached.reshape(shape)[window]
    count = int(np.count_nonzero(inside))
    rank = np.full(shape, count)  # the spare cell
    rank[window][inside] = np.arange(count)
    return _PairPlan(swap, keys[inside.ravel()], rank.ravel()[cells])


def _planned_convolve(grid: GridSpec, plan: _PairPlan, w, a, b) -> SparseSpectrum:
    """``w * (a * b)`` of held sparse operands by their pair plan: the
    products accumulate into the plan's output cells and its spare cell,
    which is dropped (:func:`_add_pairs`)."""
    if plan.swap:
        a, b = b, a
    a_vals, b_vals = a.entries()[1], b.entries()[1]
    if w != 1:
        a_vals = w * a_vals
    acc = np.zeros(plan.keys.size + 1, dtype=np.complex128)
    _add_pairs(acc, a_vals, b_vals, lambda rows: plan.cells[rows].ravel())
    vals = acc[:-1]
    keep = _nonzero(vals)
    if keep.all():
        return SparseSpectrum(grid, plan.keys, vals)
    return SparseSpectrum(grid, plan.keys[keep], vals[keep])


def _pair_convolve(grid: GridSpec, terms) -> SparseSpectrum:
    """The entry-pair path: ``sum w * (a * b)`` over terms ``(w, a, b)`` of
    open-box entries ``(keys, values, reach)``, into one accumulator over
    the box of the terms' digit sums (:func:`~sparsedyn.grid.sum_box`): at
    most ``(2R + 1)**dims`` cells for ``R`` the largest sum of a term's two
    reaches, whatever the grid.  Each term runs the rows of its smaller
    operand, weight folded in, so its sum runs in the same order either way
    round; a pair's cell is its row's cell, re-keyed with the box's low
    corner, plus its column's, re-keyed with none
    (:func:`~sparsedyn.grid.box_cells`, :func:`_add_pairs`).  The box's
    open window (:func:`~sparsedyn.grid.open_window`) is read back with its
    keys, and its cells that are zero dropped.
    """
    shape, low = sum_box(grid, [(a[0], b[0]) for _, a, b in terms])
    acc = np.zeros(math.prod(shape), dtype=np.complex128)
    for w, a, b in terms:
        (a_keys, a_vals, _), (b_keys, b_vals, _) = (b, a) if b[0].size < a[0].size else (a, b)
        if w != 1:
            a_vals = w * a_vals
        rows = box_cells(grid, a_keys, shape, low)
        cols = box_cells(grid, b_keys, shape, [0] * grid.dims)
        _add_pairs(acc, a_vals, b_vals, lambda block: np.add.outer(rows[block], cols).ravel())

    window, keys = open_window(grid, shape, low)
    vals = acc.reshape(shape)[window].ravel()
    keep = _nonzero(vals)
    return SparseSpectrum(grid, keys[keep], vals[keep])


def _add_pairs(acc: np.ndarray, a_vals: np.ndarray, b_vals: np.ndarray, cells) -> None:
    """Add every product ``a_vals[j] * b_vals[i]`` into ``acc``, at the
    cells ``cells(rows)`` gives for a slice of rows, flat in row order: the
    one accumulation step of entry pairs, whose cells come from the box of
    digit sums (:func:`_pair_convolve`) or a pair plan
    (:func:`_planned_convolve`).  Rows go in blocks of at most
    ``_PAIR_BLOCK`` pairs, each added by one ``np.add.at`` in input order,
    so each cell sums its pairs row by row, the same bits whichever way its
    cells were found."""
    step = max(1, _PAIR_BLOCK // b_vals.size)
    for j in range(0, a_vals.size, step):
        rows = slice(j, j + step)
        np.add.at(acc, cells(rows), (b_vals * a_vals[rows, None]).ravel())


def _transform_is_cheaper(grid: GridSpec, n_a: int, n_b: int, size: int) -> bool:
    """Whether the entry-pair path over ``n_a * n_b`` pairs costs more than a
    transform on ``M = size**dims`` points, ``size`` the call's padded grid
    size (:func:`~sparsedyn.grid.transform_size`).

    Pairs are priced at one per pair plus ``_ROW_COST`` per entry of the
    smaller operand, against
    ``_TRANSFORM_FIXED + _TRANSFORM_COST * M log2 M`` for the transform.
    The fixed part (two scatters, two real FFT calls, one of them for both
    operands' fields, a gather and the roundoff filter, each a separate
    numpy call) keeps small operands on pairs whatever the grid.
    """
    m_total = size**grid.dims
    rows, cols = min(n_a, n_b), max(n_a, n_b)
    transform = _TRANSFORM_FIXED + _TRANSFORM_COST * m_total * math.log2(m_total)
    return rows * (cols + _ROW_COST) > transform


def dump_spectrum(spec: SparseSpectrum, stream: IO[str] | str) -> None:
    """Write the tab-separated dump: header ``# grid=<n,..> n_s=<count>``,
    then one sorted line per entry, ``k_index_per_dim... re im``."""
    if isinstance(stream, str):
        with open(stream, "w") as fh:
            dump_spectrum(spec, fh)
        return
    dims_part = ",".join(str(spec.grid.n_per_dim) for _ in range(spec.grid.dims))
    stream.write(f"# grid={dims_part} n_s={spec.n_s}\n")
    for mode, value in spec.items():
        parts = [str(mode)] if spec.grid.dims == 1 else [str(m) for m in mode]
        parts.append(repr(value.real))
        parts.append(repr(value.imag))
        stream.write("\t".join(parts) + "\n")


def load_spectrum(
    stream: IO[str] | str, domain_length: float | None = None
) -> SparseSpectrum:
    """Read a spectrum dump back; the grid is reconstructed from the header
    (default domain length unless given).  The header must read exactly
    ``# grid=<n>[,<n>] n_s=<count>``: any other first line, and an entry
    line that is not ``dims`` integer modes in the resolved set and two
    finite amplitude parts, raises ``ValueError`` naming it."""
    if isinstance(stream, str):
        with open(stream) as fh:
            return load_spectrum(fh, domain_length)
    header = stream.readline().rstrip("\r\n")
    parsed = _DUMP_HEADER.fullmatch(header)
    if parsed is None:
        raise ValueError(
            f"spectrum dump header {header!r}: not '# grid=<n>[,<n>] n_s=<count>'"
        )
    sizes = [int(s) for s in parsed.groups()[:2] if s is not None]
    if len(set(sizes)) != 1:
        raise ValueError("grid must be square")
    kwargs = {} if domain_length is None else {"domain_length": domain_length}
    grid = GridSpec(dims=len(sizes), n_per_dim=sizes[0], **kwargs)
    n_s = int(parsed[3])
    rows = [line.split("\t") for line in stream.read().splitlines() if line.strip()]
    if len(rows) != n_s:
        raise ValueError(f"spectrum dump header gives n_s={n_s}, but {len(rows)} entries follow")
    half, dims = grid.n_per_dim // 2, grid.dims
    modes = np.empty((dims, n_s), dtype=np.int64)
    values = np.empty(n_s, dtype=np.complex128)
    for i, row in enumerate(rows):
        line = "\t".join(row)
        if len(row) != dims + 2:
            raise ValueError(f"spectrum dump line {line!r}: {len(row)} fields, not {dims + 2}")
        try:
            mode = [int(part) for part in row[:dims]]
            values[i] = float(row[dims]) + 1j * float(row[dims + 1])
        except ValueError:
            message = f"spectrum dump line {line!r}: need integer modes, then numbers"
            raise ValueError(message) from None
        if not all(-half <= m < half for m in mode):
            raise ModeOutOfRange(f"spectrum dump line {line!r}: mode outside the resolved set")
        if not cmath.isfinite(values[i]):
            raise ValueError(f"spectrum dump line {line!r}: the amplitude is not finite")
        modes[:, i] = mode
    unique, counts = np.unique(modes, axis=1, return_counts=True)
    if unique.shape[1] < n_s:
        mode = " ".join(map(str, unique[:, counts.argmax()].tolist()))
        raise ValueError(f"spectrum dump repeats mode {mode}")
    return SparseSpectrum.from_modes(grid, modes, values)


def dumps_spectrum(spec: SparseSpectrum) -> str:
    buf = io.StringIO()
    dump_spectrum(spec, buf)
    return buf.getvalue()
