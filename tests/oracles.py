"""Independent reference computations used by several test modules.

Everything here is deliberately written as plain dict/loop code so it shares
no internals with the library paths it checks, except the spectrum of
samples on the mesh (:func:`assert_closed_form_spectrum`), which is the
reference a closed form replaces, and the row-by-row entry-pair sum
(:func:`row_loop_convolve`), which the blocked entry-pair path must match
bit for bit, the soft threshold of a dense update
(:func:`loop_dense_shrink`), which the one-pass dense shrink must match bit
for bit, and the padded product of dense spectra through index tables
(:func:`table_place`, :func:`table_read_box`,
:func:`table_dense_convolve_sum`), which the block copies of the dense
path must match bit for bit, and the advection term with its four
operands made as spectra of their own (:func:`materialised_advection`,
through the padded product at the state's size, :func:`transform_at`),
which the mode-factor images of the state must match bit for bit.
"""

import numpy as np

from sparsedyn import DenseSpectrum, GridSpec, SparseSpectrum, SpatialField, dft_forward
from sparsedyn.grid import (
    axis_tables,
    box_index,
    in_open_box,
    key_digit,
    mean_key,
    mode_to_key,
    transform_size,
    wavenumber_squares,
)
from sparsedyn.shrinkage import DROP_TOL, ROUNDOFF_FLOOR, convolve_sum, plan_convolution
from sparsedyn.spectral import HeldField, hold_operands, padded_product, spectral_derivative


def brute_force_convolve(a: dict, b: dict, grid: GridSpec) -> dict:
    """O(n_s^2) pairwise convolution with box truncation; unpaired Nyquist
    modes neither consumed nor produced."""
    half = grid.n_per_dim // 2
    out: dict = {}
    for ka, va in a.items():
        ka_t = (ka,) if grid.dims == 1 else ka
        if any(k == -half for k in ka_t):
            continue
        for kb, vb in b.items():
            kb_t = (kb,) if grid.dims == 1 else kb
            if any(k == -half for k in kb_t):
                continue
            ks = tuple(x + y for x, y in zip(ka_t, kb_t))
            if all(abs(k) <= half - 1 for k in ks):
                key = ks[0] if grid.dims == 1 else ks
                out[key] = out.get(key, 0.0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def row_loop_convolve(terms, grid: GridSpec) -> SparseSpectrum:
    """``sum w * (a * b)`` over terms ``(w, a, b)`` of sparse spectra, one
    row at a time, in the entry-pair path's order: per term, one row per
    open-box entry of the smaller operand (``a`` on a tie), weight folded
    into it, the products ``other * row`` added cell by cell, each cell from
    zero.  Keeps every cell that is nonzero (NaN included) and lies in the
    open box."""

    def open_entries(spec):
        inside = in_open_box(grid, spec.keys)
        return spec.keys[inside], spec.values[inside]

    acc: dict = {}
    for w, a, b in terms:
        (a_keys, a_vals), (b_keys, b_vals) = open_entries(a), open_entries(b)
        if b_keys.size < a_keys.size:
            a_keys, a_vals, b_keys, b_vals = b_keys, b_vals, a_keys, a_vals
        if w != 1:
            a_vals = w * a_vals
        for key, val in zip(a_keys, a_vals):
            for cell, prod in zip(b_keys + key, b_vals * val):
                acc[cell] = acc.get(cell, 0j) + prod
    keys = np.array(sorted(acc), dtype=np.int64) - mean_key(grid)
    vals = np.array([acc[k] for k in sorted(acc)], dtype=np.complex128)
    keep = in_open_box(grid, keys) & ~(np.abs(vals) < DROP_TOL)
    return SparseSpectrum(grid, keys[keep], vals[keep])


def brute_force_advection(w: dict, grid: GridSpec) -> dict:
    """-(u dw/dx + v dw/dy) for a 2-D vorticity spectrum ``{(k_x, k_y): w}`` on
    the default 2*pi domain.  Streamfunction psi = w/|k|^2 (0 at k = 0),
    velocity u = i k_y psi, v = -i k_x psi."""
    psi = {k: c / (k[0] ** 2 + k[1] ** 2) for k, c in w.items() if k != (0, 0)}
    u = {k: 1j * k[1] * c for k, c in psi.items()}
    v = {k: -1j * k[0] * c for k, c in psi.items()}
    w_x = {k: 1j * k[0] * c for k, c in w.items()}
    w_y = {k: 1j * k[1] * c for k, c in w.items()}
    along_x = brute_force_convolve(u, w_x, grid)
    along_y = brute_force_convolve(v, w_y, grid)
    return {
        k: -(along_x.get(k, 0.0) + along_y.get(k, 0.0))
        for k in set(along_x) | set(along_y)
    }


def brute_force_burgers_step(u: dict, a: dict, dt: float, grid: GridSpec) -> dict:
    """One two-stage Heun step of the viscous conservation law on dicts."""

    def deriv(w: dict) -> dict:
        half = grid.n_per_dim // 2
        return {k: 1j * k * v for k, v in w.items() if k != -half and k != 0}

    def rhs(w: dict) -> dict:
        diff = brute_force_convolve(a, deriv(w), grid)
        flux = brute_force_convolve(w, w, grid)
        combined = {k: diff.get(k, 0.0) - 0.5 * flux.get(k, 0.0) for k in set(diff) | set(flux)}
        return deriv(combined)

    r1 = rhs(u)
    u1 = {k: u.get(k, 0.0) + dt * r1.get(k, 0.0) for k in set(u) | set(r1)}
    r2 = rhs(u1)
    keys = set(u) | set(u1) | set(r2)
    return {
        k: 0.5 * (u.get(k, 0.0) + u1.get(k, 0.0)) + 0.5 * dt * r2.get(k, 0.0)
        for k in keys
    }


def direct_l2_linf(u: np.ndarray, v: np.ndarray, dx_total: float) -> tuple[float, float]:
    """Plain-sum error norms for checking the vectorized metric path."""
    l2_sq = 0.0
    linf = 0.0
    for du in np.abs((u - v).ravel()):
        l2_sq += du * du * dx_total
        linf = max(linf, du)
    return float(np.sqrt(l2_sq)), float(linf)


def assert_closed_form_spectrum(got, samples: np.ndarray) -> None:
    """``got``, a spectrum built in closed form, against the one the zero
    rule makes of the DFT of its ``samples`` on the mesh: the same keys
    wherever either holds ``|c| >= 2 * ROUNDOFF_FLOOR`` of the largest
    entry, values within 4 eps of the largest, and exactly Hermitian."""
    want = SparseSpectrum.from_dense(dft_forward(SpatialField(got.grid, samples)))
    got_c, want_c = got.to_dense().coeffs, want.to_dense().coeffs
    top = np.abs(want_c).max()
    for a, b in ((got_c, want_c), (want_c, got_c)):
        assert np.all(b[np.abs(a) >= 2 * ROUNDOFF_FLOOR * top] != 0)
    assert np.abs(got_c - want_c).max() <= 4 * np.finfo(np.float64).eps * top
    assert got.is_hermitian(rtol=0)


def loop_dense_shrink(dense, lam: float, protect_mean: bool) -> SparseSpectrum:
    """The soft threshold of a dense spectrum, entry by entry in mode order
    (``np.fft.fftshift``): an entry below the roundoff floor (``ROUNDOFF_FLOOR``
    times the largest magnitude, at least ``DROP_TOL``; ``DROP_TOL`` when the
    largest is not finite) is a zero; with ``protect_mean`` the k = 0 entry,
    if not a zero, is kept as it is; every other entry is kept, as
    ``c (|c| - lam) / |c|``, when its magnitude is not at or below ``lam``."""
    grid = dense.grid
    half = grid.n_per_dim // 2
    top = float(np.abs(dense.coeffs).max())
    floor = max(ROUNDOFF_FLOOR * top, DROP_TOL) if np.isfinite(top) else DROP_TOL
    shifted = np.fft.fftshift(dense.coeffs)
    modes, values = [], []
    for index in np.ndindex(shifted.shape):
        c = shifted[index]
        mag = np.abs(c)
        mode = [i - half for i in index]
        if mag < floor:
            continue
        if protect_mean and not any(mode):
            modes.append(mode)
            values.append(c)
        elif not mag <= lam:
            modes.append(mode)
            values.append(c * ((mag - lam) / mag))
    keys = mode_to_key(grid, np.array(modes, dtype=np.int64).reshape(-1, grid.dims).T)
    return SparseSpectrum(grid, keys, np.array(values, dtype=np.complex128))


def _box_modes(grid: GridSpec, k: int) -> np.ndarray:
    """Mode vectors ``(dims, (2k+1)**dims)`` of the box ``|m_d| <= k``, in key
    order (row-major, first axis slowest)."""
    m = np.arange(-k, k + 1)
    return np.stack([c.ravel() for c in np.meshgrid(*([m] * grid.dims), indexing="ij")])


def _flat(modes, points: int, last_points: int) -> np.ndarray:
    """Flat index of mode vectors on a layout of ``points`` per leading
    dimension and ``last_points`` along the last, digit ``m mod points``."""
    index = np.mod(modes[-1], points)
    if len(modes) == 2:
        index = np.mod(modes[0], points) * last_points + index
    return index


def table_box_index(grid: GridSpec, k: int) -> np.ndarray:
    """Flat FFT-layout index of the box ``|m_d| <= k``, in key order."""
    return _flat(_box_modes(grid, k), grid.n_per_dim, grid.n_per_dim)


def table_place(spec: DenseSpectrum, size: int, rows: int) -> np.ndarray:
    """A dense operand on the half grid of a real transform on ``size``
    points per dimension, by index tables: row 0 gathers the open box's
    modes with ``m_last >= 0`` from the FFT layout, row 1 (with ``rows`` 2)
    the conjugates of their negations; shape ``(rows, size, ..., size//2 + 1)``."""
    grid = spec.grid
    modes = _box_modes(grid, grid.box_edge)
    keep = modes[-1] >= 0
    own = _flat(modes, grid.n_per_dim, grid.n_per_dim)
    negation = own[::-1]  # the box is symmetric: reversed, it lists the negations
    index = _flat(modes[:, keep], size, size // 2 + 1)
    flat = spec.coeffs.ravel()
    half = np.zeros((rows,) + (size,) * (grid.dims - 1) + (size // 2 + 1,), dtype=np.complex128)
    half.reshape(rows, -1)[0, index] = flat[own[keep]]
    if rows == 2:
        half.reshape(rows, -1)[1, index] = np.conjugate(flat[negation[keep]])
    return half


def table_read_box(spectra: np.ndarray, grid: GridSpec, k: int, size: int) -> np.ndarray:
    """The box ``|m_d| <= k`` of half spectra (shape ``(rows, size, ...,
    size//2 + 1)``) in key order, by an index table: a mode in the canonical
    half-space (``m_last > 0``, or ``m_last == 0`` and ``m_0 >= 0``) is
    gathered as it is, every other one as the conjugate of its negation
    (a masked conjugate); shape ``(rows, (2k+1)**dims)``."""
    modes = _box_modes(grid, k)
    flip = (modes[-1] < 0) | ((modes[-1] == 0) & (modes[0] < 0))
    index = _flat(np.where(flip, -modes, modes), size, size // 2 + 1)
    out = spectra.reshape(len(spectra), -1)[:, index]
    np.conjugate(out, out=out, where=flip)
    return out


def table_dense_convolve_sum(terms, real: bool) -> DenseSpectrum:
    """``sum w * (a * b)`` over terms of dense spectra, Galerkin-truncated,
    through the index tables above on the padded grid of the 2/3 rule:
    each operand placed (:func:`table_place`) and made into its field by
    one ``irfftn`` (without ``real``, split into the fields of
    ``(c(m) + conj c(-m))/2`` and ``(c(m) - conj c(-m))/2i``), the weighted
    products summed in space, one ``rfftn``, the open box read
    (:func:`table_read_box`) and scattered into the FFT layout."""
    grid = terms[0][1].grid
    size, k = transform_size(grid, 2 * grid.box_edge)
    shape = (size,) * grid.dims
    rows = 1 if real else 2
    axes = tuple(range(1, grid.dims + 1))

    def field(spec):
        half = table_place(spec, size, rows)
        if not real:
            own, odd = half
            even = (own + odd) * 0.5
            odd -= own
            odd *= 0.5j
            own[:] = even
        fields = np.fft.irfftn(half, shape, axes, norm="forward")
        return fields[0] if real else fields[0] + 1j * fields[1]

    total = None
    for w, a, b in terms:
        prod = field(a) * field(b)
        if w != 1:
            prod *= w
        total = prod if total is None else total + prod
    stacked = total[None] if real else np.stack((total.real, total.imag))
    out = table_read_box(np.fft.rfftn(stacked, shape, axes, norm="forward"), grid, k, size)
    vals = out[0] if real else out[0] + 1j * out[1]
    coeffs = np.zeros(grid.n_total, dtype=np.complex128)
    coeffs[table_box_index(grid, k)] = vals
    return DenseSpectrum(grid, coeffs.reshape(grid.shape))


def biot_savart_rows(grid: GridSpec, digits) -> np.ndarray:
    """``(i*k_1, -i*k_0) / |k|^2`` at the modes of key digits ``digits``,
    0 at k = 0, both rows from one ``1 / |k|^2``, stacked on a leading axis
    of two."""
    tables, ksq = axis_tables(grid), wavenumber_squares(grid, digits)
    inv = np.divide(1.0, ksq, out=np.zeros(ksq.shape), where=ksq != 0)
    out = np.empty((2, *inv.shape), dtype=np.complex128)
    np.multiply(tables.i_k.take(digits[1]), inv, out=out[0])
    np.multiply(tables.minus_i_k.take(digits[0]), inv, out=out[1])
    return out


def transform_at(terms, reach: int, real: bool = True) -> SparseSpectrum:
    """``sum w * (a * b)`` over terms of sparse spectra made by the padded
    product on the grid ``transform_size`` gives for ``reach``, whatever the
    operands' own reach, and its roundoff tail dropped as the sparse
    transform path drops it: every entry below ``ROUNDOFF_FLOOR`` times the
    largest magnitude (at least ``DROP_TOL``; ``DROP_TOL`` alone when that
    is not finite)."""
    grid, held = hold_operands(terms)
    size, k = transform_size(grid, reach)
    vals = padded_product(grid, held, size, k, real).ravel()
    mags = np.abs(vals)
    top = float(mags.max())
    floor = max(ROUNDOFF_FLOOR * top, DROP_TOL) if np.isfinite(top) else DROP_TOL
    keep = ~(mags < floor)
    return SparseSpectrum(grid, box_index(grid, k)[keep], vals[keep])


def materialised_advection(u):
    """``-(velocity . grad u)`` of a sparse or dense 2-D vorticity ``u``
    with each of its four operands made as a spectrum of its own, the two
    velocity components from the stacked rows of :func:`biot_savart_rows`
    and the two gradient components by ``spectral_derivative``.  A sparse
    ``u`` takes the path the state times itself takes
    (``plan_convolution``): the padded product sized by the state's reach
    (:func:`transform_at`), or entry pairs, row by row
    (:func:`row_loop_convolve`); a dense one is one real ``convolve_sum``
    call."""
    grid = u.grid
    if isinstance(u, SparseSpectrum):
        rows = biot_savart_rows(grid, tuple([key_digit(grid, u.keys, axis) for axis in range(2)]))
    else:
        rows = biot_savart_rows(grid, np.ix_(*[grid.mode_numbers() + grid.n_per_dim // 2] * 2))
    velocity = [u.apply_mode_factor(row) for row in rows]
    terms = [(-1.0, velocity[axis], spectral_derivative(u, axis)) for axis in range(2)]
    if isinstance(u, DenseSpectrum):
        return convolve_sum(terms, real=True)
    state = HeldField(u)
    if plan_convolution(grid, [(1.0, state, state)])[3]:
        return transform_at(terms, 2 * u.open_entries[2])
    return row_loop_convolve(terms, grid)


def assert_same_bits(got, want) -> None:
    """``got`` is ``want`` bit for bit: the same container, and the same
    keys and value bits (sparse) or coefficient bits (dense)."""
    assert type(got) is type(want)
    if isinstance(want, DenseSpectrum):
        assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))
        return
    assert np.array_equal(got.keys, want.keys)
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
