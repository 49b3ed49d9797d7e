import tracemalloc

import numpy as np
import pytest

from sparsedyn import (
    DenseSpectrum,
    GridSpec,
    HermitianViolation,
    SparseSpectrum,
    SpatialField,
    dft_forward,
    dft_inverse,
    fft_index_to_mode,
    project_low_frequency,
    spectral_derivative,
)
from sparsedyn.grid import (
    DERIVATIVE_FACTORS,
    VELOCITY_FACTORS,
    at_negated_modes,
    axis_tables,
    mode_table,
    wavenumber_squares,
)
from sparsedyn.spectral import is_hermitian


def random_real_spectrum(grid, rng, scale=1.0):
    field = SpatialField(grid, scale * rng.standard_normal(grid.shape))
    return dft_forward(field)


def test_constant_field_is_mean_only():
    g = GridSpec(1, 32)
    spec = dft_forward(SpatialField(g, np.full(32, 3.0)))
    assert spec.coeffs[0] == pytest.approx(3.0)
    assert np.max(np.abs(spec.coeffs[1:])) < 1e-14
    assert spec.mean_mode() == pytest.approx(3.0)


def test_sine_single_mode():
    g = GridSpec(1, 64)
    spec = dft_forward(SpatialField(g, np.sin(g.axis_coordinates())))
    assert abs(spec.coeffs[1] - (-0.5j)) < 1e-12
    assert abs(spec.coeffs[-1] - 0.5j) < 1e-12
    others = np.delete(spec.coeffs, [1, 63])
    assert np.max(np.abs(others)) < 1e-12


@pytest.mark.parametrize("dims,n", [(1, 128), (1, 4096), (2, 64), (2, 256)])
def test_round_trip_identity(dims, n):
    rng = np.random.default_rng(7)
    g = GridSpec(dims, n)
    field = SpatialField(g, rng.standard_normal(g.shape))
    back = dft_inverse(dft_forward(field))
    assert np.max(np.abs(back.values - field.values)) < 1e-12


def test_inverse_known_values():
    g = GridSpec(1, 32)
    coeffs = np.zeros(32, dtype=complex)
    coeffs[0] = 5.0
    assert np.allclose(dft_inverse(DenseSpectrum(g, coeffs)).values, 5.0)

    coeffs = np.zeros(32, dtype=complex)
    coeffs[1] = -0.5j
    coeffs[-1] = 0.5j
    out = dft_inverse(DenseSpectrum(g, coeffs))
    assert np.max(np.abs(out.values - np.sin(g.axis_coordinates()))) < 1e-12


def test_inverse_rejects_non_hermitian():
    g = GridSpec(1, 32)
    coeffs = np.zeros(32, dtype=complex)
    coeffs[1] = 1.0  # no conjugate partner
    with pytest.raises(HermitianViolation):
        dft_inverse(DenseSpectrum(g, coeffs))


def test_parseval():
    rng = np.random.default_rng(11)
    for dims, n in [(1, 256), (2, 32)]:
        g = GridSpec(dims, n)
        u = rng.standard_normal(g.shape)
        spec = dft_forward(SpatialField(g, u))
        spatial = np.sum(np.abs(u) ** 2) / g.n_total
        spectral = np.sum(np.abs(spec.coeffs) ** 2)
        assert abs(spatial - spectral) <= 1e-10 * spatial


def test_forward_linearity():
    rng = np.random.default_rng(13)
    g = GridSpec(1, 128)
    u = rng.standard_normal(128)
    v = rng.standard_normal(128)
    a, b = 1.7, -0.3
    lhs = dft_forward(SpatialField(g, a * u + b * v)).coeffs
    rhs = a * dft_forward(SpatialField(g, u)).coeffs + b * dft_forward(
        SpatialField(g, v)
    ).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_derivative_of_constant_is_zero():
    g = GridSpec(1, 32)
    spec = dft_forward(SpatialField(g, np.full(32, 2.5)))
    out = spectral_derivative(spec)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_derivative_sine_to_cosine_and_back():
    g = GridSpec(1, 64)
    x = g.axis_coordinates()
    spec = dft_forward(SpatialField(g, np.sin(x)))
    d1 = spectral_derivative(spec)
    assert np.max(np.abs(dft_inverse(d1).values - np.cos(x))) < 1e-12
    d2 = spectral_derivative(d1)
    assert np.max(np.abs(dft_inverse(d2).values + np.sin(x))) < 1e-12


def test_derivative_zeroes_nyquist():
    g = GridSpec(1, 16)
    coeffs = np.zeros(16, dtype=complex)
    coeffs[8] = 1.0  # mode -8, the unpaired Nyquist
    out = spectral_derivative(DenseSpectrum(g, coeffs))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_derivative_axis_validation():
    g = GridSpec(2, 16)
    spec = DenseSpectrum(g, np.zeros((16, 16), dtype=complex))
    spectral_derivative(spec, axis=1)
    with pytest.raises(ValueError):
        spectral_derivative(spec, axis=2)


def test_derivative_preserves_hermitian_symmetry():
    rng = np.random.default_rng(17)
    for dims, n in [(1, 64), (2, 16)]:
        g = GridSpec(dims, n)
        spec = random_real_spectrum(g, rng)
        assert is_hermitian(spec)
        for axis in range(dims):
            assert is_hermitian(spectral_derivative(spec, axis))


def test_2d_derivative_axes_are_independent():
    g = GridSpec(2, 32)
    x, y = g.meshgrid()
    spec = dft_forward(SpatialField(g, np.sin(x) * np.cos(2 * y)))
    dx = dft_inverse(spectral_derivative(spec, 0)).values
    dy = dft_inverse(spectral_derivative(spec, 1)).values
    assert np.max(np.abs(dx - np.cos(x) * np.cos(2 * y))) < 1e-12
    assert np.max(np.abs(dy + 2 * np.sin(x) * np.sin(2 * y))) < 1e-12


def mode_factors(dims):
    factors = [*DERIVATIVE_FACTORS[:dims], wavenumber_squares]
    return factors + list(VELOCITY_FACTORS) if dims == 2 else factors


@pytest.mark.parametrize("dims", [1, 2])
def test_at_reads_the_table_where_to_dense_places_each_entry(dims):
    # every mode factor: the sparse read, made from the per-axis tables at
    # the key digits, is bit for bit the dense table where to_dense places
    # each entry
    g = GridSpec(dims, 16, 3.0)
    rng = np.random.default_rng(3)
    # a random half of the modes, every Nyquist mode included, each with
    # its own value, so each entry's position in to_dense() can be read off
    modes = np.stack([m.ravel() for m in np.meshgrid(*([np.arange(-8, 8)] * dims), indexing="ij")])
    nyquist = np.flatnonzero(np.any(modes == -8, axis=0))
    picked = np.union1d(np.flatnonzero(rng.random(g.n_total) < 0.5), nyquist)
    spec = SparseSpectrum.from_modes(g, modes[:, picked], np.arange(1.0, picked.size + 1))
    dense = spec.to_dense()
    flat = dense.coeffs.ravel()
    nonzero = np.flatnonzero(flat)
    position = nonzero[np.argsort(flat[nonzero].real)]
    for factor in mode_factors(dims):
        table = dense.at(factor)
        assert table is mode_table(g, factor)
        assert np.array_equal(spec.at(factor), table.ravel()[position])


@pytest.mark.parametrize("dims", [1, 2])
def test_mode_tables_are_their_formulas_and_read_only(dims):
    n, length = 16, 3.0
    g = GridSpec(dims, n, length)
    m = np.meshgrid(*([np.fft.fftfreq(n, 1.0 / n)] * dims), indexing="ij")
    k = [2 * np.pi / length * md for md in m]
    for d in range(dims):
        # the unpaired Nyquist mode gets 0
        derivative = mode_table(g, DERIVATIVE_FACTORS[d])
        assert np.array_equal(derivative, np.where(m[d] == -n // 2, 0.0, 1j * k[d]))
    ksq = mode_table(g, wavenumber_squares)
    assert np.allclose(ksq, sum(kd**2 for kd in k), rtol=1e-15, atol=0)
    if dims == 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            want = (1j * k[1] / ksq, -1j * k[0] / ksq)
        for factor, expected in zip(VELOCITY_FACTORS, want):
            got = mode_table(g, factor)
            assert got[0, 0] == 0
            assert np.allclose(got.ravel()[1:], expected.ravel()[1:], rtol=1e-15, atol=0)
    # the dense tables have the grid's shape, the per-axis ones length n
    for factor in mode_factors(dims):
        table = mode_table(g, factor)
        assert table.shape == g.shape
        assert not table.flags.writeable
    for table in axis_tables(g):
        assert table.shape == (n,)
        assert not table.flags.writeable


def test_sparse_derivative_is_the_dense_one_at_its_entries():
    rng = np.random.default_rng(11)
    for dims, n in [(1, 32), (2, 16)]:
        g = GridSpec(dims, n)
        spec = SparseSpectrum.from_dense(random_real_spectrum(g, rng))
        for axis in range(dims):
            got = spectral_derivative(spec, axis).to_dense().coeffs
            assert np.array_equal(got, spectral_derivative(spec.to_dense(), axis).coeffs)


def test_shape_mismatch_rejected():
    g = GridSpec(1, 32)
    with pytest.raises(ValueError):
        SpatialField(g, np.zeros(16))
    with pytest.raises(ValueError):
        DenseSpectrum(g, np.zeros((32, 32), dtype=complex))


@pytest.mark.parametrize("grid", [GridSpec(1, 32), GridSpec(2, 16)], ids=["1d", "2d"])
def test_hermitian_gap_is_the_old_expression_bit_for_bit(grid):
    # the gap is now made in place on the negated-modes copy; with the
    # largest amplitude exactly 1 the check reads True at rtol = the old
    # gap and False one ulp below it, so the two gaps are the same bits;
    # a NaN still reads not Hermitian, and the input is left as it was
    rng = np.random.default_rng(7)
    coeffs = (rng.uniform(-0.5, 0.5, grid.shape) + 1j * rng.uniform(-0.5, 0.5, grid.shape))
    coeffs[(0,) * grid.dims] = 1.0
    with_nan = coeffs.copy()
    with_nan[(1,) * grid.dims] = complex(np.nan, 0.0)
    for c in (coeffs, with_nan):
        before = c.tobytes()
        old = np.max(np.abs(c - np.conj(at_negated_modes(c))))
        if np.isnan(old):
            assert not is_hermitian(DenseSpectrum(grid, c), rtol=1e300)
        else:
            assert old > 0
            assert is_hermitian(DenseSpectrum(grid, c), rtol=old)
            assert not is_hermitian(DenseSpectrum(grid, c), rtol=np.nextafter(old, 0))
        assert c.tobytes() == before


def test_dense_mode_reads_keep_nothing_the_size_of_the_grid():
    # the mode mesh (4 MB at 512^2) and the negation index (2 MB) were
    # cached per grid; every dense mode read now builds what it needs and
    # drops it
    g = GridSpec(2, 512)
    spec = DenseSpectrum(g, np.zeros(g.shape, dtype=np.complex128))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert is_hermitian(spec)
        assert project_low_frequency(spec, 8).coeffs.shape == g.shape
        assert spec.modes().shape == (2, *g.shape)
        assert fft_index_to_mode(g, np.arange(g.n_total)).shape == (2, g.n_total)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 2**20
