import numpy as np
import pytest

from sparsedyn import (
    CoefficientSpec,
    EquationParams,
    GridSpec,
    SparseSpectrum,
    UnderResolved,
    coefficient_field_of,
    sample_coefficient,
)
from sparsedyn.coefficients import closed_form_spectrum
from sparsedyn.grid import mean_key
from sparsedyn.solvers import _prepare
from sparsedyn.spectral import is_hermitian

from oracles import assert_closed_form_spectrum


def test_constant_coefficient_spectrum():
    g = GridSpec(1, 64)
    spec = coefficient_field_of(CoefficientSpec.constant(2.5), g)
    assert spec.coeffs[0] == pytest.approx(2.5)
    assert np.max(np.abs(spec.coeffs[1:])) < 1e-14


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("value", [2.5, 0.0])
def test_constant_is_its_mean_mode_alone(dims, value):
    # a run's constant coefficient or forcing, sparse and dense, with no
    # sampling: one k = 0 entry, none for 0
    g = GridSpec(dims, 32)
    spec = CoefficientSpec.constant(value)
    if dims == 1:
        params = EquationParams("convection", coeff=spec)
    else:
        params = EquationParams("vorticity2d", gamma=0.1, forcing=spec)
    initial = SparseSpectrum.empty(g)
    sparse = _prepare(params, initial, 1e-3, False)
    assert sparse.keys.tolist() == ([mean_key(g)] if value else [])
    assert sparse.values.tolist() == ([value] if value else [])
    dense = _prepare(params, initial.to_dense(), 1e-3, False)
    want = np.zeros(g.shape, dtype=complex)
    want[(0,) * dims] = value
    assert np.array_equal(dense.coeffs, want)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        CoefficientSpec("exotic")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_rejected(value):
    # it was taken, and the run stopped as non-finite at step 1
    with pytest.raises(ValueError, match="value must be finite"):
        CoefficientSpec.constant(value)


def test_convection_coefficient_positive_and_bounded():
    g = GridSpec(1, 512)
    a = sample_coefficient(CoefficientSpec("convection_oscillatory"), g)
    assert a.min() > 0
    # frozen bounds from direct sampling at N=512
    assert a.min() == pytest.approx(0.31633142226253497)
    assert a.max() == pytest.approx(3.597256666967746)
    assert is_hermitian(coefficient_field_of(CoefficientSpec("convection_oscillatory"), g))


def test_parabolic_and_burgers_coefficients_positive():
    a = sample_coefficient(CoefficientSpec("parabolic_oscillatory"), GridSpec(1, 2048))
    assert a.min() > 0
    b = sample_coefficient(CoefficientSpec("burgers_oscillatory"), GridSpec(1, 1024))
    assert b.min() > 0


def test_under_resolved_guard():
    with pytest.raises(UnderResolved):
        sample_coefficient(CoefficientSpec("convection_oscillatory"), GridSpec(1, 128))
    with pytest.raises(UnderResolved):
        sample_coefficient(CoefficientSpec("parabolic_oscillatory"), GridSpec(1, 512))
    with pytest.raises(UnderResolved):
        sample_coefficient(CoefficientSpec("vorticity_forcing"), GridSpec(2, 128))
    # one point above the guard is allowed
    sample_coefficient(CoefficientSpec("burgers_oscillatory"), GridSpec(1, 512))


def test_dims_guard():
    with pytest.raises(ValueError):
        sample_coefficient(CoefficientSpec("vorticity_forcing"), GridSpec(1, 256))
    with pytest.raises(ValueError):
        sample_coefficient(CoefficientSpec("convection_oscillatory"), GridSpec(2, 256))


@pytest.mark.parametrize("n", [256, 512])
def test_forcing_is_its_mesh_formula(n):
    # sampled from its per-axis terms, bit for bit what the mesh gives
    g = GridSpec(2, n)
    x, y = g.meshgrid()
    want = 0.025 * (np.sin(32 * x) + np.sin(32 * y)) / (1.0 + 0.25 * (np.cos(64 * x) + np.cos(64 * y)))
    assert np.array_equal(sample_coefficient(CoefficientSpec("vorticity_forcing"), g), want)


def test_forcing_spatial_max_regression():
    # frozen from direct sampling at 256 per dim
    g = GridSpec(2, 256)
    f = sample_coefficient(CoefficientSpec("vorticity_forcing"), g)
    assert abs(np.max(np.abs(f)) - 0.1) < 1e-12
    assert abs(f.mean()) < 1e-12


def test_forcing_spectrum_support():
    g = GridSpec(2, 256)
    spec = coefficient_field_of(CoefficientSpec("vorticity_forcing"), g)
    mags = np.abs(spec.coeffs)
    # dominant content sits at the pure oscillation modes (32, 0) and (0, 32)
    assert mags[32, 0] > 1e-2
    assert mags[0, 32] > 1e-2
    # and their mixtures with the modulation frequency 64
    assert mags[96, 0] > 1e-4
    assert mags[32, 64] > 1e-4
    # no energy away from the 32/64 mixture lattice
    assert mags[1, 1] < 1e-15
    assert mags[17, 5] < 1e-15


@pytest.mark.parametrize("n", [256, 512])
def test_forcing_spectrum_is_that_of_one_period_cell(n):
    # the samples repeat every n/32 points along each axis.  Against the
    # mesh formula with its arguments reduced exactly, 32 x = 2 pi (32 j mod
    # n) / n: the tolerance oracle.  The samples at x = j dx carry argument
    # roundoff that grows with x, and their spectrum differs from both by
    # up to about 18 eps of the largest entry, but holds the same entries
    g = GridSpec(2, n)
    j = np.arange(n)
    sin, cos = np.sin(2 * np.pi * (32 * j % n) / n), np.cos(2 * np.pi * (64 * j % n) / n)
    mesh = 0.025 * np.add.outer(sin, sin) / (1.0 + 0.25 * np.add.outer(cos, cos))
    forcing = CoefficientSpec("vorticity_forcing")
    got = closed_form_spectrum(forcing, g)
    assert_closed_form_spectrum(got, mesh)
    assert np.all(got.modes() % 32 == 0)
    sampled = SparseSpectrum.from_dense(coefficient_field_of(forcing, g))
    assert np.array_equal(got.keys, sampled.keys)


def test_forcing_is_sampled_where_its_samples_do_not_repeat():
    # on a domain that is not a whole number of 2 pi periods
    forcing = CoefficientSpec("vorticity_forcing")
    assert closed_form_spectrum(forcing, GridSpec(2, 256, domain_length=3.0)) is None
    two_periods = GridSpec(2, 256, domain_length=4 * np.pi)
    sampled = SparseSpectrum.from_dense(coefficient_field_of(forcing, two_periods))
    assert np.array_equal(closed_form_spectrum(forcing, two_periods).keys, sampled.keys)
    with pytest.raises(UnderResolved):
        closed_form_spectrum(forcing, GridSpec(2, 128))
