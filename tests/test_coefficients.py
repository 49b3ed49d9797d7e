import numpy as np
import pytest

from sparsedyn import (
    CoefficientSpec,
    GridSpec,
    UnderResolved,
    coefficient_field_of,
    sample_coefficient,
)
from sparsedyn.spectral import is_hermitian


def test_constant_coefficient_spectrum():
    g = GridSpec(1, 64)
    spec = coefficient_field_of(CoefficientSpec.constant(2.5), g)
    assert spec.coeffs[0] == pytest.approx(2.5)
    assert np.max(np.abs(spec.coeffs[1:])) < 1e-14


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
