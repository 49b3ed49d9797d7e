import numpy as np
import pytest

from sparsedyn import (
    CoefficientSpec,
    DenseSpectrum,
    EquationParams,
    GridMismatch,
    GridSpec,
    InitialSpec,
    LambdaSchedule,
    RunReport,
    SparseSpectrum,
    StepRecord,
    advance,
    dft_forward,
    error_metrics,
    initial_condition,
    inject,
    iter_dense_states,
    iter_low_frequency_states,
    match_mode_count,
    project_low_frequency,
)
from sparsedyn.spectral import SpatialField, dft_inverse

from oracles import direct_l2_linf

NO_SHRINK = LambdaSchedule.power_law(0.0, 2.0)


def make_report(grid, n_s_final):
    rec = StepRecord(0, 0.0, n_s_final, n_s_final / grid.n_total, None, None, 0.0)
    return RunReport("parabolic", grid, 1e-4, "fixed(0.0)", records=[rec])


def test_dense_zero_state_stays_zero():
    g = GridSpec(1, 32)
    params = EquationParams("burgers", coeff=CoefficientSpec.constant(0.5))
    traj = list(iter_dense_states(DenseSpectrum(g, np.zeros(32, complex)), params, 1e-5, 5))
    assert len(traj) == 6
    for state in traj:
        assert np.max(np.abs(state.coeffs)) == 0.0


def test_dense_heat_decay_analytic():
    nu = 0.5
    g = GridSpec(1, 64)
    dt, n = 1e-5, 1000
    u0 = dft_forward(SpatialField(g, np.sin(g.axis_coordinates())))
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(nu))
    traj = list(iter_dense_states(u0, params, dt, n))
    got = traj[-1].coeffs[1]
    expected = -0.5j * np.exp(-nu * n * dt)
    assert abs(got - expected) / abs(expected) < 1e-4


def test_dense_matches_sparse_lambda_zero():
    g = GridSpec(1, 64)
    u0 = initial_condition(InitialSpec("gauss_bump", width=0.6), g)
    params = EquationParams("burgers", coeff=CoefficientSpec.constant(0.4))
    final, _ = advance(u0, params, NO_SHRINK, 1e-4, 50)
    traj = list(iter_dense_states(u0.to_dense(), params, 1e-4, 50))
    _, linf = error_metrics(final.current, traj[-1])
    assert linf < 1e-10


def test_low_frequency_full_cutoff_equals_dense():
    g = GridSpec(1, 64)
    u0 = initial_condition(InitialSpec("sine_low"), g)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(1.0))
    dense = list(iter_dense_states(u0.to_dense(), params, 1e-3, 20))
    lf = list(iter_low_frequency_states(u0.to_dense(), params, 1e-3, 20, cutoff=31))
    for d, p in zip(dense, lf):
        assert np.max(np.abs(d.coeffs - p.coeffs)) < 1e-12


def test_low_frequency_zero_cutoff_parabolic_constant():
    g = GridSpec(1, 64)
    u0 = initial_condition(InitialSpec("gauss_bump", width=0.6), g)
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(0.5))
    lf = list(iter_low_frequency_states(u0.to_dense(), params, 1e-5, 10, cutoff=0))
    mean = u0.mean_mode()
    for state in lf:
        assert state.coeffs[0] == pytest.approx(mean)
        assert np.max(np.abs(state.coeffs[1:])) == 0.0


def test_projection_idempotent():
    rng = np.random.default_rng(3)
    for g in (GridSpec(1, 64), GridSpec(2, 16)):
        spec = dft_forward(SpatialField(g, rng.standard_normal(g.shape)))
        for cutoff in (0, 3, 7):
            once = project_low_frequency(spec, cutoff)
            twice = project_low_frequency(once, cutoff)
            assert np.array_equal(once.coeffs, twice.coeffs)
            kept = np.abs(SparseSpectrum.from_dense(once).modes()).max() if cutoff else 0
            assert kept <= cutoff


def test_error_metrics_trivial_cases():
    g = GridSpec(1, 64)
    u = SpatialField(g, np.sin(g.axis_coordinates()))
    assert error_metrics(u, u) == (0.0, 0.0)

    c = 0.75
    v = SpatialField(g, u.values + c)
    l2, linf = error_metrics(u, v)
    assert linf == pytest.approx(c)
    assert l2 == pytest.approx(c * np.sqrt(g.domain_length))


def test_error_metrics_match_direct_sum():
    rng = np.random.default_rng(5)
    g = GridSpec(2, 16)
    a = SpatialField(g, rng.standard_normal((16, 16)))
    b = SpatialField(g, rng.standard_normal((16, 16)))
    l2, linf = error_metrics(a, b)
    dl2, dlinf = direct_l2_linf(a.values, b.values, g.cell_volume)
    assert l2 == pytest.approx(dl2, rel=1e-12)
    assert linf == pytest.approx(dlinf, rel=1e-12)


def test_error_metrics_metric_properties():
    rng = np.random.default_rng(7)
    g = GridSpec(1, 32)
    fields = [SpatialField(g, rng.standard_normal(32)) for _ in range(3)]
    a, b, c = fields
    ab = error_metrics(a, b)
    ba = error_metrics(b, a)
    assert ab == ba
    ac = error_metrics(a, c)
    cb = error_metrics(c, b)
    for i in range(2):
        assert ab[i] <= ac[i] + cb[i] + 1e-12


def test_error_metrics_mixed_representations():
    g = GridSpec(1, 64)
    u = SpatialField(g, np.sin(g.axis_coordinates()))
    dense = dft_forward(u)
    sparse = SparseSpectrum.from_dense(dense)
    for a, b in [(u, dense), (u, sparse), (dense, sparse)]:
        l2, linf = error_metrics(a, b)
        assert l2 < 1e-12 and linf < 1e-12


def test_error_metrics_grid_mismatch():
    a = SpatialField(GridSpec(1, 32), np.zeros(32))
    b = SpatialField(GridSpec(1, 64), np.zeros(64))
    with pytest.raises(GridMismatch):
        error_metrics(a, b)


def test_match_mode_count_1d():
    g = GridSpec(1, 512)
    assert match_mode_count(make_report(g, 0)) == 0
    assert match_mode_count(make_report(g, 1)) == 0
    assert match_mode_count(make_report(g, 27)) == 13
    assert match_mode_count(make_report(g, 28)) == 14
    # capped at the resolved band edge
    assert match_mode_count(make_report(g, 512)) == 255


def test_match_mode_count_2d():
    g = GridSpec(2, 64)
    assert match_mode_count(make_report(g, 9)) == 1
    assert match_mode_count(make_report(g, 10)) == 2
    assert match_mode_count(make_report(g, 25)) == 2


def test_inject_preserves_field():
    g = GridSpec(1, 32)
    fine = GridSpec(1, 128)
    u0 = initial_condition(InitialSpec("sine_low"), g)
    lifted = inject(u0, fine)
    # same modes, so the fine field samples the same function
    x = fine.axis_coordinates()
    coarse_vals = dft_inverse(u0.to_dense()).values
    fine_vals = dft_inverse(lifted).values
    assert np.max(np.abs(fine_vals[::4] - coarse_vals)) < 1e-12


@pytest.mark.parametrize("dims,n,n_fine", [(1, 16, 64), (2, 8, 16), (1, 16, 16), (2, 8, 8)])
def test_inject_full_box_drops_only_the_nyquist(dims, n, n_fine):
    g, fine = GridSpec(dims, n), GridSpec(dims, n_fine)
    rng = np.random.default_rng(n + n_fine)
    coarse = DenseSpectrum(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    lifted = inject(coarse, fine)
    coarse_modes = coarse.modes().reshape(dims, -1)
    fine_modes = lifted.modes().reshape(dims, -1)
    fine_of = {tuple(m): i for i, m in enumerate(fine_modes.T)}
    want = np.zeros(fine.n_total, dtype=np.complex128)
    for i, m in enumerate(coarse_modes.T):
        if not np.any(m == g.nyquist_mode):  # coarse Nyquist row and column dropped
            want[fine_of[tuple(m)]] = coarse.coeffs.ravel()[i]
    assert np.array_equal(lifted.coeffs.ravel(), want)
    # a sparse spectrum injects the same way
    assert np.array_equal(inject(SparseSpectrum.from_dense(coarse), fine).coeffs, lifted.coeffs)


def test_inject_2d_and_grid_guard():
    g = GridSpec(2, 16)
    fine = GridSpec(2, 32)
    u0 = initial_condition(InitialSpec("sine_low"), g)
    lifted = inject(u0, fine)
    back = SparseSpectrum.from_dense(lifted)
    assert back.to_dict() == u0.to_dict()
    with pytest.raises(GridMismatch):
        inject(u0, GridSpec(2, 8))
    with pytest.raises(GridMismatch):
        inject(u0, GridSpec(1, 64))
    # the same integer modes on another domain are other wavenumbers
    with pytest.raises(GridMismatch):
        inject(u0, GridSpec(2, 32, domain_length=1.0))
    line = initial_condition(InitialSpec("sine_low"), GridSpec(1, 16))
    with pytest.raises(GridMismatch):
        inject(line, GridSpec(1, 32, domain_length=1.0))
