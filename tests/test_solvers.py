import tracemalloc
import warnings

import numpy as np
import pytest

from sparsedyn import (
    CflViolation,
    CflWarning,
    CoefficientSpec,
    EquationParams,
    GridSpec,
    HermitianViolation,
    InitialSpec,
    LambdaSchedule,
    NonpositiveDt,
    NotTwoDimensional,
    SolverDiverged,
    SparseSpectrum,
    UnknownInitialSpec,
    advance,
    dft_forward,
    error_metrics,
    initial_condition,
    iter_dense_states,
    iter_low_frequency_states,
    iter_states,
    load_recipe,
    step_burgers,
    step_vorticity,
)
from sparsedyn import shrinkage, solvers, spectral
from sparsedyn.coefficients import sample_coefficient
from sparsedyn.grid import DERIVATIVE_FACTORS, VELOCITY_FACTORS, half_index, transform_size
from sparsedyn.shrinkage import ROUNDOFF_FLOOR, _transform_is_cheaper, soft_threshold
from sparsedyn.solvers import (
    SolverState,
    _burgers_rhs,
    _periodized_gaussian,
    _prepare,
    advection_term,
)
from sparsedyn.spectral import (
    HeldField,
    SpatialField,
    dft_inverse,
    hold_operands,
    is_hermitian,
)

from oracles import (
    assert_closed_form_spectrum,
    assert_same_bits,
    brute_force_advection,
    brute_force_burgers_step,
    materialised_advection,
)

NO_SHRINK = LambdaSchedule.power_law(0.0, 2.0)


def sine_field(grid):
    return SparseSpectrum.from_dense(
        dft_forward(SpatialField(grid, np.sin(grid.axis_coordinates())))
    )


def test_zero_state_is_fixed_point():
    g = GridSpec(1, 32)
    zero = SparseSpectrum.empty(g)
    for eq, kwargs in [
        ("convection", dict(coeff=CoefficientSpec.constant(1.0))),
        ("parabolic", dict(coeff=CoefficientSpec.constant(0.5))),
        ("burgers", dict(coeff=CoefficientSpec.constant(0.5))),
    ]:
        params = EquationParams(eq, **kwargs)
        final, _ = advance(zero, params, NO_SHRINK, 1e-4, 5)
        assert final.current.n_s == 0

    g2 = GridSpec(2, 16)
    params = EquationParams("vorticity2d", gamma=0.1, forcing=CoefficientSpec.constant(0.0))
    final, _ = advance(SparseSpectrum.empty(g2), params, NO_SHRINK, 1e-3, 5)
    assert final.current.n_s == 0


def test_constant_transport_matches_translate():
    # du/dt = c du/dx moves the profile to sin(x + c t)
    c = 1.0
    g = GridSpec(1, 64)
    dt = g.dx / (4 * c)
    n = round(1.0 / dt)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(c))
    final, _ = advance(sine_field(g), params, NO_SHRINK, dt, n)
    exact = np.sin(g.axis_coordinates() + c * n * dt)
    got = dft_inverse(final.current.to_dense()).values
    assert np.max(np.abs(got - exact)) < 1e-3


def test_zero_velocity_leapfrog_is_period_two():
    g = GridSpec(1, 32)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(0.0))
    u0 = sine_field(g)
    states = list(iter_states(u0, params, NO_SHRINK, 0.01, 4))
    for s in states:
        assert np.array_equal(s.current.values, u0.values)


def test_parabolic_mean_only_state_unchanged():
    g = GridSpec(1, 32)
    u0 = SparseSpectrum.from_dict(g, {0: 2.0})
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(1.0))
    final, _ = advance(u0, params, NO_SHRINK, 1e-5, 10)
    assert final.current.to_dict() == {0: 2.0 + 0j}


def test_heat_mode_decay_analytic():
    nu = 1.0
    g = GridSpec(1, 64)
    dt = 1e-5
    t_final = 0.01 / nu
    n = round(t_final / dt)
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(nu))
    final, _ = advance(sine_field(g), params, NO_SHRINK, dt, n)
    got = final.current.to_dict()[1]
    expected = -0.5j * np.exp(-nu * n * dt)
    assert abs(got - expected) / abs(expected) < 1e-4


def test_burgers_second_harmonic_against_brute_force():
    eps, nu, dt = 0.1, 0.05, 1e-3
    g = GridSpec(1, 64)
    u0 = SparseSpectrum.from_dict(g, {1: -0.5j * eps, -1: 0.5j * eps})
    params = EquationParams("burgers", coeff=CoefficientSpec.constant(nu))
    state = SolverState(u0, None, 0, 0.0)
    got = step_burgers(state, SparseSpectrum.from_dict(g, {0: nu}), dt).to_dict()

    want = brute_force_burgers_step(u0.to_dict(), {0: nu}, dt, g)
    for k in set(got) | set(want):
        assert abs(got.get(k, 0.0) - want.get(k, 0.0)) < 1e-14, k
    # the quadratic flux seeds the second harmonic at O(eps^2 dt)
    assert abs(got[2]) == pytest.approx(abs(want[2]))
    assert 0 < abs(got[2]) < 2 * eps**2 * dt


def test_vorticity_single_mode_advection_vanishes():
    g = GridSpec(2, 32)
    u = SparseSpectrum.from_dict(g, {(3, 2): 0.4 - 0.1j, (-3, -2): 0.4 + 0.1j})
    residual = advection_term(u)
    assert max((abs(v) for v in residual.values), default=0.0) < 1e-12


def test_vorticity_advection_against_brute_force():
    # several modes with distinct |k|, so the velocity sign matters
    g = GridSpec(2, 16)
    half = {(1, 2): 0.3 - 0.2j, (3, -1): -0.25 + 0.1j, (2, 0): 0.2j, (0, 1): 0.15}
    entries = dict(half)
    entries.update({(-k1, -k2): v.conjugate() for (k1, k2), v in half.items()})
    u = SparseSpectrum.from_dict(g, entries)
    want = brute_force_advection(u.to_dict(), g)
    assert max(abs(v) for v in want.values()) > 1e-2
    for got in (advection_term(u), SparseSpectrum.from_dense(advection_term(u.to_dense()))):
        got_d = got.to_dict()
        for k in set(got_d) | set(want):
            assert abs(got_d.get(k, 0.0) - want.get(k, 0.0)) < 1e-14, k


def test_vorticity_single_mode_cn_decay():
    g = GridSpec(2, 32)
    gamma, dt, n = 0.05, 0.02, 100
    u0 = SparseSpectrum.from_dict(g, {(3, 2): 0.4 - 0.1j, (-3, -2): 0.4 + 0.1j})
    params = EquationParams("vorticity2d", gamma=gamma, forcing=CoefficientSpec.constant(0.0))
    final, _ = advance(u0, params, NO_SHRINK, dt, n)
    ksq = 13.0
    factor = ((2 - gamma * dt * ksq) / (2 + gamma * dt * ksq)) ** n
    got = final.current.to_dict()[(3, 2)]
    assert abs(got - (0.4 - 0.1j) * factor) < 1e-10


def test_vorticity_requires_2d():
    g = GridSpec(1, 32)
    state = SolverState(sine_field(g), None, 0, 0.0)
    with pytest.raises(NotTwoDimensional):
        step_vorticity(state, SparseSpectrum.empty(g), 0.1, 0.01)


def test_huge_lambda_collapses_in_one_step():
    g = GridSpec(1, 64)
    u0 = sine_field(g)
    for eq, coeff in [
        ("convection", CoefficientSpec.constant(1.0)),
        ("parabolic", CoefficientSpec.constant(0.5)),
        ("burgers", CoefficientSpec.constant(0.5)),
    ]:
        params = EquationParams(eq, coeff=coeff)
        states = list(iter_states(u0, params, LambdaSchedule.fixed(10.0), 1e-5, 1))
        assert states[1].current.n_s == 0


def test_advance_zero_steps_returns_initial():
    g = GridSpec(1, 32)
    u0 = sine_field(g)
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(1.0))
    final, trace = advance(u0, params, NO_SHRINK, 1e-4, 0)
    assert final.step_index == 0
    assert len(trace) == 1
    assert np.array_equal(final.current.values, u0.values)


@pytest.mark.parametrize("dt", [0.0, -1e-5, float("nan")])
def test_every_trajectory_rejects_a_nonpositive_dt(dt):
    g = GridSpec(1, 32)
    u0 = sine_field(g)
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(1.0))
    for states in (
        iter_states(u0, params, NO_SHRINK, dt, 3),
        iter_dense_states(u0.to_dense(), params, dt, 3),
        iter_low_frequency_states(u0.to_dense(), params, dt, 3, cutoff=4),
    ):
        with pytest.raises(NonpositiveDt, match="dt must be positive"):
            list(states)


def test_every_trajectory_rejects_a_negative_step_count():
    g = GridSpec(1, 32)
    u0 = sine_field(g)
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(1.0))
    for states in (
        iter_states(u0, params, NO_SHRINK, 1e-4, -5),
        iter_dense_states(u0.to_dense(), params, 1e-4, -5),
        iter_low_frequency_states(u0.to_dense(), params, 1e-4, -5, cutoff=4),
    ):
        with pytest.raises(ValueError, match="n_steps must be >= 0, got -5"):
            list(states)
    with pytest.raises(ValueError, match="n_steps"):
        advance(u0, params, NO_SHRINK, 1e-4, -5)


def test_lambda_zero_matches_dense_all_equations():
    # short version; the acceptance suite runs the full 100-step variant
    specs = [
        ("convection", 1, dict(coeff=CoefficientSpec.constant(1.0)), 1e-3),
        ("parabolic", 1, dict(coeff=CoefficientSpec.constant(0.3)), 1e-4),
        ("burgers", 1, dict(coeff=CoefficientSpec.constant(0.3)), 1e-4),
        ("vorticity2d", 2, dict(gamma=0.01, forcing=CoefficientSpec.constant(0.0)), 1e-2),
    ]
    for eq, dims, kwargs, dt in specs:
        g = GridSpec(dims, 16)
        u0 = initial_condition(InitialSpec("sine_low"), g)
        params = EquationParams(eq, **kwargs)
        for s, d in zip(
            iter_states(u0, params, NO_SHRINK, dt, 30),
            iter_dense_states(u0.to_dense(), params, dt, 30),
        ):
            _, linf = error_metrics(s.current, d)
            assert linf < 1e-10, eq


def test_lambda_zero_matches_dense_with_oscillatory_coefficients():
    # the coefficient spectrum drops its roundoff tail; at lambda = 0 the
    # sparse run must still match the dense reference, which keeps it
    for eq, n in [("burgers", 512), ("parabolic", 1024)]:
        g = GridSpec(1, n)
        coeff = CoefficientSpec(f"{eq}_oscillatory")
        params = EquationParams(eq, coeff=coeff)
        u0 = initial_condition(InitialSpec("gauss_bump", width=0.6), g)
        assert _prepare(params, u0, 1e-12, True).n_s < n // 2
        dt = 0.4 * g.dx**2 / np.abs(sample_coefficient(coeff, g)).max()
        for s, d in zip(
            iter_states(u0, params, NO_SHRINK, dt, 50, strict_cfl=True),
            iter_dense_states(u0.to_dense(), params, dt, 50, strict_cfl=True),
        ):
            _, linf = error_metrics(s.current, d)
            assert linf < 1e-10, eq


def test_coefficient_spectra_of_headline_recipes_drop_roundoff():
    expected = {
        "parabolic_fig2": 208,
        "burgers_fig3": 184,
        "convection_fig1": 184,
        "vorticity_fig4": 32,
    }
    for name, n_s in expected.items():
        config = load_recipe(name)
        grid = config.grid()
        coeff = _prepare(config.equation_params(), SparseSpectrum.empty(grid), 1e-12, True)
        assert coeff.n_s == n_s, name


def test_mean_mode_exact_at_zero_lambda():
    g = GridSpec(1, 64)
    u0 = initial_condition(InitialSpec("gauss_bump", width=0.6), g)
    mean0 = u0.mean_mode()
    for eq, coeff, dt in [
        ("parabolic", CoefficientSpec.constant(0.3), 1e-4),
        ("burgers", CoefficientSpec.constant(0.3), 1e-4),
    ]:
        params = EquationParams(eq, coeff=coeff)
        for s in iter_states(u0, params, NO_SHRINK, dt, 20):
            assert abs(s.current.mean_mode() - mean0) <= 1e-12

    g2 = GridSpec(2, 16)
    u2 = initial_condition(InitialSpec("sine_low"), g2)
    params = EquationParams("vorticity2d", gamma=0.01, forcing=CoefficientSpec.constant(0.0))
    for s in iter_states(u2, params, NO_SHRINK, 1e-2, 20):
        assert abs(s.current.mean_mode() - u2.mean_mode()) <= 1e-12


def test_mean_drift_bounded_by_lambda():
    lam = 2e-3
    g = GridSpec(1, 64)
    u0 = initial_condition(InitialSpec("gauss_bump", width=0.6), g)
    for eq, coeff, dt in [
        ("parabolic", CoefficientSpec.constant(0.3), 1e-4),
        ("burgers", CoefficientSpec.constant(0.3), 1e-4),
    ]:
        params = EquationParams(eq, coeff=coeff)
        prev_mean = u0.mean_mode()
        for s in iter_states(u0, params, LambdaSchedule.fixed(lam), dt, 20):
            if s.step_index > 0:
                assert abs(s.current.mean_mode() - prev_mean) <= lam + 1e-15
            prev_mean = s.current.mean_mode()


def test_states_stay_hermitian():
    g = GridSpec(1, 64)
    u0 = initial_condition(InitialSpec("gauss_bump", width=0.6), g)
    for eq, coeff in [
        ("convection", CoefficientSpec("convection_oscillatory")),
        ("parabolic", CoefficientSpec.constant(0.4)),
        ("burgers", CoefficientSpec.constant(0.4)),
    ]:
        g_eq = GridSpec(1, 256) if eq == "convection" else g
        u_eq = initial_condition(InitialSpec("gauss_bump", width=0.6), g_eq)
        params = EquationParams(eq, coeff=coeff)
        final, _ = advance(u_eq, params, LambdaSchedule.fixed(1e-4), 2e-5, 10)
        assert is_hermitian(final.current.to_dense(), rtol=1e-9)

    g2 = GridSpec(2, 16)
    u2 = initial_condition(InitialSpec("two_vortices"), g2)
    params = EquationParams("vorticity2d", gamma=0.05, forcing=CoefficientSpec.constant(0.0))
    final, _ = advance(u2, params, LambdaSchedule.fixed(1e-6), 1e-2, 10)
    assert is_hermitian(final.current.to_dense(), rtol=1e-9)


def test_cfl_guard_warns_then_raises():
    g = GridSpec(1, 64)
    u0 = sine_field(g)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(1.0))
    big_dt = 2 * g.dx  # over the transport guard
    with pytest.warns(CflWarning):
        advance(u0, params, NO_SHRINK, big_dt, 1)
    with pytest.raises(CflViolation):
        advance(u0, params, NO_SHRINK, big_dt, 1, strict_cfl=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        advance(u0, params, NO_SHRINK, 0.9 * g.dx, 1)  # inside the guard: silent


def test_cfl_guard_warns_once_per_run():
    g = GridSpec(1, 64)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        advance(sine_field(g), params, NO_SHRINK, 2 * g.dx, 5)
    assert sum(issubclass(w.category, CflWarning) for w in caught) == 1


def test_cfl_warning_points_at_the_caller():
    g = GridSpec(1, 64)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(1.0))
    u0 = sine_field(g)
    for run in (
        lambda: list(iter_states(u0, params, NO_SHRINK, 2 * g.dx, 1)),
        lambda: list(iter_dense_states(u0.to_dense(), params, 2 * g.dx, 1)),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        assert caught[0].category is CflWarning
        assert caught[0].filename == __file__


def test_cfl_warning_from_advance_points_at_the_caller():
    g = GridSpec(1, 64)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        advance(sine_field(g), params, NO_SHRINK, 2 * g.dx, 1)
    assert caught[0].category is CflWarning
    assert caught[0].filename == __file__


def test_diverging_run_raises_instead_of_dropping_nan():
    # 30x over the transport guard Leap Frog blows up; the soft threshold
    # must not drop the non-finite entries and hand back a small, sparse
    # state.  Strong vortices blow the vorticity step up at step 12, on
    # both paths.
    g1, g2 = GridSpec(1, 64), GridSpec(2, 32)
    cases = [
        (
            initial_condition(InitialSpec("gauss_bump", width=0.7), g1),
            EquationParams("convection", coeff=CoefficientSpec.constant(1.0)),
            LambdaSchedule.fixed(1e-6),
            30 * g1.dx,
            "non-finite coefficient",
        ),
        (
            initial_condition(InitialSpec("two_vortices", amplitude=200.0), g2),
            EquationParams("vorticity2d", gamma=0.01, forcing=CoefficientSpec.constant(0.0)),
            LambdaSchedule.power_law(0.1, 2.0),
            0.05,
            "non-finite coefficient at step 12 ",
        ),
    ]
    for u0, params, schedule, dt, where in cases:
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", CflWarning)
            with pytest.raises(SolverDiverged, match=where):
                advance(u0, params, schedule, dt, 400)
            with pytest.raises(SolverDiverged, match=where):
                list(iter_dense_states(u0.to_dense(), params, dt, 400))


def test_initial_state_must_be_the_spectrum_of_a_real_field():
    # the steps convolve real fields only, so a complex initial state stops
    # with a named error before the first step instead of being folded into
    # a real one; a real field moved by whole cells passes, though its
    # phases hold roundoff and the Nyquist entries of the bump are kept
    g = GridSpec(1, 64)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(1.0))
    bump = initial_condition(InitialSpec("gauss_bump", width=0.7), g)
    turns = (bump.modes()[0] * 5) % g.n_per_dim
    moved = bump.apply_mode_factor(np.exp(-2j * np.pi * turns / g.n_per_dim))
    assert not np.array_equal(moved.values, bump.values)
    lopsided = sine_field(g) + SparseSpectrum.from_dict(g, {2: 0.1})
    tilted = sine_field(g) * np.exp(0.3j)
    for u0 in (moved, bump, sine_field(g)):
        advance(u0, params, NO_SHRINK, 1e-3, 2)
        list(iter_dense_states(u0.to_dense(), params, 1e-3, 2))
    for u0 in (lopsided, tilted):
        with pytest.raises(HermitianViolation):
            next(iter_states(u0, params, NO_SHRINK, 1e-3, 2))
        with pytest.raises(HermitianViolation):
            next(iter_dense_states(u0.to_dense(), params, 1e-3, 2))


def test_diffusion_cfl_guard():
    g = GridSpec(1, 64)
    u0 = sine_field(g)
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(1.0))
    with pytest.raises(CflViolation):
        advance(u0, params, NO_SHRINK, g.dx**2, 1, strict_cfl=True)


def test_convergence_in_dt():
    # halving dt (with threshold C dt^2) cannot increase the error
    g = GridSpec(1, 64)
    u0 = initial_condition(InitialSpec("sine_low"), g)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(1.0))
    t_end = 1.0
    reference = None
    for reference in iter_dense_states(u0.to_dense(), params, t_end / 800, 800):
        pass
    errors = []
    for dt in [0.04, 0.02, 0.01, 0.005]:
        final, _ = advance(u0, params, LambdaSchedule.power_law(0.5, 2.0), dt, round(t_end / dt))
        l2, _ = error_metrics(final.current, reference)
        errors.append(l2)
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse * (1 + 1e-9)


def test_initial_sine_low_support():
    g = GridSpec(1, 64)
    spec = initial_condition(InitialSpec("sine_low"), g)
    modes = spec.modes()[0]
    assert spec.n_s == 6
    assert np.all(np.abs(modes) <= 3)
    assert np.all(modes != 0)
    assert is_hermitian(spec.to_dense())
    # seeded: same spec every time
    again = initial_condition(InitialSpec("sine_low"), g)
    assert np.array_equal(again.values, spec.values)
    different = initial_condition(InitialSpec("sine_low", seed=7), g)
    assert not np.array_equal(different.values, spec.values)


def test_initial_sine_low_2d_support():
    g = GridSpec(2, 32)
    spec = initial_condition(InitialSpec("sine_low"), g)
    assert spec.n_s == 48
    assert np.all(np.max(np.abs(spec.modes()), axis=0) <= 3)


def test_initial_two_vortices_mean_free():
    g = GridSpec(2, 64)
    spec = initial_condition(InitialSpec("two_vortices", amplitude=2.0), g)
    assert abs(spec.mean_mode()) < 1e-10
    u = dft_inverse(spec.to_dense()).values
    # opposite-sign patches of equal strength
    assert u.max() > 0.5
    assert abs(u.max() + u.min()) < 1e-10


def test_initial_two_vortices_needs_2d():
    with pytest.raises(NotTwoDimensional):
        initial_condition(InitialSpec("two_vortices"), GridSpec(1, 64))


def test_initial_gauss_bump_spectrum_decays():
    # frozen from direct sampling: strict decay from k=3 out to k=16; beyond
    # that the samples' spectrum is roundoff, which the zero rule drops
    g = GridSpec(1, 256)
    spec = initial_condition(InitialSpec("gauss_bump", width=0.5), g)
    mags = np.abs(spec.to_dense().coeffs[:129])
    for k in range(3, 17):
        assert mags[k] < mags[k - 1]
    assert np.all(mags[17:] == 0)
    assert spec.n_s == 33


def mesh_gaussian(c, center, width, period):
    """The 13-image periodized Gaussian, evaluated on a mesh array ``c``."""
    total = np.zeros_like(c)
    for image in range(-6, 7):
        total += np.exp(-((c - center - image * period) ** 2) / (2.0 * width**2))
    return total


@pytest.mark.parametrize("name", ["gauss_bump", "two_vortices"])
def test_separable_initial_states_are_their_mesh_formulas(name):
    # in 2-D the outer product of per-axis spectra is, to roundoff, the
    # spectrum of the mesh formula's samples; in 1-D the state is the
    # spectrum of its samples, bit for bit
    for g in (GridSpec(2, 64, domain_length=5.0), GridSpec(2, 256)):
        x, y = g.meshgrid()
        period = g.domain_length
        if name == "gauss_bump":
            values = mesh_gaussian(x, period / 2, 0.7, period) * mesh_gaussian(y, period / 2, 0.7, period)
        else:
            row = mesh_gaussian(y, period / 2, 0.4, period)
            values = mesh_gaussian(x, period / 4, 0.4, period) * row - mesh_gaussian(
                x, 3 * period / 4, 0.4, period
            ) * row
        got = initial_condition(InitialSpec(name, width=0.7, amplitude=1.5), g)
        assert_closed_form_spectrum(got, 1.5 * values)
    one = GridSpec(1, 64, domain_length=5.0)
    (x,) = one.meshgrid()
    want = SparseSpectrum.from_dense(dft_forward(SpatialField(one, mesh_gaussian(x, 2.5, 0.7, 5.0))))
    got = initial_condition(InitialSpec("gauss_bump", width=0.7), one)
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize(
    "width, period",
    [(0.4, 2 * np.pi), (0.5, 2 * np.pi), (0.7, 5.0), (1.5, 2 * np.pi), (0.1, 1.0), (0.5, 1.0)],
)
def test_gaussian_images_beyond_the_cut_change_no_sample(width, period):
    # the periodized Gaussian sums only the images that can change a sample
    # (+-1 for width 0.4 on 2 pi); up to width period / 2 the 13-image sum
    # is complete too, and the two agree bit for bit
    x = GridSpec(1, 512, domain_length=period).axis_coordinates()
    for center in (period / 4, period / 2, 3 * period / 4):
        got = _periodized_gaussian(x, center, width, period)
        assert got.tobytes() == mesh_gaussian(x, center, width, period).tobytes()


@pytest.mark.parametrize(
    "name, grid", [("gauss_bump", GridSpec(1, 256)), ("two_vortices", GridSpec(2, 128))]
)
def test_sampled_initial_states_hold_no_roundoff(name, grid):
    # one zero rule: a state sampled and transformed drops what the
    # coefficient does, every entry below the floor share of the largest
    spec = initial_condition(InitialSpec(name), grid)
    mags = np.abs(spec.values)
    assert 0 < spec.n_s < grid.n_total
    assert mags.min() >= ROUNDOFF_FLOOR * mags.max()


@pytest.mark.parametrize(
    "name, value",
    [("width", 0.0), ("width", -0.5), ("width", np.inf), ("width", np.nan),
     ("amplitude", np.inf), ("amplitude", -np.inf), ("amplitude", np.nan),
     ("seed", -1), ("seed", 1.5), ("seed", None)],
)
def test_initial_spec_rejects_bad_width_and_amplitude(name, value):
    # width 0 gave NaN entries, reported later as a HermitianViolation
    with pytest.raises(ValueError, match=name):
        InitialSpec("gauss_bump", **{name: value})


def test_unknown_initial_spec():
    with pytest.raises(UnknownInitialSpec):
        initial_condition(InitialSpec("square_wave"), GridSpec(1, 64))


def test_time_is_step_times_dt():
    g = GridSpec(1, 32)
    u0 = sine_field(g)
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(0.5))
    dt = 1e-3
    for s in iter_states(u0, params, NO_SHRINK, dt, 7):
        assert s.time == s.step_index * dt


def test_previous_kept_only_for_leapfrog():
    g = GridSpec(1, 32)
    u0 = sine_field(g)
    lf = EquationParams("convection", coeff=CoefficientSpec.constant(1.0))
    for s in iter_states(u0, lf, NO_SHRINK, 1e-3, 5):
        assert (s.previous is not None) == (s.step_index >= 1)
    one_step = EquationParams("burgers", coeff=CoefficientSpec.constant(0.5))
    for s in iter_states(u0, one_step, NO_SHRINK, 1e-4, 5):
        assert s.previous is None


def test_equation_params_validation():
    with pytest.raises(ValueError):
        EquationParams("vorticity2d", gamma=0.0)
    # an infinite gamma was taken, and the run stopped as non-finite at step 1
    for gamma in (np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma must be finite"):
            EquationParams("vorticity2d", gamma=gamma)
    with pytest.raises(ValueError, match="gamma must be finite"):
        EquationParams("parabolic", coeff=CoefficientSpec.constant(1.0), gamma=np.inf)
    with pytest.raises(ValueError):
        EquationParams("parabolic")
    with pytest.raises(ValueError):
        EquationParams("wave", coeff=CoefficientSpec.constant(1.0))
    # diffusion coefficients must stay positive
    params = EquationParams("parabolic", coeff=CoefficientSpec.constant(-1.0))
    g = GridSpec(1, 32)
    with pytest.raises(ValueError):
        advance(sine_field(g), params, NO_SHRINK, 1e-6, 1)


def test_burgers_rhs_makes_one_inverse_and_one_forward_transform(fft_calls):
    # a*u_x - u*u/2 on the transform path: the fields of u_x and u are made
    # by one stacked real inverse transform, the sum by one real forward
    # transform, no complex one; the coefficient's field is held
    g = GridSpec(1, 64)
    rng = np.random.default_rng(8)
    u, a = (
        SparseSpectrum.from_dense(dft_forward(SpatialField(g, rng.standard_normal(64))))
        for _ in range(2)
    )
    # u_x loses k = 0 and the Nyquist
    assert _transform_is_cheaper(g, u.n_s - 2, a.n_s, g.n_padded)
    for state, coeff in ((u, a), (u.to_dense(), a.to_dense())):
        held = HeldField(coeff)
        first = _burgers_rhs(state, held)  # makes the coefficient's field
        coefficient_field = held.field
        fft_calls.clear()
        again = _burgers_rhs(state, held)
        assert sorted(fft_calls) == ["irfft", "rfft"]
        assert coefficient_field is not None and held.field is coefficient_field
        assert error_metrics(again, first) == (0.0, 0.0)
        assert error_metrics(again, _burgers_rhs(state, coeff)) == (0.0, 0.0)


@pytest.mark.parametrize("n, inverse_calls", [(32, 1), (256, 4)])
def test_dense_advection_stacks_its_fields_within_the_budget(
    n, inverse_calls, fft_calls, monkeypatch
):
    # the four operand fields of a dense advection term: one stacked inverse
    # transform on 48 x 48 points, one per operand on 384 x 384, whose half
    # grid alone exceeds the stack's byte budget.  The same state sparse
    # takes the same transforms and places its keys once for its four
    # operands (one half_index), as does a later vorticity_converge state on
    # 128^2 (48 x 48 points)
    g = GridSpec(2, n)
    u = dft_forward(SpatialField(g, np.random.default_rng(n).standard_normal(g.shape)))
    fft_calls.clear()
    advection_term(u)
    assert fft_calls == ["irfftn"] * inverse_calls + ["rfftn"]

    placed = []
    monkeypatch.setattr(
        spectral, "half_index", lambda *args: placed.append(args) or half_index(*args)
    )
    config = load_recipe("vorticity_converge")
    u0 = initial_condition(config.initial_spec(), config.grid())
    run = iter_states(u0, config.equation_params(), config.schedule(), config.dt, 10)
    recipe_state = list(run)[-1].current
    for state, inverse in ((SparseSpectrum.from_dense(u), inverse_calls), (recipe_state, 1)):
        placed.clear()
        fft_calls.clear()
        advection_term(state)
        assert fft_calls == ["irfftn"] * inverse + ["rfftn"]
        assert len(placed) == 1 and placed[0][1] is state.open_entries[0]


def hermitian_within(grid, reach, density, rng):
    """Random spectrum of a real field on a random share of the modes
    ``|m_d| <= reach``."""
    m = np.arange(-reach, reach + 1)
    modes = np.stack([a.ravel() for a in np.meshgrid(m, m, indexing="ij")])
    modes = modes[:, rng.random(modes.shape[1]) < density]
    values = rng.standard_normal(modes.shape[1]) + 1j * rng.standard_normal(modes.shape[1])
    return SparseSpectrum.from_modes(
        grid, np.concatenate([modes, -modes], axis=1), np.concatenate([values, values.conj()])
    )


def advection_paths(monkeypatch) -> list:
    """The path each later convolution takes: 'pairs' or 'transform'."""
    paths = []
    for name, path in (("_pair_convolve", "pairs"), ("padded_product", "transform")):
        original = getattr(shrinkage, name)
        monkeypatch.setattr(
            shrinkage, name,
            lambda *a, _o=original, _p=path, **k: paths.append(_p) or _o(*a, **k),
        )
    return paths


def test_advection_of_mode_factor_images_is_the_materialised_one_bit_for_bit(monkeypatch):
    # keys and value bits of the advection term against its four operands
    # made as spectra of their own
    paths = advection_paths(monkeypatch)
    rng = np.random.default_rng(24)
    for n, reach in ((16, 5), (64, 12), (128, 9)):
        g = GridSpec(2, n)
        for density in (0.3, 0.8):
            u = hermitian_within(g, reach, density, rng)
            paths.clear()
            got = advection_term(u)
            assert paths == ["transform"]
            assert_same_bits(got, materialised_advection(u))
    g = GridSpec(2, 64)
    # the outer ring at (+-R, 0) and modes within 6: u_y and the x velocity
    # (both i k_1 times u) lose the ring and reach 6 where u reaches 20, so
    # the products reach 26, not 40, and are made on 54 points, not 72
    ring = SparseSpectrum.from_dict(g, {(20, 0): 0.3 - 0.1j, (-20, 0): 0.3 + 0.1j})
    u = ring + hermitian_within(g, 6, 0.8, rng)
    assert u.open_entries[2] == 20
    terms = [(-1.0, (u, VELOCITY_FACTORS[a]), (u, DERIVATIVE_FACTORS[a])) for a in range(2)]
    grid, held = hold_operands(terms)
    assert [op.entries()[2] for _, a, b in held for op in (a, b)] == [6, 20, 20, 6]
    _, size, _, transform = shrinkage.plan_convolution(grid, held)
    assert transform and size == transform_size(g, 26)[0] == 54
    # a few entries take pairs; k = 0 alone makes every operand empty
    few = SparseSpectrum.from_dict(g, {(1, 2): 0.2j, (-1, -2): -0.2j, (3, 0): 0.5, (-3, 0): 0.5})
    mean_only = SparseSpectrum.from_dict(g, {(0, 0): 1.5})
    for state, path in ((u, ["transform"]), (few, ["pairs"]), (mean_only, [])):
        paths.clear()
        got = advection_term(state)
        assert paths == path
        assert_same_bits(got, materialised_advection(state))
    assert got.n_s == 0
    # a dense state: the same bits as its four operands made densely
    dense = hermitian_within(g, 12, 0.5, rng).to_dense()
    assert_same_bits(advection_term(dense), materialised_advection(dense))


def test_advection_matches_the_materialised_one_on_every_vorticity_converge_step():
    config = load_recipe("vorticity_converge")
    u0 = initial_condition(config.initial_spec(), config.grid())
    params = config.equation_params()
    for state in iter_states(u0, params, config.schedule(), config.dt, config.n_steps()):
        assert_same_bits(advection_term(state.current), materialised_advection(state.current))


def test_a_nan_in_the_state_reaches_the_advection_and_stops_the_run(monkeypatch):
    # a NaN entry of the state reaches the same outputs through the images
    # as through materialised operands, and the run stops with SolverDiverged
    g = GridSpec(2, 64)
    u = hermitian_within(g, 9, 0.6, np.random.default_rng(5))
    values = u.values.copy()
    values[np.flatnonzero(u.modes()[1] > 0)[0]] = complex(np.nan, 0.0)  # on the half grid
    nan_state = SparseSpectrum(g, u.keys, values)
    got = advection_term(nan_state)
    assert np.isnan(got.values).any()
    assert_same_bits(got, materialised_advection(nan_state))

    def poisoned(v, lam, protect_mean=False):
        state = soft_threshold(v, lam, protect_mean)
        values = state.values.copy()
        values[0] = complex(np.nan, 0.0)
        return SparseSpectrum(state.grid, state.keys, values)

    monkeypatch.setattr(solvers, "soft_threshold", poisoned)
    config = load_recipe("vorticity_converge")
    u0 = initial_condition(config.initial_spec(), config.grid())
    run = iter_states(u0, config.equation_params(), config.schedule(), config.dt, 5)
    with np.errstate(invalid="ignore"), pytest.raises(SolverDiverged, match="at step 2 "):
        list(run)


def test_sparse_vorticity_run_allocates_the_same_on_any_grid():
    # closed-form inputs and per-axis mode factors: the setup and first
    # steps of a sparse 2-D run build nothing the size of the grid, the
    # per-grid tables made on the way included (a domain length no other
    # test uses, so no cache holds them yet)
    config = load_recipe("vorticity_converge")

    def peak(n: int, domain_length: float) -> int:
        grid = GridSpec(2, n, domain_length)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        u0 = initial_condition(config.initial_spec(), grid)
        states = iter_states(u0, config.equation_params(), config.schedule(), config.dt, 2)
        assert [s.current.n_s > 0 for s in states] == [True] * 3
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        peak(64, 7.0)  # pays the tracer's own one-time allocations
        small, large = peak(128, 7.0), peak(1024, 7.0)
    finally:
        tracemalloc.stop()
    assert large < 2 * small
