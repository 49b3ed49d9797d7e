"""The two step layouts of a sparse run: which steps take FFT layout, and
that both layouts give the same run."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from sparsedyn import (
    CflWarning,
    CoefficientSpec,
    DenseSpectrum,
    EquationParams,
    GridSpec,
    InitialSpec,
    LambdaSchedule,
    SolverDiverged,
    SparseSpectrum,
    error_metrics,
    initial_condition,
    iter_dense_states,
    iter_states,
    load_recipe,
    shrinkage,
    solvers,
)
from sparsedyn.shrinkage import convolve_sum
from sparsedyn.spectral import HeldField, hold_operands


def record_layouts(monkeypatch) -> list[str]:
    """Wrap the solvers' convolution binding; each call appends the layout
    of the step that made it, read from its result's container."""
    calls = []
    original = solvers.convolve_sum

    def wrapped(terms, **kwargs):
        out = original(terms, **kwargs)
        calls.append("fft" if isinstance(out, DenseSpectrum) else "sparse")
        return out

    monkeypatch.setattr(solvers, "convolve_sum", wrapped)
    return calls


def recipe_states(config, n_steps: int) -> list:
    u0 = initial_condition(config.initial_spec(), config.grid())
    return list(
        iter_states(
            u0, config.equation_params(), config.schedule(), config.dt, n_steps,
            config.protect_mean,
        )
    )


def both_layouts(monkeypatch, run) -> tuple[list, list, list]:
    """``run()`` as the rule lays it out, and with every step kept sparse;
    the calls of the first run, by layout."""
    calls = record_layouts(monkeypatch)
    chosen = run()
    made = list(calls)
    monkeypatch.setattr(solvers, "_fft_layout", lambda *args: False)
    sparse = run()
    return chosen, sparse, made


def assert_same_run(chosen, sparse) -> None:
    assert len(chosen) == len(sparse)
    for a, b in zip(chosen, sparse):
        assert np.array_equal(a.current.keys, b.current.keys), a.step_index
        top = np.max(np.abs(b.current.values), initial=0.0)
        assert np.max(np.abs(a.current.values - b.current.values), initial=0.0) <= 1e-12 * top


@pytest.mark.parametrize("recipe,n_steps", [("burgers_fig3", 240), ("convection_fig1", 200)])
def test_fft_layout_matches_sparse_layout_on_recipes(monkeypatch, recipe, n_steps):
    config = load_recipe(recipe)
    chosen, sparse, calls = both_layouts(monkeypatch, lambda: recipe_states(config, n_steps))
    # every step in FFT layout: Burgers makes two calls a step, Leap Frog one
    assert calls == ["fft"] * n_steps * (2 if recipe == "burgers_fig3" else 1)
    assert_same_run(chosen, sparse)


def test_layouts_that_change_from_step_to_step_give_the_same_run(monkeypatch):
    # a Leap Frog step in FFT layout scatters the stored previous state,
    # whichever layout made it
    config = load_recipe("convection_fig1")
    pattern = itertools.cycle([True, True, False])
    monkeypatch.setattr(solvers, "_fft_layout", lambda *args: next(pattern))
    mixed = recipe_states(config, 60)
    monkeypatch.setattr(solvers, "_fft_layout", lambda *args: False)
    assert_same_run(mixed, recipe_states(config, 60))


def test_fft_layout_matches_sparse_layout_in_2d(monkeypatch):
    g = GridSpec(2, 16)
    u0 = initial_condition(InitialSpec("two_vortices", amplitude=2.0), g)
    params = EquationParams("vorticity2d", gamma=0.01, forcing=CoefficientSpec("constant", 0.1))

    def run():
        return list(iter_states(u0, params, LambdaSchedule.fixed(1e-4), 0.01, 40))

    chosen, sparse, calls = both_layouts(monkeypatch, run)
    assert calls == ["fft"] * 40
    assert_same_run(chosen, sparse)


def test_lambda_zero_matches_dense_in_fft_layout(monkeypatch):
    config = load_recipe("burgers_fig3")
    u0 = initial_condition(config.initial_spec(), config.grid())
    params = config.equation_params()
    calls = record_layouts(monkeypatch)
    sparse = list(iter_states(u0, params, LambdaSchedule.fixed(0.0), config.dt, 40))
    assert calls == ["fft"] * 80
    for s, d in zip(sparse, iter_dense_states(u0.to_dense(), params, config.dt, 40)):
        _, linf = error_metrics(s.current, d)
        assert linf < 1e-10


def test_protect_mean_exempts_the_mean_in_fft_layout(monkeypatch):
    # lambda lies above every amplitude of the bump, its mean included;
    # Burgers keeps the mean exactly, so it alone survives, unshrunk
    g = GridSpec(1, 256)
    u0 = initial_condition(InitialSpec("gauss_bump", width=0.6), g)
    params = EquationParams("burgers", coeff=CoefficientSpec("convection_oscillatory"))
    lam = LambdaSchedule.fixed(2 * np.max(np.abs(u0.values)))
    calls = record_layouts(monkeypatch)
    kept = list(iter_states(u0, params, lam, 1e-5, 1, protect_mean=True))[1].current
    dropped = list(iter_states(u0, params, lam, 1e-5, 1))[1].current
    assert calls == ["fft"] * 4
    assert kept.to_dict() == {0: u0.mean_mode()}
    assert dropped.n_s == 0


def test_diverging_run_in_fft_layout_is_a_solver_error(monkeypatch):
    # 30x the recipe's dt: the dense update turns non-finite before any
    # shrink sees it
    config = load_recipe("convection_fig1")
    config = replace(config, dt=30 * config.dt)
    calls = record_layouts(monkeypatch)
    with pytest.warns(CflWarning), np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverDiverged, match="non-finite"):
            recipe_states(config, 2000)
    assert calls and set(calls) == {"fft"}


@pytest.mark.parametrize(
    "recipe,n_steps,fft_steps",
    [
        ("burgers_fig3", 240, 240),
        ("convection_fig1", 200, 200),
        ("parabolic_fig2", 2000, 0),
        ("vorticity_converge", 80, 0),
    ],
)
def test_layout_rule_on_recipes(monkeypatch, recipe, n_steps, fft_steps):
    config = load_recipe(recipe)
    chosen = []
    rule = solvers._fft_layout

    def counted(*args):
        chosen.append(rule(*args))
        return chosen[-1]

    monkeypatch.setattr(solvers, "_fft_layout", counted)
    calls = record_layouts(monkeypatch)
    recipe_states(config, n_steps)
    assert len(chosen) == n_steps and sum(chosen) == fft_steps
    per_step = len(calls) // n_steps
    assert calls.count("fft") == per_step * fft_steps


def test_rule_driven_run_that_enters_and_leaves_fft_layout(monkeypatch):
    # convection_fig1 refined to N = 1024 with dt scaled as dx: the rule
    # sends step 2 into FFT layout, later back to sparse, then in again,
    # so the dense states, the Leap Frog previous state among them, are
    # scattered and left on the rule's word; every step matches the run
    # kept sparse
    config = load_recipe("convection_fig1")
    config = replace(config, n_per_dim=1024, dt=config.dt / 2)
    chosen = []
    rule = solvers._fft_layout

    def counted(*args):
        chosen.append(rule(*args))
        return chosen[-1]

    monkeypatch.setattr(solvers, "_fft_layout", counted)
    ruled = recipe_states(config, 150)
    monkeypatch.setattr(solvers, "_fft_layout", lambda *args: False)
    assert_same_run(ruled, recipe_states(config, 150))
    flips = [step for step in range(1, 150) if chosen[step] != chosen[step - 1]]
    assert not chosen[0] and len(flips) >= 3


@pytest.mark.parametrize("recipe,dt_order", [("parabolic_fig2", 2), ("convection_fig1", 1)])
@pytest.mark.parametrize("exponent", [15, 16, 17])
def test_refinement_at_small_n_s_stays_sparse(monkeypatch, recipe, dt_order, exponent):
    # the cost-at-fixed-n_s problems: the recipe refined to N = 2**exponent
    # with dt scaled as dx**dt_order
    config = load_recipe(recipe)
    n = 2**exponent
    config = replace(config, n_per_dim=n, dt=config.dt * (config.n_per_dim / n) ** dt_order)
    calls = record_layouts(monkeypatch)
    states = recipe_states(config, 6)
    assert max(s.current.n_s for s in states[1:]) <= 40
    assert calls == ["sparse"] * 6


def real_band(grid: GridSpec, reach: int, seed: int) -> SparseSpectrum:
    """Random spectrum of a real field on the modes ``|m| <= reach``."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(reach) + 1j * rng.standard_normal(reach)
    values = np.concatenate([np.conj(half[::-1]), [rng.standard_normal()], half])
    return SparseSpectrum.from_modes(grid, np.arange(-reach, reach + 1)[None], values)


def test_held_sparse_coefficient_places_its_keys_at_a_new_size():
    # a sparse step makes the held coefficient's field on a small grid; a
    # step in FFT layout remakes it at 3n/2 from the sparse keys
    g = GridSpec(1, 64)
    coeff = real_band(g, 8, 1)
    held = HeldField(coeff)
    convolve_sum(((1.0, held, real_band(g, 8, 2)),), real=True)
    assert 0 < held.size < g.n_padded
    wide = real_band(g, 31, 3).to_dense()
    got = convolve_sum(((1.0, held, wide),), real=True)
    assert held.size == g.n_padded
    want = convolve_sum(((1.0, coeff.to_dense(), wide),), real=True)
    assert np.array_equal(got.coeffs, want.coeffs)


def band(grid: GridSpec, reach: int, stride: int, seed: int) -> SparseSpectrum:
    """Spectrum of a real field on the modes with every ``|m_d| <= reach``
    and a multiple of ``stride``."""
    rng = np.random.default_rng(seed)
    coeffs = np.fft.fftn(rng.standard_normal(grid.shape)) / grid.n_total
    m = np.abs(np.fft.fftfreq(grid.n_per_dim, 1.0 / grid.n_per_dim)).astype(int)
    axis = (m <= reach) & (m % stride == 0)
    mask = np.logical_and.outer(axis, axis) if grid.dims == 2 else axis
    return SparseSpectrum.from_dense(DenseSpectrum(grid, np.where(mask, coeffs, 0)))


def with_nyquist(spec: SparseSpectrum) -> SparseSpectrum:
    """``spec`` with one more entry, at the unpaired mode -n/2 on every axis."""
    grid = spec.grid
    nyquist = np.full((grid.dims, 1), grid.nyquist_mode)
    return spec + SparseSpectrum.from_modes(grid, nyquist, [0.5])


def test_layout_rule_is_the_path_the_convolution_takes(monkeypatch):
    # the plan against the path and box convolve_sum takes on the same
    # product, and the layout rule's answer for the state against whether
    # that path reads the open box: inside the box, reaches summing to one
    # short of its edge and to the edge, at the edge on either path, and
    # thin operands that reach the edge with few pairs, each state also
    # with the unpaired Nyquist mode, whose reach reads as the edge;
    # coefficient times state, and for vorticity the state times itself
    boxes = []
    original = shrinkage.padded_product

    def recorded(grid, terms, size, k, real, **kwargs):
        boxes.append((size, k))
        return original(grid, terms, size, k, real, **kwargs)

    monkeypatch.setattr(shrinkage, "padded_product", recorded)
    parabolic = EquationParams("parabolic", coeff=CoefficientSpec.constant(1.0))
    vorticity = EquationParams("vorticity2d", gamma=0.01)
    answers = []
    for grid in (GridSpec(1, 64), GridSpec(1, 1024), GridSpec(2, 16), GridSpec(2, 64)):
        edge = grid.n_per_dim // 2 - 1
        for reach_a, reach_b, stride in [
            (edge, edge, 1), (edge, 4, 1), (edge // 2, edge - edge // 2 - 1, 1),
            (edge // 2, edge - edge // 2, 1), (edge, edge, edge), (2, 2, 1),
        ]:
            a, b = band(grid, reach_a, stride, 1), band(grid, reach_b, 1, 2)
            for b in (b, with_nyquist(b)):
                for params, other in ((parabolic, a), (vorticity, b)):
                    boxes.clear()
                    convolve_sum(((1.0, other, b),), real=True)
                    _, size, k, transform = shrinkage.plan_convolution(
                        *hold_operands([(1.0, other, b)])
                    )
                    assert boxes == ([(size, k)] if transform else [])
                    full_box = [k for _, k in boxes] == [edge]
                    assert solvers._fft_layout(params, b, HeldField(a), {}) == full_box
                    answers.append(full_box)
    assert 0 < sum(answers) < len(answers)
