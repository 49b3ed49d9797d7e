"""Pair plans: a held operand keeps, per support of the other operand, the
pair-to-output index of their entry pairs (or that the call takes the
transform), and a call on a support seen before gives the window path's
bits."""

import tracemalloc
import warnings

import numpy as np
import pytest

from sparsedyn import (
    CflWarning,
    CoefficientSpec,
    EquationParams,
    GridSpec,
    InitialSpec,
    LambdaSchedule,
    SolverDiverged,
    SparseSpectrum,
    advance,
    initial_condition,
    iter_states,
    load_recipe,
    shrinkage,
    solvers,
    sparse_convolve,
)
from sparsedyn.shrinkage import convolve_sum
from sparsedyn.spectral import HeldField

from oracles import row_loop_convolve
from test_convolve import assert_bit_equal, pairs_only, within


def new_values(spec: SparseSpectrum, rng) -> SparseSpectrum:
    """The same keys with other values."""
    values = rng.standard_normal(spec.n_s) + 1j * rng.standard_normal(spec.n_s)
    return SparseSpectrum(spec.grid, spec.keys, values)


class Count:
    """Wraps a module function and counts its calls."""

    def __init__(self, monkeypatch, module, name):
        self.calls = 0
        original = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("held_first", [True, False])
def test_plans_match_the_window_bit_for_bit(dims, held_first, monkeypatch):
    # random supports smaller and larger than the held operand's, so the
    # rows come from either side; each support is planned on its first call
    # and read from the plan after, with other values and weights
    pairs_only(monkeypatch)
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    rng = np.random.default_rng(70 + 2 * dims + held_first)
    g = GridSpec(dims, 256 if dims == 1 else 32)
    coeff = within(g, 60 if dims == 1 else 12, rng, 90)
    held = HeldField(coeff)
    wide = 110 if dims == 1 else 15
    supports = [within(g, 9, rng, 12), within(g, wide, rng, 200), within(g, 3, rng, 5)]
    for _ in range(3):
        for state in supports:
            state = new_values(state, rng)
            for w in (1.0, -0.5, 0.25 - 2.0j):
                pair = (held, state) if held_first else (state, held)
                plain = (coeff, state) if held_first else (state, coeff)
                got = convolve_sum([(w, *pair)])
                assert_bit_equal(got, convolve_sum([(w, *plain)]))  # the window
                assert_bit_equal(got, row_loop_convolve([(w, *plain)], g))
    assert builds.calls == len(supports) == len(held.plans)
    assert {plan.swap for plan in held.plans.values()} == {True, False}


def test_a_plan_is_kept_per_side(monkeypatch):
    # operands of one size: the rows are the first operand's, so the held
    # operand's pairs sum in another order on each side, and each side has
    # a plan of its own
    pairs_only(monkeypatch)
    rng = np.random.default_rng(73)
    for g in (GridSpec(1, 128), GridSpec(2, 32)):
        coeff, state = within(g, 9, rng, 20), within(g, 7, rng, 20)
        held = HeldField(coeff)
        for _ in range(2):
            for first, second, plain in (
                (held, state, (coeff, state)), (state, held, (state, coeff))
            ):
                assert_bit_equal(
                    convolve_sum([(1.0, first, second)]), row_loop_convolve([(1.0, *plain)], g)
                )
        assert len(held.plans) == 2


def test_a_nan_value_survives_the_plan(monkeypatch):
    # a NaN in the other operand on a planned call reaches the same cells as
    # on the window, and a run that blows up through planned calls stops
    # with SolverDiverged
    pairs_only(monkeypatch)
    rng = np.random.default_rng(74)
    for g in (GridSpec(1, 64), GridSpec(2, 16)):
        coeff, state = within(g, 3, rng, 6), within(g, 3, rng, 4)
        held = HeldField(coeff)
        convolve_sum([(1.0, held, state)])  # plans the support
        values = state.values.copy()
        values[1] = complex(np.nan, 0.0)
        state = SparseSpectrum(g, state.keys, values)
        got, want = convolve_sum([(1.0, held, state)]), convolve_sum([(1.0, coeff, state)])
        assert np.isnan(got.values).any()
        assert_bit_equal(got, want)

    monkeypatch.undo()
    planned = Count(monkeypatch, shrinkage, "_planned_convolve")
    g = GridSpec(1, 64)
    u0 = initial_condition(InitialSpec("gauss_bump", width=0.7), g)
    params = EquationParams("convection", coeff=CoefficientSpec.constant(1.0))
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", CflWarning)
        with pytest.raises(SolverDiverged, match="non-finite coefficient"):
            advance(u0, params, LambdaSchedule.fixed(1e-6), 30 * g.dx, 400)
    assert planned.calls > 10


def held_of_run(monkeypatch) -> list:
    """Wrap the solvers' convolution binding and collect the held operand
    (the run's coefficient) of every call that has one."""
    held = []
    original = solvers.convolve_sum

    def wrapped(terms, **kwargs):
        held.extend(op for _, a, b in terms for op in (a, b) if isinstance(op, HeldField))
        return original(terms, **kwargs)

    monkeypatch.setattr(solvers, "convolve_sum", wrapped)
    return held


def test_plans_of_a_support_that_changes_every_call_stay_within_the_cap(monkeypatch):
    # a new support on each call, as in a run whose support changes every
    # step, is never indexed; called twice, each is, and either way the
    # memo holds the last _PLANS supports, the oldest evicted first
    pairs_only(monkeypatch)
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    rng = np.random.default_rng(75)
    g = GridSpec(1, 512)
    coeff = within(g, 100, rng, 60)
    states = [within(g, 4 + j, rng, 3 + j) for j in range(3 * shrinkage._PLANS)]
    for calls in (1, 2):
        held = HeldField(coeff)
        for j, state in enumerate(states):
            for _ in range(calls):
                got = convolve_sum([(1.0, held, state)])
                assert_bit_equal(got, convolve_sum([(1.0, coeff, state)]))
            assert len(held.plans) == min(j + 1, shrinkage._PLANS)
        kept = [key for _, key in held.plans]
        assert kept == [state.keys.tobytes() for state in states[-shrinkage._PLANS:]]
        assert builds.calls == (calls - 1) * len(states)


def test_a_run_keeps_its_plans_on_its_coefficient(monkeypatch):
    # parabolic_fig2: the support holds on most steps, so after the first
    # call on each support a few plans serve every step
    window = Count(monkeypatch, shrinkage, "_pair_convolve")
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    planned = Count(monkeypatch, shrinkage, "_planned_convolve")
    held = held_of_run(monkeypatch)
    config = load_recipe("parabolic_fig2")
    u0 = initial_condition(config.initial_spec(), config.grid())
    list(iter_states(u0, config.equation_params(), config.schedule(), config.dt, 60))
    assert window.calls + planned.calls == 60
    assert 1 <= builds.calls <= window.calls == len(held[0].plans) <= 4
    assert len(set(map(id, held))) == 1


def test_a_held_call_that_takes_the_transform_is_remembered(monkeypatch):
    # the plan decides the transform once per support; later calls skip it
    # and give the same bits as a call of unheld operands
    monkeypatch.setattr(shrinkage, "_transform_is_cheaper", lambda *_: True)
    decided = Count(monkeypatch, shrinkage, "plan_convolution")
    rng = np.random.default_rng(76)
    for g in (GridSpec(1, 128), GridSpec(2, 32)):
        coeff, state = within(g, 5, rng, 9), within(g, 4, rng, 7)
        held = HeldField(coeff)
        for call in range(3):
            state = new_values(state, rng)
            before = decided.calls
            got = convolve_sum([(1.0, held, state)])
            assert decided.calls - before == (call == 0)
            assert_bit_equal(got, convolve_sum([(1.0, coeff, state)]))
        (plan,) = held.plans.values()
        assert not isinstance(plan, shrinkage._PairPlan)


def test_calls_of_call_only_operands_build_no_plan(monkeypatch):
    # products of states (u*u, velocity times vorticity gradient) and calls
    # of more than one term never keep a plan
    pairs_only(monkeypatch)
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    rng = np.random.default_rng(77)
    g = GridSpec(1, 256)
    u, v, coeff = within(g, 8, rng, 10), within(g, 6, rng, 9), within(g, 20, rng, 30)
    held = HeldField(coeff)
    for _ in range(2):
        sparse_convolve(u, v)
        convolve_sum([(1.0, u, u)], real=True)
        convolve_sum([(1.0, held, u), (-0.5, u, u)])
    assert builds.calls == 0 and held.plans == {}


@pytest.mark.parametrize("recipe", ["burgers_fig3", "vorticity_converge"])
def test_runs_without_a_held_one_term_pair_call_build_no_plan(monkeypatch, recipe):
    # Burgers' calls have two terms, vorticity's operands are all states
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    planned = Count(monkeypatch, shrinkage, "_planned_convolve")
    config = load_recipe(recipe)
    u0 = initial_condition(config.initial_spec(), config.grid())
    list(iter_states(u0, config.equation_params(), config.schedule(), config.dt, 12))
    assert builds.calls == planned.calls == 0


def test_pairs_in_2d_allocate_the_same_on_any_grid(monkeypatch):
    # 16 x 16 entries within |m| <= 8: the accumulator covers the box of
    # digit sums, not rows of 2n keys, so a call's peak does not grow with n
    # (rows of 2n keys took 136 KB on 128^2 and 991 KB on 1024^2); the peaks
    # may differ by a few Python ints, which are cached up to 256 only
    pairs_only(monkeypatch)

    def operands(n: int):
        rng = np.random.default_rng(8)
        g = GridSpec(2, n)
        return within(g, 8, rng, 16), within(g, 8, rng, 16)

    def peak(a, b) -> int:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sparse_convolve(a, b)
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        peaks = []
        for n in (128, 1024, 128, 1024):
            a, b = operands(n)
            for _ in range(8):  # warm numpy's caches on each grid
                peak(a, b)
            peaks.append(peak(a, b))
    finally:
        tracemalloc.stop()
    assert max(peaks) < 64 * 1024
    assert abs(peaks[3] - peaks[2]) < 1024
