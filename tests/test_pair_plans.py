"""Pair plans: a held operand keeps, for the latest support and side of the
other operand on entry pairs, the pair-to-output index of their entry pairs,
and a call on that support gives the window path's bits."""

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
from test_grid import keys_in


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
    # rows come from either side; each support, called three times in a row
    # with other values and weights, is planned on its second call and read
    # from the plan on its third, and planned again when it comes back
    pairs_only(monkeypatch)
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    rng = np.random.default_rng(70 + 2 * dims + held_first)
    g = GridSpec(dims, 256 if dims == 1 else 32)
    coeff = within(g, 60 if dims == 1 else 12, rng, 90)
    held = HeldField(coeff)
    wide = 110 if dims == 1 else 15
    supports = [within(g, 9, rng, 12), within(g, wide, rng, 200), within(g, 3, rng, 5)]
    swaps = set()
    for _ in range(3):
        for support in supports:
            for w in (1.0, -0.5, 0.25 - 2.0j):
                state = new_values(support, rng)
                pair = (held, state) if held_first else (state, held)
                plain = (coeff, state) if held_first else (state, coeff)
                got = convolve_sum([(w, *pair)])
                assert_bit_equal(got, convolve_sum([(w, *plain)]))  # the window
                assert_bit_equal(got, row_loop_convolve([(w, *plain)], g))
            swaps.add(held.plan[1].swap)
    assert builds.calls == 3 * len(supports)
    assert swaps == {True, False}


def sides(held, coeff, state, held_first: bool):
    """The held and the plain operand pair, the held one first or second."""
    if held_first:
        return (held, state), (coeff, state)
    return (state, held), (state, coeff)


def test_a_plan_is_keyed_by_side(monkeypatch):
    # operands of one size: the rows are the first operand's, so the held
    # operand's pairs sum in another order on each side; a call on the other
    # side replaces the plan, made again on that side's second call in a row
    pairs_only(monkeypatch)
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    rng = np.random.default_rng(73)
    for g in (GridSpec(1, 128), GridSpec(2, 32)):
        coeff, state = within(g, 9, rng, 20), within(g, 7, rng, 20)
        held = HeldField(coeff)
        for held_first in (True, False, True, False):
            pair, plain = sides(held, coeff, state, held_first)
            for _ in range(2):
                assert_bit_equal(
                    convolve_sum([(1.0, *pair)]), row_loop_convolve([(1.0, *plain)], g)
                )
            assert held.plan[0] == (int(held_first), state.open_entries[0].tobytes())
    assert builds.calls == 8


def test_alternating_supports_and_sides_keep_the_window_bits(monkeypatch):
    # the other operand alternates between two supports on every call and
    # between the two sides on every second one, first once per support and
    # side, then twice: the plan is replaced on each change, never read for
    # another support or side, and made on the second call in a row
    pairs_only(monkeypatch)
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    planned = Count(monkeypatch, shrinkage, "_planned_convolve")
    rng = np.random.default_rng(78)
    for g in (GridSpec(1, 256), GridSpec(2, 32)):
        coeff = within(g, 10, rng, 25)
        held = HeldField(coeff)
        supports = [within(g, 6, rng, 9), within(g, 12, rng, 40)]
        for repeat in (1, 2):
            before = builds.calls
            for call in range(8):
                support, held_first = supports[call % 2], call // 2 % 2 == 0
                w = (1.0, -0.5, 0.25 - 2.0j)[call % 3]
                for _ in range(repeat):
                    state = new_values(support, rng)
                    pair, plain = sides(held, coeff, state, held_first)
                    got = convolve_sum([(w, *pair)])
                    assert_bit_equal(got, convolve_sum([(w, *plain)]))
                    assert_bit_equal(got, row_loop_convolve([(w, *plain)], g))
            assert builds.calls - before == 8 * (repeat - 1)
    assert planned.calls == builds.calls == 16


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


def test_a_support_that_changes_every_call_is_never_indexed(monkeypatch):
    # a new support on each call, as in a run whose support changes every
    # step, is never indexed; called twice, each is, and either way the held
    # operand keeps the plan of the latest support alone
    pairs_only(monkeypatch)
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    rng = np.random.default_rng(75)
    g = GridSpec(1, 512)
    coeff = within(g, 100, rng, 60)
    states = [within(g, 4 + j, rng, 3 + j) for j in range(12)]
    for calls in (1, 2):
        held = HeldField(coeff)
        for state in states:
            for _ in range(calls):
                got = convolve_sum([(1.0, held, state)])
                assert_bit_equal(got, convolve_sum([(1.0, coeff, state)]))
            key, plan = held.plan
            assert key == (1, state.keys.tobytes())
            assert isinstance(plan, shrinkage._PairPlan) == (calls == 2)
        assert builds.calls == (calls - 1) * len(states)


def test_a_call_over_more_pairs_than_the_cap_builds_no_plan(monkeypatch):
    # 300 x 300 entries, more pairs than _PLAN_PAIRS: repeat calls on one
    # support keep no plan, take the box every time and give its bits
    pairs_only(monkeypatch)
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    window = Count(monkeypatch, shrinkage, "_pair_convolve")
    rng = np.random.default_rng(79)
    g = GridSpec(1, 1024)
    coeff, support = within(g, 200, rng, 300), within(g, 180, rng, 300)
    assert coeff.n_s * support.n_s > shrinkage._PLAN_PAIRS
    held = HeldField(coeff)
    for w in (1.0, -0.5, 0.25 - 2.0j):
        state = new_values(support, rng)
        got = convolve_sum([(w, held, state)])
        assert_bit_equal(got, row_loop_convolve([(w, coeff, state)], g))
    assert builds.calls == 0 and held.plan is None and window.calls == 3


def test_a_run_keeps_its_plans_on_its_coefficient(monkeypatch):
    # parabolic_fig2: the support holds on most steps, so after the first
    # call on each support its plan serves every step until it changes
    window = Count(monkeypatch, shrinkage, "_pair_convolve")
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    planned = Count(monkeypatch, shrinkage, "_planned_convolve")
    held = held_of_run(monkeypatch)
    config = load_recipe("parabolic_fig2")
    u0 = initial_condition(config.initial_spec(), config.grid())
    list(iter_states(u0, config.equation_params(), config.schedule(), config.dt, 60))
    assert window.calls + planned.calls == 60
    assert 1 <= builds.calls <= window.calls <= 4
    assert isinstance(held[0].plan[1], shrinkage._PairPlan)
    assert len(set(map(id, held))) == 1


def test_a_held_call_that_takes_the_transform_keeps_no_plan(monkeypatch):
    # the other operand goes pair support A, A again (its plan is built), a
    # support T that takes the transform, then A once more: T keeps nothing,
    # so A's plan survives it and serves the last call, one build in all,
    # and every call gives the bits of a call of unheld operands
    monkeypatch.setattr(
        shrinkage, "_transform_is_cheaper", lambda _, n_a, n_b, __: min(n_a, n_b) > 8
    )
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    planned = Count(monkeypatch, shrinkage, "_planned_convolve")
    transforms = Count(monkeypatch, shrinkage, "padded_product")
    rng = np.random.default_rng(76)
    for g in (GridSpec(1, 128), GridSpec(2, 32)):
        coeff, pairs = within(g, 5, rng, 20), within(g, 4, rng, 7)
        transform = within(g, 6, rng, 30)
        held = HeldField(coeff)
        key = (1, pairs.open_entries[0].tobytes())
        for call, support in enumerate((pairs, pairs, transform, pairs)):
            state = new_values(support, rng)
            got = convolve_sum([(1.0, held, state)])
            assert_bit_equal(got, convolve_sum([(1.0, coeff, state)]))  # the window
            want = row_loop_convolve([(1.0, coeff, state)], g)
            if support is pairs:
                assert_bit_equal(got, want)
            else:  # the transform's sum, less its roundoff tail
                assert np.allclose(got.to_dense().coeffs, want.to_dense().coeffs, atol=1e-12)
            if call == 1:
                plan = held.plan[1]
            assert held.plan[0] == key and (call == 0 or held.plan[1] is plan)
        assert isinstance(plan, shrinkage._PairPlan)
    assert builds.calls == 2 and planned.calls == 4 and transforms.calls == 4


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
    assert builds.calls == 0 and held.plan is None


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


def spanning(grid, lows, highs, count, rng) -> SparseSpectrum:
    """Random values at the keys of :func:`test_grid.keys_in`: the digit
    spans are exact."""
    keys = keys_in(grid, lows, highs, count, rng)
    values = rng.standard_normal(keys.size) + 1j * rng.standard_normal(keys.size)
    return SparseSpectrum(grid, keys, values)


@pytest.mark.parametrize("dims", [1, 2])
def test_pairs_whose_sums_straddle_the_open_box_match_the_row_loop(dims, monkeypatch):
    # sums clipped on both sides of the open box, or on one: the box call,
    # the plan made on the second call and the planned third call give the
    # row loop's bits, a NaN whose pair sums lie inside the box included
    pairs_only(monkeypatch)
    window = Count(monkeypatch, shrinkage, "_pair_convolve")
    builds = Count(monkeypatch, shrinkage, "_pair_plan")
    planned = Count(monkeypatch, shrinkage, "_planned_convolve")
    rng = np.random.default_rng(80 + dims)
    g = GridSpec(dims, 64 if dims == 1 else 16)
    e = g.box_edge
    coeff = spanning(g, [-e] * dims, [e] * dims, 40, rng)
    held = HeldField(coeff)
    supports = [
        spanning(g, [-e] * dims, [e] * dims, 25, rng),  # both edges
        spanning(g, [2] * dims, [e] * dims, 20, rng),  # the upper edge
        spanning(g, [-e, 1][:dims], [-2, e][:dims], 20, rng),  # lower, then both
    ]
    for support in supports:
        values = support.values.copy()
        values[np.abs(support.modes()).max(axis=0).argmin()] = np.nan  # sums inside too
        with_nan = SparseSpectrum(g, support.keys, values)
        for state in (support, with_nan):
            for held_first in (True, False):
                for w in (1.0, -0.5, 0.25 - 2.0j):
                    pair, plain = sides(held, coeff, state, held_first)
                    got = convolve_sum([(w, *pair)])
                    assert_bit_equal(got, row_loop_convolve([(w, *plain)], g))
                    assert got.n_s and np.isnan(got.values).any() == (state is with_nan)
    assert np.isnan(with_nan.values).any()
    assert window.calls == builds.calls == 4 * len(supports) and planned.calls == 8 * len(supports)


@pytest.mark.parametrize("dims", [1, 2])
def test_pairs_whose_sums_all_leave_the_open_box_give_nothing(dims, monkeypatch):
    # every sum lies beyond n/2 - 1 along the first axis: the box's open
    # window is empty, the box call gives an empty spectrum and the plan no
    # outputs, and its calls an empty spectrum
    pairs_only(monkeypatch)
    rng = np.random.default_rng(85 + dims)
    g = GridSpec(dims, 16)
    e = g.box_edge
    coeff = spanning(g, [4, -e][:dims], [e, e][:dims], 12, rng)
    state = spanning(g, [4, -3][:dims], [e - 1, 3][:dims], 9, rng)
    held = HeldField(coeff)
    assert row_loop_convolve([(1.0, coeff, state)], g).n_s == 0
    for _ in range(3):
        got = convolve_sum([(1.0, held, state)])
        assert got.n_s == 0 and got.keys.dtype == np.int64
    plan = held.plan[1]
    assert plan.keys.size == 0 and np.all(plan.cells == 0)


def test_a_planned_call_drops_the_cells_that_cancel(monkeypatch):
    # the held {+-1: 1} times the state {0: 1, +-2: -1}: cells +-1 sum
    # 1 - 1 to exactly 0, so the planned calls, the second and the third,
    # keep +-3 alone, as the row loop does
    planned = Count(monkeypatch, shrinkage, "_planned_convolve")
    g = GridSpec(1, 16)
    coeff = SparseSpectrum.from_dict(g, {1: 1.0, -1: 1.0})
    state = SparseSpectrum.from_dict(g, {0: 1.0, 2: -1.0, -2: -1.0})
    held = HeldField(coeff)
    want = row_loop_convolve([(1.0, coeff, state)], g)
    assert want.to_dict() == {-3: -1.0, 3: -1.0}
    for calls in (0, 1, 2):
        assert_bit_equal(convolve_sum([(1.0, held, state)]), want)
        assert planned.calls == calls
