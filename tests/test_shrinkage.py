import io
import re

import numpy as np
import pytest
from oracles import loop_dense_shrink

from sparsedyn import (
    DenseSpectrum,
    GridMismatch,
    GridSpec,
    LambdaSchedule,
    NegativeLambda,
    NonpositiveDt,
    SparseSpectrum,
    dft_forward,
    dumps_spectrum,
    lambda_at,
    load_spectrum,
    mode_to_fft_index,
    soft_threshold,
    sparse_convolve,
    sparsity_fraction,
)
from sparsedyn import shrinkage
from sparsedyn.shrinkage import ROUNDOFF_FLOOR, _accumulate
from sparsedyn.spectral import SpatialField, is_hermitian


def shrink_objective(candidate, v, lam):
    """The penalized least-squares objective the threshold minimizes."""
    return lam * np.abs(candidate) + 0.5 * np.abs(candidate - v) ** 2


def scalar_shrink(v, lam):
    g = GridSpec(1, 8)
    out = soft_threshold(SparseSpectrum.from_dict(g, {1: v}), lam).to_dict()
    return out.get(1, 0.0)


def test_below_threshold_removed():
    g = GridSpec(1, 16)
    out = soft_threshold(SparseSpectrum.from_dict(g, {3: 0.003 + 0j}), 0.005)
    assert out.n_s == 0


def test_known_complex_shrink():
    # brute-force check of the same value lives in test_shrink_is_prox below
    assert scalar_shrink(3 + 4j, 1.0) == pytest.approx(2.4 + 3.2j)


def test_zero_lambda_is_identity():
    rng = np.random.default_rng(3)
    g = GridSpec(1, 64)
    field = SpatialField(g, rng.standard_normal(64))
    spec = SparseSpectrum.from_dense(dft_forward(field))
    out = soft_threshold(spec, 0.0)
    assert out.n_s == spec.n_s
    assert np.array_equal(out.values, spec.values)


def test_negative_lambda_rejected():
    g = GridSpec(1, 16)
    with pytest.raises(NegativeLambda):
        soft_threshold(SparseSpectrum.empty(g), -1e-9)


def test_accepts_dense_input():
    g = GridSpec(1, 32)
    coeffs = np.zeros(32, dtype=complex)
    coeffs[2] = 1.0
    coeffs[5] = 0.01
    out = soft_threshold(DenseSpectrum(g, coeffs), 0.1)
    assert out.to_dict() == {2: pytest.approx(0.9 + 0j)}


def test_shrink_is_prox():
    # oracle: dense objective scan around the minimizer, 1000 random scalars
    rng = np.random.default_rng(23)
    for _ in range(200):
        v = complex(*rng.standard_normal(2))
        lam = float(rng.uniform(0, 2 * abs(v)))
        got = scalar_shrink(v, lam)
        radius = 2 * abs(v)
        line = np.linspace(-radius, radius, 201)
        grid_points = got + (line[:, None] + 1j * line[None, :])
        best = shrink_objective(grid_points, v, lam).min()
        assert shrink_objective(got, v, lam) <= best + 1e-8


def test_non_expansive_per_coefficient():
    rng = np.random.default_rng(29)
    for _ in range(300):
        a = complex(*rng.standard_normal(2))
        b = complex(*rng.standard_normal(2))
        lam = float(rng.uniform(0, 2))
        assert abs(scalar_shrink(a, lam) - scalar_shrink(b, lam)) <= abs(a - b) + 1e-12


def test_shrink_by_lambda_above_threshold():
    rng = np.random.default_rng(31)
    for _ in range(300):
        z = complex(*rng.standard_normal(2)) * 3
        lam = float(rng.uniform(0, 0.9 * abs(z)))
        out = scalar_shrink(z, lam)
        assert abs(out) == pytest.approx(abs(z) - lam, rel=1e-12)
        assert np.angle(out) == pytest.approx(np.angle(z), abs=1e-12)


def test_composition_adds_thresholds():
    rng = np.random.default_rng(37)
    g = GridSpec(1, 16)
    for _ in range(100):
        z = complex(*rng.standard_normal(2)) * 2
        l1, l2 = rng.uniform(0.05, 0.8, 2)
        spec = SparseSpectrum.from_dict(g, {2: z})
        twice = soft_threshold(soft_threshold(spec, l2), l1).to_dict().get(2, 0.0)
        once = soft_threshold(spec, l1 + l2).to_dict().get(2, 0.0)
        assert twice == pytest.approx(once, abs=1e-12)


def test_hermitian_preserved_exactly():
    # exactly conjugate-paired input stays exactly paired after shrinking
    rng = np.random.default_rng(41)
    g = GridSpec(1, 64)
    entries = {}
    for k in range(1, 20):
        z = complex(*rng.standard_normal(2))
        entries[k] = z
        entries[-k] = np.conj(z)
    out = soft_threshold(SparseSpectrum.from_dict(g, entries), 1.0).to_dict()
    assert 0 < len(out) < len(entries)
    for k, v in out.items():
        assert -k in out
        assert out[-k] == np.conj(v)  # exact, not approximate


def test_hermitian_preserved_on_transformed_field():
    # transform roundoff limits pairing to ~1e-16, but structure survives
    rng = np.random.default_rng(47)
    g = GridSpec(1, 64)
    spec = SparseSpectrum.from_dense(dft_forward(SpatialField(g, rng.standard_normal(64))))
    out = soft_threshold(spec, 3e-3).to_dict()
    assert out
    for k, v in out.items():
        if k == -32:  # unpaired Nyquist: self-conjugate, so real
            assert abs(v.imag) < 1e-15
            continue
        assert -k in out
        assert out[-k] == pytest.approx(np.conj(v), abs=1e-14)


def test_protect_mean_flag():
    g = GridSpec(1, 16)
    spec = SparseSpectrum.from_dict(g, {0: 0.01, 3: 0.01, 4: 2.0})
    out = soft_threshold(spec, 0.5, protect_mean=True)
    assert out.to_dict() == {0: pytest.approx(0.01 + 0j), 4: pytest.approx(1.5 + 0j)}
    # default thresholds the mean like any other mode
    out_default = soft_threshold(spec, 0.5)
    assert 0 not in out_default.to_dict()


def test_lambda_schedules():
    assert lambda_at(LambdaSchedule.fixed(5e-3), 0.1) == 5e-3
    assert lambda_at(LambdaSchedule.fixed(5e-3), 1e-9) == 5e-3
    assert lambda_at(LambdaSchedule.power_law(1.0, 2.0), 0.1) == pytest.approx(0.01)
    assert lambda_at(LambdaSchedule.power_law(0.0, 2.0), 0.3) == 0.0
    with pytest.raises(NonpositiveDt):
        lambda_at(LambdaSchedule.fixed(1e-3), 0.0)
    with pytest.raises(NonpositiveDt):
        lambda_at(LambdaSchedule.power_law(1.0, 2.0), -0.1)


def test_schedule_validation():
    with pytest.raises(ValueError):
        LambdaSchedule.fixed(-1.0)
    with pytest.raises(ValueError):
        LambdaSchedule.power_law(-1.0, 2.0)
    with pytest.raises(ValueError):
        LambdaSchedule.power_law(1.0, 0.0)
    with pytest.raises(ValueError):
        LambdaSchedule("adaptive")


def test_nan_thresholds_are_rejected():
    # a NaN threshold fails every comparison, so it passed as nonnegative
    nan = float("nan")
    with pytest.raises(ValueError, match="fixed_lambda"):
        LambdaSchedule.fixed(nan)
    with pytest.raises(ValueError, match="C must"):
        LambdaSchedule.power_law(nan, 2.0)
    with pytest.raises(ValueError, match="p must"):
        LambdaSchedule.power_law(1.0, nan)
    with pytest.raises(NegativeLambda, match="nan"):
        soft_threshold(SparseSpectrum.from_dict(GridSpec(1, 8), {1: 1.0}), nan)


def test_infinite_thresholds_are_rejected():
    # power_law(1.0, inf) gave lambda = 0 for every dt < 1
    inf = float("inf")
    with pytest.raises(ValueError, match="fixed_lambda"):
        LambdaSchedule.fixed(inf)
    with pytest.raises(ValueError, match="C must"):
        LambdaSchedule.power_law(inf, 2.0)
    with pytest.raises(ValueError, match="p must"):
        LambdaSchedule.power_law(1.0, inf)


def test_sparse_is_hermitian_agrees_with_the_dense_check():
    g, g2 = GridSpec(1, 16), GridSpec(2, 16)
    pair = {2: 1 + 2j, -2: 1 - 2j}
    field = np.random.default_rng(0).standard_normal(g2.shape)
    cases = [
        (SparseSpectrum.from_dict(g, pair), True),
        (SparseSpectrum.from_dense(dft_forward(SpatialField(g2, field))), True),
        # mode 5 without its partner: a gap of its own size
        (SparseSpectrum.from_dict(g, {**pair, 5: 1e-13}), True),
        (SparseSpectrum.from_dict(g, {**pair, 5: 1e-6}), False),
        # the Nyquist mode is its own partner, and pairs the rest of its row
        (SparseSpectrum.from_dict(g, {**pair, -8: 0.5}), True),
        (SparseSpectrum.from_dict(g, {**pair, -8: 0.5j}), False),
        (SparseSpectrum.from_dict(g2, {(-8, 3): 1 + 1j, (-8, -3): 1 - 1j}), True),
        (SparseSpectrum.from_dict(g2, {(-8, 3): 1 + 1j, (-8, -3): 1 + 1j}), False),
        (SparseSpectrum.empty(g), True),
    ]
    for spec, expected in cases:
        assert spec.is_hermitian(1e-12) == is_hermitian(spec.to_dense(), 1e-12) == expected


def test_sparsity_fraction():
    g = GridSpec(1, 512)
    assert sparsity_fraction(SparseSpectrum.empty(g)) == 0.0
    entries = {k: 1.0 for k in range(-13, 14)}
    spec = SparseSpectrum.from_dict(g, entries)
    assert spec.n_s == 27
    assert sparsity_fraction(spec) == pytest.approx(27 / 512)
    full = SparseSpectrum.from_dict(g, {k: 1.0 for k in range(-256, 256)})
    assert sparsity_fraction(full) == 1.0


def test_arithmetic_and_mean_mode():
    g = GridSpec(1, 16)
    a = SparseSpectrum.from_dict(g, {0: 1.0, 2: 1.0 + 1j})
    b = SparseSpectrum.from_dict(g, {2: -1.0 - 1j, 5: 3.0})
    total = a + b
    assert total.to_dict() == {0: 1.0 + 0j, 5: 3.0 + 0j}  # exact cancellation dropped
    assert total.mean_mode() == 1.0 + 0j
    assert SparseSpectrum.empty(g).mean_mode() == 0.0
    doubled = 2.0 * a
    assert doubled.to_dict()[2] == 2.0 + 2.0j


@pytest.mark.parametrize("grid", [GridSpec(1, 16), GridSpec(2, 8)], ids=["1d", "2d"])
def test_a_sparse_spectrum_adds_only_sparse_spectra_on_its_grid(grid):
    sparse = SparseSpectrum.from_modes(grid, np.zeros((grid.dims, 1), int), [1.0])
    dense = sparse.to_dense()
    with pytest.raises(TypeError):
        sparse + dense
    with pytest.raises(TypeError):
        dense + sparse
    other = SparseSpectrum.empty(GridSpec(grid.dims, 32))
    with pytest.raises(GridMismatch):
        sparse + other


@pytest.mark.parametrize("grid", [GridSpec(1, 16), GridSpec(2, 8)], ids=["1d", "2d"])
def test_adding_an_empty_spectrum_is_the_accumulated_sum(grid, monkeypatch):
    # with one side empty the add merges nothing, yet gives what
    # _accumulate makes of the two sides, in either order: for a spectrum
    # from the constructors, for one made by hand with an underflowing
    # entry and negative zero parts, and for two empty ones
    rng = np.random.default_rng(grid.dims)
    field = SpatialField(grid, rng.standard_normal(grid.shape))
    made = SparseSpectrum.from_dense(dft_forward(field))
    values = np.array([1e-310, complex(-0.0, 1.0), complex(2.0, -0.0), 1e-300], dtype=complex)
    by_hand = SparseSpectrum(grid, made.keys[:4], values)
    empty = SparseSpectrum.empty(grid)
    cases = []
    for spec in (made, by_hand, empty):
        want = _accumulate(grid, np.concatenate([spec.keys, empty.keys]),
                           np.concatenate([spec.values, empty.values]))
        cases.append((spec, want))
    assert by_hand.n_s == 4 and cases[1][1].n_s == 3

    def merge(*args):
        raise AssertionError("an add with an empty side merged")

    monkeypatch.setattr(shrinkage, "_accumulate", merge)
    for spec, want in cases:
        for got in (spec + empty, empty + spec):
            assert np.array_equal(got.keys, want.keys)
            assert got.values.tobytes() == want.values.tobytes()


def test_nan_entries_are_never_dropped():
    # NaN fails every magnitude comparison; the zero rule must keep it
    g = GridSpec(1, 16)
    spec = SparseSpectrum.from_dict(g, {1: np.nan, 2: 1.0})
    delta = SparseSpectrum.from_dict(g, {0: 1.0})
    results = [
        spec,
        2.0 * spec,
        spec + delta,
        spec.apply_mode_factor(np.ones(spec.n_s)),
        sparse_convolve(spec, delta),
        soft_threshold(spec, 0.5),
        soft_threshold(spec, 0.5, protect_mean=True),
        SparseSpectrum.from_dense(spec.to_dense()),
    ]
    for out in results:
        assert out.n_s >= 2
        assert np.isnan(out.to_dict()[1])


def through_dense(spec):
    return SparseSpectrum.from_dense(spec.to_dense())


def test_roundoff_floor_drops_below_and_keeps_at_or_above():
    g = GridSpec(1, 16)
    floor = ROUNDOFF_FLOOR * 2.0
    spec = SparseSpectrum.from_dict(
        g, {0: 2.0, 1: floor, 2: -1j * floor, 3: 0.99 * floor, -3: 1e-20, 5: 0.5}
    )
    assert set(through_dense(spec).to_dict()) == {0, 1, 2, 5}


def test_roundoff_floor_is_scale_invariant():
    g = GridSpec(1, 256)
    field = np.exp(np.sin(g.axis_coordinates()))  # spectrum decays into roundoff
    dense = dft_forward(SpatialField(g, field))
    kept = SparseSpectrum.from_dense(dense)
    assert 0 < kept.n_s < np.count_nonzero(dense.coeffs)
    tiny = SparseSpectrum.from_dense(DenseSpectrum(g, 1e-200 * dense.coeffs))
    assert np.array_equal(tiny.keys, kept.keys)


def test_roundoff_floor_keeps_every_finite_entry_beside_nan_or_inf():
    g = GridSpec(1, 16)
    for bad in (np.nan, np.inf):
        spec = SparseSpectrum.from_dict(g, {1: bad, 2: 1.0, 3: 1e-20})
        assert through_dense(spec).to_dict().keys() == {1, 2, 3}


def test_dense_round_trip():
    rng = np.random.default_rng(43)
    g = GridSpec(2, 16)
    field = SpatialField(g, rng.standard_normal((16, 16)))
    dense = dft_forward(field)
    sparse = SparseSpectrum.from_dense(dense)
    back = sparse.to_dense()
    assert np.array_equal(back.coeffs, dense.coeffs)
    assert is_hermitian(back)


@pytest.mark.parametrize(
    "grid", [GridSpec(1, 8), GridSpec(1, 256), GridSpec(2, 4), GridSpec(2, 32)]
)
def test_dense_conversions_round_trip_bit_exactly(grid):
    # every mode, Nyquist components included, with a value far above the
    # roundoff floor; then a subset of them
    rng = np.random.default_rng(grid.n_total)
    coeffs = (1 + rng.random(grid.shape)) * np.exp(2j * np.pi * rng.random(grid.shape))
    dense = DenseSpectrum(grid, coeffs)
    sparse = SparseSpectrum.from_dense(dense)
    assert sparse.n_s == grid.n_total
    assert np.array_equal(sparse.to_dense().coeffs, coeffs)
    # keys ascend, and each holds the value at its mode's FFT index
    assert np.all(np.diff(sparse.keys) > 0)
    assert np.array_equal(sparse.values, coeffs.ravel()[mode_to_fft_index(grid, sparse.modes())])
    some = SparseSpectrum(grid, sparse.keys[::3], sparse.values[::3])
    again = SparseSpectrum.from_dense(some.to_dense())
    assert np.array_equal(again.keys, some.keys)
    assert np.array_equal(again.values, some.values)


def test_dump_format_and_round_trip():
    g = GridSpec(1, 16)
    spec = SparseSpectrum.from_dict(g, {-3: 1.5 - 2j, 0: 0.25, 5: 1e-12j})
    text = dumps_spectrum(spec)
    lines = text.strip().split("\n")
    assert lines[0] == "# grid=16 n_s=3"
    assert lines[1].split("\t") == ["-3", "1.5", "-2.0"]
    assert lines[2].split("\t") == ["0", "0.25", "0.0"]
    # entries are sorted by mode and load back exactly
    loaded = load_spectrum(io.StringIO(text))
    assert loaded.grid == g
    assert loaded.to_dict() == spec.to_dict()
    assert load_spectrum(io.StringIO("# grid=16 n_s=0\n")).n_s == 0


@pytest.mark.parametrize("header", ["n_s=2", "n_s=4"])
def test_dump_whose_header_miscounts_its_entries_is_rejected(header):
    # n_s=2 silently dropped the third entry; n_s=4 failed in int()
    text = dumps_spectrum(SparseSpectrum.from_dict(GridSpec(1, 16), {-3: 1.0, 0: 0.5, 3: 1.0}))
    with pytest.raises(ValueError, match=f"{header}, but 3 entries"):
        load_spectrum(io.StringIO(text.replace("n_s=3", header)))


@pytest.mark.parametrize(
    "header",
    ["# grid=16 ns=0", "# grid=16  n_s=0", "# grid=16", "grid=16 n_s=0", "# grid=16,16,16 n_s=0",
     "# grid=16 n_s=0 extra", "# grid=16 n_s=-1", "", "# grid=16\tn_s=0"],
)
def test_dump_whose_header_is_not_the_format_is_rejected(header):
    # "ns=0" loaded an empty spectrum (the key was never read); a doubled
    # space and a missing n_s failed in tuple unpacking
    form = "not '# grid=<n>[,<n>] n_s=<count>'"
    with pytest.raises(ValueError, match=re.escape(f"header {header!r}: {form}")):
        load_spectrum(io.StringIO(f"{header}\n"))


@pytest.mark.parametrize(
    "grid, rows, mode",
    [(GridSpec(1, 16), ["3\t1.0\t0.0", "3\t2.0\t0.0"], "3"),
     (GridSpec(2, 8), ["1\t-2\t1.0\t0.0", "0\t1\t0.5\t0.0", "1\t-2\t2.0\t0.0"], "1 -2")],
)
def test_dump_that_repeats_a_mode_is_rejected(grid, rows, mode):
    # the two lines of mode 3 loaded as the single entry {3: 3+0j}
    header = f"# grid={','.join([str(grid.n_per_dim)] * grid.dims)} n_s={len(rows)}\n"
    with pytest.raises(ValueError, match=f"repeats mode {mode}$"):
        load_spectrum(io.StringIO(header + "\n".join(rows) + "\n"))


@pytest.mark.parametrize("row", ["1\t2\t1.0\t0.0", "3\t1.0"])
def test_dump_row_with_the_wrong_field_count_is_rejected(row):
    # under a 1-D header the 2-D row loaded as {1: 2+1j}; the short row
    # raised IndexError
    fields = len(row.split("\t"))
    with pytest.raises(ValueError, match=re.escape(f"line {row!r}: {fields} fields, not 3")):
        load_spectrum(io.StringIO(f"# grid=16 n_s=1\n{row}\n"))


OUTSIDE, UNPARSED = "mode outside the resolved set", "need integer modes, then numbers"


@pytest.mark.parametrize(
    "bad, reason",
    [("9\t1.0\t0.0", OUTSIDE), ("1.5\t1.0\t0.0", UNPARSED), ("3\t1.0\tx", UNPARSED),
     ("1\t-5\t1.0\t0.0", OUTSIDE), ("1\t2.0\t1.0\t0.0", UNPARSED), ("1\t2\tx\t0.0", UNPARSED)],
    ids=["1d-range", "1d-mode", "1d-amplitude", "2d-range", "2d-mode", "2d-amplitude"],
)
def test_dump_with_a_malformed_entry_line_names_the_line(bad, reason):
    # the out-of-range mode raised a bare IndexError, the fractional mode
    # and the amplitude that is not a number ValueErrors of int() and
    # float() that named no line
    dims = bad.count("\t") - 1
    header = "# grid=16 n_s=2" if dims == 1 else "# grid=8,8 n_s=2"
    good = "\t".join(["0"] * dims + ["1.0", "0.0"])
    message = re.escape(f"spectrum dump line {bad!r}: {reason}")
    with pytest.raises(ValueError, match=message):
        load_spectrum(io.StringIO(f"{header}\n{good}\n{bad}\n"))


def test_out_of_range_modes_are_rejected_not_aliased():
    # mode 100 on 16 points would alias to mode 4; (0, 9) on 8 x 8 is not resolved
    with pytest.raises(IndexError, match="mode outside the resolved set"):
        SparseSpectrum.from_dict(GridSpec(1, 16), {100: 1.0})
    with pytest.raises(IndexError, match="mode outside the resolved set"):
        load_spectrum(io.StringIO("# grid=16 n_s=1\n100\t1.0\t0.0\n"))
    with pytest.raises(IndexError, match="mode outside the resolved set"):
        SparseSpectrum.from_dict(GridSpec(2, 8), {(0, 9): 1.0})
    # the edges of the resolved set, Nyquist included, still load
    edges = SparseSpectrum.from_dict(GridSpec(2, 8), {(-4, 3): 1.0, (3, -4): 2.0})
    assert edges.to_dict() == {(-4, 3): 1.0 + 0j, (3, -4): 2.0 + 0j}


def test_mode_arrays_of_the_wrong_shape_are_rejected():
    # each of these once gave other modes than meant, or dropped values
    shape = re.escape("modes of shape")
    with pytest.raises(ValueError, match=shape + r".*\(1, 2\).*need \(2,\) or \(2, m\)"):
        SparseSpectrum.from_modes(GridSpec(2, 8), [[1, 2]], [1, 2])  # not (-4, 1), (-4, 2)
    with pytest.raises(ValueError, match=shape + r".*\(2, 2\).*need \(1,\) or \(1, m\)"):
        SparseSpectrum.from_modes(GridSpec(1, 16), [[1, 2], [3, 4]], [1, 2])  # keys off the grid
    with pytest.raises(ValueError, match=shape + r".*\(1, 1\)"):
        SparseSpectrum.from_dict(GridSpec(2, 8), {1: 1.0})  # not (-4, 1)
    with pytest.raises(ValueError, match=shape + r".*\(1, 2\)"):
        mode_to_fft_index(GridSpec(2, 8), [[1, 2]])
    with pytest.raises(ValueError, match=re.escape("values of shape (3,) for modes of shape (1, 2)")):
        SparseSpectrum.from_modes(GridSpec(1, 16), [[1, 2]], [1, 2, 3])
    with pytest.raises(ValueError, match=re.escape("values of shape (1,) for modes of shape (1, 2)")):
        SparseSpectrum.from_modes(GridSpec(1, 16), [[1, 2]], [1])
    # the shapes meant still load: one mode vector or a row of them per axis
    assert SparseSpectrum.from_modes(GridSpec(1, 16), [1, 2], [1, 2]).to_dict() == {1: 1, 2: 2}
    assert SparseSpectrum.from_modes(GridSpec(2, 8), [[1], [2]], [3]).to_dict() == {(1, 2): 3}
    assert mode_to_fft_index(GridSpec(2, 8), [1, 2]).tolist() == 10


def test_modes_that_are_not_whole_numbers_are_rejected_not_truncated():
    # from_modes read [[1.5, -1.5]] as modes 1 and -1, from_dict {(0.5, 1): 1}
    # as mode (0, 1)
    for grid, modes, part in (
        (GridSpec(1, 16), [[1.5, -1.5]], "1.5"),
        (GridSpec(1, 16), [[2.0, np.nan]], "nan"),
        (GridSpec(2, 8), [[0.5, 0.0], [1.0, 2.0]], "0.5"),
        (GridSpec(2, 8), [[0.0], [-2.25]], "-2.25"),
    ):
        message = re.escape(f"mode component {part} is not a whole number")
        with pytest.raises(ValueError, match=message):
            SparseSpectrum.from_modes(grid, modes, np.ones(np.shape(modes)[1]))
        as_dict = {(m[0] if grid.dims == 1 else tuple(m)): 1.0 for m in np.array(modes).T.tolist()}
        with pytest.raises(ValueError, match=message):
            SparseSpectrum.from_dict(grid, as_dict)
    # whole floats, which closed-form spectra pass, are read as integers
    one = SparseSpectrum.from_modes(GridSpec(1, 16), [[1.0, -1.0]], [1, 2])
    assert one.to_dict() == {-1: 2, 1: 1}
    two = SparseSpectrum.from_dict(GridSpec(2, 8), {(0.0, -4.0): 1.0, (np.int32(2), 3): 2.0})
    assert two.to_dict() == {(0, -4): 1, (2, 3): 2}
    assert mode_to_fft_index(GridSpec(2, 8), [1.0, 2.0]).tolist() == 10


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
def test_dump_with_a_non_finite_amplitude_is_rejected(bad, part):
    # it loaded, and a run from it stopped with HermitianViolation
    amplitude = [bad, "0.5"] if part == 0 else ["0.5", bad]
    for header, mode in (("# grid=16 n_s=2", "1"), ("# grid=8,8 n_s=2", "1\t-2")):
        line = "\t".join([mode, *amplitude])
        text = f"{header}\n{mode.replace('1', '0', 1)}\t1.0\t0.0\n{line}\n"
        message = re.escape(f"line {line!r}: the amplitude is not finite")
        with pytest.raises(ValueError, match=message):
            load_spectrum(io.StringIO(text))


def test_dump_2d_format():
    g = GridSpec(2, 8)
    spec = SparseSpectrum.from_dict(g, {(1, -2): 1j, (-1, 2): -1j})
    text = dumps_spectrum(spec)
    lines = text.strip().split("\n")
    assert lines[0] == "# grid=8,8 n_s=2"
    assert lines[1].split("\t")[:2] == ["-1", "2"]
    assert lines[2].split("\t")[:2] == ["1", "-2"]
    loaded = load_spectrum(io.StringIO(text))
    assert loaded.to_dict() == spec.to_dict()


def decaying_update(grid: GridSpec, seed: int) -> np.ndarray:
    """The FFT-layout spectrum of a random real field, damped as
    ``exp(-|m|^2 / 8)`` so that its magnitudes cross the roundoff floor,
    with one entry exactly at the floor."""
    rng = np.random.default_rng(seed)
    m = np.fft.fftfreq(grid.n_per_dim, 1.0 / grid.n_per_dim)
    ksq = m**2 if grid.dims == 1 else np.add.outer(m**2, m**2)
    coeffs = np.fft.fftn(rng.standard_normal(grid.shape)) / grid.n_total * np.exp(-ksq / 8)
    coeffs[(1,) * grid.dims] = ROUNDOFF_FLOOR * np.abs(coeffs).max()
    return coeffs


def shrink_cases(grid: GridSpec):
    """``(name, coeffs, lam, protect_mean, kept)`` for the dense shrink, with
    the number of entries kept where a case pins it."""
    coeffs = decaying_update(grid, 7)
    top = np.abs(coeffs).max()
    floor = ROUNDOFF_FLOOR * top
    mean = (0,) * grid.dims
    with_nan = coeffs.copy()
    with_nan[(2,) * grid.dims] = np.nan
    roundoff_mean = coeffs.copy()
    roundoff_mean[mean] = floor / 3
    underflow_mean = np.zeros(grid.shape, complex)
    underflow_mean[mean] = 1e-310
    yield "lambda 0", coeffs, 0.0, False, None
    yield "below the floor", coeffs, floor / 4, False, None
    yield "at the floor", coeffs, floor, False, None
    yield "above the floor", coeffs, 1e3 * floor, False, None
    yield "most dropped", coeffs, 0.3 * top, False, None
    yield "kept NaN", with_nan, 1e-3 * top, False, None
    yield "kept NaN, mean kept", with_nan, 1e-3 * top, True, None
    yield "mean kept unshrunk", coeffs, 0.5 * top, True, None
    yield "mean alone kept", coeffs, 2 * top, True, 1
    yield "mean below the floor dropped", roundoff_mean, 0.0, True, None
    yield "mean that underflows dropped", underflow_mean, 0.0, True, 0
    yield "every entry dropped", coeffs, 2 * top, False, 0
    yield "all zero", np.zeros(grid.shape, complex), 0.0, True, 0


@pytest.mark.parametrize("grid", [GridSpec(1, 64), GridSpec(2, 16)], ids=["1d", "2d"])
def test_dense_shrink_is_the_soft_threshold_of_from_dense_bit_for_bit(grid):
    # against the sparse path and against an entry-by-entry loop; NaN
    # kept, the mean kept as it is unless it is a zero
    mean = (0,) * grid.dims
    for name, coeffs, lam, protect_mean, kept in shrink_cases(grid):
        dense = DenseSpectrum(grid, coeffs)
        got = soft_threshold(dense, lam, protect_mean)
        via_sparse = soft_threshold(SparseSpectrum.from_dense(dense), lam, protect_mean)
        for want in (via_sparse, loop_dense_shrink(dense, lam, protect_mean)):
            assert np.array_equal(got.keys, want.keys), name
            assert got.values.tobytes() == want.values.tobytes(), name
        assert np.isnan(got.values).sum() == np.isnan(coeffs).sum(), name
        if kept is not None:
            assert got.n_s == kept, name
        mean_is_zero = np.abs(coeffs[mean]) < max(ROUNDOFF_FLOOR * np.abs(coeffs).max(), 1e-300)
        if protect_mean:
            assert got.mean_mode() == (0 if mean_is_zero else coeffs[mean]), name
