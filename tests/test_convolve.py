import tracemalloc

import numpy as np
import pytest

from sparsedyn import (
    DenseSpectrum,
    GridMismatch,
    GridSpec,
    SparseSpectrum,
    dense_convolve,
    dft_forward,
    fft_index_to_mode,
    sparse_convolve,
    spectral_derivative,
)
from sparsedyn import grid as grid_module
from sparsedyn import shrinkage, spectral
from sparsedyn.grid import mode_to_fft_index, negated_keys, transform_size
from sparsedyn.shrinkage import _transform_is_cheaper, convolve_sum
from sparsedyn.spectral import (
    HeldField,
    SpatialField,
    hold_operands,
    is_hermitian,
    read_box,
)

from oracles import (
    assert_same_bits,
    brute_force_convolve,
    row_loop_convolve,
    table_box_index,
    table_dense_convolve_sum,
    table_place,
    table_read_box,
    transform_at,
)


def random_sparse(grid, rng, max_entries=20):
    half = grid.n_per_dim // 2
    count = int(rng.integers(1, max_entries + 1))
    if grid.dims == 1:
        modes = rng.choice(np.arange(-half, half), size=count, replace=False)
        keys = [int(m) for m in modes]
    else:
        flat = rng.choice(np.arange(grid.n_total), size=count, replace=False)
        keys = [
            (int(f // grid.n_per_dim) - half, int(f % grid.n_per_dim) - half)
            for f in flat
        ]
    values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return SparseSpectrum.from_dict(grid, dict(zip(keys, values)))


def full_box(grid, rng):
    """Random amplitudes at every mode of the box, Nyquist row and column
    included."""
    modes = [fft_index_to_mode(grid, i) for i in range(grid.n_total)]
    keys = [int(m[0]) if grid.dims == 1 else tuple(int(c) for c in m) for m in modes]
    values = rng.standard_normal(grid.n_total) + 1j * rng.standard_normal(grid.n_total)
    return SparseSpectrum.from_dict(grid, dict(zip(keys, values)))


def with_roundoff(dense: DenseSpectrum) -> SparseSpectrum:
    """Every entry of a dense spectrum above underflow, its roundoff tail
    included (``from_dense`` would drop the tail)."""
    g = dense.grid
    return SparseSpectrum.from_modes(
        g, fft_index_to_mode(g, np.arange(g.n_total)), dense.coeffs.ravel()
    )


def assert_matches(got: SparseSpectrum, want: dict, tol=1e-12):
    got_d = got.to_dict()
    for k in set(got_d) | set(want):
        assert abs(got_d.get(k, 0.0) - want.get(k, 0.0)) < tol, k


def test_delta_identity():
    g = GridSpec(1, 64)
    delta = SparseSpectrum.from_dict(g, {0: 1.0})
    b = SparseSpectrum.from_dict(g, {-5: 2.0 + 1j, 0: -1.0, 17: 0.25j})
    out = sparse_convolve(delta, b)
    assert out.to_dict() == b.to_dict()


def test_shift_property():
    g = GridSpec(1, 64)
    a = SparseSpectrum.from_dict(g, {1: 1.0, 2: 1.0})
    b = SparseSpectrum.from_dict(g, {1: 1.0})
    assert sparse_convolve(a, b).to_dict() == {2: 1.0 + 0j, 3: 1.0 + 0j}


def test_truncation_drops_out_of_box():
    g = GridSpec(1, 16)
    a = SparseSpectrum.from_dict(g, {7: 1.0})
    b = SparseSpectrum.from_dict(g, {5: 1.0, -3: 2.0})
    # 7 + 5 = 12 leaves the box; 7 - 3 = 4 stays
    assert sparse_convolve(a, b).to_dict() == {4: 2.0 + 0j}


def test_nyquist_does_not_participate():
    g = GridSpec(1, 16)
    a = SparseSpectrum.from_dict(g, {-8: 1.0})
    b = SparseSpectrum.from_dict(g, {1: 1.0, 2: 1.0})
    assert sparse_convolve(a, b).n_s == 0
    # products landing exactly on the Nyquist are discarded too
    c = SparseSpectrum.from_dict(g, {-5: 1.0})
    d = SparseSpectrum.from_dict(g, {-3: 1.0})
    assert sparse_convolve(c, d).n_s == 0


def test_matches_brute_force_1d():
    rng = np.random.default_rng(5)
    g = GridSpec(1, 64)
    pairs = [(random_sparse(g, rng), random_sparse(g, rng)) for _ in range(50)]
    box = GridSpec(1, 16)
    pairs.append((full_box(box, rng), full_box(box, rng)))
    wide = GridSpec(1, 64)  # takes the padded transform
    pairs.append((full_box(wide, rng), full_box(wide, rng)))
    for a, b in pairs:
        want = brute_force_convolve(a.to_dict(), b.to_dict(), a.grid)
        assert_matches(sparse_convolve(a, b), want)


def test_matches_brute_force_2d():
    rng = np.random.default_rng(6)
    g = GridSpec(2, 16)
    pairs = [(random_sparse(g, rng), random_sparse(g, rng)) for _ in range(30)]
    box = GridSpec(2, 8)
    pairs.append((full_box(box, rng), full_box(box, rng)))
    wide = GridSpec(2, 16)  # takes the padded transform
    pairs.append((full_box(wide, rng), full_box(wide, rng)))
    for a, b in pairs:
        want = brute_force_convolve(a.to_dict(), b.to_dict(), a.grid)
        assert_matches(sparse_convolve(a, b), want)


def test_commutative_and_bilinear(monkeypatch):
    # the bitwise claim is the pair path's, whatever the rule's constants
    monkeypatch.setattr(shrinkage, "_transform_is_cheaper", lambda *_: False)
    rng = np.random.default_rng(9)
    g = GridSpec(1, 64)
    a = random_sparse(g, rng)
    b = random_sparse(g, rng)
    c = random_sparse(g, rng)
    ab = sparse_convolve(a, b)
    ba = sparse_convolve(b, a)
    assert ab.to_dict() == ba.to_dict()  # bitwise: same pair order either way
    left = sparse_convolve(a, b + 2.0 * c).to_dict()
    right = (sparse_convolve(a, b) + 2.0 * sparse_convolve(a, c)).to_dict()
    for k in set(left) | set(right):
        assert abs(left.get(k, 0.0) - right.get(k, 0.0)) < 1e-12


def test_real_field_convolution_stays_hermitian():
    rng = np.random.default_rng(15)
    g = GridSpec(1, 64)
    u = SparseSpectrum.from_dense(dft_forward(SpatialField(g, rng.standard_normal(64))))
    w = SparseSpectrum.from_dense(dft_forward(SpatialField(g, rng.standard_normal(64))))
    assert is_hermitian(sparse_convolve(u, w).to_dense(), rtol=1e-10)


def test_grid_mismatch_rejected():
    a = SparseSpectrum.from_dict(GridSpec(1, 16), {1: 1.0})
    b = SparseSpectrum.from_dict(GridSpec(1, 32), {1: 1.0})
    with pytest.raises(GridMismatch):
        sparse_convolve(a, b)


def test_empty_operand():
    g = GridSpec(1, 16)
    a = SparseSpectrum.from_dict(g, {1: 1.0})
    assert sparse_convolve(a, SparseSpectrum.empty(g)).n_s == 0


def test_deterministic():
    rng = np.random.default_rng(21)
    g = GridSpec(1, 64)
    a = random_sparse(g, rng)
    b = random_sparse(g, rng)
    first = sparse_convolve(a, b)
    second = sparse_convolve(a, b)
    assert np.array_equal(first.keys, second.keys)
    assert np.array_equal(first.values, second.values)


def test_dense_convolve_matches_brute_force():
    rng = np.random.default_rng(27)
    grids = (GridSpec(1, 64), GridSpec(2, 16))
    pairs = [(random_sparse(g, rng), random_sparse(g, rng)) for g in grids]
    pairs += [(full_box(g, rng), full_box(g, rng)) for g in (GridSpec(1, 16), GridSpec(2, 8))]
    for a, b in pairs:
        g = a.grid
        want = brute_force_convolve(a.to_dict(), b.to_dict(), g)
        got = dense_convolve(a.to_dense().coeffs, b.to_dense().coeffs, g)
        got_d = SparseSpectrum.from_dense(DenseSpectrum(g, got)).to_dict()
        for k in set(want):
            assert abs(got_d.get(k, 0.0) - want[k]) < 1e-12
        for k in set(got_d) - set(want):
            assert abs(got_d[k]) < 1e-12  # transform path roundoff only



# Full-box operands on these grids take the padded transform.
TRANSFORM_GRIDS = (GridSpec(1, 64), GridSpec(2, 16))


def test_transform_path_is_bit_identical_to_dense_convolve():
    rng = np.random.default_rng(32)
    for g in TRANSFORM_GRIDS:
        a, b = full_box(g, rng), full_box(g, rng)
        got = sparse_convolve(a, b)
        dense = dense_convolve(a.to_dense().coeffs, b.to_dense().coeffs, g)
        want = SparseSpectrum.from_dense(DenseSpectrum(g, dense))
        assert np.array_equal(got.keys, want.keys)
        assert np.array_equal(got.values, want.values)
        # a sum whose terms all take the transform matches the dense sum of
        # the same terms in the same order, bit for bit
        c = full_box(g, rng)
        terms = [(1.0, a, b), (-0.5, a, a), (2.0, c, b)]
        dense_of = {id(x): x.to_dense() for x in (a, b, c)}
        got = convolve_sum(terms)
        dense = convolve_sum([(w, dense_of[id(x)], dense_of[id(y)]) for w, x, y in terms])
        want = SparseSpectrum.from_dense(dense)
        assert np.array_equal(got.keys, want.keys)
        assert np.array_equal(got.values, want.values)


def weighted_oracle(terms, grid) -> dict:
    """``sum w * (a * b)`` over terms, by the brute-force oracle."""
    out: dict = {}
    for w, a, b in terms:
        for k, v in brute_force_convolve(a.to_dict(), b.to_dict(), grid).items():
            out[k] = out.get(k, 0.0) + w * v
    return out


def test_convolve_sum_matches_brute_force_on_both_containers(monkeypatch):
    rng = np.random.default_rng(40)
    products = []
    padded_product = shrinkage.padded_product

    def counted(*args, **kwargs):
        products.append(args[1])
        return padded_product(*args, **kwargs)

    monkeypatch.setattr(shrinkage, "padded_product", counted)
    for g in TRANSFORM_GRIDS:
        u, v = full_box(g, rng), full_box(g, rng)
        small = random_sparse(g, rng, max_entries=3)
        assert _transform_is_cheaper(g, u.n_s, v.n_s, g.n_padded)
        assert not _transform_is_cheaper(g, small.n_s, small.n_s, g.n_padded)
        cases = [
            [(1.0, u, u)],  # a repeated operand
            [(1.0, u, v), (-0.5, u, u)],  # a negative weight, u shared
            [(-2.0, u, v), (0.75, small, small)],  # a large term and a tiny one
        ]
        dense_of = {id(x): x.to_dense() for x in (u, v, small)}
        for terms in cases:
            want = weighted_oracle(terms, g)
            products.clear()
            assert_matches(convolve_sum(terms), want)
            # the call takes one path, the large term's: one padded product
            assert len(products) == 1 and len(products[0]) == len(terms)
            dense = convolve_sum([(w, dense_of[id(a)], dense_of[id(b)]) for w, a, b in terms])
            assert_matches(SparseSpectrum.from_dense(dense), want)
            # every term on pairs, weights folded into one accumulator
            with monkeypatch.context() as m:
                m.setattr(shrinkage, "_transform_is_cheaper", lambda *_: False)
                products.clear()
                assert_matches(convolve_sum(terms), want)
            assert not products


@pytest.mark.parametrize("n", [4, 8])
def test_no_aliasing_at_the_three_halves_edge(n, monkeypatch):
    # on P = 3n/2 points the outermost modes +-(n/2 - 1) sum to |s| = n - 2,
    # which must wrap outside the box, not onto a resolved mode
    top = n // 2 - 1
    rng = np.random.default_rng(n)
    for g in (GridSpec(1, n), GridSpec(2, n)):
        if g.dims == 1:
            modes = [top, -top]
        else:
            modes = [(i, j) for i in (top, -top) for j in (top, -top)]
        values = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
        a = SparseSpectrum.from_dict(g, dict(zip(modes, values)))
        want = brute_force_convolve(a.to_dict(), a.to_dict(), g)
        dense = dense_convolve(a.to_dense().coeffs, a.to_dense().coeffs, g)
        assert_matches(SparseSpectrum.from_dense(DenseSpectrum(g, dense)), want, tol=1e-14)
        with monkeypatch.context() as m:
            m.setattr(shrinkage, "_transform_is_cheaper", lambda *_: True)
            got = sparse_convolve(a, a)
        assert set(got.to_dict()) == set(want)
        assert_matches(got, want, tol=1e-14)


def test_nan_operand_gives_nan_output_on_both_paths():
    rng = np.random.default_rng(33)
    for g in TRANSFORM_GRIDS:
        key = 1 if g.dims == 1 else (1, 0)
        # pairs: a lone NaN entry shifts b by one mode
        b = random_sparse(g, rng)
        pairs = sparse_convolve(SparseSpectrum.from_dict(g, {key: complex(np.nan, 0.0)}), b)
        assert pairs.n_s > 0 and np.isnan(pairs.values).all()
        # transform: the NaN spreads over the whole box
        a = full_box(g, rng).to_dict()
        a[key] = complex(np.nan, 0.0)
        out = sparse_convolve(SparseSpectrum.from_dict(g, a), full_box(g, rng))
        assert out.n_s == (g.n_per_dim - 1) ** g.dims
        assert np.isnan(out.values).all()


def test_transform_path_stays_hermitian_for_real_fields():
    rng = np.random.default_rng(34)
    for g in TRANSFORM_GRIDS:
        u, w = (
            SparseSpectrum.from_dense(dft_forward(SpatialField(g, rng.standard_normal(g.shape))))
            for _ in range(2)
        )
        assert is_hermitian(sparse_convolve(u, w).to_dense(), rtol=1e-12)


def test_solver_path_is_exactly_hermitian_and_matches_the_general_path():
    # operands declared real take one real transform each; the sum read
    # back is exactly Hermitian, bit for bit, and within roundoff of the
    # path that takes any complex input
    rng = np.random.default_rng(35)
    for g in TRANSFORM_GRIDS:
        u, a = (
            SparseSpectrum.from_dense(dft_forward(SpatialField(g, rng.standard_normal(g.shape))))
            for _ in range(2)
        )
        du = spectral_derivative(u)
        terms = [(1.0, a, du), (-0.5, u, u)]
        dense_of = {id(x): x.to_dense() for x in (u, a, du)}
        dense_terms = [(w, dense_of[id(x)], dense_of[id(y)]) for w, x, y in terms]
        assert all(_transform_is_cheaper(g, x.n_s, y.n_s, g.n_padded) for _, x, y in terms)

        real = convolve_sum(terms, real=True)
        assert real.n_s > 0
        partner = negated_keys(g, real.keys)
        order = np.argsort(partner)
        assert np.array_equal(partner[order], real.keys)
        assert np.array_equal(real.values, np.conj(real.values[order]))
        general = convolve_sum(terms)
        assert np.abs(real.to_dense().coeffs - general.to_dense().coeffs).max() < 1e-12

        real = convolve_sum(dense_terms, real=True).coeffs.ravel()
        modes = fft_index_to_mode(g, np.arange(g.n_total))
        negated = mode_to_fft_index(g, np.where(modes == g.nyquist_mode, modes, -modes))
        assert np.array_equal(real, np.conj(real[negated]))
        general = convolve_sum(dense_terms).coeffs.ravel()
        assert np.abs(real - general).max() < 1e-12


def test_path_choice_on_workload_shapes():
    # (grid, n_s of each operand after the open-box filter, transform?)
    cases = [
        (GridSpec(1, 64), 63, 63, True),  # TRANSFORM_GRIDS, full box
        (GridSpec(2, 16), 225, 225, True),
        (GridSpec(1, 4096), 16, 16, False),  # acceptance criterion 9
        (GridSpec(1, 2048), 19, 2048, False),  # parabolic: state against coefficient
        (GridSpec(1, 1024), 1024, 95, True),  # Burgers: coefficient against a*du
        (GridSpec(2, 128), 252, 252, False),  # vorticity, later steps
        (GridSpec(2, 128), 16256, 16128, True),  # vorticity, first step
        (GridSpec(1, 1024), 110, 110, True),  # Burgers u*u, honest coefficient
        (GridSpec(1, 1024), 184, 110, True),  # Burgers a*du, honest coefficient
        (GridSpec(1, 2048), 19, 208, False),  # parabolic, honest coefficient
        (GridSpec(2, 256), 650, 650, False),  # vorticity_fig4, later steps
        (GridSpec(1, 16), 1, 2, False),  # tiny operands on a small grid
    ]
    for g, n_a, n_b, transform in cases:
        assert _transform_is_cheaper(g, n_a, n_b, g.n_padded) is transform
        assert _transform_is_cheaper(g, n_b, n_a, g.n_padded) is transform
    # the same on the grid sized to the operands' reach sum
    sized = [
        (GridSpec(2, 128), 22, 252, 252, True),  # vorticity, later steps: |m| <= 11
    ]
    for g, reach, n_a, n_b, transform in sized:
        size = transform_size(g, reach)[0]
        assert _transform_is_cheaper(g, n_a, n_b, size) is transform
        assert _transform_is_cheaper(g, n_b, n_a, size) is transform


def test_transform_output_carries_no_roundoff_tail():
    # products of band-limited real fields: the inputs carry FFT roundoff at
    # every mode, and the output keeps exactly the modes the product has
    g1 = GridSpec(1, 64)
    x = g1.axis_coordinates()
    g2 = GridSpec(2, 16)
    mx, my = g2.meshgrid()
    cases = [
        (g1, np.cos(x), np.cos(3 * x) + 0.5),
        (g2, np.cos(mx) * np.sin(2 * my), np.cos(mx + my) + 0.5),
    ]
    for g, f, h in cases:
        u, w = (with_roundoff(dft_forward(SpatialField(g, v))) for v in (f, h))
        assert _transform_is_cheaper(g, u.n_s, w.n_s, g.n_padded)
        want = brute_force_convolve(u.to_dict(), w.to_dict(), g)
        real = {k for k, v in want.items() if abs(v) > 1e-12}
        assert 0 < len(real) < min(u.n_s, w.n_s) / 5
        assert set(sparse_convolve(u, w).to_dict()) == real


def within(grid, reach, rng, count):
    """``count`` random entries at distinct modes ``|m_d| <= reach``, one of
    them at ``+-reach`` along the first axis, so the reach is exact."""
    side = 2 * reach + 1
    count = min(count, side**grid.dims)
    flat = rng.choice(side**grid.dims, size=count, replace=False)
    modes = np.stack(np.unravel_index(flat, (side,) * grid.dims)) - reach
    modes[0, 0] = reach if rng.integers(2) else -reach
    values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return SparseSpectrum.from_modes(grid, modes, values)


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("reach", [4, 13, 40])
def test_transform_on_the_tight_size_matches_brute_force(dims, reach, monkeypatch):
    # reach sums with 2R + 1 = 9, 27, 81: a 3-smooth grid with no spare point
    monkeypatch.setattr(shrinkage, "_transform_is_cheaper", lambda *_: True)
    rng = np.random.default_rng(100 * dims + reach)
    g = GridSpec(dims, 128)
    assert transform_size(g, reach) == (2 * reach + 1, reach)
    count = 20 if dims == 1 else 40
    for _ in range(3):
        a = within(g, reach // 2, rng, count)
        b = within(g, reach - reach // 2, rng, count)
        got = sparse_convolve(a, b)
        assert np.abs(got.modes()).max() <= reach
        assert_matches(got, brute_force_convolve(a.to_dict(), b.to_dict(), g), tol=1e-13)


def test_held_field_follows_the_call_size(monkeypatch):
    monkeypatch.setattr(shrinkage, "_transform_is_cheaper", lambda *_: True)
    rng = np.random.default_rng(41)
    g = GridSpec(2, 32)
    coeff = within(g, 3, rng, 20)
    near, wide = within(g, 2, rng, 15), full_box(g, rng)
    held = HeldField(coeff)
    # reach sums max(3 + 2, 2 + 2) and max(3 + 15, 15 + 15)
    for u, size in ((near, 12), (wide, g.n_padded), (near, 12)):
        got = convolve_sum([(1.0, held, u), (-0.5, u, u)])
        want = convolve_sum([(1.0, coeff, u), (-0.5, u, u)])
        assert held.size == size
        assert np.array_equal(got.keys, want.keys)
        assert np.array_equal(got.values, want.values)


def test_call_only_fields_are_dropped_before_the_forward_transform(monkeypatch):
    # a call frees the fields it made for itself once their terms are
    # summed; a field held across calls stays
    rng = np.random.default_rng(42)
    g = GridSpec(2, 16)
    u, v, w = (full_box(g, rng).to_dense() for _ in range(3))
    coeff = HeldField(w)
    _, terms = hold_operands([(1.0, coeff, u), (-0.5, u, v), (2.0, v, v)])
    own = [held for _, a, b in terms for held in (a, b) if held.call_only]
    held_fields = []
    rfftn = np.fft.rfftn

    def forward(*args, **kwargs):
        held_fields.append([held.field is not None for held in own])
        return rfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", forward)
    convolve_sum(terms, real=True)
    assert own and held_fields == [[False] * len(own)]
    assert coeff.field is not None


@pytest.mark.parametrize("transform", [False, True])
def test_small_operands_allocate_the_same_on_any_grid(transform, monkeypatch):
    # 16 x 16 entries within |m| <= 8: what one call allocates does not grow
    # with the grid, on either path, nor does the first call on a new grid
    monkeypatch.setattr(shrinkage, "_transform_is_cheaper", lambda *_: transform)

    def operands(n: int, domain_length: float = 2 * np.pi):
        rng = np.random.default_rng(7)
        g = GridSpec(1, n, domain_length)
        return within(g, 8, rng, 16), within(g, 8, rng, 16)

    def peak(a, b) -> int:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sparse_convolve(a, b)
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        peak(*operands(2**10))  # pays the tracer's own one-time allocations
        # a domain length of its own for each path: a grid no cache has seen
        first = peak(*operands(2**20, domain_length=1.0 + transform))
        peaks = []
        for n in (2**10, 2**20, 2**10, 2**20):
            a, b = operands(n)
            # a call's peak also depends on how many calls came before it,
            # until numpy's caches have filled: warm them on each grid
            for _ in range(8):
                peak(a, b)
            peaks.append(peak(a, b))
    finally:
        tracemalloc.stop()
    assert first < 64 * 1024
    assert peaks[2] == peaks[3]


def pairs_only(monkeypatch):
    monkeypatch.setattr(shrinkage, "_transform_is_cheaper", lambda *_: False)


def assert_bit_equal(got: SparseSpectrum, want: SparseSpectrum):
    assert np.array_equal(got.keys, want.keys)
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("dims", [1, 2])
def test_blocked_pairs_match_the_row_loop_bit_for_bit(dims, monkeypatch):
    pairs_only(monkeypatch)
    rng = np.random.default_rng(50 + dims)
    g = GridSpec(dims, 256 if dims == 1 else 32)
    for _ in range(3):
        a, b = within(g, 9, rng, 40), within(g, 6, rng, 70)
        assert_bit_equal(sparse_convolve(a, b), row_loop_convolve([(1.0, a, b)], g))


def test_pairs_across_several_blocks_match_the_row_loop(monkeypatch):
    # 2**14 // 2047 = 8 rows a block, so 40 rows take five blocks; a row of
    # 20 000 pairs is a block of its own
    pairs_only(monkeypatch)
    rng = np.random.default_rng(52)
    g = GridSpec(1, 2**12)
    a, b = within(g, 1023, rng, 2047), within(g, 30, rng, 40)
    assert_bit_equal(sparse_convolve(a, b), row_loop_convolve([(1.0, a, b)], g))
    g = GridSpec(1, 2**16)
    a, b = within(g, 3, rng, 3), within(g, 20_000, rng, 20_000)
    assert_bit_equal(sparse_convolve(a, b), row_loop_convolve([(1.0, a, b)], g))


def test_two_term_pairs_match_the_row_loop(monkeypatch):
    # weights folded into each term's rows, both terms in one accumulator
    pairs_only(monkeypatch)
    rng = np.random.default_rng(53)
    for g in (GridSpec(1, 512), GridSpec(2, 32)):
        u, v = within(g, 10, rng, 60), within(g, 12, rng, 90)
        terms = [(1.0, u, v), (-0.5, u, u)]
        assert_bit_equal(convolve_sum(terms), row_loop_convolve(terms, g))


def test_pairs_with_the_coefficient_second_match_the_row_loop(monkeypatch):
    # coefficient x state, as a step makes it: the swap takes the state's
    # entries as rows and the weight folds into them
    pairs_only(monkeypatch)
    rng = np.random.default_rng(54)
    g = GridSpec(1, 2048)
    coeff, state = within(g, 1023, rng, 208), within(g, 20, rng, 15)
    for w in (1.0, 0.25 - 2.0j):
        terms = [(w, HeldField(coeff), state)]
        got = convolve_sum(terms)
        assert_bit_equal(got, row_loop_convolve([(w, coeff, state)], g))


def test_a_nan_product_cell_is_kept(monkeypatch):
    # one NaN entry beside finite ones: every cell it reaches stays, as NaN
    pairs_only(monkeypatch)
    rng = np.random.default_rng(55)
    for g in (GridSpec(1, 64), GridSpec(2, 16)):
        a, b = within(g, 3, rng, 4), within(g, 3, rng, 6)
        values = a.values.copy()
        values[1] = complex(np.nan, 0.0)
        a = SparseSpectrum(g, a.keys, values)
        got, want = sparse_convolve(a, b), row_loop_convolve([(1.0, a, b)], g)
        nan_cells = set(sparse_convolve(SparseSpectrum(g, a.keys[1:2], values[1:2]), b).keys)
        assert nan_cells and nan_cells == set(got.keys[np.isnan(got.values)])
        assert_bit_equal(got, want)


def test_pair_blocks_keep_memory_beyond_the_window_small(monkeypatch):
    # 600 x 600 entries in 2-D are 360 000 pairs; beyond the accumulator
    # over the key window, a call holds one block of sums and products
    pairs_only(monkeypatch)
    rng = np.random.default_rng(56)
    g = GridSpec(2, 64)
    a, b = within(g, 12, rng, 600), within(g, 12, rng, 600)
    held_a, held_b = HeldField(a), HeldField(b)
    window = int(held_a.entries()[0][-1] + held_b.entries()[0][-1])
    window -= int(held_a.entries()[0][0] + held_b.entries()[0][0]) - 1
    convolve_sum([(1.0, held_a, held_b)])  # pays one-time allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        convolve_sum([(1.0, held_a, held_b)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - 16 * window < 2**20


def random_dense(grid: GridSpec, rng, real: bool) -> DenseSpectrum:
    """A dense spectrum with every mode set, the Nyquist modes included:
    that of a random real field, or with random complex values."""
    if real:
        return dft_forward(SpatialField(grid, rng.standard_normal(grid.shape)))
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return DenseSpectrum(grid, values)


BLOCK_GRIDS = [GridSpec(dims, n) for dims in (1, 2) for n in (4, 8, 16, 64)]


@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=lambda g: f"{g.dims}d-{g.n_per_dim}")
def test_dense_placement_is_the_index_table_gather_bit_for_bit(grid):
    # the block copies of a dense operand onto the half grid, on the size a
    # dense product takes (P < 3n/2 at n = 4) and on the 3/2 grid, against
    # the gather through index tables; one row on the real contract, two on
    # the complex one, the second the conjugated negation
    rng = np.random.default_rng(grid.n_per_dim + grid.dims)
    spec = random_dense(grid, rng, real=False)
    for size in sorted({transform_size(grid, 2 * grid.box_edge)[0], grid.n_padded}):
        for rows in (1, 2):
            half = np.zeros((rows,) + (size,) * (grid.dims - 1) + (size // 2 + 1,), dtype=complex)
            HeldField(spec).place(half, size, {})
            want = table_place(spec, size, rows)
            assert half.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=lambda g: f"{g.dims}d-{g.n_per_dim}")
def test_box_read_is_the_index_table_fold_bit_for_bit(grid):
    # the box |m_d| <= k read off random half spectra (one row and two) by
    # block slices, against the masked-conjugate gather through an index
    # table: in key order for every k up to the box edge, as a sparse
    # result reads it, and on the FFT layout, as a dense one is written,
    # where it is that gather scattered through the box's index
    rng = np.random.default_rng(grid.n_per_dim - grid.dims)
    for k in range(grid.box_edge + 1):
        for reach in sorted({k, 2 * k}):
            size = transform_size(grid, reach)[0]
            for rows in (1, 2):
                shape = (rows,) + (size,) * (grid.dims - 1) + (size // 2 + 1,)
                spectra = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                want = table_read_box(spectra, grid, k, size)
                got = read_box(spectra, size, k, 0)
                assert got.reshape(rows, -1).tobytes() == want.tobytes()
                dense = np.zeros((rows, grid.n_total), dtype=complex)
                dense[:, table_box_index(grid, k)] = want
                got = read_box(spectra, size, k, grid.n_per_dim)
                assert got.reshape(rows, -1).tobytes() == dense.tobytes()


@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=lambda g: f"{g.dims}d-{g.n_per_dim}")
def test_dense_convolve_is_the_index_table_path_bit_for_bit(grid):
    # convolve_sum on two weighted dense terms, one of them a square, and
    # dense_convolve, against the padded product through index tables, on
    # real-field operands with real=True and on complex ones without
    rng = np.random.default_rng(3 * grid.n_per_dim + grid.dims)
    for real in (True, False):
        a, b, c = (random_dense(grid, rng, real) for _ in range(3))
        terms = ((1.0, a, b), (-0.5, c, c))
        got = convolve_sum(terms, real=real)
        assert got.coeffs.tobytes() == table_dense_convolve_sum(terms, real).coeffs.tobytes()
        got = dense_convolve(a.coeffs, b.coeffs, grid)
        want = table_dense_convolve_sum(((1.0, a, b),), False)
        assert got.tobytes() == want.coeffs.tobytes()


STACK_GRIDS = [GridSpec(1, 64), GridSpec(1, 1024), GridSpec(2, 16), GridSpec(2, 32), GridSpec(2, 128)]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("grid", STACK_GRIDS, ids=lambda g: f"{g.dims}d-{g.n_per_dim}")
def test_stacked_fields_are_the_one_by_one_fields_bit_for_bit(grid, real, fft_calls, monkeypatch):
    # the fresh operand fields of a padded product, stacked into as few
    # inverse transforms as the byte budget allows, against one transform
    # per operand (a budget of 0): the same bits, on the first call, where
    # the held sparse coefficient is made too, and on a second, where it is
    # held; 128^2 pads to 192^2, whose half grid alone exceeds the budget
    rng = np.random.default_rng(grid.dims * grid.n_per_dim)
    coefficient = SparseSpectrum.from_dense(random_dense(grid, rng, real))
    a, b, c, d = (random_dense(grid, rng, real) for _ in range(4))
    size = grid.n_padded
    half_bytes = (1 if real else 2) * 16 * size ** (grid.dims - 1) * (size // 2 + 1)
    per_stack = max(1, spectral._STACK_BYTES // half_bytes)
    assert (per_stack == 1) == (grid.n_per_dim == 128)

    def products(budget: int) -> tuple[list[bytes], list[int]]:
        monkeypatch.setattr(spectral, "_STACK_BYTES", budget)
        held = HeldField(coefficient)
        terms = ((1.0, held, a), (-0.5, b, b), (2.0, c, d))
        out, inverse_calls = [], []
        for _ in range(2):
            fft_calls.clear()
            out.append(convolve_sum(terms, real=real).coeffs.tobytes())
            inverse_calls.append(sum(name.startswith("irfft") for name in fft_calls))
        return out, inverse_calls

    stacked, calls = products(spectral._STACK_BYTES)
    alone, one_by_one = products(0)
    assert stacked == alone
    assert one_by_one == [5, 4]
    assert calls == [-(-5 // per_stack), -(-4 // per_stack)]


def materialised(operand):
    """A ``(spectrum, factor)`` operand made as the spectrum it stands for."""
    if not isinstance(operand, tuple):
        return operand
    spectrum, factor = operand
    return spectrum.apply_mode_factor(spectrum.at(factor))


def densified(operand):
    """An operand, or the spectrum of a ``(spectrum, factor)`` one, in FFT layout."""
    if not isinstance(operand, tuple):
        return operand.to_dense()
    return operand[0].to_dense(), operand[1]


def first_mode(grid, digits):
    """The real mode factor ``m_0``, which is not Hermitian: ``f(-m) = -f(m)``."""
    return (digits[0] - grid.n_per_dim // 2).astype(float)


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("real", [False, True])
def test_mode_factor_operands_are_the_spectra_they_stand_for(dims, real, monkeypatch):
    # (spectrum, factor) is spectrum.apply_mode_factor(spectrum.at(factor)),
    # bit for bit, on both sparse paths and with a Nyquist entry held, also
    # in the second row a complex call places, for a factor that is not
    # Hermitian too (conj f(-m) there); a dense one is made so
    g = GridSpec(dims, 32)
    rng = np.random.default_rng(30 + dims)
    factors = spectral.DERIVATIVE_FACTORS[:dims] + (grid_module.wavenumber_squares, first_mode)
    paths = []
    for name in ("_pair_convolve", "padded_product"):
        original = getattr(shrinkage, name)
        monkeypatch.setattr(
            shrinkage, name,
            lambda *a, _o=original, _n=name, **k: paths.append(_n) or _o(*a, **k),
        )
    for count in (6, 400):
        for _ in range(3):
            u = random_sparse(g, rng, min(count, g.n_total))
            if real:
                u = u + SparseSpectrum(g, negated_keys(g, u.keys[::-1]), np.conj(u.values[::-1]))
            v = random_sparse(g, rng, min(count, g.n_total)) if not real else u
            for fa in factors:
                for fb in factors:
                    terms = [(-0.5, (u, fa), (v, fb)), (2.0, (u, fb), u)]
                    made = [(w, materialised(a), materialised(b)) for w, a, b in terms]
                    assert_same_bits(convolve_sum(terms, real=real), convolve_sum(made, real=real))
                    dense = [(w, densified(a), densified(b)) for w, a, b in terms]
                    dense_made = [(w, a.to_dense(), b.to_dense()) for w, a, b in made]
                    assert_same_bits(
                        convolve_sum(dense, real=real), convolve_sum(dense_made, real=real)
                    )
    assert {"_pair_convolve", "padded_product"} <= set(paths)


@pytest.mark.parametrize("dims", [1, 2])
def test_the_nyquist_entry_does_not_count_in_the_reach(dims):
    # every convolution drops the unpaired Nyquist entry, so the reach of a
    # spectrum is that of its open-box entries, and a call is sized by it
    g = GridSpec(dims, 64)
    rng = np.random.default_rng(dims)
    m = np.arange(-3, 4)
    inner = np.stack([a.ravel() for a in np.meshgrid(*[m] * dims, indexing="ij")])
    nyquist = np.full((dims, 1), -32)
    nyquist[0] = 2 if dims == 2 else -32  # (2, -32) in 2-D
    modes = np.concatenate([inner, nyquist], axis=1)
    spec = SparseSpectrum.from_modes(g, modes, rng.standard_normal(modes.shape[1]) + 0j)
    keys, _, reach = spec.open_entries
    assert keys.size == inner.shape[1] and reach == 3
    held = HeldField(spec)
    _, size, k, _ = shrinkage.plan_convolution(g, [(1.0, held, held)])
    assert (size, k) == transform_size(g, 6) and size < g.n_padded


@pytest.mark.parametrize("real", [False, True])
def test_an_image_entry_that_underflows_is_not_placed(real, monkeypatch):
    # on a domain of 100 periods k = m/100, so u' = i k u drops the entries
    # at +-1, 5e-302 in magnitude, as underflow (DROP_TOL); times a
    # coefficient near 1e200 they would leave 5e-102 beside the kept
    # entries' products, near 1e-88, whose last bit is near 1e-104
    g = GridSpec(1, 32, 200 * np.pi)
    rng = np.random.default_rng(9)
    band = {m: 1e-288 for m in range(-12, 13) if abs(m) > 1}
    u = SparseSpectrum.from_dict(g, {**band, 1: 5e-300, -1: 5e-300})
    big = full_box(g, rng)
    big = SparseSpectrum(g, big.keys, 1e200 * big.values)
    if real:
        big = big + SparseSpectrum(g, negated_keys(g, big.keys[::-1]), np.conj(big.values[::-1]))
    paths = []
    original = shrinkage.padded_product
    monkeypatch.setattr(
        shrinkage, "padded_product", lambda *a, **k: paths.append(a[2]) or original(*a, **k)
    )
    derivative = spectral.DERIVATIVE_FACTORS[0]
    got = convolve_sum([(1.0, (u, derivative), big)], real=real)
    assert paths and got.n_s
    want = convolve_sum([(1.0, spectral_derivative(u), big)], real=real)
    assert u.n_s == 24 and spectral_derivative(u).n_s == 22
    assert_same_bits(got, want)


def test_images_whose_outer_entries_underflow_are_sized_and_placed_by_the_spectrum(
    monkeypatch,
):
    # on a domain of 100 periods the entries at (-+1, +-20), 1e-300 in
    # magnitude, underflow in both derivatives, which reach 3 of their own:
    # the call is sized by the spectrum's reach, 20, and its products are
    # made at the spectrum's places, the underflowed ones placed as 0, bit
    # for bit the padded product of the materialised operands on that grid
    g = GridSpec(2, 64, 200 * np.pi)
    rng = np.random.default_rng(11)
    m = np.arange(-3, 4)
    modes = np.stack([a.ravel() for a in np.meshgrid(m, m, indexing="ij")])
    values = rng.standard_normal(modes.shape[1]) + 1j * rng.standard_normal(modes.shape[1])
    inner = SparseSpectrum.from_modes(
        g, np.concatenate([modes, -modes], axis=1), np.concatenate([values, values.conj()])
    )
    u = inner + SparseSpectrum.from_dict(g, {(-1, 20): 1e-300, (1, -20): 1e-300})
    assert u.open_entries[2] == 20
    monkeypatch.setattr(shrinkage, "_transform_is_cheaper", lambda *args: True)
    for real in (False, True):
        for factor in spectral.DERIVATIVE_FACTORS:
            derivative = u.apply_mode_factor(u.at(factor))
            assert derivative.open_entries[2] == 3
            _, held = spectral.hold_operands([(1.0, (u, factor), (u, factor))])
            _, size, _, transform = shrinkage.plan_convolution(g, held)
            assert transform and size == transform_size(g, 40)[0]
            got = convolve_sum([(1.0, (u, factor), (u, factor))], real=real)
            assert_same_bits(got, transform_at([(1.0, derivative, derivative)], 40, real))
