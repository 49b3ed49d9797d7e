import numpy as np
import pytest

from sparsedyn import GridSpec, fft_index_to_mode, mode_to_fft_index
from sparsedyn.grid import (
    at_negated_modes,
    box_blocks,
    box_index,
    fft_shifted,
    half_index,
    in_open_box,
    key_digit,
    key_reach,
    key_to_fft_index,
    key_to_mode,
    mode_to_key,
    negated_keys,
    open_support,
    shifted_index_to_key,
    transform_size,
)
from sparsedyn.spectral import read_box


def test_basic_geometry():
    g = GridSpec(1, 64)
    assert g.dx * g.n_per_dim == g.domain_length
    assert g.n_total == 64
    assert g.shape == (64,)
    assert g.box_edge == 31 and g.nyquist_mode == -32

    g2 = GridSpec(2, 32)
    assert g2.n_total == 1024
    assert g2.shape == (32, 32)
    assert g2.cell_volume == pytest.approx(g2.dx**2)


@pytest.mark.parametrize("n", [3, 5, 6, 48, 100])
def test_rejects_non_power_of_two(n):
    with pytest.raises(ValueError):
        GridSpec(1, n)


@pytest.mark.parametrize("length", [0.0, -1.0, np.inf, -np.inf, np.nan])
def test_rejects_bad_domain_length(length):
    # an infinite period gave zero wavenumbers: a diffusion run changed nothing
    with pytest.raises(ValueError, match="domain_length"):
        GridSpec(1, 64, domain_length=length)


def test_equal_grids_hash_equal_and_share_cached_tables():
    a, b = GridSpec(2, 64), GridSpec(2, 64, 2 * np.pi)
    assert a == b and a is not b and hash(a) == hash(b)
    assert GridSpec(2, 64, 3.0) != a and GridSpec(1, 64) != a
    assert {a: 1}[b] == 1
    first = transform_size(a, 17)
    hits = transform_size.cache_info().hits
    assert transform_size(b, 17) == first
    assert transform_size.cache_info().hits == hits + 1


def test_rejects_bad_dims():
    with pytest.raises(ValueError):
        GridSpec(3, 64)
    with pytest.raises(ValueError):
        GridSpec(0, 64)


def test_mode_set_is_symmetric_band():
    g = GridSpec(1, 16)
    modes = np.sort(g.mode_numbers())
    assert modes.tolist() == list(range(-8, 8))
    assert g.nyquist_mode == -8


def test_wavenumbers_scale_with_domain_length():
    g = GridSpec(1, 16, domain_length=4 * np.pi)
    k = g.wavenumbers()
    m = g.mode_numbers()
    assert np.allclose(k, m * 0.5)


@pytest.mark.parametrize("dims,n", [(1, 16), (1, 128), (2, 8), (2, 32)])
def test_index_mode_bijection(dims, n):
    g = GridSpec(dims, n)
    idx = np.arange(g.n_total)
    modes = fft_index_to_mode(g, idx)
    assert modes.shape == (dims, g.n_total)
    # every mode vector is inside the resolved band
    assert modes.min() >= -n // 2
    assert modes.max() <= n // 2 - 1
    # round trip is the identity and hits every index exactly once
    back = mode_to_fft_index(g, modes)
    assert np.array_equal(back, idx)
    assert len(np.unique(back)) == g.n_total


def test_index_mode_known_values():
    g = GridSpec(1, 8)
    assert fft_index_to_mode(g, 0).tolist() == [0]
    assert fft_index_to_mode(g, 3).tolist() == [3]
    assert fft_index_to_mode(g, 4).tolist() == [-4]
    assert fft_index_to_mode(g, 7).tolist() == [-1]

    g2 = GridSpec(2, 8)
    assert fft_index_to_mode(g2, 0).tolist() == [0, 0]
    # flat index 8*1 + 7 is row 1 (mode 1), column 7 (mode -1)
    assert fft_index_to_mode(g2, 15).tolist() == [1, -1]


@pytest.mark.parametrize("dims,n", [(1, 16), (1, 128), (2, 8), (2, 32)])
def test_key_mode_round_trip(dims, n):
    g = GridSpec(dims, n)
    axis = np.arange(-n // 2, n // 2)
    # every resolved mode, listed in lexicographic order
    modes = np.stack([m.ravel() for m in np.meshgrid(*([axis] * dims), indexing="ij")])
    keys = mode_to_key(g, modes)
    assert np.array_equal(key_to_mode(g, keys), modes)
    assert np.all(np.diff(keys) > 0)
    for axis in range(dims):
        assert np.array_equal(key_digit(g, keys, axis), modes[axis] + n // 2)
    # negation keeps the unpaired Nyquist component -n/2, its own negation mod n
    negated = np.where(modes == -n // 2, modes, -modes)
    assert np.array_equal(negated_keys(g, keys), mode_to_key(g, negated))
    index = np.arange(g.n_total).reshape(g.shape)  # each entry its own flat FFT-layout index
    negated_index = at_negated_modes(index).ravel()
    assert np.array_equal(negated_index[mode_to_fft_index(g, modes)], mode_to_fft_index(g, negated))
    # keys add without carries: key(a) + key(b) == key(a + b) + key(0)
    zero = mode_to_key(g, np.zeros(dims, dtype=np.int64))
    sums = keys[:, None] + keys[None, :]
    summed = modes[:, :, None] + modes[:, None, :]
    resolved = np.all((summed >= -n // 2) & (summed < n // 2), axis=0)
    assert np.array_equal(sums[resolved], mode_to_key(g, summed[:, resolved]) + zero)


@pytest.mark.parametrize(
    "dims,n", [(1, 4), (1, 16), (1, 128), (2, 4), (2, 8), (2, 32), (2, 64), (2, 256)]
)
def test_key_fft_index_conversions(dims, n):
    g = GridSpec(dims, n)
    axis = np.arange(-n // 2, n // 2)
    # every resolved mode, Nyquist components included, in key order
    modes = np.stack([m.ravel() for m in np.meshgrid(*([axis] * dims), indexing="ij")])
    keys = mode_to_key(g, modes)
    index = key_to_fft_index(g, keys)
    assert np.array_equal(index, mode_to_fft_index(g, modes))
    # the index read from the key's bits is the digit formula: digit
    # (d + n/2) mod n per dimension, d the key digit, row-major in base n
    digits = [(key_digit(g, keys, axis) + n // 2) % n for axis in range(dims)]
    assert np.array_equal(index, np.ravel_multi_index(digits, g.shape))
    # the fftshift-ed layout holds the modes in key order: flat position j
    # holds the key shifted_index_to_key(j), at FFT index key_to_fft_index
    assert np.array_equal(shifted_index_to_key(g, np.arange(g.n_total)), keys)
    fft_order = np.arange(g.n_total).reshape(g.shape)
    assert np.array_equal(fft_shifted(g, fft_order), np.fft.fftshift(fft_order).ravel())
    assert np.array_equal(fft_shifted(g, fft_order), index)


@pytest.mark.parametrize("dims,n", [(1, 4), (1, 16), (1, 128), (2, 4), (2, 8), (2, 32)])
def test_in_open_box_reads_the_digits(dims, n):
    g = GridSpec(dims, n)
    # every key in [-(2n)^d, (2n)^d): in the box iff non-negative and every
    # decoded mode component |m_d| < n/2, so the Nyquist mode is out
    keys = np.arange(-((2 * n) ** dims), (2 * n) ** dims)
    want = (keys >= 0) & np.all(np.abs(key_to_mode(g, keys)) < n // 2, axis=0)
    assert np.array_equal(in_open_box(g, keys), want)
    assert np.count_nonzero(want) == (n - 1) ** dims
    # a sum of two resolved keys less key(0), as the entry-pair path makes
    # it, is in the box iff the summed mode is
    axis = np.arange(-n // 2, n // 2)
    modes = np.stack([m.ravel() for m in np.meshgrid(*([axis] * dims), indexing="ij")])
    keys = mode_to_key(g, modes)
    zero = mode_to_key(g, np.zeros(dims, dtype=np.int64))
    sums = (keys[:, None] + keys[None, :] - zero).ravel()
    summed = (modes[:, :, None] + modes[:, None, :]).reshape(dims, -1)
    assert np.array_equal(in_open_box(g, sums), np.all(np.abs(summed) < n // 2, axis=0))


def test_out_of_range_errors():
    g = GridSpec(1, 8)
    with pytest.raises(IndexError):
        fft_index_to_mode(g, 8)
    with pytest.raises(IndexError):
        mode_to_fft_index(g, np.array([4]))


def test_meshgrid_matches_coordinates():
    g = GridSpec(2, 8)
    x, y = g.meshgrid()
    assert x.shape == (8, 8)
    assert x[3, 0] == pytest.approx(3 * g.dx)
    assert y[0, 5] == pytest.approx(5 * g.dx)


@pytest.mark.parametrize("dims", [1, 2])
def test_key_reach_is_the_largest_mode_component(dims):
    rng = np.random.default_rng(dims)
    g = GridSpec(dims, 32)
    resolved = np.arange(g.n_per_dim) - g.n_per_dim // 2  # Nyquist included
    for hi in (0, 1, 5, 15, 16):
        for _ in range(20):
            count = int(rng.integers(1, 12))
            modes = rng.integers(-hi, min(hi, 15) + 1, size=(dims, count))
            keys = np.unique(mode_to_key(g, np.clip(modes, resolved[0], resolved[-1])))
            want = min(int(np.abs(key_to_mode(g, keys)).max()), 15)  # Nyquist counts as 15
            assert key_reach(g, keys) == want
            # the open-box keys leave every Nyquist key out, and so does
            # their reach
            keep, reach = open_support(g, keys)
            inside = keys[in_open_box(g, keys)]
            assert np.array_equal(keys if keep is None else keys[keep], inside)
            assert reach == (int(np.abs(key_to_mode(g, inside)).max()) if inside.size else 0)
    assert key_reach(g, np.empty(0, np.int64)) == 0
    assert open_support(g, np.empty(0, np.int64)) == (None, 0)


def test_transform_size_is_the_smallest_alias_free_grid():
    smooth = [2**a * 3**b for a in range(12) for b in range(8)]
    for n in (4, 8, 16, 64, 128, 1024):
        g = GridSpec(1, n)
        for reach in range(0, n - 1):
            size, k = transform_size(g, reach)
            assert k == min(reach, n // 2 - 1)
            want = min(p for p in smooth if p >= reach + k + 1)
            assert size == min(want, 3 * n // 2)
        # operands that fill the box get the 3/2 rule's grid
        if n >= 8:
            assert transform_size(g, n - 2) == (g.n_padded, n // 2 - 1)
    assert transform_size(GridSpec(2, 128), 22) == (48, 22)


@pytest.mark.parametrize("dims", [1, 2])
def test_box_index_lists_the_box_in_key_order(dims):
    g = GridSpec(dims, 16)
    for k in (0, 3, 7):
        keys = box_index(g, k)
        modes = key_to_mode(g, keys)
        assert keys.size == (2 * k + 1) ** dims
        assert np.all(np.diff(keys) > 0) and np.abs(modes).max() == k
        assert not keys.flags.writeable
    # the full box is the open box
    keys = box_index(g, g.box_edge)
    every = np.arange((2 * g.n_per_dim) ** dims)
    assert np.array_equal(keys, every[in_open_box(g, every)])


@pytest.mark.parametrize("dims", [1, 2])
def test_half_grid_holds_the_box_of_a_real_transform(dims):
    # a real field's spectrum, read from its rfftn half: the entries with
    # m_last >= 0 where half_index places them, and the whole box by
    # read_box, the rest as conjugates of their negations, in key order and
    # on the grid's own FFT layout
    g = GridSpec(dims, 16)
    rng = np.random.default_rng(dims)
    for k, n_out in ((0, 1), (3, 7), (3, 9), (7, 16), (7, 24)):
        field = rng.standard_normal((n_out,) * dims)
        full = np.fft.fftn(field).ravel()
        half = np.fft.rfftn(field)
        keys = box_index(g, k)
        index = np.ravel_multi_index(tuple(np.mod(key_to_mode(g, keys), n_out)), field.shape)
        keep, placed = half_index(g, keys, n_out)
        assert np.array_equal(keep, key_to_mode(g, keys)[-1] >= 0)
        assert np.allclose(half.ravel()[placed], full[index[keep]], rtol=0, atol=1e-12)
        got = read_box(half[None], n_out, k, 0)[0].ravel()
        assert np.allclose(got, full[index], rtol=0, atol=1e-12)
        assert np.array_equal(got, np.conj(got[::-1]))  # exactly Hermitian
        dense = np.zeros(g.n_total, dtype=complex)
        dense[mode_to_fft_index(g, key_to_mode(g, keys))] = got
        assert np.array_equal(read_box(half[None], n_out, k, g.n_per_dim)[0].ravel(), dense)


def layout_modes(points: int, k: int) -> np.ndarray:
    """The mode at each index along one axis of a ``points``-point FFT
    layout, or with ``points`` 0 of the box ``|m| <= k`` in key order."""
    if points == 0:
        return np.arange(-k, k + 1)
    index = np.arange(points)
    return np.where(index < (points + 1) // 2, index, index - points)


@pytest.mark.parametrize("dims", [1, 2])
def test_box_blocks_tile_the_box_and_read_negations(dims):
    # on every layout each mode of the box lies in exactly one block, a
    # block is half when all its modes have m_last >= 0, and its negated
    # slices, given for exactly the blocks outside the canonical half-space,
    # read the negated modes in the block's order, on the half grid
    for n in (4, 16):
        for k in range(n // 2):
            for size in sorted({0, 2 * k + 1, 2 * k + 2, n, 3 * n // 2}):
                axis = layout_modes(size, k)
                mesh = np.stack(np.meshgrid(*[axis] * dims, indexing="ij"))
                every = (slice(None),)
                seen = np.zeros(mesh.shape[1:], dtype=int)
                for block in box_blocks(dims, k, size):
                    modes = mesh[every + block.at]
                    assert modes.size and np.abs(modes).max() <= k
                    seen[block.at] += 1
                    assert block.half == bool(np.all(modes[-1] >= 0))
                    if block.half and size:
                        assert np.arange(size)[block.at[-1]].max() <= size // 2
                    folded = (modes[-1] < 0) | ((modes[-1] == 0) & (modes[0] < 0))
                    if block.negated is None:
                        assert not folded.any()
                        continue
                    assert folded.all()
                    assert np.array_equal(mesh[every + block.negated], -modes)
                    if size:
                        assert np.arange(size)[block.negated[-1]].max() <= size // 2
                assert np.array_equal(seen, np.all(np.abs(mesh) <= k, axis=0))

