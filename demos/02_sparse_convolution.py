"""Convolving directly on sparse coefficient sets.

Quadratic terms and variable coefficients need convolutions in the
coefficient domain.  When only n_s coefficients are alive, pairing entries
costs O(n_s^2), which beats transforming back and forth through the full
grid once n_s^2 is small next to N log N.
"""

import time

import numpy as np

from sparsedyn import GridSpec, SparseSpectrum, dense_convolve, sparse_convolve

grid = GridSpec(1, 4096)
rng = np.random.default_rng(1)

# convolving with the delta at k=0 is the identity
delta = SparseSpectrum.from_dict(grid, {0: 1.0})
other = SparseSpectrum.from_dict(grid, {-7: 2.0 + 1j, 4: 0.5})
assert sparse_convolve(delta, other).to_dict() == other.to_dict()
print("delta identity holds")

# random sparse pair: the entry-pair kernel agrees with the padded-FFT path
def random_sparse(n_s):
    modes = rng.choice(np.arange(-2047, 2048), size=n_s, replace=False)
    vals = rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
    return SparseSpectrum.from_dict(grid, dict(zip((int(m) for m in modes), vals)))

a, b = random_sparse(16), random_sparse(16)
sparse_result = sparse_convolve(a, b)
dense_result = dense_convolve(a.to_dense().coeffs, b.to_dense().coeffs, grid)
gap = np.max(np.abs(sparse_result.to_dense().coeffs - dense_result))
print(f"agreement with the transform path: {gap:.2e}")

# and it is much cheaper in the sparse regime
for n_s in (8, 16, 64, 256):
    a, b = random_sparse(n_s), random_sparse(n_s)
    ad, bd = a.to_dense().coeffs, b.to_dense().coeffs
    t0 = time.perf_counter()
    for _ in range(20):
        sparse_convolve(a, b)
    t_sparse = (time.perf_counter() - t0) / 20
    t0 = time.perf_counter()
    for _ in range(20):
        dense_convolve(ad, bd, grid)
    t_dense = (time.perf_counter() - t0) / 20
    print(f"n_s={n_s:4d}: sparse {1e6 * t_sparse:7.1f}us   "
          f"transform {1e6 * t_dense:7.1f}us   ({t_dense / t_sparse:5.1f}x)")
