"""Fit the cost constants of the convolution path rule from a timing sweep.

    PYTHONPATH=src python3 scripts/calibrate_convolution.py [--repeats 7] [--json out.json]

``convolve_sum`` sends each sparse product either over entry pairs or
through one padded transform, whichever ``shrinkage._transform_is_cheaper``
prices lower.  This script forces each path in turn over a grid of operand
sizes (rows = entries of the smaller operand, cols = of the larger) on 1-D
N = 512, 1024, 2048 and 2-D 64x64, 128x128 grids, and times the whole call
as the solver makes it, on operands declared real (best of ``--repeats``).
The operands are spectra of real fields, drawn over the whole open box
and, so that small transform grids are timed too, within ``|m| <= r`` for
each ``r`` of ``REACHES``; each call's transform grid has ``P`` points per
dimension, sized to its operands' reach sum (``grid.transform_size``).  It
then fits, by least squares,

    pair time      = alpha * rows * cols + beta * rows + gamma
    transform time = delta * M log2 M + epsilon,   M = P**dims

and states them in units of one pair: ``_ROW_COST = beta / alpha``,
``_TRANSFORM_COST = delta / alpha`` and the transform's fixed cost beyond
the pair path's, ``_TRANSFORM_FIXED = (epsilon - gamma) / alpha``.  Last it
prints, per shape, the faster measured path and the paths the rule chooses
with the library's constants and with the fitted ones, and for each set of
constants the time its choices add over the faster path on every shape.

Run it single-threaded (``OMP_NUM_THREADS=1``) on an otherwise idle core.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time

os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from sparsedyn import GridSpec, SparseSpectrum, shrinkage  # noqa: E402
from sparsedyn.grid import key_reach, transform_size  # noqa: E402

GRIDS = (GridSpec(1, 512), GridSpec(1, 1024), GridSpec(1, 2048), GridSpec(2, 64), GridSpec(2, 128))
ROWS = (1, 4, 16, 64, 256, 1024)
REACHES = (None, 16, 4)  # None: the whole open box |m| <= n/2 - 1


def operand(grid: GridSpec, size: int, reach: int, rng) -> SparseSpectrum:
    """The spectrum of a real field: ``size`` random entries at distinct
    modes ``|m_d| <= reach``, ``size // 2`` of them in the half-space
    ``m > 0`` (in key order) and their conjugates at ``-m``, and the mean
    when ``size`` is odd."""
    side = 2 * reach + 1
    flat = rng.choice(side**grid.dims // 2, size=size // 2, replace=False) + side**grid.dims // 2 + 1
    modes = np.stack(np.unravel_index(flat, (side,) * grid.dims)) - reach
    values = rng.standard_normal(size // 2) + 1j * rng.standard_normal(size // 2)
    modes = np.concatenate([modes, -modes, np.zeros((grid.dims, size % 2), np.int64)], axis=1)
    values = np.concatenate([values, np.conj(values), rng.standard_normal(size % 2)])
    return SparseSpectrum.from_modes(grid, modes, values)


def shapes(grid: GridSpec, reach: int):
    """(rows, cols) pairs up to the size of the box ``|m_d| <= reach``."""
    full = (2 * reach + 1) ** grid.dims
    for rows in ROWS:
        if rows > full:
            continue
        for cols in sorted({rows, min(4 * rows, full), min(16 * rows, full), full}):
            yield rows, cols


def best_time(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def forced(transform: bool, a: SparseSpectrum, b: SparseSpectrum, repeats: int) -> float:
    """Best time of the solver's call ``a * b``, operands declared real,
    with the path forced."""
    rule = shrinkage._transform_is_cheaper
    shrinkage._transform_is_cheaper = lambda *_: transform

    def call():
        shrinkage.convolve_sum(((1.0, a, b),), real=True)

    try:
        call()  # warm the per-grid caches
        return best_time(call, repeats)
    finally:
        shrinkage._transform_is_cheaper = rule


def sweep(repeats: int, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows_out = []
    for grid, reach in ((g, r) for g in GRIDS for r in REACHES):
        reach = grid.box_edge if reach is None else reach
        for rows, cols in shapes(grid, reach):
            a, b = operand(grid, rows, reach, rng), operand(grid, cols, reach, rng)
            size = transform_size(grid, key_reach(grid, a.keys) + key_reach(grid, b.keys))[0]
            m_total = size**grid.dims
            rows_out.append({
                "grid": f"{grid.n_per_dim}^{grid.dims}",
                "dims": grid.dims,
                "n": grid.n_per_dim,
                "reach": reach,
                "size": size,
                "m_log_m": m_total * math.log2(m_total),
                "rows": rows,
                "cols": cols,
                "pair_us": 1e6 * forced(False, a, b, repeats),
                "transform_us": 1e6 * forced(True, a, b, repeats),
            })
    return rows_out


def relative_lstsq(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Least-squares ``c`` in ``x @ c ~ t``, each row weighted by ``1 / t`` so
    that the fit holds in relative terms across decades of call time."""
    return np.linalg.lstsq(x / t[:, None], np.ones(len(t)), rcond=None)[0]


def fit(rows: list[dict]) -> dict:
    """The cost model's coefficients (us) and the rule's constants in units
    of one pair, under their names in ``shrinkage`` (see the module doc)."""
    alpha, beta, gamma = relative_lstsq(
        np.array([[r["rows"] * r["cols"], r["rows"], 1.0] for r in rows]),
        np.array([r["pair_us"] for r in rows]),
    )
    delta, epsilon = relative_lstsq(
        np.array([[r["m_log_m"], 1.0] for r in rows]),
        np.array([r["transform_us"] for r in rows]),
    )
    return {
        "alpha_us_per_pair": alpha,
        "beta_us_per_row": beta,
        "gamma_us": gamma,
        "delta_us_per_m_log_m": delta,
        "epsilon_us": epsilon,
        "_ROW_COST": beta / alpha,
        "_TRANSFORM_COST": delta / alpha,
        "_TRANSFORM_FIXED": (epsilon - gamma) / alpha,
    }


CONSTANTS = ("_ROW_COST", "_TRANSFORM_COST", "_TRANSFORM_FIXED")


def rule_choices(rows: list[dict], constants: dict | None = None) -> list[str]:
    """The path the library's rule takes on each shape, with its own
    constants or with ``constants`` put in their place."""
    saved = {name: getattr(shrinkage, name) for name in CONSTANTS}
    if constants is not None:
        for name in CONSTANTS:
            setattr(shrinkage, name, constants[name])
    try:
        return [
            "transform" if shrinkage._transform_is_cheaper(
                GridSpec(r["dims"], r["n"]), r["rows"], r["cols"], r["size"]) else "pairs"
            for r in rows
        ]
    finally:
        for name, value in saved.items():
            setattr(shrinkage, name, value)


def excess(rows: list[dict], choices: list[str]) -> dict:
    """Time of the chosen paths over that of the faster ones: in total, on
    the worst shape, and the number of shapes where they differ."""
    chosen = [r["transform_us" if c == "transform" else "pair_us"] for r, c in zip(rows, choices)]
    best = [min(r["pair_us"], r["transform_us"]) for r in rows]
    return {
        "total_excess": sum(chosen) / sum(best) - 1.0,
        "worst_ratio": max(c / b for c, b in zip(chosen, best)),
        "misrouted": sum(c != b for c, b in zip(chosen, best)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--json", help="also write the sweep and the fit to this file")
    args = parser.parse_args(argv)

    rows = sweep(args.repeats)
    fitted = fit(rows)
    library = {name: getattr(shrinkage, name) for name in CONSTANTS}
    print(
        f"fit: _ROW_COST = {fitted['_ROW_COST']:.0f}, "
        f"_TRANSFORM_COST = {fitted['_TRANSFORM_COST']:.2f}, "
        f"_TRANSFORM_FIXED = {fitted['_TRANSFORM_FIXED']:.0f} "
        f"(alpha = {1e3 * fitted['alpha_us_per_pair']:.2f} ns/pair)"
    )
    print("library: " + ", ".join(f"{k} = {v}" for k, v in library.items()))
    by_library, by_fit = rule_choices(rows), rule_choices(rows, fitted)
    print(f"{'grid':>7} {'reach':>5} {'P':>5} {'rows':>5} {'cols':>5} {'pairs us':>9} "
          f"{'transf us':>9} {'faster':>9} {'library':>9} {'fit':>9}")
    for r, lib, fit_choice in zip(rows, by_library, by_fit):
        faster = "transform" if r["transform_us"] < r["pair_us"] else "pairs"
        r.update(faster=faster, library=lib, fit=fit_choice)
        flag = "" if faster == lib else "  <"
        print(f"{r['grid']:>7} {r['reach']:5d} {r['size']:5d} {r['rows']:5d} {r['cols']:5d} "
              f"{r['pair_us']:9.1f} {r['transform_us']:9.1f} {faster:>9} {lib:>9} "
              f"{fit_choice:>9}{flag}")
    summary = {"library": excess(rows, by_library), "fit": excess(rows, by_fit)}
    for name, e in summary.items():
        print(f"{name:>7} constants: {e['total_excess']:+.1%} time over the faster path in "
              f"total, worst shape {e['worst_ratio']:.2f}x, {e['misrouted']} of {len(rows)} "
              f"shapes on the slower path")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"fit": fitted, "library": library, "excess": summary, "shapes": rows},
                fh, indent=1,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
