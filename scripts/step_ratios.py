"""Sparse against dense step cost, interleaved in one process.

    PYTHONPATH=src python3 scripts/step_ratios.py [--steps 40] [--repeats 1]

A shared host changes speed by up to about 1.7x, so this script never
compares runs made at different times: each run sets up the sparse run
(``iter_states``) and the dense reference (``iter_dense_states``) from one
initial state and takes their steps in turn, timing each step alone.

It prints three tables.  The first covers the four headline recipes, as
bundled: the sparse first step, the medians of the later sparse and dense
steps (after step ``SETTLE``) and their ratio, the same for the means (a
mean also carries the rare steps that build a pair plan or change layout),
the steps the sparse run took in FFT layout, the pair plans it built (the
entry-pair indexes its coefficient keeps for the latest state support, see
``shrinkage.convolve_sum``), the entry-pair calls that sum in the box of
digit sums without a plan (``shrinkage._pair_convolve``) per later sparse
step, the minor page faults per later sparse and
dense step (the heap's growth and trims show there: ``ru_minflt`` of this
process, read around each step), the numpy transform calls, the key
placements (``half_index`` calls, once per spectrum and part in each
padded product, which place a sparse spectrum's keys on the padded grid)
and the factor operands made as spectra of their own (``HeldField.entries``
calls of an operand with a factor, which only the entry-pair path makes)
per later sparse and dense step, and the final
retained fraction and relative L2 error against the dense run.  The second covers the
refinement problems at ``N = 2^10 .. 2^17``: ``parabolic_fig2`` refined
with ``dt`` scaled as ``dx^2`` and ``convection_fig1`` with ``dt`` scaled
as ``dx``, with the coefficient's and the final state's ``n_s``, the
pair plans built and the box calls per later sparse step.  The third
covers ``vorticity_converge`` on ``n^2`` grids, ``n = 128 .. 1024``, with ``dt``
as bundled: the setup of the sparse run (``initial_condition`` and the
inputs of ``iter_states``), its first and later steps, the dense step
interleaved up to ``DENSE_2D_MAX``, the minor page faults, transform
calls, key placements and factor operands made per later sparse and
dense step, ``n_s`` at steps 0 and
last, and the peak RSS of the same sparse run, alone, in a process of its
own.
``--steps`` caps every run (the headline recipes run ``HEADLINE_STEPS``
by default, the refinement problems ``REFINE_STEPS`` and
``REFINE_2D_STEPS``); ``--repeats`` runs each problem that many times and
prints every run.

Run it single-threaded (the script sets ``OMP_NUM_THREADS=1`` unless it
is set) on an otherwise idle core.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace

os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from sparsedyn import (  # noqa: E402
    DenseSpectrum,
    SparseSpectrum,
    error_metrics,
    shrinkage,
    solvers,
    spectral,
)
from sparsedyn.coefficients import coefficient_field_of  # noqa: E402
from sparsedyn.evaluation import iter_dense_states  # noqa: E402
from sparsedyn.harness import load_recipe  # noqa: E402
from sparsedyn.spectral import HeldField  # noqa: E402

HEADLINE_STEPS = {
    "convection_fig1": 500,
    "parabolic_fig2": 2000,
    "burgers_fig3": 1500,
    "vorticity_fig4": 40,
}
REFINE_STEPS = 60
REFINE_EXPONENTS = (10, 13, 15, 17)
REFINE_2D_STEPS = 20
REFINE_2D_SIZES = (128, 256, 512, 1024)
DENSE_2D_MAX = 512  # the dense step takes about 0.4 s at 1024^2
SETTLE = 5  # steps left out of the later-step medians
TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


class _LayoutCount:
    """Counts the sparse steps that :func:`solvers._fft_layout` sends to FFT layout."""

    def __init__(self) -> None:
        self.rule = solvers._fft_layout
        self.steps = 0

    def __call__(self, *args) -> bool:
        chosen = self.rule(*args)
        self.steps += chosen
        return chosen


class _PlanCount:
    """Counts the pair plans :func:`shrinkage._pair_plan` builds."""

    def __init__(self) -> None:
        self.build = shrinkage._pair_plan
        self.plans = 0

    def __call__(self, *args):
        self.plans += 1
        return self.build(*args)


class _CallCount:
    """Counts the calls of the functions ``names`` of each of ``modules``,
    each wrapped in place while it is installed: numpy's transforms,
    ``half_index`` as :mod:`spectral` calls it, which places a sparse
    spectrum's keys on the padded grid."""

    def __init__(self, modules, names) -> None:
        self.originals = {(m, name): getattr(m, name) for m in modules for name in names}
        self.calls = 0

    def install(self) -> None:
        for (module, name), original in self.originals.items():
            setattr(module, name, self._counted(original))

    def restore(self) -> None:
        for (module, name), original in self.originals.items():
            setattr(module, name, original)

    def _counted(self, original):
        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        return counted


class _MadeCount(_CallCount):
    """Counts the factor operands made as the spectra they stand for: the
    calls of ``HeldField.entries`` on an operand with a factor."""

    def __init__(self) -> None:
        super().__init__([HeldField], ("entries",))

    def _counted(self, original):
        def counted(held):
            self.calls += held.factor is not None
            return original(held)

        return counted


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def interleaved(config, n_steps: int, dense: bool = True) -> dict:
    """Set up the sparse run of ``config`` and step it and, with ``dense``,
    the dense reference in turn."""
    grid = config.grid()
    params = config.equation_params()
    count, plans = _LayoutCount(), _PlanCount()
    solvers._fft_layout, shrinkage._pair_plan = count, plans
    counters = (
        _CallCount([np.fft], TRANSFORMS),
        _CallCount([spectral], ("half_index",)),
        _MadeCount(),
        _CallCount([shrinkage], ("_pair_convolve",)),
    )
    for counter in counters:
        counter.install()
    # transforms, placements, factor operands made and box calls per step
    tallies = {"sparse": ([], [], [], []), "dense": ([], [], [], [])}

    def tally(side: str, before: list[int]) -> None:
        for counter, got, was in zip(counters, tallies[side], before):
            got.append(counter.calls - was)

    try:
        t0 = time.perf_counter()
        initial = solvers.initial_condition(config.initial_spec(), grid)
        sparse = solvers.iter_states(
            initial, params, config.schedule(), config.dt, n_steps, config.protect_mean
        )
        next(sparse)
        setup_s = time.perf_counter() - t0
        if dense:
            reference_run = iter_dense_states(initial.to_dense(), params, config.dt, n_steps)
            next(reference_run)
        sparse_s, dense_s, sparse_faults, dense_faults = [], [], [], []
        for _ in range(n_steps):
            calls = [counter.calls for counter in counters]
            faults = minor_faults()
            t0 = time.perf_counter()
            state = next(sparse)
            sparse_s.append(time.perf_counter() - t0)
            sparse_faults.append(minor_faults() - faults)
            tally("sparse", calls)
            if dense:
                calls = [counter.calls for counter in counters]
                faults = minor_faults()
                t0 = time.perf_counter()
                reference = next(reference_run)
                dense_s.append(time.perf_counter() - t0)
                dense_faults.append(minor_faults() - faults)
                tally("dense", calls)
    finally:
        solvers._fft_layout, shrinkage._pair_plan = count.rule, plans.build
        for counter in counters:
            counter.restore()
    later = slice(min(SETTLE, n_steps - 1), None)
    out = {
        "setup_ms": 1e3 * setup_s,
        "first_ms": 1e3 * sparse_s[0],
        "sparse_ms": 1e3 * statistics.median(sparse_s[later]),
        "sparse_mean_ms": 1e3 * statistics.mean(sparse_s[later]),
        "plans": plans.plans,
        "sparse_boxes": statistics.mean(tallies["sparse"][3][later]),
        "sparse_faults": statistics.mean(sparse_faults[later]),
        "sparse_transforms": statistics.mean(tallies["sparse"][0][later]),
        "sparse_placements": statistics.mean(tallies["sparse"][1][later]),
        "sparse_products": statistics.mean(tallies["sparse"][2][later]),
        "fft_steps": count.steps,
        "n_s0": initial.n_s,
        "n_s": state.current.n_s,
        "fraction": state.current.n_s / grid.n_total,
    }
    if dense:
        l2, _ = error_metrics(state.current, reference)
        norm, _ = error_metrics(reference, DenseSpectrum(grid, np.zeros(grid.shape, complex)))
        out["dense_ms"] = 1e3 * statistics.median(dense_s[later])
        out["dense_mean_ms"] = 1e3 * statistics.mean(dense_s[later])
        out["dense_faults"] = statistics.mean(dense_faults[later])
        out["dense_transforms"] = statistics.mean(tallies["dense"][0][later])
        out["dense_placements"] = statistics.mean(tallies["dense"][1][later])
        out["dense_products"] = statistics.mean(tallies["dense"][2][later])
        out["rel_l2"] = l2 / norm if norm else float("nan")
    return out


def refined(recipe: str, exponent: int, dt_order: int):
    """``recipe`` on ``N = 2**exponent`` points, ``dt`` scaled as ``dx**dt_order``."""
    config = load_recipe(recipe)
    n = 2**exponent
    return replace(config, n_per_dim=n, dt=config.dt * (config.n_per_dim / n) ** dt_order)


def vorticity_on(n: int):
    """``vorticity_converge`` on an ``n^2`` grid, ``dt`` as bundled."""
    return replace(load_recipe("vorticity_converge"), n_per_dim=n)


def peak_rss_mb() -> float:
    """This process's peak resident set size since it started this program
    (``VmHWM``, Linux).  ``ru_maxrss`` would also count the process it was
    spawned from: the kernel carries it across ``exec``."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def alone(n: int, n_steps: int) -> dict:
    """The sparse run of :func:`vorticity_on` ``(n)`` in a process of its
    own (this script with ``--alone``), with that process's peak RSS."""
    command = [sys.executable, __file__, "--alone", str(n), "--steps", str(n_steps)]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=None, help="cap on the steps of every run")
    parser.add_argument("--repeats", type=int, default=1, help="runs of each problem")
    parser.add_argument(
        "--alone", type=int, metavar="N",
        help="only run vorticity_converge sparse on N^2 points, and print it as JSON with "
        "this process's peak RSS",
    )
    args = parser.parse_args(argv)
    if args.alone:
        r = interleaved(vorticity_on(args.alone), min(REFINE_2D_STEPS, args.steps or REFINE_2D_STEPS),
                        dense=False)
        r["rss_mb"] = peak_rss_mb()
        print(json.dumps(r))
        return
    cap = args.steps or max(max(HEADLINE_STEPS.values()), REFINE_STEPS, REFINE_2D_STEPS)

    print("headline recipes (ms per step after step "
          f"{SETTLE}, median and mean; fft = steps in FFT layout; plans = pair plans built; "
          "box = entry-pair calls without a plan per later step; "
          "flt, trf, plc, prd = minor page faults, numpy transform calls, key placements "
          "and factor operands made (for entry pairs) per later step)")
    print(f"{'recipe':<18}{'steps':>6}{'first':>8}{'sparse':>9}{'dense':>9}{'ratio':>7}"
          f"{'mean sp':>9}{'mean de':>9}{'ratio':>7}{'fft':>6}{'plans':>6}{'box':>6}"
          f"{'flt sp':>8}{'flt de':>8}{'trf sp':>8}{'trf de':>8}{'plc sp':>8}{'plc de':>8}"
          f"{'prd sp':>8}{'prd de':>8}{'frac':>8}{'rel L2':>11}")
    for recipe, steps in HEADLINE_STEPS.items():
        config = load_recipe(recipe)
        n_steps = min(steps, cap, config.n_steps())
        for _ in range(args.repeats):
            r = interleaved(config, n_steps)
            print(f"{recipe:<18}{n_steps:>6}{r['first_ms']:>8.2f}{r['sparse_ms']:>9.3f}"
                  f"{r['dense_ms']:>9.3f}{r['sparse_ms'] / r['dense_ms']:>7.2f}"
                  f"{r['sparse_mean_ms']:>9.3f}{r['dense_mean_ms']:>9.3f}"
                  f"{r['sparse_mean_ms'] / r['dense_mean_ms']:>7.2f}{r['fft_steps']:>6}"
                  f"{r['plans']:>6}{r['sparse_boxes']:>6.2f}"
                  f"{r['sparse_faults']:>8.1f}{r['dense_faults']:>8.1f}"
                  f"{r['sparse_transforms']:>8.2f}{r['dense_transforms']:>8.2f}"
                  f"{r['sparse_placements']:>8.2f}{r['dense_placements']:>8.2f}"
                  f"{r['sparse_products']:>8.2f}{r['dense_products']:>8.2f}"
                  f"{100 * r['fraction']:>7.1f}%{r['rel_l2']:>11.4e}",
                  flush=True)

    print()
    print("refinement at fixed n_s (ms per step, interleaved; coeff/state = n_s; "
          "box = entry-pair calls without a plan per later step)")
    print(f"{'problem':<26}{'N':>8}{'steps':>6}{'coeff/state':>13}{'sparse':>9}{'dense':>9}"
          f"{'ratio':>7}{'fft':>6}{'plans':>6}{'box':>6}")
    for recipe, order in (("parabolic_fig2", 2), ("convection_fig1", 1)):
        for exponent in REFINE_EXPONENTS:
            config = refined(recipe, exponent, order)
            n_steps = min(REFINE_STEPS, cap)
            coeff = SparseSpectrum.from_dense(
                coefficient_field_of(config.equation_params().coeff, config.grid())
            )
            for _ in range(args.repeats):
                r = interleaved(config, n_steps)
                supports = f"{coeff.n_s}/{r['n_s']}"
                print(f"{recipe + f' dt~dx^{order}':<26}{2**exponent:>8}{n_steps:>6}{supports:>13}"
                      f"{r['sparse_ms']:>9.3f}{r['dense_ms']:>9.3f}"
                      f"{r['sparse_ms'] / r['dense_ms']:>7.2f}{r['fft_steps']:>6}{r['plans']:>6}"
                      f"{r['sparse_boxes']:>6.2f}",
                      flush=True)

    print()
    print("vorticity_converge on n^2 points (ms; setup = initial_condition and the run's "
          f"inputs; dense interleaved up to {DENSE_2D_MAX}^2; flt, trf, plc, prd = minor "
          "page faults, numpy transform calls, key placements and factor operands made "
          "per later step; RSS of the sparse run alone)")
    print(f"{'n^2':>7}{'steps':>6}{'setup':>8}{'first':>8}{'sparse':>9}{'dense':>9}{'ratio':>7}"
          f"{'flt sp':>8}{'flt de':>8}{'trf sp':>8}{'trf de':>8}{'plc sp':>8}{'plc de':>8}"
          f"{'prd sp':>8}{'prd de':>8}{'n_s 0/last':>12}{'RSS MB':>8}")
    n_steps = min(REFINE_2D_STEPS, cap)
    for n in REFINE_2D_SIZES:
        for _ in range(args.repeats):
            r = interleaved(vorticity_on(n), n_steps, dense=n <= DENSE_2D_MAX)
            dense = (f"{r['dense_ms']:>9.3f}{r['sparse_ms'] / r['dense_ms']:>7.2f}"
                     if "dense_ms" in r else f"{'-':>9}{'-':>7}")
            counts = ""
            for key, form in (("faults", ".1f"), ("transforms", ".2f"), ("placements", ".2f"),
                              ("products", ".2f")):
                counts += f"{r['sparse_' + key]:>8{form}}"
                counts += f"{r['dense_' + key]:>8{form}}" if "dense_ms" in r else f"{'-':>8}"
            supports = f"{r['n_s0']}/{r['n_s']}"
            print(f"{f'{n}^2':>7}{n_steps:>6}{r['setup_ms']:>8.2f}{r['first_ms']:>8.2f}"
                  f"{r['sparse_ms']:>9.3f}{dense}{counts}{supports:>12}"
                  f"{alone(n, n_steps)['rss_mb']:>8.1f}", flush=True)


if __name__ == "__main__":
    main()
