"""Benchmark: sparse against dense step cost on three recipe workloads.

    python3 perfbench/run.py --workload burgers_n1024 --seed 0 --seconds 40 --trace 0

One invocation is one fresh single-threaded process.  It drives bundled
recipes through the public stepping API (``initial_condition``,
``iter_states``, ``iter_dense_states``, ``error_metrics`` and the output
writers) again and again for about ``--seconds``, timing setup, the first
sparse step, the later sparse steps, the dense reference steps and the
writers apart, and checks every driven run.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced runs with runs traced by ``tracer.py`` and reports
the per-layer metrics.  Each metric is printed with its unit and sample
count, then one JSON line of diagnostics (environment, calibration loop,
sparse/dense step ratio, failure reasons), and last one JSON object with
``correct``, ``attempted``, ``failed`` (driven runs) and ``metrics``.

A shared host may slow every process by up to about 1.7x, switching
between speeds within a second and for minutes on end.  So in the
end-to-end pass an interval timer runs a fixed reference slice of work,
which never calls the library, every ``PROBE_GAP_S`` wherever the driven
run is, and the timers leave the slices' time out (:class:`HostProbe`).
Each time metric is reported at the host speed where one slice takes
``REF_NOMINAL_S``: each timed sample is scaled by ``REF_NOMINAL_S`` over
the median time of the slices that ran within it and next to it.  The
unscaled medians are printed on the diagnostics line.

Seed 0 is each recipe exactly as bundled; any other seed circularly shifts
the initial field by whole grid cells drawn from the seed.  The library is
imported from ``src/`` of the checkout this file sits in, never from
anywhere else.  ``selftest.py`` beside this file tests the benchmark.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"

MAX_REL_L2 = 0.05
HERMITIAN_RTOL = 1e-10
MIN_LATER_STEPS = 100  # so that ten samples lie beyond the p90 step time
OUTPUT_REPS = 10  # the writers rerun on the final state, for a steadier median
REF_NOMINAL_S = 1e-3  # reference slice time that the reported times are scaled to
PROBE_GAP_S = 0.01  # interval of the timer that runs the reference slices
NEAR_PROBES = 5  # a sample is also scaled by this many slices each side of it


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str
    n_steps: int | None  # None keeps the recipe's own horizon
    reps: int  # setups, each with its first step, per driven run
    max_fraction: float  # acceptance-5 band on the final retained fraction
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "parabolic_n2048",
            "parabolic_fig2",
            None,
            8,
            0.06,
            "parabolic_fig2 as bundled (N=2048, 2000 steps): n_s 13-19 against a 2048-entry "
            "coefficient, so fixed per-step cost (add, mode decoding, accumulator) shows most",
        ),
        Workload(
            "burgers_n1024",
            "burgers_fig3",
            240,
            8,
            0.20,
            "burgers_fig3, first 240 of 4000 steps (N=1024): convolution is 95% of a step on a "
            "roundoff-dense coefficient; the steady case for convolution path and zero rule",
        ),
        Workload(
            "vorticity2d_n128",
            "vorticity_converge",
            None,
            2,
            0.08,
            "vorticity_converge as bundled (128x128, 80 steps): a 16384-entry initial spectrum "
            "makes step 1 take seconds; covers 2-D indexing, the FFT dense reference, output",
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("first_step_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("dense_step_ms_p50", "ms"),
    ("output_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_rel_l2", "ratio"),
    ("final_n_s", "count"),
)
PER_LAYER = tuple(tr.layer_metric_names()) + (
    ("trace.overhead", "ratio"),
    ("trace.unmeasured_layers", "count"),
)


def load_library():
    """Import ``sparsedyn`` from this checkout's ``src/``; exit 1 if absent."""
    src = ROOT / "src"
    if not (src / "sparsedyn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {src}")
    sys.path.insert(0, str(src))
    import sparsedyn

    if Path(sparsedyn.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: sparsedyn resolved outside {src}")
    return sparsedyn


def tail_percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; refuses unless at least ten
    samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has fewer than 10 beyond it")
    return ordered[max(rank, 1) - 1]


def shift_cells(seed: int, grid) -> tuple[int, ...]:
    """Whole-cell circular shift per axis for a seed; none for seed 0."""
    if seed == 0:
        return (0,) * grid.dims
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.integers(1, grid.n_per_dim, size=grid.dims))


def shifted(u0, cells: tuple[int, ...]):
    """``u0`` moved by ``cells``: every coefficient keeps its magnitude and
    turns by exp(-2 pi i m.s / n), with the phase reduced exactly mod n."""
    if not any(cells):
        return u0
    n = u0.grid.n_per_dim
    turns = sum(m * s for m, s in zip(u0.modes(), cells)) % n
    return u0.apply_mode_factor(np.exp(-2j * np.pi * turns / n))


_REF_SIGNAL = np.random.default_rng(0).standard_normal(2048) + 0j


def reference_slice() -> None:
    """Fixed work that mixes interpreted Python with small numpy calls, as a
    step does, without calling the library; its time tracks host speed."""
    tally: dict[int, int] = {}
    for i in range(1500):
        tally[i % 97] = tally.get(i % 97, 0) + i
    for _ in range(4):
        y = np.fft.ifft(np.fft.fft(_REF_SIGNAL) * 0.5)
        y[np.abs(y) > 0.1].sum()


def hermitian_gap(coeffs: np.ndarray) -> float:
    """max |u(k) - conj(u(-k))| over max |u|, in FFT layout.

    Written here rather than taken from the library, so that the gate does
    not rest on the code it checks.
    """
    n = coeffs.shape[0]
    neg = (-np.arange(n)) % n
    mirrored = np.conj(coeffs[np.ix_(*[neg] * coeffs.ndim)])
    scale = float(np.max(np.abs(coeffs))) or 1.0
    return float(np.max(np.abs(coeffs - mirrored))) / scale


class HostProbe:
    """Reference slices run on an interval timer, wherever the run is.

    :meth:`clock` stands still while a slice runs, so a time taken with it
    leaves the slices out.  ``ref_s`` holds each slice's time and ``at`` the
    :meth:`clock` reading when it ran.
    """

    def __init__(self, gap: float = PROBE_GAP_S) -> None:
        self.gap = gap
        self.spent = 0.0
        self.ref_s: list[float] = []
        self.at: list[float] = []
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        while True:  # retry if a slice ran between the two reads
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def slice(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_slice()
        took = time.perf_counter() - t0
        self.at.append(t0 - self.spent)
        self.ref_s.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self) -> HostProbe:
        self._previous = signal.signal(signal.SIGALRM, self.slice)
        self.slice()
        signal.setitimer(signal.ITIMER_REAL, self.gap, self.gap)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Drive:
    """Timings and checks of one driven run (setup through output)."""

    setup_s: list[float] = field(default_factory=list)
    first_step_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    dense_step_s: list[float] = field(default_factory=list)
    output_s: list[float] = field(default_factory=list)
    run_s: float = 0.0
    final_rel_l2: float = math.nan
    final_n_s: int = 0
    failures: list[str] = field(default_factory=list)
    # (start, end) clock readings of each sample, keyed by series
    spans: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    # reference slice times and clock readings, from a HostProbe
    ref_s: list[float] = field(default_factory=list)
    ref_at: list[float] = field(default_factory=list)

    def record(self, key: str, seconds: float, end: float) -> None:
        """Add a sample of ``seconds`` that ended at clock ``end`` to ``key``."""
        getattr(self, key).append(seconds)
        self.spans.setdefault(key, []).append((end - seconds, end))

    @property
    def scale(self) -> float:
        """Factor that takes this whole run's times to the nominal host speed."""
        return REF_NOMINAL_S / statistics.median(self.ref_s)

    def scaled(self, key: str) -> list[float]:
        """The samples of ``key``, each scaled to the nominal host speed by
        the median of the reference slices that ran within it and of the
        ``NEAR_PROBES`` on each side of it."""
        out = []
        for value, (start, end) in zip(getattr(self, key), self.spans.get(key, [])):
            first = bisect.bisect_left(self.ref_at, start)
            last = bisect.bisect_right(self.ref_at, end)
            near = self.ref_s[max(0, first - NEAR_PROBES): last + NEAR_PROBES]
            out.append(value * REF_NOMINAL_S / statistics.median(near))
        return out

    def scaled_run_s(self) -> float:
        """``run_s`` at the nominal host speed: its timed parts scaled as
        :meth:`scaled` does, the untimed rest (checks, reports) by
        :attr:`scale`."""
        raw = scaled = 0.0
        for key in ("step_s", "dense_step_s", "output_s", "setup_s", "first_step_s"):
            # the extra setups, after the first, are not part of run_s
            last = 1 if key in ("setup_s", "first_step_s") else None
            raw += sum(getattr(self, key)[:last])
            scaled += sum(self.scaled(key)[:last])
        return scaled + (self.run_s - raw) * self.scale


def _no_span(name: str):
    return nullcontext()


def _start(sd, config, n_steps, cells, span, clock):
    """Set up one run and take its first sparse step.

    Returns the setup time, the first-step time, both iterators and the
    state after step 1.
    """
    grid = config.grid()
    t0 = clock()
    with span("setup"):
        u0 = sd.initial_condition(config.initial_spec(), grid)
    made = clock() - t0
    with span("shift"):
        u0 = shifted(u0, cells)
    t0 = clock()
    with span("setup"):
        sparse_it = sd.iter_states(
            u0, config.equation_params(), config.schedule(), config.dt, n_steps,
            protect_mean=config.protect_mean, strict_cfl=config.strict_cfl,
        )
        dense_it = sd.iter_dense_states(
            u0.to_dense(), config.equation_params(), config.dt, n_steps,
            strict_cfl=config.strict_cfl,
        )
        next(sparse_it)
        next(dense_it)
    setup = made + clock() - t0
    t0 = clock()
    with span("first_step"):
        state = next(sparse_it)
    return setup, clock() - t0, sparse_it, dense_it, state


def drive(
    sd, workload: Workload, config, seed: int, out_dir: Path, n_steps=None, span=_no_span,
    clock=time.perf_counter,
):
    """One driven run of ``config``; ``span(name)`` marks each phase and
    ``clock`` times them.

    Sparse and dense steps go in lockstep, as ``harness.run`` takes them.
    The ``workload.reps - 1`` extra setups, each with its first step, are
    spread over the steps so that their samples spread over the run; their
    time is left out of ``run_s``.
    """
    grid = config.grid()
    n_steps = n_steps or workload.n_steps or config.n_steps()
    cells = shift_cells(seed, grid)
    out = Drive()
    start = clock()
    setup, first, sparse_it, dense_it, state = _start(sd, config, n_steps, cells, span, clock)
    now = clock()
    out.record("setup_s", setup, now - first)
    out.record("first_step_s", first, now)
    extras = {k * n_steps // workload.reps for k in range(1, workload.reps)}
    extra_s = 0.0
    states = [state]
    for step in range(1, n_steps + 1):
        if step in extras:
            t0 = clock()
            setup, first, *iterators, _ = _start(sd, config, n_steps, cells, span, clock)
            now = clock()
            for it in iterators:
                it.close()
            out.record("setup_s", setup, now - first)
            out.record("first_step_s", first, now)
            extra_s += clock() - t0
        if step > 1:
            t0 = clock()
            with span("sparse_step"):
                state = next(sparse_it)
            now = clock()
            out.record("step_s", now - t0, now)
            states.append(state)
        t0 = clock()
        with span("dense_step"):
            dense = next(dense_it)
        now = clock()
        out.record("dense_step_s", now - t0, now)

    final = state.current
    with span("check"):
        for s in states:
            if not np.all(np.isfinite(s.current.values)):
                out.failures.append(f"non-finite sparse value at step {s.step_index}")
                break
        records = [
            sd.StepRecord(
                step=s.step_index, time=s.time, n_s=s.current.n_s,
                sparsity_fraction=s.current.n_s / grid.n_total,
                l2_error=None, linf_error=None, mean=s.current.mean_mode(),
            )
            for s in states
        ]
        l2, linf = sd.error_metrics(final, dense)
        zero = sd.DenseSpectrum(grid, np.zeros(grid.shape, complex))
        norm, _ = sd.error_metrics(dense, zero)
        records[-1].l2_error, records[-1].linf_error = l2, linf
        out.final_rel_l2 = l2 / norm
        out.final_n_s = final.n_s
        gap = hermitian_gap(final.to_dense().coeffs)
        if not gap <= HERMITIAN_RTOL:
            out.failures.append(f"final state not Hermitian (gap {gap:.2e})")
        if not out.final_rel_l2 <= MAX_REL_L2:
            out.failures.append(f"final_rel_l2 {out.final_rel_l2:.4g} > {MAX_REL_L2}")
        fraction = final.n_s / grid.n_total
        if not fraction <= workload.max_fraction:
            out.failures.append(f"final fraction {fraction:.4g} > {workload.max_fraction}")
    report = sd.RunReport(config.equation, grid, config.dt, config.lambda_rule(), records)

    out_dir.mkdir(parents=True, exist_ok=True)
    for _ in range(OUTPUT_REPS):
        t0 = clock()
        with span("output"):
            sd.dump_spectrum(final, str(out_dir / "spectrum_final.txt"))
            sd.harness.write_field_csv(final, out_dir / "field_final.csv")
            sd.harness.write_report_csv(report, out_dir / "report.csv")
        now = clock()
        out.record("output_s", now - t0, now)
    out.run_s = clock() - start - extra_s
    return out


def attempt(sd, workload, config, seed, out_dir, span=_no_span, probe=False) -> Drive:
    """:func:`drive`, with an exception recorded as a failure; with
    ``probe``, under a :class:`HostProbe` whose slices it keeps."""
    try:
        if not probe:
            return drive(sd, workload, config, seed, out_dir, span=span)
        with HostProbe() as host:
            out = drive(sd, workload, config, seed, out_dir, span=span, clock=host.clock)
        out.ref_s, out.ref_at = host.ref_s, host.at
        return out
    except Exception:  # noqa: BLE001 - the run must report, not die
        failed = Drive()
        failed.failures.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        return failed


def drive_for(sd, workload, config, seed, seconds, out_dir) -> list[Drive]:
    """Probed driven runs for about ``seconds``: no run starts that would
    end past them once enough later steps are timed.  Stops at the first
    failure."""
    clock = time.perf_counter
    start = clock()
    drives: list[Drive] = []
    while True:
        t0 = clock()
        drives.append(attempt(sd, workload, config, seed, out_dir, probe=True))
        if drives[-1].failures:
            break
        later = sum(len(d.step_s) for d in drives)
        if later >= MIN_LATER_STEPS and clock() - start + (clock() - t0) > seconds:
            break
    return drives


def timings(drives: list[Drive], scaled: bool = True) -> dict:
    """The time metrics over ``drives``, scaled to the nominal host speed
    (each sample by the slices near it, ``run_s`` by its whole run's) unless
    ``scaled`` is false."""
    pooled = {
        key: [v for d in drives for v in (d.scaled(key) if scaled else getattr(d, key))]
        for key in ("setup_s", "first_step_s", "step_s", "dense_step_s", "output_s")
    }
    step_ms = [1e3 * v for v in pooled["step_s"]]
    return {
        "setup_s": statistics.median(pooled["setup_s"]),
        "first_step_s": statistics.median(pooled["first_step_s"]),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": tail_percentile(step_ms, 90),
        "dense_step_ms_p50": 1e3 * statistics.median(pooled["dense_step_s"]),
        "output_s": statistics.median(pooled["output_s"]),
        "run_s": statistics.median(d.scaled_run_s() if scaled else d.run_s for d in drives),
    }


def end_to_end(drives: list[Drive]) -> tuple[dict, dict]:
    """End-to-end metrics over the passing runs, and their sample counts."""
    ok = [d for d in drives if not d.failures]
    pooled = {
        key: sum(len(getattr(d, key)) for d in ok)
        for key in ("setup_s", "first_step_s", "step_s", "dense_step_s", "output_s")
    }
    values = timings(ok)
    values.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_rel_l2": statistics.median(d.final_rel_l2 for d in ok),
        "final_n_s": statistics.median(d.final_n_s for d in ok),
    })
    samples = {
        "setup_s": pooled["setup_s"],
        "first_step_s": pooled["first_step_s"],
        "step_ms_p50": pooled["step_s"],
        "step_ms_p90": pooled["step_s"],
        "dense_step_ms_p50": pooled["dense_step_s"],
        "output_s": pooled["output_s"],
    }
    samples.update({k: len(ok) for k, _ in END_TO_END if k not in samples})
    return values, samples


def traced_layers(sd, workload, config, seed, seconds, out_dir):
    """Untraced and traced driven runs in turn for about ``seconds``.

    Returns the per-layer metrics, every driven run, and the names of the
    unmeasured layers.  Alternating the two keeps the tracing overhead,
    traced ``run_s`` over untraced ``run_s``, clear of drifts in machine
    speed.
    """
    clock = time.perf_counter
    tracer = tr.Tracer()
    untraced: list[Drive] = []
    traced: list[Drive] = []
    broken: set[str] = set()
    start = clock()
    while True:
        t0 = clock()
        untraced.append(attempt(sd, workload, config, seed, out_dir))
        installed = tr.install(tracer)
        try:
            traced.append(attempt(sd, workload, config, seed, out_dir, tracer.span))
        finally:
            installed.restore()
        broken |= installed.broken_counts
        runs = untraced + traced
        if any(d.failures for d in runs) or clock() - start + (clock() - t0) > seconds:
            break
    metrics = tr.layer_report(tracer, installed.unmeasured, broken, len(traced))
    if not any(d.failures for d in runs):
        metrics["trace.overhead"] = statistics.median(d.run_s for d in traced) / statistics.median(
            d.run_s for d in untraced
        )
    metrics["trace.unmeasured_layers"] = len(installed.unmeasured)
    return metrics, runs, installed.unmeasured


def calibration_us() -> float:
    """Median time of one 4096-point FFT over a fixed loop (diagnostic)."""
    x = np.random.default_rng(0).standard_normal(4096)
    batches = []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(200):
            np.fft.fft(x)
        batches.append((time.perf_counter() - t0) / 200 * 1e6)
    return statistics.median(batches)


def environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sd = load_library()
    workload = WORKLOADS[args.workload]
    config = sd.load_recipe(workload.recipe)
    diagnostics = {"workload": workload.name, "seed": args.seed, "env": environment()}
    diagnostics["calibration_fft4096_us"] = calibration_us()

    out_dir = OUT_ROOT / f"run-{os.getpid()}"
    try:
        if args.trace:
            metrics, runs, unmeasured = traced_layers(
                sd, workload, config, args.seed, args.seconds, out_dir
            )
            diagnostics["unmeasured_layers"] = unmeasured
            units = PER_LAYER
        else:
            runs = drive_for(sd, workload, config, args.seed, args.seconds, out_dir)
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if OUT_ROOT.is_dir() and not any(OUT_ROOT.iterdir()):
            OUT_ROOT.rmdir()

    failed = [d for d in runs if d.failures]
    diagnostics["ops_failed"] = len(failed) / len(runs)
    diagnostics["failures"] = [reason for d in failed for reason in d.failures]
    if not args.trace:
        if len(failed) == len(runs):
            print(json.dumps(diagnostics), file=sys.stderr)
            return 1
        metrics, diagnostics["samples"] = end_to_end(runs)
        passed = [d for d in runs if not d.failures]
        diagnostics["ref_slice_ms_p50"] = 1e3 * statistics.median(
            v for d in passed for v in d.ref_s
        )
        diagnostics["unscaled"] = timings(passed, scaled=False)
        diagnostics["sparse_dense_ratio"] = metrics["step_ms_p50"] / metrics["dense_step_ms_p50"]

    samples = diagnostics.get("samples", {})
    for name, unit in units:
        value = metrics.get(name)
        shown = "none" if value is None else f"{value:.6g}"
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"{workload.name} {name} {shown} {unit}{count}")
    if not args.trace:
        print(f"{workload.name} sparse/dense step ratio {diagnostics['sparse_dense_ratio']:.3g}")
    print(f"{workload.name} ops_failed {diagnostics['ops_failed']:.3g} of {len(runs)} runs")
    print(json.dumps(diagnostics))
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        # unmeasured layers read 0 here; the diagnostics line names them
        "metrics": {
            name: {"value": metrics.get(name) or 0, "unit": unit} for name, unit in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
