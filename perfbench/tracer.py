"""Outside-in layer tracer for the benchmark.

Each traced layer is a public function of ``sparsedyn``.  The tracer
replaces it at the binding its caller looks up (a module global such as
``sparsedyn.solvers.sparse_convolve``, or a class attribute such as
``SparseSpectrum.__add__``) with a wrapper that records a span and the
layer's work counts, and puts every original back afterwards.  A layer
whose binding no longer exists is reported as unmeasured instead of
failing, so the table survives refactors of the library.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Kept entries smaller than this share of the largest are FFT roundoff.
ROUNDOFF_SHARE = 1e-14

# Phases (root spans) whose time is the sparse stepping the paper costs.
SPARSE_PHASES = ("first_step", "sparse_step")


class Tracer:
    """Spans kept in parallel lists: name, start, end, parent index."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open = [-1]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Spans come from one thread, so the children of a span never overlap
        and the time they cover is the sum of their durations.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        out = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= durations[index]
        return out

    def roots(self) -> list[int]:
        """Index of each span's root (phase) span."""
        root = list(range(len(self.names)))
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                root[index] = root[parent]  # parents are recorded before children
        return root


# Work-count functions: (counter, args, result) -> None; they run inside the
# layer's span, so their cost lands on the layer they describe.


def _count_convolve(c, args, out):
    a, b = args[0], args[1]
    c["pairs"] += a.n_s * b.n_s
    c["out_entries"] += out.n_s
    c["cells"] += (2 * a.grid.n_per_dim) ** a.grid.dims


def _count_add(c, args, out):
    c["in_entries"] += args[0].n_s + args[1].n_s


def _count_mode_factor(c, args, out):
    c["entries"] += args[0].n_s


def _count_shrink(c, args, out):
    c["in_entries"] += args[0].n_s
    c["kept_entries"] += out.n_s


def _count_from_dense(c, args, out):
    c["in_entries"] += args[1].coeffs.size  # args[0] is the class
    c["kept_entries"] += out.n_s
    if out.n_s:
        mags = np.abs(out.values)
        c["roundoff_entries"] += int(np.count_nonzero(mags < ROUNDOFF_SHARE * mags.max()))


def _count_bytes(c, args, out):
    c["bytes"] += os.path.getsize(args[1])


@dataclass(frozen=True)
class Layer:
    """A traced layer: its name, the bindings callers look it up by
    (``(module, "attr")`` or ``(module, "Class.attr")``), its work counts
    and the count function that fills them."""

    name: str
    bindings: tuple[tuple[str, str], ...]
    counts: tuple[str, ...] = ()
    count: Callable | None = None
    sparse_path: bool = False  # runs inside a sparse step: report its shares


_PKG, _SHR, _SOL, _EVA, _HAR = (
    "sparsedyn",
    "sparsedyn.shrinkage",
    "sparsedyn.solvers",
    "sparsedyn.evaluation",
    "sparsedyn.harness",
)

# Only bindings that a caller on the benchmarked path looks up are listed:
# if one disappears, that caller now reaches the layer some other way, and
# the layer would be undercounted, so it is reported unmeasured instead.
LAYERS = (
    Layer(
        "shrinkage.sparse_convolve",
        ((_SOL, "sparse_convolve"),),
        ("pairs", "out_entries", "cells"),
        _count_convolve,
        sparse_path=True,
    ),
    Layer(
        "shrinkage.add",
        ((_SHR, "SparseSpectrum.__add__"),),
        ("in_entries",),
        _count_add,
        sparse_path=True,
    ),
    Layer(
        "shrinkage.mode_factor",
        ((_SHR, "SparseSpectrum.apply_mode_factor"), (_SHR, "SparseSpectrum.modes")),
        ("entries",),
        _count_mode_factor,
        sparse_path=True,
    ),
    Layer(
        "shrinkage.soft_threshold",
        ((_SOL, "soft_threshold"),),
        ("in_entries", "kept_entries"),
        _count_shrink,
        sparse_path=True,
    ),
    Layer(
        "shrinkage.from_dense",
        ((_SHR, "SparseSpectrum.from_dense"),),
        ("in_entries", "kept_entries", "roundoff_entries"),
        _count_from_dense,
        sparse_path=True,
    ),
    Layer(
        "solvers.step",
        tuple((_SOL, f"step_{eq}") for eq in ("convection", "parabolic", "burgers", "vorticity")),
        sparse_path=True,
    ),
    Layer("evaluation.dense_convolve", ((_EVA, "dense_convolve"),)),
    Layer("evaluation.error_metrics", ((_PKG, "error_metrics"),)),
    Layer(
        "spectral.dft_forward",
        (("sparsedyn.solvers", "dft_forward"), ("sparsedyn.coefficients", "dft_forward")),
    ),
    Layer("spectral.dft_inverse", ((_EVA, "dft_inverse"), (_HAR, "dft_inverse"))),
    Layer(
        "coefficients.coefficient_field_of",
        ((_SOL, "coefficient_field_of"), (_EVA, "coefficient_field_of")),
    ),
    Layer("harness.write_field_csv", ((_HAR, "write_field_csv"),), ("bytes",), _count_bytes),
    Layer("harness.dump_spectrum", ((_PKG, "dump_spectrum"),), ("bytes",), _count_bytes),
    Layer("harness.write_report_csv", ((_HAR, "write_report_csv"),), ("bytes",), _count_bytes),
)


def _resolve(module_name: str, attr: str):
    """(owner, attribute name, raw attribute) for a binding, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(last)
    return None if raw is None else (owner, last, raw)


def _wrap(tracer: Tracer, layer: Layer, fn: Callable, broken: set) -> Callable:
    name, count = layer.name, layer.count
    counter = tracer.counts[name]

    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
            if count is not None and name not in broken:
                try:
                    count(counter, args, out)
                except (AttributeError, TypeError, IndexError, OSError):
                    broken.add(name)  # the library changed shape under the count
            return out
        finally:
            tracer.end(index)

    traced.__wrapped__ = fn
    return traced


class Installed:
    """The wrappers put in place by :func:`install`; ``restore`` undoes them."""

    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, object]] = []
        self.unmeasured: list[str] = []
        self.broken_counts: set[str] = set()

    def restore(self) -> None:
        while self.replaced:
            owner, attr, raw = self.replaced.pop()
            setattr(owner, attr, raw)


def install(tracer: Tracer, layers=LAYERS) -> Installed:
    """Wrap every binding of every layer whose bindings all still exist."""
    installed = Installed()
    for layer in layers:
        found = [_resolve(m, a) for m, a in layer.bindings]
        if any(f is None for f in found):
            installed.unmeasured.append(layer.name)
            continue
        for owner, attr, raw in found:
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, layer, raw.__func__, installed.broken_counts))
            else:
                wrapped = _wrap(tracer, layer, raw, installed.broken_counts)
            setattr(owner, attr, wrapped)
            installed.replaced.append((owner, attr, raw))
    return installed


def layer_metric_names(layers=LAYERS) -> list[tuple[str, str]]:
    """``(name, unit)`` of every metric :func:`layer_report` gives."""
    out = []
    for layer in layers:
        out += [(f"{layer.name}.calls", "count"), (f"{layer.name}.self_s", "s")]
        out += [(f"{layer.name}.{k}", "B" if k == "bytes" else "count") for k in layer.counts]
        if "kept_entries" in layer.counts:
            out.append((f"{layer.name}.kept_ratio", "ratio"))
        if layer.sparse_path:
            out.append((f"{layer.name}.sparse_share", "ratio"))
    out.append(("shrinkage.sparse_convolve.first_step_share", "ratio"))
    return out


def layer_report(
    tracer: Tracer, unmeasured: list[str], broken_counts: set[str], runs: int, layers=LAYERS
) -> dict:
    """Per-layer metrics as means per driven run, plus time shares.

    ``<layer>.sparse_share`` is the layer's self time inside the sparse
    stepping phases over those phases' total duration;
    ``first_step_share`` the same for the first sparse step only.  An
    unmeasured layer or count, or a share of nothing, maps to ``None``.
    """
    self_t = tracer.self_times()
    roots = tracer.roots()
    phase_total: dict[str, float] = defaultdict(float)
    for index, parent in enumerate(tracer.parents):
        if parent < 0:
            phase_total[tracer.names[index]] += tracer.ends[index] - tracer.starts[index]
    calls: dict[str, int] = defaultdict(int)
    in_phase: dict[tuple[str, str], float] = defaultdict(float)
    for index, name in enumerate(tracer.names):
        calls[name] += 1
        in_phase[name, tracer.names[roots[index]]] += self_t[index]
    sparse_total = sum(phase_total[p] for p in SPARSE_PHASES)
    first_total = phase_total["first_step"]

    def share(part: float, whole: float) -> float | None:
        return part / whole if whole else None

    values: dict[str, float | None] = {}
    for layer in layers:
        name = layer.name
        if name in unmeasured:
            continue
        own = sum(v for (n, _), v in in_phase.items() if n == name)
        values[f"{name}.calls"] = calls[name] / runs
        values[f"{name}.self_s"] = own / runs
        sparse = sum(in_phase[name, p] for p in SPARSE_PHASES)
        values[f"{name}.sparse_share"] = share(sparse, sparse_total)
        values[f"{name}.first_step_share"] = share(in_phase[name, "first_step"], first_total)
        if name in broken_counts:
            continue
        counter = tracer.counts[name]
        values.update({f"{name}.{k}": counter[k] / runs for k in layer.counts})
        if "kept_entries" in layer.counts:
            values[f"{name}.kept_ratio"] = share(counter["kept_entries"], counter["in_entries"])
    return {name: values.get(name) for name, _ in layer_metric_names(layers)}
