"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the library's test suite: the smoke runs
drive every workload and take about twenty seconds.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tr

HERE = Path(__file__).resolve().parent


def fake_clock(*ticks):
    return iter(ticks).__next__


def test_tail_percentile_has_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    p90 = run.tail_percentile(values, 90)
    assert p90 == 90.0
    assert sum(v > p90 for v in values) == 10
    with pytest.raises(ValueError):
        run.tail_percentile(values[:99], 90)


def test_self_time_from_nested_spans():
    t = tr.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 8.5, 10.0))
    with t.span("phase"):  # 0 .. 10
        with t.span("step"):  # 1 .. 7
            with t.span("convolve"):  # 2 .. 4
                pass
            with t.span("convolve"):  # 5 .. 6
                pass
        with t.span("add"):  # 8 .. 8.5
            pass
    assert t.self_times() == [10 - 6 - 0.5, 6 - 2 - 1, 2, 1, 0.5]
    assert t.roots() == [0, 0, 0, 0, 0]


def test_layer_report_means_shares_and_unmeasured():
    t = tr.Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 10.0, 12.0))
    with t.span("sparse_step"):  # 0 .. 4
        with t.span("shrinkage.sparse_convolve"):  # 1 .. 3
            pass
    with t.span("dense_step"):  # 10 .. 12
        pass
    report = tr.layer_report(t, ["shrinkage.add"], set(), runs=2)
    assert report["shrinkage.sparse_convolve.calls"] == 0.5
    assert report["shrinkage.sparse_convolve.self_s"] == 1.0
    assert report["shrinkage.sparse_convolve.sparse_share"] == 0.5
    assert report["shrinkage.add.self_s"] is None
    assert report["shrinkage.add.sparse_share"] is None
    assert list(report) == [name for name, _ in tr.layer_metric_names()]
    assert report["shrinkage.soft_threshold.kept_ratio"] is None  # nothing shrunk


def test_host_probe_clock_leaves_slices_out():
    wall0 = time.perf_counter()
    with run.HostProbe(gap=0.005) as host:
        t0 = host.clock()
        while time.perf_counter() - wall0 < 0.2:
            pass
        taken = host.clock() - t0
        wall = time.perf_counter() - wall0
    assert len(host.ref_s) >= 5 and len(host.at) == len(host.ref_s)
    assert host.at == sorted(host.at)
    assert wall - sum(host.ref_s) - 1e-3 < taken < wall - sum(host.ref_s[1:]) + 1e-3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_samples_scale_by_slices_within_and_near(monkeypatch):
    monkeypatch.setattr(run, "NEAR_PROBES", 3)
    drive = run.Drive(
        ref_s=[run.REF_NOMINAL_S] * 5 + [2 * run.REF_NOMINAL_S] * 5,
        ref_at=[float(t) for t in range(10)],
    )
    drive.record("step_s", 0.5, 1.6)  # no slice within; slices 0..4 are near
    drive.record("step_s", 2.0, 8.5)  # slices 7, 8 within; 4..9 near
    assert drive.scaled("step_s") == [0.5, 1.0]
    assert drive.scale == run.REF_NOMINAL_S / (1.5 * run.REF_NOMINAL_S)


def _bindings():
    """Every traced binding's raw attribute, keyed by owner and name."""
    out = {}
    for layer in tr.LAYERS:
        for module, attr in layer.bindings:
            owner, name, raw = tr._resolve(module, attr)
            out[owner.__name__, name] = raw
    return out


def test_wrappers_restored_after_traced_pass():
    sd = run.load_library()
    from sparsedyn import shrinkage, solvers

    before = _bindings()
    t = tr.Tracer()
    installed = tr.install(t)
    try:
        assert installed.unmeasured == []
        assert solvers.sparse_convolve is not shrinkage.sparse_convolve
        grid = sd.GridSpec(1, 16)
        a = sd.SparseSpectrum.from_dict(grid, {1: 1.0, -1: 1.0})
        solvers.sparse_convolve(a, a + a)
        sd.SparseSpectrum.from_dense(a.to_dense())
    finally:
        installed.restore()
    assert _bindings() == before
    assert solvers.sparse_convolve is shrinkage.sparse_convolve
    assert t.names == [
        "shrinkage.add",
        "shrinkage.sparse_convolve",
        "shrinkage.mode_factor",  # to_dense decodes the modes
        "shrinkage.from_dense",
    ]
    assert t.counts["shrinkage.sparse_convolve"]["pairs"] == 2 * 2
    assert t.counts["shrinkage.from_dense"]["kept_entries"] == 2


def test_missing_binding_reports_layer_unmeasured():
    run.load_library()
    gone = tr.Layer("gone.layer", (("sparsedyn.solvers", "no_such_function"),))
    kept = tr.LAYERS[0]
    installed = tr.install(tr.Tracer(), layers=(gone, kept))
    try:
        assert installed.unmeasured == ["gone.layer"]
        assert len(installed.replaced) == len(kept.bindings)
    finally:
        installed.restore()


def test_seed_shift_is_a_whole_cell_roll():
    sd = run.load_library()
    grid = sd.GridSpec(2, 32)
    u0 = sd.initial_condition(sd.InitialSpec("two_vortices", amplitude=2.0), grid)
    cells = run.shift_cells(7, grid)
    assert any(cells) and run.shift_cells(0, grid) == (0, 0)
    moved = run.shifted(u0, cells)
    assert np.max(np.abs(np.abs(moved.values) - np.abs(u0.values))) < 1e-15
    field = sd.dft_inverse(u0.to_dense()).values
    moved_field = sd.dft_inverse(moved.to_dense()).values
    assert np.max(np.abs(moved_field - np.roll(field, cells, axis=(0, 1)))) < 1e-12


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_drive_each_workload(name, tmp_path):
    sd = run.load_library()
    workload = run.WORKLOADS[name]
    drive = run.drive(sd, workload, sd.load_recipe(workload.recipe), 3, tmp_path, n_steps=3)
    assert 1 <= len(drive.setup_s) == len(drive.first_step_s) <= workload.reps
    assert len(drive.step_s) == 2 and len(drive.dense_step_s) == 3
    assert len(drive.output_s) == run.OUTPUT_REPS and 0 < sum(drive.output_s) < drive.run_s
    assert drive.final_rel_l2 < run.MAX_REL_L2
    assert not [f for f in drive.failures if "finite" in f or "Hermitian" in f]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "field_final.csv", "report.csv", "spectrum_final.txt"
    ]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_contract_line(trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "parabolic_n2048",
           "--seed", "1", "--seconds", "0", "--trace", trace]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(wanted)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()
    ]
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "burgers_n1024",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
