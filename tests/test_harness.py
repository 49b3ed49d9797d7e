import re
import tracemalloc
import warnings
from dataclasses import MISSING, fields

import numpy as np
import pytest

from sparsedyn import (
    CflWarning,
    ConfigError,
    ExperimentConfig,
    bench_convolution,
    bundled_recipes,
    convergence_study,
    format_config,
    load_recipe,
    load_spectrum,
    parse_config_text,
    run,
)
from sparsedyn import dft_inverse, harness
from sparsedyn.harness import write_field_csv

SMALL_CONFIG = """
# quick diffusion run used across the harness tests
equation = parabolic
dims = 1
n_per_dim = 64
dt = 1e-4
t_end = 5e-3
lambda_mode = fixed
fixed_lambda = 1e-4
coefficient = constant
coefficient_value = 0.4
initial_condition = gauss_bump
initial_width = 0.6
baselines = dense
snapshot_times = 2e-3
"""

VORTICITY_CONFIG = """
equation = vorticity2d
dims = 2
n_per_dim = 16
dt = 0.005
t_end = 0.02
lambda_mode = fixed
fixed_lambda = 1e-6
gamma = 0.01
initial_condition = two_vortices
"""


def test_parse_basic_fields():
    cfg = parse_config_text(SMALL_CONFIG)
    assert cfg.equation == "parabolic"
    assert cfg.n_per_dim == 64
    assert cfg.dt == 1e-4
    assert cfg.baselines == ("dense",)
    assert cfg.snapshot_times == (2e-3,)
    assert cfg.n_steps() == 50


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="wavelets"):
        parse_config_text(SMALL_CONFIG + "\nwavelets = true\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="required key missing"):
        parse_config_text("equation = parabolic\ndims = 1\n")


@pytest.mark.parametrize(
    "key", ["equation", "dims", "n_per_dim", "dt", "t_end", "lambda_mode", "initial_condition"]
)
def test_each_field_without_a_default_is_a_required_key(key):
    assert {f.name for f in fields(ExperimentConfig) if f.default is MISSING} == {
        "equation", "dims", "n_per_dim", "dt", "t_end", "lambda_mode", "initial_condition"
    }
    lines = [line for line in SMALL_CONFIG.splitlines() if line.split("=")[0].strip() != key]
    with pytest.raises(ConfigError, match=f"^{key}: required key missing$"):
        parse_config_text("\n".join(lines))


def test_unknown_equation_names_field():
    bad = SMALL_CONFIG.replace("equation = parabolic", "equation = schroedinger")
    with pytest.raises(ConfigError, match="equation"):
        parse_config_text(bad)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(SMALL_CONFIG + "\ndt = 2e-4\n")


def test_non_integral_step_count_rejected():
    bad = SMALL_CONFIG.replace("t_end = 5e-3", "t_end = 5.4321e-3")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config_text(bad)


def test_gamma_only_for_vorticity():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_text(SMALL_CONFIG + "\ngamma = 0.5\n")


def test_sine_low_needs_a_grid_that_resolves_its_modes():
    sine = SMALL_CONFIG.replace("initial_condition = gauss_bump", "initial_condition = sine_low")
    with pytest.raises(ConfigError, match="n_per_dim"):
        parse_config_text(sine.replace("n_per_dim = 64", "n_per_dim = 4"))
    assert parse_config_text(sine.replace("n_per_dim = 64", "n_per_dim = 8")).n_per_dim == 8


def test_low_frequency_requires_dense():
    bad = SMALL_CONFIG.replace("baselines = dense", "baselines = low_frequency")
    with pytest.raises(ConfigError, match="baselines"):
        parse_config_text(bad)


def with_value(text: str, key: str, value: str) -> str:
    """Config ``text`` with ``key`` set to ``value``, in place of any line
    that sets it."""
    lines = [line for line in text.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def test_every_float_key_must_be_finite():
    # on parabolic_converge, dt = inf ran 0 steps, t_end = inf overflowed in
    # the step count, and t_end = nan or lambda_c = nan failed as solver errors
    text = bundled_recipes()["parabolic_converge"]
    keys = [f.name for f in fields(ExperimentConfig) if f.type == "float"]
    assert {"dt", "t_end", "lambda_c", "initial_width", "gamma"} <= set(keys)
    for key in keys:
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
                parse_config_text(with_value(text, key, value))


def test_nan_snapshot_time_is_rejected():
    # NaN fails both bounds checks, so it passed as inside [0, t_end]
    text = with_value(bundled_recipes()["parabolic_converge"], "snapshot_times", "0.004,nan")
    with pytest.raises(ConfigError, match="^snapshot_times:"):
        parse_config_text(text)


@pytest.mark.parametrize("width", ["0", "-0.5"])
def test_initial_width_must_be_positive(width):
    # a zero width made a non-Hermitian gauss_bump and a solver error
    text = with_value(bundled_recipes()["parabolic_converge"], "initial_condition", "gauss_bump")
    with pytest.raises(ConfigError, match="^initial_width:"):
        parse_config_text(with_value(text, "initial_width", width))


def test_round_trip_fixpoint_for_all_recipes():
    recipes = bundled_recipes()
    assert set(recipes) == {
        "burgers_fig3",
        "burgers_lowfreq_n256",
        "convection_fig1",
        "parabolic_converge",
        "parabolic_fig2",
        "vorticity_converge",
        "vorticity_fig4",
    }
    for name, text in recipes.items():
        cfg = parse_config_text(text)
        assert parse_config_text(format_config(cfg)) == cfg, name


def test_a_config_with_every_key_off_its_default_round_trips():
    # both booleans true, two baselines, two snapshot times, a domain other
    # than 2*pi: values the bundled recipes leave at their defaults
    cfg = ExperimentConfig(
        equation="vorticity2d",
        dims=2,
        n_per_dim=256,
        dt=1e-3,
        t_end=4e-3,
        lambda_mode="fixed",
        initial_condition="two_vortices",
        domain_length=3.0,
        fixed_lambda=1e-5,
        lambda_c=0.5,
        lambda_p=1.5,
        coefficient="burgers_oscillatory",
        coefficient_value=0.3,
        gamma=0.01,
        forcing="vorticity_forcing",
        forcing_value=0.2,
        initial_width=0.7,
        initial_amplitude=2.0,
        seed=7,
        protect_mean=True,
        baselines=("dense", "low_frequency"),
        output_dir="elsewhere",
        snapshot_times=(2e-3, 4e-3),
        strict_cfl=True,
    )
    for f in fields(ExperimentConfig):
        assert f.default is MISSING or getattr(cfg, f.name) != f.default, f.name
    text = format_config(cfg)
    assert "protect_mean = true\n" in text and "strict_cfl = true\n" in text
    assert "baselines = dense,low_frequency\n" in text
    assert "snapshot_times = 0.002,0.004\n" in text
    assert parse_config_text(text) == cfg


def test_cfl_warning_from_run_points_at_the_caller(tmp_path):
    # 0.02 is over the explicit-diffusion guard 0.5 dx^2 / 0.4 ~ 0.012
    cfg = parse_config_text(
        SMALL_CONFIG.replace("dt = 1e-4", "dt = 2e-2")
        .replace("t_end = 5e-3", "t_end = 4e-2")
        .replace("snapshot_times = 2e-3", "snapshot_times = 2e-2")
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(cfg, out_dir=tmp_path)
    cfl = [w for w in caught if w.category is CflWarning]
    assert len(cfl) == 2  # the sparse run and the dense reference
    assert all(w.filename == __file__ for w in cfl)


def test_load_recipe():
    cfg = load_recipe("convection_fig1")
    assert cfg.equation == "convection"
    assert cfg.n_per_dim == 512
    with pytest.raises(ConfigError):
        load_recipe("nonexistent")


def test_run_writes_expected_files(tmp_path):
    cfg = parse_config_text(SMALL_CONFIG)
    report = run(cfg, out_dir=tmp_path)
    assert len(report.records) == 51
    for r in report.records:
        assert r.l2_error >= 0 and r.linf_error >= 0
        assert 0.0 <= r.sparsity_fraction <= 1.0
    assert report.wall_clock_per_step > 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "spectrum_final.txt").exists()
    assert (tmp_path / "field_final.csv").exists()
    assert (tmp_path / "spectrum_step000020.txt").exists()
    assert (tmp_path / "field_step000020.csv").exists()

    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == "step,time,n_s,sparsity_fraction,l2_error,linf_error,mean_re,mean_im"

    dumped = load_spectrum(str(tmp_path / "spectrum_final.txt"))
    assert dumped.n_s == report.records[-1].n_s

    field_lines = (tmp_path / "field_final.csv").read_text().splitlines()
    assert field_lines[0] == "x,u"
    assert len(field_lines) == 65


@pytest.mark.parametrize("text", [SMALL_CONFIG, VORTICITY_CONFIG], ids=["1d", "2d"])
def test_field_csv_holds_the_final_field_as_plain_numbers(text, tmp_path):
    # every value parses with float() and equals the final state's field
    # exactly, whatever repr numpy gives its own scalars
    run(parse_config_text(text), out_dir=tmp_path)
    final = load_spectrum(str(tmp_path / "spectrum_final.txt"))
    values = dft_inverse(final.to_dense()).values
    lines = (tmp_path / "field_final.csv").read_text().splitlines()
    g = final.grid
    assert lines[0] == ("x,u" if g.dims == 1 else "x,y,u")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    coords = np.meshgrid(*([g.axis_coordinates()] * g.dims), indexing="ij")
    want = np.stack([c.ravel() for c in coords] + [values.ravel()], axis=1)
    assert np.array_equal(rows, want)


def test_run_without_baseline_leaves_error_columns_empty(tmp_path):
    cfg = parse_config_text(SMALL_CONFIG.replace("baselines = dense", "baselines ="))
    report = run(cfg, out_dir=tmp_path)
    assert report.records[-1].l2_error is None
    row = (tmp_path / "report.csv").read_text().splitlines()[1]
    step, t, n_s, frac, l2, linf, mre, mim = row.split(",")
    assert l2 == "" and linf == ""


def test_run_zero_t_end_single_record(tmp_path):
    cfg = parse_config_text(SMALL_CONFIG.replace("t_end = 5e-3", "t_end = 0.0").replace(
        "snapshot_times = 2e-3", "snapshot_times ="
    ))
    report = run(cfg, out_dir=tmp_path)
    assert len(report.records) == 1
    assert report.records[0].step == 0


def test_run_is_deterministic(tmp_path):
    cfg = parse_config_text(SMALL_CONFIG)
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    for name in ("report.csv", "spectrum_final.txt", "field_final.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_low_frequency_extras(tmp_path):
    cfg = parse_config_text(
        SMALL_CONFIG.replace("baselines = dense", "baselines = dense,low_frequency")
    )
    report = run(cfg, out_dir=tmp_path)
    assert "low_frequency_cutoff" in report.extras
    assert report.extras["low_frequency_l2_error"] >= 0.0


def test_convergence_study_validation():
    cfg = load_recipe("parabolic_converge")
    with pytest.raises(ConfigError, match="resolutions"):
        convergence_study(cfg, [64])
    with pytest.raises(ConfigError, match="resolutions"):
        convergence_study(cfg, [64, 32, 128])
    with pytest.raises(ConfigError, match="resolutions"):
        convergence_study(cfg, [64, 100, 128])
    for repeated in ([32, 32, 64], [32, 64, 64]):  # [32, 32, 64] ran 32 twice
        with pytest.raises(ConfigError, match="^resolutions: must be strictly ascending$"):
            convergence_study(cfg, repeated)
    fixed = parse_config_text(SMALL_CONFIG)
    with pytest.raises(ConfigError, match="lambda_mode"):
        convergence_study(fixed, [16, 32, 64])


def underresolved_study() -> str:
    """parabolic_fig2 as a 64-step convergence study; its coefficient
    needs n_per_dim > 512, so a study at 256 points is under-resolved."""
    text = with_value(bundled_recipes()["parabolic_fig2"], "lambda_mode", "power_law")
    return with_value(with_value(text, "t_end", repr(64 * 1.5e-8)), "snapshot_times", "")


def test_convergence_study_validates_every_resolution_before_any_run(monkeypatch):
    # the 256-point run failed as a solver error after the 1024-point dense
    # reference had been stepped
    monkeypatch.setattr(harness, "iter_dense_states", None)  # any run fails
    with pytest.raises(ConfigError, match=r"^resolutions: at 256, n_per_dim: .*> 512, got 256"):
        convergence_study(parse_config_text(underresolved_study()), [256, 512, 1024])


def test_convergence_study_parabolic(tmp_path):
    cfg = load_recipe("parabolic_converge")
    rows = convergence_study(cfg, [32, 64, 128], out_dir=tmp_path)
    assert len(rows) == 3
    dxs = [r[0] for r in rows]
    assert dxs[0] > dxs[1] > dxs[2]
    l2s = [r[1] for r in rows]
    assert l2s[0] > l2s[1] > l2s[2]
    csv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert csv[0] == "dx,l2,linf"
    assert len(csv) == 4


def test_bench_convolution_small():
    rows = bench_convolution([64, 128], [4, 8], repetitions=3)
    assert len(rows) == 4
    for n, n_s, t_sparse, t_dense in rows:
        assert n in (64, 128) and n_s in (4, 8)
        assert t_sparse > 0 and t_dense > 0


def test_bench_convolution_rejects_oversparse():
    # the 1-D open box on N points holds N - 1 modes; -1 failed in numpy
    # and 0 timed an empty convolution
    for sizes, sparsities in (([16], [64]), ([16], [16]), ([16], [0]), ([16], [-1])):
        with pytest.raises(ConfigError, match="open box"):
            bench_convolution(sizes, sparsities, repetitions=1)


def test_final_snapshot_is_written_once(tmp_path, monkeypatch):
    # a snapshot at t_end: the final files are copies of that snapshot's
    cfg = parse_config_text(SMALL_CONFIG.replace("snapshot_times = 2e-3", "snapshot_times = 5e-3"))
    written = []

    def counting(state, path):
        written.append(path.name)
        return write_field_csv(state, path)

    monkeypatch.setattr(harness, "write_field_csv", counting)
    run(cfg, out_dir=tmp_path)
    for final, snapshot in (
        ("spectrum_final.txt", "spectrum_step000050.txt"),
        ("field_final.csv", "field_step000050.csv"),
    ):
        assert (tmp_path / final).read_bytes() == (tmp_path / snapshot).read_bytes()
    assert written == ["field_step000050.csv"]  # one field CSV for the final state


def test_validating_a_2d_run_samples_nothing_the_size_of_the_grid():
    # the forcing's rules are checked without sampling it on the grid,
    # which took 8 MB at 1024^2
    text = with_value(bundled_recipes()["vorticity_converge"], "n_per_dim", "1024")
    cfg = parse_config_text(text)  # validates once, paying one-time costs
    tracemalloc.start()
    try:
        harness.validate_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_an_under_resolved_forcing_names_the_grid():
    text = with_value(bundled_recipes()["vorticity_converge"], "forcing", "vorticity_forcing")
    with pytest.raises(ConfigError, match="^n_per_dim: vorticity_forcing oscillates at frequency 64"):
        parse_config_text(text)  # 128 points per axis
    assert parse_config_text(with_value(text, "n_per_dim", "256")).n_per_dim == 256


@pytest.mark.parametrize("times", ["0.013,0.017", "0.02,0.025", "0.005"])
def test_snapshot_times_between_steps_are_rejected(times):
    # they were rounded to the nearest step: with dt = 0.01, the times 0.013
    # and 0.017 wrote the snapshots of steps 1 and 2, at t = 0.01 and 0.02
    text = SMALL_CONFIG.replace("dt = 1e-4", "dt = 0.01").replace("t_end = 5e-3", "t_end = 0.05")
    with pytest.raises(ConfigError, match="^snapshot_times: .* is not an integer multiple of dt"):
        parse_config_text(text.replace("snapshot_times = 2e-3", f"snapshot_times = {times}"))
    # whole steps pass, as t_end does, within 1e-9 of a step
    cfg = parse_config_text(text.replace("snapshot_times = 2e-3", "snapshot_times = 0.03,0.05"))
    assert cfg.snapshot_times == (0.03, 0.05)


@pytest.mark.parametrize(
    "base, key, value, message",
    [(SMALL_CONFIG, "dims", "2", "dims: parabolic requires dims = 1"),
     (VORTICITY_CONFIG, "dims", "1", "dims: vorticity2d requires dims = 2"),
     (SMALL_CONFIG, "dt", "0", "dt: must be positive"),
     (SMALL_CONFIG, "dt", "-1e-4", "dt: must be positive"),
     (SMALL_CONFIG, "t_end", "-5e-3", "t_end: must be nonnegative"),
     (VORTICITY_CONFIG, "gamma", "0", "gamma: vorticity2d requires gamma > 0"),
     (VORTICITY_CONFIG, "gamma", "-0.01", "gamma: vorticity2d requires gamma > 0"),
     (VORTICITY_CONFIG, "forcing", "tides", "forcing: 'tides' is not one of"),
     (SMALL_CONFIG, "coefficient", "tides", "coefficient: 'tides' is not one of"),
     (SMALL_CONFIG, "initial_condition", "square_wave",
      "initial_condition: 'square_wave' is not one of"),
     (SMALL_CONFIG, "baselines", "dense,exact", "baselines: unknown baseline 'exact'"),
     (SMALL_CONFIG, "protect_mean", "maybe", "protect_mean: expected a boolean, got 'maybe'"),
     (SMALL_CONFIG, "dt", "fast", "dt: cannot parse 'fast' as float"),
     (SMALL_CONFIG, "n_per_dim", "64.0", "n_per_dim: cannot parse '64.0' as int"),
     (SMALL_CONFIG, "snapshot_times", "2e-3,soon", "snapshot_times: cannot parse '2e-3,soon'")],
)
def test_config_rejections_name_the_key(base, key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        parse_config_text(with_value(base, key, value))


def test_a_line_without_an_equals_sign_is_rejected():
    text = SMALL_CONFIG.replace("dims = 1", "dims 1")
    line = text.splitlines().index("dims 1") + 1
    with pytest.raises(ConfigError, match=f"^line {line}: expected 'key = value', got 'dims 1'"):
        parse_config_text(text)


def test_a_config_file_that_is_not_utf8_is_a_config_error_naming_the_path(tmp_path):
    # it raised UnicodeDecodeError, which the command line reported as a
    # solver error
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"\xff" + SMALL_CONFIG.encode())
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        harness.parse_config_file(path)
    path.write_bytes(SMALL_CONFIG.encode())
    assert harness.parse_config_file(path) == parse_config_text(SMALL_CONFIG)


def test_lambda_rule_names_the_rule_and_its_constants():
    power = with_value(with_value(SMALL_CONFIG, "lambda_mode", "power_law"), "lambda_c", "0.5")
    assert parse_config_text(power).lambda_rule() == "power_law(C=0.5, p=2.0)"
    assert parse_config_text(SMALL_CONFIG).lambda_rule() == "fixed(0.0001)"
