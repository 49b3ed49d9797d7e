import numpy as np
import pytest

from sparsedyn import CflWarning, bundled_recipes, harness
from sparsedyn.cli import main

from test_harness import underresolved_study, with_value

GOOD_CONFIG = """
equation = parabolic
dims = 1
n_per_dim = 64
dt = 1e-4
t_end = 2e-3
lambda_mode = fixed
fixed_lambda = 1e-4
coefficient = constant
coefficient_value = 0.4
initial_condition = gauss_bump
baselines = dense
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_success(tmp_path, capsys):
    code = main(["run", "--config", write(tmp_path, GOOD_CONFIG), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "parabolic: 20 steps" in out
    assert (tmp_path / "out" / "report.csv").exists()


def test_run_config_error_exit_1(tmp_path, capsys):
    bad = GOOD_CONFIG.replace("equation = parabolic", "equation = wave")
    code = main(["run", "--config", write(tmp_path, bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_run_file_errors_exit_1_naming_the_path(tmp_path, capsys):
    # a missing config and an output directory below a regular file ended
    # in FileNotFoundError and NotADirectoryError tracebacks
    missing = str(tmp_path / "missing.cfg")
    assert main(["run", "--config", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error:") and missing in err and err.count("\n") == 1
    (tmp_path / "plain").write_text("")
    below = str(tmp_path / "plain" / "out")
    assert main(["run", "--config", write(tmp_path, GOOD_CONFIG), "--out", below]) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error:") and below in err and err.count("\n") == 1


def test_non_finite_dt_is_a_config_error(tmp_path, capsys):
    # dt = inf ran 0 steps and exited 0
    bad = GOOD_CONFIG.replace("dt = 1e-4", "dt = inf")
    code = main(["run", "--config", write(tmp_path, bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "dt: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_solver_error_exit_2(tmp_path, capsys):
    # a time step over the diffusion guard passes config parsing but fails
    # in the solver under strict_cfl (a negative diffusion coefficient did
    # too, and is now a config error, see below)
    bad = GOOD_CONFIG.replace("dt = 1e-4", "dt = 1e-1").replace("t_end = 2e-3", "t_end = 2.0")
    bad += "strict_cfl = true\n"
    code = main(["run", "--config", write(tmp_path, bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "recipe, key, value",
    [
        ("parabolic_converge", "domain_length", "-1.0"),
        ("parabolic_converge", "domain_length", "0.0"),
        ("parabolic_converge", "seed", "-1"),
        ("parabolic_converge", "coefficient_value", "-0.3"),
        ("parabolic_converge", "coefficient_value", "0.0"),
        ("parabolic_fig2", "n_per_dim", "256"),
        ("vorticity_fig4", "n_per_dim", "64"),
    ],
)
def test_input_errors_are_config_errors_naming_the_key(tmp_path, capsys, recipe, key, value):
    # each exited 2 as a solver error; numpy's message for the seed named no key
    text = with_value(bundled_recipes()[recipe], key, value)
    code = main(["run", "--config", write(tmp_path, text), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"config error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_strict_cfl_is_a_solver_error(tmp_path):
    bad = GOOD_CONFIG.replace("dt = 1e-4", "dt = 1e-1").replace(
        "t_end = 2e-3", "t_end = 2.0"
    )
    bad += "strict_cfl = true\n"
    code = main(["run", "--config", write(tmp_path, bad), "--out", str(tmp_path / "out")])
    assert code == 2


def test_strict_cfl_converge_is_a_solver_error(tmp_path, capsys):
    # the study warned (CflWarning) and exited 0 where a strict run stops
    bad = CONVERGE_CONFIG.replace("dt = 2.5e-5", "dt = 5e-2").replace(
        "t_end = 2e-3", "t_end = 1.6"
    )
    bad += "strict_cfl = true\n"
    code = main(["converge", "--config", write(tmp_path, bad), "--resolutions", "16,32,64"])
    assert code == 2
    assert "stability guard" in capsys.readouterr().err


def run_diverging(tmp_path, baselines: str) -> int:
    # convection 30x over the transport guard grows until it is non-finite
    bad = (
        GOOD_CONFIG.replace("equation = parabolic", "equation = convection")
        .replace("coefficient_value = 0.4", "coefficient_value = 1.0")
        .replace("dt = 1e-4", "dt = 3.0")
        .replace("t_end = 2e-3", "t_end = 1200.0")
        .replace("fixed_lambda = 1e-4", "fixed_lambda = 1e-6")
        .replace("baselines = dense", baselines)
    )
    with pytest.warns(CflWarning), np.errstate(over="ignore", invalid="ignore"):
        return main(["run", "--config", write(tmp_path, bad), "--out", str(tmp_path / "out")])


def test_diverged_run_is_a_solver_error(tmp_path, capsys):
    assert run_diverging(tmp_path, "") == 2
    assert "non-finite" in capsys.readouterr().err


def test_diverged_run_with_dense_baseline_is_a_solver_error(tmp_path, capsys):
    # the error metrics transform huge but finite fields back to space; their
    # imaginary roundoff, small against their size, is no symmetry loss
    assert run_diverging(tmp_path, "baselines = dense") == 2
    assert "non-finite" in capsys.readouterr().err


def test_recipes_listing(capsys):
    assert main(["recipes"]) == 0
    out = capsys.readouterr().out.split()
    assert "convection_fig1" in out
    assert "vorticity_fig4" in out


def test_recipes_show(capsys):
    assert main(["recipes", "--show", "burgers_fig3"]) == 0
    assert "equation = burgers" in capsys.readouterr().out
    assert main(["recipes", "--show", "missing"]) == 1


CONVERGE_CONFIG = """
equation = parabolic
dims = 1
n_per_dim = 64
dt = 2.5e-5
t_end = 2e-3
lambda_mode = power_law
lambda_c = 1.0
lambda_p = 2.0
coefficient = constant
coefficient_value = 0.3
initial_condition = sine_low
"""


def test_converge_cli(tmp_path, capsys):
    code = main(
        [
            "converge",
            "--config",
            write(tmp_path, CONVERGE_CONFIG),
            "--resolutions",
            "16,32,64",
            "--out",
            str(tmp_path / "conv"),
        ]
    )
    assert code == 0
    assert (tmp_path / "conv" / "convergence.csv").exists()
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dx,l2,linf"
    assert len(lines) == 4


def test_converge_cli_resolution_error_exit_1(tmp_path, capsys):
    # a size that is no power of two exited 2, as a solver error
    cfg = write(tmp_path, CONVERGE_CONFIG)
    assert main(["converge", "--config", cfg, "--resolutions", "64,100,128"]) == 1
    assert "config error: resolutions:" in capsys.readouterr().err


def test_converge_cli_repeated_resolution_exit_1_before_any_run(tmp_path, capsys, monkeypatch):
    # 32,32,64 ran 32 twice and printed two identical rows
    monkeypatch.setattr(harness, "iter_dense_states", None)  # any run fails
    cfg = write(tmp_path, CONVERGE_CONFIG)
    assert main(["converge", "--config", cfg, "--resolutions", "32,32,64"]) == 1
    assert "config error: resolutions: must be strictly ascending" in capsys.readouterr().err


def test_converge_cli_underresolved_resolution_exit_1_before_any_run(tmp_path, capsys, monkeypatch):
    # the 256-point run exited 2, as a solver error, after the 1024-point
    # dense reference had run
    monkeypatch.setattr(harness, "iter_dense_states", None)  # any run fails
    cfg = write(tmp_path, underresolved_study())
    assert main(["converge", "--config", cfg, "--resolutions", "256,512,1024"]) == 1
    assert "config error: resolutions: at 256, n_per_dim:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--sizes", "1000"], "sizes"),
        (["--sizes", "64", "--reps", "0"], "reps"),
        (["--sizes", "64", "--sparsities", "-1"], "sparsities"),
        (["--sizes", "64", "--sparsities", "0"], "sparsities"),
    ],
)
def test_bench_conv_input_errors_exit_1(flags, name, capsys):
    # --reps 0 printed nan medians and exited 0; --sparsities -1 exited 2
    # with a numpy error, --sparsities 0 exited 0
    assert main(["bench-conv", "--sparsities", "4", *flags]) == 1
    assert f"config error: {name}:" in capsys.readouterr().err


def test_bench_conv_cli(tmp_path, capsys):
    code = main(
        ["bench-conv", "--sizes", "64", "--sparsities", "4,8", "--reps", "2",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "bench_convolution.csv").exists()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
