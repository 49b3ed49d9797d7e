"""Experiment orchestration: flat-text configs, runs with baselines and file
output, resolution sweeps, and the convolution microbenchmark."""

from __future__ import annotations

import importlib.resources
import math
import shutil
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .coefficients import _NAMED_FORMS, CoefficientSpec, _check_grid
from .errors import ConfigError, UnderResolved
from .evaluation import (
    RunReport,
    StepRecord,
    dense_convolve,
    error_metrics,
    inject,
    iter_dense_states,
    iter_low_frequency_states,
    match_mode_count,
)
from .grid import TWO_PI, GridSpec
from .shrinkage import (
    LambdaSchedule,
    SparseSpectrum,
    dump_spectrum,
    sparse_convolve,
)
from .solvers import (
    EQUATIONS,
    SINE_LOW_REACH,
    EquationParams,
    InitialSpec,
    coefficient_samples,
    initial_condition,
    iter_states,
)
from .spectral import DenseSpectrum, dft_inverse

_COEFFICIENT_NAMES = tuple(k for k, (dims, _) in _NAMED_FORMS.items() if dims in (None, 1))
_FORCING_NAMES = tuple(k for k, (dims, _) in _NAMED_FORMS.items() if dims in (None, 2))
_INITIAL_NAMES = ("gauss_bump", "sine_low", "two_vortices")
_BASELINE_NAMES = ("dense", "low_frequency")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, mirroring the flat ``key = value`` file format."""

    equation: str
    dims: int
    n_per_dim: int
    dt: float
    t_end: float
    lambda_mode: str
    initial_condition: str
    domain_length: float = TWO_PI
    fixed_lambda: float = 0.0
    lambda_c: float = 0.0
    lambda_p: float = 2.0
    coefficient: str = "constant"
    coefficient_value: float = 0.0
    gamma: float = 0.0
    forcing: str = "constant"
    forcing_value: float = 0.0
    initial_width: float = 0.5
    initial_amplitude: float = 1.0
    seed: int = 42
    protect_mean: bool = False
    baselines: tuple[str, ...] = ()
    output_dir: str = "out"
    snapshot_times: tuple[float, ...] = ()
    strict_cfl: bool = False

    def n_steps(self) -> int:
        return self.step_at(self.t_end, "t_end")

    def step_at(self, t: float, key: str) -> int:
        """The step at time ``t``; ``ConfigError`` on ``key`` unless ``t/dt``
        is whole to within ``1e-9 * max(1, t/dt)``."""
        steps = t / self.dt
        nearest = round(steps)
        if abs(steps - nearest) > 1e-9 * max(1.0, abs(steps)):
            raise ConfigError(f"{key}: {t} is not an integer multiple of dt")
        return int(nearest)

    def grid(self) -> GridSpec:
        return GridSpec(self.dims, self.n_per_dim, self.domain_length)

    def schedule(self) -> LambdaSchedule:
        if self.lambda_mode == "fixed":
            return LambdaSchedule.fixed(self.fixed_lambda)
        return LambdaSchedule.power_law(self.lambda_c, self.lambda_p)

    def equation_params(self) -> EquationParams:
        if self.equation == "vorticity2d":
            forcing = CoefficientSpec(self.forcing, self.forcing_value)
            return EquationParams("vorticity2d", gamma=self.gamma, forcing=forcing)
        coeff = CoefficientSpec(self.coefficient, self.coefficient_value)
        return EquationParams(self.equation, coeff=coeff)

    def initial_spec(self) -> InitialSpec:
        return InitialSpec(
            self.initial_condition,
            width=self.initial_width,
            amplitude=self.initial_amplitude,
            seed=self.seed,
        )

    def lambda_rule(self) -> str:
        if self.lambda_mode == "fixed":
            return f"fixed({self.fixed_lambda!r})"
        return f"power_law(C={self.lambda_c!r}, p={self.lambda_p!r})"


_REQUIRED = ("equation", "dims", "n_per_dim", "dt", "t_end", "lambda_mode", "initial_condition")


def _parse_value(name: str, kind: type, raw: str):
    if kind is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {kind.__name__}") from None


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` format; unknown keys are hard errors."""
    field_types = {f.name: f.type for f in fields(ExperimentConfig)}
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in field_types:
            raise ConfigError(f"{key}: unknown configuration key")
        if key in raw:
            raise ConfigError(f"{key}: duplicate key")
        raw[key] = value

    for name in _REQUIRED:
        if name not in raw:
            raise ConfigError(f"{name}: required key missing")

    kwargs = {}
    for name, value in raw.items():
        annotation = field_types[name]
        if name in ("baselines",):
            parts = tuple(p.strip() for p in value.split(",") if p.strip())
            kwargs[name] = parts
        elif name in ("snapshot_times",):
            try:
                kwargs[name] = tuple(float(p) for p in value.split(",") if p.strip())
            except ValueError:
                raise ConfigError(f"{name}: cannot parse {value!r}") from None
        elif annotation == "int":
            kwargs[name] = _parse_value(name, int, value)
        elif annotation == "float":
            kwargs[name] = _parse_value(name, float, value)
        elif annotation == "bool":
            kwargs[name] = _parse_value(name, bool, value)
        else:
            kwargs[name] = value
    config = ExperimentConfig(**kwargs)
    validate_config(config)
    return config


def parse_config_file(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def format_config(config: ExperimentConfig) -> str:
    """Serialize back to the flat text form (parse -> format -> parse is a
    fixpoint)."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(
                repr(v) if isinstance(v, float) else str(v) for v in value
            )
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


# keys whose rule the library owns, each with a check of its value alone by
# that owner, so the rule is written once and its ValueError names the key
_OWNED_RULES = {
    "n_per_dim": lambda n: GridSpec(1, n),
    "domain_length": lambda length: GridSpec(1, 4, length),
    "initial_width": lambda width: InitialSpec("", width=width),
    "seed": lambda seed: InitialSpec("", seed=seed),
    "lambda_mode": LambdaSchedule,
    "fixed_lambda": LambdaSchedule.fixed,
    "lambda_c": lambda c: LambdaSchedule.power_law(c, 1.0),
    "lambda_p": lambda p: LambdaSchedule.power_law(0.0, p),
}


def _check_owned(key: str, value, rule: str | None = None) -> None:
    """``value`` checked by its owner's rule, ``_OWNED_RULES[rule or key]``;
    a ``ValueError`` becomes a ``ConfigError`` that names ``key``."""
    try:
        _OWNED_RULES[rule or key](value)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None


def validate_config(config: ExperimentConfig) -> None:
    for f in fields(ExperimentConfig):
        if f.type == "float" and not math.isfinite(value := getattr(config, f.name)):
            raise ConfigError(f"{f.name}: must be finite, got {value!r}")
    if config.equation not in EQUATIONS:
        raise ConfigError(
            f"equation: {config.equation!r} is not one of {', '.join(EQUATIONS)}"
        )
    expected_dims = 2 if config.equation == "vorticity2d" else 1
    if config.dims != expected_dims:
        raise ConfigError(f"dims: {config.equation} requires dims = {expected_dims}")
    for key in _OWNED_RULES:
        _check_owned(key, getattr(config, key))
    if not config.dt > 0:
        raise ConfigError("dt: must be positive")
    if config.t_end < 0:
        raise ConfigError("t_end: must be nonnegative")
    config.n_steps()
    if config.equation == "vorticity2d":
        if not config.gamma > 0:
            raise ConfigError("gamma: vorticity2d requires gamma > 0")
        if config.forcing not in _FORCING_NAMES:
            raise ConfigError(
                f"forcing: {config.forcing!r} is not one of {', '.join(_FORCING_NAMES)}"
            )
    else:
        if config.coefficient not in _COEFFICIENT_NAMES:
            raise ConfigError(
                f"coefficient: {config.coefficient!r} is not one of "
                f"{', '.join(_COEFFICIENT_NAMES)}"
            )
        if config.gamma != 0.0:
            raise ConfigError("gamma: only meaningful for vorticity2d")
    if config.initial_condition not in _INITIAL_NAMES:
        raise ConfigError(
            f"initial_condition: {config.initial_condition!r} is not one of "
            f"{', '.join(_INITIAL_NAMES)}"
        )
    if config.initial_condition == "sine_low" and config.n_per_dim // 2 <= SINE_LOW_REACH:
        raise ConfigError(
            f"n_per_dim: sine_low holds modes |k| <= {SINE_LOW_REACH}, "
            f"which need n_per_dim > {2 * SINE_LOW_REACH}"
        )
    for b in config.baselines:
        if b not in _BASELINE_NAMES:
            raise ConfigError(f"baselines: unknown baseline {b!r}")
    if "low_frequency" in config.baselines and "dense" not in config.baselines:
        raise ConfigError("baselines: low_frequency needs the dense baseline too")
    for t in config.snapshot_times:
        if not 0 <= t <= config.t_end + 1e-12:  # NaN is outside too
            raise ConfigError(f"snapshot_times: {t} outside [0, t_end]")
        config.step_at(t, "snapshot_times")
    params, grid = config.equation_params(), config.grid()
    try:  # the rules of the coefficient (or forcing) on this grid
        if config.equation == "vorticity2d":  # a forcing has no sign rule
            _check_grid(params.forcing, grid)
        else:
            coefficient_samples(params, grid)
    except UnderResolved as err:
        raise ConfigError(f"n_per_dim: {err}") from None
    except ValueError as err:
        raise ConfigError(f"coefficient_value: {err}") from None


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_report_csv(report: RunReport, path: Path) -> None:
    lines = ["step,time,n_s,sparsity_fraction,l2_error,linf_error,mean_re,mean_im"]
    for r in report.records:
        lines.append(
            f"{r.step},{r.time!r},{r.n_s},{r.sparsity_fraction!r},"
            f"{_fmt(r.l2_error)},{_fmt(r.linf_error)},"
            f"{r.mean.real!r},{r.mean.imag!r}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_field_csv(state: SparseSpectrum | DenseSpectrum, path: Path) -> None:
    """Spatial dump: ``x[,y],u`` rows in grid order, each value the
    ``repr`` of a Python float, whatever the numpy version."""
    if isinstance(state, SparseSpectrum):
        state = state.to_dense()
    fld = dft_inverse(state)
    coords = [repr(x) for x in fld.grid.axis_coordinates().tolist()]  # each formatted once
    values = fld.values.tolist()
    if fld.grid.dims == 1:
        lines = ["x,u"] + [f"{x},{u!r}" for x, u in zip(coords, values)]
    else:
        lines = ["x,y,u"] + [
            f"{x},{y},{u!r}" for x, row in zip(coords, values) for y, u in zip(coords, row)
        ]
    path.write_text("\n".join(lines) + "\n")


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> RunReport:
    """Execute the sparse run plus requested baselines; write the report CSV
    and any snapshot dumps under ``out_dir``."""
    validate_config(config)
    out = Path(out_dir) if out_dir is not None else Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    grid = config.grid()
    params = config.equation_params()
    schedule = config.schedule()
    initial = initial_condition(config.initial_spec(), grid)
    n_steps = config.n_steps()
    want_dense = "dense" in config.baselines
    want_lowfreq = "low_frequency" in config.baselines

    report = RunReport(
        equation=config.equation,
        grid=grid,
        dt=config.dt,
        lambda_rule=config.lambda_rule(),
    )
    snapshots = {config.step_at(t, "snapshot_times"): t for t in config.snapshot_times}

    sparse_it = iter_states(
        initial,
        params,
        schedule,
        config.dt,
        n_steps,
        protect_mean=config.protect_mean,
        strict_cfl=config.strict_cfl,
    )
    dense_it = (
        iter_dense_states(
            initial.to_dense(), params, config.dt, n_steps, strict_cfl=config.strict_cfl
        )
        if want_dense
        else None
    )

    started = time.perf_counter()
    last_dense = None
    last_state = None
    for state in sparse_it:
        l2 = linf = None
        if dense_it is not None:
            last_dense = next(dense_it)
            l2, linf = error_metrics(state.current, last_dense)
        report.records.append(
            StepRecord(
                step=state.step_index,
                time=state.time,
                n_s=state.current.n_s,
                sparsity_fraction=state.current.n_s / grid.n_total,
                l2_error=l2,
                linf_error=linf,
                mean=state.current.mean_mode(),
            )
        )
        if state.step_index in snapshots:
            tag = f"step{state.step_index:06d}"
            dump_spectrum(state.current, str(out / f"spectrum_{tag}.txt"))
            write_field_csv(state.current, out / f"field_{tag}.csv")
        last_state = state
    elapsed = time.perf_counter() - started
    report.wall_clock_per_step = elapsed / max(1, n_steps)

    if want_dense and last_dense is not None:
        norm_l2, _ = error_metrics(last_dense, DenseSpectrum(grid, np.zeros(grid.shape, complex)))
        final = report.records[-1]
        report.extras["final_l2_error"] = final.l2_error
        report.extras["final_linf_error"] = final.linf_error
        if norm_l2 > 0:
            report.extras["final_l2_relative"] = final.l2_error / norm_l2

    if want_lowfreq:
        cutoff = match_mode_count(report)
        last_lf = None
        for last_lf in iter_low_frequency_states(
            initial.to_dense(), params, config.dt, n_steps, cutoff
        ):
            pass
        lf_l2, lf_linf = error_metrics(last_lf, last_dense)
        report.extras["low_frequency_cutoff"] = cutoff
        report.extras["low_frequency_l2_error"] = lf_l2
        report.extras["low_frequency_linf_error"] = lf_linf

    write_report_csv(report, out / "report.csv")
    assert last_state is not None
    if last_state.step_index in snapshots:  # written in the loop under ``tag``
        shutil.copyfile(out / f"spectrum_{tag}.txt", out / "spectrum_final.txt")
        shutil.copyfile(out / f"field_{tag}.csv", out / "field_final.csv")
    else:
        dump_spectrum(last_state.current, str(out / "spectrum_final.txt"))
        write_field_csv(last_state.current, out / "field_final.csv")
    return report


def convergence_study(
    config: ExperimentConfig,
    resolutions: list[int],
    out_dir: str | Path | None = None,
) -> list[tuple[float, float, float]]:
    """Sparse runs across resolutions against the finest dense run.

    dt scales with dx (transport, vorticity) or dx**2 (diffusion-bearing);
    the power-law threshold follows dt.  Every scaled config is validated
    before any run (the study writes no snapshots).  Returns rows of (dx,
    l2, linf) and writes ``convergence.csv`` when ``out_dir`` is given.
    """
    validate_config(config)
    if len(resolutions) < 3:
        raise ConfigError("resolutions: need at least 3")
    for n in resolutions:
        _check_owned("resolutions", n, "n_per_dim")
    if any(lo >= hi for lo, hi in zip(resolutions, resolutions[1:])):
        raise ConfigError("resolutions: must be strictly ascending")
    if config.lambda_mode != "power_law":
        raise ConfigError("lambda_mode: convergence studies need the power_law rule")

    order = 1 if config.equation in ("convection", "vorticity2d") else 2
    scaled = []
    for res in resolutions:
        cfg = replace(config, n_per_dim=res, dt=_scaled_dt(config, res, order), snapshot_times=())
        try:
            validate_config(cfg)
        except ConfigError as err:
            raise ConfigError(f"resolutions: at {res}, {err}") from None
        scaled.append(cfg)
    fine_cfg = scaled[-1]
    fine_grid = fine_cfg.grid()
    params = fine_cfg.equation_params()
    reference = None
    for reference in iter_dense_states(
        initial_condition(fine_cfg.initial_spec(), fine_grid).to_dense(),
        params,
        fine_cfg.dt,
        fine_cfg.n_steps(),
        strict_cfl=fine_cfg.strict_cfl,
    ):
        pass

    rows = []
    for cfg in scaled:
        grid = cfg.grid()
        state = None
        for state in iter_states(
            initial_condition(cfg.initial_spec(), grid),
            cfg.equation_params(),
            cfg.schedule(),
            cfg.dt,
            cfg.n_steps(),
            protect_mean=cfg.protect_mean,
            strict_cfl=cfg.strict_cfl,
        ):
            pass
        lifted = inject(state.current, fine_grid)
        l2, linf = error_metrics(lifted, reference)
        rows.append((grid.dx, l2, linf))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["dx,l2,linf"]
        for dx, l2, linf in rows:
            lines.append(f"{dx!r},{l2!r},{linf!r}")
        (out / "convergence.csv").write_text("\n".join(lines) + "\n")
    return rows


def _scaled_dt(config: ExperimentConfig, resolution: int, order: int) -> float:
    ratio = config.n_per_dim / resolution
    return config.dt * ratio**order


def bench_convolution(
    n_list: list[int],
    ns_list: list[int],
    repetitions: int = 5,
    seed: int = 42,
    out_dir: str | Path | None = None,
) -> list[tuple[int, int, float, float]]:
    """Median wall-clock of ``sparse_convolve``, on the path its plan picks
    (entry pairs or a padded transform), against ``dense_convolve``, after
    checking both agree."""
    for n in n_list:
        _check_owned("sizes", n, "n_per_dim")
    if repetitions < 1:
        raise ConfigError(f"reps: need at least 1, got {repetitions}")
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_list:
        grid = GridSpec(1, n)
        for n_s in ns_list:
            if not 0 < n_s <= n - 1:
                raise ConfigError(
                    f"sparsities: n_s={n_s} not in 1..{n - 1}, the modes of the open box on N={n}"
                )
            a = _random_sparse(grid, n_s, rng)
            b = _random_sparse(grid, n_s, rng)
            sparse_result = sparse_convolve(a, b)
            dense_result = dense_convolve(a.to_dense().coeffs, b.to_dense().coeffs, grid)
            gap = np.max(np.abs(sparse_result.to_dense().coeffs - dense_result))
            if gap > 1e-10:
                raise AssertionError(f"convolution paths disagree by {gap:.3e}")

            a_dense, b_dense = a.to_dense().coeffs, b.to_dense().coeffs
            sparse_times = _time_repeated(lambda: sparse_convolve(a, b), repetitions)
            dense_times = _time_repeated(
                lambda: dense_convolve(a_dense, b_dense, grid), repetitions
            )
            rows.append(
                (n, n_s, float(np.median(sparse_times)), float(np.median(dense_times)))
            )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["n,n_s,sparse_median_s,dense_median_s"]
        for n, n_s, ts, td in rows:
            lines.append(f"{n},{n_s},{ts!r},{td!r}")
        (out / "bench_convolution.csv").write_text("\n".join(lines) + "\n")
    return rows


def _random_sparse(grid: GridSpec, n_s: int, rng: np.random.Generator) -> SparseSpectrum:
    edge = grid.box_edge
    modes = rng.choice(np.arange(-edge, edge + 1), size=n_s, replace=False)
    values = rng.standard_normal(n_s) + 1j * rng.standard_normal(n_s)
    return SparseSpectrum.from_modes(grid, modes.reshape(1, -1), values)


def _time_repeated(fn, repetitions: int) -> list[float]:
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def bundled_recipes() -> dict[str, str]:
    """Names of the packaged experiment configs mapped to their text."""
    package = importlib.resources.files("sparsedyn") / "recipes"
    out = {}
    for entry in sorted(package.iterdir()):
        if entry.name.endswith(".cfg"):
            out[entry.name[:-4]] = entry.read_text()
    return out


def load_recipe(name: str) -> ExperimentConfig:
    recipes = bundled_recipes()
    if name not in recipes:
        raise ConfigError(f"recipe: unknown recipe {name!r}")
    return parse_config_text(recipes[name])
