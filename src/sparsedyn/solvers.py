"""Time schemes, written once for sparse and dense spectra.

Every scheme produces a pre-shrinkage update v from the current (and, for
Leap Frog, previous) state.  The schemes use only the operations both
containers share (``at``, which reads a mode factor of the grid,
``apply_mode_factor``, ``+``, scalar ``*``) and one call per right-hand
side of the one convolution entry, :func:`~sparsedyn.shrinkage.convolve_sum`,
whose result takes the state's container, so the sparse run, the dense
reference and the low-frequency baseline step through the same code; each
passes v through its own final map (the soft threshold for the sparse run).
Every operand is the spectrum of a real field (the initial state is checked
once per run, see :func:`_iterate`) and every weight real, so each call
declares them ``real``.

A sparse run yields sparse states and takes each step in one of two
layouts, by one rule (:func:`_fft_layout`).  A step whose largest
convolution would take the transform path and read the whole open box
makes the dense step's transforms anyway: the run then stays in FFT
layout, its states (the Leap Frog previous state too) kept dense from
step to step, and each update is shrunk in one pass into both the dense
state the next step starts from and the sparse state it yields.  Every
other step stays sparse.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    CoefficientSpec,
    closed_form_spectrum,
    coefficient_field_of,
    sample_coefficient,
)
from .errors import (
    CflViolation,
    CflWarning,
    HermitianViolation,
    NonpositiveDt,
    NotTwoDimensional,
    SolverDiverged,
    UnknownInitialSpec,
)
from .grid import (
    DERIVATIVE_FACTORS,
    VELOCITY_FACTORS,
    GridSpec,
    box_index,
    key_to_mode,
    mean_key,
    wavenumber_squares,
)
from .shrinkage import (
    LambdaSchedule,
    SparseSpectrum,
    convolve_sum,
    lambda_at,
    plan_convolution,
    soft_threshold,
    soft_threshold_dense,
    sparsity_fraction,
)
from .spectral import (
    DenseSpectrum,
    HeldField,
    SpatialField,
    dft_forward,
    spectral_derivative,
)

EQUATIONS = ("convection", "parabolic", "burgers", "vorticity2d")

# largest |k| of the ``sine_low`` initial condition's modes
SINE_LOW_REACH = 3

# conservative stability-guard constants
CFL_TRANSPORT = 1.0
CFL_DIFFUSION = 0.5

# relative asymmetry above which an initial state is not the spectrum of a
# real field; states made from real samples sit near 1e-14
HERMITIAN_RTOL = 1e-10

Spectrum = SparseSpectrum | DenseSpectrum


@dataclass(frozen=True)
class EquationParams:
    """Which equation to evolve and its physical inputs."""

    equation: str
    coeff: CoefficientSpec | None = None
    gamma: float = 0.0
    forcing: CoefficientSpec | None = None

    def __post_init__(self) -> None:
        if self.equation not in EQUATIONS:
            raise ValueError(f"unknown equation {self.equation!r}")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.equation == "vorticity2d":
            if not self.gamma > 0:
                raise ValueError("vorticity2d requires gamma > 0")
        elif self.coeff is None:
            raise ValueError(f"{self.equation} requires a coefficient spec")


@dataclass(frozen=True)
class SolverState:
    """Solution at one step; ``previous`` is kept for Leap Frog only."""

    current: Spectrum
    previous: Spectrum | None
    step_index: int
    time: float


@dataclass(frozen=True)
class InitialSpec:
    """Named initial-condition generator with its frozen parameters."""

    name: str
    width: float = 0.5
    amplitude: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if not 0 < self.width < np.inf:  # NaN fails too
            raise ValueError(f"width must be positive and finite, got {self.width}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _check_cfl(kind: str, dt: float, limit: float, strict: bool) -> None:
    if dt <= limit:
        return
    msg = f"dt={dt:.3e} exceeds the {kind} stability guard {limit:.3e}"
    if strict:
        raise CflViolation(msg)
    warnings.warn(msg, CflWarning, stacklevel=_caller_stacklevel())


def _caller_stacklevel() -> int:
    """``stacklevel`` that makes a warning raised by the caller of this
    function name the first frame outside the package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def step_convection(state: SolverState, a_hat: Spectrum | HeldField, dt: float) -> Spectrum:
    """Leap Frog update u_prev + 2 dt a*(i k u); forward Euler on step 0."""
    transport = convolve_sum(((1.0, a_hat, spectral_derivative(state.current)),), real=True)
    if state.step_index == 0 or state.previous is None:
        return state.current + dt * transport
    return state.previous + (2.0 * dt) * transport


def step_parabolic(state: SolverState, a_hat: Spectrum | HeldField, dt: float) -> Spectrum:
    """Forward Euler update u + dt i k (a*(i k u))."""
    flux = convolve_sum(((1.0, a_hat, spectral_derivative(state.current)),), real=True)
    return state.current + dt * spectral_derivative(flux)


def _burgers_rhs(u: Spectrum, a_hat: Spectrum | HeldField) -> Spectrum:
    # i k ( a*(i k u) - (1/2) u*u ): diffusion minus the conservative flux
    flux = convolve_sum(((1.0, a_hat, spectral_derivative(u)), (-0.5, u, u)), real=True)
    return spectral_derivative(flux)


def step_burgers(state: SolverState, a_hat: Spectrum | HeldField, dt: float) -> Spectrum:
    """Two-stage TVD Runge-Kutta (Heun) step for the viscous conservation law."""
    u = state.current
    u1 = u + dt * _burgers_rhs(u, a_hat)
    return 0.5 * (u + u1) + (0.5 * dt) * _burgers_rhs(u1, a_hat)


def advection_term(u: Spectrum) -> Spectrum:
    """Spectral form of -(velocity . grad u) for the vorticity equation.
    Each velocity component is the perpendicular gradient of the inverse
    Laplacian, zero at k = 0 (mean-free streamfunction).  All four operands
    are ``u`` times a mode factor, ``(u, factor)``: a sparse ``u`` is
    placed once on the padded grid for the four of them, a dense one makes
    each (:func:`~sparsedyn.spectral.hold_operands`)."""
    terms = [(-1.0, (u, VELOCITY_FACTORS[d]), (u, DERIVATIVE_FACTORS[d])) for d in range(2)]
    return convolve_sum(terms, real=True)


def step_vorticity(
    state: SolverState,
    f_hat: Spectrum,
    gamma: float,
    dt: float,
) -> Spectrum:
    """Crank-Nicolson diffusion with the advection term lagged one step."""
    u = state.current
    if u.grid.dims != 2:
        raise NotTwoDimensional("vorticity stepping requires a 2-D grid")
    rhs = advection_term(u) + f_hat
    # gamma dt |k|^2: the diffusion CN splits half explicit, half implicit
    damp_rhs = gamma * dt * rhs.at(wavenumber_squares)
    damp_u = gamma * dt * u.at(wavenumber_squares)
    gain = 2.0 * dt / (2.0 + damp_rhs)
    decay = (2.0 - damp_u) / (2.0 + damp_u)
    return rhs.apply_mode_factor(gain) + u.apply_mode_factor(decay)


def coefficient_samples(params: EquationParams, grid: GridSpec) -> np.ndarray:
    """The coefficient of a 1-D run sampled on ``grid``
    (:func:`~sparsedyn.coefficients.sample_coefficient`, which raises
    ``UnderResolved`` on a grid too coarse for it); raises ``ValueError``
    for a parabolic or burgers coefficient that is not strictly positive."""
    samples = sample_coefficient(params.coeff, grid)
    if params.equation in ("parabolic", "burgers") and samples.min() <= 0:
        raise ValueError(f"{params.equation} needs a strictly positive coefficient")
    return samples


def _prepare(params: EquationParams, initial: Spectrum, dt: float, strict_cfl: bool) -> Spectrum:
    """The run's coefficient (or forcing) spectrum, in the container type of
    ``initial``: in closed form where there is one
    (:func:`~sparsedyn.coefficients.closed_form_spectrum`), so a sparse run
    of such a form builds nothing the size of the grid, else the DFT of its
    samples; checks the stability guard once for the whole run."""
    grid = initial.grid
    if params.equation == "vorticity2d":
        if grid.dims != 2:
            raise NotTwoDimensional("vorticity2d requires a 2-D grid")
        spec = params.forcing or CoefficientSpec.constant(0.0)
    else:
        samples = coefficient_samples(params, grid)
        a_max = float(np.max(np.abs(samples)))
        if a_max > 0 and params.equation == "convection":
            _check_cfl("transport", dt, CFL_TRANSPORT * grid.dx / a_max, strict_cfl)
        elif a_max > 0:
            _check_cfl("explicit-diffusion", dt, CFL_DIFFUSION * grid.dx**2 / a_max, strict_cfl)
        spec = params.coeff
    sparse = isinstance(initial, SparseSpectrum)
    closed = closed_form_spectrum(spec, grid)
    if closed is not None:
        return closed if sparse else closed.to_dense()
    dense = coefficient_field_of(spec, grid)
    return SparseSpectrum.from_dense(dense) if sparse else dense


def _fft_layout(
    params: EquationParams, state: SparseSpectrum, coeff: HeldField, answers: dict
) -> bool:
    """Whether a step from the sparse ``state`` runs in FFT layout: when its
    largest convolution, coefficient times state (the state times itself
    for vorticity), takes the transform path on the whole open box,
    ``K = n/2 - 1``, by the plan :func:`~sparsedyn.shrinkage.convolve_sum`
    follows (:func:`~sparsedyn.shrinkage.plan_convolution`).  The plan reads
    of the state only its open-box count and reach, so ``answers`` keeps
    the run's answer for each; the state's open-box entries
    (:attr:`~sparsedyn.shrinkage.SparseSpectrum.open_entries`) are made
    once, for this key and the plan alike."""
    grid = state.grid
    keys, _, reach = state.open_entries
    extent = keys.size, reach
    if extent not in answers:
        held = HeldField(state)
        other = held if params.equation == "vorticity2d" else coeff
        _, _, k, transform = plan_convolution(grid, [(1.0, other, held)])
        answers[extent] = transform and k == grid.box_edge
    return answers[extent]


def _iterate(
    initial: Spectrum,
    params: EquationParams,
    dt: float,
    n_steps: int,
    strict_cfl: bool,
    finish,
):
    """The stepping loop of every trajectory: yield the state at steps
    0..n_steps.  ``finish`` maps each update to the state to yield and the
    same state in the update's layout, which the next step starts from.

    A sparse run asks :func:`_fft_layout` before every step.  On entering
    FFT layout it scatters its states once, and it steps from the dense
    states ``finish`` returns until the rule sends it back to its sparse
    states.  The vorticity forcing is scattered the first time it is needed.

    Raises
    ------
    NonpositiveDt
        Unless ``dt > 0`` (NaN fails too).
    ValueError
        If ``n_steps`` is negative.
    HermitianViolation
        Before the first step, if ``initial`` is not the spectrum of a real
        field to ``HERMITIAN_RTOL``: the steps convolve real fields only.
    SolverDiverged
        As soon as an update holds a non-finite value.
    """
    if not dt > 0:
        raise NonpositiveDt(f"dt must be positive, got {dt}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if not initial.is_hermitian(HERMITIAN_RTOL):
        raise HermitianViolation(
            f"{params.equation}: the initial state is not the spectrum of a real field "
            f"(u(-k) != conj(u(k)) beyond {HERMITIAN_RTOL:.0e} of its largest amplitude)"
        )
    coeff = _prepare(params, initial, dt, strict_cfl)
    held = HeldField(coeff)  # the run, never a state, keeps its padded field
    forcing = {type(coeff): coeff}  # the vorticity forcing in each layout stepped in
    layouts: dict = {}  # the rule's answers, by state extent
    sparse, leap_frog = isinstance(initial, SparseSpectrum), params.equation == "convection"
    state = now = SolverState(initial, None, 0, 0.0)
    yield state
    for step in range(1, n_steps + 1):
        if sparse:
            if not _fft_layout(params, state.current, held, layouts):
                now = state
            elif isinstance(now.current, SparseSpectrum):
                previous = state.previous and state.previous.to_dense()
                now = SolverState(state.current.to_dense(), previous, state.step_index, state.time)
        if params.equation == "convection":
            v = step_convection(now, held, dt)
        elif params.equation == "parabolic":
            v = step_parabolic(now, held, dt)
        elif params.equation == "burgers":
            v = step_burgers(now, held, dt)
        else:
            if type(now.current) not in forcing:
                forcing[type(now.current)] = coeff.to_dense()
            v = step_vorticity(now, forcing[type(now.current)], params.gamma, dt)
        values = v.values if isinstance(v, SparseSpectrum) else v.coeffs
        if not np.isfinite(values).all():
            raise SolverDiverged(
                f"{params.equation}: non-finite coefficient at step {step} (t={step * dt:.6g})"
            )
        current, stepped = finish(v)
        state = SolverState(current, state.current if leap_frog else None, step, step * dt)
        previous = now.current if leap_frog else None
        now = state if stepped is current else SolverState(stepped, previous, step, step * dt)
        yield state


def iter_states(
    initial: SparseSpectrum,
    params: EquationParams,
    schedule: LambdaSchedule,
    dt: float,
    n_steps: int,
    protect_mean: bool = False,
    strict_cfl: bool = False,
):
    """Yield the state at steps 0..n_steps; each produced update is shrunk,
    and every state yielded is a :class:`~sparsedyn.shrinkage.SparseSpectrum`."""
    lam = lambda_at(schedule, dt)

    def shrink(v: Spectrum) -> tuple[SparseSpectrum, Spectrum]:
        if isinstance(v, DenseSpectrum):
            return soft_threshold_dense(v, lam, protect_mean)
        return (soft_threshold(v, lam, protect_mean),) * 2

    yield from _iterate(initial, params, dt, n_steps, strict_cfl, shrink)


def advance(
    initial: SparseSpectrum,
    params: EquationParams,
    schedule: LambdaSchedule,
    dt: float,
    n_steps: int,
    protect_mean: bool = False,
    strict_cfl: bool = False,
) -> tuple[SolverState, list[tuple[int, float]]]:
    """Run ``n_steps`` steps; returns the final state and the per-step trace
    of (n_s, sparsity fraction), initial state included."""
    trace: list[tuple[int, float]] = []
    state = None
    for state in iter_states(
        initial, params, schedule, dt, n_steps, protect_mean, strict_cfl
    ):
        trace.append((state.current.n_s, sparsity_fraction(state.current)))
    return state, trace


def _periodized_gaussian(x: np.ndarray, center: float, width: float, period: float) -> np.ndarray:
    """The Gaussian at ``center`` in ``[0, period]`` and its images
    ``center + i * period`` at the points ``x`` in ``[0, period)``, over the
    images that can change a sample: each point lies within ``period / 2``
    of one image, and every image beyond ``|i| = reach`` lies more than
    ``reach * period`` from it, so together they add less than eps/8 of
    the nearest."""
    spread = 2.0 * width**2
    reach = math.ceil(math.sqrt(0.25 + spread * math.log(16.0 / np.finfo(float).eps) / period**2))
    total = np.zeros_like(x)
    for image in range(-reach, reach + 1):
        total += np.exp(-((x - center - image * period) ** 2) / spread)
    return total


def initial_condition(spec: InitialSpec, grid: GridSpec) -> SparseSpectrum:
    """Build one of the named starting states.  In 2-D each is a product of
    per-axis factors, and its spectrum is the outer product of theirs
    (:meth:`~sparsedyn.shrinkage.SparseSpectrum.from_separable`), with
    nothing built the size of the grid; in 1-D it is the DFT of the
    samples.

    ``gauss_bump``: periodized Gaussian centered mid-domain (product form in
    2-D).  ``sine_low``: random modes with all |k| <= ``SINE_LOW_REACH``,
    seeded, built directly in the coefficient domain.  ``two_vortices``:
    opposite-sign Gaussian vorticity patches of width 0.4 at (L/4, L/2) and
    (3L/4, L/2).
    """
    if spec.name == "sine_low":
        # the box less k = 0: keys ascend in lexicographic mode order, so the
        # modes above k = 0 come last, and the box is symmetric, so the
        # modes below it are their negations in reverse order
        keys = box_index(grid, SINE_LOW_REACH)
        keys = keys[keys != mean_key(grid)]
        rng = np.random.default_rng(spec.seed)
        re, im = (rng.standard_normal((keys.size // 2, 2)) * (spec.amplitude / 4.0)).T
        upper = re + 1j * im
        values = np.concatenate((np.conj(upper[::-1]), upper))
        return SparseSpectrum.from_modes(grid, key_to_mode(grid, keys), values)

    period, x = grid.domain_length, grid.axis_coordinates()
    if spec.name == "gauss_bump":
        bump = _periodized_gaussian(x, period / 2.0, spec.width, period)
        if grid.dims == 1:
            return SparseSpectrum.from_dense(dft_forward(SpatialField(grid, spec.amplitude * bump)))
        return SparseSpectrum.from_separable(grid, spec.amplitude * bump, bump)
    if spec.name == "two_vortices":
        if grid.dims != 2:
            raise NotTwoDimensional("two_vortices requires a 2-D grid")
        width = 0.4
        column = _periodized_gaussian(x, period / 4.0, width, period) - _periodized_gaussian(
            x, 3 * period / 4.0, width, period
        )
        row = _periodized_gaussian(x, period / 2.0, width, period)
        return SparseSpectrum.from_separable(grid, spec.amplitude * column, row)
    raise UnknownInitialSpec(f"no initial condition named {spec.name!r}")
