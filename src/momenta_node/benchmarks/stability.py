"""Norm-growth stability probe across the whole model family.

Randomly initialized continuous-depth models with an unbounded (relu)
field are integrated far past their usual horizon; momentum formulations
amplify the state exponentially and can overflow in finite time, while
the adaptive-moment formulation divides its velocity by a running
root-mean-square and stays tame with no bounded activation anywhere.
The probe records log10 of the hidden-block norm on a shared time grid
and flags finite-time blow-ups.

The models are not driven by any signal: the first ``d`` outputs of a
probe series seed every model's initial hidden state.  The series is a
forced Duffing oscillator's response by default, integrated only as far
as the last sample read; an external series can be supplied instead
(read from a `t,input,output` CSV by
:func:`momenta_node.csv_formats.read_series_csv`) and is resampled onto a
uniform grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from momenta_node.dynamics import (
    ADAM,
    AUGMENTED,
    GENERALIZED_HEAVY_BALL,
    HEAVY_BALL,
    SECOND_ORDER,
    VANILLA,
    DynamicsSpec,
    initial_state,
    make_node_rhs,
)
from momenta_node.field_net import FieldNet, init_field
from momenta_node.solver import IntegratorConfig, solve_dopri45


# Samples of the shared time grid every model's norm curve is recorded on.
N_GRID = 129
# The synthetic series: N_SERIES uniform samples of the Duffing response
# over [0, T_SERIES].
N_SERIES = 256
T_SERIES = 16.0
# The vanilla model's hidden width, which sets every model's parameter
# budget, and the activation and weight gain of every model's field.
BASE_HIDDEN = 16
ACTIVATION = "relu"
GAIN = 2.0
# The largest relative spread of parameter counts fair_hidden_widths accepts.
WIDTH_TOLERANCE = 0.10
# Step control of every probe solve; the CLI's tolerances replace rtol/atol.
PROBE_SOLVER = IntegratorConfig(rtol=1e-6, atol=1e-6, max_steps=200_000)


@dataclass
class StabilityProbe:
    """A forcing/response series plus the probe horizon.

    ``times``/``inputs``/``outputs`` describe the series; its first ``d``
    output values seed the models' initial hidden state, and nothing else
    of it reaches the models.
    """

    times: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    t1: float = 64.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)
        if not (self.times.size == self.inputs.size == self.outputs.size):
            raise ValueError("times, inputs, and outputs must have equal length")
        if self.times.size == 0:
            raise ValueError("probe series is empty")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("probe series times must be strictly increasing")
        if self.t1 <= 0:
            raise ValueError("probe horizon t1 must be positive")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t1, N_GRID)


def duffing_probe(seed: int, t1: float, samples: int) -> StabilityProbe:
    """The first ``samples`` points of a forced Duffing oscillator response.

    x'' + delta x' + a x + b x^3 = A cos(omega t), with the initial
    condition and forcing phase drawn from ``seed``, on the uniform grid
    of ``N_SERIES`` points over ``[0, T_SERIES]``; a larger ``samples``
    returns the whole grid.  The solve ends at the last point returned,
    so a probe that reads a few samples pays only for those.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    delta, a, b = 0.3, -1.0, 1.0
    amp, omega = 0.5, 1.2
    phase = rng.uniform(0.0, 2.0 * np.pi)
    x0 = rng.uniform(-1.0, 1.0, size=2)

    def rhs(t, y):
        x, xdot = y
        force = amp * math.cos(omega * t + phase)
        return np.array([xdot, force - delta * xdot - a * x - b * x**3])

    ts = np.linspace(0.0, T_SERIES, N_SERIES)[:samples]
    if ts.size == 1:
        # The lone sample is the start, and a solve needs t1 != t0.
        outputs = x0[:1]
    else:
        res = solve_dopri45(
            rhs, x0, 0.0, ts[-1], IntegratorConfig(rtol=1e-9, atol=1e-9), sample_times=ts
        )
        if not res.ok:
            raise RuntimeError(f"probe generator failed: {res.status.name}")
        outputs = res.states[:, 0]
    return StabilityProbe(
        times=ts,
        inputs=amp * np.cos(omega * ts + phase),
        outputs=outputs,
        t1=t1,
    )


def series_probe(times, inputs, outputs, t1: float) -> StabilityProbe:
    """Build a probe from a measured series, as ``read_series_csv`` returns it.

    Non-uniform time stamps are resampled onto a uniform grid of the
    same length; already-uniform series pass through untouched so a
    write/read round trip is exact.
    """
    if times.size >= 3:
        dt = np.diff(times)
        if np.max(np.abs(dt - dt.mean())) > 1e-9 * max(dt.mean(), 1e-300):
            uniform = np.linspace(times[0], times[-1], times.size)
            inputs = np.interp(uniform, times, inputs)
            outputs = np.interp(uniform, times, outputs)
            times = uniform
    return StabilityProbe(times=times, inputs=inputs, outputs=outputs, t1=t1)


MODEL_SPECS: dict[str, DynamicsSpec] = {
    "node": DynamicsSpec(kind=VANILLA),
    "anode": DynamicsSpec(kind=AUGMENTED, aug_width=1),
    "sonode": DynamicsSpec(kind=SECOND_ORDER),
    "hbnode": DynamicsSpec(kind=HEAVY_BALL),
    "ghbnode": DynamicsSpec(kind=GENERALIZED_HEAVY_BALL),
    "adamnode": DynamicsSpec(kind=ADAM),
}


def model_spec(name: str) -> DynamicsSpec:
    try:
        return replace(MODEL_SPECS[name])
    except KeyError:
        known = ", ".join(MODEL_SPECS)
        raise ValueError(f"unknown model {name!r}; expected one of: {known}") from None


def _field_param_count(spec: DynamicsSpec, d: int, hidden: int) -> int:
    w_in = spec.field_in_dim(d) + 1
    w_out = spec.width(d)
    n_field = w_in * hidden + hidden * w_out + hidden + w_out
    return n_field + spec.extra_param_count


def fair_hidden_widths(specs: dict[str, DynamicsSpec], d: int, base_hidden: int) -> dict[str, int]:
    """Pick one hidden width per model so parameter counts nearly match.

    The vanilla model at ``base_hidden`` sets the budget; every other
    model gets the width in ``[1, 4096]`` whose count lands closest, the
    smaller one on a tie.  Raises if the relative spread cannot be
    brought under ``WIDTH_TOLERANCE``.
    """
    budget = _field_param_count(DynamicsSpec(kind=VANILLA), d, base_hidden)
    widths: dict[str, int] = {}
    counts: dict[str, int] = {}
    for name, spec in specs.items():
        # The count is linear in the width, so the closest width is the
        # floor or the ceiling of the exact one, clamped to the range.
        fixed = _field_param_count(spec, d, 0)
        below = (budget - fixed) // (_field_param_count(spec, d, 1) - fixed)
        near = sorted({min(max(h, 1), 4096) for h in (below, below + 1)})
        best = min(near, key=lambda h: abs(_field_param_count(spec, d, h) - budget))
        widths[name] = best
        counts[name] = _field_param_count(spec, d, best)
    spread = (max(counts.values()) - min(counts.values())) / budget
    if spread >= WIDTH_TOLERANCE:
        raise ValueError(
            f"cannot match parameter counts within {WIDTH_TOLERANCE:.0%}: {counts} (spread {spread:.1%})"
        )
    return widths


def _scaled_field(spec: DynamicsSpec, d: int, hidden: int, seed: int) -> FieldNet:
    base = init_field(spec.field_in_dim(d), (hidden,), spec.width(d), activation=ACTIVATION, seed=seed)
    return FieldNet(
        weights=[GAIN * W for W in base.weights],
        biases=[b.copy() for b in base.biases],
        activation=base.activation,
        time_conditioned=base.time_conditioned,
    )


@dataclass
class StabilityResult:
    grid: np.ndarray
    log10_norms: dict[str, np.ndarray]
    blowup_at: dict[str, float]
    statuses: dict[str, str]
    param_counts: dict[str, int]
    widths: dict[str, int]
    d: int
    seed: int


def run_stability_probe(
    probe: StabilityProbe,
    models: dict[str, DynamicsSpec] | None = None,
    d: int = 4,
    seed: int = 0,
    cfg: IntegratorConfig = PROBE_SOLVER,
) -> StabilityResult:
    """Integrate every model from the same start and record norm growth.

    All models share the init seed and a parameter-fair hidden width
    (``fair_hidden_widths`` at ``BASE_HIDDEN``); every field uses
    ``ACTIVATION`` and has its initial weights scaled by ``GAIN``.
    A model whose solve dies (overflow, step underflow) gets its failure
    time recorded in ``blowup_at``; its curve holds the last finite
    value so the grid stays rectangular.
    """
    if models is None:
        models = dict(MODEL_SPECS)
    if probe.outputs.size < d:
        raise ValueError(f"probe series has {probe.outputs.size} samples; need at least d={d}")
    grid = probe.grid
    h0 = probe.outputs[:d]
    widths = fair_hidden_widths(models, d, BASE_HIDDEN)

    def run_one(name, spec):
        fld = _scaled_field(spec, d, widths[name], seed)
        rhs = make_node_rhs(spec, fld, d)
        y0 = initial_state(spec, h0)
        res = solve_dopri45(rhs, y0, 0.0, probe.t1, cfg, sample_times=grid)
        w = spec.width(d)
        if len(res.states) > 0:
            states = np.asarray(res.states)
            # Norms of huge-but-finite states can overflow to inf; they
            # are filtered out just below like any other lost sample.
            with np.errstate(over="ignore", invalid="ignore"):
                norms = np.linalg.norm(states[:, :w], axis=1)
        else:
            norms = np.array([])
        norms = norms[np.isfinite(norms)]
        if norms.size == 0:
            norms = np.array([float(np.linalg.norm(h0))])
        curve = np.empty(grid.size)
        n_have = min(norms.size, grid.size)
        curve[:n_have] = norms[:n_have]
        curve[n_have:] = norms[n_have - 1]
        with np.errstate(divide="ignore"):
            log_curve = np.log10(np.maximum(curve, 1e-300))
        blow = None if res.ok else float(res.t_final)
        return log_curve, blow, res.status

    results = {name: run_one(name, spec) for name, spec in models.items()}
    return StabilityResult(
        grid=grid,
        log10_norms={name: r[0] for name, r in results.items()},
        blowup_at={name: r[1] for name, r in results.items() if r[1] is not None},
        statuses={name: r[2].name for name, r in results.items()},
        param_counts={n: _field_param_count(models[n], d, widths[n]) for n in models},
        widths=widths,
        d=d,
        seed=seed,
    )
