"""Norm-growth stability probe across the whole model family.

Randomly initialized continuous-depth models with an unbounded (relu)
field are integrated far past their usual horizon; momentum formulations
amplify the state exponentially and can overflow in finite time, while
the adaptive-moment formulation divides its velocity by a running
root-mean-square and stays tame with no bounded activation anywhere.
The probe records log10 of the hidden-block norm on a shared time grid
and flags finite-time blow-ups.

The models are not driven by any signal: a probe is its initial state,
the first ``d`` outputs of a series, which seed every model's hidden
block.  The series is a forced Duffing oscillator's response by default,
integrated only as far as the last sample read
(:func:`duffing_probe`); an external series can be supplied instead, read
from a `t,input,output` CSV by
:func:`momenta_node.csv_formats.read_series_csv`, whose first ``d``
outputs are taken as read, whatever its time stamps.
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


def duffing_probe(seed: int, samples: int) -> np.ndarray:
    """The first ``samples`` outputs of a forced Duffing oscillator response.

    x'' + delta x' + a x + b x^3 = A cos(omega t), with the initial
    condition and forcing phase drawn from ``seed``, sampled on the
    uniform grid of ``N_SERIES`` points over ``[0, T_SERIES]``; a larger
    ``samples`` returns the whole grid's outputs.  The solve ends at the
    last point returned, so a probe that reads a few samples pays only
    for those.
    """
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
        return x0[:1]
    res = solve_dopri45(rhs, x0, 0.0, ts[-1], IntegratorConfig(rtol=1e-9, atol=1e-9), sample_times=ts)
    if not res.ok:
        raise RuntimeError(f"probe generator failed: {res.status.name}")
    return res.states[:, 0]


MODEL_SPECS: dict[str, DynamicsSpec] = {
    "node": DynamicsSpec(kind=VANILLA),
    "anode": DynamicsSpec(kind=AUGMENTED),
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
    h0: np.ndarray,
    t1: float,
    models: dict[str, DynamicsSpec],
    seed: int,
    cfg: IntegratorConfig,
) -> StabilityResult:
    """Integrate every model from the same start ``h0`` to ``t1`` and record norm growth.

    The hidden-block dimension is ``d = h0.size``, and the norms are
    sampled on ``N_GRID`` uniform points over ``[0, t1]``.  All models
    share the init seed and a parameter-fair hidden width
    (``fair_hidden_widths`` at ``BASE_HIDDEN``); every field uses
    ``ACTIVATION`` and has its initial weights scaled by ``GAIN``.
    A model whose solve dies (overflow, step underflow) gets its failure
    time recorded in ``blowup_at``; its curve holds the last finite
    value so the grid stays rectangular.
    """
    d = h0.size
    grid = np.linspace(0.0, t1, N_GRID)
    widths = fair_hidden_widths(models, d, BASE_HIDDEN)

    def run_one(name, spec):
        fld = _scaled_field(spec, d, widths[name], seed)
        rhs = make_node_rhs(spec, fld, d)
        y0 = initial_state(spec, h0)
        res = solve_dopri45(rhs, y0, 0.0, t1, cfg, sample_times=grid)
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
