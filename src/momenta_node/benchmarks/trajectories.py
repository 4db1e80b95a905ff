"""Optimization-flow races over 2-d landscapes.

Integrates plain gradient flow, damped momentum flow, and the adaptive
moment flow from the same start point over the same horizon, then
summarizes how close each one ends up to the minimizer and when (if
ever) it first enters a small ball around it.

The default integrator is fixed-step RK4 rather than the adaptive
solver.  An adaptive controller keeps re-kicking the state with local
errors proportional to its tolerances, so near a minimizer every flow
orbits a tolerance-sized floor, and the floors order by each flow's
ring amplification rather than by anything meaningful.  A fixed step
has no such floor: each flow contracts until its per-step increment
rounds below one ulp and then parks, and the parking distance shrinks
with the flow's own speed scale near the fixed point.  The adaptive
path stays available via ``method="dopri45"`` for qualitative runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from momenta_node.dynamics import AdamParams, make_flow_rhs
from momenta_node.solver import IntegratorConfig, SolveResult, solve_dopri45, solve_rk4

from .landscapes import Landscape, get_landscape

FLOWS = ("ode", "hbode", "adamode")

# Frozen experiment defaults.  gamma sits just above critical damping for
# the Rosenbrock valley (4*lambda_slow ~ 1.597), which maximizes the slow
# contraction rate; the adaptive-flow constants trade raw speed for a
# smooth, well-resolved approach.  The step keeps RK4 stable on the
# stiffest stretch of the Rosenbrock valley (curvature ~ 4e3 near the
# default start).
DEFAULT_GAMMA = 1.28
DEFAULT_FLOW_ADAM = AdamParams(alpha=0.05, beta=0.05, epsilon=1e-2)
DEFAULT_HORIZON = 200.0
DEFAULT_STEP = 6.25e-4
# The most RK4 steps one flow may take; the grid of 10M nodes takes 80 MB.
MAX_RK4_STEPS = 10_000_000
# Radius of the ball around the minimizer whose first entry is reported.
ENTRY_RADIUS = 0.1
# Samples per flow, evenly spaced over [0, t_end].
N_SAMPLES = 2001


@dataclass
class FlowTrajectory:
    """One flow's sampled path plus its summary statistics."""

    dynamics: str
    ts: np.ndarray
    xs: np.ndarray
    status: str
    final_distance_to_min: float
    first_time_within_radius: float | None


@dataclass
class TrajectoryExperiment:
    landscape: Landscape
    x0: np.ndarray
    t_end: float
    runs: dict[str, FlowTrajectory] = field(default_factory=dict)
    results: dict[str, SolveResult] = field(default_factory=dict)

    @property
    def all_failed(self) -> bool:
        return all(r.status != "success" for r in self.runs.values())


def run_trajectory_experiment(
    landscape: str | Landscape,
    x0=None,
    t_end: float = DEFAULT_HORIZON,
    method: str = "rk4",
    step: float = DEFAULT_STEP,
    cfg: IntegratorConfig | None = None,
) -> TrajectoryExperiment:
    """Race the three flows and summarize proximity to the minimizer.

    A flow that blows up or runs out of steps keeps its sampled prefix
    and reports the failure through ``status``; the comparison proceeds
    with whatever each flow achieved.  ``final_distance_to_min`` always
    reflects the last accepted state, so a diverged flow reports a huge
    (possibly infinite) distance rather than poisoning the experiment.

    ``method`` selects fixed-step RK4 (``step`` sets the grid) or the
    adaptive solver (``cfg`` sets tolerances).  Each flow is sampled at
    ``N_SAMPLES`` evenly spaced times.  Raises ValueError for an unknown
    landscape, an x0 outside the landscape's domain, or an RK4 step that
    makes more than ``MAX_RK4_STEPS`` steps.
    """
    land = get_landscape(landscape) if isinstance(landscape, str) else landscape
    if method not in ("rk4", "dopri45"):
        raise ValueError("method must be 'rk4' or 'dopri45'")
    x0 = np.asarray(land.default_start if x0 is None else x0, dtype=float)
    if x0.shape != (2,):
        raise ValueError("x0 must be a 2-vector")
    if not land.contains(x0):
        raise ValueError(f"x0 {x0.tolist()} lies outside the {land.name} domain {land.domain}")
    if not 0.0 < t_end < np.inf:
        raise ValueError("t_end must be finite and positive")
    if method == "rk4":
        if not 0.0 < step < np.inf:
            raise ValueError("step must be finite and positive")
        # Refused before solve_rk4 allocates its grid of one node per step.
        if t_end / step > MAX_RK4_STEPS:
            raise ValueError(f"t_end / step asks for more than {MAX_RK4_STEPS} RK4 steps")
        n_steps = max(1, int(round(t_end / step)))

    sample_times = np.linspace(0.0, t_end, N_SAMPLES)
    exp = TrajectoryExperiment(landscape=land, x0=x0, t_end=t_end)

    for name in FLOWS:
        rhs, init = make_flow_rhs(name, land.grad, gamma=DEFAULT_GAMMA, adam=DEFAULT_FLOW_ADAM)
        y0 = init(x0)
        if method == "rk4":
            res = solve_rk4(rhs, y0, 0.0, t_end, n_steps, sample_times=sample_times)
        else:
            res = solve_dopri45(rhs, y0, 0.0, t_end, cfg, sample_times=sample_times)
        xs = res.states[:, :2]
        with np.errstate(over="ignore", invalid="ignore"):
            dist = np.linalg.norm(xs - land.minimizer, axis=1)
            final_distance = float(np.linalg.norm(res.y_final[:2] - land.minimizer))
        finite = np.isfinite(dist)
        hits = np.flatnonzero(finite & (dist <= ENTRY_RADIUS))
        entry = float(res.ts[hits[0]]) if hits.size else None
        exp.results[name] = res
        exp.runs[name] = FlowTrajectory(
            dynamics=name,
            ts=res.ts.copy(),
            xs=xs.copy(),
            status=res.status.value,
            final_distance_to_min=final_distance,
            first_time_within_radius=entry,
        )
    return exp
