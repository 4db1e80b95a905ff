"""Reference implementations the tests compare the program against.

Not collected by pytest (the name does not start with ``test_``); test
modules import it by name, since pytest puts this directory on
``sys.path``.  Holds the array forms of the three optimization flows and
the discrete adaptive-moment update they are the small-step limit of,
the one-call field-network wrappers, and the writer of the stability
probe's input series.
"""

import csv

import numpy as np

from momenta_node.benchmarks.stability import StabilityProbe
from momenta_node.dynamics import AdamParams, GradFn, PackedState
from momenta_node.field_net import FieldNet, eval_cached, vjp_from_cache

def gradient_flow_rhs(t: float, x: np.ndarray, grad_f: GradFn) -> np.ndarray:
    return -np.asarray(grad_f(x), dtype=float)


def hb_ode_rhs(t: float, state: PackedState, grad_f: GradFn, gamma: float) -> PackedState:
    """Damped momentum descent flow: x' = m, m' = -gamma*m - grad F.

    This is the small-step limit of the classical momentum recursion and
    collapses to x'' + gamma*x' = -grad F, so the objective decreases
    along trajectories (energy F + ||m||^2/2 dissipates at rate
    gamma*||m||^2).
    """
    g = np.asarray(grad_f(state.h), dtype=float)
    return PackedState(h=state.m, m=-gamma * state.m - g)


def adam_ode_rhs(t: float, state: PackedState, grad_f: GradFn, p: AdamParams) -> PackedState:
    g = np.asarray(grad_f(state.h), dtype=float)
    root = np.sqrt(state.v + p.epsilon)
    return PackedState(
        h=-state.m / root,
        m=(1.0 - p.alpha) * (g - state.m),
        v=(1.0 - p.beta) * (g * g - state.v),
    )


def discrete_adam_step(
    x: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    grad_f: GradFn,
    s: float,
    alpha: float = 0.9,
    beta: float = 0.99,
    epsilon: float = 1e-8,
):
    """One uncorrected adaptive-moment update with step size ``s``.

    The position moves first; both moment estimates then blend in the
    gradient taken at the new position.  Returns ``(x', m', v')``.
    """
    x_new = x - s * m / np.sqrt(v + epsilon)
    g = np.asarray(grad_f(x_new), dtype=float)
    m_new = alpha * m + (1.0 - alpha) * g
    v_new = beta * v + (1.0 - beta) * g * g
    return x_new, m_new, v_new


def forward(net: FieldNet, h: np.ndarray, t: float) -> np.ndarray:
    """Evaluate ``f(h, t)``."""
    out, _ = eval_cached(net, h, t)
    return out


def vjp_input(net: FieldNet, h: np.ndarray, t: float, a: np.ndarray) -> np.ndarray:
    """Contraction ``a^T df/dh`` at ``(h, t)``; time slot dropped."""
    _, cache = eval_cached(net, h, t)
    grad_h, _ = vjp_from_cache(net, cache, a)
    return grad_h


def vjp_params(net: FieldNet, h: np.ndarray, t: float, a: np.ndarray) -> np.ndarray:
    """Contraction ``a^T df/dtheta`` at ``(h, t)`` as a flat vector."""
    _, cache = eval_cached(net, h, t)
    _, grad_theta = vjp_from_cache(net, cache, a)
    return grad_theta


def write_series_csv(path, probe: StabilityProbe) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "input", "output"])
        for t, u, y in zip(probe.times, probe.inputs, probe.outputs):
            writer.writerow([repr(float(t)), repr(float(u)), repr(float(y))])
