"""Reference implementations the tests compare the program against.

Not collected by pytest (the name does not start with ``test_``); test
modules import it by name, since pytest puts this directory on
``sys.path``.  Holds a state's blocks as separate named arrays
(:class:`PackedState`, flattened by :func:`pack`), which the array forms
below take and return, the array forms of the three optimization flows and
the discrete adaptive-moment update they are the small-step limit of,
the one-call field-network wrappers, the writer of the stability
probe's input series, the block-by-block right-hand sides of the
trainable formulations and their adjoint (:func:`node_rhs`,
:func:`adjoint_rhs`), which the program's right-hand sides must match
bit for bit, and the scan over every hidden width that the stability
probe's closed-form width choice must agree with
(:func:`fair_hidden_widths_scan`), and gradcheck's central differences
by one scalar solve per perturbed value, which the batched differences
must agree with (:func:`central_differences_per_solve`).

It also holds the library's arguments at the CLI's defaults
(:func:`cli_defaults`, :func:`gradcheck_args`, :func:`trajectory_args`,
:func:`train_config`): the library has no defaults of its own, and a
test that calls it runs at the values the commands run at unless it says
otherwise.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from momenta_node import cli
from momenta_node import dynamics as dyn
from momenta_node import field_net as fn
from momenta_node.adjoint import ForwardSolveError
from momenta_node.benchmarks.stability import _field_param_count
from momenta_node.dynamics import AdamParams, GradFn
from momenta_node.field_net import ACTIVATIONS, FieldNet, eval_cached, vjp_from_cache
from momenta_node.solver import IntegratorConfig, SolveStatus, solve_dopri45


def cli_defaults(command, **overrides) -> dict:
    """``command``'s parameters at their ``cli.PARAMS`` defaults, with ``overrides``."""
    return {**{key: default for key, default, _, _ in cli.PARAMS[command]}, **overrides}


def gradcheck_args(**overrides) -> dict:
    """The keyword arguments ``gradcheck`` gets from the ``gradcheck`` command."""
    p = cli_defaults("gradcheck", **overrides)
    return {key: p[key] for key in ("d", "seed", "t1", "delta", "solver_tol")}


def trajectory_args(**overrides) -> dict:
    """The keyword arguments ``run_trajectory_experiment`` gets from the
    ``trajectory`` command; ``overrides`` use the command's keys."""
    p = cli_defaults("trajectory", **overrides)
    return dict(x0=p["x0"], t_end=p["T"], method=p["method"], step=p["step"],
                cfg=IntegratorConfig(rtol=p["rtol"], atol=p["atol"]))


def train_config(**overrides) -> dict:
    """The keyword arguments ``run_classification`` gets from the ``train`` command."""
    p = cli_defaults("train", **overrides)
    return {key: p[key] for key in ("epochs", "lr", "batch", "seed", "rtol", "atol", "dataset")}


@dataclass
class PackedState:
    """Named blocks of a state, each a separate array; absent blocks are None."""

    h: np.ndarray
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def pack(state: PackedState) -> np.ndarray:
    """The flat state: the present blocks in order ``h, m, v``, each row-major."""
    blocks = [b for b in (state.h, state.m, state.v) if b is not None]
    return np.concatenate([np.asarray(b, dtype=float).ravel() for b in blocks])


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
    """Evaluate ``f(h, t)`` at one state ``h`` ``(n,)``."""
    out, _ = eval_cached(net, h[None], t)
    return out[0]


def vjp_input(net: FieldNet, h: np.ndarray, t: float, a: np.ndarray) -> np.ndarray:
    """Contraction ``a^T df/dh`` at one state ``(h, t)``; time slot dropped."""
    _, cache = eval_cached(net, h[None], t)
    grad_h, _ = vjp_from_cache(net, cache, a[None], out=np.empty(net.n_params))
    return grad_h[0]


def vjp_params(net: FieldNet, h: np.ndarray, t: float, a: np.ndarray) -> np.ndarray:
    """Contraction ``a^T df/dtheta`` at one state ``(h, t)`` as a flat vector."""
    _, cache = eval_cached(net, h[None], t)
    _, grad_theta = vjp_from_cache(net, cache, a[None], out=np.empty(net.n_params))
    return grad_theta


def write_series_csv(path, times, inputs, outputs) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "input", "output"])
        for t, u, y in zip(times, inputs, outputs):
            writer.writerow([repr(float(t)), repr(float(u)), repr(float(y))])


# ---------------------------------------------------------------------------
# Block-by-block right-hand sides: each block a separate array, a single
# sample as plain vectors, a fresh array for every intermediate.  The
# program's right-hand sides write into preallocated block arrays and must
# give the same bits, NaN and inf included.

def _unpack(vec, spec, d, batch=1) -> PackedState:
    w = spec.width(d)
    shape = (batch, w) if batch > 1 else (w,)
    size = w * batch
    parts = [vec[i * size : (i + 1) * size].reshape(shape) for i in range(spec.n_blocks)]
    return PackedState(h=parts[0], m=parts[1] if spec.has_m else None, v=parts[-1] if spec.has_v else None)


def _field(net, h, t):
    """Field forward pass: ``(f, cache)`` as :func:`_field_vjp` reads it."""
    squeeze = h.ndim == 1
    u = h.reshape(1, -1) if squeeze else h
    u = np.concatenate([u, np.full((u.shape[0], 1), float(t))], axis=1)
    act, _ = ACTIVATIONS[net.activation]
    layer_in, pre, x = [u], [], u
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = x @ W.T + b
        pre.append(z)
        x = z
        if l < len(net.weights) - 1:
            x = act(z)
            layer_in.append(x)
    return (x[0] if squeeze else x), (layer_in, pre, squeeze)


def _field_vjp(net, cache, a):
    layer_in, pre, squeeze = cache
    act = net.activation
    g = a.reshape(1, -1) if a.ndim == 1 else a
    grads_W, grads_b = [None] * len(net.weights), [None] * len(net.weights)
    for l in range(len(net.weights) - 1, -1, -1):
        grads_W[l] = g.T @ layer_in[l]
        grads_b[l] = g.sum(axis=0)
        g = g @ net.weights[l]
        if l > 0:
            z = pre[l - 1]
            if act == "tanh":
                c = np.cosh(z)
                g = g * (1.0 / (c * c))
            else:
                g = g * (z > 0.0).astype(float)
    grad_h = g[:, : net.state_dim]
    return (grad_h[0] if squeeze else grad_h), np.concatenate([W.ravel() for W in grads_W] + grads_b)


def _derivative(spec, field, t, state):
    kind = spec.kind
    if kind == dyn.SECOND_ORDER:
        f, cache = _field(field, np.concatenate([state.h, state.m], axis=-1), t)
        return PackedState(h=state.m.copy(), m=f), f, cache
    f, cache = _field(field, state.h, t)
    if kind in (dyn.VANILLA, dyn.AUGMENTED):
        return PackedState(h=f), f, cache
    if kind in (dyn.HEAVY_BALL, dyn.GENERALIZED_HEAVY_BALL):
        m = state.m
        if kind == dyn.GENERALIZED_HEAVY_BALL:
            m = np.clip(m, -dyn.SATURATION_BOUND, dyn.SATURATION_BOUND)
        return PackedState(h=-m, m=-spec.hb.gamma * state.m + f), f, cache
    p = spec.adam
    dstate = PackedState(
        h=-state.m / np.sqrt(state.v + p.epsilon),
        m=(1.0 - p.alpha) * (-f - state.m),
        v=(1.0 - p.beta) * (f * f - state.v),
    )
    return dstate, f, cache


def node_rhs(spec, field, d, batch=1):
    """Forward right-hand side on the flat state."""

    def rhs(t, y):
        return pack(_derivative(spec, field, t, _unpack(y, spec, d, batch))[0])

    return rhs


def _adjoint_core(spec, field, t, st, ast, variant):
    kind = spec.kind
    dst, f, cache = _derivative(spec, field, t, st)
    if kind in (dyn.VANILLA, dyn.AUGMENTED):
        g_h, g_th = _field_vjp(field, cache, ast.h)
        return dst, PackedState(h=-g_h), -g_th
    if kind == dyn.SECOND_ORDER:
        g_in, g_th = _field_vjp(field, cache, ast.m)
        w = st.h.shape[-1]
        return dst, PackedState(h=-g_in[..., :w], m=-ast.h - g_in[..., w:]), -g_th
    if kind in (dyn.HEAVY_BALL, dyn.GENERALIZED_HEAVY_BALL):
        gamma = spec.hb.gamma
        g_h, g_th = _field_vjp(field, cache, ast.m)
        if kind == dyn.HEAVY_BALL:
            dash_m = ast.h + gamma * ast.m
        else:
            mask = (np.abs(st.m) < dyn.SATURATION_BOUND).astype(float)
            dash_m = mask * ast.h + gamma * ast.m
        d_damp = gamma * (1.0 - gamma) * float(np.sum(ast.m * st.m))
        return dst, PackedState(h=-g_h, m=dash_m), np.concatenate([-g_th, [d_damp]])
    p = spec.adam
    root = np.sqrt(st.v + p.epsilon)
    if variant == "exact":
        c = (1.0 - p.alpha) * ast.m - (1.0 - p.beta) * (2.0 * f * ast.v)
    else:
        c = ast.m - ast.v
    g_h, g_th = _field_vjp(field, cache, c)
    dast = PackedState(
        h=g_h,
        m=ast.h / root + (1.0 - p.alpha) * ast.m,
        v=-ast.h * st.m / (2.0 * root**3) + (1.0 - p.beta) * ast.v,
    )
    return dst, dast, g_th


def adjoint_rhs(spec, field, d, batch, variant, forward_of_t=None):
    """Joint backward right-hand side: ``[cotangent, accumulator]`` with the
    state read from ``forward_of_t``, as the program's adjoint reads its
    forward record; or, without ``forward_of_t``, ``[state, cotangent,
    accumulator]``, the state recomputed in reverse inside the joint system
    (the continuous adjoint that reconstructs its trajectory, kept as an
    independent oracle)."""
    bd = batch * spec.state_dim(d)

    def rhs(t, joint):
        if forward_of_t is None:
            st = _unpack(joint[:bd], spec, d, batch)
            ast = _unpack(joint[bd : 2 * bd], spec, d, batch)
            dst, dast, dth = _adjoint_core(spec, field, t, st, ast, variant)
            return np.concatenate([pack(dst), pack(dast), dth])
        st = _unpack(forward_of_t(t), spec, d, batch)
        ast = _unpack(joint[:bd], spec, d, batch)
        _, dast, dth = _adjoint_core(spec, field, t, st, ast, variant)
        return np.concatenate([pack(dast), dth])

    return rhs


def fair_hidden_widths_scan(specs, d, base_hidden, tolerance=0.10):
    """:func:`momenta_node.benchmarks.stability.fair_hidden_widths` by
    scanning every width in ``[1, 4096]``: the count is evaluated at all
    of them at once, and ``argmin`` keeps the first (smallest) of equally
    close widths, as ``min`` over the range does."""
    budget = _field_param_count(dyn.DynamicsSpec(kind=dyn.VANILLA), d, base_hidden)
    hs = np.arange(1, 4097)
    widths = {
        name: int(hs[np.argmin(np.abs(_field_param_count(spec, d, hs) - budget))])
        for name, spec in specs.items()
    }
    counts = [_field_param_count(specs[n], d, w) for n, w in widths.items()]
    if (max(counts) - min(counts)) / budget >= tolerance:
        raise ValueError("cannot match parameter counts")
    return widths


def solve_loss(spec, field, y0, t1, c, cfg):
    """The loss ``c . y(t1)`` of one batch-1 solve, and the solve."""
    rhs = dyn.make_node_rhs(spec, field, field.out_dim - spec.aug_width)
    res = solve_dopri45(rhs, y0, 0.0, t1, cfg)
    if res.status is not SolveStatus.SUCCESS:
        raise ForwardSolveError(res.status)
    return float(c @ res.y_final), res


def central_differences_per_solve(spec, field, y0, t1, c, cfg, delta):
    """:func:`momenta_node.adjoint.central_differences` with one batch-1
    solve per perturbed value: two per parameter and two per
    initial-state entry, each on its own step sequence."""
    base_vec = fn.params_to_vec(field)
    n_field = base_vec.size
    n_total = n_field + spec.extra_param_count
    g_fd = np.zeros(n_total)
    for i in range(n_total):
        if i < n_field:
            vp = base_vec.copy()
            vm = base_vec.copy()
            vp[i] += delta
            vm[i] -= delta
            lp, _ = solve_loss(spec, fn.vec_to_params(field, vp), y0, t1, c, cfg)
            lm, _ = solve_loss(spec, fn.vec_to_params(field, vm), y0, t1, c, cfg)
        else:
            sp = replace(spec, hb=dyn.HeavyBallParams(theta=spec.hb.theta + delta))
            sm = replace(spec, hb=dyn.HeavyBallParams(theta=spec.hb.theta - delta))
            lp, _ = solve_loss(sp, field, y0, t1, c, cfg)
            lm, _ = solve_loss(sm, field, y0, t1, c, cfg)
        g_fd[i] = (lp - lm) / (2.0 * delta)

    g0_fd = np.zeros(y0.size)
    for i in range(y0.size):
        yp = y0.copy()
        ym = y0.copy()
        yp[i] += delta
        ym[i] -= delta
        lp, _ = solve_loss(spec, field, yp, t1, c, cfg)
        lm, _ = solve_loss(spec, field, ym, t1, c, cfg)
        g0_fd[i] = (lp - lm) / (2.0 * delta)
    return g_fd, g0_fd
