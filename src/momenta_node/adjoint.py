"""Continuous adjoint gradients for every dynamics formulation.

The backward pass integrates one joint system from ``t1`` down to ``t0``:
the state cotangent and a running parameter-gradient accumulator.  The
forward state is not integrated again; it is read from the dense output
that the forward solve recorded (:meth:`SolveResult.dense_state`), so the
reverse pass never reconstructs the trajectory backward in time and needs
no repair of it.  For state ``z' = g(z, theta, t)`` the cotangent obeys
``a' = -a^T dg/dz`` and the accumulator ``q' = -a^T dg/dtheta``; starting
from ``a(t1) = dL/dz(t1)`` and ``q(t1) = 0``, the solve lands on
``a(t0) = dL/dz(t0)`` and ``q(t0) = dL/dtheta``.

For the adaptive-moment formulation the cotangent contracts against the
exact Jacobian of the forward equations, including the ``1 - alpha`` /
``1 - beta`` rate factors and the ``2 f`` chain factor from the
squared-field term (dropping those factors from the rows that contract
the field Jacobian gives a system that fails finite-difference
verification).  It divides by ``sqrt(v + eps)`` of the recorded ``v``,
which stays positive on a forward solve: ``dv/dt >= -(1-beta) v`` bounds
it below by ``v(t0) exp(-(1-beta) (t - t0))``.

Every formulation's trainable parameters are the field's flat vector,
with the damping pre-activation appended for the heavy-ball family.

:func:`gradcheck` checks :func:`backward` against central finite
differences.  Its forward work is one batched solve
(:func:`central_differences`): the unperturbed base and both sides of
every parameter's and initial-state entry's difference are rows of it,
and the adjoint reads the base row's record.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import dynamics as dyn
from . import field_net as fn
from .solver import H_INIT, IntegratorConfig, SolveResult, SolveStatus, solve_dopri45


class BackwardSolveError(RuntimeError):
    """The joint backward integration did not reach t0."""

    def __init__(self, status: SolveStatus):
        super().__init__(f"backward solve failed with status {status.value}")
        self.status = status


class ForwardSolveError(RuntimeError):
    """A forward integration that a gradient check needs did not reach t1."""

    def __init__(self, status: SolveStatus):
        super().__init__(f"forward solve failed with status {status.value}")
        self.status = status


@dataclass
class AdjointRun:
    """Gradients and bookkeeping from one backward pass.

    ``grad_params`` follows :func:`momenta_node.field_net.params_to_vec`
    order, with the scalar damping gradient appended for the heavy-ball
    family.  ``grad_initial_state`` is the cotangent at ``t0``, flat in the
    state's own layout (:func:`momenta_node.dynamics.blocks` views it).
    ``h_next`` is the reverse solve's :attr:`SolveResult.h_next`.
    """

    grad_params: np.ndarray
    grad_initial_state: np.ndarray
    backward_nfe: int
    h_next: float


def loss_grad_from_h(spec: dyn.DynamicsSpec, a_h: np.ndarray) -> np.ndarray:
    """Flat terminal cotangent for a loss that reads only the h block."""
    a = np.zeros((spec.n_blocks,) + np.shape(a_h))
    a[0] = a_h
    return a.reshape(-1)


def param_count(spec: dyn.DynamicsSpec, field: fn.FieldNet) -> int:
    return field.n_params + spec.extra_param_count


def _cotangent(spec, field, s, a, f, cache, da, acc):
    """Write the cotangent derivatives into ``da`` and the accumulator's into ``acc``.

    ``s``, ``a`` and ``da`` are block arrays ``(n_blocks, batch, width)``
    of the forward state, its cotangent and the cotangent's derivative;
    ``f``/``cache`` are the field's value and cache at ``s``.
    """
    kind = spec.kind
    if kind in (dyn.VANILLA, dyn.AUGMENTED):
        g_h, _ = fn.vjp_from_cache(field, cache, a[0], out=acc)
        np.negative(g_h, out=da[0])
        np.negative(acc, out=acc)
    elif kind == dyn.SECOND_ORDER:
        g_in, _ = fn.vjp_from_cache(field, cache, a[1], out=acc)
        w = s.shape[-1]
        np.negative(g_in[:, :w], out=da[0])
        np.subtract(-a[0], g_in[:, w:], out=da[1])
        np.negative(acc, out=acc)
    elif kind in (dyn.HEAVY_BALL, dyn.GENERALIZED_HEAVY_BALL):
        gamma = spec.hb.gamma
        g_h, _ = fn.vjp_from_cache(field, cache, a[1], out=acc[:-1])
        np.negative(g_h, out=da[0])
        if kind == dyn.HEAVY_BALL:
            np.add(a[0], gamma * a[1], out=da[1])
        else:
            mask = (np.abs(s[1]) < dyn.SATURATION_BOUND).astype(float)
            np.add(mask * a[0], gamma * a[1], out=da[1])
        np.negative(acc[:-1], out=acc[:-1])
        # d(gamma)/d(theta) = gamma (1 - gamma); the damping enters as -gamma m.
        acc[-1] = gamma * (1.0 - gamma) * float((a[1] * s[1]).sum())
    else:
        p = spec.adam
        root = np.sqrt(s[2] + p.epsilon)
        rated_m = (1.0 - p.alpha) * a[1]
        c = rated_m - (1.0 - p.beta) * (2.0 * f * a[2])
        g_h, _ = fn.vjp_from_cache(field, cache, c, out=acc)
        da[0] = g_h
        np.add(a[0] / root, rated_m, out=da[1])
        np.add(-a[0] * s[1] / (2.0 * root**3), (1.0 - p.beta) * a[2], out=da[2])


def make_adjoint_rhs(spec: dyn.DynamicsSpec, field: fn.FieldNet, d: int, batch: int, forward_of_t):
    """Flat RHS of the joint backward system ``[cotangent, accumulator]``.

    The forward state at time ``t`` is ``forward_of_t(t)``, flat in the
    state's layout; only the field is evaluated there.  Each call returns
    a fresh flat array.
    """
    shape = (spec.n_blocks, batch, spec.width(d))
    bd = batch * spec.state_dim(d)
    n_joint = bd + param_count(spec, field)

    def rhs(t, joint):
        out = np.empty(n_joint)
        s = forward_of_t(t).reshape(shape)
        f, cache = fn.eval_cached(field, dyn.field_input(spec, s), t)
        a, da = joint[:bd].reshape(shape), out[:bd].reshape(shape)
        _cotangent(spec, field, s, a, f, cache, da, out[bd:])
        return out

    return rhs


def backward(
    forward: SolveResult,
    loss_grad: np.ndarray,
    spec: dyn.DynamicsSpec,
    field: fn.FieldNet,
    cfg: IntegratorConfig,
    h_init: float = H_INIT,
) -> AdjointRun:
    """Gradients of a terminal loss through one forward solve.

    Parameters
    ----------
    forward : SolveResult
        Successful :func:`~momenta_node.solver.solve_dopri45` result; its
        record of accepted steps gives the initial and terminal times and
        the forward state in between, through its 4th-order dense output
        (:meth:`SolveResult.dense_state`), with or without samples.
    loss_grad : array_like
        ``dL/dz(t1)`` over the flat packed state (zeros in the blocks the
        loss ignores).
    spec, field : dynamics description and its field network.
    cfg : IntegratorConfig
        Tolerances and step control of the backward solve.
    h_init : float
        First step of the reverse solve (see
        :func:`~momenta_node.solver.solve_dopri45`); a previous run's
        ``h_next`` warm-starts it.

    The returned ``grad_initial_state`` is the reverse solve's final
    cotangent, flat in the layout of the forward state, and
    ``backward_nfe`` counts the reverse solve's evaluations.

    Raises
    ------
    ValueError
        If the forward solve failed.
    BackwardSolveError
        If the joint solve fails, a non-finite state included (as a
        negative recorded ``v`` would give).
    """
    if forward.status is not SolveStatus.SUCCESS:
        raise ValueError("forward solve must have succeeded")
    t0, t1 = float(forward.step_ts[0]), float(forward.step_ts[-1])
    y1 = forward.step_states[-1]
    d = field.out_dim - spec.aug_width
    batch = y1.size // spec.state_dim(d)
    loss_grad = np.asarray(loss_grad, dtype=float)
    if loss_grad.shape != y1.shape:
        raise ValueError("loss_grad must match the flat state shape")

    rhs = make_adjoint_rhs(spec, field, d, batch, forward.dense_state)
    joint0 = np.concatenate([loss_grad, np.zeros(param_count(spec, field))])
    res = solve_dopri45(rhs, joint0, t1, t0, cfg, h_init=h_init)
    if res.status is not SolveStatus.SUCCESS:
        raise BackwardSolveError(res.status)
    bd = y1.size
    return AdjointRun(
        grad_params=res.y_final[bd:],
        grad_initial_state=res.y_final[:bd],
        backward_nfe=res.nfe,
        h_next=res.h_next,
    )


def _row_record(res: SolveResult, shape: tuple) -> SolveResult:
    """Row 0 of a batched solve's record, as the record of a batch-1 solve.

    ``shape`` is the batch's block layout ``(n_blocks, rows, width)``.  The
    row keeps the batch's step times and sizes, counters, status and
    ``h_next``; its states and dense-output coefficients are row 0's
    slices, so its :meth:`~SolveResult.dense_state` is row 0's.
    """

    def row(y):
        return y.reshape(shape + y.shape[1:])[:, 0].reshape((-1,) + y.shape[1:])

    return replace(
        res,
        states=res.states.reshape((-1,) + shape)[:, :, 0].reshape(res.ts.size, shape[0] * shape[2]),
        y_final=row(res.y_final),
        step_states=[row(y) for y in res.step_states],
        step_coeffs=[row(q) for q in res.step_coeffs],
    )


def central_differences(spec, field, y0, t1, c, cfg, delta):
    """Central differences of the loss ``c . y(t1)``: ``(g_fd, g0_fd, base)``.

    Entry ``k`` is, in :func:`param_count` order, a field parameter, then
    the heavy-ball damping (where the formulation has one), and from there
    on an initial-state entry.  ``g_fd`` holds the differences in the
    parameters and ``g0_fd`` those in the flat initial state.

    Every entry is differenced in one batched solve, on a stacked field
    and, for the damping, a ``(rows, 1)`` column of ``theta``.  Row 0 is
    the unperturbed base; rows ``2k + 1`` and ``2k + 2`` move entry ``k``
    by ``+delta`` and ``-delta``, with everything else at its base value,
    so each pair is integrated on one shared step sequence.  ``base`` is
    the base row's record as a batch-1 :class:`SolveResult`
    (:func:`_row_record`), which :func:`backward` reads.

    Raises
    ------
    ForwardSolveError
        If the batched solve fails.
    """
    n_field = field.n_params
    n_par = n_field + spec.extra_param_count
    n_entries = n_par + y0.size
    rows = 1 + 2 * n_entries
    moves = np.zeros((rows, n_entries))
    moves[np.arange(1, rows), np.arange(n_entries).repeat(2)] = np.tile([delta, -delta], n_entries)
    row_spec = spec
    if spec.extra_param_count:
        row_spec = replace(spec, hb=dyn.HeavyBallParams(theta=spec.hb.theta + moves[:, n_field:n_par]))
    d = field.out_dim - spec.aug_width
    # The solver's batched layout: block by block, each (rows, width).
    shape = (spec.n_blocks, rows, spec.width(d))
    states = (y0 + moves[:, n_par:]).reshape(rows, shape[0], shape[2]).transpose(1, 0, 2)
    vec = fn.params_to_vec(field)
    rhs = dyn.make_node_rhs(row_spec, fn.vec_to_params(field, vec + moves[:, :n_field]), d, batch=rows)
    res = solve_dopri45(rhs, states.ravel(), 0.0, t1, cfg)
    if res.status is not SolveStatus.SUCCESS:
        raise ForwardSolveError(res.status)
    losses = res.y_final.reshape(shape).transpose(1, 0, 2).reshape(rows, -1) @ c
    diffs = (losses[1::2] - losses[2::2]) / (2.0 * delta)
    return diffs[:n_par], diffs[n_par:], _row_record(res, shape)


# Hidden widths of the field gradcheck builds.
GRADCHECK_HIDDEN = (8,)


def gradcheck(
    spec: dyn.DynamicsSpec,
    d: int,
    seed: int,
    t1: float,
    delta: float,
    solver_tol: float,
) -> dict:
    """Compare adjoint gradients against central finite differences.

    Builds a small tanh field of hidden widths ``GRADCHECK_HIDDEN`` from
    ``seed``, takes a random linear loss over the full terminal state, and
    differences every trainable parameter and every initial-state entry
    with step ``delta``
    (:func:`central_differences`).  That is one batched forward solve:
    row 0 is the unperturbed base, and each ``+delta``/``-delta`` pair is
    two more rows on the same step sequence, so the solver's step
    placement does not enter the difference quotient (internal numerical
    differentiation).  :func:`backward` then reads the base row's record,
    so the check costs one forward and one reverse solve.  Relative
    errors use denominator ``max(|adjoint|, |difference|, 1e-8)``.

    Raises
    ------
    ForwardSolveError
        If the batched forward solve fails.
    BackwardSolveError
        If the adjoint solve fails.
    """
    field = fn.init_field(spec.field_in_dim(d), GRADCHECK_HIDDEN, spec.width(d), seed=seed)
    rng = np.random.default_rng(seed)
    h0 = rng.normal(size=d)
    y0 = dyn.initial_state(spec, h0)
    c = rng.normal(size=y0.size)
    cfg = IntegratorConfig(rtol=solver_tol, atol=solver_tol, h_min=1e-14)

    g_fd, g0_fd, base = central_differences(spec, field, y0, t1, c, cfg, delta)
    run = backward(base, c, spec, field, cfg)
    g_adj = run.grad_params

    denom = np.maximum(np.maximum(np.abs(g_adj), np.abs(g_fd)), 1e-8)
    rel = np.abs(g_adj - g_fd) / denom
    a0_flat = run.grad_initial_state
    rel0 = np.abs(a0_flat - g0_fd) / np.maximum(np.maximum(np.abs(a0_flat), np.abs(g0_fd)), 1e-8)

    order = np.argsort(rel)[::-1][:5]
    return {
        "formulation": spec.kind,
        "variant": "exact",  # the one adjoint; the key keeps the report's schema
        "seed": seed,
        "n_params": int(g_fd.size),
        "max_rel_err": float(rel.max()),
        "init_state_max_rel_err": float(rel0.max()),
        "per_param_worst": [
            {
                "index": int(i),
                "rel_err": float(rel[i]),
                "adjoint": float(g_adj[i]),
                "finite_difference": float(g_fd[i]),
            }
            for i in order
        ],
    }
