from functools import cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from momenta_node import adjoint
from momenta_node import dynamics as dyn
from momenta_node.adjoint import (
    BackwardSolveError,
    backward,
    gradcheck,
    loss_grad_from_h,
    make_adjoint_rhs,
    param_count,
)
from momenta_node.benchmarks.stability import MODEL_SPECS, model_spec
from momenta_node.field_net import FieldNet, init_field, params_to_vec
from momenta_node.solver import IntegratorConfig, SolveStatus, solve_dopri45
from reference import (
    PackedState,
    adjoint_rhs,
    central_differences_per_solve,
    gradcheck_args,
    node_rhs,
    pack,
    solve_loss,
)


def tight():
    return IntegratorConfig(rtol=1e-10, atol=1e-10, h_min=1e-14, max_steps=1_000_000)


def zero_field(state_dim, out_dim):
    return FieldNet((state_dim + 1, out_dim), "tanh", np.zeros((state_dim + 2) * out_dim))


def run_forward_from(spec, field, y0, t1, cfg, sample_times=()):
    """Solve from the flat state ``y0``."""
    rhs = dyn.make_node_rhs(spec, field, field.out_dim - spec.aug_width)
    return solve_dopri45(rhs, y0, 0.0, t1, cfg, sample_times=sample_times)


def run_forward(spec, field, h0, t1, cfg, sample_times=()):
    """Solve from data ``h0``, the other blocks at their initial fill."""
    y0 = dyn.initial_state(spec, np.asarray(h0, dtype=float))
    return run_forward_from(spec, field, y0, t1, cfg, sample_times)


def test_zero_cotangent_gives_zero_gradients():
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    field = init_field(2, (5,), 2, seed=2)
    fwd = run_forward(spec, field, [0.4, -0.3], 1.0, tight())
    run = backward(fwd, np.zeros(6), spec, field, tight())
    assert np.all(np.abs(run.grad_params) < 1e-12)
    assert np.all(np.abs(run.grad_initial_state) < 1e-12)


def test_linear_field_adjoint_matches_matrix_exponential():
    # f = W h  (no bias update, a zero time column): a(t0) = expm(W^T (t1-t0)) a(t1).
    rng = np.random.default_rng(3)
    W = rng.normal(size=(3, 3)) * 0.5
    field = FieldNet((4, 3), "tanh", np.concatenate([np.hstack([W, np.zeros((3, 1))]).ravel(), np.zeros(3)]))
    spec = dyn.DynamicsSpec(kind=dyn.VANILLA)
    t1 = 1.5
    fwd = run_forward(spec, field, rng.normal(size=3), t1, tight())
    aT = rng.normal(size=3)
    run = backward(fwd, aT, spec, field, tight())
    expected = expm(W.T * t1) @ aT
    a0 = dyn.blocks(spec, run.grad_initial_state, 3)
    np.testing.assert_allclose(a0[0, 0], expected, rtol=1e-7, atol=1e-9)


def test_heavy_ball_zero_field_closed_form():
    hb = dyn.HeavyBallParams(theta=0.3)
    gamma = hb.gamma
    spec = dyn.DynamicsSpec(kind=dyn.HEAVY_BALL, hb=hb)
    field = zero_field(1, 1)
    T = 2.0
    y0 = pack(PackedState(h=np.array([0.5]), m=np.array([0.8])))
    fwd = run_forward_from(spec, field, y0, T, tight())
    p, q = 1.3, -0.7  # terminal cotangents for h and m
    run = backward(fwd, np.array([p, q]), spec, field, tight())
    a_m0 = (q + p / gamma) * np.exp(-gamma * T) - p / gamma
    a0 = dyn.blocks(spec, run.grad_initial_state, 1)
    np.testing.assert_allclose(a0[0, 0], [p], rtol=1e-9)
    np.testing.assert_allclose(a0[1, 0], [a_m0], rtol=1e-7)


def test_adam_zero_field_matches_quadrature():
    p = dyn.AdamParams(alpha=0.9, beta=0.99, epsilon=1e-3)
    spec = dyn.DynamicsSpec(kind=dyn.ADAM, adam=p)
    field = zero_field(1, 1)
    T = 2.0
    m0, v0 = 0.4, 1.0
    y0 = pack(PackedState(h=np.array([0.2]), m=np.array([m0]), v=np.array([v0])))
    fwd = run_forward_from(spec, field, y0, T, tight())
    ah, am, av = 0.9, -0.5, 0.3
    run = backward(fwd, np.array([ah, am, av]), spec, field, tight())

    # With f = 0 the h cotangent is constant and v(t) decays exponentially.
    v = lambda t: v0 * np.exp(-(1.0 - p.beta) * t)
    la = 1.0 - p.alpha
    integral, _ = quad(lambda u: np.exp(la * (0.0 - u)) * ah / np.sqrt(v(u) + p.epsilon), T, 0.0)
    expected_am0 = np.exp(la * (0.0 - T)) * am + integral
    a0 = dyn.blocks(spec, run.grad_initial_state, 1)
    np.testing.assert_allclose(a0[0, 0], [ah], rtol=1e-9)
    np.testing.assert_allclose(a0[1, 0], [expected_am0], rtol=1e-6)

    # a_v via quadrature too: a_v' = -a_h m(t)/(2 (v+eps)^{3/2}) + (1-beta) a_v.
    m = lambda t: m0 * np.exp(-la * t)
    lb = 1.0 - p.beta
    src = lambda u: -ah * m(u) / (2.0 * (v(u) + p.epsilon) ** 1.5)
    integral_v, _ = quad(lambda u: np.exp(lb * (0.0 - u)) * src(u), T, 0.0)
    expected_av0 = np.exp(lb * (0.0 - T)) * av + integral_v
    np.testing.assert_allclose(a0[2, 0], [expected_av0], rtol=1e-6)


ALL_SPECS = [
    dyn.DynamicsSpec(kind=dyn.VANILLA),
    dyn.DynamicsSpec(kind=dyn.AUGMENTED),
    dyn.DynamicsSpec(kind=dyn.SECOND_ORDER),
    dyn.DynamicsSpec(kind=dyn.HEAVY_BALL),
    dyn.DynamicsSpec(kind=dyn.GENERALIZED_HEAVY_BALL),
    dyn.DynamicsSpec(kind=dyn.ADAM),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.kind for s in ALL_SPECS])
def test_gradcheck_all_formulations(spec, monkeypatch):
    monkeypatch.setattr(adjoint, "GRADCHECK_HIDDEN", (6,))
    report = gradcheck(spec, **gradcheck_args(d=2, seed=1))
    assert report["max_rel_err"] < 1e-3, report["per_param_worst"]
    assert report["init_state_max_rel_err"] < 1e-3
    assert report["n_params"] <= 200


def test_literal_variant_fails_where_exact_passes(monkeypatch):
    # gradcheck's problem at seed 4 with a (6,) field; the literal
    # cotangent rows live only in the reference, so its adjoint is that
    # system integrated on the base row's record, as backward reads it.
    monkeypatch.setattr(adjoint, "GRADCHECK_HIDDEN", (6,))
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    exact = gradcheck(spec, **gradcheck_args(d=2, seed=4))
    field = init_field(2, (6,), 2, seed=4)
    rng = np.random.default_rng(4)
    y0 = dyn.initial_state(spec, rng.normal(size=2))
    c = rng.normal(size=y0.size)
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-10, h_min=1e-14)
    g_fd, _, base = adjoint.central_differences(spec, field, y0, 1.0, c, cfg, 1e-5)
    rhs = adjoint_rhs(spec, field, 2, 1, "literal", forward_of_t=base.dense_state)
    rec = solve_dopri45(rhs, np.concatenate([c, np.zeros(g_fd.size)]), 1.0, 0.0, cfg)
    assert rec.ok
    literal = _max_rel(rec.y_final[y0.size :], g_fd)
    assert exact["max_rel_err"] < 1e-3
    # Recorded for documentation: the simplified cotangent rows miss the
    # rate and chain factors, so their gradients are not the true ones.
    assert literal > 10.0 * exact["max_rel_err"]
    print(f"adaptive-moment gradcheck: exact {exact['max_rel_err']:.3e}, literal {literal:.3e}")


@cache
def _differenced_problem(kind):
    """gradcheck's problem at its CLI defaults and seed 0, and the
    per-solve central differences of its loss."""
    spec = dyn.DynamicsSpec(kind=kind)
    field = init_field(spec.field_in_dim(2), (8,), spec.width(2), seed=0)
    rng = np.random.default_rng(0)
    y0 = dyn.initial_state(spec, rng.normal(size=2))
    c = rng.normal(size=y0.size)
    problem = (spec, field, y0, 1.0, c, tight(), 1e-5)
    return problem, central_differences_per_solve(*problem)


def _max_rel(a, b):
    return float((np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)).max())


@pytest.mark.parametrize("kind", dyn.ALL_KINDS)
def test_batched_differences_match_per_solve_differences(kind):
    problem, (g_fd, g0_fd) = _differenced_problem(kind)
    batched, batched0, base = adjoint.central_differences(*problem)
    assert batched.shape == g_fd.shape and batched0.shape == g0_fd.shape
    assert _max_rel(batched, g_fd) < 1e-4
    assert _max_rel(batched0, g0_fd) < 1e-4
    # The base row is the unperturbed problem, on the batch's steps.
    spec, field, y0, t1, c, cfg, _ = problem
    _, lone = solve_loss(spec, field, y0, t1, c, cfg)
    assert base.ok and base.step_ts[-1] == t1 and base.y_final.shape == y0.shape
    np.testing.assert_allclose(base.y_final, lone.y_final, rtol=0, atol=1e-8)


@pytest.mark.parametrize("kind", dyn.ALL_KINDS)
def test_differences_are_one_solve_at_the_widest_d(kind, monkeypatch):
    # gradcheck's problem at its widest --d, on a short horizon that keeps
    # the solve cheap.
    d, delta = 32, 1e-5
    spec = dyn.DynamicsSpec(kind=kind)
    field = init_field(spec.field_in_dim(d), (8,), spec.width(d), seed=0)
    rng = np.random.default_rng(0)
    y0 = dyn.initial_state(spec, rng.normal(size=d))
    c = rng.normal(size=y0.size)
    starts, rhs_args = [], []
    solve, make_rhs = adjoint.solve_dopri45, dyn.make_node_rhs

    def recording_solve(rhs, start, *args, **kwargs):
        starts.append(start.copy())
        return solve(rhs, start, *args, **kwargs)

    def recording_rhs(row_spec, stacked, d):
        rhs_args.append((row_spec, stacked))
        return make_rhs(row_spec, stacked, d)

    monkeypatch.setattr(adjoint, "solve_dopri45", recording_solve)
    monkeypatch.setattr(dyn, "make_node_rhs", recording_rhs)
    adjoint.central_differences(spec, field, y0, 0.01, c, tight(), delta)
    assert len(starts) == len(rhs_args) == 1
    (row_spec, stacked), = rhs_args
    rows = stacked.param_rows
    n_entries = param_count(spec, field) + y0.size
    assert rows == 1 + 2 * n_entries
    # Each row as moves off the base: one column per entry in param_count
    # order (the damping column included), then the initial-state entries.
    vec = params_to_vec(field)
    parts = [np.concatenate([W.reshape(rows, -1) for W in stacked.weights] + stacked.biases, axis=1) - vec]
    if spec.extra_param_count:
        parts.append(row_spec.hb.theta - spec.hb.theta)
    states = starts[0].reshape(spec.n_blocks, rows, -1).transpose(1, 0, 2).reshape(rows, -1)
    moves = np.concatenate(parts + [states - y0], axis=1)
    # The base row comes first and moves nothing.
    assert moves[0].tobytes() == np.zeros(n_entries).tobytes()
    # Then rows 2k + 1 and 2k + 2 move entry k, the damping included, by
    # +delta and -delta, and nothing else.
    want = np.zeros((2 * n_entries, n_entries))
    want[np.arange(2 * n_entries), np.arange(n_entries).repeat(2)] = np.tile([delta, -delta], n_entries)
    np.testing.assert_allclose(moves[1:], want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("model", sorted(MODEL_SPECS))
def test_gradcheck_is_one_forward_and_one_reverse_solve(model, monkeypatch):
    solves = []
    solve = adjoint.solve_dopri45

    def spy(rhs, y0, t0, t1, *args, **kwargs):
        solves.append((t0, t1, y0.size))
        return solve(rhs, y0, t0, t1, *args, **kwargs)

    monkeypatch.setattr(adjoint, "solve_dopri45", spy)
    spec = model_spec(model)
    report = gradcheck(spec, **gradcheck_args(seed=0))
    field = init_field(spec.field_in_dim(2), (8,), spec.width(2), seed=0)
    n = spec.state_dim(2)
    rows = 1 + 2 * (param_count(spec, field) + n)
    assert solves == [(0.0, 1.0, rows * n), (1.0, 0.0, n + param_count(spec, field))]
    assert report["max_rel_err"] < 1e-3 and report["init_state_max_rel_err"] < 1e-3


@pytest.mark.parametrize("kind", [dyn.VANILLA, dyn.HEAVY_BALL, dyn.ADAM])
def test_the_base_row_record_is_row_0_of_the_batch_bit_for_bit(kind, monkeypatch):
    problem, _ = _differenced_problem(kind)
    spec, y0 = problem[0], problem[2]
    batches = []
    solve = adjoint.solve_dopri45

    def spy(*args, **kwargs):
        batches.append(solve(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(adjoint, "solve_dopri45", spy)
    *_, base = adjoint.central_differences(*problem)
    batch = batches[0]
    shape = (spec.n_blocks, -1, y0.size // spec.n_blocks)
    assert base.step_ts == batch.step_ts and base.step_sizes == batch.step_sizes
    assert (base.nfe, base.h_next) == (batch.nfe, batch.h_next)
    mids = [(a + b) / 2.0 for a, b in zip(batch.step_ts, batch.step_ts[1:])]
    for t in sorted(set(np.linspace(0.0, 1.0, 37).tolist() + batch.step_ts + mids)):
        assert base.dense_state(t).tobytes() == batch.dense_state(t).reshape(shape)[:, 0].ravel().tobytes()
    assert base.y_final.tobytes() == batch.y_final.reshape(shape)[:, 0].ravel().tobytes()


def test_loose_solver_tolerance_envelope(monkeypatch):
    monkeypatch.setattr(adjoint, "GRADCHECK_HIDDEN", (6,))
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    report = gradcheck(spec, **gradcheck_args(d=2, seed=1, solver_tol=1e-3))
    assert report["max_rel_err"] < 1e-1


def test_backward_is_deterministic():
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    field = init_field(2, (6,), 2, seed=8)
    fwd = run_forward(spec, field, [0.3, 0.6], 1.0, tight())
    lg = loss_grad_from_h(spec, np.array([1.0, -2.0]))
    a = backward(fwd, lg, spec, field, tight())
    b = backward(fwd, lg, spec, field, tight())
    assert np.array_equal(a.grad_params, b.grad_params)
    assert np.array_equal(a.grad_initial_state, b.grad_initial_state)
    assert a.backward_nfe == b.backward_nfe


def test_backward_starts_at_h_init_and_reports_the_reverse_h_next(monkeypatch):
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    field = init_field(2, (6,), 2, seed=8)
    fwd = run_forward(spec, field, [0.3, 0.6], 1.0, tight())
    lg = loss_grad_from_h(spec, np.array([1.0, -2.0]))
    reverse = []

    def spy(*args, **kw):
        reverse.append(solve_dopri45(*args, **kw))
        return reverse[-1]

    monkeypatch.setattr(adjoint, "solve_dopri45", spy)
    run = backward(fwd, lg, spec, field, tight(), h_init=0.125)
    assert reverse[0].step_sizes[0] == -0.125 and reverse[0].rejected_steps == 0
    assert run.h_next == reverse[0].h_next
    assert run.backward_nfe == reverse[0].nfe


def test_store_mode_agrees_with_recompute():
    # The reference's joint system recomputes the forward state in reverse
    # next to the cotangent; backward reads it from the forward record.
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    field = init_field(2, (6,), 2, seed=5)
    cfg = IntegratorConfig(rtol=1e-9, atol=1e-9, h_min=1e-14)
    fwd = run_forward(spec, field, [0.5, -0.4], 1.0, cfg)
    lg = loss_grad_from_h(spec, np.array([1.0, 0.5]))
    joint = np.concatenate([fwd.y_final, lg, np.zeros(param_count(spec, field))])
    rec = solve_dopri45(adjoint_rhs(spec, field, 2, 1, "exact"), joint, 1.0, 0.0, cfg)
    assert rec.ok
    bd = lg.size
    np.testing.assert_allclose(rec.y_final[:bd], fwd.step_states[0], rtol=0, atol=1e-7)
    sto = backward(fwd, lg, spec, field, cfg)
    # Store mode reads the forward state from the forward solve's 4th-order
    # dense output, so agreement is limited by interpolation error.
    np.testing.assert_allclose(sto.grad_params, rec.y_final[2 * bd :], rtol=1e-4, atol=1e-7)
    np.testing.assert_allclose(sto.grad_initial_state, rec.y_final[bd : 2 * bd], rtol=1e-4, atol=1e-7)


def test_store_mode_solves_only_in_reverse(monkeypatch):
    spec = dyn.DynamicsSpec(kind=dyn.HEAVY_BALL)
    field = init_field(2, (6,), 2, seed=3)
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6)
    fwd = run_forward(spec, field, [0.5, -0.4], 1.0, cfg)
    solves = []

    def spy(rhs, y0, t0, t1, *args, **kwargs):
        res = solve_dopri45(rhs, y0, t0, t1, *args, **kwargs)
        solves.append((t0, t1, res.nfe))
        return res

    monkeypatch.setattr(adjoint, "solve_dopri45", spy)
    run = backward(fwd, np.ones(4), spec, field, cfg)
    assert [(t0, t1) for t0, t1, _ in solves] == [(1.0, 0.0)]
    assert run.backward_nfe == solves[0][2]


def test_backward_reads_the_step_record_not_the_samples():
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    field = init_field(2, (5,), 2, seed=4)
    cfg = IntegratorConfig(rtol=1e-7, atol=1e-7, h_min=1e-14)
    bare = run_forward(spec, field, [0.3, -0.6], 1.0, cfg)
    sampled = run_forward(spec, field, [0.3, -0.6], 1.0, cfg, sample_times=[0.0, 1.0])
    assert bare.ts.size == 0 and sampled.ts.size == 2
    lg = loss_grad_from_h(spec, np.array([0.7, -1.1]))
    a = backward(bare, lg, spec, field, cfg)
    b = backward(sampled, lg, spec, field, cfg)
    assert a.grad_params.tobytes() == b.grad_params.tobytes()
    assert a.grad_initial_state.tobytes() == b.grad_initial_state.tobytes()
    assert a.backward_nfe == b.backward_nfe


def test_negative_v_in_the_forward_record_fails_as_a_non_finite_state(monkeypatch):
    # A negative recorded second moment makes sqrt(v + eps) NaN at the
    # reverse solve's first evaluation: every attempt is non-finite, the
    # step halves down to h_min, and backward raises a classified error.
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    field = init_field(2, (5,), 2, seed=0)
    fwd = run_forward(spec, field, [0.4, -0.3], 1.0, tight())
    dyn.blocks(spec, fwd.step_states[-1], 2)[2] = -1.0
    reverse = []

    def spy(*args, **kw):
        reverse.append(solve_dopri45(*args, **kw))
        return reverse[-1]

    monkeypatch.setattr(adjoint, "solve_dopri45", spy)
    with pytest.raises(BackwardSolveError) as err:
        backward(fwd, loss_grad_from_h(spec, np.ones(2)), spec, field, IntegratorConfig(rtol=1e-6, atol=1e-6))
    assert err.value.status is SolveStatus.NON_FINITE_STATE
    # log2(H_INIT / h_min) halvings, about 33, then the failure.
    assert reverse[0].accepted_steps == 0 and reverse[0].rejected_steps <= 40


def test_backward_rejects_failed_forward():
    spec = dyn.DynamicsSpec(kind=dyn.VANILLA)
    field = init_field(1, (3,), 1, seed=0)
    fwd = run_forward(spec, field, [0.1], 1.0, tight())
    fwd.status = SolveStatus.STEP_UNDERFLOW
    with pytest.raises(ValueError):
        backward(fwd, np.ones(1), spec, field, tight())


def test_batched_backward_matches_per_sample_sum():
    # Gradients of a summed batch loss equal the sum of per-sample gradients.
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    d = 2
    field = init_field(d, (5,), d, seed=11)
    rng = np.random.default_rng(1)
    H0 = rng.normal(size=(3, d))
    A = rng.normal(size=(3, d))
    cfg = tight()

    rhs_b = dyn.make_node_rhs(spec, field, d)
    y0_b = dyn.initial_state(spec, H0)
    fwd_b = solve_dopri45(rhs_b, y0_b, 0.0, 1.0, cfg)
    run_b = backward(fwd_b, loss_grad_from_h(spec, A), spec, field, cfg)

    total = np.zeros(param_count(spec, field))
    for i in range(3):
        fwd_i = run_forward(spec, field, H0[i], 1.0, cfg)
        run_i = backward(fwd_i, loss_grad_from_h(spec, A[i]), spec, field, cfg)
        total += run_i.grad_params
        np.testing.assert_allclose(
            dyn.blocks(spec, run_b.grad_initial_state, d)[0, i],
            dyn.blocks(spec, run_i.grad_initial_state, d)[0, 0],
            rtol=1e-6,
            atol=1e-10,
        )
    np.testing.assert_allclose(run_b.grad_params, total, rtol=1e-6, atol=1e-10)


# ------------------------------------------------- right-hand-side contracts

RHS_D = 3


def rhs_spec(kind):
    return dyn.DynamicsSpec(kind=kind)


def rhs_field(spec, activation="tanh", seed=0):
    return init_field(spec.field_in_dim(RHS_D), (5,), spec.width(RHS_D), activation=activation, seed=seed)


def flat_states(spec, batch, rng):
    """Flat states of every kind of entry the solvers hand a right-hand side:
    ordinary values, momenta beyond the saturation bound, second moments
    below zero (a NaN divisor), and inf and NaN."""
    n = batch * spec.state_dim(RHS_D)
    w = spec.width(RHS_D)
    plain = rng.normal(size=n) * 2.0
    negative_v = plain.copy()
    if spec.has_v:
        plain[-batch * w :] = np.abs(plain[-batch * w :])
        negative_v[-batch * w :: 2] = -np.abs(negative_v[-batch * w :: 2]) - 1e-3
    special = plain.copy()
    pick = rng.choice(n, size=max(2, n // 4), replace=False)
    special[pick] = rng.choice([np.inf, -np.inf, np.nan], size=pick.size)
    return [plain, negative_v, special]


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("kind", dyn.ALL_KINDS)
def test_right_hand_sides_match_the_reference_bit_for_bit(kind, batch):
    # The forward and adjoint right-hand sides, against the block-by-block
    # array forms in reference.py: the same bits, NaN positions included.
    spec = rhs_spec(kind)
    rng = np.random.default_rng(batch)
    with np.errstate(all="ignore"):
        for activation in ("tanh", "relu"):
            field = rhs_field(spec, activation, seed=batch)
            n_par = param_count(spec, field)
            states = flat_states(spec, batch, rng)
            for y in states:
                got = dyn.make_node_rhs(spec, field, RHS_D)(0.3, y)
                assert got.tobytes() == node_rhs(spec, field, RHS_D, batch)(0.3, y).tobytes()

                def forward_of_t(t):
                    return y.copy()

                for a in states:
                    joint = np.concatenate([a, rng.normal(size=n_par)])
                    got = make_adjoint_rhs(spec, field, RHS_D, batch, forward_of_t)(0.3, joint)
                    want = adjoint_rhs(spec, field, RHS_D, batch, "exact", forward_of_t)(0.3, joint)
                    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("kind", dyn.ALL_KINDS)
def test_right_hand_sides_return_fresh_arrays(kind, batch):
    # The solvers' contract: a solver may keep a return (RK4 its stages)
    # across later calls, so no return may share memory with the input or
    # with an earlier return.
    spec = rhs_spec(kind)
    field = rhs_field(spec)
    rng = np.random.default_rng(0)
    y = np.abs(rng.normal(size=batch * spec.state_dim(RHS_D)))
    a = rng.normal(size=y.size)
    acc = np.zeros(param_count(spec, field))
    cases = [
        (dyn.make_node_rhs(spec, field, RHS_D), y),
        (make_adjoint_rhs(spec, field, RHS_D, batch, lambda t: y), np.concatenate([a, acc])),
    ]
    for rhs, z in cases:
        first = rhs(0.1, z)
        second = rhs(0.2, z)
        assert first.shape == z.shape == second.shape
        assert not np.shares_memory(first, z)
        assert not np.shares_memory(second, z)
        assert not np.shares_memory(second, first)
        assert not np.shares_memory(first, y)
