import math

import numpy as np
import pytest

from momenta_node import solver
from momenta_node.solver import (
    H_INIT,
    H_MAX,
    IntegratorConfig,
    SolveStatus,
    dense_output,
    solve_dopri45,
    solve_rk4,
)


def tight(**kw):
    base = dict(rtol=1e-10, atol=1e-10, h_min=1e-14)
    base.update(kw)
    return IntegratorConfig(**base)


def test_constant_rhs_is_exact():
    res = solve_dopri45(
        lambda t, y: np.ones(1), np.zeros(1), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6), sample_times=[0.25, 0.5, 1.0]
    )
    assert res.ok
    np.testing.assert_allclose(res.states[:, 0], [0.25, 0.5, 1.0], rtol=0.0, atol=1e-14)
    assert abs(res.y_final[0] - 1.0) < 1e-14


def test_exponential_final_error():
    res = solve_dopri45(lambda t, y: y, np.ones(1), 0.0, 1.0, tight(), sample_times=[1.0])
    assert res.ok
    assert abs(res.states[-1, 0] - np.e) < 1e-8


def test_oscillator_returns_after_full_period():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    res = solve_dopri45(rhs, np.array([1.0, 0.0]), 0.0, 2.0 * np.pi, tight(), sample_times=[2.0 * np.pi])
    assert res.ok
    np.testing.assert_allclose(res.states[-1], [1.0, 0.0], rtol=0.0, atol=1e-7)


def test_rk4_exponential_accuracy():
    res = solve_rk4(lambda t, y: y, np.ones(1), 0.0, 1.0, 1000, sample_times=[1.0])
    assert res.ok
    assert abs(res.states[-1, 0] - np.e) < 1e-11
    assert res.nfe == 4000


def test_rk4_fourth_order_convergence():
    # Halving the step should shrink the final error by roughly 2^4.
    errs = []
    for n in (8, 16, 32, 64):
        res = solve_rk4(lambda t, y: y, np.ones(1), 0.0, 1.0, n, ())
        errs.append(abs(res.y_final[0] - np.e))
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    for r in ratios:
        assert 14.0 <= r <= 18.0, ratios


def test_nfe_matches_external_counter():
    calls = {"n": 0}

    def rhs(t, y):
        calls["n"] += 1
        return np.sin(y) + t

    res = solve_dopri45(rhs, np.array([0.3, -0.2]), 0.0, 3.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    assert res.ok
    assert res.nfe == calls["n"]
    assert res.nfe == 1 + 6 * (res.accepted_steps + res.rejected_steps)

    calls["n"] = 0
    res4 = solve_rk4(rhs, np.array([0.3, -0.2]), 0.0, 3.0, 57, ())
    assert res4.nfe == calls["n"] == 4 * 57


def test_fsal_reuse_six_evals_per_accepted_step():
    # A problem smooth enough to reject nothing: evals = 1 + 6 * accepted.
    res = solve_dopri45(lambda t, y: -y, np.ones(3), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    assert res.rejected_steps == 0
    assert res.nfe == 1 + 6 * res.accepted_steps


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 3.0, 5.0])
def test_tolerance_monotonicity(omega):
    # Tightening rtol by 10x must never worsen the final error by more than 2x.
    def rhs(t, y):
        return np.array([y[1], -(omega**2) * y[0]])

    t1 = 4.0
    exact = np.array([np.cos(omega * t1), -omega * np.sin(omega * t1)])
    errs = []
    for rt in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        cfg = IntegratorConfig(rtol=rt, atol=rt, h_min=1e-14)
        res = solve_dopri45(rhs, np.array([1.0, 0.0]), 0.0, t1, cfg)
        assert res.ok
        errs.append(np.linalg.norm(res.y_final - exact))
    for loose, tighter in zip(errs, errs[1:]):
        assert tighter <= 2.0 * loose, errs


def test_backward_then_forward_round_trip():
    rt = 1e-8
    cfg = IntegratorConfig(rtol=rt, atol=rt, h_min=1e-14)
    fwd = solve_dopri45(lambda t, y: y * np.cos(t), np.array([1.0, 2.0]), 0.0, 2.0, cfg)
    assert fwd.ok
    back = solve_dopri45(lambda t, y: y * np.cos(t), fwd.y_final, 2.0, 0.0, cfg)
    assert back.ok
    assert np.linalg.norm(back.y_final - np.array([1.0, 2.0])) < 100.0 * rt


def test_backward_sampling_monotone_decreasing():
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6)
    res = solve_dopri45(lambda t, y: y, np.ones(1), 1.0, 0.0, cfg, sample_times=[1.0, 0.5, 0.0])
    assert res.ok
    assert np.all(np.diff(res.ts) < 0.0)
    np.testing.assert_allclose(res.states[:, 0], np.exp([0.0, -0.5, -1.0]), rtol=1e-5)


def test_dense_sample_at_step_endpoint_is_bit_exact():
    rhs = lambda t, y: np.array([y[1], -y[0]])
    y0 = np.array([1.0, 0.0])
    first = solve_dopri45(rhs, y0, 0.0, 5.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    assert first.ok and first.accepted_steps >= 4
    idx = len(first.step_ts) // 2
    t_mid = first.step_ts[idx]
    again = solve_dopri45(rhs, y0, 0.0, 5.0, IntegratorConfig(rtol=1e-6, atol=1e-6), sample_times=[t_mid])
    assert again.ok
    assert np.array_equal(again.states[0], first.step_states[idx])


@pytest.mark.parametrize("t0,t1", [(0.0, 3.0), (3.0, 0.0)], ids=["forward", "reverse"])
def test_recorded_dense_output_repeats_the_solver_bit_for_bit(t0, t1):
    rhs = lambda t, y: np.array([y[1], -np.sin(y[0]) - 0.1 * y[1] + np.cos(t)])
    y0 = np.array([1.0, -0.5])
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6)
    rec = solve_dopri45(rhs, y0, t0, t1, cfg)
    m = rec.accepted_steps
    assert rec.ok and m >= 4
    # The record: the start, then each accepted step's end; per step its
    # signed size and dense coefficients.
    assert (len(rec.step_ts), len(rec.step_states), len(rec.step_sizes), len(rec.step_coeffs)) == (
        m + 1, m + 1, m, m)
    assert rec.step_ts[0] == t0 and rec.step_ts[-1] == t1 == rec.t_final
    assert np.array_equal(rec.step_states[0], y0)
    assert np.array_equal(rec.step_states[-1], rec.y_final)
    assert all(h * (t1 - t0) > 0.0 for h in rec.step_sizes)
    ts = np.linspace(t0, t1, 53)
    sampled = solve_dopri45(rhs, y0, t0, t1, cfg, sample_times=ts)
    # Sampling changes neither the steps nor their count.
    assert (sampled.nfe, sampled.accepted_steps) == (rec.nfe, rec.accepted_steps)
    assert np.array_equal(sampled.ts, ts)
    sign = 1.0 if t1 > t0 else -1.0
    for t, y in zip(ts.tolist(), sampled.states):
        # The first step whose end the sample does not pass, by linear scan.
        i = next(i for i in range(m) if sign * (t - rec.step_ts[i + 1]) <= 0.0)
        if t == t0:
            expected = y0
        elif t == rec.step_ts[i + 1]:
            expected = rec.step_states[i + 1]
        else:
            h = rec.step_sizes[i]
            expected = dense_output(rec.step_states[i], h, rec.step_coeffs[i], (t - rec.step_ts[i]) / h)
        assert np.array_equal(y, expected)
        assert np.array_equal(rec.dense_state(t), y)
    for t, y in zip(rec.step_ts, rec.step_states):
        assert np.array_equal(rec.dense_state(t), y)
    again = solve_dopri45(rhs, y0, t0, t1, cfg, sample_times=rec.step_ts)
    np.testing.assert_array_equal(again.states, np.array(rec.step_states))


@pytest.mark.parametrize("t0,t1", [(0.0, 1.0), (1.0, 0.0)], ids=["forward", "reverse"])
def test_signed_zero_start_comes_back_bit_exact(t0, t1):
    # The start sample is the start state itself, not a dense output at
    # theta = 0.  Forward, that dense output adds +0.0 and turns -0.0 into
    # +0.0; reverse (h < 0) it adds -0.0, which keeps the sign.
    y0 = np.array([-0.0, 1.0, -0.0])
    res = solve_dopri45(
        lambda t, y: np.array([1.0, -y[1], 0.0]), y0, t0, t1, IntegratorConfig(rtol=1e-6, atol=1e-6), sample_times=[t0, t1]
    )
    assert res.ok and res.accepted_steps >= 2
    for y in (res.states[0], res.dense_state(t0), res.step_states[0]):
        assert y.tobytes() == y0.tobytes()


def test_failure_before_any_accepted_step_still_emits_the_start():
    # Every stage past t0 is non-finite, so no step is ever accepted.
    rhs = lambda t, y: y if t == 0.0 else np.full_like(y, np.nan)
    y0 = np.array([2.0, -0.0])
    res = solve_dopri45(rhs, y0, 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6), sample_times=[0.0, 0.5, 1.0])
    assert res.status is SolveStatus.NON_FINITE_STATE
    assert res.accepted_steps == 0 and res.t_final == 0.0
    assert res.ts.tolist() == [0.0]
    assert res.states.tobytes() == y0.tobytes()
    assert res.dense_state(0.0).tobytes() == y0.tobytes()
    with pytest.raises(ValueError, match="no steps"):
        res.dense_state(0.5)


def test_dense_interpolant_accuracy_between_steps():
    cfg = IntegratorConfig(rtol=1e-7, atol=1e-7)
    ts = np.linspace(0.0, 1.0, 37)
    res = solve_dopri45(lambda t, y: y, np.ones(1), 0.0, 1.0, cfg, sample_times=ts)
    assert res.ok
    np.testing.assert_allclose(res.states[:, 0], np.exp(ts), rtol=1e-6)


def test_sampling_does_not_change_step_sequence():
    rhs = lambda t, y: np.array([np.sin(3.0 * t) * y[0]])
    bare = solve_dopri45(rhs, np.ones(1), 0.0, 2.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    sampled = solve_dopri45(
        rhs, np.ones(1), 0.0, 2.0, IntegratorConfig(rtol=1e-6, atol=1e-6), sample_times=np.linspace(0.0, 2.0, 101)
    )
    assert bare.nfe == sampled.nfe
    assert bare.accepted_steps == sampled.accepted_steps
    assert np.array_equal(bare.y_final, sampled.y_final)


def test_rk4_dense_between_nodes():
    ts = np.linspace(0.0, 1.0, 41)
    res = solve_rk4(lambda t, y: y, np.ones(1), 0.0, 1.0, 16, sample_times=ts)
    assert res.ok
    np.testing.assert_allclose(res.states[:, 0], np.exp(ts), rtol=1e-5)


def test_step_budget_exhausted():
    # Three attempts cover at most H_INIT plus two steps of H_MAX = 10.
    cfg = IntegratorConfig(rtol=1e-6, atol=1e-6, max_steps=3)
    res = solve_dopri45(lambda t, y: -y, np.ones(1), 0.0, 100.0, cfg)
    assert res.status is SolveStatus.STEP_BUDGET_EXHAUSTED
    assert res.accepted_steps + res.rejected_steps == 3
    assert res.t_final < 100.0


def test_non_finite_state_on_overflow():
    # dy/dt = 100 y overflows float64 near t = 7.09; relative error control
    # keeps accepting steps until the state goes non-finite.
    res = solve_dopri45(
        lambda t, y: 100.0 * y,
        np.ones(1),
        0.0,
        10.0,
        IntegratorConfig(rtol=1e-6, atol=1e-6, max_steps=100_000),
        sample_times=np.linspace(0.0, 10.0, 21),
    )
    assert res.status is SolveStatus.NON_FINITE_STATE
    assert 7.0 <= res.t_final <= 7.2
    # Partial samples up to the blow-up time were still emitted.
    assert res.ts.size > 0
    assert np.all(res.ts <= res.t_final)
    assert np.all(np.isfinite(res.states))


def test_non_finite_stage_7_alone_is_rejected():
    # Stage 7 is the RHS at the candidate state, so a NaN there leaves the
    # candidate finite; it must still reject every attempt that meets it.
    calls = []
    nan_attempts = 0

    def rhs(t, y):
        nonlocal nan_attempts
        calls.append(t)
        # Call 0 is the first stage 1; every 6th call after it is a stage 7.
        if len(calls) > 1 and (len(calls) - 1) % 6 == 0 and t > 0.5:
            nan_attempts += 1
            return np.full(1, np.nan)
        return -y

    res = solve_dopri45(rhs, np.ones(1), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    assert res.status is SolveStatus.NON_FINITE_STATE
    assert res.rejected_steps == nan_attempts > 1
    assert 0.5 - 1e-9 < res.t_final <= 0.5
    assert np.isfinite(res.y_final).all()


def test_overflowing_candidate_with_finite_stages_is_rejected():
    # From the largest float, any step of a large finite slope overflows
    # the candidate state, while every stage the RHS returns stays finite.
    y0 = np.full(1, np.finfo(float).max)
    res = solve_dopri45(lambda t, y: np.full(1, 1e308), y0, 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    assert res.status is SolveStatus.NON_FINITE_STATE
    assert res.accepted_steps == 0
    assert res.rejected_steps > 1
    assert res.nfe == 1 + 6 * res.rejected_steps
    assert res.t_final == 0.0 and res.y_final[0] == y0[0]


def test_underflow_on_polynomial_blow_up():
    # dy/dt = y^2 from y(0)=1 diverges at t=1; error control drives the
    # step below h_min before the state itself overflows.
    res = solve_dopri45(lambda t, y: y**2, np.ones(1), 0.0, 2.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    assert res.status in (SolveStatus.STEP_UNDERFLOW, SolveStatus.NON_FINITE_STATE)
    assert res.t_final <= 1.01


def test_step_underflow_on_unresolvable_discontinuity():
    def rhs(t, y):
        return np.array([0.0 if t < 0.505 else 1e6])

    # No step may shrink below the first one, so none can resolve the jump.
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-12, h_min=H_INIT)
    res = solve_dopri45(rhs, np.zeros(1), 0.0, 1.0, cfg)
    assert res.status is SolveStatus.STEP_UNDERFLOW


def test_precondition_errors():
    with pytest.raises(ValueError):
        solve_dopri45(lambda t, y: y, np.ones(1), 1.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    with pytest.raises(ValueError):
        solve_dopri45(lambda t, y: y, np.array([np.nan]), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    with pytest.raises(ValueError):
        solve_dopri45(lambda t, y: y, np.ones(1), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6), sample_times=[0.2, 1.5])
    with pytest.raises(ValueError):
        solve_dopri45(lambda t, y: y, np.ones(1), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6), sample_times=[0.5, 0.2])
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=1e-6, atol=1e-6, h_min=10.0 * H_INIT).validate()
    with pytest.raises(ValueError):
        solve_rk4(lambda t, y: y, np.ones(1), 0.0, 1.0, 0, ())


def _first_attempt(h_init, t0=0.0, t1=1.0):
    """Signed size of a solve's first attempted step: the time of its
    seventh right-hand-side call (the attempt's end) less ``t0``."""
    times = []

    def rhs(t, y):
        times.append(t)
        return -y

    solve_dopri45(rhs, np.ones(1), t0, t1, IntegratorConfig(rtol=1e-6, atol=1e-6), h_init=h_init)
    return times[6] - t0


@pytest.mark.parametrize("h_init", [1e-12, 0.25, 0.5, 1.0, 3.0, H_MAX])
def test_first_attempted_step_is_h_init_capped_by_the_interval(h_init):
    assert _first_attempt(h_init) == min(h_init, 1.0)
    assert _first_attempt(h_init, 0.0, -1.0) == -min(h_init, 1.0)


def test_h_init_defaults_to_h_init_constant():
    assert _first_attempt(H_INIT) == H_INIT
    default = solve_dopri45(lambda t, y: -y, np.ones(1), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    assert default.step_sizes[0] == H_INIT


@pytest.mark.parametrize(
    "rhs, t1, cfg",
    [
        (lambda t, y: -y, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6)),
        (lambda t, y: -y, -3.0, IntegratorConfig(rtol=1e-6, atol=1e-6)),
        (lambda t, y: np.ones(1), 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6)),  # zero error: H_MAX
        (lambda t, y: -y, 100.0, IntegratorConfig(rtol=1e-6, atol=1e-6, max_steps=3)),
        (lambda t, y: 100.0 * y, 10.0, IntegratorConfig(rtol=1e-6, atol=1e-6)),  # non-finite
        (lambda t, y: np.array([0.0 if t < 0.505 else 1e6]), 1.0,
         IntegratorConfig(rtol=1e-12, atol=1e-12, h_min=H_INIT)),  # underflow
    ],
)
def test_h_next_lies_in_the_step_limits(rhs, t1, cfg):
    res = solve_dopri45(rhs, np.ones(1), 0.0, t1, cfg)
    assert cfg.h_min <= res.h_next <= H_MAX


def test_h_next_is_the_controller_proposal_after_the_last_step():
    # A constant right-hand side has zero error, so the controller
    # proposes H_MAX after the landing step, whatever that step's size.
    res = solve_dopri45(lambda t, y: np.ones(1), np.zeros(1), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    assert res.step_sizes == [H_INIT, 1.0 - H_INIT]
    assert res.h_next == H_MAX


def test_continuation_from_h_next_first_tries_exactly_h_next():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    first = solve_dopri45(rhs, np.array([1.0, 0.0]), 0.0, 1.0, tight())
    assert first.ok and first.h_next < 9.0
    times = []

    def spy(t, y):
        times.append(t)
        return rhs(t, y)

    then = solve_dopri45(spy, first.y_final, 1.0, 10.0, tight(), h_init=first.h_next)
    assert times[6] == 1.0 + first.h_next
    assert then.step_sizes[0] == first.h_next and then.rejected_steps == 0


@pytest.mark.parametrize("h_init", [0.0, -H_INIT, math.nan, math.inf, 1e-13, 2.0 * H_MAX])
def test_h_init_outside_the_step_limits_is_refused(h_init):
    with pytest.raises(ValueError, match="h_init"):
        solve_dopri45(lambda t, y: -y, np.ones(1), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6, h_min=1e-12), h_init=h_init)


def test_rk4_result_has_no_step_record():
    res = solve_rk4(lambda t, y: y, np.ones(1), 0.0, 1.0, 4, ())
    assert res.h_next is None
    with pytest.raises(ValueError, match="kept no step record"):
        res.dense_state(0.5)


def test_rk4_sample_times_are_float_for_an_int_start():
    for samples in ([0], [0, 1]):
        res = solve_rk4(lambda t, y: y, np.ones(1), 0, 1, 4, sample_times=samples)
        assert res.ts.dtype == np.float64
        assert res.ts.tolist() == samples


def _damped_duffing(t, y):
    return [y[1], math.sin(t) - 0.1 * y[1] - y[0] * y[0] * y[0]]


def _array_rk4(rhs, y0, nodes, samples):
    """Classical RK4 and its cubic extension on ndarrays, operation for
    operation as :func:`solve_rk4` orders them; samples start after t0."""
    f = lambda t, y: np.array(rhs(t, y), dtype=float)
    y = np.array(y0, dtype=float)
    out, si = [], 0
    for t, t_new in zip(nodes[:-1].tolist(), nodes[1:].tolist()):
        h = t_new - t
        k1 = f(t, y)
        k2 = f(t + h / 2.0, y + (h / 2.0) * k1)
        k3 = f(t + h / 2.0, y + (h / 2.0) * k2)
        k4 = f(t_new, y + h * k3)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        while si < samples.size and samples[si] <= t_new:
            th = (samples[si] - t) / h
            b1 = th - 1.5 * th**2 + (2.0 / 3.0) * th**3
            b23 = th**2 - (2.0 / 3.0) * th**3
            b4 = -0.5 * th**2 + (2.0 / 3.0) * th**3
            out.append(y_new if samples[si] == t_new else y + h * (b1 * k1 + b23 * (k2 + k3) + b4 * k4))
            si += 1
        y = y_new
    return np.array(out), y


def test_rk4_float_loop_matches_array_rk4_bit_for_bit():
    samples = np.linspace(0.0, 3.0, 47)
    res = solve_rk4(_damped_duffing, np.array([0.5, 0.0]), 0.0, 3.0, 60, sample_times=samples)
    states, y_final = _array_rk4(_damped_duffing, [0.5, 0.0], np.linspace(0.0, 3.0, 61), samples[1:])
    assert res.ok
    assert np.array_equal(res.states[1:].view(np.uint64), states.view(np.uint64))
    assert np.array_equal(res.y_final.view(np.uint64), y_final.view(np.uint64))


@pytest.mark.parametrize("chunk", [1, 7, 60, 61])
def test_rk4_grid_does_not_depend_on_its_conversion_chunk(chunk, monkeypatch):
    # The grid nodes become floats a chunk at a time; every chunk boundary
    # must hand the loop the same nodes.
    samples = np.linspace(0.0, 3.0, 47)
    want = solve_rk4(_damped_duffing, np.array([0.5, 0.0]), 0.0, 3.0, 60, sample_times=samples)
    monkeypatch.setattr(solver, "_CHUNK", chunk)
    got = solve_rk4(_damped_duffing, np.array([0.5, 0.0]), 0.0, 3.0, 60, sample_times=samples)
    assert np.array_equal(got.states.view(np.uint64), want.states.view(np.uint64))
    assert np.array_equal(got.y_final.view(np.uint64), want.y_final.view(np.uint64))
    assert got.nfe == want.nfe == 240


def test_rk4_hands_the_rhs_a_list_of_floats():
    seen = []

    def rhs(t, y):
        seen.append(type(y) is list and all(type(v) is float for v in y))
        return (-y[0], 1.0)

    res = solve_rk4(rhs, np.array([1.0, 0.0]), 0.0, 1.0, 5, ())
    assert res.ok and res.nfe == len(seen) == 20 and all(seen)
    assert isinstance(res.y_final, np.ndarray) and res.y_final.shape == (2,)


def test_rk4_rejects_an_rhs_of_the_wrong_length():
    with pytest.raises(ValueError, match="returned 3 values, expected 2"):
        solve_rk4(lambda t, y: [0.0, 0.0, 0.0], np.zeros(2), 0.0, 1.0, 4, ())


def test_rk4_checks_the_length_of_every_stage():
    # Only the 7th evaluation (stage 3 of step 2) has the wrong length.
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (0.0, 0.0, 0.0) if len(calls) == 7 else (-y[0], -y[1])

    with pytest.raises(ValueError, match=r"^rhs returned 3 values, expected 2$"):
        solve_rk4(rhs, np.ones(2), 0.0, 1.0, 4, ())
    assert len(calls) == 7
    # Tuples of the right length are accepted.
    res = solve_rk4(lambda t, y: (-y[0], -y[1]), np.ones(2), 0.0, 1.0, 4, ())
    assert res.ok and res.nfe == 16


def test_rk4_non_finite_state_on_overflow():
    # y' = y^2 from y(0) = 1 blows up at t = 1 (the discrete map a little
    # later); plain-float products overflow to inf without raising, and the
    # step that makes the state non-finite ends the solve after its four
    # evaluations.
    res = solve_rk4(lambda t, y: [y[0] * y[0]], np.ones(1), 0.0, 2.0, 40, sample_times=[0.5, 2.0])
    assert res.status is SolveStatus.NON_FINITE_STATE
    assert res.nfe == 4 * (res.accepted_steps + 1)
    assert np.isfinite(res.y_final).all() and 1.0 < res.t_final < 2.0
    assert res.ts.tolist() == [0.5]


def test_rk4_against_dopri_cross_check():
    # Independent integrators must agree on a smooth nonlinear problem.
    def rhs(t, y):
        return np.array([y[1], np.sin(t) - 0.1 * y[1] - y[0] ** 3])

    y0 = np.array([0.5, 0.0])
    a = solve_dopri45(rhs, y0, 0.0, 10.0, tight())
    b = solve_rk4(rhs, y0, 0.0, 10.0, 20000, ())
    assert a.ok and b.ok
    np.testing.assert_allclose(a.y_final, b.y_final, rtol=0.0, atol=1e-9)
