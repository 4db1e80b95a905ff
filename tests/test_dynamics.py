import warnings

import numpy as np
import pytest

from momenta_node import dynamics as dyn
from momenta_node import field_net as fn
from momenta_node.benchmarks.landscapes import LANDSCAPES
from momenta_node.field_net import FieldNet, init_field
from momenta_node.solver import IntegratorConfig, solve_dopri45
from reference import (
    PackedState,
    adam_ode_rhs,
    discrete_adam_step,
    forward,
    gradient_flow_rhs,
    hb_ode_rhs,
    pack,
)


def zero_field(d, out=None):
    return FieldNet([np.zeros(((out or d), d + 1))], [np.zeros(out or d)], "tanh")


def test_adam_ode_rhs_hand_values():
    p = dyn.AdamParams(alpha=0.9, beta=0.99, epsilon=1e-5)
    st = PackedState(h=np.array([0.0]), m=np.array([0.0]), v=np.array([0.0]))
    out = adam_ode_rhs(0.0, st, lambda x: np.array([2.0]), p)
    np.testing.assert_allclose(out.h, [0.0])
    np.testing.assert_allclose(out.m, [0.2])
    np.testing.assert_allclose(out.v, [0.04])


def test_adam_node_rhs_hand_values():
    # Constant field f = 1 via a bias-only affine layer.
    f = FieldNet([np.zeros((1, 2))], [np.ones(1)], "tanh")
    spec = dyn.DynamicsSpec(kind=dyn.ADAM, adam=dyn.AdamParams(alpha=0.9, beta=0.99, epsilon=1.0))
    out = dyn.blocks(spec, dyn.make_node_rhs(spec, f, 1)(0.0, np.array([5.0, 1.0, 3.0])), 1)[:, 0]
    np.testing.assert_allclose(out[0], [-0.5])
    np.testing.assert_allclose(out[1], [-0.2])
    np.testing.assert_allclose(out[2], [-0.02])


def test_heavy_ball_gamma_from_theta():
    hb = dyn.HeavyBallParams(theta=-3.0)
    np.testing.assert_allclose(hb.gamma, 0.04742587317756678, rtol=1e-12)
    f = zero_field(1)
    spec = dyn.DynamicsSpec(kind=dyn.HEAVY_BALL, hb=hb)
    out = dyn.blocks(spec, dyn.make_node_rhs(spec, f, 1)(0.0, np.array([0.0, 2.0])), 1)[:, 0]
    np.testing.assert_allclose(out[0], [-2.0])
    np.testing.assert_allclose(out[1], [-2.0 * hb.gamma])


def test_generalized_heavy_ball_hand_values(monkeypatch):
    # Zero field: dh = -clip(m, -b, b) on both sides of the bound, dm = -gamma m.
    monkeypatch.setattr(dyn, "SATURATION_BOUND", 1.5)
    hb = dyn.HeavyBallParams(theta=-3.0)
    spec = dyn.DynamicsSpec(kind=dyn.GENERALIZED_HEAVY_BALL, hb=hb)
    m = np.array([2.0, -3.0, 0.5])
    y = np.concatenate([np.zeros(3), m])
    out = dyn.blocks(spec, dyn.make_node_rhs(spec, zero_field(3), 3)(0.0, y), 3)[:, 0]
    np.testing.assert_allclose(out[0], [-1.5, 1.5, -0.5])
    np.testing.assert_allclose(out[1], -hb.gamma * m)


def test_heavy_ball_momentum_decay_closed_form():
    # With f = 0, m(t) = m0 * exp(-gamma t).
    hb = dyn.HeavyBallParams(theta=0.5)
    spec = dyn.DynamicsSpec(kind=dyn.HEAVY_BALL, hb=hb)
    f = zero_field(1)
    rhs = dyn.make_node_rhs(spec, f, 1)
    y0 = pack(PackedState(h=np.array([1.0]), m=np.array([2.0])))
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-10, h_min=1e-14)
    res = solve_dopri45(rhs, y0, 0.0, 3.0, cfg, sample_times=[3.0])
    m_final = res.states[-1][1]
    np.testing.assert_allclose(m_final, 2.0 * np.exp(-hb.gamma * 3.0), rtol=1e-8)


def test_second_order_pair_matches_scalar_reduction():
    # The (h, m) pair with dh/dt = -m integrates h'' + gamma h' = -f; check
    # against the explicit first-order system of that scalar equation.
    hb = dyn.HeavyBallParams(theta=-1.0)
    gamma = hb.gamma
    field = init_field(1, (6,), 1, seed=3)
    spec = dyn.DynamicsSpec(kind=dyn.HEAVY_BALL, hb=hb)
    rhs_pair = dyn.make_node_rhs(spec, field, 1)
    y0 = pack(PackedState(h=np.array([0.3]), m=np.array([0.7])))

    def rhs_scalar(t, y):
        h, w = y[:1], y[1:]
        return np.concatenate([w, -gamma * w - forward(field, h, t)])

    rt = 1e-8
    cfg = IntegratorConfig(rtol=rt, atol=rt, h_min=1e-14)
    a = solve_dopri45(rhs_pair, y0, 0.0, 2.0, cfg, sample_times=[2.0])
    b = solve_dopri45(rhs_scalar, np.array([0.3, -0.7]), 0.0, 2.0, cfg, sample_times=[2.0])
    assert abs(a.states[-1][0] - b.states[-1][0]) < 10.0 * rt


def test_sonode_field_sees_position_and_velocity():
    field = init_field(2, (4,), 1, seed=1)
    spec = dyn.DynamicsSpec(kind=dyn.SECOND_ORDER)
    rhs = dyn.make_node_rhs(spec, field, 1)
    y = np.array([0.2, 0.5])
    out = rhs(0.3, y)
    np.testing.assert_allclose(out[0], 0.5)
    np.testing.assert_allclose(out[1], forward(field, np.array([0.2, 0.5]), 0.3))


@pytest.mark.parametrize("kind", [dyn.HEAVY_BALL, dyn.GENERALIZED_HEAVY_BALL])
def test_a_damping_column_damps_each_row_as_its_scalar_spec(kind):
    # A (rows, 1) theta on a stacked field: each row of the right-hand
    # side is, bit for bit, the scalar spec's on that row's own field.
    d, rows = 3, 5
    field = init_field(d, (6,), d, seed=1)
    rng = np.random.default_rng(0)
    vecs = fn.params_to_vec(field) + 0.1 * rng.normal(size=(rows, field.n_params))
    thetas = rng.normal(size=(rows, 1))
    column = dyn.DynamicsSpec(kind=kind, hb=dyn.HeavyBallParams(theta=thetas))
    # Momenta on both sides of the generalized form's saturation bound.
    y = 2.0 * rng.normal(size=(column.n_blocks, rows, d))
    got = dyn.make_node_rhs(column, fn.vec_to_params(field, vecs), d, batch=rows)(0.3, y.ravel())
    got = got.reshape(y.shape)
    for r in range(rows):
        scalar = dyn.DynamicsSpec(kind=kind, hb=dyn.HeavyBallParams(theta=float(thetas[r, 0])))
        want = dyn.make_node_rhs(scalar, fn.vec_to_params(field, vecs[r]), d)(0.3, y[:, r].ravel())
        assert got[:, r].ravel().tobytes() == want.tobytes()


def test_ghb_saturation_bound_is_never_exceeded():
    hb = dyn.HeavyBallParams(theta=2.0)
    spec = dyn.DynamicsSpec(kind=dyn.GENERALIZED_HEAVY_BALL, hb=hb)
    field = init_field(2, (8,), 2, seed=7)
    # Scale the last layer up so momentum would swing far past the bound.
    field.weights[-1] *= 50.0
    rhs = dyn.make_node_rhs(spec, field, 2)
    seen = {"max": 0.0}

    def instrumented(t, y):
        out = rhs(t, y)
        seen["max"] = max(seen["max"], np.max(np.abs(out[:2])))
        return out

    y0 = dyn.initial_state(spec, np.array([0.4, -0.2]))
    res = solve_dopri45(instrumented, y0, 0.0, 5.0, IntegratorConfig())
    assert res.ok
    assert seen["max"] <= 1.0 + 1e-12


def test_v_block_stays_nonnegative():
    # 20 random trials; v(t0) >= 0 must keep min sampled v above -1e-6.
    rng = np.random.default_rng(17)
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-8)
    floor = 0.0
    for trial in range(20):
        d = int(rng.integers(1, 4))
        spec = dyn.DynamicsSpec(kind=dyn.ADAM)
        v0 = float(rng.choice([0.0, 0.5, 1.0]))
        field = init_field(d, (6,), d, seed=int(rng.integers(1 << 30)))
        rhs = dyn.make_node_rhs(spec, field, d)
        h0 = rng.normal(size=d)
        y0 = pack(PackedState(h=h0, m=np.zeros(d), v=np.full(d, v0)))
        res = solve_dopri45(rhs, y0, 0.0, 5.0, cfg, sample_times=np.linspace(0.0, 5.0, 51))
        assert res.ok
        v_samples = res.states[:, 2 * d :]
        floor = min(floor, float(v_samples.min()))
    assert floor >= -1e-6


def test_discrete_adam_step_hand_values():
    x, m, v = (np.array([1.0]), np.array([1.0]), np.array([0.0]))
    x2, m2, v2 = discrete_adam_step(x, m, v, lambda x: x.copy(), s=0.1, epsilon=1e-8)
    np.testing.assert_allclose(x2, [-999.0])
    np.testing.assert_allclose(m2, [0.9 + 0.1 * -999.0])
    np.testing.assert_allclose(v2, [0.01 * 999.0**2])


def test_discrete_adam_approaches_continuous_limit():
    # Euler correspondence: retention 1 - s(1-alpha) per step of size s.
    p = dyn.AdamParams(alpha=0.9, beta=0.99, epsilon=1e-5)
    grad = lambda x: x.copy()  # quadratic bowl F = x^2/2
    T = 2.0
    st0 = PackedState(h=np.array([1.5]), m=np.array([0.0]), v=np.array([1.0]))

    def flow_rhs(t, y):
        st = PackedState(h=y[:1], m=y[1:2], v=y[2:])
        out = adam_ode_rhs(t, st, grad, p)
        return np.concatenate([out.h, out.m, out.v])

    cfg = IntegratorConfig(rtol=1e-12, atol=1e-12, h_min=1e-15)
    ref = solve_dopri45(flow_rhs, pack(st0), 0.0, T, cfg, sample_times=[T]).states[-1]

    errs = []
    for s in (1e-2, 1e-3, 1e-4):
        x, m, v = st0.h.copy(), st0.m.copy(), st0.v.copy()
        a_s = 1.0 - s * (1.0 - p.alpha)
        b_s = 1.0 - s * (1.0 - p.beta)
        for _ in range(int(round(T / s))):
            x, m, v = discrete_adam_step(x, m, v, grad, s, a_s, b_s, p.epsilon)
        errs.append(abs(x[0] - ref[0]))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("kind", dyn.ALL_KINDS)
@pytest.mark.parametrize("d", [1, 2, 7])
def test_pack_unpack_round_trip(kind, d):
    spec = dyn.DynamicsSpec(kind=kind)
    rng = np.random.default_rng(d)
    w = spec.width(d)
    st = PackedState(
        h=rng.normal(size=w),
        m=rng.normal(size=w) if spec.has_m else None,
        v=np.abs(rng.normal(size=w)) if spec.has_v else None,
    )
    flat = pack(st)
    assert flat.shape == (spec.state_dim(d),)
    back = dyn.blocks(spec, flat, d)
    assert back.shape == (spec.n_blocks, 1, w) and np.shares_memory(back, flat)
    np.testing.assert_array_equal(back[0, 0], st.h)
    if spec.has_m:
        np.testing.assert_array_equal(back[1, 0], st.m)
    if spec.has_v:
        np.testing.assert_array_equal(back[2, 0], st.v)


def test_pack_unpack_batched():
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    rng = np.random.default_rng(0)
    st = PackedState(h=rng.normal(size=(4, 3)), m=rng.normal(size=(4, 3)), v=np.ones((4, 3)))
    flat = pack(st)
    back = dyn.blocks(spec, flat, 3)
    np.testing.assert_array_equal(back[0], st.h)
    np.testing.assert_array_equal(back[2], st.v)
    with pytest.raises(ValueError):
        dyn.blocks(spec, flat[:-1], 3)


def test_initial_state_fills():
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    y0 = dyn.initial_state(spec, np.array([2.0, -1.0]))
    np.testing.assert_array_equal(y0, [2.0, -1.0, 0.0, 0.0, 1.0, 1.0])
    aug = dyn.DynamicsSpec(kind=dyn.AUGMENTED)
    np.testing.assert_array_equal(dyn.initial_state(aug, np.array([3.0])), [3.0, 0.0])


# Damping and adaptive-moment constants for the flow tests that pin none of their own.
FLOW_CONSTANTS = dict(gamma=0.9, adam=dyn.AdamParams())


def test_flow_builders():
    grad = lambda x: 2.0 * x
    for flow, dim in (("ode", 2), ("hbode", 4), ("adamode", 6)):
        rhs, init = dyn.make_flow_rhs(flow, grad, **FLOW_CONSTANTS)
        y0 = init(np.array([1.0, -1.0]))
        assert y0.shape == (dim,)
        out = rhs(0.0, y0)
        assert len(out) == dim
        assert all(isinstance(v, float) for v in out)
    with pytest.raises(ValueError):
        dyn.make_flow_rhs("sgd", grad, **FLOW_CONSTANTS)


def _array_flow_rhs(flow, grad, gamma, p):
    """A flow through the array right-hand sides, on flat ndarrays."""

    def rhs(t, y):
        if flow == "ode":
            return gradient_flow_rhs(t, y, grad)
        if flow == "hbode":
            d = y.size // 2
            return pack(hb_ode_rhs(t, PackedState(h=y[:d], m=y[d:]), grad, gamma))
        d = y.size // 3
        return pack(adam_ode_rhs(t, PackedState(h=y[:d], m=y[d : 2 * d], v=y[2 * d :]), grad, p))

    return rhs


def _flow_states(rng, flow, eps):
    """Random flat 2-d flow states, with the values the float path must treat
    as numpy does: zeros of both signs, huge and subnormal numbers, inf, NaN,
    and second moments at and below -eps."""
    special = [0.0, -0.0, 5e-324, 1.0, -2.5, 1e155, -1e155, 1e200, 1e308, -1e308, np.inf, -np.inf, np.nan]
    n = {"ode": 2, "hbode": 4, "adamode": 6}[flow]
    states = []
    for _ in range(1500):
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        pick = rng.random(n) < 0.25
        y[pick] = rng.choice(special, size=int(pick.sum()))
        states.append(y)
    if flow == "adamode":
        for m in (0.0, -0.0, 1.5, -1.5, np.nan, np.inf):
            for v in (-eps, -eps * (1.0 + 1e-15), -1.0, -np.inf, np.nan):
                states.append(np.array([0.5, -0.5, m, -m, v, v]))
    return states


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("landscape", ["rosenbrock", "beale"])
@pytest.mark.parametrize("flow", ["ode", "hbode", "adamode"])
def test_float_flow_rhs_matches_array_rhs_bit_for_bit(flow, landscape):
    grad = LANDSCAPES[landscape].grad
    gamma = 1.28
    p = dyn.AdamParams(alpha=0.05, beta=0.05, epsilon=1e-2)
    rhs, _ = dyn.make_flow_rhs(flow, grad, gamma=gamma, adam=p)
    ref = _array_flow_rhs(flow, grad, gamma, p)
    rng = np.random.default_rng(7)
    for y in _flow_states(rng, flow, p.epsilon):
        with np.errstate(all="ignore"):
            want = ref(0.0, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rhs(0.0, y.tolist())
        assert all(type(v) is float for v in got)
        assert np.array_equal(_bits(got), _bits(want)), (y, got, want)
        with np.errstate(all="ignore"):
            assert np.array_equal(_bits(rhs(0.0, y)), _bits(want)), y


@pytest.mark.parametrize("flow", ["ode", "hbode", "adamode"])
def test_flow_rhs_returns_fresh_sequences(flow):
    # The solvers' contract, as for the model right-hand sides: each call
    # returns a new sequence, and later calls leave earlier returns alone.
    rhs, init = dyn.make_flow_rhs(flow, LANDSCAPES["rosenbrock"].grad, **FLOW_CONSTANTS)
    y1 = init(np.array([-1.5, 2.0]))
    y2 = init(np.array([0.5, -0.5]))
    for first_in, second_in in ((y1, y2), (y1.tolist(), y2.tolist())):
        kept = list(first_in)
        first = rhs(0.1, first_in)
        values = list(first)
        second = rhs(0.2, second_in)
        assert first is not second and first is not first_in
        assert list(first) == values and list(first_in) == kept
        assert not np.shares_memory(np.asarray(first), np.asarray(second))


def test_gradient_flow_descends():
    rhs, init = dyn.make_flow_rhs("ode", lambda x: x.copy(), **FLOW_CONSTANTS)
    x0 = np.array([1.0, -2.0])
    res = solve_dopri45(rhs, init(x0), 0.0, 1.0, IntegratorConfig(rtol=1e-10, atol=1e-10, h_min=1e-14), sample_times=[1.0])
    for i in range(2):
        np.testing.assert_allclose(res.states[-1][i], x0[i] * np.exp(-1.0), rtol=1e-8)


@pytest.mark.parametrize("flow", ["ode", "hbode", "adamode"])
def test_flow_start_must_be_a_2_vector(flow):
    _, init = dyn.make_flow_rhs(flow, LANDSCAPES["rosenbrock"].grad, **FLOW_CONSTANTS)
    for x0 in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0):
        with pytest.raises(ValueError, match="2-vector"):
            init(x0)


def test_flows_descend_on_quadratic():
    # F = ||x||^2 / 2.  All three optimization flows must drive F down
    # by orders of magnitude; the momentum flow also dissipates the
    # total energy F + ||m||^2/2 monotonically.
    grad = lambda x: x.copy()
    f_of = lambda x: 0.5 * float(x @ x)
    x0 = np.array([1.0, -1.0])
    times = np.linspace(0.0, 30.0, 61)
    cfg = IntegratorConfig(rtol=1e-9, atol=1e-9)
    for flow in ("ode", "hbode", "adamode"):
        # The adaptive flow tracks its moment estimates on 1/(1-alpha)
        # and 1/(1-beta) timescales, so it needs a longer horizon.
        t_end = 200.0 if flow == "adamode" else 30.0
        rhs, init = dyn.make_flow_rhs(flow, grad, **FLOW_CONSTANTS)
        res = solve_dopri45(rhs, init(x0), 0.0, t_end, cfg, sample_times=times * (t_end / 30.0))
        assert res.ok
        assert f_of(res.states[-1][:2]) < 1e-4 * f_of(x0)
        if flow == "hbode":
            energy = [f_of(s[:2]) + 0.5 * float(s[2:] @ s[2:]) for s in res.states]
            diffs = np.diff(energy)
            assert np.all(diffs <= 1e-12)


def test_stationary_at_minimizer():
    # Starting at the minimizer with zero momentum, every flow stays put.
    grad = lambda x: x.copy()
    cfg = IntegratorConfig()
    for flow in ("ode", "hbode", "adamode"):
        rhs, init = dyn.make_flow_rhs(flow, grad, **FLOW_CONSTANTS)
        res = solve_dopri45(rhs, init(np.zeros(2)), 0.0, 10.0, cfg, sample_times=[10.0])
        assert res.ok
        np.testing.assert_allclose(res.states[-1][:2], 0.0, atol=1e-9)


def test_make_node_rhs_validates_field_shape():
    spec = dyn.DynamicsSpec(kind=dyn.ADAM)
    bad = init_field(3, (4,), 3, seed=0)
    with pytest.raises(ValueError):
        dyn.make_node_rhs(spec, bad, 2)
    sonode = dyn.DynamicsSpec(kind=dyn.SECOND_ORDER)
    with pytest.raises(ValueError):
        dyn.make_node_rhs(sonode, init_field(2, (4,), 2, seed=0), 2)
