import math

import numpy as np
import pytest

from momenta_node.field_net import (
    FieldNet,
    LinearStateMap,
    eval_cached,
    init_field,
    params_to_vec,
    vec_to_params,
    vjp_from_cache,
)
from reference import forward, vjp_input, vjp_params


def slow_forward(net, h, t):
    # Deliberately naive re-implementation: scalar loops, no numpy matmul.
    x = list(h) + [t]
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = []
        for r in range(W.shape[0]):
            acc = b[r]
            for c in range(W.shape[1]):
                acc += W[r, c] * x[c]
            z.append(acc)
        if l < len(net.weights) - 1:
            if net.activation == "tanh":
                x = [math.tanh(v) for v in z]
            else:
                x = [max(v, 0.0) for v in z]
        else:
            x = z
    return np.array(x)


def fd_vjp_input(net, h, t, a, delta=1e-6):
    g = np.zeros_like(h)
    for i in range(h.size):
        hp = h.copy()
        hm = h.copy()
        hp[i] += delta
        hm[i] -= delta
        g[i] = a @ (forward(net, hp, t) - forward(net, hm, t)) / (2.0 * delta)
    return g

def fd_vjp_params(net, h, t, a, delta=1e-6):
    vec = params_to_vec(net)
    g = np.zeros_like(vec)
    for i in range(vec.size):
        vp = vec.copy()
        vm = vec.copy()
        vp[i] += delta
        vm[i] -= delta
        fp = forward(vec_to_params(net, vp), h, t)
        fm = forward(vec_to_params(net, vm), h, t)
        g[i] = a @ (fp - fm) / (2.0 * delta)
    return g


def test_forward_matches_naive_evaluator():
    rng = np.random.default_rng(7)
    for act in ("tanh", "relu"):
        net = init_field(3, (5, 4), 2, activation=act, seed=11)
        for _ in range(10):
            h = rng.normal(size=3)
            t = float(rng.uniform(-1, 1))
            np.testing.assert_allclose(forward(net, h, t), slow_forward(net, h, t), atol=1e-14)


def test_single_affine_layer():
    # A zero time column: the layer ignores t.
    W = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 0.0]])
    b = np.array([0.5, 0.0])
    net = FieldNet([W], [b], "tanh")
    np.testing.assert_allclose(forward(net, np.array([1.0, 1.0]), 0.0), [3.5, -1.0])


def test_batched_forward_matches_loop():
    net = init_field(4, (6,), 3, seed=3)
    rng = np.random.default_rng(0)
    H = rng.normal(size=(5, 4))
    out = forward(net, H, 0.7)
    assert out.shape == (5, 3)
    for i in range(5):
        np.testing.assert_allclose(out[i], forward(net, H[i], 0.7), atol=1e-14)


@pytest.mark.parametrize("act,tol", [("tanh", 1e-6), ("relu", 1e-4)])
def test_vjps_match_finite_differences(act, tol):
    rng = np.random.default_rng(42)
    hits = 0
    trials = 0
    while hits < 50:
        trials += 1
        assert trials < 500
        net = init_field(3, (6, 5), 2, activation=act, seed=int(rng.integers(1 << 30)))
        h = rng.normal(size=3)
        t = float(rng.uniform(0, 1))
        if act == "relu":
            # Stay away from the activation's kink, where the derivative jumps.
            _, cache = eval_cached(net, h, t)
            pre = cache[1]
            margins = [np.min(np.abs(z)) for z in pre[:-1]]
            if margins and min(margins) < 1e-3:
                continue
        a = rng.normal(size=2)
        np.testing.assert_allclose(vjp_input(net, h, t, a), fd_vjp_input(net, h, t, a), atol=tol, rtol=tol)
        np.testing.assert_allclose(vjp_params(net, h, t, a), fd_vjp_params(net, h, t, a), atol=tol, rtol=tol)
        hits += 1


def test_vjp_linearity_in_cotangent():
    net = init_field(2, (4,), 3, seed=5)
    rng = np.random.default_rng(1)
    h = rng.normal(size=2)
    a1 = rng.normal(size=3)
    a2 = rng.normal(size=3)
    c = 0.37
    lhs = vjp_input(net, h, 0.2, a1 + c * a2)
    rhs = vjp_input(net, h, 0.2, a1) + c * vjp_input(net, h, 0.2, a2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12, rtol=0)
    lhs_p = vjp_params(net, h, 0.2, a1 + c * a2)
    rhs_p = vjp_params(net, h, 0.2, a1) + c * vjp_params(net, h, 0.2, a2)
    np.testing.assert_allclose(lhs_p, rhs_p, atol=1e-12, rtol=0)


def test_squared_output_chain_rule():
    # a^T d(f^2)/dh must equal (2 f * a)^T df/dh.
    net = init_field(3, (5,), 3, seed=9)
    rng = np.random.default_rng(2)
    for _ in range(10):
        h = rng.normal(size=3)
        a = rng.normal(size=3)
        t = 0.4
        f = forward(net, h, t)
        direct = vjp_input(net, h, t, 2.0 * f * a)

        def sq(hh):
            return forward(net, hh, t) ** 2

        fd = np.zeros(3)
        for i in range(3):
            hp = h.copy()
            hm = h.copy()
            hp[i] += 1e-6
            hm[i] -= 1e-6
            fd[i] = a @ (sq(hp) - sq(hm)) / 2e-6
        np.testing.assert_allclose(direct, fd, atol=1e-5, rtol=1e-5)


def test_init_determinism_and_fan_in_bound():
    for seed in range(100):
        net = init_field(4, (8,), 2, seed=seed)
        again = init_field(4, (8,), 2, seed=seed)
        for W, V in zip(net.weights, again.weights):
            assert np.array_equal(W, V)
        for W in net.weights:
            bound = 1.0 / np.sqrt(W.shape[1])
            assert np.max(np.abs(W)) <= bound
        for b in net.biases:
            assert np.all(b == 0.0)


def test_params_round_trip():
    net = init_field(3, (7, 5), 2, seed=13)
    vec = params_to_vec(net)
    assert vec.shape == (net.n_params,)
    rng = np.random.default_rng(4)
    new_vec = rng.normal(size=vec.shape)
    rebuilt = vec_to_params(net, new_vec)
    np.testing.assert_array_equal(params_to_vec(rebuilt), new_vec)
    # Original untouched.
    np.testing.assert_array_equal(params_to_vec(net), vec)


def test_time_slot_is_dropped_from_input_vjp():
    net = init_field(2, (4,), 2, seed=6)
    g = vjp_input(net, np.array([0.1, -0.2]), 0.5, np.array([1.0, 1.0]))
    assert g.shape == (2,)


def _z(*shape):
    return np.zeros(shape)


def test_shape_validation():
    with pytest.raises(ValueError):
        FieldNet([np.zeros((2, 3)), np.zeros((2, 4))], [np.zeros(2), np.zeros(2)], "tanh")
    net = init_field(3, (4,), 2, seed=0)
    with pytest.raises(ValueError):
        forward(net, np.zeros(5), 0.0)
    with pytest.raises(ValueError):
        vec_to_params(net, np.zeros(3))
    with pytest.raises(ValueError):
        vec_to_params(net, np.zeros((2, 2, net.n_params)))
    # Stacked parameters: every layer (R, out, in) with (R, out) biases.
    assert FieldNet([_z(5, 4, 3), _z(5, 2, 4)], [_z(5, 4), _z(5, 2)], "tanh").param_rows == 5
    refused = [
        ([_z(5, 2, 3), _z(2, 4)], [_z(5, 2), _z(4)]),  # one layer stacked, one not
        ([_z(5, 2, 3), _z(6, 4, 2)], [_z(5, 2), _z(6, 4)]),  # two stack heights
        ([_z(5, 2, 3)], [_z(2)]),  # stacked weight, shared bias
        ([_z(2, 3)], [_z(5, 2)]),  # shared weight, stacked bias
        ([_z(5, 2, 3)], [_z(4, 2)]),  # bias rows differ from weight rows
        ([_z(5, 2, 3), _z(5, 4, 3)], [_z(5, 2), _z(5, 4)]),  # stacked layers that do not chain
        ([_z(1, 5, 2, 3)], [_z(1, 5, 2)]),  # two leading axes
    ]
    for weights, biases in refused:
        with pytest.raises(ValueError):
            FieldNet(weights, biases, "tanh")


def test_stacked_forward_matches_each_row_and_has_no_vjp():
    net = init_field(3, (4, 5), 2, seed=2)
    rng = np.random.default_rng(3)
    vecs = params_to_vec(net) + rng.normal(scale=0.3, size=(6, net.n_params))
    stacked = vec_to_params(net, vecs)
    assert stacked.param_rows == 6 and stacked.n_params == net.n_params
    assert [W.shape for W in stacked.weights] == [(6, 4, 4), (6, 5, 4), (6, 2, 5)]
    h = rng.normal(size=(6, 3))
    f, cache = eval_cached(stacked, h, 0.4)
    assert f.shape == (6, 2)
    for r in range(6):
        alone = forward(vec_to_params(net, vecs[r]), h[r], 0.4)
        np.testing.assert_allclose(f[r], alone, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="stacked"):
        vjp_from_cache(stacked, cache, np.ones((6, 2)), out=np.empty(net.n_params))
    for wrong in (h[:5], h[0]):
        with pytest.raises(ValueError):
            eval_cached(stacked, wrong, 0.4)


def test_linear_state_map_and_vjp():
    rng = np.random.default_rng(8)
    m = LinearStateMap(W=rng.normal(size=(2, 3)), b=rng.normal(size=2))
    h = rng.normal(size=3)
    a = rng.normal(size=2)
    np.testing.assert_allclose(m.apply(h), m.W @ h + m.b)
    grad_h, grad_p = m.vjp(h, a)
    fd_h = np.zeros(3)
    for i in range(3):
        hp = h.copy()
        hm = h.copy()
        hp[i] += 1e-6
        hm[i] -= 1e-6
        fd_h[i] = a @ (m.apply(hp) - m.apply(hm)) / 2e-6
    np.testing.assert_allclose(grad_h, fd_h, atol=1e-6)
    np.testing.assert_allclose(grad_p, np.concatenate([np.outer(a, h).ravel(), a]))
    assert grad_p.shape == (m.n_params,)
