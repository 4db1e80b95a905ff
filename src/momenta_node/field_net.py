"""Dense feed-forward networks used as ODE right-hand sides.

The networks are plain numpy: a stack of affine layers with an elementwise
activation between them and no activation after the last layer.  Besides
the forward map, the module provides exact reverse-mode contractions
(vector-Jacobian products) against the input and against the parameters;
those are the only derivatives the adjoint machinery needs.

Inputs may be single vectors ``(n,)`` or batches ``(B, n)``.  Every
network is time-conditioned: the scalar time is appended as one extra
input coordinate, and its cotangent slot is dropped again on the way back.

A network's parameters may also be stacked: every weight ``(R, out, in)``
and every bias ``(R, out)``, so one forward pass evaluates input row ``r``
with parameter set ``r`` (the finite-difference check of
:func:`momenta_node.adjoint.gradcheck` solves all its perturbed parameter
sets at once this way).  Stacked networks have a forward pass only.
"""

from dataclasses import dataclass, replace

import numpy as np


def _tanh(z):
    return np.tanh(z)


def _tanh_deriv(z):
    c = np.cosh(z)
    np.multiply(c, c, out=c)
    return np.divide(1.0, c, out=c)


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_deriv(z):
    return (z > 0.0).astype(float)


ACTIVATIONS = {
    "tanh": (_tanh, _tanh_deriv),
    "relu": (_relu, _relu_deriv),
}


@dataclass
class FieldNet:
    """A dense network ``f(h, t)`` with explicit weights and biases.

    ``weights[l]`` has shape ``(out_l, in_l)`` and ``biases[l]``
    ``(out_l,)``; consecutive layers must chain.  A stacked network gives
    every layer the same leading row axis, ``(R, out_l, in_l)`` and
    ``(R, out_l)``.  ``activation`` applies to every layer except the last.
    The first layer's last input is the time.
    """

    weights: list
    biases: list
    activation: str

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty parallel lists")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        lead = self.weights[0].shape[:-2]
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim not in (2, 3) or W.shape[:-2] != lead or b.shape != W.shape[:-1]:
                raise ValueError(f"layer {l}: weight/bias shapes are inconsistent")
            if l > 0 and W.shape[-1] != self.weights[l - 1].shape[-2]:
                raise ValueError(f"layer {l}: input width does not chain")

    @property
    def param_rows(self) -> int | None:
        """Number of stacked parameter sets, or None for one shared set."""
        W = self.weights[0]
        return W.shape[0] if W.ndim == 3 else None

    @property
    def in_dim(self) -> int:
        """First-layer input width, the time slot included."""
        return self.weights[0].shape[-1]

    @property
    def state_dim(self) -> int:
        """Width of the state input ``h`` (time slot excluded)."""
        return self.in_dim - 1

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[-2]

    @property
    def n_params(self) -> int:
        """Parameters of one set (one row of a stacked network)."""
        return sum(W.shape[-2] * W.shape[-1] for W in self.weights) + sum(b.shape[-1] for b in self.biases)


def init_field(
    state_dim: int,
    hidden: tuple,
    out_dim: int,
    activation: str = "tanh",
    *,
    seed: int,
) -> FieldNet:
    """Build a field with weights ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    widths = [state_dim + 1, *hidden, out_dim]
    weights = []
    biases = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return FieldNet(weights, biases, activation=activation)


def eval_cached(net: FieldNet, h: np.ndarray, t: float):
    """Forward pass returning ``(f, cache)`` for later VJP sweeps.

    ``h`` is one state ``(n,)`` or a batch of rows ``(B, n)``; the first
    layer reads a fresh ``(B, n + 1)`` copy of the rows with ``t`` in the
    last column.  A stacked network
    takes ``(R, n)``, one row per parameter set, and its cache holds each
    layer as ``(R, 1, width)``.
    """
    squeeze = h.ndim == 1
    n = h.shape[-1]
    if n != net.state_dim:
        raise ValueError(f"input width {n} != expected {net.state_dim}")
    rows = 1 if squeeze else h.shape[0]
    u = np.empty((rows, n + 1))
    u[:, :n] = h
    u[:, n] = t
    biases = net.biases
    stacked = net.param_rows is not None
    if stacked:
        if squeeze or rows != net.param_rows:
            raise ValueError(f"a stack of {net.param_rows} parameter sets needs that many input rows")
        # Row r becomes a one-row batch against weight r.
        u = u[:, None]
        biases = [b[:, None] for b in biases]
    act, _ = ACTIVATIONS[net.activation]
    last = len(net.weights) - 1
    layer_in = [u]
    pre = []
    x = u
    for l, (W, b) in enumerate(zip(net.weights, biases)):
        z = x @ W.mT
        z += b
        pre.append(z)
        if l < last:
            x = act(z)
            layer_in.append(x)
        else:
            x = z
    out = x[:, 0] if stacked else (x[0] if squeeze else x)
    return out, (layer_in, pre, squeeze)


def vjp_from_cache(net: FieldNet, cache, a: np.ndarray, out: np.ndarray):
    """Reverse sweep: returns ``(a^T df/dh, a^T df/dtheta)`` for cotangent ``a``.

    The parameter contraction is summed over the batch and flattened in
    :func:`params_to_vec` order into ``out``, a ``(n_params,)`` array,
    which is the second value returned.
    """
    layer_in, pre, squeeze = cache
    if layer_in[0].ndim != 2:
        raise ValueError("a stacked forward pass has no vector-Jacobian product")
    _, dact = ACTIVATIONS[net.activation]
    g = np.asarray(a, dtype=float)
    if g.ndim == 1:
        g = g.reshape(1, -1)
    if g.shape != (layer_in[0].shape[0], net.out_dim):
        raise ValueError("cotangent shape does not match the cached forward pass")
    grads_W = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    for l in range(len(net.weights) - 1, -1, -1):
        grads_W[l] = g.T @ layer_in[l]
        grads_b[l] = g.sum(axis=0)
        g = g @ net.weights[l]
        if l > 0:
            d = dact(pre[l - 1])
            g = np.multiply(g, d, out=d)
    grad_h = g[:, : net.state_dim]
    if squeeze:
        grad_h = grad_h[0]
    return grad_h, np.concatenate([W.ravel() for W in grads_W] + grads_b, out=out)


def params_to_vec(net: FieldNet) -> np.ndarray:
    """Flatten all parameters: every weight matrix in layer order, then every bias."""
    return np.concatenate([W.ravel() for W in net.weights] + [b.copy() for b in net.biases])


def vec_to_params(net: FieldNet, vec: np.ndarray) -> FieldNet:
    """Rebuild a field of ``net``'s layer widths from a flat parameter vector.

    A matrix ``(R, n_params)`` gives a stacked field whose parameter set
    ``r`` is row ``r``.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.ndim not in (1, 2) or vec.shape[-1] != net.n_params:
        raise ValueError(f"expected {net.n_params} parameters per row, got {vec.shape}")
    lead = vec.shape[:-1]
    weights = []
    biases = []
    pos = 0
    for W in net.weights:
        size = W.shape[-2] * W.shape[-1]
        weights.append(vec[..., pos : pos + size].reshape(lead + W.shape[-2:]).copy())
        pos += size
    for b in net.biases:
        size = b.shape[-1]
        biases.append(vec[..., pos : pos + size].copy())
        pos += size
    return replace(net, weights=weights, biases=biases)


@dataclass
class LinearStateMap:
    """Learned affine map ``W h + b`` between the data and the hidden state.

    The classifier uses one as its embed (data to initial hidden block)
    and one as its readout (terminal hidden block to logits).
    """

    W: np.ndarray
    b: np.ndarray

    def apply(self, h: np.ndarray) -> np.ndarray:
        return h @ self.W.T + self.b

    def vjp(self, h: np.ndarray, a: np.ndarray):
        """Returns ``(a^T dout/dh, flat a^T dout/dparams)`` summed over any batch."""
        h2 = h.reshape(1, -1) if h.ndim == 1 else h
        a2 = a.reshape(1, -1) if a.ndim == 1 else a
        grad_h = a2 @ self.W
        grad_W = a2.T @ h2
        grad_b = a2.sum(axis=0)
        if h.ndim == 1:
            grad_h = grad_h[0]
        return grad_h, np.concatenate([grad_W.ravel(), grad_b])

    @property
    def n_params(self) -> int:
        return self.W.size + self.b.size
