"""Dense feed-forward networks used as ODE right-hand sides.

The networks are plain numpy: a stack of affine layers with an elementwise
activation between them and no activation after the last layer.  Besides
the forward map, the module provides exact reverse-mode contractions
(vector-Jacobian products) against the input and against the parameters;
those are the only derivatives the adjoint machinery needs.

Inputs are batches of rows ``(B, n)``.  Every network is
time-conditioned: the scalar time is appended as one extra
input coordinate, and its cotangent slot is dropped again on the way back.

A network's parameters are one flat vector (:func:`param_layout`), of
which the per-layer weights and biases are views.  The vector may also be
stacked, ``(R, n_params)``, so one forward pass evaluates input row ``r``
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


def param_layout(widths) -> tuple[list, int]:
    """Where a field's parameters sit in its flat vector.

    ``widths`` are the layer widths: the first layer's input (the state,
    then the time), each hidden layer, and the output.  Returns each
    layer's ``(weight slice, (out, in), bias slice)`` and the vector's
    length: every weight matrix in layer order, each row-major, then every
    bias.  An array in place of one width gives an array of lengths.
    """
    pairs = list(zip(widths[:-1], widths[1:]))
    w_pos, b_pos = 0, sum(n_in * n_out for n_in, n_out in pairs)
    layers = []
    for n_in, n_out in pairs:
        layers.append((slice(w_pos, w_pos + n_out * n_in), (n_out, n_in), slice(b_pos, b_pos + n_out)))
        w_pos += n_out * n_in
        b_pos += n_out
    return layers, b_pos


@dataclass
class FieldNet:
    """A dense network ``f(h, t)`` held as one flat parameter vector.

    ``vec`` is the ``(n_params,)`` vector of a network of layer widths
    ``widths`` (:func:`param_layout`), or a stack ``(R, n_params)`` of
    parameter sets.  ``layers`` holds each layer's slices of it, and
    ``weights[l]`` ``(out_l, in_l)`` and ``biases[l]`` ``(out_l,)`` are
    views of it, with a leading ``R`` axis for a stack, so writing to them
    writes to ``vec``.  ``activation`` applies to every layer except the
    last.
    """

    widths: tuple
    activation: str
    vec: np.ndarray

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        self.layers, n = param_layout(self.widths)
        if self.vec.ndim not in (1, 2) or self.vec.shape[-1] != n:
            raise ValueError(f"expected {n} parameters per row, got shape {self.vec.shape}")
        lead = self.vec.shape[:-1]
        self.weights = [self.vec[..., w].reshape(lead + shape) for w, shape, _ in self.layers]
        self.biases = [self.vec[..., b] for _, _, b in self.layers]

    @property
    def param_rows(self) -> int | None:
        """Number of stacked parameter sets, or None for one shared set."""
        return self.vec.shape[0] if self.vec.ndim == 2 else None

    @property
    def state_dim(self) -> int:
        """Width of the state input ``h`` (the first layer's input but the time)."""
        return self.widths[0] - 1

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    @property
    def n_params(self) -> int:
        """Parameters of one set (one row of a stacked network)."""
        return self.vec.shape[-1]


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
    widths = (state_dim + 1, *hidden, out_dim)
    net = FieldNet(widths, activation, np.zeros(param_layout(widths)[1]))
    for W in net.weights:
        bound = 1.0 / np.sqrt(W.shape[1])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return net


def eval_cached(net: FieldNet, h: np.ndarray, t: float):
    """Forward pass returning ``(f, cache)`` for later VJP sweeps.

    ``h`` is a batch of rows ``(B, n)``; the first layer reads a fresh
    ``(B, n + 1)`` copy of the rows with ``t`` in the last column.  A
    stacked network takes ``(R, n)``, one row per parameter set, and its
    cache holds each layer as ``(R, 1, width)``.
    """
    rows, n = h.shape
    if n != net.state_dim:
        raise ValueError(f"input width {n} != expected {net.state_dim}")
    u = np.empty((rows, n + 1))
    u[:, :n] = h
    u[:, n] = t
    biases = net.biases
    stacked = net.param_rows is not None
    if stacked:
        if rows != net.param_rows:
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
    return (x[:, 0] if stacked else x), (layer_in, pre)


def vjp_from_cache(net: FieldNet, cache, a: np.ndarray, out: np.ndarray):
    """Reverse sweep: returns ``(a^T df/dh, a^T df/dtheta)`` for the
    ``(B, out_dim)`` cotangent ``a``.

    The parameter contraction is summed over the batch and written in
    the field's :func:`param_layout` into ``out``, a contiguous
    ``(n_params,)`` array, which is the second value returned.
    """
    layer_in, pre = cache
    if layer_in[0].ndim != 2:
        raise ValueError("a stacked forward pass has no vector-Jacobian product")
    _, dact = ACTIVATIONS[net.activation]
    g = np.asarray(a, dtype=float)
    if g.shape != (layer_in[0].shape[0], net.out_dim):
        raise ValueError("cotangent shape does not match the cached forward pass")
    for l in range(len(net.layers) - 1, -1, -1):
        w, shape, b = net.layers[l]
        np.matmul(g.T, layer_in[l], out=out[w].reshape(shape))
        g.sum(axis=0, out=out[b])
        g = g @ net.weights[l]
        if l > 0:
            d = dact(pre[l - 1])
            g = np.multiply(g, d, out=d)
    return g[:, : net.state_dim], out


def params_to_vec(net: FieldNet) -> np.ndarray:
    """A copy of the field's flat parameter vector (:func:`param_layout` order)."""
    return net.vec.copy()


def vec_to_params(net: FieldNet, vec: np.ndarray) -> FieldNet:
    """A field of ``net``'s layer widths on a copy of the flat vector ``vec``.

    A matrix ``(R, n_params)`` gives a stacked field whose parameter set
    ``r`` is row ``r``.
    """
    return replace(net, vec=np.array(vec, dtype=float))


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
        """Returns ``(a^T dout/dh, flat a^T dout/dparams)`` for a batch
        ``h`` of rows and its cotangent ``a``, the second summed over it."""
        return a @ self.W, np.concatenate([(a.T @ h).ravel(), a.sum(axis=0)])
