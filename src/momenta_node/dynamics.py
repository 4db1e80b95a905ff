"""State layouts and right-hand sides for continuous-depth dynamics.

Six trainable formulations share a common packed-state convention
(``h`` block, then optional momentum ``m``, then optional second-moment
``v``):

* ``vanilla`` -- dh/dt = f(h, t)
* ``augmented`` -- vanilla on a state widened with zero-initialized extra
  channels
* ``second_order`` -- dh/dt = m, dm/dt = f([h, m], t)
* ``heavy_ball`` -- dh/dt = -m, dm/dt = -gamma*m + f(h, t) with
  gamma = sigmoid(theta) and theta trainable
* ``generalized_heavy_ball`` -- heavy ball with the momentum clipped
  elementwise to ``[-SATURATION_BOUND, SATURATION_BOUND]`` inside the
  h-equation
* ``adam`` -- dh/dt = -m/sqrt(v + eps), dm/dt = (1-alpha)(-f(h, t) - m),
  dv/dt = (1-beta)(f(h, t)^2 - v)

Three pure-optimization flows driven by an explicit objective gradient
(gradient flow, damped momentum flow, and the adaptive-moment flow where
``m`` chases grad F instead of ``-f``) live here as well, as plain-float
2-d right-hand sides for the fixed-step solver (:func:`make_flow_rhs`).

Every trainable formulation starts at rest: the momentum block starts at
zero and the second moment at one.  All block arrays may carry a leading
batch axis; the flat layout concatenates the blocks in order, each
row-major, so a single sample packs as ``[h, m, v]``.
"""

from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from . import field_net as fn

VANILLA = "vanilla"
AUGMENTED = "augmented"
SECOND_ORDER = "second_order"
HEAVY_BALL = "heavy_ball"
GENERALIZED_HEAVY_BALL = "generalized_heavy_ball"
ADAM = "adam"

ALL_KINDS = (VANILLA, AUGMENTED, SECOND_ORDER, HEAVY_BALL, GENERALIZED_HEAVY_BALL, ADAM)

# Which kinds carry which auxiliary blocks.
_HAS_M = {SECOND_ORDER, HEAVY_BALL, GENERALIZED_HEAVY_BALL, ADAM}
_HAS_V = {ADAM}

# The generalized heavy ball's clip on the momentum its h-equation reads.
SATURATION_BOUND = 1.0


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class AdamParams:
    """Rates and floor for the adaptive-moment dynamics."""

    alpha: float = 0.9
    beta: float = 0.99
    epsilon: float = 1e-5

    def validate(self):
        if not (0.0 <= self.alpha < 1.0 and 0.0 <= self.beta < 1.0):
            raise ValueError("alpha and beta must lie in [0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class HeavyBallParams:
    """Trainable damping: gamma = sigmoid(theta).

    Frozen, so ``gamma`` is computed once per value of ``theta``; training
    swaps in a new instance when ``theta`` moves.  ``theta`` is a scalar,
    or a ``(rows, 1)`` column that gives each row of a batch its own
    damping (gradcheck differences the damping that way); ``gamma`` then
    is the column of the rows' dampings, which :func:`derivative`
    broadcasts over each row's width.
    """

    theta: float | np.ndarray = -3.0

    @cached_property
    def gamma(self) -> float | np.ndarray:
        return sigmoid(self.theta)


@dataclass
class DynamicsSpec:
    """One formulation and its constants."""

    kind: str = VANILLA
    adam: AdamParams | None = None
    hb: HeavyBallParams | None = None
    aug_width: int = 0

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown dynamics kind {self.kind!r}")
        if self.kind == ADAM and self.adam is None:
            self.adam = AdamParams()
        if self.kind in (HEAVY_BALL, GENERALIZED_HEAVY_BALL) and self.hb is None:
            self.hb = HeavyBallParams()
        if self.kind == AUGMENTED and self.aug_width < 1:
            raise ValueError("augmented dynamics need aug_width >= 1")
        if self.kind != AUGMENTED:
            self.aug_width = 0
        if self.adam is not None:
            self.adam.validate()

    @property
    def has_m(self) -> bool:
        return self.kind in _HAS_M

    @property
    def has_v(self) -> bool:
        return self.kind in _HAS_V

    @property
    def n_blocks(self) -> int:
        return 1 + self.has_m + self.has_v

    def width(self, d: int) -> int:
        """Width of the h block for a nominal data dimension ``d``."""
        return d + self.aug_width

    def state_dim(self, d: int) -> int:
        return self.width(d) * self.n_blocks

    @property
    def extra_param_count(self) -> int:
        """Trainable scalars beyond the field's parameters (the damping)."""
        return 1 if self.kind in (HEAVY_BALL, GENERALIZED_HEAVY_BALL) else 0

    def field_in_dim(self, d: int) -> int:
        """State width the field consumes (time slot excluded)."""
        w = self.width(d)
        return 2 * w if self.kind == SECOND_ORDER else w


@dataclass
class PackedState:
    """Named view of the state blocks; absent blocks are None."""

    h: np.ndarray
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def blocks(self):
        return [b for b in (self.h, self.m, self.v) if b is not None]


def pack(state: PackedState) -> np.ndarray:
    """Concatenate the present blocks into one flat float vector."""
    return np.concatenate([np.asarray(b, dtype=float).ravel() for b in state.blocks()])


def unpack(vec: np.ndarray, spec: DynamicsSpec, d: int, batch: int | None = None) -> PackedState:
    """Name the ``(h, m, v)`` blocks of a flat state, each of width ``spec.width(d)``.

    With an integer ``batch`` each block is a ``(batch, width)`` array, a
    batch of one included; with ``batch=None`` the state is one sample and
    each block a plain vector.  The blocks are views of ``vec`` (one
    reshape, no copy), so writing to a block writes to the state.
    """
    w = spec.width(d)
    nb = spec.n_blocks
    expected = nb * w * (1 if batch is None else batch)
    if vec.shape != (expected,):
        raise ValueError(f"flat state has {vec.shape}, expected ({expected},)")
    blocks = vec.reshape((nb, w) if batch is None else (nb, batch, w))
    return PackedState(
        h=blocks[0],
        m=blocks[1] if spec.has_m else None,
        v=blocks[-1] if spec.has_v else None,
    )


def initial_state(spec: DynamicsSpec, h0: np.ndarray) -> np.ndarray:
    """Build the flat initial state from data ``h0``.

    Augmented dynamics append ``aug_width`` zero channels; momentum blocks
    fill with zeros and second-moment blocks with ones.  ``h0`` may be
    ``(d,)`` or ``(batch, d)``.
    """
    h0 = np.asarray(h0, dtype=float)
    if spec.kind == AUGMENTED:
        zshape = h0.shape[:-1] + (spec.aug_width,)
        h0 = np.concatenate([h0, np.zeros(zshape)], axis=-1)
    blocks = [h0]
    if spec.has_m:
        blocks.append(np.zeros_like(h0))
    if spec.has_v:
        blocks.append(np.ones_like(h0))
    return np.concatenate([b.ravel() for b in blocks])


# ---------------------------------------------------------------------------
# Right-hand sides.  The trainable formulations work on the state's block
# array ``s`` of shape ``(n_blocks, batch, width)``: ``s[0]`` is h, ``s[1]``
# is m and ``s[2]`` is v where present.

GradFn = Callable[[Sequence[float]], Sequence[float]]


def field_input(spec: DynamicsSpec, s: np.ndarray) -> np.ndarray:
    """The rows the field reads from blocks ``s``: h, or h and m side by side."""
    if spec.kind == SECOND_ORDER:
        return np.concatenate((s[0], s[1]), axis=1)
    return s[0]


def derivative(spec: DynamicsSpec, field: fn.FieldNet, t: float, s: np.ndarray, out: np.ndarray) -> None:
    """One formulation's forward equations, written into ``out``.

    ``s`` and ``out`` are block arrays of one shape, ``(n_blocks, batch,
    width)``; ``out`` receives the block time derivatives and must not
    overlap ``s``.
    """
    f, _ = fn.eval_cached(field, field_input(spec, s), t)
    kind = spec.kind
    if kind in (VANILLA, AUGMENTED):
        out[0] = f
    elif kind == SECOND_ORDER:
        out[0] = s[1]
        out[1] = f
    elif kind in (HEAVY_BALL, GENERALIZED_HEAVY_BALL):
        m = s[1]
        if kind == GENERALIZED_HEAVY_BALL:
            m = m.clip(-SATURATION_BOUND, SATURATION_BOUND)
        np.negative(m, out=out[0])
        np.add(-spec.hb.gamma * s[1], f, out=out[1])
    else:
        p = spec.adam
        np.divide(-s[1], np.sqrt(s[2] + p.epsilon), out=out[0])
        np.multiply(1.0 - p.alpha, -f - s[1], out=out[1])
        np.multiply(1.0 - p.beta, f * f - s[2], out=out[2])


def make_node_rhs(
    spec: DynamicsSpec, field: fn.FieldNet, d: int, batch: int = 1
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Adapt a trainable formulation to the solver's flat-vector interface.

    Each call returns a fresh flat array, so a solver may keep it across
    later calls.
    """
    expected = spec.field_in_dim(d) + 1
    if field.in_dim != expected:
        raise ValueError(f"field consumes {field.in_dim} inputs, dynamics supply {expected}")
    w = spec.width(d)
    if field.out_dim != w:
        raise ValueError(f"field emits {field.out_dim} outputs, dynamics need {w}")
    shape = (spec.n_blocks, batch, w)

    def rhs(t, y):
        out = np.empty(shape)
        derivative(spec, field, t, y.reshape(shape), out)
        return out.reshape(-1)

    return rhs


def _neg_over_root(m, s) -> list:
    """``-m / sqrt(s)`` elementwise, as numpy computes it.

    The flows' float path falls back to this where Python raises instead:
    ``math.sqrt`` of a negative (numpy gives NaN) and division by zero
    (numpy gives a signed inf, or NaN for 0/0).
    """
    with np.errstate(all="ignore"):
        return (-np.asarray(m, dtype=float) / np.sqrt(np.asarray(s, dtype=float))).tolist()


def _flow_start(x0) -> np.ndarray:
    """A flow's start point as a fresh float 2-vector; raises ValueError otherwise."""
    x0 = np.array(x0, dtype=float)
    if x0.shape != (2,):
        raise ValueError(f"a flow starts from a 2-vector, got shape {x0.shape}")
    return x0


def make_flow_rhs(
    flow: str,
    grad_f: GradFn,
    gamma: float,
    adam: AdamParams,
) -> tuple[Callable[[float, Sequence[float]], tuple], Callable[[np.ndarray], np.ndarray]]:
    """Pure-optimization flow over the gradient ``g = grad F`` of a 2-d objective.

    ``flow`` is one of ``"ode"`` (x' = -g), ``"hbode"`` (x' = m,
    m' = -gamma*m - g) or ``"adamode"`` (x' = -m/sqrt(v + eps),
    m' = (1-alpha)(g - m), v' = (1-beta)(g*g - v)).  Returns
    ``(rhs, init)`` where ``init`` maps a start point to the flat state.

    The flows are 2-d, as every landscape is: the position ``x`` is a
    2-vector, the flat state is ``[x]``, ``[x, m]`` or ``[x, m, v]`` (2, 4
    or 6 values), and ``init`` raises ValueError for a start that is not a
    2-vector.  ``rhs`` is written out for that size on plain floats: it
    takes any sequence of floats (the list
    :func:`~momenta_node.solver.solve_rk4` passes, or an ndarray), calls
    ``grad_f`` once on the position (a sequence of the same kind) and
    returns a new tuple, bit for bit what the same equations give on numpy
    arrays, NaN and inf included.  ``grad_f`` returns the two gradient
    coordinates.

    The adaptive flow starts warm: it seeds its moment estimates from the
    start-point gradient (m = grad, v = grad**2), matching what a
    bias-corrected first step would produce.  A cold start (zeros and
    ones) would instead spend roughly 1/(1-beta) time units waiting for
    the second moment to forget the large gradients near a typical
    far-away start.  At a stationary point the warm start is zero, so it
    never moves a converged state.
    """
    if flow == "ode":

        def rhs(t, y):
            gx, gy = grad_f(y)
            return -gx, -gy

        return rhs, _flow_start
    if flow == "hbode":
        neg_gamma = -gamma

        def rhs(t, y):
            _, _, mx, my = y
            gx, gy = grad_f(y[:2])
            return mx, my, neg_gamma * mx - gx, neg_gamma * my - gy

        return rhs, (lambda x0: np.concatenate([_flow_start(x0), np.zeros(2)]))
    if flow == "adamode":
        eps, rate_m, rate_v = adam.epsilon, 1.0 - adam.alpha, 1.0 - adam.beta

        def rhs(t, y):
            _, _, mx, my, vx, vy = y
            gx, gy = grad_f(y[:2])
            try:
                dx, dy = -mx / sqrt(vx + eps), -my / sqrt(vy + eps)
            except (ValueError, ZeroDivisionError):
                dx, dy = _neg_over_root((mx, my), (vx + eps, vy + eps))
            return (
                dx,
                dy,
                rate_m * (gx - mx),
                rate_m * (gy - my),
                rate_v * (gx * gx - vx),
                rate_v * (gy * gy - vy),
            )

        def init(x0):
            x0 = _flow_start(x0)
            g0 = np.asarray(grad_f(x0), dtype=float)
            return np.concatenate([x0, g0, g0 * g0])

        return rhs, init
    raise ValueError(f"unknown flow {flow!r}; expected 'ode', 'hbode', or 'adamode'")
