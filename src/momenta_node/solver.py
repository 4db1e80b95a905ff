"""Explicit Runge-Kutta integrators over flat float64 state vectors.

Two integrators are provided:

* :func:`solve_dopri45` -- adaptive Dormand-Prince 5(4) with the FSAL
  property and an embedded 4th-order error estimate.  Every solve keeps a
  record of its accepted steps with their 4th-order dense output, from
  which :meth:`SolveResult.dense_state` reads the solution anywhere in the
  solved interval; the requested samples are read from that record, so
  sampling never constrains step placement.
* :func:`solve_rk4` -- fixed-step classical RK4 with the standard cubic
  continuous extension, stepped on plain Python floats; it drives the
  optimization flows of the trajectory experiment.

Both count every right-hand-side evaluation (accepted and rejected
attempts alike) and report non-finite states as a solve status instead of
raising, so finite-time blow-up is observable data rather than a crash.
Both take the same contract from the right-hand side: it returns a fresh
array (or sequence) on every call and changes neither its input state nor
an earlier return, since the solvers keep what they pass and receive: the
states they record, and RK4 its four stages.
"""

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import Callable, Sequence

import numpy as np

RHS = Callable[[float, np.ndarray], np.ndarray]

# Dormand-Prince 5(4) tableau.  Stage 7 evaluates the RHS at the accepted
# 5th-order solution, so it doubles as stage 1 of the next step (FSAL).
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    np.array([1.0 / 5.0]),
    np.array([3.0 / 40.0, 9.0 / 40.0]),
    np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
    np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0]),
    np.array([9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0]),
    np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0]),
)
# Difference between the 5th-order propagated weights and the embedded
# 4th-order weights; h * (E @ K) is the local error estimate.
_E = np.array([
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
])
# Step-size controller safety factor.
_SAFETY = 0.9
# Default magnitude of the first attempted step, and the largest step magnitude.
H_INIT = 1e-2
H_MAX = 10.0
# Grid nodes RK4 converts to Python floats at a time.
_CHUNK = 4096
# Dense-output weights: y(t + theta*h) = y + h * (K^T P) @ [theta, ..., theta^4].
_P = np.array([
    [1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0, -12715105075.0 / 11282082432.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0, 87487479700.0 / 32700410799.0],
    [0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0, -10690763975.0 / 1880347072.0],
    [0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0, 701980252875.0 / 199316789632.0],
    [0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0, -1453857185.0 / 822651844.0],
    [0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0],
])


class SolveStatus(enum.Enum):
    """Terminal condition of an integration run."""

    SUCCESS = "success"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"
    STEP_UNDERFLOW = "step_underflow"
    NON_FINITE_STATE = "non_finite_state"


@dataclass
class IntegratorConfig:
    """Shared tolerances and step-control limits.

    Attributes
    ----------
    rtol, atol : float
        Relative and absolute tolerance entering the mixed error norm.
    h_min : float
        Smallest step magnitude for the controller (steps start at the
        solve's ``h_init``, ``H_INIT`` by default, and never exceed
        ``H_MAX``).  The final step of a solve may be shorter than
        ``h_min`` in order to land on ``t1``.
    max_steps : int
        Budget of accepted plus rejected step attempts.
    """

    rtol: float
    atol: float
    h_min: float = 1e-12
    max_steps: int = 100_000

    def validate(self) -> None:
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.h_min <= H_INIT):
            raise ValueError(f"need 0 < h_min <= {H_INIT}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class SolveResult:
    """Sampled solution of one integration run.

    ``ts``/``states`` hold the samples emitted (all of the requested times
    on success, a prefix of them on failure).  ``t_final`` and ``y_final``
    are the last accepted step regardless of sampling, and mark the
    blow-up time when ``status`` is ``NON_FINITE_STATE``.

    ``h_next`` is the step magnitude the :func:`solve_dopri45` controller
    proposed when the solve ended (Hairer's ``H`` on output of DOPRI5), a
    value in ``[cfg.h_min, H_MAX]``: passed as ``h_init`` it starts a
    continuation, or a similar solve, where this one left off.  RK4
    results leave it ``None``.

    A :func:`solve_dopri45` result also carries the record of its accepted
    steps, as the lists the solve built: the step boundaries ``step_ts``
    and their states ``step_states`` (the start time and state, then each
    accepted step's end), and per step its signed size ``step_sizes`` and
    its dense-output coefficients ``K^T P`` (``step_coeffs``, each of shape
    ``(n, 4)``); step ``i`` runs from boundary ``i`` to boundary ``i + 1``.
    :meth:`dense_state` reads the solution from that record.
    """

    ts: np.ndarray
    states: np.ndarray
    nfe: int
    accepted_steps: int
    rejected_steps: int
    status: SolveStatus
    t_final: float
    y_final: np.ndarray
    step_ts: list | None = None
    step_states: list | None = None
    step_sizes: list | None = None
    step_coeffs: list | None = None
    h_next: float | None = None

    @property
    def ok(self) -> bool:
        return self.status is SolveStatus.SUCCESS

    def dense_state(self, t: float) -> np.ndarray:
        """State at ``t`` from the recorded steps' 4th-order dense output.

        A ``t`` equal to a step boundary, the start included, returns that
        boundary's state exactly.  Any other ``t`` selects the first step
        whose end it does not pass (the first or last step for a ``t``
        just outside the solved interval) and evaluates its dense output.

        Raises
        ------
        ValueError
            If the solve kept no step record (an RK4 solve), or if ``t``
            is not the start and the solve accepted no step.
        """
        if self.step_ts is None:
            raise ValueError("the solve kept no step record")
        keys, sign = self._step_keys
        i = bisect_left(keys, sign * t)
        if i < len(keys) and t == self.step_ts[i]:
            return self.step_states[i].copy()
        if not self.step_sizes:
            raise ValueError("the solve accepted no steps")
        i = min(max(i, 1), len(self.step_sizes)) - 1
        h = self.step_sizes[i]
        return dense_output(self.step_states[i], h, self.step_coeffs[i], (t - self.step_ts[i]) / h)

    @cached_property
    def _step_keys(self) -> tuple[list, float]:
        """Step boundaries multiplied by the direction of integration, so
        that they increase, and that direction (+1.0 or -1.0)."""
        sign = -1.0 if self.step_ts[-1] < self.step_ts[0] else 1.0
        return [sign * t for t in self.step_ts], sign


def dense_output(y: np.ndarray, h: float, Q: np.ndarray, theta: float) -> np.ndarray:
    """Dormand-Prince 4th-order dense output at fraction ``theta`` of a step.

    ``y`` is the step's start state, ``h`` its signed size and ``Q`` its
    coefficients ``K^T P`` (shape ``(n, 4)``).
    """
    th2 = theta * theta
    th3 = th2 * theta
    dy = Q @ np.array([theta, th2, th3, th3 * theta])
    np.multiply(h, dy, out=dy)
    return np.add(y, dy, out=dy)


def _check_inputs(y0, t0, t1, sample_times):
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1 or y0.size == 0:
        raise ValueError("y0 must be a non-empty 1-D vector")
    if not np.all(np.isfinite(y0)):
        raise ValueError("y0 must be finite")
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError("t0 and t1 must be finite")
    if t0 == t1:
        raise ValueError("t0 and t1 must differ")
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1:
        raise ValueError("sample_times must be one-dimensional")
    direction = 1.0 if t1 > t0 else -1.0
    if samples.size:
        lo, hi = min(t0, t1), max(t0, t1)
        if samples.min() < lo or samples.max() > hi:
            raise ValueError("sample_times must lie within [t0, t1]")
        if samples.size > 1 and not np.all(direction * np.diff(samples) > 0.0):
            raise ValueError("sample_times must be strictly monotone in the direction of integration")
    return y0, samples, direction


def solve_dopri45(
    rhs: RHS,
    y0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] = (),
    h_init: float = H_INIT,
) -> SolveResult:
    """Integrate ``dy/dt = rhs(t, y)`` from ``t0`` to ``t1`` adaptively.

    Parameters
    ----------
    rhs : callable
        Right-hand side mapping ``(t, y)`` to a vector of ``y``'s shape,
        a fresh array on every call that leaves ``y`` unchanged (see the
        module docstring).
    y0 : array_like
        Finite initial state.
    t0, t1 : float
        Integration interval endpoints, ``t0 != t1``.  ``t1 < t0``
        integrates backward in time.
    cfg : IntegratorConfig
        Tolerances and step control.
    sample_times : sequence of float, optional
        Times at which to emit samples.  They must lie inside the interval
        and be strictly monotone in the direction of integration.  They are
        read from the record of accepted steps once the solve ends
        (:meth:`SolveResult.dense_state`), so a sample at ``t0`` or at a
        step's end reproduces that state exactly, and sampling never alters
        step placement.
    h_init : float, optional
        Magnitude of the first attempted step, which is
        ``min(h_init, |t1 - t0|)``; it must lie in ``[cfg.h_min, H_MAX]``.
        A previous result's ``h_next`` warm-starts the solve.

    Returns
    -------
    SolveResult
        Samples reached, the record of accepted steps, exact RHS evaluation
        count, step counts, the controller's next step ``h_next``, and the
        terminal status.  Failures return partial data rather than raising.
    """
    cfg.validate()
    if not cfg.h_min <= h_init <= H_MAX:
        raise ValueError(f"h_init must lie in [h_min, {H_MAX}], got {h_init!r}")
    y0, samples, direction = _check_inputs(y0, t0, t1, sample_times)
    n = y0.size

    t = float(t0)
    y = y0.copy()
    step_ts = [t]
    step_states = [y]
    step_sizes: list[float] = []
    step_coeffs: list[np.ndarray] = []
    # Rows 0-6 hold the stages K, row 7 the candidate state and row 8 the
    # error estimate, so that one finiteness test covers all three.
    B = np.empty((9, n))
    K = B[:7]
    # KT[i] is K[:i].T, the stages the combination with _A[i - 1] reads.
    KT = [K[:i].T for i in range(7)]
    abs_y = np.abs(y)
    abs_new = np.empty(n)
    ratio = np.empty(n)
    accepted = 0
    rejected = 0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = np.asarray(rhs(t, y), dtype=float)
        if f.shape != (n,):
            raise ValueError(f"rhs returned shape {f.shape}, expected ({n},)")
        # Stage 1 of the next attempt; an accepted step refills it (FSAL).
        K[0] = f
        nfe = 1
        # The step proposed next, always in [h_min, H_MAX]; an attempt
        # shortens it to land on t1.
        h = float(h_init)
        status = None
        while True:
            if t == t1:
                status = SolveStatus.SUCCESS
                break
            if accepted + rejected >= cfg.max_steps:
                status = SolveStatus.STEP_BUDGET_EXHAUSTED
                break
            remaining = abs(t1 - t)
            landing = h >= remaining
            h_att = remaining if landing else h
            hs = direction * h_att
            t_new = t1 if landing else t + hs

            for i in range(1, 7):
                yi = y + hs * (KT[i] @ _A[i - 1])
                f = np.asarray(rhs(t_new if i == 6 else t + _C[i] * hs, yi), dtype=float)
                if f.shape != (n,):
                    raise ValueError(f"rhs returned shape {f.shape}, expected ({n},)")
                K[i] = f
            nfe += 6
            y_new = yi
            B[7] = y_new
            np.multiply(hs, K.T @ _E, out=B[8])

            if not np.isfinite(B).all():
                rejected += 1
                if h_att <= cfg.h_min:
                    status = SolveStatus.NON_FINITE_STATE
                    break
                h = max(h_att / 2.0, cfg.h_min)
                continue

            # scale = atol + rtol * max(|y|, |y_new|), then the root mean
            # square of err / scale, summed as ndarray.mean sums.
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=ratio)
            np.multiply(cfg.rtol, ratio, out=ratio)
            np.add(cfg.atol, ratio, out=ratio)
            np.divide(B[8], ratio, out=ratio)
            np.multiply(ratio, ratio, out=ratio)
            err = math.sqrt(float(np.add.reduce(ratio)) / n)

            if err <= 1.0:
                accepted += 1
                step_sizes.append(hs)
                step_coeffs.append(K.T @ _P)
                step_ts.append(t_new)
                step_states.append(y_new)
                t = t_new
                y = y_new
                abs_y, abs_new = abs_new, abs_y
                K[0] = K[6]
            else:
                rejected += 1
                if h_att <= cfg.h_min:
                    status = SolveStatus.STEP_UNDERFLOW
                    break

            if err == 0.0:
                h = H_MAX
            else:
                h = min(max(_SAFETY * h_att * err ** -0.2, cfg.h_min), H_MAX)

    # The samples the solve reached: those not past its last accepted step.
    reached = samples[direction * (samples - t) <= 0.0]
    res = SolveResult(
        ts=reached,
        states=None,
        nfe=nfe,
        accepted_steps=accepted,
        rejected_steps=rejected,
        status=status,
        t_final=t,
        y_final=y,
        step_ts=step_ts,
        step_states=step_states,
        step_sizes=step_sizes,
        step_coeffs=step_coeffs,
        h_next=h,
    )
    res.states = np.array([res.dense_state(s) for s in reached.tolist()]).reshape(reached.size, n)
    return res


def _floats(a: np.ndarray):
    """The values of ``a`` as Python floats, converted ``_CHUNK`` at a time
    so that a long grid is never held as a list."""
    for i in range(0, a.size, _CHUNK):
        yield from a[i : i + _CHUNK].tolist()


def _length_error(k, n: int) -> ValueError:
    return ValueError(f"rhs returned {len(k)} values, expected {n}")


def solve_rk4(
    rhs: RHS,
    y0: np.ndarray,
    t0: float,
    t1: float,
    n_steps: int,
    sample_times: Sequence[float],
) -> SolveResult:
    """Integrate with classical RK4 on a uniform grid of ``n_steps`` steps.

    Uses exactly ``4 * n_steps`` RHS evaluations.  Samples between grid
    nodes come from the cubic continuous extension of the four stages;
    samples at grid nodes reproduce the node states exactly.

    The loop steps plain Python floats: ``rhs`` receives the state as a
    list of ``n`` floats and may return any sequence of ``n`` floats (a
    tuple or an ndarray included); the grid nodes and sample times are
    converted to floats once.  The small states this solver serves cost
    far less that way than as numpy arrays, and every operation is the
    IEEE one the array form would do, in the same order.  A stage value
    that is not finite is not an error; the step that produces a
    non-finite state ends the solve with ``NON_FINITE_STATE``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    y0, samples, direction = _check_inputs(y0, t0, t1, sample_times)
    n = y0.size
    samples = samples.tolist()
    n_samples = len(samples)

    y = y0.tolist()
    out_ts: list[float] = []
    out_ys: list[list] = []
    si = 0
    if si < n_samples and samples[si] == t0:
        out_ts.append(float(t0))
        out_ys.append(y)
        si += 1

    nfe = 0
    status = SolveStatus.SUCCESS
    t_final = float(t0)
    completed = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t, t_new in pairwise(_floats(np.linspace(t0, t1, n_steps + 1))):
            h = t_new - t
            hh = h / 2.0
            # Every stage's length is checked before the next stage reads it.
            k1 = rhs(t, y)
            if len(k1) != n:
                raise _length_error(k1, n)
            k2 = rhs(t + hh, [a + hh * b for a, b in zip(y, k1)])
            if len(k2) != n:
                raise _length_error(k2, n)
            k3 = rhs(t + hh, [a + hh * b for a, b in zip(y, k2)])
            if len(k3) != n:
                raise _length_error(k3, n)
            k4 = rhs(t_new, [a + h * b for a, b in zip(y, k3)])
            if len(k4) != n:
                raise _length_error(k4, n)
            nfe += 4
            h6 = h / 6.0
            y_new = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            if not all(map(math.isfinite, y_new)):
                status = SolveStatus.NON_FINITE_STATE
                break
            while si < n_samples and direction * (samples[si] - t_new) <= 0.0:
                s = samples[si]
                if s == t_new:
                    ys = y_new
                else:
                    # ``th`` is a numpy scalar, so its powers are numpy's.
                    th = np.float64((s - t) / h)
                    b1 = float(th - 1.5 * th**2 + (2.0 / 3.0) * th**3)
                    b23 = float(th**2 - (2.0 / 3.0) * th**3)
                    b4 = float(-0.5 * th**2 + (2.0 / 3.0) * th**3)
                    ys = [a + h * (b1 * c1 + b23 * (c2 + c3) + b4 * c4) for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)]
                out_ts.append(s)
                out_ys.append(ys)
                si += 1
            y = y_new
            t_final = t_new
            completed += 1

    return SolveResult(
        ts=np.array(out_ts),
        states=np.array(out_ys, dtype=float).reshape(len(out_ys), n),
        nfe=nfe,
        accepted_steps=completed,
        rejected_steps=0,
        status=status,
        t_final=t_final,
        y_final=np.array(y, dtype=float),
    )
