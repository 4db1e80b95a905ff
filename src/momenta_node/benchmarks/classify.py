"""Toy classification with continuous-depth models, tracking accuracy
per function evaluation.

A linear layer embeds 2-d points into the model's hidden width, the
chosen dynamics flow over t in [0, 1], and a linear readout produces
two logits trained with cross-entropy.  Dynamics-field gradients come
from the adjoint solve; embed and readout gradients chain through the
terminal and initial cotangents.  Every record carries cumulative NFE
counters so accuracy-per-compute ("efficacy") can be recomputed from
raw data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from momenta_node.adjoint import BackwardSolveError, backward, loss_grad_from_h
from momenta_node.dynamics import (
    HeavyBallParams,
    DynamicsSpec,
    blocks,
    initial_state,
    make_node_rhs,
)
from momenta_node.field_net import (
    LinearStateMap,
    init_field,
    params_to_vec,
    vec_to_params,
)
from momenta_node.solver import H_INIT, IntegratorConfig, solve_dopri45


# Smallest step of every training solve (forward, evaluation and
# backward).  At the default rate none of them accepts a step below
# H_INIT, while a diverging field drives the step towards zero: the floor
# ends such a solve as STEP_UNDERFLOW within a few hundred attempts,
# where it would otherwise grind through the whole step budget.
TRAIN_H_MIN = 1e-8

# The model's hidden-block width, its field's hidden widths and
# activation, and the depth horizon [0, TRAIN_T1].
TRAIN_D = 6
TRAIN_HIDDEN = (32,)
TRAIN_ACTIVATION = "tanh"
TRAIN_T1 = 1.0

# Points drawn per dataset, the spirals' number of turns, and the standard
# deviation of the Gaussian noise added to every point of each dataset.
N_POINTS = 256
SPIRAL_TURNS = 1.0
SPIRAL_NOISE = 0.06
MOONS_NOISE = 0.08


def two_spirals(n: int, seed: int):
    """Two interleaved Archimedean spirals, labels 0/1, roughly unit scale."""
    rng = np.random.default_rng(seed)
    half = n // 2
    theta = rng.uniform(0.25, 1.0, size=half) ** 0.5 * (2.0 * np.pi * SPIRAL_TURNS)
    radius = theta / (2.0 * np.pi * SPIRAL_TURNS)
    arm = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    pts = np.concatenate([arm, -arm])
    pts += rng.normal(scale=SPIRAL_NOISE, size=pts.shape)
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    perm = rng.permutation(n)
    return pts[perm], labels[perm]


def two_moons(n: int, seed: int):
    """Two interleaved half circles, labels 0/1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    th0 = rng.uniform(0.0, np.pi, size=half)
    th1 = rng.uniform(0.0, np.pi, size=n - half)
    upper = np.stack([np.cos(th0), np.sin(th0)], axis=1)
    lower = np.stack([1.0 - np.cos(th1), 0.5 - np.sin(th1)], axis=1)
    pts = np.concatenate([upper, lower])
    pts += rng.normal(scale=MOONS_NOISE, size=pts.shape)
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    perm = rng.permutation(n)
    return pts[perm], labels[perm]


DATASETS = {"spirals": two_spirals, "moons": two_moons}


class TrainingDiverged(RuntimeError):
    """A solve inside the training loop failed or produced non-finite values."""


class AdamOptimizer:
    """Standard bias-corrected first-order optimizer over a flat vector,
    with the usual rates 0.9 and 0.999 and floor 1e-8.

    This is the training-loop optimizer, not the uncorrected recursion
    the continuous dynamics are derived from; the two deliberately
    coexist.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, n: int, lr: float):
        self.lr = lr
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        b1, b2 = self.BETA1, self.BETA2
        self.t += 1
        self.m = b1 * self.m + (1.0 - b1) * grad
        self.v = b2 * self.v + (1.0 - b2) * grad * grad
        m_hat = self.m / (1.0 - b1**self.t)
        v_hat = self.v / (1.0 - b2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


@dataclass
class EfficacyRecord:
    epoch: int
    train_loss: float
    test_accuracy: float
    forward_nfe: int
    backward_nfe: int
    efficacy_fwd: float
    efficacy_bwd: float


@dataclass
class ClassificationRun:
    records: list
    diverged: bool
    diverged_at: int | None


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient in the logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = 1e-300
    loss = -float(np.mean(np.log(probs[np.arange(n), labels] + eps)))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


class ODEClassifier:
    """Linear embed, one continuous-depth block, linear readout.

    Every solve starts with the step that the previous solve in the same
    role proposed when it ended (``first_step``, ``H_INIT`` before the
    first).  The roles are the training forward solve (``"train"``), the
    evaluation forward solve (``"eval"``) and the adjoint's backward
    solve (``"backward"``); successive solves in one role see nearly the
    same field, so each starts where the last one left off.
    """

    def __init__(self, spec: DynamicsSpec, seed: int, rtol: float, atol: float):
        self.spec = spec
        self.solver_cfg = IntegratorConfig(rtol=rtol, atol=atol, h_min=TRAIN_H_MIN, max_steps=40_000)
        self.first_step = {"train": H_INIT, "eval": H_INIT, "backward": H_INIT}
        rng = np.random.default_rng(seed)
        self.field = init_field(spec.field_in_dim(TRAIN_D), TRAIN_HIDDEN, spec.width(TRAIN_D),
                                activation=TRAIN_ACTIVATION, seed=seed)
        embed_W = rng.uniform(-1.0, 1.0, size=(TRAIN_D, 2)) / np.sqrt(2.0)
        # The embed's bias and the whole readout start at zero.  A zero
        # readout makes the untrained model emit identical logits, so its
        # accuracy is exactly the test split's class balance.
        self.set_params(np.concatenate([
            params_to_vec(self.field),
            [spec.hb.theta] if spec.extra_param_count else [],
            embed_W.ravel(),
            np.zeros(TRAIN_D + 2 * spec.width(TRAIN_D) + 2),
        ]))

    def set_params(self, vec: np.ndarray) -> None:
        """Make ``vec`` the parameters: the field's in :func:`params_to_vec`
        order, the damping parameter if the dynamics have one, then the
        embed's and the readout's weights and biases."""
        self.params = vec
        n_field = self.field.n_params
        self.field = vec_to_params(self.field, vec[:n_field])
        rest = vec[n_field:]
        if self.spec.extra_param_count:
            self.spec = replace(self.spec, hb=HeavyBallParams(theta=float(rest[0])))
            rest = rest[1:]
        w = self.spec.width(TRAIN_D)
        embed_W, embed_b, readout_W, readout_b = np.split(rest, np.cumsum([2 * TRAIN_D, TRAIN_D, 2 * w]))
        self.embed = LinearStateMap(W=embed_W.reshape(TRAIN_D, 2), b=embed_b)
        self.readout = LinearStateMap(W=readout_W.reshape(2, w), b=readout_b)

    # -- forward / backward ------------------------------------------
    def forward(self, x: np.ndarray, role: str):
        """Solve the flow for a batch; returns (terminal h block, solve result).

        ``role`` (``"train"`` or ``"eval"``) names the first step the solve
        takes and updates.  The result's record of accepted steps and their
        dense output is what the adjoint reads instead of solving again.
        """
        h0 = self.embed.apply(x)
        y0 = initial_state(self.spec, h0)
        rhs = make_node_rhs(self.spec, self.field, TRAIN_D, batch=x.shape[0])
        res = solve_dopri45(rhs, y0, 0.0, TRAIN_T1, self.solver_cfg, h_init=self.first_step[role])
        self.first_step[role] = res.h_next
        if not res.ok:
            raise TrainingDiverged(f"forward solve failed: {res.status.value}")
        return blocks(self.spec, res.y_final, TRAIN_D)[0], res

    def loss_and_grad(self, x: np.ndarray, labels: np.ndarray):
        """Cross-entropy plus the full flat gradient; returns nfe counters too.

        The adjoint reads the forward state from the forward solve's own
        recorded dense output, so the backward sweep stays honest when a
        trained field is too stiff to re-integrate in reverse, and costs no
        extra forward evaluations.
        """
        h_T, res = self.forward(x, "train")
        logits = self.readout.apply(h_T)
        loss, dlogits = _softmax_ce(logits, labels)

        grad_h_T, grad_readout = self.readout.vjp(h_T, dlogits)
        run = backward(res, loss_grad_from_h(self.spec, grad_h_T), self.spec, self.field,
                       cfg=self.solver_cfg, h_init=self.first_step["backward"])
        self.first_step["backward"] = run.h_next
        a_h0 = blocks(self.spec, run.grad_initial_state, TRAIN_D)[0, :, :TRAIN_D]
        grad_x_unused, grad_embed = self.embed.vjp(x, a_h0)
        grad = np.concatenate([run.grad_params, grad_embed, grad_readout])
        return loss, grad, res.nfe, run.backward_nfe

    def predict(self, x: np.ndarray):
        """Logits of an evaluation solve, and its nfe."""
        h_T, res = self.forward(x, "eval")
        return self.readout.apply(h_T), res.nfe


def _batches(n: int, batch: int, rng: np.random.Generator | None):
    idx = np.arange(n) if rng is None else rng.permutation(n)
    for start in range(0, n, batch):
        yield idx[start : start + batch]


def run_classification(
    spec: DynamicsSpec, *, epochs: int, lr: float, batch: int, seed: int, rtol: float, atol: float, dataset: str
) -> ClassificationRun:
    """Train one model and emit one record per epoch (plus epoch 0).

    Record 0 is the untrained network evaluated on both splits; each
    later record reports the epoch's mean training loss and a fresh
    test evaluation.  Efficacy divides test accuracy by the epoch's
    mean forward (resp. backward) NFE per solve; epoch 0 has no
    backward solves, so its efficacy_bwd is 0 by convention.  On
    divergence (non-finite loss or a failed solve) the records so far
    are returned with the divergence epoch flagged.  The arguments are
    the ``train`` command's parameters of the same names, as it checked
    them; nothing here checks them again.
    """
    xs, ys = DATASETS[dataset](n=N_POINTS, seed=seed)
    # Stratified 80/20 split keeps the test set class-balanced, so the
    # zero-readout baseline sits exactly at chance.
    train_sel, test_sel = [], []
    for label in np.unique(ys):
        members = np.flatnonzero(ys == label)
        cut = int(round(0.8 * len(members)))
        train_sel.append(members[:cut])
        test_sel.append(members[cut:])
    train_sel = np.concatenate(train_sel)
    test_sel = np.concatenate(test_sel)
    x_train, y_train = xs[train_sel], ys[train_sel]
    x_test, y_test = xs[test_sel], ys[test_sel]

    model = ODEClassifier(spec, seed, rtol, atol)
    opt = AdamOptimizer(model.params.size, lr=lr)
    fwd_total = bwd_total = 0
    records: list[EfficacyRecord] = []
    # Divergence anywhere (a training batch or the test evaluation)
    # returns the records collected so far instead of raising.
    epoch = 0
    try:
        for epoch in range(epochs + 1):
            fwd_start, bwd_start = fwd_total, bwd_total
            loss_sum = 0.0
            train_solves = 0
            # Epoch 0 measures the untrained model's train loss, batch by
            # batch in order; every later epoch trains on a fresh shuffle.
            rng = np.random.default_rng((seed, epoch)) if epoch else None
            for sel in _batches(len(x_train), batch, rng):
                if epoch:
                    loss, grad, nfe, nfe_b = model.loss_and_grad(x_train[sel], y_train[sel])
                    if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
                        raise TrainingDiverged("non-finite loss or gradient")
                    bwd_total += nfe_b
                    model.set_params(opt.step(model.params, grad))
                else:
                    logits, nfe = model.predict(x_train[sel])
                    loss = _softmax_ce(logits, y_train[sel])[0]
                fwd_total += nfe
                loss_sum += loss * len(sel)
                train_solves += 1

            correct = 0
            test_solves = 0
            for sel in _batches(len(x_test), batch, rng=None):
                logits, nfe = model.predict(x_test[sel])
                correct += int(np.sum(np.argmax(logits, axis=1) == y_test[sel]))
                fwd_total += nfe
                test_solves += 1
            acc = correct / len(x_test)
            eff_fwd = acc / ((fwd_total - fwd_start) / (train_solves + test_solves))
            eff_bwd = acc / ((bwd_total - bwd_start) / train_solves) if epoch else 0.0
            records.append(
                EfficacyRecord(epoch, loss_sum / len(x_train), acc, fwd_total, bwd_total, eff_fwd, eff_bwd)
            )
    except (TrainingDiverged, BackwardSolveError, FloatingPointError):
        return ClassificationRun(records, diverged=True, diverged_at=epoch)
    return ClassificationRun(records, diverged=False, diverged_at=None)
