"""The benchmark's workloads: which CLI commands one round runs, by seed.

A round is a fixed list of operations, each one ``momenta-node`` command
with the arguments a user would type.  Every round of a run repeats the
same list, so the share of failed operations does not depend on how many
rounds fit in the run.  Output paths are relative: the worker runs each
round inside its own directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# flows-rk4: the default start and RK4 step, with the horizon cut from 200
# so that one round takes seconds.  Every sample of the trajectory CSV is
# then 4 RK4 steps apart (2000 intervals of 5/2000 = 4 * 6.25e-4).
FLOW_HORIZON = 5.0
FLOW_LANDSCAPES = ("rosenbrock", "beale")

# train-spirals: the paper's pair at the ROADMAP's pinned size.  The
# training seed stays 0 whatever --seed is: at 100 epochs seeds 6, 7 and 9
# end below the 0.95 test accuracy the check asks for, so a shifted seed
# would turn a property of small training runs into failed operations.
TRAIN_SEED = 0
TRAIN_EPOCHS = 100
TRAIN_MODELS = ("adamnode", "node")

# gradcheck-six: seeds 0, 1 and 2 whatever --seed is.  The NFE of the six
# gradchecks of one seed varies by about 13% from seed to seed, and three
# shifted seeds put a 10% spread across --seed values into nfe and wall_s.
GRADCHECK_MODELS = ("node", "anode", "sonode", "hbnode", "ghbnode", "adamnode")
GRADCHECK_SEEDS = (0, 1, 2)

# stability-probe: seeds --seed .. --seed+7.  One probe's NFE varies by about
# 12% from seed to seed, so a round takes 8 seeds to keep its cost nearly the
# same whatever --seed is.
STABILITY_SEEDS = 8
STABILITY_T1 = 64.0

WORKLOADS = ("flows-rk4", "train-spirals", "gradcheck-six", "stability-probe")


@dataclass(frozen=True)
class Op:
    """One CLI command of a round.

    ``out`` is the directory the command writes, relative to the round
    directory; ``kind`` picks the output check and ``params`` feeds it.
    """

    argv: tuple
    out: str
    kind: str
    params: dict = field(default_factory=dict, hash=False)


def _trajectory_ops() -> list:
    ops = []
    for land in FLOW_LANDSCAPES:
        ops.append(Op(
            ("trajectory", "--landscape", land, "--T", repr(FLOW_HORIZON), "--out", land),
            land, "trajectory", {"landscape": land, "horizon": FLOW_HORIZON},
        ))
        ops.append(Op(
            ("plot", "--in", f"{land}/trajectory.csv", "--kind", "trajectory",
             "--out", f"{land}-plot/trajectory.svg"),
            f"{land}-plot", "replot", {"source": f"{land}/trajectory.svg"},
        ))
    return ops


def _train_ops() -> list:
    return [
        Op(
            ("train", "--dataset", "spirals", "--model", model, "--epochs", str(TRAIN_EPOCHS),
             "--seed", str(TRAIN_SEED), "--out", f"train-{model}"),
            f"train-{model}", "train", {"model": model, "epochs": TRAIN_EPOCHS},
        )
        for model in TRAIN_MODELS
    ]


def _gradcheck_ops() -> list:
    return [
        Op(
            ("gradcheck", "--model", model, "--seed", str(s), "--out", f"gradcheck-{model}-{s}"),
            f"gradcheck-{model}-{s}", "gradcheck", {"model": model, "seed": s},
        )
        for s in GRADCHECK_SEEDS
        for model in GRADCHECK_MODELS
    ]


def _stability_ops(seed: int) -> list:
    ops = []
    for s in range(seed, seed + STABILITY_SEEDS):
        ops.append(Op(
            ("stability", "--t1", repr(STABILITY_T1), "--seed", str(s), "--out", f"stability-{s}"),
            f"stability-{s}", "stability", {"seed": s, "t1": STABILITY_T1},
        ))
        ops.append(Op(
            ("plot", "--in", f"stability-{s}/stability.csv", "--kind", "stability",
             "--out", f"stability-{s}-plot/stability.svg"),
            f"stability-{s}-plot", "replot", {"source": f"stability-{s}/stability.svg"},
        ))
    return ops


def round_ops(workload: str, seed: int) -> list:
    """The operations of one round of ``workload`` for ``--seed seed``."""
    if workload == "flows-rk4":
        return _trajectory_ops()
    if workload == "train-spirals":
        return _train_ops()
    if workload == "gradcheck-six":
        return _gradcheck_ops()
    if workload == "stability-probe":
        return _stability_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of: {', '.join(WORKLOADS)}")
