"""Output checks: each takes one operation's output directory and returns
the list of what is wrong with it (empty when the output is right).

The checks compare against computations made apart from the program, or
against properties the method must have:

* trajectories: a plain-float RK4 with the benchmark's own copies of the
  Rosenbrock and Beale gradients, descent of gradient flow, finiteness and
  the reported distance of successful flows, strict JSON;
* plots: the re-rendered SVG equals the command's own SVG byte for byte;
* training: epoch-0 accuracy equals the test split's class balance,
  efficacy recomputed from the NFE columns, increasing NFE columns, final
  accuracy;
* gradcheck: reported errors under tolerance, and the worst parameter's
  central difference recomputed with ``scipy.integrate.solve_ivp``;
* stability: adaptive-moment separation from heavy ball, a shared start,
  fair parameter counts, and blow-ups matching statuses.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# --- the benchmark's own copy of the flow experiment's constants -----------
FLOW_STEP = 6.25e-4
FLOW_SAMPLES = 2001
FLOW_GAMMA = 1.28
FLOW_ALPHA = 0.05
FLOW_BETA = 0.05
FLOW_EPS = 1e-2
STARTS = {"rosenbrock": (-2.0, 2.0), "beale": (-4.0, -4.0)}
MINIMIZERS = {"rosenbrock": (1.0, 1.0), "beale": (3.0, 0.5)}
FLOWS = ("ode", "hbode", "adamode")
# The first samples of each flow that the reference RK4 must reproduce,
# and how closely: |program - reference| <= RK4_TOL * max(1, |reference|).
RK4_SAMPLES = 40
RK4_TOL = 1e-9
DISTANCE_RTOL = 1e-12

# --- training ---------------------------------------------------------------
TRAIN_POINTS = 256
TRAIN_SPLIT = 0.8
TRAIN_BATCH = 32
MIN_ACCURACY = 0.95
EFFICACY_RTOL = 1e-12
EFFICACY_HEADER = ["epoch", "train_loss", "test_accuracy", "forward_nfe", "backward_nfe",
                   "efficacy_fwd", "efficacy_bwd"]

# --- gradcheck ----------------------------------------------------------------
GRADCHECK_TOL = 1e-3
GRADCHECK_D = 2
GRADCHECK_HIDDEN = (8,)
GRADCHECK_T1 = 1.0
GRADCHECK_DELTA = 1e-5
IVP_TOL = 1e-12

# --- stability ------------------------------------------------------------------
STABILITY_MODELS = ("node", "anode", "sonode", "hbnode", "ghbnode", "adamnode")
SEPARATION_DECADES = 3.0
PARAM_SPREAD = 0.10


def strict_json(path) -> tuple:
    """``(value, errors)``: a strict parse rejects NaN and Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    try:
        return json.loads(Path(path).read_text(), parse_constant=reject), []
    except (OSError, ValueError) as exc:
        return None, [f"{Path(path).name}: not strict JSON ({exc})"]


def _json_files(out_dir) -> list:
    errors = []
    for path in sorted(Path(out_dir).glob("*.json")):
        errors += strict_json(path)[1]
    return errors


# ------------------------------------------------------------------ flows

def rosenbrock(x, y):
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def rosenbrock_grad(x, y):
    return -2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)


def beale_grad(x, y):
    t1 = 1.5 - x + x * y
    t2 = 2.25 - x + x * y * y
    t3 = 2.625 - x + x * y * y * y
    gx = 2.0 * t1 * (y - 1.0) + 2.0 * t2 * (y * y - 1.0) + 2.0 * t3 * (y * y * y - 1.0)
    gy = 2.0 * t1 * x + 4.0 * t2 * x * y + 6.0 * t3 * x * y * y
    return gx, gy


GRADS = {"rosenbrock": rosenbrock_grad, "beale": beale_grad}


def _flow_rhs(flow, grad):
    """Right-hand side of one flow over a tuple state."""
    if flow == "ode":
        def rhs(s):
            gx, gy = grad(s[0], s[1])
            return (-gx, -gy)
    elif flow == "hbode":
        def rhs(s):
            gx, gy = grad(s[0], s[1])
            return (s[2], s[3], -FLOW_GAMMA * s[2] - gx, -FLOW_GAMMA * s[3] - gy)
    else:
        def rhs(s):
            gx, gy = grad(s[0], s[1])
            return (
                -s[2] / math.sqrt(s[4] + FLOW_EPS),
                -s[3] / math.sqrt(s[5] + FLOW_EPS),
                (1.0 - FLOW_ALPHA) * (gx - s[2]),
                (1.0 - FLOW_ALPHA) * (gy - s[3]),
                (1.0 - FLOW_BETA) * (gx * gx - s[4]),
                (1.0 - FLOW_BETA) * (gy * gy - s[5]),
            )
    return rhs


def _flow_start(flow, grad, x0):
    if flow == "ode":
        return x0
    if flow == "hbode":
        return (*x0, 0.0, 0.0)
    gx, gy = grad(*x0)  # warm start: m = grad, v = grad**2
    return (*x0, gx, gy, gx * gx, gy * gy)


def reference_flow(flow, landscape, horizon, n_samples):
    """The first ``n_samples`` sampled (x, y) of ``flow`` by plain-float RK4;
    stops early once a state is no longer finite."""
    grad = GRADS[landscape]
    rhs = _flow_rhs(flow, grad)
    y = _flow_start(flow, grad, STARTS[landscape])
    n_steps = round(horizon / FLOW_STEP)
    steps_per_sample, rest = divmod(n_steps, FLOW_SAMPLES - 1)
    if rest or not steps_per_sample:
        raise ValueError(f"horizon {horizon!r} does not put samples a whole number of RK4 steps apart")
    h = horizon / n_steps
    out = [y[:2]]
    while len(out) < n_samples:
        for _ in range(steps_per_sample):
            k1 = rhs(y)
            k2 = rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
            k3 = rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
            k4 = rhs(tuple(a + h * b for a, b in zip(y, k3)))
            y = tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                      for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        if not all(math.isfinite(v) for v in y):
            break
        out.append(y[:2])
    return out


def read_trajectory(path) -> dict:
    """``{flow: [(t, x, y), ...]}`` from a trajectory CSV."""
    series = {}
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or rows[0] != ["t", "x", "y", "dynamics"]:
        raise ValueError("bad trajectory header")
    for row in rows[1:]:
        series.setdefault(row[3], []).append(tuple(float(v) for v in row[:3]))
    return series


def check_trajectory(out_dir, landscape, horizon) -> list:
    out_dir = Path(out_dir)
    errors = _json_files(out_dir)
    summary, _ = strict_json(out_dir / "summary.json")
    try:
        series = read_trajectory(out_dir / "trajectory.csv")
    except (OSError, ValueError, IndexError) as exc:
        return errors + [f"trajectory.csv unreadable: {exc}"]
    if sorted(series) != sorted(FLOWS):
        return errors + [f"flows {sorted(series)} != {sorted(FLOWS)}"]

    step_t = horizon / (FLOW_SAMPLES - 1)
    for flow in FLOWS:
        pts = series[flow]
        for i, (t, _, _) in enumerate(pts):
            if abs(t - i * step_t) > 1e-12 * horizon:
                errors.append(f"{flow}: sample {i} at t={t!r}, expected {i * step_t!r}")
                break
        ref = reference_flow(flow, landscape, horizon, min(RK4_SAMPLES, len(pts)))
        for i, ((_, x, y), (rx, ry)) in enumerate(zip(pts, ref)):
            if not (math.isfinite(x) and math.isfinite(y)):
                break
            if abs(x - rx) > RK4_TOL * max(1.0, abs(rx)) or abs(y - ry) > RK4_TOL * max(1.0, abs(ry)):
                errors.append(f"{flow}: sample {i} ({x!r}, {y!r}) differs from reference RK4 ({rx!r}, {ry!r})")
                break

    if landscape == "rosenbrock":
        values = [rosenbrock(x, y) for _, x, y in series["ode"]]
        for i in range(1, len(values)):
            if values[i] > values[i - 1]:
                errors.append(f"ode: objective rises from {values[i - 1]!r} to {values[i]!r} at sample {i}")
                break

    if summary is not None:
        mx, my = MINIMIZERS[landscape]
        for flow in FLOWS:
            info = summary.get("flows", {}).get(flow, {})
            if info.get("status") != "success":
                continue
            pts = series[flow]
            if len(pts) != FLOW_SAMPLES or pts[-1][0] != horizon:
                errors.append(f"{flow}: success but {len(pts)} samples ending at t={pts[-1][0]!r}")
                continue
            if not all(math.isfinite(x) and math.isfinite(y) for _, x, y in pts):
                errors.append(f"{flow}: success but a sample is not finite")
                continue
            _, x, y = pts[-1]
            dist = math.sqrt((x - mx) ** 2 + (y - my) ** 2)
            reported = info.get("final_distance_to_min")
            if not isinstance(reported, float) or abs(reported - dist) > DISTANCE_RTOL * max(dist, 1e-300):
                errors.append(f"{flow}: summary distance {reported!r} != {dist!r} from the last CSV row")
    return errors


def check_replot(out_dir, source_svg) -> list:
    out_dir = Path(out_dir)
    errors = _json_files(out_dir)
    replot = out_dir / Path(source_svg).name
    try:
        if replot.read_bytes() != Path(source_svg).read_bytes():
            errors.append(f"{replot.name} differs from {source_svg}")
    except OSError as exc:
        errors.append(f"cannot compare plots: {exc}")
    return errors


# ------------------------------------------------------------------- training

def split_sizes(n_points=TRAIN_POINTS):
    """``(training size, [test size per class])`` of the program's stratified
    80/20 split of a two-class dataset with ``n_points // 2`` points in
    class 0."""
    classes = (n_points // 2, n_points - n_points // 2)
    test = [n - round(TRAIN_SPLIT * n) for n in classes]
    return n_points - sum(test), test


def read_efficacy(path) -> dict:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or rows[0] != EFFICACY_HEADER:
        raise ValueError("bad efficacy header")
    cols = {name: [] for name in EFFICACY_HEADER}
    for row in rows[1:]:
        for name, value in zip(EFFICACY_HEADER, row):
            cols[name].append(int(value) if name in ("epoch", "forward_nfe", "backward_nfe") else float(value))
    return cols


def check_train(out_dir, epochs, min_accuracy=MIN_ACCURACY) -> list:
    out_dir = Path(out_dir)
    errors = _json_files(out_dir)
    try:
        cols = read_efficacy(out_dir / "efficacy.csv")
    except (OSError, ValueError) as exc:
        return errors + [f"efficacy.csv unreadable: {exc}"]
    if cols["epoch"] != list(range(epochs + 1)):
        return errors + [f"epochs {cols['epoch'][:3]}... are not 0..{epochs}"]

    n_train, test = split_sizes()
    balance = test[0] / sum(test)  # zero readout: every point gets class 0
    if cols["test_accuracy"][0] != balance:
        errors.append(f"epoch-0 accuracy {cols['test_accuracy'][0]!r} != class balance {balance!r}")

    fwd, bwd = cols["forward_nfe"], cols["backward_nfe"]
    if bwd[0] != 0 or any(b <= a for a, b in zip(fwd, fwd[1:])) or any(b <= a for a, b in zip(bwd[1:], bwd[2:])):
        errors.append("cumulative NFE columns do not increase")

    train_solves = math.ceil(n_train / TRAIN_BATCH)
    fwd_solves = train_solves + math.ceil(sum(test) / TRAIN_BATCH)
    wrong = []
    for e in range(epochs + 1):
        acc = cols["test_accuracy"][e]
        d_fwd = fwd[e] - (fwd[e - 1] if e else 0)
        d_bwd = bwd[e] - (bwd[e - 1] if e else 0)
        want_fwd = acc / (d_fwd / fwd_solves) if d_fwd > 0 else math.inf
        want_bwd = acc / (d_bwd / train_solves) if e and d_bwd > 0 else 0.0
        for name, want in (("efficacy_fwd", want_fwd), ("efficacy_bwd", want_bwd)):
            got = cols[name][e]
            if abs(got - want) > EFFICACY_RTOL * abs(want):
                wrong.append(f"epoch {e}: {name} {got!r} != recomputed {want!r}")
    if wrong:
        errors.append(f"{wrong[0]} ({len(wrong)} efficacy values differ)")

    if cols["test_accuracy"][-1] < min_accuracy:
        errors.append(f"final accuracy {cols['test_accuracy'][-1]!r} < {min_accuracy}")
    return errors


def total_nfe(out_dir) -> int:
    """Forward plus backward NFE of a finished training run."""
    cols = read_efficacy(Path(out_dir) / "efficacy.csv")
    return cols["forward_nfe"][-1] + cols["backward_nfe"][-1]


# ------------------------------------------------------------------ gradcheck

def _loss_ivp(spec, field, y0, c):
    import numpy as np
    from scipy.integrate import solve_ivp

    from momenta_node.dynamics import make_node_rhs

    rhs = make_node_rhs(spec, field, GRADCHECK_D)
    sol = solve_ivp(rhs, (0.0, GRADCHECK_T1), y0, method="DOP853", rtol=IVP_TOL, atol=IVP_TOL)
    if not sol.success:
        raise RuntimeError(sol.message)
    return float(np.dot(c, sol.y[:, -1]))


def ivp_central_difference(model, seed, index) -> float:
    """Central difference of the gradcheck loss in parameter ``index``,
    integrated by scipy's DOP853 instead of the program's solver.  The
    field, start and loss are rebuilt from ``seed`` as gradcheck builds
    them."""
    from dataclasses import replace

    import numpy as np

    from momenta_node import field_net as fn
    from momenta_node.benchmarks.stability import model_spec
    from momenta_node.dynamics import HeavyBallParams, initial_state

    spec = model_spec(model)
    field = fn.init_field(spec.field_in_dim(GRADCHECK_D), GRADCHECK_HIDDEN, spec.width(GRADCHECK_D),
                          activation="tanh", seed=seed)
    rng = np.random.default_rng(seed)
    y0 = initial_state(spec, rng.normal(size=GRADCHECK_D))
    c = rng.normal(size=y0.size)
    vec = fn.params_to_vec(field)
    losses = []
    for sign in (1.0, -1.0):
        if index < vec.size:
            moved = vec.copy()
            moved[index] += sign * GRADCHECK_DELTA
            losses.append(_loss_ivp(spec, fn.vec_to_params(field, moved), y0, c))
        else:
            hb = HeavyBallParams(theta=spec.hb.theta + sign * GRADCHECK_DELTA)
            losses.append(_loss_ivp(replace(spec, hb=hb), field, y0, c))
    return (losses[0] - losses[1]) / (2.0 * GRADCHECK_DELTA)


def check_gradcheck(out_dir, model, seed) -> list:
    errors = _json_files(out_dir)
    report, _ = strict_json(Path(out_dir) / "gradcheck_report.json")
    if not isinstance(report, dict):
        return errors + ["gradcheck_report.json missing"]
    for key in ("max_rel_err", "init_state_max_rel_err"):
        if not report.get(key, math.inf) < GRADCHECK_TOL:
            errors.append(f"{key} {report.get(key)!r} is not below {GRADCHECK_TOL}")
    if report.get("seed") != seed:
        errors.append(f"report seed {report.get('seed')!r} != {seed}")
    worst = (report.get("per_param_worst") or [None])[0]
    if not worst:
        return errors + ["report names no worst parameter"]
    fd = ivp_central_difference(model, seed, worst["index"])
    adj = worst["adjoint"]
    rel = abs(adj - fd) / max(abs(adj), abs(fd), 1e-8)
    if not rel < GRADCHECK_TOL:
        errors.append(f"parameter {worst['index']}: adjoint {adj!r} vs solve_ivp difference {fd!r} (rel {rel:.2e})")
    return errors


# ------------------------------------------------------------------ stability

def read_stability(path) -> tuple:
    """``({model: [(t, log10_norm), ...]}, {model: blowup_t})``."""
    series, blowups = {}, {}
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows or rows[0] != ["t", "log10_norm", "model"]:
        raise ValueError("bad stability header")
    for row in rows[1:]:
        if row[0].startswith("#"):
            if row[0].lstrip("# ") == "blowup_at":
                blowups[row[2]] = float(row[1])
            continue
        series.setdefault(row[2], []).append((float(row[0]), float(row[1])))
    return series, blowups


def check_stability(out_dir, t1) -> list:
    out_dir = Path(out_dir)
    errors = _json_files(out_dir)
    summary, _ = strict_json(out_dir / "summary.json")
    try:
        series, blowups = read_stability(out_dir / "stability.csv")
    except (OSError, ValueError, IndexError) as exc:
        return errors + [f"stability.csv unreadable: {exc}"]
    if sorted(series) != sorted(STABILITY_MODELS):
        return errors + [f"models {sorted(series)} != {sorted(STABILITY_MODELS)}"]

    starts = {model: pts[0] for model, pts in series.items()}
    if len(set(starts.values())) != 1:
        errors.append(f"models start from different (t, log10 norm): {starts}")
    adam, hb = series["adamnode"][-1], series["hbnode"][-1]
    if adam[0] != t1 or not all(math.isfinite(v) for _, v in series["adamnode"]):
        errors.append(f"adamnode does not reach t1={t1!r} finitely (last sample {adam!r})")
    if not adam[1] <= hb[1] - SEPARATION_DECADES:
        errors.append(f"adamnode final log10 norm {adam[1]!r} is not {SEPARATION_DECADES} decades below hbnode's {hb[1]!r}")

    if isinstance(summary, dict):
        statuses = summary.get("statuses", {})
        if statuses.get("adamnode") != "SUCCESS":
            errors.append(f"adamnode status {statuses.get('adamnode')!r}")
        failed = {m for m, s in statuses.items() if s != "SUCCESS"}
        if set(summary.get("blowup_at", {})) != failed or set(blowups) != failed:
            errors.append(f"blow-ups {sorted(summary.get('blowup_at', {}))} / CSV {sorted(blowups)} "
                          f"!= models that failed {sorted(failed)}")
        counts = list(summary.get("param_counts", {}).values())
        if len(counts) != len(STABILITY_MODELS) or (max(counts) - min(counts)) > PARAM_SPREAD * min(counts):
            errors.append(f"parameter counts not within {PARAM_SPREAD:.0%}: {summary.get('param_counts')}")
    return errors


def check_op(op, round_dir) -> list:
    """Every check of one operation's output, by its kind."""
    out_dir = Path(round_dir) / op.out
    p = op.params
    if op.kind == "trajectory":
        return check_trajectory(out_dir, p["landscape"], p["horizon"])
    if op.kind == "replot":
        return check_replot(out_dir, Path(round_dir) / p["source"])
    if op.kind == "train":
        return check_train(out_dir, p["epochs"])
    if op.kind == "gradcheck":
        return check_gradcheck(out_dir, p["model"], p["seed"])
    if op.kind == "stability":
        return check_stability(out_dir, p["t1"])
    raise ValueError(f"no check for {op.kind!r}")
