"""Release gate: the properties this package promises, each verified at a
pinned tolerance and wall-clock budget, reporting one pass/fail line per
check (run pytest with -s to see the lines as they happen)."""

import json
import time

import numpy as np

from momenta_node import cli
from momenta_node import dynamics as dyn
from momenta_node.adjoint import GRADCHECK_HIDDEN, gradcheck
from momenta_node.benchmarks.classify import run_classification
from momenta_node.benchmarks import stability
from momenta_node.benchmarks.stability import (
    MODEL_SPECS,
    PROBE_SOLVER,
    duffing_probe,
    run_stability_probe,
)
from momenta_node.benchmarks.trajectories import run_trajectory_experiment
from momenta_node.csv_formats import (
    EFFICACY_HEADER,
    STABILITY_HEADER,
    TRAJECTORY_HEADER,
)
from momenta_node.field_net import init_field, params_to_vec, vec_to_params
from momenta_node.solver import IntegratorConfig, solve_dopri45, solve_rk4
from reference import (
    PackedState,
    adam_ode_rhs,
    discrete_adam_step,
    gradcheck_args,
    pack,
    trajectory_args,
    train_config,
)


def _verdict(name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_adjoint_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = {}
    assert GRADCHECK_HIDDEN == (8,)
    for name, spec in MODEL_SPECS.items():
        rep = gradcheck(spec, **gradcheck_args(seed=0))
        assert rep["n_params"] <= 200, (name, rep["n_params"])
        worst[name] = max(rep["max_rel_err"], rep["init_state_max_rel_err"])
    ok = all(err < 1e-3 for err in worst.values())
    detail = "max rel err " + ", ".join(f"{n}={e:.1e}" for n, e in worst.items())
    _verdict("adjoint gradient gate", ok, detail, time.perf_counter() - t0, 300.0)


def test_flow_ordering_on_both_landscapes():
    t0 = time.perf_counter()
    horizon = 100.0
    finals, entries = {}, {}
    for land in ("rosenbrock", "beale"):
        exp = run_trajectory_experiment(land, **trajectory_args(T=horizon))
        finals[land] = {n: r.final_distance_to_min for n, r in exp.runs.items()}
        entries[land] = {
            n: (r.first_time_within_radius if r.first_time_within_radius is not None else np.inf)
            for n, r in exp.runs.items()
        }
    closest_everywhere = all(
        finals[land]["adamode"] <= finals[land]["hbode"]
        and finals[land]["adamode"] <= finals[land]["ode"]
        for land in finals
    )
    first_somewhere = any(
        entries[land]["adamode"] < entries[land]["hbode"]
        and entries[land]["adamode"] < entries[land]["ode"]
        for land in entries
    )
    ok = closest_everywhere and first_somewhere
    detail = (
        f"T={horizon:g}; finals ros "
        + "/".join(f"{finals['rosenbrock'][n]:.1e}" for n in ("adamode", "hbode", "ode"))
        + ", beale "
        + "/".join(f"{finals['beale'][n]:.1e}" for n in ("adamode", "hbode", "ode"))
        + f"; adam first on beale: {entries['beale']['adamode']:.1f}"
    )
    _verdict("flow ordering (adam closest everywhere, first somewhere)", ok, detail,
             time.perf_counter() - t0, 60.0)


def test_norm_growth_separation_across_seeds():
    t0 = time.perf_counter()
    gaps, adam_ok = [], True
    # relu only: the separation may not lean on a bounded activation.
    assert stability.ACTIVATION == "relu"
    for seed in (0, 1, 2):
        res = run_stability_probe(duffing_probe(seed, 4), 64.0, dict(MODEL_SPECS), seed, PROBE_SOLVER)
        gap = res.log10_norms["hbnode"][-1] - res.log10_norms["adamnode"][-1]
        gaps.append(gap)
        adam_ok &= res.statuses["adamnode"] == "SUCCESS"
    ok = adam_ok and all(g >= 3.0 for g in gaps)
    detail = ("log10 gaps hb-adam " + ", ".join(f"{g:.1f}" for g in gaps)
              + f"; adam finished horizon: {adam_ok}")
    _verdict("norm-growth separation (3 seeds)", ok, detail, time.perf_counter() - t0, 120.0)


def test_solver_battery():
    t0 = time.perf_counter()
    checks = {}

    cubic = lambda t, y: np.array([3.0 * t * t])
    res = solve_dopri45(cubic, np.zeros(1), 0.0, 1.0, IntegratorConfig(rtol=1e-10, atol=1e-10))
    checks["polynomial"] = abs(res.y_final[0] - 1.0) < 1e-12
    res = solve_rk4(cubic, np.zeros(1), 0.0, 1.0, 10, ())
    checks["polynomial_rk4"] = abs(res.y_final[0] - 1.0) < 1e-12

    res = solve_dopri45(lambda t, y: y, np.ones(1), 0.0, 1.0,
                        IntegratorConfig(rtol=1e-10, atol=1e-10))
    checks["exponential"] = abs(res.y_final[0] - np.e) < 1e-8

    spin = lambda t, y: np.array([y[1], -y[0]])
    res = solve_dopri45(spin, np.array([1.0, 0.0]), 0.0, 2.0 * np.pi,
                        IntegratorConfig(rtol=1e-10, atol=1e-10))
    checks["oscillator"] = float(np.max(np.abs(res.y_final - [1.0, 0.0]))) < 1e-7

    errs = [abs(solve_rk4(lambda t, y: y, np.ones(1), 0.0, 1.0, n, ()).y_final[0] - np.e)
            for n in (8, 16, 32, 64)]
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    checks["rk4_order"] = all(14.0 <= r <= 18.0 for r in ratios)

    counter = {"n": 0}

    def counted(t, y):
        counter["n"] += 1
        return y

    res = solve_dopri45(counted, np.ones(1), 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    checks["nfe_dopri45"] = res.nfe == counter["n"]
    counter["n"] = 0
    res = solve_rk4(counted, np.ones(1), 0.0, 1.0, 25, ())
    checks["nfe_rk4"] = res.nfe == counter["n"] == 100

    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items())
    _verdict("solver battery", ok, detail, time.perf_counter() - t0, 30.0)


def test_dynamics_invariants():
    t0 = time.perf_counter()

    # Second-moment block stays nonnegative over 20 random models.
    rng = np.random.default_rng(17)
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-8)
    floor = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        spec = dyn.DynamicsSpec(kind=dyn.ADAM)
        v0 = float(rng.choice([0.0, 0.5, 1.0]))
        field = init_field(d, (6,), d, seed=int(rng.integers(1 << 30)))
        rhs = dyn.make_node_rhs(spec, field, d)
        y0 = pack(PackedState(h=rng.normal(size=d), m=np.zeros(d), v=np.full(d, v0)))
        res = solve_dopri45(rhs, y0, 0.0, 5.0, cfg, sample_times=np.linspace(0.0, 5.0, 51))
        assert res.ok
        floor = min(floor, float(res.states[:, 2 * d:].min()))
    v_ok = floor >= -1e-6

    # Saturating momentum variant never exceeds its bound.
    hb = dyn.HeavyBallParams(theta=2.0)
    spec = dyn.DynamicsSpec(kind=dyn.GENERALIZED_HEAVY_BALL, hb=hb)
    field = init_field(2, (8,), 2, seed=7)
    vec = params_to_vec(field)
    vec[field.layers[-1][0]] *= 50.0  # the last layer's weights
    field = vec_to_params(field, vec)
    rhs = dyn.make_node_rhs(spec, field, 2)
    peak = {"v": 0.0}

    def instrumented(t, y):
        out = rhs(t, y)
        peak["v"] = max(peak["v"], float(np.max(np.abs(out[:2]))))
        return out

    y0 = dyn.initial_state(spec, np.array([0.4, -0.2]))
    res = solve_dopri45(instrumented, y0, 0.0, 5.0, IntegratorConfig(rtol=1e-6, atol=1e-6))
    ghb_ok = res.ok and peak["v"] <= 1.0 + 1e-12

    # Discrete adaptive-moment iterates approach the continuous flow as the
    # step shrinks; the endpoint error must fall monotonically.
    p = dyn.AdamParams(alpha=0.9, beta=0.99, epsilon=1e-5)
    grad = lambda x: x.copy()
    T = 2.0
    st0 = PackedState(h=np.array([1.5]), m=np.array([0.0]), v=np.array([1.0]))

    def flow_rhs(t, y):
        st = PackedState(h=y[:1], m=y[1:2], v=y[2:])
        out = adam_ode_rhs(t, st, grad, p)
        return np.concatenate([out.h, out.m, out.v])

    ref = solve_dopri45(flow_rhs, pack(st0), 0.0, T,
                        IntegratorConfig(rtol=1e-12, atol=1e-12, h_min=1e-15),
                        sample_times=[T]).states[-1]
    errs = []
    for s in (1e-2, 1e-3, 1e-4):
        x, m, v = st0.h.copy(), st0.m.copy(), st0.v.copy()
        a_s = 1.0 - s * (1.0 - p.alpha)
        b_s = 1.0 - s * (1.0 - p.beta)
        for _ in range(int(round(T / s))):
            x, m, v = discrete_adam_step(x, m, v, grad, s, a_s, b_s, p.epsilon)
        errs.append(abs(x[0] - ref[0]))
    limit_ok = errs[0] > errs[1] > errs[2]

    ok = v_ok and ghb_ok and limit_ok
    detail = (f"v floor {floor:.1e}, momentum peak {peak['v']:.3f} <= 1, "
              f"limit errs {errs[0]:.1e}>{errs[1]:.1e}>{errs[2]:.1e}")
    _verdict("dynamics invariants", ok, detail, time.perf_counter() - t0, 60.0)


def test_training_efficacy_direction():
    t0 = time.perf_counter()
    accs, eff_adam, eff_node = [], [], []
    for seed in (0, 1, 2):
        run_a = run_classification(MODEL_SPECS["adamnode"], **train_config(seed=seed))
        run_n = run_classification(MODEL_SPECS["node"], **train_config(seed=seed))
        assert not run_a.diverged and not run_n.diverged
        accs.append(run_a.records[-1].test_accuracy)
        eff_adam.append(run_a.records[-1].efficacy_fwd)
        eff_node.append(run_n.records[-1].efficacy_fwd)
    acc_ok = all(a >= 0.95 for a in accs)
    wins = sum(a > n for a, n in zip(eff_adam, eff_node))
    ok = acc_ok and wins >= 2
    detail = (
        "adam acc " + "/".join(f"{a:.2f}" for a in accs)
        + ", efficacy_fwd adam " + "/".join(f"{e:.4f}" for e in eff_adam)
        + " vs node " + "/".join(f"{e:.4f}" for e in eff_node)
        + f", wins {wins}/3"
    )
    _verdict("training efficacy direction (3 seeds, 100 epochs)", ok, detail,
             time.perf_counter() - t0, 900.0)


def test_determinism_and_format_contracts(tmp_path, capsys):
    t0 = time.perf_counter()
    checks = {}

    def header_of(path):
        with open(path) as fh:
            for line in fh:
                if not line.startswith("#"):
                    return line.strip().split(",")
        return []

    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["trajectory", "--T", "1.0", "--out", str(out)]) == 0
    checks["csv_bytes"] = (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    checks["svg_bytes"] = (a / "trajectory.svg").read_bytes() == (b / "trajectory.svg").read_bytes()
    checks["trajectory_header"] = header_of(a / "trajectory.csv") == TRAJECTORY_HEADER

    st = tmp_path / "st"
    assert cli.main(["stability", "--t1", "2", "--models", "node", "--out", str(st)]) == 0
    checks["stability_header"] = header_of(st / "stability.csv") == STABILITY_HEADER

    tr = tmp_path / "tr"
    assert cli.main(["train", "--epochs", "0", "--out", str(tr)]) == 0
    checks["efficacy_header"] = header_of(tr / "efficacy.csv") == EFFICACY_HEADER
    checks["resolved_config"] = all(
        (p / "config.resolved.json").exists() for p in (a, b, st, tr)
    )

    checks["exit_usage"] = cli.main(["trajectory", "--landscape", "nope", "--out", str(tmp_path / "u")]) == 2
    checks["exit_kind_mismatch"] = cli.main(
        ["plot", "--in", str(a / "trajectory.csv"), "--kind", "efficacy",
         "--out", str(tmp_path / "m.svg")]
    ) == 2
    checks["exit_all_failed"] = cli.main(
        ["trajectory", "--method", "rk4", "--step", "10", "--T", "50",
         "--out", str(tmp_path / "f")]
    ) == 3
    checks["exit_diverged"] = cli.main(
        ["train", "--epochs", "3", "--lr", "1e6", "--model", "node",
         "--out", str(tmp_path / "d")]
    ) == 4
    checks["exit_gradcheck_fail"] = cli.main(
        ["gradcheck", "--model", "node", "--tol", "0", "--out", str(tmp_path / "g")]
    ) == 1

    capsys.readouterr()
    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items())
    _verdict("determinism and format contracts", ok, detail, time.perf_counter() - t0, 60.0)
