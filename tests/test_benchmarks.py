import numpy as np
import pytest

from momenta_node.benchmarks import classify
from momenta_node.benchmarks.classify import run_classification, two_moons, two_spirals
from momenta_node.benchmarks.landscapes import LANDSCAPES
from momenta_node.benchmarks import stability
from momenta_node.benchmarks.stability import (
    MODEL_SPECS,
    N_GRID,
    N_SERIES,
    PROBE_SOLVER,
    T_SERIES,
    duffing_probe,
    fair_hidden_widths,
    model_spec,
    run_stability_probe,
)
from momenta_node.benchmarks import trajectories
from momenta_node.benchmarks.trajectories import FLOWS, run_trajectory_experiment
from momenta_node.csv_formats import (
    CsvFormatError,
    read_series_csv,
    read_trajectory_csv,
    write_trajectory_csv,
)
from momenta_node.dynamics import DynamicsSpec, VANILLA
from momenta_node.solver import H_INIT, solve_dopri45
from reference import fair_hidden_widths_scan, train_config, trajectory_args, write_series_csv


# ------------------------------------------------------------------ landscapes

def test_rosenbrock_frozen_values():
    ros = LANDSCAPES["rosenbrock"]
    assert ros.eval(np.array([0.0, 0.0])) == 1.0
    np.testing.assert_allclose(ros.grad(np.array([0.0, 0.0])), [-2.0, 0.0], rtol=0.0, atol=0.0)
    assert ros.eval(np.array([-2.0, 2.0])) == 409.0
    assert ros.eval(ros.minimizer) <= 1e-12
    np.testing.assert_allclose(ros.grad(ros.minimizer), [0.0, 0.0], rtol=0.0, atol=1e-12)


def test_beale_frozen_values():
    beale = LANDSCAPES["beale"]
    assert beale.eval(np.array([0.0, 0.0])) == 14.203125
    np.testing.assert_allclose(beale.grad(np.array([0.0, 0.0])), [-12.75, 0.0], rtol=0.0, atol=0.0)
    assert beale.eval(beale.minimizer) <= 1e-12
    np.testing.assert_allclose(beale.grad(beale.minimizer), [0.0, 0.0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(LANDSCAPES))
def test_gradients_match_finite_differences(name):
    land = LANDSCAPES[name]
    rng = np.random.default_rng(11)
    (xl, xh), (yl, yh) = land.domain
    h = 1e-6
    for _ in range(20):
        p = np.array([rng.uniform(xl, xh), rng.uniform(yl, yh)])
        g = land.grad(p)
        for i in range(2):
            dp = np.zeros(2)
            dp[i] = h
            fd = (land.eval(p + dp) - land.eval(p - dp)) / (2.0 * h)
            np.testing.assert_allclose(g[i], fd, rtol=1e-5, atol=1e-4)


def test_huge_inputs_do_not_raise():
    # A diverging flow hands the landscape astronomically large points;
    # the value saturates to inf instead of raising.
    beale = LANDSCAPES["beale"]
    assert np.isinf(beale.eval(np.array([1e200, 1e200])))
    assert not np.all(np.isfinite(beale.grad(np.array([1e200, 1e200]))))
    ros = LANDSCAPES["rosenbrock"]
    assert np.isinf(ros.eval(np.array([1e200, -1e200])))


def test_landscape_registry():
    assert set(LANDSCAPES) == {"rosenbrock", "beale"}
    np.testing.assert_allclose(LANDSCAPES["rosenbrock"].minimizer, [1.0, 1.0])
    np.testing.assert_allclose(LANDSCAPES["beale"].minimizer, [3.0, 0.5])
    np.testing.assert_allclose(LANDSCAPES["rosenbrock"].default_start, [-2.0, 2.0])
    np.testing.assert_allclose(LANDSCAPES["beale"].default_start, [-4.0, -4.0])


# ---------------------------------------------------------------- trajectories

def test_stationary_start_stays_put():
    exp = run_trajectory_experiment("rosenbrock", **trajectory_args(x0=(1.0, 1.0), T=1.0))
    for run in exp.runs.values():
        assert run.status == "success"
        assert run.final_distance_to_min == 0.0
        assert run.first_time_within_radius == 0.0


def test_short_run_structure():
    exp = run_trajectory_experiment("rosenbrock", **trajectory_args(T=2.0))
    assert tuple(exp.runs) == FLOWS
    np.testing.assert_allclose(exp.x0, [-2.0, 2.0])
    for run in exp.runs.values():
        assert run.status == "success"
        assert run.ts[0] == 0.0 and run.ts[-1] == 2.0
        assert run.xs.shape == (trajectories.N_SAMPLES, 2)
        np.testing.assert_allclose(run.xs[0], exp.x0, rtol=0.0, atol=0.0)
        assert np.isfinite(run.final_distance_to_min)


def test_all_flows_reach_basin_under_adaptive_solver():
    exp = run_trajectory_experiment("rosenbrock", **trajectory_args(T=30.0, method="dopri45"))
    for run in exp.runs.values():
        assert run.status == "success"
        assert run.first_time_within_radius is not None
        assert run.first_time_within_radius < 30.0


def test_trajectory_input_validation():
    with pytest.raises(ValueError, match="outside the rosenbrock domain"):
        run_trajectory_experiment("rosenbrock", **trajectory_args(x0=(50.0, 50.0)))


def test_rk4_step_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(trajectories, "MAX_RK4_STEPS", 10)
    results = []
    solve = trajectories.solve_rk4

    def spy(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(trajectories, "solve_rk4", spy)
    run_trajectory_experiment("rosenbrock", **trajectory_args(x0=(1.0, 1.0), T=1.0, step=0.1))
    assert len(results) == 3 and all(res.nfe == 4 * 10 for res in results)
    with pytest.raises(ValueError, match="RK4 steps"):
        run_trajectory_experiment("rosenbrock", **trajectory_args(x0=(1.0, 1.0), T=1.0, step=1.0 / 11.0))


def test_trajectory_csv_round_trip(tmp_path):
    exp = run_trajectory_experiment("rosenbrock", **trajectory_args(T=2.0))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, exp)
    minimizer, series = read_trajectory_csv(path)
    np.testing.assert_array_equal(minimizer, exp.landscape.minimizer)
    assert set(series) == set(FLOWS)
    for name, (ts, xs) in series.items():
        # repr round trip is bit-exact.
        np.testing.assert_array_equal(ts, exp.runs[name].ts)
        np.testing.assert_array_equal(xs, exp.runs[name].xs)


def test_trajectory_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x,y,dynamics\n")
    with pytest.raises(CsvFormatError, match="minimizer|data"):
        read_trajectory_csv(path)
    path.write_text("# minimizer,1.0,1.0\nt,x,y\n0.0,1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="header"):
        read_trajectory_csv(path)
    path.write_text("# minimizer,1.0,1.0\nt,x,y,dynamics\n0.0,oops,2.0,ode\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_trajectory_csv(path)


# ------------------------------------------------------------------- stability

def run_probe(seed, models=MODEL_SPECS):
    """The stability probe at the CLI's defaults: d = 4 and t1 = 64."""
    return run_stability_probe(duffing_probe(seed, 4), 64.0, dict(models), seed, PROBE_SOLVER)


def test_duffing_probe_deterministic():
    p1 = duffing_probe(3, N_SERIES)
    p2 = duffing_probe(3, N_SERIES)
    np.testing.assert_array_equal(p1, p2)
    p3 = duffing_probe(4, N_SERIES)
    assert not np.array_equal(p1, p3)


def test_duffing_probe_integrates_only_the_samples_it_returns(monkeypatch):
    nfe, sample_times = [], []

    def counted(*args, **kwargs):
        res = solve_dopri45(*args, **kwargs)
        nfe.append(res.nfe)
        sample_times.append(kwargs["sample_times"])
        return res

    monkeypatch.setattr(stability, "solve_dopri45", counted)
    for seed in range(4):
        short = duffing_probe(seed, 4)
        assert nfe[-1] < 100
        full = duffing_probe(seed, N_SERIES)
        assert nfe[-1] > 1000
        np.testing.assert_array_equal(sample_times[-2], sample_times[-1][:4])
        np.testing.assert_allclose(short, full[:4], rtol=0.0, atol=1e-8)


def test_duffing_probe_sample_count_edges(monkeypatch):
    start = duffing_probe(0, 2)[0]

    def solver_reached(*args, **kwargs):
        raise AssertionError("the solver was reached")

    with monkeypatch.context() as m:
        m.setattr(stability, "solve_dopri45", solver_reached)
        one = duffing_probe(0, 1)
    assert one.tolist() == [start]
    # More samples than the series has return the whole series.
    assert duffing_probe(0, N_SERIES + 1).size == N_SERIES


def test_series_csv_round_trip_exact(tmp_path):
    times = np.linspace(0.0, T_SERIES, N_SERIES)
    inputs = 0.5 * np.cos(1.2 * times + 0.3)
    outputs = duffing_probe(5, N_SERIES)
    path = tmp_path / "series.csv"
    write_series_csv(path, times, inputs, outputs)
    back = read_series_csv(path)
    np.testing.assert_array_equal(back[0], times)
    np.testing.assert_array_equal(back[1], inputs)
    np.testing.assert_array_equal(back[2], outputs)


def test_ingest_rejects_with_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError):
        read_series_csv(path)
    path.write_text("t,input,output\n")
    with pytest.raises(CsvFormatError) as exc:
        read_series_csv(path)
    assert exc.value.line == 2
    path.write_text("time,u,y\n0,0,0\n")
    with pytest.raises(CsvFormatError) as exc:
        read_series_csv(path)
    assert exc.value.line == 1
    path.write_text("t,input,output\n0.0,1.0\n")
    with pytest.raises(CsvFormatError) as exc:
        read_series_csv(path)
    assert exc.value.line == 2
    path.write_text("t,input,output\n0.0,1.0,2.0\n0.5,nope,2.0\n")
    with pytest.raises(CsvFormatError) as exc:
        read_series_csv(path)
    assert exc.value.line == 3
    path.write_text("t,input,output\n0.0,1.0,2.0\n0.0,1.0,2.0\n")
    with pytest.raises(CsvFormatError) as exc:
        read_series_csv(path)
    assert exc.value.line == 3
    path.write_text("t,input,output\n0,1,2\n1,inf,2\n")
    with pytest.raises(CsvFormatError, match="non-finite") as exc:
        read_series_csv(path)
    assert exc.value.line == 3
    # The header must match exactly, as in the other three schemas.
    path.write_text(" t, input, output\n0.0,1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="header") as exc:
        read_series_csv(path)
    assert exc.value.line == 1


def test_series_reader_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("# a measured series\nt,input,output\n\n0.0,1.0,2.0\n0.5,1.5,2.5\n")
    ts, us, ys = read_series_csv(path)
    np.testing.assert_array_equal(ts, [0.0, 0.5])
    np.testing.assert_array_equal(us, [1.0, 1.5])
    np.testing.assert_array_equal(ys, [2.0, 2.5])


def test_fair_hidden_widths_parity():
    widths = fair_hidden_widths(MODEL_SPECS, d=4, base_hidden=16)
    assert widths["node"] == 16
    assert all(w >= 1 for w in widths.values())
    res = run_probe(0)
    counts = list(res.param_counts.values())
    assert (max(counts) - min(counts)) / min(counts) < 0.10


def test_fair_hidden_widths_match_the_scan_of_every_width():
    def outcome(choose, d, base):
        try:
            return choose(MODEL_SPECS, d, base)
        except ValueError:
            return "refused"

    for d in range(1, 80):
        for base in range(1, 70):
            assert outcome(fair_hidden_widths, d, base) == outcome(fair_hidden_widths_scan, d, base), (d, base)


def test_zero_field_keeps_hidden_norm_constant(monkeypatch):
    # Zero weights with the stock initial fills give every formulation a
    # motionless hidden block, whatever else the moment blocks do.
    monkeypatch.setattr(stability, "GAIN", 0.0)
    res = run_probe(1)
    for name, curve in res.log10_norms.items():
        np.testing.assert_allclose(curve, curve[0], rtol=0.0, atol=1e-9)


def test_blowup_curve_carries_last_value(monkeypatch):
    monkeypatch.setattr(stability, "GAIN", 16.0)
    res = run_probe(0, {"sonode": model_spec("sonode")})
    assert res.statuses["sonode"] != "SUCCESS"
    assert "sonode" in res.blowup_at
    assert 0.0 < res.blowup_at["sonode"] < 64.0
    curve = res.log10_norms["sonode"]
    assert curve.size == res.grid.size == N_GRID
    assert np.all(curve[-5:] == curve[-5])


def test_stability_probe_leaves_its_input_unchanged(monkeypatch):
    monkeypatch.setattr(stability, "GAIN", 16.0)
    h0 = duffing_probe(0, 4)
    before = h0.copy()
    models = {"node": model_spec("node"), "sonode": model_spec("sonode")}
    res = run_stability_probe(h0, 64.0, models, 0, PROBE_SOLVER)
    assert res.blowup_at  # the run has a blow-up to record somewhere
    assert h0.tobytes() == before.tobytes()


def test_probe_shares_one_grid():
    models = {"node": model_spec("node"), "adamnode": model_spec("adamnode")}
    res = run_probe(2, models)
    np.testing.assert_array_equal(res.grid, np.linspace(0.0, 64.0, N_GRID))
    assert list(res.log10_norms) == list(models)
    for curve in res.log10_norms.values():
        assert curve.shape == res.grid.shape
        assert np.all(np.isfinite(curve))


def test_model_spec_rejects_unknown_name():
    with pytest.raises(ValueError, match="adamnode"):
        model_spec("resnet")


# -------------------------------------------------------------- classification

@pytest.fixture
def small_training(monkeypatch):
    """64 points and an (8,) field instead of the program's 256 and (32,)."""
    monkeypatch.setattr(classify, "N_POINTS", 64)
    monkeypatch.setattr(classify, "TRAIN_HIDDEN", (8,))


def test_datasets_are_balanced_and_deterministic():
    for maker in (two_spirals, two_moons):
        xs, ys = maker(n=64, seed=9)
        assert xs.shape == (64, 2)
        assert ys.shape == (64,)
        assert int(ys.sum()) == 32
        xs2, ys2 = maker(n=64, seed=9)
        np.testing.assert_array_equal(xs, xs2)
        np.testing.assert_array_equal(ys, ys2)


def test_n_train_is_the_training_split_of_each_dataset():
    # `train --batch` stops at N_TRAIN, the rows the stratified split trains on.
    for maker in (two_spirals, two_moons):
        _, ys = maker(n=classify.N_POINTS, seed=0)
        per_class = [round(classify.TRAIN_SHARE * np.count_nonzero(ys == label)) for label in np.unique(ys)]
        assert sum(per_class) == classify.N_TRAIN == 204


def test_untrained_model_sits_exactly_at_chance(small_training):
    run = run_classification(DynamicsSpec(kind=VANILLA), **train_config(epochs=0))
    assert not run.diverged
    assert len(run.records) == 1
    r = run.records[0]
    assert r.epoch == 0
    assert r.test_accuracy == 0.5
    np.testing.assert_allclose(r.train_loss, np.log(2.0), rtol=0.0, atol=1e-12)
    assert r.backward_nfe == 0
    assert r.efficacy_bwd == 0.0


def test_nfe_counters_and_efficacy_quotients(small_training):
    run = run_classification(DynamicsSpec(kind=VANILLA), **train_config(epochs=2, seed=1))
    assert not run.diverged
    recs = run.records
    assert [r.epoch for r in recs] == [0, 1, 2]
    # 64 points split 80/20 per class: 52 train, 12 test; batch 32 gives
    # 2 train solves and 1 eval solve per epoch.
    train_solves, eval_solves = 2, 1
    assert all(b.forward_nfe > a.forward_nfe for a, b in zip(recs, recs[1:]))
    assert all(b.backward_nfe >= a.backward_nfe for a, b in zip(recs, recs[1:]))
    mean0 = recs[0].forward_nfe / (train_solves + eval_solves)
    np.testing.assert_allclose(recs[0].efficacy_fwd, recs[0].test_accuracy / mean0, rtol=1e-12)
    for prev, cur in zip(recs, recs[1:]):
        mean_fwd = (cur.forward_nfe - prev.forward_nfe) / (train_solves + eval_solves)
        mean_bwd = (cur.backward_nfe - prev.backward_nfe) / train_solves
        np.testing.assert_allclose(cur.efficacy_fwd, cur.test_accuracy / mean_fwd, rtol=1e-12)
        np.testing.assert_allclose(cur.efficacy_bwd, cur.test_accuracy / mean_bwd, rtol=1e-12)


def test_training_is_seed_reproducible(small_training):
    cfg = train_config(epochs=1, seed=4)
    r1 = run_classification(model_spec("hbnode"), **cfg)
    r2 = run_classification(model_spec("hbnode"), **cfg)
    assert r1.records == r2.records


def test_each_solve_starts_where_the_last_solve_in_its_role_ended(monkeypatch, small_training):
    from momenta_node import adjoint

    solves = []  # (role, first step tried, h_next) in call order
    role = None

    def spy(rhs, y0, t0, t1, cfg, **kw):
        res = solve_dopri45(rhs, y0, t0, t1, cfg, **kw)
        solves.append((role if t1 > t0 else "backward", kw.get("h_init", H_INIT), res.h_next))
        return res

    def entering(name, method):
        def wrapped(self, *args):
            nonlocal role
            role = name
            return method(self, *args)
        return wrapped

    monkeypatch.setattr(classify, "solve_dopri45", spy)
    monkeypatch.setattr(adjoint, "solve_dopri45", spy)
    for method, name in (("loss_and_grad", "train"), ("predict", "eval")):
        monkeypatch.setattr(classify.ODEClassifier, method, entering(name, getattr(classify.ODEClassifier, method)))
    run = run_classification(model_spec("adamnode"), **train_config(epochs=1))
    assert not run.diverged

    last = {}
    other_role_differs = 0
    for r, h_init, h_next in solves:
        assert h_init == last.get(r, H_INIT)
        other_role_differs += any(h_init != v for k, v in last.items() if k != r)
        last[r] = h_next
    assert set(last) == {"train", "eval", "backward"}
    # The roles end on different steps, so a solve that read another
    # role's value would have failed the equality above.
    assert other_role_differs

