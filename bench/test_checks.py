"""Every output check of the benchmark fails on a corrupted copy of the
output it checks, so that none of them passes vacuously.

Each test makes a real output with the CLI at a small size, sees the
check pass on it, corrupts one thing in a copy and sees the check fail.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from run import check_rounds, nfe_accounting, same_tree  # noqa: E402
from workloads import Op  # noqa: E402

from momenta_node import cli  # noqa: E402

# Smallest horizon that keeps every trajectory sample one RK4 step apart.
SHORT_HORIZON = 1.25


def _cli(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    traj = root / "rosenbrock"
    _cli("trajectory", "--landscape", "rosenbrock", "--T", SHORT_HORIZON, "--out", traj)
    _cli("plot", "--in", traj / "trajectory.csv", "--kind", "trajectory", "--out", root / "replot" / "trajectory.svg")
    _cli("train", "--model", "adamnode", "--epochs", 3, "--seed", 0, "--out", root / "train")
    _cli("gradcheck", "--model", "hbnode", "--seed", 1, "--out", root / "gradcheck")
    _cli("stability", "--seed", 0, "--out", root / "stability")
    return root


@pytest.fixture
def copy(outputs, tmp_path):
    def make(name):
        dst = tmp_path / name
        shutil.copytree(outputs / name, dst)
        return dst

    return make


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _data_row(rows, flow, i):
    """Index in ``rows`` of sample ``i`` of ``flow``."""
    return [n for n, r in enumerate(rows) if len(r) == 4 and r[3] == flow][i]


# ------------------------------------------------------------- trajectories

def test_trajectory_check_passes_on_program_output(outputs):
    assert checks.check_trajectory(outputs / "rosenbrock", "rosenbrock", SHORT_HORIZON) == []


def test_trajectory_check_rejects_an_altered_csv_value(copy):
    out = copy("rosenbrock")
    rows = _rows(out / "trajectory.csv")
    n = _data_row(rows, "hbode", 5)
    rows[n][1] = repr(float(rows[n][1]) + 1e-6)
    _write_rows(out / "trajectory.csv", rows)
    errors = checks.check_trajectory(out, "rosenbrock", SHORT_HORIZON)
    assert any("hbode: sample 5" in e and "reference RK4" in e for e in errors)


def test_trajectory_check_rejects_an_ascent_of_gradient_flow(copy):
    out = copy("rosenbrock")
    rows = _rows(out / "trajectory.csv")
    late, early = _data_row(rows, "ode", 1500), _data_row(rows, "ode", 100)
    rows[late][1:3] = rows[early][1:3]
    _write_rows(out / "trajectory.csv", rows)
    errors = checks.check_trajectory(out, "rosenbrock", SHORT_HORIZON)
    assert any("objective rises" in e for e in errors)


def test_trajectory_check_rejects_a_wrong_reported_distance(copy):
    out = copy("rosenbrock")
    _edit_json(out / "summary.json",
               lambda d: d["flows"]["adamode"].update(final_distance_to_min=d["flows"]["adamode"]["final_distance_to_min"] * (1 + 1e-9)))
    errors = checks.check_trajectory(out, "rosenbrock", SHORT_HORIZON)
    assert any("adamode: summary distance" in e for e in errors)


def test_trajectory_check_rejects_a_non_finite_sample_of_a_successful_flow(copy):
    out = copy("rosenbrock")
    rows = _rows(out / "trajectory.csv")
    rows[_data_row(rows, "ode", 1000)][2] = "nan"
    _write_rows(out / "trajectory.csv", rows)
    errors = checks.check_trajectory(out, "rosenbrock", SHORT_HORIZON)
    assert any("ode: success but a sample is not finite" in e for e in errors)


def test_trajectory_check_rejects_non_strict_json(copy):
    out = copy("rosenbrock")
    text = (out / "summary.json").read_text()
    (out / "summary.json").write_text(text.replace('"status": "success"', '"status": "success", "x": Infinity', 1))
    errors = checks.check_trajectory(out, "rosenbrock", SHORT_HORIZON)
    assert any("summary.json: not strict JSON" in e for e in errors)


def test_reference_rk4_refuses_a_horizon_between_sample_grids():
    with pytest.raises(ValueError):
        checks.reference_flow("ode", "rosenbrock", 1.0, 2)


# ------------------------------------------------------------------- plots

def test_replot_check_passes_on_program_output(outputs):
    assert checks.check_replot(outputs / "replot", outputs / "rosenbrock" / "trajectory.svg") == []


def test_replot_check_rejects_a_changed_byte(copy):
    out = copy("replot")
    doc = (out / "trajectory.svg").read_bytes()
    (out / "trajectory.svg").write_bytes(doc[:-2] + bytes([doc[-2] ^ 1]) + doc[-1:])
    source = copy("rosenbrock") / "trajectory.svg"
    assert checks.check_replot(out, source) == [f"trajectory.svg differs from {source}"]


# ---------------------------------------------------------------- training

def _efficacy(out):
    rows = _rows(out / "efficacy.csv")
    header = next(n for n, r in enumerate(rows) if r and r[0] == "epoch")
    return rows, header


def test_train_check_passes_on_program_output(outputs):
    final = checks.read_efficacy(outputs / "train" / "efficacy.csv")["test_accuracy"][-1]
    assert checks.check_train(outputs / "train", 3, min_accuracy=final) == []


def test_train_check_rejects_a_wrong_epoch0_accuracy(copy):
    out = copy("train")
    rows, h = _efficacy(out)
    rows[h + 1][2] = repr(0.5 + 1 / 52)
    _write_rows(out / "efficacy.csv", rows)
    assert any("class balance" in e for e in checks.check_train(out, 3, min_accuracy=0.0))


def test_train_check_rejects_an_altered_efficacy(copy):
    out = copy("train")
    rows, h = _efficacy(out)
    rows[h + 2][5] = repr(float(rows[h + 2][5]) * (1 + 1e-9))
    _write_rows(out / "efficacy.csv", rows)
    errors = checks.check_train(out, 3, min_accuracy=0.0)
    assert any("epoch 1: efficacy_fwd" in e for e in errors)


def test_train_check_rejects_nfe_columns_that_stall(copy):
    out = copy("train")
    rows, h = _efficacy(out)
    rows[h + 3][4] = rows[h + 2][4]
    _write_rows(out / "efficacy.csv", rows)
    errors = checks.check_train(out, 3, min_accuracy=0.0)
    assert "cumulative NFE columns do not increase" in errors


def test_train_check_rejects_a_low_final_accuracy(copy):
    out = copy("train")
    rows, h = _efficacy(out)
    final = float(rows[-1][2])
    rows[-1][2] = repr(final - 1 / 52)
    _write_rows(out / "efficacy.csv", rows)
    errors = checks.check_train(out, 3, min_accuracy=final)
    assert any(e.startswith("final accuracy") for e in errors)


def test_total_nfe_adds_the_last_row(outputs):
    cols = checks.read_efficacy(outputs / "train" / "efficacy.csv")
    assert checks.total_nfe(outputs / "train") == cols["forward_nfe"][-1] + cols["backward_nfe"][-1] > 0


# --------------------------------------------------------------- gradcheck

def test_gradcheck_check_passes_on_program_output(outputs):
    assert checks.check_gradcheck(outputs / "gradcheck", "hbnode", 1) == []


@pytest.mark.parametrize("key", ["max_rel_err", "init_state_max_rel_err"])
def test_gradcheck_check_rejects_a_reported_error_over_tolerance(copy, key):
    out = copy("gradcheck")
    _edit_json(out / "gradcheck_report.json", lambda d: d.update({key: 2e-3}))
    errors = checks.check_gradcheck(out, "hbnode", 1)
    assert any(e.startswith(key) for e in errors)


def test_gradcheck_check_rejects_a_gradient_entry_off_by_1e_2(copy):
    out = copy("gradcheck")

    def shift(d):
        worst = d["per_param_worst"][0]
        worst["adjoint"] += 1e-2 * max(1.0, abs(worst["adjoint"]))

    _edit_json(out / "gradcheck_report.json", shift)
    errors = checks.check_gradcheck(out, "hbnode", 1)
    assert any("solve_ivp difference" in e for e in errors)


def test_ivp_difference_covers_the_damping_parameter(outputs):
    report = json.loads((outputs / "gradcheck" / "gradcheck_report.json").read_text())
    damping = report["n_params"] - 1
    fd = checks.ivp_central_difference("hbnode", 1, damping)
    other = checks.ivp_central_difference("hbnode", 1, 0)
    assert fd != 0.0 and fd != other


# --------------------------------------------------------------- stability

def _stability(out):
    return _rows(out / "stability.csv")


def test_stability_check_passes_on_program_output(outputs):
    assert checks.check_stability(outputs / "stability", 64.0) == []


def test_stability_check_rejects_swapped_curves(copy):
    out = copy("stability")
    swap = {"adamnode": "hbnode", "hbnode": "adamnode"}
    rows = [r[:2] + [swap.get(r[2], r[2])] if len(r) == 3 and not r[0].startswith("#") else r
            for r in _stability(out)]
    _write_rows(out / "stability.csv", rows)
    errors = checks.check_stability(out, 64.0)
    assert any("decades below" in e for e in errors)


def test_stability_check_rejects_a_different_start(copy):
    out = copy("stability")
    rows = _stability(out)
    n = next(i for i, r in enumerate(rows) if r[-1] == "sonode")
    rows[n][1] = repr(float(rows[n][1]) + 1e-12)
    _write_rows(out / "stability.csv", rows)
    assert any("different" in e for e in checks.check_stability(out, 64.0))


def test_stability_check_rejects_an_adamnode_curve_short_of_t1(copy):
    out = copy("stability")
    rows = _stability(out)
    last = max(i for i, r in enumerate(rows) if r[-1] == "adamnode")
    del rows[last]
    _write_rows(out / "stability.csv", rows)
    assert any("does not reach t1" in e for e in checks.check_stability(out, 64.0))


def test_stability_check_rejects_unfair_parameter_counts(copy):
    out = copy("stability")
    _edit_json(out / "summary.json", lambda d: d["param_counts"].update(node=int(d["param_counts"]["node"] * 1.2)))
    assert any("parameter counts" in e for e in checks.check_stability(out, 64.0))


def test_stability_check_rejects_a_failure_without_blowup(copy):
    out = copy("stability")
    _edit_json(out / "summary.json", lambda d: d["statuses"].update(hbnode="NON_FINITE_STATE"))
    assert any("blow-ups" in e for e in checks.check_stability(out, 64.0))


def test_stability_check_rejects_a_blowup_trailer_of_a_successful_model(copy):
    out = copy("stability")
    with open(out / "stability.csv", "a") as fh:
        fh.write("# blowup_at,12.5,node\n")
    assert any("blow-ups" in e for e in checks.check_stability(out, 64.0))


# ------------------------------------------------------ rounds and NFE

def test_later_rounds_must_repeat_the_first_byte_for_byte(outputs, tmp_path):
    op = Op(("plot",), "replot", "replot", {"source": "rosenbrock/trajectory.svg"})
    for r in range(2):
        for name in ("replot", "rosenbrock"):
            shutil.copytree(outputs / name, tmp_path / f"round-{r}" / name)
    rounds = [{"codes": [0]}, {"codes": [0]}]
    assert check_rounds([op], rounds, tmp_path) == []
    assert same_tree(tmp_path / "round-0", tmp_path / "round-1")

    (tmp_path / "round-1" / "replot" / "config.resolved.json").write_text("{}\n")
    assert check_rounds([op], rounds, tmp_path) == [(1, "plot", ["output differs from round 0"])]
    assert check_rounds([op], [{"codes": [0]}, {"codes": [3]}], tmp_path)[0][2][0] == "exit code 3"


def test_nfe_accounting_rejects_any_mismatch():
    assert nfe_accounting(0, 100, 100, 100, 100) == []
    assert nfe_accounting(0, 100, 100, 100) == []
    assert nfe_accounting(0, 101, 100, 100)
    assert nfe_accounting(0, 100, 100, 99)
    assert nfe_accounting(0, 100, 100, 100, 98)
