import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from momenta_node import adjoint, cli, solver
from momenta_node.benchmarks import trajectories
from momenta_node.csv_formats import (
    EFFICACY_HEADER,
    STABILITY_HEADER,
    TRAJECTORY_HEADER,
    read_efficacy_csv,
    read_stability_csv,
    read_trajectory_csv,
)


def run_cli(*argv):
    return cli.main(list(argv))


def read_header(path):
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                return line.strip().split(",")
    return []


# ------------------------------------------------------------------ trajectory

def test_trajectory_default_invocation(tmp_path):
    out = tmp_path / "tr"
    assert run_cli("trajectory", "--T", "1.0", "--out", str(out)) == 0
    assert (out / "config.resolved.json").exists()
    assert (out / "summary.json").exists()
    assert read_header(out / "trajectory.csv") == TRAJECTORY_HEADER
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["command"] == "trajectory"
    assert resolved["T"] == 1.0
    svg_text = (out / "trajectory.svg").read_text()
    assert svg_text.startswith("<svg ")
    assert svg_text.count("<polyline") >= 3
    assert "<polygon" in svg_text  # the minimizer star


def test_trajectory_from_minimizer_has_zero_distances(tmp_path):
    out = tmp_path / "tr0"
    assert run_cli("trajectory", "--x0", "1,1", "--T", "1.0", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    for flow in summary["flows"].values():
        assert flow["final_distance_to_min"] == 0.0


def test_trajectory_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("trajectory", "--T", "1.0", "--out", str(out)) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "trajectory.svg").read_bytes() == (b / "trajectory.svg").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def strict_json(path):
    """Parse ``path`` as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


# sha256 of the outputs of `trajectory --landscape L --T 5`, as the
# array-valued RK4 and flow right-hand sides wrote them; the float path
# must reproduce every byte.
PINNED_T5 = {
    "rosenbrock": {
        "trajectory.csv": "0b963e67d0483f7e17f36d420269fa243a59f439a0e37f9381ab66eea9e068cc",
        "summary.json": "f34183720315c43952da92d2b57091221000d3a9fc9262fa4f181973f9575ed0",
        "trajectory.svg": "1bba488422e11f94791c75bd64dda7b1d8927c3d0835a45a78d383cd345b4481",
    },
    "beale": {
        "trajectory.csv": "3035651d64f6b7a407a61fa827b84aace06ca452a6bf01300695c94e4a28fe3c",
        "summary.json": "c64edab449a7740ea0c14faed143cd508f4c6d65c598d930d173672c1da358d1",
        "trajectory.svg": "35b1828d69495829ab3cc42303ac7e6dc6c3004a51fdae5ee1540976e72edf72",
    },
}


@pytest.mark.parametrize("landscape", sorted(PINNED_T5))
def test_trajectory_outputs_match_pinned_hashes(tmp_path, landscape):
    out = tmp_path / landscape
    assert run_cli("trajectory", "--landscape", landscape, "--T", "5", "--out", str(out)) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_T5[landscape]}
    assert got == PINNED_T5[landscape]


# sha256 of outputs of the batched right-hand sides and the adjoint, as
# the array-per-block right-hand sides wrote them (the reference ones in
# tests/reference.py): `train --epochs 5 --seed 0`'s efficacy.csv and
# `gradcheck --seed 0`'s report for every model, and `stability --t1 64
# --seed 0`'s curves.  Cheaper right-hand sides must reproduce every byte.
# The efficacy hashes are those of training with warm-started solves
# (each starts with the last step its role's previous solve proposed), the
# gradcheck hashes those of one batched forward solve, whose row 0 is the
# unperturbed base and whose further rows are the paired differences, the
# damping's included, and of an adjoint that reads the base row's record
# (on the batch's step sequence), and the stability hash that of a Duffing probe solved only
# to its last sample read, the 4th, which a step now lands on.
PINNED_EFFICACY_5 = {
    "node": "53c96dcb0e8524c46764c83effa563635de1dcc7d405e16d50a4d77c398f21d2",
    "anode": "6df1466bf62b867fc7b4f8c87ae87c61df28bceafc4d92719950a766a3c8e3a8",
    "sonode": "7084a1855d4e770679b86b067d4b88f8a0218bc1bb478a9d1db885b09363649e",
    "hbnode": "40b66f072e1b43809b6781770b199982629011ba4b72cbe6fa5807473e419b67",
    "ghbnode": "40b66f072e1b43809b6781770b199982629011ba4b72cbe6fa5807473e419b67",
    "adamnode": "78551c15c78cd33da545af0374d635b2ca5035dad6dbe8d652cc6f84ba8b7ab5",
}
PINNED_GRADCHECK_0 = {
    "node": "5efeebc73242253bae84678a3191816b91605c96344b58426cbd3b39e61f934c",
    "anode": "5083aa793778833babf9b10b4351585ee40f6d02b1c464ecfad1f672396241cb",
    "sonode": "b92602b77902b106984fd2126651f52d290220bfb26c7a02d6c9bf4d62b0516b",
    "hbnode": "7fafac33e8e60e8a26778e4b4963401957a1d5f858f38a4c6dc173334c246ad5",
    "ghbnode": "2efb7236f9cdf0e1985ac3a1476a7039f1fed54f440cd571a2509b2f5ef2f5b0",
    "adamnode": "c1a8c88532066530315e93277393ce481a2af5b1526aae24db91c9c303fac36f",
}
PINNED_STABILITY_T64 = "87dc69e8cf052bf376b27237dd9603285e04c51d8b92ff9a8a59afba666cb6fc"
# sha256 of the figures the same runs draw: `train --epochs 5 --seed 0`'s
# efficacy.svg and loss.svg for every model, and `stability --t1 64 --seed
# 0`'s stability.svg, as the four renderers wrote them before they shared
# one chart routine.  Like every pin here they hold on the CPU kernels they
# were made on (ROADMAP item 10): numpy 2.4's AVX-512 loops and OpenBLAS's
# SkylakeX kernel.
PINNED_TRAIN_SVG_5 = {
    "node": ("f1175ccfa360b321138436dcab41c8d1a23a2248ebebb894e2e938a5e8346df2",
             "bc068b2691738f3938a4b1f457eaf351d28e9ef71483b9092e566ae6d6f6ce66"),
    "anode": ("3130bdd1b29919550ee2cd86a67bf10da471552a6787e7e6a378afdfe9298435",
              "1a75c3af8a41cfe8c2d682654ec53f806d889c1d09113e4710653009edb1f9a8"),
    "sonode": ("25629b08a85d96b4d9192c7354374ec36c6f5d876c29e86ab67c3850d024784a",
               "da5007d0397e6dc826663a9350c5abd6ff482e12b8224b7e71b8d772e7d06a0b"),
    "hbnode": ("2a60072c6c800d92b5bfbcd06a4fbd3ff2e5fc03df509b9baeb5cbc55ed77ef1",
               "7afa2e75a1b346397549bb49f95eedf309873a9b685cab0474580e283cd5652c"),
    "ghbnode": ("2a60072c6c800d92b5bfbcd06a4fbd3ff2e5fc03df509b9baeb5cbc55ed77ef1",
                "7afa2e75a1b346397549bb49f95eedf309873a9b685cab0474580e283cd5652c"),
    "adamnode": ("390e627c935ae02dbc0f8e0f7dff5a118d720276197ac14eaf4cc7a345beb102",
                 "180c28c837f5484a0a215f076826d670cd0a2abc097829afd88521922bcab57e"),
}
PINNED_STABILITY_SVG_T64 = "173c8855ffb5a58d70d2ca87e566ffa736f864f93d5953400944a049c13ee281"


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(PINNED_EFFICACY_5))
def test_train_and_gradcheck_outputs_match_pinned_hashes(tmp_path, model, capsys):
    assert run_cli("train", "--epochs", "5", "--seed", "0", "--model", model, "--out", str(tmp_path / "t")) == 0
    assert run_cli("gradcheck", "--seed", "0", "--model", model, "--out", str(tmp_path / "g")) == 0
    capsys.readouterr()
    assert sha256_of(tmp_path / "t" / "efficacy.csv") == PINNED_EFFICACY_5[model]
    assert (sha256_of(tmp_path / "t" / "efficacy.svg"), sha256_of(tmp_path / "t" / "loss.svg")) == \
        PINNED_TRAIN_SVG_5[model]
    assert sha256_of(tmp_path / "g" / "gradcheck_report.json") == PINNED_GRADCHECK_0[model]


def test_stability_output_matches_pinned_hash(tmp_path, capsys):
    assert run_cli("stability", "--t1", "64", "--seed", "0", "--out", str(tmp_path)) == 0
    capsys.readouterr()
    assert sha256_of(tmp_path / "stability.csv") == PINNED_STABILITY_T64
    assert sha256_of(tmp_path / "stability.svg") == PINNED_STABILITY_SVG_T64


def test_trajectory_summary_is_strict_json_when_a_flow_diverges(tmp_path):
    # From Beale's standard start, plain gradient flow overflows within its
    # first RK4 steps at the default step, so any horizon shows it.
    out = tmp_path / "beale"
    assert run_cli("trajectory", "--landscape", "beale", "--T", "1.0", "--out", str(out)) == 0
    flows = strict_json(out / "summary.json")["flows"]
    assert flows["ode"]["status"] != "success"
    assert flows["ode"]["final_distance_to_min"] is None
    for name, flow in flows.items():
        if flow["status"] == "success":
            assert math.isfinite(flow["final_distance_to_min"]), name
    strict_json(out / "config.resolved.json")


def test_trajectory_bad_inputs_exit_2(tmp_path, capsys):
    assert run_cli("trajectory", "--landscape", "himmelblau", "--out", str(tmp_path / "x")) == 2
    assert run_cli("trajectory", "--method", "euler", "--out", str(tmp_path / "m")) == 2
    assert run_cli("trajectory", "--x0", "oops", "--out", str(tmp_path / "y")) == 2
    assert run_cli("trajectory", "--x0", "99,99", "--out", str(tmp_path / "z")) == 2
    capsys.readouterr()


def test_trajectory_all_flows_failing_exits_3(tmp_path, capsys):
    out = tmp_path / "boom"
    # A step far beyond the stability limit overflows every flow.
    code = run_cli(
        "trajectory", "--method", "rk4", "--step", "10", "--T", "50", "--out", str(out)
    )
    assert code == 3
    # The resolved config and the partial outputs are still written.
    assert (out / "config.resolved.json").exists()
    assert (out / "trajectory.csv").exists()
    capsys.readouterr()


def test_config_file_merging(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"T": 5.0, "landscape": "beale"}))
    out = tmp_path / "merged"
    assert run_cli("trajectory", "--config", str(cfg_path), "--T", "1.0", "--out", str(out)) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["T"] == 1.0  # flag beats file
    assert resolved["landscape"] == "beale"  # file beats default


def test_config_file_unknown_key_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"horizon": 5.0}))
    assert run_cli("trajectory", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
    assert "horizon" in capsys.readouterr().err


# ------------------------------------------------------------------- stability

def test_stability_synthetic_probe(tmp_path):
    out = tmp_path / "st"
    code = run_cli(
        "stability", "--t1", "4", "--models", "node,adamnode", "--out", str(out)
    )
    assert code == 0
    assert read_header(out / "stability.csv") == STABILITY_HEADER
    series, blowups = read_stability_csv(out / "stability.csv")
    assert set(series) == {"node", "adamnode"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["statuses"]["adamnode"] == "SUCCESS"


def test_stability_csv_probe_and_bad_probe(tmp_path, capsys):
    out1 = tmp_path / "gen"
    assert run_cli("stability", "--t1", "2", "--models", "node", "--out", str(out1)) == 0

    series_path = tmp_path / "series.csv"
    with open(series_path, "w") as fh:
        fh.write("t,input,output\n")
        for i in range(16):
            fh.write(f"{i * 0.1!r},{0.0!r},{float(np.sin(i * 0.1))!r}\n")
    out2 = tmp_path / "ingested"
    code = run_cli(
        "stability", "--t1", "2", "--probe", f"csv:{series_path}",
        "--models", "node", "--out", str(out2),
    )
    assert code == 0

    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header,names\n0,0,0\n")
    assert run_cli(
        "stability", "--probe", f"csv:{bad}", "--models", "node", "--out", str(tmp_path / "e")
    ) == 2
    assert "line 1" in capsys.readouterr().err


def test_stability_csv_probe_takes_its_outputs_as_read_whatever_the_times(tmp_path, capsys):
    # The same outputs on a uniform and a non-uniform grid: the first d
    # outputs seed h0 in both, so every output file is the same.
    outputs = [float(np.sin(0.3 * i)) for i in range(12)]
    grids = {"uniform": [0.1 * i for i in range(12)], "non-uniform": [(0.1 * i) ** 1.5 for i in range(12)]}
    for name, times in grids.items():
        with open(tmp_path / f"{name}.csv", "w") as fh:
            fh.write("t,input,output\n")
            for t, y in zip(times, outputs):
                fh.write(f"{t!r},{0.0!r},{y!r}\n")
        assert run_cli("stability", "--t1", "2", "--d", "6", "--probe", f"csv:{tmp_path / name}.csv",
                       "--models", "node,adamnode", "--out", str(tmp_path / name)) == 0
    capsys.readouterr()
    for output in ("stability.csv", "summary.json"):
        assert (tmp_path / "uniform" / output).read_bytes() == (tmp_path / "non-uniform" / output).read_bytes()


def test_stability_d_runs_from_one_probe_sample_to_the_whole_series(tmp_path, capsys):
    # The synthetic probe series has 256 samples, and d of them seed h0.
    for d in ("1", "256"):
        assert run_cli("stability", "--t1", "1", "--d", d, "--out", str(tmp_path / d)) == 0
        assert json.loads((tmp_path / d / "summary.json").read_text())["d"] == int(d)
    out = tmp_path / "257"
    assert run_cli("stability", "--t1", "1", "--d", "257", "--out", str(out)) == 2
    assert "need at least d=257" in capsys.readouterr().err
    assert not out.exists()


def test_stability_unknown_model_lists_valid_names(tmp_path, capsys):
    code = run_cli("stability", "--models", "resnet", "--out", str(tmp_path / "m"))
    assert code == 2
    err = capsys.readouterr().err
    assert "resnet" in err and "adamnode" in err


# ----------------------------------------------------------------------- train

def test_train_zero_epochs_emits_chance_record(tmp_path):
    out = tmp_path / "t0"
    assert run_cli("train", "--epochs", "0", "--out", str(out)) == 0
    cols = read_efficacy_csv(out / "efficacy.csv")
    assert list(cols["epoch"]) == [0]
    assert cols["test_accuracy"][0] == 0.5
    assert cols["efficacy_bwd"][0] == 0.0
    assert read_header(out / "efficacy.csv") == EFFICACY_HEADER


def test_train_rerun_byte_identical(tmp_path):
    # Each role's warm-started first step is carried from solve to solve
    # and epoch to epoch, and rebuilt from H_INIT by every run.
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "train", "--epochs", "3", "--model", "node", "--seed", "0", "--out", str(out)
        ) == 0
    for name in ("efficacy.csv", "efficacy.svg", "loss.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("batch", [1, 203])
def test_train_with_batches_of_one_row(tmp_path, batch, capsys):
    # The 204 training rows leave a last batch of one row at --batch 203;
    # --batch 1 makes every batch a single row.  Each stays a (1, width)
    # batch through the forward solve, the readout and the softmax.
    out = tmp_path / "b"
    assert run_cli("train", "--batch", str(batch), "--epochs", "1", "--out", str(out)) == 0
    capsys.readouterr()
    cols = read_efficacy_csv(out / "efficacy.csv")
    assert list(cols["epoch"]) == [0, 1]
    assert all(math.isfinite(x) for x in cols["train_loss"])
    assert all(0.0 <= a <= 1.0 for a in cols["test_accuracy"])


def test_train_invalid_model_exit_2(tmp_path, capsys):
    assert run_cli("train", "--model", "transformer", "--out", str(tmp_path / "x")) == 2
    # argparse reports the valid choices on stderr
    assert "adamnode" in capsys.readouterr().err
    assert run_cli("train", "--dataset", "cifar", "--out", str(tmp_path / "y")) == 2
    assert "spirals" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_train_divergence_exits_4_with_partial_records(tmp_path, capsys):
    out = tmp_path / "div"
    code = run_cli(
        "train", "--epochs", "3", "--lr", "1e6", "--model", "node", "--out", str(out)
    )
    assert code == 4
    cols = read_efficacy_csv(out / "efficacy.csv")  # partial records survive
    assert cols["epoch"][0] == 0
    assert "diverged" in capsys.readouterr().err


# ------------------------------------------------------------------- gradcheck

def test_gradcheck_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "gc"
    code = run_cli("gradcheck", "--model", "hbnode", "--out", str(out))
    assert code == 0
    report = json.loads((out / "gradcheck_report.json").read_text())
    for key in ("formulation", "max_rel_err", "init_state_max_rel_err", "n_params", "per_param_worst"):
        assert key in report
    assert report["max_rel_err"] < 1e-3
    printed = json.loads(capsys.readouterr().out)
    assert printed == report


@pytest.mark.parametrize("model", ["adamnode", "hbnode"])
def test_gradcheck_passes_over_a_long_horizon(tmp_path, model, capsys):
    # At t1 = 400 the forward state cannot be re-integrated in reverse (it
    # drifts by about 3e5 on a state of norm 0.9); the adjoint reads the
    # forward record instead.
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--model", model, "--t1", "400", "--seed", "1", "--out", str(out)) == 0
    capsys.readouterr()
    report = strict_json(out / "gradcheck_report.json")
    assert report["max_rel_err"] < 1e-3
    assert report["init_state_max_rel_err"] < 1e-3


def test_gradcheck_unattainable_tolerance_exits_1(tmp_path, capsys):
    code = run_cli("gradcheck", "--model", "node", "--tol", "0", "--out", str(tmp_path / "gc"))
    assert code == 1
    capsys.readouterr()


def test_gradcheck_wrong_initial_state_cotangent_exits_1(tmp_path, monkeypatch, capsys):
    exact = adjoint.backward

    def negated(*args, **kwargs):
        run = exact(*args, **kwargs)
        return replace(run, grad_initial_state=-run.grad_initial_state)

    monkeypatch.setattr(adjoint, "backward", negated)
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--model", "node", "--out", str(out)) == 1
    report = json.loads((out / "gradcheck_report.json").read_text())
    assert report["max_rel_err"] < 1e-3
    assert report["init_state_max_rel_err"] == pytest.approx(2.0)
    assert "init_state_max_rel_err" in capsys.readouterr().err


# --------------------------------------------------- numeric parameter checks

# Each numeric key of a command and the values it must refuse with exit 2
# before computing anything.  Three zeros are valid and stay out: seed 0 is
# the default, train's epochs 0 records the untrained model, and
# gradcheck's tol 0 is a gate no gradient passes (exit 1).  The integer
# keys also refuse a fraction and a boolean.
NUMERIC_KEYS = {
    "trajectory": ("T", "step", "rtol", "atol"),
    "stability": ("t1", "d", "seed", "rtol", "atol"),
    "gradcheck": ("seed", "tol", "d", "t1", "delta", "solver_tol"),
    "train": ("epochs", "lr", "batch", "seed", "rtol", "atol"),
}
INTEGER_KEYS = {"d", "seed", "epochs", "batch"}
BAD_VALUES = {"wrong_type": "x", "null": None, "zero": 0, "negative": -1, "nan": math.nan, "inf": math.inf,
              "fraction": 1.5, "bool": True}
VALID = {("seed", "zero"), ("epochs", "zero"), ("tol", "zero")}
BAD_CASES = [
    (cmd, key, kind)
    for cmd, keys in NUMERIC_KEYS.items()
    for key in keys
    for kind in BAD_VALUES
    if (key, kind) not in VALID and (key in INTEGER_KEYS or kind not in ("fraction", "bool"))
]


@pytest.mark.parametrize("cmd,key,kind", BAD_CASES, ids=["-".join(c) for c in BAD_CASES])
def test_bad_numeric_parameter_in_config_exits_2(tmp_path, capsys, cmd, key, kind):
    cfg_path = tmp_path / "cfg.json"
    # json writes NaN and Infinity, which the config loader accepts.
    cfg_path.write_text(json.dumps({key: BAD_VALUES[kind]}))
    out = tmp_path / "out"
    assert run_cli(cmd, "--config", str(cfg_path), "--out", str(out)) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("stability", "--t1", "-1"),
    ("stability", "--d", "0"),
    ("stability", "--seed", "-1"),
    ("stability", "--rtol", "nan"),
    ("stability", "--d", "300"),  # the probe series has 256 samples
    ("gradcheck", "--d", "0"),
    ("gradcheck", "--d", "33"),  # above the ceiling the step record's memory sets
    ("train", "--epochs", "1001"),  # above the ceiling an epoch's wall time sets
    ("train", "--batch", "205"),  # above the 204 training rows
    ("gradcheck", "--seed", "-1"),
    ("gradcheck", "--delta", "inf"),
    ("train", "--seed", "-1"),
    ("train", "--rtol", "0"),
    ("train", "--atol", "0"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("trajectory", "--step", "-1"),
    ("trajectory", "--step", "0"),
    ("trajectory", "--step", "inf"),
    ("trajectory", "--T", "inf"),
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_bad_numeric_flag_exits_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    assert "error:" in capsys.readouterr().err


def test_non_numeric_stability_models_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"models": 5}))
    out = tmp_path / "out"
    assert run_cli("stability", "--config", str(cfg_path), "--out", str(out)) == 2
    assert "--models" in capsys.readouterr().err
    assert not out.exists()


# Name and path keys given a value that is not a string, by config file.
NON_STRINGS = [
    ("trajectory", "landscape", []),
    ("trajectory", "method", 5),
    ("trajectory", "x0", 5),
    ("trajectory", "out", 5),
    ("stability", "probe", 5),
    ("stability", "out", 5),
    ("train", "model", []),
    ("train", "dataset", []),
    ("train", "out", 5),
    ("gradcheck", "model", []),
    ("gradcheck", "out", 5),
    ("plot", "in", []),  # an integer here would be read as a file descriptor
    ("plot", "kind", []),
    ("plot", "out", 5),
]


@pytest.mark.parametrize("cmd,key,value", NON_STRINGS, ids=[f"{c}-{k}" for c, k, _ in NON_STRINGS])
def test_non_string_parameter_in_config_exits_2(tmp_path, monkeypatch, capsys, cmd, key, value):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({key: value}))
    flags = {"in": "missing.csv", "kind": "trajectory", "out": "plot/out.svg"} if cmd == "plot" else {"out": "out"}
    argv = [cmd, "--config", "cfg.json"]
    for flag, flag_value in flags.items():
        if flag != key:
            argv += [f"--{flag}", flag_value]
    assert run_cli(*argv) == 2
    assert key in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


# Inputs that only the runner or the CSV reader refuses: the refusal must
# still come before the first output file, config.resolved.json included.
RUNNER_REFUSALS = {
    "trajectory-x0-outside-domain": ["trajectory", "--x0", "50,50", "--out", "out"],
    "trajectory-step-over-cap": ["trajectory", "--step", "1e-7", "--out", "out"],
    "stability-d-wider-than-probe": ["stability", "--d", "300", "--out", "out"],
    "stability-unknown-model": ["stability", "--models", "nope", "--out", "out"],
    "stability-empty-model-list": ["stability", "--models", ",", "--out", "out"],
    "stability-unknown-probe": ["stability", "--probe", "bogus", "--out", "out"],
    "stability-missing-series": ["stability", "--probe", "csv:missing.csv", "--out", "out"],
    "stability-repeated-times": ["stability", "--probe", "csv:series.csv", "--out", "out"],
    "stability-csv-shorter-than-d": ["stability", "--probe", "csv:short.csv", "--d", "6", "--out", "out"],
    "plot-missing-input": ["plot", "--in", "missing.csv", "--kind", "trajectory", "--out", "plot/out.svg"],
}


@pytest.mark.parametrize("argv", RUNNER_REFUSALS.values(), ids=RUNNER_REFUSALS.keys())
def test_runner_refusal_exits_2_before_any_output(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("series.csv").write_text("t,input,output\n0.0,1.0,2.0\n0.0,1.0,2.0\n")
    Path("short.csv").write_text("t,input,output\n" + "".join(f"{i}.0,0.0,{i}.5\n" for i in range(5)))
    assert run_cli(*argv) == 2
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == ["series.csv", "short.csv"]


# Input files that are not UTF-8 text (their first bytes are a UTF-16 byte
# order mark), and the line each refusal names.
UNDECODABLE_INPUTS = {
    "trajectory-config": (["trajectory", "--config", "bad.json", "--out", "out"], "not UTF-8"),
    "stability-probe-series": (["stability", "--probe", "csv:bad.csv", "--out", "out"], "(line 1)"),
    "plot-trajectory": (["plot", "--in", "badtr.csv", "--kind", "trajectory", "--out", "plot/out.svg"], "(line 3)"),
    "plot-efficacy": (["plot", "--in", "bad.csv", "--kind", "efficacy", "--out", "plot/out.svg"], "(line 1)"),
}


@pytest.mark.parametrize("argv,where", UNDECODABLE_INPUTS.values(), ids=UNDECODABLE_INPUTS.keys())
def test_undecodable_input_exits_2_before_any_output(tmp_path, monkeypatch, capsys, argv, where):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_bytes(b"\xff\xfe{}")
    Path("bad.csv").write_bytes(b"\xff\xfet,input,output\n0.0,1.0,2.0\n")
    Path("badtr.csv").write_bytes(b"# minimizer,1.0,1.0\nt,x,y,dynamics\n\xff\xfe0.0,0.0,0.0,ode\n")
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert sorted(os.listdir(tmp_path)) == ["bad.csv", "bad.json", "badtr.csv"]


# An output path that cannot be written: under a regular file, the regular
# file itself, or (for plot's one SVG) an existing directory or a `..`.
UNUSABLE_OUTPUTS = {
    "trajectory": ["trajectory", "--T", "1", "--out", "afile/sub"],
    "stability": ["stability", "--t1", "2", "--models", "node", "--out", "afile/sub"],
    "train": ["train", "--epochs", "0", "--out", "afile/x"],
    "gradcheck": ["gradcheck", "--out", "afile"],
    "plot": ["plot", "--in", "tr.csv", "--kind", "trajectory", "--out", "adir"],
    "plot-parent-of-a-new-dir": ["plot", "--in", "tr.csv", "--kind", "trajectory", "--out", "new/.."],
}


@pytest.mark.parametrize("argv", UNUSABLE_OUTPUTS.values(), ids=UNUSABLE_OUTPUTS.keys())
def test_unusable_output_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    Path("adir").mkdir()
    Path("tr.csv").write_text("# minimizer,1.0,1.0\nt,x,y,dynamics\n0.0,0.0,0.0,ode\n")
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["adir", "afile", "tr.csv"]
    assert os.listdir("adir") == [] and Path("afile").read_text() == ""


def test_trajectory_refuses_more_rk4_steps_than_the_cap(tmp_path, monkeypatch, capsys):
    # 2e9 steps pass every other check; the cap must refuse them before
    # the solver builds its grid of one node per step (16 GB here).
    def solver_reached(*args, **kwargs):
        raise AssertionError("the solver was reached")

    monkeypatch.setattr(trajectories, "solve_rk4", solver_reached)
    argv = ("trajectory", "--T", "200", "--step", "1e-7", "--out", str(tmp_path / "out"))
    assert run_cli(*argv) == 2
    assert "RK4 steps" in capsys.readouterr().err


def test_gradcheck_failed_forward_solve_exits_3(tmp_path, capsys):
    # A tolerance this tight drives the step below its floor at once.
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--solver-tol", "1e-300", "--out", str(out)) == 3
    assert "step_underflow" in capsys.readouterr().err
    assert not (out / "gradcheck_report.json").exists()


def test_gradcheck_out_of_step_budget_exits_3(tmp_path, monkeypatch, capsys):
    # gradcheck's step record grows with --t1, so its solves keep the
    # solver's default attempt budget; a small one here stands in for it.
    monkeypatch.setattr(adjoint, "IntegratorConfig", partial(solver.IntegratorConfig, max_steps=200))
    out = tmp_path / "gc"
    assert run_cli("gradcheck", "--model", "node", "--t1", "1e4", "--out", str(out)) == 3
    assert "step_budget_exhausted" in capsys.readouterr().err
    assert not (out / "gradcheck_report.json").exists()


# ------------------------------------------------------------------------ plot

def test_plot_round_trip_matches_original_bytes(tmp_path):
    out = tmp_path / "tr"
    assert run_cli("trajectory", "--T", "1.0", "--out", str(out)) == 0
    replot = tmp_path / "replot.svg"
    assert run_cli(
        "plot", "--in", str(out / "trajectory.csv"), "--kind", "trajectory", "--out", str(replot)
    ) == 0
    assert replot.read_bytes() == (out / "trajectory.svg").read_bytes()


def test_plot_into_another_commands_directory_keeps_its_echo(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("trajectory", "--T", "1", "--out", "tr") == 0
    echo = Path("tr/config.resolved.json").read_bytes()
    assert run_cli("plot", "--in", "tr/trajectory.csv", "--kind", "trajectory", "--out", "tr/replot.svg") == 0
    capsys.readouterr()
    assert Path("tr/config.resolved.json").read_bytes() == echo
    assert json.loads(echo)["command"] == "trajectory"
    plot_echo = json.loads(Path("tr/replot.plot.json").read_text())
    assert plot_echo["command"] == "plot" and plot_echo["out"] == "tr/replot.svg"
    assert Path("tr/replot.svg").read_bytes() == Path("tr/trajectory.svg").read_bytes()


def test_plot_same_csv_twice_identical(tmp_path):
    out = tmp_path / "tr"
    assert run_cli("trajectory", "--T", "1.0", "--out", str(out)) == 0
    s1, s2 = tmp_path / "one.svg", tmp_path / "two.svg"
    for s in (s1, s2):
        assert run_cli(
            "plot", "--in", str(out / "trajectory.csv"), "--kind", "trajectory", "--out", str(s)
        ) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_plot_kind_mismatch_and_empty_body_exit_2(tmp_path, capsys):
    out = tmp_path / "tr"
    assert run_cli("trajectory", "--T", "1.0", "--out", str(out)) == 0
    code = run_cli(
        "plot", "--in", str(out / "trajectory.csv"), "--kind", "stability",
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("# minimizer,1.0,1.0\nt,x,y,dynamics\n")
    code = run_cli(
        "plot", "--in", str(empty), "--kind", "trajectory", "--out", str(tmp_path / "y.svg")
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind,text", [
    ("trajectory", "# minimizer,a,1.0\nt,x,y,dynamics\n0.0,1.0,2.0,ode\n"),
    ("trajectory", "# minimizer,1.0\nt,x,y,dynamics\n0.0,1.0,2.0,ode\n"),
    ("stability", "t,log10_norm,model\n0.0,1.0,node\n# blowup_at,soon,node\n"),
    ("stability", "t,log10_norm,model\n0.0,1.0,node\n# blowup_at,1.0\n"),
    ("trajectory", "# minimizer,nan,1.0\nt,x,y,dynamics\n0.0,1.0,2.0,ode\n"),
    ("stability", "t,log10_norm,model\n0.0,1.0,node\n# blowup_at,inf,node\n"),
], ids=["minimizer-value", "minimizer-count", "blowup-value", "blowup-count", "minimizer-nan", "blowup-inf"])
def test_plot_malformed_comment_exits_2(tmp_path, capsys, kind, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert run_cli("plot", "--in", str(path), "--kind", kind, "--out", str(tmp_path / "x.svg")) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.fixture(scope="module")
def program_csvs(tmp_path_factory):
    """One CSV of each ``plot`` kind as the program writes it: ``{kind: path}``."""
    root = tmp_path_factory.mktemp("program_csvs")
    runs = {
        "trajectory": ("trajectory", "--T", "1"),
        "stability": ("stability", "--t1", "2", "--models", "adamnode"),
        "efficacy": ("train", "--epochs", "2"),
    }
    with contextlib.redirect_stdout(io.StringIO()):
        for kind, argv in runs.items():
            assert run_cli(*argv, "--out", str(root / kind)) == 0
    names = {"trajectory": "trajectory.csv", "stability": "stability.csv", "efficacy": "efficacy.csv"}
    return {kind: root / kind / name for kind, name in names.items()}


def _edited(path, edits) -> str:
    """``path``'s text with cell ``(row, column)`` of its table, rows
    counted from the first data row, set to each value in ``edits``."""
    lines = path.read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")][1:]
    for (row, col), value in edits.items():
        i = data[row if row >= 0 else len(data) + row]
        cells = lines[i].rstrip("\n").split(",")
        cells[col] = value
        lines[i] = ",".join(cells) + "\n"
    return "".join(lines)


# Per kind: the axis column, one value column, and the columns that count.
PLOT_COLUMNS = {
    "trajectory": (0, 1, ()),
    "stability": (0, 1, ()),
    "efficacy": (0, EFFICACY_HEADER.index("efficacy_fwd"),
                 (EFFICACY_HEADER.index("forward_nfe"), EFFICACY_HEADER.index("backward_nfe"))),
}


def _plot_edits():
    """``(kind, edits, exit code)`` cases."""
    cases = []
    for kind, (axis, value, counts) in PLOT_COLUMNS.items():
        for col in (axis, value, *counts):
            for row in (0, 1):
                for token in ("nan", "inf", "-inf") + (("1.5",) if col in counts else ()):
                    # A value column takes any float, and the drawing leaves
                    # the non-finite ones out; an axis or a count refuses them.
                    cases.append((kind, {(row, col): token}, 0 if col == value else 2))
        for col in (axis, value):
            for top in ("1e308", repr(sys.float_info.max)):
                # Any finite value is drawn, but an epoch must fit an int64.
                refused = kind == "efficacy" and col == axis
                cases.append((kind, {(0, col): "-1e308", (-1, col): top}, 2 if refused else 0))
    # A time span from 0 to the smallest float: a quarter of it rounds to 0.
    cases.append(("stability", {(-1, 0): "5e-324"}, 0))
    return cases


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_plot_of_a_non_finite_or_huge_cell_exits_0_with_finite_svg_or_2(tmp_path, capsys, program_csvs):
    # Redrawn, or refused with nothing written: never a traceback, a
    # warning, or nan or inf where the SVG wants a number.
    broken = []
    for i, (kind, edits, expected) in enumerate(_plot_edits()):
        src = tmp_path / f"{i}.csv"
        src.write_text(_edited(program_csvs[kind], edits))
        out = tmp_path / f"plot{i}" / "x.svg"
        try:
            code = run_cli("plot", "--in", str(src), "--kind", kind, "--out", str(out))
        except Exception as exc:  # an exit 1, with a traceback
            broken.append((kind, edits, repr(exc)))
            continue
        capsys.readouterr()
        if code != expected:
            broken.append((kind, edits, f"exit {code}"))
        elif code == 2 and out.parent.exists():
            broken.append((kind, edits, "refused, but wrote files"))
        elif code == 0:
            doc = out.read_text()
            ET.fromstring(doc)
            if re.search(r"\b(nan|inf)\b", doc, re.IGNORECASE):
                broken.append((kind, edits, "nan or inf in the SVG"))
    assert not broken


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_plot_redraws_the_programs_inf_norm_stability_csv_byte_for_byte(tmp_path):
    # Probe outputs of 1e308 give a start whose norm overflows: the curves
    # hold inf, which the plot leaves out, as the command itself does.
    series = tmp_path / "series.csv"
    series.write_text("t,input,output\n" + "".join(f"{i!r},0.0,1e308\n" for i in range(4)))
    out = tmp_path / "st"
    assert run_cli("stability", "--t1", "2", "--probe", f"csv:{series}", "--models", "node,adamnode",
                   "--out", str(out)) == 0
    assert ",inf," in (out / "stability.csv").read_text()
    replot = tmp_path / "replot.svg"
    assert run_cli("plot", "--in", str(out / "stability.csv"), "--kind", "stability", "--out", str(replot)) == 0
    assert replot.read_bytes() == (out / "stability.svg").read_bytes()


def test_plot_of_a_span_of_one_float_spacing_ends(tmp_path):
    # At 1e20 floats are 16384 apart, finer than any round tick step of a
    # span that narrow.  The plot runs in a child process whose address
    # space is capped, so a tick loop that never ends fails fast.
    src = tmp_path / "in.csv"
    src.write_text("t,log10_norm,model\n1e20,0.5,node\n100000000000000016384,0.7,node\n")
    out = tmp_path / "x.svg"
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from momenta_node.cli import main\n"
        f"sys.exit(main(['plot', '--in', {str(src)!r}, '--kind', 'stability', '--out', {str(out)!r}]))\n"
    )
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src_dir})
    assert done.returncode == 0, done.stderr
    assert not re.search(r"\b(nan|inf)\b", out.read_text(), re.IGNORECASE)


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli("frobnicate") == 2
    capsys.readouterr()


def test_cli_and_plot_never_import_scipy(tmp_path):
    # scipy is a test dependency only; importing it costs every command
    # about half a second of start-up.
    csv_path = tmp_path / "tr.csv"
    csv_path.write_text("# minimizer,1.0,1.0\nt,x,y,dynamics\n0.0,0.0,0.0,ode\n1.0,0.5,0.25,ode\n")
    script = (
        "import sys\n"
        "from momenta_node import cli\n"
        f"code = cli.main(['plot', '--in', {str(csv_path)!r}, '--kind', 'trajectory', "
        f"'--out', {str(tmp_path / 'tr.svg')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split("\n")[-2] == "0 []"


def test_kept_parser_exits_as_a_fresh_one(tmp_path, monkeypatch, capsys):
    # main keeps its parser across calls; a usage error between two
    # commands must leave it parsing as it did when new.
    monkeypatch.chdir(tmp_path)

    def commands(tag):
        return [
            ["trajectory", "--T", "0.05", "--out", f"{tag}-tr"],
            ["trajectory", "--landscape", "nowhere", "--out", f"{tag}-bad"],
            ["plot", "--in", f"{tag}-tr/trajectory.csv", "--kind", "trajectory", "--out", f"{tag}-plot/t.svg"],
        ]

    def outcome(argv, tag):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out.replace(tag, "<tag>"), err.replace(tag, "<tag>")

    cli._build_parser.cache_clear()
    kept = [outcome(argv, "kept") for argv in commands("kept")]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in commands("fresh"):
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv, "fresh"))
    assert [code for code, _, _ in kept] == [0, 2, 0]
    assert "invalid choice: 'nowhere'" in kept[1][2]
    assert kept == fresh
    assert not Path("kept-bad").exists()
    assert Path("kept-plot/t.svg").read_bytes() == Path("fresh-plot/t.svg").read_bytes()


def test_each_key_is_declared_once_in_its_commands_table(tmp_path, monkeypatch, capsys):
    # The parser's flags, the table's keys and the config.resolved.json
    # echo are one set per command, and --help names every key and every
    # default that is not None.
    monkeypatch.chdir(tmp_path)
    runs = {
        "trajectory": (["--T", "0.05", "--out", "tr"], "tr/config.resolved.json"),
        "stability": (["--t1", "0.5", "--models", "node", "--out", "st"], "st/config.resolved.json"),
        "train": (["--epochs", "0", "--out", "train"], "train/config.resolved.json"),
        "gradcheck": (["--out", "gc"], "gc/config.resolved.json"),
        "plot": (["--in", "tr/trajectory.csv", "--kind", "trajectory", "--out", "tr/re.svg"], "tr/re.plot.json"),
    }
    assert set(runs) == set(cli.PARAMS)
    for command, (argv, echo) in runs.items():
        keys = {key for key, _, _, _ in cli.PARAMS[command]}
        assert len(keys) == len(cli.PARAMS[command]), command
        parsed = vars(cli._build_parser().parse_args([command]))
        assert set(parsed) - {"command", "config", "func"} == keys, command
        assert run_cli(command, *argv) == 0
        assert set(strict_json(echo)) - {"command"} == keys, command
        capsys.readouterr()
        assert run_cli(command, "--help") == 0
        help_text = " ".join(capsys.readouterr().out.split())
        for key, default, _, _ in cli.PARAMS[command]:
            assert f"--{key.replace('_', '-')} " in help_text, (command, key)
            if default is not None:
                assert f"default {default})" in help_text, (command, key)
    assert run_cli("gradcheck", "--help") == 0
    assert "--d D (an integer from 1 to 32; default 2)" in " ".join(capsys.readouterr().out.split())


# Each command at a small size, as flags, for the tests that read its echo.
SMALL_RUNS = {
    "trajectory": {"T": "0.05"},
    "stability": {"t1": "0.5", "models": "node"},
    "train": {"epochs": "0"},
    "gradcheck": {},
}
# Each float key as the JSON integer 1 and the flag 1, and the trajectory
# start as the JSON list [1, 1] and the flag 1,1.
FLOAT_KEYS = [(command, key, 1, "1") for command, rows in cli.PARAMS.items()
              for key, _, rule, _ in rows if rule in ("positive", "nonnegative")]
FLOAT_KEYS.append(("trajectory", "x0", [1, 1], "1,1"))


@pytest.mark.parametrize(
    "command,key,in_file,flag_value", FLOAT_KEYS, ids=[f"{c}-{k}" for c, k, _, _ in FLOAT_KEYS]
)
def test_a_float_key_resolves_to_one_value_from_the_file_or_the_flag(
    tmp_path, monkeypatch, capsys, command, key, in_file, flag_value
):
    # JSON integers in --config and the same numbers as a flag are one
    # set of floats, echoed byte for byte alike.
    monkeypatch.chdir(tmp_path)
    small = [arg for flag, value in SMALL_RUNS[command].items() if flag != key for arg in (f"--{flag}", value)]
    Path("cfg.json").write_text(json.dumps({key: in_file}))
    echoes = []
    for source in (["--config", "cfg.json"], [f"--{key.replace('_', '-')}", flag_value]):
        assert run_cli(command, *small, *source, "--out", "out") in (0, 1)
        echoes.append(Path("out", cli.RESOLVED).read_bytes())
    capsys.readouterr()
    assert echoes[0] == echoes[1]
    echoed = json.loads(echoes[0])[key]
    assert all(type(v) is float for v in (echoed if isinstance(echoed, list) else [echoed]))
