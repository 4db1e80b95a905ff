"""Command-line front end for the experiment suite.

One executable, five subcommands: ``trajectory`` (optimization flows on a
test landscape), ``stability`` (norm-growth probe across the model
family), ``train`` (small classification run with efficacy tracking),
``gradcheck`` (adjoint-vs-finite-difference gate), and ``plot``
(regenerate an SVG from any previously emitted CSV).

Every command resolves its parameters from built-in defaults, then an
optional ``--config`` JSON file, then explicit flags (flags win), echoes
the result to ``<out>/config.resolved.json`` once its inputs are checked,
before any other output, and writes only files under its output
directory.  ``plot``, whose ``--out`` names the SVG, writes its echo
beside it, named after it (``replot.svg`` echoes to ``replot.plot.json``),
so replotting into another command's directory leaves that command's
echo alone.  Exit codes are a stable contract: 0 success, 1 verification
failure, 2 usage or config error, 3 a solver failed (every flow of
``trajectory``, or a solve that ``gradcheck`` needs), 4 training
diverged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from momenta_node import csv_formats, svg
from momenta_node.adjoint import BackwardSolveError, ForwardSolveError, gradcheck
from momenta_node.benchmarks.classify import TrainConfig, run_classification
from momenta_node.benchmarks.landscapes import LANDSCAPES
from momenta_node.benchmarks.stability import (
    MODEL_SPECS,
    PROBE_SOLVER,
    duffing_probe,
    model_spec,
    run_stability_probe,
    series_probe,
)
from momenta_node.benchmarks.trajectories import (
    DEFAULT_HORIZON,
    DEFAULT_STEP,
    run_trajectory_experiment,
)
from momenta_node.solver import IntegratorConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER_FAILED = 3
EXIT_DIVERGED = 4


class ConfigError(ValueError):
    """Bad config file or bad parameter value; maps to exit code 2."""


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags; unknown file keys are errors."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    return resolved


def _finite_or_null(value):
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, payload) -> str:
    """Write ``payload`` as strict JSON (RFC 8259) and return the text.

    A non-finite float is written as ``null``; the record around it says
    why (a flow's ``status``, for instance).
    """
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")
    return text


RESOLVED = "config.resolved.json"


def _emit_resolved(path: Path, command: str, resolved: dict) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(path, {"command": command, **resolved})
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {str(path.parent)!r}: {exc}") from exc


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# What each kind of numeric parameter must be, and the test for it.
_RULES = {
    "count": ("a positive integer", lambda v: _is_int(v) and v > 0),
    "natural": ("a nonnegative integer", lambda v: _is_int(v) and v >= 0),
    "positive": ("a finite number above 0", lambda v: _is_real(v) and v > 0),
    "nonnegative": ("a finite number at least 0", lambda v: _is_real(v) and v >= 0),
}


def _check_numbers(cfg: dict, rules: dict) -> None:
    """Raise ConfigError unless every ``cfg[key]`` obeys ``_RULES[rules[key]]``."""
    for key, rule in rules.items():
        what, ok = _RULES[rule]
        if not ok(cfg[key]):
            raise ConfigError(f"{key} must be {what}, got {cfg[key]!r}")


def _check_strings(cfg: dict, keys) -> None:
    """Raise ConfigError unless every ``cfg[key]`` is a string."""
    for key in keys:
        if not isinstance(cfg[key], str):
            raise ConfigError(f"{key} must be a string, got {cfg[key]!r}")


def _parse_x0(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--x0 expects 'a,b', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(f"--x0 expects two numbers, got {text!r}") from None


# ------------------------------------------------------------------ commands

def cmd_trajectory(args) -> int:
    defaults = {
        "landscape": "rosenbrock",
        "x0": None,
        "T": DEFAULT_HORIZON,
        "method": "rk4",
        "step": DEFAULT_STEP,
        "rtol": 1e-8,
        "atol": 1e-8,
        "out": "out/trajectory",
    }
    cfg = _resolve(defaults, args)
    _check_strings(cfg, ("landscape", "method", "out"))
    if cfg["landscape"] not in LANDSCAPES:
        raise ConfigError(
            f"unknown landscape {cfg['landscape']!r}; expected one of: {', '.join(LANDSCAPES)}"
        )
    _check_numbers(cfg, {"T": "positive", "step": "positive", "rtol": "positive", "atol": "positive"})
    if isinstance(cfg["x0"], str):
        cfg["x0"] = _parse_x0(cfg["x0"])
    elif cfg["x0"] is not None and not (
        isinstance(cfg["x0"], list) and len(cfg["x0"]) == 2 and all(map(_is_real, cfg["x0"]))
    ):
        raise ConfigError(f"x0 must be 'a,b' or a list of two numbers, got {cfg['x0']!r}")
    try:
        exp = run_trajectory_experiment(
            cfg["landscape"],
            x0=cfg["x0"],
            t_end=float(cfg["T"]),
            method=cfg["method"],
            step=float(cfg["step"]),
            cfg=IntegratorConfig(rtol=float(cfg["rtol"]), atol=float(cfg["atol"])),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = Path(cfg["out"])
    _emit_resolved(out_dir / RESOLVED, "trajectory", {**cfg, "x0": list(cfg["x0"]) if cfg["x0"] else None})
    csv_formats.write_trajectory_csv(out_dir / "trajectory.csv", exp)
    summary = {
        "landscape": exp.landscape.name,
        "x0": [float(v) for v in exp.x0],
        "t_end": exp.t_end,
        "flows": {
            name: {
                "status": run.status,
                "final_distance_to_min": float(run.final_distance_to_min),
                "first_time_within_radius": run.first_time_within_radius,
            }
            for name, run in exp.runs.items()
        },
    }
    _write_json(out_dir / "summary.json", summary)
    # The SVG is a pure function of the CSV contents, so `plot --kind
    # trajectory` reproduces this file byte for byte.
    series = {name: (run.ts, run.xs) for name, run in exp.runs.items()}
    doc = svg.render_trajectory_svg(exp.landscape.minimizer, series)
    (out_dir / "trajectory.svg").write_text(doc)

    if exp.all_failed:
        print(f"all flows failed on {exp.landscape.name}; see {out_dir}/summary.json", file=sys.stderr)
        return EXIT_SOLVER_FAILED
    print(f"wrote trajectory.csv, summary.json, trajectory.svg to {out_dir}")
    return EXIT_OK


def cmd_stability(args) -> int:
    defaults = {
        "t1": 64.0,
        "probe": "synthetic",
        "models": "all",
        "d": 4,
        "seed": 0,
        "rtol": PROBE_SOLVER.rtol,
        "atol": PROBE_SOLVER.atol,
        "out": "out/stability",
    }
    cfg = _resolve(defaults, args)
    _check_numbers(cfg, {"t1": "positive", "d": "count", "seed": "natural",
                         "rtol": "positive", "atol": "positive"})
    if not isinstance(cfg["models"], str):
        raise ConfigError(f"--models expects 'all' or a comma-separated list, got {cfg['models']!r}")
    _check_strings(cfg, ("probe", "out"))

    if cfg["probe"] == "synthetic":
        probe = duffing_probe(int(cfg["seed"]), float(cfg["t1"]), int(cfg["d"]))
    elif cfg["probe"].startswith("csv:"):
        try:
            probe = series_probe(*csv_formats.read_series_csv(cfg["probe"][4:]), t1=float(cfg["t1"]))
        except (OSError, csv_formats.CsvFormatError) as exc:
            raise ConfigError(f"bad probe series: {exc}") from exc
    else:
        raise ConfigError(f"--probe expects 'synthetic' or 'csv:PATH', got {cfg['probe']!r}")

    if cfg["models"] == "all":
        models = dict(MODEL_SPECS)
    else:
        names = [n.strip() for n in cfg["models"].split(",") if n.strip()]
        if not names:
            raise ConfigError("--models expects 'all' or a comma-separated list")
        try:
            models = {n: model_spec(n) for n in names}
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    try:
        result = run_stability_probe(
            probe,
            models=models,
            d=int(cfg["d"]),
            seed=int(cfg["seed"]),
            cfg=replace(PROBE_SOLVER, rtol=float(cfg["rtol"]), atol=float(cfg["atol"])),
        )
    except ValueError as exc:  # d wider than the probe series, or no parameter-fair widths
        raise ConfigError(str(exc)) from exc
    out_dir = Path(cfg["out"])
    _emit_resolved(out_dir / RESOLVED, "stability", cfg)
    csv_formats.write_stability_csv(out_dir / "stability.csv", result)
    summary = {
        "statuses": result.statuses,
        "blowup_at": result.blowup_at,
        "param_counts": result.param_counts,
        "hidden_widths": result.widths,
        "d": result.d,
        "seed": result.seed,
    }
    _write_json(out_dir / "summary.json", summary)
    series = {name: (result.grid, curve) for name, curve in result.log10_norms.items()}
    doc = svg.render_stability_svg(series, result.blowup_at)
    (out_dir / "stability.svg").write_text(doc)
    print(f"wrote stability.csv, summary.json, stability.svg to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    defaults = {
        "dataset": "spirals",
        "model": "adamnode",
        "epochs": 100,
        "lr": 1e-3,
        "batch": 32,
        "seed": 0,
        "rtol": 1e-3,
        "atol": 1e-6,
        "out": "out/train",
    }
    cfg = _resolve(defaults, args)
    _check_strings(cfg, ("dataset", "model", "out"))
    _check_numbers(cfg, {"epochs": "natural", "lr": "positive", "batch": "count", "seed": "natural",
                         "rtol": "positive", "atol": "positive"})
    try:
        spec = model_spec(cfg["model"])
        train_cfg = TrainConfig(
            epochs=int(cfg["epochs"]),
            lr=float(cfg["lr"]),
            batch_size=int(cfg["batch"]),
            seed=int(cfg["seed"]),
            rtol=float(cfg["rtol"]),
            atol=float(cfg["atol"]),
            dataset=cfg["dataset"],
        )
        train_cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = Path(cfg["out"])
    _emit_resolved(out_dir / RESOLVED, "train", cfg)

    run = run_classification(spec, train_cfg)
    csv_formats.write_efficacy_csv(out_dir / "efficacy.csv", run.records)
    if run.records:
        cols = {
            "epoch": [r.epoch for r in run.records],
            "train_loss": [r.train_loss for r in run.records],
            "test_accuracy": [r.test_accuracy for r in run.records],
            "efficacy_fwd": [r.efficacy_fwd for r in run.records],
            "efficacy_bwd": [r.efficacy_bwd for r in run.records],
        }
        (out_dir / "efficacy.svg").write_text(svg.render_efficacy_svg(cols))
        (out_dir / "loss.svg").write_text(svg.render_loss_svg(cols))
    if run.diverged:
        print(
            f"training diverged at epoch {run.diverged_at}; partial records in {out_dir}/efficacy.csv",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    last = run.records[-1]
    print(
        f"wrote efficacy.csv, efficacy.svg, loss.svg to {out_dir} "
        f"(final accuracy {last.test_accuracy:.3f}, efficacy_fwd {last.efficacy_fwd:.4f})"
    )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    defaults = {
        "model": "adamnode",
        "seed": 0,
        "tol": 1e-3,
        "d": 2,
        "t1": 1.0,
        "delta": 1e-5,
        "solver_tol": 1e-10,
        "out": "out/gradcheck",
    }
    cfg = _resolve(defaults, args)
    _check_strings(cfg, ("model", "out"))
    try:
        spec = model_spec(cfg["model"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # tol 0 is a gate no gradient can pass: a failed check, not a bad input.
    _check_numbers(cfg, {"seed": "natural", "tol": "nonnegative", "d": "count", "t1": "positive",
                         "delta": "positive", "solver_tol": "positive"})
    out_dir = Path(cfg["out"])
    _emit_resolved(out_dir / RESOLVED, "gradcheck", cfg)

    try:
        report = gradcheck(
            spec,
            d=int(cfg["d"]),
            seed=int(cfg["seed"]),
            t1=float(cfg["t1"]),
            delta=float(cfg["delta"]),
            solver_tol=float(cfg["solver_tol"]),
        )
    except (ForwardSolveError, BackwardSolveError) as exc:
        print(f"gradient check could not solve: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILED
    print(_write_json(out_dir / "gradcheck_report.json", report))
    # Both gradients gate: training chains the initial-state cotangent
    # into the embed.
    failed = [key for key in ("max_rel_err", "init_state_max_rel_err") if not report[key] < float(cfg["tol"])]
    if not failed:
        return EXIT_OK
    for key in failed:
        print(f"gradient check failed: {key} {report[key]:.3e} >= tol {cfg['tol']:.3e}", file=sys.stderr)
    return EXIT_CHECK_FAILED


def cmd_plot(args) -> int:
    defaults = {"in": None, "kind": None, "out": None}
    cfg = _resolve(defaults, args)
    for key in ("in", "kind", "out"):
        if cfg[key] is None:
            raise ConfigError(f"plot requires --{key}")
    _check_strings(cfg, ("in", "kind", "out"))
    if cfg["kind"] not in ("trajectory", "stability", "efficacy"):
        raise ConfigError(f"--kind must be trajectory, stability, or efficacy, got {cfg['kind']!r}")
    out_path = Path(cfg["out"])
    if out_path.is_dir() or out_path.name == "..":
        raise ConfigError(f"--out must name a file, got the directory {cfg['out']!r}")
    try:
        if cfg["kind"] == "trajectory":
            minimizer, series = csv_formats.read_trajectory_csv(cfg["in"])
            doc = svg.render_trajectory_svg(minimizer, series)
        elif cfg["kind"] == "stability":
            series, blowups = csv_formats.read_stability_csv(cfg["in"])
            doc = svg.render_stability_svg(series, blowups)
        else:
            cols = csv_formats.read_efficacy_csv(cfg["in"])
            doc = svg.render_efficacy_svg(cols)
    except OSError as exc:
        raise ConfigError(f"cannot read {cfg['in']!r}: {exc}") from exc
    except csv_formats.CsvFormatError as exc:
        raise ConfigError(f"{cfg['in']}: {exc}") from exc
    _emit_resolved(out_path.with_suffix(".plot.json"), "plot", cfg)
    out_path.write_text(doc)
    print(f"wrote {out_path}")
    return EXIT_OK


# -------------------------------------------------------------------- parser

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for later ones
    (parsing leaves it unchanged); not built at import."""
    parser = argparse.ArgumentParser(
        prog="momenta-node",
        description="Continuous-depth model experiments: trajectories, stability, training, gradient checks, plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; explicit flags override its values")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("trajectory", help="integrate the optimization flows on a test landscape")
    add_common(p)
    p.add_argument("--landscape", choices=sorted(LANDSCAPES))
    p.add_argument("--x0", help="start point 'a,b' (default: the landscape's standard start)")
    p.add_argument("--T", type=float, help=f"time horizon (default {DEFAULT_HORIZON:g})")
    p.add_argument("--method", choices=["rk4", "dopri45"])
    p.add_argument("--step", type=float, help=f"rk4 step size (default {DEFAULT_STEP:g})")
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("stability", help="probe hidden-norm growth across the model family")
    add_common(p)
    p.add_argument("--t1", type=float, help="probe horizon (default 64)")
    p.add_argument("--probe", help="series whose first d outputs seed the hidden state: 'synthetic' "
                   "(a forced Duffing oscillator) or 'csv:PATH' with a t,input,output series")
    p.add_argument("--models", help="'all' or comma-separated model names")
    p.add_argument("--d", type=int, help="hidden-block dimension, and the number of probe outputs "
                   "that seed it (default 4)")
    p.add_argument("--seed", type=int)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("train", help="train a small classifier and track efficacy")
    add_common(p)
    p.add_argument("--dataset", choices=["spirals", "moons"])
    p.add_argument("--model", choices=sorted(MODEL_SPECS))
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="adjoint-vs-finite-difference gradient gate")
    add_common(p)
    p.add_argument("--model", choices=sorted(MODEL_SPECS))
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float,
                   help="pass threshold on max_rel_err and init_state_max_rel_err (default 1e-3)")
    p.add_argument("--d", type=int)
    p.add_argument("--t1", type=float)
    p.add_argument("--delta", type=float, help="finite-difference step (default 1e-5)")
    p.add_argument("--solver-tol", dest="solver_tol", type=float)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("plot", help="regenerate an SVG from a previously emitted CSV")
    p.add_argument("--config", help="JSON config file; explicit flags override its values")
    p.add_argument("--in", dest="in", help="input CSV path")
    p.add_argument("--kind", choices=["trajectory", "stability", "efficacy"])
    p.add_argument("--out", help="output SVG path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
