"""Command-line front end for the experiment suite.

One executable, five subcommands: ``trajectory`` (optimization flows on a
test landscape), ``stability`` (norm-growth probe across the model
family), ``train`` (small classification run with efficacy tracking),
``gradcheck`` (adjoint-vs-finite-difference gate), and ``plot``
(regenerate an SVG from any previously emitted CSV).

Each command's parameters are the rows of its table in :data:`PARAMS`.
A command resolves them from the table's defaults, then an optional
``--config`` JSON file, then explicit flags (flags win), checks each
against its row's rule, echoes the result to
``<out>/config.resolved.json`` before any other output, and writes only
files under its output directory.  ``plot``, whose ``--out`` names the
SVG, writes its echo beside it, named after it (``replot.svg`` echoes to
``replot.plot.json``), so replotting into another command's directory
leaves that command's echo alone.  Exit codes are a stable contract: 0
success, 1 verification failure, 2 usage or config error, 3 a solver
failed (every flow of ``trajectory``, or a solve that ``gradcheck``
needs), 4 training diverged.
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
from momenta_node.benchmarks.classify import run_classification
from momenta_node.benchmarks.landscapes import LANDSCAPES
from momenta_node.benchmarks.stability import (
    MODEL_SPECS,
    PROBE_SOLVER,
    duffing_probe,
    model_spec,
    run_stability_probe,
)
from momenta_node.benchmarks.trajectories import run_trajectory_experiment
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
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


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
    # Finite as a float: a JSON integer may exceed every float.
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# Each kind of parameter: what it must be, the test for it, and its type:
# the flag parses with it, and a value that passes is handed on as it.
_RULES = {
    "count": ("a positive integer", lambda v: _is_int(v) and v > 0, int),
    "natural": ("a nonnegative integer", lambda v: _is_int(v) and v >= 0, int),
    "positive": ("a finite number above 0", lambda v: _is_real(v) and v > 0, float),
    "nonnegative": ("a finite number at least 0", lambda v: _is_real(v) and v >= 0, float),
    "string": ("a string", lambda v: isinstance(v, str), str),
}

_MODELS = tuple(sorted(MODEL_SPECS))

# Every parameter of every command, one row per key: (key, default, rule,
# help).  A rule is a kind in _RULES, a tuple of the allowed names (the
# flag's choices), a range of the allowed integers, or None for a key its
# command parses itself.  The parser, its --help, the defaults, the checks,
# the types and the config.resolved.json echo all come from these rows; a
# key's flag is ``--key`` with each ``_`` written ``-``.  The library takes
# the checked values as they are and checks none of them again.
PARAMS = {
    "trajectory": (
        ("out", "out/trajectory", "string", "output directory"),
        ("landscape", "rosenbrock", tuple(sorted(LANDSCAPES)), None),
        ("x0", None, None, "start point 'a,b' (default: the landscape's standard start)"),
        ("T", 200.0, "positive", "time horizon"),
        ("method", "rk4", ("rk4", "dopri45"), None),
        # The step keeps RK4 stable on the stiffest stretch of the Rosenbrock
        # valley (curvature ~ 4e3 near the default start).
        ("step", 6.25e-4, "positive", "rk4 step size"),
        ("rtol", 1e-8, "positive", None),
        ("atol", 1e-8, "positive", None),
    ),
    "stability": (
        ("out", "out/stability", "string", "output directory"),
        ("t1", 64.0, "positive", "probe horizon"),
        ("probe", "synthetic", "string", "series whose first d outputs seed the hidden state: 'synthetic' "
         "(a forced Duffing oscillator) or 'csv:PATH' with a t,input,output series"),
        ("models", "all", None, "'all' or comma-separated model names"),
        ("d", 4, "count", "hidden-block dimension, and the number of probe outputs that seed it"),
        ("seed", 0, "natural", None),
        ("rtol", PROBE_SOLVER.rtol, "positive", None),
        ("atol", PROBE_SOLVER.atol, "positive", None),
    ),
    "train": (
        ("out", "out/train", "string", "output directory"),
        ("dataset", "spirals", ("spirals", "moons"), None),
        ("model", "adamnode", _MODELS, None),
        ("epochs", 100, "natural", None),
        ("lr", 1e-3, "positive", None),
        ("batch", 32, "count", None),
        ("seed", 0, "natural", None),
        ("rtol", 1e-3, "positive", None),
        ("atol", 1e-6, "positive", None),
    ),
    "gradcheck": (
        ("out", "out/gradcheck", "string", "output directory"),
        ("model", "adamnode", _MODELS, None),
        ("seed", 0, "natural", None),
        # tol 0 is a gate no gradient can pass: a failed check, not a bad input.
        ("tol", 1e-3, "nonnegative", "pass threshold on max_rel_err and init_state_max_rel_err"),
        # The batched difference solve's step record grows as d^2 per step.
        # At --t1 100, --d 32 peaks at 290 MB (anode) to 2.2 GB (ghbnode);
        # node's 380 MB there grows to 1.6 GB at --d 64.
        ("d", 2, range(1, 33), None),
        ("t1", 1.0, "positive", None),
        ("delta", 1e-5, "positive", "finite-difference step"),
        ("solver_tol", 1e-10, "positive", None),
    ),
    "plot": (
        ("in", None, "string", "input CSV path"),
        ("kind", None, ("trajectory", "stability", "efficacy"), None),
        ("out", None, "string", "output SVG path"),
    ),
}


def _rule(rule) -> tuple:
    """``rule``'s description, test and type (see :data:`PARAMS`)."""
    if isinstance(rule, tuple):
        return f"one of {', '.join(rule)}", rule.__contains__, str
    if isinstance(rule, range):
        return f"an integer from {rule[0]} to {rule[-1]}", lambda v: _is_int(v) and v in rule, int
    return _RULES[rule]


def _help(default, rule, text) -> str:
    """A flag's help: its row's text, then what its rule admits and its default."""
    notes = []
    if rule is not None:
        notes.append(_rule(rule)[0])
    if default is not None:
        notes.append(f"default {default}")
    parts = [text] if text else []
    if notes:
        parts.append(f"({'; '.join(notes)})")
    return " ".join(parts)


def _checked(command: str, args: argparse.Namespace) -> dict:
    """``command``'s parameters: its defaults <- config file <- explicit flags.

    Unknown file keys are errors, and each value must obey its row's rule;
    both raise ConfigError.  A value with a rule comes back as its rule's
    type, so a JSON integer given for a float key is a float.
    """
    rows = PARAMS[command]
    cfg = {key: default for key, default, _, _ in rows}
    if args.config:
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, _, rule, _ in rows:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
        if rule is None:
            continue
        what, ok, kind = _rule(rule)
        if not ok(cfg[key]):
            raise ConfigError(f"{key} must be {what}, got {cfg[key]!r}")
        cfg[key] = kind(cfg[key])
    return cfg


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
    cfg = _checked("trajectory", args)
    if isinstance(cfg["x0"], str):
        cfg["x0"] = _parse_x0(cfg["x0"])
    elif cfg["x0"] is not None:
        if not (isinstance(cfg["x0"], list) and len(cfg["x0"]) == 2 and all(map(_is_real, cfg["x0"]))):
            raise ConfigError(f"x0 must be 'a,b' or a list of two numbers, got {cfg['x0']!r}")
        # A JSON list is handed on as floats, as the flag is.
        cfg["x0"] = tuple(map(float, cfg["x0"]))
    try:
        exp = run_trajectory_experiment(
            cfg["landscape"],
            x0=cfg["x0"],
            t_end=cfg["T"],
            method=cfg["method"],
            step=cfg["step"],
            cfg=IntegratorConfig(rtol=cfg["rtol"], atol=cfg["atol"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = Path(cfg["out"])
    _emit_resolved(out_dir / RESOLVED, "trajectory", cfg)
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
    cfg = _checked("stability", args)
    if not isinstance(cfg["models"], str):
        raise ConfigError(f"--models expects 'all' or a comma-separated list, got {cfg['models']!r}")

    d = cfg["d"]
    if cfg["probe"] == "synthetic":
        outputs = duffing_probe(cfg["seed"], d)
    elif cfg["probe"].startswith("csv:"):
        try:
            outputs = csv_formats.read_series_csv(cfg["probe"][4:])[2]
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
    if outputs.size < d:
        raise ConfigError(f"probe series has {outputs.size} samples; need at least d={d}")

    try:
        result = run_stability_probe(
            outputs[:d], cfg["t1"], models, cfg["seed"], replace(PROBE_SOLVER, rtol=cfg["rtol"], atol=cfg["atol"])
        )
    except ValueError as exc:  # no parameter-fair widths
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
    cfg = _checked("train", args)
    out_dir = Path(cfg["out"])
    _emit_resolved(out_dir / RESOLVED, "train", cfg)

    run = run_classification(
        model_spec(cfg["model"]), **{key: value for key, value in cfg.items() if key not in ("out", "model")}
    )
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
    cfg = _checked("gradcheck", args)
    spec = model_spec(cfg["model"])
    out_dir = Path(cfg["out"])
    _emit_resolved(out_dir / RESOLVED, "gradcheck", cfg)

    try:
        report = gradcheck(
            spec, d=cfg["d"], seed=cfg["seed"], t1=cfg["t1"], delta=cfg["delta"], solver_tol=cfg["solver_tol"]
        )
    except (ForwardSolveError, BackwardSolveError) as exc:
        print(f"gradient check could not solve: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILED
    print(_write_json(out_dir / "gradcheck_report.json", report))
    # Both gradients gate: training chains the initial-state cotangent
    # into the embed.
    failed = [key for key in ("max_rel_err", "init_state_max_rel_err") if not report[key] < cfg["tol"]]
    if not failed:
        return EXIT_OK
    for key in failed:
        print(f"gradient check failed: {key} {report[key]:.3e} >= tol {cfg['tol']:.3e}", file=sys.stderr)
    return EXIT_CHECK_FAILED


def cmd_plot(args) -> int:
    cfg = _checked("plot", args)
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
    for command, func, text in (
        ("trajectory", cmd_trajectory, "integrate the optimization flows on a test landscape"),
        ("stability", cmd_stability, "probe hidden-norm growth across the model family"),
        ("train", cmd_train, "train a small classifier and track efficacy"),
        ("gradcheck", cmd_gradcheck, "adjoint-vs-finite-difference gradient gate"),
        ("plot", cmd_plot, "regenerate an SVG from a previously emitted CSV"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file; explicit flags override its values")
        for key, default, rule, help_text in PARAMS[command]:
            if isinstance(rule, tuple):
                parse = {"choices": rule}
            else:
                parse = {"type": rule and _rule(rule)[2]}
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_help(default, rule, help_text), **parse)
        p.set_defaults(func=func)
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
