"""Spans and counters taken from outside the program.

The benchmark never edits ``src/``.  It replaces each layer's public
functions, at the names where their callers look them up, with wrappers
that record a span (id, parent, name, start, end, round, attributes) in
memory.  The spans are written when the run ends; :func:`layer_metrics`
turns a file of them back into per-layer counts and self times.

Lookup sites, as the program is written today:

* ``classify``, ``adjoint``, ``stability`` and ``trajectories`` import
  ``solve_dopri45``/``solve_rk4`` by name;
* ``adjoint`` imports ``CubicSpline`` by name, and ``classify`` imports
  ``backward`` by name while ``gradcheck`` reaches it through ``adjoint``'s
  globals;
* ``field_net.forward`` and ``adjoint`` reach ``eval_cached`` and
  ``vjp_from_cache`` through ``field_net``'s module globals;
* the CLI imports the experiment runners by name, and calls the CSV and
  SVG writers through their modules;
* the flows read a landscape's gradient from the ``LANDSCAPES`` entries.

The right-hand side a solver receives is wrapped too, so its calls are
counted where they happen and can be compared with the solver's own NFE.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import statistics
import threading
from collections import defaultdict
from time import perf_counter

SOLVERS = {"solve_dopri45": "solver.dopri45", "solve_rk4": "solver.rk4"}

# Model names of the classify workload, by dynamics kind.
TRAIN_MODEL_BY_KIND = {"adam": "adamnode", "vanilla": "node"}

# Every per-layer metric: (name, unit, better).
PER_LAYER = [
    ("solver.rk4.self_s", "s", "lower"),
    ("solver.rk4.us_per_nfe", "us", "lower"),
    ("solver.rk4.nfe", "count", "lower"),
    ("solver.dopri45.calls", "count", "lower"),
    ("solver.dopri45.self_s", "s", "lower"),
    ("solver.dopri45.us_per_nfe", "us", "lower"),
    ("solver.dopri45.nfe", "count", "lower"),
    ("solver.dopri45.accepted", "count", "lower"),
    ("solver.dopri45.rejected", "count", "lower"),
    ("solver.dopri45.accept_ratio", "ratio", "higher"),
    ("dynamics.rhs.calls", "count", "lower"),
    ("dynamics.rhs.self_s", "s", "lower"),
    ("dynamics.rhs.us_per_call", "us", "lower"),
    ("landscapes.grad.calls", "count", "lower"),
    ("landscapes.grad.s", "s", "lower"),
    ("landscapes.grad.us_per_call", "us", "lower"),
    ("field_net.eval.calls", "count", "lower"),
    ("field_net.eval.s", "s", "lower"),
    ("field_net.eval.us_per_call", "us", "lower"),
    ("field_net.eval.rows_per_call", "rows", "higher"),
    ("field_net.vjp.calls", "count", "lower"),
    ("field_net.vjp.s", "s", "lower"),
    ("field_net.vjp.us_per_call", "us", "lower"),
    ("adjoint.backward.calls", "count", "lower"),
    ("adjoint.backward.s", "s", "lower"),
    ("adjoint.backward.self_s", "s", "lower"),
    ("adjoint.backward.nfe", "count", "lower"),
    ("adjoint.reforward.nfe", "count", "lower"),
    ("adjoint.reforward.s", "s", "lower"),
    ("adjoint.spline.build_s", "s", "lower"),
    ("adjoint.spline.eval_calls", "count", "lower"),
    ("adjoint.spline.eval_s", "s", "lower"),
    ("adjoint.import_scipy_s", "s", "lower"),
    ("adjoint.v_clamps", "count", "lower"),
    ("adjoint.recon_err_max", "norm", "lower"),
    ("classify.step.calls", "count", "lower"),
    ("classify.step.self_s", "s", "lower"),
    ("classify.optimizer.s", "s", "lower"),
    ("classify.eval.s", "s", "lower"),
    ("classify.final_accuracy.adamnode", "ratio", "higher"),
    ("classify.final_accuracy.node", "ratio", "higher"),
    ("classify.final_efficacy_fwd.adamnode", "1/nfe", "higher"),
    ("classify.final_efficacy_fwd.node", "1/nfe", "higher"),
    ("stability.run.s", "s", "lower"),
    ("stability.solve_sum_s", "s", "lower"),
    ("stability.parallel_speedup", "ratio", "higher"),
    ("stability.widths.s", "s", "lower"),
    ("trajectories.run.s", "s", "lower"),
    ("trajectories.post_s", "s", "lower"),
    ("csv_formats.write.s", "s", "lower"),
    ("csv_formats.write_bytes", "bytes", "lower"),
    ("csv_formats.read.s", "s", "lower"),
    ("svg.render.s", "s", "lower"),
    ("svg.render_bytes", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def solver_sites() -> tuple:
    """The modules whose solver names the program's callers look up."""
    import momenta_node
    from momenta_node import adjoint, solver
    from momenta_node.benchmarks import classify, stability, trajectories

    return (solver, momenta_node, classify, adjoint, stability, trajectories)


class NfeCounter:
    """The untraced run's only instrument: sums ``SolveResult.nfe``."""

    def __init__(self):
        self.nfe = 0

    def install(self) -> None:
        for mod in solver_sites():
            for fname in SOLVERS:
                if hasattr(mod, fname):
                    setattr(mod, fname, self._wrap(getattr(mod, fname)))

    def _wrap(self, solve):
        def counted(*args, **kwargs):
            res = solve(*args, **kwargs)
            self.nfe += res.nfe
            return res

        counted.__wrapped__ = solve
        return counted


class Tracer:
    """Keeps spans in memory; worker threads hang their spans under the
    span the main thread has open, which is the one that submitted them."""

    def __init__(self, nfe_counter: NfeCounter):
        self.nfe_counter = nfe_counter
        self.spans = []
        self.round = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, kwargs, result)``
        may return a dict stored with it."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs else None
            self.spans.append((sid, parent, name, start, end, self.round, extra))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------
    def patch(self, owner, attr, name, attrs=None) -> None:
        """Trace ``owner.attr`` if the program still has it."""
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, self.span(name, fn, attrs))

    def install(self) -> None:
        """Wrap every layer of the program."""
        from momenta_node import adjoint, cli, csv_formats, field_net, svg
        from momenta_node.benchmarks import classify, landscapes, stability

        for mod in solver_sites():
            for fname, sname in SOLVERS.items():
                if hasattr(mod, fname):
                    original = getattr(mod, fname)
                    original = getattr(original, "__wrapped__", original)
                    setattr(mod, fname, self._solver(sname, original))

        for key, land in list(landscapes.LANDSCAPES.items()):
            landscapes.LANDSCAPES[key] = dataclasses.replace(
                land, grad=self.span("landscapes.grad", land.grad))

        self.patch(field_net, "eval_cached", "field_net.eval", _rows)
        self.patch(field_net, "vjp_from_cache", "field_net.vjp")

        self.patch(adjoint, "backward", "adjoint.backward", _adjoint_run)
        self.patch(classify, "backward", "adjoint.backward", _adjoint_run)
        if hasattr(adjoint, "CubicSpline"):
            adjoint.CubicSpline = self._spline(adjoint.CubicSpline)
        self.patch(cli, "gradcheck", "adjoint.gradcheck")

        self.patch(classify.ODEClassifier, "loss_and_grad", "classify.step")
        self.patch(classify.ODEClassifier, "predict", "classify.eval")
        self.patch(classify.ODEClassifier, "eval_loss", "classify.eval")
        self.patch(classify.AdamOptimizer, "step", "classify.optimizer")
        self.patch(cli, "run_classification", "classify.run", _final_record)

        self.patch(cli, "run_stability_probe", "stability.run")
        self.patch(cli, "duffing_probe", "stability.probe")
        self.patch(stability, "fair_hidden_widths", "stability.widths")
        self.patch(cli, "run_trajectory_experiment", "trajectories.run")

        for attr in dir(csv_formats):
            if attr.startswith("write_"):
                self.patch(csv_formats, attr, "csv_formats.write", _file_bytes)
            elif attr.startswith("read_"):
                self.patch(csv_formats, attr, "csv_formats.read")
        for attr in dir(svg):
            if attr.startswith("render_"):
                self.patch(svg, attr, "svg.render", _text_bytes)

    def _solver(self, name, solve):
        counter = self.nfe_counter
        rhs_span = self.span

        def call(rhs, *args, **kwargs):
            res = solve(rhs_span("dynamics.rhs", rhs), *args, **kwargs)
            counter.nfe += res.nfe
            return res

        def attrs(args, kwargs, res):
            return {
                "nfe": res.nfe,
                "accepted": res.accepted_steps,
                "rejected": res.rejected_steps,
                "record_steps": bool(kwargs.get("record_steps", False)),
            }

        return self.span(name, call, attrs)

    def _spline(self, spline_cls):
        span = self.span

        def build(*args, **kwargs):
            return span("adjoint.spline.eval", spline_cls(*args, **kwargs))

        return span("adjoint.spline.build", build)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp, separators=(",", ":")))
                fh.write("\n")


def _rows(args, kwargs, result):
    h = args[1]
    return {"rows": 1 if getattr(h, "ndim", 1) == 1 else int(h.shape[0])}


def _adjoint_run(args, kwargs, run):
    return {
        "nfe": getattr(run, "backward_nfe", 0),
        "v_clamps": getattr(run, "v_underflow_clamps", 0),
        "recon_err": getattr(run, "forward_state_reconstruction_error", 0.0),
    }


def _final_record(args, kwargs, run):
    last = run.records[-1] if run.records else None
    return {
        "kind": args[0].kind,
        "accuracy": last.test_accuracy if last else 0.0,
        "efficacy_fwd": last.efficacy_fwd if last else 0.0,
    }


def _file_bytes(args, kwargs, result):
    path = args[0] if args else None
    return {"bytes": os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0}


def _text_bytes(args, kwargs, doc):
    return {"bytes": len(doc.encode()) if isinstance(doc, str) else 0}


# ---------------------------------------------------------------- analysis

def read_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _round_metrics(spans) -> dict:
    """Per-layer metrics of one round from its spans."""
    child_time = defaultdict(float)
    name_of = {}
    for sid, parent, name, start, end, _, _ in spans:
        name_of[sid] = name
        if parent is not None:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    attr_sum = defaultdict(float)
    recon_max = 0.0
    final = {}
    reforward_nfe = 0
    reforward_s = 0.0
    stability_solves = 0.0
    for sid, parent, name, start, end, _, attrs in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur - child_time[sid]
        if not attrs:
            continue
        for key, val in attrs.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                attr_sum[f"{name}.{key}"] += val
        if name == "adjoint.backward":
            recon_max = max(recon_max, attrs["recon_err"])
        elif name == "classify.run":
            final[TRAIN_MODEL_BY_KIND.get(attrs["kind"], attrs["kind"])] = attrs
        elif name == "solver.dopri45":
            parent_name = name_of.get(parent)
            if parent_name == "adjoint.backward" and attrs["record_steps"]:
                reforward_nfe += attrs["nfe"]
                reforward_s += dur
            elif parent_name == "stability.run":
                stability_solves += dur

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    rk4_nfe = attr_sum["solver.rk4.nfe"]
    dp_nfe = attr_sum["solver.dopri45.nfe"]
    accepted = attr_sum["solver.dopri45.accepted"]
    rejected = attr_sum["solver.dopri45.rejected"]
    out = {
        "solver.rk4.self_s": self_time["solver.rk4"],
        "solver.rk4.us_per_nfe": per(self_time["solver.rk4"], rk4_nfe, 1e6),
        "solver.rk4.nfe": rk4_nfe,
        "solver.dopri45.calls": calls["solver.dopri45"],
        "solver.dopri45.self_s": self_time["solver.dopri45"],
        "solver.dopri45.us_per_nfe": per(self_time["solver.dopri45"], dp_nfe, 1e6),
        "solver.dopri45.nfe": dp_nfe,
        "solver.dopri45.accepted": accepted,
        "solver.dopri45.rejected": rejected,
        "solver.dopri45.accept_ratio": per(accepted, accepted + rejected),
        "dynamics.rhs.calls": calls["dynamics.rhs"],
        "dynamics.rhs.self_s": self_time["dynamics.rhs"],
        "dynamics.rhs.us_per_call": per(self_time["dynamics.rhs"], calls["dynamics.rhs"], 1e6),
        "landscapes.grad.calls": calls["landscapes.grad"],
        "landscapes.grad.s": total["landscapes.grad"],
        "landscapes.grad.us_per_call": per(total["landscapes.grad"], calls["landscapes.grad"], 1e6),
        "field_net.eval.calls": calls["field_net.eval"],
        "field_net.eval.s": total["field_net.eval"],
        "field_net.eval.us_per_call": per(total["field_net.eval"], calls["field_net.eval"], 1e6),
        "field_net.eval.rows_per_call": per(attr_sum["field_net.eval.rows"], calls["field_net.eval"]),
        "field_net.vjp.calls": calls["field_net.vjp"],
        "field_net.vjp.s": total["field_net.vjp"],
        "field_net.vjp.us_per_call": per(total["field_net.vjp"], calls["field_net.vjp"], 1e6),
        "adjoint.backward.calls": calls["adjoint.backward"],
        "adjoint.backward.s": total["adjoint.backward"],
        "adjoint.backward.self_s": self_time["adjoint.backward"],
        "adjoint.backward.nfe": attr_sum["adjoint.backward.nfe"],
        "adjoint.reforward.nfe": reforward_nfe,
        "adjoint.reforward.s": reforward_s,
        "adjoint.spline.build_s": total["adjoint.spline.build"],
        "adjoint.spline.eval_calls": calls["adjoint.spline.eval"],
        "adjoint.spline.eval_s": total["adjoint.spline.eval"],
        "adjoint.v_clamps": attr_sum["adjoint.backward.v_clamps"],
        "adjoint.recon_err_max": recon_max,
        "classify.step.calls": calls["classify.step"],
        "classify.step.self_s": self_time["classify.step"],
        "classify.optimizer.s": total["classify.optimizer"],
        "classify.eval.s": total["classify.eval"],
        "stability.run.s": total["stability.run"],
        "stability.solve_sum_s": stability_solves,
        "stability.parallel_speedup": per(stability_solves, total["stability.run"]),
        "stability.widths.s": total["stability.widths"],
        "trajectories.run.s": total["trajectories.run"],
        "trajectories.post_s": self_time["trajectories.run"],
        "csv_formats.write.s": total["csv_formats.write"],
        "csv_formats.write_bytes": attr_sum["csv_formats.write.bytes"],
        "csv_formats.read.s": total["csv_formats.read"],
        "svg.render.s": total["svg.render"],
        "svg.render_bytes": attr_sum["svg.render.bytes"],
        "cli.self_s": self_time["cli.main"],
    }
    for model in TRAIN_MODEL_BY_KIND.values():
        rec = final.get(model, {})
        out[f"classify.final_accuracy.{model}"] = rec.get("accuracy", 0.0)
        out[f"classify.final_efficacy_fwd.{model}"] = rec.get("efficacy_fwd", 0.0)
    # The solvers' own NFE, for the benchmark's exact-accounting check.
    out["_solver_nfe"] = rk4_nfe + dp_nfe
    return out


def layer_metrics(spans) -> tuple:
    """Median over traced rounds of each per-layer metric, plus each round's
    metrics by round number (for the NFE accounting check)."""
    by_round = defaultdict(list)
    for sp in spans:
        by_round[sp[5]].append(sp)
    rounds = {r: _round_metrics(by_round[r]) for r in sorted(by_round)}
    medians = {key: statistics.median(m[key] for m in rounds.values()) for key in _round_metrics([])}
    return medians, rounds


def parse_importtime(stderr_text: str, module: str) -> float:
    """Cumulative import time of ``module`` in seconds from ``-X importtime``
    output; 0.0 when it was never imported."""
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0
