"""Benchmark of the momenta-node CLI: four workloads, timed end to end.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh interpreters with ``src`` on their path: a few that
only import ``momenta_node.cli`` (set-up time), then one worker that runs
whole rounds of the workload's commands through ``momenta_node.cli.main``,
one at a time, for about ``S`` seconds.  After the worker exits, every
command's exit code and outputs are checked; an operation fails when
either is wrong.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_op, total_nfe  # noqa: E402
from tracing import PER_LAYER, UNITS, layer_metrics, parse_importtime, read_spans  # noqa: E402
from workloads import WORKLOADS, round_ops  # noqa: E402

# Set-up is timed in this many fresh processes per run: the worker, with
# half of the import-only probes before it and half after, so that the
# samples spread over the run.  The median is reported.
SETUP_SAMPLES = 5
PROBE = "import momenta_node.cli, time; print(repr(time.monotonic()))"
# Hard limit on the worker, so the whole run ends within 180 s.
WORKER_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("MOMENTA_NODE_THREADS", None)  # the stability pool keeps its default
    return env


def setup_probe(env) -> float:
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1]) - start


def run_worker(args, run_dir: Path, env) -> tuple:
    """Run the worker; returns (its result, its stderr text, spawn time)."""
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--run-dir", str(run_dir)]
    with open(run_dir / "worker.out", "w") as out, open(run_dir / "worker.err", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=run_dir, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S:.0f} s") from None
    stderr = (run_dir / "worker.err").read_text()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}:\n{stderr[-2000:]}")
    return json.loads((run_dir / "result.json").read_text()), stderr, spawned


def same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(same_tree(a / d, b / d) for d in cmp.common_dirs)


def check_rounds(ops, rounds, run_dir: Path) -> list:
    """Failure reasons per operation of every round.

    The first round's outputs get every check.  Later rounds ran the same
    commands on the same inputs, so their outputs must match the first
    round's byte for byte (the CLI's determinism contract).
    """
    first = run_dir / "round-0"
    first_errors = [check_op(op, first) for op in ops]
    failures = []
    for r, rec in enumerate(rounds):
        for i, (op, code) in enumerate(zip(ops, rec["codes"])):
            why = []
            if code != 0:
                why.append(f"exit code {code}")
            why += first_errors[i]
            if r and not same_tree(first / op.out, run_dir / f"round-{r}" / op.out):
                why.append("output differs from round 0")
            if why:
                failures.append((r, " ".join(op.argv), why))
    return failures


def end_to_end(result, setup_samples) -> dict:
    rounds = result["rounds"]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "nfe": (rounds[0]["nfe"], "count"),
    }


def per_layer(args, result, stderr, run_dir: Path, ops) -> tuple:
    """Per-layer metrics of a traced run, and what is wrong with its NFE
    accounting."""
    untraced = [r for r in result["rounds"] if not r["traced"]]
    traced = [r for r in result["rounds"] if r["traced"]]
    medians, by_round = layer_metrics(read_spans(run_dir / "spans.jsonl"))
    medians.update({
        "adjoint.import_scipy_s": parse_importtime(stderr, "scipy.interpolate"),
        "cli.import_s": result["cli_import_s"],
        "trace.overhead_s": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced),
    })
    problems = []
    for n, layers in by_round.items():
        csv_nfe = None
        if args.workload == "train-spirals":
            csv_nfe = sum(total_nfe(run_dir / f"round-{n}" / op.out) for op in ops)
        problems += nfe_accounting(n, layers["dynamics.rhs.calls"], layers["_solver_nfe"],
                                   result["rounds"][n]["nfe"], csv_nfe)
    return {name: (medians[name], UNITS[name]) for name, _, _ in PER_LAYER}, problems


def nfe_accounting(n, rhs_calls, solver_nfe, result_nfe, csv_nfe=None) -> list:
    """What is wrong with round ``n``'s NFE accounting: the right-hand-side
    calls the wrappers counted must equal the NFE the solvers reported in
    their spans and in their results, and (for training) the NFE columns
    of the efficacy CSVs."""
    problems = []
    if not rhs_calls == solver_nfe == result_nfe:
        problems.append(f"round {n}: {rhs_calls} RHS calls, solver spans report {solver_nfe} NFE, "
                        f"solver results sum to {result_nfe}")
    if csv_nfe is not None and csv_nfe != rhs_calls:
        problems.append(f"round {n}: efficacy.csv NFE {csv_nfe} != {rhs_calls} RHS calls")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "momenta_node" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_root = BENCH / "out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    ops = round_ops(args.workload, args.seed)
    try:
        probes = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
        setup = [setup_probe(env) for _ in range(probes)]
        result, stderr, spawned = run_worker(args, run_dir, env)
        setup.append(result["t_imported"] - spawned)
        setup += [setup_probe(env) for _ in range(probes)]
        rounds = result["rounds"]
        failures = check_rounds(ops, rounds, run_dir)
        problems = []
        if len({r["nfe"] for r in rounds}) != 1:
            problems.append(f"NFE differs between rounds: {[r['nfe'] for r in rounds]}")
        if args.trace:
            metrics, more = per_layer(args, result, stderr, run_dir, ops)
            problems += more
            (out_root / f"{args.workload}.spans.jsonl").unlink(missing_ok=True)
            (run_dir / "spans.jsonl").rename(out_root / f"{args.workload}.spans.jsonl")
        else:
            metrics = end_to_end(result, setup)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for r, cmd, why in failures:
        print(f"failed (round {r}): momenta-node {cmd}: {'; '.join(why)}", file=sys.stderr)
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    print(f"{len(rounds)} rounds ({sum(r['traced'] for r in rounds)} traced), "
          f"round walls {[round(r['wall_s'], 3) for r in rounds]}, setup {[round(s, 3) for s in setup]}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
