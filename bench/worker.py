"""One benchmark run's program process: imports the CLI and runs rounds.

Started by ``run.py`` as a fresh interpreter with ``src`` on its path.
It first imports ``momenta_node.cli`` and notes the monotonic clock (the
parent subtracts its own clock reading from just before the spawn to get
set-up time).  It then runs whole rounds of the workload's commands
through ``momenta_node.cli.main``, one command at a time, each round in
its own directory, until the next round would overrun the run length.

With ``--trace 1`` the first half of the run is untraced and the rest is
traced, so the tracing overhead is measured in the same process.  The
result (and the spans, when traced) are written as JSON into the run
directory.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import momenta_node.cli as cli  # noqa: E402

T_IMPORTED = time.monotonic()

from tracing import NfeCounter, Tracer  # noqa: E402
from workloads import round_ops  # noqa: E402


def run_round(index: int, ops, run_dir: str, main) -> dict:
    round_dir = os.path.join(run_dir, f"round-{index}")
    os.makedirs(round_dir)
    os.chdir(round_dir)
    try:
        codes = []
        start = time.perf_counter()
        for op in ops:
            try:
                codes.append(main(list(op.argv)))
            except Exception:  # a crash is what a user sees as exit code 1
                traceback.print_exc()
                codes.append(1)
        wall = time.perf_counter() - start
    finally:
        os.chdir(run_dir)
    return {"wall_s": wall, "codes": codes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args()

    ops = round_ops(args.workload, args.seed)
    counter = NfeCounter()
    counter.install()
    tracer = None
    rounds = []
    # Untraced rounds fill the run, or its first half when tracing.
    phases = [(False, args.seconds / 2.0), (True, args.seconds)] if args.trace else [(False, args.seconds)]
    begin = time.perf_counter()
    for traced, until in phases:
        if traced:
            tracer = Tracer(counter)
            tracer.install()
        main_fn = tracer.span("cli.main", cli.main) if traced else cli.main
        walls = []
        while True:
            if walls:
                # Start another round only if it should end by the phase's
                # end plus half a round.
                est = statistics.median(walls)
                if time.perf_counter() - begin + est > until + est / 2.0:
                    break
            if tracer is not None:
                tracer.round = len(rounds)
            nfe_before = counter.nfe
            rec = run_round(len(rounds), ops, args.run_dir, main_fn)
            rec.update(traced=traced, nfe=counter.nfe - nfe_before)
            rounds.append(rec)
            walls.append(rec["wall_s"])

    result = {
        "t_imported": T_IMPORTED,
        "cli_import_s": T_IMPORTED - T_START,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rounds": rounds,
    }
    if tracer is not None:
        tracer.write(os.path.join(args.run_dir, "spans.jsonl"))
    with open(os.path.join(args.run_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
