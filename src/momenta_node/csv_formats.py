"""CSV schemas shared by the experiment runners, the CLI, and the plotter.

Four formats, all plain comma-separated text; the program writes the
first three with ``repr`` floats so a file round-trips bit-exactly and
reruns are byte-identical:

* trajectory: one ``# minimizer,<x>,<y>`` comment, a ``t,x,y,dynamics``
  header, then every sampled point of every flow (flows concatenated).
* stability: a ``t,log10_norm,model`` header, one row per grid time per
  model, then one ``# blowup_at,<t>,<model>`` trailer per model whose
  solve failed before the horizon.
* efficacy: comments defining the efficacy quotient, then an
  ``epoch,train_loss,test_accuracy,forward_nfe,backward_nfe,efficacy_fwd,efficacy_bwd``
  header with one row per recorded epoch.
* series (stability probe input, read only): a ``t,input,output`` header,
  then one row of finite values per sample, times strictly increasing.

All four readers share one table reader: blank lines are skipped, ``#``
lines are comments, the header must match exactly, and an empty body is
refused, so a mismatched file fails loudly instead of plotting garbage.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

TRAJECTORY_HEADER = ["t", "x", "y", "dynamics"]
STABILITY_HEADER = ["t", "log10_norm", "model"]
SERIES_HEADER = ["t", "input", "output"]
EFFICACY_HEADER = [
    "epoch",
    "train_loss",
    "test_accuracy",
    "forward_nfe",
    "backward_nfe",
    "efficacy_fwd",
    "efficacy_bwd",
]

EFFICACY_COMMENT = (
    "# efficacy_fwd = test_accuracy / (mean forward NFE per solve within the epoch); "
    "efficacy_bwd uses the mean backward NFE and is 0 for epoch 0, which runs no "
    "backward solves"
)


class CsvFormatError(ValueError):
    """The file does not match the expected schema; ``line`` is the
    1-based line at fault, or None when the file as a whole is."""

    def __init__(self, message: str, line: int | None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


# The stand-ins ``errors="surrogateescape"`` decodes bytes that are not
# UTF-8 to; an ASCII line, as the program writes them, cannot hold one.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _fmt(x) -> str:
    return repr(float(x))


def _parse_table(path, header, n_numeric):
    """Read one CSV table: ``(comments, rows)``; raises CsvFormatError.

    Blank lines are skipped.  ``comments`` holds ``(lineno, fields)`` for
    each ``#`` line, its text split on commas.  The first other line must
    equal ``header`` and at least one row must follow; every row needs
    ``len(header)`` fields whose first ``n_numeric`` parse as floats.
    ``rows`` holds ``(lineno, numbers, rest)`` per row.  A missing header
    or body is reported at the line after the last, and text that is not
    UTF-8 at the line of its first bad byte.
    """
    comments, rows, found = [], [], None
    lineno = 0
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and _UNDECODED.search(line):
                raise CsvFormatError("not UTF-8 text", lineno)
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                comments.append((lineno, line[1:].strip().split(",")))
                continue
            row = next(csv.reader([line]))
            if found is None:
                found = row
                if found != header:
                    raise CsvFormatError(
                        f"expected header {','.join(header)!r}, got {','.join(found)!r}", lineno
                    )
                continue
            if len(row) != len(header):
                raise CsvFormatError(f"expected {len(header)} fields, got {len(row)}", lineno)
            try:
                numbers = [float(value) for value in row[:n_numeric]]
            except ValueError as exc:
                raise CsvFormatError("non-numeric value", lineno) from exc
            rows.append((lineno, numbers, row[n_numeric:]))
    if found is None:
        raise CsvFormatError("no header row found", lineno + 1)
    if not rows:
        raise CsvFormatError("no data rows", lineno + 1)
    return comments, rows


# ----------------------------------------------------------------- trajectory

def write_trajectory_csv(path, experiment) -> None:
    """Serialize a trajectory experiment (see ``benchmarks.trajectories``)."""
    mx, my = experiment.landscape.minimizer
    with open(path, "w", newline="") as fh:
        fh.write(f"# minimizer,{_fmt(mx)},{_fmt(my)}\n")
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_HEADER)
        for name, run in experiment.runs.items():
            for t, (x, y) in zip(run.ts.tolist(), run.xs.tolist()):
                writer.writerow([_fmt(t), _fmt(x), _fmt(y), name])


def read_trajectory_csv(path):
    """Returns ``(minimizer, {dynamics: (ts, xs)})``; raises CsvFormatError."""
    comments, rows = _parse_table(path, TRAJECTORY_HEADER, 3)
    minimizer = None
    for lineno, parts in comments:
        if parts[0].strip() == "minimizer":
            try:
                mx, my = (float(v) for v in parts[1:])
            except ValueError:
                raise CsvFormatError("malformed minimizer comment", lineno) from None
            minimizer = np.array([mx, my])
    if minimizer is None:
        raise CsvFormatError("missing '# minimizer' comment", None)
    series: dict[str, list] = {}
    for _, numbers, (name,) in rows:
        series.setdefault(name, []).append(numbers)
    out = {}
    for name, pts in series.items():
        arr = np.asarray(pts)
        out[name] = (arr[:, 0], arr[:, 1:])
    return minimizer, out


# ------------------------------------------------------------------ stability

def write_stability_csv(path, result) -> None:
    """Serialize a stability probe result (see ``benchmarks.stability``)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STABILITY_HEADER)
        for name in result.log10_norms:
            for t, v in zip(result.grid, result.log10_norms[name]):
                writer.writerow([_fmt(t), _fmt(v), name])
        for name, t_blow in result.blowup_at.items():
            fh.write(f"# blowup_at,{_fmt(t_blow)},{name}\n")


def read_stability_csv(path):
    """Returns ``({model: (ts, log10_norms)}, {model: blowup_t})``."""
    comments, rows = _parse_table(path, STABILITY_HEADER, 2)
    blowups = {}
    for lineno, parts in comments:
        if parts[0].strip() == "blowup_at":
            try:
                _, t_blow, name = parts
                blowups[name] = float(t_blow)
            except ValueError:
                raise CsvFormatError("malformed blowup_at comment", lineno) from None
    series: dict[str, list] = {}
    for _, numbers, (name,) in rows:
        series.setdefault(name, []).append(numbers)
    out = {name: (np.asarray(p)[:, 0], np.asarray(p)[:, 1]) for name, p in series.items()}
    return out, blowups


# ------------------------------------------------------------------- efficacy

def write_efficacy_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(EFFICACY_COMMENT + "\n")
        writer = csv.writer(fh)
        writer.writerow(EFFICACY_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.epoch,
                    _fmt(r.train_loss),
                    _fmt(r.test_accuracy),
                    r.forward_nfe,
                    r.backward_nfe,
                    _fmt(r.efficacy_fwd),
                    _fmt(r.efficacy_bwd),
                ]
            )


def read_efficacy_csv(path):
    """Returns a dict of column arrays keyed by the header names."""
    _, rows = _parse_table(path, EFFICACY_HEADER, len(EFFICACY_HEADER))
    table = np.asarray([numbers for _, numbers, _ in rows])
    out = {}
    for i, name in enumerate(EFFICACY_HEADER):
        arr = table[:, i]
        if name in ("epoch", "forward_nfe", "backward_nfe"):
            arr = arr.astype(int)
        out[name] = arr
    return out


# --------------------------------------------------------------------- series

def read_series_csv(path):
    """Returns ``(ts, inputs, outputs)`` arrays; raises CsvFormatError.

    Every value must be finite and the times strictly increasing.
    """
    _, rows = _parse_table(path, SERIES_HEADER, 3)
    prev = None
    for lineno, numbers, _ in rows:
        if not all(map(math.isfinite, numbers)):
            raise CsvFormatError("non-finite value", lineno)
        if prev is not None and numbers[0] <= prev:
            raise CsvFormatError(f"time {numbers[0]!r} does not increase past {prev!r}", lineno)
        prev = numbers[0]
    table = np.asarray([numbers for _, numbers, _ in rows])
    return table[:, 0], table[:, 1], table[:, 2]
