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

The three writers share one row writer, and all four readers one table
reader: blank lines are skipped, ``#`` lines are comments, the header must
match exactly, an empty body is refused, and so is a non-finite value in
the first column (the ``t`` or ``epoch`` axis), so a mismatched file fails
loudly instead of plotting garbage.  Other columns may hold ``nan`` and
``inf``, which plots leave out.  A ``dynamics`` or ``model`` name becomes
an SVG label, so one holding a character XML 1.0 forbids is refused.
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
# The characters XML 1.0 forbids, which a series name, drawn as an SVG
# label, must not hold; it holds no surrogate, which is not UTF-8 text.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _fmt(x) -> str:
    return repr(float(x))


def _parse_table(path, header, n_numeric):
    """Read one CSV table: ``(comments, rows)``; raises CsvFormatError.

    Blank lines are skipped.  ``comments`` holds ``(lineno, fields)`` for
    each ``#`` line, its text split on commas.  The first other line must
    equal ``header`` and at least one row must follow; every row needs
    ``len(header)`` fields whose first ``n_numeric`` parse as floats, the
    first of them finite.  ``rows`` holds ``(lineno, numbers, rest)`` per
    row.  A missing header or body is reported at the line after the last,
    and text that is not UTF-8 at the line of its first bad byte.
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
            if not math.isfinite(numbers[0]):
                raise CsvFormatError(f"non-finite {header[0]}", lineno)
            rows.append((lineno, numbers, row[n_numeric:]))
    if found is None:
        raise CsvFormatError("no header row found", lineno + 1)
    if not rows:
        raise CsvFormatError("no data rows", lineno + 1)
    return comments, rows


def _write_table(path, before, header, columns, after) -> None:
    """Write ``header`` and a row per entry of the equal-length ``columns``
    to ``path`` as CSV, with the ``#`` lines ``before`` above them and
    ``after`` below.  A numpy column is written through ``tolist()``, so
    each float reaches ``csv`` as a Python float, which it writes as its
    ``repr``; a list column (of names) is written as it is."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in before)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
        fh.writelines(line + "\n" for line in after)


def _keyed_comments(comments, key, n_numbers, n_names) -> list:
    """``(numbers, names)`` of each ``# key,...`` comment, in file order:
    ``n_numbers`` finite floats, then ``n_names`` strings; raises
    CsvFormatError on any other such comment."""
    out = []
    for lineno, parts in comments:
        if parts[0].strip() != key:
            continue
        try:
            if len(parts) != 1 + n_numbers + n_names:
                raise ValueError
            numbers = [float(v) for v in parts[1 : 1 + n_numbers]]
        except ValueError:
            raise CsvFormatError(f"malformed {key} comment", lineno) from None
        if not all(map(math.isfinite, numbers)):
            raise CsvFormatError(f"malformed {key} comment: not finite", lineno)
        out.append((numbers, parts[1 + n_numbers :]))
    return out


def _by_name(rows) -> dict:
    """Rows whose one non-numeric cell names their series, grouped:
    ``{name: array of the rows' numbers}``; a name holding a character
    XML 1.0 forbids raises CsvFormatError at its line."""
    series: dict[str, list] = {}
    for lineno, numbers, (name,) in rows:
        if _XML_FORBIDDEN.search(name):
            raise CsvFormatError(f"name {name!r} holds a character XML 1.0 forbids", lineno)
        series.setdefault(name, []).append(numbers)
    return {name: np.asarray(pts) for name, pts in series.items()}


# ----------------------------------------------------------------- trajectory

def write_trajectory_csv(path, experiment) -> None:
    """Serialize a trajectory experiment (see ``benchmarks.trajectories``)."""
    mx, my = experiment.landscape.minimizer
    runs = experiment.runs
    xs = np.concatenate([run.xs for run in runs.values()])
    names = [name for name, run in runs.items() for _ in range(len(run.ts))]
    columns = [np.concatenate([run.ts for run in runs.values()]), xs[:, 0], xs[:, 1], names]
    _write_table(path, [f"# minimizer,{_fmt(mx)},{_fmt(my)}"], TRAJECTORY_HEADER, columns, [])


def read_trajectory_csv(path):
    """Returns ``(minimizer, {dynamics: (ts, xs)})``; raises CsvFormatError."""
    comments, rows = _parse_table(path, TRAJECTORY_HEADER, 3)
    minimizers = _keyed_comments(comments, "minimizer", 2, 0)
    if not minimizers:
        raise CsvFormatError("missing '# minimizer' comment", None)
    series = _by_name(rows)
    return np.array(minimizers[-1][0]), {name: (arr[:, 0], arr[:, 1:]) for name, arr in series.items()}


# ------------------------------------------------------------------ stability

def write_stability_csv(path, result) -> None:
    """Serialize a stability probe result (see ``benchmarks.stability``)."""
    curves = result.log10_norms
    names = [name for name in curves for _ in range(len(result.grid))]
    columns = [np.tile(result.grid, len(curves)), np.concatenate(list(curves.values())), names]
    after = [f"# blowup_at,{_fmt(t_blow)},{name}" for name, t_blow in result.blowup_at.items()]
    _write_table(path, [], STABILITY_HEADER, columns, after)


def read_stability_csv(path):
    """Returns ``({model: (ts, log10_norms)}, {model: blowup_t})``."""
    comments, rows = _parse_table(path, STABILITY_HEADER, 2)
    blowups = {name: t_blow for (t_blow,), (name,) in _keyed_comments(comments, "blowup_at", 1, 1)}
    return {name: (arr[:, 0], arr[:, 1]) for name, arr in _by_name(rows).items()}, blowups


# ------------------------------------------------------------------- efficacy

def write_efficacy_csv(path, records) -> None:
    columns = [np.array([getattr(r, name) for r in records]) for name in EFFICACY_HEADER]
    _write_table(path, [EFFICACY_COMMENT], EFFICACY_HEADER, columns, [])


def read_efficacy_csv(path):
    """Returns a dict of column arrays keyed by the header names; the
    ``epoch`` and NFE columns must hold whole numbers, read as int64."""
    _, rows = _parse_table(path, EFFICACY_HEADER, len(EFFICACY_HEADER))
    out = dict(zip(EFFICACY_HEADER, np.asarray([numbers for _, numbers, _ in rows]).T))
    for name in ("epoch", "forward_nfe", "backward_nfe"):
        whole = (np.abs(out[name]) < 2.0**63) & (np.floor(out[name]) == out[name])
        if not whole.all():
            raise CsvFormatError(f"{name} is not a whole number below 2**63", rows[np.argmin(whole)][0])
        out[name] = out[name].astype(int)
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
