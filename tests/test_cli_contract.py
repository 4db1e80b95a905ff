"""The exit-code contract over drawn inputs, not only the listed ones.

The first two tests draw a command and its keys from ``cli.PARAMS``, the
one table of each command's parameters.  An invalid value, given through
``--config`` and, where a flag can carry it, as the flag, must exit 2 and
write nothing.  Valid values at small sizes must exit 0, 1, 3 or 4; every
CSV written must read back through its reader, every SVG parse as XML and
every JSON file be strict JSON, and ``plot`` must redraw every CSV.  The
third edits the cells and lines of program-written CSVs and a probe series
and feeds them to the four readers: each must exit 0 with an SVG whose
every number is finite, or 2 writing nothing.

The examples are derandomized and bounded in number; the three tests take
about 5 s together on 2 CPUs, within a budget of 15 s.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from momenta_node import cli, csv_formats

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, Phase, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# No shrinking: a failing example is reported as drawn, so a failure costs
# no more runs than a pass.
SETTINGS = dict(deadline=None, derandomize=True, database=None, phases=(Phase.explicit, Phase.generate),
                suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])

INTEGER_RULES = ("count", "natural")


def _finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _valid(rule, value) -> bool:
    """Whether ``rule`` admits ``value``, written apart from the CLI's checks."""
    if isinstance(rule, tuple):
        return isinstance(value, str) and value in rule
    if isinstance(rule, range):
        return isinstance(value, int) and not isinstance(value, bool) and rule.start <= value < rule.stop
    if rule == "string":
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if not (isinstance(value, int) if rule in INTEGER_RULES else _finite(value)):
        return False
    return value > 0 if rule in ("count", "positive") else value >= 0


def _flag_valid(rule, text: str) -> bool:
    """Whether ``--key=text`` passes: the flag parses ``text`` as its rule's
    type, and an unparsable value is refused too."""
    if isinstance(rule, tuple) or rule == "string":
        return _valid(rule, text)
    try:
        value = (int if isinstance(rule, range) or rule in INTEGER_RULES else float)(text)
    except ValueError:
        return False
    return _valid(rule, value)


# Keys their command parses itself, and values each must refuse.
OWN_PARSING = {
    "x0": [5, True, 1.5, "oops", "1", "1,2,3", "a,b", [1.0], [1.0, "a"], [math.nan, 0.0], [0.0, math.inf]],
    "models": [5, None, True, [], "nope", ",", "node,nope"],
}

RULED = [(cmd, key) for cmd, rows in cli.PARAMS.items() for key, _, rule, _ in rows if rule is not None]
OWN = [(cmd, key) for cmd, rows in cli.PARAMS.items() for key, _, rule, _ in rows if rule is None]
assert {key for _, key in OWN} == set(OWN_PARSING)

# Wrong type, null, bool, fraction, NaN, +-inf, 0, negative, unknown name,
# and a JSON integer beyond every float; then integers above each ceiling
# a range rule sets, and anything of those types.
SPECIAL = ["x", "nope", "", None, True, False, [], {"a": 1}, 1.5, -1.5, 0, -1, 0.0, -0.0,
           math.nan, math.inf, -math.inf, 10**400, -(10**400)]
CEILINGS = sorted({rule.stop for rows in cli.PARAMS.values() for _, _, rule, _ in rows if isinstance(rule, range)})
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    *[st.integers(min_value=stop, max_value=stop + 1000) for stop in CEILINGS],
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)

# A valid trajectory CSV for plot's --in when another plot key is drawn.
TRAJECTORY_CSV = "# minimizer,1.0,1.0\nt,x,y,dynamics\n0.0,0.0,0.0,ode\n1.0,0.5,0.25,ode\n"
PLOT_FLAGS = {"in": "tr.csv", "kind": "trajectory", "out": "plot/out.svg"}


@contextlib.contextmanager
def _fresh_dir():
    """A new empty working directory for one example."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(old)


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _refused(argv, inputs):
    code, err = _run(argv)
    assert code == 2, (argv, err)
    assert "error:" in err, (argv, err)
    assert sorted(os.listdir()) == sorted(inputs), argv


def _other_flags(command, key):
    flags = PLOT_FLAGS if command == "plot" else {"out": "out"}
    return [f"--{flag}={value}" for flag, value in flags.items() if flag != key]


def _rule(command, key):
    return next(rule for k, _, rule, _ in cli.PARAMS[command] if k == key)


@settings(max_examples=300, **SETTINGS)
@given(case=st.sampled_from(RULED + OWN), value=VALUES, pick=st.integers(0, 100))
@example(case=("trajectory", "T"), value=10**400, pick=0)
@example(case=("gradcheck", "d"), value=10**400, pick=0)
@example(case=("gradcheck", "d"), value=33, pick=0)
@example(case=("train", "epochs"), value=1001, pick=0)
@example(case=("train", "batch"), value=205, pick=0)
@example(case=("stability", "d"), value=257, pick=0)
def test_invalid_value_exits_2_and_writes_nothing(case, value, pick):
    command, key = case
    rule = _rule(command, key)
    if rule is None:
        value = OWN_PARSING[key][pick % len(OWN_PARSING[key])]
    else:
        assume(not _valid(rule, value))
    with _fresh_dir():
        inputs = ["cfg.json"]
        if command == "plot":
            inputs.append("tr.csv")
            Path("tr.csv").write_text(TRAJECTORY_CSV)
        # json writes NaN and Infinity, which the config loader accepts.
        Path("cfg.json").write_text(json.dumps({key: value}))
        _refused([command, "--config", "cfg.json", *_other_flags(command, key)], inputs)
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            text = str(value)
            if rule is None or not _flag_valid(rule, text):
                flag = f"--{key.replace('_', '-')}={text}"
                _refused([command, flag, *_other_flags(command, key)], inputs)


def _reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _log_reals(lo_exp, hi_exp):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda e: 10.0**e)


# Small sizes of every key of every command but plot, which redraws what
# these write.  The keys in SIZES are always drawn, so no run takes a
# default horizon or epoch count; each other key keeps its default or not.
SIZES = {"T", "t1", "epochs"}
VALID = {
    "trajectory": {
        "landscape": st.sampled_from(_rule("trajectory", "landscape")),
        "x0": st.lists(_reals(-1.4, 1.4), min_size=2, max_size=2),
        "T": _reals(1e-3, 1.0),
        "method": st.sampled_from(_rule("trajectory", "method")),
        "step": _log_reals(-3, 0),
        "rtol": _log_reals(-10, -2),
        "atol": _log_reals(-10, -2),
    },
    "stability": {
        "t1": _reals(1e-2, 2.0),
        "models": st.just("all") | st.lists(st.sampled_from(_rule("train", "model")), min_size=1,
                                            max_size=3, unique=True).map(",".join),
        "d": st.integers(1, 16),
        "seed": st.integers(0, 2**32),
        "rtol": _log_reals(-8, -2),
        "atol": _log_reals(-8, -2),
    },
    "train": {
        "dataset": st.sampled_from(_rule("train", "dataset")),
        "model": st.sampled_from(_rule("train", "model")),
        "epochs": st.integers(0, 1),
        "lr": _log_reals(-4, 6),
        "batch": st.integers(8, 204),
        "seed": st.integers(0, 1000),
        "rtol": _log_reals(-6, -2),
        "atol": _log_reals(-8, -2),
    },
    "gradcheck": {
        "model": st.sampled_from(_rule("gradcheck", "model")),
        "seed": st.integers(0, 1000),
        "tol": _reals(0.0, 1.0),
        "d": st.integers(1, 4),
        "t1": _reals(1e-2, 4.0),
        "delta": _log_reals(-8, -1),
        "solver_tol": _log_reals(-12, -3),
    },
}

READERS = {
    "trajectory.csv": ("trajectory", csv_formats.read_trajectory_csv),
    "stability.csv": ("stability", csv_formats.read_stability_csv),
    "efficacy.csv": ("efficacy", csv_formats.read_efficacy_csv),
}


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token} in {path}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def _check_files(root: Path):
    """Every file under ``root`` is valid in its format; returns the CSVs."""
    csvs = []
    for path in sorted(root.rglob("*")):
        if path.suffix == ".csv":
            READERS[path.name][1](path)
            csvs.append(path)
        elif path.suffix == ".svg":
            ET.parse(path)
        elif path.suffix == ".json":
            _strict_json(path)
    return csvs


@settings(max_examples=40, **SETTINGS)
@given(command=st.sampled_from(sorted(VALID)), data=st.data())
def test_valid_small_runs_exit_in_contract_and_write_valid_files(command, data):
    drawn = {key: data.draw(strategy, label=key)
             for key, strategy in VALID[command].items()
             if key in SIZES or data.draw(st.booleans(), label=f"set {key}")}
    via_flag = {key for key in drawn if data.draw(st.booleans(), label=f"{key} as flag")}
    with _fresh_dir():
        Path("cfg.json").write_text(json.dumps({k: v for k, v in drawn.items() if k not in via_flag}))
        argv = [command, "--config", "cfg.json", "--out", "out"]
        for key in via_flag:
            value = drawn[key]
            text = ",".join(map(repr, value)) if isinstance(value, list) else str(value)
            argv.append(f"--{key.replace('_', '-')}={text}")
        code, err = _run(argv)
        assert code in (0, 1, 3, 4), (argv, err)
        for i, csv_path in enumerate(_check_files(Path("out"))):
            kind = READERS[csv_path.name][0]
            replot = ["plot", "--in", str(csv_path), "--kind", kind, "--out", f"replot/{i}.svg"]
            code, err = _run(replot)
            assert code in (0, 1, 3, 4), (replot, err)
        if Path("replot").exists():
            _check_files(Path("replot"))


# ------------------------------------------------------- edited program CSVs

# Cells drawn into the files below: non-finite, huge, tiny, signed and
# padded numbers, integers about 2**63, spellings float() may or may not
# take, an empty cell, quotes, an embedded comma and stray names; then
# names built from characters XML needs escaped and those XML 1.0 forbids.
EDGE_CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e400", "5e-324", "-5e-324", "2.2e-308", "-0.0", "0",
              str(2**63 - 1), str(2**63), str(2**63 + 1), "1.5", " 1.0", "1.0 ", "+1", "-1", "0x10", "1_000",
              "\u0661", "", "\x00", '"', '""', '"1,0"', "1,0", "node", "adamnode", "ode", "minimizer",
              "blowup_at", "# minimizer", "t"]
XML_FORBIDDEN = [chr(c) for c in (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF)]
CELLS = st.sampled_from(EDGE_CELLS) | st.text(
    st.sampled_from(list("ode1 .<&]>\"\u2028\r\n") + XML_FORBIDDEN), min_size=1, max_size=4)
# Drop line i, duplicate it, or swap it with line j.
LINE_EDITS = st.tuples(st.sampled_from(["drop", "dup", "swap"]), st.integers(0, 99), st.integers(0, 99))
ROWS_PER_SERIES = 3


def _few_rows(text: str) -> str:
    """``text`` with at most ROWS_PER_SERIES data rows per series (the
    rows sharing a last cell); comments and the header are kept."""
    kept, seen, header = [], {}, False
    for line in text.splitlines():
        if not line.startswith("#"):
            if header:
                key = line.rsplit(",", 1)[-1]
                seen[key] = seen.get(key, 0) + 1
                if seen[key] > ROWS_PER_SERIES:
                    continue
            header = True
        kept.append(line)
    return "\n".join(kept) + "\n"


@pytest.fixture(scope="module")
def program_csvs(tmp_path_factory):
    """Few-row CSVs for each reader, ``{reader: [text, ...]}``: the program's
    trajectory, stability (one run with finite curves, one whose huge probe
    blows every model up at once) and efficacy files, and a probe series."""
    root = tmp_path_factory.mktemp("program_csvs")
    (root / "huge.csv").write_text("t,input,output\n" + "".join(f"{i!r},0.0,1e308\n" for i in range(4)))
    runs = {
        "trajectory": ["trajectory", "--T", "0.01"],
        "stability": ["stability", "--t1", "2", "--models", "node,adamnode"],
        "blowup": ["stability", "--t1", "2", "--models", "node,adamnode", f"--probe=csv:{root / 'huge.csv'}"],
        "efficacy": ["train", "--epochs", "2"],
    }
    for name, argv in runs.items():
        assert _run([*argv, "--out", str(root / name)])[0] == 0
    read = {name: _few_rows(next((root / name).glob("*.csv")).read_text()) for name in runs}
    series = "t,input,output\n0.0,0.0,0.5\n1.0,0.0,-0.25\n2.0,0.0,1.0\n"
    return {"trajectory": [read["trajectory"]], "stability": [read["stability"], read["blowup"]],
            "efficacy": [read["efficacy"]], "series": [series]}


def _edit(text: str, line_edits, cell_edits) -> str:
    lines = text.splitlines()
    for op, i, j in line_edits:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
    for row, col, value in cell_edits:
        if lines:
            cells = lines[row % len(lines)].split(",")
            cells[col % len(cells)] = value
            lines[row % len(lines)] = ",".join(cells)
    return "".join(line + "\n" for line in lines)


def _finite_attributes(svg_path: Path) -> bool:
    """Whether every number in the SVG's attributes is finite; raises if it is not XML."""
    for element in ET.parse(svg_path).iter():
        for value in element.attrib.values():
            for token in value.replace(",", " ").replace("(", " ").replace(")", " ").split():
                try:
                    number = float(token)
                except ValueError:
                    continue
                if not math.isfinite(number):
                    return False
    return True


@settings(max_examples=150, **SETTINGS)
@given(reader=st.sampled_from(["trajectory", "stability", "efficacy", "series"]), pick=st.integers(0, 1),
       line_edits=st.lists(LINE_EDITS, max_size=3), cell_edits=st.lists(st.tuples(
           st.integers(0, 99), st.integers(0, 9), CELLS), max_size=2))
@example(reader="trajectory", pick=0, line_edits=[], cell_edits=[(2, 3, "od\x01e")])
@example(reader="stability", pick=1, line_edits=[], cell_edits=[(1, 2, "\ufffe")])
@example(reader="trajectory", pick=0, line_edits=[], cell_edits=[(2, 3, "lone"), (2, 1, "nan")])
def test_edited_program_csvs_redraw_as_well_formed_svg_or_exit_2(program_csvs, reader, pick, line_edits,
                                                                   cell_edits):
    seeds = program_csvs[reader]
    text = _edit(seeds[pick % len(seeds)], line_edits, cell_edits)
    with _fresh_dir():
        Path("in.csv").write_text(text, encoding="utf-8")
        if reader == "series":
            argv = ["stability", "--t1", "0.5", "--models", "node", "--d", "1", "--probe=csv:in.csv", "--out", "out"]
            svg_path = Path("out/stability.svg")
        else:
            argv = ["plot", "--in", "in.csv", "--kind", reader, "--out", "out/x.svg"]
            svg_path = Path("out/x.svg")
        code, err = _run(argv)
        assert code in (0, 2), (text, err)
        if code == 0:
            assert _finite_attributes(svg_path), text
        else:
            assert os.listdir() == ["in.csv"], text
