"""A ceiling on the program's settable options.

A settable option is a function parameter with a default or a dataclass
field with a default, counted over ``src/`` by AST.  Each one is a knob a
caller may turn, so the count only goes up on purpose: a change that adds
an option raises :data:`MAX_OPTIONS` and says why in CHANGES.md.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MAX_OPTIONS = 20


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count_options(tree: ast.AST) -> int:
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            n += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return n


def test_counter_counts_defaults_and_dataclass_fields():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c, d=2): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "class B:\n"
        "    z: int = 0\n"
    )
    assert count_options(tree) == 4


def test_settable_options_stay_under_the_ceiling():
    files = sorted(SRC.rglob("*.py"))
    assert files
    total = sum(count_options(ast.parse(p.read_text())) for p in files)
    assert total <= MAX_OPTIONS, f"{total} settable options in src/, ceiling {MAX_OPTIONS}"
