"""Static checks of the package source."""
import argparse
import ast
from functools import cache
from pathlib import Path

import pytest

import slmp
from slmp import cli
from slmp.config import ConfigError, RunConfig, echo_config, load_config

MODULES = sorted(Path(slmp.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of ``tree`` that no other
    code of the module references."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_import_scan_flags_only_dead_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom . import nets\n"
        "from dataclasses import dataclass, field\n"
        "def f(x: np.ndarray) -> int:\n    return os.path.sep\n"
    )
    assert unused_imports(tree) == ["nets", "dataclass", "field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def definitions(tree: ast.Module) -> list[str]:
    """Names of the functions, classes and methods ``tree`` defines at any
    depth, dunders excepted."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        n.name for n in ast.walk(tree)
        if isinstance(n, kinds) and not (n.name.startswith("__") and n.name.endswith("__"))
    ]


def references(tree: ast.Module) -> set[str]:
    """Every name ``tree`` mentions: variable names, attribute names,
    imported names and string constants (a tracer wraps attributes by
    their name as a string)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unreferenced(tree: ast.Module, using: list[ast.Module]) -> list[str]:
    """Definitions of ``tree`` whose names no module of ``using`` mentions."""
    used = set().union(*(references(t) for t in using))
    return [name for name in definitions(tree) if name not in used]


@cache
def _sources() -> tuple[ast.Module, ...]:
    return tuple(ast.parse(p.read_text()) for p in SOURCES)


def test_unreferenced_definition_scan_flags_only_dead_names():
    tree = ast.parse(
        "class Used:\n"
        "    def __init__(self): ...\n"
        "    def method(self): ...\n"
        "    def dead_method(self): ...\n"
        "def by_string(): ...\n"
        "def imported(): ...\n"
        "def dead(): ...\n"
    )
    using = ast.parse("from m import imported\nUsed().method()\nwrap(Used, 'by_string')\n")
    assert sorted(unreferenced(tree, [tree, using])) == ["dead", "dead_method"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_definitions(path):
    assert unreferenced(ast.parse(path.read_text()), list(_sources())) == []


def option_keys() -> list[tuple[str, str]]:
    """(subcommand, dest) of every option of ``cli.build_parser()`` that
    sets a config key: a dotted ``dest``, or ``seed``."""
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, a.dest) for name, p in sub.choices.items() for a in p._actions
        if "." in a.dest or a.dest == "seed"
    ]


OPTION_KEYS = option_keys()


@pytest.mark.parametrize("command, key", OPTION_KEYS, ids=[f"{c}/{k}" for c, k in OPTION_KEYS])
def test_option_dest_is_a_config_key(command, key):
    """The loader takes every option key, here at its default text, so a
    misspelled ``dest`` fails at test time."""
    defaults = dict(line.split(" = ", 1) for line in echo_config(RunConfig()).splitlines())
    assert key in defaults
    assert load_config(None, {key: defaults[key]}) == RunConfig()


def test_option_key_scan_sees_every_subcommand():
    assert {command for command, _ in OPTION_KEYS} == set(cli.COMMANDS)
    with pytest.raises(ConfigError, match="unknown key 'eval.cluster'"):
        load_config(None, {"eval.cluster": "6"})
