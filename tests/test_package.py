"""Static checks of the package source."""
import argparse
import ast
import re
from functools import cache
from pathlib import Path

import pytest

import slmp
from slmp import cli
from slmp.config import ConfigError, RunConfig, echo_config, load_config

MODULES = sorted(Path(slmp.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))

# Definitions of src/slmp that only the tests reach, each with why it stays.
TEST_ONLY_KEPT = {
    "grad_check": "the finite-difference oracle of every backward",
    "com_vel": "KinFrame, the per-state oracle of Kinematics",
    "site_pos": "KinFrame, the per-state oracle of Kinematics",
    "site_vel": "KinFrame, the per-state oracle of Kinematics",
    "point_on_link": "KinFrame, the per-state oracle of Kinematics",
    "load_cloud": "reads back the point cloud that viz-sphere writes",
    "character_to_json": "writes the character file that physics.character reads",
    "frame_state": "MotionClip's per-state view; leaves together with SimState",
    "goal_frame_index": "MotionClip's per-state view; leaves together with SimState",
}


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


def test_only_the_kept_definitions_are_test_only():
    """With only ``src/`` and ``perfbench/`` counted as users, the package
    defines nothing but ``TEST_ONLY_KEPT`` that the program never names."""
    program = [t for p, t in zip(SOURCES, _sources()) if p.relative_to(ROOT).parts[0] != "tests"]
    test_only = {
        name for path in MODULES for name in unreferenced(ast.parse(path.read_text()), program)
    }
    assert test_only == set(TEST_ONLY_KEPT)


def string_holders(tree: ast.Module, text: str) -> list[str]:
    """Names of the module-level statements of ``tree`` (a definition's
    name, else ``<module>``) whose string constants, docstrings aside,
    contain ``text``."""
    docs = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    return [
        getattr(node, "name", "<module>") for node in tree.body
        if any(isinstance(n, ast.Constant) and isinstance(n.value, str) and text in n.value
               and id(n) not in docs for n in ast.walk(node))
    ]


def test_string_holder_scan_flags_only_code_strings():
    tree = ast.parse(
        '"""Writes metrics.csv."""\n'
        'NAME = "metrics.csv"\n'
        'def doc():\n    """Reads metrics.csv."""\n'
        'def code(out):\n    return out / f"{out}/metrics.csv"\n'
        'class Log:\n    def write(self):\n        open("run/metrics.csv")\n'
    )
    assert string_holders(tree, "metrics.csv") == ["<module>", "code", "Log"]


def test_metrics_csv_has_one_writer():
    """The header, rows, resume trimming and console cadence of
    ``metrics.csv`` live in ``tracking.run_stage`` alone."""
    holders = [(p.name, name) for p in MODULES
               for name in string_holders(ast.parse(p.read_text()), "metrics.csv")]
    assert holders == [("tracking.py", "run_stage")]


def test_one_rollout_collector():
    """One PPO rollout loop: only ``tracking.collect`` builds a
    ``RolloutBuffer``."""
    builders = [
        (p.name, getattr(node, "name", "<module>")) for p in MODULES
        for node in ast.parse(p.read_text()).body for n in ast.walk(node)
        if isinstance(n, ast.Call) and "RolloutBuffer" in (getattr(n.func, "id", None),
                                                           getattr(n.func, "attr", None))
    ]
    assert builders == [("tracking.py", "collect")]


PROCESS_MODULES = ("multiprocessing", "concurrent.futures")


def process_imports(tree: ast.Module) -> list[str]:
    """Modules of ``PROCESS_MODULES`` (or below them) that ``tree``
    imports anywhere, nested imports included."""
    names = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names += [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module:
            names += [n.module] + [f"{n.module}.{a.name}" for a in n.names]
    return [m for m in names if any(m == p or m.startswith(p + ".") for p in PROCESS_MODULES)]


def test_process_import_scan_flags_nested_imports():
    tree = ast.parse(
        "import os\nfrom concurrent import futures\n"
        "def f():\n    import multiprocessing as mp\n    from multiprocessing.pool import Pool\n"
    )
    assert process_imports(tree) == [
        "concurrent.futures", "multiprocessing", "multiprocessing.pool", "multiprocessing.pool.Pool",
    ]


def test_rollouts_run_in_one_process():
    """No module of the package imports a process or executor pool:
    every stage collects its rollouts in the calling process."""
    assert [(p.name, m) for p in MODULES for m in process_imports(ast.parse(p.read_text()))] == []


def range_loops(tree: ast.Module, name: str) -> list[int]:
    """Lines of the ``for ... in range(...)`` statements in the body of the
    module-level function ``name`` of ``tree``, nested ``def``s excluded."""
    fn, = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    lines, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                and getattr(node.iter.func, "id", None) == "range"):
            lines.append(node.lineno)
        todo += ast.iter_child_nodes(node)
    return sorted(lines)


def test_range_loop_scan_skips_nested_defs():
    tree = ast.parse(
        "def stage(n):\n"
        "    xs = [i for i in range(n)]\n"
        "    def update(u):\n        for i in range(u): pass\n"
        "    for x in xs:\n        for u in range(n): pass\n"
        "    for u in range(n): pass\n"
    )
    assert range_loops(tree, "stage") == [6, 7]


def test_one_stage_loop():
    """``tracking.run_stage`` is the one update loop: each training stage
    hands it an ``update`` and loops over no ``range`` of its own."""
    stages = {"tracking.py": "train_tracking", "distill.py": "train_slmp", "combat.py": "self_play_train"}
    loops = {p.name: range_loops(ast.parse(p.read_text()), stages[p.name])
             for p in MODULES if p.name in stages}
    assert loops == dict.fromkeys(stages, [])


def header_spellers(tree: ast.Module) -> list[str]:
    """Names of the module-level statements of ``tree`` that call
    ``head_value``, or that call ``write_table`` and hold a string that
    starts as a ``key=`` header line (an f-string's parts included)."""
    out = []
    for node in tree.body:
        calls = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                 for n in ast.walk(node) if isinstance(n, ast.Call)}
        spelt = any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and re.match(r"\w+=", n.value) for n in ast.walk(node))
        if calls & {"head_value", "_head_value"} or ("write_table" in calls and spelt):
            out.append(getattr(node, "name", "<module>"))
    return out


def test_header_speller_scan_flags_only_spelt_headers():
    tree = ast.parse(
        "def inline(p, n):\n    write_table(p, [f'n={n}'], rows)\n"
        "def built(p, n):\n    head = ['MAGIC', 'n=' + str(n)]\n    write_table(p, head, rows)\n"
        "def declared(p, n):\n    write_table(p, SCHEMA, {'n': n}, rows)\n"
        "def parsed(h):\n    return nets.head_value(h, 'n')\n"
        "def message(h):\n    raise ValueError(f'n={h}')\n"
    )
    assert header_spellers(tree) == ["inline", "built", "parsed"]


def test_one_header_rule():
    """``nets`` alone spells and parses table headers: no other module
    calls ``head_value`` or hands ``write_table`` header lines of its own;
    each passes its schema and a dict of values."""
    spellers = [(p.name, name) for p in MODULES if p.name != "nets.py"
                for name in header_spellers(ast.parse(p.read_text()))]
    assert spellers == []


# the layout widths ``perfbench/`` still reads under their old names
LAYOUT_ALIASES = {"proprio_dim", "track_obs_dim", "combat_obs_dim", "Goal.dim"}


def width_functions(tree: ast.Module) -> list[str]:
    """The ``*_dim`` functions that ``tree`` defines, and the calls of
    ``LAYOUT_ALIASES`` it makes, by name and line: an observation width
    that is not read off its ``physics.Layout``."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.FunctionDef) and n.name.endswith("_dim"):
            out.append(f"def {n.name}:{n.lineno}")
        elif isinstance(n, ast.Call):
            f = n.func
            name = getattr(f, "attr", None) or getattr(f, "id", None)
            owner = getattr(f, "value", None)
            if name == "dim" and "Goal" in (getattr(owner, "id", None), getattr(owner, "attr", None)):
                name = "Goal.dim"
            if name in LAYOUT_ALIASES:
                out.append(f"call {name}:{n.lineno}")
    return out


def test_width_function_scan_flags_definitions_and_alias_calls():
    tree = ast.parse(
        "def proprio_dim(spec):\n    return P.width(spec)\n"
        "def act_dim(spec): ...\n"
        "w = tr.track_obs_dim(spec) + combat_obs_dim(spec) + mo.Goal.dim(8) + Goal.dim(8)\n"
        "v = TRACK_OBS.width(spec) + spec.input_dim + dim(3)\n"
    )
    assert sorted(width_functions(tree)) == [
        "call Goal.dim:4", "call Goal.dim:4", "call combat_obs_dim:4", "call track_obs_dim:4",
        "def act_dim:3", "def proprio_dim:1",
    ]


def test_one_observation_layout():
    """Every observation width is read off its ``physics.Layout``: no
    package module defines a ``*_dim`` function, and none calls the
    aliases that ``perfbench/`` reads."""
    assert [(p.name, f) for p in MODULES for f in width_functions(ast.parse(p.read_text()))] == []


def body_part_positions(tree: ast.Module) -> list[str]:
    """Each place ``tree`` defines, imports or reads ``JOINT_NAMES``, and
    each subscript of a ``.links`` by an integer literal other than 0 (the
    root), by line: a body part found by list position, not by name."""
    out = []
    for n in ast.walk(tree):
        if "JOINT_NAMES" in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None)):
            out.append(f"JOINT_NAMES:{n.lineno}")
        elif isinstance(n, ast.Subscript) and getattr(n.value, "attr", None) == "links":
            try:
                index = ast.literal_eval(n.slice)
            except ValueError:
                continue
            if isinstance(index, int) and index != 0:
                out.append(f"links[{index}]:{n.lineno}")
    return sorted(out)


def test_body_part_scan_flags_joint_names_and_link_positions():
    tree = ast.parse(
        "JOINT_NAMES = ('hip_l',)\n"
        "j = ph.JOINT_NAMES.index('hip_l')\n"
        "leg = spec.links[5].length + spec.links[-1].length\n"
        "root, rest = spec.links[0], spec.links[1:]\n"
        "thigh = spec.links[spec.link_index['upper_leg_l']]\n"
        "from .physics import JOINT_NAMES as names\n"
    )
    assert body_part_positions(tree) == [
        "JOINT_NAMES:1", "JOINT_NAMES:2", "JOINT_NAMES:6", "links[-1]:3", "links[5]:3",
    ]


def test_body_parts_by_name():
    """The character spec is the one description of the body: no package
    module keeps a joint-name list or finds a link by its list position."""
    assert [(p.name, f) for p in MODULES for f in body_part_positions(ast.parse(p.read_text()))] == []


def test_row_helpers_take_rows():
    """Helpers below the per-state layer take rows only: no package code
    lifts a scalar or 1-D argument to rows or branches on its rank."""
    calls = [
        (p.name, node.lineno) for p in MODULES for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        and node.func.attr in ("atleast_1d", "atleast_2d", "ndim")
    ]
    assert calls == []


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
