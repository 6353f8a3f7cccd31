"""Static checks of the package source."""
import ast
from pathlib import Path

import pytest

import slmp

MODULES = sorted(Path(slmp.__file__).parent.glob("*.py"))


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
