"""Locate the checkout this benchmark belongs to and import slmp from it.

The benchmark must measure the source tree it ships with, never an
installed copy, so ``src/`` of the checkout goes first on ``sys.path``.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit 2."""
    if not (SRC / "slmp" / "__init__.py").is_file():
        print(f"perfbench: no slmp package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
