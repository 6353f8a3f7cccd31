"""Deterministic seed fan-out: one master seed, per-component streams."""
from __future__ import annotations

import hashlib

import numpy as np


def seed_for(master: int, label: str) -> int:
    """Derive a child seed from (master, label) via a fixed hash schedule."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


def rngs(master: int, label: str, n: int) -> list[np.random.Generator]:
    """One generator per index i < n, seeded from (master, f"{label}-{i}")."""
    return [np.random.default_rng(seed_for(master, f"{label}-{i}")) for i in range(n)]
