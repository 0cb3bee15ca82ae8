"""Bundled example fans.

The standard corpus (projective spaces, Hirzebruch surfaces, the weighted
plane P(1,1,2) and a few products) is read from the fan documents under
data/, the same files the CLI can be run on.
"""

from __future__ import annotations

import json
import pathlib

from .fan import Fan

_DATA = pathlib.Path(__file__).resolve().parent / "data"


def corpus() -> dict:
    """File stem -> a fresh Fan for every bundled document, sorted by name."""
    fans = {}
    for path in sorted(_DATA.glob("*.fan")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        fans[path.stem] = Fan(doc["rank"], doc["rays"], doc["max_cones"])
    return fans
