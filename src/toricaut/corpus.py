"""Bundled example fans.

Builders for the standard corpus: projective spaces, Hirzebruch surfaces,
the weighted plane P(1,1,2) and a few products.  The same fans ship as
fan documents under data/ so the CLI can be exercised without writing
files by hand.
"""

from __future__ import annotations

from .fan import Fan, product_fan


def p1() -> Fan:
    return Fan(1, [(1,), (-1,)], [(0,), (1,)])


def p2() -> Fan:
    return Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


def p3() -> Fan:
    return Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
               [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def hirzebruch(a: int) -> Fan:
    """The Hirzebruch surface F_a; F_0 is P1 x P1."""
    if a < 0:
        raise ValueError("Hirzebruch parameter must be non-negative")
    return Fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)],
               [(0, 1), (1, 2), (2, 3), (3, 0)])


def weighted_p112() -> Fan:
    return Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])


def corpus() -> dict:
    """Name -> fan for every bundled example."""
    fans = {
        "P1": p1(),
        "P2": p2(),
        "P3": p3(),
        "P1xP1": product_fan(p1(), p1()),
        "F0": hirzebruch(0),
        "F1": hirzebruch(1),
        "F2": hirzebruch(2),
        "F3": hirzebruch(3),
        "P112": weighted_p112(),
        "P1xP2": product_fan(p1(), p2()),
        "P1xP1xP1": product_fan(product_fan(p1(), p1()), p1()),
        "P2xP2": product_fan(p2(), p2()),
    }
    return fans
