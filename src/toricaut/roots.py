"""Demazure roots of a complete fan.

A root is a vector e in M pairing to -1 with exactly one ray and
non-negatively with all others.  For a complete fan the rays positively
span N_R, so each per-ray constraint system is a bounded polytope; we
compute exact per-coordinate bounds by Fourier-Motzkin projection, then
enumerate the integer box and filter by the definition.  Completeness is a
hard precondition: without it the root set may be infinite and the
operation refuses to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Optional, Sequence

from .fan import Fan, IncompleteFanError, is_complete, product_rays
from .lattice import Vec, pairing, vec, vec_neg

# An inequality row (a, c) means <a, x> >= c.
_Row = tuple


@dataclass(frozen=True)
class DemazureRoot:
    """A root vector e in M with the index of its distinguished ray."""

    e: Vec
    rho_e: int

    def sort_key(self):
        return (self.rho_e, self.e)


@dataclass(frozen=True)
class RootPolytope:
    """Constraint system of the roots attached to one ray.

    equality: <ray, e> = -1 for the distinguished ray; inequalities:
    <ray', e> >= 0 for every other ray.  Bounded whenever the fan is
    complete.
    """

    ray_index: int
    equality: _Row
    inequalities: tuple

    @classmethod
    def for_ray(cls, fan: Fan, j: int) -> "RootPolytope":
        rho = fan.rays[j]
        ineqs = tuple((fan.rays[i], 0) for i in range(len(fan.rays)) if i != j)
        return cls(ray_index=j, equality=(rho, -1), inequalities=ineqs)

    def rows(self) -> list:
        a, c = self.equality
        return [(a, c), (vec_neg(a), -c)] + list(self.inequalities)

    def integer_box(self, rank: int) -> Optional[list]:
        """Per-coordinate integer ranges containing all solutions.

        None if some coordinate's range holds no integer, in particular
        if the rational relaxation is infeasible.  Raises
        IncompleteFanError if some coordinate is unbounded, which cannot
        happen over a complete fan.
        """
        rows = [_normalize_row(a, c) for a, c in self.rows()]
        box = []
        for k in range(rank):
            interval = _coordinate_interval(rows, k, rank)
            if interval is None:
                return None
            lo, hi = interval
            box.append(range(lo, hi + 1))
        return box


def _normalize_row(a: Sequence[int], c: int) -> _Row:
    a = vec(a)
    g = 0
    for x in a:
        g = math.gcd(g, x)
    g = math.gcd(g, c)
    if g > 1:
        a = tuple(x // g for x in a)
        c //= g
    return (a, c)


def _eliminate(rows: list, var: int, step: int) -> Optional[list]:
    """One Fourier-Motzkin step; None when infeasibility is detected.

    Rows carry the index set of the original inequalities they combine.
    Imbert's acceleration applies: after eliminating `step` variables a
    row combined from more than step + 1 originals is redundant and is
    dropped, which keeps the row count tame at higher rank.
    """
    keep, pos, neg = [], [], []
    for a, c, anc in rows:
        if a[var] > 0:
            pos.append((a, c, anc))
        elif a[var] < 0:
            neg.append((a, c, anc))
        else:
            keep.append((a, c, anc))
    out = {}
    for a, c, anc in keep:
        if not any(a):
            if c > 0:
                return None
            continue
        key = (a, c)
        if key not in out or len(anc) < len(out[key]):
            out[key] = anc
    for ap, cp, anc_p in pos:
        for an, cn, anc_n in neg:
            anc = anc_p | anc_n
            if len(anc) > step + 1:
                continue
            lam, mu = ap[var], -an[var]
            a = tuple(mu * x + lam * y for x, y in zip(ap, an))
            c = mu * cp + lam * cn
            if not any(a):
                if c > 0:
                    return None
                continue
            key = _normalize_row(a, c)
            if key not in out or len(anc) < len(out[key]):
                out[key] = anc
    return [(a, c, anc) for (a, c), anc in out.items()]


def _coordinate_interval(rows: list, k: int, rank: int):
    """Project onto coordinate k; returns the integer bounds (lo, hi), or
    None if no integer lies between the rational ones."""
    current = [(a, c, frozenset([i])) for i, (a, c) in enumerate(rows)]
    step = 0
    for var in range(rank):
        if var == k:
            continue
        step += 1
        current = _eliminate(current, var, step)
        if current is None:
            return None
    lo, hi = None, None
    for a, c, _ in current:
        coef = a[k]
        if coef > 0:  # x_k >= c / coef
            bound = -(-c // coef)
            lo = bound if lo is None else max(lo, bound)
        elif coef < 0:  # x_k <= c / coef
            bound = c // coef
            hi = bound if hi is None else min(hi, bound)
    if lo is None or hi is None:
        raise IncompleteFanError("root polytope is unbounded; fan cannot be complete")
    if lo > hi:
        return None
    return lo, hi


def root_ray_index(fan: Fan, e: Sequence[int]) -> Optional[int]:
    """The distinguished ray index if e is a root of the fan, else None."""
    negatives = []
    for i, r in enumerate(fan.rays):
        v = pairing(r, e)
        if v < 0:
            if v != -1 or negatives:
                return None
            negatives.append(i)
    return negatives[0] if negatives else None


def _require_complete(fan: Fan) -> None:
    fan.require_valid()
    if not is_complete(fan):
        raise IncompleteFanError("fan is not complete: root set may be infinite")


@lru_cache(maxsize=None)
def demazure_roots(fan: Fan) -> tuple[DemazureRoot, ...]:
    """All Demazure roots, duplicate free, sorted by (ray index, e)."""
    _require_complete(fan)
    out = []
    for j in range(len(fan.rays)):
        box = RootPolytope.for_ray(fan, j).integer_box(fan.rank)
        if box is None:
            continue
        for e in iproduct(*box):
            if root_ray_index(fan, e) == j:
                out.append(DemazureRoot(e=e, rho_e=j))
    return tuple(sorted(out, key=DemazureRoot.sort_key))


def classify_roots(roots: Sequence[DemazureRoot]):
    """Partition into semisimple pairs {e, -e} and unipotent leftovers."""
    vectors = {r.e for r in roots}
    pairs = []
    unipotent = []
    for e in sorted(vectors):
        minus = vec_neg(e)
        if minus in vectors:
            if e > minus:
                pairs.append((e, minus))
        else:
            unipotent.append(e)
    return tuple(sorted(pairs)), tuple(unipotent)


def product_roots(f1: Fan, f2: Fan) -> tuple[DemazureRoot, ...]:
    """Roots of the product fan, assembled factor-wise.

    Every root of a product has the form (e, 0) or (0, e'); the result
    equals demazure_roots(product_fan(f1, f2)) exactly.
    """
    _require_complete(f1)
    _require_complete(f2)
    index = {r: i for i, r in enumerate(product_rays(f1, f2))}
    n1, n2 = f1.rank, f2.rank
    out = []
    for r in demazure_roots(f1):
        rho = f1.rays[r.rho_e] + (0,) * n2
        out.append(DemazureRoot(e=r.e + (0,) * n2, rho_e=index[rho]))
    for r in demazure_roots(f2):
        rho = (0,) * n1 + f2.rays[r.rho_e]
        out.append(DemazureRoot(e=(0,) * n1 + r.e, rho_e=index[rho]))
    return tuple(sorted(out, key=DemazureRoot.sort_key))
