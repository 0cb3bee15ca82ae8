"""Demazure roots of a complete fan.

A root is a vector e in M pairing to -1 with exactly one ray and
non-negatively with all others.  For a complete fan the rays positively
span N_R, so each per-ray constraint system is a bounded polytope; its
exact per-coordinate bounds are the least and greatest coordinates of its
vertices, which double description gives as the extreme rays of the
polytope's homogenisation.  The integer box between them is then
enumerated and filtered by the definition.  Completeness is a
hard precondition: without it the root set may be infinite and the
operation refuses to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Optional, Sequence

from .fan import Fan, IncompleteFanError, halfspace_cone_generators, is_complete, product_rays
from .lattice import Vec, pairing, vec_neg


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
    <ray', e> >= 0 for every other ray, each a row (a, c) meaning
    <a, e> >= c.  Bounded whenever the fan is complete.
    """

    ray_index: int
    equality: tuple
    inequalities: tuple

    @classmethod
    def for_ray(cls, fan: Fan, j: int) -> "RootPolytope":
        rho = fan.rays[j]
        ineqs = tuple((fan.rays[i], 0) for i in range(len(fan.rays)) if i != j)
        return cls(ray_index=j, equality=(rho, -1), inequalities=ineqs)

    def integer_box(self, rank: int) -> Optional[list]:
        """Per-coordinate integer ranges containing all solutions.

        The ranges run from the least to the greatest coordinate of the
        polytope's vertices.  These are the extreme rays (v, t) of the
        homogenisation {(e, t) : <a, e> >= c t, t >= 0}, the equality
        taken as two opposite rows, so lo_k = min ceil(v_k / t) and
        hi_k = max floor(v_k / t).  None if the polytope is empty or some
        coordinate's range holds no integer.  Raises IncompleteFanError if
        the polytope is unbounded (a ray with t = 0, or a line), which
        cannot happen over a complete fan.
        """
        rho, c = self.equality
        rows = [(rho, c), (vec_neg(rho), -c)] + list(self.inequalities)
        normals = [tuple(a) + (-b,) for a, b in rows] + [(0,) * rank + (1,)]
        rays, lineality = halfspace_cone_generators(normals, rank + 1)
        if lineality or any(v[-1] == 0 for v in rays):
            raise IncompleteFanError("root polytope is unbounded; fan cannot be complete")
        if not rays:
            return None
        box = []
        for k in range(rank):
            lo = min(-(-v[k] // v[-1]) for v in rays)
            hi = max(v[k] // v[-1] for v in rays)
            if lo > hi:
                return None
            box.append(range(lo, hi + 1))
        return box


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
