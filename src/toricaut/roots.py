"""Demazure roots of a complete fan.

A root is a vector e in M pairing to -1 with exactly one ray and
non-negatively with all others.  For a complete fan the rays positively
span N_R, so each per-ray constraint system is a bounded polytope, and
double description gives its vertices as the extreme rays of the
polytope's homogenisation.  A root is fixed by its pairings c_i =
<rho_i, e> with the rays of one chart (Cox, "The homogeneous coordinate
ring of a toric variety", J. Algebraic Geom. 4 (1995), section 4), so the
roots of ray j are enumerated in those coordinates rather than in the
coordinates of M: the chart is a maximal cone through rho_j of least
|det|, each c_i runs between its least and greatest value on the
vertices, and c is fixed one coordinate at a time, dropping a prefix as
soon as some other ray can no longer pair non-negatively with e.  A
complete c gives e = R*c/d (A*R = d*I for the chart's rays A) when that is
integral, and e is kept if it passes the definition.  The search, and its
size, are the same for a fan and each of its GL(n, Z)-conjugates.
Completeness is a hard precondition: without it the root set may be
infinite and the operation refuses to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .fan import Fan, IncompleteFanError, _cone_generators, product_rays, require_complete
from .lattice import Mat, Vec, _pivots_and_kernel, pairing, scaled_inverse, vec_neg


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

    def vertices(self, rank: int) -> Mat:
        """The polytope's vertices v / t, as the extreme rays (v, t) of its
        homogenisation {(e, t) : <a, e> >= c t, t >= 0}, the equality
        taken as two opposite rows; () if the polytope is empty.  Raises
        IncompleteFanError if the polytope is unbounded (a ray with t = 0,
        or a line), which cannot happen over a complete fan.
        """
        rho, c = self.equality
        rows = [(rho, c), (vec_neg(rho), -c)] + list(self.inequalities)
        normals = [tuple(a) + (-b,) for a, b in rows] + [(0,) * rank + (1,)]
        rays, lineality = _cone_generators(normals, rank + 1)
        if lineality or any(v[-1] == 0 for v in rays):
            raise IncompleteFanError("root polytope is unbounded; fan cannot be complete")
        return rays

    def integer_box(self, rank: int) -> Optional[list]:
        """Per-coordinate integer ranges, in the coordinates of M, that
        contain all solutions.

        The ranges run from the least to the greatest coordinate of the
        vertices (v, t): lo_k = min ceil(v_k / t) and hi_k = max
        floor(v_k / t).  None if the polytope is empty or some
        coordinate's range holds no integer.  demazure_roots does not scan
        this box: it bounds the same vertices in chart coordinates, where
        the search does not depend on the basis of M.
        """
        rays = self.vertices(rank)
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


_INFINITE = "fan is not complete: root set may be infinite"


def _chart(fan: Fan, j: int, cone: tuple) -> tuple:
    """Ray indices of a maximal cone through ray j whose rays are a basis of
    N_R: the cone itself when it is simplicial, else ray j and each further
    ray outside the span of those before it."""
    if len(cone) == fan.rank:
        return cone
    order = (j,) + tuple(i for i in cone if i != j)
    pivots = _pivots_and_kernel([fan.rays[i] for i in order], fan.rank)[0]
    return tuple(sorted(order[p] for p in pivots))


def _lift(fan: Fan, chart: tuple, vertices: Mat, r: Mat, d: int) -> list:
    """The e = R*c/d in M, over the integer c with c_p = <rho_chart[p], e>
    between its least and greatest value on the vertices, for which every
    ray outside the chart pairs non-negatively with e.

    With w_k = sign(d) * rho_k * R, <rho_k, e> >= 0 reads <w_k, c> >= 0.
    c is fixed one coordinate at a time, and a prefix is dropped once some
    w_k can no longer reach 0 even with the most the remaining coordinates
    can add, so every complete c that is reached meets all the constraints.
    """
    n = fan.rank
    ranges = []
    for i in chart:
        values = [(sum(a * b for a, b in zip(fan.rays[i], v)), v[-1]) for v in vertices]
        lo = min(-(-x // t) for x, t in values)
        hi = max(x // t for x, t in values)
        if lo > hi:
            return []
        ranges.append(range(lo, hi + 1))
    sign = 1 if d > 0 else -1
    cols = tuple(zip(*r))
    rows = [tuple(sign * sum(a * b for a, b in zip(fan.rays[k], col)) for col in cols)
            for k in range(len(fan.rays)) if k not in chart]
    # reach[p][k]: the most coordinates p, p+1, ... can add to <w_k, c>
    reach = [[0] * len(rows)]
    for p in reversed(range(n)):
        lo, hi = ranges[p].start, ranges[p][-1]
        reach.append([s + max(w[p] * lo, w[p] * hi) for s, w in zip(reach[-1], rows)])
    reach.reverse()
    columns = [[w[p] for w in rows] for p in range(n)]
    out = []

    def descend(p: int, prefix: tuple, sums: list) -> None:
        if p == n:
            num = [sum(a * b for a, b in zip(row, prefix)) for row in r]
            if all(x % d == 0 for x in num):
                out.append(tuple(x // d for x in num))
            return
        column, bound = columns[p], reach[p + 1]
        for x in ranges[p]:
            new = [s + w * x for s, w in zip(sums, column)]
            if all(s + b >= 0 for s, b in zip(new, bound)):
                descend(p + 1, prefix + (x,), new)

    descend(0, (), [0] * len(rows))
    return out


def _lifted_candidates(fan: Fan):
    """(j, e) for each lifted chart point of each ray's root polytope.

    One double description per ray gives the vertices; an empty polytope
    is skipped at once.  Otherwise the chart is the maximal cone through
    ray j of least |det|, ties broken by its index tuple, and each chart is
    inverted once per call.
    """
    inverses = {}

    def chart_key(chart: tuple) -> tuple:
        if chart not in inverses:
            inverses[chart] = scaled_inverse([fan.rays[i] for i in chart])
        return abs(inverses[chart][1]), chart

    for j in range(len(fan.rays)):
        vertices = RootPolytope.for_ray(fan, j).vertices(fan.rank)
        if not vertices:
            continue
        chart = min((_chart(fan, j, c) for c in fan.max_cones if j in c), key=chart_key)
        r, d = inverses[chart]
        for e in _lift(fan, chart, vertices, r, d):
            yield j, e


@lru_cache(maxsize=None)
def demazure_roots(fan: Fan) -> tuple[DemazureRoot, ...]:
    """All Demazure roots, duplicate free, sorted by (ray index, e)."""
    require_complete(fan, _INFINITE)
    out = [DemazureRoot(e=e, rho_e=j) for j, e in _lifted_candidates(fan)
           if root_ray_index(fan, e) == j]
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
    require_complete(f1, _INFINITE)
    require_complete(f2, _INFINITE)
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
