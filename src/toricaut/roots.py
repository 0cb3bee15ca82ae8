"""Demazure roots of a complete fan.

A root is a vector e in M pairing to -1 with exactly one ray and
non-negatively with all others.  For a complete fan the rays positively
span N_R, so each per-ray constraint system is a bounded polytope.  A root
is fixed by its pairings c_i = <rho_i, e> with the rays of one chart (Cox,
"The homogeneous coordinate ring of a toric variety", J. Algebraic Geom. 4
(1995), section 4), so the roots of ray j are bounded and enumerated in
those coordinates rather than in the coordinates of M.  The chart is
picked first: a basis of N_R among the rays of a maximal cone through
rho_j, of least |det|.  A simplicial maximal cone is its own chart, and
its inverse is the (R, d) the cone already keeps; only a chart
exchanged into a non-simplicial cone is inverted here.  One double
description per ray, in the chart's n coordinates, gives the vertices of
the polytope's homogenisation; there the constraints c_i >= 0 on the
chart's other rays and t >= 0 are the unit rows, and the method starts
from the unit vectors.  It reads the rows of the rays sharing a maximal
cone with rho_j first, each when it reaches it, and stops once the cone
is {0}, as it soon is on most rays of a blow-up.  Each c_i runs between
its least and greatest value on the vertices, and c is fixed one
coordinate at a time, dropping a prefix as soon as some other ray can no
longer pair non-negatively with e.  A complete c gives e = R*c/d (A*R = d*I for the
chart's rays A) when that is integral, and e is kept if it passes the
definition.  The search, and its size, are the same for a fan and each of
its GL(n, Z)-conjugates.  Completeness is a hard precondition: without it
the root set may be infinite and the operation refuses to run.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .fan import (
    Fan,
    IncompleteFanError,
    _cone_generators,
    _pointed_extreme_rays,
    per_fan,
    product_rays,
    require_complete,
)
from .lattice import (
    Mat,
    Vec,
    _pivots_and_kernel,
    identity_matrix,
    scaled_inverse,
    vec_mat,
    vec_neg,
)


class DemazureRoot(NamedTuple):
    """A root vector e in M with the index of its distinguished ray."""

    e: Vec
    rho_e: int

    def sort_key(self):
        return (self.rho_e, self.e)


class RootPolytope(NamedTuple):
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
    if fan.rays and len(e) != fan.rank:
        raise ValueError(f"rank mismatch: {fan.rank} vs {len(e)}")
    negatives = []
    for i, r in enumerate(fan.rays):
        v = sum(map(mul, r, e))
        if v < 0:
            if v != -1 or negatives:
                return None
            negatives.append(i)
    return negatives[0] if negatives else None


_INFINITE = "fan is not complete: root set may be infinite"


def _chart_bounds(fan: Fan, j: int, chart: tuple, r: Mat, d: int, first: Iterable[int] = ()) -> tuple:
    """(ranges, rows) for the roots of ray j in the coordinates
    c_p = <rho_chart[p], e> of a chart through it, with A*R = d*I for the
    chart's rays A.

    With w_k = sign(d) * rho_k * R, the root condition on a ray outside
    the chart reads <w_k, c> >= 0; rows lists these w_k.  In the chart's
    coordinates the root polytope is {c : c_j = -1, c_i >= 0 for the
    chart's other rays, <w_k, c> >= 0}, and its homogenisation, with t in
    place of -c_j, is {y >= 0 : <w_k, y> >= 0 with the j-th entry of w_k
    negated}.  Its n unit rows cut out the orthant, so one double
    description starts from the unit vectors and inverts nothing.  It
    reads the rays in `first`, then the others, each w_k when it reaches
    it, and stops once the cone is {0}, so rows lists every w_k whenever
    the polytope is non-empty.  Each c_i
    ranges between its least and greatest value on the vertices y / t, c_j
    is -1, and ranges is None when the polytope is empty or some range
    holds no integer.  The map e -> c is linear and invertible, so these
    are exactly the ranges of <rho_i, e> on the polytope in M.
    """
    n, p = fan.rank, chart.index(j)
    sign = 1 if d > 0 else -1
    cols = tuple(zip(*r))
    rows = []

    def homogenised():
        seen = set(chart)
        for k in chain(first, range(len(fan.rays))):
            if k not in seen:
                seen.add(k)
                w = tuple(sign * sum(map(mul, fan.rays[k], col)) for col in cols)
                rows.append(w)
                yield w[:p] + (-w[p],) + w[p + 1:]

    units = identity_matrix(n)
    vertices = _pointed_extreme_rays(units, list(range(n)), units, homogenised())
    if not vertices:
        return None, rows
    ranges = [range(-1, 0) if q == p else
              range(min(-(-v[q] // v[p]) for v in vertices),
                    max(v[q] // v[p] for v in vertices) + 1)
              for q in range(n)]
    return (None if any(not x for x in ranges) else ranges), rows


def _lift(ranges: list, rows: list, r: Mat, d: int) -> list:
    """The e = R*c/d in M, over the integer c with c_p in ranges[p], for
    which <w, c> >= 0 for every row w.

    c is fixed one coordinate at a time, and a prefix is dropped once some
    w can no longer reach 0 even with the most the remaining coordinates
    can add, so every complete c that is reached meets all the constraints.
    """
    n = len(ranges)
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

    The chart of ray j is a basis of N_R among the rays of a maximal cone
    through it: ray j and each further ray of the cone outside the span of
    those before it.  Of these, the chart of least |det| is taken, ties
    broken by its index tuple, and then one double description bounds the
    roots of ray j in its coordinates (_chart_bounds).  A simplicial
    maximal cone of a complete fan is its own basis, and its A*R = d*I is
    the (R, d) the cone keeps: its |d| (Cone.det) ranks it, and its
    R (Cone.inverse) is read only for the chart chosen.  A non-simplicial
    cone's first basis (its rays outside the span of those before them) is
    found and inverted once per call.  When ray j is not in it,
    ray j = (y/d)*A with y = rho_j*R, and its chart exchanges for ray j the
    last basis ray f with y_f != 0 (the least basis holding ray j), so
    |det| = |y_f| needs no second elimination.  Of the exchanged charts
    only the chosen ones are inverted, so a simplicial fan inverts nothing.
    """
    n = fan.rank
    inverses = {}
    bases = {}
    simplicial = set()

    def inverse(chart: tuple) -> tuple:
        if chart not in inverses:
            inverses[chart] = (fan.cone(chart).inverse if chart in simplicial
                               else scaled_inverse([fan.rays[i] for i in chart]))
        return inverses[chart]

    def chart_key(j: int, cone: tuple) -> tuple:
        if len(cone) == n:
            simplicial.add(cone)
            return abs(fan.cone(cone).det), cone
        if cone not in bases:
            pivots = _pivots_and_kernel([fan.rays[i] for i in cone], n)[0]
            bases[cone] = tuple(cone[p] for p in pivots)
        basis = bases[cone]
        r, d = inverse(basis)
        if j in basis:
            return abs(d), basis
        y = vec_mat(fan.rays[j], r)
        f = max(q for q in range(n) if y[q])
        return abs(y[f]), tuple(sorted(basis[:f] + basis[f + 1:] + (j,)))

    through = [[] for _ in fan.rays]
    for c in fan.max_cones:
        for i in c:
            through[i].append(c)
    for j, cones in enumerate(through):
        chart = min(chart_key(j, c) for c in cones)[1]
        r, d = inverse(chart)
        # on a blow-up of P2 one row of ray j's star empties its polytope
        # whenever rho_j has negative self-intersection
        ranges, rows = _chart_bounds(fan, j, chart, r, d, chain.from_iterable(cones))
        if ranges is not None:
            for e in _lift(ranges, rows, r, d):
                yield j, e


@per_fan
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
