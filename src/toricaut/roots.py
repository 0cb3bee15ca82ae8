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
its inverse is the (R, d) its fan keeps (Fan.cone_basis); only a chart
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
its GL(n, Z)-conjugates.  The roots of a product of two fans are
enumerated the same way on its rays, without building its fan: a chart
of the product is a chart of each factor, and its inverse is their
inverses in two blocks (product_chart_roots).  On the self-product of
one fan, the swap (x, y) -> (y, x) of the two factors is a unimodular
automorphism that carries each ray of the first factor, its chart and its
root polytope to the same ray of the second, so only the first factor's
rays are enumerated and each root found gives its mirror (Cox, 1995,
section 4: Aut of the fan acts on the roots).  Completeness is a hard
precondition: without it the root set may be infinite and the operation
refuses to run.
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
    require_complete,
)
from .lattice import (
    Mat,
    Vec,
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


def root_ray_index(rays: Mat, e: Sequence[int]) -> Optional[int]:
    """The distinguished ray index if e is a root over these rays, else None."""
    if rays and len(e) != len(rays[0]):
        raise ValueError(f"rank mismatch: {len(rays[0])} vs {len(e)}")
    negatives = []
    for i, r in enumerate(rays):
        v = sum(map(mul, r, e))
        if v < 0:
            if v != -1 or negatives:
                return None
            negatives.append(i)
    return negatives[0] if negatives else None


_INFINITE = "fan is not complete: root set may be infinite"


def _chart_bounds(rays: Mat, j: int, chart: tuple, r: Mat, d: int, first: Iterable[int] = ()) -> tuple:
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
    n, p = len(chart), chart.index(j)
    sign = 1 if d > 0 else -1
    cols = tuple(zip(*r))
    rows = []

    def homogenised():
        seen = set(chart)
        for k in chain(first, range(len(rays))):
            if k not in seen:
                seen.add(k)
                w = tuple(sign * sum(map(mul, rays[k], col)) for col in cols)
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
            num = [sum(map(mul, row, prefix)) for row in r]
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


@per_fan
def _ray_charts(fan: Fan) -> tuple:
    """(chart, R, d, star) for each ray j: the chart its roots are bounded
    and lifted in, with A*R = d*I for the chart's rays A, and the rays of
    the maximal cones through ray j.

    The chart of ray j is a basis of N_R among the rays of a maximal cone
    through it: ray j and each further ray of the cone outside the span of
    those before it.  Of these, the chart of least |det| is taken, ties
    broken by its index tuple.  Each maximal cone gives its basis with its
    A*R = d*I (Fan.cone_basis): a simplicial cone of a complete fan is its
    own basis, with the (R, d) of the fan's wall walk.  When ray j is not
    in the basis, ray j = (y/d)*A with y = rho_j*R, and its chart
    exchanges for ray j the last basis ray f with y_f != 0 (the least
    basis holding ray j), so |det| = |y_f| needs no second elimination.
    Only the exchanged charts chosen are inverted here, so a simplicial
    fan inverts nothing.  The table is kept on the fan: demazure_roots and
    product_chart_roots read the same one.
    """
    n, rays = fan.rank, fan.rays

    def chart_key(j: int, cone: tuple) -> tuple:
        basis, r, d = fan.cone_basis(cone)
        if j in basis:
            return abs(d), basis, cone
        y = vec_mat(rays[j], r)
        f = max(q for q in range(n) if y[q])
        return abs(y[f]), tuple(sorted(basis[:f] + basis[f + 1:] + (j,))), cone

    out = []
    for j, cones in enumerate(fan.star):
        _, chart, cone = min(chart_key(j, c) for c in cones)
        basis, r, d = fan.cone_basis(cone)
        if chart != basis:
            r, d = scaled_inverse([rays[i] for i in chart])
        out.append((chart, r, d, tuple(chain.from_iterable(cones))))
    return tuple(out)


def _lifted_candidates(rays: Mat, charts: Iterable[tuple]):
    """(j, e) for each lifted chart point of the root polytope of each ray
    j given with its chart as (j, (chart, R, d, star)) in `charts` (as
    _ray_charts lists them): one double description bounds the roots of
    ray j in the chart's coordinates, reading the rows of its star first
    (_chart_bounds), and the lifting lists the chart points within those
    bounds (_lift)."""
    for j, (chart, r, d, star) in charts:
        # on a blow-up of P2 one row of ray j's star empties its polytope
        # whenever rho_j has negative self-intersection
        ranges, rows = _chart_bounds(rays, j, chart, r, d, star)
        if ranges is not None:
            for e in _lift(ranges, rows, r, d):
                yield j, e


def _roots(rays: Mat, charts: Iterable[tuple]) -> tuple:
    """The lifted candidates that pass the definition, sorted as roots."""
    out = [DemazureRoot(e=e, rho_e=j) for j, e in _lifted_candidates(rays, charts)
           if root_ray_index(rays, e) == j]
    return tuple(sorted(out, key=DemazureRoot.sort_key))


@per_fan
def demazure_roots(fan: Fan) -> tuple[DemazureRoot, ...]:
    """All Demazure roots, duplicate free, sorted by (ray index, e)."""
    require_complete(fan, _INFINITE)
    return _roots(fan.rays, enumerate(_ray_charts(fan)))


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


def _embedded(f1: Fan, f2: Fan) -> tuple:
    """The rays of product_fan(f1, f2), sorted, and the index among them of
    each ray of f1 and of each ray of f2; both fans must be complete."""
    require_complete(f1, _INFINITE)
    require_complete(f2, _INFINITE)
    rays = [r + (0,) * f2.rank for r in f1.rays] + [(0,) * f1.rank + r for r in f2.rays]
    index = {r: i for i, r in enumerate(sorted(rays))}
    at = [index[r] for r in rays]
    return tuple(index), at[:len(f1.rays)], at[len(f1.rays):]


def product_roots(f1: Fan, f2: Fan) -> tuple[DemazureRoot, ...]:
    """Roots of the product fan, assembled factor-wise.

    Every root of a product has the form (e, 0) or (0, e'); the result
    equals demazure_roots(product_fan(f1, f2)) exactly.
    """
    _, to1, to2 = _embedded(f1, f2)
    n1, n2 = f1.rank, f2.rank
    out = [DemazureRoot(e=r.e + (0,) * n2, rho_e=to1[r.rho_e]) for r in demazure_roots(f1)]
    out += [DemazureRoot(e=(0,) * n1 + r.e, rho_e=to2[r.rho_e]) for r in demazure_roots(f2)]
    return tuple(sorted(out, key=DemazureRoot.sort_key))


def product_chart_roots(f1: Fan, f2: Fan) -> tuple[DemazureRoot, ...]:
    """The roots of product_fan(f1, f2), enumerated on its rays without
    building it.

    Demazure roots depend only on the rays and one chart per ray.  A
    chart of sigma1 x sigma2 is a chart of each factor, A = diag(A1, A2),
    with A*R = d*I for R = diag(d2*R1, d1*R2) and d = d1*d2 (Cox-Little-
    Schenck, Toric Varieties, section 3.1), so nothing is inverted.  Each
    ray of one factor takes its own chart in that factor (_ray_charts),
    next to the other factor's chart of least |d|.  Its double
    description reads the rays of its star in its factor first, then the
    other factor's rays, starting with those of a cone opposite its
    chart, which cut that factor's part of the orthant down to {0}, and
    then the rest.  So an empty root polytope, as on most rays of a
    blow-up, reads a few rows.  The candidates pass the same root test
    as demazure_roots'.  When f1 == f2, the swap (x, y) -> (y, x) maps
    the product onto itself, ray (rho_j, 0) to ray (0, rho_j), and the
    chart, star and read order of the one to those of the other, so only
    the rays (rho_j, 0) are enumerated, each of their double descriptions
    still reading every row of the product, and each root (e, e') found
    gives its mirror (e', e).  product_roots assembles the same roots
    from the factors' own, so the two agree exactly when every root of
    the product is (e, 0) or (0, e').
    """
    rays, to1, to2 = _embedded(f1, f2)
    n1, n2 = f1.rank, f2.rank
    square = f1 == f2
    charts1 = _ray_charts(f1)
    charts2 = charts1 if square else _ray_charts(f2)
    least1, least2 = (min(charts, key=lambda c: (abs(c[2]), c[0]), default=((), (), 1, ()))
                      for charts in (charts1, charts2))

    def block(one: tuple, two: tuple, star: Iterable[int]) -> tuple:
        (c1, r1, d1, _), (c2, r2, d2, _) = one, two
        r = ([tuple(d2 * x for x in row) + (0,) * n2 for row in r1]
             + [(0,) * n1 + tuple(d1 * x for x in row) for row in r2])
        return tuple(to1[i] for i in c1) + tuple(to2[i] for i in c2), tuple(r), d1 * d2, star

    def read_order(f: Fan, chart: tuple, to: list) -> list:
        # with the chart's rays, the rays of a cone holding minus their sum
        # positively span N, so their rows cut the chart's orthant to {0}
        v = vec_neg(tuple(map(sum, zip((0,) * f.rank, *(f.rays[i] for i in chart)))))
        return [to[i] for i in next(c for c in f.max_cones if f.cone(c).contains(v))] + to

    order2 = read_order(f2, least2[0], to2)
    charts = [(to1[j], block(chart, least2, chain(map(to1.__getitem__, chart[3]), order2)))
              for j, chart in enumerate(charts1)]
    if square:
        mirror = dict(zip(to1, to2))
        found = _roots(rays, charts)
        found += tuple(DemazureRoot(e=r.e[n1:] + r.e[:n1], rho_e=mirror[r.rho_e]) for r in found)
        return tuple(sorted(found, key=DemazureRoot.sort_key))
    order1 = read_order(f1, least1[0], to1)
    charts += [(to2[j], block(least1, chart, chain(map(to2.__getitem__, chart[3]), order1)))
               for j, chart in enumerate(charts2)]
    return _roots(rays, charts)
