"""Rational polyhedral cones and complete fans, and the package's one
exact polyhedral engine.

Cones carry both a generator description (extremal primitive rays) and an
inequality description (facet normals; for a cone of less than full
dimension the normals include +/- pairs cutting out its linear span, so the
inequality system always defines the cone exactly).  Fans are immutable
after construction and every query is pure, so concurrent reads are safe.

Dual descriptions are computed exactly by the double description method
(constraints inserted one at a time, adjacent ray pairs combined, with a
purely combinatorial adjacency test on active sets that each new ray
inherits from its two parents); one Hermite normal form of the
constraint rows gives both the lineality and the independent rows the
method starts from.  A fan's simplicial full-dimensional cone is one
elimination, A*R = d*I for its rays A, d = ±det A: its dual is the
method's starting simplex, whose rays are the facet normals, so no
Hermite form and no double description run on it.  A simplicial fan runs
one elimination and then one product per wall (Fan._walk), which tests
the wall's sides, updates (R, d) to the neighbour's and gives the wall's
relation.  The fan keeps each cone's (R, d) for the readers of its
determinant and its basis (smoothness, and through Fan.cone_basis the
roots' charts, the multiplicities, the isomorphism search's anchors and
the decomposition), each of which reads |d| or sign(d).  The same engine
bounds the root polytopes, as the extreme rays of their homogenisations
in chart coordinates, where the unit rows are the starting simplex and
nothing is inverted or put in Hermite form.
Each fan keeps one table of its maximal cones' facets, each normal with
the rays it kills.  The ridge certificate, from the walk's side tests or
from the table grouped by ray set, proves a fan both valid and complete,
once per fan; the faces of a non-simplicial cone are the intersections
of its facets' ray sets; and only an invalid or incomplete fan falls
back to intersecting every pair of maximal cones.  An intersection is a
face of a cone when its rays are rays of the fan equal to their closure,
the cone's rays on every facet holding them all, a test polynomial in
the number of facets that lists no faces.  A product fan is its
factors' block rays and every pair of their maximal cones, validated
like any other fan.
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import chain, combinations
from math import gcd
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .lattice import (
    Mat,
    Vec,
    _pivots_and_kernel,
    _saturated,
    is_primitive,
    is_unimodular,
    mat,
    pairing,
    primitive,
    rank_of,
    scaled_inverse,
    vec,
    vec_mat,
    vec_neg,
)


class NotStrictlyConvexError(ValueError):
    """Raised when a generator set spans a cone containing a line."""


class FanValidationError(ValueError):
    """Raised when an operation requires a valid fan but validation failed."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(f"invalid fan: {report.summary()}")


class IncompleteFanError(ValueError):
    """Raised when an operation requires a complete fan."""


class Cone(NamedTuple):
    """Strictly convex rational polyhedral cone in N_R.

    rays: primitive extremal generators, sorted.
    facet_normals: vectors in M with cone = {x : <x, g> >= 0 for all g};
        includes +/- pairs spanning the annihilator of the cone's span when
        the cone is not full dimensional.
    """

    rank: int
    rays: Mat
    facet_normals: Mat
    dim: int

    def contains(self, v: Sequence[int]) -> bool:
        return all(sum(map(mul, v, g)) >= 0 for g in self.facet_normals)


def _walked_cone(n: int, idx: tuple, rays: Mat, cols: Mat, d: int) -> tuple:
    """(cone, facets table) of the simplicial full-dimensional cone on the
    given ray indices, from the columns of its A*R = d*I: normal q kills
    every ray but ray q."""
    killed = [idx[:q] + idx[q + 1:] for q in range(n)]
    facets = tuple(sorted(zip(_simplex_rays(cols, d), killed)))
    cone = Cone(rank=n, rays=tuple(rays[i] for i in idx),
                facet_normals=tuple(g for g, _ in facets), dim=n)
    return cone, facets


class _Walk(NamedTuple):
    """What Fan._walk found.

    facets: {cone: its facets table} for each cone the walk built.
    walls: (c, p, j, y, d) for each wall it crossed between two cones of
        independent rays: c the cone it came from, with A*R = d*I, p the
        position in c of its ray off the wall, j the other cone's ray off
        it and y = rho_j*R.
    closed: every maximal cone has `rank` independent rays, and every
        ridge lies in exactly two of them, on opposite sides.
    inverses: {cone: (columns of R, d)} with A*R = d*I for its rays A, for
        each cone it built.
    """

    facets: dict
    walls: tuple
    closed: bool
    inverses: dict


def _simplex_rays(cols: Iterable[Vec], d: int) -> list:
    """Extreme rays of {y : A0 y >= 0} for invertible A0, given the columns
    of R with A0*R = d*I: the primitive columns of sign(d) * R (A0 r_i is
    a positive multiple of e_i)."""
    sign = 1 if d > 0 else -1
    rays = []
    for col in cols:
        g = sign * gcd(*col)
        rays.append(tuple([x // g for x in col]))
    return rays


def _pointed_extreme_rays(rows: Sequence[Vec], idx: list, simplex: Optional[Mat] = None,
                          more: Iterable[Vec] = ()) -> list:
    """Double description: extreme rays of a pointed cone {y : <a,y> >= 0}.

    idx lists the d = dim rows that lie outside the span of the rows
    before them.  Starts from the simplicial subcone they cut out, whose
    extreme rays, in the order of idx, are `simplex` when the caller knows
    them (the unit vectors, for unit rows) and otherwise come from one
    inversion of those rows.  Then inserts the remaining constraints one
    at a time, combining only adjacent positive/negative ray pairs (exact
    combinatorial adjacency: no third ray is active on the common active
    set).  Each ray carries its active set as a bit mask over the rows
    inserted so far: simplex ray i is active on every starting row but
    the i-th, and the ray made from a positive and a negative ray is
    active exactly where both are, and on the new row (Fukuda-Prodon,
    "Double description method revisited", 1996).  Adjacent rays share at
    least d - 2 active rows, so pairs with fewer are never tested.
    The constraints after the other rows are those `more` yields, each
    read when the method reaches it.  Once every ray is negative on the
    new row, the cone is {0}: the method returns [] and reads no further
    row.
    """
    d = len(idx)
    if simplex is None:
        inv, det_a0 = scaled_inverse([rows[i] for i in idx])
        simplex = _simplex_rays(zip(*inv), det_a0)
    full = (1 << d) - 1
    current = [(r, full ^ (1 << i)) for i, r in enumerate(simplex)]
    others = chain((rows[i] for i in range(len(rows)) if i not in idx), more)
    for step, a in enumerate(others, d):
        bit = 1 << step
        pos, neg, new = [], [], []
        for r, m in current:
            v = sum(map(mul, a, r))
            if v > 0:
                pos.append((r, m, v))
                new.append((r, m))
            elif v < 0:
                neg.append((r, m, v))
            else:
                new.append((r, m | bit))
        if not new:
            return []
        if not neg:
            current = new
            continue
        masks = [m for _, m in current]
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                common = mp & mn
                if common.bit_count() < d - 2 or any(
                        m & common == common for m in masks if m != mp and m != mn):
                    continue
                w = tuple(vp * x - vn * y for x, y in zip(rn, rp))
                g = gcd(*w)
                new.append((tuple(x // g for x in w), common | bit))
        current = new
    return sorted(r for r, _ in current)


def _cone_generators(normals: Sequence[Vec], n: int) -> tuple[Mat, Mat]:
    """Generators of {x in R^n : <a, x> >= 0 for every a in normals}, the
    normals integer tuples of length n.

    Returns (extreme_rays, lineality_basis); the cone equals the sum of
    cone(extreme_rays) and span(lineality_basis).  Extreme rays are
    primitive, deduplicated and sorted.  When the cone is not pointed the
    pointed part is computed inside the orthogonal complement of the
    lineality space, which keeps every step in exact lattice coordinates.
    """
    rows = list(dict.fromkeys(a for a in normals if any(a)))
    pivots, lin = _pivots_and_kernel(rows, n)
    d = n - len(lin)
    if d == 0:
        return (), lin
    if lin:
        # The rows lie in the orthogonal complement of lin, on which the
        # projection onto its basis is injective: the projected rows keep
        # the same pivots.
        basis = _pivots_and_kernel(lin, n)[1]
        assert len(basis) == d
        proj = [tuple(pairing(b, a) for b in basis) for a in rows]
        ext = [primitive(vec_mat(y, basis)) for y in _pointed_extreme_rays(proj, pivots)]
        return tuple(sorted(ext)), lin
    return tuple(_pointed_extreme_rays(rows, pivots)), lin


def cone_from_rays(rays: Iterable[Sequence[int]], rank: int) -> Cone:
    """Build a cone from generators, computing its dual description.

    Non-extremal generators are discarded; the empty set gives the zero
    cone.  Raises NotStrictlyConvexError if the generators span a line.
    The double description runs twice: once for the dual, and once for
    the dual's dual, which drops the non-extremal generators and finds
    any line.  A fan's simplicial full-dimensional cones are built by its
    wall walk instead (Fan._walk), one product per wall.
    """
    prim = []
    seen = set()
    for r in rays:
        r = vec(r)
        if len(r) != rank:
            raise ValueError("ray of wrong rank")
        if not any(r):
            continue
        p = primitive(r)
        if p not in seen:
            seen.add(p)
            prim.append(p)
    dual_gens, dual_lin = _cone_generators(prim, rank)
    normals = set(dual_gens)
    for b in dual_lin:
        normals.add(b)
        normals.add(vec_neg(b))
    normals = tuple(sorted(normals))
    # the normals cut out the cone itself, so its lines are their lineality
    ext, ext_lin = _cone_generators(normals, rank)
    if ext_lin:
        raise NotStrictlyConvexError("not strictly convex: cone contains a line")
    assert set(ext) <= seen
    return Cone(rank=rank, rays=tuple(sorted(ext)), facet_normals=normals,
                dim=rank - len(dual_lin))


class ValidationEntry(NamedTuple):
    code: str
    message: str


class ValidationReport(NamedTuple):
    entries: tuple[ValidationEntry, ...]

    @property
    def ok(self) -> bool:
        return not self.entries

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(e.message for e in self.entries)


def _maximal(cones: list) -> tuple:
    """The cones not properly contained in another listed cone.

    Distinct cones with the same number of rays cannot contain each
    other, so a list of equal-size cones comes back unchanged.  Otherwise
    a cone that contains c holds c's rarest ray, so c is only tested
    against the cones through that ray; () is absorbed by any other cone.
    """
    if len({len(c) for c in cones}) <= 1:
        return tuple(cones)
    sets = [frozenset(c) for c in cones]
    through: dict = {}
    for s in sets:
        for i in s:
            through.setdefault(i, []).append(s)
    kept = []
    for c, s in zip(cones, sets):
        if c:
            rarest = min(c, key=lambda i: len(through[i]))
            absorbed = any(s < t for t in through[rarest])
        else:
            absorbed = len(cones) > 1
        if not absorbed:
            kept.append(c)
    return tuple(kept)


class MemoInfo(NamedTuple):
    """Calls of one per_fan function over every fan."""

    hits: int
    misses: int


def per_fan(fn: Callable) -> Callable:
    """fn(fan, *args), computed once per fan and arguments and kept in the
    fan's memo, so it lives as long as the fan; equal but distinct fans
    compute their own.  cache_info() counts the calls."""
    counts = [0, 0]

    @wraps(fn)
    def memo(fan: "Fan", *args):
        key, cache = (memo,) + args, fan.memo
        if key in cache:
            counts[0] += 1
        else:
            counts[1] += 1
            cache[key] = fn(fan, *args)
        return cache[key]

    memo.cache_info = lambda: MemoInfo(*counts)
    return memo


class Fan:
    """A fan in N_R, stored as global rays plus maximal cones by ray index.

    Construction normalizes to a canonical form: rays sorted
    lexicographically, cone index tuples sorted, cones contained in other
    listed cones absorbed.  Ray indices out of range are a hard error;
    everything mathematical (primitivity, strict convexity, the fan
    axioms) is checked by validate() and reported, not raised.
    """

    def __init__(self, rank: int, rays: Iterable[Sequence[int]],
                 max_cones: Iterable[Iterable[int]]):
        self.rank = rank = int(rank)
        ray_list = [tuple(map(int, r)) for r in rays]
        for r in ray_list:
            if len(r) != rank:
                raise ValueError(f"ray {r} does not have rank {rank}")
        order = sorted(range(len(ray_list)), key=ray_list.__getitem__)
        relabel = dict(zip(order, range(len(order))))
        cones = set()
        for c in max_cones:
            idx = set(map(int, c))
            try:
                cones.add(tuple(sorted(map(relabel.__getitem__, idx))))
            except KeyError:
                bad = next(i for i in sorted(idx) if i not in relabel)
                raise ValueError(f"ray index {bad} out of range") from None
        self.rays: Mat = tuple(map(ray_list.__getitem__, order))
        self.max_cones: tuple = _maximal(sorted(cones)) or ((),)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Fan) and self.rank == other.rank
                and self.rays == other.rays and self.max_cones == other.max_cones)

    def __hash__(self) -> int:
        return hash((self.rank, self.rays, self.max_cones))

    def __repr__(self) -> str:
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"

    def __reduce__(self):
        # rebuilt from its canonical form before its state, so that a memo
        # keyed by the fan itself (check's pair of a fan with itself)
        # can hash it while it is restored
        return Fan, (self.rank, self.rays, self.max_cones), vars(self)

    def cone(self, idx: Sequence[int]) -> Cone:
        """The cone spanned by the given ray indices."""
        idx = tuple(sorted(idx))
        cache = self._cone_cache
        if idx not in cache:
            cache[idx] = cone_from_rays([self.rays[i] for i in idx], self.rank)
        return cache[idx]

    @cached_property
    def _cone_cache(self) -> dict:
        return {}

    @per_fan
    def cone_basis(self, c: tuple) -> Optional[tuple]:
        """(basis, R, d) for a maximal cone, with A*R = d*I, d = ±det A,
        for the basis's rays A: the cone itself when it is simplicial, with
        the (R, d) of the wall walk, and otherwise its pivots (the rays
        outside the span of the rays before them) with one elimination;
        None when the cone is not full dimensional.  Kept on the fan, so
        the roots' charts, the isomorphism search's multiplicities and
        anchors, and the decomposition's blocks read one basis per cone."""
        walked = self._walk.inverses.get(c)
        if walked is not None:
            cols, d = walked
            return c, tuple(zip(*cols)), d
        pivots = _pivots_and_kernel([self.rays[i] for i in c], self.rank)[0]
        if len(pivots) < self.rank:
            return None
        basis = tuple(c[p] for p in pivots)
        return (basis,) + scaled_inverse([self.rays[i] for i in basis])

    @cached_property
    def star(self) -> tuple:
        """The maximal cones through each ray, in max_cones order."""
        through = [[] for _ in self.rays]
        for c in self.max_cones:
            for i in c:
                through[i].append(c)
        return tuple(map(tuple, through))

    @cached_property
    def memo(self) -> dict:
        """The facts other modules compute from this fan (per_fan)."""
        return {}

    @cached_property
    def validation(self) -> ValidationReport:
        return validate_fan(self)

    def require_valid(self) -> None:
        if not self.validation.ok:
            raise FanValidationError(self.validation)

    @cached_property
    def all_cones(self) -> dict:
        """Face closure: map from sorted ray-index tuple to cone dimension.

        Every subset of a simplicial cone's rays spans a face of dimension
        equal to its size; a non-simplicial cone's faces come from its
        facets.
        """
        out = {(): 0}
        for c in self.max_cones:
            if len(c) == self.cone(c).dim:
                for size in range(1, len(c) + 1):
                    out.update(dict.fromkeys(combinations(c, size), size))
            else:
                for f in self._faces_of(c):
                    if f not in out:
                        out[f] = rank_of([self.rays[i] for i in f])
        return out

    @cached_property
    def _facets(self) -> dict:
        """{maximal cone: ((normal, the cone's rays it kills), ...)} over
        its facet normals: the wall walk's table for a cone it built, and
        otherwise the rays' pairings with each normal.  Read only once
        every maximal cone passed its own checks."""
        rays, walked = self.rays, self._walk.facets
        return {c: walked[c] if c in walked else
                tuple((g, tuple(i for i in c if not sum(map(mul, rays[i], g))))
                      for g in self.cone(c).facet_normals)
                for c in self.max_cones}

    @cached_property
    def _walk(self) -> "_Walk":
        """Walk across the walls between the maximal cones of `rank` rays.

        Each walk starts from a cone not yet reached whose rays are
        independent, with one elimination, so a fan whose simplicial cones
        are connected by walls runs one.  A wall is a ridge, such a cone's
        rays but one, that exactly two of them hold: sigma = tau + a_p, with A*R = d*I for its rays A, and
        sigma' = tau + rho.  It is visited once, from the first of the
        two the walk reaches, with one product y = rho*R, so that
        d*rho = sum_k y_k*a_k.  sign(d)*y_p < 0 says that rho lies
        strictly across the wall from a_p; y_p = 0 that the rays of
        sigma' are dependent, and the walk does not enter it.  Otherwise,
        when sigma' is new, A'*R' = d'*I for its rays A' (A with a_p
        replaced by rho) holds for d' = y_p and R' = (y_p*R - R_p*y^T)/d,
        column p kept: the divisions are exact, since d' = d*det A'/det A
        = ±det A' makes R' the adjugate of A' up to sign (Sylvester's
        identity; Bareiss, Math. Comp. 22, 1968).  The walk caches the
        cones it builds, in place of any equal cone built before, and
        keeps each one's (R, d) for Fan.cone_basis and is_smooth; a walked
        d = ±det may differ in sign from an elimination's, and every
        reader takes |d| or sign(d).  Read only once the rays passed
        validation's checks (primitive, distinct and nonzero)."""
        n, rays, cache = self.rank, self.rays, self._cone_cache
        simplicial = [c for c in self.max_cones if len(c) == n]
        owners: dict = {}
        for c in simplicial:
            for p in range(n):
                owners.setdefault(c[:p] + c[p + 1:], []).append(c)
        closed = all(len(pair) == 2 for pair in owners.values())
        known, facets, walls = {}, {}, []
        for start in simplicial:
            if start in known:
                continue
            inv, d = scaled_inverse([rays[i] for i in start])
            if not d:
                continue
            cols = tuple(zip(*inv))
            known[start] = cols, d
            cache[start], facets[start] = _walked_cone(n, start, rays, cols, d)
            queue = [start]
            for c in queue:
                cols, d = known[c]
                for p in range(n):
                    tau = c[:p] + c[p + 1:]
                    pair = owners.pop(tau, ())
                    if len(pair) != 2:
                        continue
                    other = pair[1] if pair[0] == c else pair[0]
                    # the ray of the other cone off the wall
                    j = sum(other) - sum(tau)
                    y = tuple([sum(map(mul, rays[j], col)) for col in cols])
                    yp = y[p]
                    closed = closed and d * yp < 0
                    if not yp:
                        continue
                    walls.append((c, p, j, y, d))
                    if other in known:
                        continue
                    queue.append(other)
                    # R' by the columns of the rays of `other`
                    col_p = cols[p]
                    by_ray = {j: col_p}
                    for i, col, yk in zip(c, cols, y):
                        if i != c[p]:
                            by_ray[i] = tuple([(yp * x - yk * xp) // d
                                               for x, xp in zip(col, col_p)])
                    cols2 = tuple(by_ray[i] for i in other)
                    known[other] = cols2, yp
                    cache[other], facets[other] = _walked_cone(n, other, rays, cols2, yp)
        closed = closed and len(known) == len(self.max_cones)
        return _Walk(facets, tuple(walls), closed, known)

    def face_normal_sum(self, cone: tuple, face: Sequence[int]) -> Vec:
        """u, the sum of the maximal cone's facet normals that vanish on
        the given face of it; 0 when the face is the cone.  u lies in the
        relative interior of sigma^v cap face^perp, so face = sigma cap
        u^perp, and the face's dual semigroup is sigma^v cap M localised at
        u: sigma^v cap M + Z>=0 * (-u) (Cox-Little-Schenck, Toric
        Varieties, Prop. 1.3.16)."""
        face = set(face)
        normals = [g for g, killed in self._facets[cone] if face.issubset(killed)]
        return tuple(map(sum, zip((0,) * self.rank, *normals)))

    def _faces_of(self, cidx: tuple) -> set:
        """The ray sets of a maximal cone's faces: the cone and the
        intersections of its facets' ray sets, since every face is the
        intersection of the facets holding it (Kaibel-Pfetsch, Comput.
        Geom. 23, 2002).  The zero cone is always among them."""
        faces = {cidx}
        for _, killed in self._facets[cidx]:
            facet = set(killed)
            faces |= {tuple(i for i in f if i in facet) for f in faces}
        return faces

    @cached_property
    def _certified_complete(self) -> bool:
        """Local proof that the maximal cones form a complete fan.

        Holds when every maximal cone is full dimensional, every ridge bounds
        exactly two maximal cones, the second's rays off the ridge lie
        strictly on the far side of the first's facet normal, and an interior
        point of one maximal cone lies in no other.  Crossing a ridge then
        swaps one covering cone for another, so every generic point is
        covered as often as that interior point, i.e. once.  Near a relative
        interior point of a ridge only its two owners are present, so the
        cones meet face to face, and any two meet in a common face (the
        covering argument for polyhedral subdivisions, De Loera-Rambau-
        Santos, Triangulations, ch. 4).  False means the fan is invalid or
        incomplete.  Read only after every maximal cone passed its own
        checks.  When every maximal cone has `rank` rays, the wall walk
        has made the ridge counts and the side tests; otherwise the facets
        table is grouped by the rays each facet kills.
        """
        if all(len(c) == self.rank for c in self.max_cones):
            if not self._walk.closed:
                return False
        elif any(self.cone(c).dim != self.rank for c in self.max_cones):
            return False
        else:
            # once every maximal cone is full dimensional, each normal is a
            # facet's; group the facets by the rays they kill
            owners: dict = {}
            for c, facets in self._facets.items():
                for g, ridge in facets:
                    owners.setdefault(ridge, []).append((c, g))
            for ridge, sides in owners.items():
                if len(sides) != 2:
                    return False
                (_, g), (c, _) = sides
                if any(pairing(self.rays[i], g) >= 0 for i in c if i not in ridge):
                    return False
        first, *others = self.max_cones
        point = tuple(map(sum, zip(*(self.rays[i] for i in first))))
        return not any(self.cone(c).contains(point) for c in others)

    def cones_of_dim(self, d: int) -> tuple:
        return tuple(sorted(c for c, dim in self.all_cones.items() if dim == d))


def validate_fan(fan: Fan) -> ValidationReport:
    """Check the fan axioms; violations become report entries, not errors."""
    entries = []
    for i, r in enumerate(fan.rays):
        if not any(r):
            entries.append(ValidationEntry("zero_ray", f"ray {i} is the zero vector"))
        elif not is_primitive(r):
            entries.append(ValidationEntry("ray_not_primitive",
                                           f"ray {i} = {list(r)} is not primitive"))
    by_value = {}
    for i, r in enumerate(fan.rays):
        by_value.setdefault(r, []).append(i)
    for r, idxs in by_value.items():
        if len(idxs) > 1:
            entries.append(ValidationEntry("duplicate_ray",
                                           f"rays {idxs} duplicate {list(r)}"))
    used = {i for c in fan.max_cones for i in c}
    for i in range(len(fan.rays)):
        if i not in used:
            entries.append(ValidationEntry("unused_ray",
                                           f"ray {i} lies in no maximal cone"))
    if entries:
        return ValidationReport(tuple(entries))

    # the walk builds the simplicial cones it reaches, so Fan.cone finds them
    fan._walk
    cones = {}
    for c in fan.max_cones:
        try:
            cone = fan.cone(c)
        except NotStrictlyConvexError:
            entries.append(ValidationEntry("cone_not_strictly_convex",
                                           f"cone {list(c)} contains a line"))
            continue
        listed = {fan.rays[i] for i in c}
        if set(cone.rays) != listed:
            extra = sorted(listed - set(cone.rays))
            entries.append(ValidationEntry(
                "cone_ray_not_extremal",
                f"cone {list(c)}: rays {extra} are not extremal"))
            continue
        cones[c] = cone
    if entries:
        return ValidationReport(tuple(entries))
    if fan._certified_complete:
        return ValidationReport(())
    return ValidationReport(tuple(_pairwise_violations(fan, cones)))


def _pairwise_violations(fan: Fan, cones: dict) -> list:
    """Intersect every pair of maximal cones by double description and
    report each intersection that is not a face of both.  It is a face of
    a cone when its rays are rays of the fan whose indices equal their
    closure in the cone: the cone's rays on every facet that holds them
    all, since every face is the intersection of the facets holding it."""
    index = {r: i for i, r in enumerate(fan.rays)}
    facets = {c: [set(killed) for _, killed in fan._facets[c]] for c in fan.max_cones}

    def is_face(face: tuple, c: tuple) -> bool:
        rays = set(face)
        return None not in rays and rays == set(c).intersection(
            *(facet for facet in facets[c] if rays <= facet))

    entries = []
    for a, b in combinations(fan.max_cones, 2):
        inter, lin = _cone_generators(
            cones[a].facet_normals + cones[b].facet_normals, fan.rank)
        assert not lin
        face = tuple(index.get(r) for r in inter)
        for c in (a, b):
            if not is_face(face, c):
                entries.append(ValidationEntry(
                    "intersection_not_face",
                    f"intersection of cones {list(a)} and {list(b)} is not a face of {list(c)}"))
    return entries


def is_complete(fan: Fan) -> bool:
    """Support equals N_R: a valid fan is complete exactly when the ridge
    certificate that validation computed holds.

    A complete valid fan has full-dimensional maximal cones (a lower one
    would be a face of its neighbours), its cones meet in common faces, so
    each ridge lies in two cones that meet only there, on opposite sides,
    and an interior point of one cone lies in no other.  Conversely the
    certificate's covering argument covers every point.
    """
    fan.require_valid()
    return fan._certified_complete


def require_complete(fan: Fan, reason: str) -> None:
    """Raise FanValidationError unless the fan is valid, and
    IncompleteFanError(reason) unless it is complete: the precondition of
    the roots, Aut(fan) and the decomposition."""
    if not is_complete(fan):
        raise IncompleteFanError(reason)


def is_simplicial(fan: Fan) -> bool:
    """Every cone's rays are linearly independent."""
    fan.require_valid()
    return all(len(c) == fan.cone(c).dim for c in fan.max_cones)


def is_smooth(fan: Fan) -> bool:
    """Every cone's rays extend to a Z-basis of N: |d| = 1 for a
    simplicial full-dimensional cone, read off the wall walk's (R, d)
    without building R, and a Hermite form for any other cone."""
    fan.require_valid()
    walked = fan._walk.inverses
    return all(abs(walked[c][1]) == 1 if c in walked
               else _saturated([fan.rays[i] for i in c], fan.rank) for c in fan.max_cones)


def product_fan(f1: Fan, f2: Fan) -> Fan:
    """Fan of the product: rays embed block-wise, cones are all products
    sigma x tau of the factors' maximal cones (Cox-Little-Schenck, Toric
    Varieties, 3.1)."""
    f1.require_valid()
    f2.require_valid()
    n1, n2, k1 = f1.rank, f2.rank, len(f1.rays)
    rays = [r + (0,) * n2 for r in f1.rays] + [(0,) * n1 + r for r in f2.rays]
    cones = [c1 + tuple(k1 + i for i in c2) for c1 in f1.max_cones for c2 in f2.max_cones]
    return Fan(n1 + n2, rays, cones)


def transform_fan(fan: Fan, u: Mat) -> Fan:
    """Image fan under a unimodular lattice map (rays act on the right)."""
    u = mat(u)
    if not is_unimodular(u):
        raise ValueError("fan transforms must be unimodular")
    return Fan(fan.rank, [vec_mat(r, u) for r in fan.rays], fan.max_cones)
