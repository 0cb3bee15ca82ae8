"""Fan isomorphisms and automorphisms, indecomposable factorization, and
the product/wreath structure of the automorphism group.

The isomorphism search assigns images to a spanning set of anchor rays,
backtracking with pruning by profiles of rays and ray pairs that any
lattice isomorphism preserves: the faces through them, and their terms
in the relations between adjacent simplicial cones, listed for a pair
only when the search compares it.  The relations come from the fan's
wall walk, one product per wall made while the fan was validated, so
the search inverts no cone for them.  The anchors are the independent rays
of one maximal cone, the one whose rays have the fewest candidate images
(then of the other rays, when that cone does not span), a first step
toward the leaf pruning of McKay-Piperno (J. Symbolic Comput. 60, 2014):
on a blow-up of P3 by 24 star subdivisions the search tests 2 leaves
instead of 4,080, and on F1^3, whose face lattice is that of P1^6, 48
instead of 46,080.  It
inverts the anchor rays once per search, as an integer matrix R and
d = ±det with A*R = d*I, so each leaf costs one integer product R*B and a
divisibility test by d; a candidate is kept only if it is integral,
unimodular and carries the whole cone set bijectively onto the target's.
When the rays do not span N, both fans' rays are first written in
coordinates of their saturated spans, once per search, and the anchors
are inverted there.

Decomposition seeds blocks with the connected components of the ray
configuration's linear matroid, read off the fundamental circuits of one
basis among the rays of the first maximal cone (a circuit can never split
across direct factors), then exhausts bipartitions of those blocks.  Each
split is verified by three criteria; one elimination of the two sides'
stacked lattice bases decides the direct sum and gives the factors'
coordinates.  Each leaf keeps the failed bipartitions as its
indecomposability certificate.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import NamedTuple, Optional, Sequence

from .fan import (
    Cone,
    Fan,
    is_complete,
    is_simplicial,
    is_smooth,
    per_fan,
    product_fan,
    require_complete,
    transform_fan,
)
from .lattice import (
    Mat,
    Vec,
    _pivots_and_kernel,
    complete_to_unimodular,
    det,
    hermite_normal_form,
    identity_matrix,
    invert_unimodular,
    mat,
    mat_mul,
    scaled_inverse,
    span_saturation_basis,
    vec_mat,
    vec_scale,
)
from .roots import demazure_roots
from .symbolic import lie_dimension


class FanIsomorphism(NamedTuple):
    """A unimodular lattice map carrying one fan bijectively onto another.

    ray_permutation[i] is the target index of source ray i.
    """

    matrix: Mat
    ray_permutation: tuple


def invariant_vector(fan: Fan) -> tuple:
    """Cheap isomorphism invariants used to short-circuit searches."""
    complete = is_complete(fan)
    counts = tuple(len(fan.cones_of_dim(d)) for d in range(fan.rank + 1))
    nroots = len(demazure_roots(fan)) if complete else -1
    return (fan.rank, len(fan.rays), counts, is_smooth(fan), is_simplicial(fan),
            complete, nroots)


def _multiplicity(cone: Cone, rank: int) -> int:
    """The index in N of the lattice spanned by a full-dimensional cone's
    rays: |d| of the elimination a simplicial cone keeps, and otherwise
    the product of the pivots of one Hermite form of the rays.  A GL(n, Z)
    invariant, like the 0 given to a cone of lower dimension."""
    if cone.det:
        return abs(cone.det)
    if cone.dim < rank:
        return 0
    h, _ = hermite_normal_form(cone.rays)
    return math.prod(h[i][i] for i in range(rank))


def _wall_relations(fan: Fan) -> list:
    """For each ray, the relations of the walls it is in, each a dict from
    the wall's rays to their terms.

    Two simplicial full-dimensional maximal cones sigma = tau + rho and
    sigma' = tau + rho' meeting in a wall tau give one primitive integer
    relation alpha*rho + alpha'*rho' = sum_{i in tau} c_i*rho_i, alpha and
    alpha' > 0 (Reid, "Decomposition of toric morphisms", Progr. Math. 36,
    1983; Batyrev's primitive relations, Tohoku Math. J. 43, 1991; on a
    surface, -c_i is the self-intersection number, Oda, Convex Bodies and
    Algebraic Geometry, 1988, section 1.6).  rho and rho' get the terms
    (1, alpha) and (1, alpha'), each i in tau (0, c_i).  The fan's wall
    walk made the one product per wall it takes, y = rho'*R with
    A*R = d*I, d = ±det, for the rays A of sigma: d*rho' = sum_k y_k*rho_k
    over the rays of sigma, so dividing by the gcd g, signed like d, makes
    the relation primitive with alpha' = d/g > 0, and alpha = -y_p/g > 0
    since the two cones lie on opposite sides of the wall."""
    walls = [[] for _ in fan.rays]
    for c, p, j, y, d in fan._walk.walls:
        g = math.gcd(d, *y) if d > 0 else -math.gcd(d, *y)
        relation = {i: (0, x // g) for i, x in zip(c, y)}
        relation[c[p]] = (1, -y[p] // g)
        relation[j] = (1, d // g)
        for i in relation:
            walls[i].append(relation)
    return walls


def _ray_profiles(fan: Fan):
    """(single, row): the profile of each ray, and a function giving the
    profiles of the pairs (i, j) by j, for the rays j sharing a face or a
    wall with ray i (others: _NO_PAIR), listed when first asked for.

    A face's key is its dimension, and a maximal cone of multiplicity d
    adds (rank + 1)(d - 1) to it: a key above the rank encodes (dimension,
    d) one to one.  The multiplicities separate rays whose faces match but
    whose cones differ in the lattice: every ray of a weighted projective
    space P(q) lies in the same number of faces of each dimension, but the
    maximal cone without ray i has multiplicity q_i.  The wall relations
    are invariants that the faces do not see: F1^3 has the face lattice of
    P1^6.  A ray's profile is the sorted keys of the faces through it and
    its sorted terms in the relations through it; a pair's, the sorted
    keys of the faces through both and each ray's sorted terms in the
    relations to which the other is opposite.  The wall walk made the
    product each relation is read from, so a relation costs a gcd and a
    dict; a non-simplicial wall gives none.
    """
    nrays = len(fan.rays)
    keys = dict(fan.all_cones)
    for c in fan.max_cones:
        keys[c] += (fan.rank + 1) * (_multiplicity(fan.cone(c), fan.rank) - 1)
    faces = [[] for _ in range(nrays)]
    face_keys = [[] for _ in range(nrays)]
    for face, key in keys.items():
        for i in face:
            faces[i].append(face)
            face_keys[i].append(key)
    walls = _wall_relations(fan)
    single = [(tuple(sorted(k)), tuple(sorted([w[i] for w in ws])))
              for i, (k, ws) in enumerate(zip(face_keys, walls))]
    rows: dict = {}

    def row(i: int) -> dict:
        if i not in rows:
            by_face, mine, theirs = defaultdict(list), defaultdict(list), defaultdict(list)
            for face, key in zip(faces[i], face_keys[i]):
                for j in face:
                    by_face[j].append(key)
            for relation in walls[i]:
                t = relation[i]
                for j, u in relation.items():
                    if j != i:
                        if u[0]:
                            mine[j].append(t)
                        if t[0]:
                            theirs[j].append(u)
            rows[i] = {j: (tuple(sorted(by_face[j])), tuple(sorted(mine[j])), tuple(sorted(theirs[j])))
                       for j in by_face.keys() | mine.keys() | theirs.keys()}
        return rows[i]

    return single, row


# the profile of a pair of rays sharing neither a face nor a wall
_NO_PAIR = ((), (), ())


def _least_cone(fan: Fan, single: list) -> tuple:
    """(product, cone) for the maximal cone whose rays have the fewest
    candidate images: the least product of their single-profile class
    sizes, ties broken by the least index tuple."""
    count = Counter(single)
    size = [count[p] for p in single]
    return min((math.prod([size[i] for i in c]), c) for c in fan.max_cones)


def _cone_anchor_indices(fan: Fan, single: list) -> list:
    """The pivots of the rays of one maximal cone, then of the other rays:
    the rays, in that order, outside the span of the rays before them.

    The cone is _least_cone's.  On a complete fan its rays span N, so
    every anchor is a ray of that cone.  The class sizes come from the
    profiles, GL(n, Z) invariants, so the bound on the leaves does not
    depend on the lattice basis.
    """
    cone = _least_cone(fan, single)[1]
    order = list(cone) + [i for i in range(len(fan.rays)) if i not in cone]
    return [order[p] for p in _pivots_and_kernel([fan.rays[i] for i in order], fan.rank)[0]]


def _candidate_matrix(inverse: Mat, d: int, images: Sequence[Vec]) -> Optional[Mat]:
    """The unimodular U with A*U = B, given R = d*A^-1 from `scaled_inverse`
    and the image rows B; None unless R*B/d is integral and unimodular."""
    cols = tuple(zip(*images))
    rows = []
    for r in inverse:
        row = []
        for c in cols:
            q, rem = divmod(sum(x * y for x, y in zip(r, c)), d)
            if rem:
                return None
            row.append(q)
        rows.append(tuple(row))
    u = tuple(rows)
    if abs(det(u)) != 1:
        return None
    return u


def _check_iso(f1: Fan, f2: Fan, u: Mat) -> Optional[FanIsomorphism]:
    index2 = {r: i for i, r in enumerate(f2.rays)}
    perm = []
    for r in f1.rays:
        img = vec_mat(r, u)
        if img not in index2:
            return None
        perm.append(index2[img])
    if len(set(perm)) != len(perm) or len(perm) != len(f2.rays):
        return None
    mapped = {tuple(sorted(perm[i] for i in c)) for c in f1.max_cones}
    if mapped != set(f2.max_cones):
        return None
    return FanIsomorphism(matrix=u, ray_permutation=tuple(perm))


def _isomorphism_search(f1: Fan, f2: Fan, find_all: bool) -> list:
    if f1.rank != f2.rank:
        return []
    f1.require_valid()
    f2.require_valid()
    if f1 is not f2 and invariant_vector(f1) != invariant_vector(f2):
        return []
    n = f1.rank
    if not f1.rays:
        if f1.max_cones == f2.max_cones:
            return [FanIsomorphism(matrix=identity_matrix(n), ray_permutation=())]
        return []
    single1, pair1 = _ray_profiles(f1)
    single2, pair2 = (single1, pair1) if f1 is f2 else _ray_profiles(f2)
    anchors = _cone_anchor_indices(f1, single1)
    d = len(anchors)
    anchor_rows, rays2 = tuple(f1.rays[i] for i in anchors), f2.rays
    if d < n:
        # the rays span a proper subspace: take them in the first d
        # coordinates of a unimodular frame V per fan, whose first d rows
        # are a basis of the saturated span of its rays, W = V^-1
        bases = [span_saturation_basis(f.rays, n) for f in (f1, f2)]
        if len(bases[1]) != d:
            return []
        v1, v2 = (complete_to_unimodular(b, n) for b in bases)
        w1, w2 = invert_unimodular(v1), invert_unimodular(v2)
        anchor_rows = tuple(vec_mat(r, w1)[:d] for r in anchor_rows)
        rays2 = tuple(vec_mat(r, w2)[:d] for r in f2.rays)
    inverse, scale = scaled_inverse(anchor_rows)
    classes: dict = {}
    for b, profile in enumerate(single2):
        classes.setdefault(profile, []).append(b)
    # the images tried for each anchor, and the profiles of the pairs they
    # must form with the images of the anchors before it
    candidates = [classes.get(single1[a], ()) for a in anchors]
    wanted = [[pair1(anchors[k]).get(a, _NO_PAIR) for k in range(pos)]
              for pos, a in enumerate(anchors)]
    results = []

    def backtrack(pos: int, chosen: list, rows: list):
        if pos == d:
            # distinct leaves give distinct U: the anchors are independent,
            # and a valid fan repeats no ray, so their images differ
            u = _candidate_matrix(inverse, scale, tuple(rays2[b] for b in chosen))
            if u is None:
                return False
            if d < n:
                u = mat_mul(w1, mat_mul(u, v2[:d]) + v2[d:])
            iso = _check_iso(f1, f2, u)
            if iso is None:
                return False
            results.append(iso)
            return True
        for b in candidates[pos]:
            if b in chosen or any(r.get(b, _NO_PAIR) != w for r, w in zip(rows, wanted[pos])):
                continue
            chosen.append(b)
            rows.append(pair2(b))
            done = backtrack(pos + 1, chosen, rows)
            chosen.pop()
            rows.pop()
            if done and not find_all:
                return True
        return False

    backtrack(0, [], [])
    return sorted(results, key=lambda iso: iso.matrix)


def fan_isomorphism(f1: Fan, f2: Fan) -> Optional[FanIsomorphism]:
    """Some isomorphism f1 -> f2, or None; the first hit in search order:
    the anchors are the independent rays of one maximal cone of f1 (see
    _cone_anchor_indices), and their images are tried by increasing
    target ray index."""
    found = _isomorphism_search(f1, f2, find_all=False)
    return found[0] if found else None


@per_fan
def fan_automorphisms(fan: Fan) -> tuple:
    """The full finite group Aut(fan) in GL(n, Z), canonically sorted.

    Completeness guarantees finiteness and is required.
    """
    require_complete(fan, "automorphism groups of non-complete fans may be infinite")
    return tuple(_isomorphism_search(fan, fan, find_all=True))


def generating_subset(autos: Sequence[FanIsomorphism], rank: int) -> tuple:
    """Small deterministic generating set, grown greedily in sorted order."""
    identity = identity_matrix(rank)
    generated = {identity}
    gens = []
    matrices = [a.matrix for a in autos]
    target = set(matrices)
    for a in autos:
        if a.matrix in generated:
            continue
        gens.append(a)
        frontier = {a.matrix}
        while frontier:
            new = set()
            for m1 in frontier:
                for m2 in list(generated) + [m1]:
                    for prod in (mat_mul(m1, m2), mat_mul(m2, m1)):
                        if prod not in generated and prod not in new and prod not in frontier:
                            new.add(prod)
            generated |= frontier
            frontier = new
        generated.add(a.matrix)
        if target <= generated:
            break
    return tuple(gens)


# ---------------------------------------------------------------------------
# decomposition


class BipartitionFailure(NamedTuple):
    block_a: tuple
    block_b: tuple
    failed_criterion: str


class DecompositionFactor(NamedTuple):
    """An indecomposable factor fan with the lattice basis of its summand
    (rows in the coordinates of the original fan)."""

    fan: Fan
    basis: Mat
    certified_indecomposable: bool
    certificate: tuple


class Decomposition(NamedTuple):
    factors: tuple


def _ray_blocks(fan: Fan) -> list:
    """Connected components of the linear matroid on the ray vectors.

    Components are computed from the fundamental circuits with respect to
    one basis: the pivots of the rays of the first maximal cone, which spans
    N_R because every maximal cone of a complete fan is full dimensional.
    A circuit always lies inside a single component, the components do not
    depend on the basis, and a direct-sum split of the fan can only
    separate whole components.
    """
    rays = fan.rays
    cone = fan.max_cones[0]
    basis_idx = [cone[p] for p in _pivots_and_kernel([rays[i] for i in cone], fan.rank)[0]]
    inverse, _ = scaled_inverse(tuple(rays[i] for i in basis_idx))
    components = [{i} for i in range(len(rays))]
    for i in range(len(rays)):
        if i in basis_idx:
            continue
        # ray i = (ray_i * R / d) * basis, so its circuit is the support of ray_i * R
        coeffs = vec_mat(rays[i], inverse)
        circuit = {i} | {b for b, c in zip(basis_idx, coeffs) if c}
        merged = set().union(*(c for c in components if c & circuit))
        components = [c for c in components if not c & circuit] + [merged]
    return sorted(tuple(sorted(c)) for c in components)


def _bipartitions(blocks: list):
    k = len(blocks)
    for mask in range(1, 1 << (k - 1)):
        part_a = [blocks[0]]
        part_b = []
        for j in range(1, k):
            (part_b if (mask >> (j - 1)) & 1 else part_a).append(blocks[j])
        yield (tuple(sorted(i for b in part_a for i in b)),
               tuple(sorted(i for b in part_b for i in b)))


def _try_split(fan: Fan, part_a: tuple, part_b: tuple):
    """Either ((fan_a, basis_a), (fan_b, basis_b)) or a failure string."""
    n = fan.rank
    basis_a = span_saturation_basis([fan.rays[i] for i in part_a], n)
    basis_b = span_saturation_basis([fan.rays[i] for i in part_b], n)
    # each part is a union of matroid components, so the ranks add up to n
    # and the stacked bases are square: they split Z^n exactly when d = ±1,
    # and then their inverse is d*R
    inverse, d = scaled_inverse(basis_a + basis_b)
    if abs(d) != 1:
        return "direct_sum"
    closure = fan.all_cones
    set_a, set_b, pairs = set(), set(), set()
    for c in fan.max_cones:
        ca = tuple(i for i in c if i in part_a)
        cb = tuple(i for i in c if i in part_b)
        if ca not in closure or cb not in closure:
            return "cone_split"
        set_a.add(ca)
        set_b.add(cb)
        pairs.add((ca, cb))
    if pairs != {(ca, cb) for ca in set_a for cb in set_b}:
        return "product_equality"

    # every ray's coordinates in the stacked bases are one product with the
    # inverse, split between the factors
    da = len(basis_a)

    def build(part, basis, cone_set, coords):
        local = {g: k for k, g in enumerate(part)}
        rays = [vec_scale(vec_mat(fan.rays[i], inverse), d)[coords] for i in part]
        cones = [tuple(local[i] for i in c) for c in cone_set]
        return Fan(len(basis), rays, cones)

    return ((build(part_a, basis_a, set_a, slice(None, da)), basis_a),
            (build(part_b, basis_b, set_b, slice(da, None)), basis_b))


def _decompose_rec(fan: Fan) -> list:
    blocks = _ray_blocks(fan)
    failures = []
    for part_a, part_b in _bipartitions(blocks):
        result = _try_split(fan, part_a, part_b)
        if isinstance(result, str):
            failures.append(BipartitionFailure(part_a, part_b, result))
            continue
        return [factor._replace(basis=mat_mul(factor.basis, basis))
                for sub, basis in result for factor in _decompose_rec(sub)]
    return [DecompositionFactor(fan=fan, basis=identity_matrix(fan.rank),
                                certified_indecomposable=True,
                                certificate=tuple(failures))]


@per_fan
def decompose(fan: Fan) -> Decomposition:
    """Finest factorization of a complete fan into indecomposable factors.

    Each factor comes with the basis of its lattice summand; stacking the
    bases gives a unimodular change of coordinates under which the product
    of the factors reproduces the input exactly.
    """
    require_complete(fan, "only complete fans are decomposed")
    if fan.rank == 0:
        return Decomposition(factors=())
    factors = _decompose_rec(fan)
    factors.sort(key=lambda f: (f.fan.rank, len(f.fan.rays), f.fan.rays, f.basis))
    return Decomposition(factors=tuple(factors))


def reconstruct(dec: Decomposition, rank: int) -> Fan:
    """Product of the factors mapped through the recorded bases."""
    if not dec.factors:
        return Fan(0, [], [])
    prod = dec.factors[0].fan
    for factor in dec.factors[1:]:
        prod = product_fan(prod, factor.fan)
    stacked = mat([row for factor in dec.factors for row in factor.basis])
    assert len(stacked) == rank
    return transform_fan(prod, stacked)


# ---------------------------------------------------------------------------
# wreath-product structure


class FactorClass(NamedTuple):
    label: str
    representative: Fan
    multiplicity: int
    member_indices: tuple
    root_count: int
    dim_aut0: int
    fan_automorphism_order: int


class AutStructureReport(NamedTuple):
    torus_rank: int
    roots: tuple
    root_count: int
    dim_aut0: int
    fan_automorphism_order: int
    fan_automorphism_generators: tuple
    factor_classes: tuple
    structure_string: str

    @property
    def factor_multiset(self) -> tuple:
        return tuple((c.label, c.multiplicity) for c in self.factor_classes)


def _group_factors(dec: Decomposition) -> list:
    classes: list = []
    for idx, factor in enumerate(dec.factors):
        for cls in classes:
            if fan_isomorphism(factor.fan, cls[0]) is not None:
                cls[1].append(idx)
                break
        else:
            classes.append([factor.fan, [idx]])
    classes.sort(key=lambda cls: (invariant_vector(cls[0]), cls[0].rays))
    return classes


@per_fan
def aut_structure_report(fan: Fan) -> AutStructureReport:
    """Full structure report: roots, neutral-component dimension, fan
    automorphisms and the product/wreath decomposition; kept on the fan."""
    require_complete(fan, "structure reports need a complete fan")
    dec = decompose(fan)
    roots = demazure_roots(fan)
    autos = fan_automorphisms(fan)
    classes = _group_factors(dec)
    factor_classes = []
    pieces = []
    for k, (rep, members) in enumerate(classes):
        label = f"X{k + 1}"
        r = len(members)
        factor_classes.append(FactorClass(
            label=label, representative=rep, multiplicity=r,
            member_indices=tuple(members),
            root_count=len(demazure_roots(rep)),
            dim_aut0=lie_dimension(rep),
            fan_automorphism_order=len(fan_automorphisms(rep))))
        piece = f"Aut_{{{label}}}"
        if r > 1:
            piece = f"{piece}^{r} ⋊ S_{r}"
        pieces.append(piece)
    structure = " × ".join(pieces) if pieces else "1"
    dim = lie_dimension(fan)
    assert dim == fan.rank + len(roots)
    return AutStructureReport(
        torus_rank=fan.rank, roots=roots, root_count=len(roots),
        dim_aut0=dim, fan_automorphism_order=len(autos),
        fan_automorphism_generators=generating_subset(autos, fan.rank),
        factor_classes=tuple(factor_classes), structure_string=structure)


def wreath_order_check(fan: Fan) -> bool:
    """Fan-level identity of the wreath decomposition.

    Checks |Aut(fan)| = prod |Aut(factor_i)|^(r_i) * r_i! and that every
    fan automorphism permutes the factors' ray blocks: the rays of each
    factor (its own rays mapped through its basis) all land on the rays of
    one isomorphic factor, and the induced map on factors is a bijection.
    Each ray lies in exactly one lattice summand and a factor's rays span
    its summand, so this says the automorphism is a block permutation of
    isomorphic factors composed with block-wise factor automorphisms.
    """
    require_complete(fan, "theorem check needs a complete fan")
    dec = decompose(fan)
    autos = fan_automorphisms(fan)
    classes = _group_factors(dec)
    expected = 1
    for rep, members in classes:
        r = len(members)
        expected *= len(fan_automorphisms(rep)) ** r * math.factorial(r)
    if len(autos) != expected:
        return False
    if not dec.factors:
        return len(autos) == 1
    class_of = {i: k for k, (_, members) in enumerate(classes) for i in members}
    owner = {vec_mat(r, factor.basis): k
             for k, factor in enumerate(dec.factors) for r in factor.fan.rays}
    block = [owner[r] for r in fan.rays]
    for auto in autos:
        image = {}
        for i, j in enumerate(auto.ray_permutation):
            if image.setdefault(block[i], block[j]) != block[j]:
                return False
        if (any(class_of[k] != class_of[t] for k, t in image.items())
                or len(set(image.values())) != len(dec.factors)):
            return False
    return True
