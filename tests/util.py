"""Shared helpers for the test suite: seeded random generators for fans,
cones and unimodular matrices, plus brute-force oracles kept independent
of the library code paths they check."""

import math
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from toricaut.fan import (
    Fan,
    IncompleteFanError,
    ValidationEntry,
    _cone_generators,
    cone_from_rays,
    is_complete,
)
from toricaut.lattice import (
    _checked_rows,
    det,
    hermite_normal_form,
    identity_matrix,
    mat,
    mat_mul,
    pairing,
    primitive,
    rank_of,
    right_kernel_basis,
    scaled_inverse,
    transpose,
    vec,
    vec_add,
    vec_mat,
    vec_neg,
    vec_scale,
)
from toricaut.roots import DemazureRoot, RootPolytope, root_ray_index
from toricaut.structure import FanIsomorphism
from toricaut.symbolic import (
    ActionChartCertificate,
    ConeChartCertificate,
    GradedLaurentPoly,
    HomogeneousDerivation,
    RegularityCertificate,
    WitnessMonomial,
    _parallelepiped_points,
    comorphism_apply,
    derivation_apply,
    dual_monomials,
)

# the fixtures under tests/fixtures that are valid and complete, listed so
# that a new fixture moves no count pinned over them
COMPLETE_FIXTURES = ("Bl24P3", "F1xF1xF1", "F3_F20", "F3_conjugate", "P1122334", "P112_F9",
                     "P2xP2xP1_u", "cube5")


def solve_left(a, b):
    """Solve A*X = B over the rationals by Gauss-Jordan elimination with
    Fractions; None if the square matrix A is singular."""
    n = len(a)
    aug = [[Fraction(x) for x in list(a[i]) + list(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n:]) for i in range(n))


def mat_is_integral(a):
    return all(Fraction(x).denominator == 1 for r in a for x in r)


def mat_to_int(a):
    return tuple(tuple(int(x) for x in r) for r in a)


def random_primitive(rng, rank, bound=4):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(rank))
        if any(v):
            return primitive(v)


def _half(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angle_cmp(a, b):
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return ha - hb
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def random_complete_fan_rank2(rng, extra=3):
    """Random complete rank-2 fan: the axis rays plus a few random ones,
    sorted by exact angle, with consecutive pairs as maximal cones."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for _ in range(extra):
        rays.add(random_primitive(rng, 2))
    ordered = sorted(rays, key=cmp_to_key(_angle_cmp))
    k = len(ordered)
    return Fan(2, ordered, [(i, (i + 1) % k) for i in range(k)])


def star_subdivision(fan, cone):
    """Star subdivision of a fan at one of its cones: the new ray is the
    primitive sum of the cone's rays, and every maximal cone holding the
    cone is split into the pyramids over the new ray and each facet of it
    that misses part of the cone (for a simplicial cone, one per ray of
    the cone)."""
    new = primitive(tuple(map(sum, zip(*(fan.rays[i] for i in cone)))))
    k = len(fan.rays)
    cones = []
    for c in fan.max_cones:
        if set(cone) <= set(c):
            facets = {tuple(j for j in c if pairing(fan.rays[j], g) == 0)
                      for g in fan.cone(c).facet_normals}
            cones += [f + (k,) for f in facets if not set(cone) <= set(f)]
        else:
            cones.append(c)
    return Fan(fan.rank, fan.rays + (new,), cones)


def random_blow_up(rng, fan, times):
    """Repeated star subdivisions at seeded faces of dimension at least 2."""
    for _ in range(times):
        fan = star_subdivision(fan, rng.choice(sorted(c for c in fan.all_cones if len(c) >= 2)))
    return fan


def random_unimodular(rng, n, steps=8):
    m = [list(r) for r in identity_matrix(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    result = mat(m)
    assert abs(det(result)) == 1
    return result


def invert_unimodular(u):
    """U^-1 for a unimodular U, from its scaled inverse."""
    r, d = scaled_inverse(u)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(d * x for x in row) for row in r)


def complete_to_unimodular(rows, n):
    """Extend a basis of a saturated sublattice to an n x n unimodular matrix.

    The given rows come first.  Raises if the rows do not generate a
    saturated sublattice of full row rank.
    """
    rows = mat(rows)
    d = len(rows)
    if d == 0:
        return identity_matrix(n)
    if any(len(r) != n for r in rows):
        raise ValueError("wrong ambient rank")
    h, u = hermite_normal_form(transpose(rows, n))
    if sum(1 for r in h if any(r)) != d:
        raise ValueError("rows are not linearly independent")
    # rows^T = U^-1 * H, so rows = T^T * V[:d] for the top block T of H and
    # V = (U^T)^-1; the independent rows are saturated exactly when every
    # pivot of T is 1, and then T, reduced above its pivots, is I
    if any(h[i][i] != 1 for i in range(d)):
        raise ValueError("rows do not generate a saturated sublattice")
    return rows + invert_unimodular(transpose(u))[d:]


def weighted_projective_fan(q):
    """The fan of the weighted projective space P(q): N = Z^(n+1) / Z*q,
    written in coordinates by a unimodular V whose first row is q, so that
    ray i, the image of e_i, is row i of V^-1 without its first entry.  The
    maximal cones are the n-subsets of the n + 1 rays, and the one without
    ray i has multiplicity q_i."""
    n = len(q) - 1
    inverse = invert_unimodular(complete_to_unimodular((tuple(q),), n + 1))
    return Fan(n, [row[1:] for row in inverse], list(combinations(range(n + 1), n)))


def cube_fan(n):
    """Face fan of the cube [-1, 1]^n: one cone over each facet, 2^(n-1)
    rays each, so non-simplicial for n >= 3."""
    rays = list(product((-1, 1), repeat=n))
    return Fan(n, rays, [[i for i, r in enumerate(rays) if r[axis] == sign]
                         for axis in range(n) for sign in (-1, 1)])


def random_pointed_cone_rays(rng, rank, count):
    """Ray sets guaranteed strictly convex: all rays in an open halfspace."""
    rays = []
    while len(rays) < count:
        v = random_primitive(rng, rank)
        if v[-1] > 0 or (v[-1] == 0 and sum(v) > 0):
            rays.append(v)
    return rays


def degenerate_cone_rows(rng, n):
    """Constraint rows whose cones are degenerate for double description:
    the cone over a seeded subset of {-1, 0, 1}^(n-1) at height 1, many of
    whose points share a face, and, in turn, its facet normals (from
    extreme_rays_by_subset_enumeration), many of which meet in one ray.
    Each system gets duplicate rows, positive multiples and sums of two
    rows (redundant), and is shuffled."""
    points = [p + (1,) for p in product((-1, 0, 1), repeat=n - 1) if rng.random() < 0.6]
    points = points or [(0,) * (n - 1) + (1,)]
    normals = list(extreme_rays_by_subset_enumeration(points, n)[0])
    for system in filter(None, (points, normals)):
        system = list(system)
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(system), rng.choice(system)
            system.append(rng.choice([a, tuple(2 * x for x in a),
                                      tuple(x + y for x, y in zip(a, b))]))
        rng.shuffle(system)
        yield [r for r in system if any(r)]


def compose(a, b):
    """First apply a, then b (matrices act on row vectors from the right)."""
    return FanIsomorphism(
        matrix=mat_mul(a.matrix, b.matrix),
        ray_permutation=tuple(b.ray_permutation[i] for i in a.ray_permutation))


def inverse(a):
    inv = invert_unimodular(a.matrix)
    perm = [0] * len(a.ray_permutation)
    for i, j in enumerate(a.ray_permutation):
        perm[j] = i
    return FanIsomorphism(matrix=inv, ray_permutation=tuple(perm))


def minors_gcd(rows, k):
    """gcd of all k x k minors of the rows (0 if there are none or all
    vanish); k rows extend to a basis of Z^n exactly when it is 1."""
    if k == 0:
        return 1
    g = 0
    n = len(rows[0]) if rows else 0
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(n), k):
            g = math.gcd(g, det(tuple(tuple(rows[i][j] for j in ci) for i in ri)))
            if g == 1:
                return 1
    return g


def greedy_independent_rows(rows):
    """Reference for the pivot rows of one Hermite normal form: scan the rows
    in order and keep each one that raises the rank of those kept."""
    kept, chosen = [], []
    for i, r in enumerate(rows):
        if rank_of(chosen + [r]) > len(chosen):
            kept.append(i)
            chosen.append(r)
    return kept


def automorphism_order_oracle(fan):
    """Count fan automorphisms by exhausting all ray bijections.

    Independent of the library's pruned backtracking search: for every
    permutation of the rays, solve for the matrix from a spanning subset,
    then verify integrality, unimodularity, the full ray correspondence
    and cone-set preservation.
    """
    rays = fan.rays
    n = fan.rank
    anchors = greedy_independent_rows(rays)
    assert len(anchors) == n
    count = 0
    for perm in permutations(range(len(rays))):
        a = mat([rays[i] for i in anchors])
        b = mat([rays[perm[i]] for i in anchors])
        x = solve_left(a, b)
        if x is None or not mat_is_integral(x):
            continue
        u = mat_to_int(x)
        if abs(det(u)) != 1:
            continue
        if any(vec_mat(rays[i], u) != rays[perm[i]] for i in range(len(rays))):
            continue
        mapped = {tuple(sorted(perm[i] for i in c)) for c in fan.max_cones}
        if mapped == set(fan.max_cones):
            count += 1
    return count


def witness_oracle(fan, root):
    """Reference for faithfulness_check: the least (L1 norm, m, cone) with
    <rho_e, m> = 1 and m in the dual of a maximal cone containing rho_e,
    found by scanning coordinate boxes of doubling radius."""
    rho = fan.rays[root.rho_e]
    charts = [c for c in fan.max_cones if root.rho_e in c]

    def candidates(radius):
        for m in product(range(-radius, radius + 1), repeat=fan.rank):
            if pairing(rho, m) == 1:
                for c in charts:
                    if all(pairing(fan.rays[i], m) >= 0 for i in c):
                        yield sum(abs(x) for x in m), m, c

    radius = 1
    while True:
        found = min(candidates(radius), default=None)
        if found is not None:
            if found[0] > radius:
                # every m of L1 norm at most found[0] lies in this box
                found = min(candidates(found[0]))
            return found[1], found[2]
        radius *= 2


class DualCone(NamedTuple):
    """Dual of a non-full-dimensional cone: full space or has lineality.

    generators span the pointed part; the lineality basis spans the
    largest linear subspace contained in the dual.
    """

    rank: int
    generators: tuple
    lineality: tuple

    @property
    def is_full_space(self) -> bool:
        return len(self.lineality) == self.rank


def dual_cone(c):
    """Dual cone in M, by the library's double description.

    For a full-dimensional cone the dual is strictly convex and is
    returned as a Cone whose generators are the facet normals of the
    input.  Otherwise the dual contains the annihilator of the input's
    span and a DualCone marker is returned (for the zero cone this is all
    of M_R).
    """
    if c.dim == c.rank:
        return cone_from_rays(c.facet_normals, c.rank)
    gens, lin = _cone_generators(c.rays, c.rank)
    return DualCone(rank=c.rank, generators=gens, lineality=lin)


def halfspace_cone_generators(normals, n):
    """fan._cone_generators of any integer rows of length n, which are
    checked and converted to tuples first (lattice._checked_rows)."""
    return _cone_generators(_checked_rows(normals, n), n)


def extreme_rays_by_subset_enumeration(normals, n):
    """Reference for halfspace_cone_generators that kernels every rank n-1
    constraint subsystem instead of running double description."""
    rows = []
    seen = set()
    for a in normals:
        a = vec(a)
        if any(a) and a not in seen:
            seen.add(a)
            rows.append(a)
    lin = right_kernel_basis(rows, n)
    need = n - 1 - len(lin)
    if need < 0:
        return (), lin
    found = set()
    for sub in combinations(rows, need):
        ker = right_kernel_basis(list(sub) + list(lin), n)
        if len(ker) != 1:
            continue
        v = primitive(ker[0])
        for cand in (v, vec_neg(v)):
            if cand not in found and all(pairing(a, cand) >= 0 for a in rows):
                found.add(cand)
    return tuple(sorted(found)), lin


def maximal_cones_oracle(cones):
    """Reference for Fan's absorption of non-maximal cones: the all-pairs
    rule, for cones given by indices into already sorted rays."""
    listed = sorted({tuple(sorted(set(c))) for c in cones})
    maximal = [c for c in listed if not any(set(c) < set(d) for d in listed)]
    return tuple(maximal) if maximal else ((),)


def faces_by_subset_scan(fan, cidx):
    """Reference for Fan._faces_of: every subset of the cone's rays that is
    its own face closure, i.e. equals the rays killed by every facet normal
    killing it."""
    normals = fan.cone(cidx).facet_normals
    faces = set()
    for size in range(len(cidx) + 1):
        for sub in combinations(cidx, size):
            active = [g for g in normals if all(pairing(fan.rays[i], g) == 0 for i in sub)]
            if tuple(i for i in cidx if all(pairing(fan.rays[i], g) == 0 for g in active)) == sub:
                faces.add(sub)
    return faces


def is_face_by_closure(face_rays, cone):
    """Is the cone spanned by face_rays (a subset of cone) a face of it?
    Its closure, the rays killed by every facet normal killing all of
    face_rays, must be face_rays themselves."""
    active = [g for g in cone.facet_normals if all(pairing(r, g) == 0 for r in face_rays)]
    closure = {r for r in cone.rays if all(pairing(r, g) == 0 for g in active)}
    return closure == set(face_rays)


def pairwise_violations_by_closure(fan):
    """Reference for fan._pairwise_violations: each pair of maximal cones,
    intersected by their joint facet normals, with is_face_by_closure as
    the face test."""
    entries = []
    for a, b in combinations(fan.max_cones, 2):
        inter, lin = halfspace_cone_generators(
            fan.cone(a).facet_normals + fan.cone(b).facet_normals, fan.rank)
        assert not lin
        for c in (a, b):
            if not is_face_by_closure(inter, fan.cone(c)):
                entries.append(ValidationEntry(
                    "intersection_not_face",
                    f"intersection of cones {list(a)} and {list(b)} is not a face of {list(c)}"))
    return entries


def complete_by_adjacency(fan):
    """Reference for is_complete on a valid fan: every maximal cone is full
    dimensional, every ridge lies in exactly two maximal cones, and the
    facet-adjacency graph is connected."""
    if any(fan.cone(c).dim != fan.rank for c in fan.max_cones):
        return False
    if fan.rank == 0:
        return True
    owners = {}
    for c in fan.max_cones:
        for g in fan.cone(c).facet_normals:
            owners.setdefault(tuple(i for i in c if pairing(fan.rays[i], g) == 0), []).append(c)
    if any(len(cs) != 2 for cs in owners.values()):
        return False
    adj = {c: set() for c in fan.max_cones}
    for a, b in owners.values():
        adj[a].add(b)
        adj[b].add(a)
    seen, frontier = {fan.max_cones[0]}, [fan.max_cones[0]]
    while frontier:
        frontier = [b for c in frontier for b in adj[c] - seen]
        seen.update(frontier)
    return len(seen) == len(fan.max_cones)


def _eliminated_cones(fan):
    """Each maximal cone built from its rays by cone_from_rays, never read
    from the fan's cache."""
    return {c: cone_from_rays([fan.rays[i] for i in c], fan.rank) for c in fan.max_cones}


def facets_by_pairings(fan):
    """Reference for fan._facets: each maximal cone's facet normals, each
    with the cone's rays on which it vanishes."""
    return {c: tuple((g, tuple(i for i in c if not pairing(fan.rays[i], g)))
                     for g in cone.facet_normals)
            for c, cone in _eliminated_cones(fan).items()}


def certificate_by_pairings(fan):
    """Reference for fan._certified_complete: every maximal cone full
    dimensional, every ridge (the rays a facet normal kills) in exactly
    two of them, the second's rays off it strictly across the first's
    normal, and an interior point of the first cone in no other."""
    cones = _eliminated_cones(fan)
    if any(cone.dim != fan.rank for cone in cones.values()):
        return False
    owners = {}
    for c, facets in facets_by_pairings(fan).items():
        for g, ridge in facets:
            owners.setdefault(ridge, []).append((c, g))
    for ridge, sides in owners.items():
        if len(sides) != 2:
            return False
        (_, g), (c, _) = sides
        if any(pairing(fan.rays[i], g) >= 0 for i in c if i not in ridge):
            return False
    first, *others = fan.max_cones
    point = tuple(map(sum, zip(*(fan.rays[i] for i in first))))
    return not any(cones[c].contains(point) for c in others)


def wall_relations_by_solving(fan):
    """Reference for structure._wall_relations on a complete simplicial
    fan: for each ray, the sorted relations of the walls through it, each
    as sorted (ray, (0 or 1, coefficient)) items.  Across the wall tau
    between sigma = tau + rho and sigma' = tau + rho', rho' is written in
    the rays of sigma over the rationals, and the relation scaled to
    primitive integers with rho's coefficient positive."""
    walls = [[] for _ in fan.rays]
    owners = {}
    for c in fan.max_cones:
        for p in range(len(c)):
            owners.setdefault(c[:p] + c[p + 1:], []).append(c)
    for tau, (c, other) in owners.items():
        (rho,) = set(c) - set(tau)
        (rho2,) = set(other) - set(tau)
        coeffs = [x for x, in solve_left(transpose([fan.rays[i] for i in c]),
                                         [(x,) for x in fan.rays[rho2]])]
        scale = math.lcm(*(x.denominator for x in coeffs))
        ints = [int(x * scale) for x in coeffs]
        g = math.gcd(scale, *ints)
        # rho2 = sum_k coeffs_k * c_k, so scale*rho2 - ints_rho * rho = sum over tau
        relation = {i: (0, x // g) for i, x in zip(c, ints)}
        relation[rho] = (1, -ints[c.index(rho)] // g)
        relation[rho2] = (1, scale // g)
        items = tuple(sorted(relation.items()))
        for i in relation:
            walls[i].append(items)
    return [sorted(w) for w in walls]


def support_contains(fan, v):
    """Does the support of the fan contain v?"""
    return any(fan.cone(c).contains(v) for c in fan.max_cones)


def roots_oracle(fan, box_radius):
    """Reference for demazure_roots: filter every |e_i| <= box_radius by
    the definition of a root."""
    fan.require_valid()
    if not is_complete(fan):
        raise IncompleteFanError("fan is not complete: root set may be infinite")
    out = []
    for e in product(range(-box_radius, box_radius + 1), repeat=fan.rank):
        j = root_ray_index(fan.rays, e)
        if j is not None:
            out.append(DemazureRoot(e=e, rho_e=j))
    return tuple(sorted(out, key=DemazureRoot.sort_key))


def root_box_bound(fan):
    """Smallest box radius that contains every root polytope's integer box."""
    bound = 0
    for j in range(len(fan.rays)):
        box = RootPolytope.for_ray(fan, j).integer_box(fan.rank)
        for rng in box or ():
            bound = max(bound, abs(rng.start), abs(rng.stop - 1))
    return bound


def root_polytope_bounds(fan, j):
    """Rational per-coordinate (min, max) of the root polytope of ray j, from
    its vertices: every (rank - 1)-subset of the other rays, made tight together
    with <rho_j, e> = -1, solved with Fractions; None if it has no vertex."""
    rho = fan.rays[j]
    others = [r for i, r in enumerate(fan.rays) if i != j]
    vertices = []
    for sub in combinations(others, fan.rank - 1):
        x = solve_left((rho,) + sub, ((-1,),) + ((0,),) * len(sub))
        if x is None:
            continue
        e = tuple(row[0] for row in x)
        if all(pairing(r, e) >= 0 for r in others):
            vertices.append(e)
    if not vertices:
        return None
    return [(min(v[k] for v in vertices), max(v[k] for v in vertices))
            for k in range(fan.rank)]


def parallelepiped_points_oracle(gens, d):
    """Reference for symbolic._parallelepiped_points: every integer point of
    each independent d-subset's bounding box whose Fraction coordinates in
    that basis all lie in [0, 1)."""
    points = {(0,) * d}
    for basis in combinations(gens, d):
        if det(basis) == 0:
            continue
        ranges = [range(sum(min(0, b[k]) for b in basis), sum(max(0, b[k]) for b in basis) + 1)
                  for k in range(d)]
        for p in product(*ranges):
            lam = solve_left(transpose(basis), tuple((c,) for c in p))
            if all(0 <= row[0] < 1 for row in lam):
                points.add(p)
    return points


def regularity_oracle(fan, root):
    """Reference for regularity_check that moves characters instead of
    trusting the closed form: (ok, per-chart verdicts in max_cones order).
    A chart needs the ray inequalities; a chart without rho_e also needs
    sigma' in the fan, and every character m of sigma'^v with entries in
    -4..4 shifted into the chart's dual by the least k >= 0 with
    <rho, m> + k >= 0 on the rays with <rho, e> > 0."""
    charts = []
    for cone in fan.max_cones:
        values = {i: pairing(fan.rays[i], root.e) for i in cone if i != root.rho_e}
        chart_ok = all(v >= 0 for v in values.values())
        if root.rho_e not in cone:
            sigma_prime = tuple(sorted([root.rho_e] + [i for i, v in values.items() if v == 0]))
            chart_ok = chart_ok and sigma_prime in fan.all_cones
            for m in _box_dual_points(fan, sigma_prime, 4) if chart_ok else ():
                k = max([0] + [-pairing(fan.rays[i], m) for i, v in values.items() if v > 0])
                chart_ok = chart_ok and all(pairing(fan.rays[i], m) + k * v >= 0
                                            for i, v in values.items())
        charts.append(chart_ok)
    return all(charts), tuple(charts)


def action_chart_oracle(fan, root, cone, radius=4):
    """Reference for action_chart_check on one chart containing rho_e, on
    every character of the chart's dual with entries in -radius..radius
    instead of the height-2 samples: (additive, infinitesimal), where
    additive asks m + i*e in the dual for every 0 <= i <= <rho_e, m>, and
    infinitesimal asks m + e in the dual when <rho_e, m> >= 1."""
    rays = [fan.rays[i] for i in cone]
    values = [pairing(r, root.e) for r in rays]
    at = cone.index(root.rho_e)
    additive = infinitesimal = True
    for m in _box_dual_points(fan, cone, radius):
        row = [pairing(r, m) for r in rays]
        additive = additive and all(p + i * v >= 0 for i in range(row[at] + 1)
                                    for p, v in zip(row, values))
        infinitesimal = infinitesimal and (row[at] == 0 or all(
            p + v >= 0 for p, v in zip(row, values)))
        if not (additive or infinitesimal):
            break
    return additive, infinitesimal


@lru_cache(maxsize=None)
def _box_dual_points(fan, cone, radius):
    rays = [fan.rays[i] for i in cone]
    return tuple(m for m in product(range(-radius, radius + 1), repeat=fan.rank)
                 if all(pairing(r, m) >= 0 for r in rays))


def classification_oracle(fan, p, e):
    """Reference for the classifier's cross-check on every height-4 sample:
    does <rho, m + e> >= 0 hold for each maximal cone's rays rho and each
    sample m of its dual with <p, m> != 0?"""
    return all(pairing(fan.rays[i], vec_add(m, e)) >= 0
               for cone in fan.max_cones for m in dual_monomials(fan, cone, 4)
               if pairing(p, m) for i in cone)


def _in_integer_span(basis, x):
    """Is x an integer combination of the linearly independent basis?"""
    gram = tuple(tuple(pairing(a, b) for b in basis) for a in basis)
    coeffs = solve_left(gram, tuple((pairing(a, x),) for a in basis)) if basis else ()
    return coeffs is not None and mat_is_integral(coeffs) and tuple(x) == tuple(
        sum(int(c[0]) * a[k] for c, a in zip(coeffs, basis)) for k in range(len(x)))


def semigroup_contains(gens, rays, m):
    """Is m a non-negative integer combination of gens, which lie in the dual
    of the cone over rays?  w, the sum of the rays, is positive on every
    dual point outside the annihilator L of the rays and zero on L.  A
    depth-first search subtracts generators with <w, g> > 0 while the rest
    stays in the dual, so no path is longer than <w, m>.  A rest on L must
    lie in the integer span of the generators on L, taken from a subset
    that is a basis of it; that needs the generators on L to come in +/-
    pairs, and the answer is False when they do not."""
    w = tuple(map(sum, zip(*rays)))
    positive = [g for g in gens if pairing(w, g) > 0]
    kernel = [g for g in gens if any(g) and not pairing(w, g)]
    if any(vec_neg(g) not in kernel for g in kernel):
        return False
    basis = next(b for b in combinations(kernel, rank_of(kernel) if kernel else 0)
                 if all(_in_integer_span(b, g) for g in kernel))
    stack, seen = [vec(m)], {vec(m)}
    while stack:
        x = stack.pop()
        if not pairing(w, x):
            if _in_integer_span(basis, x):
                return True
            continue
        for g in positive:
            y = tuple(a - b for a, b in zip(x, g))
            if y not in seen and all(pairing(r, y) >= 0 for r in rays):
                seen.add(y)
                stack.append(y)
    return False


# -- the certificates evaluated on vectors ----------------------------------
#
# References for the table-based certificates of toricaut.symbolic: every
# sample is a character m, every pairing is computed from m and a ray, and
# every root gets its own Hermite form for m1.


@lru_cache(maxsize=None)
def dual_samples_by_vectors(fan, cone_idx, height):
    """Reference for dual_monomials: for each maximal cone sigma through the
    cone, the distinct q + sum c_g * g, 0 <= c_g <= height, over sigma's
    facet normals and -u (u = Fan.face_normal_sum) at once, q over the
    normals' parallelepiped points; the smallest set, first by index."""
    samples = []
    for sigma in (c for c in fan.max_cones if set(cone_idx).issubset(c)):
        normals = fan.cone(sigma).facet_normals
        u = fan.face_normal_sum(sigma, cone_idx)
        sums = _parallelepiped_points(normals, fan.rank)
        for g in normals + ((vec_neg(u),) if any(u) else ()):
            sums = {vec_add(m, vec_scale(g, c)) for m in sums for c in range(height + 1)}
        samples.append(sums)
    return tuple(sorted(min(samples, key=len)))


def regularity_by_vectors(fan, root):
    """Reference for regularity_check: the entries from pairings of vectors,
    and each chart's verdict by the sample test that the closed form
    replaced, as (certificate, per-chart verdicts).  On a chart without
    rho_e, each height-1 sample m of sigma'^v is shifted to m + k*e and
    paired with the chart's rays."""
    e = root.e
    entries, verdicts = [], []
    for cone_idx in fan.max_cones:
        values = {i: pairing(fan.rays[i], e) for i in cone_idx if i != root.rho_e}
        ok = all(v >= 0 for v in values.values())
        if root.rho_e in cone_idx:
            entries.append(ConeChartCertificate(
                cone=cone_idx, contains_distinguished_ray=True,
                ray_inequalities_ok=ok, sigma_prime=None, sigma_prime_in_fan=None,
                samples_checked=0))
            verdicts.append(ok)
            continue
        sigma_prime = tuple(sorted([root.rho_e] + [i for i, v in values.items() if v == 0]))
        in_fan = sigma_prime in fan.all_cones
        samples_ok = True
        for m in dual_samples_by_vectors(fan, sigma_prime, 1) if in_fan else ():
            shift = max([0] + [-pairing(fan.rays[i], m) for i, v in values.items() if v > 0])
            shifted = vec_add(m, vec_scale(e, shift))
            samples_ok = samples_ok and all(pairing(fan.rays[i], shifted) >= 0 for i in cone_idx)
        entries.append(ConeChartCertificate(
            cone=cone_idx, contains_distinguished_ray=False,
            ray_inequalities_ok=ok, sigma_prime=sigma_prime,
            sigma_prime_in_fan=in_fan, samples_checked=0))
        verdicts.append(ok and in_fan and samples_ok)
    return RegularityCertificate(root=root, entries=tuple(entries)), tuple(verdicts)


def infinitesimal_by_expansion(fan, root, m):
    """Reference for infinitesimal_check: the s-linear coefficient of the
    whole expanded comorphism against d_{rho_e, e}(chi^m).  Raises
    LocalizationRequiredError when <rho_e, m> < 0, as the expansion does."""
    lhs = comorphism_apply(fan, root, m).s_coefficient(1)
    d = HomogeneousDerivation(p=fan.rays[root.rho_e], e=root.e)
    return lhs == derivation_apply(d, GradedLaurentPoly.chi(m)).s_coefficient(0)


def degrees_by_fill(fan, j):
    """Reference for symbolic.ray_degrees: the sorted degrees <rho_j, m>
    of every height-2 sample m of the charts containing ray j."""
    return sorted({pairing(fan.rays[j], m) for cone_idx in fan.max_cones if j in cone_idx
                   for m in dual_samples_by_vectors(fan, cone_idx, 2)})


def action_chart_by_vectors(fan, root, charts):
    """Reference for action_chart_check on the given charts: the height-2
    samples m of each chart containing rho_e, the characters m + k*e and,
    when k = <rho_e, m> >= 1, m + e paired with the chart's rays, and each
    degree k with the character k*m0, m0 the witness of witness_by_vectors."""
    rho = fan.rays[root.rho_e]
    degrees = set()
    additive = infinitesimal = True
    for cone_idx in charts:
        if root.rho_e not in cone_idx:
            continue
        rays = [fan.rays[i] for i in cone_idx]
        for m in dual_samples_by_vectors(fan, cone_idx, 2):
            k = pairing(rho, m)
            additive = additive and all(
                pairing(r, vec_add(m, vec_scale(root.e, k))) >= 0 for r in rays)
            infinitesimal = infinitesimal and (k == 0 or all(
                pairing(r, vec_add(m, root.e)) >= 0 for r in rays))
            degrees.add(k)
    m0 = witness_by_vectors(fan, root)[0].m0
    return ActionChartCertificate(root=root,
                                  degrees=tuple((k, vec_scale(m0, k)) for k in sorted(degrees)),
                                  additive=additive, infinitesimal=infinitesimal)


@lru_cache(maxsize=None)
def sample_rows(fan, cone_idx, height):
    """Each sample m of dual_monomials mapped to its row (<rho_i, m>)_i."""
    return {m: tuple(pairing(r, m) for r in fan.rays)
            for m in dual_monomials(fan, cone_idx, height)}


def action_chart_by_scan(fan, root):
    """Reference for action_chart_check's verdicts: every height-2 sample
    row of each chart containing rho_e, at every ray of the chart with a
    negative pairing c, tested with r_i + k*c >= 0 and, when k >= 1,
    r_i + c >= 0."""
    rho_e, values = root.rho_e, tuple(pairing(r, root.e) for r in fan.rays)
    additive = infinitesimal = True
    for cone_idx in fan.max_cones:
        if rho_e not in cone_idx:
            continue
        negative = [(i, values[i]) for i in cone_idx if values[i] < 0]
        rows = sample_rows(fan, cone_idx, 2).values()
        additive = additive and all(row[i] + row[rho_e] * c >= 0
                                    for row in rows for i, c in negative)
        infinitesimal = infinitesimal and all(row[i] + c >= 0
                                              for row in rows if row[rho_e] for i, c in negative)
    return additive, infinitesimal


def witness_by_vectors(fan, root):
    """Reference for faithfulness_check and witness_holds: m1 from a Hermite
    form of this root's ray, moved into each chart's dual along the sum w of
    the chart's facet normals vanishing on the ray; the least (L1 norm, m0,
    chart), and whether m0 and m0 + e lie in that chart's dual with
    <rho_e, m0> = 1."""
    rho = fan.rays[root.rho_e]
    m1 = hermite_normal_form(tuple((x,) for x in rho))[1][0]
    candidates = []
    for cone_idx in (c for c in fan.max_cones if root.rho_e in c):
        w = fan.face_normal_sum(cone_idx, (root.rho_e,))
        t = max([0] + [-(pairing(fan.rays[i], m1) // pairing(fan.rays[i], w))
                       for i in cone_idx if i != root.rho_e])
        m0 = vec_add(m1, vec_scale(w, t))
        candidates.append((sum(abs(x) for x in m0), m0, cone_idx))
    _, m0, cone_idx = min(candidates)
    witness = WitnessMonomial(m0=m0, cone=cone_idx, witness_s_exp=1,
                              witness_character=vec_add(m0, root.e))
    holds = pairing(rho, m0) == 1 and all(
        pairing(fan.rays[i], m0) >= 0 and pairing(fan.rays[i], vec_add(m0, root.e)) >= 0
        for i in cone_idx)
    return witness, holds
