"""Smooth complete toric surfaces against their classification.

A smooth complete toric surface is its cyclic sequence of
self-intersection numbers b_i, read off the rays in angular order by
rho_(i-1) + rho_(i+1) = -b_i * rho_i (Oda, Convex Bodies and Algebraic
Geometry, 1988, section 1.6).  A lattice automorphism of the fan is a
dihedral symmetry of the ray cycle that keeps the sequence, and every such
symmetry is one: it is fixed by the images of two adjacent rays, and the
relations carry it around the cycle.  So |Aut| is the dihedral stabiliser
of the sequence, two surfaces are isomorphic exactly when their sequences
lie in one dihedral orbit, and only P1 x P1 = F0 is a product.  Nothing
here reads the search's profiles: the b_i are the wall relations of rank
2, computed from the rays alone.
"""

import itertools

from toricaut.fan import Fan
from toricaut.structure import decompose, fan_automorphisms, fan_isomorphism


def surfaces(max_rays):
    """The ray cycles, counterclockwise, of every surface reached from P2
    and from F_a, |a| <= 3, by star subdivisions, with at most max_rays
    rays; each fan once."""
    starts = [((1, 0), (0, 1), (-1, -1))]
    starts += [((1, 0), (0, 1), (-1, a), (0, -1)) for a in range(-3, 4)]
    seen, out, stack = set(), [], starts
    while stack:
        rays = stack.pop()
        if frozenset(rays) in seen:
            continue
        seen.add(frozenset(rays))
        out.append(rays)
        if len(rays) < max_rays:
            for i, (u, v) in enumerate(zip(rays, rays[1:] + rays[:1])):
                stack.append(rays[:i + 1] + ((u[0] + v[0], u[1] + v[1]),) + rays[i + 1:])
    return out


def self_intersections(rays):
    out = []
    for before, ray, after in zip(rays[-1:] + rays[:-1], rays, rays[1:] + rays[:1]):
        s = (before[0] + after[0], before[1] + after[1])
        k = 0 if ray[0] else 1
        c = s[k] // ray[k]
        assert (c * ray[0], c * ray[1]) == s, rays
        out.append(-c)
    return tuple(out)


def dihedral_images(seq):
    r = len(seq)
    for t in range(r):
        yield tuple(seq[(t + i) % r] for i in range(r))
        yield tuple(seq[(t - i) % r] for i in range(r))


def test_surfaces_up_to_seven_rays():
    classes = {}
    for rays in surfaces(7):
        seq = self_intersections(rays)
        fan = Fan(2, rays, [(i, (i + 1) % len(rays)) for i in range(len(rays))])
        assert len(fan_automorphisms(fan)) == sum(s == seq for s in dihedral_images(seq)), seq
        classes.setdefault(min(dihedral_images(seq)), []).append(fan)
    # P2; F0, F1, F2, F3; then their blow-ups
    assert [sum(len(c) == r for c in classes) for r in range(3, 8)] == [1, 4, 4, 12, 27]
    assert sum(map(len, classes.values())) == 377
    for members in classes.values():
        assert all(fan_isomorphism(f, members[0]) is not None for f in members[1:])
    for (s1, c1), (s2, c2) in itertools.combinations(classes.items(), 2):
        if len(s1) == len(s2):
            assert fan_isomorphism(c1[0], c2[0]) is None, (s1, s2)
    for seq, members in classes.items():
        assert (len(decompose(members[0]).factors) == 2) == (seq == (0, 0, 0, 0)), seq
