import gc
import json
import pathlib
import pickle
import random
import weakref
from collections import Counter
from itertools import combinations

import pytest

from toricaut import cli, fan as fan_module, lattice, roots as roots_module
from toricaut.cli import fan_from_document, parse_fan, run_certificates
from toricaut.corpus import corpus
from toricaut.fan import (
    Cone,
    Fan,
    NotStrictlyConvexError,
    ValidationReport,
    _Walk,
    _maximal,
    _pairwise_violations,
    cone_from_rays,
    is_complete,
    is_simplicial,
    is_smooth,
    product_fan,
    transform_fan,
    validate_fan,
)
from toricaut.lattice import det, identity_matrix, mat_mul, pairing, primitive
from toricaut.roots import _ray_charts, demazure_roots, product_chart_roots
from toricaut.structure import (
    _group_factors,
    _multiplicity,
    _wall_relations,
    aut_structure_report,
    decompose,
    fan_automorphisms,
)
from toricaut.symbolic import dual_monomials, ray_witness

from test_roots import SQUARE_PYRAMID
from util import (
    DualCone,
    certificate_by_pairings,
    complete_by_adjacency,
    cube_fan,
    dual_cone,
    extreme_rays_by_subset_enumeration,
    faces_by_subset_scan,
    facets_by_pairings,
    greedy_independent_rows,
    halfspace_cone_generators,
    maximal_cones_oracle,
    minors_gcd,
    pairwise_violations_by_closure,
    random_blow_up,
    random_complete_fan_rank2,
    random_pointed_cone_rays,
    random_primitive,
    random_unimodular,
    support_contains,
    wall_relations_by_solving,
    weighted_projective_fan,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


class TestFanConstructor:
    """Fan normalises what any caller passes: integer-like entries become
    ints, rays are sorted and cones relabelled, sorted and absorbed."""

    def test_canonical_form(self):
        fan = Fan(2.0, iter([[1.0, 0], (0, True), range(-1, -3, -1), [2, 1]]),
                  [[0, "1"], (1, 2, 2), {2, 3}, [3, 0], [0]])
        assert fan.rank == 2 and type(fan.rank) is int
        assert fan.rays == ((-1, -2), (0, 1), (1, 0), (2, 1))
        assert all(type(x) is int for r in fan.rays for x in r)
        assert fan.max_cones == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert fan == Fan(2, fan.rays, fan.max_cones)

    @pytest.mark.parametrize("cones, message", [
        ([[0, 1], [4, -1, 2]], "ray index -1 out of range"),
        ([[0, 1], [1, 5, 3]], "ray index 3 out of range"),
    ])
    def test_index_out_of_range(self, cones, message):
        with pytest.raises(ValueError) as caught:
            Fan(2, [(1, 0), (0, 1), (-1, -1)], cones)
        assert str(caught.value) == message

    def test_ray_of_another_rank(self):
        with pytest.raises(ValueError, match=r"ray \(1, 0, 0\) does not have rank 2"):
            Fan(2, [(1, 0), [1, 0, 0]], [[0]])


class TestConeFromRays:
    def test_first_orthant_self_dual(self):
        c = cone_from_rays([(1, 0), (0, 1)], 2)
        assert set(c.facet_normals) == {(1, 0), (0, 1)}
        assert c.dim == 2

    def test_skew_cone_normals(self):
        c = cone_from_rays([(1, 0), (1, 2)], 2)
        assert set(c.facet_normals) == {(0, 1), (2, -1)}
        for r in c.rays:
            assert sorted(pairing(r, g) for g in c.facet_normals)[0] == 0

    def test_line_rejected(self):
        # a line, a half-plane, the whole plane, and a wedge times a line
        for rays, n in [([(1, 0), (-1, 0)], 2), ([(1, 0), (-1, 0), (0, 1)], 2),
                        ([(1, 0), (0, 1), (-1, -1)], 2),
                        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)], 3)]:
            with pytest.raises(NotStrictlyConvexError, match="^not strictly convex: cone contains a line$"):
                cone_from_rays(rays, n)

    def test_zero_cone(self):
        c = cone_from_rays([], 2)
        assert c.rays == () and c.dim == 0
        assert set(c.facet_normals) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_non_extremal_dropped(self):
        c = cone_from_rays([(1, 0), (1, 1), (0, 1)], 2)
        assert c.rays == ((0, 1), (1, 0))

    def test_imprimitive_normalized(self):
        c = cone_from_rays([(2, 4)], 2)
        assert c.rays == ((1, 2),) and c.dim == 1


class TestSimplicialCones:
    """On rank independent generators the double description gives the
    cone that the wall walk of its one-cone fan builds from one
    elimination: the facet normals are the primitive columns of
    sign(d) * R, and the fan keeps (R, d)."""

    @staticmethod
    def generators(rng, n, k):
        """n shuffled generators, some not primitive, of a cone whose
        matrix U1 * diag(k, 1, ..., 1) * U2 has |det| = k, of either sign
        since det U1 and det U2 are each -1 or 1."""
        if n == 0:
            return []
        d = [[(k if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
        a = mat_mul(mat_mul(random_unimodular(rng, n), d), random_unimodular(rng, n))
        rows = [tuple(c * x for x in r) for r, c in zip(a, rng.choices((1, 1, 2, 3), k=n))]
        rng.shuffle(rows)
        return rows

    def test_matches_the_double_description(self):
        rng = random.Random(190)
        dets = set()
        for n in range(8):
            for k in range(1, 33) if n > 1 else (1,):
                gens = self.generators(rng, n, k)
                c = cone_from_rays(gens, n)
                normals, lin = extreme_rays_by_subset_enumeration(gens, n)
                assert lin == () and c.facet_normals == normals, gens
                assert halfspace_cone_generators(gens, n) == (normals, ())
                assert c.rays == extreme_rays_by_subset_enumeration(normals, n)[0]
                assert c.rays == tuple(sorted({primitive(g) for g in gens}))
                assert c.dim == n
                # the fan of the one cone keeps its elimination
                fan = Fan(n, c.rays, [range(n)])
                basis, r, d = fan.cone_basis(tuple(range(n)))
                assert basis == tuple(range(n)) and fan.cone(basis) == c
                assert mat_mul(c.rays, r) == tuple(tuple(d * x for x in row)
                                                   for row in identity_matrix(n))
                assert abs(d) == abs(det(c.rays))
                dets.add(d)
        # both signs, of |d| = 1 and of |d| > 1, and |d| up to 30
        assert {1, -1} <= dets and min(dets) < -1 and max(map(abs, dets)) >= 30

    def test_dependent_generators_take_the_double_description(self):
        rng = random.Random(191)
        for n in range(2, 8):
            for _ in range(5):
                gens = self.generators(rng, n, rng.randint(1, 9))[:n - 1]
                a, b = rng.sample(gens, 2) if n > 2 else (gens[0], gens[0])
                # a sum of two generators is not extremal and is dropped
                c = cone_from_rays(gens + [tuple(x + y for x, y in zip(a, b))], n)
                assert c.rays == tuple(sorted({primitive(g) for g in gens}))
                assert c.dim == n - 1
                assert Fan(n, c.rays, [range(len(c.rays))]).cone_basis(
                    tuple(range(len(c.rays)))) is None
                dual, lin = extreme_rays_by_subset_enumeration(c.rays, n)
                assert set(c.facet_normals) == set(dual) | set(lin) | {
                    tuple(-x for x in v) for v in lin}
                # a generator and its negative span a line
                with pytest.raises(NotStrictlyConvexError):
                    cone_from_rays(gens + [tuple(-x for x in a)], n)


class TestOneEliminationPerCone:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        inverse = counted("inverse", lattice.scaled_inverse)
        for module in (lattice, fan_module, roots_module):
            monkeypatch.setattr(module, "scaled_inverse", inverse)
        monkeypatch.setattr(lattice, "_hermite", counted("hermite", lattice._hermite))
        return calls

    def test_projective_space_runs_one_inverse_per_fan(self, calls):
        # the wall walk inverts the first maximal cone and updates the
        # inverse across each wall to the next
        fan = _projective(9)
        assert fan.validation.ok and is_smooth(fan)
        assert calls == {"inverse": 1}
        calls.clear()
        assert len(demazure_roots.__wrapped__(fan)) == 90
        assert calls == {}

    def test_blow_up_runs_one_inverse_per_fan(self, calls):
        doc = parse_fan((FIXTURES / "Bl24P3.fan").read_text())
        fan = Fan(doc.rank, doc.rays, doc.max_cones)
        assert len(fan.max_cones) == 52
        assert fan.validation.ok and is_complete(fan) and is_smooth(fan)
        assert calls == {"inverse": 1}

    def test_product_cones_inherit_their_factors_inverse(self, fans, monkeypatch):
        # a product chart's A*R = d*I is block diagonal in its factors'
        # charts, so the roots of a product of simplicial fans, enumerated
        # on its rays, invert nothing
        factors = {name: f for name, f in fans.items() if f.rank <= 3}
        assert all(f.validation.ok and is_simplicial(f) for f in factors.values())
        counts = {name: len(demazure_roots(f)) for name, f in factors.items()}
        calls = []
        inverse = lattice.scaled_inverse
        for module in (lattice, fan_module, roots_module):
            monkeypatch.setattr(module, "scaled_inverse",
                                lambda a: calls.append(len(a)) or inverse(a))
        for name, f in factors.items():
            roots = product_chart_roots(f, f)
            assert len(roots) == 2 * counts[name] and not calls, name
        assert len(factors) == 11


class TestDualCone:
    def test_first_orthant(self):
        c = cone_from_rays([(1, 0), (0, 1)], 2)
        d = dual_cone(c)
        assert isinstance(d, Cone) and d.rays == c.rays

    def test_generators_exchange(self):
        d = dual_cone(cone_from_rays([(2, -1), (0, 1)], 2))
        assert set(d.rays) == {(1, 0), (1, 2)}

    def test_zero_cone_marker(self):
        d = dual_cone(cone_from_rays([], 3))
        assert isinstance(d, DualCone) and d.is_full_space

    def test_ray_dual_has_lineality(self):
        d = dual_cone(cone_from_rays([(1, 0)], 2))
        assert isinstance(d, DualCone)
        assert not d.is_full_space and len(d.lineality) == 1

    def test_dual_dual_identity_randomized(self):
        rng = random.Random(11)
        cases = 0
        while cases < 200:
            rank = rng.choice((2, 3))
            rays = random_pointed_cone_rays(rng, rank, rng.randint(rank, rank + 2))
            c = cone_from_rays(rays, rank)
            if c.dim != rank:
                continue
            assert dual_cone(dual_cone(c)).rays == c.rays
            cases += 1


class TestHalfspaceGenerators:
    def test_matches_subset_oracle_randomized(self):
        rng = random.Random(271828)
        for _ in range(300):
            n = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(0, 6)):
                v = tuple(rng.randint(-3, 3) for _ in range(n))
                if any(v):
                    rows.append(v)
            assert halfspace_cone_generators(rows, n) == \
                extreme_rays_by_subset_enumeration(rows, n), (n, rows)

    def test_matches_subset_oracle_on_degenerate_systems(self):
        # duplicate and redundant rows, and many rays on common faces: the
        # active sets carried from the parent rays and the d - 2 filter on
        # adjacent pairs must still give exactly the extreme rays
        from util import degenerate_cone_rows
        rng = random.Random(141421)
        degenerate = 0
        for _ in range(40):
            n = rng.randint(2, 4)
            for rows in degenerate_cone_rows(rng, n):
                rays, lin = halfspace_cone_generators(rows, n)
                assert (rays, lin) == extreme_rays_by_subset_enumeration(rows, n), (n, rows)
                # a ray active on more than n - 1 distinct rows
                distinct = {primitive(a) for a in rows}
                degenerate += any(sum(pairing(a, r) == 0 for a in distinct) > n - 1
                                  for r in rays)
        assert degenerate >= 40  # 45 of the 80 systems

    def test_matches_subset_oracle_degenerate(self):
        # systems with opposite pairs force implicit equalities, the
        # delicate case for the double description adjacency test
        rng = random.Random(161803)
        for _ in range(200):
            n = rng.randint(2, 4)
            rows = []
            for _ in range(rng.randint(1, 2)):
                v = random_primitive(rng, n, bound=2)
                rows += [v, tuple(-x for x in v)]
            for _ in range(rng.randint(0, 4)):
                rows.append(random_primitive(rng, n, bound=3))
            assert halfspace_cone_generators(rows, n) == \
                extreme_rays_by_subset_enumeration(rows, n), (n, rows)


class TestValidateFan:
    def test_p2_valid(self, fans):
        assert validate_fan(fans["P2"]).ok

    def test_intersection_not_face(self):
        fan = Fan(2, [(1, 0), (0, 1), (1, 1), (-1, 2)], [(0, 1), (2, 3)])
        report = validate_fan(fan)
        assert not report.ok
        assert {e.code for e in report.entries} == {"intersection_not_face"}

    def test_trivial_fan_valid(self):
        assert validate_fan(Fan(2, [], [])).ok

    def test_imprimitive_ray_reported(self):
        report = validate_fan(Fan(2, [(2, 4), (0, 1), (-1, -3)], [(0, 1), (1, 2), (2, 0)]))
        assert any(e.code == "ray_not_primitive" for e in report.entries)

    def test_duplicate_ray_reported(self):
        report = validate_fan(Fan(1, [(1,), (1,), (-1,)], [(0,), (1,), (2,)]))
        assert any(e.code == "duplicate_ray" for e in report.entries)

    def test_line_cone_reported(self):
        report = validate_fan(Fan(2, [(1, 0), (-1, 0)], [(0, 1)]))
        assert any(e.code == "cone_not_strictly_convex" for e in report.entries)

    def test_non_extremal_cone_ray_reported(self):
        report = validate_fan(Fan(2, [(1, 0), (1, 1), (0, 1)], [(0, 1, 2)]))
        assert any(e.code == "cone_ray_not_extremal" for e in report.entries)

    def test_unused_ray_reported(self):
        report = validate_fan(Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1)]))
        assert any(e.code == "unused_ray" for e in report.entries)


def _equivalence_fans(corpus_fans):
    """(label, fan, certified) cases for the local certificate: seeded valid
    complete fans it must certify, simplicial or not, and fans that must
    fall back to the pairwise check."""
    rng = random.Random(20210108)
    p2, p3 = corpus_fans["P2"], corpus_fans["P3"]
    cases = [(name, fan, True) for name, fan in corpus_fans.items()]
    blow_ups = [random_blow_up(rng, p2, rng.randint(1, 8)) for _ in range(12)]
    blow_ups += [random_blow_up(rng, p3, rng.randint(1, 5)) for _ in range(10)]
    cases += [(f"blow-up {k}", fan, True) for k, fan in enumerate(blow_ups)]
    cases += [("P2 blow-up x P1", product_fan(blow_ups[0], corpus_fans["P1"]), True),
              ("F1 x P2", product_fan(corpus_fans["F1"], p2), True)]
    for name, fan in [("P2", p2), ("P3", p3), ("P112", corpus_fans["P112"]),
                      ("blow-up 3", blow_ups[3]), ("blow-up 15", blow_ups[15])]:
        cases.append((f"{name} conjugate", transform_fan(fan, random_unimodular(rng, fan.rank)), True))
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 0)]
    cube = cube_fan(3)
    cases += [
        ("half-plane", Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)]), False),
        ("overlapping", Fan(2, [(1, 0), (0, 1), (1, 1), (-1, 2)], [(0, 1), (2, 3)]), False),
        ("three cones on a ray", Fan(2, [(1, 0), (0, 1), (-1, -1), (0, -1)],
                                     [(0, 1), (1, 2), (2, 0), (0, 3)]), False),
        # the cycle of cones turns back between (1, 1) and (0, 1)
        ("folded", Fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1), (-1, -1), (1, -1)],
                       [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]), False),
        ("two P2s", Fan(2, [(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)],
                        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), False),
        # (1, 1, 0) splits the cone over e1, e2, e3 but not the one over e1, e2, -e3
        ("T-junction", Fan(3, e, [(0, 6, 2), (6, 1, 2), (0, 1, 5), (1, 3, 2), (1, 3, 5),
                                  (3, 4, 2), (3, 4, 5), (4, 0, 2), (4, 0, 5)]), False),
        ("cube", cube, True),
        ("winds twice", Fan(2, [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
                            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), False),
    ]
    # non-simplicial fans: the cube face fans, their products, conjugates,
    # seeded blow-ups, the cube with one vertex pushed off its facets'
    # planes, and mutations
    moved = tuple((1, 2, 3) if r == (1, 1, 1) else r for r in cube.rays)
    apex = tuple((2, 0, -1) if r == (0, 0, -1) else r for r in SQUARE_PYRAMID.rays)
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    cube4, cube_p1 = cube_fan(4), product_fan(cube, corpus_fans["P1"])
    cases += [("cube4", cube4, True),
              ("cube x P1", cube_p1, True),
              ("cube x cube", product_fan(cube, cube), True),
              ("square pyramid", SQUARE_PYRAMID, True),
              ("cube, moved ray", Fan(3, moved, cube.max_cones), True)]
    cases += [(f"cube conjugate {k}", transform_fan(cube, random_unimodular(rng, 3)), True)
              for k in range(3)]
    cases += [(f"cube blow-up {k}", random_blow_up(rng, base, rng.randint(1, 3)), True)
              for k, base in enumerate([cube, cube, cube4, cube_p1])]
    cases += [("cube minus a cone", Fan(3, cube.rays, cube.max_cones[1:]), False),
              ("overlaid cubes", _overlay(cube, transform_fan(cube, shear)), False),
              # the apex leaves the cone opposite the square, so the cones through it fold
              ("pyramid, swapped ray", Fan(3, apex, SQUARE_PYRAMID.max_cones), False)]
    return cases


def _overlay(f, g):
    """The maximal cones of two fans of one rank, as one fan on their joint rays."""
    rays = sorted(set(f.rays) | set(g.rays))
    index = {r: i for i, r in enumerate(rays)}
    return Fan(f.rank, rays, [[index[h.rays[i]] for i in c] for h in (f, g) for c in h.max_cones])


INVALID = {"overlapping", "three cones on a ray", "folded", "two P2s", "T-junction",
           "winds twice", "overlaid cubes", "pyramid, swapped ray"}


class TestLocalCertificate:
    def test_matches_pairwise_check(self, fans):
        for label, fan, certified in _equivalence_fans(fans):
            cones = {c: fan.cone(c) for c in fan.max_cones}
            assert fan._certified_complete == certified, label
            pairwise = ValidationReport(tuple(_pairwise_violations(fan, cones)))
            assert validate_fan(fan) == pairwise, label
            assert pairwise.ok == (label not in INVALID), label

    def test_pairwise_matches_closure_rule(self, fans):
        cases = _equivalence_fans(fans)
        assert len(cases) == 64
        for label, fan, _ in cases:
            cones = {c: fan.cone(c) for c in fan.max_cones}
            expected = pairwise_violations_by_closure(fan)
            assert _pairwise_violations(fan, cones) == expected, label
            assert bool(expected) == (label in INVALID), label

    def test_completeness_matches_adjacency_rule(self, fans):
        for label, fan, certified in _equivalence_fans(fans):
            if label not in INVALID:
                assert is_complete(fan) == complete_by_adjacency(fan) == certified, label

    def test_faces_match_subset_scan(self, fans):
        sizes = {}
        for label, fan, _ in _equivalence_fans(fans):
            if all(len(c) == fan.cone(c).dim for c in fan.max_cones):
                continue
            sizes[label] = len(fan.all_cones)
            # the scan is exponential in a cone's rays: cube x cube has 16
            if label != "cube x cube":
                scanned = set().union(*(faces_by_subset_scan(fan, c) for c in fan.max_cones))
                assert set(fan.all_cones) == scanned, label
        assert sizes["cube"] == 27 and sizes["cube4"] == 81 and sizes["cube x P1"] == 81
        # the faces of a product are the products of the factors' faces
        assert sizes["cube x cube"] == 27 ** 2

    def test_cube_fan_certified_valid_and_complete(self, fans):
        fan = next(f for label, f, _ in _equivalence_fans(fans) if label == "cube")
        assert validate_fan(fan).ok
        assert is_complete(fan) and not is_simplicial(fan)

    def test_fan_winding_twice_is_invalid(self, fans):
        fan = next(f for label, f, _ in _equivalence_fans(fans) if label == "winds twice")
        report = validate_fan(fan)
        assert [e.code for e in report.entries] == ["intersection_not_face"] * 10


class TestNoFallbackOnCompleteFans:
    """A complete fan is proved valid by its ridge certificate alone: the
    pairwise intersections do not run."""

    def test_no_pairwise_intersections(self, monkeypatch):
        calls = []
        pairwise = fan_module._pairwise_violations
        monkeypatch.setattr(fan_module, "_pairwise_violations",
                            lambda fan, cones: calls.append(fan) or pairwise(fan, cones))
        fan = product_fan(cube_fan(4), cube_fan(3))
        assert len(fan.max_cones) == 48
        assert validate_fan(fan).ok and is_complete(fan)
        assert len(calls) == 0


def _projective(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return Fan(n, rays, list(combinations(range(n + 1), n)))


def _minus_first_cone(fan):
    return Fan(fan.rank, fan.rays, fan.max_cones[1:])


class TestClosureFaceTest:
    """The pairwise fallback tests an intersection by its closure in each
    cone's facet table, without listing the cone's faces (2^d of them for
    a simplicial cone).  The corpus, mutation and non-simplicial cases are
    in TestLocalCertificate.test_pairwise_matches_closure_rule."""

    def test_matches_closure_rule_on_high_rank_fans(self):
        cases = [(f"P{n} minus a cone", _minus_first_cone(_projective(n)), False)
                 for n in range(3, 9)]
        # P^n overlaid with a copy sheared by e1 -> e1 + e2: some
        # intersections are faces of both cones, some are not
        for n in range(3, 7):
            shear = [[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)]
            fan = _projective(n)
            cases.append((f"overlaid P{n}", _overlay(fan, transform_fan(fan, shear)), True))
        for label, fan, invalid in cases:
            cones = {c: fan.cone(c) for c in fan.max_cones}
            expected = pairwise_violations_by_closure(fan)
            assert _pairwise_violations(fan, cones) == expected, label
            assert bool(expected) == invalid, label

    def test_no_face_lists(self, monkeypatch):
        calls = []
        faces_of = Fan._faces_of
        monkeypatch.setattr(Fan, "_faces_of",
                            lambda fan, c: calls.append(c) or faces_of(fan, c))
        fan = _minus_first_cone(_projective(8))
        assert validate_fan(fan).ok and not fan._certified_complete
        assert calls == []


class TestCompleteness:
    def test_p1_complete(self, fans):
        assert is_complete(fans["P1"])

    def test_affine_plane_not_complete(self):
        assert not is_complete(Fan(2, [(1, 0), (0, 1)], [(0, 1)]))

    def test_f1_complete(self, fans):
        assert is_complete(fans["F1"])

    def test_corpus_complete(self, fans):
        for fan in fans.values():
            assert is_complete(fan)

    def test_sampling_cross_check(self, fans):
        rng = random.Random(23)
        for name in ("P2", "F2", "P112", "P3"):
            fan = fans[name]
            for _ in range(100):
                assert support_contains(fan, random_primitive(rng, fan.rank))
        half = Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
        assert not is_complete(half)
        assert any(not support_contains(half, random_primitive(rng, 2))
                   for _ in range(100))

    def test_rank0_trivial_fan_complete(self):
        assert is_complete(Fan(0, [], []))


class TestSmoothSimplicial:
    def test_p2_smooth(self, fans):
        assert is_smooth(fans["P2"]) and is_simplicial(fans["P2"])

    def test_p112_simplicial_not_smooth(self, fans):
        assert is_simplicial(fans["P112"])
        assert not is_smooth(fans["P112"])

    def test_trivial_smooth(self):
        assert is_smooth(Fan(2, [], []))

    def test_hirzebruch_smooth(self, fans):
        for a in range(4):
            assert is_smooth(fans[f"F{a}"])

    def test_matches_minors_gcd(self, fans):
        rng = random.Random(192)
        pool = [fans[name] for name in ("P2", "P3", "P112", "F2")]
        pool += [random_blow_up(rng, fans[base], k) for base in ("P2", "P3", "P112")
                 for k in (1, 3, 6)]
        pool += [transform_fan(f, random_unimodular(rng, f.rank)) for f in pool[4:]]
        pool += [fan_from_document(parse_fan((FIXTURES / f"{name}.fan").read_text()))
                 for name in ("P112_F9", "cube5", "P12_minus_cone")]
        # incomplete, each with a 2-dimensional maximal cone in rank 3:
        # saturated, then of index 2
        orthant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        pool += [Fan(3, orthant + [(-1, 0, 0), second], [[0, 1, 2], [3, 4]])
                 for second in ((0, -1, 0), (-1, -2, 0))]
        verdicts = Counter()
        for fan in pool:
            assert fan.validation.ok
            expected = all(minors_gcd([fan.rays[i] for i in c], len(c)) == 1
                           for c in fan.max_cones)
            assert is_smooth(fan) == expected, fan.rays
            for c in fan.max_cones:
                cone, basis = fan.cone(c), fan.cone_basis(c)
                simplicial = basis is not None and basis[0] == c
                assert simplicial == (len(c) == cone.dim == fan.rank)
                verdicts[simplicial, minors_gcd(cone.rays, len(c)) == 1] += 1
            verdicts[expected] += 1
        # both verdicts, and cones on both paths with both outcomes
        assert all(verdicts[key] for key in (True, False, (True, True), (True, False),
                                             (False, True), (False, False))), verdicts


class TestProductFan:
    def test_p1_squared(self, fans):
        fan = product_fan(fans["P1"], fans["P1"])
        assert len(fan.rays) == 4 and len(fan.max_cones) == 4
        assert set(fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert fan == fans["F0"]

    def test_product_with_incomplete_rank1(self, fans):
        fan = product_fan(fans["P1"], Fan(1, [], []))
        assert len(fan.rays) == 2
        assert all(len(c) == 1 for c in fan.max_cones)
        assert not is_complete(fan)

    def test_p1_times_p2(self, fans):
        fan = product_fan(fans["P1"], fans["P2"])
        assert len(fan.rays) == 5 and len(fan.max_cones) == 6
        assert all(fan.cone(c).dim == 3 for c in fan.max_cones)

    def test_completeness_iff_factors(self, fans):
        rng = random.Random(5)
        complete = random_complete_fan_rank2(rng)
        incomplete = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
        assert is_complete(product_fan(complete, fans["P1"]))
        assert not is_complete(product_fan(complete, incomplete))
        assert not is_complete(product_fan(incomplete, incomplete))

    def test_rank0_product_is_identity(self, fans):
        assert product_fan(fans["P2"], Fan(0, [], [])) == fans["P2"]


def _product_cases(corpus_fans):
    """(label, f1, f2) factor pairs: every pair of corpus fans, seeded
    blow-ups against corpus fans in both orders, a rank-0 factor, and
    incomplete factors with cones of full and of lower dimension."""
    rng = random.Random(7031)
    named = list(corpus_fans.items())
    cases = [(f"{a} x {b}", fa, fb) for k, (a, fa) in enumerate(named) for b, fb in named[k:]]
    blow_ups = [random_blow_up(rng, corpus_fans["P2"], rng.randint(1, 6)) for _ in range(3)]
    blow_ups += [random_blow_up(rng, corpus_fans["P3"], rng.randint(1, 3)) for _ in range(2)]
    for k, fan in enumerate(blow_ups):
        for name in ("P1", "P2", "F1", "P112"):
            cases += [(f"blow-up {k} x {name}", fan, corpus_fans[name]),
                      (f"{name} x blow-up {k}", corpus_fans[name], fan)]
    point = Fan(0, [], [])
    line = Fan(1, [], [])
    quadrant = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    mixed = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (2,)])
    cases += [("point x P2", point, corpus_fans["P2"]), ("P2 x point", corpus_fans["P2"], point),
              ("point x point", point, point), ("line x P1", line, corpus_fans["P1"]),
              ("P2 x line", corpus_fans["P2"], line), ("quadrant x P1", quadrant, corpus_fans["P1"]),
              ("quadrant x quadrant", quadrant, quadrant), ("mixed x F1", mixed, corpus_fans["F1"]),
              ("P1 x mixed", corpus_fans["P1"], mixed), ("mixed x line", mixed, line)]
    return cases


class TestProductCones:
    """product_fan lists the factors' block rays and every pair of their
    maximal cones; the product is validated and its cones built like any
    other fan's."""

    def test_cached_inverses_solve_the_product_cones(self, fans):
        # A*R = d*I and |d| = |det A| on every product cone of corpus fans
        # up to rank 6, kept by the product's wall walk; a non-simplicial
        # factor gives cones whose basis is a proper subset of their rays
        checked = 0
        for f1 in fans.values():
            for f2 in fans.values():
                if f1.rank + f2.rank > 6:
                    continue
                pf = product_fan(f1, f2)
                for c in pf.max_cones:
                    basis, r, d = pf.cone_basis(c)
                    rays = pf.cone(c).rays
                    assert basis == c and mat_mul(rays, r) == tuple(
                        tuple(d * x for x in row) for row in identity_matrix(pf.rank)), c
                    assert abs(d) == abs(det(rays))
                    checked += 1
        cube5 = fan_from_document(parse_fan((FIXTURES / "cube5.fan").read_text()))
        for pf in (product_fan(cube5, fans["P1"]), product_fan(fans["P2"], cube5)):
            assert all(pf.cone_basis(c)[0] != c for c in pf.max_cones)
        assert checked > 1000

    def test_fresh_fan_gets_same_verdicts(self, fans):
        for label, f1, f2 in _product_cases(fans):
            if f1.rank + f2.rank > 5:
                continue
            pf = product_fan(f1, f2)
            fresh = Fan(pf.rank, pf.rays, pf.max_cones)
            assert fresh == pf and not fresh._cone_cache
            assert validate_fan(fresh) == pf.validation, label
            assert is_complete(fresh) == is_complete(pf) == (
                is_complete(f1) and is_complete(f2)), label


class TestAbsorption:
    def test_matches_all_pairs_rule(self):
        rng = random.Random(4099)
        lists = [[], [()], [(), ()], [(0,), ()], [(0, 1), (1, 0), (0,), ()]]
        for _ in range(300):
            k = rng.randint(1, 7)
            cones = []
            for _ in range(rng.randint(0, 6)):
                chain = rng.sample(range(k), rng.randint(0, k))
                # a nested chain: the chosen cone and some of its prefixes
                cones += [chain[:j] for j in range(len(chain) + 1) if rng.random() < 0.4]
                cones.append(chain)
            cones += rng.sample(cones, len(cones) // 3)
            if rng.random() < 0.3:
                cones.append(())
            rng.shuffle(cones)
            lists.append(cones)
        for cones in lists:
            k = 1 + max((i for c in cones for i in c), default=0)
            fan = Fan(1, [(i,) for i in range(k)], cones)
            assert fan.max_cones == maximal_cones_oracle(cones), cones

    def test_face_absorbed_when_sizes_differ(self):
        # a listed face of a listed cone, with a cone of its size beside it
        assert _maximal([(0, 1), (0, 1, 2), (1, 2), (2, 3)]) == ((0, 1, 2), (2, 3))
        assert _maximal([(), (0,), (0, 1)]) == ((0, 1),)

    def test_equal_size_cones_come_back_unchanged(self):
        rng = random.Random(4100)
        for size in range(5):
            cones = sorted({tuple(sorted(rng.sample(range(9), size))) for _ in range(12)})
            assert _maximal(cones) == tuple(cones) == maximal_cones_oracle(cones), cones
        assert _maximal([]) == ()

    def test_corpus_fans_keep_their_max_cones(self, fans):
        for name, fan in fans.items():
            assert Fan(fan.rank, fan.rays, fan.max_cones).max_cones == fan.max_cones, name
            assert fan.max_cones == maximal_cones_oracle(fan.max_cones), name


class TestSkeleton:
    """The i-skeleton, as ray index tuples: Fan.cones_of_dim."""

    def test_p2(self, fans):
        assert len(fans["P2"].cones_of_dim(1)) == 3
        assert len(fans["P2"].cones_of_dim(2)) == 3
        assert fans["P2"].cones_of_dim(0) == ((),)

    def test_product_rays_not_products(self, fans):
        fan = product_fan(fans["P1"], fans["P1"])
        rays = fan.cones_of_dim(1)
        assert len(rays) == 4
        for (i,) in rays:
            r = fan.rays[i]
            assert r[:1] == (0,) or r[1:] == (0,)


class TestInvariants:
    def test_cones_pass_own_invariants(self, fans):
        from toricaut.lattice import is_primitive
        for fan in fans.values():
            for idx in fan.all_cones:
                cone = fan.cone(idx)
                assert all(is_primitive(r) for r in cone.rays)
                assert all(pairing(r, g) >= 0
                           for r in cone.rays for g in cone.facet_normals)

    def test_transform_roundtrip(self, fans):
        from util import invert_unimodular, random_unimodular
        rng = random.Random(3)
        for name in ("P2", "F1", "P1xP2"):
            fan = fans[name]
            u = random_unimodular(rng, fan.rank)
            assert transform_fan(transform_fan(fan, u), invert_unimodular(u)) == fan


class TestPerFanMemo:
    """The facts other modules compute from a fan live in its memo: a call
    on the same fan reads them, an equal but distinct fan computes its own,
    and dropping the fan frees them."""

    MEMOS = ((Fan.cone_basis, ((0, 1),)), (_multiplicity, ((0, 1),)), (_ray_charts, ()),
             (demazure_roots, ()), (fan_automorphisms, ()), (decompose, ()),
             (_group_factors, ()), (aut_structure_report, ()), (ray_witness, (0,)),
             (dual_monomials, ((0, 1), 1)))

    def test_a_second_call_on_the_same_fan_is_a_hit(self):
        fan, equal = corpus()["P2"], corpus()["P2"]
        for fn, args in self.MEMOS:
            before = fn.cache_info()
            value = fn(fan, *args)
            assert fn(fan, *args) is value
            middle = fn.cache_info()
            assert (middle.hits - before.hits, middle.misses - before.misses) == (1, 1), fn
            assert fn(equal, *args) == value and fn.__wrapped__(fan, *args) == value
            after = fn.cache_info()
            assert (after.hits - middle.hits, after.misses - middle.misses) == (0, 1), fn

    def test_a_dropped_fan_is_freed(self):
        for name in ("P2", "P1xP2"):
            fan = corpus()[name]
            demazure_roots(fan)
            fan_automorphisms(fan)
            decompose(fan)
            assert all(ok for _, _, ok, _ in run_certificates([(None, fan, name)]))
            ref = weakref.ref(fan)
            del fan
            gc.collect()
            assert ref() is None, name

    def test_a_fan_with_warm_caches_pickles(self):
        # its cones, the walk's (R, d) and the facts kept on it
        fans = corpus()
        fan, pf = fans["P1xP2"], product_fan(fans["P2"], fans["F1"])
        assert all(ok for _, _, ok, _ in run_certificates([(None, fan, "P1xP2")]))
        aut_structure_report(fan)
        demazure_roots(pf)
        for f in (fan, pf):
            copy = pickle.loads(pickle.dumps(f))
            assert copy == f and vars(copy) == vars(f)
            assert [copy.cone_basis(c) for c in f.max_cones] == [
                f.cone_basis(c) for c in f.max_cones]
            assert demazure_roots(copy) == demazure_roots(f)


def _walk_fans(corpus_fans):
    """(label, fan) cases for the wall walk, each a fresh Fan so that the
    walk builds its cones: the corpus, every valid fixture, seeded
    blow-ups and conjugates, and weighted projective spaces up to rank 8."""
    rng = random.Random(30)
    fans = list(corpus_fans.items())
    # the one invalid fixture is among TestWallWalkReports' documents
    for path in sorted(set(FIXTURES.glob("*.fan")) - {FIXTURES / "pyramid_swapped.fan"}):
        doc = parse_fan(path.read_text())
        fans.append((path.stem, Fan(doc.rank, doc.rays, doc.max_cones)))
    bases = [corpus_fans[name] for name in ("P2", "P3", "F1", "P1xP2")]
    blow_ups = [random_blow_up(rng, base, rng.randint(1, 12)) for base in bases * 2]
    fans += [(f"blow-up {k}", fan) for k, fan in enumerate(blow_ups)]
    for name, fan in [("P2", bases[0]), ("P3", bases[1]), ("P2xP2", corpus_fans["P2xP2"]),
                      ("blow-up 1", blow_ups[1]), ("blow-up 6", blow_ups[6])]:
        fans.append((f"{name} conjugate", transform_fan(fan, random_unimodular(rng, fan.rank))))
    for q in [(1, 1, 2), (1, 2, 3), (1, 2, 3, 5), (1, 1, 2, 2, 3), (1, 2, 3, 4, 5, 7),
              (1, 1, 2, 2, 3, 3, 4), (1, 2, 3, 5, 7, 11, 13, 17), (1, 1, 2, 2, 3, 3, 4, 4, 5)]:
        fans.append((f"P{q}", weighted_projective_fan(q)))
    return [(label, Fan(f.rank, f.rays, f.max_cones)) for label, f in fans]


def _relations(fan):
    return [sorted(tuple(sorted(r.items())) for r in ws) for ws in _wall_relations(fan)]


class TestWallWalk:
    """Validation walks across the walls of a simplicial fan, one product
    per wall and one rank-one update per cone it reaches; what it builds
    matches one elimination per cone."""

    def test_walked_cones_match_their_elimination(self, fans):
        walked = 0
        for label, fan in _walk_fans(fans):
            assert fan.validation.ok, label
            built = fan._walk.facets
            if is_simplicial(fan) and is_complete(fan):
                # the first cone is eliminated and every other one reached
                assert set(built) == set(fan.max_cones), label
            for c in built:
                cone = fan.cone(c)
                ref = cone_from_rays([fan.rays[i] for i in c], fan.rank)
                assert cone == ref and cone.dim == ref.dim == fan.rank, (label, c)
                basis, r, d = fan.cone_basis(c)
                assert basis == c and abs(d) == abs(det(cone.rays))
                assert mat_mul(cone.rays, r) == tuple(
                    tuple(d * x for x in row) for row in identity_matrix(fan.rank)), (label, c)
            walked += len(built)
        assert walked >= 350

    def test_facets_match_pairings(self, fans):
        for label, fan in _walk_fans(fans):
            assert fan.validation.ok, label
            assert fan._facets == facets_by_pairings(fan), label

    def test_certificate_matches_pairings(self, fans):
        verdicts = Counter()
        cases = _walk_fans(fans) + [(label, Fan(f.rank, f.rays, f.max_cones))
                                    for label, f, _ in _equivalence_fans(fans)]
        for label, fan in cases:
            codes = {e.code for e in fan.validation.entries}
            if codes <= {"intersection_not_face"}:
                verdict = fan._certified_complete
                assert verdict == certificate_by_pairings(fan), label
                verdicts[verdict] += 1
        assert verdicts[True] > 60 and verdicts[False] >= 10

    def test_wall_relations_match_solving(self, fans):
        for label, fan in _walk_fans(fans):
            if is_complete(fan) and is_simplicial(fan):
                assert _relations(fan) == wall_relations_by_solving(fan), label


class TestWallWalkReports:
    """On invalid and incomplete fans the walk changes no report: `validate
    --json` prints what it prints with the walk bypassed, every cone then
    built by elimination and the certificate read off pairings."""

    DOCS = {
        "ridge in three cones": (2, [(1, 0), (0, 1), (-1, -1), (0, -1)],
                                 [(0, 1), (1, 2), (2, 0), (0, 3)]),
        "two neighbours on one side": (2, [(1, 0), (0, 1), (1, 2), (-1, -1)],
                                       [(0, 1), (1, 2), (2, 3), (3, 0)]),
        # a square in the hyperplane x4 = 0: four extremal, dependent rays
        "dependent rays": (4, [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0),
                               (0, 0, 0, 1), (0, 0, -1, -1), (1, 1, 0, 1)],
                           [(0, 1, 2, 3), (0, 1, 4, 6), (0, 1, 4, 5), (1, 2, 4, 5)]),
        "dependent first cone": (3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (-1, -1, -1)],
                                 [(0, 1, 2), (0, 1, 3), (1, 3, 4), (0, 3, 4)]),
        "two disconnected stars": (2, [(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)],
                                   [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        "incomplete": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                       [(0, 1, 2), (1, 2, 3), (0, 2, 3)]),
    }

    def validate_json(self, path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_LOADED", {})
        code = cli.main(["validate", "--json", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    def test_byte_identical_with_the_walk_bypassed(self, tmp_path, capsys, monkeypatch):
        paths = [FIXTURES / "pyramid_swapped.fan", FIXTURES / "P12_minus_cone.fan"]
        for k, (n, rays, cones) in enumerate(self.DOCS.values()):
            paths.append(tmp_path / f"case{k}.fan")
            paths[-1].write_text(json.dumps({"rank": n, "rays": rays, "max_cones": cones}))
        walked = [self.validate_json(path, capsys, monkeypatch) for path in paths]
        monkeypatch.setattr(Fan, "_walk", property(lambda fan: _Walk({}, (), False, {})))
        bypassed = [self.validate_json(path, capsys, monkeypatch) for path in paths]
        assert walked == bypassed
        assert [code for code, _, _ in walked] == [1, 0, 1, 1, 1, 1, 1, 0]


def _basis_fans(corpus_fans):
    """The wall walk's fans, with the products of cube5, whose maximal
    cones are not simplicial, with P1 and P2, and a fan with a maximal
    cone of lower dimension."""
    cube5 = fan_from_document(parse_fan((FIXTURES / "cube5.fan").read_text()))
    return _walk_fans(corpus_fans) + [
        ("cube5 x P1", product_fan(cube5, corpus_fans["P1"])),
        ("P2 x cube5", product_fan(corpus_fans["P2"], cube5)),
        ("quadrant and ray", Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (2,)]))]


class TestConeBasis:
    """Each maximal cone's basis, with A*R = d*I for its rays A, is kept
    by its fan: the cone itself when it is simplicial, and otherwise its
    rays outside the span of the rays before them."""

    def test_solves_each_maximal_cone(self, fans):
        kinds = Counter()
        for label, fan in _basis_fans(fans):
            assert fan.validation.ok, label
            for c in fan.max_cones:
                dim, found = fan.cone(c).dim, fan.cone_basis(c)
                if dim < fan.rank:
                    assert found is None, (label, c)
                    kinds["lower"] += 1
                    continue
                basis, r, d = found
                rows = [fan.rays[i] for i in basis]
                assert mat_mul(rows, r) == tuple(
                    tuple(d * x for x in row) for row in identity_matrix(fan.rank)), (label, c)
                assert abs(d) == abs(det(rows)) > 0, (label, c)
                simplicial = len(c) == fan.rank
                assert (basis == c) == simplicial, (label, c)
                pivots = greedy_independent_rows([fan.rays[i] for i in c])
                assert basis == tuple(c[p] for p in pivots), (label, c)
                kinds[simplicial] += 1
        assert kinds[True] > 400 and kinds[False] >= 50 and kinds["lower"] == 1, kinds

    def test_none_on_a_lower_dimensional_cone(self):
        fan = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (2,)])
        assert fan.validation.ok and not is_complete(fan)
        # the constructor sorts the rays: (-1, -1) comes first
        ray, quadrant = fan.max_cones
        assert (ray, quadrant) == ((0,), (1, 2)) and fan.cone_basis(ray) is None
        assert fan.cone_basis(quadrant) == (quadrant, ((0, 1), (1, 0)), 1)


class TestStar:
    def test_matches_the_scan(self, fans):
        rays = 0
        for label, fan in _basis_fans(fans):
            for j in range(len(fan.rays)):
                assert fan.star[j] == tuple(c for c in fan.max_cones if j in c), (label, j)
            assert len(fan.star) == len(fan.rays), label
            rays += len(fan.rays)
        assert rays > 400
