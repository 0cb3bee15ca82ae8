import math
import pathlib
import random
import time
from collections import Counter
from itertools import combinations

import pytest

from toricaut import fan as fan_module, lattice, roots as roots_module
from toricaut.cli import fan_from_document, parse_fan
from toricaut.fan import Fan, IncompleteFanError, product_fan, transform_fan
from toricaut.lattice import det, identity_matrix, invert_unimodular, mat_mul, pairing, transpose, vec_mat, vec_neg
from toricaut.roots import (
    RootPolytope,
    _lifted_candidates,
    _ray_charts,
    classify_roots,
    demazure_roots,
    product_chart_roots,
    product_roots,
    root_ray_index,
)

from util import (
    COMPLETE_FIXTURES,
    greedy_independent_rows,
    random_blow_up,
    random_complete_fan_rank2,
    random_unimodular,
    root_box_bound,
    root_polytope_bounds,
    roots_oracle,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

EXPECTED_COUNTS = {
    "P1": 2, "P2": 6, "P3": 12, "P1xP1": 4,
    "F0": 4, "F1": 4, "F2": 5, "F3": 6,
    "P112": 5,
}


class TestDemazureRoots:
    def test_p1_roots(self, fans):
        roots = demazure_roots(fans["P1"])
        assert {(r.e, fans["P1"].rays[r.rho_e]) for r in roots} == {
            ((-1,), (1,)), ((1,), (-1,))}

    def test_counts(self, fans):
        for name, expected in EXPECTED_COUNTS.items():
            assert len(demazure_roots(fans[name])) == expected, name

    def test_f1_root_set(self, fans):
        assert {r.e for r in demazure_roots(fans["F1"])} == {
            (-1, 0), (1, 0), (0, 1), (1, 1)}

    def test_p112_per_ray_distribution(self, fans):
        fan = fans["P112"]
        dist = Counter(r.rho_e for r in demazure_roots(fan))
        by_ray = {fan.rays[i]: dist[i] for i in range(3)}
        assert by_ray == {(-1, -2): 1, (0, 1): 3, (1, 0): 1}

    def test_definition_soundness(self, fans):
        for fan in fans.values():
            for r in demazure_roots(fan):
                values = [pairing(rho, r.e) for rho in fan.rays]
                assert values[r.rho_e] == -1
                assert all(v >= 0 for i, v in enumerate(values) if i != r.rho_e)

    def test_rho_uniqueness(self, fans):
        for fan in fans.values():
            for r in demazure_roots(fan):
                assert sum(1 for rho in fan.rays if pairing(rho, r.e) == -1) >= 1
                assert sum(1 for rho in fan.rays if pairing(rho, r.e) < 0) == 1

    def test_sorted_and_duplicate_free(self, fans):
        for fan in fans.values():
            roots = demazure_roots(fan)
            keys = [r.sort_key() for r in roots]
            assert keys == sorted(keys)
            assert len(set(roots)) == len(roots)

    def test_incomplete_fan_refused(self):
        a2 = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
        with pytest.raises(IncompleteFanError, match="may be infinite"):
            demazure_roots(a2)
        # the raw definition filter really does admit arbitrarily large e here
        hits = [e for e in [(-1, k) for k in range(10)] if root_ray_index(a2.rays, e) is not None]
        assert len(hits) == 10


class TestRootsOracle:
    def test_p1(self, fans):
        assert roots_oracle(fans["P1"], 3) == demazure_roots(fans["P1"])

    def test_p2_unit_box(self, fans):
        roots = roots_oracle(fans["P2"], 1)
        assert len(roots) == 6
        assert roots == demazure_roots(fans["P2"])

    def test_radius_zero_empty(self, fans):
        assert roots_oracle(fans["P2"], 0) == ()

    def test_oracle_equivalence_corpus(self, fans):
        for name, fan in fans.items():
            if fan.rank > 3:
                continue
            bound = root_box_bound(fan)
            assert demazure_roots(fan) == roots_oracle(fan, bound), name

    def test_oracle_equivalence_random(self):
        rng = random.Random(101)
        for _ in range(25):
            fan = random_complete_fan_rank2(rng)
            assert demazure_roots(fan) == roots_oracle(fan, root_box_bound(fan))


def fibonacci(k):
    """[[F(k+1), F(k)], [F(k), F(k-1)]], the k-th power of [[1, 1], [1, 0]]."""
    u = identity_matrix(2)
    for _ in range(k):
        u = mat_mul(u, ((1, 1), (1, 0)))
    return u


def projective_space(n):
    rays = list(identity_matrix(n)) + [(-1,) * n]
    return Fan(n, rays, combinations(range(n + 1), n))


# the normal fan of a square pyramid: the apex cone has four rays, and the
# base's ray has nine roots
SQUARE_PYRAMID = Fan(3, [(0, 0, -1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
                     [(1, 2, 3, 4), (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)])


def large_conjugates(fans):
    """(base, U) for seeded unimodular U over the corpus, F3 in basis F^20,
    and P2xP2 in a rank-4 basis whose entries are all at least 8."""
    rng = random.Random(111)
    for fan in list(fans.values()) + [SQUARE_PYRAMID]:
        for _ in range(3):
            yield fan, random_unimodular(rng, fan.rank, steps=12)
    yield fans["F3"], fibonacci(20)
    upper = tuple(tuple(int(j >= i) for j in range(4)) for i in range(4))
    shear = mat_mul(upper, transpose(upper))
    u = mat_mul(mat_mul(shear, shear), upper)
    assert min(x for row in u for x in row) >= 8
    yield fans["P2xP2"], u


def candidates(fan):
    return _lifted_candidates(fan.rays, enumerate(_ray_charts(fan)))


def count_candidates(fan):
    return sum(1 for _ in candidates(fan))


class TestChartEnumeration:
    def test_conjugate_roots_are_mapped(self, fans):
        count = 0
        for base, u in large_conjugates(fans):
            inverse = invert_unimodular(u)
            expected = {(vec_mat(base.rays[r.rho_e], u), tuple(pairing(row, r.e) for row in inverse))
                        for r in demazure_roots(base)}
            fan = transform_fan(base, u)
            assert {(fan.rays[r.rho_e], r.e) for r in demazure_roots(fan)} == expected, u
            count += len(expected)
        assert count == 3 * (74 + 13) + 6 + 12

    def test_candidates_do_not_depend_on_basis(self, fans):
        for base, u in large_conjugates(fans):
            assert count_candidates(transform_fan(base, u)) == count_candidates(base), u

    def test_candidates_bounded_by_roots_on_projective_spaces(self):
        for n in range(4, 9):
            fan = projective_space(n)
            assert len(demazure_roots(fan)) == n * (n + 1)
            assert count_candidates(fan) <= 2 * n * (n + 1)

    def test_every_candidate_is_a_root(self, fans):
        # the prefix test is exact once c is complete, and the coset filter
        # drops the c whose R*c/d is not integral: on weighted projective
        # spaces the least |det| through the heavy ray is 2 or more
        rng = random.Random(112)
        weighted = [fans["P112"], Fan(2, [(1, 0), (0, 1), (-2, -3)], [(0, 1), (1, 2), (2, 0)]),
                    Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, -3, -5)],
                        combinations(range(4), 3)),
                    Fan(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -2, -3)],
                        combinations(range(5), 4))]
        for fan in weighted + [transform_fan(f, random_unimodular(rng, f.rank)) for f in weighted]:
            assert sorted(candidates(fan)) == [(r.rho_e, r.e) for r in demazure_roots(fan)]

    def test_non_simplicial_chart(self):
        assert len(demazure_roots(SQUARE_PYRAMID)) == 13
        assert demazure_roots(SQUARE_PYRAMID) == roots_oracle(
            SQUARE_PYRAMID, root_box_bound(SQUARE_PYRAMID))

    def test_one_dd_per_ray_and_one_inverse_per_chart(self, fans, monkeypatch):
        calls = {"dd": [], "inverse": []}

        def recorded(name, fn):
            def wrapper(*args):
                calls[name].append(tuple(map(tuple, args[0])))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(roots_module, "_pointed_extreme_rays",
                            recorded("dd", roots_module._pointed_extreme_rays))
        monkeypatch.setattr(roots_module, "scaled_inverse",
                            recorded("inverse", lattice.scaled_inverse))
        pool = [transform_fan(base, u) for base, u in large_conjugates(fans)]
        pool += [random_blow_up(random.Random(104), fans["P3"], 12), projective_space(6)]
        for fan in pool:
            fan.require_valid()
            for name in calls:
                calls[name].clear()
            demazure_roots.__wrapped__(fan)
            assert len(calls["dd"]) == len(fan.rays)
            # each chart once; a simplicial cone is its own chart, inverted
            # when the fan was validated, so a simplicial fan inverts none
            assert len(set(calls["inverse"])) == len(calls["inverse"])
            if all(len(c) == fan.rank for c in fan.max_cones):
                assert calls["inverse"] == []

    def test_double_description_stops_at_the_zero_cone(self):
        # the third row cuts {y >= 0} down to {0}: the method returns
        # without reading a row after it, listed or yielded
        class Rows:
            def __len__(self):
                return 6

            def __getitem__(self, k):
                assert k <= 2, k
                return ((1, 0), (0, 1), (-1, -1))[k]

        def more():
            yield (-1, -1)
            raise AssertionError("read past the zero cone")

        units = identity_matrix(2)
        assert fan_module._pointed_extreme_rays(Rows(), [0, 1]) == []
        assert fan_module._pointed_extreme_rays(units, [0, 1], units, more()) == []

    def test_negative_curves_empty_their_polytope_in_one_row(self, fans, monkeypatch):
        # on a smooth surface rho_(j-1) + rho_(j+1) = -b_j * rho_j, so in a
        # chart of rho_j and one neighbour the other neighbour's row reads
        # c <= b_j, with c >= 0: when b_j < 0 the polytope is {0} after
        # that row, which comes first, since it is in rho_j's star
        read = {}
        bounds = roots_module._chart_bounds

        def recorded(rays, j, *rest):
            ranges, rows = bounds(rays, j, *rest)
            read[j] = (ranges, len(rows))
            return ranges, rows

        monkeypatch.setattr(roots_module, "_chart_bounds", recorded)
        rng = random.Random(105)
        negative = 0
        for times in (10, 30, 57):
            fan = random_blow_up(rng, fans["P2"], times)
            read.clear()
            demazure_roots.__wrapped__(fan)
            for j, ray in enumerate(fan.rays):
                before, after = (fan.rays[i] for c in fan.max_cones if j in c for i in c if i != j)
                s = tuple(x + y for x, y in zip(before, after))
                k = 0 if ray[0] else 1
                b = -s[k] // ray[k]
                assert s == tuple(-b * x for x in ray)
                if b < 0:
                    negative += 1
                    assert read[j] == (None, 1), (fan.rays, j)
        # the 106th ray, with b_j = 0, has a root
        assert negative == 105

    def chart_pool(self, fans):
        rng = random.Random(113)
        pool = list(fans.values()) + [SQUARE_PYRAMID]
        pool += [fan_from_document(parse_fan((FIXTURES / f"{name}.fan").read_text()))
                 for name in COMPLETE_FIXTURES]
        pool += [random_blow_up(rng, fans[base], k) for base in ("P2", "P3") for k in (1, 4, 9)]
        return pool + [transform_fan(base, u) for base, u in large_conjugates(fans)]

    @staticmethod
    def charts_through(fan, j):
        """Per maximal cone through ray j: ray j and each further ray of the
        cone outside the span of those before it, sorted."""
        for cone in fan.max_cones:
            if j in cone:
                order = [j] + [i for i in cone if i != j]
                basis = greedy_independent_rows([fan.rays[i] for i in order])
                yield tuple(sorted(order[p] for p in basis))

    def test_chart_ranges_match_the_vertices_in_m(self, fans):
        # every chart through every ray, not only the one enumerated: the
        # ranges of c in chart coordinates are those of <rho_i, e> on the
        # vertices of the root polytope in M
        charts = empty = 0
        for fan in self.chart_pool(fans):
            n = fan.rank
            for j in range(len(fan.rays)):
                vertices = RootPolytope.for_ray(fan, j).vertices(n)
                for chart in self.charts_through(fan, j):
                    expected = None
                    if vertices:
                        expected = []
                        for i in chart:
                            values = [(pairing(fan.rays[i], v[:n]), v[-1]) for v in vertices]
                            expected.append(range(min(-(-x // t) for x, t in values),
                                                  max(x // t for x, t in values) + 1))
                        if not all(expected):
                            expected = None
                    inverse = lattice.scaled_inverse([fan.rays[i] for i in chart])
                    ranges, _ = roots_module._chart_bounds(fan.rays, j, chart, *inverse)
                    assert ranges == expected, (fan.rays, j, chart)
                    charts += 1
                    empty += expected is None
        # F1xF1xF1.fan gives 384 charts, 96 of them empty
        assert (charts, empty) == (1704, 568)

    def test_chart_of_least_determinant(self, fans, monkeypatch):
        # the chart found by exchanging ray j into a cone's first basis is
        # the least (|det|, index tuple) over the charts through ray j
        chosen = []
        bounds = roots_module._chart_bounds
        monkeypatch.setattr(roots_module, "_chart_bounds",
                            lambda rays, j, chart, *rest: chosen.append((j, chart))
                            or bounds(rays, j, chart, *rest))
        cube = fan_from_document(parse_fan((FIXTURES / "cube5.fan").read_text()))
        rng = random.Random(114)
        conjugates = [transform_fan(cube, random_unimodular(rng, 5)) for _ in range(2)]
        exchanged = 0
        for fan in self.chart_pool(fans) + conjugates:
            chosen.clear()
            for _ in candidates(fan):
                pass
            expected = [(j, min(self.charts_through(fan, j),
                                key=lambda c: (abs(det([fan.rays[i] for i in c])), c)))
                        for j in range(len(fan.rays))]
            assert chosen == expected, fan.rays
            exchanged += sum(chart not in fan.max_cones for _, chart in chosen)
        # every ray of the 5-cube's face fan and of its conjugates takes a
        # chart inside a facet cone of 16 rays
        assert exchanged == 3 * 32

    def test_f3_in_basis_f20(self, fans):
        path = pathlib.Path(__file__).resolve().parent / "fixtures" / "F3_F20.fan"
        fan = fan_from_document(parse_fan(path.read_text(encoding="utf-8")))
        assert fan == transform_fan(fans["F3"], fibonacci(20))
        start = time.perf_counter()
        roots = demazure_roots.__wrapped__(fan)
        assert time.perf_counter() - start < 1.0
        assert len(roots) == 6


class TestIntegerBox:
    def test_matches_rounded_rational_bounds(self, fans):
        rng = random.Random(102)
        weighted = [fans["P112"],
                    Fan(2, [(-2, -3), (1, 0), (0, 1)], [(0, 1), (1, 2), (2, 0)]),
                    # rays generating an index-3 sublattice: no roots at all
                    Fan(2, [(2, 1), (-1, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])]
        pool = [fans["F3"], fans["P3"]] + weighted
        pool += [transform_fan(f, random_unimodular(rng, 2)) for f in weighted for _ in range(3)]
        rng = random.Random(104)
        # a star subdivision's new ray is the sum of the rays of the cone it
        # subdivides, so its root polytope is empty
        higher = [random_blow_up(rng, fans["P3"], k) for k in (1, 2, 4)]
        higher += [product_fan(fans["P1"], fans["P2"]), fans["P2xP2"],
                   product_fan(fans["P1"], fans["P3"]),
                   # P(1,1,2,1) and P(1,1,1,2,3): vertices off the lattice
                   Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)],
                       [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
                   Fan(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -2, -3)],
                       list(combinations(range(5), 4)))]
        pool += higher + [transform_fan(f, random_unimodular(rng, f.rank))
                          for f in higher for _ in range(2)]
        empty = negative_fractions = 0
        for fan in pool:
            for j in range(len(fan.rays)):
                bounds = root_polytope_bounds(fan, j)
                box = RootPolytope.for_ray(fan, j).integer_box(fan.rank)
                if bounds is None:
                    assert box is None, (fan.rays, j)
                    empty += 1
                    continue
                expected = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in bounds]
                assert box == (None if any(not r for r in expected) else expected), (fan.rays, j)
                negative_fractions += sum(b < 0 and b.denominator > 1
                                          for pair in bounds for b in pair)
        assert empty >= 1
        assert negative_fractions >= 40  # 27 of them on the rank-2 fans

    def test_incomplete_fan_raises(self):
        # A^2: <e1, e> = -1 with e2 >= 0 is a ray, an unbounded polytope
        quadrant = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
        # a single ray of rank 2: <e1, e> = -1 alone leaves a line
        half_line = Fan(2, [(1, 0)], [(0,)])
        for fan in (quadrant, half_line):
            with pytest.raises(IncompleteFanError, match="unbounded"):
                RootPolytope.for_ray(fan, 0).integer_box(2)


class TestClassifyRoots:
    def test_p1_pair(self, fans):
        pairs, unipotent = classify_roots(demazure_roots(fans["P1"]))
        assert pairs == (((1,), (-1,)),) and unipotent == ()

    def test_f1_split(self, fans):
        pairs, unipotent = classify_roots(demazure_roots(fans["F1"]))
        assert pairs == (((1, 0), (-1, 0)),)
        assert set(unipotent) == {(0, 1), (1, 1)}

    def test_empty(self):
        assert classify_roots(()) == ((), ())

    def test_partition_is_exact(self, fans):
        for fan in fans.values():
            roots = demazure_roots(fan)
            pairs, unipotent = classify_roots(roots)
            covered = {e for p in pairs for e in p} | set(unipotent)
            assert covered == {r.e for r in roots}
            for e, minus in pairs:
                assert minus == vec_neg(e)


class TestProductRoots:
    def test_p1_p1(self, fans):
        assert len(product_roots(fans["P1"], fans["P1"])) == 4
        assert product_roots(fans["P1"], fans["P1"]) == demazure_roots(
            product_fan(fans["P1"], fans["P1"]))

    def test_p1_p2(self, fans):
        assert len(product_roots(fans["P1"], fans["P2"])) == 8

    def test_product_with_point(self, fans):
        trivial = Fan(0, [], [])
        roots = product_roots(fans["P2"], trivial)
        assert len(roots) == 6
        assert roots == demazure_roots(product_fan(fans["P2"], trivial))
        assert roots == product_chart_roots(fans["P2"], trivial)
        assert product_chart_roots(trivial, trivial) == ()

    def test_matches_direct_enumeration_random(self, fans):
        rng = random.Random(55)
        pool = [fans["P1"], fans["P2"], fans["F1"]]
        pool += [random_complete_fan_rank2(rng) for _ in range(4)]
        for f1 in pool:
            for f2 in pool:
                direct = demazure_roots(product_fan(f1, f2))
                assert product_roots(f1, f2) == product_chart_roots(f1, f2) == direct

    def test_incomplete_rejected(self, fans):
        with pytest.raises(IncompleteFanError):
            product_roots(fans["P1"], Fan(2, [(1, 0), (0, 1)], [(0, 1)]))
