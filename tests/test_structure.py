import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import toricaut
from toricaut.cli import fan_from_document, parse_fan
from toricaut.corpus import corpus
from toricaut.fan import Fan, IncompleteFanError, is_complete, product_fan, transform_fan
from toricaut import lattice, structure
from toricaut.lattice import (
    det,
    identity_matrix,
    invert_unimodular,
    is_unimodular,
    mat_mul,
    rank_of,
    vec_mat,
)
from toricaut.roots import demazure_roots
from toricaut.structure import (
    aut_structure_report,
    decompose,
    fan_automorphisms,
    fan_isomorphism,
    reconstruct,
    wreath_order_check,
)
from toricaut.symbolic import lie_dimension

from util import (
    automorphism_order_oracle,
    compose,
    inverse,
    minors_gcd,
    random_blow_up,
    random_complete_fan_rank2,
    random_unimodular,
    weighted_projective_fan,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

EXPECTED_ORDERS = {
    "P1": 2, "P2": 6, "F1": 2, "P1xP1": 8,
    "P1xP1xP1": 48, "P1xP2": 12, "P2xP2": 72,
}


class TestFanAutomorphisms:
    def test_orders(self, fans):
        for name, expected in EXPECTED_ORDERS.items():
            assert len(fan_automorphisms(fans[name])) == expected, name

    def test_orders_against_bijection_oracle(self, fans):
        for name in ("P1", "P2", "F1", "F2", "P112", "P1xP1", "P1xP2"):
            fan = fans[name]
            assert len(fan_automorphisms(fan)) == automorphism_order_oracle(fan), name

    def test_f1_elements(self, fans):
        autos = fan_automorphisms(fans["F1"])
        matrices = {a.matrix for a in autos}
        assert identity_matrix(2) in matrices
        assert len(matrices) == 2
        other = next(m for m in matrices if m != identity_matrix(2))
        # the nontrivial element swaps the rays (1,0) and (-1,1)
        assert vec_mat((1, 0), other) == (-1, 1)
        assert vec_mat((-1, 1), other) == (1, 0)

    def test_group_axioms(self, fans):
        for name in ("P2", "F1", "P1xP1", "P1xP2"):
            autos = fan_automorphisms(fans[name])
            matrices = {a.matrix for a in autos}
            for a in autos:
                assert inverse(a).matrix in matrices
                for b in autos:
                    assert compose(a, b).matrix in matrices

    def test_permutations_act_on_cones(self, fans):
        for name in ("P2", "P1xP1"):
            fan = fans[name]
            for a in fan_automorphisms(fan):
                mapped = {tuple(sorted(a.ray_permutation[i] for i in c))
                          for c in fan.max_cones}
                assert mapped == set(fan.max_cones)

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteFanError):
            fan_automorphisms(Fan(2, [(1, 0), (0, 1)], [(0, 1)]))

    def test_cube5_fixture_hyperoctahedral(self):
        # the face fan of the 5-cube: 32 rays, 10 non-simplicial cones of 16
        path = FIXTURES / "cube5.fan"
        fan = fan_from_document(parse_fan(path.read_text()))
        assert len(fan.rays) == 32 and sorted(map(len, fan.max_cones)) == [16] * 10
        assert len(fan_automorphisms(fan)) == 2 ** 5 * math.factorial(5) == 3840

    def test_sorted_deterministic(self, fans):
        autos = fan_automorphisms(fans["P2"])
        assert [a.matrix for a in autos] == sorted(a.matrix for a in autos)


class TestAnchorInverse:
    """The search inverts its anchor rows once; each leaf is an integer
    product and a divisibility test, so the answers must not change."""

    # complete, with every cone of determinant 2 or 4
    NON_SMOOTH = Fan(2, [(1, 0), (-1, 2), (-1, -2)], [(0, 1), (1, 2), (2, 0)])

    def _fans(self, fans):
        rng = random.Random(611)
        out = [self.NON_SMOOTH]
        out += [random_blow_up(rng, fans["P2"], rng.randint(1, 4)) for _ in range(6)]
        out += [random_complete_fan_rank2(rng, extra=rng.randint(0, 3)) for _ in range(6)]
        return out

    def test_no_fraction_solve_per_leaf(self, fans):
        fan = random_blow_up(random.Random(24), fans["P3"], 12)
        # bypass the memo so that the search itself runs
        assert fan_automorphisms.__wrapped__(fan)
        # every solve is an integer one: a fresh interpreter importing the
        # package and its command line loads neither fractions nor decimal
        src = str(pathlib.Path(toricaut.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, toricaut, toricaut.cli; "
                "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_anchor_determinant_above_one(self):
        # the multiplicities in the ray profiles set (1, 0), whose cones
        # both have multiplicity 2, apart from (-1, ±2): the anchors are the
        # rays (-1, -2), (1, 0) of the first cone with fewest candidate
        # images, d = ±2
        fan = self.NON_SMOOTH
        anchors = structure._cone_anchor_indices(fan, structure._ray_profiles(fan)[0])
        assert [fan.rays[i] for i in anchors] == [(-1, -2), (1, 0)]
        assert abs(det(tuple(fan.rays[i] for i in anchors))) == 2
        assert len(fan_automorphisms(fan)) == 2

    def test_orders_against_bijection_oracle(self, fans):
        for fan in self._fans(fans):
            assert len(fan.rays) <= 7
            assert len(fan_automorphisms(fan)) == automorphism_order_oracle(fan), fan.rays

    def test_conjugate_groups(self, fans):
        rng = random.Random(612)
        for fan in self._fans(fans):
            group = {a.matrix for a in fan_automorphisms(fan)}
            for _ in range(2):
                u = random_unimodular(rng, 2)
                u_inv = invert_unimodular(u)
                conj = {a.matrix for a in fan_automorphisms(transform_fan(fan, u))}
                assert conj == {mat_mul(mat_mul(u_inv, g), u) for g in group}, (fan.rays, u)


class TestFanIsomorphism:
    def test_identity_on_self(self, fans):
        iso = fan_isomorphism(fans["P2"], fans["P2"])
        assert iso is not None

    def test_conjugate_recovered(self, fans):
        u = ((1, 1), (0, 1))
        conj = transform_fan(fans["P1xP1"], u)
        iso = fan_isomorphism(fans["P1xP1"], conj)
        assert iso is not None
        for i, r in enumerate(fans["P1xP1"].rays):
            assert vec_mat(r, iso.matrix) == conj.rays[iso.ray_permutation[i]]

    def test_smoothness_obstruction(self, fans):
        assert fan_isomorphism(fans["P2"], fans["P112"]) is None

    def test_rank_mismatch_none(self, fans):
        assert fan_isomorphism(fans["P1"], fans["P2"]) is None

    def test_different_hirzebruch_not_isomorphic(self, fans):
        assert fan_isomorphism(fans["F1"], fans["F2"]) is None
        assert fan_isomorphism(fans["F0"], fans["F1"]) is None

    def test_non_spanning_extension_path(self):
        f1 = Fan(2, [(1, 0)], [(0,)])
        f2 = Fan(2, [(0, 1)], [(0,)])
        iso = fan_isomorphism(f1, f2)
        assert iso is not None
        assert vec_mat((1, 0), iso.matrix) == (0, 1)
        from toricaut.lattice import det
        assert abs(det(iso.matrix)) == 1

    # complete rank-2 fans whose rays generate sublattices of index 2 and 3
    SQUARE = Fan(2, [(1, 1), (1, -1), (-1, 1), (-1, -1)], [(0, 1), (0, 2), (1, 3), (2, 3)])
    P2_MOD_3 = Fan(2, [(2, 1), (-1, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])

    def test_non_spanning_conjugates(self, fans):
        rng = random.Random(614)
        bases = [fans["P1"], fans["P2"], fans["F1"], fans["P112"], fans["P3"],
                 random_complete_fan_rank2(rng), self.SQUARE, self.P2_MOD_3]
        indices = set()
        for base in bases:
            d = base.rank
            for n in range(d + 1, 5):
                # a saturated embedding Z^d -> Z^n keeps the rays primitive and
                # the index of the lattice they generate in its saturation
                embed = random_unimodular(rng, n)[:d]
                fan = Fan(n, [vec_mat(r, embed) for r in base.rays], base.max_cones)
                indices.add(minors_gcd(fan.rays, d))
                conj = transform_fan(fan, random_unimodular(rng, n))
                for f1, f2 in ((fan, conj), (conj, fan)):
                    iso = fan_isomorphism(f1, f2)
                    assert iso is not None, (f1.rays, f2.rays)
                    assert abs(det(iso.matrix)) == 1
                    for i, r in enumerate(f1.rays):
                        assert vec_mat(r, iso.matrix) == f2.rays[iso.ray_permutation[i]]
        assert indices == {1, 2, 3}

    def test_trivial_fans(self):
        iso = fan_isomorphism(Fan(2, [], []), Fan(2, [], []))
        assert iso is not None and iso.matrix == identity_matrix(2)


class TestConeAnchors:
    """The anchors are the pivots of one maximal cone's rays, the cone with
    the fewest candidate images, so the search tests few leaves."""

    def _count_leaves(self, monkeypatch):
        calls = []
        candidate = structure._candidate_matrix
        monkeypatch.setattr(structure, "_candidate_matrix",
                            lambda *args: calls.append(args) or candidate(*args))
        return calls

    def test_projective_spaces_test_each_element_once(self, monkeypatch):
        calls = self._count_leaves(monkeypatch)
        for n in range(1, 6):
            rays = list(identity_matrix(n)) + [(-1,) * n]
            fan = Fan(n, rays, [c for c in itertools.combinations(range(n + 1), n)])
            calls.clear()
            # bypass the memo so that the search itself runs
            assert len(fan_automorphisms.__wrapped__(fan)) == math.factorial(n + 1)
            assert len(calls) == math.factorial(n + 1)

    def test_blow_ups_test_few_leaves(self, fans, monkeypatch):
        calls = self._count_leaves(monkeypatch)
        fan = fan_from_document(parse_fan((FIXTURES / "Bl24P3.fan").read_text()))
        assert len(fan_automorphisms.__wrapped__(fan)) == 2
        # the first independent rays in sorted order gave 4,080 leaves
        assert len(calls) <= 2
        rng = random.Random(615)
        for times in (1, 3, 10, 20, 30):
            fan = random_blow_up(rng, fans["P2"], times)
            calls.clear()
            fan_automorphisms.__wrapped__(fan)
            # every ray of a surface lies in two 2-cones, so the faces
            # alone left about two leaves per ray; the wall relations (the
            # self-intersection numbers) set the rays apart
            assert len(calls) <= 2, times

    @staticmethod
    def _power(fan, k):
        out = fan
        for _ in range(k - 1):
            out = product_fan(out, fan)
        return out

    def test_hirzebruch_powers_test_each_element_once(self, fans, monkeypatch):
        # F_a^k has the face lattice of P1^(2k), so the face profiles alone
        # tested all 2^(2k) (2k)! of its automorphisms, 46,080 on F1^3; the
        # wall relations leave one leaf per element of Aut = Aut(F_a)^k x S_k,
        # in any basis: with each pair's terms read in one direction only,
        # the anchor order decided, and conjugates of F2^3 took up to 288
        calls = self._count_leaves(monkeypatch)
        rng = random.Random(616)
        cases = [(name, k, 2) for name in ("F1", "F2", "F3") for k in (2, 3)]
        cases += [("F2", 4, 0), ("F1", 4, 2)]  # |Aut| = 384
        for name, k, count in cases:
            fan = self._power(fans[name], k)
            order = len(fan_automorphisms(fans[name])) ** k * math.factorial(k)
            conjugates = [transform_fan(fan, random_unimodular(rng, fan.rank)) for _ in range(count)]
            for f in [fan] + conjugates:
                calls.clear()
                assert len(fan_automorphisms.__wrapped__(f)) == order, (name, k)
                assert len(calls) == order, (name, k, f.rays)

    def test_f1_to_the_fourth(self, fans):
        # about 10^7 leaves with the face profiles alone
        fan = self._power(fans["F1"], 4)
        start = time.perf_counter()
        autos = fan_automorphisms.__wrapped__(fan)
        assert time.perf_counter() - start < 10
        assert len(autos) == len(fan_automorphisms(fans["F1"])) ** 4 * math.factorial(4) == 384

    def test_weighted_projective_spaces_test_few_leaves(self, monkeypatch):
        # every ray of P(q) lies in the same number of faces of each
        # dimension, so the face profiles alone tested all (n+1)! leaves
        # (5,040 on P(1,1,2,2,3,3,4)); the maximal cones' multiplicities q_i
        # leave one leaf per automorphism, the same in a seeded basis
        calls = self._count_leaves(monkeypatch)
        rng = random.Random(7)
        for q, order in (((1, 1, 2, 2, 3, 3, 4), 8), ((1, 1, 2, 2, 3, 3, 4, 4, 5), 16),
                         (tuple(range(1, 9)), 1)):
            fan = weighted_projective_fan(q)
            conjugate = transform_fan(fan, random_unimodular(rng, fan.rank))
            for f in (fan, conjugate):
                calls.clear()
                assert len(fan_automorphisms.__wrapped__(f)) == order, q
                assert len(calls) == order, q


class TestOneFramePerSearch:
    """When the rays span a proper subspace, the search writes both fans'
    rays in saturated-span coordinates once, and every leaf is the same
    integer product as for spanning rays."""

    def _count_completions(self, monkeypatch):
        calls = []
        complete = structure.complete_to_unimodular
        monkeypatch.setattr(structure, "complete_to_unimodular",
                            lambda *args: calls.append(args) or complete(*args))
        return calls

    def test_two_completions_per_non_spanning_search(self, fans, monkeypatch):
        calls, searches = self._count_completions(monkeypatch), []
        search = structure._isomorphism_search
        monkeypatch.setattr(structure, "_isomorphism_search",
                            lambda f1, f2, find_all: searches.append(f1) or search(f1, f2, find_all))
        TestFanIsomorphism().test_non_spanning_conjugates(fans)
        assert len(searches) == 32 and len(calls) == 2 * len(searches)

    def test_no_completion_on_complete_fans(self, fans, monkeypatch):
        calls = self._count_completions(monkeypatch)
        for fan in fans.values():
            # bypass the memo so that the search itself runs
            assert fan_automorphisms.__wrapped__(fan)
        assert calls == []

    def test_matrices_pairwise_distinct(self, fans):
        # distinct anchor images give distinct matrices, so the search
        # keeps no set of the matrices it has seen
        documents = sorted(FIXTURES.glob("*.fan"))
        fixtures = [fan_from_document(parse_fan(path.read_text())) for path in documents]
        checked = 0
        for fan in list(fans.values()) + fixtures:
            if fan.validation.ok and is_complete(fan):
                matrices = [a.matrix for a in fan_automorphisms(fan)]
                assert len(set(matrices)) == len(matrices), fan
                checked += 1
        # pyramid_swapped is invalid and P12_minus_cone incomplete
        assert checked == len(fans) + len(fixtures) - 2


class TestDecompose:
    def test_p1xp1_splits(self, fans):
        dec = decompose(fans["P1xP1"])
        assert len(dec.factors) == 2
        assert all(f.certified_indecomposable for f in dec.factors)
        bases = [f.basis for f in dec.factors]
        assert {bases[0][0], bases[1][0]} == {(1, 0), (0, 1)}
        assert reconstruct(dec, 2) == fans["P1xP1"]

    def test_p2_single_circuit_block(self, fans):
        dec = decompose(fans["P2"])
        assert len(dec.factors) == 1
        factor = dec.factors[0]
        assert factor.certified_indecomposable
        # one circuit-closed block means no bipartitions to exhaust
        assert factor.certificate == ()

    def test_lattice_obstructed_square(self):
        # rays (+-1, +-1): the spans split over R but only with index 2 over Z
        fan = Fan(2, [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                  [(0, 1), (0, 2), (1, 3), (2, 3)])
        dec = decompose(fan)
        assert len(dec.factors) == 1
        factor = dec.factors[0]
        assert factor.certified_indecomposable
        assert len(factor.certificate) == 1
        assert factor.certificate[0].failed_criterion == "direct_sum"

    def test_conjugated_product_recovers_factors(self, fans):
        rng = random.Random(77)
        reference = {1: fans["P1"], 2: fans["P2"]}
        for _ in range(3):
            u = random_unimodular(rng, 3)
            conj = transform_fan(fans["P1xP2"], u)
            dec = decompose(conj)
            assert len(dec.factors) == 2
            assert reconstruct(dec, 3) == conj
            for factor in dec.factors:
                assert fan_isomorphism(factor.fan, reference[factor.fan.rank]) is not None

    def test_decomposition_invariance_multisets(self, fans):
        rng = random.Random(13)
        for _ in range(3):
            u = random_unimodular(rng, 4)
            conj = transform_fan(fans["P2xP2"], u)
            dec = decompose(conj)
            assert len(dec.factors) == 2
            for factor in dec.factors:
                assert fan_isomorphism(factor.fan, fans["P2"]) is not None

    @staticmethod
    def _fans(fans):
        # cube5 is the one whose first maximal cone is not simplicial
        documents = ("cube5.fan", "Bl24P3.fan", "P2xP2xP1_u.fan")
        return list(fans.values()) + [fan_from_document(parse_fan((FIXTURES / d).read_text()))
                                      for d in documents]

    def test_reconstruction_soundness_corpus(self, fans):
        rng = random.Random(2101)
        tested = self._fans(fans) + [random_blow_up(rng, fans[name], rng.randint(1, 6))
                                     for name in ("P2", "P3", "P1xP2") for _ in range(3)]
        for fan in tested:
            dec = decompose(fan)
            assert reconstruct(dec, fan.rank) == fan, fan
            # the blocks are the components of the rays' matroid: their ranks
            # add up to the rank, and a change of basis, which also changes
            # the first maximal cone, carries them along the rays
            blocks = structure._ray_blocks(fan)
            assert sum(rank_of([fan.rays[i] for i in b]) for b in blocks) == fan.rank, fan
            u = random_unimodular(rng, fan.rank)
            image = transform_fan(fan, u)
            index = {r: k for k, r in enumerate(image.rays)}
            moved = sorted(tuple(sorted(index[vec_mat(fan.rays[i], u)] for i in b)) for b in blocks)
            assert structure._ray_blocks(image) == moved, (fan, u)
        assert any(len(fan.max_cones[0]) > fan.rank for fan in tested)

    def test_one_basis_and_one_elimination_per_split(self, fans, monkeypatch):
        # one Hermite form per block search (the first maximal cone's
        # pivots) and no determinant: a split's inverse decides direct_sum;
        # fresh fans, since each fan keeps its decomposition
        tested = self._fans(corpus())
        for fan in tested:
            # validated before counting, so only decompose's own calls count
            assert is_complete(fan)
        hermite, ray_blocks = lattice._hermite, structure._ray_blocks
        forms, dets, per_search = [], [], []

        def counting_hermite(a):
            forms.append(a)
            return hermite(a)

        def counting_ray_blocks(fan):
            before = len(forms)
            blocks = ray_blocks(fan)
            per_search.append(len(forms) - before)
            return blocks

        def counting_det(a):
            dets.append(a)
            return det(a)

        monkeypatch.setattr(lattice, "_hermite", counting_hermite)
        monkeypatch.setattr(structure, "_ray_blocks", counting_ray_blocks)
        for module in (lattice, structure):
            monkeypatch.setattr(module, "det", counting_det)
        for fan in tested:
            decompose(fan)
        assert dets == []
        assert per_search == [1] * len(per_search) and len(per_search) > len(tested)

    def test_direct_sum_bases(self, fans):
        for name in ("P1xP1", "P1xP2", "P2xP2", "P1xP1xP1"):
            dec = decompose(fans[name])
            assert is_unimodular([row for f in dec.factors for row in f.basis])

    def test_rank0(self):
        assert decompose(Fan(0, [], [])).factors == ()

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteFanError):
            decompose(Fan(2, [(1, 0), (0, 1)], [(0, 1)]))


class TestAutStructureReport:
    def test_p2(self, fans):
        rep = aut_structure_report(fans["P2"])
        assert rep.dim_aut0 == 8
        assert rep.factor_multiset == (("X1", 1),)
        assert rep.structure_string == "Aut_{X1}"

    def test_p1_cubed(self, fans):
        rep = aut_structure_report(fans["P1xP1xP1"])
        assert rep.factor_multiset == (("X1", 3),)
        assert rep.structure_string == "Aut_{X1}^3 ⋊ S_3"
        assert rep.fan_automorphism_order == 48

    def test_p1xp2(self, fans):
        rep = aut_structure_report(fans["P1xP2"])
        assert rep.factor_multiset == (("X1", 1), ("X2", 1))
        assert rep.structure_string == "Aut_{X1} × Aut_{X2}"
        assert rep.fan_automorphism_order == 12

    def test_p1xp1_cli_example(self, fans):
        rep = aut_structure_report(fans["P1xP1"])
        assert rep.structure_string == "Aut_{X1}^2 ⋊ S_2"
        assert rep.dim_aut0 == 6

    def test_dim_consistency(self, fans):
        for fan in fans.values():
            rep = aut_structure_report(fan)
            assert rep.dim_aut0 == lie_dimension(fan)
            assert rep.dim_aut0 == fan.rank + len(demazure_roots(fan))

    def test_generators_generate(self, fans):
        for name in ("P2", "P1xP1", "P1xP2"):
            rep = aut_structure_report(fans[name])
            target = {a.matrix for a in fan_automorphisms(fans[name])}
            generated = {identity_matrix(fans[name].rank)}
            frontier = set(generated)
            gens = [g.matrix for g in rep.fan_automorphism_generators]
            while frontier:
                new = set()
                for m1 in frontier:
                    for g in gens:
                        for prod in (mat_mul(m1, g), mat_mul(g, m1)):
                            if prod not in generated:
                                new.add(prod)
                generated |= new
                frontier = new
            assert generated == target


class TestWreathOrderIdentity:
    def test_products(self, fans):
        assert wreath_order_check(fans["P1xP1"])
        assert wreath_order_check(fans["P1xP2"])
        assert wreath_order_check(fans["P2xP2"])
        assert wreath_order_check(fans["P1xP1xP1"])

    def test_order_identities(self, fans):
        assert len(fan_automorphisms(fans["P1xP1"])) == 2 ** 2 * math.factorial(2)
        assert len(fan_automorphisms(fans["P1xP2"])) == 2 * 6
        assert len(fan_automorphisms(fans["P2xP2"])) == 6 ** 2 * math.factorial(2)

    def test_whole_corpus(self, fans):
        for name, fan in fans.items():
            assert wreath_order_check(fan), name

    def test_random_conjugates(self, fans):
        rng = random.Random(99)
        for name in ("P1xP1", "P1xP2"):
            u = random_unimodular(rng, fans[name].rank)
            assert wreath_order_check(transform_fan(fans[name], u))

    def test_random_rank2_fans(self):
        rng = random.Random(3)
        for _ in range(5):
            assert wreath_order_check(random_complete_fan_rank2(rng))
