import pathlib
import random
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, strategies as st

from toricaut.cli import fan_from_document, parse_fan
from toricaut.fan import Fan, product_fan, transform_fan
from toricaut.lattice import (
    invert_unimodular,
    mat_mul,
    pairing,
    primitive,
    transpose,
    vec_add,
    vec_mat,
    vec_neg,
)
from toricaut.lattice import det
from toricaut.roots import DemazureRoot, demazure_roots
from toricaut.symbolic import (
    _parallelepiped_points,
    GradedLaurentPoly,
    HomogeneousDerivation,
    LocalizationRequiredError,
    action_additivity_check,
    action_chart_check,
    comorphism_apply,
    derivation_apply,
    derivation_classification_check,
    dual_monomials,
    faithfulness_check,
    infinitesimal_check,
    lie_dimension,
    ray_degrees,
    ray_witness,
    regularity_check,
    witness_holds,
)

from util import (
    COMPLETE_FIXTURES,
    action_chart_by_scan,
    action_chart_by_vectors,
    action_chart_oracle,
    classification_oracle,
    cube_fan,
    degrees_by_fill,
    dual_samples_by_vectors,
    infinitesimal_by_expansion,
    parallelepiped_points_oracle,
    random_unimodular,
    regularity_by_vectors,
    regularity_oracle,
    sample_rows,
    semigroup_contains,
    weighted_projective_fan,
    witness_by_vectors,
    witness_oracle,
)

SHEAR = mat_mul(mat_mul(((1, 1, 0), (0, 1, 0), (0, 0, 1)),
                        ((1, 0, 0), (0, 1, 1), (0, 0, 1))),
                ((1, 0, 0), (0, 1, 0), (1, 0, 1)))

# unimodular maps with large entries, by rank
LARGE_BASES = {2: ((89, 55), (55, 34)),
               3: mat_mul(SHEAR, SHEAR),
               4: ((21, 13, 0, 0), (13, 8, 0, 0), (0, 0, 21, 13), (0, 0, 13, 8))}


def large_basis_conjugates(fans, ranks):
    """(base, conjugate, cone map, character map) for each corpus fan of the
    given ranks.  The conjugate's rays are the r * U, which Fan re-indexes;
    the character m of the base pairs with r as U^(-T) m pairs with r * U."""
    for base in fans.values():
        if base.rank in ranks:
            u = LARGE_BASES[base.rank]
            fan = transform_fan(base, u)
            index = [fan.rays.index(vec_mat(r, u)) for r in base.rays]
            dual = transpose(invert_unimodular(u))
            yield (base, fan, lambda c, index=index: tuple(sorted(index[i] for i in c)),
                   lambda m, dual=dual: vec_mat(m, dual))


# complete fan whose maximal cones have determinant 2 or 4; for p = (1, 0)
# and e = (-2, 0), not a root, the only witnesses m that the classification
# sampler can find are parallelepiped points such as (1, 1) in the chart of
# (1, 0) and (-1, 2), which is no sum of that chart's facet normals
NON_SMOOTH = Fan(2, [(1, 0), (-1, 2), (-1, -2)], [(0, 1), (1, 2), (0, 2)])


def chi(m, coeff=1, s_exp=0):
    return GradedLaurentPoly.chi(m, coeff=coeff, s_exp=s_exp)


def find_root(fan, e):
    return next(r for r in demazure_roots(fan) if r.e == tuple(e))


def poly_strategy(rank=2, size=4):
    term = st.tuples(
        st.tuples(st.integers(0, 3),
                  st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).map(tuple)),
        st.integers(-5, 5))
    return st.lists(term, max_size=size).map(GradedLaurentPoly)


class TestAlgebraLaws:
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_strategy())
    def test_one_is_identity(self, a):
        one = GradedLaurentPoly.one(2)
        assert one * a == a

    def test_character_multiplication(self):
        assert chi((1, 2)) * chi((3, -1)) == chi((4, 1))
        assert chi((1, 0), s_exp=1) * chi((0, 1), s_exp=2) == chi((1, 1), s_exp=3)

    def test_zero_normalization(self):
        assert not (chi((1, 0)) - chi((1, 0)))


class TestComorphism:
    def test_p2_example(self, fans):
        root = find_root(fans["P2"], (-1, 0))
        assert fans["P2"].rays[root.rho_e] == (1, 0)
        out = comorphism_apply(fans["P2"], root, (1, 0))
        assert out == chi((1, 0)) + chi((0, 0), s_exp=1)

    def test_zero_pairing_unchanged(self, fans):
        root = find_root(fans["P2"], (-1, 0))
        assert comorphism_apply(fans["P2"], root, (0, 1)) == chi((0, 1))

    def test_p1_binomial(self, fans):
        root = find_root(fans["P1"], (-1,))
        out = comorphism_apply(fans["P1"], root, (2,))
        assert out == chi((2,)) + chi((1,), coeff=2, s_exp=1) + chi((0,), s_exp=2)

    def test_negative_pairing_refused(self, fans):
        root = find_root(fans["P1"], (-1,))
        with pytest.raises(LocalizationRequiredError, match="localization"):
            comorphism_apply(fans["P1"], root, (-1,))

    def test_preserves_cone_algebras(self, fans):
        # every monomial of the image stays in the chart's dual cone
        for name in ("P1", "P2", "F1", "F2", "P112"):
            fan = fans[name]
            for root in demazure_roots(fan):
                for cidx in fan.max_cones:
                    if root.rho_e not in cidx:
                        continue
                    for m in dual_monomials(fan, cidx, 4):
                        out = comorphism_apply(fan, root, m)
                        for (_, mm) in out.terms:
                            assert all(pairing(fan.rays[i], mm) >= 0 for i in cidx)


class TestRegularity:
    def test_p2_sigma_prime_example(self, fans):
        fan = fans["P2"]
        cert = regularity_check(fan, find_root(fan, (-1, 0)))
        assert cert.ok
        chart = next(e for e in cert.entries if not e.contains_distinguished_ray)
        assert {fan.rays[i] for i in chart.sigma_prime} == {(1, 0), (0, 1)}
        # the closed form checks no sample
        assert chart.sigma_prime_in_fan and chart.ok and chart.samples_checked == 0

    def test_p1_both_roots(self, fans):
        for root in demazure_roots(fans["P1"]):
            cert = regularity_check(fans["P1"], root)
            assert cert.ok
            assert all(e.contains_distinguished_ray or e.sigma_prime_in_fan
                       for e in cert.entries)

    def test_product_roots_certify_conewise(self, fans):
        fan = fans["P1xP2"]
        for root in demazure_roots(fan):
            assert regularity_check(fan, root).ok

    def test_all_corpus(self, fans):
        for fan in fans.values():
            for root in demazure_roots(fan):
                assert regularity_check(fan, root).ok

    def test_checked_sets_generate_the_dual_semigroups(self, fans):
        # the height-1 samples of each sigma' keep their number in a large
        # basis
        count = 0
        sigma_primes = set()
        for base, fan, cone_map, char_map in large_basis_conjugates(fans, (2, 3)):
            roots = {root.e: root for root in demazure_roots(fan)}
            for root in demazure_roots(base):
                cert = regularity_check(fan, roots[char_map(root.e)])
                assert cert.ok
                samples = {entry.cone: entry for entry in cert.entries}
                for entry in regularity_check(base, root).entries:
                    image = samples[cone_map(entry.cone)]
                    if not entry.contains_distinguished_ray:
                        assert len(dual_monomials(fan, image.sigma_prime, 1)) == len(
                            dual_monomials(base, entry.sigma_prime, 1))
                        sigma_primes |= {(base, entry.sigma_prime), (fan, image.sigma_prime)}
                count += 1
        assert count == 60
        # P112's ray (-1, -2) lies in maximal cones of |det| 1 and 2; the
        # small fans include seeded conjugates of P112, with face maps
        rng = random.Random(112)
        conjugates = []
        for _ in range(4):
            u = random_unimodular(rng, 2, steps=20)
            fan = transform_fan(fans["P112"], u)
            conjugates.append((fan, [fan.rays.index(vec_mat(r, u)) for r in fans["P112"].rays]))
        # the height-1 samples of each such sigma', and of every cone of the
        # small fans, lie in the cone's dual and generate it: every dual
        # point with entries in -2..2 is a non-negative integer combination
        small = [f for f in fans.values() if f.rank <= 3] + [NON_SMOOTH]
        small += [fan for fan, _ in conjugates]
        cones = sigma_primes | {(fan, c) for fan in small for c in fan.all_cones if c}
        points, dims, sizes = 0, set(), {}
        for fan, cone in cones:
            gens = dual_monomials(fan, cone, 1)
            sizes[fan, cone] = len(gens)
            rays = [fan.rays[i] for i in cone]
            assert all(pairing(r, g) >= 0 for r in rays for g in gens)
            dims.add(len(cone))
            for m in iproduct(range(-2, 3), repeat=fan.rank):
                if all(pairing(r, m) >= 0 for r in rays):
                    assert semigroup_contains(gens, rays, m), (fan, cone, m)
                    points += 1
        # non-pointed duals (cones of dimension 1 and 2) and pointed ones
        assert dims == {1, 2, 3} and (len(sigma_primes), len(cones), points) == (86, 179, 3961)
        # each face of P112 has as many samples as its image in a conjugate
        for fan, index in conjugates:
            for cone in fans["P112"].all_cones:
                if cone:
                    image = tuple(sorted(index[i] for i in cone))
                    assert sizes[fan, image] == sizes[fans["P112"], cone], (fan.rays, cone)

    def test_height_4_oracle_on_non_roots(self, fans):
        # a non-root (e, ray) pair gets the same chart verdicts from the
        # closed form as from shifting every character of sigma'^v with
        # entries in -4..4
        checked = failed_charts = 0
        for fan in [f for f in fans.values() if f.rank <= 3] + [NON_SMOOTH]:
            roots = set(demazure_roots(fan))
            for e in iproduct(range(-2, 3), repeat=fan.rank):
                for j in range(len(fan.rays)):
                    root = DemazureRoot(e=e, rho_e=j)
                    if root in roots:
                        continue
                    cert = regularity_check(fan, root)
                    charts = tuple(entry.ok for entry in cert.entries)
                    assert (cert.ok, charts) == regularity_oracle(fan, root), (fan, root)
                    failed_charts += charts.count(False)
                    checked += 1
        assert checked == 2548 and failed_charts > 0


class TestDualMonomials:
    def test_parallelepiped_point(self, fans):
        # the chart of P112 spanned by (-1, -2) and (1, 0) has facet normals
        # (0, -1) and (2, -1) of determinant 2; (1, -1) lies in the dual but
        # is no sum of them, so it is sampled as a parallelepiped point
        fan = fans["P112"]
        cone = tuple(sorted(fan.rays.index(r) for r in ((-1, -2), (1, 0))))
        assert dual_monomials(fan, cone, 1) == (
            (0, -1), (0, 0), (1, -2), (1, -1), (2, -2), (2, -1), (3, -3), (3, -2))

    def test_parallelepiped_points_oracle(self):
        rng = random.Random(2023)
        signs = set()
        for _ in range(60):
            d = rng.choice((2, 3))
            gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + rng.randint(0, 1))]
            dets = [det(b) for b in combinations(gens, d)]
            if not any(dets) or max(abs(x) for x in dets) > 12:
                continue
            signs |= {(x > 0) - (x < 0) for x in dets if abs(x) > 1}
            assert _parallelepiped_points(gens, d) == parallelepiped_points_oracle(gens, d), gens
        assert signs == {1, -1}

    def test_lower_dimensional_cone(self, fans):
        # the dual of a ray is a half-plane: a generator pairing to 1 with the
        # ray plus the multiples of the ray's annihilator
        fan = fans["P112"]
        samples = dual_monomials(fan, (fan.rays.index((-1, -2)),), 2)
        assert len(samples) == 3 * 5
        assert (2, -1) in samples and (-2, 1) in samples
        assert {pairing((-1, -2), m) for m in samples} == {0, 1, 2}

    def test_every_small_dual_point_is_sampled(self, fans):
        count = 0
        for fan in [f for f in fans.values() if f.rank <= 3] + [NON_SMOOTH]:
            for cone in fan.all_cones:
                if not cone:
                    continue
                samples = set(dual_monomials(fan, cone, 8))
                for m in iproduct(range(-2, 3), repeat=fan.rank):
                    if all(pairing(fan.rays[i], m) >= 0 for i in cone):
                        assert m in samples, (fan, cone, m)
                        count += 1
        assert count > 1000

    def test_matches_the_vector_form(self, fans):
        # a face's samples are its maximal cone's with -u added row by row;
        # the same set as adding every generator to the parallelepiped
        # points at once
        count = 0
        for fan in [f for f in fans.values() if f.rank <= 3] + [NON_SMOOTH]:
            for cone in fan.all_cones:
                if cone:
                    for height in (1, 2):
                        assert dual_monomials(fan, cone, height) == dual_samples_by_vectors(
                            fan, cone, height), (fan, cone, height)
                        count += 1
        assert count == 240

    def test_equivariant_under_large_bases(self, fans):
        count = 0
        for base, fan, cone_map, char_map in large_basis_conjugates(fans, (2, 3)):
            for cone in base.max_cones:
                for height in (2, 4):
                    image = sorted(char_map(m) for m in dual_monomials(base, cone, height))
                    assert list(dual_monomials(fan, cone_map(cone), height)) == image
                    count += 1
        assert count == 88


FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def oracle_fans(fans):
    """The corpus, the complete simplicial fixtures, NON_SMOOTH and seeded
    conjugates of the rank-2 and rank-3 corpus fans."""
    out = list(fans.values()) + [NON_SMOOTH]
    out += [fan_from_document(parse_fan((FIXTURES / f"{name}.fan").read_text()))
            for name in ("F3_conjugate", "F3_F20", "P112_F9", "Bl24P3", "P2xP2xP1_u")]
    rng = random.Random(22)
    for name in ("P2", "F1", "F3", "P112", "P3", "P1xP2"):
        base = fans[name]
        out.append(transform_fan(base, random_unimodular(rng, base.rank, steps=12)))
    return out


def negative_controls(fan, roots):
    """(e + s*u, ray) for each root (e, ray), sign s and unit vector u, when
    e + s*u is the character of no root."""
    characters = {r.e for r in roots}
    out = set()
    for root in roots:
        for k, s in iproduct(range(fan.rank), (1, -1)):
            e = tuple(x + s * (i == k) for i, x in enumerate(root.e))
            if e not in characters:
                out.add(DemazureRoot(e=e, rho_e=root.rho_e))
    return sorted(out, key=DemazureRoot.sort_key)


class TestPairingRows:
    """The certificates read off integer pairing rows and the witness and
    degrees kept for each ray agree with the same certificates evaluated
    on vectors (tests/util.py): every regularity entry and chart verdict,
    the sample test the closed form replaced, the chart verdicts and
    degrees of the action, and every witness, on roots and on non-roots,
    whose verdicts fail."""

    def test_matches_the_vector_form(self, fans):
        checked, controlled, verdicts = 0, 0, {}
        for fan in oracle_fans(fans):
            roots = demazure_roots(fan)
            controls = negative_controls(fan, roots)
            for root in list(roots) + controls:
                regularity = regularity_check(fan, root)
                charts = tuple(entry.ok for entry in regularity.entries)
                assert (regularity, charts) == regularity_by_vectors(fan, root), (fan, root)
                chart = action_chart_check(fan, root)
                assert chart == action_chart_by_vectors(fan, root, fan.max_cones), (fan, root)
                witness = faithfulness_check(fan, root)
                holds = witness_holds(fan, root, witness)
                assert (witness, holds) == witness_by_vectors(fan, root), (fan, root)
                if root in controls:
                    for name, ok in (("regularity", regularity.ok), ("additive", chart.additive),
                                     ("infinitesimal", chart.infinitesimal),
                                     ("faithfulness", holds)):
                        verdicts.setdefault(name, set()).add(ok)
                checked += 1
            controlled += len(controls)
        assert (checked - controlled, controlled) == (147, 671)
        assert all(seen == {True, False} for seen in verdicts.values()), verdicts

    def test_degrees_match_the_height_2_fill(self, fans):
        # the closed-form degrees of every ray against the degrees of the
        # height-2 samples of its charts, with one character of each degree;
        # cube5 is the non-simplicial case, and the P(q) have charts of
        # multiplicity up to 11; the complete fixtures are listed, so a new
        # fixture moves no count
        fixtures = [fan_from_document(parse_fan((FIXTURES / f"{name}.fan").read_text()))
                    for name in COMPLETE_FIXTURES]
        weighted = [weighted_projective_fan(q) for q in (
            (1, 1, 2), (1, 2, 3), (1, 1, 2, 2, 3), (1, 2, 3, 4, 5), (2, 3, 5, 7, 11))]
        rng = random.Random(26)
        conjugates = [transform_fan(fan, random_unimodular(rng, fan.rank, steps=12))
                      for fan in (fans["P112"], fans["F3"], weighted[2])]
        rays, non_simplicial = 0, 0
        for fan in list(fans.values()) + fixtures + weighted + conjugates:
            for j, rho in enumerate(fan.rays):
                degrees = ray_degrees(fan, j)
                assert [k for k, _ in degrees] == degrees_by_fill(fan, j), (fan, j)
                m0 = ray_witness(fan, j)[0]
                assert all(m == tuple(k * x for x in m0) and pairing(rho, m) == k
                           for k, m in degrees), (fan, j)
                rays += 1
            non_simplicial += any(len(c) > fan.rank for c in fan.max_cones)
        assert (rays, non_simplicial) == (180, 1)


class TestAdditivity:
    def test_p1_degree_one(self, fans):
        assert action_additivity_check(fans["P1"], find_root(fans["P1"], (-1,)), (1,))

    def test_pairing_zero_trivial(self, fans):
        root = find_root(fans["P2"], (-1, 0))
        assert action_additivity_check(fans["P2"], root, (0, 1))

    def test_p1_degree_three(self, fans):
        assert action_additivity_check(fans["P1"], find_root(fans["P1"], (-1,)), (3,))

    def test_height2_sample_all_roots(self, fans):
        for name in ("P1", "P2", "F1", "F3", "P112", "P1xP1"):
            fan = fans[name]
            for root in demazure_roots(fan):
                rho = fan.rays[root.rho_e]
                for m in iproduct(*(range(-2, 3) for _ in range(fan.rank))):
                    if pairing(rho, m) >= 0:
                        assert action_additivity_check(fan, root, m)


class TestFaithfulness:
    def test_p1(self, fans):
        root = find_root(fans["P1"], (-1,))
        w = faithfulness_check(fans["P1"], root)
        assert w.m0 == (1,) and w.witness_character == (0,) and w.witness_s_exp == 1

    def test_p2(self, fans):
        w = faithfulness_check(fans["P2"], find_root(fans["P2"], (-1, 0)))
        assert w.m0 == (1, 0) and w.witness_character == (0, 0)

    def test_p112_nontrivial_ray(self, fans):
        fan = fans["P112"]
        root = next(r for r in demazure_roots(fan) if fan.rays[r.rho_e] == (-1, -2))
        w = faithfulness_check(fan, root)
        assert pairing((-1, -2), w.m0) == 1
        assert all(pairing(fan.rays[i], w.m0) >= 0 for i in w.cone)

    def test_exists_for_every_corpus_root(self, fans):
        for fan in fans.values():
            for root in demazure_roots(fan):
                w = faithfulness_check(fan, root)
                assert pairing(fan.rays[root.rho_e], w.m0) == 1
                assert w.witness_character == vec_add(w.m0, root.e)

    def test_matches_reference_search(self, fans):
        count = 0
        for fan in fans.values():
            for root in demazure_roots(fan):
                w = faithfulness_check(fan, root)
                assert (w.m0, w.cone) == witness_oracle(fan, root)
                count += 1
        assert count == 74

    def test_large_basis_conjugates(self, fans):
        count = 0
        for _, fan, _, _ in large_basis_conjugates(fans, (2, 3, 4)):
            for root in demazure_roots(fan):
                w = faithfulness_check(fan, root)
                assert w.cone in fan.max_cones and root.rho_e in w.cone
                assert pairing(fan.rays[root.rho_e], w.m0) == 1
                assert all(pairing(fan.rays[i], w.m0) >= 0 for i in w.cone)
                assert witness_holds(fan, root, w)
                count += 1
        assert count == 72

    def test_non_root_fails(self, fans):
        # on P2, e = (-1, -1) pairs to -1 with both (1, 0) and (0, 1): the
        # witness chi^(1, 0) of ray (1, 0) would move to chi^(0, -1), which
        # leaves the chart of (1, 0) and (0, 1)
        fan = fans["P2"]
        bad = DemazureRoot(e=(-1, -1), rho_e=fan.rays.index((1, 0)))
        w = faithfulness_check(fan, bad)
        assert w.m0 == (1, 0) and not witness_holds(fan, bad, w)
        # every root passes.  A witness speaks for one chart, so a non-root
        # e in -3..3 pairing to -1 with a ray fails when it breaks that
        # chart, and otherwise regularity fails on some other chart
        failed = 0
        for name in ("P2", "F1", "F3", "P112"):
            fan = fans[name]
            roots = set(demazure_roots(fan))
            for e in iproduct(range(-3, 4), repeat=2):
                for j, rho in enumerate(fan.rays):
                    if pairing(rho, e) != -1:
                        continue
                    root = DemazureRoot(e=e, rho_e=j)
                    holds = witness_holds(fan, root, faithfulness_check(fan, root))
                    assert holds == (root in roots) or not regularity_check(fan, root).ok
                    failed += not holds
        assert failed == 35


class TestDerivation:
    def test_basic(self):
        d = HomogeneousDerivation(p=(1, 0), e=(-1, 0))
        assert derivation_apply(d, chi((2, 3))) == chi((1, 3), coeff=2)

    def test_kernel_monomial(self):
        d = HomogeneousDerivation(p=(1, 0), e=(5, 5))
        assert not derivation_apply(d, chi((0, 7)))

    def test_leibniz(self):
        d = HomogeneousDerivation(p=(1, 0), e=(-1, 0))
        a, b = chi((1, 0)), chi((0, 1))
        assert derivation_apply(d, a * b) == derivation_apply(d, a) * b + a * derivation_apply(d, b)

    @given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
           st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    def test_leibniz_randomized(self, a, b):
        d = HomogeneousDerivation(p=(2, 1), e=(1, -1))
        ca, cb = chi(a), chi(b)
        assert derivation_apply(d, ca * cb) == (
            derivation_apply(d, ca) * cb + ca * derivation_apply(d, cb))

    def test_imprimitive_direction_rejected(self):
        with pytest.raises(ValueError):
            HomogeneousDerivation(p=(2, 0), e=(0, 0))

    def test_replace_checks_the_direction(self):
        d = HomogeneousDerivation(p=(1, 0), e=(0, 1))
        assert d._replace(p=(3, 2)) == HomogeneousDerivation(p=(3, 2), e=(0, 1))
        assert type(d._replace(e=(1, 1))) is HomogeneousDerivation
        with pytest.raises(ValueError):
            d._replace(p=(2, 0))


class TestInfinitesimal:
    def test_p1(self, fans):
        root = find_root(fans["P1"], (-1,))
        assert infinitesimal_check(fans["P1"], root, (2,))
        assert infinitesimal_check(fans["P1"], root, (0,))

    def test_p2_example(self, fans):
        root = find_root(fans["P2"], (-1, 1))
        assert fans["P2"].rays[root.rho_e] == (1, 0)
        assert infinitesimal_check(fans["P2"], root, (1, 1))

    def test_height2_sample(self, fans):
        for name in ("P1", "P2", "F1", "P112"):
            fan = fans[name]
            for root in demazure_roots(fan):
                rho = fan.rays[root.rho_e]
                for m in iproduct(*(range(-2, 3) for _ in range(fan.rank))):
                    if pairing(rho, m) >= 0:
                        assert infinitesimal_check(fan, root, m)

    def test_matches_the_full_expansion(self, fans):
        # the s-linear term alone against the whole expanded comorphism, on
        # every (root, degree) that check reads, on the non-roots of
        # TestPairingRows, and on characters of negative degree, which
        # both refuse
        checked, refused = 0, 0
        rng = random.Random(23)
        for fan in oracle_fans(fans):
            roots = demazure_roots(fan)
            for root in list(roots) + negative_controls(fan, roots):
                for _, m in ray_degrees(fan, root.rho_e):
                    assert infinitesimal_check(fan, root, m) == infinitesimal_by_expansion(
                        fan, root, m), (fan, root, m)
                    checked += 1
                m = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
                if pairing(fan.rays[root.rho_e], m) < 0:
                    for check in (infinitesimal_check, infinitesimal_by_expansion):
                        with pytest.raises(LocalizationRequiredError):
                            check(fan, root, m)
                    refused += 1
        assert (checked, refused) == (2550, 364)


class TestActionChartCheck:
    """The chart conditions of the action law and the derivation, which
    are the root's ray inequalities on the charts through rho_e, and the
    one height-2 sample per degree on which the binomial identities run."""

    def test_roots_pass_with_one_character_per_degree(self, fans):
        # each degree of the height-2 samples of the charts through rho_e,
        # with the multiple k*m0 of the ray's witness
        for fan in list(fans.values()) + [NON_SMOOTH]:
            for root in demazure_roots(fan):
                cert = action_chart_check(fan, root)
                assert cert.additive and cert.infinitesimal, (fan, root)
                rho = fan.rays[root.rho_e]
                samples = {m for c in fan.max_cones if root.rho_e in c
                           for m in dual_monomials(fan, c, 2)}
                m0 = faithfulness_check(fan, root).m0
                assert cert.degrees == tuple((k, tuple(k * x for x in m0))
                                             for k in sorted({pairing(rho, m) for m in samples}))

    def test_height_4_box_oracle_on_non_roots(self, fans):
        # the non-root (e, ray) pairs of the regularity sweep get the same
        # per-chart verdicts from the height-2 samples as from every dual
        # character with entries in -4..4
        checked, failed = 0, {"additive": 0, "infinitesimal": 0}
        for fan in [f for f in fans.values() if f.rank <= 3] + [NON_SMOOTH]:
            roots = set(demazure_roots(fan))
            for e in iproduct(range(-2, 3), repeat=fan.rank):
                for j in range(len(fan.rays)):
                    root = DemazureRoot(e=e, rho_e=j)
                    if root in roots:
                        continue
                    charts = []
                    for cone in (c for c in fan.max_cones if j in c):
                        cert = action_chart_by_vectors(fan, root, (cone,))
                        charts.append((cert.additive, cert.infinitesimal))
                        assert charts[-1] == action_chart_oracle(fan, root, cone), (fan, root, cone)
                        failed["additive"] += not cert.additive
                        failed["infinitesimal"] += not cert.infinitesimal
                    # the rows give the conjunction over the charts
                    whole = action_chart_check(fan, root)
                    assert (whole.additive, whole.infinitesimal) == tuple(map(all, zip(*charts)))
                    checked += 1
        assert checked == 2548 and min(failed.values()) > 0

    def test_chart_bounds_match_the_row_scan(self, fans):
        # the closed form, c_{rho_e} >= -1 and c_i >= 0 at the other rays of
        # each chart through rho_e, decides what every height-2 sample row
        # decides, on roots and on the non-roots of TestPairingRows, which
        # fail
        checked, verdicts = 0, set()
        for fan in oracle_fans(fans):
            roots = demazure_roots(fan)
            for root in list(roots) + negative_controls(fan, roots):
                cert = action_chart_check(fan, root)
                scan = action_chart_by_scan(fan, root)
                assert (cert.additive, cert.infinitesimal) == scan, (fan, root)
                verdicts.add(scan)
                checked += 1
        assert checked == 818
        # both conditions fail on some non-roots
        assert {(True, True), (False, False)} <= verdicts

    def test_closed_form_on_non_simplicial_charts(self, fans):
        # the facet lemma behind the closed form: for distinct rays rho_i,
        # rho_j of a maximal cone sigma, some facet normal g of sigma, a
        # height-1 sample, has <rho_i, g> = 0 and <rho_j, g> >= 1, and some
        # height-1 sample has <rho_j, m> = 1
        cube5 = fan_from_document(parse_fan((FIXTURES / "cube5.fan").read_text()))
        products = [product_fan(cube_fan(3), fans[name]) for name in ("P1", "P2", "F1")]
        pairs = 0
        for fan in oracle_fans(fans) + [cube5] + products:
            for sigma in fan.max_cones:
                normals = fan.cone(sigma).facet_normals
                rows = sample_rows(fan, sigma, 1)
                assert all(g in rows for g in normals), (fan, sigma)
                for j in sigma:
                    assert any(row[j] == 1 for row in rows.values()), (fan, sigma, j)
                    for i in sigma:
                        if i != j:
                            assert any(rows[g][i] == 0 and rows[g][j] >= 1 for g in normals), (
                                fan, sigma, i, j)
                            pairs += 1
        assert pairs == 4956
        # the closed form agrees with the row scan on the cube products,
        # whose roots have non-simplicial charts (the oracle fans are
        # scanned in test_chart_bounds_match_the_row_scan; cube5 has no root)
        checked, non_simplicial, verdicts = 0, 0, set()
        for fan in products:
            roots = demazure_roots(fan)
            non_simplicial += sum(len(c) > fan.rank for r in roots
                                  for c in fan.max_cones if r.rho_e in c)
            for root in list(roots) + negative_controls(fan, roots):
                cert = action_chart_check(fan, root)
                scan = action_chart_by_scan(fan, root)
                assert (cert.additive, cert.infinitesimal) == scan, (fan, root)
                verdicts.add(scan)
                checked += 1
        assert (checked, non_simplicial) == (114, 132)
        assert verdicts == {(True, True), (False, False)}


class TestClassification:
    def test_p2_root_derivation(self, fans):
        res = derivation_classification_check(fans["P2"], (1, 0), (-1, 0))
        assert res.preserved and res.reason == "root_derivation"
        assert res.agrees_with_sampler

    def test_p2_wrong_direction(self, fans):
        res = derivation_classification_check(fans["P2"], (0, 1), (-1, 0))
        assert not res.preserved and res.sampler_witness is not None
        assert res.agrees_with_sampler

    def test_torus_direction(self, fans):
        res = derivation_classification_check(fans["F2"], (3, 5), (0, 0))
        assert res.preserved and res.reason == "degree_zero_torus_direction"
        assert res.agrees_with_sampler

    def test_agreement_grid(self, fans):
        # the closed form, the height-1 generators and every height-4 sample
        # give the same verdict, FAILs included
        verdicts = []
        for fan in [f for f in fans.values() if f.rank == 2] + [NON_SMOOTH]:
            grid = [v for v in iproduct(range(-2, 3), range(-2, 3))]
            for p in grid:
                if not any(p) or primitive(p) != p:
                    continue
                for e in grid:
                    res = derivation_classification_check(fan, p, e)
                    assert res.agrees_with_sampler, (fan, p, e, res)
                    assert res.sampler_preserved == classification_oracle(fan, p, e), (fan, p, e)
                    verdicts.append(res.sampler_preserved)
        assert len(verdicts) == 3200 and {True, False} <= set(verdicts)

    def test_negated_ray_also_preserves(self, fans):
        fan = fans["P2"]
        root = find_root(fan, (-1, 0))
        rho = fan.rays[root.rho_e]
        res = derivation_classification_check(fan, vec_neg(rho), (-1, 0))
        assert res.preserved and res.agrees_with_sampler


class TestLieDimension:
    def test_values(self, fans):
        assert lie_dimension(fans["P1"]) == 3
        assert lie_dimension(fans["P2"]) == 8
        assert lie_dimension(fans["P3"]) == 15
        assert lie_dimension(fans["P1xP1"]) == 6
        assert lie_dimension(fans["P112"]) == 7

    def test_incomplete_rejected(self):
        from toricaut.fan import IncompleteFanError
        with pytest.raises(IncompleteFanError):
            lie_dimension(Fan(2, [(1, 0), (0, 1)], [(0, 1)]))
