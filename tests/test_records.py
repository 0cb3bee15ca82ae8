"""The result records of every layer: immutable named tuples, equal,
hashed and printed by their fields, except that a FanDocument compares
and hashes without its parse warnings.  A cone's (R, d) is kept by its fan
(Fan.cone_basis), which builds a walked cone's R only for a reader, once."""

import pytest

from toricaut.cli import FanDocument, parse_fan
from toricaut.fan import (
    Cone,
    Fan,
    ValidationEntry,
    ValidationReport,
    cone_from_rays,
    is_smooth,
    product_fan,
)
from toricaut.lattice import scaled_inverse
from toricaut.roots import DemazureRoot, RootPolytope, demazure_roots
from toricaut.structure import (
    AutStructureReport,
    BipartitionFailure,
    Decomposition,
    DecompositionFactor,
    FactorClass,
    FanIsomorphism,
    aut_structure_report,
    decompose,
    fan_isomorphism,
)
from toricaut.symbolic import (
    ActionChartCertificate,
    ClassificationResult,
    ConeChartCertificate,
    HomogeneousDerivation,
    RegularityCertificate,
    WitnessMonomial,
    action_chart_check,
    derivation_classification_check,
    faithfulness_check,
    regularity_check,
)

from util import DualCone, dual_cone

FIELDS = {
    FanDocument: ("rank", "rays", "max_cones", "name", "warnings"),
    Cone: ("rank", "rays", "facet_normals", "dim"),
    DualCone: ("rank", "generators", "lineality"),
    ValidationEntry: ("code", "message"),
    ValidationReport: ("entries",),
    DemazureRoot: ("e", "rho_e"),
    RootPolytope: ("ray_index", "equality", "inequalities"),
    FanIsomorphism: ("matrix", "ray_permutation"),
    BipartitionFailure: ("block_a", "block_b", "failed_criterion"),
    DecompositionFactor: ("fan", "basis", "certified_indecomposable", "certificate"),
    Decomposition: ("factors",),
    FactorClass: ("label", "representative", "multiplicity", "member_indices",
                  "root_count", "dim_aut0", "fan_automorphism_order"),
    AutStructureReport: ("torus_rank", "roots", "root_count", "dim_aut0",
                         "fan_automorphism_order", "fan_automorphism_generators",
                         "factor_classes", "structure_string"),
    HomogeneousDerivation: ("p", "e"),
    ActionChartCertificate: ("root", "degrees", "additive", "infinitesimal"),
    ConeChartCertificate: ("cone", "contains_distinguished_ray", "ray_inequalities_ok",
                           "sigma_prime", "sigma_prime_in_fan", "samples_checked"),
    RegularityCertificate: ("root", "entries"),
    WitnessMonomial: ("m0", "cone", "witness_s_exp", "witness_character"),
    ClassificationResult: ("p", "e", "preserved", "reason", "root", "sampler_preserved",
                           "sampler_witness"),
}


def instances(fans):
    """One record of each type, from the operations that return them."""
    p2, f1 = fans["P2"], fans["F1"]
    root = demazure_roots(p2)[0]
    regularity = regularity_check(p2, root)
    report = aut_structure_report(fans["P1xP1"])
    return [
        parse_fan('{"rank": 1, "rays": [[2], [-1]], "max_cones": [[0], [1]]}'),
        p2.cone((0, 1)),
        dual_cone(p2.cone((0,))),
        ValidationEntry("zero_ray", "ray 0 is the zero vector"),
        p2.validation,
        root,
        RootPolytope.for_ray(p2, 0),
        fan_isomorphism(p2, p2),
        BipartitionFailure((0, 1), (2, 3), "cone_split"),
        decompose(fans["P1xP1"]).factors[0],
        decompose(f1),
        report.factor_classes[0],
        report,
        HomogeneousDerivation(p=(1, 0), e=root.e),
        action_chart_check(p2, root),
        regularity.entries[0],
        regularity,
        faithfulness_check(p2, root),
        derivation_classification_check(p2, (1, 0), (-1, 0)),
    ]


def test_every_record_type_is_covered(fans):
    assert [type(x) for x in instances(fans)] == list(FIELDS)


def test_fields_are_read_only(fans):
    for record in instances(fans):
        for name in FIELDS[type(record)]:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            assert getattr(record, name) is value


def test_equal_to_a_copy_and_hashed_by_fields(fans):
    for record in instances(fans):
        names = FIELDS[type(record)]
        values = {name: getattr(record, name) for name in names}
        copy = type(record)(**values)
        assert copy == record and not copy != record and hash(copy) == hash(record)
        if type(record) is not FanDocument:
            assert hash(record) == hash(tuple(values.values()))


def test_cone_ignores_its_elimination():
    # the cone is its four fields; its fan keeps the elimination
    cone = cone_from_rays([(1, 0), (1, 2)], 2)
    bare = Cone(rank=cone.rank, rays=cone.rays, facet_normals=cone.facet_normals, dim=cone.dim)
    assert cone == bare and not cone != bare and hash(cone) == hash(bare)
    assert hash(cone) == hash((cone.rank, cone.rays, cone.facet_normals, cone.dim))
    other = Cone(rank=2, rays=cone.rays, facet_normals=cone.facet_normals, dim=1)
    assert cone != other and not cone == other
    fan = Fan(2, cone.rays, [(0, 1)])
    assert fan.cone((0, 1)) == cone and fan.cone_basis((0, 1)) == ((0, 1), ((2, 0), (-1, 1)), 2)


def test_document_ignores_its_warnings():
    text = '{"rank": 1, "rays": [[%d], [-1]], "max_cones": [[0], [1]], "name": "P1"}'
    warned, clean = parse_fan(text % 3), parse_fan(text % 1)
    assert warned.warnings and not clean.warnings
    assert warned == clean and not warned != clean and hash(warned) == hash(clean)
    assert hash(clean) == hash((clean.rank, clean.rays, clean.max_cones, clean.name))
    renamed = FanDocument(rank=1, rays=clean.rays, max_cones=clean.max_cones, name="Q")
    assert renamed != clean and not renamed == clean


def test_reprs():
    assert repr(DemazureRoot(e=(1, 0), rho_e=2)) == "DemazureRoot(e=(1, 0), rho_e=2)"
    assert repr(cone_from_rays([(1, 0), (1, 2)], 2)) == (
        "Cone(rank=2, rays=((1, 0), (1, 2)), facet_normals=((0, 1), (2, -1)), dim=2)")
    assert repr(cone_from_rays([(1, 0, 0), (0, 1, 0)], 3)) == (
        "Cone(rank=3, rays=((0, 1, 0), (1, 0, 0)), facet_normals=((0, 0, -1), (0, 0, 1), "
        "(0, 1, 0), (1, 0, 0)), dim=2)")
    assert repr(HomogeneousDerivation(p=(0, 1), e=(1, -1))) == (
        "HomogeneousDerivation(p=(0, 1), e=(1, -1))")


class TestProductConeInverse:
    """The walk across a product's walls keeps each cone's R as the
    columns it updates; Fan.cone_basis transposes them for the first
    reader of a cone, and only for it."""

    @pytest.fixture
    def assembled(self):
        """The number of cones whose (basis, R, d) is built from here on."""
        before = Fan.cone_basis.cache_info().misses
        return lambda: Fan.cone_basis.cache_info().misses - before

    def test_assembled_once_on_read(self, fans, assembled):
        pf = product_fan(fans["P2"], fans["F1"])
        assert pf.validation.ok and assembled() == 0
        # the walk starts from the first cone and builds the others
        c = pf.max_cones[1]
        basis, r, d = pf.cone_basis(c)
        assert pf.cone_basis(c) == (c, r, d) and assembled() == 1
        # d = ±det, R signed like d
        rays = pf.cone(c).rays
        ref, det_a = scaled_inverse(rays)
        sign = d // det_a
        assert (r, d) == (tuple(tuple(sign * x for x in row) for row in ref), sign * det_a)
        # the roots read every cone's basis, each built once
        demazure_roots(pf)
        demazure_roots.__wrapped__(pf)
        assert assembled() == len(pf.max_cones)

    def test_never_assembled_unread(self, fans, assembled):
        # validation, smoothness and equality build no cone's R
        pf = product_fan(fans["P2"], fans["F1"])
        assert pf.validation.ok and is_smooth(pf)
        cones = [pf.cone(c) for c in pf.max_cones]
        assert cones[1] == cone_from_rays(cones[1].rays, pf.rank)
        assert assembled() == 0
