"""Automorphism groups of complete toric varieties from their fans.

Computes, from the combinatorial data of a complete rational polyhedral
fan: the Demazure roots and their classification, the dimension of the
neutral component of the automorphism group, the finite group of fan
automorphisms, and the product/wreath decomposition of the automorphism
group over the fan's indecomposable factors.
"""

from .fan import (
    Cone,
    Fan,
    FanValidationError,
    IncompleteFanError,
    NotStrictlyConvexError,
    ValidationReport,
    cone_from_rays,
    is_complete,
    is_simplicial,
    is_smooth,
    product_fan,
    transform_fan,
    validate_fan,
)
from .lattice import (
    hermite_normal_form,
    is_unimodular,
    pairing,
    primitive,
)
from .roots import (
    DemazureRoot,
    RootPolytope,
    classify_roots,
    demazure_roots,
    product_roots,
)
from .structure import (
    AutStructureReport,
    Decomposition,
    FanIsomorphism,
    aut_structure_report,
    decompose,
    fan_automorphisms,
    fan_isomorphism,
    reconstruct,
    wreath_order_check,
)
from .symbolic import (
    ClassificationResult,
    GradedLaurentPoly,
    HomogeneousDerivation,
    LocalizationRequiredError,
    RegularityCertificate,
    WitnessMonomial,
    action_additivity_check,
    comorphism_apply,
    derivation_apply,
    derivation_classification_check,
    faithfulness_check,
    infinitesimal_check,
    lie_dimension,
    regularity_check,
)

__version__ = "0.1.0"

__all__ = [
    "AutStructureReport",
    "ClassificationResult",
    "Cone",
    "Decomposition",
    "DemazureRoot",
    "Fan",
    "FanIsomorphism",
    "FanValidationError",
    "GradedLaurentPoly",
    "HomogeneousDerivation",
    "IncompleteFanError",
    "LocalizationRequiredError",
    "NotStrictlyConvexError",
    "RegularityCertificate",
    "RootPolytope",
    "ValidationReport",
    "WitnessMonomial",
    "action_additivity_check",
    "aut_structure_report",
    "classify_roots",
    "comorphism_apply",
    "cone_from_rays",
    "decompose",
    "demazure_roots",
    "derivation_apply",
    "derivation_classification_check",
    "fan_automorphisms",
    "fan_isomorphism",
    "faithfulness_check",
    "hermite_normal_form",
    "infinitesimal_check",
    "is_complete",
    "is_simplicial",
    "is_smooth",
    "is_unimodular",
    "lie_dimension",
    "pairing",
    "primitive",
    "product_fan",
    "product_roots",
    "reconstruct",
    "regularity_check",
    "wreath_order_check",
    "transform_fan",
    "validate_fan",
]
