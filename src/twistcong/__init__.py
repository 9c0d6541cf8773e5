"""Exact p-adic congruence checks for twisted elliptic L-value data over
dihedral extensions, with leading-term (BSD-style) mod-squares bookkeeping.

The workflow: load a dataset (curve constants, local data at ramified places,
leading terms with error bounds, height translates), recognize the normalized
leading terms as exact algebraic numbers, and test the group-ring congruences
S(pi) = 0 mod p^n together with their equivalent reformulations.
"""

from .dataset import (Dataset, DatasetError, bundled_dataset_names,
                      load_bundled_dataset, load_dataset, parse_dataset)
from .engine import (CharacterResult, CongruenceLine, RouteDataError,
                     VerificationResult, gz_q_vector, relabel_dataset, verify)
from .exact import (AlgebraicOrbit, AmbiguousRecognitionError, CyclotomicNumber,
                    DecimalWithError, ExactArithmeticError, RecognitionError,
                    rational_reconstruct, recognize_orbit)
from .groups import (Character, DihedralGroup, GroupElement, center_integrality,
                     irreducible_characters, kolyvagin_identity, res_map,
                     zp_P_membership)
from .bsdsquares import (S3Instance, character_bsd_quotients,
                         mod_square_equivalent, plant_violation,
                         random_s3_instance, regulator_normalization,
                         s3_consistency, sha_prediction, sha_predictions)
from .report import render, render_structured, render_text, structured_report

__version__ = "0.1.0"

__all__ = [
    "AlgebraicOrbit", "AmbiguousRecognitionError", "Character", "CharacterResult",
    "CongruenceLine", "CyclotomicNumber", "Dataset", "DatasetError",
    "DecimalWithError", "DihedralGroup", "ExactArithmeticError", "GroupElement",
    "RecognitionError", "RouteDataError", "S3Instance",
    "VerificationResult", "bundled_dataset_names", "center_integrality",
    "character_bsd_quotients", "gz_q_vector", "irreducible_characters",
    "kolyvagin_identity", "load_bundled_dataset", "load_dataset",
    "mod_square_equivalent", "parse_dataset", "plant_violation",
    "random_s3_instance", "rational_reconstruct", "recognize_orbit",
    "regulator_normalization", "relabel_dataset", "render",
    "render_structured", "render_text", "res_map", "s3_consistency",
    "sha_prediction", "sha_predictions", "structured_report", "verify",
    "zp_P_membership",
]
