"""Linear codes over Z/p^s Z under the Lee metric.

Structural parameters, the known Singleton- and Plotkin-like distance
bounds, shortest Lee-equidistant constructions, and exhaustive censuses of
small parameter spaces, all in exact integer/rational arithmetic.
"""

from .bounds import CodeParams, attainment_check, coefficient_A, evaluate_bounds
from .codes import (BudgetError, LinearCode, TrivialCodeError,
                    format_code_text, parse_code_text)
from .constructions import (EquidistantSpec, catalog_mld, equidistant_rank1,
                            equidistant_rank2, predict_generator_subtypes,
                            predict_support_subtype)
from .ring import (Modulus, RingVector, ambient_average_weight, gray_map,
                   hamming_weight_vec, ideal_total_weight, lee_weight_elem,
                   lee_weight_vec)
from .search import (CensusResult, SearchSpace, check_characterization,
                     enumerate_codes, find_attaining_codes,
                     max_lee_distance_census, signed_perm_equivalent,
                     verify_mds_socle)

__all__ = [
    "Modulus", "RingVector", "lee_weight_elem", "lee_weight_vec",
    "hamming_weight_vec", "ideal_total_weight", "ambient_average_weight",
    "gray_map", "LinearCode", "BudgetError", "TrivialCodeError",
    "parse_code_text", "format_code_text", "CodeParams", "coefficient_A",
    "evaluate_bounds", "attainment_check", "EquidistantSpec",
    "equidistant_rank1", "equidistant_rank2", "predict_support_subtype",
    "predict_generator_subtypes", "catalog_mld", "SearchSpace", "CensusResult",
    "enumerate_codes", "max_lee_distance_census", "find_attaining_codes",
    "verify_mds_socle", "check_characterization", "signed_perm_equivalent",
]

__version__ = "0.1.0"
