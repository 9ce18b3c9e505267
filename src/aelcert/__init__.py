"""
aelcert: expander-based distance amplification with exact, desk-scale
certification of average-radius list decodability.

The package builds codes from three components (a bipartite expander, an
inner code verified by brute-force oracles, and a Reed-Solomon outer code
with Gao's unique decoder), composes them via edge routing and
right-vertex folding, and certifies the resulting codes' combinatorial
properties with exact rational arithmetic.
"""

from .ael import AELCode, pair_counting_check, verify_distance_amplification
from .arld import plurality_center
from .codes import ERASED, ErasedWord, LinearCode, dist_with_erasures, hamming_distance
from .gf import Field, make_field, multiplicative_generator
from .graphs import (
    BipartiteGraph,
    complete_bipartite,
    eml_failures,
    random_regular_bipartite,
    second_singular_value,
    verify_eml,
    verify_eml_sets,
)
from .inner import (
    ARLDCertificate,
    BlockCode,
    FoldedRSCode,
    exhaustive_arld_check,
    frs_as_linear_code,
    make_folded_rs,
    min_arld_slack,
    sample_random_linear_code,
    search_inner_code,
)
from .listdec import (
    PartitionProfile,
    brute_force_list,
    common_error_fraction,
    partition_profile,
    sampling_bound_check,
    verify_common_error_bound,
    verify_generalized_singleton,
)
from .outer import RSOuterCode, rs_unique_decode
from .rounding import (
    InnerDistributionEnsemble,
    ael_unique_decode,
    decode_from_distributions,
    local_views_to_distributions,
)
from .seeds import derive_seed

__version__ = "0.1.0"

__all__ = [
    "AELCode",
    "ARLDCertificate",
    "BipartiteGraph",
    "BlockCode",
    "ERASED",
    "ErasedWord",
    "Field",
    "FoldedRSCode",
    "InnerDistributionEnsemble",
    "LinearCode",
    "PartitionProfile",
    "RSOuterCode",
    "ael_unique_decode",
    "brute_force_list",
    "common_error_fraction",
    "complete_bipartite",
    "decode_from_distributions",
    "derive_seed",
    "dist_with_erasures",
    "eml_failures",
    "exhaustive_arld_check",
    "frs_as_linear_code",
    "hamming_distance",
    "local_views_to_distributions",
    "make_field",
    "make_folded_rs",
    "min_arld_slack",
    "multiplicative_generator",
    "pair_counting_check",
    "partition_profile",
    "plurality_center",
    "random_regular_bipartite",
    "rs_unique_decode",
    "sample_random_linear_code",
    "sampling_bound_check",
    "search_inner_code",
    "second_singular_value",
    "verify_common_error_bound",
    "verify_distance_amplification",
    "verify_eml",
    "verify_eml_sets",
    "verify_generalized_singleton",
]
