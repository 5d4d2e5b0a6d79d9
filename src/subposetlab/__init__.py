"""Subset families in the boolean lattice: chain statistics, forbidden
subposets, partite representations, and the exact small-case solvers that
go with them."""

from .budget import Budget, BudgetExceeded
from .extremal import (
    enumerate_copies,
    la_exact,
    la_lower_bound,
    lambda_exact,
)
from .hypergraphs import (
    ColoredFamily,
    Hypergraph,
    Partition,
    contains_complete_kpartite,
    cover_multiplicity,
    crossing_probability,
    is_k_partite,
    partition_threshold,
    random_balanced_partition,
    turan_delta,
    turan_oracle,
)
from .instrumentation import (
    ChainCoverViolation,
    ConfigurationTuranViolation,
    KConfiguration,
    chain_cover_check,
    chain_pair_stats,
    configuration_hypergraph,
    configuration_identity,
    configuration_turan_check,
    down_degree_identity,
    enumerate_k_configurations,
)
from .jsonio import (
    certificate_to_json,
    decode_int,
    decomposition_text,
    dumps,
    encode_fraction,
    encode_int,
    family_from_json,
    family_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    partition_to_json,
    poset_from_json,
    poset_to_json,
    representation_from_json,
    representation_to_json,
)
from .lattice import (
    SubsetFamily,
    band_peak_level,
    canonical_sort_key,
    convexity_gap,
    elements_of_mask,
    expected_chain_hits,
    falling_binomial,
    full_symmetric_chains,
    lubell_value,
    mask_from_elements,
    middle_levels,
    sigma,
    symmetric_chain_decomposition,
    tail_mass,
)
from .posets import (
    antichain,
    butterfly,
    chain,
    complete_two_level,
    contains_weak,
    crown,
    diamond,
    e_level,
    family_as_poset,
    find_embedding,
    fork,
    from_cover_relations,
    harp,
    height,
    is_weak_embedding,
    iter_embeddings,
    make_poset,
)
from .representations import (
    KPartiteRepresentation,
    RepresentationCertificate,
    VerificationFailure,
    partite_graph,
    rep_crown14,
    rep_even_cycle,
    rep_tight_cycle,
    search_representation,
    verify_representation,
)

__version__ = "0.1.0"
