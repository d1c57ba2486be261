"""Parabolic subgroup schemes in small characteristic, made computable.

A scheme is encoded by a Levi subset and an integer height function on the
positive roots off the Levi.  The package provides the exact root-system
layer, the rank-one block catalog with blockwise reconstruction, geometric
invariants (anticanonical character, Fano tests, contractions, fibrations)
and exhaustive desk-scale censuses with independent oracles.
"""

__version__ = "0.1.0"

#: bump when the exotic block tables or catalog semantics change,
#: so golden files can pin a revision
CATALOG_VERSION = 1

from .rootsys import (
    LONG,
    SHORT,
    LeviComponent,
    LongRootSubsystem,
    Root,
    RootSystem,
    RootSystemType,
    VerySpecialDuality,
    build_root_system,
    find_incidence_root,
    levi_components,
    long_root_subsystem,
    root_system,
    very_special_dual,
)
from .chevalley import structure_constant_magnitude, vanishes_mod_p
from .phi import (
    INFINITE,
    BlockKind,
    KernelKind,
    KernelRecord,
    NormalizationResult,
    ParabolicScheme,
    RankOneBlock,
    anchored_candidates,
    block_anchor_height,
    block_phi,
    contains,
    edge_hypothesis,
    enne_check,
    exotic_h_block,
    exotic_l_block,
    frobenius_pullback,
    full_group_scheme,
    generated_block,
    intersect,
    intersect_all,
    is_normalized,
    is_valid,
    normalize,
    reconstruct,
    reduced_scheme,
    standard_block,
    very_special_block,
    vsi_pullback,
    vsi_pushforward,
)
from .geometry import (
    Character,
    FiberFactor,
    FibrationStep,
    NotFanoCertificate,
    SmoothPart,
    anticanonical_character,
    character_pairing,
    dimension,
    fibration_sequence,
    incidence_threshold,
    is_ample,
    is_fano,
    not_fano_certificate,
    p_sm,
    picard_rank,
    smooth_contraction_roots,
)
from .census import (
    CensusQuery,
    FanoRow,
    HasseDiagram,
    brute_force_enumerate,
    enumerate_parabolics,
    fano_census,
    fano_summary,
    fano_to_csv,
    hasse_diagram,
    hasse_to_dot,
    phi_hash,
    rank_one_catalog,
    schemes_to_csv,
    schemes_to_jsonl,
)
from . import errors
