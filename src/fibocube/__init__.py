"""Good/bad classification of forbidden binary factors in hypercubes.

The structural classifier (`classify`) computes the verdict, exact index and
explicit blocked-pair certificates in polynomial time; the brute-force oracle
(`build_graph`, `is_isometric`, `index_bruteforce`) recomputes everything from
definitions at desk scale so the two routes can be cross-validated.  In the
oracle the exhaustive critical-pair scan decides isometry; BFS names the
violating pair of a non-isometric graph and backs the `lemma21` sweep, which
checks the scan against it.
"""

from .oracle import (
    DEFAULT_DIMENSION_CAP,
    UNREACHABLE,
    AvoidanceGraph,
    CriticalPair,
    Verdict,
    build_graph,
    find_critical_pairs,
    first_violation_dimension,
    graph_distance,
    index_bruteforce,
    is_isometric,
)
from .periodicity import (
    EquationSystem,
    OverlapGraph,
    PeriodCheck,
    build_overlap_graph,
    closure_implies,
    equation_system,
    is_single_cycle,
    period_closure_check,
    residue_sequence,
)
from .structural import (
    Classification,
    CriticalWitness,
    MalformedWitnessError,
    WitnessCheck,
    classify,
    lift_witness,
    verify_witness,
    witness_from_json_dict,
    witness_to_json_dict,
)
from .words import (
    MAX_LENGTH,
    Pattern,
    Word,
    WordError,
    contains_factor,
    differing_positions,
    factor_offsets,
    hamming,
)

__all__ = [
    "AvoidanceGraph",
    "Classification",
    "CriticalPair",
    "CriticalWitness",
    "DEFAULT_DIMENSION_CAP",
    "EquationSystem",
    "MAX_LENGTH",
    "MalformedWitnessError",
    "OverlapGraph",
    "Pattern",
    "PeriodCheck",
    "UNREACHABLE",
    "Verdict",
    "WitnessCheck",
    "Word",
    "WordError",
    "build_graph",
    "build_overlap_graph",
    "classify",
    "closure_implies",
    "contains_factor",
    "differing_positions",
    "equation_system",
    "factor_offsets",
    "find_critical_pairs",
    "first_violation_dimension",
    "graph_distance",
    "hamming",
    "index_bruteforce",
    "is_isometric",
    "is_single_cycle",
    "lift_witness",
    "period_closure_check",
    "residue_sequence",
    "verify_witness",
    "witness_from_json_dict",
    "witness_to_json_dict",
]
