"""Good/bad classification of forbidden binary factors in hypercubes.

The structural classifier (`classify`) computes the verdict, exact index and
explicit blocked-pair certificates in polynomial time; the brute-force oracle
(`build_graph`, `is_isometric`, `index_bruteforce`) recomputes everything from
definitions at desk scale so the two routes can be cross-validated.  In the
oracle the exhaustive critical-pair scan decides isometry; BFS names the
violating pair of a non-isometric graph and backs the `lemma21` sweep, which
checks the scan against it.

The public names are looked up in their home module on each access (PEP 562),
so importing the package, or the command-line front end, loads numpy only
when an oracle name is first used.  The names are never copied into the
package, so a name replaced in its home module reads the same here.
"""

import importlib

_EXPORTS = {
    "oracle": (
        "UNREACHABLE",
        "AvoidanceGraph",
        "CriticalPair",
        "Verdict",
        "build_graph",
        "find_critical_pairs",
        "first_violation_dimension",
        "graph_distance",
        "index_bruteforce",
        "is_isometric",
    ),
    "periodicity": (
        "EquationSystem",
        "OverlapGraph",
        "PeriodCheck",
        "build_overlap_graph",
        "closure_implies",
        "equation_system",
        "is_single_cycle",
        "period_closure_check",
        "residue_sequence",
    ),
    "structural": (
        "Classification",
        "CriticalWitness",
        "MalformedWitnessError",
        "WitnessCheck",
        "classify",
        "lift_witness",
        "verify_witness",
        "witness_from_json_dict",
        "witness_to_json_dict",
    ),
    "words": (
        "DEFAULT_DIMENSION_CAP",
        "MAX_LENGTH",
        "Pattern",
        "Word",
        "WordError",
        "contains_factor",
        "differing_positions",
        "factor_offsets",
        "hamming",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
