"""Acceptance gate: each criterion at its stated scale, exact tolerances.

Every test prints one PASS/FAIL line; run with `pytest -v -s` to see them.
The heavy sweeps use all available cores and finish well inside the
15-minute budget on a desktop.
"""

import json
import math
import os
import random

from fibocube import (
    Word,
    build_graph,
    build_overlap_graph,
    classify,
    graph_distance,
    hamming,
    is_single_cycle,
    residue_sequence,
)
from fibocube.harness import (
    all_patterns,
    census,
    cross_validate_patterns,
    run_suites,
)

WORKERS = max(1, os.cpu_count() or 1)


def report(num: int, name: str, ok: bool, detail=None):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_oracle_structural_equivalence():
    full = run_suites("cross", 6, workers=WORKERS)[0]
    spot_values = sorted(random.Random(271828).sample(range(128), 40))
    spot = cross_validate_patterns(
        [format(v, "07b") for v in spot_values], workers=WORKERS
    )
    ok = full.passed and full.checked == 126 and spot.passed and spot.checked == 40
    report(
        1,
        "classifier equals brute force on all 126 patterns of length 1-6 "
        "plus 40 spot checks at length 7",
        ok,
        (full.counterexample, spot.counterexample),
    )


def test_all_length_7_patterns_match_oracle():
    r = cross_validate_patterns(all_patterns(7), workers=WORKERS)
    assert r.passed and r.checked == 128, r.counterexample


def test_all_length_8_patterns_match_oracle():
    r = cross_validate_patterns(all_patterns(8), workers=WORKERS)
    assert r.passed and r.checked == 256, r.counterexample

def test_criterion_2_minimal_p_dichotomy():
    r = run_suites("p-values", 6, workers=WORKERS)[0]
    ok = r.passed and r.checked == 78
    report(
        2,
        "minimal p of oracle critical pairs at the index is 2 or 3 for every "
        "bad pattern of length <= 6",
        ok,
        r.counterexample,
    )


def test_criterion_3_index_bound():
    r = run_suites("index-bound", 10, workers=WORKERS)[0]
    ok = r.passed and r.checked == 2046
    report(
        3,
        "index <= 2n-1 (2n-2 with a two-flip witness) for all lengths <= 10; "
        "oracle finds nothing past the bound for lengths <= 4",
        ok,
        r.counterexample,
    )


def test_criterion_4_doubling_preserves_good():
    r = run_suites("doubling", 6, workers=WORKERS)[0]
    ok = r.passed and r.checked == 126
    report(
        4,
        "ff is good for every good f of length <= 6, oracle-confirmed for "
        "length <= 3",
        ok,
        r.counterexample,
    )


def test_criterion_5_nonisometric_iff_critical_pair():
    r = run_suites("lemma21", 5, workers=WORKERS)[0]
    ok = r.passed and r.checked >= 62
    report(
        5,
        "BFS isometry verdict equals critical-pair existence for all "
        "patterns of length <= 5 at every dimension",
        ok,
        r.counterexample,
    )


def test_criterion_6_witness_lifting():
    r = run_suites("monotonicity", 6, workers=WORKERS)[0]
    ok = r.passed and r.checked == 78
    report(
        6,
        "lifted witnesses re-verify and the oracle confirms non-isometry at "
        "index+1..index+3 for every bad pattern of length <= 6",
        ok,
        r.counterexample,
    )


def test_criterion_7_overlap_cycles_and_residues():
    ok = True
    detail = None
    for r in range(1, 21):
        for s in range(1, 21):
            g = build_overlap_graph(r, s)
            degs = {}
            for a, b in g.edges:
                degs[a] = degs.get(a, 0) + 1
                degs[b] = degs.get(b, 0) + 1
            if not (
                is_single_cycle(g)
                and len(g.edges) == 2 * (g.k1 + g.k2)
                and all(v == 2 for v in degs.values())
            ):
                ok, detail = False, (r, s)
    for k1 in range(1, 40):
        for k2 in range(1, 40 - k1 + 1):
            if math.gcd(k1, k2) != 1:
                continue
            seq = residue_sequence(k1, k2)
            if sorted(seq) != list(range(k1 + k2)) or seq[-1] != k2:
                ok, detail = False, (k1, k2)
    report(
        7,
        "overlap graphs are single cycles for r,s <= 20; residue sequences "
        "are permutations ending at k2 for coprime k1+k2 <= 40",
        ok,
        detail,
    )


def test_criterion_8_worked_fixed_points():
    cls = classify(Word.parse("101"))
    pair = {str(cls.witnesses[0].alpha), str(cls.witnesses[0].beta)}
    g = build_graph(Word.parse("101"), 4)
    dist = graph_distance(g, Word.parse("1111"), Word.parse("1001"))
    ham = hamming(Word.parse("1111"), Word.parse("1001"))
    fib = [build_graph(Word.parse("11"), d).vertex_count for d in range(1, 7)]
    ok = (
        not cls.good
        and cls.index == 4
        and pair == {"1111", "1001"}
        and dist == 4
        and ham == 2
        and fib == [2, 3, 5, 8, 13, 21]
    )
    report(
        8,
        "101 is bad with index 4 and witness pair {1111, 1001}; detour "
        "distance 4 vs Hamming 2; Fibonacci counts 2,3,5,8,13,21",
        ok,
        (cls.index, pair, dist, ham, fib),
    )


def test_criterion_9_census_determinism_and_symmetry():
    ok = True
    detail = None
    for n in range(1, 11):
        rows = [
            json.dumps(census(n, workers=w).to_json_dict(), sort_keys=True)
            for w in (1, 1, min(2, WORKERS + 1))
        ]
        if len(set(rows)) != 1:
            ok, detail = False, ("nondeterministic", n)
            break
        base = census(n)
        for transform in (Word.reverse, Word.complement):
            good = sum(
                1 for t in all_patterns(n) if classify(transform(Word.parse(t))).good
            )
            if good != base.good_count:
                ok, detail = False, ("asymmetric", n, transform.__name__)
    report(
        9,
        "census rows for n <= 10 are byte-identical across runs and worker "
        "counts; good counts invariant under reversal and complement",
        ok,
        detail,
    )
