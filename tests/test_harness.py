import json
from types import SimpleNamespace

import numpy as np
import pytest

from fibocube import harness, oracle, structural
from fibocube.harness import (
    CensusRow,
    census,
    census_csv,
    cross_validate_patterns,
    run_suites,
)
from fibocube.oracle import AvoidanceGraph
from fibocube.structural import Classification, WitnessCheck
from fibocube.words import Word

REAL_BUILD = oracle.build_graph
REAL_SCAN = oracle.critical_p_values
REAL_BFS = oracle._bfs_violation


def bfs_from_target_end(g):
    """The scan-free BFS route with its named pair turned round."""
    v = REAL_BFS(g)
    return v and (v[1], v[0], v[2], v[3])


# Scan results that make a graph read as isometric, or as not isometric.
NO_PAIRS = np.zeros(0, dtype=np.int64)
ONE_PAIR = np.array([2])


def row_bytes(row: CensusRow) -> str:
    return json.dumps(row.to_json_dict(), sort_keys=True)


class TestCrossValidate:
    def test_max_len_1(self):
        r = run_suites("cross", 1)[0]
        assert r.passed and r.checked == 2

    def test_max_len_3(self):
        r = run_suites("cross", 3)[0]
        assert r.passed and r.checked == 14
        assert r.counterexample is None

    def test_max_len_4_with_past_bound_probe(self):
        r = run_suites("cross", 4, workers=2)[0]
        assert r.passed and r.checked == 30

    def test_pattern_index_is_the_oracle_index(self):
        # The sweeps' cached index and the library's run the same scan.
        for t in harness.patterns_up_to(5):
            f = Word.parse(t)
            assert harness._Pattern(t, 25).index(f) == oracle.index_bruteforce(f)

    def test_explicit_pattern_list(self):
        r = cross_validate_patterns(["101", "0011", "11"])
        assert r.passed and r.checked == 3

    def test_past_bound_probe_scans_only_good_patterns_past_2n_minus_1(self, monkeypatch):
        # The index scan covers d = 2..2|f|-1 and stops at a bad pattern's
        # index, its first violation, so only good patterns are probed
        # further, and no graph is built twice.
        built = []

        def spy(f, d, cap=None):
            built.append((str(f), d))
            return REAL_BUILD(f, d, cap)

        monkeypatch.setattr(harness.oracle, "build_graph", spy)
        r = run_suites("cross", 3, workers=1)[0]
        assert r.passed
        expected = []
        for p in harness.patterns_up_to(3):
            last = 4 if p in ("010", "101") else 2 * len(p) + 2  # the index, or 2n+2
            expected += [(p, d) for d in range(2, last + 1)]
        assert built == expected


class TestTheoremChecks:
    def test_p_values(self):
        r = run_suites("p-values", 3)[0]
        assert r.passed and r.checked == 2

    def test_p_values_vacuous_at_length_2(self):
        r = run_suites("p-values", 2)[0]
        assert r.passed and r.checked == 0

    def test_index_bound(self):
        r = run_suites("index-bound", 5)[0]
        assert r.passed and r.checked == 62

    def test_doubling(self):
        r = run_suites("doubling", 3)[0]
        assert r.passed and r.checked == 14

    def test_monotonicity(self):
        r = run_suites("monotonicity", 3)[0]
        assert r.passed and r.checked == 2

    def test_critical_equivalence(self):
        r = run_suites("lemma21", 3)[0]
        assert r.passed
        # 2 patterns of length 1 scanned over d=2..4, 4 over d=2..6, 8 over d=2..8
        assert r.checked == 2 * 3 + 4 * 5 + 8 * 7

    def test_report_json_round_trip(self):
        r = run_suites("cross", 2)[0]
        data = json.loads(json.dumps(r.to_json_dict()))
        assert data["passed"] is True
        assert data["name"] == "oracle-structural-cross-validation"


# Counts for lengths 1..5 are frozen from independent string-level brute
# force; length 6 is covered by the oracle-equivalence acceptance gate.
FROZEN_CENSUS = {
    1: (2, 0, {}, {}),
    2: (4, 0, {}, {}),
    3: (6, 2, {4: 2}, {2: 2}),
    4: (8, 8, {5: 6, 7: 2}, {2: 6, 3: 2}),
    5: (10, 22, {6: 12, 7: 4, 8: 6}, {2: 22}),
}


class TestCensus:
    @pytest.mark.parametrize("n", sorted(FROZEN_CENSUS))
    def test_frozen_counts(self, n):
        good, bad, index_hist, p_hist = FROZEN_CENSUS[n]
        row = census(n)
        assert row.good_count == good
        assert row.bad_count == bad
        assert row.index_histogram == index_hist
        assert row.p_histogram == p_hist
        assert row.total == 2**n

    def test_histogram_mass_matches_bad_count(self):
        for n in range(1, 8):
            row = census(n)
            assert sum(row.index_histogram.values()) == row.bad_count
            assert sum(row.p_histogram.values()) == row.bad_count
            assert row.good_count + row.bad_count == row.total

    def test_worker_determinism(self):
        assert row_bytes(census(6, workers=1)) == row_bytes(census(6, workers=2))

    def test_oracle_confirmation(self):
        row = census(4, oracle_confirm=True)
        assert row.oracle_confirmed
        assert row.good_count == 8

    def test_bounds(self):
        with pytest.raises(ValueError):
            census(0)
        with pytest.raises(ValueError):
            census(15)
        with pytest.raises(ValueError):
            census(10, oracle_confirm=True)

    def test_csv_layout(self):
        text = census_csv([census(3)])
        lines = text.splitlines()
        assert lines[0].startswith("length,total,good,bad,good_fraction")
        assert lines[1].startswith("3,8,6,2,0.75,")

    @staticmethod
    def _pure_three(patterns):
        # Bad patterns whose witnesses all have p = 3.
        pure = []
        for t in patterns:
            cls = structural.classify(Word.parse(t))
            if not cls.good and all(w.p == 3 for w in cls.witnesses):
                pure.append(t)
        return pure

    def test_no_pure_three_pattern_up_to_3(self):
        for n in range(1, 4):
            assert 3 not in census(n).p_histogram
        assert self._pure_three(harness.patterns_up_to(3)) == []

    def test_pure_three_patterns_at_length_4(self):
        # p = 3 is first the least p at length 4, where the bad patterns whose
        # witnesses all have p = 3 are 0011 and 1100.
        assert census(4).p_histogram == {2: 6, 3: 2}
        assert census(8).p_histogram[3] == 4
        assert self._pure_three(harness.all_patterns(4)) == ["0011", "1100"]

    def test_good_counts_invariant_under_reversal_and_complement(self):
        from fibocube.structural import classify

        n = 4
        row = census(n)
        for transform in (Word.reverse, Word.complement):
            good = sum(
                1
                for t in harness.all_patterns(n)
                if classify(transform(Word.parse(t))).good
            )
            assert good == row.good_count


class TestWorkerPool:
    @pytest.mark.parametrize("cpus, sizes", [(2, [2]), (None, [])])
    def test_pool_has_no_more_processes_than_cpus(self, monkeypatch, cpus, sizes):
        # A stand-in pool that records its size and maps in this process, so
        # asking for 5000 workers starts no process at all.
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert row_bytes(census(6, workers=5000)) == row_bytes(census(6, workers=1))
        assert started == sizes


class TestOverlapMachinery:
    def test_passes(self):
        r = harness.check_overlap_machinery(limit=8)
        assert r.passed and r.checked == 64
        assert r.name == "overlap-cycle-closure"


class TestRunSuites:
    def test_all_includes_overlap_machinery(self):
        reports = run_suites("all", 3)
        assert len(reports) == 7
        assert reports[-1].name == "overlap-cycle-closure"
        assert all(r.passed for r in reports)

    def test_single_suite(self):
        (r,) = run_suites("cross", 2)
        assert r.name == "oracle-structural-cross-validation"

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suites("nope", 3)

    def test_all_suites_check_each_pattern_in_one_pass(self, monkeypatch):
        # While one swept pattern is checked, no graph is built twice, and the
        # pattern and its square are classified once each.
        current, built, classified, passes = [], [], [], []
        real_pattern, real_classify, real_pmap = (
            harness._Pattern, structural.classify, harness._pmap
        )

        def pattern(text, cap):
            current.append(text)
            return real_pattern(text, cap)

        def build(f, d, cap=None):
            built.append((current[-1], str(f), d))
            return REAL_BUILD(f, d, cap)

        def classify(f):
            classified.append((current[-1], str(f)))
            return real_classify(f)

        def pmap(fn, items, workers):
            passes.append(fn)
            return real_pmap(fn, items, workers)

        monkeypatch.setattr(harness, "_Pattern", pattern)
        monkeypatch.setattr(harness, "_pmap", pmap)
        monkeypatch.setattr(harness.oracle, "build_graph", build)
        monkeypatch.setattr(harness.structural, "classify", classify)
        reports = run_suites("all", 4, workers=1)
        assert all(r.passed for r in reports)
        texts = harness.patterns_up_to(4)
        assert current == texts
        assert len(passes) == 1
        assert built and len(built) == len(set(built))
        assert sorted(classified) == sorted([(t, t) for t in texts] + [(t, t + t) for t in texts])

    def test_reports_deterministic(self):
        a = [json.dumps(r.to_json_dict(), sort_keys=True) for r in run_suites("all", 2)]
        b = [json.dumps(r.to_json_dict(), sort_keys=True) for r in run_suites("all", 2, workers=2)]
        assert a == b


class TestFailurePaths:
    """Each sweep with one oracle or worker call broken: the first failing
    record is the counterexample, and checked still counts every swept item."""

    def test_cross_validate(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: NO_PAIRS)
        r = run_suites("cross", 3, workers=1)[0]
        assert not r.passed and r.checked == 14
        assert r.counterexample["failure"] == "index-mismatch"
        assert r.counterexample["pattern"] == "010"
        assert r.swept == "all patterns of length 1..3"

    def test_cross_validate_violation_past_bound(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: (
            ONE_PAIR if g.dimension == 2 * g.pattern.length + 1 else REAL_SCAN(g)
        ))
        r = run_suites("cross", 3, workers=1)[0]
        assert not r.passed and r.checked == 14
        assert r.counterexample == {
            "pattern": "0",
            "structural_index": None,
            "bruteforce_index": None,
            "failure": "violation-appears-past-bound",
            "first_violation_to_2n_plus_2": 3,
        }

    def test_p_values_counts_every_bad_pattern(self, monkeypatch):
        # Every critical pair reads p = 4; which graphs have pairs is unchanged.
        monkeypatch.setattr(
            harness.oracle, "critical_p_values", lambda g: np.full_like(REAL_SCAN(g), 4)
        )
        r = run_suites("p-values", 4, workers=1)[0]
        assert not r.passed and r.checked == 10
        assert r.counterexample["failure"] == "minimal-p-outside-2-3"
        assert r.counterexample["pattern"] == "010"
        assert r.counterexample["min_p"] == 4

    def test_index_bound(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: (
            ONE_PAIR if g.dimension == 2 * g.pattern.length + 2 else REAL_SCAN(g)
        ))
        r = run_suites("index-bound", 3, workers=1)[0]
        assert not r.passed and r.checked == 14
        assert r.counterexample["failure"] == "oracle-disagrees-past-bound"
        assert r.counterexample["first_violation_to_2n_plus_2"] == 4

    def test_doubling(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: ONE_PAIR)
        r = run_suites("doubling", 3, workers=1)[0]
        assert not r.passed and r.checked == 14
        assert r.counterexample["failure"] == "oracle-says-doubled-is-bad"
        assert r.counterexample["pattern"] == "0"

    @pytest.mark.parametrize(
        "module, name, broken, check, checked, counterexample",
        [
            (structural, "classify", lambda f: Classification(f, False, 2 * f.length, ()),
             "index-bound", 14,
             {"pattern": "0", "index": 2, "failure": "index-at-least-twice-length"}),
            (structural, "classify",
             lambda f: Classification(f, False, 2 * f.length - 1, (SimpleNamespace(p=2),)),
             "index-bound", 14,
             {"pattern": "0", "index": 1, "failure": "two-flip-index-above-2n-2"}),
            # length-1 patterns are good, their squares bad
            (structural, "classify",
             lambda f: Classification(f, f.length == 1, None if f.length == 1 else 3, ()),
             "doubling", 14,
             {"pattern": "0", "index": None, "doubled_index": 3,
              "failure": "doubling-lost-goodness"}),
            (oracle, "build_graph", lambda f, d, cap=None: (
                AvoidanceGraph(f, d, np.zeros(1, dtype=np.int64))
                if str(f) == "010010" else REAL_BUILD(f, d, cap)
            ), "doubling", 14,
             {"pattern": "010", "index": 4, "doubled_index": 8, "dimension": 2,
              "failure": "doubled-graph-not-full-cube"}),
            (oracle, "critical_p_values", lambda g: (
                ONE_PAIR if str(g.pattern) == "010010" else REAL_SCAN(g)
            ), "doubling", 14,
             {"pattern": "010", "index": 4, "doubled_index": 8, "dimension": 2,
              "failure": "doubled-graph-not-isometric-below-index"}),
            (oracle, "critical_p_values", lambda g: NO_PAIRS, "monotonicity", 2,
             {"pattern": "010", "index": 4, "dimension": 5,
              "failure": "oracle-isometric-above-index"}),
            (oracle, "_bfs_violation", bfs_from_target_end, "lemma21",
             2 * 3 + 4 * 5 + 6 * 7,
             {"pattern": "010", "dimension": 4, "isometric": False, "critical_pairs": 1,
              "failure": "first-source-not-scan-endpoint",
              "violating_pair": ["0110", "0000", 4, 2], "scan_endpoint": "0000"}),
        ],
        ids=["twice-length", "two-flip", "lost-goodness", "not-full-cube",
             "doubled-not-isometric", "isometric-above-index", "source-not-scan-endpoint"],
    )
    def test_failure_kind(self, monkeypatch, module, name, broken, check, checked,
                          counterexample):
        monkeypatch.setattr(module, name, broken)
        r = run_suites(check, 3, workers=1)[0]
        assert not r.passed and r.checked == checked
        assert r.counterexample == counterexample

    def test_monotonicity(self, monkeypatch):
        monkeypatch.setattr(
            harness.structural, "verify_witness", lambda w: WitnessCheck(False, "broken")
        )
        r = run_suites("monotonicity", 4, workers=1)[0]
        assert not r.passed and r.checked == 10
        assert r.counterexample["failure"] == "lifted-witness-rejected"
        assert r.counterexample["reason"] == "broken"
        assert r.counterexample["dimension"] == 5

    def test_critical_equivalence(self, monkeypatch):
        # Every graph's critical-pair scan reads as empty.
        monkeypatch.setattr(AvoidanceGraph, "_critical_pairs",
                            property(lambda g: (NO_PAIRS, NO_PAIRS)))
        r = run_suites("lemma21", 3, workers=1)[0]
        assert not r.passed
        # "010" and "101" fail at d=4; every other pattern checks all its dimensions
        assert r.checked == 2 * 3 + 4 * 5 + 6 * 7
        assert r.counterexample["failure"] == "equivalence-broken"
        assert r.counterexample["critical_pairs"] == 0
        assert r.counterexample["dimension"] == 4
        assert r.counterexample["pattern"] == "010"
        assert r.counterexample["violating_pair"] == ["0000", "0110", 4, 2]

    @pytest.mark.parametrize(
        "name, broken, failure",
        [
            ("is_single_cycle", lambda g: False, "not-a-single-cycle"),
            ("residue_sequence", lambda k1, k2: [], "residue-walk-broken"),
            ("closure_implies", lambda r, s, assumed, pair: False,
             "dropped-equation-not-forced"),
            ("period_closure_check", lambda f, r, s: SimpleNamespace(ok=False, vacuous=False),
             "period-check-broken"),
        ],
        ids=["single-cycle", "residue-walk", "closure", "period-check"],
    )
    def test_overlap_machinery(self, monkeypatch, name, broken, failure):
        monkeypatch.setattr(harness, name, broken)
        r = harness.check_overlap_machinery(limit=4)
        assert not r.passed and r.checked == 16
        assert r.counterexample["failure"] == failure
        assert r.swept == "period pairs 1..4, plus concrete words for three pairs"
