import json
from types import SimpleNamespace

import pytest

from fibocube import harness
from fibocube.harness import (
    CensusRow,
    census,
    census_csv,
    check_critical_equivalence,
    check_doubling,
    check_index_bound,
    check_monotonicity,
    check_p_values,
    cross_validate,
    cross_validate_patterns,
    find_pure_three_critical,
    run_suites,
)
from fibocube.structural import WitnessCheck


def row_bytes(row: CensusRow) -> str:
    return json.dumps(row.to_json_dict(), sort_keys=True)


class TestCrossValidate:
    def test_max_len_1(self):
        r = cross_validate(1)
        assert r.passed and r.checked == 2

    def test_max_len_3(self):
        r = cross_validate(3)
        assert r.passed and r.checked == 14
        assert r.counterexample is None

    def test_max_len_4_with_past_bound_probe(self):
        r = cross_validate(4, workers=2)
        assert r.passed and r.checked == 30

    def test_explicit_pattern_list(self):
        r = cross_validate_patterns(["101", "0011", "11"])
        assert r.passed and r.checked == 3


class TestTheoremChecks:
    def test_p_values(self):
        r = check_p_values(3)
        assert r.passed and r.checked == 2

    def test_p_values_vacuous_at_length_2(self):
        r = check_p_values(2)
        assert r.passed and r.checked == 0

    def test_index_bound(self):
        r = check_index_bound(5)
        assert r.passed and r.checked == 62

    def test_doubling(self):
        r = check_doubling(3)
        assert r.passed and r.checked == 14

    def test_monotonicity(self):
        r = check_monotonicity(3, extra=2)
        assert r.passed and r.checked == 2

    def test_monotonicity_extra_zero(self):
        r = check_monotonicity(3, extra=0)
        assert r.passed

    def test_critical_equivalence(self):
        r = check_critical_equivalence(3)
        assert r.passed
        # 2 patterns of length 1 scanned over d=2..4, 4 over d=2..6, 8 over d=2..8
        assert r.checked == 2 * 3 + 4 * 5 + 8 * 7

    def test_report_json_round_trip(self):
        r = cross_validate(2)
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
            census(9, oracle_confirm=True)

    def test_csv_layout(self):
        text = census_csv([census(3)])
        lines = text.splitlines()
        assert lines[0].startswith("length,total,good,bad,good_fraction")
        assert lines[1].startswith("3,8,6,2,0.75,")

    def test_good_counts_invariant_under_reversal_and_complement(self):
        from fibocube.structural import classify
        from fibocube.words import Word

        n = 4
        row = census(n)
        for transform in (Word.reverse, Word.complement):
            good = sum(
                1
                for t in harness.all_patterns(n)
                if classify(transform(Word.parse(t))).good
            )
            assert good == row.good_count


class TestPureThreeProbe:
    def test_empty_up_to_3(self):
        assert find_pure_three_critical(3) == []

    def test_length_4_hits(self):
        assert find_pure_three_critical(4) == ["0011", "1100"]

    def test_bound(self):
        with pytest.raises(ValueError):
            find_pure_three_critical(13)


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

    def test_reports_deterministic(self):
        a = [json.dumps(r.to_json_dict(), sort_keys=True) for r in run_suites("all", 2)]
        b = [json.dumps(r.to_json_dict(), sort_keys=True) for r in run_suites("all", 2, workers=2)]
        assert a == b


class TestFailurePaths:
    """Each sweep with one oracle or worker call broken: the first failing
    record is the counterexample, and checked still counts every swept item."""

    def test_cross_validate(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "index_bruteforce", lambda f, cap=None: None)
        r = cross_validate(3, workers=1)
        assert not r.passed and r.checked == 14
        assert r.counterexample["failure"] == "index-mismatch"
        assert r.counterexample["pattern"] == "010"
        assert r.swept == "all patterns of length 1..3"

    def test_p_values_counts_every_bad_pattern(self, monkeypatch):
        monkeypatch.setattr(
            harness.oracle,
            "find_critical_pairs",
            lambda g, minimal_only=False: [SimpleNamespace(p=4)],
        )
        r = check_p_values(4, workers=1)
        assert not r.passed and r.checked == 10
        assert r.counterexample["failure"] == "minimal-p-outside-2-3"
        assert r.counterexample["pattern"] == "010"
        assert r.counterexample["min_p"] == 4

    def test_index_bound(self, monkeypatch):
        monkeypatch.setattr(
            harness.oracle, "first_violation_dimension", lambda f, d_max, cap=None: 99
        )
        r = check_index_bound(3, workers=1)
        assert not r.passed and r.checked == 14
        assert r.counterexample["failure"] == "oracle-disagrees-past-bound"
        assert r.counterexample["first_violation_to_2n_plus_2"] == 99

    def test_doubling(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "index_bruteforce", lambda f, cap=None: 5)
        r = check_doubling(3, workers=1)
        assert not r.passed and r.checked == 14
        assert r.counterexample["failure"] == "oracle-says-doubled-is-bad"
        assert r.counterexample["pattern"] == "0"

    def test_monotonicity(self, monkeypatch):
        monkeypatch.setattr(
            harness.structural, "verify_witness", lambda w: WitnessCheck(False, "broken")
        )
        r = check_monotonicity(4, workers=1)
        assert not r.passed and r.checked == 10
        assert r.counterexample["failure"] == "lifted-witness-rejected"
        assert r.counterexample["reason"] == "broken"
        assert r.counterexample["dimension"] == 5

    def test_critical_equivalence(self, monkeypatch):
        monkeypatch.setattr(
            harness.oracle, "find_critical_pairs", lambda g, minimal_only=False: []
        )
        r = check_critical_equivalence(3, workers=1)
        assert not r.passed
        # "010" and "101" fail at d=4; every other pattern checks all its dimensions
        assert r.checked == 2 * 3 + 4 * 5 + 6 * 7
        assert r.counterexample["failure"] == "equivalence-broken"
        assert r.counterexample["dimension"] == 4
        assert r.counterexample["pattern"] == "010"
        assert r.counterexample["violating_pair"] == ["0000", "0110", 4, 2]

    @pytest.mark.parametrize(
        "name, broken, failure",
        [
            ("residue_sequence", lambda k1, k2: [], "residue-walk-broken"),
            ("closure_implies", lambda r, s, assumed, pair: False,
             "dropped-equation-not-forced"),
            ("period_closure_check", lambda f, r, s: SimpleNamespace(ok=False, vacuous=False),
             "period-check-broken"),
        ],
        ids=["residue-walk", "closure", "period-check"],
    )
    def test_overlap_machinery(self, monkeypatch, name, broken, failure):
        monkeypatch.setattr(harness, name, broken)
        r = harness.check_overlap_machinery(limit=4)
        assert not r.passed and r.checked == 16
        assert r.counterexample["failure"] == failure
        assert r.swept == "period pairs 1..4, plus concrete words for three pairs"
