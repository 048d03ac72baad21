import gc
import json
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fibocube import harness, oracle, periodicity, structural
from fibocube.harness import census, census_csv, run_suites
from fibocube.oracle import AvoidanceGraph
from fibocube.structural import Classification, CriticalWitness
from fibocube.words import Word
from test_oracle import forbid_neighbor_table

REAL_BUILD = oracle.build_graph
REAL_GROW = oracle.grow_graph
REAL_CLASSIFY = structural.classify
REAL_SCAN = oracle.critical_p_values
REAL_BFS = oracle._bfs_violation
REAL_OVERLAP = periodicity.build_overlap_graph


def bfs_from_target_end(g):
    """The scan-free BFS route's first violating source moved to the far end
    of the pair it names."""
    source = REAL_BFS(g)
    if source is None:
        return None
    target = oracle._first_violation(g, source)[1]
    return int(np.searchsorted(g.vertices, target.bits))


def spy_graphs(monkeypatch, record):
    """Call record(f, d) for each graph Q_d(f) the oracle builds or grows."""
    def build(f, d):
        record(f, d)
        return REAL_BUILD(f, d)

    def grow(g):
        record(g.pattern, g.dimension + 1)
        return REAL_GROW(g)

    monkeypatch.setattr(oracle, "build_graph", build)
    monkeypatch.setattr(oracle, "grow_graph", grow)


def bad_at_3(f):
    """f classified bad by one hand-built witness at d = 3, so of index 3."""
    w = CriticalWitness(f, 3, ((1, 1), (3, 2)), Word(3, 0b010), Word(3, 0b111))
    return Classification(f, (w,))


def first_beta_moved(f):
    """classify(f) with a bad f's first witness moved to beta = all ones: its
    index and verdict stand, but its pair is no critical pair of Q_B(f)."""
    cls = REAL_CLASSIFY(f)
    if cls.good:
        return cls
    w, *rest = cls.witnesses
    return Classification(f, (w._replace(beta=Word(w.dimension, (1 << w.dimension) - 1)), *rest))


def on_101(broken):
    """classify with only 101 broken, a member of the orbit {010, 101}."""
    return lambda f: broken(f) if str(f) == "101" else REAL_CLASSIFY(f)


def with_third_flip(f):
    """classify(f) with one more offset in each witness: index unchanged, p = 3."""
    cls = REAL_CLASSIFY(f)
    return Classification(f, tuple(w._replace(offsets=w.offsets + ((9, 9),))
                                   for w in cls.witnesses))


def rotated_y_slots(r, s):
    """build_overlap_graph(r, s) with each v2_j renamed v2_{j+1}, the last v2_1:
    still one cycle, but its walk from v2_1 leaves the residue order once
    there are three Y slots."""
    g = REAL_OVERLAP(r, s)
    k = len(g.y_vertices)
    name = {f"v2_{j}": f"v2_{j % k + 1}" for j in range(1, k + 1)}
    return replace(g, edges=tuple((x, name[y]) for x, y in g.edges))


# Scan results that make a graph read as isometric, or as not isometric.
NO_PAIRS = np.zeros(0, dtype=np.int64)
ONE_PAIR = np.array([2])


def row_bytes(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


class TestCrossValidate:
    def test_max_len_1(self):
        r = run_suites("cross", 1)[0]
        assert r["passed"] and r["checked"] == 2

    def test_max_len_3(self):
        r = run_suites("cross", 3)[0]
        assert r["passed"] and r["checked"] == 14
        assert r["counterexample"] is None

    def test_max_len_4_with_past_bound_probe(self):
        r = run_suites("cross", 4, workers=2)[0]
        assert r["passed"] and r["checked"] == 30

    def test_pattern_index_is_the_oracle_index(self):
        # The index scan over the sweeps' cached graphs and over fresh ones agree.
        for t in harness.patterns_up_to(5):
            f = Word.parse(t)
            assert oracle.index_bruteforce(f, harness._Pattern(t).graph) == \
                oracle.index_bruteforce(f)

    def test_pattern_graphs_equal_built_graphs(self, monkeypatch):
        # Past |f| each Q_d(f) is grown from the held Q_{d-1}(f).
        grown = []
        spy_graphs(monkeypatch, lambda f, d: grown.append(d) if d > f.length else None)
        for text in harness.patterns_up_to(6):
            grown.clear()
            p = harness._Pattern(text)
            for d in range(1, 2 * len(text) + 3):
                assert np.array_equal(p.graph(p.f, d).vertices, REAL_BUILD(p.f, d).vertices)
            assert grown == list(range(len(text) + 1, 2 * len(text) + 3)), text

    def test_graphs_die_with_their_pattern(self, monkeypatch):
        # No reference cycle holds an orbit's graphs: a representative and
        # its member share them, and they are freed when both are dropped,
        # without the cycle collector.
        refs = []

        def keep(make):
            def run(*args):
                g = make(*args)
                refs.append(weakref.ref(g))
                return g
            return run

        monkeypatch.setattr(oracle, "build_graph", keep(REAL_BUILD))
        monkeypatch.setattr(oracle, "grow_graph", keep(REAL_GROW))
        gc.disable()
        try:
            p = harness._Pattern("0011")  # bad, B = 7: Q_2..Q_4 built, Q_5..Q_7 grown
            member = p.member("1100")
            assert [harness._cross_validate_one(q) for q in (p, member)] == [
                {"pattern": t, "structural_index": 7, "bruteforce_index": 7}
                for t in ("0011", "1100")]
            assert [r().dimension for r in refs] == [2, 3, 4, 5, 6, 7]
            del p
            assert all(r() is not None for r in refs)  # the member still holds them
            del member
            assert [r() for r in refs] == [None] * 6
        finally:
            gc.enable()

    def test_past_bound_probe_scans_only_good_patterns_past_2n_minus_1(self, monkeypatch):
        # The oracle's scan to 2|f|+2 stops at a bad pattern's index, its
        # first violation, so only good patterns are probed past 2|f|-1,
        # and no graph is built twice.  Only orbit representatives have graphs.
        built = []
        spy_graphs(monkeypatch, lambda f, d: built.append((str(f), d)))
        r = run_suites("cross", 3, workers=1)[0]
        assert r["passed"]
        expected = []
        for p, *_ in harness._orbits(harness.patterns_up_to(3)):
            last = 4 if p in ("010", "101") else 2 * len(p) + 2  # the index, or 2n+2
            expected += [(p, d) for d in range(2, last + 1)]
        assert built == expected

    def test_past_bound_probe_reaches_length_4(self, monkeypatch):
        # One critical pair, only in Q_9 of the length-4 patterns: past the
        # index bound 2n - 1 = 7, inside the probe's 2n + 2 = 10, so the
        # oracle's index is one classify cannot report.
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: (
            ONE_PAIR if (g.pattern.length, g.dimension) == (4, 9) else REAL_SCAN(g)
        ))
        r = run_suites("cross", 4, workers=1)[0]
        assert not r["passed"] and r["checked"] == 30
        assert r["counterexample"] == {
            "pattern": "0000",
            "structural_index": None,
            "bruteforce_index": 9,
            "failure": "index-mismatch",
        }


class TestTheoremChecks:
    def test_p_values(self):
        r = run_suites("p-values", 3)[0]
        assert r["passed"] and r["checked"] == 2

    def test_p_values_vacuous_at_length_2(self):
        r = run_suites("p-values", 2)[0]
        assert r["passed"] and r["checked"] == 0

    def test_index_bound(self):
        r = run_suites("index-bound", 5)[0]
        assert r["passed"] and r["checked"] == 62

    def test_index_bound_is_a_view_of_cross(self, monkeypatch):
        # For n <= 4 its record is the cross check's; past the probe's reach
        # it has nothing to test, so it classifies nothing and builds nothing.
        check = harness._SUITES["index-bound"][2]
        for t in harness.patterns_up_to(4):
            assert check(harness._Pattern(t)) == harness._cross_validate_one(harness._Pattern(t))
        calls = []

        def spy(name):
            return lambda *args: calls.append(name)

        monkeypatch.setattr(harness.structural, "classify", spy("classify"))
        monkeypatch.setattr(harness.oracle, "build_graph", spy("build_graph"))
        for t in harness.all_patterns(5):
            assert check(harness._Pattern(t)) == {"pattern": t}
        assert calls == []

    def test_doubling(self):
        r = run_suites("doubling", 3)[0]
        assert r["passed"] and r["checked"] == 14

    def test_doubling_builds_q_d_ff_only_for_good_f(self, monkeypatch):
        # A bad f's Q_d(ff) below B(f) <= 2|f| - 1 < |ff| is the whole cube,
        # so the oracle confirms ff only for a good f, over its index scan,
        # on the graphs of its orbit's representative.
        built = []
        spy_graphs(monkeypatch, lambda f, d: built.append((str(f), d)))
        assert run_suites("doubling", 3, workers=1)[0]["passed"]
        expected = []
        for p, *_ in harness._orbits(harness.patterns_up_to(3)):
            if p not in ("010", "101"):
                expected += [(p + p, d) for d in range(2, 4 * len(p))]
        assert built == expected

    def test_doubled_index_is_past_twice_the_length(self):
        # Q_d(ff) is the whole cube for d < 2|f| and lacks only ff at d = 2|f|;
        # one missing vertex blocks at most one of the k >= 2 disjoint shortest
        # paths between two words, so both are isometric and B(ff) >= 2|f| + 1,
        # above B(f) <= 2|f| - 1: a doubled index never falls below the index.
        for text in harness.patterns_up_to(7):
            f = Word.parse(text)
            ff, n = f.concat(f), f.length
            if not structural.classify(f).good:
                index = structural.classify(ff).index
                assert index is None or index >= 2 * n + 1, text
            if n <= 4:
                g = oracle.build_graph(ff, 2 * n)
                assert g.vertex_count == (1 << 2 * n) - 1, text
                assert oracle.is_isometric(g).isometric, text

    def test_monotonicity(self):
        r = run_suites("monotonicity", 3)[0]
        assert r["passed"] and r["checked"] == 2

    def test_critical_equivalence(self):
        r = run_suites("lemma21", 3)[0]
        assert r["passed"]
        # 2 patterns of length 1 scanned over d=2..4, 4 over d=2..6, 8 over d=2..8
        assert r["checked"] == 2 * 3 + 4 * 5 + 8 * 7

    def test_report_json_round_trip(self):
        r = run_suites("cross", 2)[0]
        data = json.loads(json.dumps(r))
        assert data["passed"] is True
        assert data["name"] == "oracle-structural-cross-validation"


# Counts for lengths 1..5 are frozen from independent string-level brute
# force; length 6 is covered by the oracle-equivalence acceptance gate.
FROZEN_CENSUS = {
    1: (2, 0, {}, {}),
    2: (4, 0, {}, {}),
    3: (6, 2, {"4": 2}, {"2": 2}),
    4: (8, 8, {"5": 6, "7": 2}, {"2": 6, "3": 2}),
    5: (10, 22, {"6": 12, "7": 4, "8": 6}, {"2": 22}),
}


class TestCensus:
    @pytest.mark.parametrize("n", sorted(FROZEN_CENSUS))
    def test_frozen_counts(self, n):
        good, bad, index_hist, p_hist = FROZEN_CENSUS[n]
        row = census(n)
        assert row["good_count"] == good
        assert row["bad_count"] == bad
        assert row["index_histogram"] == index_hist
        assert row["p_histogram"] == p_hist
        assert row["total"] == 2**n

    def test_histogram_mass_matches_bad_count(self):
        for n in range(1, 8):
            row = census(n)
            assert sum(row["index_histogram"].values()) == row["bad_count"]
            assert sum(row["p_histogram"].values()) == row["bad_count"]
            assert row["good_count"] + row["bad_count"] == row["total"]

    def test_worker_determinism(self):
        assert row_bytes(census(6, workers=1)) == row_bytes(census(6, workers=2))

    def test_oracle_confirmation(self):
        row = census(4, oracle_confirm=True)
        assert row["oracle_confirmed"]
        assert row["good_count"] == 8

    def test_bounds(self):
        with pytest.raises(ValueError):
            census(0)
        with pytest.raises(ValueError):
            census(15)
        with pytest.raises(ValueError):
            census(10, oracle_confirm=True)

    def test_one_length_bound_for_census_and_sweeps(self):
        assert harness.MAX_SWEEP_LENGTH == 14
        with pytest.raises(ValueError, match=r"^census length must be in 1\.\.14, got 15$"):
            census(15)
        with pytest.raises(ValueError, match=r"^sweep length must be in 1\.\.14, got 15$"):
            run_suites("cross", 15)

    def test_oracle_confirmation_names_a_disagreeing_pattern(self, monkeypatch):
        # The oracle side reports index 99 for every pattern; 00 comes first.
        monkeypatch.setattr(oracle, "first_violation_dimension", lambda *args: 99)
        message = r"^classifier disagrees with oracle on 00 \(index-mismatch\): None vs 99$"
        with pytest.raises(RuntimeError, match=message):
            census(2, workers=1, oracle_confirm=True)

    @pytest.mark.parametrize("text, verdicts", [("101", "good vs bad"), ("000", "bad vs good")])
    def test_census_names_a_verdict_the_2_error_rule_contradicts(self, monkeypatch, text,
                                                                 verdicts):
        # One verdict of length 3 flipped: the bad 101 read as good, or the
        # good 000 as bad at index 3.
        real_classify = structural.classify

        def classify(f):
            if str(f) != text:
                return real_classify(f)
            return Classification(f, ()) if text == "101" else bad_at_3(f)

        monkeypatch.setattr(harness.structural, "classify", classify)
        message = rf"^classifier disagrees with the 2-error rule on {text}: {verdicts}$"
        with pytest.raises(RuntimeError, match=message):
            census(3, workers=1)

    @pytest.mark.parametrize("module, name, broken, message", [
        (harness, "_two_error_bad", lambda f: False,
         "the 2-error rule on 010: bad vs good"),
        (structural, "classify", first_beta_moved,
         r"oracle on 010 \(witness-set-mismatch\): 4 vs 4"),
    ], ids=["two-error-mismatch", "witness-set-mismatch"])
    def test_oracle_confirmation_names_a_cross_failure(self, monkeypatch, module, name,
                                                      broken, message):
        monkeypatch.setattr(module, name, broken)
        with pytest.raises(RuntimeError, match=rf"^classifier disagrees with {message}$"):
            census(3, workers=1, oracle_confirm=True)

    def test_oracle_confirmation_probes_good_patterns_past_the_bound(self, monkeypatch):
        # One critical pair appears only at d = 2n + 2, which the cross
        # check's probe reaches; 000 is the first good pattern of length 3.
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: (
            ONE_PAIR if g.dimension == 2 * g.pattern.length + 2 else REAL_SCAN(g)
        ))
        message = r"^classifier disagrees with oracle on 000 \(index-mismatch\): None vs 8$"
        with pytest.raises(RuntimeError, match=message):
            census(3, workers=1, oracle_confirm=True)

    def test_oracle_confirmation_runs_one_pass_classifying_each_pattern_once(
        self, monkeypatch
    ):
        # The census count and the cross check share one pass over the 32
        # patterns of length 5, and so one classification of each, orbit by
        # orbit.
        passes, classified = [], []
        real_pmap, real_classify = harness._pmap, structural.classify

        def pmap(fn, items, workers):
            passes.append(fn)
            return real_pmap(fn, items, workers)

        def classify(f):
            classified.append(str(f))
            return real_classify(f)

        expected = row_bytes(census(5, workers=1))
        monkeypatch.setattr(harness, "_pmap", pmap)
        monkeypatch.setattr(harness.structural, "classify", classify)
        row = census(5, workers=1, oracle_confirm=True)
        assert row["oracle_confirmed"]
        assert row_bytes(row | {"oracle_confirmed": False}) == expected
        assert len(passes) == 1
        assert classified == [t for orbit in harness._orbits(harness.all_patterns(5))
                              for t in orbit]
        assert sorted(classified) == harness.all_patterns(5)

    def test_census_without_confirmation_never_reaches_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle was called")

        expected = row_bytes(census(6, workers=1))
        monkeypatch.setattr(oracle, "build_graph", refuse)
        monkeypatch.setattr(oracle, "index_bruteforce", refuse)
        assert row_bytes(census(6, workers=1)) == expected

    def test_csv_layout(self):
        text = census_csv(census(3))
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
            assert "3" not in census(n)["p_histogram"]
        assert self._pure_three(harness.patterns_up_to(3)) == []

    def test_pure_three_patterns_at_length_4(self):
        # p = 3 is first the least p at length 4, where the bad patterns whose
        # witnesses all have p = 3 are 0011 and 1100.
        assert census(4)["p_histogram"] == {"2": 6, "3": 2}
        assert census(8)["p_histogram"]["3"] == 4
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
            assert good == row["good_count"]


class TestOrbits:
    def test_orbits_group_reversal_and_complement(self):
        # Members in input order, orbits in the input order of their first
        # members, every text in exactly one orbit.
        texts = harness.patterns_up_to(4)
        orbits = harness._orbits(texts)
        assert all(orbit == sorted(orbit, key=texts.index) for orbit in orbits)
        firsts = [orbit[0] for orbit in orbits]
        assert firsts == sorted(firsts, key=texts.index)
        assert sorted(t for orbit in orbits for t in orbit) == sorted(texts)
        for orbit in orbits:
            f = Word.parse(orbit[0])
            images = {f, f.reverse(), f.complement(), f.reverse().complement()}
            assert sorted(orbit) == sorted(map(str, images))
        assert [len(harness._orbits(harness.all_patterns(n))) for n in range(1, 9)] == \
            [1, 2, 3, 6, 10, 20, 36, 72]

    def test_carried_pairs_are_the_pairs_of_the_image_graph(self):
        # Q_d(rev f) and Q_d(comp f), built on their own, have exactly f's
        # critical pairs reversed or complemented.
        for text in harness.patterns_up_to(5):
            f = Word.parse(text)
            for image in (f.reverse(), f.complement()):
                member = harness._Pattern(text).member(str(image))
                for d in range(2, 2 * f.length + 1):
                    g = REAL_BUILD(image, d)
                    i, j = g._critical_pairs
                    pairs = set(zip(g.vertices[i].tolist(), g.vertices[j].tolist()))
                    assert member.critical_pairs(d) == pairs, (text, str(image), d)

    def test_member_records_equal_records_on_own_graphs(self, monkeypatch):
        # Every suite's record of every member of every orbit of length <= 6,
        # answered by the representative's graphs, equals the member's
        # record on its own graphs: the oracle fields (bruteforce_index,
        # index, min_p, pairs_at_min, dimensions_checked) and the witness-set
        # comparison alike.  Checking a member on those graphs builds no graph.
        checks = [entry[2] for entry in harness._SUITES.values()]
        members, bad_members = 0, 0
        for orbit in harness._orbits(harness.patterns_up_to(6)):
            rep = harness._Pattern(orbit[0])
            for check in checks:
                check(rep)
            for text in orbit[1:]:
                member, own = rep.member(text), harness._Pattern(text)
                for check in checks:
                    record = check(own)
                    assert "failure" not in record, record
                    monkeypatch.setattr(oracle, "build_graph", None)
                    monkeypatch.setattr(oracle, "grow_graph", None)
                    assert check(member) == record, (check.__name__, text)
                    monkeypatch.undo()
                members += 1
                bad_members += not member.classify(member.f).good
        assert (members, bad_members) == (126 - 42, 53)  # 42 orbits of length 1..6


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
        r = harness.check_overlap_machinery()
        assert r["passed"] and r["checked"] == 144
        assert r["name"] == "overlap-cycle-closure"

    def test_census_does_not_load_periodicity(self):
        # The harness imports the periodicity engine inside the overlap check only.
        src = str(Path(harness.__file__).resolve().parents[1])
        code = (
            f"import json, sys; sys.path.insert(0, {src!r}); from fibocube import harness; "
            "harness.census(3); before = 'fibocube.periodicity' in sys.modules; "
            "harness.check_overlap_machinery(); "
            "print(json.dumps([before, 'fibocube.periodicity' in sys.modules]))"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [False, True]


class TestRunSuites:
    def test_all_includes_overlap_machinery(self):
        reports = run_suites("all", 3)
        assert len(reports) == 7
        assert reports[-1]["name"] == "overlap-cycle-closure"
        assert all(r["passed"] for r in reports)

    def test_single_suite(self):
        (r,) = run_suites("cross", 2)
        assert r["name"] == "oracle-structural-cross-validation"

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suites("nope", 3)

    def test_all_suites_check_each_pattern_in_one_pass(self, monkeypatch):
        # Graphs are built only while an orbit's representative is checked,
        # and no graph is built twice for one orbit.  Each pattern is
        # classified once, and its square once only when the pattern is
        # good: a bad pattern's doubling is no claim.
        current, built, classified, passes = [], [], [], []
        real_pattern, real_classify, real_pmap = (
            harness._Pattern, structural.classify, harness._pmap
        )

        def pattern(text):
            current.append(text)
            return real_pattern(text)

        def classify(f):
            classified.append((current[-1], str(f)))
            return real_classify(f)

        def pmap(fn, items, workers):
            passes.append(fn)
            return real_pmap(fn, items, workers)

        monkeypatch.setattr(harness, "_Pattern", pattern)
        monkeypatch.setattr(harness, "_pmap", pmap)
        spy_graphs(monkeypatch, lambda f, d: built.append((current[-1], str(f), d)))
        monkeypatch.setattr(harness.structural, "classify", classify)
        reports = run_suites("all", 4, workers=1)
        assert all(r["passed"] for r in reports)
        texts = harness.patterns_up_to(4)
        orbits = harness._orbits(texts)
        assert current == [t for orbit in orbits for t in orbit]
        assert sorted(current) == sorted(texts)
        assert len(passes) == 1
        reps = {orbit[0] for orbit in orbits}
        assert {t for t, _, _ in built} == reps
        assert all(f in (t, t + t) for t, f, _ in built)
        assert built and len(built) == len(set(built))
        good = [t for t in texts if real_classify(Word.parse(t)).good]
        assert sorted(classified) == sorted([(t, t) for t in texts] + [(t, t + t) for t in good])

    def test_lemma21_runs_one_bfs_per_representative_graph(self, monkeypatch):
        # The scan-free BFS route is cached on each graph, and members are
        # answered by their representative's graphs: one _bfs_violation per
        # (representative, d) that lemma21 checks, in sweep order.
        ran = []

        def bfs(g):
            ran.append((str(g.pattern), g.dimension))
            return REAL_BFS(g)

        monkeypatch.setattr(oracle, "_bfs_violation", bfs)
        assert all(r["passed"] for r in run_suites("all", 5, workers=1))
        reps = [orbit[0] for orbit in harness._orbits(harness.patterns_up_to(5))]
        assert ran == [(t, d) for t in reps
                       for d in range(2, harness._probe_graph(Word.parse(t))[1] + 1)]

    def test_passing_sweep_names_no_pair(self, monkeypatch):
        # A passing lemma21 check compares source indices only, so no
        # single-source BFS row names a pair anywhere in the sweep.
        rows = []
        real_row = oracle._distance_row

        def row(g, source):
            rows.append(source)
            return real_row(g, source)

        monkeypatch.setattr(oracle, "_distance_row", row)
        assert all(r["passed"] for r in run_suites("all", 5, workers=1))
        assert rows == []

    def test_deepest_graph_of_each_check(self, monkeypatch):
        # Every graph a check builds is at most as deep as its suite's declared
        # deepest graph, and that depth is reached by some pattern.
        built = []
        spy_graphs(monkeypatch, lambda w, d: built.append((w, d)))
        for name, (_, _, check, _, deepest) in harness._SUITES.items():
            reached = False
            for text in harness.patterns_up_to(5):
                built.clear()
                p = harness._Pattern(text)
                check(p)
                bound = deepest(p.f)
                if bound is None:
                    assert built == [], (name, text)
                    continue
                assert all(d <= bound[1] for _, d in built), (name, text)
                reached = reached or bound in built
            assert reached, name

    @pytest.mark.parametrize("suite", ("all",) + harness.SUITES)
    def test_oversized_sweep_refused_before_its_first_pattern(self, monkeypatch, suite):
        # At a 500-byte limit every suite's deepest graph for 000 is over it,
        # Q_5(000) with 24 vertices the smallest; no pattern may be checked.
        def check_one(args):
            raise AssertionError(f"{args[0]} was checked")

        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 500)
        monkeypatch.setattr(harness, "_check_one", check_one)
        with pytest.raises(ValueError, match="neighbor table needs"):
            run_suites(suite, 3)

    def test_reports_deterministic(self):
        a = [json.dumps(r, sort_keys=True) for r in run_suites("all", 2)]
        b = [json.dumps(r, sort_keys=True) for r in run_suites("all", 2, workers=2)]
        assert a == b


class TestFailurePaths:
    """Each sweep with one oracle or worker call broken: the first failing
    record is the counterexample, and checked still counts every swept item."""

    def test_cross_validate(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: NO_PAIRS)
        r = run_suites("cross", 3, workers=1)[0]
        assert not r["passed"] and r["checked"] == 14
        assert r["counterexample"]["failure"] == "index-mismatch"
        assert r["counterexample"]["pattern"] == "010"
        assert r["swept"] == "all patterns of length 1..3"

    def test_cross_validate_violation_past_bound(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: (
            ONE_PAIR if g.dimension == 2 * g.pattern.length + 1 else REAL_SCAN(g)
        ))
        r = run_suites("cross", 3, workers=1)[0]
        assert not r["passed"] and r["checked"] == 14
        assert r["counterexample"] == {
            "pattern": "0",
            "structural_index": None,
            "bruteforce_index": 3,
            "failure": "index-mismatch",
        }

    def test_p_values_counts_every_bad_pattern(self, monkeypatch):
        # Every critical pair reads p = 4; which graphs have pairs is unchanged.
        monkeypatch.setattr(
            harness.oracle, "critical_p_values", lambda g: np.full_like(REAL_SCAN(g), 4)
        )
        r = run_suites("p-values", 4, workers=1)[0]
        assert not r["passed"] and r["checked"] == 10
        assert r["counterexample"]["failure"] == "minimal-p-outside-2-3"
        assert r["counterexample"]["pattern"] == "010"
        assert r["counterexample"]["min_p"] == 4

    def test_index_bound(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: (
            ONE_PAIR if g.dimension == 2 * g.pattern.length + 2 else REAL_SCAN(g)
        ))
        r = run_suites("index-bound", 3, workers=1)[0]
        assert not r["passed"] and r["checked"] == 14
        assert r["counterexample"]["failure"] == "index-mismatch"
        assert r["counterexample"]["pattern"] == "0"
        assert r["counterexample"]["bruteforce_index"] == 4

    def test_doubling(self, monkeypatch):
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: ONE_PAIR)
        r = run_suites("doubling", 3, workers=1)[0]
        assert not r["passed"] and r["checked"] == 14
        assert r["counterexample"]["failure"] == "oracle-says-doubled-is-bad"
        assert r["counterexample"]["pattern"] == "0"

    @pytest.mark.parametrize(
        "module, name, broken, check, checked, counterexample",
        [
            # length-1 patterns are good, their squares bad
            (structural, "classify",
             lambda f: Classification(f, ()) if f.length == 1 else bad_at_3(f),
             "doubling", 14,
             {"pattern": "0", "index": None, "doubled_index": 3,
              "failure": "doubling-lost-goodness"}),
            # every pattern read as good by the 2-error rule; 010 is the first bad one
            (harness, "_two_error_bad", lambda f: False, "cross", 14,
             {"pattern": "010", "structural_index": 4, "bruteforce_index": 4,
              "failure": "two-error-mismatch"}),
            (structural, "classify", first_beta_moved, "cross", 14,
             {"pattern": "010", "structural_index": 4, "bruteforce_index": 4,
              "failure": "witness-set-mismatch"}),
            (oracle, "critical_p_values", lambda g: NO_PAIRS, "monotonicity", 2,
             {"pattern": "010", "index": 4, "dimension": 5,
              "failure": "oracle-isometric-above-index"}),
            # classify breaks the symmetry on 101 alone: its orbit's
            # representative 010 has index 4 and least p 2.
            (structural, "classify", on_101(bad_at_3), "doubling", 14,
             {"pattern": "101", "index": 3, "failure": "orbit-mismatch",
              "representative": "010", "index_and_least_p": [3, 2],
              "representative_index_and_least_p": [4, 2]}),
            (structural, "classify", on_101(with_third_flip), "doubling", 14,
             {"pattern": "101", "index": 4, "failure": "orbit-mismatch",
              "representative": "010", "index_and_least_p": [4, 3],
              "representative_index_and_least_p": [4, 2]}),
            (oracle, "_bfs_violation", bfs_from_target_end, "lemma21",
             2 * 3 + 4 * 5 + 6 * 7,
             {"pattern": "010", "dimension": 4, "isometric": False, "critical_pairs": 1,
              "failure": "first-source-not-scan-endpoint",
              "violating_pair": ["0110", "0000", 4, 2], "scan_endpoint": "0000"}),
            # Source 0 flagged on Q_2(0) = {11}: no critical pair, and the
            # source's own BFS row finds no violation, so no pair is named.
            (oracle, "_bfs_violation", lambda g: 0, "lemma21", 0,
             {"pattern": "0", "dimension": 2, "isometric": False, "critical_pairs": 0,
              "failure": "equivalence-broken"}),
        ],
        ids=["lost-goodness", "two-error-mismatch", "witness-set-mismatch",
             "isometric-above-index", "orbit-mismatch-index", "orbit-mismatch-least-p",
             "source-not-scan-endpoint", "flagged-source-without-violation"],
    )
    def test_failure_kind(self, monkeypatch, module, name, broken, check, checked,
                          counterexample):
        monkeypatch.setattr(module, name, broken)
        r = run_suites(check, 3, workers=1)[0]
        assert not r["passed"] and r["checked"] == checked
        assert r["counterexample"] == counterexample

    def test_cross_index_mismatch_takes_precedence_over_orbit_mismatch(self, monkeypatch):
        # 101 read as bad at index 3 breaks the symmetry and the index both.
        monkeypatch.setattr(structural, "classify", on_101(bad_at_3))
        r = run_suites("cross", 3, workers=1)[0]
        assert not r["passed"] and r["checked"] == 14
        assert r["counterexample"] == {"pattern": "101", "structural_index": 3,
                                       "bruteforce_index": 4, "failure": "index-mismatch"}

    def test_member_failure_names_its_own_words(self, monkeypatch):
        # The scan reads as empty on every graph: 010 fails on its own graphs,
        # and so does 101, whose record names a pair of Q_4(101), as the
        # per-pattern check does, not 010's.
        monkeypatch.setattr(AvoidanceGraph, "_critical_pairs",
                            property(lambda g: (NO_PAIRS, NO_PAIRS)))
        check = harness._critical_equivalence_one
        (rep,), (member,) = harness._check_one((["010", "101"], (check,)))
        assert rep["violating_pair"] == ["0000", "0110", 4, 2]
        assert member["violating_pair"] == ["1001", "1111", 4, 2]
        assert member == check(harness._Pattern("101"))

    def test_cross_index_mismatch_takes_precedence(self, monkeypatch):
        # 010 is bad, but the oracle and the 2-error rule both call it good.
        monkeypatch.setattr(harness.oracle, "critical_p_values", lambda g: NO_PAIRS)
        monkeypatch.setattr(harness, "_two_error_bad", lambda f: False)
        r = run_suites("cross", 3, workers=1)[0]
        assert r["counterexample"] == {"pattern": "010", "structural_index": 4,
                                       "bruteforce_index": None, "failure": "index-mismatch"}

    def test_monotonicity(self, monkeypatch):
        monkeypatch.setattr(
            harness.structural, "verify_witness", lambda w: "broken"
        )
        r = run_suites("monotonicity", 4, workers=1)[0]
        assert not r["passed"] and r["checked"] == 10
        assert r["counterexample"]["failure"] == "lifted-witness-rejected"
        assert r["counterexample"]["reason"] == "broken"
        assert r["counterexample"]["dimension"] == 5

    def test_critical_equivalence(self, monkeypatch):
        # Every graph's critical-pair scan reads as empty.
        monkeypatch.setattr(AvoidanceGraph, "_critical_pairs",
                            property(lambda g: (NO_PAIRS, NO_PAIRS)))
        r = run_suites("lemma21", 3, workers=1)[0]
        assert not r["passed"]
        # "010" and "101" fail at d=4; every other pattern checks all its dimensions
        assert r["checked"] == 2 * 3 + 4 * 5 + 6 * 7
        assert r["counterexample"]["failure"] == "equivalence-broken"
        assert r["counterexample"]["critical_pairs"] == 0
        assert r["counterexample"]["dimension"] == 4
        assert r["counterexample"]["pattern"] == "010"
        assert r["counterexample"]["violating_pair"] == ["0000", "0110", 4, 2]

    def test_overlap_machinery_stops_at_its_first_failure(self, monkeypatch):
        calls = []
        monkeypatch.setattr(periodicity, "is_single_cycle",
                            lambda g: calls.append(g) and False)
        r = harness.check_overlap_machinery()
        assert r["counterexample"] == {"r": 1, "s": 1, "failure": "not-a-single-cycle"}
        assert len(calls) == 1 and r["checked"] == 144

    @pytest.mark.parametrize(
        "name, broken, failure",
        [
            ("is_single_cycle", lambda g: False, "not-a-single-cycle"),
            ("residue_sequence", lambda k1, k2: [], "residue-walk-broken"),
            ("build_overlap_graph", rotated_y_slots, "residue-walk-broken"),
            ("period_closure_check", lambda f, r, s: False, "period-check-broken"),
        ],
        ids=["single-cycle", "residue-walk", "relabeled-y-slots", "period-check"],
    )
    def test_overlap_machinery(self, monkeypatch, name, broken, failure):
        monkeypatch.setattr(periodicity, name, broken)
        r = harness.check_overlap_machinery()
        assert not r["passed"] and r["checked"] == 144
        assert r["counterexample"]["failure"] == failure
        assert r["swept"] == "period pairs 1..12, plus concrete words for three pairs"


class TestNeighborTable:
    """The scan reads each graph's grown forbidden-flip mask, so only the
    lemma21 route's bit-parallel BFS builds a neighbor table."""

    def test_census_oracle_confirmation_builds_no_table(self, monkeypatch):
        want = census(7, oracle_confirm=True)
        forbid_neighbor_table(monkeypatch)
        assert census(7, oracle_confirm=True) == want

    @pytest.mark.parametrize("suite", [s for s in harness.SUITES if s != "lemma21"])
    def test_suites_past_lemma21_build_no_table(self, monkeypatch, suite):
        want = run_suites(suite, 5, workers=1)
        forbid_neighbor_table(monkeypatch)
        assert run_suites(suite, 5, workers=1) == want

    def test_lemma21_builds_tables(self, monkeypatch):
        forbid_neighbor_table(monkeypatch)
        with pytest.raises(AssertionError, match="built a neighbor table"):
            run_suites("lemma21", 5, workers=1)
