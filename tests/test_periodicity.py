import math
from itertools import combinations, product

import pytest

from fibocube import periodicity
from fibocube.periodicity import (
    OverlapGraph,
    build_overlap_graph,
    closure_implies,
    equation_system,
    is_single_cycle,
    period_closure_check,
    residue_sequence,
)
from fibocube.words import Word


def degrees(graph):
    out = {v: 0 for v in graph.x_vertices + graph.y_vertices}
    for a, b in graph.edges:
        out[a] += 1
        out[b] += 1
    return out


class TestOverlapGraph:
    def test_k1_10_k2_3_shape(self):
        g = build_overlap_graph(10, 3)
        assert (g.k1, g.k2) == (10, 3)
        assert len(g.x_vertices) == 13
        assert len(g.y_vertices) == 13
        assert len(g.edges) == 26
        assert is_single_cycle(g)

    def test_scaled_parameters_give_same_shape(self):
        g = build_overlap_graph(20, 6)
        assert (g.g, g.k1, g.k2) == (2, 10, 3)
        assert len(g.edges) == 26

    def test_1_1_is_4_cycle(self):
        g = build_overlap_graph(1, 1)
        assert len(g.x_vertices) + len(g.y_vertices) == 4
        assert len(g.edges) == 4
        assert is_single_cycle(g)

    def test_2_4_is_6_cycle(self):
        g = build_overlap_graph(2, 4)
        assert (g.g, g.k1, g.k2) == (2, 1, 2)
        assert len(g.edges) == 6
        assert is_single_cycle(g)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_overlap_graph(0, 3)
        with pytest.raises(ValueError):
            build_overlap_graph(3, -1)

    def test_vertex_limit(self, monkeypatch):
        # 2(k1 + k2) vertices: (3, 1) has 8, (4, 1) has 10, (8, 2) reduces to (4, 1).
        monkeypatch.setattr(periodicity, "MAX_OVERLAP_VERTICES", 8)
        assert len(build_overlap_graph(3, 1).edges) == 8
        assert len(build_overlap_graph(6, 2).edges) == 8
        for r, s in [(4, 1), (8, 2)]:
            with pytest.raises(ValueError, match=rf"s={s} has 10 vertices, over the limit of 8$"):
                build_overlap_graph(r, s)

    def test_sweep_two_regular_bipartite_single_cycle(self):
        for r in range(1, 9):
            for s in range(1, 9):
                g = build_overlap_graph(r, s)
                degs = degrees(g)
                assert all(d == 2 for d in degs.values())
                xs = set(g.x_vertices)
                assert all((a in xs) != (b in xs) for a, b in g.edges)
                assert len(g.edges) == 2 * (g.k1 + g.k2)
                assert is_single_cycle(g)

    def test_single_cycle_rejects_two_cycles_and_a_path(self):
        def graph(edges):
            xs, ys = ("a", "c", "e", "g"), ("b", "d", "f", "h")
            return OverlapGraph(1, 1, 1, 1, 1, xs, ys, tuple(edges))

        cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        other = [("e", "f"), ("f", "g"), ("g", "h"), ("h", "e")]
        path = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "g"),
                ("g", "h")]
        assert is_single_cycle(graph(path + [("h", "a")]))
        assert not is_single_cycle(graph(cycle + other))
        assert not is_single_cycle(graph(path))

    def test_edges_match_equation_positions(self):
        # Contracting the tautology edges must leave exactly the gap-s and
        # gap-r equations, as position pairs.
        for r, s in [(1, 1), (2, 3), (4, 6), (10, 3), (2, 4)]:
            g = build_overlap_graph(r, s)
            sys_ = equation_system(r, s, base=1)
            slot_pos = {i + 1: p for i, p in enumerate(sys_.span)}
            contracted = []
            for a, b in g.edges:
                sa, sb = g.denoted_index(a), g.denoted_index(b)
                if sa != sb:
                    contracted.append(frozenset((slot_pos[sa], slot_pos[sb])))
            wanted = [
                frozenset(pair)
                for pair in list(sys_.type2.values()) + list(sys_.type3.values())
            ]
            assert sorted(map(sorted, contracted)) == sorted(map(sorted, wanted))

    def test_dot_output(self):
        dot = build_overlap_graph(1, 1).to_dot()
        assert dot.startswith('graph "overlap_1_1"')
        assert dot.count("--") == 4


class TestResidueSequence:
    def test_10_3(self):
        seq = residue_sequence(10, 3)
        assert seq == [0, 10, 7, 4, 1, 11, 8, 5, 2, 12, 9, 6, 3]
        assert seq[-1] == 3

    def test_1_1(self):
        assert residue_sequence(1, 1) == [0, 1]

    def test_2_3(self):
        assert residue_sequence(2, 3) == [0, 2, 4, 1, 3]

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            residue_sequence(2, 4)
        with pytest.raises(ValueError):
            residue_sequence(0, 3)

    def test_permutation_ending_at_k2_sweep(self):
        for k1 in range(1, 40):
            for k2 in range(1, 40 - k1 + 1):
                if math.gcd(k1, k2) != 1:
                    continue
                seq = residue_sequence(k1, k2)
                assert sorted(seq) == list(range(k1 + k2))
                assert seq[-1] == k2
                assert k2 not in seq[:-1]


class TestEquationSystem:
    def test_counts(self):
        sys_ = equation_system(6, 9, base=2)
        assert (sys_.g, sys_.k1, sys_.k2) == (3, 2, 3)
        assert len(sys_.type2) == 2
        assert len(sys_.type3) == 3
        assert sys_.span == (2, 5, 8, 11, 14)
        assert sys_.type2[1] == (2, 11)
        assert sys_.type3[2] == (5, 11)


    @pytest.mark.parametrize("r, s", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_nonpositive_periods(self, r, s):
        with pytest.raises(ValueError, match=rf"periods must be positive, got r={r}, s={s}"):
            equation_system(r, s)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError, match="base position must be positive, got 0"):
            equation_system(2, 3, base=0)


class TestClosure:
    def test_two_unit_gaps_force_the_double_gap(self):
        # Positions t, t+1, t+2 with both unit-gap equalities assumed.
        assert closure_implies(2, 1, {(2, 1), (2, 2)}, (1, 3))
        assert not closure_implies(2, 1, {(2, 1)}, (1, 3))

    def test_all_but_one_forces_the_missing_one(self):
        r, s = 6, 9
        sys_ = equation_system(r, s)
        for missing_kind, missing_idx in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
            assumed = {(2, i) for i in sys_.type2} | {(3, j) for j in sys_.type3}
            assumed.discard((missing_kind, missing_idx))
            pair = (sys_.type2 if missing_kind == 2 else sys_.type3)[missing_idx]
            assert closure_implies(r, s, assumed, pair)

    def test_two_gap_s_deletions_cross_tie(self):
        # Dropping gap-s equations i1, i2 still ties each left end to the
        # other's right end, but no longer to its own.
        r, s = 2, 3
        sys_ = equation_system(r, s)
        assumed = {(3, j) for j in sys_.type3}
        p1, p2 = sys_.type2[1], sys_.type2[2]
        assert closure_implies(r, s, assumed, (p1[0], p2[1]))
        assert closure_implies(r, s, assumed, (p2[0], p1[1]))
        assert not closure_implies(r, s, assumed, p1)
        assert not closure_implies(r, s, assumed, p2)

    def test_one_deletion_of_each_kind_cross_tie(self):
        r, s = 4, 6
        sys_ = equation_system(r, s)
        i1, j1 = 2, 1
        assumed = ({(2, i) for i in sys_.type2} | {(3, j) for j in sys_.type3}) - {
            (2, i1),
            (3, j1),
        }
        pi, pj = sys_.type2[i1], sys_.type3[j1]
        assert closure_implies(r, s, assumed, (pi[0], pj[0]))
        assert closure_implies(r, s, assumed, (pi[1], pj[1]))
        assert not closure_implies(r, s, assumed, pi)
        assert not closure_implies(r, s, assumed, pj)

    def test_full_assumption_connects_congruent_positions(self):
        for r, s in [(2, 3), (4, 6), (3, 5)]:
            sys_ = equation_system(r, s)
            assumed = {(2, i) for i in sys_.type2} | {(3, j) for j in sys_.type3}
            for a in sys_.span:
                for b in sys_.span:
                    assert closure_implies(r, s, assumed, (a, b))

    def test_monotone_in_assumptions_exhaustive(self):
        r, s = 2, 3
        sys_ = equation_system(r, s)
        ids = [(2, i) for i in sys_.type2] + [(3, j) for j in sys_.type3]
        queries = list(combinations(sys_.span, 2))
        for k in range(len(ids)):
            for subset in combinations(ids, k):
                base = {q: closure_implies(r, s, set(subset), q) for q in queries}
                for extra in ids:
                    if extra in subset:
                        continue
                    grown = set(subset) | {extra}
                    for q in queries:
                        if base[q]:
                            assert closure_implies(r, s, grown, q)

    def test_sound_against_concrete_words(self):
        # Whenever every assumed equation holds bitwise on a word, every
        # forced equality must hold bitwise too.
        for r, s in [(1, 2), (2, 3), (2, 4)]:
            sys_ = equation_system(r, s)
            n = max(max(p) for p in list(sys_.type2.values()) + list(sys_.type3.values()))
            ids = [(2, i) for i in sys_.type2] + [(3, j) for j in sys_.type3]
            pairs = {eq: (sys_.type2 if eq[0] == 2 else sys_.type3)[eq[1]] for eq in ids}
            for bits in product("01", repeat=n):
                f = Word.parse("".join(bits))
                assumed = {
                    eq for eq, (a, b) in pairs.items() if f.bit(a) == f.bit(b)
                }
                for qa, qb in combinations(sys_.span, 2):
                    if closure_implies(r, s, assumed, (qa, qb)):
                        assert f.bit(qa) == f.bit(qb)

    def test_malformed_ids_and_bad_queries(self):
        with pytest.raises(ValueError):
            closure_implies(2, 3, {(4, 1)}, (1, 2))
        with pytest.raises(ValueError):
            closure_implies(2, 3, {(2, 99)}, (1, 2))
        with pytest.raises(ValueError):
            closure_implies(2, 3, {"nope"}, (1, 2))
        with pytest.raises(ValueError):
            closure_implies(2, 3, set(), (1, 99))


class TestPeriodClosureCheck:
    def test_constant_word(self):
        res = period_closure_check(Word.parse("0000"), 1, 3)
        assert res.ok and not res.vacuous
        assert bool(res)

    def test_alternating_word(self):
        res = period_closure_check(Word.parse("010101"), 2, 4)
        assert res.ok and not res.vacuous

    def test_vacuous_when_hypotheses_fail(self):
        res = period_closure_check(Word.parse("011010"), 2, 4)
        assert res.ok and res.vacuous

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            period_closure_check(Word.parse("0101"), 2, 4)

    @pytest.mark.parametrize("r, s", [(0, 4), (4, 0), (-1, 5)])
    def test_rejects_nonpositive_periods(self, r, s):
        with pytest.raises(ValueError, match=rf"periods must be positive, got r={r}, s={s}"):
            period_closure_check(Word.parse("0101"), r, s)

    def test_never_fails_exhaustively(self):
        # The conclusion is entailed by the hypotheses, so ok is always True.
        for r, s in [(1, 3), (2, 4), (3, 3), (2, 3)]:
            n = r + s
            for bits in product("01", repeat=n):
                res = period_closure_check(Word.parse("".join(bits)), r, s)
                assert res.ok
