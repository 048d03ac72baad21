import math
from itertools import product

import pytest

from fibocube import periodicity
from fibocube.periodicity import (
    OverlapGraph,
    build_overlap_graph,
    equations,
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
        assert (g.k1, g.k2) == (10, 3)
        assert len(g.edges) == 26

    def test_1_1_is_4_cycle(self):
        g = build_overlap_graph(1, 1)
        assert len(g.x_vertices) + len(g.y_vertices) == 4
        assert len(g.edges) == 4
        assert is_single_cycle(g)

    def test_2_4_is_6_cycle(self):
        g = build_overlap_graph(2, 4)
        assert (g.k1, g.k2) == (1, 2)
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
            return OverlapGraph(1, 1, xs, ys, tuple(edges))

        cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        other = [("e", "f"), ("f", "g"), ("g", "h"), ("h", "e")]
        path = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "g"),
                ("g", "h")]
        assert is_single_cycle(graph(path + [("h", "a")]))
        assert not is_single_cycle(graph(cycle + other))
        assert not is_single_cycle(graph(path))

    def test_single_cycle_edge_cases(self):
        # No vertex is no cycle; a doubled edge and a self-loop each give
        # their vertices degree 2 and close a cycle; an edge to a vertex the
        # graph does not list is refused.
        assert not is_single_cycle(OverlapGraph(1, 1, (), (), ()))
        assert is_single_cycle(OverlapGraph(1, 1, ("a",), ("b",), (("a", "b"), ("a", "b"))))
        assert is_single_cycle(OverlapGraph(1, 1, ("a",), (), (("a", "a"),)))
        assert not is_single_cycle(
            OverlapGraph(1, 1, ("a",), ("b",), (("a", "b"), ("b", "a"), ("a", "c")))
        )
        assert not is_single_cycle(OverlapGraph(1, 1, ("a",), ("b",), (("a", "c"), ("c", "a"))))

    def test_dropping_one_equation_still_joins_its_positions(self):
        # The single-cycle argument: without one equation vertex, the rest of
        # the cycle is a path from one of its positions to the other.
        for r, s in product(range(1, 9), repeat=2):
            g = build_overlap_graph(r, s)
            for x in g.x_vertices:
                edges = [set(e) for e in g.edges if x not in e]
                a, b = (p for y, p in g.edges if y == x)
                reached = {a}
                while grown := {v for e in edges if e & reached for v in e} - reached:
                    reached |= grown
                assert b in reached, (r, s, x)

    def test_4_6_edges(self):
        # g = 2: equation (2, i) joins v1_i to positions 1+(i-1)2 and 7+(i-1)2,
        # (3, j) joins v3_j to 1+(j-1)2 and 5+(j-1)2; position 1+(j-1)2 is v2_j.
        g = build_overlap_graph(4, 6)
        assert g.x_vertices == ("v1_1", "v1_2", "v3_1", "v3_2", "v3_3")
        assert g.y_vertices == ("v2_1", "v2_2", "v2_3", "v2_4", "v2_5")
        assert g.edges == (
            ("v1_1", "v2_1"), ("v1_1", "v2_4"), ("v1_2", "v2_2"), ("v1_2", "v2_5"),
            ("v3_1", "v2_1"), ("v3_1", "v2_3"), ("v3_2", "v2_2"), ("v3_2", "v2_4"),
            ("v3_3", "v2_3"), ("v3_3", "v2_5"),
        )

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
        # g = 3: two gap-9 equations and three gap-6 ones over 1, 4, 7, 10, 13.
        assert equations(6, 9) == {
            (2, 1): (1, 10), (2, 2): (4, 13),
            (3, 1): (1, 7), (3, 2): (4, 10), (3, 3): (7, 13),
        }

    def test_each_call_returns_a_fresh_dict(self):
        # A caller's edits must not reach the next caller.
        eqs = equations(2, 3)
        eqs[2, 1] = (1, 2)
        del eqs[3, 1]
        assert equations(2, 3) == {
            (2, 1): (1, 4), (2, 2): (2, 5), (3, 1): (1, 3), (3, 2): (2, 4), (3, 3): (3, 5),
        }

    @pytest.mark.parametrize("r, s", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_nonpositive_periods(self, r, s):
        with pytest.raises(ValueError, match=rf"periods must be positive, got r={r}, s={s}"):
            equations(r, s)


class TestPeriodClosureCheck:
    def test_constant_word(self):
        assert period_closure_check(Word.parse("0000"), 1, 3) is True

    def test_alternating_word(self):
        assert period_closure_check(Word.parse("010101"), 2, 4) is True

    def test_vacuous_when_hypotheses_fail(self):
        assert period_closure_check(Word.parse("011010"), 2, 4) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            period_closure_check(Word.parse("0101"), 2, 4)

    @pytest.mark.parametrize("r, s", [(0, 4), (4, 0), (-1, 5)])
    def test_rejects_nonpositive_periods(self, r, s):
        with pytest.raises(ValueError, match=rf"periods must be positive, got r={r}, s={s}"):
            period_closure_check(Word.parse("0101"), r, s)

    def test_never_fails_exhaustively(self):
        # The conclusion is entailed by the hypotheses, so it is never False.
        for r, s in [(1, 3), (2, 4), (3, 3), (2, 3)]:
            n = r + s
            for bits in product("01", repeat=n):
                res = period_closure_check(Word.parse("".join(bits)), r, s)
                assert res is not False

    def test_vacuous_exactly_when_a_period_fails(self):
        # Reference: t has period p when t[p:] == t[:-p], read from the string.
        for r, s in product(range(1, 7), repeat=2):
            for bits in product("01", repeat=r + s):
                t = "".join(bits)
                res = period_closure_check(Word.parse(t), r, s)
                assert res is not False, (t, r, s)
                assert (res is None) == (not (t[r:] == t[:-r] and t[s:] == t[:-s])), (t, r, s)
