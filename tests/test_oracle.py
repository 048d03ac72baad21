import ast
import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibocube import oracle
from fibocube.harness import all_patterns, patterns_up_to
from fibocube.oracle import (
    UNREACHABLE,
    AvoidanceGraph,
    _bfs_violation,
    _distances,
    build_graph,
    critical_p_values,
    find_critical_pairs,
    first_violation_dimension,
    graph_distance,
    graph_to_dot,
    graph_to_json_dict,
    index_bruteforce,
    is_isometric,
)
from fibocube.words import Word, hamming


def W(text):
    return Word.parse(text)


# Vertex set of Q_4(101), frozen from independent string-level enumeration.
Q4_101_VERTICES = [
    "0000", "0001", "0010", "0011", "0100", "0110",
    "0111", "1000", "1001", "1100", "1110", "1111",
]

FIBONACCI_COUNTS = [
    2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 6765,
    10946, 17711, 28657, 46368, 75025, 121393, 196418,
]


def popcount(x, d):
    return sum((x >> k) & 1 for k in range(d))


def reference_verdict(g):
    """Isometry from full distance matrices of every 64-source batch: the
    first (source, target) pair in index order whose distances differ."""
    verts, d = g.vertices, g.dimension
    if g.vertex_count <= 1:
        return (True, None)
    for lo in range(0, g.vertex_count, 64):
        idx = np.arange(lo, min(lo + 64, g.vertex_count))
        dist = _distances(g, idx)
        ham = popcount(verts[idx, None] ^ verts[None, :], d)
        viol = np.argwhere(dist != ham)
        if viol.size:
            i, j = viol[0]
            dg = UNREACHABLE if dist[i, j] < 0 else int(dist[i, j])
            return (False, (str(Word(d, int(verts[idx[i]]))), str(Word(d, int(verts[j]))),
                            dg, int(ham[i, j])))
    return (True, None)


def reference_vertices(f, d):
    """Every length-d word avoiding f, by testing each of the d - |f| + 1
    windows of all 2^d words."""
    values = np.arange(1 << d, dtype=np.int64)
    contains = np.zeros(values.shape, dtype=bool)
    mask = (1 << f.length) - 1
    for shift in range(d - f.length + 1):
        contains |= ((values >> shift) & mask) == f.bits
    return values[~contains]


def assert_vertices_match_reference(f, d):
    got, want = build_graph(f, d).vertices, reference_vertices(f, d)
    assert got.dtype == want.dtype == np.int64, (str(f), d)
    assert np.array_equal(got, want), (str(f), d)


def reference_critical_pairs(g):
    """Definition scan over all vertex pairs, 128 rows at a time: Hamming
    distance at least 2 and every differing position a forbidden flip of
    one endpoint."""
    verts, n, d = g.vertices, g.vertex_count, g.dimension
    if n < 2:
        return []
    forb = g.forbidden_flip_mask
    cols = np.arange(n)[None, :]
    found = []
    for lo in range(0, n, 128):
        hi = min(lo + 128, n)
        x = verts[lo:hi, None] ^ verts[None, :]
        pops = popcount(x, d)
        block_a = (x & ~forb[lo:hi, None]) == 0
        block_b = (x & ~forb[None, :]) == 0
        crit = (pops >= 2) & (block_a | block_b) & (cols > np.arange(lo, hi)[:, None])
        for i, j in np.argwhere(crit):
            side = "both" if block_a[i, j] and block_b[i, j] else (
                "alpha" if block_a[i, j] else "beta"
            )
            found.append((str(Word(d, int(verts[lo + i]))), str(Word(d, int(verts[j]))),
                          int(pops[i, j]), side))
    return found


def reference_bfs(vertices, source):
    """Queue BFS over word strings: distance to every vertex reachable from source."""
    dist = {source: 0}
    queue = [source]
    for u in queue:
        for i in range(len(u)):
            v = u[:i] + ("1" if u[i] == "0" else "0") + u[i + 1:]
            if v in vertices and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestBuildGraph:
    def test_fibonacci_cube_d4(self):
        assert build_graph(W("11"), 4).vertex_count == 8

    def test_pattern_1_leaves_one_vertex(self):
        g = build_graph(W("1"), 3)
        assert [str(w) for w in g.words()] == ["000"]

    def test_q4_101_exact_vertex_set(self):
        g = build_graph(W("101"), 4)
        assert [str(w) for w in g.words()] == Q4_101_VERTICES
        assert g.vertex_count == 12

    def test_longer_pattern_gives_full_cube(self):
        g = build_graph(W("0110"), 3)
        assert g.vertex_count == 8

    def test_fibonacci_recurrence(self):
        counts = [build_graph(W("11"), d).vertex_count for d in range(1, 26)]
        assert counts == FIBONACCI_COUNTS
        for i in range(2, len(counts)):
            assert counts[i] == counts[i - 1] + counts[i - 2]

    def test_full_cube_iff_pattern_longer_than_dimension(self):
        for nf in range(1, 4):
            for bits in product("01", repeat=nf):
                f = W("".join(bits))
                for d in range(1, 5):
                    count = build_graph(f, d).vertex_count
                    assert (count == 1 << d) == (f.length > d)

    def test_dimension_cap(self):
        # There is none: graphs are refused by their size.  Q_24(1^25) is the
        # whole 24-cube, whose table needs 8 * 24 * 2^24 bytes.
        with pytest.raises(ValueError, match=r"16777216 vertices; .* 3\.0 GiB, over the 1 GiB"):
            build_graph(W("1" * 25), 24)
        assert build_graph(W("11"), 26).vertex_count == 317811

    def test_dimension_bounded_by_int64_whatever_the_cap(self):
        with pytest.raises(ValueError, match="1..63 .*int64"):
            build_graph(W("01"), 64)
        g = build_graph(W("01"), 63)
        assert g.vertex_count == 64
        assert (g.vertices >= 0).all()
        # The words 1^a 0^b form a path, which is isometric.
        assert is_isometric(g).isometric

    @pytest.mark.parametrize("length", range(1, 7))
    def test_matches_window_filter(self, length):
        for text in all_patterns(length):
            for d in range(1, 15):
                assert_vertices_match_reference(W(text), d)

    @pytest.mark.parametrize(
        "text, d",
        [
            ("1111111111", 20), ("0101010101", 20), ("0000000", 13), ("1010101", 13),
            ("0011", 10),
            # Patterns longer than d: the whole cube.
            ("0110", 3), ("0" * 30, 12), ("10" * 20, 16),
        ],
    )
    def test_matches_window_filter_larger(self, text, d):
        assert_vertices_match_reference(W(text), d)


def assert_flip_tables_match_reference(g):
    """Entry [v, k] of the neighbor table names the vertex word v ^ (1 << k),
    or is -1 exactly when that word is no vertex; bit k of the forbidden-flip
    mask marks the -1 entries."""
    verts, d = g.vertices, g.dimension
    table, forb = g.neighbor_table, g.forbidden_flip_mask
    assert table.shape == (verts.size, d) and table.dtype == forb.dtype == np.int64
    for k in range(d):
        nb = verts ^ (1 << k)
        member = np.isin(nb, verts)
        assert np.array_equal(table[:, k] >= 0, member), k
        assert np.array_equal(verts[table[member, k]], nb[member]), k
        assert np.array_equal((forb >> k) & 1, (~member).astype(np.int64)), k
    assert not (forb >> d).any()


def without_dense_index(monkeypatch):
    monkeypatch.setattr(AvoidanceGraph, "_dense_index", property(lambda self: None))


class TestWordLookup:
    @pytest.mark.parametrize("dense", [True, False], ids=["as-built", "binary-search"])
    def test_flip_tables_match_reference(self, monkeypatch, dense):
        if not dense:
            without_dense_index(monkeypatch)
        for text in patterns_up_to(5):
            for d in range(1, 2 * len(text) + 3):
                assert_flip_tables_match_reference(build_graph(W(text), d))
        assert_flip_tables_match_reference(build_graph(W("11"), 22))
        assert_flip_tables_match_reference(build_graph(W("01"), 63))

    @pytest.mark.parametrize(
        "text, d, dense",
        [("0000000", 13, True), ("01101", 9, True),
         ("11", 22, False), ("01", 25, False), ("01", 63, False),
         # Either side of 2^d = d * V: 4096 <= 4524, 8192 > 7930, 65536 <= 66880.
         ("11", 12, True), ("11", 13, False), ("001", 16, True)],
    )
    def test_dense_index_only_when_no_larger_than_the_table(self, text, d, dense):
        g = build_graph(W(text), d)
        index = g._dense_index
        assert (index is not None) == dense
        if dense:
            assert index.size == 1 << d <= g.neighbor_table.size
            assert np.array_equal(index[g.vertices], np.arange(g.vertex_count))
            assert (np.delete(index, g.vertices) == -1).all()

    def test_only_the_lookup_binary_searches(self):
        # The dense index replaces every binary search it can; the one
        # fallback for sparse graphs lives in _lookup.
        path = Path(oracle.__file__)
        tree = ast.parse(path.read_text(), str(path))
        parent = {c: node for node in ast.walk(tree) for c in ast.iter_child_nodes(node)}
        callers = []
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "searchsorted":
                continue
            while node in parent and not isinstance(node, ast.FunctionDef):
                node = parent[node]
            callers.append(getattr(node, "name", None))
        assert callers == ["_lookup"]


def assert_rows_match_batch_engine(g, sources, lanes=1):
    """The frontier BFS from each source equals its row of the 64-lane
    engine, run on `lanes` of the sources at a time (its lanes do not
    interact, so a batch gives each source's single-lane row)."""
    sources = np.asarray(sources, dtype=np.int64)
    for lo in range(0, sources.size, lanes):
        batch = sources[lo : lo + lanes]
        for s, expected in zip(batch.tolist(), _distances(g, batch)):
            row = oracle._distance_row(g, s)
            assert row.dtype == np.int64 and np.array_equal(row, expected), s


# Hand-built vertex sets: no enumerated graph of length <= 6 at d <= 12 is
# disconnected.  Each case: pattern, vertex words, the first violating pair.
DISCONNECTED_SUBGRAPHS = [
    # 00 and 11 without 01 or 10 between them: no edges at all.
    pytest.param("01", ["00", "11"], ("00", "11", UNREACHABLE, 2), id="no-edges"),
    # The path 0001-0000-1000 runs three levels, which is what each pair with
    # the isolated 0111 counts, against Hamming distances 2, 3 and 4: the sums
    # agree, and only the reach test catches it.
    pytest.param(
        "1111", ["0000", "0001", "0111", "1000"], ("0000", "0111", UNREACHABLE, 3),
        id="sums-agree",
    ),
]


def hand_built_graph(pattern, words):
    return AvoidanceGraph(W(pattern), len(words[0]), np.array([int(w, 2) for w in words]))


class TestDistanceRow:
    """The single-source frontier BFS against the bit-parallel batch engine,
    through both word lookups."""

    @pytest.fixture(autouse=True, params=["as-built", "binary-search"])
    def lookup(self, request, monkeypatch):
        if request.param == "binary-search":
            without_dense_index(monkeypatch)

    def test_every_source_of_short_patterns(self):
        for text in patterns_up_to(4):
            for d in range(1, 2 * len(text) + 3):
                g = build_graph(W(text), d)
                assert_rows_match_batch_engine(g, range(g.vertex_count), lanes=64)

    @pytest.mark.parametrize(
        "text, d", [("0000000", 13), ("1010101", 13), ("0110110", 13), ("0011", 7), ("0011", 10)]
    )
    def test_large_graphs(self, text, d):
        g = build_graph(W(text), d)
        n = g.vertex_count
        sources = {0, n // 2, n - 1}
        endpoints = g._critical_pairs[0]
        if endpoints.size:
            sources.add(int(endpoints.min()))
        assert_rows_match_batch_engine(g, sorted(sources))

    @pytest.mark.parametrize("pattern, words, expected", DISCONNECTED_SUBGRAPHS)
    def test_disconnected_subgraphs(self, pattern, words, expected):
        g = hand_built_graph(pattern, words)
        assert_rows_match_batch_engine(g, range(g.vertex_count))
        source, target = (words.index(w) for w in expected[:2])
        assert oracle._distance_row(g, source)[target] == -1


def assert_distances_match_reference_bfs(g):
    ws = [str(w) for w in g.words()]
    for a in ws:
        dist = reference_bfs(set(ws), a)
        for b in ws:
            assert graph_distance(g, W(a), W(b)) == dist.get(b, UNREACHABLE)


class TestGraphDistance:
    def test_detour_distance(self):
        g = build_graph(W("101"), 4)
        assert graph_distance(g, W("1111"), W("1001")) == 4
        assert hamming(W("1111"), W("1001")) == 2

    def test_self_distance(self):
        g = build_graph(W("101"), 4)
        assert graph_distance(g, W("0110"), W("0110")) == 0

    def test_short_detour(self):
        g = build_graph(W("101"), 3)
        assert graph_distance(g, W("010"), W("111")) == 2

    def test_non_vertex_rejected(self):
        g = build_graph(W("101"), 4)
        with pytest.raises(ValueError):
            graph_distance(g, W("1010"), W("0000"))

    # The path 000 - 001 - 011, labelled 11 although 011 contains 11: the
    # vertex array decides membership, not the label.
    def test_hand_built_vertex_despite_its_label(self):
        g = hand_built_graph("11", ["000", "001", "011"])
        assert graph_distance(g, W("000"), W("011")) == 2
        assert graph_distance(g, W("011"), W("000")) == 2

    def test_hand_built_non_vertex_rejected(self):
        # 010 avoids the label 11 but is not in the vertex array.
        g = hand_built_graph("11", ["000", "001", "011"])
        with pytest.raises(ValueError, match=r"^010 is not a vertex of Q_3\(11\)$"):
            graph_distance(g, W("000"), W("010"))

    @pytest.mark.parametrize("other", ["01", "0011", "0000"])
    def test_wrong_length_endpoint_named(self, other):
        g = hand_built_graph("11", ["000", "001", "011"])
        with pytest.raises(ValueError, match=rf"^{other} is not a vertex of Q_3\(11\)$"):
            graph_distance(g, W("000"), W(other))
        with pytest.raises(ValueError, match=rf"^{other} is not a vertex of Q_3\(11\)$"):
            graph_distance(g, W(other), W("001"))

    def test_empty_graph_has_no_vertex(self):
        g = AvoidanceGraph(W("11"), 3, np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match=r"^000 is not a vertex of Q_3\(11\)$"):
            graph_distance(g, W("000"), W("000"))

    def test_distance_at_least_hamming(self):
        g = build_graph(W("101"), 4)
        ws = list(g.words())
        strict = 0
        for a in ws:
            for b in ws:
                d = graph_distance(g, a, b)
                assert d >= hamming(a, b)
                if d > hamming(a, b):
                    strict += 1
        assert strict > 0

    @pytest.mark.parametrize("pattern, d", [("101", 4), ("0011", 6), ("11", 7)])
    def test_matches_reference_bfs(self, pattern, d):
        assert_distances_match_reference_bfs(build_graph(W(pattern), d))

    @pytest.mark.parametrize("pattern, d", [("101", 4), ("0011", 6), ("11", 7)])
    def test_matches_reference_bfs_by_binary_search(self, monkeypatch, pattern, d):
        without_dense_index(monkeypatch)
        assert_distances_match_reference_bfs(build_graph(W(pattern), d))


class TestIsIsometric:
    def test_q3_101_isometric(self):
        assert is_isometric(build_graph(W("101"), 3)).isometric

    # is_isometric names each pair with one BFS.  The scan-free route that
    # lemma21 checks finds the last two cases' first violating source in its
    # second and third batch of 64 BFS sources (indices 80 of 96 and 153 of
    # 228), and must name the same pair.
    @pytest.mark.parametrize(
        "pattern, d, expected",
        [
            pytest.param("101", 4, ("1001", "1111", 4, 2), id="Q4-101"),
            pytest.param("1100", 7, ("1101000", "1110100", 5, 3), id="Q7-1100"),
            pytest.param("10101", 8, ("10100101", "10111101", 4, 2), id="Q8-10101"),
        ],
    )
    def test_q4_101_violation(self, pattern, d, expected):
        v = is_isometric(build_graph(W(pattern), d))
        assert not v.isometric
        alpha, beta, dg, h = v.violating_pair
        assert (str(alpha), str(beta), dg, h) == expected
        assert _bfs_violation(build_graph(W(pattern), d)) == v.violating_pair

    def test_names_pair_with_one_single_source_bfs(self, monkeypatch):
        # One frontier BFS, from the least critical-pair endpoint (alpha is
        # the lexicographically first side of each pair); neither the batch
        # sum pass nor the 64-lane engine runs.
        pairs = find_critical_pairs(build_graph(W("1010101"), 13))
        g = build_graph(W("1010101"), 13)
        least = int(np.searchsorted(g.vertices, min(p.alpha.bits for p in pairs)))
        sources = []
        real_row = oracle._distance_row

        def row(g, source):
            sources.append(source)
            return real_row(g, source)

        def refuse(name):
            def run(*args):
                raise AssertionError(f"is_isometric ran {name}")
            return run

        monkeypatch.setattr(oracle, "_distance_row", row)
        monkeypatch.setattr(oracle, "_distance_sum", refuse("_distance_sum"))
        monkeypatch.setattr(oracle, "_bfs_levels", refuse("_bfs_levels"))
        v = is_isometric(g)
        assert not v.isometric and sources == [least]
        assert v.violating_pair[0].bits == g.vertices[least]

    def test_full_cube_fast_path(self):
        v = is_isometric(build_graph(W("01100"), 4))
        assert v.isometric and v.violating_pair is None

    def test_full_cube_builds_no_flip_table(self):
        # The whole cube is known free of pairs from its vertex count alone,
        # whatever its label, so no d x 2^d table is built.
        for label in ("01100", "11"):
            g = AvoidanceGraph(W(label), 4, np.arange(16, dtype=np.int64))
            assert is_isometric(g) == oracle.Verdict(True)
            assert find_critical_pairs(g) == []
            assert "_flip_tables" not in vars(g)

    # {000, 011} at d = 3: two vertices at Hamming distance 2 with no path.
    # Labelled 1111, longer than d, the graph is still not the whole cube.
    def test_label_longer_than_dimension(self):
        g = hand_built_graph("1111", ["000", "011"])
        assert [(str(c.alpha), str(c.beta), c.p, c.blocked_side)
                for c in find_critical_pairs(g)] == [("000", "011", 2, "both")]
        v = is_isometric(g)
        assert not v.isometric
        alpha, beta, dg, h = v.violating_pair
        assert (str(alpha), str(beta), dg, h) == ("000", "011", UNREACHABLE, 2)
        assert reference_verdict(g) == (False, ("000", "011", UNREACHABLE, 2))
        assert reference_critical_pairs(g) == [("000", "011", 2, "both")]

    def test_with_min_p(self):
        v = is_isometric(build_graph(W("101"), 4), with_min_p=True)
        assert v.minimal_critical_p == 2

    @pytest.mark.parametrize("pattern", patterns_up_to(5))
    def test_matches_full_distance_matrices(self, pattern):
        f = W(pattern)
        for d in range(2, 2 * f.length + 3):
            g = build_graph(f, d)
            v = is_isometric(g)
            vp = v.violating_pair
            if vp is not None:
                vp = (str(vp[0]), str(vp[1]), vp[2], vp[3])
            assert (v.isometric, vp) == reference_verdict(g), d

    @pytest.mark.parametrize("pattern, words, expected", DISCONNECTED_SUBGRAPHS)
    def test_unreachable_pair_violates(self, pattern, words, expected):
        g = hand_built_graph(pattern, words)
        v = is_isometric(g)
        assert not v.isometric
        alpha, beta, dg, h = v.violating_pair
        assert (str(alpha), str(beta), dg, h) == expected
        assert reference_verdict(g) == (False, expected)

    def test_verdict_matches_pair_presence(self):
        # The two routes on separate graph objects, so neither reads the
        # other's cached tables.
        for text in ["11", "101", "0011"]:
            f = W(text)
            for d in range(2, 2 * f.length):
                no_violation = _bfs_violation(build_graph(f, d)) is None
                assert no_violation == (not find_critical_pairs(build_graph(f, d))), (text, d)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hand_built_subgraphs_match_reference(self, data):
        """Random induced subgraphs of Q_d, disconnected ones included: the
        scan's verdict and the BFS-named pair equal the full distance matrices'.
        The label, up to two bits longer than d, plays no part."""
        d = data.draw(st.integers(1, 6), label="d")
        pattern = data.draw(st.text("01", min_size=1, max_size=d + 2), label="pattern")
        words = data.draw(st.sets(st.integers(0, (1 << d) - 1)), label="vertices")
        g = AvoidanceGraph(W(pattern), d, np.array(sorted(words), dtype=np.int64))
        v = is_isometric(g)
        vp = v.violating_pair
        if vp is not None:
            vp = (str(vp[0]), str(vp[1]), vp[2], vp[3])
        assert (v.isometric, vp) == reference_verdict(g)
        pairs = [(str(c.alpha), str(c.beta), c.p, c.blocked_side) for c in find_critical_pairs(g)]
        assert pairs == reference_critical_pairs(g)

    def test_scan_runs_once_per_graph(self, monkeypatch):
        g = build_graph(W("00011"), 8)
        deposits = []
        real_deposit = oracle._deposit

        def deposit(t, masks):
            deposits.append(t.size)
            return real_deposit(t, masks)

        monkeypatch.setattr(oracle, "_deposit", deposit)

        def no_pair_objects(*args):
            raise AssertionError("is_isometric built a CriticalPair")

        with monkeypatch.context() as m:
            m.setattr(oracle, "CriticalPair", no_pair_objects)
            v = is_isometric(g, with_min_p=True)
        scans = len(deposits)
        assert scans > 0 and not v.isometric and v.minimal_critical_p == 2
        assert len(find_critical_pairs(g)) == 2
        assert critical_p_values(g).tolist() == [2, 3]
        assert len(deposits) == scans

    def test_scan_pair_without_bfs_violation_raises(self):
        g = build_graph(W("101"), 3)
        g._critical_pairs = (np.array([0]), np.array([3]))
        with pytest.raises(RuntimeError, match="BFS finds no violation"):
            is_isometric(g)


class TestCriticalPairs:
    def test_q4_101(self):
        pairs = find_critical_pairs(build_graph(W("101"), 4))
        assert [(str(c.alpha), str(c.beta), c.p, c.blocked_side) for c in pairs] == [
            ("1001", "1111", 2, "both")
        ]

    def test_empty_cases(self):
        assert find_critical_pairs(build_graph(W("101"), 3)) == []
        assert find_critical_pairs(build_graph(W("11"), 2)) == []

    def test_q8_00011_mixed_p_values(self):
        # Frozen from independent string-level enumeration.
        g = build_graph(W("00011"), 8)
        pairs = find_critical_pairs(g)
        assert [(str(c.alpha), str(c.beta), c.p, c.blocked_side) for c in pairs] == [
            ("00001011", "00010011", 2, "both"),
            ("00001011", "00010111", 3, "alpha"),
        ]
        assert [(str(c.alpha), str(c.beta), c.p) for c in pairs if c.p == 2] == [
            ("00001011", "00010011", 2)
        ]

    def test_q7_0011_pure_three(self):
        pairs = find_critical_pairs(build_graph(W("0011"), 7))
        assert [(str(c.alpha), str(c.beta), c.p, c.blocked_side) for c in pairs] == [
            ("0001011", "0010111", 3, "both")
        ]

    def test_alpha_lexicographically_first(self):
        for text, d in [("101", 4), ("00011", 8), ("0011", 7)]:
            for c in find_critical_pairs(build_graph(W(text), d)):
                assert c.alpha < c.beta

    def test_blocked_side_definition(self):
        g = build_graph(W("101"), 4)
        (c,) = find_critical_pairs(g)
        for endpoint in (c.alpha, c.beta):
            other = c.beta if endpoint is c.alpha else c.alpha
            from fibocube.words import contains_factor, differing_positions

            for i in differing_positions(endpoint, other):
                assert contains_factor(endpoint.flip(i), W("101"))

    @pytest.mark.parametrize(
        "pattern, dims",
        [pytest.param(p, range(2, 2 * len(p) + 3), id=p) for p in patterns_up_to(5)]
        # Nearly every flip is forbidden in these two graphs, so most vertices
        # have more submasks than the graph has vertices and are tested as one row.
        + [pytest.param("01", [25], id="01-d25"), pytest.param("10", [20], id="10-d20")],
    )
    def test_matches_definition_scan(self, pattern, dims):
        for d in dims:
            g = build_graph(W(pattern), d)
            got = find_critical_pairs(g)
            assert [(str(c.alpha), str(c.beta), c.p, c.blocked_side) for c in got] == (
                reference_critical_pairs(g)
            ), d

    @pytest.mark.parametrize("pattern, d", [("0011", 7), ("00011", 8), ("101", 6), ("01", 9)])
    def test_candidate_chunks_split_anywhere(self, monkeypatch, pattern, d):
        expected = reference_critical_pairs(build_graph(W(pattern), d))
        for chunk in (1, 3, 7, 64):
            monkeypatch.setattr(oracle, "_CANDIDATE_CHUNK", chunk)
            # A new graph each time: the scan is cached per graph.
            got = find_critical_pairs(build_graph(W(pattern), d))
            assert [(str(c.alpha), str(c.beta), c.p, c.blocked_side) for c in got] == expected


class TestSizeCheck:
    @pytest.mark.parametrize("length", range(1, 8))
    def test_vertex_count_matches_enumeration(self, length):
        for text in all_patterns(length):
            for d in range(1, 19):
                assert oracle._vertex_count(W(text), d) == build_graph(W(text), d).vertex_count

    def test_vertex_count_closed_forms(self):
        fib = [0, 1]
        while len(fib) < 66:
            fib.append(fib[-1] + fib[-2])
        for d in range(1, 64):
            assert oracle._vertex_count(W("11"), d) == fib[d + 2]
            assert oracle._vertex_count(W("01"), d) == d + 1

    def test_scan_refused_before_any_graph_is_built(self, monkeypatch):
        def no_graph(f, d):
            raise AssertionError(f"built Q_{d}({f})")

        monkeypatch.setattr(oracle, "build_graph", no_graph)
        with pytest.raises(ValueError, match=r"Q_25\(0000000000000\) has 33525760 vertices"):
            first_violation_dimension(W("0" * 13), 25)

    @pytest.mark.parametrize("text, d", [("11", 25), ("11", 30), ("01", 63), ("10101", 22)])
    def test_accepted_graphs(self, text, d):
        oracle._check_size(W(text), d)


class TestIndexBruteforce:
    @pytest.mark.parametrize(
        "text,expected",
        [("101", 4), ("11", None), ("1", None), ("1001", 5), ("0011", 7), ("010", 4)],
    )
    def test_known_indices(self, text, expected):
        assert index_bruteforce(W(text)) == expected

    def test_cap_exceeded(self):
        # The scan to d = 27 is refused up front: Q_27(1^14) needs 27.0 GiB.
        with pytest.raises(ValueError, match="Q_27.*GiB"):
            index_bruteforce(W("1" * 14))

    def test_symmetry_under_reverse_and_complement(self):
        for n in range(1, 4):
            for bits in product("01", repeat=n):
                f = W("".join(bits))
                b = index_bruteforce(f)
                assert index_bruteforce(f.reverse()) == b
                assert index_bruteforce(f.complement()) == b

    def test_nonisometry_persists_upward(self):
        for d in range(4, 8):
            assert not is_isometric(build_graph(W("101"), d)).isometric

    def test_first_violation_scan(self):
        assert first_violation_dimension(W("101"), 8) == 4
        assert first_violation_dimension(W("11"), 8) is None


def reference_edge_indices(g):
    """Edge index pairs from the vertex words, not from the neighbor table:
    each vertex with bit k clear joins its bit-k flip when that is a vertex,
    sorted by an explicit lexsort."""
    verts = g.vertices
    i, j = [], []
    for k in range(g.dimension):
        nb = verts ^ (1 << k)
        lo = np.flatnonzero(np.isin(nb, verts) & (nb > verts))
        i.append(lo)
        j.append(np.searchsorted(verts, nb[lo]))
    i, j = np.concatenate(i), np.concatenate(j)
    order = np.lexsort((j, i))
    return i[order].tolist(), j[order].tolist()


def reference_vertex_names(g):
    spec = f"0{g.dimension}b"
    return [format(v, spec) for v in g.vertices.tolist()]


def reference_graph_to_dot(g):
    """The export with one f-string per line."""
    names = reference_vertex_names(g)
    lines = [f'graph "Q_{g.dimension}({g.pattern})" {{']
    lines += [f'  "{v}";' for v in names]
    lines += [f'  "{names[a]}" -- "{names[b]}";' for a, b in zip(*reference_edge_indices(g))]
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_graph_to_json_dict(g):
    names = reference_vertex_names(g)
    return {
        "pattern": str(g.pattern),
        "dimension": g.dimension,
        "vertex_count": g.vertex_count,
        "vertices": names,
        "edges": [[names[a], names[b]] for a, b in zip(*reference_edge_indices(g))],
    }


def reference_edge_list(g):
    d, verts = g.dimension, g.vertices.tolist()
    return [(Word(d, verts[a]), Word(d, verts[b])) for a, b in zip(*reference_edge_indices(g))]


def assert_exports_match_reference(g):
    assert graph_to_dot(g) == reference_graph_to_dot(g)
    data, want = graph_to_json_dict(g), reference_graph_to_json_dict(g)
    assert data == want
    assert json.dumps(data, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert g.edge_list() == reference_edge_list(g)


class TestExports:
    def test_matches_reference_on_small_graphs(self):
        for text in patterns_up_to(4):
            for d in range(1, 2 * len(text) + 3):
                assert_exports_match_reference(build_graph(W(text), d))

    @pytest.mark.parametrize(
        "text, d, vertices",
        [
            ("0000000", 13, 7936),
            ("0", 3, 1),  # one vertex, no edges
            ("1111", 3, 8),  # pattern longer than d: the full cube
            ("01", 1, 2),
        ],
    )
    def test_matches_reference(self, text, d, vertices):
        g = build_graph(W(text), d)
        assert g.vertex_count == vertices
        assert_exports_match_reference(g)

    def test_dot_q2_11(self):
        dot = graph_to_dot(build_graph(W("11"), 2))
        assert dot == (
            'graph "Q_2(11)" {\n'
            '  "00";\n'
            '  "01";\n'
            '  "10";\n'
            '  "00" -- "01";\n'
            '  "00" -- "10";\n'
            "}\n"
        )

    def test_dot_counts_q4_11(self):
        dot = graph_to_dot(build_graph(W("11"), 4))
        assert dot.count(";") == 8 + 10  # 8 vertices, 10 edges

    def test_json_dict(self):
        data = graph_to_json_dict(build_graph(W("11"), 3))
        assert data["vertex_count"] == 5
        assert data["vertices"] == ["000", "001", "010", "100", "101"]
        assert ["000", "001"] in data["edges"]
        assert all(a < b for a, b in data["edges"])

    def test_unreachable_constant(self):
        assert UNREACHABLE == math.inf
