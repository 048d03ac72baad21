import ast
import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibocube import harness, oracle
from fibocube.harness import all_patterns, patterns_up_to
from fibocube.oracle import (
    UNREACHABLE,
    AvoidanceGraph,
    _bfs_levels,
    _bfs_violation,
    build_graph,
    critical_p_values,
    find_critical_pairs,
    first_violation_dimension,
    graph_to_dot,
    graph_to_json_dict,
    index_bruteforce,
    is_isometric,
)
from fibocube.words import Word


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
        dist = reference_distances(verts, d, idx)
        ham = popcount(verts[idx, None] ^ verts[None, :], d)
        viol = np.argwhere(dist != ham)
        if viol.size:
            i, j = viol[0]
            dg = UNREACHABLE if dist[i, j] < 0 else int(dist[i, j])
            return (False, (str(Word(d, int(verts[idx[i]]))), str(Word(d, int(verts[j]))),
                            dg, int(ham[i, j])))
    return (True, None)


def reference_distances(vertices, d, sources):
    """BFS distances (len(sources) x V) from the given source indices, -1
    where unreachable, over the words of the whole cube: a word's neighbours
    are its d one-bit flips, and only vertex words are entered.  It reads no
    table of the graph.  Each word holds one bit per source; flipping bit k
    of every word exchanges the halves of each block of 2^(k+1) words."""
    entered = np.zeros(1 << d, dtype=np.uint64)
    entered[vertices] = ~np.uint64(0)
    reach = np.zeros(1 << d, dtype=np.uint64)
    reach[vertices[sources]] = np.uint64(1) << np.arange(len(sources), dtype=np.uint64)
    seen = reach.copy()
    lanes = np.arange(len(sources), dtype=np.uint64)[:, None]
    dist = np.full((len(sources), len(vertices)), -1, dtype=np.int64)
    level = 0
    while reach.any():
        dist[((reach[vertices] >> lanes) & np.uint64(1)).astype(bool)] = level
        step = np.zeros_like(reach)
        for k in range(d):
            step |= reach.reshape(-1, 2, 1 << k)[:, ::-1].reshape(-1)
        reach = step & entered & ~seen
        seen |= reach
        level += 1
    return dist


def pair_text(pair):
    """A violating pair with its words as text, or None."""
    return pair and (str(pair[0]), str(pair[1]), pair[2], pair[3])


def bfs_route_pair(g):
    """The pair is_isometric would name from the scan-free route's first
    violating source, or None when the route finds no source."""
    source = _bfs_violation(g)
    return None if source is None else oracle._first_violation(g, source)


def reference_bfs_violation(g):
    """_bfs_violation with the failing batch read lane by lane: the same
    _bfs_levels passes, then each source's count per level, unpacked from
    every level's bits, and the first source whose counts miss a vertex or
    its Hamming sum."""
    d = g.dimension
    verts = g.vertices
    n = verts.size
    bits = (verts[:, None] >> np.arange(d)) & 1
    ones = bits.sum(axis=0)
    ham = bits @ (n - 2 * ones) + ones.sum()
    starts = np.arange(0, n, 64)
    for lo, ham_sum in zip(starts.tolist(), np.add.reduceat(ham, starts).tolist()):
        idx = np.arange(lo, min(lo + 64, n))
        levels = list(_bfs_levels(g, idx))
        reached = sum(count for _, count in levels)
        total = sum(k * count for k, (_, count) in enumerate(levels))
        if (reached, total) != (n * idx.size, ham_sum):
            # Little-endian bytes unpacked little-bit-first put source s in column s.
            counts = np.array([
                np.unpackbits(level.astype("<u8", copy=False).view(np.uint8), bitorder="little")
                .reshape(n, 64).sum(axis=0) for level, _ in levels
            ])[:, : idx.size]
            fails = (counts.sum(axis=0) != n) | (np.arange(len(levels)) @ counts != ham[idx])
            return lo + int(np.argmax(fails))
    return None


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


class TestVertexArrayCheck:
    """The lookups, the scan and the edge order all assume a strictly
    increasing int64 array of d-bit words, so the constructor insists."""

    @pytest.mark.parametrize(
        "words",
        [
            [3, 0],  # unsorted: was answered isometric, though [0, 3] is not
            [0, 9],  # 9 is not a 3-bit word: was answered isometric
            [7, 3, 1, 0],  # descending: the edge export put the larger word first
            [1, 1],
            [-1, 2],
        ],
    )
    def test_rejected(self, words):
        with pytest.raises(ValueError, match=r"^vertices of Q_3\(1111\) are not a strictly"):
            AvoidanceGraph(W("1111"), 3, np.array(words, dtype=np.int64))

    @pytest.mark.parametrize(
        "vertices", [np.array([0.0, 1.0]), np.array([[0, 1]]), np.array([0, 1], dtype=np.uint64)]
    )
    def test_rejected_shape_or_dtype(self, vertices):
        with pytest.raises(ValueError, match="1-D int64 array"):
            AvoidanceGraph(W("11"), 3, vertices)

    def test_sorted_set_is_answered(self):
        g = AvoidanceGraph(W("1111"), 3, np.array([0, 3]))
        assert is_isometric(g) == oracle.Verdict((W("000"), W("011"), UNREACHABLE, 2))

    @pytest.mark.parametrize("d, words", [(3, []), (3, [7]), (63, [0, (1 << 63) - 1])])
    def test_accepted(self, d, words):
        AvoidanceGraph(W("11"), d, np.array(words, dtype=np.int64))

    def test_built_and_grown_graphs_skip_the_check_they_would_pass(self, monkeypatch):
        # build_graph and grow_graph make sorted d-bit words by construction,
        # so they do not run the check; every graph they make for patterns
        # up to length 4 would pass it.
        def refuse(*args):
            raise AssertionError("the constructor's check ran")

        monkeypatch.setattr(AvoidanceGraph, "__init__", refuse)
        graphs = []
        for n in range(1, 5):
            for bits in range(1 << n):
                f = Word(n, bits)
                graphs += [oracle.build_graph(f, d) for d in range(1, 2 * n + 3)]
                graphs += [oracle.grow_graph(g) for g in graphs[-n - 2:]]
        monkeypatch.undo()
        for g in graphs:
            AvoidanceGraph(g.pattern, g.dimension, g.vertices)


class TestBuildGraph:
    def test_fibonacci_cube_d4(self):
        assert build_graph(W("11"), 4).vertex_count == 8

    def test_pattern_1_leaves_one_vertex(self):
        g = build_graph(W("1"), 3)
        assert [str(Word(3, int(v))) for v in g.vertices] == ["000"]

    def test_q4_101_exact_vertex_set(self):
        g = build_graph(W("101"), 4)
        assert [str(Word(4, int(v))) for v in g.vertices] == Q4_101_VERTICES
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

    @pytest.mark.parametrize("length", range(1, 7))
    def test_grown_graph_equals_built_graph(self, length):
        for text in all_patterns(length):
            f = W(text)
            for d in range(max(2, f.length), 2 * f.length + 3):
                grown = oracle.grow_graph(build_graph(f, d - 1))
                assert (grown.pattern, grown.dimension) == (f, d)
                assert np.array_equal(grown.vertices, build_graph(f, d).vertices), (text, d)

    def test_grows_only_from_the_last_whole_cube_up(self):
        # Below |f| the step would drop the short words whose value is f's.
        with pytest.raises(ValueError, match=r"Q_3\(0011\) is not grown from Q_2\(0011\)"):
            oracle.grow_graph(build_graph(W("0011"), 2))

    def test_growing_past_the_size_limit_is_refused_before_allocating(self, monkeypatch):
        f = W("0" * 12)
        with pytest.raises(ValueError) as limit:
            oracle.check_size(f, 23)

        def step(f, verts):
            raise AssertionError("grew before the size check")

        monkeypatch.setattr(oracle, "_append_bit", step)
        # A three-vertex stand-in for Q_22(f): growing reads only its label
        # and dimension before the size check.
        with pytest.raises(ValueError) as refused:
            oracle.grow_graph(AvoidanceGraph(f, 22, np.arange(3, dtype=np.int64)))
        assert str(refused.value) == str(limit.value)
        assert "Q_23(000000000000) has" in str(refused.value)


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


def assert_grown_mask_matches_lookup(g):
    """The forbidden-flip mask build_graph or grow_graph grew with g's
    vertices equals the one a hand-built graph on the same vertices reads off
    its neighbor table's -1 entries."""
    assert "forbidden_flip_mask" in vars(g) and "neighbor_table" not in vars(g)
    looked_up = AvoidanceGraph(g.pattern, g.dimension, g.vertices).forbidden_flip_mask
    assert g.forbidden_flip_mask.dtype == np.int64
    assert np.array_equal(g.forbidden_flip_mask, looked_up), (str(g.pattern), g.dimension)


def without_dense_index(monkeypatch):
    monkeypatch.setattr(AvoidanceGraph, "_dense_index", property(lambda self: None))


def forbid_neighbor_table(monkeypatch):
    """Make every read of a graph's neighbor table raise."""
    def refuse(g):
        raise AssertionError(f"Q_{g.dimension}({g.pattern}) built a neighbor table")

    monkeypatch.setattr(AvoidanceGraph, "neighbor_table", property(refuse))


class TestWordLookup:
    @pytest.mark.parametrize("dense", [True, False], ids=["as-built", "binary-search"])
    def test_flip_tables_match_reference(self, monkeypatch, dense):
        if not dense:
            without_dense_index(monkeypatch)
        for text in patterns_up_to(5):
            for d in range(1, 2 * len(text) + 3):
                assert_flip_tables_match_reference(build_graph(W(text), d))
        # The masks build_graph grows against the lookup route, and those a
        # chain of grow_graph steps up from the last whole cube grows against
        # build_graph's.
        for text in patterns_up_to(7):
            f, top = W(text), min(2 * len(text) + 2, 25)
            built = [build_graph(f, d) for d in range(1, top + 1)]
            for g in built:
                assert_grown_mask_matches_lookup(g)
            g = built[max(1, f.length - 1) - 1]
            while g.dimension < top:
                g = oracle.grow_graph(g)
                want = built[g.dimension - 1].forbidden_flip_mask
                assert "neighbor_table" not in vars(g)
                assert np.array_equal(g.forbidden_flip_mask, want), (text, g.dimension)
        for text, d in (("11", 22), ("01", 25), ("01", 63)):
            g = build_graph(W(text), d)
            assert_grown_mask_matches_lookup(g)
            assert_flip_tables_match_reference(g)

    def test_graph_built_without_mask_reads_it_off_the_table(self):
        # The export builds its graph without a mask; asked for one anyway,
        # such a graph reads it off its neighbor table.
        for text in patterns_up_to(5):
            for d in range(1, 2 * len(text) + 3):
                g, bare = build_graph(W(text), d), build_graph(W(text), d, grow_mask=False)
                assert np.array_equal(bare.vertices, g.vertices)
                assert "forbidden_flip_mask" not in vars(bare)
                assert np.array_equal(bare.forbidden_flip_mask, g.forbidden_flip_mask)
                assert "neighbor_table" in vars(bare)

    @pytest.mark.parametrize("dense", [True, False], ids=["as-built", "binary-search"])
    def test_flip_table_blocks_split_anywhere(self, monkeypatch, dense):
        # Each lookup covers as many whole rows as fit in the block, or one
        # row when a row is longer, so no temporary outgrows a block or a row.
        if not dense:
            without_dense_index(monkeypatch)
        lookups = []
        real_lookup = AvoidanceGraph._lookup

        def lookup(g, words):
            lookups.append(words.shape)
            return real_lookup(g, words)

        monkeypatch.setattr(AvoidanceGraph, "_lookup", lookup)
        for block in (1, 50, 333):
            monkeypatch.setattr(oracle, "_FLIP_BLOCK", block)
            for text in patterns_up_to(4):
                for d in range(1, 2 * len(text) + 3):
                    lookups.clear()
                    # A new graph each time: the tables are cached per graph.
                    g = build_graph(W(text), d)
                    assert_flip_tables_match_reference(g)
                    rows = max(1, block // g.vertex_count)
                    assert [r for r, _ in lookups] == [min(rows, d - k) for k in range(0, d, rows)]
                    assert all(r * n <= max(block, n) for r, n in lookups)

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
    """The frontier BFS row from each source equals reference_distances, and
    its level histogram equals the source's lane counts in the levels of the
    64-lane engine, run on `lanes` of the sources at a time (its lanes do not
    interact, so a batch gives each source's single-lane levels)."""
    sources = np.asarray(sources, dtype=np.int64)
    for lo in range(0, sources.size, lanes):
        batch = sources[lo : lo + lanes]
        lane = np.arange(batch.size, dtype=np.uint64)
        counts = np.array([((level[:, None] >> lane) & np.uint64(1)).sum(axis=0)
                           for level, _ in _bfs_levels(g, batch)])
        want = reference_distances(g.vertices, g.dimension, batch)
        for s, per_level, expected in zip(batch.tolist(), counts.T, want):
            row = oracle._distance_row(g, s)
            assert row.dtype == np.int64 and np.array_equal(row, expected), s
            assert np.array_equal(np.bincount(row[row >= 0], minlength=len(counts)), per_level), s


# Hand-built vertex sets: no enumerated graph of length <= 6 at d <= 12 is
# disconnected.  Each case: pattern, vertex words, the first violating pair.
DISCONNECTED_SUBGRAPHS = [
    # 00 and 11 without 01 or 10 between them: no edges at all.
    pytest.param("01", ["00", "11"], ("00", "11", UNREACHABLE, 2), id="no-edges"),
    # The path 0001-0000-1000 and the isolated 0111.
    pytest.param(
        "1111", ["0000", "0001", "0111", "1000"], ("0000", "0111", UNREACHABLE, 3),
        id="path-and-isolated",
    ),
    # The induced path 11101-10101-00101-00111-01111-01110-11110-10110 and the
    # isolated 10011: the path's detours exceed Hamming distance by 44 in all,
    # as much as the Hamming distances of the 16 pairs with 10011 add up to.
    # So the batch's distance sum over its reached pairs equals its Hamming
    # sum, and only the reach test catches it.
    pytest.param(
        "11111",
        ["00101", "00111", "01110", "01111", "10011", "10101", "10110", "11101", "11110"],
        ("00101", "10011", UNREACHABLE, 3),
        id="sums-agree",
    ),
]


def hand_built_graph(pattern, words):
    return AvoidanceGraph(W(pattern), len(words[0]), np.array([int(w, 2) for w in words]))


class TestDistanceRow:
    """The single-source frontier BFS against the bit-parallel batch engine's
    levels and the whole-cube reference BFS, through both word lookups."""

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
        assert bfs_route_pair(build_graph(W(pattern), d)) == v.violating_pair

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
            assert is_isometric(g) == oracle.Verdict()
            assert find_critical_pairs(g) == []
            assert "neighbor_table" not in vars(g) and "forbidden_flip_mask" not in vars(g)

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
        assert pair_text(bfs_route_pair(g)) == expected

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
        The label, up to two bits longer than d, plays no part.  The scan-free
        route names the same pair."""
        d = data.draw(st.integers(1, 6), label="d")
        pattern = data.draw(st.text("01", min_size=1, max_size=d + 2), label="pattern")
        words = data.draw(st.sets(st.integers(0, (1 << d) - 1)), label="vertices")
        g = AvoidanceGraph(W(pattern), d, np.array(sorted(words), dtype=np.int64))
        v = is_isometric(g)
        reference = reference_verdict(g)
        assert (v.isometric, pair_text(v.violating_pair)) == reference
        assert pair_text(bfs_route_pair(g)) == reference[1]
        pairs = [(str(c.alpha), str(c.beta), c.p, c.blocked_side) for c in find_critical_pairs(g)]
        assert pairs == reference_critical_pairs(g)

    # Both graphs are connected and not isometric; the first violating
    # source of Q_8(0011) is in its first batch, that of Q_8(10101) in its third.
    @pytest.mark.parametrize("pattern", ["0011", "10101"])
    def test_route_runs_one_pass_per_batch(self, monkeypatch, pattern):
        # The scan-free route runs one _bfs_levels pass for each batch of 64
        # sources up to the first that fails, and a pass stops once every
        # source has reached every vertex: from then on the table it gathers
        # through holds an out-of-range index, so one more gather would raise
        # IndexError.
        g = build_graph(W(pattern), 8)
        n, table = g.vertex_count, g.neighbor_table
        real_levels = oracle._bfs_levels
        passes = []

        def levels(g, sources):
            reached, saved = 0, table.copy()
            for level, count in real_levels(g, sources):
                assert count > 0
                reached += count
                if reached == n * len(sources):
                    table[:] = n + 1
                yield level, count
            table[:] = saved
            passes.append((sources.tolist(), reached))

        monkeypatch.setattr(oracle, "_bfs_levels", levels)
        first = _bfs_violation(g)
        pair = is_isometric(build_graph(W(pattern), 8)).violating_pair
        assert first == int(np.searchsorted(g.vertices, pair[0].bits))
        batches = [list(range(lo, min(lo + 64, n))) for lo in range(0, first + 1, 64)]
        assert passes == [(batch, n * len(batch)) for batch in batches]

    def test_route_matches_lane_by_lane_counts_on_lemma21_graphs(self):
        graphs = 0
        for text in patterns_up_to(6):
            f = W(text)
            for d in range(2, harness._probe_graph(f)[1] + 1):
                g = build_graph(f, d)
                assert _bfs_violation(g) == reference_bfs_violation(g), (text, d)
                graphs += 1
        assert graphs == 1122

    # Q_d without the two common neighbors of one pair at Hamming distance 2:
    # that pair is the only violating one, so its lesser word is the first
    # violating source.  It sits at lane 0, at lane 63 of a full first batch,
    # and at lane 60 of a partial last batch of 62 lanes, the last lane that
    # can hold it: distance is symmetric, so the last vertex never comes first.
    @pytest.mark.parametrize(
        "d, removed, first",
        [
            pytest.param(7, (1, 2), 0, id="lane-0"),
            pytest.param(8, (127, 191), 63, id="lane-63"),
            pytest.param(7, (125, 126), 124, id="partial-batch"),
        ],
    )
    def test_route_first_source_at_batch_edges(self, d, removed, first):
        g = AvoidanceGraph(W("0"), d, np.setdiff1d(np.arange(1 << d), removed))
        isometric, pair = reference_verdict(g)
        assert not isometric and pair[0] == str(Word(d, int(g.vertices[first])))
        assert _bfs_violation(g) == reference_bfs_violation(g) == first

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
        oracle.check_size(W(text), d)


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

    def test_orbit_graphs_are_reversed_and_complemented(self):
        # Reversal and complement are automorphisms of Q_d: Q_d(rev f) is
        # Q_d(f) with every word reversed, Q_d(comp f) with every word
        # complemented, and the three have the same critical-pair distances.
        for text in patterns_up_to(6):
            f = W(text)
            for d in range(1, 2 * f.length + 2):
                graphs = [build_graph(f, d), build_graph(f.reverse(), d),
                          build_graph(f.complement(), d)]
                verts = graphs[0].vertices
                rev = np.zeros_like(verts)
                for k in range(d):
                    rev |= ((verts >> k) & 1) << (d - 1 - k)
                assert np.array_equal(graphs[1].vertices, np.sort(rev)), (text, d)
                assert np.array_equal(graphs[2].vertices, verts[::-1] ^ ((1 << d) - 1)), (text, d)
                ps = [sorted(critical_p_values(g).tolist()) for g in graphs]
                assert ps[0] == ps[1] == ps[2], (text, d)

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
    """g must be fresh: no export, nor the reference, builds the neighbor table."""
    assert graph_to_dot(g) == reference_graph_to_dot(g)
    data, want = graph_to_json_dict(g), reference_graph_to_json_dict(g)
    assert data == want
    assert json.dumps(data, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert data["edges"] == [[str(a), str(b)] for a, b in reference_edge_list(g)]
    assert "neighbor_table" not in vars(g)


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
            ("11", 16, 2584),  # 2^16 > 16 * 2584: the lookup binary-searches
        ],
    )
    def test_matches_reference(self, text, d, vertices):
        g = build_graph(W(text), d)
        assert g.vertex_count == vertices
        assert_exports_match_reference(g)

    def test_matches_reference_by_binary_search(self, monkeypatch):
        without_dense_index(monkeypatch)
        for text in patterns_up_to(3):
            for d in range(1, 2 * len(text) + 3):
                assert_exports_match_reference(build_graph(W(text), d))

    @pytest.mark.parametrize("pattern, words, expected", DISCONNECTED_SUBGRAPHS)
    def test_matches_reference_on_hand_built_graphs(self, pattern, words, expected):
        assert_exports_match_reference(hand_built_graph(pattern, words))

    def test_one_hand_built_vertex(self):
        g = hand_built_graph("1", ["101"])
        assert_exports_match_reference(g)
        assert graph_to_dot(g) == 'graph "Q_3(1)" {\n  "101";\n}\n'

    def test_empty_graph(self):
        g = AvoidanceGraph(W("11"), 3, np.zeros(0, dtype=np.int64))
        assert_exports_match_reference(g)
        assert graph_to_dot(g) == 'graph "Q_3(11)" {\n}\n'

    def test_words_up_to_the_int64_limit(self):
        g = AvoidanceGraph(W("01"), 63, np.array([0, 1, 1 << 62, (1 << 63) - 2, (1 << 63) - 1]))
        assert_exports_match_reference(g)
        assert len(graph_to_json_dict(g)["edges"]) == 3

    @pytest.mark.parametrize("export", [graph_to_dot, graph_to_json_dict])
    def test_refused_by_its_dot_size(self, monkeypatch, export):
        # The path 0000-0001-0011 and the isolated 1111: its DOT text is the
        # header, 10 bytes per vertex and 20 per edge, and the closing line.
        words = ["0000", "0001", "0011", "1111"]
        size = len(reference_graph_to_dot(hand_built_graph("1", words)))
        assert size == len('graph "Q_4(1)" {\n') + 4 * 10 + 2 * 20 + 2
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", size - 1)
        message = r"^Q_4\(1\) has 4 vertices and 2 edges; its DOT text needs 0\.00 GiB, over the "
        with pytest.raises(ValueError, match=message):
            export(hand_built_graph("1", words))
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", size)
        assert_exports_match_reference(hand_built_graph("1", words))

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
