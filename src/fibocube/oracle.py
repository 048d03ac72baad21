"""Brute-force ground truth for factor-avoiding subgraphs of the hypercube.

Builds the vertex set of every length-d word avoiding a factor, finds
critical word pairs straight from the definition (all interval neighbors of
one endpoint are non-vertices), and names by BFS the first pair whose graph
distance differs from its Hamming distance.  Every answer is read from the
sorted vertex array; f only builds, size-checks and labels Q_d(f), so a
hand-built vertex set is answered exactly too.  All of it is exhaustive and
independent of the structural classifier, so the two can check each other.

Q_d(f) is grown one bit at a time from the f-avoiding words one bit shorter,
so enumeration costs the sum of the vertex counts up to d, not 2^d window
tests (Q_25(11) has 196,418 of the 2^25 words); grow_graph takes that one
step from a Q_d(f) already built.  Each step also carries every vertex's
forbidden-flip mask (the bits whose flip leaves the graph), so the mask, like
the vertices, is read off f at build time with no lookup; the export, which
reads no mask, builds its graph without one.  A graph is refused before
anything is allocated when its d x V neighbor table would exceed
MAX_TABLE_BYTES; V is counted exactly from f's autocorrelation.  An export is
refused, once its edges are counted and before they are listed, when its DOT
text would exceed the same limit.

The neighbor table, the critical-pair scan and the export find a word's
vertex index, or -1 for a non-vertex, through one lookup.  When 2^d <= d * V
it is a gather through a dense index of all 2^d words, which then has no more
entries than the d x V neighbor table; sparser graphs, such as Q_25(11) or
Q_63(01), binary-search the sorted vertices instead.  The vertices must be
sorted, distinct d-bit words, so the constructor checks them; build_graph and
grow_graph, which make them so, skip that check.  A hand-built graph has no
grown mask, so it reads one, if asked, off the neighbor table's -1 entries,
as does a graph built without one.  Otherwise only the lemma21 route's
_bfs_levels builds that d x V table.

The export takes each edge from its lower end i and the bit k it sets (one
lookup per bit into a V x d bool matrix), never from the neighbor table.  DOT
is written into one byte buffer and decoded once: an edge line is a copy of
its lower end's fixed-width line template with digit d-1-k of the upper name
set.

The critical-pair scan decides isometry: an induced subgraph of Q_d is
isometric exactly when it has no critical pair (the equivalence the lemma21
sweep checks; Ilic, Klavzar and Rho, Generalized Fibonacci cubes, Discrete
Math. 312 (2012); the proof is an induction on Hamming distance).  The scan
enumerates, for each vertex, the words reached by flipping a subset of its
forbidden positions, and runs once per graph: its result is cached on the
graph.

BFS names the first violating pair, in (source, target) index order, of a
graph the scan calls non-isometric: one single-source BFS runs from the least
endpoint of the critical pairs, which is the first violating source.
- Every endpoint of a critical pair violates.
- Conversely, let t be a violating target of least Hamming distance from a
  violating source u.  A neighbor of t inside the interval I(u, t) would be
  at graph distance equal to its Hamming distance, so t would reach u in
  H(u, t) steps; so (u, t) is a critical pair with t blocked (H >= 2, since
  edges never violate).
- So the first violating source is the least endpoint, and the first
  violating target in its BFS row completes the pair.
That BFS is level-synchronous over the frontier only: each level flips the d
bits of the vertices it reached last, so the whole BFS crosses each edge once
and builds no neighbor table.

equivalence_failure(g) is the lemma21 check, which the sweep runs on every
graph it covers: the scan against an independent, scan-free BFS route.  They
must agree on whether g has a violating source and, when it has, on the
first one: the route's answer against the least endpoint of the critical
pairs.  The route's answer is cached on the graph, like the scan's, so its
BFS runs once per graph: one pass of the bit-parallel _bfs_levels per batch
of 64 sources.  Each source is one bit of a uint64 per vertex, so one
gather of the whole table per level advances all 64 BFS (64 frontier BFS would
read it once per source).  A pass sums level times the count first reached
there, for the batch's Hamming sum, and stops once every source has reached
every vertex.  Any set of sources fails that test exactly when one of its
sources does, so the first failing batch is bisected over its lanes: each step
counts, over the stacked levels, only the bits of half the lanes left, and at
most six steps name the first failing source, the route's answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .words import Pattern, Word, overlap_masks

UNREACHABLE = math.inf

_CANDIDATE_CHUNK = 1 << 18  # critical-pair candidates held at once
_SOURCE_CHUNK = 64  # BFS sources per batch: one bit each in a uint64
_FLIP_BLOCK = 1 << 15  # flip-table entries looked up at once (at least one row)
MAX_TABLE_BYTES = 1 << 30  # largest d x V int64 neighbor table, or DOT text, of a graph


def _popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a).astype(np.int64)


def _deposit(t: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Scatter the low bits of each t into the set bits of its mask, lowest
    bit first (a vectorised parallel bit deposit)."""
    out = np.zeros_like(t)
    rest = masks.copy()
    j = 0
    while rest.any():
        low = rest & -rest
        out |= low * ((t >> j) & 1)
        rest ^= low
        j += 1
    return out


class AvoidanceGraph:
    """An induced subgraph of Q_d; edges join Hamming-1 pairs.

    The vertices, a sorted array of packed length-d words, are the graph: the
    pattern only labels it.  Array index order is lexicographic order of the
    words.  Adjacency structures are built lazily.
    """

    def __init__(self, pattern: Pattern, dimension: int, vertices: np.ndarray):
        v = vertices
        if v.dtype != np.int64 or v.ndim != 1 or v.size and (
            v[0] < 0 or int(v[-1]) >> dimension or not (v[1:] > v[:-1]).all()
        ):
            raise ValueError(f"vertices of Q_{dimension}({pattern}) are not a strictly "
                             f"increasing 1-D int64 array of words in [0, 2^{dimension})")
        self.pattern = pattern
        self.dimension = dimension
        self.vertices = vertices

    @classmethod
    def _built(cls, pattern: Pattern, dimension: int, vertices: np.ndarray,
               mask: np.ndarray | None) -> "AvoidanceGraph":
        """The graph on vertices that build_graph or grow_graph made: sorted,
        distinct int64 words in [0, 2^dimension) by construction, so unchecked,
        with the forbidden-flip mask _append_bit grew beside them (None when
        it grew none, so the mask is read off the neighbor table if asked)."""
        g = cls.__new__(cls)
        g.pattern, g.dimension, g.vertices = pattern, dimension, vertices
        if mask is not None:
            g.forbidden_flip_mask = mask
        return g

    @property
    def vertex_count(self) -> int:
        return int(self.vertices.size)

    @cached_property
    def _dense_index(self) -> np.ndarray | None:
        """index[w] is the dense index of vertex w and -1 for a non-vertex
        word, over all 2^d words; None when 2^d > d * V, so the index never
        has more entries than the d x V neighbor table."""
        d, n = self.dimension, self.vertices.size
        if 1 << d > d * n:
            return None
        index = np.full(1 << d, -1, dtype=np.int64)
        index[self.vertices] = np.arange(n)
        return index

    def _lookup(self, words: np.ndarray) -> np.ndarray:
        """The dense index of each length-d word, or -1 for a non-vertex:
        one gather through the dense index, or a binary search of the sorted
        vertices when the graph is too sparse for one."""
        index = self._dense_index
        if index is not None:
            return index[words]
        verts = self.vertices
        pos = np.minimum(np.searchsorted(verts, words), verts.size - 1)
        return np.where(verts[pos] == words, pos, -1)

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """V x d: entry [v, k] is the dense index of vertex XOR (1 << k), or
        -1 when that word is not a vertex.

        Row k of the contiguous d x V array the table views, which the BFS
        gathers through, holds the lookups of the vertices with bit k
        flipped.  Rows are looked up a block of about _FLIP_BLOCK entries per
        _lookup, so every temporary is one block (or one row, when a row is
        longer) and stays cache-sized.  Only the lemma21 route's _bfs_levels,
        and a hand-built graph's forbidden_flip_mask, read the table.
        """
        verts = self.vertices
        d = self.dimension
        by_bit = np.empty((d, verts.size), dtype=np.int64)
        flips = 1 << np.arange(d, dtype=np.int64)[:, None]
        step = max(1, _FLIP_BLOCK // max(1, verts.size))
        for lo in range(0, d, step):
            by_bit[lo : lo + step] = self._lookup(verts ^ flips[lo : lo + step])
        return by_bit.T

    @cached_property
    def forbidden_flip_mask(self) -> np.ndarray:
        """Per vertex, bit k set exactly when vertex XOR (1 << k) is not a
        vertex, so interval-blocking tests reduce to integer masking.

        build_graph and grow_graph set it from f as they grow the vertices
        (_append_bit); a hand-built vertex array, or a graph built with
        grow_mask=False, reads it off the -1 entries of the neighbor table.
        """
        forb = np.zeros(self.vertices.size, dtype=np.int64)
        for k, row in enumerate(self.neighbor_table.T):
            forb |= row >> 63 & 1 << k  # -1 >> 63 is all ones
        return forb

    @cached_property
    def _critical_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j), i < j, of every critical pair, sorted.

        A critical pair is alpha ^ x for a submask x of the forbidden-flip
        mask F of its blocked side, so each vertex with |F| >= 2 enumerates
        the words flipped at a submask of F and keeps those that are
        vertices.  A vertex with more submasks than the graph has vertices
        tests every vertex instead, so no vertex costs more than one row of
        all pairs.  The whole cube forbids no flip, so it has no pair and
        reads no mask (a hand-built one would build the neighbor table).
        """
        verts = self.vertices
        n = verts.size
        if n < 2 or n == 1 << self.dimension:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        forb = self.forbidden_flip_mask
        m = _popcount(forb)
        subsets = (1 << m) <= n
        size = np.where(m < 2, 0, np.where(subsets, 1 << m, n))
        rows = np.flatnonzero(size)
        chunk = (np.cumsum(size[rows]) - 1) // _CANDIDATE_CHUNK
        parts = [rows]  # every candidate fits in one part, or there is none
        if rows.size and chunk[-1] > 0:
            parts = np.split(rows, np.flatnonzero(np.diff(chunk)) + 1)
        keys = []
        for part in parts:
            r = np.repeat(part, size[part])
            # t numbers the candidates of each row from 0.
            t = np.arange(r.size) - np.repeat(np.cumsum(size[part]) - size[part], size[part])
            a = verts[r]
            x = np.where(subsets[r], _deposit(t, forb[r]), a ^ verts[t])
            j = self._lookup(a ^ x)
            keep = (j >= 0) & ((x & ~forb[r]) == 0) & (_popcount(x) >= 2)
            i, j = r[keep], j[keep]
            keys.append(np.minimum(i, j) * n + np.maximum(i, j))
        key = np.unique(np.concatenate(keys))
        return key // n, key % n

    @cached_property
    def _bfs_source(self) -> int | None:
        """The scan-free BFS route's first violating source (_bfs_violation),
        run once per graph."""
        return _bfs_violation(self)

    def _up_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, k) of every edge: its lower end's index i and the bit k, 0 in
        i, that its upper end j sets.  Row-major order of the V x d bool
        matrix is (i, j) order, hence word order, since j grows with k.  One
        lookup per bit fills it: j > i exactly when bit k of i is 0 and
        setting it gives a vertex (a set bit gives j = i).  The edges are
        counted first: every export is refused, before any array of E
        entries exists, when graph_to_dot's text would exceed MAX_TABLE_BYTES."""
        verts = self.vertices
        n, d = verts.size, self.dimension
        up, below = np.empty((n, d), dtype=bool), np.arange(n)
        for k in range(d):
            up[:, k] = self._lookup(verts | 1 << k) > below
        e = int(np.count_nonzero(up))
        size = len(_dot_header(self)) + n * (d + 6) + e * (2 * d + 12) + 2
        if size > MAX_TABLE_BYTES:
            raise ValueError(
                f"Q_{d}({self.pattern}) has {n} vertices and {e} edges; its DOT text needs "
                f"{size / (1 << 30):.2f} GiB, over the {MAX_TABLE_BYTES / (1 << 30):g} GiB limit"
            )
        flat = np.flatnonzero(up)
        i = flat // d
        return i, flat - i * d


def _vertex_count(f: Pattern, d: int) -> int:
    """The exact number of length-d words avoiding f, from f's autocorrelation
    (Guibas and Odlyzko, String overlaps, pattern matching, and nontransitive
    games, JCTA 30 (1981)): with c_r = 1 iff f[r:] == f[:n-r], that is
    mask_r = 0, the counts have generating function c(z) / den(z),
    den = z^n + (1 - 2z) c(z)."""
    n = f.length
    c = [int(mask == 0) for mask in overlap_masks(f)] + [0]
    den = [c[k] - 2 * c[k - 1] if k else 1 for k in range(n + 1)]
    den[n] += 1
    a = []
    for m in range(d + 1):
        cm = c[m] if m < n else 0
        a.append(cm - sum(den[k] * a[m - k] for k in range(1, min(m, n) + 1)))
    return a[d]


def check_size(f: Pattern, d: int) -> None:
    """Refuse Q_d(f) before anything is allocated when d cannot be packed in
    int64 or the d x V neighbor table would exceed MAX_TABLE_BYTES.  V is
    only counted when the whole cube's table, 8 d 2^d bytes, would not fit."""
    if not 1 <= d <= 63:
        raise ValueError(f"dimension {d} outside 1..63 (vertices are packed in int64)")
    if 8 * d << d > MAX_TABLE_BYTES:
        n = _vertex_count(f, d)
        if 8 * d * n > MAX_TABLE_BYTES:
            raise ValueError(
                f"Q_{d}({f}) has {n} vertices; its {d} x {n} neighbor table needs "
                f"{8 * d * n / (1 << 30):.1f} GiB, over the "
                f"{MAX_TABLE_BYTES / (1 << 30):g} GiB limit"
            )


def _append_bit(f: Pattern, verts: np.ndarray,
                mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The f-avoiding words one bit longer than verts, which must be the
    sorted f-avoiding words of one length, at least |f| - 1, and their
    forbidden-flip masks from the masks of verts (None for None): each word
    gets 0 and 1 appended, and those ending in f are dropped (the prefix
    avoids f, so only the last window can be new).  Appending the low bit
    keeps the order.

    Flipping bit k >= 1 of w.b flips bit k - 1 of w, so it leaves the graph
    when bit k - 1 of w's mask is set, or when it makes the last window f
    (flipping bit 0 can only do the latter).
    With x = (w.b's last window) XOR f, one flip does that exactly when x has
    one set bit, and that bit is the flip; x = 0 is the dropped word.
    """
    verts = np.repeat(verts << 1, 2)
    verts[1::2] |= 1
    x = verts & (1 << f.length) - 1
    x ^= f.bits
    keep = x != 0
    if mask is not None:
        mask = np.repeat(mask << 1, 2)
        mask |= x * (np.bitwise_count(x) == 1)
        mask = mask[keep]
    return verts[keep], mask


def build_graph(f: Pattern, d: int, grow_mask: bool = True) -> AvoidanceGraph:
    """Every length-d word avoiding f, sorted: the words of length |f| - 1
    (all of them) grown one bit at a time by _append_bit, so the work grows
    with the vertex counts, not 2^d.  Graphs over the size limit are refused
    first (check_size).

    The forbidden-flip masks grow with the vertices, which about doubles the
    cost of a build; the export reads no mask, so it passes grow_mask=False.
    """
    check_size(f, d)
    verts = np.arange(1 << min(d, f.length - 1), dtype=np.int64)
    mask = np.zeros_like(verts) if grow_mask else None  # the whole cube forbids no flip
    for _ in range(f.length, d + 1):
        verts, mask = _append_bit(f, verts, mask)
    return AvoidanceGraph._built(f, d, verts, mask)


def grow_graph(g: AvoidanceGraph) -> AvoidanceGraph:
    """Q_{d+1}(f) from g = Q_d(f), d >= |f| - 1, by build_graph's last step;
    refused, before anything is allocated, as build_graph(f, d + 1) is."""
    f, d = g.pattern, g.dimension + 1
    if d < f.length:
        raise ValueError(f"Q_{d}({f}) is not grown from Q_{d - 1}({f}): d < |f|")
    check_size(f, d)
    return AvoidanceGraph._built(f, d, *_append_bit(f, g.vertices, g.forbidden_flip_mask))


def _bfs_levels(g: AvoidanceGraph, sources: np.ndarray):
    """BFS from up to 64 distinct source indices at once; yields, for each
    level k = 0, 1, ..., the V bitsets (uint64, bit s for source s) of the
    vertices first reached at level k, and how many bits they hold.

    Each level gathers the last one through the neighbor table, one bit at a
    time, ORs the gathers and keeps the bits not reached before.  Every level
    is a new array with one extra last slot, held at zero, so the table's -1
    entries read nothing.  The generator ends, with no further gather, once
    every source has reached every vertex, or when a level reaches nothing.
    """
    n, m = g.vertex_count, len(sources)
    by_bit = g.neighbor_table.T
    level = np.zeros(n + 1, dtype=np.uint64)
    level[sources] = np.uint64(1) << np.arange(m, dtype=np.uint64)
    unseen = ~level[:n] & np.uint64((1 << m) - 1)
    count, left = m, n * m - m
    while True:
        yield level[:n], count
        if not left:
            return
        reach = np.zeros(n + 1, dtype=np.uint64)
        np.bitwise_and(np.bitwise_or.reduce(level[by_bit], axis=0), unseen, out=reach[:n])
        count = int(np.bitwise_count(reach).sum())
        if not count:
            return
        unseen ^= reach[:n]
        left -= count
        level = reach


def _distance_row(g: AvoidanceGraph, source: int) -> np.ndarray:
    """BFS distances (V, int64) from one source index to every vertex index;
    -1 where a vertex is unreachable.

    Each level flips the d bits of the frontier only, so the BFS crosses
    every edge once (V * d flips in all) and builds no neighbor table.  With
    a dense index the slots of dist are the 2^d words themselves, so a level
    needs no lookup: non-vertices are held at 0 and never count as new.
    Otherwise they are the vertex indices, found by _lookup, with one extra
    last slot, held at 0, where the -1 of a non-vertex lands.
    """
    n, verts, index = g.vertex_count, g.vertices, g._dense_index
    flips = 1 << np.arange(g.dimension, dtype=np.int64)[:, None]
    if index is None:
        dist = np.full(n + 1, -1, dtype=np.int64)
        dist[n], start = 0, source
    else:
        dist, start = np.where(index < 0, 0, -1), verts[source]
    dist[start] = 0
    frontier = np.array([start])
    level = 0
    while frontier.size:
        level += 1
        nb = g._lookup(verts[frontier] ^ flips) if index is None else frontier ^ flips
        dist[nb[dist[nb] < 0]] = level
        frontier = np.flatnonzero(dist == level)
    return dist[:n] if index is None else dist[verts]


@dataclass(frozen=True)
class Verdict:
    violating_pair: tuple[Word, Word, int | float, int] | None = None  # None: isometric
    minimal_critical_p: int | None = None

    @property
    def isometric(self) -> bool:
        return self.violating_pair is None


@dataclass(frozen=True)
class CriticalPair:
    alpha: Word
    beta: Word
    blocked_side: str  # "alpha", "beta", or "both"

    @property
    def p(self) -> int:
        return (self.alpha.bits ^ self.beta.bits).bit_count()


def _first_violation(g: AvoidanceGraph, source: int) -> tuple[Word, Word, int | float, int] | None:
    """The pair from the source index to its first target, in index order,
    whose BFS distance (one _distance_row) differs from its Hamming distance;
    None when there is none.  Unreachable targets (-1) violate."""
    verts, d = g.vertices, g.dimension
    dist = _distance_row(g, source)
    ham = _popcount(verts[source] ^ verts)
    bad = np.flatnonzero(dist != ham)
    if not bad.size:
        return None
    j = int(bad[0])
    dg = UNREACHABLE if dist[j] < 0 else int(dist[j])
    return Word(d, int(verts[source])), Word(d, int(verts[j])), dg, int(ham[j])


def _bfs_violation(g: AvoidanceGraph) -> int | None:
    """The index of the first source with a target whose BFS distance
    differs from its Hamming distance; None when there is none.  Unreachable
    pairs violate.  This route reads neither the critical-pair scan nor
    _distance_row, so the lemma21 sweep can check the scan against it.

    Sources run in batches of 64 in lexicographic order, one _bfs_levels pass
    each.  A set of sources passes when every pair is reachable and its BFS
    distance sum, level times count over the levels, equals its Hamming sum,
    which is exact because graph distance is never below Hamming distance.
    So a set fails exactly when one of its sources does, and the first batch
    that fails is bisected over its lanes, counting only the bits of the
    first half of the lanes still in question, down to the first failing one.
    """
    d = g.dimension
    verts = g.vertices
    n = verts.size
    # A source's Hamming sum adds, for each bit k, the c_k vertices with bit k
    # set when its own bit k is 0 and the n - c_k others when it is 1.
    bits = (verts[:, None] >> np.arange(d)) & 1
    ones = bits.sum(axis=0)
    ham = bits @ (n - 2 * ones) + ones.sum()
    starts = np.arange(0, n, _SOURCE_CHUNK)
    for lo, ham_sum in zip(starts.tolist(), np.add.reduceat(ham, starts).tolist()):
        idx = np.arange(lo, min(lo + _SOURCE_CHUNK, n))
        levels = list(_bfs_levels(g, idx))
        reached = sum(count for _, count in levels)
        total = sum(k * count for k, (_, count) in enumerate(levels))
        if (reached, total) != (n * idx.size, ham_sum):
            stacked = np.stack([level for level, _ in levels])
            depth = np.arange(len(levels))
            a, b = 0, idx.size  # the lanes below a pass, and a..b-1 hold one that fails
            while b - a > 1:
                mid = (a + b) // 2
                lanes = np.uint64((1 << mid) - (1 << a))
                counts = np.bitwise_count(stacked & lanes).sum(axis=1, dtype=np.int64)
                if (counts.sum(), depth @ counts) != (n * (mid - a), ham[lo + a : lo + mid].sum()):
                    b = mid
                else:
                    a = mid
            return lo + a
    return None


def equivalence_failure(g: AvoidanceGraph) -> dict | None:
    """The lemma21 check of g, None when it passes: the scan-free BFS route
    finds a violating source exactly when the scan finds a critical pair,
    and its first violating source is the least endpoint of the critical
    pairs, where is_isometric runs its one BFS.  A failing record names the
    pair the flagged source's BFS row finds, if any, and the scan's endpoint."""
    source = g._bfs_source
    # The scan's index pairs are sorted with i < j, so the least alpha of
    # find_critical_pairs(g) is vertices[i[0]].
    i, _ = g._critical_pairs
    endpoint = int(i[0]) if i.size else None
    if (source is None) == (endpoint is not None):
        failure = "equivalence-broken"
    elif endpoint is not None and source != endpoint:
        failure = "first-source-not-scan-endpoint"
    else:
        return None
    record = {
        "dimension": g.dimension,
        "isometric": source is None,
        "critical_pairs": i.size,
        "failure": failure,
    }
    violation = source is not None and _first_violation(g, source)
    if violation:  # None when the flagged source's own BFS row finds none
        a, b, dg, h = violation
        record["violating_pair"] = [str(a), str(b), "unreachable" if dg == UNREACHABLE else dg, h]
    if endpoint is not None:
        record["scan_endpoint"] = str(Word(g.dimension, int(g.vertices[endpoint])))
    return record


def critical_p_values(g: AvoidanceGraph) -> np.ndarray:
    """The Hamming distance p of every critical pair of g, in the order
    find_critical_pairs reports the pairs; empty exactly when g is isometric.

    The scan behind it runs once per graph object and is shared with
    is_isometric and find_critical_pairs.
    """
    i, j = g._critical_pairs
    return _popcount(g.vertices[i] ^ g.vertices[j])


def is_isometric(g: AvoidanceGraph, with_min_p: bool = False) -> Verdict:
    """Decide isometry from the critical-pair scan of g's vertices; name the
    violating pair with one BFS.

    A graph without critical pairs is isometric (see the module docstring).
    Otherwise the first pair in (source, target) index order whose graph
    distance differs from its Hamming distance is named by one single-source
    BFS from the least endpoint of the critical pairs.  That endpoint is the
    first violating source: every critical-pair endpoint violates, and a
    violating source's violating target of least Hamming distance has no
    interval neighbor in the graph, so the two form a critical pair.
    with_min_p adds the least p among the critical pairs.
    """
    d = g.dimension
    ps = critical_p_values(g)
    if not ps.size:
        return Verdict()
    pair = _first_violation(g, int(g._critical_pairs[0][0]))
    if pair is None:
        raise RuntimeError(
            f"Q_{d}({g.pattern}) has {ps.size} critical pairs but BFS finds no violation"
        )
    return Verdict(pair, int(ps.min()) if with_min_p else None)


def find_critical_pairs(g: AvoidanceGraph) -> list[CriticalPair]:
    """Definition-level scan, no BFS: pairs at Hamming distance at least 2
    where one side's interval flips are all forbidden.  Pairs are reported
    with alpha lexicographically first, sorted by (alpha, beta).
    """
    i, j = g._critical_pairs
    if not i.size:
        return []
    verts, d, forb = g.vertices, g.dimension, g.forbidden_flip_mask
    x = verts[i] ^ verts[j]
    block_a = ((x & ~forb[i]) == 0).tolist()
    block_b = ((x & ~forb[j]) == 0).tolist()
    return [
        CriticalPair(Word(d, a), Word(d, b), "both" if ba and bb else ("alpha" if ba else "beta"))
        for a, b, ba, bb in zip(verts[i].tolist(), verts[j].tolist(), block_a, block_b)
    ]


def first_violation_dimension(f: Pattern, d_max: int, graph=None) -> int | None:
    """Smallest d in 2..d_max where Q_d(f), as graph(f, d) gives it (build_graph
    by default), has a critical pair, else None; no pair is named.  V never
    decreases with d, so Q_{d_max}(f) is size-checked before any graph is built."""
    check_size(f, d_max)
    graph = graph or build_graph
    for d in range(2, d_max + 1):
        if critical_p_values(graph(f, d)).size:
            return d
    return None


def index_bruteforce(f: Pattern, graph=None) -> int | None:
    """First non-isometric dimension scanning d = 2..2|f|-1, or None (good).

    The scan stops at 2|f|-1 because any bad factor fails by then, and never
    resumes after a failure because non-isometry persists upward.
    """
    return first_violation_dimension(f, 2 * f.length - 1, graph)


def _digits(g: AvoidanceGraph) -> np.ndarray:
    """Each vertex's word as one row of ASCII digits (V x d uint8)."""
    d = g.dimension
    digits = np.empty((g.vertex_count, d), dtype=np.uint8)
    for k in range(d):
        digits[:, k] = (g.vertices >> (d - 1 - k)) & 1 | ord("0")
    return digits


def _dot_header(g: AvoidanceGraph) -> bytes:
    return f'graph "Q_{g.dimension}({g.pattern})" {{\n'.encode()


def graph_to_dot(g: AvoidanceGraph) -> str:
    """DOT text: one line per vertex, then one per edge in (lower end, upper
    end) word order, written into one byte buffer as the module docstring
    describes."""
    d, n = g.dimension, g.vertex_count
    i, k = g._up_edges()
    head, width = _dot_header(g), 2 * d + 12
    body = len(head) + n * (d + 6)
    text = np.empty(body + i.size * width + 2, dtype=np.uint8)
    text[: len(head)], text[-2:] = list(head), list(b"}\n")
    lines = text[len(head) : body].reshape(n, d + 6)  # '  "w";\n'
    lines[:, :3], lines[:, 3:-3], lines[:, -3:] = list(b'  "'), _digits(g), list(b'";\n')
    template = np.empty((n, width), dtype=np.uint8)  # '  "w" -- "w";\n'
    template[:, : d + 3], template[:, d + 9 :] = lines[:, : d + 3], lines[:, 3:]
    template[:, d + 3 : d + 9] = list(b'" -- "')
    np.take(template, i, axis=0, out=text[body:-2].reshape(i.size, width), mode="clip")
    # The upper name starts at column d + 9; its digit d-1-k is bit k.
    text[np.arange(body + 2 * d + 8, text.size - 2, width) - k] = ord("1")
    del i, k, template  # so that only the buffer is held while it is decoded
    return str(text, "ascii")


def graph_to_json_dict(g: AvoidanceGraph) -> dict:
    i, k = g._up_edges()
    # One str object per vertex, shared by its edge rows.
    names = _digits(g).view(f"S{g.dimension}").ravel().astype(str).astype(object)
    j = g._lookup(g.vertices[i] | 1 << k)
    return {
        "pattern": str(g.pattern),
        "dimension": g.dimension,
        "vertex_count": g.vertex_count,
        "vertices": names.tolist(),
        "edges": np.stack([names[i], names[j]], 1).tolist(),
    }
