"""Brute-force ground truth for factor-avoiding subgraphs of the hypercube.

Builds the vertex set of every length-d word avoiding a factor, finds
critical word pairs straight from the definition (all interval neighbors of
one endpoint are non-vertices), and computes graph distances by BFS.  Every
answer is read from the sorted vertex array; f only builds, size-checks and
labels Q_d(f), so a hand-built vertex set is answered exactly too.  All of it
is exhaustive and independent of the structural classifier, so the two can
check each other.

Q_d(f) is grown one bit at a time from the f-avoiding words one bit shorter,
so enumeration costs the sum of the vertex counts up to d, not 2^d window
tests (Q_25(11) has 196,418 of the 2^25 words).  A graph is refused before
anything is allocated when its d x V neighbor table would exceed
MAX_TABLE_BYTES; V is counted exactly from f's autocorrelation.

The flip tables, the critical-pair scan and graph_distance find a word's
vertex index, or -1 for a non-vertex, through one lookup.  When 2^d <= d * V
it is a gather through a dense index of all 2^d words, which then has no more
entries than the d x V neighbor table it fills; sparser graphs, such as
Q_25(11) or Q_63(01), binary-search the sorted vertices instead.

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
That BFS, like graph_distance's, is level-synchronous over the frontier only:
each level gathers the neighbors of the vertices it reached last, so the whole
BFS reads each neighbor-table entry once.

The lemma21 sweep checks the scan against an independent, scan-free BFS
route on every graph it covers.  That route compares BFS distance sums with
Hamming sums per batch of 64 sources; only the first batch whose sums differ
is re-run for its distance matrix.  Batches keep the bit-parallel engine
(_bfs_levels): each source is one bit of a uint64 per vertex, so one gather
of the whole table per level advances all 64 BFS at once.  A batch reads the
table once per level; 64 frontier BFS would read it once per source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .words import Pattern, Word

UNREACHABLE = math.inf

_CANDIDATE_CHUNK = 1 << 18  # critical-pair candidates held at once
_SOURCE_CHUNK = 64  # BFS sources per batch: one bit each in a uint64
MAX_TABLE_BYTES = 1 << 30  # largest d x V int64 neighbor table a graph may need


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
        self.pattern = pattern
        self.dimension = dimension
        self.vertices = vertices

    @property
    def vertex_count(self) -> int:
        return int(self.vertices.size)

    def words(self):
        d = self.dimension
        return (Word(d, int(v)) for v in self.vertices)

    @cached_property
    def _dense_index(self) -> np.ndarray | None:
        """index[w] is the dense index of vertex w and -1 for a non-vertex
        word, over all 2^d words; None when 2^d > d * V, so the index never
        has more entries than the d x V neighbor table it fills."""
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
    def _flip_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor index table V x d, forbidden-flip mask per vertex).

        Table entry [v, k] is the dense index of vertex XOR (1 << k), or -1
        when that word is not a vertex.  Bit k of the mask is set exactly
        in the -1 case, so interval-blocking tests reduce to integer masking.
        Each row k of the table is one _lookup of the vertices with bit k
        flipped: a gather through the dense word index when 2^d <= d * V,
        else a binary search.  The table is a view of a contiguous d x V
        array, whose rows the BFS gathers through.
        """
        verts = self.vertices
        d = self.dimension
        by_bit = np.empty((d, verts.size), dtype=np.int64)
        forb = np.zeros(verts.size, dtype=np.int64)
        for k in range(d):
            by_bit[k] = self._lookup(verts ^ (1 << k))
            forb |= (by_bit[k] < 0).astype(np.int64) << k
        return by_bit.T, forb

    @property
    def neighbor_table(self) -> np.ndarray:
        return self._flip_tables[0]

    @property
    def forbidden_flip_mask(self) -> np.ndarray:
        return self._flip_tables[1]

    @cached_property
    def _critical_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j), i < j, of every critical pair, sorted.

        A critical pair is alpha ^ x for a submask x of the forbidden-flip
        mask F of its blocked side, so each vertex with |F| >= 2 enumerates
        the words flipped at a submask of F and keeps those that are
        vertices.  A vertex with more submasks than the graph has vertices
        tests every vertex instead, so no vertex costs more than one row of
        all pairs.  The whole cube forbids no flip, so it has no pair and
        builds no flip table.
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
        keys = []
        for part in np.split(rows, np.flatnonzero(np.diff(chunk)) + 1):
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

    def _edge_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j), i < j, of all edges, sorted by (i, j).

        Index order is lexicographic order, so sorting index pairs sorts the
        word pairs.  Row-major order of the table is already sorted: for
        j > i, j is i's word with a zero bit k set, so j grows with k.
        """
        table = self.neighbor_table
        i, k = np.nonzero(table > np.arange(self.vertex_count)[:, None])
        return i, table[i, k]

    def edge_list(self) -> list[tuple[Word, Word]]:
        """All edges with the smaller endpoint first, sorted."""
        d = self.dimension
        i, j = self._edge_indices()
        return [
            (Word(d, a), Word(d, b))
            for a, b in zip(self.vertices[i].tolist(), self.vertices[j].tolist())
        ]


def _vertex_count(f: Pattern, d: int) -> int:
    """The exact number of length-d words avoiding f, from f's autocorrelation
    (Guibas and Odlyzko, String overlaps, pattern matching, and nontransitive
    games, JCTA 30 (1981)): with c_r = 1 iff f[r:] == f[:n-r], the counts
    have generating function c(z) / den(z), den = z^n + (1 - 2z) c(z)."""
    n = f.length
    c = [int(f.bits & ((1 << (n - r)) - 1) == f.bits >> r) for r in range(n)] + [0]
    den = [c[k] - 2 * c[k - 1] if k else 1 for k in range(n + 1)]
    den[n] += 1
    a = []
    for m in range(d + 1):
        cm = c[m] if m < n else 0
        a.append(cm - sum(den[k] * a[m - k] for k in range(1, min(m, n) + 1)))
    return a[d]


def _check_size(f: Pattern, d: int) -> None:
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


def build_graph(f: Pattern, d: int) -> AvoidanceGraph:
    """Every length-d word avoiding f, sorted: each length from |f| to d
    appends 0 and 1 to the words one bit shorter and drops those ending in f
    (the prefix avoids f, so only the last window can be new).  Appending the
    low bit keeps the order; the work grows with the vertex counts, not 2^d.
    Graphs over the size limit are refused first (_check_size).
    """
    _check_size(f, d)
    verts = np.arange(1 << min(d, f.length - 1), dtype=np.int64)
    mask = (1 << f.length) - 1
    for _ in range(f.length, d + 1):
        verts = np.repeat(verts << 1, 2)
        verts[1::2] |= 1
        verts = verts[(verts & mask) != f.bits]
    return AvoidanceGraph(f, d, verts)


def _bfs_levels(g: AvoidanceGraph, sources: np.ndarray):
    """BFS from up to 64 distinct source indices at once; yields, before each
    level, the V bitsets (uint64, bit s for source s) of vertices reached.

    Each level gathers the frontier through the neighbor table, one bit at a
    time, and ORs the gathers.  The frontier has one extra last slot that
    stays zero, so the table's -1 entries read nothing.  The generator ends
    when a level reaches nothing.
    """
    n = g.vertex_count
    by_bit = g.neighbor_table.T
    frontier = np.zeros(n + 1, dtype=np.uint64)
    frontier[sources] = np.uint64(1) << np.arange(len(sources), dtype=np.uint64)
    seen = frontier[:n].copy()
    while True:
        yield seen
        reach = np.bitwise_or.reduce(frontier[by_bit], axis=0) & ~seen
        if not reach.any():
            return
        seen |= reach
        frontier[:n] = reach


def _distances(g: AvoidanceGraph, sources: np.ndarray) -> np.ndarray:
    """BFS distances (len(sources) x V, int64) from up to 64 distinct source
    indices to every vertex index; -1 where a vertex is unreachable.
    """
    n = g.vertex_count
    # steps[v, s] counts the levels after which source s has not reached v:
    # the distance when s reaches v, one more than the last level otherwise.
    steps = np.zeros((n, 64), dtype=np.int32)
    for level, seen in enumerate(_bfs_levels(g, sources)):
        # Little-endian bytes unpacked little-bit-first put source s in column s.
        unseen = (~seen).astype("<u8", copy=False).view(np.uint8)
        steps += np.unpackbits(unseen, bitorder="little").reshape(n, 64)
    dist = steps[:, : len(sources)].T.astype(np.int64)
    dist[dist > level] = -1
    return dist


def _distance_row(g: AvoidanceGraph, source: int) -> np.ndarray:
    """BFS distances (V, int64) from one source index to every vertex index;
    -1 where a vertex is unreachable.

    Each level gathers the neighbors of the frontier only, so the BFS reads
    every table entry once (V * d in all) rather than the whole table per
    level, as the 64-lane _bfs_levels does.  dist has one extra last slot,
    held at 0, so the table's -1 entries land there and never count as new.
    """
    n = g.vertex_count
    by_bit = g.neighbor_table.T
    dist = np.full(n + 1, -1, dtype=np.int64)
    dist[n] = dist[source] = 0
    frontier = np.array([source])
    level = 0
    while frontier.size:
        level += 1
        reach = by_bit[:, frontier]
        dist[reach[dist[reach] < 0]] = level
        frontier = np.flatnonzero(dist == level)
    return dist[:n]


def _distance_sum(g: AvoidanceGraph, sources: np.ndarray) -> tuple[int, bool]:
    """(sum of BFS distances from the sources to every vertex they reach,
    whether every source reaches every vertex), without a distance matrix.

    Each level adds the (source, vertex) pairs not reached yet, so a pair at
    distance k is counted at levels 0..k-1.
    """
    mask = np.uint64((1 << len(sources)) - 1)
    total = 0
    for seen in _bfs_levels(g, sources):
        total += int(_popcount(~seen & mask).sum())
    return total, bool(((seen & mask) == mask).all())


def graph_distance(g: AvoidanceGraph, a: Word, b: Word) -> int | float:
    """BFS distance inside the graph; UNREACHABLE when no path exists.

    One single-source BFS from a that expands only the frontier.  A word of
    another length is no vertex; a longer one would index past the dense table."""
    d = g.dimension
    ends = []
    for w in (a, b):
        i = int(g._lookup(np.array([w.bits]))[0]) if w.length == d and g.vertex_count else -1
        if i < 0:
            raise ValueError(f"{w} is not a vertex of Q_{d}({g.pattern})")
        ends.append(i)
    dg = int(_distance_row(g, ends[0])[ends[1]])
    return UNREACHABLE if dg < 0 else dg


@dataclass(frozen=True)
class Verdict:
    isometric: bool
    violating_pair: tuple[Word, Word, int | float, int] | None = None
    minimal_critical_p: int | None = None


@dataclass(frozen=True)
class CriticalPair:
    alpha: Word
    beta: Word
    p: int
    blocked_side: str  # "alpha", "beta", or "both"


def _first_violation(
    g: AvoidanceGraph, sources: np.ndarray, dist: np.ndarray
) -> tuple[Word, Word, int | float, int] | None:
    """The first (source, target) pair in index order whose BFS distance, a
    row of dist per source, differs from its Hamming distance; None when
    there is none.  Unreachable pairs (-1) violate."""
    verts = g.vertices
    ham = _popcount(verts[sources, None] ^ verts[None, :])
    bad = np.argwhere(dist != ham)
    if not bad.size:
        return None
    i, j = bad[0]
    alpha = Word(g.dimension, int(verts[sources[i]]))
    beta = Word(g.dimension, int(verts[j]))
    dg = UNREACHABLE if dist[i, j] < 0 else int(dist[i, j])
    return alpha, beta, dg, int(ham[i, j])


def _bfs_violation(g: AvoidanceGraph) -> tuple[Word, Word, int | float, int] | None:
    """The first vertex pair, in (source, target) index order, whose BFS
    distance differs from its Hamming distance; None when there is none.
    Unreachable pairs violate.  This route does not read the critical-pair
    scan, so the lemma21 sweep can check one against the other.

    Sources run in batches of 64 in lexicographic order.  A batch passes when
    every pair is reachable and its BFS distance sum equals its Hamming sum,
    which is exact because graph distance is never below Hamming distance.
    The first batch that fails is re-run for its full distance matrix.
    """
    d = g.dimension
    verts = g.vertices
    n = verts.size
    # Bit k adds s_k (n - c_k) + (b - s_k) c_k to the Hamming sum of b
    # sources, s_k of which have bit k set, against the c_k vertices that do.
    bits = (verts[:, None] >> np.arange(d)) & 1
    ones = bits.sum(axis=0)
    for lo in range(0, n, _SOURCE_CHUNK):
        idx = np.arange(lo, min(lo + _SOURCE_CHUNK, n))
        s = bits[idx].sum(axis=0)
        ham_sum = int((s * (n - ones) + (idx.size - s) * ones).sum())
        if _distance_sum(g, idx) == (ham_sum, True):
            continue
        return _first_violation(g, idx, _distances(g, idx))
    return None


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
        return Verdict(True)
    source = int(g._critical_pairs[0][0])
    pair = _first_violation(g, np.array([source]), _distance_row(g, source)[None, :])
    if pair is None:
        raise RuntimeError(
            f"Q_{d}({g.pattern}) has {ps.size} critical pairs but BFS finds no violation"
        )
    return Verdict(False, pair, int(ps.min()) if with_min_p else None)


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
        CriticalPair(
            Word(d, a), Word(d, b), p, "both" if ba and bb else ("alpha" if ba else "beta")
        )
        for a, b, p, ba, bb in zip(
            verts[i].tolist(), verts[j].tolist(), _popcount(x).tolist(), block_a, block_b
        )
    ]


def first_violation_dimension(f: Pattern, d_max: int, graph=None) -> int | None:
    """Smallest d in 2..d_max where Q_d(f), as graph(f, d) gives it (build_graph
    by default), has a critical pair, else None; no pair is named.  V never
    decreases with d, so Q_{d_max}(f) is size-checked before any graph is built."""
    _check_size(f, d_max)
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


def _vertex_names(g: AvoidanceGraph) -> np.ndarray:
    """Each vertex's word as one fixed-width bytes element (dtype S<d>)."""
    d = g.dimension
    digits = np.empty((g.vertex_count, d), dtype=np.uint8)
    for k in range(d):
        digits[:, k] = (g.vertices >> (d - 1 - k)) & 1
    digits += ord("0")
    return digits.view(f"S{d}").ravel()


def _records(n: int, *parts) -> np.ndarray:
    """An array of n fixed-width records whose bytes are each record's parts
    in order: a bytes constant is repeated in every record, an S-dtype array
    gives one element per record."""
    fields = [
        (f"f{k}", p.dtype if isinstance(p, np.ndarray) else f"S{len(p)}")
        for k, p in enumerate(parts)
    ]
    out = np.empty(n, dtype=fields)
    for (name, _), p in zip(fields, parts):
        out[name] = p
    return out


def graph_to_dot(g: AvoidanceGraph) -> str:
    """DOT text: one line per vertex, then one per edge in edge_list order.

    Every vertex line and every edge line has a fixed width, so each block is
    rendered as one array of records rather than one string per line.
    """
    names = _vertex_names(g)
    i, j = g._edge_indices()
    header = f'graph "Q_{g.dimension}({g.pattern})" {{\n'.encode()
    text = b"".join([
        header,
        _records(names.size, b'  "', names, b'";\n'),
        _records(i.size, b'  "', names[i], b'" -- "', names[j], b'";\n'),
        b"}\n",
    ])
    return text.decode("ascii")


def graph_to_json_dict(g: AvoidanceGraph) -> dict:
    # One str object per vertex, shared by its edge rows.
    names = _vertex_names(g).astype(str).astype(object)
    i, j = g._edge_indices()
    return {
        "pattern": str(g.pattern),
        "dimension": g.dimension,
        "vertex_count": g.vertex_count,
        "vertices": names.tolist(),
        "edges": np.stack([names[i], names[j]], 1).tolist(),
    }
