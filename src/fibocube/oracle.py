"""Brute-force ground truth for factor-avoiding subgraphs of the hypercube.

Builds the vertex set of every length-d word avoiding a factor, computes
graph distances by BFS, decides isometry against Hamming distance, and scans
for critical word pairs straight from the definition (all interval neighbors
of one endpoint forbidden).  Everything here is exhaustive and makes no use
of the structural classifier, so the two can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from .words import Pattern, Word, contains_factor

UNREACHABLE = math.inf

_ENUM_CHUNK = 1 << 22
_ROW_CHUNK = 128
_SOURCE_CHUNK = 64  # BFS sources per batch: one bit each in a uint64

if hasattr(np, "bitwise_count"):
    def _popcount(a: np.ndarray) -> np.ndarray:
        return np.bitwise_count(a).astype(np.int64)
else:  # pragma: no cover - numpy < 2.0
    _BYTE_POP = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)

    def _popcount(a: np.ndarray) -> np.ndarray:
        b = np.ascontiguousarray(a).view(np.uint8)
        return _BYTE_POP[b].reshape(*a.shape, -1).sum(axis=-1).astype(np.int64)


def _forbidden(values: np.ndarray, d: int, fbits: int, flen: int) -> np.ndarray:
    """Boolean mask of which length-d values contain the packed factor."""
    out = np.zeros(values.shape, dtype=bool)
    if flen > d:
        return out
    mask = (1 << flen) - 1
    for shift in range(d - flen + 1):
        out |= ((values >> shift) & mask) == fbits
    return out


class AvoidanceGraph:
    """Vertices are the f-avoiding length-d words; edges join Hamming-1 pairs.

    Vertex storage is a sorted array of packed words, so array index order is
    lexicographic order of the words.  Adjacency structures are built lazily.
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

    def contains_vertex(self, w: Word) -> bool:
        return w.length == self.dimension and not contains_factor(w, self.pattern)

    def _require_vertex(self, w: Word) -> None:
        if not self.contains_vertex(w):
            raise ValueError(f"{w} is not a vertex of Q_{self.dimension}({self.pattern})")

    @cached_property
    def _flip_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor index table V x d, forbidden-flip mask per vertex).

        Table entry [v, k] is the dense index of vertex XOR (1 << k), or -1
        when that word contains the factor.  Bit k of the mask is set exactly
        in the -1 case, so interval-blocking tests reduce to integer masking.
        """
        verts = self.vertices
        n = verts.size
        d = self.dimension
        table = np.full((n, d), -1, dtype=np.int64)
        in_mask = np.zeros(n, dtype=np.int64)
        for k in range(d):
            nb = verts ^ (1 << k)
            pos = np.searchsorted(verts, nb)
            ok = pos < n
            ok[ok] = verts[pos[ok]] == nb[ok]
            table[ok, k] = pos[ok]
            in_mask[ok] |= 1 << k
        full = (1 << d) - 1
        return table, full ^ in_mask

    @property
    def neighbor_table(self) -> np.ndarray:
        return self._flip_tables[0]

    @property
    def forbidden_flip_mask(self) -> np.ndarray:
        return self._flip_tables[1]

    def edge_list(self) -> list[tuple[Word, Word]]:
        """All edges with the smaller endpoint first, sorted.

        Index order is lexicographic order, so sorting index pairs sorts the
        word pairs.
        """
        table = self.neighbor_table
        i, k = np.nonzero(table > np.arange(self.vertex_count)[:, None])
        j = table[i, k]
        order = np.lexsort((j, i))
        verts = self.vertices
        d = self.dimension
        return [(Word(d, int(verts[a])), Word(d, int(verts[b])))
                for a, b in zip(i[order], j[order])]


def build_graph(f: Pattern, d: int, cap: int | None = None) -> AvoidanceGraph:
    """Enumerate every length-d word avoiding f."""
    limit = config.dimension_cap(cap)
    if not 1 <= d <= limit:
        raise ValueError(f"dimension {d} outside 1..{limit} (dimension cap {limit})")
    total = 1 << d
    chunks = []
    for lo in range(0, total, _ENUM_CHUNK):
        vals = np.arange(lo, min(lo + _ENUM_CHUNK, total), dtype=np.int64)
        chunks.append(vals[~_forbidden(vals, d, f.bits, f.length)])
    return AvoidanceGraph(f, d, np.concatenate(chunks))


def _distances(g: AvoidanceGraph, sources: np.ndarray) -> np.ndarray:
    """BFS distances (len(sources) x V, int64) from up to 64 distinct source
    indices to every vertex index; -1 where a vertex is unreachable.

    All sources run at once, one bit per source in a uint64 per vertex.  Each
    level gathers the frontier over the neighbor table and ORs each row.  The
    frontier has one extra last slot that stays zero, so the table's -1
    entries read nothing.
    """
    n = g.vertex_count
    table = g.neighbor_table
    frontier = np.zeros(n + 1, dtype=np.uint64)
    frontier[sources] = np.uint64(1) << np.arange(len(sources), dtype=np.uint64)
    seen = frontier[:n].copy()
    # steps[v, s] counts the levels after which source s has not reached v:
    # the distance when s reaches v, one more than the last level otherwise.
    steps = np.zeros((n, 64), dtype=np.int32)
    level = 0
    while True:
        # Little-endian bytes unpacked little-bit-first put source s in column s.
        unseen = (~seen).astype("<u8", copy=False).view(np.uint8)
        steps += np.unpackbits(unseen, bitorder="little").reshape(n, 64)
        reach = np.bitwise_or.reduce(frontier[table], axis=1) & ~seen
        if not reach.any():
            break
        level += 1
        seen |= reach
        frontier[:n] = reach
    dist = steps[:, : len(sources)].T.astype(np.int64)
    dist[dist > level] = -1
    return dist


def graph_distance(g: AvoidanceGraph, a: Word, b: Word) -> int | float:
    """BFS distance inside the graph; UNREACHABLE when no path exists."""
    g._require_vertex(a)
    g._require_vertex(b)
    ia, ib = np.searchsorted(g.vertices, [a.bits, b.bits])
    dg = int(_distances(g, np.array([ia]))[0, ib])
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


def is_isometric(g: AvoidanceGraph, with_min_p: bool = False) -> Verdict:
    """Compare BFS distance with Hamming distance over all vertex pairs.

    Sources are swept in lexicographic order with an early exit, so the
    reported violating pair is deterministic; unreachable pairs violate.
    """
    d = g.dimension
    if g.pattern.length > d:
        # No length-d word contains the factor, so the graph is the whole
        # cube, where graph distance and Hamming distance agree.
        if g.vertex_count != 1 << d:
            raise RuntimeError("enumeration bug: full cube expected")
        return Verdict(True)
    verts = g.vertices
    n = verts.size
    if n <= 1:
        return Verdict(True)
    for lo in range(0, n, _SOURCE_CHUNK):
        idx = np.arange(lo, min(lo + _SOURCE_CHUNK, n))
        dist = _distances(g, idx)
        ham = _popcount(verts[idx, None] ^ verts[None, :])
        viol = dist != ham
        if viol.any():
            i, j = np.argwhere(viol)[0]
            alpha = Word(d, int(verts[idx[i]]))
            beta = Word(d, int(verts[j]))
            dg = UNREACHABLE if dist[i, j] < 0 else int(dist[i, j])
            min_p = None
            if with_min_p:
                pairs = find_critical_pairs(g, minimal_only=True)
                min_p = pairs[0].p if pairs else None
            return Verdict(False, (alpha, beta, dg, int(ham[i, j])), min_p)
    return Verdict(True)


def find_critical_pairs(g: AvoidanceGraph, minimal_only: bool = False) -> list[CriticalPair]:
    """Definition-level scan, no BFS: pairs where one side's interval flips
    are all forbidden.  Pairs are reported with alpha lexicographically first.
    """
    verts = g.vertices
    n = verts.size
    d = g.dimension
    if n < 2 or g.pattern.length > d:
        return []
    forb = g.forbidden_flip_mask
    cols = np.arange(n, dtype=np.int64)[None, :]
    found: list[CriticalPair] = []
    for lo in range(0, n, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, n)
        rows = verts[lo:hi, None]
        x = rows ^ verts[None, :]
        pops = _popcount(x)
        block_a = (x & ~forb[lo:hi, None]) == 0
        block_b = (x & ~forb[None, :]) == 0
        crit = (pops >= 2) & (block_a | block_b) & (cols > np.arange(lo, hi)[:, None])
        for i, j in np.argwhere(crit):
            side = "both" if (block_a[i, j] and block_b[i, j]) else (
                "alpha" if block_a[i, j] else "beta"
            )
            found.append(
                CriticalPair(
                    Word(d, int(verts[lo + i])), Word(d, int(verts[j])), int(pops[i, j]), side
                )
            )
    if minimal_only and found:
        best = min(c.p for c in found)
        found = [c for c in found if c.p == best]
    return found


def first_violation_dimension(f: Pattern, d_max: int, cap: int | None = None) -> int | None:
    """Smallest d in 2..d_max where the graph stops being isometric, else None."""
    limit = config.dimension_cap(cap)
    if d_max > limit:
        raise ValueError(f"scan to dimension {d_max} exceeds dimension cap {limit}")
    for d in range(2, d_max + 1):
        if not is_isometric(build_graph(f, d, cap)).isometric:
            return d
    return None


def index_bruteforce(f: Pattern, cap: int | None = None) -> int | None:
    """First non-isometric dimension scanning d = 2..2|f|-1, or None (good).

    The scan stops at 2|f|-1 because any bad factor fails by then, and never
    resumes after a failure because non-isometry persists upward.
    """
    return first_violation_dimension(f, 2 * f.length - 1, cap)


def graph_to_dot(g: AvoidanceGraph) -> str:
    lines = [f'graph "Q_{g.dimension}({g.pattern})" {{']
    for w in g.words():
        lines.append(f'  "{w}";')
    for a, b in g.edge_list():
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: AvoidanceGraph) -> dict:
    return {
        "pattern": str(g.pattern),
        "dimension": g.dimension,
        "vertex_count": g.vertex_count,
        "vertices": [str(w) for w in g.words()],
        "edges": [[str(a), str(b)] for a, b in g.edge_list()],
    }
