"""Two-period overlap systems and their incidence graphs.

For periods r and s with g = gcd(r, s), the positions t, t+g, ..., t+r+s-g
carry r/g equations of gap s (type 2) and s/g equations of gap r (type 3).
Their incidence structure is a 2-regular bipartite graph that is always a
single cycle.  Removing one equation vertex therefore leaves a path through
every position, so the dropped equation is still forced; removing two leaves
two paths whose loose ends tie crosswise.  is_single_cycle, run on a system's
overlap graph, thus also decides that the others force each equation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .words import Word

MAX_OVERLAP_VERTICES = 1 << 20  # its DOT export needs about half a KiB per vertex


@dataclass(frozen=True)
class OverlapGraph:
    r: int
    s: int
    x_vertices: tuple[str, ...]
    y_vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @property
    def k1(self) -> int:
        return self.r // math.gcd(self.r, self.s)

    @property
    def k2(self) -> int:
        return self.s // math.gcd(self.r, self.s)

    def to_dot(self) -> str:
        lines = [f'graph "overlap_{self.r}_{self.s}" {{']
        for v in self.x_vertices + self.y_vertices:
            lines.append(f'  "{v}";')
        for a, b in self.edges:
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def equations(r: int, s: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The (r, s) system based at position 1, as equation id -> position pair.

    With g = gcd(r, s), the gap-s equation (2, i) for i = 1..r/g is the pair
    (1+(i-1)g, 1+(i-1)g+s), and the gap-r equation (3, j) for j = 1..s/g is
    (1+(j-1)g, 1+(j-1)g+r).  Together they cover the span 1, 1+g, ..., r+s+1-g.
    Each call returns a fresh dict.
    """
    if r < 1 or s < 1:
        raise ValueError(f"periods must be positive, got r={r}, s={s}")
    g = math.gcd(r, s)
    return {
        (kind, i): (1 + (i - 1) * g, 1 + (i - 1) * g + gap)
        for kind, count, gap in ((2, r // g, s), (3, s // g, r))
        for i in range(1, count + 1)
    }


def build_overlap_graph(r: int, s: int) -> OverlapGraph:
    """The incidence graph of equations(r, s): equation (2, i) is v1_i, (3, j)
    is v3_j, position 1 + (j-1)g is v2_j, and each equation is joined to its
    two positions.  2(k1 + k2) vertices, refused over MAX_OVERLAP_VERTICES
    before the equations are listed."""
    if r < 1 or s < 1:
        raise ValueError(f"periods must be positive, got r={r}, s={s}")
    g = math.gcd(r, s)
    k = (r + s) // g  # k1 + k2 equations, and as many positions
    if 2 * k > MAX_OVERLAP_VERTICES:
        raise ValueError(
            f"overlap graph of r={r}, s={s} has {2 * k} vertices, "
            f"over the limit of {MAX_OVERLAP_VERTICES}"
        )
    eqs = equations(r, s)
    xs = tuple(f"v{1 if kind == 2 else 3}_{i}" for kind, i in eqs)
    ys = tuple(f"v2_{j}" for j in range(1, k + 1))
    edges = tuple(
        (x, f"v2_{(p - 1) // g + 1}") for x, pair in zip(xs, eqs.values()) for p in pair
    )
    return OverlapGraph(r, s, xs, ys, edges)


def _adjacency(graph: OverlapGraph) -> dict[str, list[str]]:
    """Each vertex's neighbours, one entry per edge end; every edge end must be a vertex."""
    adj = {v: [] for v in graph.x_vertices + graph.y_vertices}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def is_single_cycle(graph: OverlapGraph) -> bool:
    """True iff the graph has a vertex, every vertex has degree 2 and the graph
    is connected."""
    vertices = graph.x_vertices + graph.y_vertices
    if not vertices or Counter(v for e in graph.edges for v in e) != dict.fromkeys(vertices, 2):
        return False
    adj = _adjacency(graph)
    seen, stack = {vertices[0]}, [vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def residue_sequence(k1: int, k2: int) -> list[int]:
    """h_j = (j-1)*k1 mod (k1+k2) for j = 1..k1+k2; needs coprime k1, k2.

    Walking the overlap cycle from v2_1 through its gap-r equation v3_1 visits
    v2_{h_j+1} in this order (through v1_1, in reverse after v2_1), so the
    sequence is a permutation of 0..k1+k2-1 whose last entry is k2.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError(f"k1 and k2 must be positive, got {k1}, {k2}")
    if math.gcd(k1, k2) != 1:
        raise ValueError(f"k1={k1} and k2={k2} must be coprime")
    n = k1 + k2
    return [((j - 1) * k1) % n for j in range(1, n + 1)]


def period_closure_check(f: Word, r: int, s: int) -> bool | None:
    """Whether periods r and s of a word with |f| = r + s force period
    g = gcd(r, s): f[i] = f[i + g] for i = 1..r + s - g.

    None, a vacuous pass, when the word fails either hypothesis (gap s at
    1..r, gap r at 1..s).  Never False, by Fine and Wilf (Proc. AMS 16
    (1965)): a word of length r + s with periods r and s has period gcd(r, s).
    The equations of the systems based at t = 1..g would only re-read the
    hypotheses: system t's type-2 pairs start at t + (i-1)g for i = 1..r/g, so
    over t = 1..g they start at 1..r once each, and its type-3 pairs likewise
    cover 1..s.
    """
    if r < 1 or s < 1:
        raise ValueError(f"periods must be positive, got r={r}, s={s}")
    if f.length != r + s:
        raise ValueError(f"need |f| = r + s = {r + s}, got {f.length}")

    def has_period(p: int) -> bool:
        return all(f.bit(i) == f.bit(i + p) for i in range(1, r + s - p + 1))

    if not (has_period(s) and has_period(r)):
        return None
    return has_period(math.gcd(r, s))


def _overlap_failure(limit: int) -> dict | None:
    """The first failing record of the overlap checks, or None.  For each
    r, s <= limit, the (r, s) graph is one cycle, and a walk round it from
    v2_1 through its gap-r equation (a v3_* vertex) meets v2_{h+1} for h in
    residue_sequence order.  Then, for three (r, s), periods r and s of each
    word of length r + s force period gcd(r, s) (None is a vacuous pass)."""
    for r, s in product(range(1, limit + 1), repeat=2):
        g = build_overlap_graph(r, s)
        if not is_single_cycle(g):
            return {"r": r, "s": s, "failure": "not-a-single-cycle"}
        adj, slot = _adjacency(g), {y: h for h, y in enumerate(g.y_vertices)}
        walk, y = [], g.y_vertices[0]
        x = min(adj[y], key=lambda v: v.startswith("v3_"))  # enter by v1_*, leave by v3_*
        for _ in g.y_vertices:
            walk.append(slot[y])
            x = next(v for v in adj[y] if v != x)
            y = next(v for v in adj[x] if v != y)
        if walk != residue_sequence(g.k1, g.k2):
            return {"r": r, "s": s, "failure": "residue-walk-broken"}
    for r, s in ((1, 2), (2, 2), (2, 4)):
        for bits in range(1 << (r + s)):
            if period_closure_check(w := Word(r + s, bits), r, s) is False:
                return {"word": str(w), "r": r, "s": s, "failure": "period-check-broken"}
    return None
