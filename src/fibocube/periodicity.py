"""Equality propagation for two-period overlap systems.

For periods r and s with g = gcd(r, s), the positions t, t+g, ..., t+r+s-g
carry r/g equations of gap s (type 2) and s/g equations of gap r (type 3).
Their incidence structure is a 2-regular bipartite graph that is always a
single cycle, so dropping any one equation still forces it, and dropping two
still ties the loose ends pairwise.  The closure engine answers such forcing
queries by connected components over the assumed equations.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

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
    return dict(_equations(r, s))


@lru_cache(maxsize=1)
def _equations(r: int, s: int) -> Mapping[tuple[int, int], tuple[int, int]]:
    """equations(r, s), read-only and built once for a run of calls on one
    system, such as the overlap check's closure queries."""
    if r < 1 or s < 1:
        raise ValueError(f"periods must be positive, got r={r}, s={s}")
    g = math.gcd(r, s)
    return MappingProxyType({
        (kind, i): (1 + (i - 1) * g, 1 + (i - 1) * g + gap)
        for kind, count, gap in ((2, r // g, s), (3, s // g, r))
        for i in range(1, count + 1)
    })


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
    eqs = _equations(r, s)
    xs = tuple(f"v{1 if kind == 2 else 3}_{i}" for kind, i in eqs)
    ys = tuple(f"v2_{j}" for j in range(1, k + 1))
    edges = tuple(
        (x, f"v2_{(p - 1) // g + 1}") for x, pair in zip(xs, eqs.values()) for p in pair
    )
    return OverlapGraph(r, s, xs, ys, edges)


def is_single_cycle(graph: OverlapGraph) -> bool:
    """True iff every vertex has degree 2 and the graph is connected."""
    vertices = graph.x_vertices + graph.y_vertices
    if Counter(v for edge in graph.edges for v in edge) != dict.fromkeys(vertices, 2):
        return False
    dsu = _DSU({v: v for v in vertices})
    for a, b in graph.edges:
        dsu.union(a, b)
    return len({dsu.find(v) for v in vertices}) == 1


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


class _DSU:
    """Union-find over a mutable map from each item to itself: a dict, or a
    list when the items are 0..k-1."""

    def __init__(self, parent):
        self.parent = parent

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def closure_implies(
    r: int,
    s: int,
    assumed: set[tuple[int, int]] | frozenset[tuple[int, int]] | list[tuple[int, int]],
    queried: tuple[int, int],
) -> bool:
    """True iff the assumed equations force equality of the queried positions.

    Equation ids are the keys of equations(r, s).  Both queried positions must
    lie in the system's span 1, 1+g, ..., which has as many positions as the
    system has equations; position p is slot (p-1)/g of the union-find list.
    """
    eqs = _equations(r, s)
    g = math.gcd(r, s)
    dsu = _DSU(list(range(len(eqs))))
    for eq in assumed:
        if not isinstance(eq, tuple) or eq not in eqs:
            raise ValueError(f"malformed equation id {eq!r} for r={r}, s={s}")
        a, b = eqs[eq]
        dsu.union((a - 1) // g, (b - 1) // g)
    span = range(1, 1 + len(eqs) * g, g)
    qa, qb = queried
    if qa not in span or qb not in span:
        raise ValueError(f"queried positions {queried} outside span {tuple(span)}")
    return dsu.find(span.index(qa)) == dsu.find(span.index(qb))


@dataclass(frozen=True)
class PeriodCheck:
    ok: bool
    vacuous: bool

    def __bool__(self) -> bool:
        return self.ok


def period_closure_check(f: Word, r: int, s: int) -> PeriodCheck:
    """Check that periods r and s of a word with |f| = r + s force period
    g = gcd(r, s): f[i] = f[i + g] for i = 1..r + s - g.

    A word failing either hypothesis (gap s at 1..r, gap r at 1..s) passes
    vacuously.  Sound by Fine and Wilf (Proc. AMS 16 (1965)): a word of
    length r + s with periods r and s has period gcd(r, s).  The equations of
    the systems based at t = 1..g would only re-read the hypotheses: system
    t's type-2 pairs start at t + (i-1)g for i = 1..r/g, so over t = 1..g they
    start at 1..r once each, and its type-3 pairs likewise cover 1..s.
    """
    if r < 1 or s < 1:
        raise ValueError(f"periods must be positive, got r={r}, s={s}")
    if f.length != r + s:
        raise ValueError(f"need |f| = r + s = {r + s}, got {f.length}")

    def has_period(p: int) -> bool:
        return all(f.bit(i) == f.bit(i + p) for i in range(1, r + s - p + 1))

    if not (has_period(s) and has_period(r)):
        return PeriodCheck(ok=True, vacuous=True)
    return PeriodCheck(ok=has_period(math.gcd(r, s)), vacuous=False)
