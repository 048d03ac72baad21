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
from dataclasses import dataclass

from .words import Word

MAX_OVERLAP_VERTICES = 1 << 20  # its DOT export needs about half a KiB per vertex


@dataclass(frozen=True)
class OverlapGraph:
    r: int
    s: int
    g: int
    k1: int
    k2: int
    x_vertices: tuple[str, ...]
    y_vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def denoted_index(self, label: str) -> int:
        """1-based slot in the position progression t, t+g, ... that a vertex denotes.

        v1_i and v2_i denote slot i; v3_k denotes slot k + k1 (its position is
        t + (k-1)g + r).  Edges between same-slot vertices are tautologies; the
        remaining edges are the gap-s and gap-r equations.
        """
        kind, num = label.split("_")
        i = int(num)
        if kind == "v1" or kind == "v2":
            return i
        if kind == "v3":
            return i + self.k1
        raise ValueError(f"unknown vertex label {label!r}")

    def to_dot(self) -> str:
        lines = [f'graph "overlap_{self.r}_{self.s}" {{']
        for v in self.x_vertices + self.y_vertices:
            lines.append(f'  "{v}";')
        for a, b in self.edges:
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_overlap_graph(r: int, s: int) -> OverlapGraph:
    """The 2-regular bipartite incidence graph of the (r, s) equation system:
    2(k1 + k2) vertices, refused over MAX_OVERLAP_VERTICES."""
    if r < 1 or s < 1:
        raise ValueError(f"periods must be positive, got r={r}, s={s}")
    g = math.gcd(r, s)
    k1, k2 = r // g, s // g
    if 2 * (k1 + k2) > MAX_OVERLAP_VERTICES:
        raise ValueError(
            f"overlap graph of r={r}, s={s} has {2 * (k1 + k2)} vertices, "
            f"over the limit of {MAX_OVERLAP_VERTICES}"
        )
    xs = tuple(f"v1_{i}" for i in range(1, k1 + 1)) + tuple(
        f"v3_{k}" for k in range(1, k2 + 1)
    )
    ys = tuple(f"v2_{j}" for j in range(1, k1 + k2 + 1))
    edges = []
    for i in range(1, k1 + 1):
        edges.append((f"v1_{i}", f"v2_{i}"))          # tautology: same position
        edges.append((f"v1_{i}", f"v2_{i + k2}"))     # gap-s equation i
    for k in range(1, k2 + 1):
        edges.append((f"v3_{k}", f"v2_{k}"))          # gap-r equation k
        edges.append((f"v3_{k}", f"v2_{k + k1}"))     # tautology: same position
    return OverlapGraph(r, s, g, k1, k2, xs, ys, tuple(edges))


def is_single_cycle(graph: OverlapGraph) -> bool:
    """True iff every vertex has degree 2 and the graph is connected."""
    vertices = graph.x_vertices + graph.y_vertices
    if Counter(v for edge in graph.edges for v in edge) != dict.fromkeys(vertices, 2):
        return False
    dsu = _DSU(vertices)
    for a, b in graph.edges:
        dsu.union(a, b)
    return len({dsu.find(v) for v in vertices}) == 1


def residue_sequence(k1: int, k2: int) -> list[int]:
    """h_j = (j-1)*k1 mod (k1+k2) for j = 1..k1+k2; needs coprime k1, k2.

    Walking the overlap cycle visits the Y side in exactly this order, so the
    sequence is a permutation of 0..k1+k2-1 whose last entry is k2.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError(f"k1 and k2 must be positive, got {k1}, {k2}")
    if math.gcd(k1, k2) != 1:
        raise ValueError(f"k1={k1} and k2={k2} must be coprime")
    n = k1 + k2
    return [((j - 1) * k1) % n for j in range(1, n + 1)]


@dataclass(frozen=True)
class EquationSystem:
    """Concrete position equalities of the (r, s) system based at position t.

    type2[i] for i = 1..r/g is the pair (t+(i-1)g, t+(i-1)g+s);
    type3[j] for j = 1..s/g is the pair (t+(j-1)g, t+(j-1)g+r).
    """

    r: int
    s: int
    g: int
    k1: int
    k2: int
    base: int
    span: tuple[int, ...]
    type2: dict[int, tuple[int, int]]
    type3: dict[int, tuple[int, int]]


def equation_system(r: int, s: int, base: int = 1) -> EquationSystem:
    if r < 1 or s < 1:
        raise ValueError(f"periods must be positive, got r={r}, s={s}")
    if base < 1:
        raise ValueError(f"base position must be positive, got {base}")
    g = math.gcd(r, s)
    k1, k2 = r // g, s // g
    span = tuple(base + j * g for j in range(k1 + k2))
    type2 = {i: (base + (i - 1) * g, base + (i - 1) * g + s) for i in range(1, k1 + 1)}
    type3 = {j: (base + (j - 1) * g, base + (j - 1) * g + r) for j in range(1, k2 + 1)}
    return EquationSystem(r, s, g, k1, k2, base, span, type2, type3)


class _DSU:
    def __init__(self, items):
        self.parent = {x: x for x in items}

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

    Equation ids are (2, i) with i in 1..r/g or (3, j) with j in 1..s/g;
    tautological identifications are always in force and need not be listed.
    Both queried positions must lie in the system's span.
    """
    system = equation_system(r, s)
    dsu = _DSU(system.span)
    for eq in assumed:
        if not (isinstance(eq, tuple) and len(eq) == 2):
            raise ValueError(f"malformed equation id {eq!r}")
        kind, idx = eq
        if kind == 2 and idx in system.type2:
            a, b = system.type2[idx]
        elif kind == 3 and idx in system.type3:
            a, b = system.type3[idx]
        else:
            raise ValueError(f"malformed equation id {eq!r} for r={r}, s={s}")
        dsu.union(a, b)
    qa, qb = queried
    if qa not in dsu.parent or qb not in dsu.parent:
        raise ValueError(f"queried positions {queried} outside span {system.span}")
    return dsu.find(qa) == dsu.find(qb)


@dataclass(frozen=True)
class PeriodCheck:
    ok: bool
    vacuous: bool

    def __bool__(self) -> bool:
        return self.ok


def period_closure_check(f: Word, r: int, s: int) -> PeriodCheck:
    """Verify the full equation system on a concrete word with |f| = r + s.

    When f satisfies both period hypotheses (gap s holds at 1..r and gap r at
    1..s), checks that the equations of every base t = 1..g hold as well;
    otherwise reports a vacuous pass.
    """
    if r < 1 or s < 1:
        raise ValueError(f"periods must be positive, got r={r}, s={s}")
    if f.length != r + s:
        raise ValueError(f"need |f| = r + s = {r + s}, got {f.length}")
    hyp = all(f.bit(i) == f.bit(i + s) for i in range(1, r + 1)) and all(
        f.bit(j) == f.bit(j + r) for j in range(1, s + 1)
    )
    if not hyp:
        return PeriodCheck(ok=True, vacuous=True)
    g = math.gcd(r, s)
    for t in range(1, g + 1):
        system = equation_system(r, s, base=t)
        for a, b in list(system.type2.values()) + list(system.type3.values()):
            if f.bit(a) != f.bit(b):
                return PeriodCheck(ok=False, vacuous=False)
    return PeriodCheck(ok=True, vacuous=False)
