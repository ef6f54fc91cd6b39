"""Deterministic generators for the separating graph families: the fixture
pairs, disjoint-cycle-union pairs, and the parity-gadget (CFI-style)
construction over a core pattern.

All generators are pure functions of their parameters; vertex ids, labels and
edge orders are bit-stable across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from homcount.graphs import (
    Graph, RootedPattern, SizeGuardError, check_vertex_count, normalize_edges
)

# Edges per gadget graph. A gadget pair peaks at 210 to 240 bytes per edge (stars K1,16
# to K1,18; K1,18, 1.18·10^6 edges a graph, at 472 MB): the largest admitted near 0.9 GB.
CFI_EDGE_GUARD = 1 << 21


@dataclass(frozen=True)
class GraphPair:
    """A generated (g, h) pair plus the marked vertices the family cares about."""

    family: str
    g: Graph
    h: Graph
    marked: Optional[tuple[int, int]] = None

    def meta(self, which: str) -> dict:
        out = {"family": self.family, "pair": [self.g.id, self.h.id]}
        if self.marked is not None:
            out["marked_vertex"] = self.marked[0] if which == self.g.id else self.marked[1]
        return out


@dataclass(frozen=True)
class ParityVertex:
    """One gadget vertex: a base pattern vertex plus a 0/1 assignment on its
    incident edges, listed in sorted edge order. The assignment's parity is
    fixed by the side of the construction it belongs to."""

    base: int
    assignment: tuple[int, ...]

    @property
    def parity(self) -> int:
        return sum(self.assignment) % 2


def build_graph(gid: str, n: int, edges, labels=None) -> Graph:
    return Graph(gid, n, tuple(labels if labels is not None else [0] * n),
                 normalize_edges(edges))


def cycle_graph(k: int, gid: Optional[str] = None) -> Graph:
    return build_graph(gid or f"C{k}", k, [(i, (i + 1) % k) for i in range(k)])


def clique_graph(k: int, gid: Optional[str] = None) -> Graph:
    return build_graph(gid or f"K{k}", k, list(itertools.combinations(range(k), 2)))


def path_graph(k: int, gid: Optional[str] = None) -> Graph:
    return build_graph(gid or f"P{k}", k, [(i, i + 1) for i in range(k - 1)])


def cycle_pattern(k: int, root: int = 0) -> RootedPattern:
    return RootedPattern(cycle_graph(k), root)


def clique_pattern(k: int, root: int = 0) -> RootedPattern:
    return RootedPattern(clique_graph(k), root)


def path_pattern(length: int, root: int = 0) -> RootedPattern:
    """Rooted path with ``length`` edges; root defaults to an end vertex."""
    return RootedPattern(path_graph(length + 1, f"L{length}"), root)


def single_vertex_pattern(label: int = 0) -> RootedPattern:
    return RootedPattern(build_graph("V1", 1, [], labels=[label]), 0)


def bowtie_pattern() -> RootedPattern:
    """Two triangles sharing one vertex, rooted at the shared vertex."""
    g = build_graph("bowtie", 5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    return RootedPattern(g, 0)


def disjoint_cycles(gid: str, copies: int, length: int) -> Graph:
    check_vertex_count(copies * length)
    edges = []
    for c in range(copies):
        base = c * length
        edges += [(base + i, base + (i + 1) % length) for i in range(length)]
    return build_graph(gid, copies * length, edges)


def wl_equivalent_triangle_pair() -> GraphPair:
    """Six-vertex pair indistinguishable by plain refinement yet separated by
    triangle counts: two bridged triangles vs. a chorded six-cycle. The marked
    vertices sit on a triangle in g and on no triangle in h."""
    g = build_graph("g1", 6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    h = build_graph("h1", 6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)])
    return GraphPair("fig1", g, h, marked=(0, 0))


def delayed_triangle_pair() -> GraphPair:
    """Nine-vertex pair where triangle counts agree vertex-wise at round zero
    but one aggregation round separates the marked vertices (and the graphs)."""
    g = build_graph("g2", 9, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 5), (3, 4),
                              (3, 6), (4, 5), (5, 7), (6, 7), (6, 8), (7, 8)])
    h = build_graph("h2", 9, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 5),
                              (3, 6), (4, 7), (5, 8), (6, 7), (6, 8), (7, 8)])
    return GraphPair("fig2", g, h, marked=(4, 4))


def cycle_union_pair(m: int) -> GraphPair:
    """(m+2) copies of the (m+1)-cycle vs. (m+1) copies of the (m+2)-cycle.

    Both 2-regular on (m+1)(m+2) vertices; any pattern on at most m vertices
    has identical rooted counts everywhere, while the (m+1)-cycle's unrooted
    counts differ between the two sides.
    """
    if m < 3:
        raise ValueError("cycle union pair requires m >= 3")
    g = disjoint_cycles(f"cu{m}-a", m + 2, m + 1)
    h = disjoint_cycles(f"cu{m}-b", m + 1, m + 2)
    return GraphPair("cycle-union", g, h)


def cycle_hierarchy_pair(k: int) -> GraphPair:
    """k copies of the (k+1)-cycle vs. k+1 copies of the k-cycle: separated by
    k-cycle counts at round zero, invisible to shorter cycles."""
    if k < 4:
        raise ValueError("cycle hierarchy pair requires k >= 4")
    g = disjoint_cycles(f"ch{k}-a", k, k + 1)
    h = disjoint_cycles(f"ch{k}-b", k + 1, k)
    return GraphPair("cycle-hierarchy", g, h)


def cfi_pair(p: RootedPattern, distinguished: Optional[int] = None) -> GraphPair:
    """Parity-gadget pair over a connected pattern: the twisted graph admits no
    homomorphic image of the pattern (when the pattern is a core), the
    untwisted one does, and they defeat (treewidth-1)-dimensional refinement.

    Vertices are (base vertex, incident-edge parity assignment); two gadget
    vertices are adjacent iff their bases are adjacent in the pattern and their
    assignments agree on the shared edge. The twisted side flips the required
    parity at the distinguished base vertex (default: the pattern's root).
    Callers needing the zero-count guarantee should pass a core pattern.
    """
    pg = p.graph
    v1 = p.root if distinguished is None else distinguished
    if not (0 <= v1 < pg.n):
        raise ValueError("distinguished vertex out of range")
    if pg.degree(v1) < 2:
        raise ValueError("distinguished vertex needs degree >= 2")
    check_vertex_count(expected_cfi_size(p))
    edges = sum(2 ** (pg.degree(u) + pg.degree(v) - 2) for u, v in pg.edges) // 2
    if edges > CFI_EDGE_GUARD:
        raise SizeGuardError(f"cfi gadgets limited to {CFI_EDGE_GUARD} edges, got {edges}")

    base_id = pg.id or "p"
    twisted = assemble_parity_gadget(p, f"cfi-{base_id}-twisted", v1)
    untwisted = assemble_parity_gadget(p, f"cfi-{base_id}-untwisted", None)
    return GraphPair("cfi", twisted, untwisted, marked=None)


def parity_vertex_table(p: RootedPattern, twist_at: Optional[int]) -> list[ParityVertex]:
    """The gadget's vertex list in generation order: by base vertex, then by
    the assignment read as a bit string over sorted incident edges."""
    pg = p.graph
    verts = []
    for v in range(pg.n):
        want = 1 if v == twist_at else 0
        for bits in itertools.product((0, 1), repeat=pg.degree(v)):
            if sum(bits) % 2 == want:
                verts.append(ParityVertex(v, bits))
    return verts


def assemble_parity_gadget(p: RootedPattern, gid: str, twist_at: Optional[int]) -> Graph:
    """The gadget on ``parity_vertex_table(p, twist_at)``: two gadget vertices are adjacent
    iff their bases u, v are adjacent and their assignments give edge uv the same bit.
    v's sorted incident edges lead to its sorted neighbours: uv is at adjacency[v].index(u)."""
    pg = p.graph
    verts = parity_vertex_table(p, twist_at)
    group = [[([], []) for _ in nbrs] for nbrs in pg.adjacency]  # [base][edge position][bit]
    for i, pv in enumerate(verts):
        for pos, bit in enumerate(pv.assignment):
            group[pv.base][pos][bit].append(i)
    edges = []
    for u, v in pg.edges:
        gu, gv = group[u][pg.adjacency[u].index(v)], group[v][pg.adjacency[v].index(u)]
        for bit in (0, 1):
            edges += itertools.product(gu[bit], gv[bit])
    return build_graph(gid, len(verts), edges)


def expected_cfi_size(p: RootedPattern) -> int:
    """Gadget vertex count: sum over base vertices of 2^(degree-1)."""
    return sum(2 ** (p.graph.degree(v) - 1) for v in range(p.graph.n))
