"""Vertex-labelled undirected graphs, rooted patterns, and small-graph isomorphism tools.

Graphs use dense 0-based vertex ids. External label values (ints or strings in
input files) are interned into contiguous ids through a :class:`LabelAlphabet`
so that counting kernels can index arrays by label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence


class ParseError(ValueError):
    """Malformed graph or pattern record; ``field`` names the offending part."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class LabelAlphabet:
    """Bijective mapping from external label values to dense ids starting at 0.

    Append-only: labels are interned during ingestion and the mapping is fixed
    afterwards. Share one alphabet across every file of a run so that pattern
    and data-graph labels agree.
    """

    def __init__(self) -> None:
        self._to_id: dict = {}
        self._to_label: list = []

    def intern(self, label) -> int:
        got = self._to_id.get(label)
        if got is None:
            got = len(self._to_label)
            self._to_id[label] = got
            self._to_label.append(label)
        return got

    def label_of(self, label_id: int):
        return self._to_label[label_id]

    def __len__(self) -> int:
        return len(self._to_label)

    def __contains__(self, label) -> bool:
        return label in self._to_id


@dataclass(frozen=True)
class Graph:
    """Immutable undirected vertex-labelled graph.

    ``edges`` is a sorted tuple of (u, v) pairs with u < v; no self-loops or
    duplicates. ``labels`` has one entry per vertex. Everything derived
    (adjacency, bitmasks) is cached lazily and never mutated.
    """

    id: str
    n: int
    labels: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ParseError("vertex count must be nonnegative", field="n")
        if len(self.labels) != self.n:
            raise ParseError(
                f"labels has length {len(self.labels)}, expected {self.n}",
                field="labels",
            )
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", field="edges")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ParseError(f"edge ({u},{v}) endpoint out of range", field="edges")
            if u > v:
                raise ParseError("edges must be normalized with u < v", field="edges")
            if (u, v) in seen:
                raise ParseError(f"duplicate edge ({u},{v})", field="edges")
            seen.add((u, v))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists, one per vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(b)) for b in nbrs)

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Adjacency as bitmasks; bit v of mask u is set iff {u,v} is an edge."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def label_masks(self) -> dict[int, int]:
        """Per label, the bitmask of the vertices carrying it."""
        masks: dict[int, int] = {}
        for v, lab in enumerate(self.labels):
            masks[lab] = masks.get(lab, 0) | (1 << v)
        return masks

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set

    def relabeled(self, perm: Sequence[int], new_id: Optional[str] = None) -> "Graph":
        """Image of the graph under vertex map v -> perm[v] (a bijection)."""
        labels = [0] * self.n
        for v in range(self.n):
            labels[perm[v]] = self.labels[v]
        edges = sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in self.edges
        )
        return Graph(new_id or self.id, self.n, tuple(labels), tuple(edges))

    def induced_subgraph(self, vertices: Sequence[int], new_id: Optional[str] = None) -> "Graph":
        """Subgraph induced on ``vertices``, relabeled densely in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        edges = sorted(
            (index[u], index[v]) if index[u] < index[v] else (index[v], index[u])
            for u, v in self.edges
            if u in index and v in index
        )
        labels = tuple(self.labels[v] for v in vertices)
        return Graph(new_id or self.id, len(vertices), labels, tuple(edges))

    def to_record(self, alphabet: Optional["LabelAlphabet"] = None) -> dict:
        labels = list(self.labels) if alphabet is None else [
            alphabet.label_of(x) for x in self.labels
        ]
        return {"id": self.id, "n": self.n, "labels": labels,
                "edges": [list(e) for e in self.edges]}


@dataclass(frozen=True)
class RootedPattern:
    """Connected labelled graph with a distinguished root vertex."""

    graph: Graph
    root: int

    def __post_init__(self):
        if not (0 <= self.root < self.graph.n):
            raise ParseError(f"root {self.root} out of range", field="root")
        if not is_connected(self.graph):
            raise ParseError("pattern graph must be connected", field="edges")

    @property
    def id(self) -> str:
        return self.graph.id

    @property
    def root_label(self) -> int:
        return self.graph.labels[self.root]

    def to_record(self, alphabet: Optional["LabelAlphabet"] = None) -> dict:
        rec = self.graph.to_record(alphabet)
        rec["root"] = self.root
        return rec


def normalize_edges(edges: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Sort endpoints within each edge and the edge list itself."""
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def _record_from_line(line) -> dict:
    if isinstance(line, dict):
        return line
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", field="record") from exc
    if not isinstance(rec, dict):
        raise ParseError("record must be a JSON object", field="record")
    return rec


def parse_graph(line, alphabet: Optional[LabelAlphabet] = None) -> Graph:
    """Parse one JSON record ``{"id", "n", "labels"?, "edges"}`` into a Graph.

    A missing ``labels`` field yields the uniform label 0 for all vertices.
    Labels are JSON strings or integers (not booleans), interned through
    ``alphabet`` (a fresh one if not supplied).
    """
    rec = _record_from_line(line)
    if alphabet is None:
        alphabet = LabelAlphabet()
    gid = rec.get("id")
    if not isinstance(gid, str):
        raise ParseError("missing or non-string 'id'", field="id")
    n = rec.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError("'n' must be a nonnegative integer", field="n")
    raw_edges = rec.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError("'edges' must be a list of pairs", field="edges")
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in e)):
            raise ParseError(f"malformed edge entry {e!r}", field="edges")
    raw_labels = rec.get("labels")
    if raw_labels is None:
        labels = tuple(alphabet.intern(0) for _ in range(n))
    else:
        if not isinstance(raw_labels, list) or len(raw_labels) != n:
            raise ParseError("'labels' must be a list of length n", field="labels")
        for x in raw_labels:
            if not isinstance(x, (str, int)) or isinstance(x, bool):
                raise ParseError(f"label {x!r} is not a string or an integer", field="labels")
        labels = tuple(alphabet.intern(x) for x in raw_labels)
    return Graph(gid, n, labels, normalize_edges(raw_edges))


def parse_pattern(line, alphabet: Optional[LabelAlphabet] = None) -> RootedPattern:
    """Parse a graph record that additionally carries a ``root`` field."""
    rec = _record_from_line(line)
    if "root" not in rec:
        raise ParseError("pattern record is missing 'root'", field="root")
    root = rec["root"]
    if not isinstance(root, int) or isinstance(root, bool):
        raise ParseError("'root' must be an integer", field="root")
    g = parse_graph({k: v for k, v in rec.items() if k != "root"}, alphabet)
    return RootedPattern(g, root)


def serialize_graph(g: Graph, alphabet: Optional[LabelAlphabet] = None) -> str:
    """One JSON line; pass the ingestion alphabet to write external label values."""
    return json.dumps(g.to_record(alphabet), separators=(",", ":"))


def serialize_pattern(p: RootedPattern, alphabet: Optional[LabelAlphabet] = None) -> str:
    return json.dumps(p.to_record(alphabet), separators=(",", ":"))


# --- colour refinement ----------------------------------------------------

def refine(
    colors: Sequence[int], signatures: Callable[[Sequence[int]], list]
) -> Iterator[list[int]]:
    """Colour refinement, the one round loop behind canonical codes, 1-WL/F-WL
    and folklore k-WL.

    ``signatures(colors)`` returns one hashable, comparable signature per item
    that starts with the item's own colour. Each round recolours every item by
    the rank of its signature among the round's sorted distinct signatures and
    yields the new colours; the generator stops after the first round that
    splits no class.
    """
    classes = len(set(colors))
    while True:
        sigs = signatures(colors)
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        split = len(rank) > classes
        classes = len(rank)
        del sigs, rank  # only one round's signatures are ever alive
        yield colors
        if not split:
            return


def neighbour_signatures(adjacency: Sequence[Sequence[int]]):
    """Signatures for :func:`refine`: an item's colour and the sorted colours
    of its neighbours."""
    return lambda colors: [
        (colors[v], tuple(sorted(colors[u] for u in nbrs)))
        for v, nbrs in enumerate(adjacency)
    ]


# --- isomorphism and canonical codes -------------------------------------

def _cells(colors: Sequence[int]) -> list[list[int]]:
    buckets: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        buckets.setdefault(c, []).append(v)
    return [buckets[c] for c in sorted(buckets)]


def _encode_by_order(g: Graph, order: Sequence[int], root: Optional[int]) -> bytes:
    adj = bytearray((g.n * (g.n - 1) // 2 + 7) // 8)
    k = 0
    for i in range(g.n):
        mask = g.adj_masks[order[i]]
        for j in range(i + 1, g.n):
            if mask >> order[j] & 1:
                adj[k >> 3] |= 1 << (k & 7)
            k += 1
    lab = b"".join(g.labels[v].to_bytes(4, "big") for v in order)
    head = g.n.to_bytes(4, "big")
    if root is not None:
        head += order.index(root).to_bytes(4, "big")
    return head + lab + bytes(adj)


def _are_twins(g: Graph, u: int, v: int) -> bool:
    """True when swapping u and v is an automorphism fixing everything else."""
    if g.labels[u] != g.labels[v]:
        return False
    mu = g.adj_masks[u] & ~(1 << v)
    mv = g.adj_masks[v] & ~(1 << u)
    return mu == mv


def _canonical_search(g: Graph, colors: list[int], best: list[Optional[bytes]],
                      root: Optional[int]):
    for colors in refine(colors, neighbour_signatures(g.adjacency)):
        pass  # keep the stable colouring, the last one yielded
    cells = _cells(colors)
    target = next((c for c in cells if len(c) > 1), None)
    if target is None:
        order = [v for cell in cells for v in cell]
        code = _encode_by_order(g, order, root)
        if best[0] is None or code < best[0]:
            best[0] = code
        return
    tried: list[int] = []
    for v in target:
        if any(_are_twins(g, v, u) for u in tried):
            continue
        tried.append(v)
        branch = list(colors)
        branch[v] = -1  # individualize: strictly smaller than any cell id
        _canonical_search(g, branch, best, root)


def canonical_code(g: Graph, root: Optional[int] = None) -> bytes:
    """Deterministic byte string equal for two graphs iff they are isomorphic.

    Individualization-refinement over equitable partitions; the rooted variant
    pins the root into its own cell, so codes agree iff there is a rooted
    isomorphism. Intended for small graphs; exactness over speed.
    """
    if g.n == 0:
        return (0).to_bytes(4, "big")
    init = [g.labels[v] for v in range(g.n)]
    if root is not None:
        m = max(init) + 1
        init = [c + m for c in init]
        init[root] = 0
    best: list[Optional[bytes]] = [None]
    _canonical_search(g, init, best, root)
    assert best[0] is not None
    prefix = b"R" if root is not None else b"U"
    return prefix + best[0]


def is_isomorphic(
    g: Graph,
    h: Graph,
    g_root: Optional[int] = None,
    h_root: Optional[int] = None,
) -> bool:
    """Label- and edge-preserving bijection test; roots must map to each other.

    Cheap invariants (sizes and the (label, degree) multiset) first, then
    one bijective :func:`count_maps` search that stops at the first map.
    """
    if (g_root is None) != (h_root is None):
        raise ValueError("either both or neither root must be given")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    gdeg = sorted((g.labels[v], g.degree(v)) for v in range(g.n))
    hdeg = sorted((h.labels[v], h.degree(v)) for v in range(h.n))
    if gdeg != hdeg:
        return False
    start = 0 if g_root is None else g_root
    return count_maps(g, h, start, h_root, bijective=True, first=True) > 0


# --- map search -----------------------------------------------------------


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=512)
def _search_plan(pg: Graph, start: int):
    """Breadth-first visit order over all components, ``start`` first, plus,
    per visited vertex, the order positions of its earlier neighbours."""
    order: list[int] = []
    seen = [False] * pg.n
    comps = connected_components(pg)
    comps.sort(key=lambda c: (start not in c, c))
    for comp in comps:
        first = start if start in comp else comp[0]
        queue = [first]
        seen[first] = True
        while queue:
            u = queue.pop(0)
            order.append(u)
            for w in pg.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    pos = {v: i for i, v in enumerate(order)}
    priors = tuple(
        tuple(pos[w] for w in pg.adjacency[v] if pos[w] < pos[v]) for v in order
    )
    return tuple(order), priors


def count_maps(
    pg: Graph,
    g: Graph,
    start: int = 0,
    anchor: Optional[int] = None,
    bijective: bool = False,
    first: bool = False,
) -> int:
    """Number of label- and edge-preserving vertex maps from ``pg`` to ``g``.

    The one backtracking map search. ``anchor`` pins the image of ``start``.
    ``bijective`` counts isomorphisms: a bijective homomorphism between graphs
    with equal vertex and edge counts maps edges onto edges, so used target
    vertices are masked out and candidates must match (label, degree).
    ``first`` stops at the first map found; the result is then nonzero
    exactly when some map exists.
    """
    if bijective and (pg.n != g.n or len(pg.edges) != len(g.edges)):
        return 0
    if pg.n == 0:
        return 1
    order, priors = _search_plan(pg, start)
    if bijective:
        classes: dict[tuple[int, int], int] = {}
        for v in range(g.n):
            key = (g.labels[v], g.degree(v))
            classes[key] = classes.get(key, 0) | (1 << v)
        base = [classes.get((pg.labels[v], pg.degree(v)), 0) for v in order]
    else:
        base = [g.label_masks.get(pg.labels[v], 0) for v in order]
    if anchor is not None:
        base[0] &= 1 << anchor
    adj = g.adj_masks
    last = pg.n - 1
    assigned = [0] * pg.n

    def rec(i: int, used: int) -> int:
        mask = base[i] & ~used
        for q in priors[i]:
            mask &= adj[assigned[q]]
        if i == last:
            return mask.bit_count()
        total = 0
        for a in _bits(mask):
            assigned[i] = a
            total += rec(i + 1, used | 1 << a if bijective else 0)
            if first and total:
                break
        return total

    return rec(0, 0)
