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


VERTEX_GUARD = 1 << 22  # an edgeless graph this size peaks near 380 MB with its adjacency built


class SizeGuardError(RuntimeError):
    """An enumeration/DP size guard tripped; the input is out of the tool's regime."""


def check_vertex_count(n: int) -> None:
    """Raise SizeGuardError above VERTEX_GUARD; call before anything is built per vertex."""
    if n > VERTEX_GUARD:
        raise SizeGuardError(f"graphs limited to {VERTEX_GUARD} vertices, got {n}")


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
    duplicates. ``labels`` has one entry per vertex, each in [0, 2^32).
    Everything derived (adjacency, bitmasks) is cached lazily and never mutated.
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
        if self.labels and not (0 <= min(self.labels) and max(self.labels) < 1 << 32):
            raise ParseError("labels must be integers in [0, 2^32)", field="labels")
        n, prev = self.n, (-1, -1)
        for edge in self.edges:  # each strictly after the one before: sorted, no duplicates
            u, v = edge
            if not 0 <= u < v < n or edge <= prev:
                raise ParseError(
                    f"self-loop at vertex {u}" if u == v
                    else f"edge ({u},{v}) endpoint out of range" if not (0 <= u < n and 0 <= v < n)
                    else "edges must be normalized with u < v" if u > v
                    else f"duplicate edge ({u},{v})" if edge == prev
                    else f"edges must be sorted: ({u},{v}) after {prev}", field="edges")
            prev = edge

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists, one per vertex; the edges are sorted with u < v,
        so each vertex meets its smaller neighbours first, in order, then its larger."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

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
        """Per label, the bitmask of the vertices carrying it. Each mask is
        written as base-2 digits and converted once, linear in n plus the
        masks' size; ORing ``1 << v`` into a growing int is quadratic."""
        members: dict[int, list[int]] = {}
        for v, lab in enumerate(self.labels):
            members.setdefault(lab, []).append(v)
        masks: dict[int, int] = {}
        one = ord("1")
        for lab, vs in members.items():
            digits = bytearray(b"0") * (vs[-1] + 1)
            for v in vs:
                digits[v] = one
            masks[lab] = int(digits[::-1], 2)
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


def decode_json(text: str):
    """The value a JSON text encodes; bad JSON, or JSON too deep to decode, raises ParseError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", field="record") from exc


def _record_from_line(line) -> dict:
    """A decoded record, or the record that a JSON text encodes."""
    rec = decode_json(line) if isinstance(line, str) else line
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
    check_vertex_count(n)
    raw_edges = rec.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError("'edges' must be a list of pairs", field="edges")
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2
                and isinstance(e[0], int) and not isinstance(e[0], bool)
                and isinstance(e[1], int) and not isinstance(e[1], bool)):
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
    return RootedPattern(parse_graph(rec, alphabet), root)  # which reads no 'root'


def serialize_graph(g: Graph, alphabet: Optional[LabelAlphabet] = None) -> str:
    """One JSON line; pass the ingestion alphabet to write external label values."""
    return json.dumps(g.to_record(alphabet), separators=(",", ":"))


def serialize_pattern(p: RootedPattern, alphabet: Optional[LabelAlphabet] = None) -> str:
    return json.dumps(p.to_record(alphabet), separators=(",", ":"))


# --- colour refinement ----------------------------------------------------

def cells_of(colors: Sequence) -> list[list[int]]:
    """One cell per colour, in colour order, each listing its items in order."""
    buckets: dict = {}
    for v, c in enumerate(colors):
        buckets.setdefault(c, []).append(v)
    return [buckets[c] for c in sorted(buckets)]


def neighbour_signer(adjacency: Sequence[Sequence[int]]) -> Callable:
    """The 1-WL signer for :func:`refine_cells`: a vertex's sorted neighbour colours."""
    def signer(colors):
        get = colors.__getitem__
        return lambda cell: [tuple(sorted(map(get, adjacency[v]))) for v in cell]
    return signer


def refine_cells(
    signer: Callable[[Sequence[int]], Callable[[list[int]], Iterable]],
    cells: Sequence[list[int]],
    adjacency: Optional[Sequence[Sequence[int]]] = None,
    changed: Optional[Iterable[int]] = None,
) -> Iterator[tuple[list[int], list[list[int]]]]:
    """Colour refinement of items 0..N-1 from the ordered partition ``cells``,
    the one round loop behind canonical codes and all refinement variants.
    ``signer(colors)`` maps a cell to one comparable signature per item. Each
    round splits cells by their items' sorted distinct signatures and yields
    ``(colors, cells)``, colour = cell index, up to the closing round that
    splits nothing. It re-signs every cell of two or more items, or with
    ``adjacency`` those next to ``changed`` (default: all) or the last splits."""
    # Exact: colours are the ranks of (own colour, signature) over all items,
    # as the cell, not the signature, carries the own colour. With adjacency,
    # a cell can split in round r+1 only if a member has a neighbour in a cell
    # that split in round r; any other cell keeps one colour.
    colors = [0] * (len(adjacency) if adjacency is not None else sum(map(len, cells)))
    for c, cell in enumerate(cells):
        for v in cell:
            colors[v] = c
    while True:
        touched = range(len(cells)) if adjacency is None or changed is None else {
            colors[u] for w in changed for u in adjacency[w]}
        changed, parts, sign = [], {}, None
        for c in touched:
            if len(cells[c]) > 1:
                sign = sign or signer(colors)
                sigs: dict = {}
                for v, s in zip(cells[c], sign(cells[c])):
                    sigs.setdefault(s, []).append(v)
                if len(sigs) > 1:
                    parts[c] = [sigs[s] for s in sorted(sigs)]
                    changed += cells[c]
        if parts:  # cells before the first split keep their colours
            first = min(parts)
            cells = cells[:first] + [
                p for c in range(first, len(cells)) for p in parts.get(c, (cells[c],))]
            colors = colors.copy()
            for c in range(first, len(cells)):
                for v in cells[c]:
                    colors[v] = c
        yield colors, cells
        if not parts:
            return


# --- isomorphism and canonical codes -------------------------------------

def _encode_leaf(g: Graph, order: Sequence[int], root: Optional[int]) -> bytes:
    """Size, root position and labels in ``order``, then the upper adjacency
    triangle of the reordered graph row by row, pair k at bit k."""
    pos = {v: i for i, v in enumerate(order)}
    bits = offset = 0
    for i, v in enumerate(order):
        row = 0
        for u in g.adjacency[v]:
            row |= 1 << pos[u]
        bits |= row >> (i + 1) << offset
        offset += g.n - 1 - i
    head = g.n.to_bytes(4, "big") + (b"" if root is None else pos[root].to_bytes(4, "big"))
    lab = b"".join(g.labels[v].to_bytes(4, "big") for v in order)
    return head + lab + bits.to_bytes((offset + 7) // 8, "little")


def _are_twins(g: Graph, u: int, v: int) -> bool:
    """True when swapping u and v is an automorphism fixing everything else."""
    if g.labels[u] != g.labels[v]:
        return False
    mu = g.adj_masks[u] & ~(1 << v)
    mv = g.adj_masks[v] & ~(1 << u)
    return mu == mv


def canonical_code(g: Graph, root: Optional[int] = None) -> bytes:
    """Deterministic byte string equal for two graphs iff they are isomorphic.

    Individualization-refinement over equitable partitions; the rooted variant
    pins the root into its own cell, so codes agree iff there is a rooted
    isomorphism. A child node re-signs only the cells next to the one it split.
    """
    if g.n == 0:
        return (0).to_bytes(4, "big")
    cells = cells_of(g.labels)
    if root is not None:  # the root's colour is the smallest
        cells = [[root], *filter(None, ([v for v in c if v != root] for c in cells))]
    best: list[Optional[bytes]] = [None]
    signer = neighbour_signer(g.adjacency)

    def search(cells: Sequence[list[int]], changed: Optional[list[int]]) -> None:
        for _, cells in refine_cells(signer, cells, g.adjacency, changed):
            pass  # keep the stable partition, the last one yielded
        if len(cells) == g.n:  # discrete: a leaf
            code = _encode_leaf(g, [cell[0] for cell in cells], root)
            best[0] = code if best[0] is None else min(best[0], code)
            return
        t = next(i for i, cell in enumerate(cells) if len(cell) > 1)
        target = cells[t]
        tried: list[int] = []
        for v in target:
            if any(_are_twins(g, v, u) for u in tried):
                continue
            tried.append(v)
            # v's new colour is the smallest, so its cell comes first
            search([[v], *cells[:t], [u for u in target if u != v], *cells[t + 1:]], target)

    search(cells, None)
    assert best[0] is not None
    return (b"U" if root is None else b"R") + best[0]


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
