"""Structural pattern operations: join, quotients, spasm, cores, automorphisms,
exact treewidth with decomposition witnesses, and join factorization.

All functions are pure over immutable inputs. Set-valued results come back in
a deterministic order (sorted by canonical code).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Optional, Sequence

from homcount.graphs import (
    Graph,
    RootedPattern,
    SizeGuardError,
    canonical_code,
    connected_components,
    count_maps,
)

TREEWIDTH_GUARD = 14
SPASM_GUARD = 9


@dataclass(frozen=True)
class Partition:
    """Block assignment per pattern vertex; blocks are numbered 0..k-1 densely."""

    block_of: tuple[int, ...]

    def __post_init__(self):
        k = len(set(self.block_of))
        if self.block_of and (min(self.block_of) != 0 or max(self.block_of) != k - 1):
            raise ValueError("blocks must be numbered densely from 0")

    @property
    def num_blocks(self) -> int:
        return len(set(self.block_of))

    @staticmethod
    def from_blocks(n: int, blocks: Sequence[Sequence[int]]) -> "Partition":
        assign = [-1] * n
        for i, blk in enumerate(blocks):
            for v in blk:
                if assign[v] != -1:
                    raise ValueError("blocks must be disjoint")
                assign[v] = i
        if -1 in assign:
            raise ValueError("blocks must cover all vertices")
        return Partition(tuple(assign))

    @staticmethod
    def discrete(n: int) -> "Partition":
        return Partition(tuple(range(n)))


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted decomposition tree: ``parent[i]`` is the parent of node i (-1 at root)."""

    bags: tuple[frozenset[int], ...]
    parent: tuple[int, ...]

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def to_json(self) -> dict:
        return {
            "bags": [sorted(b) for b in self.bags],
            "tree": [[p, i] for i, p in enumerate(self.parent) if p >= 0],
        }


# --- join ------------------------------------------------------------------

def join(p: RootedPattern, q: RootedPattern) -> RootedPattern:
    """Disjoint union of p and q with the two roots identified.

    Root labels must agree; the identified vertex keeps index ``p.root`` and
    becomes the result's root. hom counts multiply under this operation.
    """
    if p.root_label != q.root_label:
        raise ValueError("join requires equal root labels")
    gp, gq = p.graph, q.graph
    offset = [0] * gq.n
    nxt = gp.n
    for v in range(gq.n):
        if v == q.root:
            offset[v] = p.root
        else:
            offset[v] = nxt
            nxt += 1
    labels = list(gp.labels) + [
        gq.labels[v] for v in range(gq.n) if v != q.root
    ]
    edges = set(gp.edges)
    for u, v in gq.edges:
        a, b = offset[u], offset[v]
        edges.add((a, b) if a < b else (b, a))
    g = Graph(f"({gp.id}*{gq.id})", nxt, tuple(labels), tuple(sorted(edges)))
    return RootedPattern(g, p.root)


def is_join_decomposable(p: RootedPattern) -> Optional[tuple[RootedPattern, RootedPattern]]:
    """Split p at its root when the root is a cut vertex.

    Returns (first root-component with root, rest with root), or None when
    removing the root leaves the pattern connected (or the pattern is a
    single vertex).
    """
    g = p.graph
    if g.n <= 1:
        return None
    rest = [v for v in range(g.n) if v != p.root]
    sub = g.induced_subgraph(rest)
    comps = connected_components(sub)
    if len(comps) <= 1:
        return None
    first = [rest[i] for i in comps[0]]
    others = [rest[i] for c in comps[1:] for i in c]
    left = RootedPattern(g.induced_subgraph([p.root] + first, f"{g.id}/a"), 0)
    right = RootedPattern(g.induced_subgraph([p.root] + others, f"{g.id}/b"), 0)
    return left, right


def join_factors(p: RootedPattern) -> list[RootedPattern]:
    """Full factorization of p into join-irreducible rooted patterns."""
    split = is_join_decomposable(p)
    if split is None:
        return [p]
    left, right = split
    return join_factors(left) + join_factors(right)


# --- quotients and spasm -----------------------------------------------------

def quotient(g: Graph, part: Partition) -> Optional[Graph]:
    """Merge each block to a single vertex; None if a block contains an edge
    (self-loop) or mixes labels."""
    if len(part.block_of) != g.n:
        raise ValueError("partition size does not match graph")
    k = part.num_blocks
    labels: list[Optional[int]] = [None] * k
    for v in range(g.n):
        b = part.block_of[v]
        if labels[b] is None:
            labels[b] = g.labels[v]
        elif labels[b] != g.labels[v]:
            return None
    edges = set()
    for u, v in g.edges:
        a, b = part.block_of[u], part.block_of[v]
        if a == b:
            return None
        edges.add((a, b) if a < b else (b, a))
    return Graph(g.id + "/q", k, tuple(labels), tuple(sorted(edges)))  # type: ignore[arg-type]


def quotient_rooted(p: RootedPattern, part: Partition) -> Optional[RootedPattern]:
    g = quotient(p.graph, part)
    if g is None:
        return None
    return RootedPattern(g, part.block_of[p.root])


def _set_partitions(n: int):
    """All set partitions of range(n) as dense block assignments (restricted growth)."""
    assign = [0] * n

    def rec(i: int, maxb: int):
        if i == n:
            yield tuple(assign)
            return
        for b in range(maxb + 2):
            assign[i] = b
            yield from rec(i + 1, max(maxb, b))

    if n == 0:
        yield ()
    else:
        yield from rec(1, 0)


def _mobius_weight(assign: Sequence[int]) -> int:
    """Möbius function of the partition lattice from the discrete partition
    up to ``assign``: the product over blocks of (-1)^(s-1) (s-1)!."""
    sizes: dict[int, int] = {}
    for b in assign:
        sizes[b] = sizes.get(b, 0) + 1
    w = 1
    for s in sizes.values():
        w *= (-1) ** (s - 1) * factorial(s - 1)
    return w


@lru_cache(maxsize=256)
def quotient_classes(p: RootedPattern) -> tuple[tuple[int, RootedPattern], ...]:
    """Loop-free label-consistent quotients of p, one per rooted-isomorphism
    class, each with the Möbius weight summed over the partitions in its class.

    Ordered by rooted canonical code; the representative is the first quotient
    of its class in partition order. Summing is exact for hom-count sums
    because isomorphic quotients have identical hom counts. Guarded:
    Bell-number enumeration beyond 9 vertices is refused.
    """
    n = p.graph.n
    if n > SPASM_GUARD:
        raise SizeGuardError(f"spasm enumeration limited to {SPASM_GUARD} vertices, got {n}")
    classes: dict[bytes, tuple[int, RootedPattern]] = {}
    for assign in _set_partitions(n):
        q = quotient_rooted(p, Partition(assign))
        if q is None:
            continue
        code = canonical_code(q.graph, q.root)
        weight, rep = classes.get(code, (0, q))
        classes[code] = (weight + _mobius_weight(assign), rep)
    return tuple(classes[c] for c in sorted(classes))


def spasm(p: RootedPattern) -> tuple[RootedPattern, ...]:
    """All loop-free label-consistent quotients of p up to rooted isomorphism.

    Contains p itself. Deterministically ordered by rooted canonical code.
    Guarded: Bell-number enumeration beyond 9 vertices is refused.
    """
    return tuple(q for _, q in quotient_classes(p))


# --- cores and automorphisms --------------------------------------------------


def core_of(p: RootedPattern) -> RootedPattern:
    """Minimum induced subgraph admitting a homomorphism from p, rooted at the
    image of p's root.

    When several retractions exist the root lands on the image minimizing the
    rooted canonical code, which makes the result deterministic. Idempotent up
    to isomorphism.
    """
    g = p.graph
    n = g.n
    for size in range(1, n + 1):
        best: Optional[tuple[bytes, RootedPattern]] = None
        for subset in combinations(range(n), size):
            sub = g.induced_subgraph(subset)
            if size > 1 and len(connected_components(sub)) > 1:
                continue
            if not count_maps(g, sub, first=True):
                continue
            for r in range(size):  # the images some retraction sends the root to
                if not count_maps(g, sub, p.root, r, first=True):
                    continue
                code = canonical_code(sub, r)
                if best is None or code < best[0]:
                    best = (code, RootedPattern(sub, r))
        if best is not None:
            return best[1]
    raise AssertionError("unreachable: the identity map always exists")


def automorphism_count(p: RootedPattern) -> int:
    """Number of root-preserving isomorphisms from p onto itself (>= 1)."""
    return count_maps(p.graph, p.graph, p.root, p.root, bijective=True)


# --- exact treewidth ----------------------------------------------------------

def treewidth(g: Graph) -> tuple[int, TreeDecomposition]:
    """Exact treewidth and a witnessing decomposition, via dynamic programming
    over elimination prefixes (subset DP). Guarded at 14 vertices."""
    n = g.n
    if n > TREEWIDTH_GUARD:
        raise SizeGuardError(f"exact treewidth limited to {TREEWIDTH_GUARD} vertices, got {n}")
    if n == 0:
        return 0, TreeDecomposition((frozenset(),), (-1,))
    masks = g.adj_masks

    @lru_cache(maxsize=None)
    def reach_degree(eliminated: int, v: int) -> int:
        """Future neighbors of v after eliminating ``eliminated``: vertices outside
        the eliminated set reachable from v through it."""
        seen = 1 << v
        stack = masks[v]
        out = 0
        while stack:
            low = stack & -stack
            u = low.bit_length() - 1
            stack ^= low
            if seen >> u & 1:
                continue
            seen |= low
            if eliminated >> u & 1:
                stack |= masks[u] & ~seen
            else:
                out |= low
        return out.bit_count()

    full = (1 << n) - 1
    best = {0: 0}
    choice: dict[int, int] = {}
    for size in range(1, n + 1):
        nxt: dict[int, int] = {}
        for s, w in best.items():
            free = full & ~s
            m = free
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                cand = max(w, reach_degree(s, v))
                t = s | low
                if cand < nxt.get(t, n + 1):
                    nxt[t] = cand
                    choice[t] = v
        best = nxt
    width = best[full]

    # recover elimination order from the DP choices
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s &= ~(1 << v)
    order.reverse()  # order[0] eliminated first

    return width, _decomposition_from_elimination(g, order)


def _decomposition_from_elimination(g: Graph, order: Sequence[int]) -> TreeDecomposition:
    """Standard construction: bag of v = v plus its not-yet-eliminated neighbors
    in the fill-in graph; each bag hangs off the bag of the earliest-eliminated
    future neighbor."""
    n = g.n
    pos = {v: i for i, v in enumerate(order)}
    fill = [set(g.adjacency[v]) for v in range(n)]
    bag_of: list[frozenset[int]] = [frozenset()] * n
    for v in order:
        later = {u for u in fill[v] if pos[u] > pos[v]}
        bag_of[pos[v]] = frozenset({v} | later)
        for a in later:
            for b in later:
                if a != b:
                    fill[a].add(b)
    parent = [-1] * n
    for i, v in enumerate(order):
        later = [u for u in bag_of[i] if u != v]
        if later:
            parent[i] = min(pos[u] for u in later)
        elif i < n - 1:
            parent[i] = i + 1  # isolated remainder: chain to keep a single tree
    return TreeDecomposition(tuple(bag_of), tuple(parent))
