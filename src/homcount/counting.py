"""Counting kernels: brute-force oracle, tree-decomposition dynamic programming
for all-anchor rooted counts, injective counts by partition-lattice inversion,
and subgraph counts.

Counts are exact integers. Anything exceeding 2**127 - 1 raises
:class:`CountOverflowError` instead of wrapping or saturating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

from homcount.algebra import (
    automorphism_count,
    nice_decomposition,
    quotient_classes,
    treewidth,
)
from homcount.graphs import Graph, RootedPattern, _bits, count_maps

MAX_COUNT = (1 << 127) - 1

PatternLike = Union[RootedPattern, Graph]


class CountOverflowError(ArithmeticError):
    """A checked count exceeded 2**127 - 1."""


@dataclass(frozen=True)
class CountVector:
    """Rooted per-anchor counts (``counts``) or an unrooted scalar (``total``).

    ``overflow`` marks a vector whose counts are invalid because a checked
    operation overflowed; kernels raise instead, the flag is for batch paths
    that must keep going.
    """

    graph_id: str
    pattern_id: str
    counts: Optional[tuple[int, ...]]
    total: int
    overflow: bool = False

    def __post_init__(self):
        if not self.overflow and self.counts is not None:
            assert all(c >= 0 for c in self.counts)


def _check(value: int) -> int:
    if value > MAX_COUNT:
        raise CountOverflowError(f"count exceeds 2**127-1")
    return value


# --- brute force ------------------------------------------------------------


def _check_anchor(anchor: int, g: Graph) -> None:
    if not 0 <= anchor < g.n:
        raise ValueError(f"anchor {anchor} out of range for a graph with {g.n} vertices")


def hom_count_brute(pattern: PatternLike, g: Graph, anchor: Optional[int] = None) -> int:
    """Exact homomorphism count by backtracking; the oracle for every other path.

    Rooted patterns require ``anchor`` (count of maps sending root to anchor);
    plain graphs forbid it (unrooted scalar).
    """
    if isinstance(pattern, RootedPattern):
        if anchor is None:
            raise ValueError("rooted pattern requires an anchor")
        _check_anchor(anchor, g)
        return _check(count_maps(pattern.graph, g, pattern.root, anchor))
    if anchor is not None:
        raise ValueError("unrooted pattern takes no anchor")
    return _check(count_maps(pattern, g))


# --- tree-decomposition dynamic programming -----------------------------------


@dataclass(frozen=True)
class _DpStep:
    kind: str
    children: tuple[int, ...]
    pos: int  # digit position touched (introduce: in new bag, forget: in child bag)
    label: int  # introduced vertex's label (introduce only)
    prior_positions: tuple[int, ...]  # child-bag digit positions adjacent to the new vertex


@lru_cache(maxsize=512)
def _dp_plan(pg: Graph, root: Optional[int]):
    """Compile a rooted-or-not pattern into nice-decomposition DP instructions."""
    width, td = treewidth(pg)
    if root is not None:
        top = next(i for i, b in enumerate(td.bags) if root in b)
        nice = nice_decomposition(td, root_node=top, forget_last=root)
    else:
        nice = nice_decomposition(td)
    steps = []
    for nd in nice.nodes:
        if nd.kind == "leaf":
            steps.append(_DpStep("leaf", (), -1, -1, ()))
        elif nd.kind == "introduce":
            child_bag = nice.nodes[nd.children[0]].bag
            pos = nd.bag.index(nd.vertex)
            child_pos = {u: i for i, u in enumerate(child_bag)}
            priors = tuple(
                sorted(child_pos[w] for w in pg.adjacency[nd.vertex] if w in child_pos)
            )
            steps.append(_DpStep("introduce", nd.children, pos, pg.labels[nd.vertex], priors))
        elif nd.kind == "forget":
            child_bag = nice.nodes[nd.children[0]].bag
            steps.append(_DpStep("forget", nd.children, child_bag.index(nd.vertex), -1, ()))
        else:
            steps.append(_DpStep("join", nd.children, -1, -1, ()))
    capture = -1
    if root is not None:
        capture = len(steps) - 1
        child = nice.nodes[-1].children[0]
        assert nice.nodes[-1].kind == "forget"
        assert nice.nodes[child].bag == (root,)
    return tuple(steps), capture


def _run_dp(pg: Graph, root: Optional[int], g: Graph):
    """Execute the DP; returns (per-anchor counts or None, unrooted total)."""
    steps, capture = _dp_plan(pg, root)
    n = g.n
    if n == 0:
        return (None, 1 if pg.n == 0 else 0) if root is None else ((), 0)
    max_pos = max((s.pos for s in steps if s.pos >= 0), default=0)
    pows = [n**j for j in range(max_pos + 2)]
    tables: list[Optional[dict[int, int]]] = [None] * len(steps)
    anchor_counts: Optional[list[int]] = None
    for i, step in enumerate(steps):
        if step.kind == "leaf":
            tables[i] = {0: 1}
        elif step.kind == "introduce":
            (ci,) = step.children
            child = tables[ci]
            tables[ci] = None
            p = pows[step.pos]
            pn = p * n
            base = g.label_masks.get(step.label, 0)
            adj = g.adj_masks
            priors = [pows[q] for q in step.prior_positions]
            new: dict[int, int] = {}
            for key, cnt in child.items():  # type: ignore[union-attr]
                mask = base
                for q in priors:
                    mask &= adj[key // q % n]
                if not mask:
                    continue
                high = key // p * pn + key % p
                for a in _bits(mask):
                    new[high + a * p] = cnt
            tables[i] = new
        elif step.kind == "forget":
            (ci,) = step.children
            child = tables[ci]
            tables[ci] = None
            if capture == i:
                anchor_counts = [0] * n
                for key, cnt in child.items():  # type: ignore[union-attr]
                    anchor_counts[key] = _check(cnt)
            p = pows[step.pos]
            pn = p * n
            new = {}
            for key, cnt in child.items():  # type: ignore[union-attr]
                nk = key % p + key // pn * p
                got = new.get(nk, 0)
                new[nk] = _check(got + cnt)
            tables[i] = new
        else:
            a, b = step.children
            ta, tb = tables[a], tables[b]
            tables[a] = tables[b] = None
            if len(ta) > len(tb):  # type: ignore[arg-type]
                ta, tb = tb, ta
            new = {}
            for key, cnt in ta.items():  # type: ignore[union-attr]
                other = tb.get(key)  # type: ignore[union-attr]
                if other is not None:
                    new[key] = _check(cnt * other)
            tables[i] = new
    final = tables[-1]
    total = _check(final.get(0, 0)) if final else 0
    if root is not None:
        assert anchor_counts is not None
        return tuple(anchor_counts), total
    return None, total


def hom_count_dp(pattern: PatternLike, g: Graph) -> CountVector:
    """Homomorphism counts over a nice tree decomposition of the pattern.

    Rooted patterns produce counts for every anchor vertex of ``g`` in one
    pass; plain graphs produce the unrooted scalar. Bit-identical to
    :func:`hom_count_brute` on every input.
    """
    if isinstance(pattern, RootedPattern):
        counts, total = _run_dp(pattern.graph, pattern.root, g)
        return CountVector(g.id, pattern.id, counts, total)
    counts, total = _run_dp(pattern, None, g)
    return CountVector(g.id, pattern.id, None, total)


# --- injective and subgraph counts ---------------------------------------------


def inj_vector(p: RootedPattern, g: Graph) -> tuple[int, ...]:
    """Injective homomorphism counts at every anchor, by Möbius inversion over
    the partition lattice of quotients."""
    acc = [0] * g.n
    for weight, q in quotient_classes(p):
        if not weight:
            continue
        counts = hom_count_dp(q, g).counts
        assert counts is not None
        for v in range(g.n):
            acc[v] += weight * counts[v]
    for v, c in enumerate(acc):
        assert c >= 0, "injective count must be nonnegative"
        _check(c)
    return tuple(acc)


def inj_count(p: RootedPattern, g: Graph, anchor: int) -> int:
    """Number of injective homomorphisms sending the root to ``anchor``."""
    _check_anchor(anchor, g)
    return inj_vector(p, g)[anchor]


def sub_vector(p: RootedPattern, g: Graph) -> tuple[int, ...]:
    """Rooted subgraph-isomorphism counts: injective counts divided by the
    pattern's root-preserving automorphisms (division is exact)."""
    aut = automorphism_count(p)
    inj = inj_vector(p, g)
    out = []
    for c in inj:
        q, r = divmod(c, aut)
        if r:
            raise AssertionError(
                f"inj count {c} not divisible by automorphism count {aut}"
            )
        out.append(q)
    return tuple(out)


def sub_count(p: RootedPattern, g: Graph, anchor: int) -> int:
    _check_anchor(anchor, g)
    return sub_vector(p, g)[anchor]


def hom_vector(
    patterns: Sequence[RootedPattern], g: Graph, mode: str = "hom"
) -> list[CountVector]:
    """One rooted CountVector per pattern, in pattern order.

    ``mode`` selects homomorphism or subgraph-isomorphism counts. Overflowing
    patterns yield a flagged vector instead of aborting the whole graph.
    """
    if mode not in ("hom", "sub"):
        raise ValueError(f"unknown mode {mode!r}")
    out = []
    for p in patterns:
        try:
            if mode == "hom":
                vec = hom_count_dp(p, g)
            else:
                counts = sub_vector(p, g)
                vec = CountVector(g.id, p.id, counts, sum(counts))
        except CountOverflowError:
            vec = CountVector(g.id, p.id, None, 0, overflow=True)
        out.append(vec)
    return out

