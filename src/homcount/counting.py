"""Counting kernels: brute-force oracle, tree-decomposition dynamic programming
for all-anchor rooted counts, and count plans, which give hom, injective and
subgraph counts as integer combinations of shared basis hom counts.

Counts are exact integers. Anything exceeding 2**127 - 1 raises
:class:`CountOverflowError` instead of wrapping or saturating.

The decomposition DP holds its tables in one of two representations, chosen
per call before it runs. Dicts of Python ints, each value checked against the
ceiling, serve every call by default. int64 numpy key/count arrays
(:mod:`homcount.dp_arrays`) serve a call only when all of these hold for a
pattern P on k vertices and a graph G on n vertices with maximum degree Δ and
average degree d: P is connected and n * Δ**(k-1) < 2**63, which bounds every
table value (proof at :func:`_use_arrays`); n**2 and n**(b-1), for the
largest bag size b, are at most ``DENSE_LIMIT``, which bounds the kernel's
dense arrays; and the entries the plan's tables are expected to hold on a
random graph with G's n and d (:func:`_estimated_entries`) number at least
``ARRAY_MIN_ENTRIES``. That module, and numpy with it, is imported only when
the arrays are used. Both return Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from homcount.algebra import (
    automorphism_count,
    nice_decomposition,
    quotient_classes,
    treewidth,
)
from homcount.graphs import Graph, RootedPattern, _bits, canonical_code, count_maps, is_connected

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
    size: int  # bag size after the step


class _DpPlan(NamedTuple):
    steps: tuple[_DpStep, ...]  # postorder, the root step last
    capture: int  # rooted: the final forget, whose input holds the per-anchor counts; else -1
    largest_bag: int
    free_introduces: int  # introduce steps whose vertex has no prior neighbour
    linked_introduces: int  # introduce steps whose vertex has one or more


@lru_cache(maxsize=512)
def _dp_plan(pg: Graph, root: Optional[int]) -> _DpPlan:
    """Compile a rooted-or-not pattern into nice-decomposition DP instructions."""
    width, td = treewidth(pg)
    if root is not None:
        top = next(i for i, b in enumerate(td.bags) if root in b)
        nice = nice_decomposition(td, root_node=top, forget_last=root)
    else:
        nice = nice_decomposition(td)
    steps = []
    for nd in nice.nodes:
        size = len(nd.bag)
        if nd.kind == "leaf":
            steps.append(_DpStep("leaf", (), -1, -1, (), size))
        elif nd.kind == "introduce":
            child_bag = nice.nodes[nd.children[0]].bag
            pos = nd.bag.index(nd.vertex)
            child_pos = {u: i for i, u in enumerate(child_bag)}
            priors = tuple(
                sorted(child_pos[w] for w in pg.adjacency[nd.vertex] if w in child_pos)
            )
            steps.append(
                _DpStep("introduce", nd.children, pos, pg.labels[nd.vertex], priors, size)
            )
        elif nd.kind == "forget":
            child_bag = nice.nodes[nd.children[0]].bag
            steps.append(_DpStep("forget", nd.children, child_bag.index(nd.vertex), -1, (), size))
        else:
            steps.append(_DpStep("join", nd.children, -1, -1, (), size))
    capture = -1
    if root is not None:
        capture = len(steps) - 1
        child = nice.nodes[-1].children[0]
        assert nice.nodes[-1].kind == "forget"
        assert nice.nodes[child].bag == (root,)
    introduces = [s for s in steps if s.kind == "introduce"]
    free = sum(not s.prior_positions for s in introduces)
    return _DpPlan(
        tuple(steps), capture, max(s.size for s in steps), free, len(introduces) - free
    )


# Both kernels key a table entry by its bag's images in mixed radix n: the
# vertex at bag position j contributes image * n**j.

INT64_LIMIT = 1 << 63
DENSE_LIMIT = 1 << 20  # entries of an array kernel's adjacency table or forget sum
ARRAY_MIN_ENTRIES = 1 << 17  # estimated DP entries from which arrays pay off


def _estimated_entries(plan: _DpPlan, n: int, d: float) -> float:
    """Entries the plan's tables hold in all, on a graph with n vertices and
    average degree d whose edges fall at random: an introduce multiplies its
    child's entries by n without a prior neighbour, else by d for the first
    and d / n for each further one; a forget keeps at most n**(bag size)
    entries and a join at most those of its smaller child."""
    share = d / n
    sizes: list[float] = []
    for step in plan.steps:
        kind = step.kind
        if kind == "introduce":
            m = len(step.prior_positions)
            size = sizes[step.children[0]] * (d * share ** (m - 1) if m else n)
        elif kind == "forget":
            size = min(sizes[step.children[0]], n**step.size)
        elif kind == "leaf":
            size = 1.0
        else:
            size = min(sizes[c] for c in step.children)
        sizes.append(size)
    return sum(sizes)


def _use_arrays(pg: Graph, plan: _DpPlan, g: Graph) -> bool:
    """Whether the int64 array kernel is exact and worth it for this call.

    Bound: let P be connected with k vertices and Δ the maximum degree of G.
    A table entry counts the maps of the vertices forgotten below its node
    that extend the bag's images. Every edge at a forgotten vertex lies in a
    bag below the node, so each component of the forgotten vertices has a
    neighbour in the bag, or else is all of P. With a nonempty bag, visiting
    the forgotten vertices in breadth-first order from the bag gives each at
    most Δ images: the entry is at most Δ**(k-1). An empty bag holds one
    entry: 1 at a leaf, otherwise the maps of all of P, with at most n
    images for a first vertex and Δ for each further one, n * Δ**(k-1).
    Forget sums and join products are themselves table entries, and the
    partial sums of a forget are no larger, so n * Δ**(k-1) < 2**63 keeps
    every value in int64.

    Size: the kernel keeps a dense n * n adjacency table and sums each forget
    into a dense array of n**(bag size) entries, so both n**2 and n**(b-1),
    for the largest bag size b, stay within ``DENSE_LIMIT``; keys then stay
    below n**b <= 2**30.

    Worth it: on random graphs of 100 to 1000 vertices and average degree 2
    to 10, with rooted C3 to C7, unrooted C4 and C6 and rooted P4 and P6,
    the arrays saved 0.4 to 1.8 microseconds (median 1.0) per estimated
    entry on calls of 2 * 10**4 estimated entries or more. Every call
    estimated at ``ARRAY_MIN_ENTRIES`` or more saved at least 0.09 s, about
    the 0.11 to 0.15 s that importing numpy costs, so one call alone
    recovers the import.
    """
    n, k, big = g.n, pg.n, plan.largest_bag
    if n == 0 or k == 0 or n ** max(2, big - 1) > DENSE_LIMIT:
        return False
    d = 2 * len(g.edges) / n
    # in the estimate an introduce multiplies by n or by at most max(d, 1), and
    # forgets and joins never raise it, so this cheap bound settles small graphs
    bound = len(plan.steps) * n**plan.free_introduces * max(d, 1.0) ** plan.linked_introduces
    if bound < ARRAY_MIN_ENTRIES or _estimated_entries(plan, n, d) < ARRAY_MIN_ENTRIES:
        return False
    if not is_connected(pg):
        return False
    delta = max(map(len, g.adjacency))
    return n * delta ** (k - 1) < INT64_LIMIT


def _run_dp(pg: Graph, root: Optional[int], g: Graph):
    """Execute the DP; returns (per-anchor counts or None, unrooted total)."""
    if g.n == 0:
        return (None, 1 if pg.n == 0 else 0) if root is None else ((), 0)
    plan = _dp_plan(pg, root)
    if _use_arrays(pg, plan, g):
        from homcount import dp_arrays  # loads numpy

        return dp_arrays.run_dp(plan, g)
    return _run_dp_dict(plan, g)


def _run_dp_dict(plan: _DpPlan, g: Graph):
    """The DP on dicts of Python ints, checked against the 2**127-1 ceiling."""
    steps, capture = plan.steps, plan.capture
    n = g.n
    pows = [n**j for j in range(plan.largest_bag + 1)]
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
    if capture >= 0:
        assert anchor_counts is not None
        return tuple(anchor_counts), total
    return None, total


def hom_count_dp(pattern: PatternLike, g: Graph) -> CountVector:
    """Homomorphism counts over a nice tree decomposition of the pattern.

    Rooted patterns produce counts for every anchor vertex of ``g`` in one
    pass; plain graphs produce the unrooted scalar. Bit-identical to
    :func:`hom_count_brute` on every input. Graphs of up to 1024 vertices
    (fewer when the pattern's largest bag exceeds 3) run on int64 arrays when
    a bound proves the counts fit (connected pattern, n * Δ**(k-1) < 2**63)
    and the tables are expected to be large; every other call runs on
    Python-int dicts (see the module docstring).
    """
    if isinstance(pattern, RootedPattern):
        counts, total = _run_dp(pattern.graph, pattern.root, g)
        return CountVector(g.id, pattern.id, counts, total)
    counts, total = _run_dp(pattern, None, g)
    return CountVector(g.id, pattern.id, None, total)


# --- count plans: hom, injective and subgraph counts ------------------------------


class CountPlan(NamedTuple):
    basis: tuple[RootedPattern, ...]  # distinct rooted patterns, one DP each per graph
    terms: tuple[tuple[tuple[int, int], ...], ...]  # per pattern: (basis index, weight)
    divisors: tuple[int, ...]  # per pattern: automorphism count in sub mode, else 1


@lru_cache(maxsize=256)
def count_plan(patterns: tuple[RootedPattern, ...], mode: str) -> CountPlan:
    """Each pattern's count as an integer combination of basis hom counts: in
    hom mode the pattern itself, else its Möbius-weighted quotient classes,
    divided in sub mode by its root-preserving automorphisms (Curticapean,
    Dell and Marx, STOC 2017). Isomorphic basis patterns share one entry."""
    if mode not in ("hom", "inj", "sub"):
        raise ValueError(f"unknown mode {mode!r}")
    basis: dict[bytes, tuple[int, RootedPattern]] = {}  # code -> (index, first pattern)
    terms = []
    for p in patterns:
        row = []
        for weight, q in ((1, p),) if mode == "hom" else quotient_classes(p):
            if weight:
                i, _ = basis.setdefault(canonical_code(q.graph, q.root), (len(basis), q))
                row.append((i, weight))
        terms.append(tuple(row))
    divisors = tuple(automorphism_count(p) if mode == "sub" else 1 for p in patterns)
    return CountPlan(tuple(q for _, q in basis.values()), tuple(terms), divisors)


def _combine(p: RootedPattern, g: Graph, terms, divisor: int) -> CountVector:
    """The weighted sum of p's basis vectors, checked against the ceiling,
    then divided exactly; a unit term passes its basis vector through."""
    if any(vec is None for vec, _ in terms):
        raise CountOverflowError("a basis count exceeds 2**127-1")
    (first, weight), *rest = terms
    if not rest and weight == 1 and divisor == 1 and first.pattern_id == p.id:
        return first
    counts = []
    for v in range(g.n):
        c = _check(sum(w * vec.counts[v] for vec, w in terms))
        q, r = divmod(c, divisor)
        if r or c < 0:
            raise AssertionError(f"inj count {c} negative or not divisible by {divisor}")
        counts.append(q)
    return CountVector(g.id, p.id, tuple(counts), sum(counts))


def hom_vector(
    patterns: Sequence[RootedPattern], g: Graph, mode: str = "hom"
) -> list[CountVector]:
    """One rooted CountVector per pattern, in pattern order, in ``mode`` hom,
    inj or sub: one DP per basis pattern of their :func:`count_plan`. A
    pattern using an overflowing count is flagged; the others go on."""
    plan = count_plan(tuple(patterns), mode)
    basis: list[Optional[CountVector]] = []
    for q in plan.basis:
        try:
            basis.append(hom_count_dp(q, g))
        except CountOverflowError:
            basis.append(None)
    out = []
    for p, row, divisor in zip(patterns, plan.terms, plan.divisors):
        try:
            out.append(_combine(p, g, [(basis[i], w) for i, w in row], divisor))
        except CountOverflowError:
            out.append(CountVector(g.id, p.id, None, 0, overflow=True))
    return out


def unflagged(vec: CountVector) -> CountVector:
    """``vec``, or CountOverflowError if it is flagged."""
    if vec.overflow:
        raise CountOverflowError("count exceeds 2**127-1")
    return vec


def rooted_counts(patterns: Sequence[RootedPattern], g: Graph) -> list[tuple[int, ...]]:
    """Each pattern's per-anchor hom counts on g from :func:`hom_vector`, or
    CountOverflowError if any of them overflows."""
    return [unflagged(vec).counts for vec in hom_vector(patterns, g)]  # type: ignore[misc]


def inj_vector(p: RootedPattern, g: Graph) -> tuple[int, ...]:
    """Injective homomorphism counts at every anchor."""
    return unflagged(hom_vector([p], g, "inj")[0]).counts  # type: ignore[return-value]


def inj_count(p: RootedPattern, g: Graph, anchor: int) -> int:
    """Number of injective homomorphisms sending the root to ``anchor``."""
    _check_anchor(anchor, g)
    return inj_vector(p, g)[anchor]


def sub_vector(p: RootedPattern, g: Graph) -> tuple[int, ...]:
    """Rooted subgraph-isomorphism counts at every anchor."""
    return unflagged(hom_vector([p], g, "sub")[0]).counts  # type: ignore[return-value]


def sub_count(p: RootedPattern, g: Graph, anchor: int) -> int:
    _check_anchor(anchor, g)
    return sub_vector(p, g)[anchor]
