"""Counting kernels: brute-force oracle, tree-decomposition dynamic programming
for all-anchor rooted counts, and count plans, which give hom, injective and
subgraph counts as integer combinations of shared basis hom counts.

Counts are exact integers, a rooted pattern's a tuple of one int per anchor.
Returned counts are checked, a tuple by its anchor sum; intermediate values
are exact Python ints (int64 where :func:`_batches` proves they fit). One
above 2**127 - 1 raises :class:`CountOverflowError`; callers catch it to go on.

The decomposition DP has one output: the counts of a connected rooted pattern
P at every anchor of a graph G; :func:`hom_count_dp` forms every total from
them. Such counts are local: a vertex's count in G1 ⊔ … ⊔ Gm is its count in
its own graph (Lovász, *Large networks and graph limits*, 2012), so
:func:`hom_vectors` runs each basis pattern of a count plan once per batch of
graphs (consecutive in input order) and splits the result per graph. Tables
take one of two representations: dicts of Python ints, one graph at a time,
or int64 numpy key/count arrays (:mod:`homcount.dp_arrays`) over a whole
batch. :func:`_batches` splits the graphs and picks the kernel per batch and
basis pattern, and its docstring gives the rules; a single call is a batch of
one graph. ``dp_arrays``, and numpy with it, is imported only when the arrays
are used. Both kernels return Python ints, and neither raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import prod
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

from homcount.algebra import (
    automorphism_count,
    nice_decomposition,
    quotient_classes,
    treewidth,
)
from homcount.graphs import (
    Graph, RootedPattern, _bits, canonical_code, connected_components, count_maps
)

MAX_COUNT = (1 << 127) - 1

PatternLike = Union[RootedPattern, Graph]


class CountOverflowError(ArithmeticError):
    """A checked count exceeded 2**127 - 1."""


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
    steps: tuple[_DpStep, ...]  # postorder; the last step's bag is (root,)
    largest_bag: int


@lru_cache(maxsize=512)
def _dp_plan(p: RootedPattern) -> _DpPlan:
    """Compile a rooted pattern into nice-decomposition DP instructions that
    stop just before the root's own forget, so the last table is keyed by the
    root's image alone."""
    pg, root = p.graph, p.root
    width, td = treewidth(pg)
    top = next(i for i, b in enumerate(td.bags) if root in b)
    nice = nice_decomposition(td, root_node=top, forget_last=root)
    assert nice.nodes[-2].bag == (root,)
    steps = []
    for nd in nice.nodes[:-1]:
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
    return _DpPlan(tuple(steps), max(s.size for s in steps))


# Both kernels key a table entry by its bag's images in mixed radix n: the
# vertex at bag position j contributes image * n**j. The array kernel runs a
# batch of m graphs as blocks, keyed block + m * (that sum in radix R).

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


def _run_dp_dict(plan: _DpPlan, g: Graph) -> tuple[int, ...]:
    """The DP on dicts of Python ints, unchecked: callers check what they return."""
    steps = plan.steps
    n = g.n
    pows = [n**j for j in range(plan.largest_bag + 1)]
    tables: list[Optional[dict[int, int]]] = [None] * len(steps)
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
            p = pows[step.pos]
            pn = p * n
            new = {}
            # unchecked here and at joins: an entry counts partial maps, at most
            # n * Δ**(k-1) with k <= 14 pattern vertices, so a few hundred bits
            for key, cnt in child.items():  # type: ignore[union-attr]
                nk = key % p + key // pn * p
                new[nk] = new.get(nk, 0) + cnt
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
                    new[key] = cnt * other
            tables[i] = new
    anchor_counts = [0] * n
    for key, cnt in tables[-1].items():  # type: ignore[union-attr]
        anchor_counts[key] = cnt
    return tuple(anchor_counts)


def hom_count_dp(pattern: PatternLike, g: Graph) -> Union[tuple[int, ...], int]:
    """Homomorphism counts over a nice tree decomposition of the pattern.

    A rooted pattern gives its count at every anchor of ``g`` in one pass. A
    plain graph gives the unrooted scalar: the product over its components,
    each rooted at its first vertex, of their anchor sums (Lovász, *Large
    networks and graph limits*, 2012); the empty pattern counts 1. Only what
    it returns is checked against the ceiling, a rooted tuple by its anchor sum.
    Bit-identical to :func:`hom_count_brute` on every input; the pattern, or
    its components, are one batch of :func:`_batches`, which picks their kernel.
    """
    rooted = isinstance(pattern, RootedPattern)
    parts = [pattern] if rooted else [RootedPattern(pattern.induced_subgraph(comp), 0)
                                      for comp in connected_components(pattern)]
    (counts,) = _basis_counts(parts, [g])
    total = _check(prod(map(sum, counts)))  # a rooted pattern's one part: its anchor sum
    return counts[0] if rooted else total


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


def _combine(terms, divisor: int) -> tuple[int, ...]:
    """The weighted sum of basis count tuples, divided exactly; a unit term
    returns its basis tuple as is. The one check of :func:`hom_vectors`: each
    tuple's anchor sum, before the division, against the ceiling."""
    (first, weight), *rest = terms
    if not rest and weight == 1 and divisor == 1:
        _check(sum(first))
        return first
    weights = [w for _, w in terms]
    counts = [sum(map(mul, weights, column)) for column in zip(*(vec for vec, _ in terms))]
    _check(sum(counts))
    if min(counts, default=0) < 0 or divisor > 1 and any(c % divisor for c in counts):
        raise AssertionError(f"inj counts negative or not divisible by {divisor}")
    return tuple(c // divisor for c in counts) if divisor > 1 else tuple(counts)


def _batches(basis: Sequence[RootedPattern], graphs: Sequence[Graph]):
    """Split ``graphs``, in order, into the batches whose basis DPs run
    together, and yield each with one flag per basis pattern: whether that
    pattern runs on the int64 array kernel over the whole batch, else on
    dicts per graph. This is the one place that picks a kernel.

    A batch grows while, for the widest and the largest basis pattern, the
    arrays fit and the counts stay exact, as below; a graph that fails
    either alone is a batch of its own. The widest pattern sets the batch
    size for all: with K5 among them, bags of 5 put each graph of 27 or more
    vertices in a batch of its own. Then a pattern q on k vertices with
    largest bag size b runs on arrays if all of these hold for the batch's m
    graphs, largest vertex count R and largest degree Δ:

    Exact: R * Δ**(k-1) < 2**63. A table entry counts the maps of the
    vertices forgotten below its node that extend the bag's images, and the
    kernel never builds an entry whose images span two graphs, so it counts
    maps into one graph G of n <= R vertices. Every edge at a forgotten
    vertex lies in a bag below the node, so each component of the forgotten
    vertices has a neighbour in the bag, or else is all of q. With a
    nonempty bag, visiting the forgotten vertices in breadth-first order from
    the bag gives each at most Δ images: the entry is at most Δ**(k-1). An
    empty bag holds one entry per graph: 1 at a leaf, otherwise the maps of
    all of q, with at most n images for a first vertex and Δ for each
    further one, n * Δ**(k-1). Forget sums and join products are themselves
    table entries, and the partial sums of a forget are no larger, so every
    value, anchor sums included, stays in int64.

    Fits: m * R**max(2, b-1) <= ``DENSE_LIMIT``. The kernel keeps a dense
    adjacency table of m * R * R entries and sums each forget into a dense
    array of m * R**(bag size) entries; keys then stay below m * R**b <= 2**30.

    Worth it: the entries that the DPs of the fitting patterns on the
    batch's graphs are expected to hold (:func:`_estimated_entries`) number
    at least ``ARRAY_MIN_ENTRIES`` in all; else every pattern runs on dicts.
    On random graphs of 100 to 1000 vertices and average degree 2 to 10,
    with rooted C3 to C7, unrooted C4 and C6 and rooted P4 and P6, the arrays
    saved 0.4 to 1.8 microseconds (median 1.0) per estimated entry on calls
    of 2 * 10**4 estimated entries or more. Every call estimated at
    ``ARRAY_MIN_ENTRIES`` or more saved at least 0.09 s, about the 0.11 to
    0.15 s that importing numpy costs, so one call alone recovers the import.
    A small run within a batch costs the kernel a few milliseconds at most
    (rooted C3 on the 1000-vertex graph above: 13.6 ms against 11.1).
    """
    plans = [_dp_plan(q) for q in basis]
    widest = max((max(2, dp.largest_bag - 1) for dp in plans), default=2)
    k = max((q.graph.n for q in basis), default=1)

    def flagged(batch, size, delta):
        m = len(batch)
        fits = [
            size > 0
            and m * size ** max(2, plan.largest_bag - 1) <= DENSE_LIMIT
            and size * delta ** (q.graph.n - 1) < INT64_LIMIT
            for q, plan in zip(basis, plans)
        ]
        shapes = [(g.n, 2 * len(g.edges) / g.n) for g in batch if g.n]
        total = 0.0
        for plan in compress(plans, fits):
            for n, d in shapes:
                total += _estimated_entries(plan, n, d)
            if total >= ARRAY_MIN_ENTRIES:
                return batch, fits
        return batch, [False] * len(basis)

    batch: list[Graph] = []
    size = delta = 0
    for g in graphs:
        n, degree = g.n, max(map(len, g.adjacency), default=0)
        grown, steeper = max(size, n), max(delta, degree)
        if batch and ((len(batch) + 1) * grown**widest > DENSE_LIMIT
                      or grown * steeper ** (k - 1) >= INT64_LIMIT):
            yield flagged(batch, size, delta)
            batch, grown, steeper = [], n, degree
        batch.append(g)
        size, delta = grown, steeper
    if batch:
        yield flagged(batch, size, delta)


def _basis_counts(basis: Sequence[RootedPattern], graphs: Sequence[Graph]):
    """For each graph, in order, every basis pattern's per-anchor counts,
    unchecked: each pattern runs once per batch of :func:`_batches`, on the
    kernel it picked."""
    for batch, arrays in _batches(basis, graphs):
        if any(arrays):
            from homcount import dp_arrays  # loads numpy

            blocks = dp_arrays.Blocks(batch)
        runs = [
            dp_arrays.run_dp(_dp_plan(q), blocks) if on_arrays
            else [_run_dp_dict(_dp_plan(q), g) for g in batch]
            for q, on_arrays in zip(basis, arrays)
        ]
        for j in range(len(batch)):
            yield [run[j] for run in runs]


def hom_vectors(
    patterns: Sequence[RootedPattern], graphs: Sequence[Graph], mode: str = "hom"
) -> list[Union[list[tuple[int, ...]], CountOverflowError]]:
    """For each graph, in order, each pattern's per-anchor counts in pattern
    order, in ``mode`` hom, inj or sub, or the CountOverflowError raised when
    a count it returns exceeds the ceiling: the patterns' :func:`count_plan`
    combines the counts of its basis patterns (:func:`_basis_counts`)."""
    plan = count_plan(tuple(patterns), mode)
    out: list = []
    for counts in _basis_counts(plan.basis, graphs):
        try:
            out.append([
                _combine([(counts[i], w) for i, w in row], divisor)
                for row, divisor in zip(plan.terms, plan.divisors)
            ])
        except CountOverflowError as exc:
            out.append(exc)
    return out


def hom_vector(
    patterns: Sequence[RootedPattern], g: Graph, mode: str = "hom"
) -> list[tuple[int, ...]]:
    """Each pattern's per-anchor counts on g, in pattern order, in ``mode``
    hom, inj or sub: :func:`hom_vectors` on the one graph. Raises
    CountOverflowError if any count it returns exceeds the ceiling."""
    (vecs,) = hom_vectors(patterns, [g], mode)
    if isinstance(vecs, CountOverflowError):
        raise vecs
    return vecs


def inj_count(p: RootedPattern, g: Graph, anchor: int) -> int:
    """Number of injective homomorphisms sending the root to ``anchor``."""
    _check_anchor(anchor, g)
    return hom_vector([p], g, "inj")[0][anchor]


def sub_count(p: RootedPattern, g: Graph, anchor: int) -> int:
    """Number of subgraphs isomorphic to p with its root at ``anchor``."""
    _check_anchor(anchor, g)
    return hom_vector([p], g, "sub")[0][anchor]
