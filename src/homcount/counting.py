"""Counting kernels: brute-force oracle, tree-decomposition dynamic programming
for all-anchor rooted counts, and count plans, which give hom, injective and
subgraph counts as integer combinations of shared basis hom counts.

Counts are exact integers, a rooted pattern's a tuple of one int per anchor.
Returned counts are checked, a tuple by its anchor sum; intermediate values
are Python ints, or int64 where :func:`_batches` and :func:`_combine_batch`
prove them exact. One above 2**127 - 1 raises :class:`CountOverflowError`.

The decomposition DP has one output: the counts of a connected rooted pattern
P at every anchor of a graph G; :func:`hom_count_dp` forms every total from
them. Such counts are local: a vertex's count in G1 ⊔ … ⊔ Gm is its count in
its own graph (Lovász, *Large networks and graph limits*, 2012), so
:func:`hom_vectors` runs each basis pattern of a count plan once per batch of
graphs (consecutive in input order) and splits the result per graph. Tables
take one of two representations: dicts of Python ints, one graph at a time, or
int64 numpy key/count arrays (:mod:`homcount.dp_arrays`) over a whole batch,
where each table that basis plans share is built once. :func:`_batches` splits
the graphs and picks the kernel per batch and basis pattern, and its docstring
gives the rules; a single call is a batch of one graph. ``dp_arrays``, and
numpy with it, is imported only when the arrays are used. Both kernels run the
steps of :func:`_dp_plan`, the one plan compiler, which walks an exact-width
tree decomposition of P into leaf, introduce, forget and join steps; the
dicts return Python ints, the arrays an int64 array per batch; neither raises.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from math import prod
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

from homcount.algebra import automorphism_count, quotient_classes, treewidth
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
    """Compile a rooted pattern into DP steps over an exact-width tree
    decomposition (:func:`homcount.algebra.treewidth`); the one plan compiler.

    A bag contained in a neighbouring bag is merged into it. The walk starts
    at the first bag holding the root. A leaf starts empty; a child's bag
    first forgets what its parent's bag lacks, then introduces the rest one
    vertex per step, the first in vertex order with a pattern edge into the
    bag if any, so a table grows by a degree rather than by n; children join
    pairwise in order. Closing forgets, in vertex order, stop just before the
    root's own forget, so the last table is keyed by the root's image alone.
    """
    pg, root = p.graph, p.root
    _, td = treewidth(pg)
    bags, parent = td.bags, td.parent
    adj = [{j for j, u in enumerate(parent) if u == i} | {up} - {-1} for i, up in enumerate(parent)]
    for i, bag in enumerate(bags):  # bags never change, so one pass merges all
        into = next((j for j in sorted(adj[i]) if bag <= bags[j]), None)
        if into is not None:
            for j in adj[i] - {into}:
                adj[j] ^= {i, into}
            adj[into] ^= adj[i] ^ {into, i}
            adj[i] = {-1}  # merged
    steps: list[_DpStep] = []

    def emit(kind, children, pos=-1, label=-1, priors=(), size=0) -> int:
        steps.append(_DpStep(kind, children, pos, label, priors, size))
        return len(steps) - 1

    def morph(idx: int, bag: list[int], target: frozenset[int]) -> int:
        """Steps from ``idx``'s sorted ``bag`` to ``target``'s vertices."""
        for v in [v for v in bag if v not in target]:
            pos = bag.index(v)
            del bag[pos]
            idx = emit("forget", (idx,), pos, size=len(bag))
        new = sorted(target.difference(bag))
        while new:
            v = min(new, key=lambda v: not any(pg.adj_masks[v] >> u & 1 for u in bag))
            new.remove(v)
            mask = pg.adj_masks[v]
            priors = tuple(j for j, u in enumerate(bag) if mask >> u & 1)
            insort(bag, v)
            idx = emit("introduce", (idx,), bag.index(v), pg.labels[v], priors, len(bag))
        return idx

    def build(node: int, up: int) -> int:
        target = bags[node]
        kids = sorted(adj[node] - {up})
        if not kids:
            return morph(emit("leaf", ()), [], target)
        acc, *rest = [morph(build(c, node), sorted(bags[c]), target) for c in kids]
        for other in rest:
            acc = emit("join", (acc, other), size=len(target))
        return acc

    top = next(i for i, b in enumerate(bags) if root in b and -1 not in adj[i])
    morph(build(top, -1), sorted(bags[top]), frozenset((root,)))
    return _DpPlan(tuple(steps), max(s.size for s in steps))


# Both kernels key a table entry by its bag's images in mixed radix n: the
# vertex at bag position j contributes image * n**j. The array kernel runs a
# batch of m graphs as blocks, keyed block + m * (that sum in radix R).

INT64_LIMIT = 1 << 63
DENSE_LIMIT = 1 << 20  # entries of an array kernel's adjacency table or forget sum
ARRAY_MIN_ENTRIES = 1 << 17  # estimated DP entries from which arrays pay off


def _estimated_entries(plan: _DpPlan, n: int, moments: Sequence[float]) -> float:
    """Entries the plan's tables hold in all, on a graph with n vertices and
    random edges of degree moments ``moments[j]``, the mean of deg**j (j
    neighbours of a vertex): an introduce multiplies by n without a prior,
    else by moments[t + 1] / moments[t], t the vertices introduced next to its
    first prior or to it, and by moments[1] / n per further prior; a forget
    keeps at most n**(bag size), every t 0 at that cap; a join its smaller child."""
    tables: list[tuple[float, list[int]]] = []  # per step: entries, each bag position's t
    for step in plan.steps:
        if step.kind == "leaf":
            size, fan = 1.0, []
        elif step.kind == "join":
            size, fan = min(tables[c] for c in step.children)
        else:
            size, fan = tables[step.children[0]]  # read once: its fan changes in place
            if step.kind == "forget":
                del fan[step.pos]
                if size >= n**step.size:
                    size, fan = float(n**step.size), [0] * step.size
            elif step.prior_positions:
                first, *more = step.prior_positions
                t = fan[first]
                size *= moments[t + 1] / (moments[t] or 1) * (moments[1] / n) ** len(more)
                fan[first] += 1
                fan.insert(step.pos, 1)
            else:
                fan.insert(step.pos, 0)
                size *= n
        tables.append((size, fan))
    return sum(size for size, _ in tables)


def _run_dp_dict(plan: _DpPlan, g: Graph) -> tuple[int, ...]:
    """The DP on dicts of Python ints, unchecked: callers check what they
    return. Its inputs are small, so it shares no tables between plans."""
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
    """Homomorphism counts by the tree-decomposition DP (:func:`_dp_plan`).

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
    adjacency table of m * R * R entries, and a forget whose input passes a
    share of m * R**(bag size) sums into a dense array that large (it sorts
    below); a pull lays out its child and sums its output densely in m * R**s
    entries each, s <= b-1 its forget's output size, and a forget of that
    output sums an axis, so no new limit. Keys then stay below m * R**b <= 2**30.

    Worth it: the entries that the DPs of the fitting patterns on the
    batch's graphs are expected to hold (:func:`_estimated_entries`, from the
    batch's degree moments) number at least ``ARRAY_MIN_ENTRIES`` in all;
    else every pattern runs on dicts. On random graphs of 100 to 1000
    vertices and average degree 2 to 10 (rooted C3 to C7, unrooted C4 and C6,
    rooted P4 and P6), the arrays saved a median 1.0 microseconds per entry
    estimated from the mean degree, and at least 0.09 s, about what importing
    numpy costs, on every call of ``ARRAY_MIN_ENTRIES`` or more. The moments
    raise those estimates by 1 to 36%, and 100-fold for a triangle with three
    leaves at its root on a star of 1001 vertices. A small run in a batch
    costs a few milliseconds at most (rooted C3 on 1000 vertices: 13.6 ms
    against 11.1).
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
        degrees = Counter(chain.from_iterable(map(len, g.adjacency) for g in batch))
        moments = [sum(d**j * c for d, c in degrees.items()) / max(1, degrees.total())
                   for j in range(k + 1)]
        sizes = Counter(g.n for g in batch if g.n)
        total = 0.0
        for plan in compress(plans, fits):
            total += sum(c * _estimated_entries(plan, n, moments) for n, c in sizes.items())
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


def _basis_runs(basis: Sequence[RootedPattern], graphs: Sequence[Graph]):
    """For each batch of :func:`_batches`, the batch and each basis pattern's
    unchecked per-anchor counts on it: an int64 array of a row per graph from
    ``dp_arrays.run_dp``, else a list of one tuple per graph from the dicts."""
    plans = [_dp_plan(q) for q in basis]
    for batch, arrays in _batches(basis, graphs):
        if any(arrays):
            from homcount import dp_arrays  # loads numpy

            blocks = dp_arrays.Blocks(batch)
            blocks.share(compress(plans, arrays))
        yield batch, [
            dp_arrays.run_dp(plan, blocks) if on_arrays
            else [_run_dp_dict(plan, g) for g in batch]
            for plan, on_arrays in zip(plans, arrays)
        ]


def _per_graph(run, batch: Sequence[Graph]) -> list[tuple[int, ...]]:
    """A run of :func:`_basis_runs` as one tuple of Python ints per graph."""
    return run if isinstance(run, list) else [tuple(r[:g.n]) for r, g in zip(run.tolist(), batch)]


def _basis_counts(basis: Sequence[RootedPattern], graphs: Sequence[Graph]):
    """For each graph, in order, every basis pattern's unchecked per-anchor counts."""
    for batch, runs in _basis_runs(basis, graphs):
        runs = [_per_graph(run, batch) for run in runs]
        for j in range(len(batch)):
            yield [run[j] for run in runs]


def _combine_batch(plan: CountPlan, runs) -> Optional[list]:
    """:func:`_combine` on whole int64 tables, if every basis run is one and
    each pattern's sum over its terms of |weight| * max(1, table maximum),
    which bounds every weight and partial sum, is below 2**63; else None."""
    if any(isinstance(run, list) for run in runs):
        return None
    tops = [max(1, int(run.max())) for run in runs]
    if any(sum(abs(w) * tops[i] for i, w in row) >= INT64_LIMIT for row in plan.terms):
        return None
    columns = []
    for row, divisor in zip(plan.terms, plan.divisors):
        column = sum(runs[i] * w for i, w in row)
        if (column < 0).any() or divisor > 1 and (column % divisor).any():
            raise AssertionError(f"inj counts negative or not divisible by {divisor}")
        columns.append(column // divisor)
    return columns


def hom_vectors(
    patterns: Sequence[RootedPattern], graphs: Sequence[Graph], mode: str = "hom"
) -> list[Union[list[tuple[int, ...]], CountOverflowError]]:
    """For each graph, in order, each pattern's per-anchor counts in pattern
    order, in ``mode`` hom, inj or sub, or the CountOverflowError raised when
    a count it returns exceeds the ceiling: the :func:`count_plan` combines
    basis counts (:func:`_basis_runs`) per batch (:func:`_combine_batch`) or
    per graph (:func:`_combine`), checking each tuple's undivided anchor sum."""
    plan = count_plan(tuple(patterns), mode)
    out: list = []
    for batch, runs in _basis_runs(plan.basis, graphs):
        columns = _combine_batch(plan, runs)
        counts = [_per_graph(run, batch) for run in (runs if columns is None else columns)]
        for j in range(len(batch)):
            vecs = [run[j] for run in counts]
            try:
                if columns is None:
                    vecs = [_combine([(vecs[i], w) for i, w in row], divisor)
                            for row, divisor in zip(plan.terms, plan.divisors)]
                else:
                    for vec, divisor in zip(vecs, plan.divisors):
                        _check(divisor * sum(vec))
                out.append(vecs)
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
