"""Pattern trees: rooted backbone trees with rooted patterns joined onto their
vertices, fast counting through the tree recursion, budgeted enumeration, and
the equivalence/witness harness tying tree counts to refinement verdicts.

For a tree T with root r carrying attachment powers and children c_i, counts
satisfy

    hom(T^r, G^v) = [label matches] * prod_i hom(P_i^r, G^v)^{s_i}
                    * prod_children ( sum_{v' in N(v)} hom(T_i^{c_i}, G^{v'}) )

which the evaluator applies bottom-up, reusing the decomposition-based kernel
for the attachment factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from homcount.algebra import join
from homcount.counting import CountVector, _check, hom_count_dp
from homcount.graphs import Graph, RootedPattern, canonical_code, normalize_edges
from homcount.refinement import Verdict, f_wl


@dataclass(frozen=True)
class EnumerationBudget:
    """Finite truncation of the tree universe: backbone depth and size, total
    attachment multiplicity per backbone vertex, and a hard stream cap."""

    depth: int = 2
    backbone: int = 4
    multiplicity: int = 2
    max_trees: int = 20000

    def __post_init__(self):
        for name, low in (("depth", 0), ("backbone", 1), ("multiplicity", 0), ("max_trees", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"budget {name} must be at least {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class PatternTree:
    """Backbone rooted at vertex 0 (``parent[0] == -1``) with per-vertex labels
    and, per vertex, a multiplicity vector over the shared pattern list."""

    parent: tuple[int, ...]
    labels: tuple[int, ...]
    attachments: tuple[tuple[int, ...], ...]
    patterns: tuple[RootedPattern, ...]

    def __post_init__(self):
        t = len(self.parent)
        assert self.parent[0] == -1 and all(0 <= self.parent[i] < i for i in range(1, t))
        assert len(self.labels) == t and len(self.attachments) == t
        for s in self.attachments:
            assert len(s) == len(self.patterns)
        for v in range(t):
            for i, mult in enumerate(self.attachments[v]):
                if mult and self.patterns[i].root_label != self.labels[v]:
                    raise ValueError("attachment root label must match backbone label")

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def depth(self) -> int:
        depths = [0] * self.size
        for v in range(1, self.size):
            depths[v] = depths[self.parent[v]] + 1
        return max(depths)

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.size)]
        for v in range(1, self.size):
            out[self.parent[v]].append(v)
        return out

    def signature(self) -> str:
        return (
            f"b{list(self.parent)}l{list(self.labels)}"
            f"a{[list(s) for s in self.attachments]}"
        )

    def to_json(self) -> dict:
        return {
            "backbone_parent": list(self.parent),
            "backbone_labels": list(self.labels),
            "attachments": [
                {self.patterns[i].id: m for i, m in enumerate(s) if m}
                for s in self.attachments
            ],
            "patterns": [p.to_record() for p in self.patterns],
        }


def flatten(tree: PatternTree) -> RootedPattern:
    """Materialize all joins into an explicit rooted pattern."""
    t = tree.size
    edges = [(tree.parent[v], v) for v in range(1, t)]
    labels = list(tree.labels)
    n = t
    all_edges = list(edges)
    for v in range(t):
        for i, mult in enumerate(tree.attachments[v]):
            for _ in range(mult):
                pg = tree.patterns[i].graph
                offset = {}
                for u in range(pg.n):
                    if u == tree.patterns[i].root:
                        offset[u] = v
                    else:
                        offset[u] = n
                        labels.append(pg.labels[u])
                        n += 1
                for a, b in pg.edges:
                    all_edges.append((offset[a], offset[b]))
    g = Graph("tree", n, tuple(labels), normalize_edges(all_edges))
    return RootedPattern(g, 0)


def hom_pattern_tree(
    tree: PatternTree, g: Graph, cache: Optional[dict] = None
) -> CountVector:
    """Per-anchor counts by the bottom-up recursion; equals brute counting of
    the flattened pattern at every vertex.

    ``cache`` memoizes attachment-pattern count vectors across trees of one
    enumeration run; keys are the (pattern, graph) objects themselves, so two
    different graphs sharing an id never share counts.
    """
    if cache is None:
        cache = {}
    n = g.n
    adjacency = g.adjacency

    def pattern_counts(i: int) -> tuple[int, ...]:
        key = (tree.patterns[i], g)
        got = cache.get(key)
        if got is None:
            got = hom_count_dp(tree.patterns[i], g).counts
            cache[key] = got
        return got  # type: ignore[return-value]

    kids = tree.children()
    order = sorted(range(tree.size), key=lambda v: -_depth_of(tree, v))
    val: dict[int, list[int]] = {}
    for s in order:
        base = [1 if g.labels[v] == tree.labels[s] else 0 for v in range(n)]
        for i, mult in enumerate(tree.attachments[s]):
            if not mult:
                continue
            counts = pattern_counts(i)
            for v in range(n):
                if base[v]:
                    base[v] = _check(base[v] * counts[v] ** mult)
        for c in kids[s]:
            child = val.pop(c)
            for v in range(n):
                if base[v]:
                    base[v] = _check(base[v] * sum(child[u] for u in adjacency[v]))
        val[s] = base
    counts = tuple(val[0])
    return CountVector(g.id, f"tree:{tree.signature()}", counts, sum(counts))


def _depth_of(tree: PatternTree, v: int) -> int:
    d = 0
    while tree.parent[v] != -1:
        v = tree.parent[v]
        d += 1
    return d


def unrooted_tree_count(tree: PatternTree, g: Graph, cache: Optional[dict] = None) -> int:
    """Count of maps from the unrooted flattened tree: the anchor sum works
    because every map sends the backbone root somewhere."""
    return hom_pattern_tree(tree, g, cache).total


# --- enumeration ---------------------------------------------------------------


def _backbone_shapes(max_vertices: int, max_depth: int):
    """Rooted trees as parent arrays; duplicates up to isomorphism are fine,
    the caller dedups flattened forms."""
    for t in range(1, max_vertices + 1):
        def rec(parents: list[int], depths: list[int]):
            if len(parents) == t:
                yield tuple(parents)
                return
            i = len(parents)
            for p in range(i):
                if depths[p] + 1 <= max_depth:
                    parents.append(p)
                    depths.append(depths[p] + 1)
                    yield from rec(parents, depths)
                    parents.pop()
                    depths.pop()

        if t == 1:
            yield (-1,)
        else:
            yield from rec([-1], [0])


def _multiplicity_vectors(num_patterns: int, max_total: int):
    vec = [0] * num_patterns

    def rec(i: int, left: int):
        if i == num_patterns:
            yield tuple(vec)
            return
        for m in range(left + 1):
            vec[i] = m
            yield from rec(i + 1, left - m)
        vec[i] = 0

    yield from rec(0, max_total)


def enumerate_pattern_trees(
    patterns: Sequence[RootedPattern],
    budget: EnumerationBudget,
    alphabet: Sequence[int] = (0,),
) -> tuple[list[PatternTree], bool]:
    """Every tree within budget, exactly once up to isomorphism of its
    flattened form, sorted by that form's canonical code.

    Returns (trees, truncated); ``truncated`` reports that the hard cap cut
    the stream short.
    """
    from itertools import product

    patterns = tuple(patterns)
    seen: dict[bytes, PatternTree] = {}
    truncated = False
    for parent in _backbone_shapes(budget.backbone, budget.depth):
        t = len(parent)
        for labels in product(alphabet, repeat=t):
            per_vertex = []
            for v in range(t):
                options = [
                    s
                    for s in _multiplicity_vectors(len(patterns), budget.multiplicity)
                    if all(
                        m == 0 or patterns[i].root_label == labels[v]
                        for i, m in enumerate(s)
                    )
                ]
                per_vertex.append(options)
            for assignment in product(*per_vertex):
                tree = PatternTree(parent, labels, tuple(assignment), patterns)
                code = canonical_code(flatten(tree).graph, 0)
                if code not in seen:
                    seen[code] = tree
                    if len(seen) > budget.max_trees:
                        truncated = True
                        break
            if truncated:
                break
        if truncated:
            break
    ordered = [seen[c] for c in sorted(seen)]
    if truncated:
        ordered = ordered[: budget.max_trees]
    return ordered, truncated


# --- equivalence harness ---------------------------------------------------------


@dataclass
class Witness:
    tree: PatternTree
    count_g: int
    count_h: int
    kind: str  # "graph" or "vertex"
    at: Optional[tuple[int, int]] = None


@dataclass
class HarnessReport:
    """Outcome of checking refinement verdicts against tree counts.

    ``forward_violations`` must stay empty: vertices the refinement calls
    equivalent at round d are required to agree on every tree of depth <= d.
    The witness search only runs for distinguished inputs and may exhaust its
    budget, which is reported, never treated as a refutation.
    """

    verdict: Verdict
    rounds: int
    trees_enumerated: int
    truncated: bool
    forward_checked: int
    forward_violations: list[str] = field(default_factory=list)
    witness: Optional[Witness] = None
    witness_searched: bool = False

    @property
    def ok(self) -> bool:
        return not self.forward_violations

    def to_json(self) -> dict:
        out = {
            "distinguished": self.verdict.distinguished,
            "round": self.verdict.at_round,
            "rounds_checked": self.rounds,
            "trees_enumerated": self.trees_enumerated,
            "budget_truncated": self.truncated,
            "forward_checked": self.forward_checked,
            "forward_violations": self.forward_violations,
        }
        if self.witness is not None:
            out["witness"] = {
                "tree": self.witness.tree.to_json(),
                "counts": [self.witness.count_g, self.witness.count_h],
                "kind": self.witness.kind,
            }
            if self.witness.at is not None:
                out["witness"]["vertices"] = list(self.witness.at)
        elif self.witness_searched:
            out["witness"] = None
        return out


def tree_equivalence_report(
    g: Graph,
    h: Graph,
    patterns: Sequence[RootedPattern],
    rounds: int = 2,
    budget: EnumerationBudget = EnumerationBudget(),
    vertex_pair: Optional[tuple[int, int]] = None,
    trees: Optional[Sequence[PatternTree]] = None,
    hom_cache: Optional[dict] = None,
) -> HarnessReport:
    """Cross-check refinement against tree counts on a budgeted universe.

    Forward: vertices sharing a color at round d must agree on all enumerated
    trees of depth <= d (a violation is a correctness bug). Witness: when the
    pair is distinguished, search the stream for a tree whose counts differ,
    graph-level or, if ``vertex_pair`` is given, rooted at that pair.

    ``trees`` short-circuits enumeration with a pre-built stream (it must come
    from the same pattern list); ``hom_cache`` shares attachment-count work
    across calls.
    """
    for v, grf in zip(vertex_pair or (), (g, h)):
        if not 0 <= v < grf.n:
            raise ValueError(f"vertex {v} out of range for graph {grf.id} with {grf.n} vertices")
    if trees is None:
        alphabet = sorted(set(g.labels) | set(h.labels))
        trees, truncated = enumerate_pattern_trees(patterns, budget, alphabet)
    else:
        trees, truncated = list(trees), False
    col_g, col_h, verdict = f_wl(g, h, patterns, max_rounds=rounds)

    cache: dict = {} if hom_cache is None else hom_cache
    per_tree = [
        (tree, hom_pattern_tree(tree, g, cache), hom_pattern_tree(tree, h, cache))
        for tree in trees
    ]

    violations: list[str] = []
    checked = 0
    for d in range(rounds + 1):
        classes: dict[int, list[tuple[int, int]]] = {}
        for v, c in enumerate(col_g.colors_at(d)):
            classes.setdefault(c, []).append((0, v))
        for w, c in enumerate(col_h.colors_at(d)):
            classes.setdefault(c, []).append((1, w))
        for tree, cg, ch in per_tree:
            if tree.depth > d:
                continue
            checked += 1
            for color, members in classes.items():
                vals = {
                    (cg.counts[v] if side == 0 else ch.counts[v])  # type: ignore[index]
                    for side, v in members
                }
                if len(vals) > 1:
                    violations.append(
                        f"round {d} color {color}: counts {sorted(vals)} "
                        f"for tree {tree.signature()}"
                    )

    witness = None
    searched = False
    if vertex_pair is not None:
        v, w = vertex_pair
        split_round = next(
            (
                d
                for d in range(rounds + 1)
                if col_g.colors_at(d)[v] != col_h.colors_at(d)[w]
            ),
            None,
        )
        if split_round is not None:
            searched = True
            for tree, cg, ch in per_tree:
                if tree.depth > split_round:
                    continue
                if cg.counts[v] != ch.counts[w]:  # type: ignore[index]
                    witness = Witness(tree, cg.counts[v], ch.counts[w], "vertex", (v, w))
                    break
    elif verdict.distinguished:
        searched = True
        limit = min(verdict.at_round if verdict.at_round is not None else rounds, rounds)
        for tree, cg, ch in per_tree:
            if tree.depth > limit:
                continue
            if cg.total != ch.total:
                witness = Witness(tree, cg.total, ch.total, "graph")
                break

    return HarnessReport(
        verdict=verdict,
        rounds=rounds,
        trees_enumerated=len(trees),
        truncated=truncated,
        forward_checked=checked,
        forward_violations=violations,
        witness=witness,
        witness_searched=searched,
    )
