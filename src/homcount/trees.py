"""Pattern trees: rooted backbone trees with rooted patterns joined onto their
vertices, fast counting through the tree recursion, budgeted enumeration, and
the equivalence/witness harness tying tree counts to refinement verdicts.

For a tree T with root r carrying attachment powers and children c_i, counts
satisfy

    hom(T^r, G^v) = [label matches] * prod_i hom(P_i^r, G^v)^{s_i}
                    * prod_children ( sum_{v' in N(v)} hom(T_i^{c_i}, G^{v'}) )

which the evaluator applies bottom-up, over each graph's attachment counts
computed once through the count plan (:func:`homcount.counting.hom_vector`).
Returned counts are checked; intermediate values are exact Python ints: a
tree's counts, one int per anchor, are checked once, by their anchor sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from operator import itemgetter
from typing import Optional, Sequence

from homcount.counting import _basis_counts, _check, hom_vector
from homcount.graphs import Graph, RootedPattern, canonical_code, normalize_edges
from homcount.graphs import is_connected, is_isomorphic
from homcount.refinement import Verdict, graph_verdict, wl_refine


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
        if not t or self.parent[0] != -1 or any(not 0 <= self.parent[v] < v for v in range(1, t)):
            raise ValueError("backbone parents need parent[0] == -1 and 0 <= parent[v] < v")
        if len(self.labels) != t or len(self.attachments) != t:
            raise ValueError("labels and attachments need one entry per backbone vertex")
        if any(len(s) != len(self.patterns) for s in self.attachments):
            raise ValueError("each attachment vector needs one multiplicity per pattern")
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
    tree: PatternTree, g: Graph, attachments: Optional[Sequence[Sequence[int]]] = None
) -> tuple[int, ...]:
    """Per-anchor counts by the bottom-up recursion; equals brute counting of
    the flattened pattern at every vertex. Only what it returns is checked:
    their sum, the count of the unrooted flattened tree, against the ceiling.

    ``attachments`` holds each of the tree's patterns' per-anchor counts on g
    (default: their unchecked counts from :func:`homcount.counting._basis_counts`);
    pass them to count many trees over one pattern list on one graph.
    """
    if attachments is None:
        attachments = next(_basis_counts(tree.patterns, [g]))
    n = g.n
    adjacency = g.adjacency
    kids = tree.children()
    val: dict[int, list[int]] = {}
    for s in reversed(range(tree.size)):  # parent[v] < v, so children come first
        base = [1 if g.labels[v] == tree.labels[s] else 0 for v in range(n)]
        for counts, mult in zip(attachments, tree.attachments[s], strict=True):
            if mult:
                for v in range(n):
                    if base[v]:
                        base[v] *= counts[v] ** mult
        for c in kids[s]:
            child = val.pop(c)
            for v in range(n):
                if base[v]:
                    base[v] *= sum(child[u] for u in adjacency[v])
        val[s] = base
    _check(sum(val[0]))
    return tuple(val[0])


# --- enumeration ---------------------------------------------------------------


def _backbone_shapes(max_vertices: int, max_depth: int):
    """Rooted trees as parent arrays (``parent[v] < v``) of depth at most
    ``max_depth``, by size, then lexicographically; duplicates up to
    isomorphism are fine, :func:`_tree_classes` dedups them.
    Prefixes deeper than ``max_depth`` are cut, so the work follows the shapes kept."""

    def grow(parent: tuple[int, ...], depth: tuple[int, ...], t: int):
        if len(parent) == t:
            yield parent
            return
        for p, d in enumerate(depth):
            if d < max_depth:
                yield from grow(parent + (p,), depth + (d + 1,), t)

    for t in range(1, max_vertices + 1):
        yield from grow((-1,), (0,), t)


def _multiplicity_vectors(num_patterns: int, max_total: int):
    """Vectors of nonnegative multiplicities summing to at most
    ``max_total``, lexicographically, built without the vectors over it."""
    if num_patterns == 0:
        yield ()
        return
    for m in range(max_total + 1):
        for rest in _multiplicity_vectors(num_patterns - 1, max_total - m):
            yield (m,) + rest


def _structure_key(parent, labels, assignment):
    """AHU-style key (label, attachment vector, sorted child keys) of the
    root, built bottom-up; equal keys mean isomorphic flattened forms."""
    kids: list[list] = [[] for _ in parent]
    for v in range(len(parent) - 1, 0, -1):  # parent[v] < v: children first
        kids[parent[v]].append((labels[v], assignment[v], tuple(sorted(kids[v]))))
    return labels[0], assignment[0], tuple(sorted(kids[0]))


def _key_is_complete(patterns: Sequence[RootedPattern]) -> bool:
    """Whether equal flattened codes imply equal structural keys: every pattern
    has edges, none a bridge, a root that is no cut vertex, and no two patterns
    are rooted-isomorphic. Proof: then the flattened form's bridges are its
    backbone edges (a copy's edges lie on its cycles), and at a backbone vertex
    v, each copy less v is one component of the bridgeless part less v. So an
    isomorphism of flattened forms maps backbone onto backbone and copies at v
    onto copies, at v's image, of the same pattern: vectors and keys agree."""
    for p in patterns:
        g, rest = p.graph, [v for v in range(p.graph.n) if v != p.root]
        dropped = [Graph(g.id, g.n, g.labels, tuple(x for x in g.edges if x != e)) for e in g.edges]
        if not dropped or not all(map(is_connected, [g.induced_subgraph(rest), *dropped])):
            return False
    return not any(is_isomorphic(p.graph, q.graph, p.root, q.root)
                   for p, q in combinations(patterns, 2))


def _flat_code(tree: PatternTree) -> bytes:
    return canonical_code(flatten(tree).graph, 0)


def _tree_classes(
    patterns: Sequence[RootedPattern], budget: EnumerationBudget, alphabet: Sequence[int]
) -> tuple[dict, bool, bool]:
    """One tree per isomorphism class of flattened forms, the first generated,
    in generation order, as {class key: tree}; whether :func:`_key_is_complete`,
    and whether the hard cap cut the stream short.

    Candidates are deduped by structural key, unflattened, and unless keys are
    complete, by flattened code, which merges what keys split (say, an attached
    L2): the class key is the structural key if complete, else the code. Past
    ``budget.max_trees``, the greatest code is cut.
    """
    patterns = tuple(patterns)
    vectors = list(_multiplicity_vectors(len(patterns), budget.multiplicity))
    options = {  # per backbone label: the vectors attaching only patterns rooted there
        label: [s for s in vectors
                if all(m == 0 or p.root_label == label for p, m in zip(patterns, s))]
        for label in alphabet
    }
    candidates = (
        (parent, labels, assignment)
        for parent in _backbone_shapes(budget.backbone, budget.depth)
        for labels in product(alphabet, repeat=len(parent))
        for assignment in product(*(options[label] for label in labels))
    )
    complete = _key_is_complete(patterns)
    shapes: set = set()
    kept: dict = {}  # the class's code, or its key where keys are complete -> tree
    for parent, labels, assignment in candidates:
        key = _structure_key(parent, labels, assignment)
        if key in shapes:
            continue
        shapes.add(key)
        tree = PatternTree(parent, labels, assignment, patterns)
        kept.setdefault(key if complete else _flat_code(tree), tree)
        if len(kept) > budget.max_trees:
            del kept[max(kept, key=lambda k: _flat_code(kept[k])) if complete else max(kept)]
            return kept, complete, True
    return kept, complete, False


def enumerate_pattern_trees(
    patterns: Sequence[RootedPattern], budget: EnumerationBudget, alphabet: Sequence[int] = (0,)
) -> tuple[list[PatternTree], bool]:
    """Every tree within budget, once up to isomorphism of its flattened form,
    sorted by that form's canonical code: the trees of :func:`_tree_classes`,
    which codes each candidate it keeps when keys are incomplete, and sorts by
    those codes; otherwise each tree is coded to sort (and to cut a truncated
    stream). Returns (trees, truncated); ``truncated`` reports that the hard
    cap cut the stream short."""
    kept, complete, truncated = _tree_classes(patterns, budget, alphabet)
    if complete:  # class keys are structural: code each tree to sort
        kept = {_flat_code(tree): tree for tree in kept.values()}
    return [kept[code] for code in sorted(kept)], truncated


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
    budget: EnumerationBudget = EnumerationBudget(),
    vertex_pair: Optional[tuple[int, int]] = None,
    trees: Optional[Sequence[PatternTree]] = None,
) -> HarnessReport:
    """Cross-check F-WL against tree counts on a budgeted universe.

    Each graph's attachment counts are computed once: they are both the
    initial colors of ``budget.depth`` refinement rounds (the label plus one
    count per pattern, as in :func:`homcount.refinement.f_wl`) and the counts
    every tree is evaluated from.

    Forward: vertices sharing a color at round d must agree on all enumerated
    trees of depth <= d (a violation is a correctness bug; violations come by
    round, flattened code and color). Witness: when the pair is distinguished,
    the differing tree whose flattened form has the least canonical code, among
    those no deeper than the round that split the pair: the graph-level counts,
    or, if ``vertex_pair`` is given, the counts rooted at that pair. So codes
    are computed only for :func:`_tree_classes`' incomplete keys and truncation
    cut, for violations, and for the differing trees.

    ``trees`` short-circuits enumeration with a pre-built stream; a tree
    built over another pattern list raises ValueError.
    """
    for v, grf in zip(vertex_pair or (), (g, h)):
        if not 0 <= v < grf.n:
            raise ValueError(f"vertex {v} out of range for graph {grf.id} with {grf.n} vertices")
    if trees is None:
        alphabet = sorted(set(g.labels) | set(h.labels))
        kept, _, truncated = _tree_classes(patterns, budget, alphabet)
        trees = list(kept.values())
    else:
        trees, truncated = list(trees), False
        if any(tree.patterns != tuple(patterns) for tree in trees):
            raise ValueError("a supplied tree was built over another pattern list")
    rounds = budget.depth
    attach_g, attach_h = hom_vector(patterns, g), hom_vector(patterns, h)
    col_g, col_h = wl_refine(
        g, h, list(zip(g.labels, *attach_g)), list(zip(h.labels, *attach_h)), rounds)
    verdict = graph_verdict(col_g, col_h)
    per_tree = [
        (tree.depth, tree, hom_pattern_tree(tree, g, attach_g),
         hom_pattern_tree(tree, h, attach_h))
        for tree in trees
    ]

    violations: list[tuple[int, PatternTree, str]] = []
    checked = 0
    for d in range(rounds + 1):
        classes: dict[int, list[tuple[int, int]]] = {}
        for v, c in enumerate(col_g.colors_at(d)):
            classes.setdefault(c, []).append((0, v))
        for w, c in enumerate(col_h.colors_at(d)):
            classes.setdefault(c, []).append((1, w))
        for depth, tree, cg, ch in per_tree:
            if depth > d:
                continue
            checked += 1
            for color, members in classes.items():
                vals = {(cg if side == 0 else ch)[v] for side, v in members}
                if len(vals) > 1:
                    violations.append((d, tree, f"round {d} color {color}: counts "
                                       f"{sorted(vals)} for tree {tree.signature()}"))
    violations.sort(key=lambda x: (x[0], _flat_code(x[1])))  # stable: colors stay in order

    if vertex_pair is None:
        kind, limit, count_g, count_h = "graph", verdict.at_round, sum, sum
    else:
        v, w = vertex_pair
        kind, count_g, count_h = "vertex", itemgetter(v), itemgetter(w)
        limit = next(
            (d for d in range(rounds + 1) if col_g.colors_at(d)[v] != col_h.colors_at(d)[w]),
            None,
        )
    witness = None
    if limit is not None:
        differ = [Witness(t, count_g(cg), count_h(ch), kind, vertex_pair)
                  for depth, t, cg, ch in per_tree if depth <= limit and count_g(cg) != count_h(ch)]
        witness = min(differ, key=lambda w: _flat_code(w.tree), default=None)

    return HarnessReport(
        verdict=verdict,
        rounds=rounds,
        trees_enumerated=len(trees),
        truncated=truncated,
        forward_checked=checked,
        forward_violations=[line for *_, line in violations],
        witness=witness,
        witness_searched=limit is not None,
    )
