"""Color-refinement engines: plain 1-round-based refinement, the hom-count
augmented variant, and folklore k-dimensional refinement for k in {1,2,3}.

All three run :func:`homcount.graphs.refine` on the disjoint union of the two
graphs, so each round ranks the signatures of both graphs together and color
ids are comparable across them. Ids are exact: two items share a round's id
iff their signatures are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product
from typing import Optional, Sequence

from homcount.algebra import SizeGuardError
from homcount.counting import rooted_counts
from homcount.graphs import Graph, RootedPattern, neighbour_signatures, refine

# Cap on the substituted-tuple entries one k-WL round builds, g.n^(k+1) +
# h.n^(k+1). Measured peak memory is 76-85 bytes per entry (3.46M entries at
# k=2: 267 MB; 3.75M at k=3: 321 MB), so a run stays within about 350 MB.
KWL_ENTRY_GUARD = 4_000_000


@dataclass(frozen=True)
class Coloring:
    """Per-round colors of one graph's items (its vertices, or for k-WL its
    k-tuples in ``itertools.product`` order) for a jointly refined pair.

    ``history[d][i]`` is the color of item i after round d (round 0 = initial).
    Ids are dense and shared with the partner coloring.
    """

    graph_id: str
    history: tuple[tuple[int, ...], ...]
    stable: bool

    @property
    def rounds(self) -> int:
        return len(self.history) - 1

    def colors_at(self, d: int) -> tuple[int, ...]:
        """Colors after round d; rounds past stabilization return the last."""
        return self.history[min(d, len(self.history) - 1)]

    @property
    def final(self) -> tuple[int, ...]:
        return self.history[-1]


@dataclass(frozen=True)
class Verdict:
    """Graph-level distinguishability outcome; ``at_round`` present iff distinguished."""

    distinguished: bool
    at_round: Optional[int]

    def __post_init__(self):
        assert (self.at_round is not None) == self.distinguished

    def to_json(self, pair: Optional[tuple[str, str]] = None) -> dict:
        out: dict = {}
        if pair is not None:
            out["pair"] = list(pair)
        out["distinguished"] = self.distinguished
        out["round"] = self.at_round
        return out


def _check_rounds(max_rounds: Optional[int]) -> None:
    if max_rounds is not None and max_rounds < 0:
        raise ValueError(f"max_rounds must be nonnegative, got {max_rounds}")


def _first_seen_ids(values: Sequence) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(x, len(ids)) for x in values]


def graph_verdict(a: Coloring, b: Coloring) -> Verdict:
    """Compare per-round color multisets; distinguished at the first differing round."""
    rounds = max(len(a.history), len(b.history))
    for d in range(rounds):
        if sorted(a.colors_at(d)) != sorted(b.colors_at(d)):
            return Verdict(True, d)
    return Verdict(False, None)


def vertices_equivalent(a: Coloring, b: Coloring, v: int, w: int, d: int = -1) -> bool:
    """Vertex-pair verdict under the shared color ids (d=-1: final colors)."""
    if d < 0:
        return a.final[v] == b.final[w]
    return a.colors_at(d)[v] == b.colors_at(d)[w]


def _split_colorings(g: Graph, h: Graph, history: list, cut: int) -> tuple[Coloring, Coloring]:
    """Cut each round's joint colors at ``cut`` into the pair's colorings;
    stable iff the last round split no class."""
    stable = len(history) > 1 and len(set(history[-1])) == len(set(history[-2]))
    return (
        Coloring(g.id, tuple(tuple(c[:cut]) for c in history), stable),
        Coloring(h.id, tuple(tuple(c[cut:]) for c in history), stable),
    )


def wl_refine(
    g: Graph,
    h: Graph,
    init_g: Optional[Sequence] = None,
    init_h: Optional[Sequence] = None,
    max_rounds: Optional[int] = None,
) -> tuple[Coloring, Coloring]:
    """Joint 1-dimensional refinement from the given (default: label) initial colors.

    Stops at joint stability: a round that identifies no new vertex pair, or
    after ``max_rounds`` rounds (default g.n + h.n).
    """
    _check_rounds(max_rounds)
    if init_g is None:
        init_g = g.labels
    if init_h is None:
        init_h = h.labels
    if len(init_g) != g.n or len(init_h) != h.n:
        raise ValueError("initial labels must cover all vertices")
    adjacency = g.adjacency + tuple(
        tuple(u + g.n for u in nbrs) for nbrs in h.adjacency
    )
    history = [_first_seen_ids([*init_g, *init_h])]
    limit = g.n + h.n if max_rounds is None else max_rounds
    history += islice(refine(history[0], neighbour_signatures(adjacency)), limit)
    return _split_colorings(g, h, history, g.n)


def f_wl(
    g: Graph,
    h: Graph,
    patterns: Sequence[RootedPattern],
    max_rounds: Optional[int] = None,
) -> tuple[Coloring, Coloring, Verdict]:
    """Refinement whose initial colors carry the label plus one rooted hom count
    per pattern. An empty pattern set reproduces :func:`wl_refine` exactly."""
    _check_rounds(max_rounds)
    a, b = wl_refine(g, h, _hom_init(g, patterns), _hom_init(h, patterns), max_rounds)
    return a, b, graph_verdict(a, b)


def _hom_init(g: Graph, patterns: Sequence[RootedPattern]) -> list:
    vectors = rooted_counts(patterns, g)
    return [(g.labels[v],) + tuple(vec[v] for vec in vectors) for v in range(g.n)]


# --- folklore k-WL -----------------------------------------------------------


def _isotp(g: Graph, tup: tuple[int, ...]):
    """Isomorphism type of a tuple: labels plus equality and adjacency patterns."""
    k = len(tup)
    labels = tuple(g.labels[v] for v in tup)
    eq = tuple(tup[i] == tup[j] for i in range(k) for j in range(i + 1, k))
    adj = tuple(
        (g.adj_masks[tup[i]] >> tup[j]) & 1 for i in range(k) for j in range(i + 1, k)
    )
    return labels, eq, adj


def _tuple_signatures(grf: Graph, k: int, tuples: list, base: int):
    """Signatures for :func:`refine` over the k-tuples of one graph, numbered
    from ``base`` in mixed radix grf.n, so substituting vertex w at position p
    moves a tuple's index by (w - t[p]) * n^(k-1-p) and the colors of all n
    substitutions are one strided slice."""
    n = grf.n
    strides = [(p, n ** (k - 1 - p)) for p in range(k - 1, -1, -1)]
    if k == 1:
        pair_types = [[_isotp(grf, (v, w)) for w in range(n)] for v in range(n)]

    def signatures(colors):
        for idx, t in enumerate(tuples, base):
            columns = [colors[idx - t[p] * s: idx + (n - t[p]) * s: s] for p, s in strides]
            if k == 1:
                columns.insert(0, pair_types[t[0]])
            yield colors[idx], tuple(sorted(zip(*columns)))

    return signatures


def k_wl_trace(
    g: Graph, h: Graph, k: int, max_rounds: Optional[int] = None
) -> tuple[Coloring, Coloring, Verdict]:
    """Folklore k-dimensional refinement of the pair with full round history,
    one color per k-tuple in ``itertools.product`` order.

    Update: a tuple's new color is the rank of its old color paired with the
    multiset, over all vertices w, of the position-wise substituted tuple
    colors (positions k, k-1, ..., 1), prefixed for k=1 by the isomorphism
    type of (v, w).
    Stops at the first round whose color multisets differ, at joint
    stability, or after ``max_rounds`` rounds.
    """
    if k not in (1, 2, 3):
        raise (SizeGuardError if k > 3 else ValueError)(f"k must be 1, 2 or 3, got {k}")
    _check_rounds(max_rounds)
    entries = g.n ** (k + 1) + h.n ** (k + 1)
    if entries > KWL_ENTRY_GUARD:
        raise SizeGuardError(
            f"a {k}-WL round needs {entries} signature entries, above {KWL_ENTRY_GUARD}"
        )

    tuples_g = list(product(range(g.n), repeat=k))
    tuples_h = list(product(range(h.n), repeat=k))
    ng = len(tuples_g)
    sig_g = _tuple_signatures(g, k, tuples_g, 0)
    sig_h = _tuple_signatures(h, k, tuples_h, ng)
    init = _first_seen_ids([_isotp(g, t) for t in tuples_g] + [_isotp(h, t) for t in tuples_h])
    rounds = refine(init, lambda colors: [*sig_g(colors), *sig_h(colors)])
    limit = ng + len(tuples_h) if max_rounds is None else max_rounds

    history = []
    verdict = Verdict(False, None)
    for d, colors in enumerate(chain([init], islice(rounds, limit))):
        history.append(colors)
        if sorted(colors[:ng]) != sorted(colors[ng:]):
            verdict = Verdict(True, d)
            break
    return (*_split_colorings(g, h, history, ng), verdict)


def k_wl(g: Graph, h: Graph, k: int, max_rounds: Optional[int] = None) -> Verdict:
    """Folklore k-dimensional refinement verdict for the pair (k in {1,2,3})."""
    return k_wl_trace(g, h, k, max_rounds)[2]


def distinguishability_matrix(
    graphs: Sequence[Graph], patterns: Sequence[RootedPattern]
) -> dict[tuple[str, str], Verdict]:
    """All-pairs hom-augmented refinement verdicts; each pair is refined on
    its own, so results are order-independent."""
    out: dict[tuple[str, str], Verdict] = {}
    for i, a in enumerate(graphs):
        for b in graphs[i:]:
            if a.id == b.id and a is b:
                verdict = Verdict(False, None)
            else:
                _, _, verdict = f_wl(a, b, patterns)
            out[(a.id, b.id)] = verdict
            out[(b.id, a.id)] = verdict
    return out
