"""Color-refinement engines: plain 1-round-based refinement, the hom-count
augmented variant, and folklore k-dimensional refinement for k in {1,2,3}.

All three refine the disjoint union of the two graphs, vertices and k-tuples
alike, through the one round loop :func:`homcount.graphs.refine_cells`, so
each round ranks the signatures of both graphs together and color ids are
comparable across them. Ids are exact: two items share a round's id iff they
shared the previous round's id and their signatures are equal. k-WL signs one
cell at a time and skips singleton cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product
from operator import or_
from typing import Optional, Sequence

from homcount.algebra import SizeGuardError
from homcount.counting import hom_vector
from homcount.graphs import Graph, RootedPattern, cells_of, neighbour_signer, refine_cells

# Cap on the substituted-tuple entries one k-WL round signs, g.n^(k+1) +
# h.n^(k+1). A round signs one cell at a time and keeps only that cell's
# distinct signatures, so memory stays far below the entry count: process
# peaks measured at most 70 MB (5.65M entries at k=3, G(41, 1/2) against a
# shuffled copy; 5.85M at k=2: 36 MB; CFI(K5) at k=3: 47 MB).
KWL_ENTRY_GUARD = 6_000_000


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
    rounds = refine_cells(neighbour_signer(adjacency), cells_of(history[0]), adjacency)
    history += (colors for colors, _ in islice(rounds, limit))
    return _split_colorings(g, h, history, g.n)


def _hom_colors(g: Graph, patterns: Sequence[RootedPattern]) -> list:
    """F-WL's initial colours: each vertex's label and its rooted count of each pattern."""
    return list(zip(g.labels, *hom_vector(patterns, g)))


def f_wl(
    g: Graph,
    h: Graph,
    patterns: Sequence[RootedPattern],
    max_rounds: Optional[int] = None,
) -> tuple[Coloring, Coloring, Verdict]:
    """Refinement whose initial colors carry the label plus one rooted hom count
    per pattern, from one :func:`homcount.counting.hom_vector` call per graph.
    An empty pattern set reproduces :func:`wl_refine` exactly."""
    _check_rounds(max_rounds)
    a, b = wl_refine(g, h, _hom_colors(g, patterns), _hom_colors(h, patterns), max_rounds)
    return a, b, graph_verdict(a, b)


# --- folklore k-WL -----------------------------------------------------------


def _initial_types(g: Graph, k: int, tuples: list) -> list:
    """Isomorphism type of each k-tuple, equal across graphs iff the tuples'
    labels, equalities and adjacencies agree: the label (k = 1), the pair type
    ``(l_v << 34) | (l_w << 2) | (v == w) << 1 | adj`` (k = 2; labels are below
    2^32, so it is injective), or the pair types of (a, b), (b, c) and (c, a)
    (k = 3)."""
    if k == 1:
        return list(g.labels)
    n = g.n
    table = [(lv << 34) | (lw << 2) | (v == w) << 1 | (mask >> w & 1)
             for v, (lv, mask) in enumerate(zip(g.labels, g.adj_masks))
             for w, lw in enumerate(g.labels)]
    if k == 2:
        return table
    return [(table[a * n + b], table[b * n + c], table[c * n + a]) for a, b, c in tuples]


def _tuple_signer(g: Graph, h: Graph, k: int, tuples: list):
    """The :func:`homcount.graphs.refine_cells` signer over ``tuples``, the
    k-tuples of g and then of h. Within a graph of n vertices the numbering
    is mixed radix n, so substituting vertex w at position p moves a tuple's
    index by (w - t[p]) * n^(k-1-p) and the colors of all n substitutions are
    one strided slice.

    A signature is the sorted multiset of a tuple's n substitutions, each one
    flat int: the colors (c_0, ..., c_{k-1}) of the substituted tuples as the
    bit fields sum_p c_p << (p * bits), bits = max(colors).bit_length(), with
    the pair type ``(l_w << 2) | (v == w) << 1 | adj`` of (v, w) above c_0 for
    k = 1. The cell fixes the own color, and with it v's label. Every field is
    below 2^bits, so each int is injective and orders substitutions exactly as
    the tuple (pair type, c_{k-1}, ..., c_0) does: the ranks are those of that
    nested-tuple form. ``|`` allocates no carry digit, so an int below 2^60
    takes 32 bytes where a sum would take 48."""
    ng = g.n ** k
    if k == 1:
        low = [lab << 2 for lab in g.labels + h.labels]

        def signer(colors):
            bits = max(colors, default=0).bit_length()
            typed = [x << bits | c for x, c in zip(low, colors)]

            def sign(cell):
                for v in cell:
                    grf, base = (g, 0) if v < ng else (h, ng)
                    row = typed[base: base + grf.n]
                    row[v - base] |= 2 << bits
                    for w in grf.adjacency[v - base]:
                        row[w] |= 1 << bits
                    yield tuple(sorted(row))

            return sign

        return signer
    shapes = [(x.n, [x.n ** (k - 1 - p) for p in range(k)]) for x in (g, h)]

    def signer(colors):
        bits = max(colors, default=0).bit_length()
        shifted = [colors] + [[c << bits * p for c in colors] for p in range(1, k)]

        def sign(cell):
            for idx in cell:
                n, strides = shapes[idx >= ng]
                subs = None
                for col, tp, s in zip(shifted, tuples[idx], strides):
                    sub = col[idx - tp * s: idx + (n - tp) * s: s]
                    subs = sub if subs is None else map(or_, subs, sub)
                yield tuple(sorted(subs))

        return sign

    return signer


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
    init = _first_seen_ids(_initial_types(g, k, tuples_g) + _initial_types(h, k, tuples_h))
    rounds = refine_cells(_tuple_signer(g, h, k, tuples_g + tuples_h), cells_of(init))
    limit = len(init) if max_rounds is None else max_rounds

    history = []
    verdict = Verdict(False, None)
    for d, colors in enumerate(chain([init], (c for c, _ in islice(rounds, limit)))):
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
    """All-pairs hom-augmented refinement verdicts keyed by graph id. Each graph
    is counted once, in order, and each pair refined on its own, so results are
    order-independent; a lone graph is not counted. Ids must be distinct (ValueError)."""
    out: dict[tuple[str, str], Verdict] = {}
    for a in graphs:
        if (a.id, a.id) in out:
            raise ValueError(f"duplicate graph id {a.id!r}")
        out[(a.id, a.id)] = Verdict(False, None)
    colors = [_hom_colors(g, patterns) for g in graphs] if len(graphs) > 1 else []
    for i, a in enumerate(graphs):
        for j, b in enumerate(graphs[i + 1:], start=i + 1):
            verdict = graph_verdict(*wl_refine(a, b, colors[i], colors[j]))
            out[(a.id, b.id)] = out[(b.id, a.id)] = verdict
    return out
