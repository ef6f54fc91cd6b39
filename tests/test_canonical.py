"""Canonical codes and vertex refinement against the plain round loop.

The reference search below refines every node from scratch with
``checks.refine`` over all vertices, rebuckets its colours into cells and
encodes a leaf bit by bit. ``canonical_code`` and ``wl_refine`` must give
the same bytes and the same colour histories.
"""

import hashlib
import itertools
import random
from itertools import islice
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcount.families import (
    cfi_pair,
    clique_pattern,
    cycle_hierarchy_pair,
    cycle_pattern,
    cycle_union_pair,
    delayed_triangle_pair,
    disjoint_cycles,
    wl_equivalent_triangle_pair,
)
from homcount.graphs import Graph, canonical_code, normalize_edges
from homcount.refinement import wl_refine
from homcount.trees import EnumerationBudget, enumerate_pattern_trees, flatten

from checks import refine


# --- reference: refine every node from scratch -------------------------------

def neighbour_signatures(adjacency):
    return lambda colors: [
        (colors[v], tuple(sorted(colors[u] for u in nbrs)))
        for v, nbrs in enumerate(adjacency)
    ]


def _cells(colors):
    buckets = {}
    for v, c in enumerate(colors):
        buckets.setdefault(c, []).append(v)
    return [buckets[c] for c in sorted(buckets)]


def _encode_by_order(g, order, root):
    adj = bytearray((g.n * (g.n - 1) // 2 + 7) // 8)
    k = 0
    for i in range(g.n):
        mask = g.adj_masks[order[i]]
        for j in range(i + 1, g.n):
            if mask >> order[j] & 1:
                adj[k >> 3] |= 1 << (k & 7)
            k += 1
    lab = b"".join(g.labels[v].to_bytes(4, "big") for v in order)
    head = g.n.to_bytes(4, "big")
    if root is not None:
        head += order.index(root).to_bytes(4, "big")
    return head + lab + bytes(adj)


def _are_twins(g, u, v):
    if g.labels[u] != g.labels[v]:
        return False
    return g.adj_masks[u] & ~(1 << v) == g.adj_masks[v] & ~(1 << u)


def _canonical_search(g, colors, best, root):
    for colors in refine(colors, neighbour_signatures(g.adjacency)):
        pass
    cells = _cells(colors)
    target = next((c for c in cells if len(c) > 1), None)
    if target is None:
        code = _encode_by_order(g, [v for cell in cells for v in cell], root)
        if best[0] is None or code < best[0]:
            best[0] = code
        return
    tried = []
    for v in target:
        if any(_are_twins(g, v, u) for u in tried):
            continue
        tried.append(v)
        branch = list(colors)
        branch[v] = -1
        _canonical_search(g, branch, best, root)


def reference_code(g: Graph, root: Optional[int] = None) -> bytes:
    if g.n == 0:
        return (0).to_bytes(4, "big")
    init = list(g.labels)
    if root is not None:
        m = max(init) + 1
        init = [c + m for c in init]
        init[root] = 0
    best = [None]
    _canonical_search(g, init, best, root)
    return (b"R" if root is not None else b"U") + best[0]


def reference_history(g, h, init_g, init_h, max_rounds=None):
    adjacency = g.adjacency + tuple(tuple(u + g.n for u in nbrs) for nbrs in h.adjacency)
    ids = {}
    first = [ids.setdefault(x, len(ids)) for x in [*init_g, *init_h]]
    limit = g.n + h.n if max_rounds is None else max_rounds
    return [first, *islice(refine(first, neighbour_signatures(adjacency)), limit)]


# --- inputs -----------------------------------------------------------------

def circulant(n, k):
    """C(n; 1..k): vertex i adjacent to i +- 1, ..., i +- k (mod n)."""
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in range(1, k + 1)}
    return Graph(f"circ{n}-{k}", n, (0,) * n, normalize_edges(edges))


PAIRS = [
    cycle_union_pair(3), cycle_union_pair(4), cfi_pair(clique_pattern(4)),
    wl_equivalent_triangle_pair(), delayed_triangle_pair(), cycle_hierarchy_pair(4),
]

# Both searches prune only twins, so unions of identical cycles grow their
# trees exponentially: four copies of C5 (cycle-union side b at m = 3) take
# seconds to minutes, and three copies stand in for that side.
FIXED = [circulant(n, k) for n in range(5, 13) for k in range(1, (n - 1) // 2 + 1)]
FIXED += [g for pair in PAIRS[2:5] for g in (pair.g, pair.h)]
FIXED += [cycle_union_pair(3).g, disjoint_cycles("3xC5", 3, 5)]


@st.composite
def labelled_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    p = draw(st.sampled_from([0.2, 0.4, 0.6]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = [e for e in pairs if rng.random() < p]
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Graph("r", n, tuple(labels), normalize_edges(edges))


# --- tests ------------------------------------------------------------------

class TestCanonicalCodeMatchesReference:
    @given(labelled_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_labelled_graphs(self, g, data):
        root = data.draw(st.none() | st.integers(0, g.n - 1)) if g.n else None
        assert canonical_code(g, root) == reference_code(g, root)

    @pytest.mark.parametrize("g", FIXED, ids=lambda g: f"{g.id}-n{g.n}")
    def test_graphs_that_need_several_individualisations(self, g):
        assert canonical_code(g) == reference_code(g)
        for root in {0, g.n - 1}:
            assert canonical_code(g, root) == reference_code(g, root)

    def test_pattern_tree_codes_pinned(self):
        # codes of the {C3, C4} trees at the default budget, taken from the
        # reference search
        trees, truncated = enumerate_pattern_trees(
            [cycle_pattern(3), cycle_pattern(4)], EnumerationBudget()
        )
        assert (len(trees), truncated) == (2772, False)
        codes = sorted(canonical_code(flatten(t).graph, 0) for t in trees)
        digest = hashlib.sha256(b"".join(len(c).to_bytes(4, "big") + c for c in codes))
        assert digest.hexdigest() == (
            "806c3bf0e9896d4693898efeb04ad324c6f9d4382aa490214089df2a9d6c3d00"
        )


class TestVertexRefinementMatchesReference:
    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p.family}-{p.g.id}")
    @pytest.mark.parametrize("max_rounds", [None, 0, 1])
    def test_families(self, pair, max_rounds):
        a, b = wl_refine(pair.g, pair.h, max_rounds=max_rounds)
        expected = reference_history(pair.g, pair.h, pair.g.labels, pair.h.labels, max_rounds)
        assert [list(x + y) for x, y in zip(a.history, b.history)] == expected

    @given(labelled_graphs(max_n=9), labelled_graphs(max_n=9), st.data())
    @settings(max_examples=200, deadline=None)
    def test_tuple_initial_colours(self, g, h, data):
        # F-WL style inits: the label plus a few small counts per vertex
        def init(x):
            return [(lab, data.draw(st.integers(0, 2))) for lab in x.labels]

        init_g, init_h = init(g), init(h)
        max_rounds = data.draw(st.sampled_from([None, 0, 1, 2]))
        a, b = wl_refine(g, h, init_g, init_h, max_rounds)
        expected = reference_history(g, h, init_g, init_h, max_rounds)
        assert [list(x + y) for x, y in zip(a.history, b.history)] == expected

    def test_empty_pair(self):
        empty = Graph("e", 0, (), ())
        for max_rounds, rounds in ((None, 0), (1, 1)):
            a, b = wl_refine(empty, empty, max_rounds=max_rounds)
            expected = reference_history(empty, empty, (), (), max_rounds)
            assert [list(x + y) for x, y in zip(a.history, b.history)] == expected
            assert expected == [[]] * (rounds + 1)
