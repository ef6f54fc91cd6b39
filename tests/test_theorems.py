"""Theorem checks that tie the refinement engine to the counting engine.

Dell, Grohe and Rattan (*Lovász meets Weisfeiler and Leman*, ICALP 2018): two
graphs are folklore k-WL equivalent iff every graph of treewidth at most k has
the same homomorphism count into both. So wherever ``k_wl`` reports a pair as
not distinguished, every connected pattern of treewidth at most k must have
equal unrooted counts on the two sides. The converse needs patterns of every
size, so it is not asserted here.
"""

import pytest

from homcount.algebra import treewidth
from homcount.counting import hom_count_dp
from homcount.families import (
    cfi_pair,
    clique_graph,
    clique_pattern,
    cycle_pattern,
    cycle_union_pair,
    delayed_triangle_pair,
    wl_equivalent_triangle_pair,
)
from homcount.graphs import Graph, is_connected, normalize_edges
from homcount.refinement import k_wl

nx = pytest.importorskip("networkx")

PAIRS = {
    "cfi-K3": lambda: cfi_pair(clique_pattern(3)),
    "cfi-K4": lambda: cfi_pair(clique_pattern(4)),
    "cfi-C5": lambda: cfi_pair(cycle_pattern(5)),
    "cycle-union-4": lambda: cycle_union_pair(4),
    "fig1": wl_equivalent_triangle_pair,
    "fig2": delayed_triangle_pair,
}


def atlas_patterns(max_n: int) -> list[tuple[int, Graph]]:
    """(treewidth, graph) for every connected atlas graph on 1 to ``max_n`` vertices."""
    out = []
    for i, a in enumerate(nx.graph_atlas_g()):
        n = a.number_of_nodes()
        if not 1 <= n <= max_n:
            continue
        g = Graph(f"atlas{i}", n, (0,) * n, normalize_edges(a.edges()))
        if is_connected(g):
            out.append((treewidth(g)[0], g))
    return out


PATTERNS = atlas_patterns(5)


def test_atlas_patterns_cover_every_connected_graph_up_to_5_vertices():
    # 1 + 1 + 2 + 6 + 21 connected graphs on 1 to 5 vertices
    assert len(PATTERNS) == 31
    assert {tw for tw, _ in PATTERNS} == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_k_wl_equivalence_implies_equal_low_treewidth_counts(name, k):
    pair = PAIRS[name]()
    if k_wl(pair.g, pair.h, k).distinguished:
        return
    for tw, p in PATTERNS:
        if tw <= k:
            assert hom_count_dp(p, pair.g) == hom_count_dp(p, pair.h), (p.edges, tw)


def test_cfi_k4_is_a_2_wl_equivalent_pair():
    # CFI over K4 (treewidth 3) defeats 2-WL, and K4 itself tells the sides apart
    pair = cfi_pair(clique_pattern(4))
    assert not k_wl(pair.g, pair.h, 2).distinguished
    assert hom_count_dp(clique_graph(4), pair.g) != hom_count_dp(clique_graph(4), pair.h)
