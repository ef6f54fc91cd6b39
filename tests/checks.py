"""Checkers and references shared by several test modules."""

from typing import Callable, Iterator, Sequence

from homcount.algebra import TreeDecomposition
from homcount.graphs import Graph


def refine(
    colors: Sequence[int], signatures: Callable[[Sequence[int]], list]
) -> Iterator[list[int]]:
    """Reference colour refinement over arbitrary items, signing every item
    every round.

    ``signatures(colors)`` returns one hashable, comparable signature per item
    that starts with the item's own colour. Each round recolours every item by
    the rank of its signature among the round's sorted distinct signatures and
    yields the new colours; the generator stops after the first round that
    splits no class.
    """
    classes = len(set(colors))
    while True:
        sigs = signatures(colors)
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        split = len(rank) > classes
        classes = len(rank)
        del sigs, rank  # only one round's signatures are ever alive
        yield colors
        if not split:
            return


def check_decomposition(g: Graph, td: TreeDecomposition):
    """Independent validity checker for tree decompositions."""
    covered = set()
    for b in td.bags:
        covered |= b
    assert covered == set(range(g.n)), "bags must cover all vertices"
    # every edge inside some bag
    for u, v in g.edges:
        assert any(u in b and v in b for b in td.bags), f"edge ({u},{v}) uncovered"
    # occurrence sets connected: for each vertex, nodes holding it form a subtree
    for v in range(g.n):
        holders = [i for i, b in enumerate(td.bags) if v in b]
        if len(holders) <= 1:
            continue
        hset = set(holders)
        seen = {holders[0]}
        frontier = [holders[0]]
        while frontier:
            x = frontier.pop()
            nbrs = [td.parent[x]] + [i for i, p in enumerate(td.parent) if p == x]
            for y in nbrs:
                if y in hset and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert seen == hset, f"occurrence set of {v} is disconnected"
    # single tree
    assert td.parent.count(-1) == 1
