"""Checkers shared by several test modules."""

from homcount.algebra import TreeDecomposition
from homcount.graphs import Graph


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
