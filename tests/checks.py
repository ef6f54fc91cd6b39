"""Checkers and references shared by several test modules."""

import math
from functools import reduce
from operator import add
from typing import Callable, Iterator, Optional, Sequence, TextIO

from homcount.algebra import TreeDecomposition
from homcount.graphs import Graph, LabelAlphabet
from homcount.pipeline import FeatureTable, _csv_cell


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


def column_stats(rows, width):
    """Reference log-z statistics, one log1p per cell: sample mean/stddev of
    log1p(count) per column, skipping flagged rows."""
    xs: list[list[float]] = [[] for _ in range(width)]
    for _, _, _, counts in rows:
        if counts is None:
            continue
        for j, c in enumerate(counts):
            xs[j].append(math.log1p(c))
    stats = []
    # left-to-right sums: the builtin sum compensates from Python 3.12 on, so its floats differ
    for vals in xs:
        n = len(vals)
        constant = len(set(vals)) <= 1
        mean = reduce(add, vals, 0.0) / n if n else 0.0
        if constant or n <= 1:
            stats.append((mean, 0.0, True))
            continue
        var = reduce(add, ((x - mean) ** 2 for x in vals), 0.0) / (n - 1)
        stats.append((mean, math.sqrt(var), False))
    return stats


def write_csv(table: FeatureTable, out: TextIO, alphabet: Optional[LabelAlphabet] = None):
    """Reference feature CSV writer, formatting every cell of every row."""
    out.write(f"# mode: {table.mode}\n")
    out.write(f"# normalize: {table.normalize}\n")
    if table.transforms is not None:
        out.write("# transform: z(log(1+count)) per column, dataset-global stats\n")
        for t in table.transforms:
            out.write(
                f"# column {t.column}: mean={t.mean!r} std={t.std!r} "
                f"constant={'true' if t.constant else 'false'}"
                f"{'' if t.exact else ' exact=false'}\n"
            )
    header = ["graph_id", "vertex_id", "label"] + table.column_names
    out.write(",".join(map(_csv_cell, header)) + "\n")
    for gid, v, label, counts in table.rows:
        ext = alphabet.label_of(label) if alphabet is not None else label
        cells = [_csv_cell(str(gid)), str(v), _csv_cell(str(ext))]
        if counts is None:
            cells += ["NA"] * len(table.pattern_ids)
        elif table.transforms is None:
            cells += [str(c) for c in counts]
        else:
            for c, t in zip(counts, table.transforms):
                if t.constant:
                    cells.append("0.0")
                else:
                    cells.append(repr((math.log1p(c) - t.mean) / t.std))
        out.write(",".join(cells) + "\n")
