"""The counting DP on int64 numpy arrays, for large graphs and batches of graphs.

Runs the same plan as the dict kernel, the steps of ``counting._dp_plan``, on
a batch of m graphs at once, with every table held as int64 key/count arrays,
and returns each graph's per-anchor counts. A connected pattern's rooted
counts are local, so the batch acts as the disjoint union of its graphs: each
graph is a block, and an entry whose bag images lie in block b with local ids
v_j is keyed ``b + m * sum_j v_j * R**j`` for R the batch's largest vertex
count. No entry spans two blocks: a vertex introduced next to a bag vertex is
its neighbour, and one introduced free ranges over its key's own block, whose
first free introduce comes from a leaf entry per block. A single graph is the
batch m = 1, keyed in mixed radix n. ``counting._batches`` runs a pattern here
only on batches where its counts provably fit in int64 and its dense arrays
(the adjacency table and every forget's sum) within ``counting.DENSE_LIMIT``,
and its docstring gives the bounds; ``counting`` imports this module, and
numpy with it, only then.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from homcount.graphs import Graph

# Introduce output entries materialised at a time. Whole tables cost memory:
# C7 on a 1000-vertex graph of average degree 6 builds a 4.2M-entry introduce
# table, and rooted C3 to C7 there peaked at 305 MB unchunked against 82 MB.
CHUNK = 1 << 16


class Blocks:
    """A batch of graphs as one vertex array of m blocks of R slots each:
    vertex v of graph b sits at ``b * R + v``, and the slots past a graph's
    vertex count are isolated and unlabelled. Built once per batch and shared
    by every plan run on it."""

    def __init__(self, graphs: Sequence[Graph]):
        self.sizes = [g.n for g in graphs]
        self.m = m = len(graphs)
        self.R = R = max(self.sizes)
        pad = [()] * R
        adjacency = [nbrs for g in graphs for nbrs in chain(g.adjacency, pad[g.n:])]
        self.degree = np.fromiter(map(len, adjacency), np.int64, m * R)
        self.first_nbr = np.zeros(m * R + 1, np.int64)
        np.cumsum(self.degree, out=self.first_nbr[1:])
        edges = int(self.first_nbr[-1])
        self.nbr_local = np.fromiter(chain.from_iterable(adjacency), np.int64, edges)
        self.labels = np.fromiter(chain.from_iterable(
            chain(g.labels, [-1] * (R - g.n)) for g in graphs), np.int64, m * R)
        owner = np.repeat(np.arange(m * R, dtype=np.int64), self.degree)
        self.nbr_label = self.labels[owner - owner % R + self.nbr_local]
        self.adjacent = np.zeros(m * R * R, bool)  # adjacent[(b * R + u) * R + v]
        self.adjacent[owner * R + self.nbr_local] = True

    def labelled(self, label: int):
        """Per block, the first index and the number of its vertices with
        ``label``, and those vertices' local ids in block order."""
        where = np.flatnonzero(self.labels == label)
        first = np.searchsorted(where, np.arange(self.m + 1) * self.R)
        return first, np.diff(first), where % self.R


def _concat(chunks):
    parts = list(chunks)
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return np.concatenate([k for k, _ in parts]), np.concatenate([c for _, c in parts])


def run_dp(plan, blocks: Blocks) -> list[tuple[int, ...]]:
    """Execute ``plan`` (a ``counting._DpPlan``) on every graph of ``blocks``
    (largest vertex count >= 1).

    Returns each graph's counts of the pattern at every anchor as Python
    ints, in batch order. A table is an iterable of (keys, counts) chunks
    with distinct keys and positive counts. Introduce yields chunks of at
    most about ``CHUNK`` entries as its consumer asks for them, so an
    introduce followed by a forget never holds its whole table. Forget and
    join materialise theirs. With m = 1 no step computes a block.
    """
    steps = plan.steps
    m, R = blocks.m, blocks.R
    pows = [m * R**j for j in range(plan.largest_bag + 1)]
    adjacent = blocks.adjacent

    def introduce(chunks, step):
        p = pows[step.pos]
        pn = p * R
        priors = step.prior_positions
        if priors:
            first, fan_of, targets = blocks.first_nbr, blocks.degree, blocks.nbr_local
        else:
            first, fan_of, targets = blocks.labelled(step.label)
        for keys, counts in chunks:
            block = keys % m if m > 1 else None
            src = block
            if priors:
                src = keys // pows[priors[0]] % R
                if block is not None:
                    src += block * R
            fan = np.full(len(keys), fan_of[0], np.int64) if src is None else fan_of[src]
            ends = np.cumsum(fan)
            lo = 0
            while lo < len(keys):
                base = int(ends[lo - 1]) if lo else 0
                hi = max(lo + 1, int(np.searchsorted(ends, base + CHUNK, "right")))
                d = fan[lo:hi]
                row = np.repeat(np.arange(hi - lo), d)
                within = np.arange(len(row)) - np.repeat(ends[lo:hi] - d - base, d)
                idx = within if src is None else np.repeat(first[src[lo:hi]], d) + within
                cand = targets[idx]
                part = keys[lo:hi]
                if priors:
                    keep = blocks.nbr_label[idx] == step.label
                    for q in priors[1:]:
                        via = part // pows[q] % R
                        if block is not None:
                            via += block[lo:hi] * R
                        keep &= adjacent[(via * R)[row] + cand]
                    row, cand = row[keep], cand[keep]
                spread = part // p * pn + part % p
                yield spread[row] + cand * p, counts[lo:hi][row]
                lo = hi

    def forget(chunks, step):
        p = pows[step.pos]
        pn = p * R
        acc = np.zeros(pows[step.size], np.int64)
        for keys, counts in chunks:
            np.add.at(acc, keys % p + keys // pn * p, counts)
        keys = np.flatnonzero(acc)
        return [(keys, acc[keys])]

    tables: list = [None] * len(steps)
    for i, step in enumerate(steps):
        if step.kind == "leaf":
            tables[i] = [(np.arange(m, dtype=np.int64), np.ones(m, np.int64))]
        elif step.kind == "introduce":
            (ci,) = step.children
            tables[i] = introduce(tables[ci], step)
            tables[ci] = None
        elif step.kind == "forget":
            (ci,) = step.children
            tables[i] = forget(tables[ci], step)
            tables[ci] = None
        else:
            a, b = step.children
            ka, ca = _concat(tables[a])
            kb, cb = _concat(tables[b])
            tables[a] = tables[b] = None
            keys, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
            tables[i] = [(keys, ca[ia] * cb[ib])]
    keys, counts = _concat(tables[-1])
    anchor_counts = np.zeros(m * R, np.int64)  # anchor_counts[b + m * v]
    anchor_counts[keys] = counts
    per_block = anchor_counts.reshape(R, m).T.tolist()
    return [tuple(row[:n]) for row, n in zip(per_block, blocks.sizes)]
