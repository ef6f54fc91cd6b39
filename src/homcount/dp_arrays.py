"""The counting DP on int64 numpy arrays, for large graphs.

Runs the same rooted nice-decomposition plan as the dict kernel in
:mod:`homcount.counting`, on the same mixed-radix keys, with every table held
as int64 key/count arrays, and returns the same per-anchor counts. Exact only
when the int64 bound checked by ``counting._use_arrays`` holds, which also
keeps ``n**2`` and ``n**(b-1)`` for the largest bag size b within
``counting.DENSE_LIMIT``, so the adjacency table and every forget's sum are
dense arrays. ``counting`` imports this module, and with it numpy, only for
the calls that pass that check.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from homcount.graphs import Graph

# Introduce output entries materialised at a time. Whole tables cost memory:
# C7 on a 1000-vertex graph of average degree 6 builds a 4.2M-entry introduce
# table, and rooted C3 to C7 there peaked at 305 MB unchunked against 82 MB.
CHUNK = 1 << 16


def _concat(chunks):
    parts = list(chunks)
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return np.concatenate([k for k, _ in parts]), np.concatenate([c for _, c in parts])


def run_dp(plan, g: Graph) -> tuple[int, ...]:
    """Execute ``plan`` (a ``counting._DpPlan``) on ``g`` (``g.n`` >= 1).

    Returns the pattern's count at every anchor as Python ints. A
    table is an iterable of (keys, counts) chunks with distinct keys and
    positive counts. Introduce yields chunks of at most about ``CHUNK``
    entries as its consumer asks for them, so an introduce followed by a
    forget never holds its whole table. Forget and join materialise theirs.
    """
    steps = plan.steps
    n = g.n
    pows = [n**j for j in range(plan.largest_bag + 1)]
    degree = np.fromiter(map(len, g.adjacency), np.int64, n)
    first_nbr = np.zeros(n + 1, np.int64)
    np.cumsum(degree, out=first_nbr[1:])
    nbrs = np.fromiter(chain.from_iterable(g.adjacency), np.int64, int(first_nbr[-1]))
    labels = np.asarray(g.labels, np.int64)
    adjacent = np.zeros(n * n, bool)  # adjacent[u * n + v]
    adjacent[np.repeat(np.arange(n, dtype=np.int64), degree) * n + nbrs] = True

    def introduce(chunks, step):
        p = pows[step.pos]
        pn = p * n
        priors = step.prior_positions
        labelled = np.flatnonzero(labels == step.label)
        for keys, counts in chunks:
            if priors:
                via = keys // pows[priors[0]] % n
                fan = degree[via]
            else:
                fan = np.full(len(keys), len(labelled), np.int64)
            ends = np.cumsum(fan)
            lo = 0
            while lo < len(keys):
                base = int(ends[lo - 1]) if lo else 0
                hi = max(lo + 1, int(np.searchsorted(ends, base + CHUNK, "right")))
                d = fan[lo:hi]
                row = np.repeat(np.arange(hi - lo), d)
                within = np.arange(len(row)) - np.repeat(ends[lo:hi] - d - base, d)
                part = keys[lo:hi]
                if priors:
                    cand = nbrs[np.repeat(first_nbr[via[lo:hi]], d) + within]
                    keep = labels[cand] == step.label
                    for q in priors[1:]:
                        keep &= adjacent[(part // pows[q] % n * n)[row] + cand]
                    row, cand = row[keep], cand[keep]
                else:
                    cand = labelled[within]
                spread = part // p * pn + part % p
                yield spread[row] + cand * p, counts[lo:hi][row]
                lo = hi

    def forget(chunks, step):
        p = pows[step.pos]
        pn = p * n
        acc = np.zeros(pows[step.size], np.int64)
        for keys, counts in chunks:
            np.add.at(acc, keys % p + keys // pn * p, counts)
        keys = np.flatnonzero(acc)
        return [(keys, acc[keys])]

    tables: list = [None] * len(steps)
    for i, step in enumerate(steps):
        if step.kind == "leaf":
            tables[i] = [(np.zeros(1, np.int64), np.ones(1, np.int64))]
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
    anchor_counts = np.zeros(n, np.int64)
    anchor_counts[keys] = counts
    return tuple(anchor_counts.tolist())
