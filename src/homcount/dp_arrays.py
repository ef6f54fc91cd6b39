"""The counting DP on int64 numpy arrays, for large graphs and batches of graphs.

Runs the same plan as the dict kernel, the steps of ``counting._dp_plan``, on
a batch of m graphs at once, with each table held as int64 key/count arrays or
a pull's ``Dense`` rows, and returns its counts as one int64 array. A connected
pattern's rooted counts are local, so the batch acts as the disjoint union of
its graphs: each graph is a block, and an entry whose bag images lie in block
b with local ids v_j is keyed ``b + m * sum_j v_j * R**j`` for R the batch's
largest vertex count. No entry spans two blocks: a vertex introduced next to a
bag vertex is its neighbour, and one introduced free ranges over its key's own
block, whose first free introduce comes from a leaf entry per block. A single
graph is the batch m = 1, keyed in mixed radix n. An introduce whose next step
forgets one of its priors runs with that forget as one step, which pushes or
pulls. A batch's plans build each table of a shared step prefix once, held
only while a later run reads it (``Blocks.share``). ``counting._batches`` runs
a pattern here only on batches where its counts provably fit in int64 and its
dense arrays (the adjacency table, every forget's sum and a pull's tables)
within ``counting.DENSE_LIMIT``, and its docstring gives the bounds;
``counting`` imports this module, and numpy with it, only then.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from homcount.graphs import Graph

# Entries an introduce, or a pull's row sums or lookups, materialise at a time.
# Whole tables cost memory: C7 on a 1000-vertex graph of average degree 6 builds
# a 4.2M-entry introduce table; rooted C3 to C7 there peaked at 305 MB unchunked, 52 MB chunked.
CHUNK = 1 << 16

# A forget sorts below this share of its range m * R**size, else sums densely: random
# keys into 2**20 slots (2-core Xeon) took 2.0/4.4/11.5 ms sorted, 4.9/7.5/8.9 ms dense
# at shares 1/32, 1/16 and 1/8.
SPARSE_SHARE = 1 / 16

# A pair pulls if PULL_COST times its pull work is below its push work. Random
# graphs of 100 to 1000 vertices and average degree 2 to 10, and batches of 25
# to 50 graphs of 20 to 40 vertices and 3 labels, ran 534 pairs both ways
# (rooted C3 to C8, P4, P6, K4, bowtie), twice. On the 153 to 156 where either
# took over 5 ms, a pull work unit cost a median 0.094 push units (quartiles
# 0.03 and 0.15). Ratios 0.1 to 0.175 came within 0.7% of always taking the
# faster way; push alone took 2.8 times as long, pull alone 1.5 to 1.6 times.
PULL_COST = 0.1


class Dense(NamedTuple):
    """A table as a pull builds it: ``rows[b * R + c, rest]``, c the image at
    bag position q and rest the others' images in radix R, in bag order."""
    rows: np.ndarray
    q: int


class Blocks:
    """A batch of graphs as one vertex array of m blocks of R slots each:
    vertex v of graph b sits at ``b * R + v``, and the slots past a graph's
    vertex count are isolated and unlabelled. Built once per batch and shared
    by every plan run on it, with the tables those runs share (``share``)."""

    def __init__(self, graphs: Sequence[Graph]):
        self.shared: dict = {}  # step prefix -> its table, while a later run reads it
        self.readers: dict = {}  # step prefix -> runs still to read it
        self.m = m = len(graphs)
        self.R = R = max(g.n for g in graphs)
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
        self.nbr = owner - owner % R + self.nbr_local  # as vertices of the batch
        self.nbr_label = self.labels[self.nbr]
        self.adjacent = np.zeros(m * R * R, bool)  # adjacent[(b * R + u) * R + v]
        self.adjacent[owner * R + self.nbr_local] = True

    def share(self, plans) -> None:
        """Count, for ``plans`` to be run on these blocks in this order, the
        runs that read each table an earlier run built, keyed by
        ``steps[:i + 1]``, which with the batch fixes step i's table. A run
        walks down from its last step to the deepest tables built before, one
        per branch."""
        built: set = set()
        for plan in plans:
            steps, todo = plan.steps, [len(plan.steps) - 1]
            while todo:
                i = todo.pop()
                if steps[i].kind != "introduce" and steps[:i + 1] in built:
                    self.readers[steps[:i + 1]] = self.readers.get(steps[:i + 1], 0) + 1
                else:
                    todo += steps[i].children
            built.update(steps[:i + 1] for i in range(len(steps)))

    def keep(self, key, table):
        """Hold ``table``, built for step prefix ``key``, read-only while a later run reads it."""
        if self.readers.get(key):
            self.shared[key] = table
            for array in [table.rows] if isinstance(table, Dense) else chain.from_iterable(table):
                array.flags.writeable = False
        return table

    def take(self, key):
        """The held table for ``key``, let go after its last reader."""
        self.readers[key] -= 1
        return self.shared[key] if self.readers[key] else self.shared.pop(key)


def _concat(chunks):
    parts = list(chunks) or [(np.zeros(0, np.int64),) * 2]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _fan_out(first, fan):
    """Segment i as the ``fan[i]`` consecutive indices from ``first[i]``: each
    index's segment, the indices, and each segment's start among them."""
    starts = np.cumsum(fan) - fan
    seg = np.repeat(np.arange(len(fan)), fan)
    return seg, np.arange(len(seg)) - starts[seg] + first[seg], starts


def _fanned(first, fan, width=1):
    """``_fan_out`` in runs (lo, hi) of segments of at most ``CHUNK`` entries
    in all, an entry ``width`` wide, or one larger segment alone."""
    ends = np.cumsum(fan) * width
    lo = 0
    while lo < len(fan):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - fan[lo] * width + CHUNK, "right")))
        yield (lo, hi) + _fan_out(first[lo:hi], fan[lo:hi])
        lo = hi


def _summed(keys, counts):
    """Distinct ``keys`` (never negative) in order, each with its ``counts``' sum."""
    order = np.argsort(keys)
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    return keys[order[starts]], np.add.reduceat(counts[order], starts)


def _chunks(table, m: int, R: int):
    """``table`` as (keys, counts) chunks: a ``Dense`` one flattened."""
    if not isinstance(table, Dense):
        return table
    flat = table.rows.reshape(m, R, -1, R**table.q).transpose(2, 1, 3, 0).ravel()
    keys = np.flatnonzero(flat)
    return [(keys, flat[keys])]


def _pulls(push: int, work: float) -> bool:
    """Whether a pair pulls, given its push and pull work (``run_dp``)."""
    return PULL_COST * work < push


def run_dp(plan, blocks: Blocks) -> np.ndarray:
    """Execute ``plan`` (a ``counting._DpPlan``) on every graph of ``blocks``
    (largest vertex count >= 1).

    Returns an int64 array: per graph, in batch order, a row of its counts at
    R anchors, 0 past its vertices. A table, of distinct entries and positive
    counts, is an iterable of (keys, counts) chunks or a pull's ``Dense``
    output, which a forget, or a pull forgetting its c, reads as is and other
    steps flatten (``_chunks``). Introduce yields chunks of about ``CHUNK``
    entries as its consumer asks, so an introduce followed by a forget never
    holds its whole table. A forget sorts each chunk while its input stays below
    ``SPARSE_SHARE`` of its dense range, else sums densely; a partial sum is
    at most its entry, so ``counting._batches``' int64 bound still holds.
    ``blocks`` holds the tables a later run reads (``Blocks.share``),
    read-only: no step changes a table, so a held table serves every reader.
    """
    steps = plan.steps
    m, R = blocks.m, blocks.R
    pows = [m * R**j for j in range(plan.largest_bag + 1)]
    adjacent, degree, first_nbr, nbr_local, nbr = (
        blocks.adjacent, blocks.degree, blocks.first_nbr, blocks.nbr_local, blocks.nbr)

    def image(keys, q):  # each key's image at bag position q, as a vertex of the batch
        return keys // pows[q] % R + (keys % m * R if m > 1 else 0)

    def introduce(chunks, step):
        p = pows[step.pos]
        priors = step.prior_positions
        if priors:
            first, fan_of, targets = first_nbr, degree, nbr_local
        else:  # per block, where its vertices with the label start among all, and how many
            where = np.flatnonzero(blocks.labels == step.label)
            first = np.searchsorted(where, np.arange(m + 1) * R)
            fan_of, targets = np.diff(first), where % R
        for keys, counts in chunks:
            src = image(keys, priors[0]) if priors else keys % m
            for lo, hi, row, idx, _ in _fanned(first[src], fan_of[src]):
                cand = targets[idx]
                part = keys[lo:hi]
                if priors:
                    keep = blocks.nbr_label[idx] == step.label
                    for q in priors[1:]:
                        keep &= adjacent[image(part, q)[row] * R + cand]
                    row, cand = row[keep], cand[keep]
                spread = part // p * p * R + part % p
                yield spread[row] + cand * p, counts[lo:hi][row]

    def forget(table, step):
        p, size = pows[step.pos], step.size
        if isinstance(table, Dense) and size:  # sum along c's axis, or a digit of rest
            (rows, q), at_c = table, step.pos == table.q
            outer, inner = (m, rows.shape[1]) if at_c else (-1, R ** (step.pos - (step.pos > q)))
            return Dense(rows.reshape(outer, R, inner).sum(axis=1).reshape(m * R, -1),
                         size - 1 if at_c else q - (step.pos < q))
        runs, acc, seen = [], None, 0
        for keys, counts in _chunks(table, m, R):
            keys, seen = keys % p + keys // (p * R) * p, seen + len(keys)
            if acc is None and seen >= SPARSE_SHARE * pows[size]:  # sum densely from here on
                acc = np.zeros(pows[size], np.int64)
                np.add.at(acc, *_concat(runs))
            if acc is None:
                runs.append(_summed(keys, counts))
            else:
                np.add.at(acc, keys, counts)
        if acc is None:
            return runs if len(runs) == 1 else [_summed(*_concat(runs))]
        keys = np.flatnonzero(acc)
        return [(keys, acc[keys])]

    def pair(child, step, after, fc):
        """Introduce ``step`` of c and the forget ``after`` of its prior u, at
        child bag position fc: out(rest, c) = [c has the label] * prod over
        the other priors q of adj(rest_q, c) * sum over a in N(c) of
        child(rest, u = a). Push runs the two steps; its work is the child's
        fan sum. Pull, as in direction-optimizing BFS (Beamer, Asanović and
        Patterson, SC 2012), lays the child out densely as rows over u, takes
        candidates c from N(rest_q) per rest, or without another prior every
        vertex with the label, and sums their rows N(c): its work is the dense
        entries and those lookups, or row entries. Rows over u are read as is."""
        s, p, width = after.size, pows[fc], R ** (after.size - 1)
        first, others = step.prior_positions[0], [j for j in step.prior_positions if j != fc]
        rows = child.rows if isinstance(child, Dense) and child.q == fc else None
        if rows is None or first != fc:
            keys, counts = _concat(_chunks(child, m, R))
            child, entries, push = [(keys, counts)], len(keys), degree[image(keys, first)].sum()
        else:  # rows over u = the first prior: no flatten
            per_row = np.count_nonzero(rows, axis=1)
            entries, push = per_row.sum(), per_row @ degree
        cands = np.flatnonzero((blocks.labels == step.label) & (degree > 0))
        fan = degree[cands]
        work = (min(entries, pows[s - 1]) * (len(nbr) / (m * R)) ** 2 if others
                else int(fan.sum()) * width)  # others: a rest per entry at most, d * d lookups each
        if not _pulls(push, pows[s] + work):
            return forget(introduce(_chunks(child, m, R), step), after)
        if rows is None:
            rows = np.zeros(pows[s], np.int64)
            rows[keys] = counts
            rows = rows.reshape(-1, R, p // m, m).transpose(3, 1, 0, 2).copy().reshape(m * R, width)
        out = np.zeros((m * R, width), np.int64)  # out[c, rest], c a vertex of the batch
        if others:
            rest = np.flatnonzero(rows.reshape(m, R, width).any(axis=1))  # b * width + rest
            src, *via = [rest // width * R + rest % width // R ** (j - (j > fc)) % R
                         for j in others]
            seg, idx, _ = _fan_out(first_nbr[src], degree[src])
            keep = blocks.nbr_label[idx] == step.label
            for v in via:
                keep &= adjacent[v[seg] * R + nbr_local[idx]]
            c, col = nbr[idx[keep]], (rest % width)[seg[keep]]
            for lo, hi, seg, idx, starts in _fanned(first_nbr[c], degree[c]):
                out[c[lo:hi], col[lo:hi]] = np.add.reduceat(rows[nbr[idx], col[lo:hi][seg]], starts)
        else:
            for lo, hi, _, idx, starts in _fanned(first_nbr[cands], fan, width):
                out[cands[lo:hi]] = np.add.reduceat(rows[nbr[idx]], starts)  # no empty segment
        return Dense(out, step.pos - (fc < step.pos))

    def table(i):  # held for step prefix steps[:i + 1], or built from the children's
        step, key = steps[i], steps[:i + 1]
        if step.kind == "introduce":  # lazy and read once, so never held
            return introduce(_chunks(table(step.children[0]), m, R), step)
        if key in blocks.shared:
            return blocks.take(key)
        if step.kind == "leaf":
            built = [(np.arange(m, dtype=np.int64), np.ones(m, np.int64))]
        elif step.kind == "join":
            ta, tb = map(table, step.children)
            ka, ca = _concat(_chunks(ta, m, R))
            kb, cb = _concat(_chunks(tb, m, R))
            keys, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
            built = [(keys, ca[ia] * cb[ib])]
        else:
            (ci,) = step.children
            below = steps[ci]
            fc = step.pos - (step.pos > below.pos)  # in the introduce's child bag
            if below.kind == "introduce" and step.pos != below.pos and fc in below.prior_positions:
                built = pair(table(below.children[0]), below, step, fc)
            else:
                built = forget(table(ci), step)
        return blocks.keep(key, built)

    keys, counts = _concat(_chunks(table(len(steps) - 1), m, R))
    anchor_counts = np.zeros(m * R, np.int64)  # anchor_counts[b + m * v]
    anchor_counts[keys] = counts
    return anchor_counts.reshape(R, m).T
