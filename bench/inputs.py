"""Seeded benchmark inputs and the properties the generated families must have.

The program only ever sees the files written here: JSON Lines graph files and
JSON pattern arrays in its documented input format.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import networkx as nx

MOLECULE_COUNT = 1000
MOLECULE_LABELS = ("C", "N", "O")
MOLECULE_LABEL_WEIGHTS = (70, 20, 10)
RING_SIZES = (3, 4, 5, 5, 6, 6)
LARGE_N = 1000
LARGE_AVG_DEGREE = 6
LARGE_CYCLES = (3, 4, 5, 6, 7)


def cycle(k: int, label=None, pid: str | None = None) -> dict:
    edges = [[i, i + 1] for i in range(k - 1)] + [[0, k - 1]]
    return _pattern(pid or f"C{k}", k, edges, label)


def clique(k: int, label=None) -> dict:
    edges = [[i, j] for i in range(k) for j in range(i + 1, k)]
    return _pattern(f"K{k}", k, edges, label)


def path(length: int, label=None) -> dict:
    """Rooted path with ``length`` edges, rooted at an end."""
    return _pattern(f"L{length}", length + 1, [[i, i + 1] for i in range(length)], label)


def bowtie() -> dict:
    return _pattern("bowtie", 5, [[0, 1], [0, 2], [1, 2], [0, 3], [0, 4], [3, 4]], None)


def _pattern(pid: str, n: int, edges, label) -> dict:
    rec = {"id": pid, "n": n, "edges": edges, "root": 0}
    if label is not None:
        rec["labels"] = [label] * n
    return rec


def molecules(seed: int) -> list[dict]:
    """Molecule-like sparse graphs: a chain-like tree (parents among the three
    previous atoms, degree at most 4) closed into rings of 3 to 6 atoms, with
    labels C, N, O drawn 70/20/10."""
    rng = random.Random(f"molecules:{seed}")
    out = []
    for i in range(MOLECULE_COUNT):
        n = rng.randint(15, 40)
        parent = [-1] * n
        deg = [0] * n
        edges = set()
        for v in range(1, n):
            options = [u for u in range(max(0, v - 3), v) if deg[u] < 3]
            u = rng.choice(options) if options else v - 1
            parent[v] = u
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
        for _ in range(rng.randint(1, n // 6)):
            v = rng.randrange(n)
            k = rng.choice(RING_SIZES)
            u = v
            for _ in range(k - 1):
                u = parent[u]
                if u < 0:
                    break
            if u < 0 or deg[u] >= 4 or deg[v] >= 4:
                continue
            e = (u, v) if u < v else (v, u)
            if e in edges:
                continue
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
        labels = rng.choices(MOLECULE_LABELS, weights=MOLECULE_LABEL_WEIGHTS, k=n)
        out.append({"id": f"mol{i:04d}", "n": n, "labels": labels,
                    "edges": [list(e) for e in sorted(edges)]})
    return out


def molecule_patterns() -> list[dict]:
    return [clique(3, "C"), cycle(4, "C"), cycle(5, "C"), cycle(6, "C"), path(2, "N")]


def large_sparse(seed: int) -> dict:
    """Uniform random graph with LARGE_N vertices and LARGE_N * 3 edges
    (average degree 6), one label."""
    rng = random.Random(f"large-sparse:{seed}")
    m = LARGE_N * LARGE_AVG_DEGREE // 2
    edges = set()
    while len(edges) < m:
        a, b = rng.randrange(LARGE_N), rng.randrange(LARGE_N)
        if a != b:
            edges.add((a, b) if a < b else (b, a))
    return {"id": "sparse", "n": LARGE_N, "edges": [list(e) for e in sorted(edges)]}


def large_patterns() -> list[dict]:
    return [cycle(k) for k in LARGE_CYCLES]


def small_patterns() -> list[dict]:
    """Patterns on at most 7 vertices for the cycle-union pair with m = 7."""
    return [cycle(k) for k in range(3, 8)] + [clique(4), path(2), path(6), bowtie()]


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def to_nx(rec: dict) -> nx.Graph:
    g = nx.Graph()
    labels = rec.get("labels") or [0] * rec["n"]
    for v in range(rec["n"]):
        g.add_node(v, label=labels[v])
    g.add_edges_from(tuple(e) for e in rec["edges"])
    return g


def check_cycle_union(m: int, a: dict, b: dict) -> list[str]:
    """(m+2) disjoint C_{m+1} against (m+1) disjoint C_{m+2}, both 2-regular."""
    problems = []
    for side, rec, copies, length in (("a", a, m + 2, m + 1), ("b", b, m + 1, m + 2)):
        g = to_nx(rec)
        if any(d != 2 for _, d in g.degree()):
            problems.append(f"cycle-union m={m} side {side} is not 2-regular")
        sizes = sorted(len(c) for c in nx.connected_components(g))
        if sizes != [length] * copies:
            problems.append(f"cycle-union m={m} side {side} has components {sizes}")
    return problems


def check_cfi(base: dict, a: dict, b: dict) -> list[str]:
    want = sum(2 ** (d - 1) for _, d in to_nx(base).degree())
    return [f"cfi side {rec['id']} has {rec['n']} vertices, expected {want}"
            for rec in (a, b) if rec["n"] != want]


def check_fig1(a: dict, b: dict) -> list[str]:
    """The fig1 witness rests on g having triangles and h having none."""
    tg = sum(nx.triangles(to_nx(a)).values())
    th = sum(nx.triangles(to_nx(b)).values())
    if tg > 0 and th == 0:
        return []
    return [f"fig1 triangle counts {tg // 3} and {th // 3} do not separate the pair"]
