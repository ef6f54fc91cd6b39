"""Expected outputs computed apart from the program, and the checkers that
compare each CLI output with them.

Nothing here imports homcount. Hom counts of rooted cycles and paths are walk
counts in the label-restricted adjacency matrix, subgraph counts come from
networkx monomorphism search, tree-universe sizes from networkx isomorphism
classes, and witness counts from a small backtracking counter. Every checker
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json
import math

import networkx as nx
import numpy as np
import scipy.sparse as sp
from networkx.algorithms import isomorphism

from inputs import to_nx

INT64_LIMIT = 2**63 - 1
DENSE_LIMIT = 256
Z_TOLERANCE = 1e-9
_label_match = isomorphism.categorical_node_match("label", None)


# --- walk counts -------------------------------------------------------------


def walk_spec(pattern: dict) -> tuple[str, int]:
    """("closed", k) for a k-cycle, ("open", k) for a k-edge path rooted at an end."""
    g = to_nx(pattern)
    degrees = [d for _, d in g.degree()]
    n = pattern["n"]
    if nx.is_connected(g) and all(d == 2 for d in degrees):
        return "closed", n
    if nx.is_connected(g) and g.number_of_edges() == n - 1 and max(degrees) <= 2 \
            and g.degree(pattern["root"]) == 1:
        return "open", n - 1
    raise ValueError(f"pattern {pattern['id']} is neither a cycle nor a rooted path")


def hom_counts(graph: dict, patterns: list[dict]) -> list[list[int]]:
    """Per pattern, the rooted hom count at every vertex: diag(A_L^k) for a
    k-cycle and A_L^k . 1 for a k-edge path, with A_L the adjacency between
    vertices carrying the pattern's single label."""
    n = graph["n"]
    labels = graph.get("labels") or [0] * n
    powers: dict = {}
    out = []
    for p in patterns:
        kind, k = walk_spec(p)
        plabels = set(p.get("labels") or [0] * p["n"])
        if len(plabels) != 1:
            raise ValueError(f"pattern {p['id']} must carry a single label")
        (label,) = plabels
        if label not in powers:
            edges = [(u, v) for u, v in graph["edges"] if labels[u] == label and labels[v] == label]
            rows = [u for u, v in edges] + [v for u, v in edges]
            cols = [v for u, v in edges] + [u for u, v in edges]
            a = sp.csr_array((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n))
            # Small graphs are faster dense; both support @, * and sum(axis=1).
            powers[label] = [None, a.toarray() if n <= DENSE_LIMIT else a]
        pw = powers[label]
        max_degree = int(pw[1].sum(axis=1).max()) if n else 0
        if max_degree ** k > INT64_LIMIT:
            raise OverflowError(f"walks of length {k} may exceed int64 on {graph['id']}")
        while len(pw) <= k:
            pw.append(pw[-1] @ pw[1])
        if kind == "closed":
            half = k // 2
            vals = (pw[half] * pw[k - half]).sum(axis=1)
        else:
            vals = pw[k].sum(axis=1)
        out.append([int(x) for x in np.asarray(vals).ravel()])
    return out


# --- subgraph counts -----------------------------------------------------------


def root_automorphisms(pattern: dict) -> int:
    p = to_nx(pattern)
    r = pattern["root"]
    matcher = isomorphism.GraphMatcher(p, p, node_match=_label_match)
    return sum(1 for m in matcher.isomorphisms_iter() if m[r] == r)


def sub_counts(graph: dict, patterns: list[dict], auts: list[int]) -> list[list[int]]:
    """Label-preserving monomorphisms with the root at each vertex, divided by
    the pattern's root-fixing automorphisms.

    The search runs on the part of the graph an image can use: vertices with a
    pattern label, pruned to the k-core for k the pattern's minimum degree
    (every image vertex keeps at least that many neighbours in the image).
    """
    full = to_nx(graph)
    out = []
    for p, aut in zip(patterns, auts):
        pg = to_nx(p)
        plabels = {label for _, label in pg.nodes(data="label")}
        keep = [v for v, label in full.nodes(data="label") if label in plabels]
        g = nx.k_core(nx.Graph(full.subgraph(keep)), min(d for _, d in pg.degree()))
        r = p["root"]
        counts = [0] * graph["n"]
        matcher = isomorphism.GraphMatcher(g, pg, node_match=_label_match)
        for m in matcher.subgraph_monomorphisms_iter():
            counts[next(gv for gv, pv in m.items() if pv == r)] += 1
        if any(c % aut for c in counts):
            raise ArithmeticError(f"monomorphism count not divisible by {aut}")
        out.append([c // aut for c in counts])
    return out


# --- feature CSV ---------------------------------------------------------------


def feature_columns(graphs: list[dict], per_graph: list[list[list[int]]]) -> list[list[int]]:
    """Concatenate per-graph count vectors into one column per pattern, in row order."""
    width = len(per_graph[0]) if per_graph else 0
    return [[c for counts in per_graph for c in counts[j]] for j in range(width)]


def log_z_stats(column: list[int]) -> tuple[float, float, bool]:
    xs = [math.log1p(c) for c in column]
    mean = math.fsum(xs) / len(xs)
    constant = len(set(column)) <= 1
    if constant:
        return mean, 0.0, True
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1))
    return mean, std, False


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= Z_TOLERANCE * max(1.0, abs(b))


def check_features(text: str, graphs: list[dict], pattern_ids: list[str], mode: str,
                   normalize: str, columns: list[list[int]]) -> list[str]:
    """Header block, row identities and every cell against the expected counts."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    problems: list[str] = []
    head = [f"# mode: {mode}", f"# normalize: {normalize}"]
    if lines[:2] != head:
        return [f"header {lines[:2]!r}, expected {head!r}"]
    names = [f"{mode}_{pid}" for pid in pattern_ids]
    pos = 2
    stats = None
    if normalize == "log-z":
        if not lines[pos].startswith("# transform: "):
            return [f"missing transform line, got {lines[pos]!r}"]
        pos += 1
        stats = []
        for name, col in zip(names, columns):
            mean, std, constant = log_z_stats(col)
            prefix = f"# column {name}: "
            line = lines[pos]
            pos += 1
            if not line.startswith(prefix):
                problems.append(f"column line {line!r}, expected {prefix!r}")
                stats.append((mean, std, constant))
                continue
            fields = dict(part.split("=", 1) for part in line[len(prefix):].split())
            got_const = fields.get("constant") == "true"
            if got_const != constant:
                problems.append(f"{name}: constant={fields.get('constant')}, expected {constant}")
            if not _close(float(fields["mean"]), mean) or not _close(float(fields["std"]), std):
                problems.append(f"{name}: mean/std {fields['mean']}/{fields['std']}, "
                                f"expected {mean!r}/{std!r}")
            stats.append((mean, std, constant))
    header = ",".join(["graph_id", "vertex_id", "label"] + names)
    if lines[pos] != header:
        return problems + [f"column header {lines[pos]!r}, expected {header!r}"]
    rows = lines[pos + 1:]
    want_rows = sum(g["n"] for g in graphs)
    if len(rows) != want_rows:
        return problems + [f"{len(rows)} rows, expected {want_rows}"]
    i = 0
    for g in graphs:
        labels = g.get("labels") or [0] * g["n"]
        for v in range(g["n"]):
            cells = rows[i].split(",")
            if cells[:3] != [g["id"], str(v), str(labels[v])]:
                problems.append(f"row {i}: ids {cells[:3]}, expected {[g['id'], v, labels[v]]}")
            if len(cells) != 3 + len(names):
                problems.append(f"row {i}: {len(cells)} cells, expected {3 + len(names)}")
                cells = cells[:3]
            for j, cell in enumerate(cells[3:]):
                want = columns[j][i]
                if stats is None:
                    ok = cell == str(want)
                else:
                    mean, std, constant = stats[j]
                    ok = cell == "0.0" if constant else (
                        cell != "NA" and _close(float(cell), (math.log1p(want) - mean) / std))
                if not ok:
                    problems.append(f"row {i} ({g['id']}, {v}) {names[j]}: {cell}, count {want}")
            i += 1
            if len(problems) > 10:
                return problems
    return problems


# --- verdicts ----------------------------------------------------------------------


def check_verdict(text: str, pair: list[str], distinguished: bool,
                  at_round: int | None = None) -> list[str]:
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"verdict is not JSON: {exc}"]
    problems = []
    if got.get("pair") != pair:
        problems.append(f"pair {got.get('pair')}, expected {pair}")
    if got.get("distinguished") is not distinguished:
        problems.append(f"distinguished={got.get('distinguished')}, expected {distinguished}")
    if not distinguished and got.get("round") is not None:
        problems.append(f"round {got.get('round')} on an undistinguished pair")
    if at_round is not None and got.get("round") != at_round:
        problems.append(f"round {got.get('round')}, expected {at_round}")
    return problems


# --- pattern trees and witnesses ----------------------------------------------------


def _backbones(max_vertices: int, max_depth: int):
    """Rooted trees as parent arrays with parent[i] < i and depth <= max_depth."""
    def grow(parent, depth, size):
        if len(parent) == size:
            yield tuple(parent)
            return
        for p in range(len(parent)):
            if depth[p] < max_depth:
                yield from grow(parent + [p], depth + [depth[p] + 1], size)

    for size in range(1, max_vertices + 1):
        yield from grow([-1], [0], size)


def _root_label(p: dict):
    return (p.get("labels") or [0] * p["n"])[p["root"]]


def _tree_code(parent, labels, attach) -> str:
    kids: list[list[int]] = [[] for _ in parent]
    for v in range(1, len(parent)):
        kids[parent[v]].append(v)

    def code(v):
        return f"({labels[v]}:{attach[v]}" + "".join(sorted(code(c) for c in kids[v])) + ")"

    return code(0)


def flatten_tree(parent, labels, attach, patterns) -> tuple[int, list, list]:
    """Backbone plus one copy of each attached pattern glued at its root.
    Returns (vertex count, labels, edges); the tree root is vertex 0."""
    labels = list(labels)
    edges = [(parent[v], v) for v in range(1, len(parent))]
    for v, mults in enumerate(attach):
        for p, mult in zip(patterns, mults):
            plabels = p.get("labels") or [0] * p["n"]
            for _ in range(mult):
                image = {}
                for u in range(p["n"]):
                    if u == p["root"]:
                        image[u] = v
                    else:
                        image[u] = len(labels)
                        labels.append(plabels[u])
                edges += [(image[a], image[b]) for a, b in p["edges"]]
    return len(labels), labels, edges


def tree_classes(patterns: list[dict], alphabet: list, depth: int, backbone: int,
                 multiplicity: int) -> int:
    """Isomorphism classes of the flattened rooted candidate trees in a budget.

    Candidates with the same rooted tree code flatten to the same graph, so only
    one of each is built; networkx then groups those by rooted isomorphism
    (Weisfeiler-Lehman hash buckets, exact check inside a bucket).
    """
    mult_vectors = [m for m in itertools.product(range(multiplicity + 1), repeat=len(patterns))
                    if sum(m) <= multiplicity]
    seen = set()
    buckets: dict[str, list[nx.Graph]] = {}
    classes = 0
    match = isomorphism.categorical_node_match("tag", None)
    for parent in _backbones(backbone, depth):
        for labels in itertools.product(alphabet, repeat=len(parent)):
            options = [[m for m in mult_vectors
                        if all(k == 0 or _root_label(p) == labels[v]
                               for p, k in zip(patterns, m))]
                       for v in range(len(parent))]
            for attach in itertools.product(*options):
                code = _tree_code(parent, labels, attach)
                if code in seen:
                    continue
                seen.add(code)
                n, flat_labels, edges = flatten_tree(parent, labels, attach, patterns)
                g = nx.Graph()
                g.add_nodes_from((v, {"tag": f"{flat_labels[v]}|{v == 0}"}) for v in range(n))
                g.add_edges_from(edges)
                reps = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g, node_attr="tag"), [])
                if not any(nx.is_isomorphic(g, r, node_match=match) for r in reps):
                    reps.append(g)
                    classes += 1
    return classes


def count_homs(n: int, labels: list, edges: list, graph: dict, anchor: int | None) -> int:
    """Homomorphisms of a connected pattern into ``graph`` by backtracking,
    with pattern vertex 0 sent to ``anchor`` (any vertex when None)."""
    adj: list[set] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    order = [0]
    for u in order:
        order += sorted(w for w in adj[u] if w not in order)
    earlier = [[w for w in adj[u] if order.index(w) < i] for i, u in enumerate(order)]
    glabels = graph.get("labels") or [0] * graph["n"]
    gadj: list[set] = [set() for _ in range(graph["n"])]
    for a, b in graph["edges"]:
        gadj[a].add(b)
        gadj[b].add(a)
    image: dict[int, int] = {}

    def extend(i: int) -> int:
        if i == len(order):
            return 1
        u = order[i]
        if earlier[i]:
            cands = set(gadj[image[earlier[i][0]]])
            for w in earlier[i][1:]:
                cands &= gadj[image[w]]
        elif anchor is not None:
            cands = {anchor}
        else:
            cands = set(range(graph["n"]))
        total = 0
        for x in cands:
            if glabels[x] != labels[u]:
                continue
            image[u] = x
            total += extend(i + 1)
        image.pop(u, None)
        return total

    return extend(0)


WITNESS_MISSING = "witness missing"


def check_witness(text: str, g: dict, h: dict, classes: int, max_trees: int,
                  vertex_pair: tuple[int, int] | None) -> list[str]:
    """Report of a pair whose family guarantees a witness within the budget.

    The witness tree carries the program's internal label ids; the families are
    single-labelled, where those equal the file labels (0).
    """
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"witness report is not JSON: {exc}"]
    problems = []
    if rep.get("forward_violations") != []:
        problems.append(f"forward violations {rep.get('forward_violations')}")
    want_trees = min(classes, max_trees)
    if rep.get("trees_enumerated") != want_trees:
        problems.append(f"trees_enumerated {rep.get('trees_enumerated')}, expected {want_trees}")
    if rep.get("budget_truncated") is not (classes > max_trees):
        problems.append(f"budget_truncated {rep.get('budget_truncated')}")
    wit = rep.get("witness")
    if not wit:
        return problems + [f"{WITNESS_MISSING}: report says witness={wit!r}"]
    tree = wit["tree"]
    by_id = {p["id"]: p for p in tree["patterns"]}
    patterns = list(by_id.values())
    attach = [tuple(a.get(p["id"], 0) for p in patterns) for a in tree["attachments"]]
    n, labels, edges = flatten_tree(tree["backbone_parent"], tree["backbone_labels"],
                                    attach, patterns)
    if vertex_pair is None:
        kind, anchors = "graph", (None, None)
    else:
        kind, anchors = "vertex", vertex_pair
        if wit.get("vertices") != list(vertex_pair):
            problems.append(f"witness vertices {wit.get('vertices')}, expected {list(vertex_pair)}")
    if wit.get("kind") != kind:
        problems.append(f"witness kind {wit.get('kind')}, expected {kind}")
    counts = [count_homs(n, labels, edges, g, anchors[0]),
              count_homs(n, labels, edges, h, anchors[1])]
    if wit.get("counts") != counts:
        problems.append(f"witness counts {wit.get('counts')}, recounted {counts}")
    if counts[0] == counts[1]:
        problems.append(f"witness tree does not separate the pair: counts {counts}")
    return problems
