"""Differential tests of the one map search (``count_maps``), canonical codes,
subgraph counts and the quotient classes behind ``spasm``, against networkx as
an independent implementation."""

import hashlib
import itertools
import random

import pytest

from homcount.algebra import Partition, automorphism_count, quotient_rooted, spasm
from homcount.counting import hom_count_brute, hom_vector
from homcount.families import bowtie_pattern, clique_pattern, cycle_pattern
from homcount.graphs import (
    Graph,
    RootedPattern,
    canonical_code,
    count_maps,
    is_connected,
    is_isomorphic,
    normalize_edges,
)

nx = pytest.importorskip("networkx")
iso = pytest.importorskip("networkx.algorithms.isomorphism")


def random_graph(rng, n, p, labels, gid="g"):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(gid, n, tuple(rng.randrange(labels) for _ in range(n)), normalize_edges(edges))


def random_pattern(rng, n, labels):
    while True:
        g = random_graph(rng, n, 0.5, labels, gid="p")
        if is_connected(g):
            return RootedPattern(g, rng.randrange(n))


def near_copy(rng, g):
    """A random relabelling of g, and half the time one edge moved as well."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabeled(perm, "h")
    non_edges = [e for e in itertools.combinations(range(h.n), 2) if e not in h.edge_set]
    if h.edges and non_edges and rng.random() < 0.5:
        edges = set(h.edges)
        edges.remove(rng.choice(h.edges))
        edges.add(rng.choice(non_edges))
        h = Graph("h", h.n, h.labels, normalize_edges(edges))
    return h


def to_nx(g, root=None):
    """networkx copy with the label in ``tag``; a root is tagged (root, label)."""
    out = nx.Graph()
    for v in range(g.n):
        out.add_node(v, tag=("root", g.labels[v]) if v == root else g.labels[v])
    out.add_edges_from(g.edges)
    return out


def same_tag(a, b):
    return a["tag"] == b["tag"]


def test_is_isomorphic_matches_networkx_plain_and_rooted():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8), rng.random(), rng.randint(1, 2))
        h = near_copy(rng, g)
        want = nx.is_isomorphic(to_nx(g), to_nx(h), node_match=same_tag)
        assert is_isomorphic(g, h) == want
        r, s = rng.randrange(g.n), rng.randrange(h.n)
        want_rooted = nx.is_isomorphic(to_nx(g, r), to_nx(h, s), node_match=same_tag)
        assert is_isomorphic(g, h, r, s) == want_rooted
        outcomes.add((want, want_rooted))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_automorphism_count_matches_networkx():
    rng = random.Random(12)
    patterns = [cycle_pattern(6), clique_pattern(4), bowtie_pattern()]
    patterns += [random_pattern(rng, rng.randint(1, 7), rng.randint(1, 2)) for _ in range(150)]
    for p in patterns:
        tagged = to_nx(p.graph, p.root)
        matcher = iso.GraphMatcher(tagged, tagged, node_match=same_tag)
        assert automorphism_count(p) == sum(1 for _ in matcher.isomorphisms_iter())


def test_first_map_agrees_with_brute_existence():
    k3, k5 = clique_pattern(3).graph, clique_pattern(5).graph
    assert 0 < count_maps(k3, k5, first=True) < hom_count_brute(k3, k5) == 60
    rng = random.Random(13)
    for _ in range(300):
        p = random_pattern(rng, rng.randint(1, 5), 2)
        g = random_graph(rng, rng.randint(1, 7), rng.random(), 2)
        assert (count_maps(p.graph, g, first=True) > 0) == (hom_count_brute(p.graph, g) > 0)
        a = rng.randrange(g.n)
        found = count_maps(p.graph, g, p.root, a, first=True)
        assert (found > 0) == (hom_count_brute(p, g, a) > 0)


def test_canonical_code_matches_networkx_plain_and_rooted():
    rng = random.Random(14)
    outcomes = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8), rng.random(), rng.randint(1, 2))
        h = near_copy(rng, g)
        want = nx.is_isomorphic(to_nx(g), to_nx(h), node_match=same_tag)
        assert (canonical_code(g) == canonical_code(h)) == want
        r, s = rng.randrange(g.n), rng.randrange(h.n)
        want_rooted = nx.is_isomorphic(to_nx(g, r), to_nx(h, s), node_match=same_tag)
        assert (canonical_code(g, r) == canonical_code(h, s)) == want_rooted
        outcomes.add((want, want_rooted))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_sub_vector_matches_networkx_monomorphisms():
    rng = random.Random(15)
    patterns = [cycle_pattern(4), clique_pattern(3), bowtie_pattern()]
    patterns += [random_pattern(rng, rng.randint(1, 5), 2) for _ in range(40)]
    nonzero = 0
    for p in patterns:
        tagged = to_nx(p.graph, p.root)
        auts = sum(1 for _ in iso.GraphMatcher(tagged, tagged, node_match=same_tag)
                   .isomorphisms_iter())
        plain = to_nx(p.graph)
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.4, 0.7]), 2)
        at_root = [0] * g.n
        matcher = iso.GraphMatcher(to_nx(g), plain, node_match=same_tag)
        for mapping in matcher.subgraph_monomorphisms_iter():  # g vertex -> p vertex
            at_root[next(v for v, u in mapping.items() if u == p.root)] += 1
        want = tuple(c // auts for c in at_root)
        assert all(c % auts == 0 for c in at_root)
        assert hom_vector([p], g, "sub")[0] == want
        nonzero += any(want)
    assert nonzero >= 10


SPASM_DIGESTS = {  # sha256 prefix of the joined rooted canonical codes, in spasm order
    "C4": (cycle_pattern(4), 4, "4e6b8f6e4c785528"),
    "C5": (cycle_pattern(5), 5, "3e8fa521877e9afa"),
    "C6": (cycle_pattern(6), 18, "4d8f986319e668e3"),
    "K4": (clique_pattern(4), 1, "eeb2ab06bbdc911b"),
    "bowtie": (bowtie_pattern(), 3, "f9c76cae4630b90f"),
}


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


@pytest.mark.parametrize("name", sorted(SPASM_DIGESTS))
def test_spasm_codes_unchanged_and_one_per_networkx_class(name):
    p, size, digest = SPASM_DIGESTS[name]
    members = spasm(p)
    codes = b"".join(canonical_code(q.graph, q.root) for q in members)
    assert (len(members), hashlib.sha256(codes).hexdigest()[:16]) == (size, digest)

    reps = []
    for blocks in set_partitions(list(range(p.graph.n))):
        q = quotient_rooted(p, Partition.from_blocks(p.graph.n, blocks))
        if q is None:
            continue
        tagged = to_nx(q.graph, q.root)
        if not any(nx.is_isomorphic(tagged, r, node_match=same_tag) for r in reps):
            reps.append(tagged)
    assert len(reps) == len(members)
