import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcount.graphs import (
    Graph,
    LabelAlphabet,
    ParseError,
    RootedPattern,
    canonical_code,
    is_isomorphic,
    normalize_edges,
    parse_graph,
    parse_pattern,
    serialize_graph,
    serialize_pattern,
)


def build(n, edges, labels=None, gid="g"):
    return Graph(gid, n, tuple(labels or [0] * n), normalize_edges(edges))


def cycle(k):
    return build(k, [(i, (i + 1) % k) for i in range(k)], gid=f"c{k}")


def path(k):
    return build(k, [(i, i + 1) for i in range(k - 1)], gid=f"p{k}")


def clique(k):
    return build(k, list(itertools.combinations(range(k), 2)), gid=f"k{k}")


G1_RECORD = '{"id":"g1","n":6,"edges":[[0,1],[0,2],[1,2],[2,3],[3,4],[3,5],[4,5]]}'
H1_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]


class TestParseGraph:
    def test_triangle_defaults_labels(self):
        g = parse_graph('{"id":"t","n":3,"edges":[[0,1],[1,2],[0,2]]}')
        assert g.n == 3
        assert g.labels == (0, 0, 0)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_two_triangles_shared_path(self):
        g = parse_graph(G1_RECORD)
        assert g.n == 6
        assert len(g.edges) == 7
        # two vertex-disjoint triangles joined by a bridge
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(0, 2)
        assert g.has_edge(3, 4) and g.has_edge(4, 5) and g.has_edge(3, 5)
        assert g.has_edge(2, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_graph('{"id":"bad","n":2,"edges":[[0,0]]}')
        assert err.value.field == "edges"

    def test_endpoint_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph('{"id":"bad","n":2,"edges":[[0,5]]}')

    def test_duplicate_edge(self):
        with pytest.raises(ParseError):
            parse_graph('{"id":"bad","n":3,"edges":[[0,1],[1,0]]}')

    def test_malformed_record(self):
        with pytest.raises(ParseError):
            parse_graph("not json")
        with pytest.raises(ParseError):
            parse_graph('{"id":"x","edges":[]}')
        with pytest.raises(ParseError):
            parse_graph('{"id":"x","n":2,"edges":[[0,1]],"labels":[1]}')

    @pytest.mark.parametrize("label", ["true", "false", "1.0", "null", "[1]", '{"a": 1}'])
    def test_label_must_be_string_or_integer(self, label):
        with pytest.raises(ParseError) as err:
            parse_graph(f'{{"id":"x","n":2,"labels":[1,{label}],"edges":[[0,1]]}}')
        assert err.value.field == "labels"

    def test_string_and_integer_labels_kept_apart(self):
        alpha = LabelAlphabet()
        g = parse_graph('{"id":"x","n":3,"labels":["1",1,-2],"edges":[[0,1]]}', alpha)
        assert g.labels == (0, 1, 2)
        assert [alpha.label_of(i) for i in g.labels] == ["1", 1, -2]

    def test_labels_interned_through_shared_alphabet(self):
        alpha = LabelAlphabet()
        a = parse_graph('{"id":"a","n":2,"labels":[7,9],"edges":[[0,1]]}', alpha)
        b = parse_graph('{"id":"b","n":2,"labels":[9,7],"edges":[[0,1]]}', alpha)
        assert a.labels == (0, 1)
        assert b.labels == (1, 0)
        assert alpha.label_of(0) == 7 and alpha.label_of(1) == 9


class TestParsePattern:
    def test_triangle_rooted(self):
        p = parse_pattern('{"id":"k3","n":3,"edges":[[0,1],[1,2],[0,2]],"root":0}')
        assert p.root == 0
        assert p.graph.n == 3

    def test_single_edge_pattern(self):
        p = parse_pattern('{"id":"l1","n":2,"edges":[[0,1]],"root":0}')
        assert p.graph.degree(p.root) == 1

    def test_missing_root(self):
        with pytest.raises(ParseError) as err:
            parse_pattern('{"id":"x","n":2,"edges":[[0,1]]}')
        assert err.value.field == "root"

    def test_root_out_of_range(self):
        with pytest.raises(ParseError):
            parse_pattern('{"id":"x","n":2,"edges":[[0,1]],"root":5}')

    def test_disconnected_pattern_rejected(self):
        rec = {"id": "x", "n": 6, "root": 0,
               "edges": [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]}
        with pytest.raises(ParseError):
            parse_pattern(json.dumps(rec))


class TestIsomorphism:
    def test_rotated_cycle(self):
        c6 = cycle(6)
        rot = c6.relabeled([(i + 2) % 6 for i in range(6)])
        assert is_isomorphic(c6, rot)

    def test_cycle_vs_two_triangles(self):
        two = build(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert not is_isomorphic(cycle(6), two)

    def test_figure_pair_not_isomorphic(self):
        g1 = parse_graph(G1_RECORD)
        h1 = build(6, H1_EDGES, gid="h1")
        assert not is_isomorphic(g1, h1)

    def test_labels_matter(self):
        a = build(2, [(0, 1)], labels=[0, 1])
        b = build(2, [(0, 1)], labels=[0, 0])
        assert not is_isomorphic(a, b)

    def test_rooted_variant(self):
        p3 = path(3)
        assert is_isomorphic(p3, p3, g_root=0, h_root=2)
        assert not is_isomorphic(p3, p3, g_root=0, h_root=1)


def random_graph(rng, n, p, labels=1):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    labs = [rng.randrange(labels) for _ in range(n)]
    return build(n, edges, labels=labs, gid="r")


class TestCanonicalCode:
    def test_permuted_c4_same_code(self):
        c4 = cycle(4)
        for perm in itertools.permutations(range(4)):
            assert canonical_code(c4.relabeled(list(perm))) == canonical_code(c4)

    def test_c4_differs_from_p4(self):
        assert canonical_code(cycle(4)) != canonical_code(path(4))

    def test_rooted_codes_distinguish_roots(self):
        p3 = path(3)
        assert canonical_code(p3, root=0) == canonical_code(p3, root=2)
        assert canonical_code(p3, root=0) != canonical_code(p3, root=1)

    def test_agrees_with_isomorphism_on_exhaustive_small_catalog(self):
        # every graph on <= 5 vertices, uniform labels
        catalog = []
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
                catalog.append(build(n, edges))
        by_code = {}
        for g in catalog:
            by_code.setdefault(canonical_code(g), []).append(g)
        # same code => isomorphic (each bucket member against its head)
        for bucket in by_code.values():
            head = bucket[0]
            for other in bucket[1:]:
                assert is_isomorphic(head, other)
        # distinct codes => not isomorphic (pairwise over the class heads)
        heads = [bucket[0] for bucket in by_code.values()]
        assert len([h for h in heads if h.n == 5]) == 34  # known class count
        for a, b in itertools.combinations(heads, 2):
            assert not is_isomorphic(a, b)
        # spot checks at 6 and 7 vertices via named families
        fams = [cycle(6), cycle(7), path(7), clique(4), clique(5),
                build(7, [(0, i) for i in range(1, 7)], gid="star7"),
                build(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])]
        for a, b in itertools.combinations(fams, 2):
            assert (canonical_code(a) == canonical_code(b)) == is_isomorphic(a, b)

    def test_agrees_with_isomorphism_on_random_pairs(self):
        rng = random.Random(20240811)
        for trial in range(500):
            n = rng.randrange(2, 11)
            a = random_graph(rng, n, rng.choice([0.25, 0.5]), labels=rng.choice([1, 2]))
            if trial % 2 == 0:
                perm = list(range(n))
                rng.shuffle(perm)
                b = a.relabeled(perm)
            else:
                b = random_graph(rng, n, rng.choice([0.25, 0.5]), labels=rng.choice([1, 2]))
            assert (canonical_code(a) == canonical_code(b)) == is_isomorphic(a, b)


@st.composite
def graphs(draw, max_n=8, labels=2):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1 if pairs else 0))
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    labs = [draw(st.integers(min_value=0, max_value=labels - 1)) for _ in range(n)]
    return build(n, edges, labels=labs)


class TestProperties:
    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_serialize_round_trip(self, g):
        normal = parse_graph(serialize_graph(g))
        back = parse_graph(serialize_graph(normal))
        assert back == normal
        assert is_isomorphic(back, normal)

    def test_external_labels_round_trip(self):
        alpha = LabelAlphabet()
        g = parse_graph('{"id":"m","n":3,"labels":[8,6,8],"edges":[[0,1],[1,2]]}', alpha)
        rec = json.loads(serialize_graph(g, alpha))
        assert rec["labels"] == [8, 6, 8]
        again = parse_graph(serialize_graph(g, alpha), alpha)
        assert again == g

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_adjacency_mirrors_edges(self, g):
        for v in range(g.n):
            assert list(g.adjacency[v]) == sorted(g.adjacency[v])
        rebuilt = {(min(u, v), max(u, v)) for v in range(g.n) for u in g.adjacency[v]}
        assert rebuilt == set(g.edges)

    @given(graphs(max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_relabel_preserves_code(self, g):
        perm = list(range(g.n))
        random.Random(0).shuffle(perm)
        assert canonical_code(g.relabeled(perm)) == canonical_code(g)

    def test_pattern_round_trip(self):
        p = parse_pattern('{"id":"k3","n":3,"edges":[[0,1],[1,2],[0,2]],"root":2}')
        back = parse_pattern(serialize_pattern(p))
        assert back == p
