import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcount.algebra import (
    Partition,
    SizeGuardError,
    automorphism_count,
    core_of,
    is_join_decomposable,
    join,
    join_factors,
    quotient,
    quotient_rooted,
    spasm,
    treewidth,
)
from homcount.graphs import Graph, RootedPattern, canonical_code, is_isomorphic, normalize_edges

from checks import check_decomposition


def build(n, edges, labels=None, gid="g"):
    return Graph(gid, n, tuple(labels or [0] * n), normalize_edges(edges))


def cycle(k, root=None):
    g = build(k, [(i, (i + 1) % k) for i in range(k)], gid=f"c{k}")
    return g if root is None else RootedPattern(g, root)


def clique(k, root=None):
    g = build(k, list(itertools.combinations(range(k), 2)), gid=f"k{k}")
    return g if root is None else RootedPattern(g, root)


def path(k, root=None):
    g = build(k, [(i, i + 1) for i in range(k - 1)], gid=f"p{k}")
    return g if root is None else RootedPattern(g, root)


def single_vertex(label=0):
    return RootedPattern(build(1, [], labels=[label], gid="v"), 0)


def edge_pattern():
    return RootedPattern(build(2, [(0, 1)], gid="l1"), 0)


def rooted_iso(a: RootedPattern, b: RootedPattern) -> bool:
    return is_isomorphic(a.graph, b.graph, g_root=a.root, h_root=b.root)


# independent oracle: all homomorphisms by exhaustive function enumeration
def all_maps_hom_count(g: Graph, h: Graph, fix=None) -> int:
    count = 0
    for img in itertools.product(range(h.n), repeat=g.n):
        if fix and any(img[u] != x for u, x in fix.items()):
            continue
        if any(g.labels[v] != h.labels[img[v]] for v in range(g.n)):
            continue
        if all(h.has_edge(img[u], img[v]) for u, v in g.edges):
            count += 1
    return count


class TestJoin:
    def test_triangle_with_pendant_edge(self):
        got = join(clique(3, root=0), edge_pattern())
        expected = RootedPattern(
            build(4, [(0, 1), (0, 2), (1, 2), (0, 3)], gid="tri+e"), 0
        )
        assert rooted_iso(got, expected)
        assert got.graph.n == 3 + 2 - 1

    def test_single_vertex_is_identity(self):
        p = cycle(5, root=2)
        assert rooted_iso(join(p, single_vertex()), p)
        assert rooted_iso(join(single_vertex(), p), p)

    def test_label_mismatch_rejected(self):
        a = RootedPattern(build(1, [], labels=[1]), 0)
        with pytest.raises(ValueError):
            join(a, single_vertex(0))

    def test_commutative_associative_up_to_iso(self):
        a, b, c = clique(3, root=0), edge_pattern(), path(3, root=1)
        assert rooted_iso(join(a, b), join(b, a))
        assert rooted_iso(join(a, join(b, c)), join(join(a, b), c))

    def test_hom_multiplicativity_on_random_instances(self):
        rng = random.Random(7)
        pats = [clique(3, root=0), edge_pattern(), path(3, root=0), cycle(4, root=0)]
        for _ in range(40):
            p = rng.choice(pats)
            q = rng.choice(pats)
            n = rng.randrange(3, 7)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            g = build(n, edges)
            j = join(p, q)
            for v in range(n):
                lhs = all_maps_hom_count(j.graph, g, fix={j.root: v})
                rhs = all_maps_hom_count(p.graph, g, fix={p.root: v}) * all_maps_hom_count(
                    q.graph, g, fix={q.root: v}
                )
                assert lhs == rhs


class TestQuotient:
    def test_c4_merge_opposite(self):
        part = Partition.from_blocks(4, [[0, 2], [1], [3]])
        q = quotient(cycle(4), part)
        assert q is not None
        assert is_isomorphic(q, path(3))

    def test_adjacent_merge_is_absent(self):
        for blocks in ([[0, 1], [2]], [[0, 2], [1]], [[1, 2], [0]]):
            assert quotient(clique(3), Partition.from_blocks(3, blocks)) is None

    def test_discrete_partition_is_identity(self):
        g = cycle(5)
        q = quotient(g, Partition.discrete(5))
        assert q is not None and is_isomorphic(q, g)

    def test_label_mixed_block_is_absent(self):
        g = build(3, [(0, 1), (1, 2)], labels=[0, 1, 2])
        assert quotient(g, Partition.from_blocks(3, [[0, 2], [1]])) is None


class TestSpasm:
    def test_c4_spasm_rooted_classes(self):
        # oracle: enumerate all 15 partitions of 4 elements, quotient, dedup
        p = cycle(4, root=0)
        members = spasm(p)
        oracle = {}
        for blocks in all_set_partitions(4):
            q = quotient_rooted(p, Partition.from_blocks(4, blocks))
            if q is not None:
                oracle[canonical_code(q.graph, q.root)] = q
        assert len(members) == len(oracle) == 4
        shapes = sorted(m.graph.n for m in members)
        assert shapes == [2, 3, 3, 4]  # edge, path rooted two ways, C4 itself
        assert any(rooted_iso(m, p) for m in members)
        # the two 3-vertex members differ exactly in their root placement
        three = [m for m in members if m.graph.n == 3]
        assert sorted(m.graph.degree(m.root) for m in three) == [1, 2]

    def test_triangle_spasm_is_itself(self):
        p = clique(3, root=0)
        members = spasm(p)
        assert len(members) == 1 and rooted_iso(members[0], p)

    def test_edge_spasm_is_itself(self):
        p = edge_pattern()
        members = spasm(p)
        assert len(members) == 1 and rooted_iso(members[0], p)

    def test_every_member_is_surjective_image(self):
        p = cycle(4, root=1)
        for m in spasm(p):
            assert surjective_hom_exists(p.graph, m.graph)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            spasm(cycle(10, root=0))


def all_set_partitions(n):
    if n == 0:
        yield []
        return
    for rest in all_set_partitions(n - 1):
        v = n - 1
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [v]] + rest[i + 1:]
        yield rest + [[v]]


def surjective_hom_exists(g: Graph, h: Graph) -> bool:
    for img in itertools.product(range(h.n), repeat=g.n):
        if set(img) != set(range(h.n)):
            continue
        if any(g.labels[v] != h.labels[img[v]] for v in range(g.n)):
            continue
        if all(h.has_edge(img[u], img[v]) for u, v in g.edges):
            return True
    return False


class TestCore:
    def test_even_cycle_retracts_to_edge(self):
        for root in (0, 3):
            c = core_of(cycle(6, root=root))
            assert c.graph.n == 2 and len(c.graph.edges) == 1

    def test_cliques_and_odd_cycles_are_cores(self):
        for p in (clique(3, root=0), clique(4, root=2), cycle(5, root=1)):
            c = core_of(p)
            assert rooted_iso(c, p)

    def test_idempotent(self):
        p = join(cycle(6, root=0), path(3, root=0))
        c = core_of(p)
        again = core_of(c)
        assert rooted_iso(c, again)

    def test_core_maps_both_ways(self):
        p = cycle(6, root=0)
        c = core_of(p)
        assert all_maps_hom_count(p.graph, c.graph) > 0
        assert all_maps_hom_count(c.graph, p.graph) > 0

    def test_retraction_search_oracle(self):
        # brute force: smallest induced subgraph receiving a homomorphism
        p = cycle(6, root=0)
        g = p.graph
        best = g.n
        for size in range(1, g.n + 1):
            found = False
            for sub in itertools.combinations(range(g.n), size):
                h = g.induced_subgraph(sub)
                if all_maps_hom_count(g, h) > 0:
                    found = True
                    break
            if found:
                best = size
                break
        assert core_of(p).graph.n == best == 2


class TestAutomorphisms:
    def test_triangle_rooted(self):
        assert automorphism_count(clique(3, root=0)) == 2

    def test_path_rooted_at_center(self):
        assert automorphism_count(path(3, root=1)) == 2
        assert automorphism_count(path(3, root=0)) == 1

    def test_c5_rooted(self):
        # oracle: enumerate permutations fixing the root
        p = cycle(5, root=0)
        g = p.graph
        count = 0
        for perm in itertools.permutations(range(5)):
            if perm[0] != 0:
                continue
            if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges):
                count += 1
        assert count == 2
        assert automorphism_count(p) == 2


class TestTreewidth:
    def test_golden_values(self):
        tree = build(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        cases = [
            (tree, 1),
            (cycle(5), 2),
            (clique(4), 3),
            (clique(5), 4),
            (join(clique(3, root=0), clique(3, root=0)).graph, 2),
        ]
        for g, want in cases:
            w, td = treewidth(g)
            assert w == want
            assert td.width == want
            check_decomposition(g, td)

    def test_single_vertex_and_edgeless(self):
        w, td = treewidth(build(1, []))
        assert w == 0
        w, td = treewidth(build(4, []))
        assert w == 0
        check_decomposition(build(4, []), td)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            treewidth(cycle(15))

    def test_within_networkx_heuristic_bounds(self):
        # exact width never exceeds the min-degree and min-fill-in heuristics,
        # and the decomposition returned with it is valid
        import networkx as nx
        from networkx.algorithms.approximation import (
            treewidth_min_degree,
            treewidth_min_fill_in,
        )

        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(2, 12)
            p = rng.choice((0.2, 0.35, 0.5, 0.7))
            g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            w, td = treewidth(g)
            assert td.width == w
            check_decomposition(g, td)
            ng = nx.Graph(g.edges)
            ng.add_nodes_from(range(n))
            bounds = [heuristic(ng)[0] for heuristic in (treewidth_min_degree, treewidth_min_fill_in)]
            assert w <= min(bounds)

    def test_monotone_under_induced_subgraphs(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(4, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            g = build(n, edges)
            w, _ = treewidth(g)
            keep = sorted(rng.sample(range(n), rng.randrange(1, n)))
            sw, _ = treewidth(g.induced_subgraph(keep))
            assert sw <= w

    def test_join_with_tree_preserves_bound(self):
        # joining a pattern to a tree at a vertex does not raise treewidth
        rng = random.Random(5)
        for _ in range(15):
            k = rng.randrange(3, 6)
            base = RootedPattern(cycle(k), rng.randrange(k))
            t_n = rng.randrange(2, 5)
            tree = build(t_n, [(rng.randrange(i), i) for i in range(1, t_n)])
            joined = join(base, RootedPattern(tree, 0))
            w_base, _ = treewidth(base.graph)
            w_joined, _ = treewidth(joined.graph)
            assert w_joined <= max(w_base, 1)

    def test_decomposition_json_shape(self):
        g = cycle(5)
        _, td = treewidth(g)
        blob = td.to_json()
        assert set(blob) == {"bags", "tree"}
        assert sorted(v for bag in blob["bags"] for v in bag)
        assert all(len(edge) == 2 for edge in blob["tree"])
        assert len(blob["tree"]) == len(blob["bags"]) - 1


class TestJoinDecomposable:
    def test_bowtie_splits_into_triangles(self):
        bowtie = join(clique(3, root=0), clique(3, root=0))
        split = is_join_decomposable(bowtie)
        assert split is not None
        left, right = split
        assert rooted_iso(left, clique(3, root=0))
        assert rooted_iso(right, clique(3, root=0))

    def test_two_connected_pattern_is_atomic(self):
        assert is_join_decomposable(clique(3, root=0)) is None
        assert is_join_decomposable(single_vertex()) is None

    def test_inverse_of_join(self):
        p = join(cycle(5, root=0), edge_pattern())
        split = is_join_decomposable(p)
        assert split is not None
        got = sorted(split, key=lambda r: r.graph.n)
        assert rooted_iso(got[0], edge_pattern())
        assert rooted_iso(got[1], cycle(5, root=0))

    def test_full_factorization(self):
        p = join(join(clique(3, root=0), clique(3, root=0)), edge_pattern())
        factors = join_factors(p)
        sizes = sorted(f.graph.n for f in factors)
        assert sizes == [2, 3, 3]


@st.composite
def small_patterns(draw):
    kind = draw(st.sampled_from(["cycle", "clique", "path"]))
    k = draw(st.integers(min_value=3, max_value=5))
    g = {"cycle": cycle, "clique": clique, "path": path}[kind](k)
    return RootedPattern(g, draw(st.integers(min_value=0, max_value=k - 1)))


class TestAlgebraProperties:
    @given(small_patterns(), small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_join_then_split_round_trip(self, p, q):
        j = join(p, q)
        split = is_join_decomposable(j)
        assert split is not None
        a, b = split
        assert {canonical_code(x.graph, x.root) for x in join_factors(j)} >= set()
        assert a.graph.n + b.graph.n - 1 == j.graph.n

    @given(small_patterns())
    @settings(max_examples=30, deadline=None)
    def test_spasm_contains_pattern(self, p):
        members = spasm(p)
        assert any(rooted_iso(m, p) for m in members)
        assert all(m.graph.n <= p.graph.n for m in members)
