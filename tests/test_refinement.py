import itertools
import random

import networkx as nx
import pytest

from homcount.algebra import SizeGuardError
from homcount.counting import hom_count_brute
from homcount.graphs import Graph, RootedPattern, normalize_edges
from homcount.refinement import (
    Coloring,
    Verdict,
    distinguishability_matrix,
    f_wl,
    graph_verdict,
    k_wl,
    k_wl_trace,
    vertices_equivalent,
    wl_refine,
)

G1 = Graph("g1", 6, (0,) * 6,
           normalize_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]))
H1 = Graph("h1", 6, (0,) * 6,
           normalize_edges([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]))
G2 = Graph("g2", 9, (0,) * 9,
           normalize_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 5), (3, 4), (3, 6),
                            (4, 5), (5, 7), (6, 7), (6, 8), (7, 8)]))
H2 = Graph("h2", 9, (0,) * 9,
           normalize_edges([(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 5), (3, 6),
                            (4, 7), (5, 8), (6, 7), (6, 8), (7, 8)]))


def build(n, edges, labels=None, gid="g"):
    return Graph(gid, n, tuple(labels or [0] * n), normalize_edges(edges))


def swapped_pair(seed):
    """A random graph and a shuffled copy after up to three degree-preserving
    double edge swaps; every third pair carries two vertex labels."""
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    labels = [rng.choice((0, 0, 1)) if seed % 3 == 0 else 0 for _ in range(n)]
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45}
    other = set(edges)
    swaps = 0
    for _ in range(50):
        if swaps == seed % 3 + 1 or len(other) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(other), 2)
        new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and not new & other:
            other = (other - {(a, b), (c, d)}) | new
            swaps += 1
    perm = list(range(n))
    rng.shuffle(perm)
    g = build(n, edges, labels, "g")
    return g, build(n, other, labels, "h").relabeled(perm, "h")


# Verdict round of k_wl for k = 1, 2, 3 on swapped_pair(0..29), None when
# not distinguished; computed by an earlier k-WL implementation that kept
# per-tuple color dictionaries and one id table across rounds.
KWL_PINNED = [
    (2, 1, 0), (2, 1, 0), (None, None, None), (None, None, None), (2, 1, 0),
    (2, 1, 0), (2, 1, 0), (None, None, None), (None, None, None), (None, None, None),
    (2, 1, 1), (2, 1, 1), (2, 1, 1), (None, None, None), (None, None, None),
    (None, None, None), (2, 1, 0), (2, 1, 1), (None, None, None), (None, None, None),
    (None, None, None), (1, 1, 0), (None, None, None), (3, 1, 0), (1, 1, 0),
    (2, 1, 0), (None, None, None), (1, 1, 0), (None, None, None), (2, 1, 0),
]


def partition(colors):
    cells = {}
    for i, c in enumerate(colors):
        cells.setdefault(c, set()).add(i)
    return sorted(map(sorted, cells.values()))


def clique(k, root=None):
    g = build(k, list(itertools.combinations(range(k), 2)), gid=f"k{k}")
    return g if root is None else RootedPattern(g, root)


def cycle(k, root=None):
    g = build(k, [(i, (i + 1) % k) for i in range(k)], gid=f"c{k}")
    return g if root is None else RootedPattern(g, root)


class TestPlainRefinement:
    def test_figure_pair_indistinguishable(self):
        a, b = wl_refine(G1, H1)
        assert a.stable and b.stable
        verdict = graph_verdict(a, b)
        assert not verdict.distinguished
        # both graphs collapse to a single color class per degree
        assert len(set(a.final) | set(b.final)) == 2

    def test_distinct_labels_distinguish_at_round_zero(self):
        a = build(1, [], labels=[0], gid="a")
        b = build(1, [], labels=[1], gid="b")
        ca, cb = wl_refine(a, b)
        verdict = graph_verdict(ca, cb)
        assert verdict.distinguished and verdict.at_round == 0

    def test_second_figure_pair_indistinguishable(self):
        a, b = wl_refine(G2, H2)
        assert not graph_verdict(a, b).distinguished

    def test_stabilizes_within_vertex_budget(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randrange(2, 10)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            g = build(n, edges, gid="a")
            h = build(n, [], gid="b")
            a, b = wl_refine(g, h)
            assert a.stable
            assert a.rounds <= g.n + h.n

    def test_rounds_match_networkx_wl_hashes(self):
        # per-round joint partitions of the pair equal those of networkx's
        # WL subtree hashes on the disjoint union
        rng = random.Random(11)
        for i in range(16):
            n = rng.randrange(4, 12)
            g, h = (
                build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.3], [rng.randrange(1 + i % 2) for _ in range(n)], gid)
                for gid in "gh"
            )
            a, b = wl_refine(g, h)
            union = nx.Graph()
            union.add_nodes_from((v, {"label": str(c)}) for v, c in enumerate(g.labels + h.labels))
            union.add_edges_from(g.edges)
            union.add_edges_from((u + n, v + n) for u, v in h.edges)
            hashes = nx.weisfeiler_lehman_subgraph_hashes(
                union, node_attr="label", iterations=a.rounds + 1)
            for d in range(1, a.rounds + 2):
                ours = a.colors_at(d) + b.colors_at(d)
                theirs = [hashes[v][d - 1] for v in range(2 * n)]
                assert partition(ours) == partition(theirs)

    def test_round_cap_stops_before_stability(self):
        a, b = wl_refine(G2, H2)
        assert a.stable and b.stable and a.rounds >= 2
        for cap in range(a.rounds):
            ca, cb = wl_refine(G2, H2, max_rounds=cap)
            assert not ca.stable and not cb.stable
            assert ca.history == a.history[: cap + 1] and cb.history == b.history[: cap + 1]
        ca, _ = wl_refine(G2, H2, max_rounds=a.rounds)
        assert ca.stable and ca.history == a.history

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            wl_refine(G1, H1, max_rounds=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            f_wl(G1, H1, [clique(3, root=0)], max_rounds=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            k_wl_trace(G1, H1, 2, max_rounds=-1)

    def test_refinement_is_monotone(self):
        a, b = wl_refine(G2, H2)
        for col in (a, b):
            for d in range(1, len(col.history)):
                prev = col.history[d - 1]
                cur = col.history[d]
                blocks = {}
                for v, c in enumerate(cur):
                    blocks.setdefault(c, set()).add(prev[v])
                assert all(len(s) == 1 for s in blocks.values())


class TestHomAugmented:
    def test_fig1_distinguished_at_round_zero(self):
        _, _, verdict = f_wl(G1, H1, [clique(3, root=0)])
        assert verdict.distinguished and verdict.at_round == 0

    def test_fig2_needs_one_round(self):
        _, _, verdict = f_wl(G2, H2, [clique(3, root=0)])
        assert verdict.distinguished and verdict.at_round == 1

    def test_fig2_vertex_pair_timing(self):
        a, b, _ = f_wl(G2, H2, [clique(3, root=0)])
        # the flagged vertices agree initially and split after one round
        assert vertices_equivalent(a, b, 4, 4, d=0)
        assert not vertices_equivalent(a, b, 4, 4, d=1)

    def test_empty_pattern_set_reproduces_plain(self):
        pairs = [(G1, H1), (G2, H2), (G1, G1)]
        for g, h in pairs:
            pa, pb = wl_refine(g, h)
            fa, fb, verdict = f_wl(g, h, [])
            assert pa.history == fa.history
            assert pb.history == fb.history
            assert graph_verdict(pa, pb) == verdict

    def test_initial_labels_are_hom_counts(self):
        k3 = clique(3, root=0)
        a, b, _ = f_wl(G1, H1, [k3])
        # vertices with equal (label, hom) tuples share ids across graphs
        assert len(set(a.history[0])) == 1
        assert len(set(b.history[0])) == 1
        assert set(a.history[0]) != set(b.history[0])


class TestKWl:
    def test_k1_matches_plain_on_pairs(self):
        for g, h in [(G1, H1), (G2, H2)]:
            a, b = wl_refine(g, h)
            plain = graph_verdict(a, b)
            folk = k_wl(g, h, 1)
            assert plain.distinguished == folk.distinguished

    def test_k1_distinguishes_labeled_singletons(self):
        a = build(1, [], labels=[0], gid="a")
        b = build(1, [], labels=[1], gid="b")
        assert k_wl(a, b, 1).distinguished

    def test_k2_distinguishes_fig1(self):
        # triangle counts differ, and triangles have treewidth two
        assert hom_count_brute(clique(3), G1) == 12
        assert hom_count_brute(clique(3), H1) == 0
        verdict = k_wl(G1, H1, 2)
        assert verdict.distinguished

    def test_k1_does_not_distinguish_fig2(self):
        assert not k_wl(G2, H2, 1).distinguished

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            k_wl(G1, H1, 4)
        big = build(500, [], gid="big")
        with pytest.raises(SizeGuardError):
            k_wl(big, big, 3)

    def test_isomorphic_pair_never_distinguished(self):
        rng = random.Random(4)
        for k in (1, 2):
            n = 7
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            g = build(n, edges, gid="a")
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabeled(perm, "b")
            assert not k_wl(g, h, k).distinguished

    def test_verdicts_pinned_on_random_pairs(self):
        for seed, rounds in enumerate(KWL_PINNED):
            g, h = swapped_pair(seed)
            for k, at_round in zip((1, 2, 3), rounds):
                verdict = k_wl(g, h, k)
                assert (verdict.distinguished, verdict.at_round) == (
                    at_round is not None, at_round), (seed, k)

    def test_trace_invariants(self):
        tg, th, verdict = k_wl_trace(G1, H1, 2)
        assert verdict.distinguished
        # history[d][u * n + v] is the color of the pair (u, v): initial colors
        # are constant on isomorphism-type classes, and a tuple and its reverse
        # have the same type in these unlabeled graphs
        n = G1.n
        init = tg.history[0]
        assert len(init) == n * n
        for u, v in itertools.product(range(n), repeat=2):
            assert init[u * n + v] == init[v * n + u]
        # refinement is monotone: same color later implies same color earlier
        for col in (tg, th):
            for d in range(1, len(col.history)):
                groups = {}
                for i, c in enumerate(col.history[d]):
                    groups.setdefault(c, set()).add(col.history[d - 1][i])
                assert all(len(s) == 1 for s in groups.values())


class TestMatrix:
    def test_figure_pair_matrix(self):
        table = distinguishability_matrix([G1, H1], [clique(3, root=0)])
        assert not table[("g1", "g1")].distinguished
        assert not table[("h1", "h1")].distinguished
        assert table[("g1", "h1")].distinguished
        assert table[("h1", "g1")].distinguished

    def test_self_pair_never_distinguished(self):
        table = distinguishability_matrix([G2], [clique(3, root=0)])
        assert not table[("g2", "g2")].distinguished

    def test_verdict_json_shape(self):
        v = Verdict(True, 1)
        assert v.to_json(("a", "b")) == {"pair": ["a", "b"], "distinguished": True, "round": 1}
        v2 = Verdict(False, None)
        assert v2.to_json()["round"] is None

    def test_cycle_union_matrix_stays_blind(self):
        from homcount.families import cycle_pattern, cycle_union_pair

        for m in (3, 4, 5):
            pair = cycle_union_pair(m)
            fam = [cycle_pattern(j) for j in range(3, m + 1)]
            table = distinguishability_matrix([pair.g, pair.h], fam)
            assert not table[(pair.g.id, pair.h.id)].distinguished
            assert not table[(pair.g.id, pair.g.id)].distinguished


class TestDimensionBound:
    def test_two_dim_blind_implies_low_width_families_blind(self):
        # pairs invisible to 2-dimensional refinement stay invisible to any
        # family whose patterns all have treewidth at most 2
        from homcount.families import cfi_pair, clique_pattern, cycle_pattern

        pair = cfi_pair(clique_pattern(4))
        assert not k_wl(pair.g, pair.h, 2).distinguished
        families = [
            [clique_pattern(3)],
            [cycle_pattern(3), cycle_pattern(4)],
            [clique_pattern(3), cycle_pattern(5), cycle_pattern(6)],
        ]
        for fam in families:
            _, _, verdict = f_wl(pair.g, pair.h, fam)
            assert not verdict.distinguished

    def test_isomorphic_pair_blind_at_k2_and_all_families(self):
        rng = random.Random(21)
        n = 8
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = build(n, edges, gid="a")
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabeled(perm, "b")
        assert not k_wl(g, h, 2).distinguished
        _, _, verdict = f_wl(g, h, [clique(3, root=0), cycle(4, root=0)])
        assert not verdict.distinguished


class TestInvariance:
    def test_relabeling_never_changes_verdicts(self):
        rng = random.Random(8)
        k3 = clique(3, root=0)
        for _ in range(10):
            n = rng.randrange(3, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
            g = build(n, edges, gid="a")
            h = build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.45], gid="b")
            _, _, base = f_wl(g, h, [k3])
            perm = list(range(n))
            rng.shuffle(perm)
            _, _, permd = f_wl(g.relabeled(perm), h, [k3])
            assert base.distinguished == permd.distinguished
            assert base.at_round == permd.at_round
