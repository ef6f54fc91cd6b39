import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homcount.counting as counting
from homcount import dp_arrays
from homcount.algebra import join, quotient_classes, treewidth
from homcount.counting import (
    MAX_COUNT,
    CountOverflowError,
    _dp_plan,
    _run_dp_dict,
    hom_count_brute,
    hom_count_dp,
    hom_vector,
    inj_count,
    sub_count,
)
from homcount.graphs import Graph, RootedPattern, normalize_edges

G1 = Graph("g1", 6, (0,) * 6,
           normalize_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]))
H1 = Graph("h1", 6, (0,) * 6,
           normalize_edges([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]))


def build(n, edges, labels=None, gid="g"):
    return Graph(gid, n, tuple(labels or [0] * n), normalize_edges(edges))


def cycle(k, root=None):
    g = build(k, [(i, (i + 1) % k) for i in range(k)], gid=f"c{k}")
    return g if root is None else RootedPattern(g, root)


def clique(k, root=None):
    g = build(k, list(itertools.combinations(range(k), 2)), gid=f"k{k}")
    return g if root is None else RootedPattern(g, root)


def lpath(length, gid=None):
    """Rooted path with `length` edges, rooted at an end."""
    g = build(length + 1, [(i, i + 1) for i in range(length)], gid=gid or f"l{length}")
    return RootedPattern(g, 0)


def random_graph(rng, n, p, labels=1, gid="rg"):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    labs = [rng.randrange(labels) for _ in range(n)]
    return build(n, edges, labels=labs, gid=gid)


# Three legs of length 2 from one centre: treewidth 1 but pathwidth 2. A plan
# without joins is a path decomposition, so a plan with bags of at most 2
# vertices must join.
SPIDER = RootedPattern(
    build(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)], gid="spider"), 2
)


def joins_at_width_one(pat):
    plan = _dp_plan(pat)
    return plan.largest_bag == 2 and any(s.kind == "join" for s in plan.steps)


class TestBruteForce:
    def test_triangle_counts_on_figure_pair(self):
        k3 = clique(3, root=0)
        for v in range(6):
            assert hom_count_brute(k3, G1, v) == 2
            assert hom_count_brute(k3, H1, v) == 0

    def test_edge_pattern_counts_degree(self):
        rng = random.Random(1)
        l1 = lpath(1)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 9), 0.4)
            for v in range(g.n):
                assert hom_count_brute(l1, g, v) == g.degree(v)

    def test_single_vertex_label_indicator(self):
        p = RootedPattern(build(1, [], labels=[1], gid="dot"), 0)
        g = build(3, [(0, 1)], labels=[1, 0, 1])
        assert [hom_count_brute(p, g, v) for v in range(3)] == [1, 0, 1]

    def test_anchor_discipline(self):
        with pytest.raises(ValueError):
            hom_count_brute(clique(3, root=0), G1)
        with pytest.raises(ValueError):
            hom_count_brute(clique(3), G1, 0)

    def test_anchor_out_of_range(self):
        k3 = clique(3, root=0)
        for anchor in (-1, -6, 6):
            with pytest.raises(ValueError, match="out of range"):
                hom_count_brute(k3, G1, anchor)
            with pytest.raises(ValueError, match="out of range"):
                inj_count(k3, G1, anchor)
            with pytest.raises(ValueError, match="out of range"):
                sub_count(k3, G1, anchor)

    def test_unrooted_scalar(self):
        assert hom_count_brute(clique(3), G1) == 12  # 2 triangles x 6 maps each
        assert hom_count_brute(clique(3), H1) == 0


# independent oracle: exhaustive map enumeration
def oracle_hom(pg: Graph, g: Graph, fix=None) -> int:
    count = 0
    for img in itertools.product(range(g.n), repeat=pg.n):
        if fix is not None and img[fix[0]] != fix[1]:
            continue
        if any(pg.labels[v] != g.labels[img[v]] for v in range(pg.n)):
            continue
        if all(g.has_edge(img[u], img[v]) for u, v in pg.edges):
            count += 1
    return count


class TestDpMatchesBrute:
    def test_small_grid(self):
        rng = random.Random(42)
        patterns = [clique(3, root=0), clique(4, root=1), cycle(4, root=0),
                    cycle(5, root=2), cycle(6, root=0), lpath(1), lpath(2), lpath(3)]
        for trial in range(25):
            g = random_graph(rng, rng.randrange(1, 10), rng.choice([0.3, 0.5]),
                             labels=rng.choice([1, 3]), gid=f"t{trial}")
            for p in patterns:
                vec = hom_count_dp(p, g)
                assert vec == tuple(
                    hom_count_brute(p, g, v) for v in range(g.n)
                ), f"mismatch for {p.id} on trial {trial}"

    def test_dp_against_exhaustive_oracle(self):
        rng = random.Random(9)
        for _ in range(15):
            g = random_graph(rng, rng.randrange(1, 6), 0.5, labels=2)
            p = cycle(4, root=0)
            vec = hom_count_dp(p, g)
            for v in range(g.n):
                assert vec[v] == oracle_hom(p.graph, g, fix=(p.root, v))

    def test_unrooted_dp(self):
        assert hom_count_dp(clique(3), G1) == 12
        assert hom_count_dp(cycle(4), H1) == hom_count_brute(cycle(4), H1)

    def test_component_additivity(self):
        rng = random.Random(13)
        for _ in range(10):
            a = random_graph(rng, rng.randrange(1, 7), 0.5, gid="a")
            b = random_graph(rng, rng.randrange(1, 7), 0.5, gid="b")
            union = build(
                a.n + b.n,
                list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges],
                gid="ab",
            )
            c4 = cycle(4)
            assert (
                hom_count_dp(c4, union)
                == hom_count_dp(c4, a) + hom_count_dp(c4, b)
            )

    def test_isomorphism_invariance(self):
        rng = random.Random(17)
        g = random_graph(rng, 8, 0.4, labels=2)
        perm = list(range(8))
        rng.shuffle(perm)
        h = g.relabeled(perm, "h")
        p = cycle(5, root=0)
        cg = hom_count_dp(p, g)
        ch = hom_count_dp(p, h)
        for v in range(8):
            assert cg[v] == ch[perm[v]]
        assert hom_count_dp(cycle(5), g) == hom_count_dp(cycle(5), h)

    def test_vertex_transitive_components_share_counts(self):
        # rooted 6-cycle counts are constant on each disjoint-cycle component
        from homcount.families import cycle_union_pair

        pair = cycle_union_pair(4)
        c6 = cycle(6, root=0)
        for g, comp_len in ((pair.g, 5), (pair.h, 6)):
            vec = hom_count_dp(c6, g)
            assert vec == tuple(
                hom_count_brute(c6, g, v) for v in range(g.n)
            )
            for base in range(0, g.n, comp_len):
                comp = vec[base:base + comp_len]
                assert len(set(comp)) == 1

    def test_molecule_style_fixtures_match_brute(self):
        # sparse labeled ring systems, short-cycle patterns
        rng = random.Random(29)
        cycles = [cycle(k, root=0) for k in range(3, 7)]
        for trial in range(12):
            n = rng.randrange(8, 13)
            edges = {(i - 1, i) for i in range(1, n)}
            for _ in range(rng.randrange(1, 4)):
                a = rng.randrange(n - 4)
                span = rng.choice([3, 4, 5])
                if a + span < n:
                    edges.add((a, a + span))
            labels = [rng.choice([0, 0, 1, 2]) for _ in range(n)]
            mol = build(n, sorted(edges), labels=labels, gid=f"mol{trial}")
            for pat in cycles:
                vec = hom_count_dp(pat, mol)
                assert vec == tuple(
                    hom_count_brute(pat, mol, v) for v in range(n)
                )

    def test_branching_decompositions_match_brute(self):
        # tree-shaped patterns; the spider's plans reach the join step, a DP
        # code path the clique/cycle/path grid never reaches
        star3 = RootedPattern(build(4, [(0, 1), (0, 2), (0, 3)], gid="star3"), 0)
        double_star = RootedPattern(
            build(6, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5)], gid="dstar"), 0
        )
        assert all(joins_at_width_one(RootedPattern(SPIDER.graph, r)) for r in range(7))
        rng = random.Random(47)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 9), rng.choice([0.3, 0.6]),
                             labels=rng.choice([1, 2]))
            for pat in (star3, SPIDER, double_star):
                vec = hom_count_dp(pat, g)
                assert vec == tuple(
                    hom_count_brute(pat, g, v) for v in range(g.n)
                )

    def test_every_root_of_k4(self):
        # rooted at 3, K4's plan introduces every vertex at digit 0 and reads
        # priors up to digit 2
        g = clique(5)
        for root in range(4):
            vec = hom_count_dp(clique(4, root=root), g)
            assert vec == (4 * 3 * 2,) * 5

    def test_labeled_patterns_match_oracle(self):
        rng = random.Random(53)
        tri = RootedPattern(build(3, [(0, 1), (1, 2), (0, 2)], labels=[0, 1, 1],
                                  gid="ltri"), 0)
        wedge = RootedPattern(build(3, [(0, 1), (1, 2)], labels=[1, 0, 1],
                                    gid="lwedge"), 1)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 7), 0.5, labels=2)
            for pat in (tri, wedge):
                vec = hom_count_dp(pat, g)
                for v in range(g.n):
                    assert vec[v] == oracle_hom(pat.graph, g, fix=(pat.root, v))

    def test_join_multiplicativity_at_every_anchor(self):
        rng = random.Random(23)
        pats = [clique(3, root=0), cycle(4, root=0), lpath(2)]
        for _ in range(10):
            g = random_graph(rng, rng.randrange(2, 8), 0.5)
            p, q = rng.choice(pats), rng.choice(pats)
            j = join(p, q)
            pj = hom_count_dp(j, g)
            pp = hom_count_dp(p, g)
            qq = hom_count_dp(q, g)
            assert pj == tuple(x * y for x, y in zip(pp, qq))


def oracle_inj(pg: Graph, root: int, g: Graph, anchor: int) -> int:
    count = 0
    for img in itertools.permutations(range(g.n), pg.n):
        if img[root] != anchor:
            continue
        if any(pg.labels[v] != g.labels[img[v]] for v in range(pg.n)):
            continue
        if all(g.has_edge(img[u], img[v]) for u, v in pg.edges):
            count += 1
    return count


def oracle_sub(p: RootedPattern, g: Graph, anchor: int) -> int:
    """Distinct (vertexset, edgeset) images of injective maps with root at anchor."""
    images = set()
    pg = p.graph
    for img in itertools.permutations(range(g.n), pg.n):
        if img[p.root] != anchor:
            continue
        if any(pg.labels[v] != g.labels[img[v]] for v in range(pg.n)):
            continue
        if all(g.has_edge(img[u], img[v]) for u, v in pg.edges):
            edges = frozenset(
                (min(img[u], img[v]), max(img[u], img[v])) for u, v in pg.edges
            )
            images.add((frozenset(img), edges))
    return len(images)


class TestInjectiveAndSubgraph:
    def test_triangle_inj_equals_hom(self):
        rng = random.Random(3)
        k3 = clique(3, root=0)
        for _ in range(10):
            g = random_graph(rng, rng.randrange(3, 8), 0.5)
            for v in range(g.n):
                assert inj_count(k3, g, v) == hom_count_brute(k3, g, v)

    def test_path_into_triangle(self):
        p = RootedPattern(build(3, [(0, 1), (1, 2)], gid="p3"), 0)
        k3g = clique(3)
        assert inj_count(p, k3g, 0) == 2

    def test_inj_matches_oracle(self):
        rng = random.Random(31)
        pats = [clique(3, root=0), cycle(4, root=1), lpath(2),
                RootedPattern(build(4, [(0, 1), (1, 2), (1, 3)], gid="star"), 0)]
        for _ in range(30):
            g = random_graph(rng, rng.randrange(2, 8), 0.5, labels=rng.choice([1, 2]))
            p = rng.choice(pats)
            got = hom_vector([p], g, "inj")[0]
            for v in range(g.n):
                assert got[v] == oracle_inj(p.graph, p.root, g, v)

    def test_sub_on_figure_graph(self):
        k3 = clique(3, root=0)
        for v in range(6):
            assert sub_count(k3, G1, v) == 1
            assert oracle_sub(k3, G1, v) == 1

    def test_sub_edge_is_degree(self):
        rng = random.Random(5)
        l1 = lpath(1)
        g = random_graph(rng, 7, 0.5)
        for v in range(g.n):
            assert sub_count(l1, g, v) == g.degree(v)

    def test_sub_matches_oracle_and_aut_identity(self):
        from homcount.algebra import automorphism_count

        rng = random.Random(37)
        pats = [clique(3, root=0), cycle(4, root=0), lpath(2), cycle(5, root=0)]
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 8), 0.5)
            p = rng.choice(pats)
            sv = hom_vector([p], g, "sub")[0]
            iv = hom_vector([p], g, "inj")[0]
            aut = automorphism_count(p)
            for v in range(g.n):
                assert sv[v] == oracle_sub(p, g, v)
                assert iv[v] == sv[v] * aut


    def test_automorphisms_counted_once_per_pattern(self, monkeypatch):
        import homcount.algebra as algebra

        searches = []
        real = algebra.count_maps

        def spy(*args, **kwargs):
            searches.append(kwargs.get("bijective", False))
            return real(*args, **kwargs)

        counting.count_plan.cache_clear()
        monkeypatch.setattr(algebra, "count_maps", spy)
        rng = random.Random(41)
        pats = [cycle(5, root=0), clique(3, root=0)]
        for _ in range(6):
            g = random_graph(rng, rng.randrange(3, 8), 0.5)
            for p in pats:
                hom_vector([p], g, "sub")[0]
        assert searches.count(True) == len(pats)


def labelled(k, edges, label, gid, root=0):
    """Rooted pattern on k vertices that all carry ``label``."""
    return RootedPattern(build(k, edges, labels=[label] * k, gid=gid), root)


def bench_patterns():
    """The molecule workload's patterns: K3, C4, C5, C6 on label 0, L2 on label 1."""
    rings = [labelled(k, [(i, (i + 1) % k) for i in range(k)], 0, "K3" if k == 3 else f"C{k}")
             for k in (3, 4, 5, 6)]
    return rings + [labelled(3, [(0, 1), (1, 2)], 1, "L2")]


class TestCountPlan:
    def test_shared_plan_matches_oracles(self):
        # the copy of C4 is rooted at vertex 2 of a relabelled 4-cycle
        copy = labelled(4, [(0, 2), (2, 1), (1, 3), (3, 0)], 0, "C4b", root=2)
        pats = bench_patterns() + [copy]
        assert len(counting.count_plan(tuple(pats), "sub").basis) == len(
            counting.count_plan(tuple(pats[:-1]), "sub").basis)
        rng = random.Random(53)
        for i in range(8):
            n = rng.randrange(3, 7)
            g = random_graph(rng, n, 0.6, gid=f"r{i}")
            g = Graph(g.id, n, tuple(rng.choice((0, 0, 0, 1)) for _ in range(n)), g.edges)
            hom, inj, sub = (hom_vector(pats, g, mode) for mode in ("hom", "inj", "sub"))
            for j, p in enumerate(pats):
                for v in range(n):
                    assert hom[j][v] == hom_count_brute(p, g, v)
                    assert inj[j][v] == oracle_inj(p.graph, p.root, g, v)
                    assert sub[j][v] == oracle_sub(p, g, v)
                assert len(hom[j]) == len(inj[j]) == len(sub[j]) == n

    @pytest.mark.parametrize("mode,per_graph", [("sub", 24), ("hom", 5)])
    def test_one_dp_per_basis_pattern(self, monkeypatch, mode, per_graph):
        from homcount.pipeline import compute_features

        calls = []
        real = counting._run_dp_dict

        def spy(plan, g):
            calls.append(g.id)
            return real(plan, g)

        monkeypatch.setattr(counting, "_run_dp_dict", spy)
        rng = random.Random(59)
        graphs = [random_graph(rng, 8, 0.4, labels=2, gid=f"m{i}") for i in range(3)]
        compute_features(graphs, bench_patterns(), mode=mode)
        assert len(calls) == per_graph * len(graphs)
        assert all(calls.count(g.id) == per_graph for g in graphs)

    def test_basis_overflow_flags_its_graph_only(self, monkeypatch):
        # an overflowing basis count alone no longer fails a graph; only an
        # overflowing returned count does. Scaling the bad graph's basis
        # counts by MAX_COUNT scales every count formed from them, so any
        # anchor sum of 2 or more passes the ceiling, and the whole
        # hom_vector fails; the export flags that graph's rows NA and keeps
        # the other's
        from homcount.pipeline import compute_features

        pats = bench_patterns()
        rng = random.Random(61)
        g, other = (random_graph(rng, 7, 0.5, labels=2, gid=gid) for gid in ("bad", "ok"))
        clean = compute_features([other], pats, mode="sub").rows
        real = counting._run_dp_dict

        def scaled(dp_plan, graph):
            counts = real(dp_plan, graph)
            return tuple(c * MAX_COUNT for c in counts) if graph.id == "bad" else counts

        monkeypatch.setattr(counting, "_run_dp_dict", scaled)
        with pytest.raises(CountOverflowError):
            hom_vector(pats, g, "sub")
        table = compute_features([g, other], pats, mode="sub")
        assert table.overflowed_graphs == ["bad"]
        assert table.rows[:g.n] == [("bad", v, g.labels[v], None) for v in range(g.n)]
        assert table.rows[g.n:] == clean

    def test_combined_count_checked_before_division(self, monkeypatch):
        # each basis count fits, but C4's injective sum (its hom count, minus
        # those of its two rooted P3 quotients, plus that of K2) is
        # MAX_COUNT + 1 at anchor 0 and 0 elsewhere, which divided by its 2
        # automorphisms would fit
        def huge(plan, g):
            vertices = 1 + sum(step.kind == "forget" for step in plan.steps)
            c = {4: MAX_COUNT, 2: 1}.get(vertices, 0)
            return (c,) + (0,) * (g.n - 1)

        monkeypatch.setattr(counting, "_run_dp_dict", huge)
        c4 = cycle(4, root=0)
        with pytest.raises(CountOverflowError):
            hom_vector([c4], G1, "sub")
        with pytest.raises(CountOverflowError):
            sub_count(c4, G1, 0)

    def test_combine_checks_before_division(self):
        # MAX_COUNT + 1 is over the ceiling, though its half is not
        with pytest.raises(CountOverflowError):
            counting._combine([((MAX_COUNT, 0), 1), ((1, 0), 1)], 2)
        assert counting._combine([((MAX_COUNT - 2, 0), 1), ((1, 0), 1)], 2) == (
            (MAX_COUNT - 1) // 2, 0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            hom_vector([clique(3, root=0)], G1, mode="iso")


class TestVectorAndMatrix:
    def test_fig1_triangle_column(self):
        vecs = hom_vector([clique(3, root=0)], G1)
        assert vecs[0] == (2,) * 6

    def test_empty_pattern_set(self):
        from homcount.pipeline import compute_features

        assert hom_vector([], G1) == []
        table = compute_features([G1, H1], [])
        assert table.pattern_ids == ()
        rows = [row for row in table.rows if row[0] == "g1"]
        assert len(rows) == 6
        assert rows[0][3] == ()

    def test_mode_sub(self):
        vecs = hom_vector([clique(3, root=0)], G1, mode="sub")
        assert vecs[0] == (1,) * 6

    def test_overflow_boundary(self):
        from homcount.counting import _check

        assert _check(MAX_COUNT) == MAX_COUNT
        with pytest.raises(CountOverflowError):
            _check(MAX_COUNT + 1)

    @pytest.mark.parametrize("kernel", ["arrays", "dicts"])
    def test_rooted_total_checked(self, monkeypatch, kernel):
        # rooted K2 on K4 counts 3 at each anchor and 12 in all: the anchors
        # fit under a ceiling of 11, the total does not
        if kernel == "arrays":
            monkeypatch.setattr(counting, "ARRAY_MIN_ENTRIES", 0)
        monkeypatch.setattr(counting, "MAX_COUNT", 11)
        assert uses_arrays(lpath(1), complete(4)) == (kernel == "arrays")
        assert (arrays if kernel == "arrays" else dicts)(lpath(1), complete(4)) == (3,) * 4
        with pytest.raises(CountOverflowError):
            hom_count_dp(lpath(1), complete(4))

    def test_overflow_raised_to_the_caller(self, monkeypatch):
        from homcount.pipeline import compute_features

        real = counting._run_dp_dict

        def scaled(plan, g):  # every count K3 returns on g1 is then over the ceiling
            return tuple(c * MAX_COUNT for c in real(plan, g))

        monkeypatch.setattr(counting, "_run_dp_dict", scaled)
        k3 = clique(3, root=0)
        for mode in ("hom", "inj", "sub"):
            with pytest.raises(CountOverflowError):
                hom_vector([k3], G1, mode)
        for count in (inj_count, sub_count):
            with pytest.raises(CountOverflowError):
                count(k3, G1, 0)
        table = compute_features([G1], [k3])
        assert table.overflowed_graphs == ["g1"]
        assert all(row[3] is None for row in table.rows) and len(table.rows) == 6

    def test_determinism(self):
        rng = random.Random(2)
        g = random_graph(rng, 9, 0.4, labels=2)
        pats = [clique(3, root=0), cycle(4, root=0), lpath(2)]
        a = hom_vector(pats, g)
        b = hom_vector(pats, g)
        assert a == b


@st.composite
def graphs_strategy(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1 if pairs else 0))
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    labs = [draw(st.integers(min_value=0, max_value=1)) for _ in range(n)]
    return build(n, edges, labels=labs, gid="hg")


class TestCountingProperties:
    @given(graphs_strategy())
    @settings(max_examples=60, deadline=None)
    def test_dp_equals_brute_everywhere(self, g):
        for p in (clique(3, root=0), cycle(4, root=0), lpath(2)):
            vec = hom_count_dp(p, g)
            assert vec == tuple(hom_count_brute(p, g, v) for v in range(g.n))

    @given(graphs_strategy(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_unrooted_equals_anchor_sum(self, g):
        p = cycle(4, root=0)
        total = hom_count_dp(cycle(4), g)
        assert total == sum(hom_count_brute(p, g, v) for v in range(g.n))


def checks_what_it_returns(count, expected, returned):
    """``count()`` gives ``expected`` under a ceiling of ``returned``, the
    value it must check, and raises CountOverflowError under one just below."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(counting, "MAX_COUNT", returned)
        assert count() == expected
        if returned:
            m.setattr(counting, "MAX_COUNT", returned - 1)
            with pytest.raises(CountOverflowError):
                count()


@st.composite
def connected_graphs(draw, max_n):
    k = draw(st.integers(min_value=1, max_value=max_n))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, k)]
    extra = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=3))
    labs = [draw(st.sampled_from((0, 0, 0, 1))) for _ in range(k)]
    return build(k, sorted({(min(e), max(e)) for e in tree + extra}), labels=labs, gid="pat")


@st.composite
def rooted_patterns(draw):
    """A rooted pattern on at most 5 vertices and a permutation of them."""
    pg = draw(connected_graphs(5))
    root = draw(st.integers(min_value=0, max_value=pg.n - 1))
    return RootedPattern(pg, root), draw(st.permutations(range(pg.n)))


@st.composite
def plain_patterns(draw):
    """A plain pattern of 1 to 3 components, 5 vertices in all at most, and a
    permutation of its vertices."""
    edges, labs = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if len(labs) < 5:
            part = draw(connected_graphs(5 - len(labs)))
            edges += [(u + len(labs), v + len(labs)) for u, v in part.edges]
            labs += part.labels
    perm = draw(st.permutations(range(len(labs))))
    return build(len(labs), edges, labels=labs, gid="plain"), perm


STAR6 = build(7, [(0, v) for v in range(1, 7)], gid="k1_6")


def labelled_star(leaves, b_leaf):
    """K1,leaves rooted at its centre, every vertex labelled 0 but ``b_leaf``."""
    labs = [int(v == b_leaf) for v in range(leaves + 1)]
    return RootedPattern(build(leaves + 1, [(0, v) for v in range(1, leaves + 1)], labs), 0)


class TestCheckedReturns:
    """A function checks the counts it returns, and nothing else: the answer
    does not depend on the order the DP forms it in."""

    # the other leaves' partial count 6**3 is positive before the b leaf zeroes it
    @example(STAR6, (labelled_star(4, b_leaf=1), [0, 1, 2, 3, 4]))
    @given(graphs_strategy(), rooted_patterns())
    @settings(max_examples=60, deadline=None)
    def test_rooted_dp_raises_exactly_when_its_anchor_sum_does(self, g, drawn):
        pattern, perm = drawn
        relabelled = RootedPattern(pattern.graph.relabeled(perm), perm[pattern.root])
        for p in (pattern, relabelled):
            counts = tuple(hom_count_brute(p, g, v) for v in range(g.n))
            checks_what_it_returns(lambda: hom_count_dp(p, g), counts, sum(counts))

    # P4 counts 72 on K1,6, and the isolated label-1 vertex 0
    @example(STAR6, (build(5, [(0, 1), (1, 2), (2, 3)], labels=[0, 0, 0, 0, 1]), range(5)))
    @given(graphs_strategy(), plain_patterns())
    @settings(max_examples=60, deadline=None)
    def test_plain_dp_raises_exactly_when_its_product_does(self, g, drawn):
        pattern, perm = drawn
        for p in (pattern, pattern.relabeled(list(perm))):
            total = hom_count_brute(p, g)
            checks_what_it_returns(lambda: hom_count_dp(p, g), total, total)

    @pytest.mark.parametrize("b_leaf", range(1, 13))
    def test_star_with_a_b_leaf_counts_zero(self, b_leaf):
        # partial counts of the label-0 leaves reach 3000**11 > 2**127 - 1
        # at the centre, unless the b leaf zeroes them first
        star = build(3001, [(0, v) for v in range(1, 3001)], gid="star")
        assert hom_count_dp(labelled_star(12, b_leaf), star) == (0,) * 3001


# --- DP plans -------------------------------------------------------------------


def atlas_patterns():
    """Every connected graph of the networkx atlas on 1 to 6 vertices, at every root."""
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if 1 <= n <= 6 and nx.is_connected(h):
            g = build(n, list(h.edges()))
            yield from (RootedPattern(g, root) for root in range(n))


def bench_base_patterns():
    """The quotient classes of C3-C8, L1-L7, K4, K5 and the bowtie, each
    rooted at vertex 0 as the bench roots them."""
    bowtie = RootedPattern(build(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]), 0)
    bases = ([cycle(k, root=0) for k in range(3, 9)] + [lpath(k) for k in range(1, 8)]
             + [clique(4, root=0), clique(5, root=0), bowtie])
    for p in bases:
        yield from (q for _, q in quotient_classes(p))


PLAN_CORPORA = {"atlas": atlas_patterns, "bench": bench_base_patterns}


def check_plan(plan, pg):
    """A plan's steps over pattern graph ``pg`` form one binary tree in
    postorder whose bag sizes move as each step kind says."""
    sizes: list[int] = []
    parents = [0] * len(plan.steps)
    for i, step in enumerate(plan.steps):
        assert all(c < i for c in step.children)
        for c in step.children:
            parents[c] += 1
        below = [sizes[c] for c in step.children]
        if step.kind == "leaf":
            assert step.size == 0 and step.children == ()
        elif step.kind == "introduce":
            (child,) = below
            assert step.size == child + 1 and 0 <= step.pos < step.size
            priors = step.prior_positions
            assert list(priors) == sorted(set(priors)) and all(0 <= q < child for q in priors)
        elif step.kind == "forget":
            (child,) = below
            assert step.size == child - 1 and 0 <= step.pos < child
        else:
            assert step.kind == "join" and below == [step.size, step.size]
        sizes.append(step.size)
    assert parents == [1] * (len(sizes) - 1) + [0]
    assert sizes[-1] == 1
    assert plan.largest_bag == max(sizes) == treewidth(pg)[0] + 1
    assert [step.kind for step in plan.steps].count("forget") == pg.n - 1


class TestDpPlan:
    # SHA-256 of the newline-joined repr(_dp_plan(p)) over each corpus, in order
    PLAN_DIGESTS = {
        "atlas": "37aaa4a89dbbd523cec9352ec9dac2c80f893ac847833f7df7238f7efab08a3a",
        "bench": "4b37460633f5733f62b08860f65951af18f180a393ddb454b74dc82c1d549394",
    }

    @pytest.mark.parametrize("corpus", sorted(PLAN_CORPORA))
    def test_plans_are_valid(self, corpus):
        for p in PLAN_CORPORA[corpus]():
            check_plan(_dp_plan(p), p.graph)

    @pytest.mark.parametrize("corpus", sorted(PLAN_CORPORA))
    def test_plans_pinned(self, corpus):
        text = "\n".join(repr(_dp_plan(p)) for p in PLAN_CORPORA[corpus]())
        assert hashlib.sha256(text.encode()).hexdigest() == self.PLAN_DIGESTS[corpus]

    def test_triangle_forced_shape(self):
        kinds = [step.kind for step in _dp_plan(clique(3, root=0)).steps]
        assert kinds == ["leaf"] + ["introduce"] * 3 + ["forget"] * 2

    @given(connected_graphs(10), st.integers(min_value=0))
    @settings(max_examples=60, deadline=None)
    def test_random_patterns_valid(self, pg, root):
        plan = _dp_plan(RootedPattern(pg, root % pg.n))
        check_plan(plan, pg)
        assert len(plan.steps) <= 6 * (plan.largest_bag + 1) * (pg.n + 2)


# --- the int64 array kernel and the dispatch between the two kernels -----------


BRANCHING = (  # tree patterns; the spider's plans join
    RootedPattern(build(4, [(0, 1), (0, 2), (0, 3)], gid="star3"), 0),
    SPIDER,
    RootedPattern(build(6, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5)], gid="dstar"), 0),
)
KERNEL_PATTERNS = BRANCHING + (clique(3, root=0), clique(4, root=1), cycle(5, root=2), lpath(3))


def arrays(pat, g):
    (counts,) = dp_arrays.run_dp(_dp_plan(pat), dp_arrays.Blocks([g]))
    return counts


def dicts(pat, g):
    return _run_dp_dict(_dp_plan(pat), g)


def uses_arrays(pat, g):
    ((_, (on_arrays,)),) = counting._batches([pat], [g])
    return on_arrays


def reroot(pat, root):
    return RootedPattern(pat.graph, root)


class TestArrayKernel:
    """``dp_arrays.run_dp`` called directly, so the size dispatch cannot hide it."""

    def test_rooted_unrooted_and_join_steps_match_brute(self):
        assert joins_at_width_one(reroot(SPIDER, 0))
        rng = random.Random(61)
        for trial in range(25):
            g = random_graph(rng, rng.randrange(1, 9), rng.choice([0.3, 0.6]),
                             labels=rng.choice([1, 2]))
            for pat in KERNEL_PATTERNS:
                brute = tuple(hom_count_brute(pat, g, v) for v in range(g.n))
                assert arrays(pat, g) == brute
                assert sum(arrays(reroot(pat, 0), g)) == hom_count_brute(pat.graph, g)

    @given(graphs_strategy())
    @settings(max_examples=60, deadline=None)
    def test_equals_dict_kernel(self, g):
        for pat in KERNEL_PATTERNS + (cycle(6, root=0),):
            for root in (pat.root, 0):
                assert arrays(reroot(pat, root), g) == dicts(reroot(pat, root), g)

    def test_one_entry_chunks(self, monkeypatch):
        # every introduce split at every entry: the path of tables past one chunk
        monkeypatch.setattr(dp_arrays, "CHUNK", 1)
        rng = random.Random(67)
        for _ in range(15):
            g = random_graph(rng, rng.randrange(1, 9), 0.5, labels=2)
            for pat in KERNEL_PATTERNS:
                for root in (pat.root, 0):
                    assert arrays(reroot(pat, root), g) == dicts(reroot(pat, root), g)

    def test_counts_are_python_ints(self):
        counts = arrays(cycle(4, root=0), G1)
        assert counts and all(type(c) is int for c in counts)
        assert all(type(c) is int for c in hom_count_dp(cycle(4, root=0), G1))
        assert type(hom_count_dp(clique(3), G1)) is int


def complete(n, gid="kn"):
    return build(n, list(itertools.combinations(range(n), 2)), gid=gid)


def path_graph(k):
    """Unrooted path on k vertices."""
    return build(k, [(i, i + 1) for i in range(k - 1)], gid=f"p{k}")


def molecule_graphs(rng, count, sizes=(40, 40)):
    """Molecule-like graphs: rings of n atoms in range ``sizes`` with n / 5
    chords, three labels."""
    out = []
    for i in range(count):
        n = rng.randint(*sizes)
        edges = {(j - 1, j) for j in range(1, n)} | {(0, n - 1)}
        while len(edges) < n + n // 5:
            a, b = sorted(rng.sample(range(n), 2))
            edges.add((a, b))
        out.append(build(n, sorted(edges), labels=[rng.randrange(3) for _ in range(n)],
                         gid=f"mol{i}"))
    return out


def forbid(monkeypatch, module, kernel):
    monkeypatch.setattr(module, kernel, lambda *args: pytest.fail(f"{kernel} ran"))


class TestDispatch:
    def test_int64_bound_at_the_boundary(self, monkeypatch):
        # hom(P_k, K_n) = n (n-1)^(k-1), (n-1)^(k-1) at each end vertex. On
        # K_100 the bound n * 99^(k-1) reaches 2^63 at k = 10, where the total
        # is 9.1e19 > 2^63. The size estimate is switched off, so that only
        # the bound decides.
        monkeypatch.setattr(counting, "ARRAY_MIN_ENTRIES", 0)
        kn = complete(100)
        for k, bounded in ((9, True), (10, False)):
            pg = path_graph(k)
            for root in (0, k - 1):
                assert uses_arrays(RootedPattern(pg, root), kn) == bounded
            with monkeypatch.context() as m:
                if bounded:
                    forbid(m, counting, "_run_dp_dict")
                else:
                    forbid(m, dp_arrays, "run_dp")
                assert hom_count_dp(pg, kn) == 100 * 99 ** (k - 1)
                vec = hom_count_dp(RootedPattern(pg, 0), kn)
                assert vec == (99 ** (k - 1),) * 100
                assert sum(vec) == 100 * 99 ** (k - 1)
        assert 100 * 99**9 > 1 << 63

    def test_dense_arrays_bound_the_graph_size(self):
        # n**2 and n**(largest bag - 1) must stay within DENSE_LIMIT = 2**20
        def circulant(n, reach=10):
            return build(n, sorted({tuple(sorted((v, (v + j) % n)))
                                    for v in range(n) for j in range(1, reach + 1)}))

        p8 = RootedPattern(path_graph(8), 0)  # largest bag 2
        assert uses_arrays(p8, circulant(1024))
        assert not uses_arrays(p8, circulant(1025))
        k4 = clique(4, root=0)  # largest bag 4
        assert uses_arrays(k4, complete(101))
        assert not uses_arrays(k4, complete(102))

    def test_small_tables_on_a_large_graph_take_dict_path(self):
        # like the benchmark's graph: C3 and C4 save less than importing numpy
        rng = random.Random(73)
        edges = set()
        while len(edges) < 3000:
            a, b = sorted(rng.sample(range(1000), 2))
            edges.add((a, b))
        g = build(1000, sorted(edges))
        for k, large in ((3, False), (4, False), (5, True), (6, True), (7, True)):
            assert uses_arrays(cycle(k, root=0), g) == large, k

    @pytest.mark.parametrize("kernel", ["arrays", "dicts"])
    def test_disconnected_pattern_is_product_of_components(self, monkeypatch, kernel):
        # an unrooted count multiplies its components' anchor sums
        if kernel == "arrays":
            monkeypatch.setattr(counting, "ARRAY_MIN_ENTRIES", 0)
        else:
            forbid(monkeypatch, dp_arrays, "run_dp")
        patterns = [
            build(4, [(0, 1), (2, 3)], gid="2k2"),
            build(5, [(0, 1), (1, 2), (0, 2), (3, 4)], gid="k3+k2"),
            build(3, [(0, 1)], gid="k2+k1"),
            build(2, [], gid="2k1"),
            build(0, [], gid="empty"),
        ]
        rng = random.Random(83)
        graphs = [build(0, [], gid="e")]
        graphs += [random_graph(rng, rng.randrange(1, 7), 0.5, labels=rng.choice([1, 2]))
                   for _ in range(15)]
        for g in graphs:
            for pg in patterns:
                assert hom_count_dp(pg, g) == hom_count_brute(pg, g), (pg.id, g.n)
        kn = complete(100)
        assert hom_count_dp(patterns[0], kn) == (2 * len(kn.edges)) ** 2

    def test_molecule_and_family_inputs_take_dict_path(self):
        from homcount.algebra import spasm
        from homcount.families import bowtie_pattern, cfi_pair, cycle_union_pair

        rng = random.Random(71)
        molecules = molecule_graphs(rng, 20)  # the largest molecule size
        pairs = [cycle_union_pair(7), cfi_pair(clique(4, root=0))]
        families = [g for pair in pairs for g in (pair.g, pair.h)]
        patterns = [clique(3, root=0), clique(4, root=0), bowtie_pattern()]
        patterns += [cycle(k, root=0) for k in range(3, 9)]
        patterns += list(spasm(cycle(6, root=0)))
        for g in molecules + families:
            for pat in patterns:
                assert not uses_arrays(pat, g), (g.id, pat.id)

    def test_features_run_does_not_import_numpy(self, tmp_path):
        # features on two fixtures, and count, both refinement variants and
        # witness as the families benchmark runs them, in one process
        import json
        import os
        import subprocess
        import sys

        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(g.to_record()) + "\n" for g in (G1, H1)))
        g_file, h_file = tmp_path / "g.jsonl", tmp_path / "h.jsonl"
        g_file.write_text(json.dumps(G1.to_record()) + "\n")
        h_file.write_text(json.dumps(H1.to_record()) + "\n")
        pats, k3 = tmp_path / "pats.json", tmp_path / "k3.json"
        pats.write_text(json.dumps([clique(3, root=0).to_record(), cycle(4, root=0).to_record()]))
        k3.write_text(json.dumps([clique(3, root=0).to_record()]))
        d, g, h, p = (str(x) for x in (data, g_file, h_file, pats))
        argvs = [
            ["features", d, "--patterns", p, "--output", str(tmp_path / "out.csv")],
            ["features", d, "--patterns", p, "--mode", "sub", "--normalize", "log-z"],
            ["count", "--pattern", p, "--graph", g, "--mode", "sub"],
            ["wl", g, h, "--variant", "fwl", "--patterns", p],
            ["wl", g, h, "--variant", "kwl", "--k", "2"],
            ["witness", g, h, "--patterns", str(k3)],
        ]
        script = (
            "import contextlib, io, sys\n"
            "from homcount.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            "print(*codes, 'numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.split() == ["0"] * len(argvs) + ["False"]
        assert (tmp_path / "out.csv").read_text().count("g1,") == 6

    def test_single_thread_features_run_does_not_import_the_process_pool(self, tmp_path):
        # the pool, and multiprocessing with it, loads only when a run has several workers
        import json
        import os
        import subprocess
        import sys

        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(g.to_record()) + "\n" for g in (G1, H1)))
        pats = tmp_path / "pats.json"
        pats.write_text(json.dumps([clique(3, root=0).to_record()]))
        argv = ["features", str(data), "--patterns", str(pats), "--threads", "1"]
        script = (
            "import contextlib, io, sys\n"
            "from homcount.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'concurrent.futures.process' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.split() == ["0", "False"]


# --- batches: one array DP per basis pattern over many graphs -------------------


def with_labels(pattern, labels, gid):
    """``pattern`` (rooted) with vertex labels ``labels``."""
    pg = pattern.graph
    return RootedPattern(Graph(gid, pg.n, tuple(labels), pg.edges), pattern.root)


def per_graph_dicts(pat, graphs):
    return [_run_dp_dict(_dp_plan(pat), g) for g in graphs]


def batched(pat, graphs):
    return dp_arrays.run_dp(_dp_plan(pat), dp_arrays.Blocks(graphs))


def mixed_batch(rng):
    """Labels 0 to 2 spread unevenly, isolated vertices, n = 0 and n = 1
    graphs and disconnected graphs, in one batch."""
    graphs = [
        build(0, [], gid="empty"),
        build(1, [], labels=[2], gid="dot"),
        build(5, [], labels=[0, 1, 0, 1, 0], gid="isolated"),
        build(7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)], labels=[0] * 7, gid="k3+p3+k1"),
        build(0, [], gid="empty2"),
    ]
    for i in range(6):
        graphs.append(random_graph(rng, rng.randrange(1, 10), rng.choice([0.2, 0.5, 0.8]),
                                   labels=rng.choice([1, 2, 3]), gid=f"r{i}"))
    return graphs


BATCH_PATTERNS = KERNEL_PATTERNS + (
    cycle(6, root=0),
    with_labels(clique(3, root=0), [0, 1, 0], "k3-010"),
    with_labels(cycle(4, root=0), [1, 0, 1, 0], "c4-1010"),
    with_labels(lpath(2), [2, 0, 1], "l2-201"),
    with_labels(lpath(2), [0, 5, 0], "l2-absent"),  # label 5 is in no graph
    with_labels(RootedPattern(build(1, []), 0), [2], "dot-2"),
)


class TestBatchedKernel:
    """``dp_arrays.run_dp`` on a batch equals every graph's own DP."""

    def test_mixed_batch_matches_brute_and_dicts(self):
        rng = random.Random(89)
        for trial in range(6):
            graphs = mixed_batch(rng)
            rng.shuffle(graphs)
            for pat in BATCH_PATTERNS:
                want = per_graph_dicts(pat, graphs)
                assert batched(pat, graphs) == want, pat.id
                assert want == [tuple(hom_count_brute(pat, g, v) for v in range(g.n))
                                for g in graphs], pat.id

    def test_absent_label_gives_zeros(self):
        graphs = mixed_batch(random.Random(97))
        got = batched(BATCH_PATTERNS[-2], graphs)
        assert got == [(0,) * g.n for g in graphs]
        assert [len(c) for c in got] == [g.n for g in graphs]

    def test_one_entry_chunks(self, monkeypatch):
        monkeypatch.setattr(dp_arrays, "CHUNK", 1)
        graphs = mixed_batch(random.Random(101))
        for pat in BATCH_PATTERNS:
            assert batched(pat, graphs) == per_graph_dicts(pat, graphs), pat.id

    def test_counts_are_python_ints(self):
        got = batched(cycle(4, root=0), [G1, H1])
        assert got == [hom_count_dp(cycle(4, root=0), G1), hom_count_dp(cycle(4, root=0), H1)]
        assert all(type(c) is int for counts in got for c in counts)

    @given(st.lists(graphs_strategy(), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_each_graph_alone(self, graphs):
        for pat in (clique(3, root=0), cycle(4, root=0), cycle(5, root=2),
                    BRANCHING[1], with_labels(lpath(2), [1, 0, 1], "l2-101")):
            assert batched(pat, graphs) == [batched(pat, [g])[0] for g in graphs]


def spy(monkeypatch, module, name):
    """Wrap ``module.name`` to record its arguments; returns the record."""
    calls = []
    real = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestBatchDispatch:
    def test_hom_vectors_equals_hom_vector_per_graph(self, monkeypatch):
        monkeypatch.setattr(counting, "ARRAY_MIN_ENTRIES", 0)
        runs = spy(monkeypatch, dp_arrays, "run_dp")
        graphs = mixed_batch(random.Random(103))
        pats = [clique(3, root=0), cycle(5, root=0), with_labels(lpath(2), [0, 5, 0], "absent")]
        for mode in ("hom", "inj", "sub"):
            got = counting.hom_vectors(pats, graphs, mode)
            assert got == [hom_vector(pats, g, mode) for g in graphs]
        assert any(blocks.m == len(graphs) for _, blocks in runs)

    def test_molecule_sized_dataset_takes_batched_arrays(self, monkeypatch):
        # no threshold lowered: a few hundred molecules batch on their own
        runs = spy(monkeypatch, dp_arrays, "run_dp")
        graphs = molecule_graphs(random.Random(107), 150, sizes=(15, 40))
        pats = [clique(3, root=0), cycle(5, root=0), cycle(6, root=0)]
        got = counting.hom_vectors(pats, graphs, "sub")
        assert runs and all(blocks.m == len(graphs) for _, blocks in runs)
        with monkeypatch.context() as m:
            forbid(m, dp_arrays, "run_dp")
            assert got == [hom_vector(pats, g, "sub") for g in graphs]

    def test_batches_split_at_the_dense_limit(self, monkeypatch):
        # 32-vertex graphs and bags of at most 3: 1024 * 32**2 == DENSE_LIMIT
        monkeypatch.setattr(counting, "ARRAY_MIN_ENTRIES", 0)
        runs = spy(monkeypatch, dp_arrays, "run_dp")
        rng = random.Random(109)
        graphs = [random_graph(rng, 32, 0.1, labels=2, gid=f"g{i}") for i in range(1025)]
        pat = cycle(4, root=0)
        batches = list(counting._batches([pat], graphs))
        assert [(len(b), flags) for b, flags in batches] == [(1024, [True]), (1, [True])]
        got = counting.hom_vectors([pat], graphs)
        assert [(blocks.m, blocks.R) for _, blocks in runs] == [(1024, 32), (1, 32)]
        assert 1024 * 32**2 == counting.DENSE_LIMIT
        assert got == [[c] for c in per_graph_dicts(pat, graphs)]

    def test_graph_over_the_int64_bound_runs_alone_on_dicts(self, monkeypatch):
        # hom(P_10, K_100) at an end vertex is 99**9, and 100 * 99**9 > 2**63,
        # so K_100 runs on dicts between two array batches
        monkeypatch.setattr(counting, "ARRAY_MIN_ENTRIES", 0)
        runs = spy(monkeypatch, dp_arrays, "run_dp")
        dict_runs = spy(monkeypatch, counting, "_run_dp_dict")
        rng = random.Random(113)
        small = [random_graph(rng, 8, 0.4, gid=f"s{i}") for i in range(6)]
        kn = complete(100, gid="k100")
        graphs = small[:3] + [kn] + small[3:]
        pat = lpath(9)
        batches = list(counting._batches([pat], graphs))
        assert [([g.id for g in b], flags) for b, flags in batches] == [
            (["s0", "s1", "s2"], [True]), (["k100"], [False]), (["s3", "s4", "s5"], [True])]
        got = counting.hom_vectors([pat], graphs)
        assert [blocks.m for _, blocks in runs] == [3, 3]
        assert [g.id for _, g in dict_runs] == ["k100"]
        assert got[3] == [(99**9,) * 100]
        assert got == [[c] for c in per_graph_dicts(pat, graphs)]
