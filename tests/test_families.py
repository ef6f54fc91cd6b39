import pytest

import homcount.families as families
from homcount.counting import hom_count_brute, hom_count_dp
from homcount.families import (
    bowtie_pattern,
    cfi_pair,
    clique_graph,
    clique_pattern,
    cycle_graph,
    cycle_hierarchy_pair,
    cycle_pattern,
    cycle_union_pair,
    delayed_triangle_pair,
    expected_cfi_size,
    path_pattern,
    wl_equivalent_triangle_pair,
)
from homcount.graphs import SizeGuardError, canonical_code, is_isomorphic
from homcount.refinement import f_wl, graph_verdict, k_wl, wl_refine

FIG1_G_CODE = "5500000006000000000000000000000000000000000000000000000000b464"
FIG1_H_CODE = "55000000060000000000000000000000000000000000000000000000000967"
FIG2_G_CODE = (
    "550000000900000000000000000000000000000000000000000000000000"
    "00000000000000000000001904068b0c"
)
FIG2_H_CODE = (
    "550000000900000000000000000000000000000000000000000000000000"
    "0000000000000000000000521801ab04"
)


class TestTrianglePairFixture:
    def test_golden_codes_are_bit_stable(self):
        pair = wl_equivalent_triangle_pair()
        assert canonical_code(pair.g).hex() == FIG1_G_CODE
        assert canonical_code(pair.h).hex() == FIG1_H_CODE

    def test_triangle_counts(self):
        pair = wl_equivalent_triangle_pair()
        k3 = clique_pattern(3)
        assert hom_count_dp(k3, pair.g) == (2,) * 6
        assert hom_count_dp(k3, pair.h) == (0,) * 6

    def test_plain_refinement_blind(self):
        pair = wl_equivalent_triangle_pair()
        a, b = wl_refine(pair.g, pair.h)
        assert not graph_verdict(a, b).distinguished

    def test_triangle_feature_separates_at_round_zero(self):
        pair = wl_equivalent_triangle_pair()
        _, _, verdict = f_wl(pair.g, pair.h, [clique_pattern(3)])
        assert verdict.distinguished and verdict.at_round == 0


class TestDelayedTrianglePairFixture:
    def test_golden_codes_are_bit_stable(self):
        pair = delayed_triangle_pair()
        assert canonical_code(pair.g).hex() == FIG2_G_CODE
        assert canonical_code(pair.h).hex() == FIG2_H_CODE

    def test_round_timing(self):
        pair = delayed_triangle_pair()
        _, _, verdict = f_wl(pair.g, pair.h, [clique_pattern(3)])
        assert verdict.distinguished and verdict.at_round == 1

    def test_marked_vertices_not_on_triangles(self):
        pair = delayed_triangle_pair()
        k3 = clique_pattern(3)
        v, w = pair.marked
        assert hom_count_brute(k3, pair.g, v) == 0
        assert hom_count_brute(k3, pair.h, w) == 0

    def test_meta(self):
        pair = delayed_triangle_pair()
        assert pair.meta("g2")["marked_vertex"] == 4
        assert pair.meta("h2")["family"] == "fig2"


class TestCycleUnionFamily:
    def test_m3_shapes(self):
        pair = cycle_union_pair(3)
        assert pair.g.n == pair.h.n == 4 * 5
        # 5 copies of C4 / 4 copies of C5, all vertices degree 2
        assert all(pair.g.degree(v) == 2 for v in range(pair.g.n))
        assert all(pair.h.degree(v) == 2 for v in range(pair.h.n))

    def test_counts_differ_on_next_cycle(self):
        # numeric ground truth from brute force, not a closed form
        pair = cycle_union_pair(3)
        assert hom_count_brute(cycle_graph(4), pair.g) == 160
        assert hom_count_brute(cycle_graph(4), pair.h) == 120
        pair4 = cycle_union_pair(4)
        assert hom_count_brute(cycle_graph(5), pair4.g) == 60
        assert hom_count_brute(cycle_graph(5), pair4.h) == 0

    def test_small_patterns_blind(self):
        pair = cycle_union_pair(3)
        pats = [clique_pattern(2), clique_pattern(3)]
        _, _, verdict = f_wl(pair.g, pair.h, pats)
        assert not verdict.distinguished

    def test_guard(self):
        with pytest.raises(ValueError):
            cycle_union_pair(2)


class TestCycleHierarchyFamily:
    def test_k4_shapes(self):
        pair = cycle_hierarchy_pair(4)
        assert pair.g.n == pair.h.n == 20
        comp_g = pair.g.n // 5
        assert comp_g == 4  # 4 copies of C5

    def test_shorter_cycles_blind_next_cycle_separates(self):
        pair = cycle_hierarchy_pair(4)
        _, _, blind = f_wl(pair.g, pair.h, [cycle_pattern(3)])
        assert not blind.distinguished
        _, _, sharp = f_wl(pair.g, pair.h, [cycle_pattern(3), cycle_pattern(4)])
        assert sharp.distinguished and sharp.at_round == 0

    def test_guard(self):
        with pytest.raises(ValueError):
            cycle_hierarchy_pair(3)


class TestParityGadget:
    def test_triangle_instance(self):
        pair = cfi_pair(clique_pattern(3))
        assert pair.g.n == pair.h.n == expected_cfi_size(clique_pattern(3)) == 6
        assert is_isomorphic(pair.g, cycle_graph(6))
        assert hom_count_brute(clique_graph(3), pair.g) == 0
        assert hom_count_brute(clique_graph(3), pair.h) == 12
        a, b = wl_refine(pair.g, pair.h)
        assert not graph_verdict(a, b).distinguished
        assert k_wl(pair.g, pair.h, 2).distinguished

    def test_k4_instance(self):
        pair = cfi_pair(clique_pattern(4))
        assert pair.g.n == pair.h.n == expected_cfi_size(clique_pattern(4)) == 16
        assert hom_count_brute(clique_graph(4), pair.g) == 0
        assert hom_count_brute(clique_graph(4), pair.h) == 192
        assert not k_wl(pair.g, pair.h, 2).distinguished

    def test_odd_cycle_instance(self):
        c5 = cycle_pattern(5)
        pair = cfi_pair(c5)
        assert pair.g.n == pair.h.n == expected_cfi_size(c5) == 10
        assert hom_count_brute(cycle_graph(5), pair.g) == 0
        assert hom_count_brute(cycle_graph(5), pair.h) > 0

    def test_untwisted_projection_is_homomorphism(self):
        # dropping the parity assignment maps the gadget onto the pattern
        from homcount.families import parity_vertex_table

        p = clique_pattern(4)
        pair = cfi_pair(p)
        table = parity_vertex_table(p, None)
        assert len(table) == pair.h.n
        for x, y in pair.h.edges:
            assert p.graph.has_edge(table[x].base, table[y].base)

    def test_parity_vertex_invariants(self):
        from homcount.families import parity_vertex_table

        p = clique_pattern(3)
        twisted = parity_vertex_table(p, 0)
        untwisted = parity_vertex_table(p, None)
        for pv in twisted:
            assert len(pv.assignment) == p.graph.degree(pv.base)
            assert pv.parity == (1 if pv.base == 0 else 0)
        assert all(pv.parity == 0 for pv in untwisted)

    def test_vertex_count_formula_random_patterns(self):
        import itertools
        import random

        from homcount.graphs import Graph, RootedPattern, is_connected, normalize_edges

        rng = random.Random(12)
        made = 0
        while made < 8:
            n = rng.randrange(3, 6)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            g = Graph("rp", n, (0,) * n, normalize_edges(edges))
            if not is_connected(g) or g.degree(0) < 2:
                continue
            made += 1
            p = RootedPattern(g, 0)
            pair = cfi_pair(p)
            assert pair.g.n == pair.h.n == expected_cfi_size(p)

    def test_edge_guard_at_the_boundary(self, monkeypatch):
        # K4's gadgets: 6 pattern edges of 2^(3-1) * 2^(3-1) / 2 = 8 gadget edges each
        monkeypatch.setattr(families, "CFI_EDGE_GUARD", 48)
        pair = cfi_pair(clique_pattern(4))
        assert len(pair.g.edges) == len(pair.h.edges) == 48
        monkeypatch.setattr(families, "CFI_EDGE_GUARD", 47)
        with pytest.raises(SizeGuardError, match="limited to 47 edges, got 48$"):
            cfi_pair(clique_pattern(4))

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            cfi_pair(path_pattern(2, root=0))  # end vertex has degree 1

    def test_determinism(self):
        a = cfi_pair(clique_pattern(3))
        b = cfi_pair(clique_pattern(3))
        assert a.g == b.g and a.h == b.h


class TestPatternBuilders:
    def test_bowtie(self):
        b = bowtie_pattern()
        assert b.graph.n == 5 and b.graph.degree(b.root) == 4

    def test_path_pattern_root_end(self):
        l2 = path_pattern(2)
        assert l2.graph.n == 3 and l2.graph.degree(l2.root) == 1
