import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homcount import counting, trees as tree_module
from homcount.counting import CountOverflowError, hom_count_brute, hom_vector
from homcount import families
from homcount.graphs import Graph, RootedPattern, canonical_code, is_isomorphic, normalize_edges
from homcount.refinement import Coloring, f_wl
from homcount.trees import (
    EnumerationBudget,
    PatternTree,
    enumerate_pattern_trees,
    flatten,
    hom_pattern_tree,
    tree_equivalence_report,
)
from test_counting import checks_what_it_returns, graphs_strategy

G2 = Graph("g2", 9, (0,) * 9,
           normalize_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 5), (3, 4), (3, 6),
                            (4, 5), (5, 7), (6, 7), (6, 8), (7, 8)]))
H2 = Graph("h2", 9, (0,) * 9,
           normalize_edges([(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 5), (3, 6),
                            (4, 7), (5, 8), (6, 7), (6, 8), (7, 8)]))


def build(n, edges, labels=None, gid="g"):
    return Graph(gid, n, tuple(labels or [0] * n), normalize_edges(edges))


def clique(k, root=0):
    g = build(k, list(itertools.combinations(range(k), 2)), gid=f"k{k}")
    return RootedPattern(g, root)


def cycle(k, root=0):
    g = build(k, [(i, (i + 1) % k) for i in range(k)], gid=f"c{k}")
    return RootedPattern(g, root)


K3 = clique(3)


def bare_tree(parent, patterns=(), labels=None):
    t = len(parent)
    labels = tuple(labels or [0] * t)
    empty = tuple([(0,) * len(patterns)] * t)
    return PatternTree(tuple(parent), labels, empty, tuple(patterns))


L1 = RootedPattern(build(2, [(0, 1)], gid="l1"), 0)
L1B = RootedPattern(build(2, [(0, 1)], labels=[1, 0], gid="l1b"), 0)
TREE_PATTERNS = (K3, L1, L1B)


@st.composite
def pattern_trees(draw):
    """A tree of at most 3 backbone vertices labelled 0 or 1, with at most 2
    attachments of K3 or L1 (rooted at label 0 or 1) in all."""
    t = draw(st.integers(min_value=1, max_value=3))
    parent = (-1,) + tuple(draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, t))
    labels = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in range(t))
    attach = [[0] * len(TREE_PATTERNS) for _ in range(t)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        v = draw(st.integers(min_value=0, max_value=t - 1))
        fits = [i for i, p in enumerate(TREE_PATTERNS) if p.root_label == labels[v]]
        attach[v][draw(st.sampled_from(fits))] += 1
    return PatternTree(parent, labels, tuple(map(tuple, attach)), TREE_PATTERNS)


class TestFlatten:
    def test_single_vertex_with_triangle_is_triangle(self):
        tree = PatternTree((-1,), (0,), ((1,),), (K3,))
        flat = flatten(tree)
        assert is_isomorphic(flat.graph, K3.graph, g_root=flat.root, h_root=K3.root)

    def test_edge_with_pendant_triangle(self):
        tree = PatternTree((-1, 0), (0, 0), ((0,), (1,)), (K3,))
        flat = flatten(tree)
        # root 0 -- backbone child 1, child sits in a triangle {1,2,3}
        expected = build(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        assert flat.graph.n == 2 + 3 - 1
        assert is_isomorphic(flat.graph, expected, g_root=flat.root, h_root=0)

    def test_vertex_count_arithmetic(self):
        c4 = cycle(4)
        tree = PatternTree((-1,), (0,), ((2, 1),), (K3, c4))
        flat = flatten(tree)
        assert flat.graph.n == 1 + 2 * (3 - 1) + 1 * (4 - 1)


class TestRecursion:
    def test_worked_pair_values(self):
        tree = PatternTree((-1, 0), (0, 0), ((0,), (1,)), (K3,))
        on_g = hom_pattern_tree(tree, G2)
        on_h = hom_pattern_tree(tree, H2)
        assert on_g[4] == 0
        assert on_h[4] == 4

    def test_bare_path_counts_walks(self):
        rng = random.Random(6)
        for length in (1, 2, 3):
            parent = [-1] + list(range(length))
            tree = bare_tree(parent)
            g = build(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                          if rng.random() < 0.5])
            got = hom_pattern_tree(tree, g)
            # walks of `length` steps from v
            walks = [[1] * 6]
            for _ in range(length):
                walks.append([sum(walks[-1][u] for u in g.adjacency[v]) for v in range(6)])
            assert list(got) == walks[-1]

    def test_matches_brute_flatten_on_random_trees(self):
        rng = random.Random(77)
        pats = [K3, cycle(4)]
        for _ in range(30):
            t = rng.randrange(1, 4)
            parent = [-1] + [rng.randrange(i) for i in range(1, t)]
            attach = []
            budget = 2  # keep the flattened pattern small enough for brute force
            for _ in range(t):
                vec = [0, 0]
                if budget and rng.random() < 0.6:
                    vec[rng.randrange(2)] = 1
                    budget -= 1
                attach.append(tuple(vec))
            tree = PatternTree(tuple(parent), (0,) * t, tuple(attach), tuple(pats))
            g = build(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                          if rng.random() < 0.35], gid="rr")
            flat = flatten(tree)
            got = hom_pattern_tree(tree, g)
            want = tuple(hom_count_brute(flat, g, v) for v in range(6))
            assert got == want

    # on K1,4, L1 attached twice counts 16 at the centre before the child's K3 zeroes it
    @example(build(5, [(0, v) for v in range(1, 5)], gid="k1_4"),
             PatternTree((-1, 0), (0, 0), ((0, 2, 0), (1, 0, 0)), TREE_PATTERNS))
    @given(graphs_strategy(), pattern_trees())
    @settings(max_examples=60, deadline=None)
    def test_raises_exactly_when_its_anchor_sum_does(self, g, tree):
        # the attachment counts come in at the real ceiling: only the
        # recursion's own check is under test
        attachments = hom_vector(tree.patterns, g)
        want = tuple(hom_count_brute(flatten(tree), g, v) for v in range(g.n))
        checks_what_it_returns(lambda: hom_pattern_tree(tree, g, attachments), want, sum(want))

    def test_default_attachments_unchecked(self, monkeypatch):
        # on K1,6 L1's anchor sum is 12, over a ceiling of 11, but the child's
        # K3 counts 0, so the tree counts 0 at every anchor, as brute force does
        star = build(7, [(0, v) for v in range(1, 7)], gid="k1_6")
        tree = PatternTree((-1, 0), (0, 0), ((0, 1, 0), (1, 0, 0)), TREE_PATTERNS)
        attachments = hom_vector(tree.patterns, star)
        monkeypatch.setattr(counting, "MAX_COUNT", 11)
        assert hom_pattern_tree(tree, star) == (0,) * 7
        assert hom_pattern_tree(tree, star, attachments) == (0,) * 7
        assert all(hom_count_brute(flatten(tree), star, v) == 0 for v in range(7))

    def test_attachments_must_cover_every_pattern(self):
        tree = PatternTree((-1, 0), (0, 0), ((1, 0), (0, 1)), (K3, cycle(4)))
        attachments = hom_vector(tree.patterns, G2)
        assert hom_pattern_tree(tree, G2, attachments) == hom_pattern_tree(tree, G2)
        with pytest.raises(ValueError):
            hom_pattern_tree(tree, G2, attachments[:1])

    def test_label_mismatch_zeroes_out(self):
        tree = bare_tree([-1], labels=[1])
        g = build(3, [(0, 1)], labels=[0, 1, 0])
        assert hom_pattern_tree(tree, g) == (0, 1, 0)

    @pytest.mark.parametrize("parent, labels, attachments", [
        ((), (), ()),
        ((0,), (0,), ((0,),)),
        ((-1, 1), (0, 0), ((0,), (0,))),  # parent[1] must be below 1
        ((-1, 0, 0), (0, 0, 0), ((0,), (0,))),  # one attachment vector short
        ((-1, 0), (0,), ((0,), (0,))),  # one label short
        ((-1,), (0,), ((0, 0),)),  # two multiplicities for one pattern
    ])
    def test_malformed_tree_rejected(self, parent, labels, attachments):
        with pytest.raises(ValueError):
            PatternTree(parent, labels, attachments, (K3,))

    def test_tree_totals_checked(self, monkeypatch):
        # a one-edge bare tree on K4 counts 3 at each anchor and 12 in all: the
        # anchors fit under a ceiling of 11, the total does not, as for rooted K2
        monkeypatch.setattr(counting, "MAX_COUNT", 11)
        tree = bare_tree([-1, 0])
        k4 = build(4, list(itertools.combinations(range(4), 2)), gid="k4")
        with pytest.raises(CountOverflowError):
            hom_pattern_tree(tree, k4)
        with pytest.raises(CountOverflowError):
            tree_equivalence_report(k4, k4.relabeled([1, 0, 2, 3], "k4b"), [], trees=[tree])

    def test_overflow_raises(self):
        # long bare backbone on a dense graph: walk counts blow past 2**127-1
        parent = [-1] + list(range(80))
        tree = bare_tree(parent)
        g = build(30, list(itertools.combinations(range(30), 2)), gid="k30")
        with pytest.raises(CountOverflowError):
            hom_pattern_tree(tree, g)


class TestEnumeration:
    def test_plain_trees_tiny_budget(self):
        trees, truncated = enumerate_pattern_trees(
            [], EnumerationBudget(depth=1, backbone=2, multiplicity=0)
        )
        assert not truncated
        assert len(trees) == 2  # single vertex; single edge
        assert sorted(t.size for t in trees) == [1, 2]

    def test_depth_zero_triangle_powers(self):
        trees, _ = enumerate_pattern_trees(
            [K3], EnumerationBudget(depth=0, backbone=1, multiplicity=2)
        )
        assert len(trees) == 3  # bare vertex, one triangle, two triangles
        sizes = sorted(flatten(t).graph.n for t in trees)
        assert sizes == [1, 3, 5]

    def test_duplicate_free_under_flatten_codes(self):
        trees, truncated = enumerate_pattern_trees(
            [K3], EnumerationBudget(depth=2, backbone=4, multiplicity=1)
        )
        assert not truncated
        codes = [canonical_code(flatten(t).graph, 0) for t in trees]
        assert len(codes) == len(set(codes))
        assert codes == sorted(codes)

    def test_generator_order_pinned(self):
        # the truncated stream keeps the first trees in this order
        assert list(tree_module._backbone_shapes(4, 2)) == [
            (-1,), (-1, 0), (-1, 0, 0), (-1, 0, 1), (-1, 0, 0, 0),
            (-1, 0, 0, 1), (-1, 0, 0, 2), (-1, 0, 1, 0), (-1, 0, 1, 1),
        ]
        assert list(tree_module._multiplicity_vectors(2, 2)) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        ]

    def test_truncation_signal(self):
        trees, truncated = enumerate_pattern_trees(
            [K3], EnumerationBudget(depth=2, backbone=4, multiplicity=2, max_trees=5)
        )
        assert truncated
        assert len(trees) == 5

    def test_labeled_backbones_respect_attachment_labels(self):
        lab_k3 = RootedPattern(
            build(3, [(0, 1), (0, 2), (1, 2)], labels=[1, 0, 0], gid="k3l"), 0
        )
        trees, _ = enumerate_pattern_trees(
            [lab_k3], EnumerationBudget(depth=0, backbone=1, multiplicity=1),
            alphabet=(0, 1),
        )
        # label-0 root cannot carry the attachment; label-1 root can
        with_attach = [t for t in trees if any(sum(s) for s in t.attachments)]
        assert len(with_attach) == 1
        assert with_attach[0].labels == (1,)


def code_only_classes(patterns, budget, alphabet=(0,)):
    """Every candidate flattened and coded, in generation order: the first of
    each code, as (code, tree)."""
    patterns = tuple(patterns)
    vectors = list(tree_module._multiplicity_vectors(len(patterns), budget.multiplicity))
    seen = set()
    for parent in tree_module._backbone_shapes(budget.backbone, budget.depth):
        for labels in itertools.product(alphabet, repeat=len(parent)):
            options = [[s for s in vectors
                        if all(m == 0 or p.root_label == label for p, m in zip(patterns, s))]
                       for label in labels]
            for assignment in itertools.product(*options):
                tree = PatternTree(parent, labels, assignment, patterns)
                code = canonical_code(flatten(tree).graph, 0)
                if code not in seen:
                    seen.add(code)
                    yield code, tree


def reference_enumeration(patterns, budget, alphabet=(0,)):
    """The enumeration deduplicated by canonical code alone, sorted by code."""
    seen = {}
    for code, tree in code_only_classes(patterns, budget, alphabet):
        seen[code] = tree
        if len(seen) > budget.max_trees:
            return [seen[c] for c in sorted(seen)][: budget.max_trees], True
    return [seen[c] for c in sorted(seen)], False


def shape(trees):
    return [(t.parent, t.labels, t.attachments) for t in trees]


L2 = RootedPattern(build(2, [(0, 1)], gid="l2"), 0)
K3_OTHER = RootedPattern(build(3, [(0, 1), (0, 2), (1, 2)], gid="k3b"), 2)
VERTEX = RootedPattern(build(1, [], gid="v"), 0)
K3_LABELED = RootedPattern(build(3, [(0, 1), (0, 2), (1, 2)], labels=[1, 0, 1], gid="k3l"), 0)
DIAMOND = build(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], gid="diamond")
BOWTIE = build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], gid="bowtie")
C3_LABELED = RootedPattern(build(3, [(0, 1), (1, 2), (0, 2)], labels=[1, 0, 0], gid="c3l"), 0)
C4_LABELED = RootedPattern(
    build(4, [(0, 1), (1, 2), (2, 3), (0, 3)], labels=[0, 1, 0, 1], gid="c4l"), 0)
# bridgeless patterns whose root is no cut vertex, pairwise not rooted-isomorphic
KEYED = {
    "c3": cycle(3), "c4": cycle(4), "c5": cycle(5), "k4": clique(4),
    "diamond-side": RootedPattern(DIAMOND, 0), "diamond-middle": RootedPattern(DIAMOND, 1),
    "bowtie-outer": RootedPattern(BOWTIE, 0), "c3-labeled": C3_LABELED,
    "c4-labeled": C4_LABELED,
}
POOL = {**KEYED, "l2": L2, "vertex": VERTEX, "bowtie-centre": RootedPattern(BOWTIE, 2),
        "k3": K3, "k3-other": K3_OTHER}
UNKEYED = {  # each alone, or with its partner, defeats the structural key
    "l2": ["l2"], "vertex": ["vertex"], "bowtie-centre": ["bowtie-centre"],
    "k3-twice": ["k3", "k3-other"],
}


class TestStructuralPrefilter:
    """The structural key only skips candidates; the kept stream, its order
    and the truncation flag are those of deduplicating by canonical code."""

    @pytest.mark.parametrize("patterns,budget,alphabet", [
        ([], EnumerationBudget(), (0,)),
        ([K3], EnumerationBudget(depth=2, backbone=3, multiplicity=2), (0,)),
        ([cycle(3), cycle(4)], EnumerationBudget(depth=1, backbone=3, multiplicity=2), (0,)),
        ([cycle(3), cycle(4), L2], EnumerationBudget(depth=2, backbone=3, multiplicity=1), (0,)),
        ([K3, K3_OTHER], EnumerationBudget(depth=1, backbone=3, multiplicity=1), (0,)),
        ([VERTEX, K3], EnumerationBudget(depth=2, backbone=3, multiplicity=1), (0,)),
        ([K3_LABELED], EnumerationBudget(depth=2, backbone=3, multiplicity=1), (0, 1)),
    ], ids=["empty", "k3", "c3c4", "c3c4l2", "k3-twice", "vertex-k3", "labeled-k3"])
    def test_matches_code_only_dedup(self, patterns, budget, alphabet):
        want, want_truncated = reference_enumeration(patterns, budget, alphabet)
        got, truncated = enumerate_pattern_trees(patterns, budget, alphabet)
        assert shape(got) == shape(want)
        assert truncated == want_truncated

    @pytest.mark.parametrize("below", [1, 0], ids=["one-short", "exact"])
    def test_truncation_matches_code_only_dedup(self, below):
        budget = EnumerationBudget(depth=2, backbone=3, multiplicity=1)
        classes = len(reference_enumeration([K3, L2], budget)[0])
        budget = EnumerationBudget(depth=2, backbone=3, multiplicity=1,
                                   max_trees=classes - below)
        want, want_truncated = reference_enumeration([K3, L2], budget)
        got, truncated = enumerate_pattern_trees([K3, L2], budget)
        assert shape(got) == shape(want)
        assert truncated == want_truncated == bool(below)

    def count_codes(self, monkeypatch, patterns, budget):
        calls = []

        def spy(g, root):
            calls.append(g)
            return canonical_code(g, root)

        monkeypatch.setattr(tree_module, "canonical_code", spy)
        trees, _ = enumerate_pattern_trees(patterns, budget)
        return len(calls), len(trees)

    def test_one_code_per_kept_tree_for_2_connected_patterns(self, monkeypatch):
        calls, kept = self.count_codes(
            monkeypatch, [cycle(3), cycle(4)], EnumerationBudget(depth=2, backbone=3))
        assert calls == kept

    def test_code_dedup_merges_isomorphic_patterns(self, monkeypatch):
        calls, kept = self.count_codes(
            monkeypatch, [K3, K3_OTHER], EnumerationBudget(depth=1, backbone=3, multiplicity=1))
        assert calls > kept

    @pytest.mark.parametrize("name", KEYED)
    def test_key_complete(self, name):
        assert tree_module._key_is_complete([KEYED[name]])

    @pytest.mark.parametrize("name", UNKEYED)
    def test_key_incomplete(self, name):
        assert not tree_module._key_is_complete([POOL[p] for p in UNKEYED[name]])

    @example(["l2", "k3"], 2, 2, (0,))  # L2 at a vertex is a backbone edge
    @example(["k3", "k3-other"], 1, 2, (0,))  # K3 at two roots, one class
    @example(["bowtie-centre", "k3"], 0, 2, (0,))  # the centre-rooted bowtie is K3 twice
    @example(["vertex", "c3"], 2, 1, (0, 1))  # VERTEX attaches nothing
    @example(["diamond-side", "diamond-middle"], 2, 2, (0, 1))
    @given(st.lists(st.sampled_from(sorted(POOL)), min_size=0, max_size=2, unique=True),
           st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
           st.sampled_from([(0,), (0, 1)]))
    @settings(max_examples=60, deadline=None)
    def test_classes_match_code_only_dedup(self, names, depth, multiplicity, alphabet):
        if "bowtie-centre" in names and depth:
            # two at each of several backbone vertices make every code take
            # seconds: canonical_code prunes only twins, not swapped triangles
            multiplicity = min(multiplicity, 1)
        patterns = [POOL[name] for name in names]
        budget = EnumerationBudget(depth=depth, backbone=3, multiplicity=multiplicity)
        kept, complete, truncated = tree_module._tree_classes(patterns, budget, alphabet)
        want = dict(code_only_classes(patterns, budget, alphabet))
        assert shape(list(kept.values())) == shape(list(want.values()))
        if not complete:  # class keys are the codes
            assert list(kept) == list(want)
        assert not truncated


class TestHarness:
    def test_worked_pair_witness(self):
        report = tree_equivalence_report(
            G2, H2, [K3], budget=EnumerationBudget(depth=1), vertex_pair=(4, 4)
        )
        assert report.ok
        assert report.verdict.distinguished and report.verdict.at_round == 1
        assert report.witness is not None
        assert (report.witness.count_g, report.witness.count_h) == (0, 4)
        assert flatten(report.witness.tree).graph.n == 4

    def test_graph_level_witness(self):
        report = tree_equivalence_report(G2, H2, [K3], budget=EnumerationBudget(depth=1))
        assert report.witness is not None
        assert report.witness.kind == "graph"
        assert report.witness.count_g != report.witness.count_h

    def test_trees_over_another_pattern_list_rejected(self):
        # trees attaching C4 must not be counted from K3's attachment counts
        budget = EnumerationBudget(depth=1)
        trees, _ = enumerate_pattern_trees([cycle(4)], budget)
        with pytest.raises(ValueError):
            tree_equivalence_report(G2, H2, [K3], budget=budget, trees=trees)
        report = tree_equivalence_report(G2, H2, [cycle(4)], budget=budget, trees=trees)
        assert report.trees_enumerated == len(trees)

    def test_same_graph_no_search(self):
        report = tree_equivalence_report(G2, G2, [K3], budget=EnumerationBudget(depth=2))
        assert not report.verdict.distinguished
        assert report.ok
        assert report.witness is None and not report.witness_searched

    def test_forward_holds_on_plain_tree_pair(self):
        g1 = Graph("g1", 6, (0,) * 6,
                   normalize_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]))
        h1 = Graph("h1", 6, (0,) * 6,
                   normalize_edges([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]))
        report = tree_equivalence_report(g1, h1, [], budget=EnumerationBudget(depth=2))
        assert report.ok
        assert not report.verdict.distinguished

    def test_attachment_counts_once_per_graph(self, monkeypatch):
        # K3 rooted at 0 and at 1 are one basis pattern of the count plan, and
        # one DP per graph gives both the initial colours and the attachments
        k3b = RootedPattern(Graph("K3b", 3, (0,) * 3, K3.graph.edges), 1)
        real = counting._run_dp_dict
        calls = []

        def spy(plan, g):
            calls.append(g.id)
            return real(plan, g)

        monkeypatch.setattr(counting, "_run_dp_dict", spy)
        report = tree_equivalence_report(
            G2, H2, [K3, k3b], budget=EnumerationBudget(depth=1, backbone=2, multiplicity=1))
        assert report.ok and report.witness is not None
        assert sorted(calls) == ["g2", "h2"]

    def test_unrooted_count_is_anchor_sum(self):
        tree = PatternTree((-1, 0), (0, 0), ((0,), (1,)), (K3,))
        total = hom_count_brute(flatten(tree).graph, G2)
        assert total == sum(hom_pattern_tree(tree, G2))

    def test_cycle_hierarchy_depth_zero_witness(self):
        # the first separating tree is the bare 4-cycle attachment
        pair = families.cycle_hierarchy_pair(4)
        fam = [cycle(3), cycle(4)]
        report = tree_equivalence_report(pair.g, pair.h, fam, budget=EnumerationBudget(depth=2))
        assert report.ok
        assert report.verdict.at_round == 0
        assert report.witness is not None
        wt = report.witness.tree
        assert wt.depth == 0
        flat = flatten(wt)
        assert is_isomorphic(flat.graph, cycle(4).graph)

    def test_witness_and_violations_ignore_stream_order(self):
        budget = EnumerationBudget(depth=2, backbone=3, multiplicity=2)
        trees, _ = enumerate_pattern_trees([K3, cycle(4)], budget)
        for pair in (None, (4, 4)):
            want = tree_equivalence_report(G2, H2, [K3, cycle(4)], budget, pair).to_json()
            for stream in (trees, trees[::-1]):
                got = tree_equivalence_report(G2, H2, [K3, cycle(4)], budget, pair, trees=stream)
                assert got.to_json() == want
            assert want["witness"] is not None

    def test_witness_is_least_code_differing_tree(self):
        # the first differing tree of the code-sorted stream, as when the
        # report walked that stream, also under a cap that truncates it
        for max_trees in (20000, 30):
            budget = EnumerationBudget(depth=2, backbone=3, multiplicity=2, max_trees=max_trees)
            trees, truncated = enumerate_pattern_trees([K3], budget)
            report = tree_equivalence_report(G2, H2, [K3], budget)
            first = next(t for t in trees if t.depth <= report.verdict.at_round
                         and sum(hom_pattern_tree(t, G2)) != sum(hom_pattern_tree(t, H2)))
            assert report.witness.tree == first
            assert report.truncated == truncated == (max_trees == 30)
            assert report.trees_enumerated == len(trees)
            given = tree_equivalence_report(G2, H2, [K3], budget, trees=trees[::-1]).to_json()
            assert given == dict(report.to_json(), budget_truncated=False)

    @pytest.mark.parametrize("colors", [1, 2], ids=["one-color", "two-colors"])
    def test_violations_ordered_by_round_code_color(self, monkeypatch, colors):
        # a refinement that merges vertices the trees separate: every tree
        # that varies within a class is reported, by round, code and color
        def merged(g, h, init_g, init_h, rounds):
            return tuple(Coloring(x.id, (tuple(v % colors for v in range(x.n)),) * (rounds + 1),
                                  True) for x in (g, h))

        monkeypatch.setattr(tree_module, "wl_refine", merged)
        budget = EnumerationBudget(depth=1, backbone=3, multiplicity=1)
        trees, _ = enumerate_pattern_trees([K3], budget)
        want = []
        for d in range(2):
            for tree in trees:
                if tree.depth > d:
                    continue
                for color in range(colors):
                    vals = sorted({*hom_pattern_tree(tree, G2)[color::colors],
                                   *hom_pattern_tree(tree, H2)[color::colors]})
                    if len(vals) > 1:
                        want.append(f"round {d} color {color}: counts {vals} "
                                    f"for tree {tree.signature()}")
        assert len(want) > 2
        for stream in (None, trees[::-1]):
            report = tree_equivalence_report(G2, H2, [K3], budget, trees=stream)
            assert report.forward_violations == want

    def test_codes_only_the_witness_group(self, monkeypatch):
        calls = []

        def spy(g, root):
            calls.append(g)
            return canonical_code(g, root)

        monkeypatch.setattr(tree_module, "canonical_code", spy)
        report = tree_equivalence_report(G2, H2, [cycle(3), cycle(4)])
        assert report.witness is not None and report.trees_enumerated > 2000
        assert len(calls) <= 3

    @pytest.mark.parametrize("pair", [
        families.wl_equivalent_triangle_pair(),
        families.delayed_triangle_pair(),
        families.cycle_union_pair(3),
        families.cycle_hierarchy_pair(4),
        families.cfi_pair(K3),
    ], ids=["fig1", "fig2", "cycle-union-3", "cycle-hierarchy-4", "cfi-k3"])
    def test_verdict_is_f_wl_at_budget_depth(self, pair):
        for patterns in ([], [K3], [cycle(3), cycle(4)]):
            for depth in (0, 1, 2):
                budget = EnumerationBudget(depth=depth, backbone=3, multiplicity=1)
                report = tree_equivalence_report(pair.g, pair.h, patterns, budget=budget)
                assert report.ok and report.rounds == depth
                assert report.verdict == f_wl(pair.g, pair.h, patterns, max_rounds=depth)[2]
