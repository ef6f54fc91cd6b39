"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import itertools
import json
import random
import time

import numpy as np
import pytest

from homcount.algebra import join, spasm, treewidth
from homcount import dp_arrays
from homcount.counting import (
    _dp_plan, hom_count_brute, hom_count_dp, rooted_counts, sub_vector,
)
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
    single_vertex_pattern,
    wl_equivalent_triangle_pair,
)
from homcount.graphs import Graph, RootedPattern, canonical_code, normalize_edges
from homcount.pipeline import advise, compute_features, read_transforms, reconstruct_count, write_csv
from homcount.refinement import f_wl, graph_verdict, k_wl, wl_refine
from homcount.trees import (
    EnumerationBudget,
    enumerate_pattern_trees,
    flatten,
    hom_pattern_tree,
    tree_equivalence_report,
)

from test_algebra import check_decomposition


class timed:
    def __init__(self, number, description, limit):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.description} "
              f"({elapsed:.2f}s / limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.2f}s"
            )
        return False


def build(n, edges, labels=None, gid="g"):
    return Graph(gid, n, tuple(labels or [0] * n), normalize_edges(edges))


def random_graph(rng, n, p, labels=1, gid="rg"):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    labs = [rng.randrange(labels) for _ in range(n)]
    return build(n, edges, labels=labs, gid=gid)


def test_criterion_01_triangle_fixture():
    with timed(1, "triangle fixture counts and verdicts", 1.0):
        pair = wl_equivalent_triangle_pair()
        k3 = clique_pattern(3)
        assert hom_count_dp(k3, pair.g).counts == (2,) * 6
        assert hom_count_dp(k3, pair.h).counts == (0,) * 6
        for v in range(6):
            assert hom_count_brute(k3, pair.g, v) == 2
            assert hom_count_brute(k3, pair.h, v) == 0
        a, b = wl_refine(pair.g, pair.h)
        assert not graph_verdict(a, b).distinguished
        _, _, verdict = f_wl(pair.g, pair.h, [k3])
        assert verdict.distinguished and verdict.at_round == 0


def test_criterion_02_delayed_fixture_with_witness():
    with timed(2, "delayed fixture round timing and witness counts", 1.0):
        pair = delayed_triangle_pair()
        k3 = clique_pattern(3)
        _, _, verdict = f_wl(pair.g, pair.h, [k3])
        assert verdict.distinguished and verdict.at_round == 1
        report = tree_equivalence_report(
            pair.g, pair.h, [k3], rounds=1, vertex_pair=pair.marked
        )
        assert report.ok
        assert report.witness is not None
        assert (report.witness.count_g, report.witness.count_h) == (0, 4)


def test_criterion_03_oracle_equivalence_grid():
    with timed(3, "decomposition counting matches brute force on the grid", 60.0):
        patterns = [clique_pattern(3), clique_pattern(4)]
        patterns += [cycle_pattern(k) for k in range(3, 9)]
        patterns += [path_pattern(k) for k in range(1, 5)]
        patterns += list(spasm(cycle_pattern(4)))
        rng = random.Random(20240603)
        mismatches = array_mismatches = 0
        for trial in range(300):
            n = rng.randrange(3, 13)
            p = 0.3 if trial % 2 == 0 else 0.5
            # alphabet of 3 labels; every other graph is a uniform draw so the
            # unrestricted (large-count) regime is exercised too
            labels = 3 if trial % 2 == 0 else 1
            g = random_graph(rng, n, p, labels=labels, gid=f"grid{trial}")
            for pat in patterns:
                vec = hom_count_dp(pat, g)
                brute = tuple(hom_count_brute(pat, g, v) for v in range(g.n))
                if vec.counts != brute:
                    mismatches += 1
                # the int64 array kernel, which the size dispatch keeps off graphs this small
                if dp_arrays.run_dp(_dp_plan(pat.graph, pat.root), g) != (brute, sum(brute)):
                    array_mismatches += 1
        assert (mismatches, array_mismatches) == (0, 0)


def test_criterion_04_subgraph_count_identity():
    with timed(4, "moebius subgraph counts match brute enumeration", 60.0):
        from test_counting import oracle_sub

        pool = [
            clique_pattern(3),
            clique_pattern(4),
            cycle_pattern(4),
            cycle_pattern(5, root=1),
            path_pattern(2),
            path_pattern(3),
            RootedPattern(build(4, [(0, 1), (1, 2), (1, 3)], gid="star3"), 1),
            RootedPattern(build(4, [(0, 1), (0, 2), (1, 2), (2, 3)], gid="paw"), 3),
            RootedPattern(build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], gid="tadpole"), 0),
        ]
        rng = random.Random(20240604)
        mismatches = 0
        for trial in range(300):
            g = random_graph(rng, rng.randrange(3, 9), rng.choice([0.35, 0.5]),
                             labels=rng.choice([1, 2]), gid=f"s{trial}")
            pat = pool[trial % len(pool)]
            got = sub_vector(pat, g)
            for v in range(g.n):
                if got[v] != oracle_sub(pat, g, v):
                    mismatches += 1
        assert mismatches == 0


def _random_budgeted_tree(rng, patterns, max_flat=9):
    """Random tree within the default budget whose flattened form stays small."""
    while True:
        t = rng.randrange(1, 5)
        parent = [-1] + [rng.randrange(i) for i in range(1, t)]
        depths = [0] * t
        for i in range(1, t):
            depths[i] = depths[parent[i]] + 1
        if max(depths) > 2:
            continue
        attach = []
        total = t
        for _ in range(t):
            vec = [0] * len(patterns)
            if rng.random() < 0.6:
                j = rng.randrange(len(patterns))
                m = rng.choice([1, 1, 2])
                vec[j] = m
                total += m * (patterns[j].graph.n - 1)
            attach.append(tuple(vec))
        if total > max_flat:
            continue
        from homcount.trees import PatternTree

        return PatternTree(tuple(parent), (0,) * t, tuple(attach), tuple(patterns))


def test_criterion_05_pattern_tree_recursion():
    with timed(5, "tree recursion matches brute force on flattened forms", 120.0):
        rng = random.Random(20240605)
        patterns = (clique_pattern(3), cycle_pattern(4))
        trees = [_random_budgeted_tree(rng, patterns) for _ in range(200)]
        graphs = [random_graph(rng, rng.randrange(4, 9), 0.3, gid=f"tg{i}")
                  for i in range(50)]
        attachments = [rooted_counts(patterns, g) for g in graphs]
        mismatches = 0
        for tree in trees:
            flat = flatten(tree)
            for g, attach in zip(graphs, attachments):
                got = hom_pattern_tree(tree, g, attach).counts
                want = tuple(hom_count_brute(flat, g, v) for v in range(g.n))
                if got != want:
                    mismatches += 1
        assert mismatches == 0


def test_criterion_06_forward_direction():
    with timed(6, "refinement equivalence implies equal tree counts", 300.0):
        rng = random.Random(20240606)
        fig1 = wl_equivalent_triangle_pair()
        fig2 = delayed_triangle_pair()
        pairs = [(fig1.g, fig1.h), (fig2.g, fig2.h)]
        for i in range(50):
            n = rng.randrange(4, 10)
            g = random_graph(rng, n, rng.choice([0.3, 0.45]), gid=f"fa{i}")
            if i % 2 == 0:
                perm = list(range(n))
                rng.shuffle(perm)
                h = g.relabeled(perm, f"fb{i}")
            else:
                h = random_graph(rng, n, rng.choice([0.3, 0.45]), gid=f"fb{i}")
            pairs.append((g, h))
        families = [
            [],
            [clique_pattern(3)],
            [cycle_pattern(3), cycle_pattern(4)],
        ]
        budget = EnumerationBudget()
        for fam in families:
            trees, truncated = enumerate_pattern_trees(fam, budget, alphabet=(0,))
            assert not truncated
            for g, h in pairs:
                report = tree_equivalence_report(g, h, fam, rounds=2, trees=trees)
                assert report.ok, report.forward_violations[:3]


def test_criterion_07_cycle_union_family():
    with timed(7, "cycle-union pairs: blind small patterns, seeing next cycle", 60.0):
        for m in (3, 4):
            pair = cycle_union_pair(m)
            fam = {}
            for k in range(2, m + 1):
                p = clique_pattern(k)
                fam[canonical_code(p.graph, p.root)] = p
            for k in range(3, m + 1):
                p = cycle_pattern(k)
                fam[canonical_code(p.graph, p.root)] = p
            _, _, verdict = f_wl(pair.g, pair.h, list(fam.values()))
            assert not verdict.distinguished
            next_cycle = cycle_graph(m + 1)
            assert hom_count_brute(next_cycle, pair.g) != hom_count_brute(next_cycle, pair.h)
            assert k_wl(pair.g, pair.h, 2).distinguished


def test_criterion_08_cycle_hierarchy_family():
    with timed(8, "cycle-hierarchy pairs split exactly at the new length", 30.0):
        for k in (4, 5):
            pair = cycle_hierarchy_pair(k)
            shorter = [cycle_pattern(j) for j in range(3, k)]
            _, _, blind = f_wl(pair.g, pair.h, shorter)
            assert not blind.distinguished
            full = shorter + [cycle_pattern(k)]
            _, _, sharp = f_wl(pair.g, pair.h, full)
            assert sharp.distinguished and sharp.at_round == 0


def test_criterion_09_parity_gadget_construction():
    with timed(9, "parity gadget pairs instantiate the hierarchy separations", 120.0):
        k3 = clique_pattern(3)
        pair3 = cfi_pair(k3)
        assert pair3.g.n == pair3.h.n == expected_cfi_size(k3) == 6
        assert hom_count_brute(clique_graph(3), pair3.g) == 0
        assert hom_count_brute(clique_graph(3), pair3.h) == 12
        a, b = wl_refine(pair3.g, pair3.h)
        assert not graph_verdict(a, b).distinguished
        assert k_wl(pair3.g, pair3.h, 2).distinguished

        k4 = clique_pattern(4)
        pair4 = cfi_pair(k4)
        # gadget size: sum over base vertices of 2^(deg-1) = 16 per side
        assert pair4.g.n == pair4.h.n == expected_cfi_size(k4) == 16
        assert hom_count_brute(clique_graph(4), pair4.g) == 0
        assert hom_count_brute(clique_graph(4), pair4.h) != 0
        assert not k_wl(pair4.g, pair4.h, 2).distinguished


def test_criterion_10_join_redundancy_property():
    with timed(10, "join patterns never separate pairs their factors cannot", 120.0):
        rng = random.Random(20240610)
        pool = [clique_pattern(3), cycle_pattern(4), path_pattern(1), path_pattern(2),
                cycle_pattern(5)]
        checked_nonvacuous = 0
        for trial in range(100):
            base = rng.sample(pool, rng.randrange(0, 2))
            p1, p2 = rng.choice(pool), rng.choice(pool)
            joined = join(p1, p2)
            kind = trial % 3
            if kind == 0:
                n = rng.randrange(4, 11)
                g = random_graph(rng, n, 0.4, gid=f"ja{trial}")
                perm = list(range(n))
                rng.shuffle(perm)
                h = g.relabeled(perm, f"jb{trial}")
            elif kind == 1:
                copies = rng.randrange(2, 4)
                length_a, length_b = rng.choice([(4, 4), (4, 5), (5, 5), (3, 3)])
                g = build(copies * length_a,
                          [(c * length_a + i, c * length_a + (i + 1) % length_a)
                           for c in range(copies) for i in range(length_a)],
                          gid=f"ja{trial}")
                h = build(copies * length_b,
                          [(c * length_b + i, c * length_b + (i + 1) % length_b)
                           for c in range(copies) for i in range(length_b)],
                          gid=f"jb{trial}")
            else:
                g = random_graph(rng, rng.randrange(4, 11), 0.4, gid=f"ja{trial}")
                h = random_graph(rng, rng.randrange(4, 11), 0.4, gid=f"jb{trial}")
            _, _, fine = f_wl(g, h, base + [p1, p2])
            if not fine.distinguished:
                checked_nonvacuous += 1
                _, _, coarse = f_wl(g, h, base + [joined])
                assert not coarse.distinguished, (
                    f"trial {trial}: join separated a pair its factors cannot"
                )
        assert checked_nonvacuous >= 20


def test_criterion_11_advisor_golden_cases():
    with timed(11, "advisor verdicts on the golden cases", 10.0):
        r1 = advise([clique_pattern(3)], [bowtie_pattern()])
        assert r1.verdicts[0].verdict == "REDUNDANT"
        assert sorted(r1.verdicts[0].evidence["factors"]) == ["K3", "K3"]

        r2 = advise([clique_pattern(3)], [clique_pattern(4)])
        assert r2.verdicts[0].verdict == "GUARANTEED_GAIN"
        assert r2.verdicts[0].rule == "treewidth"
        assert r2.bound == 3

        r3 = advise([clique_pattern(3), clique_pattern(4)], [cycle_pattern(5)])
        assert r3.verdicts[0].verdict == "GUARANTEED_GAIN"
        assert r3.verdicts[0].rule == "no-hom"
        assert r3.bound == 3


def test_criterion_12_normalization():
    with timed(12, "log-z normalization statistics and reconstruction", 30.0):
        rng = random.Random(20240612)
        graphs = [random_graph(rng, rng.randrange(5, 11), 0.4, gid=f"n{i:04d}")
                  for i in range(1000)]
        patterns = [path_pattern(1), path_pattern(2), clique_pattern(3),
                    single_vertex_pattern(0)]
        raw = compute_features(graphs, patterns, normalize="none")
        table = compute_features(graphs, patterns, normalize="log-z")
        buf = io.StringIO()
        write_csv(table, buf)
        lines = buf.getvalue().splitlines()
        data = [l.split(",") for l in lines if not l.startswith("#")][1:]
        matrix = np.array([[float(x) for x in row[3:]] for row in data])
        for j, t in enumerate(table.transforms):
            col = matrix[:, j]
            if t.constant:
                assert np.all(col == 0.0)
                continue
            assert abs(col.mean()) < 1e-9
            assert abs(col.std(ddof=1) - 1.0) < 1e-9
        transforms = read_transforms(lines)
        raw_by_key = {(r[0], r[1]): r[3] for r in raw.rows}
        names = table.column_names
        for row in data[:2000]:
            key = (row[0], int(row[1]))
            for j, name in enumerate(names):
                if transforms[name].constant:
                    continue
                assert reconstruct_count(float(row[3 + j]), transforms[name]) == \
                    raw_by_key[key][j]


def test_criterion_13_treewidth_goldens():
    with timed(13, "treewidth golden values with verified witnesses", 10.0):
        tree = build(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)], gid="t7")
        cases = [
            (tree, 1),
            (cycle_graph(5), 2),
            (clique_graph(4), 3),
            (clique_graph(5), 4),
            (join(clique_pattern(3), clique_pattern(3)).graph, 2),
        ]
        for g, want in cases:
            w, td = treewidth(g)
            assert w == want and td.width == want
            check_decomposition(g, td)


def test_criterion_14_determinism(tmp_path):
    with timed(14, "feature output byte-identical across workers and reruns", 30.0):
        from homcount.cli import main

        rng = random.Random(20240614)
        lines = []
        for i in range(100):
            n = rng.randrange(4, 10)
            edges = [[u, v] for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            lines.append(json.dumps({"id": f"d{i:03d}", "n": n, "edges": edges}))
        dataset = tmp_path / "det.jsonl"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pats = tmp_path / "pats.json"
        pats.write_text(json.dumps([
            {"id": "K3", "n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "root": 0},
            {"id": "C4", "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "root": 0},
        ]), encoding="utf-8")
        outputs = []
        for run, threads in enumerate(["1", "4", "8", "1"]):
            out = tmp_path / f"out{run}.csv"
            code = main(["features", str(dataset), "--patterns", str(pats),
                         "--normalize", "log-z", "--threads", threads,
                         "--output", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert all(o == outputs[0] for o in outputs)
