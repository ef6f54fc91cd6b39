import csv
import io
import itertools
import json
import math
import random

import numpy as np
import pytest

from homcount.families import (
    bowtie_pattern,
    clique_pattern,
    cycle_pattern,
    path_pattern,
    single_vertex_pattern,
    wl_equivalent_triangle_pair,
)
from homcount import pipeline
from homcount.graphs import Graph, LabelAlphabet, RootedPattern, normalize_edges
from homcount.pipeline import (
    _column_stats,
    advise,
    compute_features,
    read_transforms,
    reconstruct_count,
    write_csv,
)


def random_graph(rng, n, p, gid, labels=2):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    labs = tuple(rng.randrange(labels) for _ in range(n))
    return Graph(gid, n, labs, normalize_edges(edges))


def assert_reconstructs(graphs, pats):
    """Every raw count comes back exactly from the log-z CSV alone."""
    raw = compute_features(graphs, pats, normalize="none")
    table = compute_features(graphs, pats, normalize="log-z")
    buf = io.StringIO()
    write_csv(table, buf)
    lines = buf.getvalue().splitlines()
    transforms = read_transforms(lines)
    data = [l.split(",") for l in lines if not l.startswith("#")][1:]
    raw_by_key = {(r[0], r[1]): r[3] for r in raw.rows}
    for row in data:
        key = (row[0], int(row[1]))
        for j, name in enumerate(table.column_names):
            want = raw_by_key[key][j]
            got = reconstruct_count(float(row[3 + j]), transforms[name])
            assert got == want


def renamed(p, pid):
    return RootedPattern(Graph(pid, p.graph.n, p.graph.labels, p.graph.edges), p.root)


def synthetic_dataset(count, seed=0):
    rng = random.Random(seed)
    return [random_graph(rng, rng.randrange(5, 11), 0.4, f"g{i:04d}") for i in range(count)]


class TestFeatures:
    def test_fixture_counts_raw(self):
        pair = wl_equivalent_triangle_pair()
        table = compute_features([pair.g, pair.h], [clique_pattern(3)])
        g_rows = [r for r in table.rows if r[0] == "g1"]
        h_rows = [r for r in table.rows if r[0] == "h1"]
        assert all(r[3] == (2,) for r in g_rows)
        assert all(r[3] == (0,) for r in h_rows)

    def test_colon_in_pattern_id_round_trips(self):
        # the header line is "# column hom_<id>: mean=...", so the id's own
        # colons must not be taken for the separator
        pats = [renamed(clique_pattern(3), "a:b"), renamed(cycle_pattern(4), "c: d")]
        graphs = synthetic_dataset(6, seed=4)
        assert_reconstructs(graphs, pats)

    def test_line_break_in_pattern_id_rejected_for_log_z(self):
        pat = renamed(clique_pattern(3), "a\nb")
        graphs = synthetic_dataset(2)
        assert compute_features(graphs, [pat]).pattern_ids == ("a\nb",)
        with pytest.raises(ValueError, match="line break"):
            compute_features(graphs, [pat], normalize="log-z")

    def test_empty_pattern_set(self):
        pair = wl_equivalent_triangle_pair()
        table = compute_features([pair.g], [])
        buf = io.StringIO()
        write_csv(table, buf)
        lines = buf.getvalue().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "graph_id,vertex_id,label"
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 6

    def test_log_z_statistics(self):
        graphs = synthetic_dataset(60, seed=3)
        pats = [path_pattern(1), clique_pattern(3)]
        table = compute_features(graphs, pats, normalize="log-z")
        buf = io.StringIO()
        write_csv(table, buf)
        text = buf.getvalue()
        rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
        cols = np.array([[float(r[3]), float(r[4])] for r in rows])
        for j, t in enumerate(table.transforms):
            if t.constant:
                continue
            assert abs(cols[:, j].mean()) < 1e-9
            assert abs(cols[:, j].std(ddof=1) - 1) < 1e-9

    def test_constant_column_flagged(self):
        graphs = synthetic_dataset(5, seed=1)
        # a single-vertex pattern counts 1 everywhere: zero variance
        uniform = [Graph(g.id, g.n, (0,) * g.n, g.edges) for g in graphs]
        table = compute_features(uniform, [single_vertex_pattern(0)], normalize="log-z")
        assert table.transforms[0].constant
        buf = io.StringIO()
        write_csv(table, buf)
        data_rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")][1:]
        assert all(r.endswith(",0.0") for r in data_rows)

    def test_csv_quotes_ids_and_labels(self):
        # ids, labels and pattern ids holding commas, quotes or line breaks
        # read back as the same fields; other cells stay unquoted
        alphabet = LabelAlphabet()
        xy, hi, c = (alphabet.intern(x) for x in ("x,y", 'say "hi"', "C"))
        graphs = [Graph("a,b", 3, (xy, hi, c), ((0, 1),)), Graph("line\r\nbreak", 1, (c,), ())]
        pattern = RootedPattern(Graph("e,1", 1, (c,), ()), 0)
        buf = io.StringIO()
        write_csv(compute_features(graphs, [pattern]), buf, alphabet)
        text = buf.getvalue()
        assert text.startswith("# mode: hom\n# normalize: none\n")
        assert list(csv.reader(io.StringIO(text.split("\n", 2)[2]))) == [
            ["graph_id", "vertex_id", "label", "hom_e,1"],
            ["a,b", "0", "x,y", "0"],
            ["a,b", "1", 'say "hi"', "0"],
            ["a,b", "2", "C", "1"],
            ["line\r\nbreak", "0", "C", "1"],
        ]
        assert '"a,b",1,"say ""hi""",0\n"a,b",2,C,1\n' in text

    def test_log_z_sums_left_to_right(self):
        # log1p of 6, 7 and 8: a compensated sum (math.fsum, and the builtin
        # sum from Python 3.12 on) differs in the last bit from the
        # left-to-right one, for the mean and for the variance alike
        xs = [math.log1p(c) for c in (6, 7, 8)]
        total = 0.0
        for x in xs:
            total += x
        mean = total / 3
        squares = 0.0
        for x in xs:
            squares += (x - mean) ** 2
        assert total != math.fsum(xs)
        assert squares != math.fsum((x - mean) ** 2 for x in xs)
        rows = [("g", v, 0, (c,)) for v, c in enumerate((6, 7, 8))]
        assert _column_stats(rows, 1) == [(mean, math.sqrt(squares / 2), False)]

    def test_round_trip_reconstruction(self):
        assert_reconstructs(synthetic_dataset(40, seed=7), [path_pattern(1), path_pattern(2)])

    def test_reconstruction_exact_up_to_1e13(self):
        # length-10 walks from a vertex of K_n number (n-1)^10, up to 19^10 ~ 6.1e12
        # here; the isolated vertices add zeros, which stretch the z-scores
        cliques = [Graph(f"k{n}", n, (0,) * n, tuple(itertools.combinations(range(n), 2)))
                   for n in range(2, 21)]
        isolated = [Graph(f"v{i}", 1, (0,), ()) for i in range(30)]
        assert_reconstructs(cliques + isolated, [path_pattern(10), path_pattern(9)])

    def test_columns_past_1e13_flagged_inexact(self):
        # rooted L8 on a 200-vertex graph of density 0.6 counts about 1e16 to
        # 1e17 per vertex, and most of those miss on the way back; L1's
        # degrees all return, and its header line stays as it was
        rng = random.Random(131)
        graphs = [random_graph(rng, 200, 0.6, "dense", labels=1),
                  Graph("p3", 3, (0,) * 3, ((0, 1), (1, 2)))]
        pats = [path_pattern(8), path_pattern(1)]
        table = compute_features(graphs, pats, normalize="log-z")
        buf = io.StringIO()
        write_csv(table, buf)
        lines = buf.getvalue().splitlines()
        header = [line for line in lines if line.startswith("# column ")]
        assert header[0].endswith(" constant=false exact=false")
        assert header[1].endswith(" constant=false")
        transforms = read_transforms(lines)
        assert [t.exact for t in transforms.values()] == [False, True]
        assert max(c[0] for _, _, _, c in table.rows) > 10**13
        data = [line.split(",") for line in lines if not line.startswith("#")][1:]
        missed = [j for j, name in enumerate(table.column_names)
                  for row, (_, _, _, counts) in zip(data, table.rows)
                  if reconstruct_count(float(row[3 + j]), transforms[name]) != counts[j]]
        assert len(missed) > 100 and set(missed) == {0}

    def test_deterministic_across_threads(self):
        graphs = synthetic_dataset(20, seed=9)
        pats = [clique_pattern(3), cycle_pattern(4)]
        for mode in ("hom", "sub"):
            outputs = []
            for threads in (1, 2, 4):
                table = compute_features(graphs, pats, mode=mode, normalize="log-z",
                                         threads=threads)
                buf = io.StringIO()
                write_csv(table, buf)
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1] == outputs[2]

    def test_workers_capped_at_job_count(self, monkeypatch):
        # a recorder maps inline in place of the pool, so no worker starts
        calls = []

        class Recorder:
            def __init__(self, max_workers):
                calls.append(("max_workers", max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                calls.append(("jobs", len(jobs)))
                return map(fn, jobs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", Recorder)
        graphs = synthetic_dataset(3, seed=5)
        pats = [clique_pattern(3), cycle_pattern(4)]
        table = compute_features(graphs, pats, threads=100_000)
        assert calls == [("max_workers", 3), ("jobs", 3)]
        assert table.rows == compute_features(graphs, pats, threads=1).rows

    @pytest.mark.parametrize("count", [1, 3])
    def test_negative_threads_rejected(self, count):
        graphs = synthetic_dataset(count, seed=3)
        with pytest.raises(ValueError, match="threads must be 0 or more, got -1"):
            compute_features(graphs, [clique_pattern(3)], threads=-1)

    def test_stats_from_other_dataset(self):
        graphs = synthetic_dataset(10, seed=11)
        others = synthetic_dataset(10, seed=12)
        pats = [path_pattern(1)]
        a = compute_features(graphs, pats, normalize="log-z")
        b = compute_features(graphs, pats, normalize="log-z", stats_graphs=others)
        assert a.transforms != b.transforms


class TestAdvisor:
    def test_bowtie_redundant(self):
        report = advise([clique_pattern(3)], [bowtie_pattern()])
        (v,) = report.verdicts
        assert v.verdict == "REDUNDANT"
        assert v.evidence["factors"] == ["K3", "K3"]

    def test_clique_gain_by_treewidth(self):
        report = advise([clique_pattern(3)], [clique_pattern(4)])
        (v,) = report.verdicts
        assert v.verdict == "GUARANTEED_GAIN" and v.rule == "treewidth"
        assert report.bound == 3

    def test_cycle_gain_by_no_hom(self):
        report = advise([clique_pattern(3), clique_pattern(4)], [cycle_pattern(5)])
        (v,) = report.verdicts
        assert v.verdict == "GUARANTEED_GAIN" and v.rule == "no-hom"

    def test_unknown_when_conditions_fail(self):
        # C4 against {C6}: both treewidth 2, and C6 maps into C4... it does not;
        # C6 -> C4 exists (wrap around), so neither condition holds
        report = advise([cycle_pattern(6)], [cycle_pattern(4)])
        (v,) = report.verdicts
        assert v.verdict == "UNKNOWN"

    def test_order_independence(self):
        base = [clique_pattern(3), clique_pattern(4)]
        cands = [cycle_pattern(5), bowtie_pattern()]
        a = advise(base, cands)
        b = advise(list(reversed(base)), cands)
        assert {v.candidate_id: v.verdict for v in a.verdicts} == {
            v.candidate_id: v.verdict for v in b.verdicts
        }

    def test_bound_tracks_accepted(self):
        report = advise([clique_pattern(3)], [bowtie_pattern()])
        assert report.bound == 2  # the redundant bowtie is not counted
