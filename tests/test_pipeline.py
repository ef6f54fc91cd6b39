import concurrent.futures
import csv
import hashlib
import io
import itertools
import json
import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import checks

from homcount.families import (
    bowtie_pattern,
    build_graph,
    clique_graph,
    clique_pattern,
    cycle_pattern,
    path_graph,
    path_pattern,
    single_vertex_pattern,
    wl_equivalent_triangle_pair,
)
from homcount import pipeline
from homcount.graphs import Graph, LabelAlphabet, RootedPattern, normalize_edges
from homcount.pipeline import (
    EXACT_LIMIT,
    ColumnTransform,
    FeatureTable,
    _columns,
    _stats,
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
        assert list(map(_stats, _columns(rows, 1))) == [(mean, math.sqrt(squares / 2), False)]

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

        # the pool is imported where it is used, so the recorder replaces it at its source
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
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


def table_of(rows, pattern_ids, normalize, stat_rows=None):
    """compute_features over count rows given as they are, and statistics
    rows if given (as from --stats-from), in place of counted graphs."""
    patterns = [RootedPattern(Graph(pid, 1, (0,), ()), 0) for pid in pattern_ids]
    results = [(rows, [])] + ([] if stat_rows is None else [(stat_rows, [])])
    with mock.patch.object(pipeline, "_all_count_rows", side_effect=results):
        return compute_features([], patterns, normalize=normalize,
                                stats_graphs=None if stat_rows is None else [])


def reference_table(rows, pattern_ids, normalize, stat_rows=None):
    """The table that per-cell statistics give for the same rows."""
    table = FeatureTable("hom", normalize, tuple(pattern_ids), rows)
    if normalize == "log-z":
        stats = checks.column_stats(rows if stat_rows is None else stat_rows, len(pattern_ids))
        columns = zip(*(counts for _, _, _, counts in rows if counts is not None))
        largest = [max(column) for column in columns] or [0] * len(pattern_ids)
        table.transforms = [
            ColumnTransform(name, mean, std, const, top <= EXACT_LIMIT)
            for name, (mean, std, const), top in zip(table.column_names, stats, largest)
        ]
    return table


COUNTS = st.one_of(
    st.integers(0, 6),
    st.sampled_from([2**53, 2**53 + 1, 10**13, 10**13 + 1, 2**60, 2**60 + 1, 2**127 - 1]),
    st.integers(0, 2**127 - 1),
)
NAMES = st.text(st.sampled_from('ab,"'), max_size=3)  # pattern ids: no line breaks in log-z
TEXTS = st.text(st.sampled_from('ab,"\r\n'), max_size=3)


@st.composite
def count_rows(draw, width, labels):
    """Rows of up to four graphs of up to four vertices, some flagged NA."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        gid, na = draw(TEXTS), draw(st.integers(0, 3)) == 0
        rows += [(gid, v, draw(st.integers(0, labels - 1)),
                  None if na else tuple(draw(COUNTS) for _ in range(width)))
                 for v in range(draw(st.integers(0, 4)))]
    return rows


@st.composite
def feature_cases(draw):
    """(normalize, pattern ids, rows, stats rows or None, external labels or None)."""
    external = draw(st.none() | st.lists(TEXTS | st.integers(-3, 3), min_size=1, max_size=3,
                                         unique=True))
    pattern_ids = draw(st.lists(NAMES, max_size=3, unique=True))  # an id names one column
    rows = count_rows(len(pattern_ids), len(external) if external else 3)
    return (draw(st.sampled_from(["none", "log-z"])), pattern_ids, draw(rows),
            draw(st.none() | rows), external)


class TestPerCellReference:
    """The export matches the per-cell statistics and writer kept in
    ``checks`` byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(feature_cases())
    @example(("log-z", ["a"], [("g", 0, 0, (1,)), ("h", 0, 1, None), ("h", 1, 1, None),
                                ("k", 0, 0, (3,))], None, None)).via("NA rows")
    @example(("log-z", ["c", "d"], [("g", v, 0, (7, 2**60 + v)) for v in range(3)], None,
              None)).via("constant columns")
    @example(("log-z", ["x", "y"], [("g", 0, 0, (2**53 + 1, 10**13)), ("g", 1, 0, (5, 3)),
                                     ("g", 2, 0, (0, 2))], None, None)).via("exact up to 10**13")
    @example(("log-z", [], [], None, None)).via("zero patterns, zero graphs")
    @example(("log-z", ["p"], [], None, None)).via("zero graphs")
    @example(("none", [], [("g", 0, 0, ()), ("g", 1, 0, ())], None, None)).via("zero patterns")
    @example(("log-z", ["p", "q"], [("g", 0, 0, (1, 4)), ("g", 1, 0, (9, 4))],
              [("s", 0, 0, (2, 4)), ("s", 1, 0, None), ("t", 0, 0, (3, 5))], None)).via(
        "stats rows")
    @example(("none", ['e,"1"'], [('a,"b', 0, 0, (1,)), ("line\r\nbreak", 0, 1, (2,))], None,
              ['x,"y"', 3])).via("quoted ids and labels, an integer label")
    @example(("log-z", ["n"], [("g", 0, 1, (4,)), ("g", 1, 0, (5,))], None, [7, -2])).via(
        "integer labels through an alphabet")
    def test_matches_per_cell_reference(self, case):
        normalize, pattern_ids, rows, stat_rows, external = case
        table = table_of(rows, pattern_ids, normalize, stat_rows)
        expected = reference_table(rows, pattern_ids, normalize, stat_rows)
        assert table.rows == rows
        stats_input = rows if stat_rows is None else stat_rows
        assert list(map(_stats, _columns(stats_input, len(pattern_ids)))) == (
            checks.column_stats(stats_input, len(pattern_ids)))
        alphabet = None
        if external is not None:
            alphabet = LabelAlphabet()
            for label in external:
                alphabet.intern(label)
        got, want = io.StringIO(), io.StringIO()
        write_csv(table, got, alphabet)
        checks.write_csv(expected, want, alphabet)
        assert got.getvalue() == want.getvalue()

    def test_constant_on_equal_floats_of_distinct_counts(self):
        # 2**60 and 2**60 + 1 are distinct counts with one log1p float
        assert math.log1p(2**60) == math.log1p(2**60 + 1)
        rows = [("g", v, 0, (2**60 + v,)) for v in range(2)]
        table = table_of(rows, ["big"], "log-z")
        (t,) = table.transforms
        assert (t.mean, t.std, t.constant, t.exact) == (math.log1p(2**60), 0.0, True, False)
        buf = io.StringIO()
        write_csv(table, buf)
        assert buf.getvalue().endswith(
            "# column hom_big: mean=41.58883083359672 std=0.0 constant=true exact=false\n"
            "graph_id,vertex_id,label,hom_big\ng,0,0,0.0\ng,1,0,0.0\n")


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

    def test_base_treewidths_by_position_not_id(self):
        # two base patterns share the id "p"; each keeps its own treewidth
        base = [RootedPattern(clique_graph(4, "p"), 0), RootedPattern(path_graph(3, "p"), 0)]
        report = advise(base, [clique_pattern(3)])
        (v,) = report.verdicts
        assert [row["treewidth"] for row in v.evidence["base"]] == [3, 1]
        assert report.bound == 3

    def test_no_hom_is_one_existence_search(self):
        # K1,9 has 10^9 homomorphisms into itself; deciding that one exists counts none
        star = build_graph("S9", 10, [(0, i) for i in range(1, 10)])
        start = time.perf_counter()
        report = advise([RootedPattern(star, 0)], [RootedPattern(star, 1)])
        assert time.perf_counter() - start < 1.0
        (v,) = report.verdicts
        assert v.verdict == "UNKNOWN"
        assert v.evidence["base"][0]["no_hom_into_candidate"] is False

    def test_atlas_verdicts_pinned(self):
        # every connected atlas graph on 1 to 5 vertices at every root, against
        # five base sets: the advisor's JSON is pinned byte for byte
        nx = pytest.importorskip("networkx")
        cands = [
            RootedPattern(build_graph(f"a{i}r{r}", h.number_of_nodes(), list(h.edges())), r)
            for i, h in enumerate(nx.graph_atlas_g())
            if 1 <= h.number_of_nodes() <= 5 and nx.is_connected(h)
            for r in range(h.number_of_nodes())
        ]
        assert len(cands) == 138
        bases = [
            [clique_pattern(3)],
            [clique_pattern(3), clique_pattern(4)],
            [cycle_pattern(4), path_pattern(2)],
            [cycle_pattern(6)],
            [bowtie_pattern(), cycle_pattern(5)],
        ]
        text = "\n".join(json.dumps(advise(b, cands).to_json()) for b in bases)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c5453e13853b5c289d181a8d9c95f9f700c411d56c4ccc14128fce3339a6b579")
