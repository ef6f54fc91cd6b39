import concurrent.futures
import functools
import hashlib
import json
import multiprocessing

import pytest

from homcount import counting
from homcount.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    return write(
        tmp_path / "k3.json",
        json.dumps([{"id": "K3", "n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "root": 0}]),
    )


@pytest.fixture
def c3c4_file(tmp_path):
    return write(
        tmp_path / "c3c4.json",
        json.dumps([{"id": "C3", "n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "root": 0},
                    {"id": "C4", "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "root": 0}]),
    )


@pytest.fixture
def fixture_files(tmp_path):
    g1 = '{"id":"g1","n":6,"edges":[[0,1],[0,2],[1,2],[2,3],[3,4],[3,5],[4,5]]}'
    h1 = '{"id":"h1","n":6,"edges":[[0,1],[0,2],[1,3],[2,3],[2,4],[3,5],[4,5]]}'
    return (
        write(tmp_path / "g1.jsonl", g1 + "\n"),
        write(tmp_path / "h1.jsonl", h1 + "\n"),
    )


@pytest.fixture
def fig2_files(tmp_path):
    g2 = ('{"id":"g2","n":9,"edges":[[0,1],[0,2],[1,2],[1,3],[2,5],[3,4],[3,6],'
          '[4,5],[5,7],[6,7],[6,8],[7,8]]}')
    h2 = ('{"id":"h2","n":9,"edges":[[0,1],[0,2],[0,4],[1,2],[1,3],[2,5],[3,6],'
          '[4,7],[5,8],[6,7],[6,8],[7,8]]}')
    return (
        write(tmp_path / "g2.jsonl", g2 + "\n"),
        write(tmp_path / "h2.jsonl", h2 + "\n"),
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_limited(*argv, timeout=60, limit=1 << 30):
    """The CLI in a child process under an address-space limit of ``limit``
    bytes (default 1 GB), so running out of memory shows as a failed run
    rather than as a stalled machine."""
    import os
    import resource
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-c", "import sys; from homcount.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=limit_memory)


class TestWl:
    def test_plain_not_distinguished(self, capsys, fixture_files):
        a, b = fixture_files
        code, out, _ = run(capsys, "wl", a, b, "--variant", "wl1")
        assert code == 0
        verdict = json.loads(out)
        assert verdict == {"pair": ["g1", "h1"], "distinguished": False, "round": None}

    def test_fwl_distinguished(self, capsys, fixture_files, k3_file):
        a, b = fixture_files
        code, out, _ = run(capsys, "wl", a, b, "--variant", "fwl", "--patterns", k3_file)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["distinguished"] is True and verdict["round"] == 0

    def test_fwl_round_one_on_second_fixture(self, capsys, fig2_files, k3_file):
        a, b = fig2_files
        code, out, _ = run(capsys, "wl", a, b, "--variant", "fwl", "--patterns", k3_file)
        assert json.loads(out)["round"] == 1

    def test_same_graph(self, capsys, fixture_files):
        a, _ = fixture_files
        code, out, _ = run(capsys, "wl", a, a, "--variant", "kwl", "--k", "2")
        assert code == 0
        assert json.loads(out)["distinguished"] is False

    def test_guard_exit_code(self, capsys, fixture_files):
        a, b = fixture_files
        code, _, err = run(capsys, "wl", a, b, "--variant", "kwl", "--k", "4")
        assert code == 3
        assert err.startswith("error: guard:")

    def test_kwl_guard_counts_signature_entries(self, capsys, tmp_path, monkeypatch):
        # 200^2 tuples per graph are few, but a 2-WL round would build
        # 2 * 200^3 signature entries; the guard trips before any tuple
        import homcount.refinement as refinement

        def no_tuples(*args, **kwargs):
            raise AssertionError("tuples built before the guard")

        monkeypatch.setattr(refinement, "product", no_tuples)
        path = write(tmp_path / "big.jsonl", json.dumps({"id": "big", "n": 200, "edges": []}) + "\n")
        code, out, err = run(capsys, "wl", path, path, "--variant", "kwl", "--k", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: guard:") and err.count("\n") == 1

    def test_kwl3_on_cfi_k5_within_200_megabytes(self, tmp_path):
        # CFI(K5), two 40-vertex graphs: a 3-WL round signs 5.12M signature
        # entries, but one cell at a time (under 50 MB peak); under a 200 MB
        # address-space limit it runs to stability, not distinguished
        from homcount.families import cfi_pair, clique_pattern

        pair = cfi_pair(clique_pattern(5))
        paths = [write(tmp_path / f"{g.id}.jsonl", json.dumps(g.to_record()) + "\n")
                 for g in (pair.g, pair.h)]
        out = run_limited("wl", *paths, "--variant", "kwl", "--k", "3", timeout=120,
                          limit=200 << 20)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"pair": [pair.g.id, pair.h.id],
                                          "distinguished": False, "round": None}

    @pytest.mark.parametrize("k,code,kind", [
        ("0", 2, "invalid"), ("-1", 2, "invalid"), ("4", 3, "guard"),
    ])
    def test_kwl_dimension_exit_codes(self, capsys, fixture_files, k, code, kind):
        a, b = fixture_files
        got, out, err = run(capsys, "wl", a, b, "--variant", "kwl", "--k", k)
        assert got == code and out == ""
        assert err == f"error: {kind}: k must be 1, 2 or 3, got {k}\n"

    @pytest.mark.parametrize("variant", [
        ["--variant", "wl1"],
        ["--variant", "fwl"],
        ["--variant", "kwl", "--k", "2"],
    ], ids=["wl1", "fwl", "kwl"])
    def test_negative_rounds_exit_2(self, capsys, fixture_files, variant):
        a, b = fixture_files
        code, out, err = run(capsys, "wl", a, b, *variant, "--rounds", "-1")
        assert code == 2 and out == ""
        assert err == "error: invalid: max_rounds must be nonnegative, got -1\n"


class TestGen:
    def test_fig1_golden(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "fig1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        recs = [json.loads(l) for l in lines]
        assert recs[0]["id"] == "g1" and recs[1]["id"] == "h1"
        assert recs[0]["meta"]["marked_vertex"] == 0

    def test_cycle_union(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "cycle-union", "--m", "3")
        recs = [json.loads(l) for l in out.strip().splitlines()]
        assert recs[0]["n"] == 20 and recs[1]["n"] == 20

    def test_cfi_from_pattern(self, capsys, k3_file):
        code, out, _ = run(capsys, "gen", "--family", "cfi", "--pattern", k3_file)
        assert code == 0
        recs = [json.loads(l) for l in out.strip().splitlines()]
        assert [r["n"] for r in recs] == [6, 6]
        assert recs[0]["meta"]["family"] == "cfi"

    def test_missing_param(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "cycle-union")
        assert code == 2
        assert err.startswith("error:")

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "nope")
        assert code == 2

    @pytest.mark.parametrize("family,size", [
        ("cycle-union", 100001 * 100002), ("cycle-hierarchy", 3000 * 3001), ("cfi", 2 ** 39 + 40),
    ])
    def test_huge_family_trips_guard(self, tmp_path, family, size):
        # under a 1 GB address-space limit: the vertex count is checked before
        # any vertex is built, so one guard line, no MemoryError traceback
        star = write(tmp_path / "star.json", json.dumps(
            [{"id": "S40", "n": 41, "edges": [[0, v] for v in range(1, 41)], "root": 0}]))
        param = {"cycle-union": ["--m", "100000"], "cycle-hierarchy": ["--k", "3000"],
                 "cfi": ["--pattern", star]}[family]
        out_path = tmp_path / "out.jsonl"
        out = run_limited("gen", "--family", family, *param, "--output", str(out_path))
        assert out.returncode == 3 and out.stdout == "" and not out_path.exists()
        assert out.stderr == f"error: guard: graphs limited to 4194304 vertices, got {size}\n"

    def test_huge_cfi_gadget_trips_edge_guard(self, tmp_path):
        # K1,20 passes the vertex guard (2^19 + 20 vertices per graph), not the
        # edge guard (20 * 2^18 edges per graph), which is checked before any
        # vertex is built: one guard line under a 1 GB address-space limit
        star = write(tmp_path / "star.json", json.dumps(
            [{"id": "S20", "n": 21, "edges": [[0, v] for v in range(1, 21)], "root": 0}]))
        out_path = tmp_path / "out.jsonl"
        out = run_limited("gen", "--family", "cfi", "--pattern", star, "--output", str(out_path))
        assert out.returncode == 3 and out.stdout == "" and not out_path.exists()
        assert out.stderr == ("error: guard: cfi gadgets limited to 2097152 edges, "
                              f"got {20 * 2 ** 18}\n")


class TestFeatures:
    def test_fixture_csv(self, capsys, tmp_path, fixture_files, k3_file):
        a, b = fixture_files
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            open(a).read() + open(b).read(), encoding="utf-8"
        )
        out_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "features", str(dataset), "--patterns", k3_file,
                         "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "graph_id,vertex_id,label,hom_K3"
        assert data[1] == "g1,0,0,2"
        assert data[7] == "h1,0,0,0"
        assert len(data) == 1 + 12

    def test_parse_error_exit(self, capsys, tmp_path, k3_file):
        bad = write(tmp_path / "bad.jsonl", '{"id":"x","n":2,"edges":[[0,0]]}\n')
        code, _, err = run(capsys, "features", bad, "--patterns", k3_file)
        assert code == 2
        assert err.startswith("error: parse:") and "bad.jsonl:1" in err

    @pytest.mark.parametrize("command", ["features", "count"])
    def test_nested_graph_json_exit_2(self, capsys, tmp_path, k3_file, command):
        # too deep for the JSON decoder's recursion: invalid JSON, not a traceback
        bad = write(tmp_path / "deep.jsonl", "[" * 100_000 + "\n")
        argv = {"features": ["features", bad, "--patterns", k3_file],
                "count": ["count", "--pattern", k3_file, "--graph", bad]}[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: parse:") and "deep.jsonl:1: invalid JSON" in err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["features", "count"])
    def test_huge_vertex_count_trips_guard(self, tmp_path, k3_file, command):
        # under a 1 GB address-space limit: the guard trips before anything
        # is built per vertex, so no MemoryError traceback
        huge = write(tmp_path / "huge.jsonl", '{"id": "g", "n": 1000000000000, "edges": []}\n')
        argv = {"features": ["features", huge, "--patterns", k3_file],
                "count": ["count", "--pattern", k3_file, "--graph", huge]}[command]
        out = run_limited(*argv)
        assert out.returncode == 3 and out.stdout == ""
        assert out.stderr == (f"error: guard: {huge}:1: graphs limited to 4194304 vertices, "
                              "got 1000000000000\n")

    @pytest.mark.parametrize("command", ["features", "count"])
    def test_out_of_memory_exit_3(self, tmp_path, command):
        # K5 on K40 passes every size guard, and its DP tables outgrow a 400 MB
        # address space: one guard line, no MemoryError traceback, no output
        k5 = write(tmp_path / "k5.json", json.dumps(
            [{"id": "K5", "n": 5, "edges": [[u, v] for v in range(5) for u in range(v)],
              "root": 0}]))
        k40 = write(tmp_path / "k40.jsonl", json.dumps(
            {"id": "K40", "n": 40, "edges": [[u, v] for v in range(40) for u in range(v)]}) + "\n")
        out_path = tmp_path / "out.csv"
        argv = {"features": ["features", k40, "--patterns", k5],
                "count": ["count", "--pattern", k5, "--graph", k40]}[command]
        out = run_limited(*argv, "--output", str(out_path), limit=400 << 20)
        assert out.returncode == 3 and out.stdout == "" and not out_path.exists()
        assert out.stderr == "error: guard: out of memory\n"

    @pytest.mark.parametrize("error,code,message", [
        (MemoryError(), 3, "error: guard: out of memory\n"),
        (OSError(28, "No space left on device"), 2,
         "error: invalid: [Errno 28] No space left on device\n"),
    ], ids=["memory", "os-error"])
    def test_failed_write_leaves_no_file(self, capsys, monkeypatch, tmp_path, fixture_files,
                                         k3_file, error, code, message):
        # the writer fails after its first line: the file it was writing goes
        from homcount import cli

        def partial(table, out, alphabet):
            out.write(f"# mode: {table.mode}\n")
            raise error

        monkeypatch.setattr(cli, "write_csv", partial)
        out_path = tmp_path / "partial.csv"
        got = run(capsys, "features", fixture_files[0], "--patterns", k3_file,
                  "--output", str(out_path))
        assert got == (code, "", message) and not out_path.exists()

    def test_bad_label_exit_2(self, capsys, tmp_path, k3_file):
        bad = write(tmp_path / "bad.jsonl", '{"id":"x","n":2,"labels":[0,[1]],"edges":[[0,1]]}\n')
        code, out, err = run(capsys, "features", bad, "--patterns", k3_file)
        assert code == 2 and out == ""
        assert err.startswith("error: parse:") and "label [1]" in err and err.count("\n") == 1

    def test_line_break_in_log_z_pattern_id_exit_2(self, capsys, tmp_path, fixture_files):
        pats = write(tmp_path / "nl.json", json.dumps(
            [{"id": "a\nb", "n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "root": 0}]))
        out_path = tmp_path / "out.csv"
        code, out, err = run(capsys, "features", fixture_files[0], "--patterns", pats,
                             "--normalize", "log-z", "--output", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert err == ("error: invalid: pattern id 'a\\nb' has a line break; "
                       "a log-z header line cannot hold it\n")

    def test_byte_identical_across_threads(self, capsys, tmp_path, k3_file):
        import random

        rng = random.Random(5)
        lines = []
        for i in range(30):
            n = rng.randrange(4, 9)
            edges = [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            lines.append(json.dumps({"id": f"g{i}", "n": n, "edges": edges}))
        dataset = write(tmp_path / "many.jsonl", "\n".join(lines) + "\n")
        outputs = []
        for t in ("1", "4", "8"):
            path = tmp_path / f"out{t}.csv"
            code, _, _ = run(capsys, "features", dataset, "--patterns", k3_file,
                             "--normalize", "log-z", "--threads", t,
                             "--output", str(path))
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestBatchedFeatures:
    """A dataset large enough that ``features`` runs batched array DPs gives
    the same bytes at every thread count, and a graph whose counts overflow
    among the batched ones gets NA rows and the error line alone."""

    @pytest.fixture
    def dataset(self, tmp_path):
        import random

        from test_counting import molecule_graphs

        graphs = molecule_graphs(random.Random(127), 160, sizes=(15, 40))
        # rooted K_{1,13} counts 900**13 > 2**127 - 1 at the centre of this
        # star, whose label 0 keeps the label-1 cycles off it
        star = {"id": "star", "n": 901, "edges": [[0, v] for v in range(1, 901)]}
        lines = [json.dumps(g.to_record()) for g in graphs]
        lines.insert(80, json.dumps(star))
        return write(tmp_path / "molecules.jsonl", "\n".join(lines) + "\n")

    @staticmethod
    def patterns(tmp_path, star):
        records = [{"id": f"C{k}", "n": k, "labels": [1] * k,
                    "edges": [[i, (i + 1) % k] for i in range(k)], "root": 0} for k in (5, 6)]
        if star:
            records.append({"id": "S13", "n": 14, "edges": [[0, v] for v in range(1, 14)],
                            "root": 0})
        return write(tmp_path / "patterns.json", json.dumps(records))

    def features(self, capsys, monkeypatch, *argv):
        """The run at --threads 1, 2 and 0, which must agree; returns it and
        the batch sizes of the array DPs of the in-process run."""
        from homcount import dp_arrays

        sizes = []
        real = dp_arrays.run_dp
        monkeypatch.setattr(dp_arrays, "run_dp",
                            lambda plan, blocks: sizes.append(blocks.m) or real(plan, blocks))
        results = [run(capsys, "features", *argv, "--threads", t) for t in ("1", "2", "0")]
        assert results[0] == results[1] == results[2]
        return results[0], sizes

    def test_hom_log_z_with_an_overflowing_graph(self, capsys, monkeypatch, tmp_path, dataset):
        (code, out, err), sizes = self.features(
            capsys, monkeypatch, dataset, "--patterns", self.patterns(tmp_path, True),
            "--mode", "hom", "--normalize", "log-z")
        assert code == 0
        # the molecules on either side of the star, and the star alone: its
        # hub makes C5 and C6 worth the arrays to the label-blind estimate
        assert sorted(set(sizes)) == [1, 80]
        assert err.startswith("error: overflow: graph star ") and err.count("\n") == 1
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        na = [r for r in rows if "NA" in r]
        assert len(na) == 901 and all(r[0] == "star" and r[3:] == ["NA"] * 3 for r in na)
        molecules = [r for r in rows[1:] if r[0] != "star"]
        assert len(molecules) == sum(
            json.loads(line)["n"] for line in open(dataset) if '"star"' not in line)

    def test_sub(self, capsys, monkeypatch, tmp_path, dataset):
        (code, out, err), sizes = self.features(
            capsys, monkeypatch, dataset, "--patterns", self.patterns(tmp_path, False),
            "--mode", "sub", "--normalize", "none")
        assert code == 0 and err == ""
        assert sizes and max(sizes) == 80
        assert out.count("\nstar,") == 901


class TestFeatureBytesPinned:
    """SHA-256 of whole ``features`` CSVs on a fixed-seed molecule-like
    dataset, taken from the per-cell writer, at --threads 1 and 2."""

    DIGESTS = {
        "hom-log-z": "48b1501265264aef08a2c463d85d0837e8af95cb001c4d29b0b590f21710dd72",
        "sub-none": "b7a2d90de2c923b84d09f742218f4609209b35762e93b220bb0a2c635f24825d",
        "stats-from": "a907b0e977f58078992cac610c7ac8cb1dae408778228ee91d13c003db55f5c7",
        "na-row": "a39b78499175627e7b51f4dc27e599197e62a86451cb770d2b1ecc8f2186637e",
    }

    @pytest.fixture
    def files(self, tmp_path):
        import random

        from test_counting import molecule_graphs

        lines = [json.dumps(g.to_record())
                 for g in molecule_graphs(random.Random(211), 40, sizes=(15, 40))]
        # K8's rooted C6 counts (7**6 + 7) / 8 = 14707 at every vertex; its
        # id needs quoting
        lines.insert(20, json.dumps({"id": 'k8, "dense"', "n": 8,
                                     "edges": [[u, v] for v in range(8) for u in range(v)]}))
        stats = [json.dumps(g.to_record())
                 for g in molecule_graphs(random.Random(212), 20, sizes=(15, 40))]
        patterns = [
            {"id": "K3", "n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "root": 0},
            {"id": "C4", "n": 4, "labels": [0, 1, 0, 1],
             "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "root": 0},
            {"id": "C6", "n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)], "root": 0},
            {"id": "L2", "n": 3, "labels": [1, 0, 2], "edges": [[0, 1], [1, 2]], "root": 0},
        ]
        return (write(tmp_path / "data.jsonl", "\n".join(lines) + "\n"),
                write(tmp_path / "stats.jsonl", "\n".join(stats) + "\n"),
                write(tmp_path / "patterns.json", json.dumps(patterns)))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", list(DIGESTS))
    def test_bytes_pinned(self, capsys, monkeypatch, files, case, threads):
        dataset, stats, patterns = files
        flags = {"hom-log-z": ["--normalize", "log-z"],
                 "sub-none": ["--mode", "sub"],
                 "stats-from": ["--normalize", "log-z", "--stats-from", stats],
                 "na-row": ["--normalize", "log-z"]}[case]
        if case == "na-row":
            # a ceiling that K8's C6 counts pass and no molecule's counts reach;
            # pool workers see the patched module only when they are forked
            monkeypatch.setattr(counting, "MAX_COUNT", 5000)
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
                concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        code, out, err = run(capsys, "features", dataset, "--patterns", patterns, *flags,
                             "--threads", threads)
        assert code == 0
        assert err == ("error: overflow: graph k8, \"dense\" exceeded the count limit; "
                       "rows flagged NA\n" if case == "na-row" else "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[case]


class TestThreads:
    @pytest.fixture
    def argvs(self, tmp_path, fixture_files, k3_file):
        a, b = fixture_files
        three = write(tmp_path / "three.jsonl", "".join(
            json.dumps({"id": f"t{i}", "n": 3 + i, "edges": [[0, 1], [1, 2]]}) + "\n"
            for i in range(3)))
        return {
            "features": ["features", three, "--patterns", k3_file, "--mode", "sub"],
            "advise": ["advise", "--patterns", k3_file, "--candidates", k3_file],
            "wl": ["wl", a, b],
            "gen": ["gen", "--family", "fig1"],
            "witness": ["witness", a, b, "--patterns", k3_file],
            "count": ["count", "--pattern", k3_file, "--graph", a],
        }

    @pytest.mark.parametrize("command", ["features", "advise", "wl", "gen", "witness", "count"])
    def test_negative_threads_exit_2(self, capsys, argvs, command):
        code, out, err = run(capsys, *argvs[command], "--threads", "-1")
        assert code == 2 and out == ""
        assert err == "error: usage: argument --threads: must be 0 or more, got -1\n"

    def test_small_thread_counts_agree(self, capsys, argvs):
        outputs = []
        for t in ("1", "2"):
            code, out, _ = run(capsys, *argvs["features"], "--threads", t)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") > 3


class TestOverflow:
    """A count above the ceiling exits 1 with one ``error: overflow:`` line,
    except in ``features``, which flags the graph's rows NA and exits 0."""

    @pytest.fixture(autouse=True)
    def low_ceiling(self, monkeypatch):
        monkeypatch.setattr(counting, "MAX_COUNT", 1)  # K3 counts 2 at g1's vertices

    @pytest.mark.parametrize("command", ["count", "fwl", "witness"])
    def test_exit_1(self, capsys, fixture_files, k3_file, command):
        a, b = fixture_files
        argv = {
            "count": ["count", "--pattern", k3_file, "--graph", a],
            "fwl": ["wl", a, b, "--variant", "fwl", "--patterns", k3_file],
            "witness": ["witness", a, b, "--patterns", k3_file],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: overflow:") and err.count("\n") == 1

    def test_count_total_checked(self, capsys, monkeypatch, fixture_files, k3_file):
        # K3 counts 2 at each of g1's 6 vertices: under a ceiling of 11 every
        # anchor fits, and the printed total of 12 does not
        monkeypatch.setattr(counting, "MAX_COUNT", 11)
        code, out, err = run(capsys, "count", "--pattern", k3_file, "--graph", fixture_files[0])
        assert code == 1 and out == ""
        assert err.startswith("error: overflow:") and err.count("\n") == 1

    def test_features_flags_rows(self, capsys, fixture_files, k3_file):
        code, out, err = run(capsys, "features", fixture_files[0], "--patterns", k3_file)
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("g1,")]
        assert len(rows) == 6 and all(r.endswith(",NA") for r in rows)
        assert err.startswith("error: overflow: graph g1") and err.count("\n") == 1

    def test_stats_overflow_reported(self, capsys, tmp_path, fixture_files, k3_file):
        # h1 has no triangle, so its export fits; both statistics graphs
        # overflow and are left out of the statistics, each with one line
        k5 = json.dumps({"id": "k5", "n": 5,
                         "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]})
        stats = write(tmp_path / "stats.jsonl", open(fixture_files[0]).read() + k5 + "\n")
        code, out, err = run(capsys, "features", fixture_files[1], "--patterns", k3_file,
                             "--normalize", "log-z", "--stats-from", stats)
        assert code == 0
        assert "# column hom_K3: mean=0.0 std=0.0 constant=true\n" in out
        assert err == "".join(
            f"error: overflow: stats graph {gid} exceeded the count limit; "
            "left out of the statistics\n" for gid in ("g1", "k5"))


class TestMalformedPatterns:
    """A pattern file whose record is not a JSON object, or that is not JSON,
    exits 2 with one ``error: parse:`` line in every subcommand that reads one."""

    COMMANDS = {
        "features": ["features", "A", "--patterns", "P"],
        "fwl": ["wl", "A", "B", "--variant", "fwl", "--patterns", "P"],
        "witness": ["witness", "A", "B", "--patterns", "P"],
        "advise": ["advise", "--patterns", "P", "--candidates", "P"],
        "count": ["count", "--pattern", "P", "--graph", "A"],
        "cfi": ["gen", "--family", "cfi", "--pattern", "P"],
    }

    @pytest.mark.parametrize("text", [
        "[5]", "[null]", "[true]", "[[0, 1]]",
        json.dumps([json.dumps({"id": "K1", "n": 1, "edges": [], "root": 0})]), "5", "{",
        "[" * 100_000,
    ], ids=["number", "null", "boolean", "list", "string", "bare-number", "bad-json", "nested"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exit_2(self, capsys, tmp_path, fixture_files, command, text):
        a, b = fixture_files
        p = write(tmp_path / "bad.json", text)
        argv = [{"A": a, "B": b, "P": p}.get(x, x) for x in self.COMMANDS[command]]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: parse:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("record,code,message", [
        ({"id": "big", "n": 5_000_000, "edges": [], "root": 0}, 3,
         "guard: {}: graphs limited to 4194304 vertices, got 5000000"),
        ({"id": "badroot", "n": 3, "edges": [[0, 1]], "root": 7}, 2,
         "parse: {}: root 7 out of range"),
    ], ids=["guard", "parse"])
    # a pattern set is a JSON array; count and cfi also take one bare record
    @pytest.mark.parametrize("command,listed", [(c, True) for c in COMMANDS] + [
        ("count", False), ("cfi", False)])
    def test_error_names_the_file(self, capsys, tmp_path, fixture_files, command, listed,
                                  record, code, message):
        a, b = fixture_files
        p = write(tmp_path / "pat.json", json.dumps([record] if listed else record))
        argv = [{"A": a, "B": b, "P": p}.get(x, x) for x in self.COMMANDS[command]]
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        assert err == "error: " + message.format(p + "[0]" if listed else p) + "\n"


class TestAdvise:
    def test_golden_cases(self, capsys, tmp_path, k3_file):
        bowtie = {"id": "bowtie", "n": 5, "root": 0,
                  "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [0, 4], [3, 4]]}
        k4 = {"id": "K4", "n": 4, "root": 0,
              "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
        cands = write(tmp_path / "cands.json", json.dumps([bowtie, k4]))
        code, out, _ = run(capsys, "advise", "--patterns", k3_file,
                           "--candidates", cands)
        assert code == 0
        report = json.loads(out)
        verdicts = {v["candidate"]: v for v in report["verdicts"]}
        assert verdicts["bowtie"]["verdict"] == "REDUNDANT"
        assert verdicts["K4"]["verdict"] == "GUARANTEED_GAIN"
        assert verdicts["K4"]["rule"] == "treewidth"
        assert report["dimension_bound"] == 3

    def test_large_candidate_trips_guard_before_core_search(self, capsys, monkeypatch,
                                                             tmp_path, k3_file):
        from homcount import pipeline

        monkeypatch.setattr(pipeline, "core_of", lambda q: pytest.fail("core_of ran"))
        c17 = {"id": "C17", "n": 17, "root": 0, "edges": [[i, (i + 1) % 17] for i in range(17)]}
        cands = write(tmp_path / "c17.json", json.dumps([c17]))
        code, out, err = run(capsys, "advise", "--patterns", k3_file, "--candidates", cands)
        assert code == 3 and out == ""
        assert err == "error: guard: exact treewidth limited to 14 vertices, got 17\n"


class TestWitness:
    # SHA-256 of the whole stdout: the witness JSON is pinned byte for byte
    def test_fig2_c3c4_bytes_pinned(self, capsys, fig2_files, c3c4_file):
        code, out, _ = run(capsys, "witness", *fig2_files, "--patterns", c3c4_file,
                           "--depth", "1")
        assert code == 0
        assert json.loads(out)["trees_enumerated"] == 504
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "23e664398c37280088cc70c26cd9256a317debde5216c22328111e2a469ee053")

    # graph ids never reach the report: both ids "g", as the bench runs it, gives the same bytes
    @pytest.mark.parametrize("same_id", [False, True], ids=["fixture", "same-id"])
    def test_fig1_k3_bytes_pinned(self, capsys, tmp_path, fixture_files, k3_file, same_id):
        paths = fixture_files
        if same_id:
            records = [dict(json.load(open(path)), id="g") for path in fixture_files]
            paths = [write(tmp_path / f"same{i}.jsonl", json.dumps(rec) + "\n")
                     for i, rec in enumerate(records)]
        code, out, _ = run(capsys, "witness", *paths, "--patterns", k3_file)
        assert code == 0
        assert json.loads(out)["trees_enumerated"] == 222
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2a63b1821e352f199e82dd0369006a30e939ecf0edcb4f707601ee119560304f")

    def test_fig2_vertex_bytes_pinned(self, capsys, fig2_files, k3_file):
        code, out, _ = run(capsys, "witness", *fig2_files, "--patterns", k3_file,
                           "--depth", "1", "--vertices", "4", "4")
        assert code == 0
        assert json.loads(out)["witness"]["kind"] == "vertex"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bdda2c77148da0615288835e07943074b3daab941a82bc72e14b7695df53097e")

    # the bench's witness commands; fig2 {K3} at a vertex pair is pinned above
    def test_fig2_c3c4_default_depth_bytes_pinned(self, capsys, fig2_files, c3c4_file):
        code, out, _ = run(capsys, "witness", *fig2_files, "--patterns", c3c4_file)
        assert code == 0
        assert json.loads(out)["trees_enumerated"] == 2772
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "43f62829a2f968fe1adf6f954e8c6f0b6a4b124ec91d5784168f4d424035e725")

    def test_fig2_truncated_bytes_pinned(self, capsys, fig2_files, c3c4_file):
        code, out, _ = run(capsys, "witness", *fig2_files, "--patterns", c3c4_file,
                           "--max-trees", "50")
        assert code == 0
        report = json.loads(out)
        assert report["budget_truncated"] is True and report["trees_enumerated"] == 50
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4309a4cf0d9f2543f094b5fffd5e596372029ae563df99d41d03b5d69135d602")

    def test_fig2_witness(self, capsys, fig2_files, k3_file):
        a, b = fig2_files
        code, out, _ = run(capsys, "witness", a, b, "--patterns", k3_file,
                           "--depth", "1", "--vertices", "4", "4")
        assert code == 0
        report = json.loads(out)
        assert report["distinguished"] is True
        assert report["witness"]["counts"] == [0, 4]
        assert report["forward_violations"] == []

    def test_same_id_pair_finds_witness(self, capsys, tmp_path, fixture_files, k3_file):
        # two different graphs that share an id must not share attachment counts
        paths = []
        for i, path in enumerate(fixture_files):
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            rec["id"] = "g"
            paths.append(write(tmp_path / f"same{i}.jsonl", json.dumps(rec) + "\n"))
        code, out, _ = run(capsys, "witness", *paths, "--patterns", k3_file)
        assert code == 0
        report = json.loads(out)
        assert report["distinguished"] is True
        assert report["witness"]["counts"] == [12, 0]

    @pytest.mark.parametrize("flag,value,message", [
        ("--depth", "-1", "depth must be at least 0, got -1"),
        ("--max-backbone", "0", "backbone must be at least 1, got 0"),
        ("--max-multiplicity", "-1", "multiplicity must be at least 0, got -1"),
        ("--max-trees", "0", "max_trees must be at least 1, got 0"),
    ], ids=["depth", "backbone", "multiplicity", "max_trees"])
    def test_bad_budget_exit_2(self, capsys, fixture_files, k3_file, flag, value, message):
        a, b = fixture_files
        code, out, err = run(capsys, "witness", a, b, "--patterns", k3_file, flag, value)
        assert code == 2 and out == ""
        assert err == f"error: invalid: budget {message}\n"

    @pytest.mark.parametrize("pair,message", [
        (("0", "99"), "vertex 99 out of range for graph h1 with 6 vertices"),
        (("6", "0"), "vertex 6 out of range for graph g1 with 6 vertices"),
        (("-1", "0"), "vertex -1 out of range for graph g1 with 6 vertices"),
    ], ids=["past-h", "past-g", "negative"])
    def test_vertices_out_of_range_exit_2(self, capsys, fixture_files, k3_file, pair, message):
        a, b = fixture_files
        code, out, err = run(capsys, "witness", a, b, "--patterns", k3_file, "--vertices", *pair)
        assert code == 2 and out == ""
        assert err == f"error: invalid: {message}\n"

    def test_same_graph_no_witness(self, capsys, fig2_files, k3_file):
        a, _ = fig2_files
        code, out, _ = run(capsys, "witness", a, a, "--patterns", k3_file,
                           "--depth", "1")
        assert code == 0
        report = json.loads(out)
        assert report["distinguished"] is False
        assert "witness" not in report


def star_files(tmp_path, b_leaf):
    """A 3001-vertex star labelled ``a``, and K1,12 rooted at its centre with
    leaf ``b_leaf`` labelled ``b``: every count is 0, though partial counts
    of the other leaves reach 3000**11 > 2**127 - 1 on the way."""
    star = json.dumps({"id": "star", "n": 3001, "labels": ["a"] * 3001,
                       "edges": [[0, v] for v in range(1, 3001)]})
    pattern = json.dumps([{"id": "K1,12", "n": 13, "root": 0,
                           "labels": ["b" if v == b_leaf else "a" for v in range(13)],
                           "edges": [[0, v] for v in range(1, 13)]}])
    return write(tmp_path / "star.jsonl", star + "\n"), write(tmp_path / "k1_12.json", pattern)


class TestCount:
    def test_star_with_a_b_leaf_counts_zero(self, capsys, tmp_path):
        graph, pattern = star_files(tmp_path, b_leaf=1)
        for extra in (["--anchor", "0"], [], ["--engine", "brute", "--anchor", "0"]):
            code, out, err = run(capsys, "count", "--pattern", pattern, "--graph", graph, *extra)
            assert code == 0 and err == ""
            result = json.loads(out)
            assert result.get("count", 0) == result.get("total", 0) == 0
        code, out, err = run(capsys, "features", graph, "--patterns", pattern)
        assert code == 0 and err == ""
        rows = out.splitlines()[3:]
        assert len(rows) == 3001 and all(row.endswith(",a,0") for row in rows)

    def test_dp_counts(self, capsys, fixture_files, k3_file):
        a, _ = fixture_files
        code, out, _ = run(capsys, "count", "--pattern", k3_file, "--graph", a)
        assert code == 0
        result = json.loads(out)
        assert result["counts"] == [2] * 6 and result["total"] == 12

    def test_brute_anchor(self, capsys, fixture_files, k3_file):
        a, _ = fixture_files
        code, out, _ = run(capsys, "count", "--pattern", k3_file, "--graph", a,
                           "--engine", "brute", "--anchor", "0")
        assert json.loads(out)["count"] == 2

    @pytest.mark.parametrize("extra", [
        ["--anchor", "-4"],
        ["--anchor", "6"],
        ["--engine", "brute", "--anchor", "6"],
        ["--engine", "brute", "--anchor", "-1"],
        ["--mode", "sub", "--anchor", "-1"],
    ])
    def test_anchor_out_of_range_exit_2(self, capsys, fixture_files, k3_file, extra):
        a, _ = fixture_files
        code, out, err = run(capsys, "count", "--pattern", k3_file, "--graph", a, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid: anchor")

    def test_sub_mode(self, capsys, fixture_files, k3_file):
        a, _ = fixture_files
        code, out, _ = run(capsys, "count", "--pattern", k3_file, "--graph", a,
                           "--mode", "sub")
        assert json.loads(out)["counts"] == [1] * 6

    @pytest.mark.parametrize("mode", ["inj", "sub"])
    def test_brute_engine_counts_hom_only(self, capsys, fixture_files, k3_file, mode):
        a, _ = fixture_files
        code, out, err = run(capsys, "count", "--pattern", k3_file, "--graph", a,
                             "--engine", "brute", "--mode", mode)
        assert code == 2 and out == ""
        assert err == ("error: invalid: the brute engine counts homomorphisms only, "
                       f"not --mode {mode}\n")

    @pytest.mark.parametrize("mode,counts", [("hom", [2] * 6), ("inj", [2] * 6), ("sub", [1] * 6)])
    def test_modes_share_one_path(self, capsys, fixture_files, k3_file, mode, counts):
        a, _ = fixture_files
        code, out, _ = run(capsys, "count", "--pattern", k3_file, "--graph", a, "--mode", mode)
        assert code == 0
        assert json.loads(out) == {"graph": "g1", "pattern": "K3", "mode": mode,
                                   "counts": counts, "total": sum(counts)}


def test_index_error_in_a_handler_propagates(monkeypatch, fixture_files, k3_file):
    # an IndexError is a program fault, not bad input: it must not exit 2
    from homcount import cli

    def fault(args):
        raise IndexError("fault")

    monkeypatch.setitem(cli._HANDLERS, "count", fault)
    with pytest.raises(IndexError):
        main(["count", "--pattern", k3_file, "--graph", fixture_files[0]])
