"""Each output checker accepts the program's real output and rejects a corrupted copy.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import inputs
import oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from homcount.cli import main as homcount  # noqa: E402


@pytest.fixture(scope="module")
def molecules(tmp_path_factory):
    work = tmp_path_factory.mktemp("molecules")
    graphs = inputs.molecules(7)[:40]
    patterns = inputs.molecule_patterns()
    inputs.write_jsonl(work / "g.jsonl", graphs)
    inputs.write_json(work / "p.json", patterns)
    outputs = {}
    for mode, normalize in (("hom", "log-z"), ("hom", "none"), ("sub", "none")):
        out = work / f"{mode}-{normalize}.csv"
        assert homcount(["features", str(work / "g.jsonl"), "--patterns", str(work / "p.json"),
                         "--mode", mode, "--normalize", normalize, "--output", str(out)]) == 0
        outputs[mode, normalize] = out.read_text()
    hom = oracle.feature_columns(graphs, [oracle.hom_counts(g, patterns) for g in graphs])
    auts = [oracle.root_automorphisms(p) for p in patterns]
    sub = oracle.feature_columns(graphs, [oracle.sub_counts(g, patterns, auts) for g in graphs])
    return graphs, [p["id"] for p in patterns], outputs, {"hom": hom, "sub": sub}


def _edit_cell(text: str, row: int, col: int, edit) -> str:
    lines = text.split("\n")
    first = next(i for i, line in enumerate(lines) if line.startswith("graph_id,")) + 1
    cells = lines[first + row].split(",")
    cells[col] = edit(cells[col])
    lines[first + row] = ",".join(cells)
    return "\n".join(lines)


def _nonzero_cell(columns, col: int) -> int:
    return next(i for i, c in enumerate(columns[col]) if c > 0)


@pytest.mark.parametrize("mode,normalize", [("hom", "none"), ("sub", "none"), ("hom", "log-z")])
def test_features_accepts_program_output(molecules, mode, normalize):
    graphs, ids, outputs, expected = molecules
    text = outputs[mode, normalize]
    assert oracle.check_features(text, graphs, ids, mode, normalize, expected[mode]) == []


@pytest.mark.parametrize("mode", ["hom", "sub"])
def test_features_rejects_count_off_by_one(molecules, mode):
    graphs, ids, outputs, expected = molecules
    row = _nonzero_cell(expected[mode], 1)
    bad = _edit_cell(outputs[mode, "none"], row, 4, lambda c: str(int(c) + 1))
    assert oracle.check_features(bad, graphs, ids, mode, "none", expected[mode])


def test_features_rejects_perturbed_z_score(molecules):
    graphs, ids, outputs, expected = molecules
    bad = _edit_cell(outputs["hom", "log-z"], 3, 4, lambda c: repr(float(c) + 1e-6))
    assert oracle.check_features(bad, graphs, ids, "hom", "log-z", expected["hom"])


def test_features_rejects_perturbed_column_stats(molecules):
    graphs, ids, outputs, expected = molecules
    text = outputs["hom", "log-z"]
    line = next(x for x in text.split("\n") if x.startswith("# column hom_C4:"))
    mean = line.split("mean=")[1].split()[0]
    bad = text.replace(line, line.replace(f"mean={mean}", f"mean={float(mean) * (1 + 1e-6)!r}"))
    assert oracle.check_features(bad, graphs, ids, "hom", "log-z", expected["hom"])


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    work = tmp_path_factory.mktemp("fig1")
    assert homcount(["gen", "--family", "fig1", "--output", str(work / "pair.jsonl")]) == 0
    g, h = inputs.read_jsonl(work / "pair.jsonl")
    inputs.write_jsonl(work / "g.jsonl", [g])
    inputs.write_jsonl(work / "h.jsonl", [h])
    inputs.write_json(work / "k3.json", [inputs.clique(3)])
    files = [str(work / "g.jsonl"), str(work / "h.jsonl")]
    verdicts = {}
    for variant in ("wl1", "fwl"):
        out = work / f"{variant}.json"
        assert homcount(["wl", *files, "--variant", variant, "--patterns", str(work / "k3.json"),
                         "--output", str(out)]) == 0
        verdicts[variant] = out.read_text()
    assert homcount(["witness", *files, "--patterns", str(work / "k3.json"),
                     "--output", str(work / "witness.json")]) == 0
    classes = oracle.tree_classes([inputs.clique(3)], [0], 2, 4, 2)
    return g, h, verdicts, (work / "witness.json").read_text(), classes


def test_verdict_accepts_and_rejects_flip(fig1):
    g, h, verdicts, _, _ = fig1
    pair = [g["id"], h["id"]]
    assert oracle.check_verdict(verdicts["wl1"], pair, False) == []
    assert oracle.check_verdict(verdicts["fwl"], pair, True, 0) == []
    flipped = json.loads(verdicts["fwl"])
    flipped.update(distinguished=False, round=None)
    assert oracle.check_verdict(json.dumps(flipped), pair, True, 0)
    flipped = json.loads(verdicts["wl1"])
    flipped.update(distinguished=True, round=1)
    assert oracle.check_verdict(json.dumps(flipped), pair, False)


def test_witness_accepts_program_output(fig1):
    g, h, _, report, classes = fig1
    assert oracle.check_witness(report, g, h, classes, 20000, None) == []
    assert json.loads(report)["witness"]["counts"] == [12, 0]


def test_witness_rejects_dropped_witness(fig1):
    g, h, _, report, classes = fig1
    rep = json.loads(report)
    rep["witness"] = None
    problems = oracle.check_witness(json.dumps(rep), g, h, classes, 20000, None)
    assert problems and problems[-1].startswith(oracle.WITNESS_MISSING)


def test_witness_rejects_wrong_counts_and_tree_total(fig1):
    g, h, _, report, classes = fig1
    rep = json.loads(report)
    rep["witness"]["counts"] = [12, 1]
    assert oracle.check_witness(json.dumps(rep), g, h, classes, 20000, None)
    rep = json.loads(report)
    rep["trees_enumerated"] -= 1
    assert oracle.check_witness(json.dumps(rep), g, h, classes, 20000, None)
    rep = json.loads(report)
    rep["forward_violations"] = ["round 0 color 1: counts [0, 2]"]
    assert oracle.check_witness(json.dumps(rep), g, h, classes, 20000, None)


def test_family_properties(tmp_path):
    assert homcount(["gen", "--family", "cycle-union", "--m", "3",
                     "--output", str(tmp_path / "cu.jsonl")]) == 0
    a, b = inputs.read_jsonl(tmp_path / "cu.jsonl")
    assert inputs.check_cycle_union(3, a, b) == []
    assert inputs.check_cycle_union(3, b, a)
    assert inputs.check_cycle_union(3, dict(a, edges=a["edges"][1:]), b)
    inputs.write_json(tmp_path / "k4.json", [inputs.clique(4)])
    assert homcount(["gen", "--family", "cfi", "--pattern", str(tmp_path / "k4.json"),
                     "--output", str(tmp_path / "cfi.jsonl")]) == 0
    x, y = inputs.read_jsonl(tmp_path / "cfi.jsonl")
    assert inputs.check_cfi(inputs.clique(4), x, y) == []
    assert inputs.check_cfi(inputs.clique(4), x, dict(y, n=15, labels=y["labels"][:15], edges=[]))


def test_malformed_output_fails_the_operation():
    import run

    op = run.Op("witness", "witness", [], lambda text: oracle.check_witness(
        text, {"n": 1, "edges": []}, {"n": 1, "edges": []}, 1, 20000, None))
    assert run.Run.check(op, b'{"forward_violations": [], "witness": {"kind": "graph"}}')
    assert run.Run.check(op, b"")
