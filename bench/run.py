"""End-to-end benchmark of the homcount CLI, run from the source tree.

    python3 bench/run.py --workload {molecules,large-sparse,families} \
        --seed N --seconds S --trace {0,1}

Each workload is a fixed list of CLI operations on inputs made from the seed.
One process runs one CLI process at a time (``--threads 1``), each a fresh
interpreter with cold caches, in whole rounds for about ``--seconds``.
Every output is checked against values computed apart from the program
(``oracle.py``). With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs every operation untraced and then traced
(``tracer.py``), checks that both wrote the same bytes, and reports the
per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import oracle
from tracer import LayerTotals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PYTHON = sys.executable
SETUP_SAMPLES = 6  # taken before the first round; one more before each round
MAX_TREES = 20000  # the CLI's --max-trees default, which the witness operations use

# The one operation that fails on every run because of a fault in the program:
# hom_pattern_tree caches attachment counts under (id(pattern), g.id) and
# tree_equivalence_report shares that cache between both graphs, so when both
# graphs have id "g" the second graph silently reuses the first one's counts
# and no witness is found. The operation stays in the workload and counts as
# failed until the fault is mended.
KNOWN_FAULTS = {
    "witness-fig1-same-id": "hom_pattern_tree keys its attachment-count cache by "
                            "(id(pattern), g.id) (src/homcount/trees.py), so h reuses "
                            "g's triangle counts when both graphs have id 'g'",
}


@dataclass
class Op:
    name: str
    kind: str  # features_hom | features_sub | wl | witness
    args: list[str]  # CLI argv after "homcount", without --output
    check: Callable[[str], list[str]]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one process in the directory of its log to completion:
    (wall seconds, its own max RSS in MB, exit code)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=log.parent, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def run_gen(args: list[str], work: Path) -> None:
    """Untimed CLI call used while making inputs."""
    _, _, rc = run_child([PYTHON, "-m", "homcount.cli", *args], work / "gen.log")
    if rc != 0:
        raise RuntimeError(f"homcount {' '.join(args)} exited {rc}: "
                           f"{(work / 'gen.log').read_text(errors='replace').strip()}")


# --- workloads -------------------------------------------------------------------


def molecules(seed: int, work: Path) -> tuple[list[Op], list[str]]:
    graphs = inputs.molecules(seed)
    patterns = inputs.molecule_patterns()
    inputs.write_jsonl(work / "molecules.jsonl", graphs)
    inputs.write_json(work / "patterns.json", patterns)
    ids = [p["id"] for p in patterns]
    hom = oracle.feature_columns(graphs, [oracle.hom_counts(g, patterns) for g in graphs])
    auts = [oracle.root_automorphisms(p) for p in patterns]
    sub = oracle.feature_columns(graphs, [oracle.sub_counts(g, patterns, auts) for g in graphs])
    base = ["features", "molecules.jsonl", "--patterns", "patterns.json", "--threads", "1"]
    ops = [
        Op("features-hom-logz", "features_hom",
           base + ["--mode", "hom", "--normalize", "log-z"],
           lambda text: oracle.check_features(text, graphs, ids, "hom", "log-z", hom)),
        Op("features-sub", "features_sub",
           base + ["--mode", "sub", "--normalize", "none"],
           lambda text: oracle.check_features(text, graphs, ids, "sub", "none", sub)),
    ]
    return ops, []


def large_sparse(seed: int, work: Path) -> tuple[list[Op], list[str]]:
    graph = inputs.large_sparse(seed)
    patterns = inputs.large_patterns()
    inputs.write_jsonl(work / "sparse.jsonl", [graph])
    inputs.write_json(work / "cycles.json", patterns)
    ids = [p["id"] for p in patterns]
    hom = oracle.feature_columns([graph], [oracle.hom_counts(graph, patterns)])
    ops = [
        Op("features-hom-cycles", "features_hom",
           ["features", "sparse.jsonl", "--patterns", "cycles.json", "--mode", "hom",
            "--normalize", "none", "--threads", "1"],
           lambda text: oracle.check_features(text, [graph], ids, "hom", "none", hom)),
    ]
    return ops, []


def families(seed: int, work: Path) -> tuple[list[Op], list[str]]:
    """Fixed separating families; the seed does not change them."""
    k3, k4 = inputs.clique(3), inputs.clique(4)
    inputs.write_json(work / "k3.json", [k3])
    inputs.write_json(work / "k4.json", [k4])
    inputs.write_json(work / "c3c4.json", [k3, inputs.cycle(4)])
    inputs.write_json(work / "le7.json", inputs.small_patterns())
    inputs.write_json(work / "le7c8.json", inputs.small_patterns() + [inputs.cycle(8)])
    pairs = {}
    for name, flags in (("cu6", ["--family", "cycle-union", "--m", "6"]),
                        ("cu7", ["--family", "cycle-union", "--m", "7"]),
                        ("cfi", ["--family", "cfi", "--pattern", "k4.json"]),
                        ("fig1", ["--family", "fig1"]),
                        ("fig2", ["--family", "fig2"])):
        run_gen(["gen", *flags, "--threads", "1", "--output", f"{name}.jsonl"], work)
        a, b = inputs.read_jsonl(work / f"{name}.jsonl")
        inputs.write_jsonl(work / f"{name}_a.jsonl", [a])
        inputs.write_jsonl(work / f"{name}_b.jsonl", [b])
        pairs[name] = (a, b)
    same = [dict(rec, id="g") for rec in pairs["fig1"]]
    inputs.write_jsonl(work / "same_a.jsonl", [same[0]])
    inputs.write_jsonl(work / "same_b.jsonl", [same[1]])

    problems = (inputs.check_cycle_union(6, *pairs["cu6"]) + inputs.check_cycle_union(7, *pairs["cu7"])
                + inputs.check_cfi(k4, *pairs["cfi"]) + inputs.check_fig1(*pairs["fig1"]))
    fig2_marked = (pairs["fig2"][0]["meta"]["marked_vertex"], pairs["fig2"][1]["meta"]["marked_vertex"])
    classes_c3c4 = oracle.tree_classes([k3, inputs.cycle(4)], [0], 2, 4, 2)
    classes_k3_d1 = oracle.tree_classes([k3], [0], 1, 4, 2)
    classes_k3 = oracle.tree_classes([k3], [0], 2, 4, 2)

    def wl(name, pair, flags, distinguished, at_round=None):
        a, b = pairs[pair]
        return Op(name, "wl", ["wl", f"{pair}_a.jsonl", f"{pair}_b.jsonl", *flags, "--threads", "1"],
                  lambda text: oracle.check_verdict(text, [a["id"], b["id"]], distinguished, at_round))

    def witness(name, files, g, h, flags, classes, vertex_pair=None):
        return Op(name, "witness", ["witness", *files, *flags, "--threads", "1"],
                  lambda text: oracle.check_witness(text, g, h, classes, MAX_TREES, vertex_pair))

    ops = [
        wl("wl-wl1-cu7", "cu7", ["--variant", "wl1"], False),
        wl("wl-fwl-cu7-le7", "cu7", ["--variant", "fwl", "--patterns", "le7.json"], False),
        wl("wl-fwl-cu7-c8", "cu7", ["--variant", "fwl", "--patterns", "le7c8.json"], True, 0),
        wl("wl-kwl2-cu7", "cu7", ["--variant", "kwl", "--k", "2"], True),
        wl("wl-kwl2-cfi", "cfi", ["--variant", "kwl", "--k", "2"], False),
        wl("wl-kwl3-cfi", "cfi", ["--variant", "kwl", "--k", "3"], True),
        wl("wl-fwl-cfi-k4", "cfi", ["--variant", "fwl", "--patterns", "k4.json"], True, 0),
        witness("witness-fig2", ["fig2_a.jsonl", "fig2_b.jsonl"], *pairs["fig2"],
                ["--patterns", "c3c4.json"], classes_c3c4),
        witness("witness-fig2-vertex", ["fig2_a.jsonl", "fig2_b.jsonl"], *pairs["fig2"],
                ["--patterns", "k3.json", "--depth", "1",
                 "--vertices", str(fig2_marked[0]), str(fig2_marked[1])],
                classes_k3_d1, fig2_marked),
        witness("witness-fig1-same-id", ["same_a.jsonl", "same_b.jsonl"], *same,
                ["--patterns", "k3.json"], classes_k3),
    ]
    return ops, problems


WORKLOADS = {"molecules": molecules, "large-sparse": large_sparse, "families": families}


# --- measurement --------------------------------------------------------------------


def src_loc() -> int:
    return sum(1 for path in sorted((SRC / "homcount").rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def measure_setup(work: Path) -> float:
    elapsed, _, rc = run_child([PYTHON, "-c", "import homcount.cli"], work / "setup.log")
    if rc != 0:
        raise RuntimeError(f"import homcount.cli exited {rc}")
    return elapsed


class Run:
    """Runs the operations in rounds and keeps what the metrics need."""

    def __init__(self, ops: list[Op], work: Path, trace: bool):
        self.ops, self.work, self.trace = ops, work, trace
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.op_s: dict[str, list[float]] = {op.name: [] for op in ops}
        self.rounds = 0
        self.kind_s: dict[str, float] = {}
        self.peak_rss_mb = 0.0
        self.overhead_s: list[float] = []
        self.layers = LayerTotals()
        self.reported: set[str] = set()

    def fail(self, op: Op, problems: list[str]) -> None:
        self.failed += 1
        fault = KNOWN_FAULTS.get(op.name)
        known = fault is not None and all(p.startswith(oracle.WITNESS_MISSING) for p in problems)
        if not known:
            self.correct = False
        if op.name not in self.reported:
            self.reported.add(op.name)
            label = f"known fault: {fault}" if known else "FAILED"
            print(f"{op.name}: {label}: {'; '.join(problems[:3])}", flush=True)

    @staticmethod
    def check(op: Op, data: bytes) -> list[str]:
        try:
            return op.check(data.decode("utf-8"))
        except Exception as exc:  # a malformed output fails the operation, not the run
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def round(self) -> None:
        for op in self.ops:
            out = self.work / f"{op.name}.out"
            out.unlink(missing_ok=True)
            argv = [*op.args, "--output", str(out)]
            elapsed, rss, rc = run_child([PYTHON, "-m", "homcount.cli", *argv],
                                         self.work / f"{op.name}.log")
            self.attempted += 1
            self.op_s[op.name].append(elapsed)
            self.kind_s[op.kind] = self.kind_s.get(op.kind, 0.0) + elapsed
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            data = out.read_bytes() if out.exists() else b""
            problems = [f"exit code {rc}"] if rc != 0 else self.check(op, data)
            if self.trace:
                traced_out = self.work / f"{op.name}.traced.out"
                spans = self.work / f"{op.name}.spans.json"
                traced_out.unlink(missing_ok=True)
                spans.unlink(missing_ok=True)
                traced_argv = [*op.args, "--output", str(traced_out)]
                traced_s, _, traced_rc = run_child(
                    [PYTHON, str(BENCH / "tracer.py"), str(spans), *traced_argv],
                    self.work / f"{op.name}.traced.log")
                self.overhead_s.append(traced_s - elapsed)
                if traced_rc != rc or not traced_out.exists() or traced_out.read_bytes() != data:
                    problems.append("traced run wrote different output or exit code")
                if spans.exists():
                    self.layers.add(spans)
                else:
                    problems.append("traced run wrote no spans")
            if problems:
                self.fail(op, problems)
        self.rounds += 1

    def metrics(self, setup_s: list[float]) -> dict:
        rounds = self.rounds
        if not self.trace:
            values = {
                "setup_s": (statistics.median(setup_s), "s"),
                "round_s": (sum(statistics.median(t) for t in self.op_s.values()), "s"),
                "peak_rss_mb": (self.peak_rss_mb, "MB"),
            }
        else:
            values = {
                f"cli.{kind}_s": (self.kind_s.get(kind, 0.0) / rounds, "s")
                for kind in ("features_hom", "features_sub", "wl", "witness")
            }
            values.update(self.layers.metrics(rounds, src_loc(), statistics.fmean(self.overhead_s)))
            if self.layers.missing:
                print(f"not traced, no longer in the program: {sorted(self.layers.missing)}")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "homcount" / "cli.py").is_file():
        print(f"error: no homcount sources under {SRC}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        # Inputs and expected values are made before anything is timed. The
        # first import also writes the bytecode cache, as an install would.
        ops, problems = WORKLOADS[args.workload](args.seed, work)
        for problem in problems:
            print(f"input check failed: {problem}", flush=True)
        measure_setup(work)
        setup_s = [measure_setup(work) for _ in range(SETUP_SAMPLES)]
        run = Run(ops, work, bool(args.trace))
        # Whole rounds only; another round starts while its expected midpoint
        # still falls within --seconds, so a run measures about that long.
        start = time.perf_counter()
        while True:
            setup_s.append(measure_setup(work))
            run.round()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / run.rounds / 2 >= args.seconds:
                break
        metrics = run.metrics(setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, times in run.op_s.items():
        print(f"{name:34s} {' '.join(f'{t:.3f}' for t in times)} s per round")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": run.correct and not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
