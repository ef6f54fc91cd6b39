"""Traced replay of one CLI operation, and the per-layer metrics built from the spans.

Run as ``python3 bench/tracer.py SPANS_JSON <homcount argv>`` with ``src``
on PYTHONPATH. It wraps the public functions listed in SPANS in every homcount
module namespace that binds them, runs ``homcount.cli.main`` on the argv in
this fresh process, and writes the spans when main returns. Each span is
``[name, start, end, parent_index, info]``; a layer's self time is its span
minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from pathlib import Path

# (span name, defining module, function, namespaces to patch; None = every homcount module)
SPANS = [
    ("parse", "homcount.pipeline", "load_dataset", None),
    ("parse", "homcount.pipeline", "load_pattern_set", None),
    ("canonical_code", "homcount.graphs", "canonical_code", None),
    ("plan", "homcount.algebra", "treewidth", ["homcount.counting"]),
    ("plan", "homcount.algebra", "nice_decomposition", ["homcount.counting"]),
    ("quotient_rooted", "homcount.algebra", "quotient_rooted", None),
    ("automorphism_count", "homcount.algebra", "automorphism_count", None),
    ("dp", "homcount.counting", "hom_count_dp", None),
    ("mobius", "homcount.counting", "inj_vector", None),
    ("mobius", "homcount.counting", "sub_vector", None),
    ("hom_vector", "homcount.counting", "hom_vector", ["homcount.pipeline"]),
    ("kwl", "homcount.refinement", "k_wl_trace", None),
    ("fwl", "homcount.refinement", "f_wl", None),
    ("fwl", "homcount.refinement", "wl_refine", None),
    ("enumerate", "homcount.trees", "enumerate_pattern_trees", None),
    ("tree_count", "homcount.trees", "hom_pattern_tree", None),
    ("features", "homcount.pipeline", "compute_features", None),
    ("write_csv", "homcount.pipeline", "write_csv", None),
]


def _info(name: str, args, result, dp_calls: list, index: int):
    """Small facts about one call, read from its arguments and result."""
    if name == "dp":
        dp_calls.append((index, args[0], id(args[1])))
    elif name == "kwl":
        a, b, _ = result
        return [len(a.history[0]) + len(b.history[0]), a.rounds]
    elif name == "fwl":
        return result[0].rounds
    elif name == "enumerate":
        return len(result[0])
    elif name == "hom_vector":
        return args[1].id
    return None


def install(spans: list, dp_calls: list) -> list[str]:
    """Rebind each listed function in the namespaces that import it; returns
    the functions that no longer exist, so their metrics read 0."""
    stack: list[int] = []
    missing = []
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "homcount" or name.startswith("homcount.")]

    def wrap(name, fn):
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _info(name, args, result, dp_calls, index)
            return result

        return traced

    for name, home, attr, only in SPANS:
        original = getattr(importlib.import_module(home), attr, None)
        if original is None:
            missing.append(f"{home}.{attr}")
            continue
        wrapper = wrap(name, original)
        for mod in modules:
            if (only is None or mod.__name__ in only) and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
    return missing


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    import homcount.cli
    from homcount.graphs import RootedPattern, canonical_code

    spans: list = []
    dp_calls: list = []
    missing = install(spans, dp_calls)
    rc = homcount.cli.main(cli_argv)
    # Canonical codes of the DP patterns are computed after main returns, so
    # they add nothing to any span.
    codes: dict = {}
    for index, pattern, graph_key in dp_calls:
        if pattern not in codes:
            codes[pattern] = (canonical_code(pattern.graph, pattern.root)
                              if isinstance(pattern, RootedPattern) else canonical_code(pattern))
        spans[index][4] = [graph_key, codes[pattern].hex()]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "missing": missing}, fh)
    return rc


# --- per-layer metrics ----------------------------------------------------------


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no samples."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q * len(sorted_values) - 1e-9)
    return sorted_values[max(rank, 1) - 1]


class LayerTotals:
    """Sums span data over the traced operations of a run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.graph_s: dict[str, float] = {}  # graph id -> summed hom_vector time
        self.dp_distinct = 0
        self.kwl_tuples = 0
        self.kwl_rounds = 0
        self.fwl_rounds = 0
        self.candidates = 0
        self.kept = 0
        self.missing: set[str] = set()

    def add(self, path: Path) -> None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        spans = data["spans"]
        self.missing.update(data["missing"])
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        per_graph: dict[int, set] = {}
        for i, (name, start, end, parent, info) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child_s[i]
            if name == "dp":
                per_graph.setdefault(info[0], set()).add(info[1])
            elif name == "kwl":
                self.kwl_tuples += info[0]
                self.kwl_rounds += info[1]
            elif name == "fwl":
                self.fwl_rounds += info
            elif name == "enumerate":
                self.kept += info
            elif name == "hom_vector":
                self.graph_s[info] = self.graph_s.get(info, 0.0) + end - start
            elif name == "canonical_code" and parent >= 0 and spans[parent][0] == "enumerate":
                self.candidates += 1
        self.dp_distinct += sum(len(codes) for codes in per_graph.values())

    def metrics(self, rounds: int, src_loc: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        def calls(name):
            return self.calls.get(name, 0) / rounds

        def secs(name):
            return self.self_s.get(name, 0.0) / rounds

        graph_ms = sorted(1000.0 * t / rounds for t in self.graph_s.values())
        dp_calls = self.calls.get("dp", 0)
        return {
            "graphs.parse_s": (secs("parse"), "s"),
            "graphs.canonical_code_calls": (calls("canonical_code"), "count"),
            "graphs.canonical_code_s": (secs("canonical_code"), "s"),
            "algebra.plan_calls": (calls("plan"), "count"),
            "algebra.plan_s": (secs("plan"), "s"),
            "algebra.quotient_rooted_calls": (calls("quotient_rooted"), "count"),
            "algebra.quotient_rooted_s": (secs("quotient_rooted"), "s"),
            "algebra.automorphism_count_calls": (calls("automorphism_count"), "count"),
            "algebra.automorphism_count_s": (secs("automorphism_count"), "s"),
            "counting.dp_calls": (calls("dp"), "count"),
            "counting.dp_s": (secs("dp"), "s"),
            "counting.dp_distinct": (self.dp_distinct / rounds, "count"),
            "counting.dp_useful_ratio": (self.dp_distinct / dp_calls if dp_calls else 0.0, "ratio"),
            "counting.graph_ms_p50": (_quantile(graph_ms, 0.50), "ms"),
            "counting.graph_ms_p99": (_quantile(graph_ms, 0.99), "ms"),
            "counting.mobius_s": (secs("mobius"), "s"),
            "refinement.kwl_s": (secs("kwl"), "s"),
            "refinement.kwl_tuples": (self.kwl_tuples / rounds, "count"),
            "refinement.kwl_rounds": (self.kwl_rounds / rounds, "count"),
            "refinement.fwl_s": (secs("fwl"), "s"),
            "refinement.fwl_rounds": (self.fwl_rounds / rounds, "count"),
            "trees.enumerate_s": (secs("enumerate"), "s"),
            "trees.candidates": (self.candidates / rounds, "count"),
            "trees.kept": (self.kept / rounds, "count"),
            "trees.kept_ratio": (self.kept / self.candidates if self.candidates else 0.0, "ratio"),
            "trees.count_calls": (calls("tree_count"), "count"),
            "trees.count_s": (secs("tree_count"), "s"),
            "pipeline.normalize_s": (secs("features"), "s"),
            "pipeline.write_csv_s": (secs("write_csv"), "s"),
            "src.loc": (src_loc, "lines"),
            "trace.overhead_s": (overhead_s, "s"),
        }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
