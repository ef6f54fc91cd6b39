"""Command-line interface.

Subcommands: features, advise, wl, gen, witness, count. Exit codes: 0 success,
1 verified failure (a check mode found a violation, or ``count``, ``wl --variant
fwl`` or ``witness`` met a count above 2**127-1: ``error: overflow:``; ``features``
flags the rows of such a graph NA and exits 0), 2 usage or parse error, 3
resource guard tripped or memory ran out. Errors print one machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress

from homcount.algebra import SizeGuardError
from homcount.counting import (
    CountOverflowError,
    _check_anchor,
    hom_count_brute,
    hom_vector,
)
from homcount.families import (
    cfi_pair,
    cycle_hierarchy_pair,
    cycle_union_pair,
    delayed_triangle_pair,
    wl_equivalent_triangle_pair,
)
from homcount.graphs import LabelAlphabet, ParseError, RootedPattern
from homcount.pipeline import (
    advise,
    compute_features,
    load_dataset,
    load_pattern_set,
    pattern_at,
    read_json,
    write_csv,
)
from homcount.refinement import f_wl, graph_verdict, k_wl, wl_refine
from homcount.trees import EnumerationBudget, tree_equivalence_report

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--output", default="-", help="output path, '-' for stdout")
    sub.add_argument("--threads", type=int, default=1,
                     help="parallel workers for features (0 = auto); "
                          "other subcommands accept and ignore it")


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="homcount",
                        description="homomorphism-count features and refinement tests")
    subs = parser.add_subparsers(dest="command", required=True)

    feat = subs.add_parser("features", help="export per-vertex count features")
    feat.add_argument("dataset", help="JSONL graph file")
    feat.add_argument("--patterns", required=True, help="JSON array of rooted patterns")
    feat.add_argument("--mode", choices=["hom", "sub"], default="hom")
    feat.add_argument("--normalize", choices=["none", "log-z"], default="none")
    feat.add_argument("--stats-from", default=None,
                      help="JSONL file supplying normalization statistics")
    _common_flags(feat)

    adv = subs.add_parser("advise", help="pattern-selection advice")
    adv.add_argument("--patterns", required=True, help="current pattern set (JSON array)")
    adv.add_argument("--candidates", required=True, help="candidate patterns (JSON array)")
    _common_flags(adv)

    wl = subs.add_parser("wl", help="distinguishability verdict for two graphs")
    wl.add_argument("graph_a", help="JSONL file, first graph is used")
    wl.add_argument("graph_b", help="JSONL file, first graph is used")
    wl.add_argument("--variant", choices=["wl1", "fwl", "kwl"], default="wl1")
    wl.add_argument("--patterns", default=None, help="pattern set for fwl")
    wl.add_argument("--k", type=int, default=2, help="dimension for kwl")
    wl.add_argument("--rounds", type=int, default=None)
    _common_flags(wl)

    gen = subs.add_parser("gen", help="generate a separating graph family")
    gen.add_argument("--family", required=True,
                     choices=["fig1", "fig2", "cycle-union", "cycle-hierarchy", "cfi"])
    gen.add_argument("--m", type=int, default=None, help="cycle-union size parameter")
    gen.add_argument("--k", type=int, default=None, help="cycle-hierarchy cycle length")
    gen.add_argument("--pattern", default=None, help="pattern file for cfi (first record)")
    gen.add_argument("--distinguished", type=int, default=None,
                     help="cfi twist vertex (default: pattern root)")
    _common_flags(gen)

    wit = subs.add_parser("witness", help="tree-count witness search for a graph pair")
    wit.add_argument("graph_a")
    wit.add_argument("graph_b")
    wit.add_argument("--patterns", required=True)
    wit.add_argument("--depth", type=int, default=2,
                     help="refinement rounds / max backbone depth")
    wit.add_argument("--max-backbone", type=int, default=4)
    wit.add_argument("--max-multiplicity", type=int, default=2)
    wit.add_argument("--max-trees", type=int, default=20000)
    wit.add_argument("--vertices", type=int, nargs=2, default=None,
                     metavar=("V", "W"), help="restrict the witness to a vertex pair")
    _common_flags(wit)

    cnt = subs.add_parser("count", help="count one pattern in one graph")
    cnt.add_argument("--pattern", required=True, help="pattern file (first record)")
    cnt.add_argument("--graph", required=True, help="JSONL file (first graph)")
    cnt.add_argument("--anchor", type=int, default=None)
    cnt.add_argument("--mode", choices=["hom", "inj", "sub"], default="hom")
    cnt.add_argument("--engine", choices=["dp", "brute"], default="dp")
    _common_flags(cnt)

    return parser


@contextmanager
def _open_output(path: str):
    """Stdout for ``-``, else the file ``path``, removed if the command fails."""
    if path == "-":
        yield sys.stdout
        return
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path):  # not a device such as /dev/null
            with suppress(OSError):  # e.g. a directory not writable: report the first error
                os.remove(path)
        raise


def _first_graph(path: str, alphabet: LabelAlphabet):
    graphs = load_dataset(path, alphabet)
    if not graphs:
        raise ParseError(f"{path}: no graphs found", field="record")
    return graphs[0]


def _first_pattern(path: str, alphabet: LabelAlphabet) -> RootedPattern:
    data = read_json(path)
    if not isinstance(data, list):
        return pattern_at(path, data, alphabet)
    if not data:
        raise ParseError(f"{path}: empty pattern set", field="record")
    return pattern_at(f"{path}[0]", data[0], alphabet)


def _cmd_features(args) -> int:
    alphabet = LabelAlphabet()
    patterns = load_pattern_set(args.patterns, alphabet)
    graphs = load_dataset(args.dataset, alphabet)
    stats_graphs = None
    if args.stats_from:
        stats_graphs = load_dataset(args.stats_from, alphabet)
    table = compute_features(
        graphs, patterns, mode=args.mode, normalize=args.normalize,
        stats_graphs=stats_graphs, threads=args.threads,
    )
    with _open_output(args.output) as out:
        write_csv(table, out, alphabet)
    for gid in table.overflowed_graphs:
        print(f"error: overflow: graph {gid} exceeded the count limit; rows flagged NA",
              file=sys.stderr)
    for gid in table.stats_overflowed_graphs:
        print(f"error: overflow: stats graph {gid} exceeded the count limit; "
              "left out of the statistics", file=sys.stderr)
    return EXIT_OK


def _cmd_advise(args) -> int:
    alphabet = LabelAlphabet()
    base = load_pattern_set(args.patterns, alphabet)
    candidates = load_pattern_set(args.candidates, alphabet)
    report = advise(base, candidates)
    with _open_output(args.output) as out:
        json.dump(report.to_json(), out, indent=2)
        out.write("\n")
    return EXIT_OK


def _cmd_wl(args) -> int:
    alphabet = LabelAlphabet()
    a = _first_graph(args.graph_a, alphabet)
    b = _first_graph(args.graph_b, alphabet)
    if args.variant == "wl1":
        ca, cb = wl_refine(a, b, max_rounds=args.rounds)
        verdict = graph_verdict(ca, cb)
    elif args.variant == "fwl":
        patterns = load_pattern_set(args.patterns, alphabet) if args.patterns else []
        _, _, verdict = f_wl(a, b, patterns, max_rounds=args.rounds)
    else:
        verdict = k_wl(a, b, args.k, max_rounds=args.rounds)
    with _open_output(args.output) as out:
        json.dump(verdict.to_json((a.id, b.id)), out)
        out.write("\n")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "fig1":
        pair = wl_equivalent_triangle_pair()
    elif args.family == "fig2":
        pair = delayed_triangle_pair()
    elif args.family == "cycle-union":
        if args.m is None:
            raise ParseError("cycle-union requires --m", field="m")
        pair = cycle_union_pair(args.m)
    elif args.family == "cycle-hierarchy":
        if args.k is None:
            raise ParseError("cycle-hierarchy requires --k", field="k")
        pair = cycle_hierarchy_pair(args.k)
    else:
        if args.pattern is None:
            raise ParseError("cfi requires --pattern", field="pattern")
        alphabet = LabelAlphabet()
        p = _first_pattern(args.pattern, alphabet)
        pair = cfi_pair(p, distinguished=args.distinguished)
    with _open_output(args.output) as out:
        for g in (pair.g, pair.h):
            rec = g.to_record()
            rec["meta"] = pair.meta(g.id)
            out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    return EXIT_OK


def _cmd_witness(args) -> int:
    alphabet = LabelAlphabet()
    patterns = load_pattern_set(args.patterns, alphabet)
    a = _first_graph(args.graph_a, alphabet)
    b = _first_graph(args.graph_b, alphabet)
    budget = EnumerationBudget(
        depth=args.depth,
        backbone=args.max_backbone,
        multiplicity=args.max_multiplicity,
        max_trees=args.max_trees,
    )
    report = tree_equivalence_report(
        a, b, patterns, budget=budget,
        vertex_pair=tuple(args.vertices) if args.vertices else None,
    )
    with _open_output(args.output) as out:
        json.dump(report.to_json(), out, indent=2)
        out.write("\n")
    if not report.ok:
        print("error: check: equivalent vertices disagree on a pattern tree",
              file=sys.stderr)
        return EXIT_FAILED_CHECK
    return EXIT_OK


def _cmd_count(args) -> int:
    if args.engine == "brute" and args.mode != "hom":
        raise ValueError(f"the brute engine counts homomorphisms only, not --mode {args.mode}")
    alphabet = LabelAlphabet()
    pattern = _first_pattern(args.pattern, alphabet)
    g = _first_graph(args.graph, alphabet)
    if args.anchor is not None:
        _check_anchor(args.anchor, g)
    result: dict = {"graph": g.id, "pattern": pattern.id, "mode": args.mode}
    if args.engine == "brute":
        target = pattern if args.anchor is not None else pattern.graph
        result["count"] = hom_count_brute(target, g, args.anchor)
    else:
        counts = hom_vector([pattern], g, args.mode)[0]
        if args.anchor is not None:
            result["count"] = counts[args.anchor]
        else:
            result.update(counts=list(counts), total=sum(counts))
    with _open_output(args.output) as out:
        json.dump(result, out)
        out.write("\n")
    return EXIT_OK


_HANDLERS = {
    "features": _cmd_features,
    "advise": _cmd_advise,
    "wl": _cmd_wl,
    "gen": _cmd_gen,
    "witness": _cmd_witness,
    "count": _cmd_count,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 0:
            parser.error(f"argument --threads: must be 0 or more, got {args.threads}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeGuardError as exc:
        print(f"error: guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:  # a backstop: no guard bounds the DP's own work yet
        print("error: guard: out of memory", file=sys.stderr)
        return EXIT_GUARD
    except CountOverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return EXIT_FAILED_CHECK
    except (ValueError, OSError) as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
