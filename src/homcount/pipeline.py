"""Dataset-level feature pipeline and the pattern-selection advisor.

Feature output is CSV with one row per (graph, vertex): id columns, the vertex
label, then one column per pattern in file order. The log-z normalization
stores per-column statistics in a ``#`` header block, from which raw counts up
to 10**13 can be reconstructed exactly from the file alone; a column holding a
larger count is flagged ``exact=false`` there.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Optional, Sequence, TextIO

from homcount.algebra import join_factors, core_of, treewidth
from homcount.counting import CountOverflowError, hom_vectors
from homcount.graphs import (
    Graph,
    LabelAlphabet,
    ParseError,
    RootedPattern,
    canonical_code,
    count_maps,
    parse_graph,
    parse_pattern,
)


def load_dataset(path: str, alphabet: LabelAlphabet) -> list[Graph]:
    """JSON Lines, one graph per line; blank lines ignored; duplicate ids rejected."""
    graphs = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                g = parse_graph(line, alphabet)
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}", field=exc.field) from exc
            if g.id in seen:
                raise ParseError(f"{path}:{lineno}: duplicate graph id {g.id!r}", field="id")
            seen.add(g.id)
            graphs.append(g)
    return graphs


def read_json(path: str):
    """The JSON value in ``path``; invalid JSON, or JSON nested too deep to
    decode, raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}", field="record") from exc


def load_pattern_set(path: str, alphabet: LabelAlphabet) -> list[RootedPattern]:
    """JSON array of pattern records (graph record plus ``root``)."""
    data = read_json(path)
    if not isinstance(data, list):
        raise ParseError(f"{path}: pattern set must be a JSON array", field="record")
    out = []
    for i, rec in enumerate(data):
        try:
            if not isinstance(rec, dict):
                raise ParseError("pattern record must be a JSON object", field="record")
            out.append(parse_pattern(rec, alphabet))
        except ParseError as exc:
            raise ParseError(f"{path}[{i}]: {exc}", field=exc.field) from exc
    return out


EXACT_LIMIT = 10**13  # counts up to this survive the log-z round trip exactly


@dataclass(frozen=True)
class ColumnTransform:
    """Offset-log then z-score; constant columns emit zeros and are flagged,
    and so are columns whose counts may not reconstruct exactly."""

    column: str
    mean: float
    std: float
    constant: bool
    exact: bool  # every count in the column is at most EXACT_LIMIT


@dataclass
class FeatureTable:
    mode: str
    normalize: str
    pattern_ids: tuple[str, ...]
    rows: list[tuple]  # (graph_id, vertex_id, external_label, counts tuple | None)
    transforms: Optional[list[ColumnTransform]] = None
    overflowed_graphs: list[str] = field(default_factory=list)
    stats_overflowed_graphs: list[str] = field(default_factory=list)  # left out of the stats

    @property
    def column_names(self) -> list[str]:
        return [f"{self.mode}_{pid}" for pid in self.pattern_ids]


def _count_rows(args):
    """Rows of a run of graphs, and the ids of those that overflowed."""
    graphs, patterns, mode = args
    rows: list[tuple] = []
    overflowed = []
    for g, vecs in zip(graphs, hom_vectors(patterns, graphs, mode)):
        if isinstance(vecs, CountOverflowError):  # its rows are flagged NA, the run goes on
            rows.extend((g.id, v, g.labels[v], None) for v in range(g.n))
            overflowed.append(g.id)
        else:
            rows.extend((g.id, v, g.labels[v], tuple(vec[v] for vec in vecs)) for v in range(g.n))
    return rows, overflowed


def _all_count_rows(graphs, patterns, mode, threads):
    """Every graph's rows, in order; with several threads, the graphs are cut
    into jobs, contiguous runs of about len(graphs) / threads graphs, and
    one worker per job counts its run, which
    :func:`homcount.counting.hom_vectors` splits into its batches."""
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads == 1 or len(graphs) <= 1:
        return _count_rows((graphs, patterns, mode))
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run loads multiprocessing

    step = -(-len(graphs) // threads)
    jobs = [(graphs[i:i + step], patterns, mode) for i in range(0, len(graphs), step)]
    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        results = list(pool.map(_count_rows, jobs))
    rows: list[tuple] = []
    overflowed = []
    for chunk, ids in results:
        rows.extend(chunk)
        overflowed.extend(ids)
    return rows, overflowed


def _column_stats(rows, width):
    """Sample mean/stddev of log1p(count) per column, skipping flagged rows."""
    xs: list[list[float]] = [[] for _ in range(width)]
    for _, _, _, counts in rows:
        if counts is None:
            continue
        for j, c in enumerate(counts):
            xs[j].append(math.log1p(c))
    stats = []
    # left-to-right sums: the builtin sum compensates from Python 3.12 on, so its floats differ
    for vals in xs:
        n = len(vals)
        constant = len(set(vals)) <= 1
        mean = reduce(add, vals, 0.0) / n if n else 0.0
        if constant or n <= 1:
            stats.append((mean, 0.0, True))
            continue
        var = reduce(add, ((x - mean) ** 2 for x in vals), 0.0) / (n - 1)
        stats.append((mean, math.sqrt(var), False))
    return stats


def compute_features(
    graphs: Sequence[Graph],
    patterns: Sequence[RootedPattern],
    mode: str = "hom",
    normalize: str = "none",
    stats_graphs: Optional[Sequence[Graph]] = None,
    threads: int = 1,
) -> FeatureTable:
    """Count features for every (graph, vertex); optional dataset-global log-z.

    ``stats_graphs`` lets normalization statistics come from a different graph
    collection than the one being exported (default: the input itself).
    Overflowing graphs are flagged and skipped, the run continues.
    """
    if mode not in ("hom", "sub"):
        raise ValueError(f"unknown mode {mode!r}")
    if normalize not in ("none", "log-z"):
        raise ValueError(f"unknown normalize {normalize!r}")
    if threads < 0:
        raise ValueError(f"threads must be 0 or more, got {threads}")
    for p in patterns:
        if normalize == "log-z" and ("\n" in p.id or "\r" in p.id):
            raise ValueError(
                f"pattern id {p.id!r} has a line break; a log-z header line cannot hold it")
    rows, overflowed = _all_count_rows(list(graphs), list(patterns), mode, threads)
    table = FeatureTable(
        mode=mode,
        normalize=normalize,
        pattern_ids=tuple(p.id for p in patterns),
        rows=rows,
        overflowed_graphs=overflowed,
    )
    if normalize == "log-z":
        if stats_graphs is None:
            stat_rows = rows
        else:
            stat_rows, table.stats_overflowed_graphs = _all_count_rows(
                list(stats_graphs), list(patterns), mode, threads)
        stats = _column_stats(stat_rows, len(patterns))
        columns = zip(*(counts for _, _, _, counts in rows if counts is not None))
        largest = [max(column) for column in columns] or [0] * len(patterns)
        table.transforms = [
            ColumnTransform(name, mean, std, const, top <= EXACT_LIMIT)
            for name, (mean, std, const), top in zip(table.column_names, stats, largest)
        ]
    return table


_NEEDS_QUOTES = frozenset(',"\r\n')


def _csv_cell(text: str) -> str:
    """Quote ``text``, doubling each ``"``, if it holds a comma, a quote, CR or LF."""
    return text if _NEEDS_QUOTES.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def write_csv(table: FeatureTable, out: TextIO, alphabet: Optional[LabelAlphabet] = None):
    """RFC-4180-style CSV (LF endings) with a ``#`` header block in front.

    Normalized cells hold z(log(1+c)); the header carries exact float reprs of
    each column's mean/std so counts are reconstructible:
    c = round(exp(z * std + mean) - 1). That is exact for counts up to 10**13;
    a column with a larger count says ``exact=false`` at the end of its
    ``# column`` line, and :func:`reconstruct_count` may miss its counts.
    """
    out.write(f"# mode: {table.mode}\n")
    out.write(f"# normalize: {table.normalize}\n")
    if table.transforms is not None:
        out.write("# transform: z(log(1+count)) per column, dataset-global stats\n")
        for t in table.transforms:
            out.write(
                f"# column {t.column}: mean={t.mean!r} std={t.std!r} "
                f"constant={'true' if t.constant else 'false'}"
                f"{'' if t.exact else ' exact=false'}\n"
            )
    header = ["graph_id", "vertex_id", "label"] + table.column_names
    out.write(",".join(map(_csv_cell, header)) + "\n")
    for gid, v, label, counts in table.rows:
        ext = alphabet.label_of(label) if alphabet is not None else label
        cells = [_csv_cell(str(gid)), str(v), _csv_cell(str(ext))]
        if counts is None:
            cells += ["NA"] * len(table.pattern_ids)
        elif table.transforms is None:
            cells += [str(c) for c in counts]
        else:
            for c, t in zip(counts, table.transforms):
                if t.constant:
                    cells.append("0.0")
                else:
                    cells.append(repr((math.log1p(c) - t.mean) / t.std))
        out.write(",".join(cells) + "\n")


def read_transforms(path_or_lines) -> dict[str, ColumnTransform]:
    """Parse the ``#`` header block back into transforms (for reconstruction)."""
    if isinstance(path_or_lines, str):
        with open(path_or_lines, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(path_or_lines)
    out = {}
    for line in lines:
        if not line.startswith("# column "):
            continue
        body = line[len("# column "):].strip()
        name, _, rest = body.rpartition(": ")  # the fields after it hold no ": "
        fields = dict(part.split("=", 1) for part in rest.split())
        out[name] = ColumnTransform(
            name, float(fields["mean"]), float(fields["std"]), fields["constant"] == "true",
            fields.get("exact", "true") == "true",
        )
    return out


def reconstruct_count(z: float, t: ColumnTransform) -> int:
    """Invert the log-z transform back to the raw integer count.

    Exact for counts up to 10**13. Above that the float64 round trip may land
    on a neighbouring integer: around 10**14 it does for some counts in
    columns with large z-scores, and from 10**15 on for most counts. The
    header marks a column holding such a count ``exact=false``
    (``t.exact`` is False).
    """
    if t.constant:
        raise ValueError("constant columns carry no information")
    return round(math.expm1(z * t.std + t.mean))


# --- pattern-selection advisor ---------------------------------------------------


@dataclass(frozen=True)
class CandidateVerdict:
    candidate_id: str
    verdict: str  # REDUNDANT | GUARANTEED_GAIN | UNKNOWN
    rule: Optional[str]  # treewidth | no-hom (GUARANTEED_GAIN only)
    evidence: dict

    def to_json(self) -> dict:
        return {
            "candidate": self.candidate_id,
            "verdict": self.verdict,
            "rule": self.rule,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class AdvisorReport:
    verdicts: tuple[CandidateVerdict, ...]
    bound: int  # refinement-dimension bound: max treewidth over kept patterns

    def to_json(self) -> dict:
        return {
            "verdicts": [v.to_json() for v in self.verdicts],
            "dimension_bound": self.bound,
        }


def advise(
    base: Sequence[RootedPattern], candidates: Sequence[RootedPattern]
) -> AdvisorReport:
    """Classify each candidate against the base set.

    REDUNDANT: the candidate splits at its root into factors already present
    (join factors add no distinguishing power); a factor matches the first
    base pattern with its rooted canonical code. GUARANTEED_GAIN: with k the
    treewidth of the candidate's core, every base pattern either has treewidth
    below k or admits no homomorphism into the candidate (one root-free
    existence search). Anything else is UNKNOWN. The report ends with the
    dimension bound: the max treewidth over base plus non-redundant candidates.
    """
    base = list(base)
    base_tw = [treewidth(p.graph)[0] for p in base]
    kept_tw = list(base_tw) or [1]
    first_id: dict[bytes, str] = {}  # rooted code -> first base id with it, built on a split
    verdicts = []
    for q in candidates:
        factors = join_factors(q)
        if len(factors) > 1:
            if not first_id:
                for p in base:
                    first_id.setdefault(canonical_code(p.graph, p.root), p.id)
            matches = [first_id.get(canonical_code(f.graph, f.root)) for f in factors]
            if None not in matches:
                evidence = {"factors": matches, "factor_sizes": [f.graph.n for f in factors]}
                verdicts.append(CandidateVerdict(q.id, "REDUNDANT", None, evidence))
                continue
        kept_tw.append(treewidth(q.graph)[0])  # before core_of, so its 14-vertex guard fails fast
        core = core_of(q)
        k = treewidth(core.graph)[0]
        rows = [
            {"pattern": p.id, "treewidth": tw, "below_core_width": tw < k,
             "no_hom_into_candidate": tw >= k and not count_maps(p.graph, q.graph, first=True)}
            for p, tw in zip(base, base_tw)
        ]
        evidence = {"core_size": core.graph.n, "core_treewidth": k, "base": rows}
        if all(r["below_core_width"] or r["no_hom_into_candidate"] for r in rows):
            rule = "no-hom" if any(r["no_hom_into_candidate"] for r in rows) else "treewidth"
            verdicts.append(CandidateVerdict(q.id, "GUARANTEED_GAIN", rule, evidence))
        else:
            verdicts.append(CandidateVerdict(q.id, "UNKNOWN", None, evidence))
    return AdvisorReport(tuple(verdicts), max(kept_tw))
