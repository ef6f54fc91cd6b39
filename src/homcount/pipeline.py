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
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add, getitem
from typing import Optional, Sequence, TextIO

from homcount.algebra import join_factors, core_of, treewidth
from homcount.counting import CountOverflowError, hom_vectors
from homcount.graphs import (
    Graph,
    LabelAlphabet,
    ParseError,
    RootedPattern,
    SizeGuardError,
    canonical_code,
    count_maps,
    parse_graph,
    parse_pattern,
)


@contextmanager
def _located(where: str):
    """Prefix a ParseError or SizeGuardError raised inside with ``where``."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}", field=exc.field) from exc
    except SizeGuardError as exc:
        raise SizeGuardError(f"{where}: {exc}") from exc


def load_dataset(path: str, alphabet: LabelAlphabet) -> list[Graph]:
    """JSON Lines, one graph per line; blank lines ignored; duplicate ids rejected."""
    graphs = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            with _located(f"{path}:{lineno}"):
                g = parse_graph(line, alphabet)
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
    return [pattern_at(f"{path}[{i}]", rec, alphabet) for i, rec in enumerate(data)]


def pattern_at(where: str, rec, alphabet: LabelAlphabet) -> RootedPattern:
    """The pattern record ``rec``; its errors are prefixed with ``where``."""
    with _located(where):
        if not isinstance(rec, dict):
            raise ParseError("pattern record must be a JSON object", field="record")
        return parse_pattern(rec, alphabet)


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
            counts = repeat(None)
            overflowed.append(g.id)
        else:
            counts = zip(*vecs) if vecs else repeat(())
        rows.extend(zip(repeat(g.id), range(g.n), g.labels, counts))
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


def _columns(rows, width):
    """Each column's counts in row order, flagged rows skipped."""
    return list(zip(*(counts for _, _, _, counts in rows if counts is not None))) or [()] * width


def _stats(column):
    """Sample mean/stddev of log1p over a column, each term once per distinct count;
    constant when the floats agree, not the counts. Sums run left to right in row
    order: the builtin sum compensates from Python 3.12 on, so its floats differ."""
    logs = {c: math.log1p(c) for c in set(column)}
    n = len(column)
    mean = reduce(add, map(logs.__getitem__, column), 0.0) / n if n else 0.0
    if len(set(logs.values())) <= 1 or n <= 1:
        return mean, 0.0, True
    squares = {c: (x - mean) ** 2 for c, x in logs.items()}
    return mean, math.sqrt(reduce(add, map(squares.__getitem__, column), 0.0) / (n - 1)), False


def _column_stats(rows, width):
    """Sample mean/stddev of log1p(count) per column (:func:`_stats`), skipping flagged rows."""
    return [_stats(column) for column in _columns(rows, width)]


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
        columns = _columns(rows, len(patterns))  # for the stats and the exact flags
        if stats_graphs is None:
            stats = map(_stats, columns)
        else:
            stat_rows, table.stats_overflowed_graphs = _all_count_rows(
                list(stats_graphs), list(patterns), mode, threads)
            stats = _column_stats(stat_rows, len(patterns))
        table.transforms = [
            ColumnTransform(name, mean, std, const, max(column, default=0) <= EXACT_LIMIT)
            for name, (mean, std, const), column in zip(table.column_names, stats, columns)
        ]
    return table


_NEEDS_QUOTES = frozenset(',"\r\n')


def _csv_cell(text: str) -> str:
    """Quote ``text``, doubling each ``"``, if it holds a comma, a quote, CR or LF."""
    return text if _NEEDS_QUOTES.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


class _Memo(dict):
    """``fmt(key)``, computed on the first lookup of each key."""

    def __init__(self, fmt):
        self.fmt = fmt

    def __missing__(self, key):
        cell = self[key] = self.fmt(key)
        return cell


def write_csv(table: FeatureTable, out: TextIO, alphabet: Optional[LabelAlphabet] = None):
    """RFC-4180-style CSV (LF endings) with a ``#`` header block in front.

    Normalized cells hold z(log(1+c)); the header carries exact float reprs of
    each column's mean/std so counts are reconstructible:
    c = round(exp(z * std + mean) - 1). That is exact for counts up to 10**13;
    a column with a larger count says ``exact=false`` at the end of its
    ``# column`` line, and :func:`reconstruct_count` may miss its counts.

    A cell is formatted once per distinct (column, count), an id once per graph
    and a label once per label, to the bytes of per-cell formatting.
    """
    out.write(f"# mode: {table.mode}\n")
    out.write(f"# normalize: {table.normalize}\n")
    if table.transforms is None:
        memos = [_Memo(str) for _ in table.pattern_ids]
    else:
        out.write("# transform: z(log(1+count)) per column, dataset-global stats\n")
        for t in table.transforms:
            out.write(
                f"# column {t.column}: mean={t.mean!r} std={t.std!r} "
                f"constant={'true' if t.constant else 'false'}"
                f"{'' if t.exact else ' exact=false'}\n"
            )
        memos = [_Memo((lambda c: "0.0") if t.constant else
                       lambda c, t=t: repr((math.log1p(c) - t.mean) / t.std))
                 for t in table.transforms]
    header = ["graph_id", "vertex_id", "label"] + table.column_names
    out.write(",".join(map(_csv_cell, header)) + "\n")
    ids = _Memo(lambda gid: _csv_cell(str(gid)))
    labels = _Memo(lambda label: _csv_cell(str(
        alphabet.label_of(label) if alphabet is not None else label)))
    sep = "," if table.pattern_ids else ""  # no count cells, no comma after the label
    na = ",".join(["NA"] * len(table.pattern_ids))
    out.writelines(f"{ids[gid]},{v},{labels[label]}{sep}"
                   f"{na if counts is None else ','.join(map(getitem, memos, counts))}\n"
                   for gid, v, label, counts in table.rows)


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
