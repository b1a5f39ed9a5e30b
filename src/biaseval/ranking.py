"""Score matrices over embeddings x subqueries, aggregation, and rank tables.

Each metric is evaluated on every (embedding, subquery) cell; rows are then
aggregated to a single number per embedding and embeddings are ranked
ascending, smaller aggregate meaning less measured bias. A cell that cannot
be resolved against an embedding, or on which its metric is undefined,
becomes a missing marker instead of aborting the whole matrix, and missing
cells are excluded from aggregation rather than imputed.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import BiasEvalError
from .metrics import (ECT, METRIC_FUNCTIONS, METRIC_TEMPLATES, RNSB, _require_shape,
                      _shared_classifiers)
from .names import AGGREGATIONS, DEFAULT_LOST_THRESHOLD, DEFAULT_SEED, RENDER_MODES, render_grid
from .queries import expand_subqueries, resolve_query

__all__ = [
    "AGGREGATIONS",
    "RankTable",
    "ScoreMatrix",
    "aggregate_rows",
    "build_rank_table",
    "build_score_matrix",
    "check_table_name",
    "rank_embeddings",
    "rank_table_csv",
    "rank_table_to_dict",
    "render_rank_table",
    "render_score_matrix",
    "score_matrices",
    "score_matrix_csv",
    "score_matrix_to_dict",
]


@dataclass
class ScoreMatrix:
    """Per-(embedding, subquery) metric values; NaN marks a missing cell."""

    metric: str
    rows: list[str]
    cols: list[str]
    values: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass
class RankTable:
    """Aggregated embedding-by-metric comparison with 1-based rank columns."""

    rows: list[str]
    cols: list[str]
    aggregate_values: np.ndarray
    ranks: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def build_score_matrix(
    metric: str,
    table,
    subqueries,
    lost_threshold: float = DEFAULT_LOST_THRESHOLD,
    seed: int = DEFAULT_SEED,
) -> ScoreMatrix:
    """Evaluate one metric on every subquery cell of one table, as a one-row matrix.

    A subquery of another shape than the metric's template raises
    ``TemplateMismatchError`` before any cell is scored. Otherwise a
    ``BiasEvalError`` from resolving or scoring a cell (vocabulary loss, a
    zero-norm vector, an undefined correlation, a diverging classifier)
    leaves a NaN cell and a diagnostics entry; other errors propagate. RNSB
    cells with identical attribute matrices share one fitted classifier for
    the call.
    """
    _template(metric)
    subqueries = list(subqueries)
    if not subqueries:
        raise ValueError("no subqueries given")
    for query in subqueries:
        _require_shape(metric, query.targets, query.attributes, query.label)
    values = np.full((1, len(subqueries)), np.nan)
    diagnostics: dict = {}
    # The first RNSB cell of each attribute pair, resolved first to fit the pairs in stacks.
    lead_cells: dict = {}
    kernel = METRIC_FUNCTIONS[metric]
    if metric == RNSB:
        kernel = functools.partial(kernel, seed=seed)
        for j, query in enumerate(subqueries):
            lead_cells.setdefault(query.attributes, j)
    held = {}  # a lead cell that fails is resolved again below, failing alike
    for j in lead_cells.values():
        with contextlib.suppress(BiasEvalError):
            held[j] = resolve_query(subqueries[j], table, lost_threshold=lost_threshold)
    with _shared_classifiers([tuple(a.matrix for a in rq.attributes) for rq in held.values()],
                             seed):
        for j, query in enumerate(subqueries):
            try:
                rq = held.pop(j, None) or resolve_query(query, table, lost_threshold=lost_threshold)
                result = kernel(rq)
            except BiasEvalError as exc:
                diagnostics[(table.name, query.label)] = {"missing": str(exc)}
                continue
            values[0, j] = result.value
            cell = dict(result.diagnostics)
            sets = rq.targets + rq.attributes
            dropped = {s.name: list(s.dropped) for s in sets if s.dropped}
            if dropped:
                cell["dropped"] = dropped
            merged = {s.name: dict(s.merged) for s in sets if s.merged}
            if merged:
                cell["merged"] = merged
            if cell:
                diagnostics[(table.name, query.label)] = cell
    return ScoreMatrix(metric, [table.name], [q.label for q in subqueries], values, diagnostics)


def _template(metric: str):
    """The metric's template; an unknown name raises a ValueError."""
    if metric not in METRIC_TEMPLATES:
        raise ValueError(f"unknown metric '{metric}'")
    return METRIC_TEMPLATES[metric]


def score_matrices(
    metrics,
    tables,
    queries,
    lost_threshold: float = DEFAULT_LOST_THRESHOLD,
    seed: int = DEFAULT_SEED,
) -> list[ScoreMatrix]:
    """One score matrix per metric, in the order given, over each metric's
    subqueries of ``queries``.

    Every metric is checked and its subqueries expanded before any table is
    taken, and every matrix is built before any is returned, so a failing
    metric leaves no partial result; a metric given twice is rejected first.
    ``tables`` is consumed once, each name checked by :func:`check_table_name`
    as its table arrives: each table is scored for every metric, by one
    :func:`build_score_matrix` call each, and released before the next is
    taken, so an iterator that loads its tables holds one at a time.
    """
    metrics = list(metrics)
    queries = list(queries)
    if not metrics:
        raise ValueError("no metrics given")
    repeated = [metric for i, metric in enumerate(metrics) if metric in metrics[:i]]
    if repeated:
        raise ValueError(f"metric '{repeated[0]}' is given more than once")
    expanded = []
    for metric in metrics:
        template = _template(metric)
        subqueries = expand_subqueries(queries, template)
        if not subqueries:
            raise ValueError(
                f"no query satisfies the {metric} template ({template.t},{template.a})"
            )
        expanded.append(subqueries)
    names, rows = [], [[] for _ in metrics]  # per metric, its one-table matrices
    for table in tables:
        names.append(check_table_name(table.name, names))
        for parts, metric, subqueries in zip(rows, metrics, expanded):
            parts.append(build_score_matrix(metric, table, subqueries,
                                            lost_threshold=lost_threshold, seed=seed))
        del table  # else it stays alive while the next table loads
    if not names:
        raise ValueError("no embeddings given")
    return [ScoreMatrix(metric, list(names), parts[0].cols, np.vstack([p.values for p in parts]),
                        {cell: info for p in parts for cell, info in p.diagnostics.items()})
            for metric, parts in zip(metrics, rows)]


def check_table_name(name: str, earlier) -> str:
    """``name``, refused if ``earlier`` holds it or it holds the ``::`` that
    ends a table name in a diagnostics key."""
    if name in earlier:
        raise ValueError(f"embedding name '{name}' is given twice (--embedding); "
                         "name each table uniquely with NAME=PATH")
    if "::" in name:
        raise ValueError(f"embedding name '{name}' contains '::', which ends the "
                         "embedding name in a diagnostics key")
    return name


def aggregate_rows(matrix: ScoreMatrix, agg: str = "abs_mean"):
    """Collapse each row to one number over its present cells.

    ``abs_mean`` (default) averages absolute values: the sign of a bias score
    depends on query orientation, so magnitude is what is compared. An ECT
    cell is a correlation ρ, 1 meaning no bias, so it counts as 1 − ρ: for
    every metric, 0 then means no bias.
    """
    if agg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation '{agg}' (expected one of {AGGREGATIONS})")
    aggregates = []
    for i, name in enumerate(matrix.rows):
        row = 1.0 - matrix.values[i] if matrix.metric == ECT else matrix.values[i]
        present = row[~np.isnan(row)]
        if present.size == 0:
            reasons = [
                info["missing"]
                for (row_name, _col), info in sorted(matrix.diagnostics.items())
                if row_name == name and "missing" in info
            ]
            hint = f"; first cause: {reasons[0]}" if reasons else ""
            raise ValueError(
                f"embedding '{name}' has no present {matrix.metric} scores "
                f"(all cells missing{hint})"
            )
        value = float(np.mean(np.abs(present))) if agg == "abs_mean" else float(np.mean(present))
        aggregates.append((name, value))
    return aggregates


def rank_embeddings(aggregates):
    """Rank ascending by aggregate, 1-based; ties keep registration order."""
    aggregates = list(aggregates)
    if not aggregates:
        raise ValueError("nothing to rank")
    order = sorted(range(len(aggregates)), key=lambda i: aggregates[i][1])
    return [(aggregates[i][0], rank) for rank, i in enumerate(order, start=1)]


def build_rank_table(
    metrics,
    tables,
    queries,
    lost_threshold: float = DEFAULT_LOST_THRESHOLD,
    agg: str = "abs_mean",
    seed: int = DEFAULT_SEED,
) -> RankTable:
    """Aggregate and rank each of :func:`score_matrices`' matrices.

    Rows are embeddings in registration order, columns are metrics; both the
    aggregate values and the rank indices are kept.
    """
    matrices = score_matrices(metrics, tables, queries, lost_threshold=lost_threshold, seed=seed)
    names = list(matrices[0].rows)
    aggregate_values = np.zeros((len(names), len(matrices)))
    ranks = np.zeros((len(names), len(matrices)), dtype=int)
    for j, matrix in enumerate(matrices):
        aggregates = aggregate_rows(matrix, agg=agg)
        values, rank_of = dict(aggregates), dict(rank_embeddings(aggregates))
        aggregate_values[:, j] = [values[name] for name in names]
        ranks[:, j] = [rank_of[name] for name in names]
    diagnostics = {m.metric: m.diagnostics for m in matrices if m.diagnostics}
    return RankTable(names, [m.metric for m in matrices], aggregate_values, ranks, diagnostics)


def _flatten_diagnostics(diagnostics: dict) -> dict:
    """Key each cell ``<table>::<label>``; a table name holds no ``::``."""
    return {f"{row}::{col}": info for (row, col), info in sorted(diagnostics.items())}


def score_matrix_to_dict(matrix: ScoreMatrix) -> dict:
    """JSON-ready representation; missing cells become null."""
    return {
        "metric": matrix.metric,
        "rows": list(matrix.rows),
        "cols": list(matrix.cols),
        "values": [
            [None if np.isnan(v) else float(v) for v in row] for row in matrix.values
        ],
        "diagnostics": _flatten_diagnostics(matrix.diagnostics),
    }


def rank_table_to_dict(table: RankTable) -> dict:
    return {
        "rows": list(table.rows),
        "cols": list(table.cols),
        "aggregate_values": [[float(v) for v in row] for row in table.aggregate_values],
        "ranks": [[int(r) for r in row] for row in table.ranks],
        "diagnostics": {
            metric: _flatten_diagnostics(cells) for metric, cells in table.diagnostics.items()
        },
    }


def score_matrix_csv(matrix: ScoreMatrix) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["embedding"] + list(matrix.cols))
    writer.writerows([name] + ["" if np.isnan(v) else repr(float(v)) for v in row]
                     for name, row in zip(matrix.rows, matrix.values))
    return buffer.getvalue()


def rank_table_csv(table: RankTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["embedding"] + [f"{m}_{k}" for m in table.cols for k in ("value", "rank")])
    for name, values, ranks in zip(table.rows, table.aggregate_values, table.ranks):
        cells = [(repr(float(v)), str(int(r))) for v, r in zip(values, ranks)]
        writer.writerow([name] + [cell for pair in cells for cell in pair])
    return buffer.getvalue()


def render_rank_table(table: RankTable, mode: str = "ranks") -> str:
    """Plain-text grid, embeddings as rows and metrics as columns.

    ``ranks`` shows rank indices; ``raw`` shows the aggregate values, the
    layout used when reporting a single query set directly.
    """
    if mode not in RENDER_MODES:
        raise ValueError(f"unknown mode '{mode}' (expected 'ranks' or 'raw')")
    ranked = mode == "ranks"
    rows = [[name] + [str(int(v)) if ranked else f"{v:.6f}" for v in row]
            for name, row in zip(table.rows, table.ranks if ranked else table.aggregate_values)]
    return render_grid(["Embedding"] + list(table.cols), rows)


def render_score_matrix(matrix: ScoreMatrix) -> str:
    rows = [[name] + ["-" if np.isnan(v) else f"{v:.6f}" for v in values]
            for name, values in zip(matrix.rows, matrix.values)]
    return render_grid(["Embedding"] + list(matrix.cols), rows)
