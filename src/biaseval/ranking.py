"""Score matrices over embeddings x subqueries, aggregation, and rank tables.

Each metric is evaluated on every (embedding, subquery) cell; rows are then
aggregated to a single number per embedding and embeddings are ranked
ascending, smaller aggregate meaning less measured bias. Cells whose word
sets cannot be resolved against an embedding become missing markers instead
of aborting the whole matrix, and missing cells are excluded from
aggregation rather than imputed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyResolutionError, VocabularyLossError
from .metrics import (METRIC_FUNCTIONS, METRIC_TEMPLATES, RNSB, _classifier_scope,
                      _prefit_classifiers)
from .names import AGGREGATIONS, DEFAULT_LOST_THRESHOLD, DEFAULT_SEED, RENDER_MODES, render_grid
from .queries import ResolvedQuery, expand_subqueries, resolve_query

__all__ = [
    "AGGREGATIONS",
    "RankTable",
    "ScoreMatrix",
    "aggregate_rows",
    "build_rank_table",
    "build_score_matrix",
    "rank_embeddings",
    "rank_table_csv",
    "rank_table_to_dict",
    "render_rank_table",
    "render_score_matrix",
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
    tables,
    subqueries,
    lost_threshold: float = DEFAULT_LOST_THRESHOLD,
    seed: int = DEFAULT_SEED,
) -> ScoreMatrix:
    """Evaluate one metric on every embedding x subquery cell.

    Subqueries are expected to satisfy the metric's template already.
    Resolution failures (vocabulary loss, empty sets) leave a NaN cell and a
    diagnostics entry; other errors propagate. RNSB cells with identical
    attribute matrices share one fitted classifier for the call.
    """
    if metric not in METRIC_FUNCTIONS:
        raise ValueError(f"unknown metric '{metric}'")
    tables = list(tables)
    subqueries = list(subqueries)
    if not tables:
        raise ValueError("no embeddings given")
    if not subqueries:
        raise ValueError("no subqueries given")
    values = np.full((len(tables), len(subqueries)), np.nan)
    diagnostics: dict = {}
    # Per attribute pair, the first RNSB cell that uses it: in each table
    # these cells are resolved first, and their classifiers fitted in stacks.
    lead_cells: dict = {}
    if metric == RNSB:
        for j, query in enumerate(subqueries):
            lead_cells.setdefault(query.attributes, j)
    with _classifier_scope():
        for i, table in enumerate(tables):
            held = {j: _resolve(subqueries[j], table, lost_threshold)
                    for j in lead_cells.values()}
            _prefit_classifiers(
                [tuple(a.matrix for a in rq.attributes) for rq in held.values()
                 if isinstance(rq, ResolvedQuery) and len(rq.attributes) == 2],
                seed,
            )
            for j, query in enumerate(subqueries):
                rq = held.pop(j) if j in held else _resolve(query, table, lost_threshold)
                if not isinstance(rq, ResolvedQuery):
                    diagnostics[(table.name, query.label)] = {"missing": str(rq)}
                    continue
                if metric == RNSB:
                    result = METRIC_FUNCTIONS[metric](rq, seed)
                else:
                    result = METRIC_FUNCTIONS[metric](rq)
                values[i, j] = result.value
                cell = dict(result.diagnostics)
                sets = rq.targets + rq.attributes
                dropped = {s.name: list(s.dropped) for s in sets if s.dropped}
                if dropped:
                    cell["dropped"] = dropped
                if cell:
                    diagnostics[(table.name, query.label)] = cell
    return ScoreMatrix(
        metric, [t.name for t in tables], [q.label for q in subqueries], values, diagnostics
    )


def _resolve(query, table, lost_threshold):
    """The query resolved against the table, or the resolution error that
    makes its cell missing."""
    try:
        return resolve_query(query, table, lost_threshold=lost_threshold)
    except (VocabularyLossError, EmptyResolutionError) as exc:
        return exc


def aggregate_rows(matrix: ScoreMatrix, agg: str = "abs_mean"):
    """Collapse each row to one number over its present cells.

    ``abs_mean`` (default) averages absolute values: the sign of a bias score
    depends on query orientation, so magnitude is what is compared.
    """
    if agg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation '{agg}' (expected one of {AGGREGATIONS})")
    aggregates = []
    for i, name in enumerate(matrix.rows):
        row = matrix.values[i]
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
    """Run expand -> score -> aggregate -> rank for each metric.

    Rows are embeddings in registration order, columns are metrics; both the
    aggregate values and the rank indices are kept.
    """
    metrics = list(metrics)
    tables = list(tables)
    queries = list(queries)
    if not metrics:
        raise ValueError("no metrics given")
    names = [t.name for t in tables]
    if len(set(names)) != len(names):
        raise ValueError(f"embedding names must be unique: {names}")
    aggregate_values = np.zeros((len(tables), len(metrics)))
    ranks = np.zeros((len(tables), len(metrics)), dtype=int)
    diagnostics: dict = {}
    for j, metric in enumerate(metrics):
        template = METRIC_TEMPLATES[metric]
        subqueries = expand_subqueries(queries, template)
        if not subqueries:
            raise ValueError(
                f"no query satisfies the {metric} template ({template.t},{template.a})"
            )
        matrix = build_score_matrix(
            metric, tables, subqueries, lost_threshold=lost_threshold, seed=seed
        )
        aggregates = aggregate_rows(matrix, agg=agg)
        for i, (_name, value) in enumerate(aggregates):
            aggregate_values[i, j] = value
        for name, rank in rank_embeddings(aggregates):
            ranks[names.index(name), j] = rank
        if matrix.diagnostics:
            diagnostics[metric] = matrix.diagnostics
    return RankTable(names, metrics, aggregate_values, ranks, diagnostics)


def _flatten_diagnostics(diagnostics: dict) -> dict:
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
    for name, row in zip(matrix.rows, matrix.values):
        writer.writerow([name] + ["" if np.isnan(v) else repr(float(v)) for v in row])
    return buffer.getvalue()


def rank_table_csv(table: RankTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["embedding"]
    for metric in table.cols:
        header += [f"{metric}_value", f"{metric}_rank"]
    writer.writerow(header)
    for i, name in enumerate(table.rows):
        row = [name]
        for j in range(len(table.cols)):
            row += [repr(float(table.aggregate_values[i, j])), str(int(table.ranks[i, j]))]
        writer.writerow(row)
    return buffer.getvalue()


def render_rank_table(table: RankTable, mode: str = "ranks") -> str:
    """Plain-text grid, embeddings as rows and metrics as columns.

    ``ranks`` shows rank indices; ``raw`` shows the aggregate values, the
    layout used when reporting a single query set directly.
    """
    if mode not in RENDER_MODES:
        raise ValueError(f"unknown mode '{mode}' (expected 'ranks' or 'raw')")
    header = ["Embedding"] + list(table.cols)
    rows = []
    for i, name in enumerate(table.rows):
        cells = [name]
        for j in range(len(table.cols)):
            if mode == "ranks":
                cells.append(str(int(table.ranks[i, j])))
            else:
                cells.append(f"{table.aggregate_values[i, j]:.6f}")
        rows.append(cells)
    return render_grid(header, rows)


def render_score_matrix(matrix: ScoreMatrix) -> str:
    header = ["Embedding"] + list(matrix.cols)
    rows = []
    for name, values in zip(matrix.rows, matrix.values):
        rows.append([name] + ["-" if np.isnan(v) else f"{v:.6f}" for v in values])
    return render_grid(header, rows)
