"""Target/attribute word sets, query templates, subquery expansion, resolution.

A query bundles target word sets (the groups whose treatment is compared)
with attribute word sets (the characteristics they are compared against).
Each metric demands a fixed shape, the template ``(t, a)``; collections of
larger queries are expanded into every template-shaped combination.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .embeddings import DEFAULT_LOST_THRESHOLD, EmbeddingTable, WordResolution, nfc

__all__ = [
    "Query",
    "QueryTemplate",
    "ResolvedQuery",
    "WordSet",
    "default_queries_path",
    "expand_subqueries",
    "load_queries",
    "resolve_query",
    "subquery_count",
    "validate_query",
]


@dataclass(frozen=True)
class WordSet:
    """A named, ordered list of unique words.

    Words are NFC-normalized on construction; duplicates keep the first
    occurrence.
    """

    name: str
    words: tuple[str, ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("word set name must be non-empty")
        seen = set()
        normalized = []
        for word in self.words:
            key = nfc(word)
            if key in seen:
                continue
            seen.add(key)
            normalized.append(key)
        if not normalized:
            raise ValueError(f"word set '{self.name}' has no words")
        object.__setattr__(self, "words", tuple(normalized))

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class QueryTemplate:
    """Required query shape: number of target sets and of attribute sets."""

    t: int
    a: int = 0

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("a template needs at least one target set")
        if self.a < 0:
            raise ValueError("attribute set count cannot be negative")


@dataclass(frozen=True)
class Query:
    """Target and attribute word sets evaluated together.

    Set names must be unique within a query; a set's name and words are the
    identity subquery deduplication works on.
    """

    targets: tuple[WordSet, ...]
    attributes: tuple[WordSet, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.targets:
            raise ValueError("a query needs at least one target set")
        names = [s.name for s in self.targets + self.attributes]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate set names in query '{self.label}': {names}")
        if not self.label:
            target_part = ",".join(s.name for s in self.targets)
            attribute_part = ",".join(s.name for s in self.attributes)
            label = f"{target_part}|{attribute_part}" if attribute_part else target_part
            object.__setattr__(self, "label", label)


def validate_query(query: Query, template: QueryTemplate) -> bool:
    """True iff the query has exactly the template's set counts."""
    return len(query.targets) == template.t and len(query.attributes) == template.a


def subquery_count(query: Query, template: QueryTemplate) -> int:
    """Number of subqueries the query yields for a template, before dedup."""
    return math.comb(len(query.targets), template.t) * math.comb(
        len(query.attributes), template.a
    )


def _subquery_label(base: str, target_combo, attribute_combo) -> str:
    target_part = ",".join(s.name for s in target_combo)
    attribute_part = ",".join(s.name for s in attribute_combo)
    return f"{base}[{target_part}|{attribute_part}]"


def expand_subqueries(queries, template: QueryTemplate) -> list[Query]:
    """Expand queries into every template-shaped combination of their sets.

    Combinations are unordered and taken in input order, so a pair of target
    sets is emitted once, never as both orderings. Subqueries whose target
    and attribute sets, names and words alike, were already emitted are
    dropped. Queries with fewer sets than the template demands are skipped
    with a warning.
    """
    subqueries: list[Query] = []
    seen: set[tuple[frozenset, frozenset]] = set()
    for query in queries:
        if len(query.targets) < template.t or len(query.attributes) < template.a:
            warnings.warn(
                f"query '{query.label}' cannot satisfy template "
                f"({template.t},{template.a}); skipped",
                stacklevel=2,
            )
            continue
        exact = validate_query(query, template)
        for target_combo in itertools.combinations(query.targets, template.t):
            for attribute_combo in itertools.combinations(query.attributes, template.a):
                key = (frozenset(target_combo), frozenset(attribute_combo))
                if key in seen:
                    continue
                seen.add(key)
                if exact:
                    subqueries.append(query)
                else:
                    subqueries.append(
                        Query(
                            target_combo,
                            attribute_combo,
                            label=_subquery_label(query.label, target_combo, attribute_combo),
                        )
                    )
    return subqueries


@dataclass(frozen=True)
class ResolvedQuery:
    """A query resolved against one embedding table.

    ``target_vectors`` and ``attribute_vectors`` hold (set name, matrix)
    pairs, one row per found word. ``provenance`` holds the per-set word
    resolutions in target-then-attribute order, so consumers can recover
    which tokens each matrix row belongs to.
    """

    target_vectors: tuple[tuple[str, np.ndarray], ...]
    attribute_vectors: tuple[tuple[str, np.ndarray], ...]
    provenance: tuple[WordResolution, ...]
    query_label: str = ""
    embedding_name: str = ""


def resolve_query(
    query: Query, table: EmbeddingTable, lost_threshold: float = DEFAULT_LOST_THRESHOLD
) -> ResolvedQuery:
    """Resolve every word set of a query against one embedding table.

    Each set is resolved independently; vocabulary-loss errors name the
    offending set.
    """
    resolutions: list[WordResolution] = []

    def resolve(word_set: WordSet):
        resolution = table.resolve_word_set(
            word_set.words, lost_threshold=lost_threshold, set_name=word_set.name
        )
        resolutions.append(resolution)
        matrix = np.vstack([vec for _token, vec in resolution.found])
        return word_set.name, matrix

    target_vectors = tuple(resolve(ws) for ws in query.targets)
    attribute_vectors = tuple(resolve(ws) for ws in query.attributes)
    return ResolvedQuery(
        target_vectors,
        attribute_vectors,
        tuple(resolutions),
        query_label=query.label,
        embedding_name=table.name,
    )


def load_queries(path) -> list[Query]:
    """Read one query or a list of queries from a UTF-8 JSON file.

    Expected shape per query: {"label": str, "targets": [{"name": str,
    "words": [str]}], "attributes": [...]}. Unknown keys are ignored.
    """
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a query object or a list of them")
    queries = []
    for index, entry in enumerate(data):
        try:
            queries.append(
                Query(
                    targets=tuple(
                        WordSet(s["name"], tuple(s["words"])) for s in entry.get("targets", ())
                    ),
                    attributes=tuple(
                        WordSet(s["name"], tuple(s["words"])) for s in entry.get("attributes", ())
                    ),
                    label=entry.get("label", ""),
                )
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: query #{index} is malformed: {exc!r}") from None
    return queries


def default_queries_path() -> Path:
    """Path of the bundled default query file (reconstructed common lists)."""
    return Path(str(resources.files("biaseval").joinpath("data/default_queries.json")))
