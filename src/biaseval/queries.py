"""Target/attribute word sets, query templates, subquery expansion, resolution.

A query bundles target word sets (the groups whose treatment is compared)
with attribute word sets (the characteristics they are compared against).
Each metric demands a fixed shape, the template ``(t, a)``; collections of
larger queries are expanded into every template-shaped combination.

Resolving a query against an embedding table gives a :class:`ResolvedQuery`
that holds one :class:`ResolvedSet` per word set: the keys it matched, their
vectors as matrix rows, and the words the table lacks.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .embeddings import EmbeddingTable, ResolvedSet, nfc
from .names import DEFAULT_LOST_THRESHOLD, read_json

__all__ = [
    "Query",
    "QueryTemplate",
    "ResolvedQuery",
    "ResolvedSet",
    "WordSet",
    "default_queries_path",
    "expand_subqueries",
    "fits_template",
    "load_queries",
    "resolve_query",
]


@dataclass(frozen=True)
class WordSet:
    """A named, ordered list of unique words.

    ``words`` is a list or tuple of non-empty strings, never one string;
    they are NFC-normalized on construction and duplicates keep the first
    occurrence.
    """

    name: str
    words: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise TypeError(f"word set name must be a string, got {self.name!r}")
        if not self.name:
            raise ValueError("word set name must be non-empty")
        if not isinstance(self.words, (list, tuple)):
            raise TypeError(f"word set '{self.name}' words must be a list, got {self.words!r}")
        words = tuple(dict.fromkeys(nfc(word) for word in self.words))
        if not words:
            raise ValueError(f"word set '{self.name}' has no words")
        if "" in words:
            raise ValueError(f"word set '{self.name}' has an empty word")
        object.__setattr__(self, "words", words)


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
        if not isinstance(self.label, str):
            raise TypeError(f"query label must be a string, got {self.label!r}")
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


def fits_template(query: Query, template: QueryTemplate) -> bool:
    """True iff the query has at least the template's set counts, so that it
    yields at least one subquery."""
    return len(query.targets) >= template.t and len(query.attributes) >= template.a


def _subquery_label(base: str, target_combo, attribute_combo) -> str:
    target_part = ",".join(s.name for s in target_combo)
    attribute_part = ",".join(s.name for s in attribute_combo)
    return f"{base}[{target_part}|{attribute_part}]"


def expand_subqueries(queries, template: QueryTemplate) -> list[Query]:
    """Expand queries into every template-shaped combination of their sets.

    Combinations are unordered and taken in input order, so a pair of target
    sets is emitted once, never as both orderings. Subqueries whose target
    and attribute sets, names and words alike, were already emitted are
    dropped; two different subqueries with one label raise ValueError.
    Queries with fewer sets than the template demands are skipped with a
    warning.
    """
    subqueries: list[Query] = []
    seen: set[tuple[frozenset, frozenset]] = set()
    labels: dict[str, tuple[frozenset, frozenset]] = {}
    for query in queries:
        if not fits_template(query, template):
            warnings.warn(
                f"query '{query.label}' cannot satisfy template "
                f"({template.t},{template.a}); skipped",
                stacklevel=2,
            )
            continue
        exact = len(query.targets) == template.t and len(query.attributes) == template.a
        for target_combo in itertools.combinations(query.targets, template.t):
            for attribute_combo in itertools.combinations(query.attributes, template.a):
                key = (frozenset(target_combo), frozenset(attribute_combo))
                if key in seen:
                    continue
                seen.add(key)
                label = (query.label if exact
                         else _subquery_label(query.label, target_combo, attribute_combo))
                if labels.setdefault(label, key) != key:
                    raise ValueError(f"two different subqueries are labelled '{label}'")
                subqueries.append(Query(target_combo, attribute_combo, label=label))
    return subqueries


@dataclass(frozen=True)
class ResolvedQuery:
    """A query resolved against one embedding table, set by set."""

    targets: tuple[ResolvedSet, ...]
    attributes: tuple[ResolvedSet, ...]
    query_label: str = ""


def resolve_query(
    query: Query, table: EmbeddingTable, lost_threshold: float = DEFAULT_LOST_THRESHOLD
) -> ResolvedQuery:
    """Resolve every word set of a query against one embedding table.

    Each set is resolved independently; vocabulary-loss errors name the
    offending set.
    """

    def resolve(word_set: WordSet) -> ResolvedSet:
        return table.resolve_word_set(word_set.words, lost_threshold, word_set.name)

    return ResolvedQuery(
        tuple(resolve(ws) for ws in query.targets),
        tuple(resolve(ws) for ws in query.attributes),
        query_label=query.label,
    )


def load_queries(path) -> list[Query]:
    """Read one query or a list of queries from a UTF-8 JSON file.

    Expected shape per query: {"label": str, "targets": [{"name": str,
    "words": [str]}], "attributes": [...]}. Unknown keys are ignored; a
    label, name, words list or word of another type makes the query malformed.
    """
    path = Path(path)
    data = read_json(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a query object or a list of them")
    queries = []
    for index, entry in enumerate(data):
        try:
            targets, attributes = ([WordSet(s["name"], s["words"]) for s in entry.get(key, ())]
                                   for key in ("targets", "attributes"))
            queries.append(Query(targets, attributes, label=entry.get("label", "")))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: query #{index} is malformed: {exc!r}") from None
    return queries


def default_queries_path() -> Path:
    """Path of the bundled default query file (reconstructed common lists)."""
    return Path(str(resources.files("biaseval").joinpath("data/default_queries.json")))
