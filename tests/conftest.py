import numpy as np
import pytest

from biaseval import EmbeddingTable, Query, ResolvedQuery, ResolvedSet, WordSet


def write_w2v(path, entries):
    """Write a word2vec text file from a token -> components mapping."""
    dim = len(next(iter(entries.values())))
    lines = [f"{len(entries)} {dim}"]
    for token, components in entries.items():
        lines.append(token + " " + " ".join(repr(float(c)) for c in components))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_resolved_query(targets, attributes, label="q", embedding="toy"):
    """Build a ResolvedQuery from {set name: {token: vector}} mappings."""

    def build(sets):
        return tuple(
            ResolvedSet(name, tuple(words), np.array(list(words.values()), dtype=np.float64), ())
            for name, words in sets.items()
        )

    return ResolvedQuery(build(targets), build(attributes), query_label=label,
                         embedding_name=embedding)


@pytest.fixture
def toy_table():
    return EmbeddingTable.from_mapping(
        "toy",
        {
            "east": [1.0, 0.0],
            "north": [0.0, 1.0],
            "diag": [1.0, 1.0],
            "steep": [1.0, 2.0],
            "west": [-1.0, 0.0],
        },
    )


@pytest.fixture
def weat_query():
    return Query(
        targets=(WordSet("t1", ("east",)), WordSet("t2", ("north",))),
        attributes=(WordSet("a1", ("east",)), WordSet("a2", ("north",))),
        label="toy-weat",
    )
