"""
Ranking embeddings by aggregated bias scores
============================================

Builds two synthetic embeddings, one with a planted gender-career
association and one nearly neutral, then runs the full pipeline:
subquery expansion -> score matrix -> row aggregation -> rank table.
"""

import numpy as np

from biaseval import EmbeddingTable, Query, WordSet, build_rank_table, render_rank_table
from biaseval.ranking import render_score_matrix, score_matrices

rng = np.random.default_rng(42)

TOKENS = [
    "he", "him", "man", "she", "her", "woman",
    "career", "office", "salary", "home", "family", "children",
    "math", "algebra", "numbers", "poetry", "art", "dance",
]


def biased_table():
    # career/math words get a component along the masculine direction
    entries = {}
    for token in TOKENS:
        vec = rng.normal(size=8)
        if token in ("he", "him", "man", "career", "office", "salary", "math", "algebra", "numbers"):
            vec[0] += 2.0
        if token in ("she", "her", "woman", "home", "family", "children", "poetry", "art", "dance"):
            vec[1] += 2.0
        entries[token] = vec
    return EmbeddingTable.from_mapping("planted-bias", entries)


def neutral_table():
    return EmbeddingTable.from_mapping("near-neutral", {t: rng.normal(size=8) for t in TOKENS})


masculine = WordSet("masculine", ("he", "him", "man"))
feminine = WordSet("feminine", ("she", "her", "woman"))

queries = [
    Query(
        (masculine, feminine),
        (
            WordSet("career", ("career", "office", "salary")),
            WordSet("family", ("home", "family", "children")),
        ),
        label="career-family",
    ),
    Query(
        (masculine, feminine),
        (
            WordSet("math", ("math", "algebra", "numbers")),
            WordSet("arts", ("poetry", "art", "dance")),
        ),
        label="math-arts",
    ),
]

tables = [biased_table(), neutral_table()]

# Per-metric score matrices first: each query is expanded to the metric's
# template, e.g. the two (2,2) queries become four (2,1) subqueries for RND.
for matrix in score_matrices(("WEAT", "RND"), tables, queries):
    print(f"--- {matrix.metric} scores, one column per subquery ---")
    print(render_score_matrix(matrix))

# The rank table aggregates |score| per row and ranks ascending. Mind the
# direction per metric when reading it: for WEAT/RND/RNSB a small magnitude
# means less measured bias, while ECT is a correlation where values near +1
# mean coherent (less biased) profiles, so its raw column is the one to read.
rank_table = build_rank_table(["WEAT", "RNSB", "RND", "ECT"], tables, queries)
print("--- aggregated values ---")
print(render_rank_table(rank_table, mode="raw"))
print("--- ranks (1 = smallest aggregated magnitude) ---")
print(render_rank_table(rank_table, mode="ranks"))
