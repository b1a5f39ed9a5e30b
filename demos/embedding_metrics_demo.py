"""
Four bias metrics on a toy embedding
====================================

Walks one hand-made embedding through WEAT, RND, RNSB and ECT so the sign
and scale conventions are easy to see. The embedding is rigged: career words
sit near the masculine cluster, family words near the feminine cluster.
"""

import numpy as np

from biaseval import (
    EmbeddingTable,
    Query,
    WordSet,
    ect,
    resolve_query,
    rnd,
    rnsb,
    weat,
)

# A 2-D embedding with an obvious planted association: dimension 0 is the
# "masculine-career" direction, dimension 1 the "feminine-family" direction.
rng = np.random.default_rng(0)


def around(x, y):
    return [x + rng.normal(scale=0.05), y + rng.normal(scale=0.05)]


table = EmbeddingTable.from_mapping(
    "toy-2d",
    {
        "he": around(1.0, 0.1),
        "him": around(0.9, 0.2),
        "man": around(1.1, 0.1),
        "she": around(0.1, 1.0),
        "her": around(0.2, 0.9),
        "woman": around(0.1, 1.1),
        "career": around(0.9, 0.3),
        "office": around(1.0, 0.2),
        "salary": around(0.8, 0.1),
        "home": around(0.2, 0.8),
        "family": around(0.3, 1.0),
        "children": around(0.1, 0.9),
    },
)

masculine = WordSet("masculine", ("he", "him", "man"))
feminine = WordSet("feminine", ("she", "her", "woman"))
career = WordSet("career", ("career", "office", "salary"))
family = WordSet("family", ("home", "family", "children"))

# WEAT wants two targets and two attributes. A positive value here means the
# first target set (masculine) leans toward the first attribute set (career).
pair_query = Query((masculine, feminine), (career, family), label="career-family")
resolved = resolve_query(pair_query, table)
result = weat(resolved)
print(f"WEAT  {result.value:+.4f}   (positive: masculine words lean toward career)")

# RND compares raw distances from each target centroid to every attribute
# vector; it is the one metric here that cares about vector magnitudes.
single_attribute = Query((masculine, feminine), (career,), label="career-only")
result = rnd(resolve_query(single_attribute, table))
print(f"RND   {result.value:+.4f}   (negative: career words sit nearer the masculine centroid)")

# RNSB trains a tiny logistic classifier career-vs-family, scores every
# target word with it, and measures how far those scores are from uniform.
# Zero would mean the classifier cannot tell the target words apart.
result = rnsb(resolved, seed=7)
print(f"RNSB  {result.value:+.4f}   (0 = unbiased; training loss "
      f"{result.diagnostics['training_loss']:.3f})")

# ECT correlates the two centroids' similarity profiles over one attribute
# set; +1 means both target groups relate to the attributes identically.
result = ect(resolve_query(single_attribute, table))
print(f"ECT   {result.value:+.4f}   (1 = coherent/unbiased, -1 = opposite profiles)")
