"""biaseval: quantify gender bias in word embeddings and MT output.

Four embedding fairness metrics (WEAT, RND, RNSB, ECT) run over queries of
target/attribute word sets and rank embeddings; a Hindi gender-neutral
corpus builder plus a translation bias index score MT systems end to end.
"""

import importlib

__version__ = "0.1.0"

# Public names by defining submodule. They are imported on first access
# (PEP 562), so ``import biaseval.cli`` for the translation-path commands
# loads no numpy, and the HTTP backend loads ``ssl`` only for an ``https``
# URL.
_EXPORTS = {
    "eec": (
        "DEFAULT_PRONOUNS", "Lexicon", "PronounSpec", "Utterance", "build_views",
        "generate_utterances", "load_lexicon",
    ),
    "embeddings": ("EmbeddingTable", "ResolvedSet", "cosine", "load_word2vec_text"),
    "metrics": (
        "ClassifierModel", "MetricResult", "ect", "kl_from_uniform", "rnd", "rnsb",
        "spearman", "train_attribute_classifier", "weat",
    ),
    "queries": (
        "Query", "QueryTemplate", "ResolvedQuery", "WordSet",
        "default_queries_path", "expand_subqueries", "load_queries", "resolve_query",
    ),
    "ranking": (
        "RankTable", "ScoreMatrix", "aggregate_rows", "build_rank_table",
        "build_score_matrix", "rank_embeddings", "render_rank_table",
    ),
    "tgbi": (
        "DEFAULT_GENDER_LEXICON", "GenderLexicon", "SetScore", "TgbiReport",
        "classify_sentence", "load_gender_lexicon", "p_index", "render_tgbi_table",
        "score_views",
    ),
    "translate": (
        "BackendConfig", "TranslationRecord", "fetch_translations_http", "join",
        "load_translations_tsv",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (
    "cli", "eec", "embeddings", "errors", "metrics", "names", "queries", "ranking",
    "tgbi", "translate",
)

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
