"""Which biaseval functions the traced run wraps, and how their spans and
counts become the per-layer metrics.

Spans are named ``<module>.<function>``; a layer's self time is the summed
self time of its module's spans. The layers' self times plus the time of
the counting hooks (``trace.hooks_s``) add up to the time spent inside
``cli.main``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from spans import HOOK_SPAN, Tracer, self_times

LAYERS = ("cli", "embeddings", "queries", "metrics", "ranking", "eec", "translate", "tgbi")

# Per-layer self-time metrics: metric name -> the spans whose self time it sums.
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "embeddings.load_s": ("embeddings.load_word2vec_text",),
    "queries.resolve_query_s": ("queries.resolve_query",),
    "queries.expand_subqueries_s": ("queries.expand_subqueries",),
    "metrics.weat_s": ("metrics.weat",),
    "metrics.rnd_s": ("metrics.rnd",),
    "metrics.ect_s": ("metrics.ect",),
    "metrics.rnsb_s": ("metrics.rnsb",),
    "metrics.train_s": ("metrics.train_attribute_classifier",),
    "ranking.score_matrix_self_s": ("ranking.build_score_matrix",),
    "ranking.aggregate_render_s": (
        "ranking.build_rank_table", "ranking.aggregate_rows", "ranking.rank_embeddings",
        "ranking.score_matrix_to_dict", "ranking.rank_table_to_dict",
        "ranking.score_matrix_csv", "ranking.rank_table_csv",
        "ranking.render_rank_table", "ranking.render_score_matrix",
    ),
    "eec.generate_s": ("eec.generate_utterances", "eec.build_views"),
    "eec.io_s": ("eec.load_lexicon", "eec.write_corpus_tsv", "eec.write_views_json",
                 "eec.read_corpus_tsv", "eec.read_views_json"),
    "translate.tsv_io_s": ("translate.load_translations_tsv", "translate.write_translations_tsv"),
    "translate.join_s": ("translate.join",),
    "translate.fetch_s": ("translate.fetch_translations_http",),
    "tgbi.score_views_s": ("tgbi.score_views",),
    "tgbi.render_s": ("tgbi.render_tgbi_table", "tgbi.report_to_dict"),
}
# Spans that belong to a layer total only.
OTHER_SPANS = ("queries.load_queries", "tgbi.load_gender_lexicon")
# Spans whose return value the metrics read.
RESULT_SPANS = ("embeddings.load_word2vec_text", "ranking.build_score_matrix",
                "eec.generate_utterances", "translate.fetch_translations_http",
                "tgbi.score_views")

COUNT_METRICS = (
    "embeddings.rows_scanned", "embeddings.rows_kept", "embeddings.resolve_word_set_calls",
    "queries.resolve_query_calls", "metrics.cosine_calls", "metrics.trainings",
    "ranking.cells", "ranking.cells_missing", "eec.sentences",
    "translate.http_requests", "translate.http_batches", "translate.retries",
    "translate.failed_records", "tgbi.sentences_classified", "tgbi.unresolved",
)
RATIO_METRICS = ("embeddings.used_row_ratio", "queries.distinct_set_ratio",
                 "metrics.distinct_training_ratio", "translate.first_try_ratio")
TIME_METRICS = (tuple(SELF_TIME_METRICS) + tuple(f"{layer}.self_s" for layer in LAYERS[1:])
                + ("cli.import_s", "translate.stub_busy_s", "trace.hooks_s",
                   "trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s"))


class PassTrace:
    """Wrappers for one traced pass plus the side tables their hooks fill."""

    def __init__(self, biaseval):
        self.tracer = Tracer()
        self.batch_size = biaseval.translate.BATCH_SIZE
        self.sets: set = set()
        self.rows_used: set = set()
        self.trainings: set = set()
        self.replacements = self._wrappers(biaseval)

    def _wrappers(self, be) -> dict:
        tracer = self.tracer
        replacements = {}
        for span in [s for names in SELF_TIME_METRICS.values() for s in names] + list(OTHER_SPANS):
            module, function = span.split(".")
            original = getattr(getattr(be, module), function)
            wrapper = tracer.span(span, original, keep_result=span in RESULT_SPANS)
            if span == "metrics.train_attribute_classifier":
                wrapper = tracer.counter("metrics.trainings", wrapper, self._on_train)
            replacements[original] = wrapper
        # The loader normalises each row's token once, so its nfc calls count
        # the rows it parses; nfc calls elsewhere are not counted.
        nfc = be.embeddings.nfc

        def counted_nfc(text):
            if tracer.open_span() == "embeddings.load_word2vec_text":
                tracer.count("embeddings.rows_scanned")
            return nfc(text)

        replacements[nfc] = counted_nfc
        replacements[be.embeddings.cosine] = tracer.counter(
            "metrics.cosine_calls", be.embeddings.cosine)
        replacements[be.tgbi.classify_sentence] = tracer.counter(
            "tgbi.sentences_classified", be.tgbi.classify_sentence)
        table_class = be.embeddings.EmbeddingTable
        replacements[(table_class, "resolve_word_set")] = tracer.counter(
            "embeddings.resolve_word_set_calls", table_class.resolve_word_set, self._on_resolve)
        return replacements

    def _on_train(self, args, kwargs, result):
        key = hashlib.sha256()
        for matrix in args[:2]:
            key.update(matrix.tobytes())
        key.update(repr(args[2:] + tuple(sorted(kwargs.items()))).encode())
        self.trainings.add(key.digest())

    def _on_resolve(self, args, kwargs, resolution):
        table, words = args[0], args[1]
        self.sets.add((table.name, tuple(words)))
        self.rows_used.update((table.name, token) for token, _vec in resolution.found)

    def metrics(self, stub_stats: dict) -> tuple[dict, dict]:
        """Per-layer metrics of this pass, and every count (including the
        distinct-key counts behind the ratios) for the closed-form checks."""
        spans = self.tracer.spans
        own = self_times(spans)
        by_name: dict[str, float] = {}
        for span, seconds in zip(spans, own):
            by_name[span.name] = by_name.get(span.name, 0.0) + seconds
        out = {metric: sum(by_name.get(name, 0.0) for name in names)
               for metric, names in SELF_TIME_METRICS.items()}
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = sum(v for k, v in by_name.items() if k.startswith(layer + "."))
        out["trace.hooks_s"] = by_name.get(HOOK_SPAN, 0.0)
        out["trace.pass_s"] = sum(s.end - s.start for s in spans if s.parent is None)
        out["trace.self_sum_s"] = sum(own)

        counts = dict(self.tracer.counts)
        results = {}
        for span in spans:
            if span.name in RESULT_SPANS:
                results.setdefault(span.name, []).append(span.result)
        counts["embeddings.rows_kept"] = sum(
            len(table) for table in results.get("embeddings.load_word2vec_text", []))
        counts["queries.resolve_query_calls"] = sum(
            1 for s in spans if s.name == "queries.resolve_query")
        matrices = results.get("ranking.build_score_matrix", [])
        counts["ranking.cells"] = sum(m.values.size for m in matrices)
        counts["ranking.cells_missing"] = sum(int(np.isnan(m.values).sum()) for m in matrices)
        counts["eec.sentences"] = sum(len(u) for u in results.get("eec.generate_utterances", []))
        records = [r for rs in results.get("translate.fetch_translations_http", []) for r in rs]
        counts["translate.failed_records"] = sum(r.failed for r in records)
        # Records come back in batch order and a batch shares its retry count.
        counts["translate.retries"] = sum(r.retries for r in records[::self.batch_size])
        counts["translate.http_requests"] = stub_stats.get("requests", 0)
        counts["translate.http_batches"] = stub_stats.get("batches", 0)
        out["translate.stub_busy_s"] = stub_stats.get("busy_s", 0.0)
        counts["tgbi.unresolved"] = sum(
            score.n_unresolved for report in results.get("tgbi.score_views", [])
            for score in report.scores)
        for name in COUNT_METRICS:
            out[name] = counts.get(name, 0)
        counts["queries.distinct_sets"] = len(self.sets)
        counts["embeddings.rows_used"] = len(self.rows_used)
        counts["metrics.distinct_trainings"] = len(self.trainings)

        def ratio(num, den):
            return num / den if den else 0.0

        out["embeddings.used_row_ratio"] = ratio(
            len(self.rows_used), counts.get("embeddings.rows_kept", 0))
        out["queries.distinct_set_ratio"] = ratio(
            len(self.sets), counts.get("embeddings.resolve_word_set_calls", 0))
        out["metrics.distinct_training_ratio"] = ratio(
            len(self.trainings), counts.get("metrics.trainings", 0))
        out["translate.first_try_ratio"] = ratio(
            counts["translate.http_batches"], counts["translate.http_requests"])
        return out, counts
