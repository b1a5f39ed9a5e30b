import json
import math
import warnings

import numpy as np
import pytest

from biaseval import (
    EmbeddingTable,
    Query,
    QueryTemplate,
    WordSet,
    default_queries_path,
    expand_subqueries,
    load_queries,
    resolve_query,
)
from biaseval.errors import EmptyResolutionError, VocabularyLossError
from biaseval.queries import fits_template


class TestWordSet:
    def test_dedupes_after_normalization(self):
        ws = WordSet("s", ("a", "b", "a", "क़", "क़"))
        assert ws.words == ("a", "b", "क़")

    def test_requires_name(self):
        with pytest.raises(ValueError):
            WordSet("", ("a",))

    def test_requires_words(self):
        with pytest.raises(ValueError):
            WordSet("s", ())


class TestQueryTemplate:
    @pytest.mark.parametrize("t,a,message", [
        (0, 0, "a template needs at least one target set"),
        (1, -1, "attribute set count cannot be negative"),
    ])
    def test_rejects_impossible_counts(self, t, a, message):
        with pytest.raises(ValueError, match=message):
            QueryTemplate(t, a)


class TestQuery:
    def test_requires_target(self):
        with pytest.raises(ValueError):
            Query(targets=(), attributes=(WordSet("a", ("x",)),))

    def test_zero_attribute_sets_allowed(self):
        query = Query(targets=(WordSet("t", ("x",)),))
        assert query.attributes == ()

    def test_duplicate_set_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate set names"):
            Query(
                targets=(WordSet("same", ("x",)),),
                attributes=(WordSet("same", ("y",)),),
            )

    def test_auto_label(self):
        query = Query(
            targets=(WordSet("t1", ("x",)), WordSet("t2", ("y",))),
            attributes=(WordSet("a1", ("z",)),),
        )
        assert query.label == "t1,t2|a1"


def _query(n_targets, n_attributes, label="q", prefix=""):
    return Query(
        targets=tuple(WordSet(f"{prefix}T{i}", (f"{prefix}t{i}",)) for i in range(1, n_targets + 1)),
        attributes=tuple(
            WordSet(f"{prefix}A{i}", (f"{prefix}a{i}",)) for i in range(1, n_attributes + 1)
        ),
        label=label,
    )


class TestExpandSubqueries:
    def test_combination_expansion(self):
        query = _query(2, 3)
        subqueries = expand_subqueries([query], QueryTemplate(2, 2))
        assert len(subqueries) == 3
        combos = [tuple(s.name for s in sq.attributes) for sq in subqueries]
        assert combos == [("A1", "A2"), ("A1", "A3"), ("A2", "A3")]
        for sq in subqueries:
            assert tuple(s.name for s in sq.targets) == ("T1", "T2")

    def test_exact_match_is_identity(self):
        query = _query(2, 2)
        subqueries = expand_subqueries([query], QueryTemplate(2, 2))
        assert subqueries == [query]
        assert subqueries[0].label == query.label

    @pytest.mark.parametrize("shape,template,labels", [
        ((1, 0), (1, 0), ["q"]),
        ((2, 2), (2, 1), ["q[T1,T2|A1]", "q[T1,T2|A2]"]),
        ((3, 1), (2, 1), ["q[T1,T2|A1]", "q[T1,T3|A1]", "q[T2,T3|A1]"]),
    ], ids=["target_only_exact", "extra_attribute", "extra_target"])
    def test_label_kept_only_for_an_exact_shape(self, shape, template, labels):
        subqueries = expand_subqueries([_query(*shape)], QueryTemplate(*template))
        assert [sq.label for sq in subqueries] == labels

    def test_identical_queries_dedup(self):
        query = _query(2, 2)
        other = _query(2, 2, label="other")
        subqueries = expand_subqueries([query, other], QueryTemplate(2, 2))
        assert len(subqueries) == 1

    def test_same_set_names_other_words_both_kept(self):
        def query(label, words):
            return Query(
                targets=(WordSet("f", (words[0],)), WordSet("m", (words[1],))),
                attributes=(WordSet("x", (words[2],)),),
                label=label,
            )

        first = query("q1", ("she", "he", "career"))
        second = query("q2", ("woman", "man", "family"))
        subqueries = expand_subqueries([first, second], QueryTemplate(2, 1))
        assert [sq.label for sq in subqueries] == ["q1", "q2"]

    @pytest.mark.parametrize("label,shown", [("q", "q"), ("", "f,m|x")],
                             ids=["equal_labels", "unlabelled"])
    def test_two_subqueries_with_one_label_are_refused(self, label, shown):
        """Each would be scored into the one report column the label names."""
        def query(words):
            return Query(targets=(WordSet("f", (words[0],)), WordSet("m", (words[1],))),
                         attributes=(WordSet("x", (words[2],)),), label=label)

        first = query(("she", "he", "career"))
        with pytest.raises(ValueError) as excinfo:
            expand_subqueries([first, query(("woman", "man", "family"))], QueryTemplate(2, 1))
        assert str(excinfo.value) == f"two different subqueries are labelled '{shown}'"
        # An identical query is still one subquery.
        assert expand_subqueries([first, query(("she", "he", "career"))],
                                 QueryTemplate(2, 1)) == [first]

    def test_short_query_skipped_with_warning(self):
        short = _query(1, 2, label="short")
        good = _query(2, 2, label="good")
        with pytest.warns(UserWarning, match="short"):
            subqueries = expand_subqueries([short, good], QueryTemplate(2, 2))
        assert [sq.label for sq in subqueries] == ["good"]

    def test_count_matches_binomials(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n_targets = int(rng.integers(2, 6))
            n_attributes = int(rng.integers(2, 6))
            template = QueryTemplate(2, int(rng.integers(1, 3)))
            query = _query(n_targets, n_attributes)
            expected = math.comb(n_targets, template.t) * math.comb(n_attributes, template.a)
            assert len(expand_subqueries([query], template)) == expected

    def test_outputs_satisfy_template(self):
        template = QueryTemplate(2, 1)
        for sq in expand_subqueries([_query(3, 3)], template):
            assert (len(sq.targets), len(sq.attributes)) == (template.t, template.a)

    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    @pytest.mark.parametrize("n_attributes", [0, 1, 2, 3])
    def test_yields_subqueries_iff_the_query_fits(self, n_targets, n_attributes):
        template = QueryTemplate(2, 2)
        query = _query(n_targets, n_attributes)
        fits = n_targets >= 2 and n_attributes >= 2
        assert fits_template(query, template) is fits
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            subqueries = expand_subqueries([query], template)
        assert bool(subqueries) is fits
        assert len(caught) == (not fits)

    def test_deterministic(self):
        queries = [_query(3, 3, label="a"), _query(2, 3, label="b", prefix="b")]
        template = QueryTemplate(2, 2)
        first = expand_subqueries(queries, template)
        second = expand_subqueries(queries, template)
        assert first == second


class TestResolveQuery:
    def test_shapes(self, toy_table, weat_query):
        rq = resolve_query(weat_query, toy_table)
        assert rq.query_label == "toy-weat"
        assert [s.name for s in rq.targets] == ["t1", "t2"]
        assert [s.name for s in rq.attributes] == ["a1", "a2"]
        for resolved in rq.targets + rq.attributes:
            assert resolved.matrix.shape == (len(resolved.tokens), 2) == (1, 2)
            assert resolved.dropped == ()

    def test_the_sets_are_the_records_the_table_builds(self, toy_table, weat_query,
                                                        monkeypatch):
        built = []
        resolve_word_set = EmbeddingTable.resolve_word_set

        def recorded(*args, **kwargs):
            built.append(resolve_word_set(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(EmbeddingTable, "resolve_word_set", recorded)
        rq = resolve_query(weat_query, toy_table)
        assert len(built) == 4
        assert all(got is made for got, made in zip(rq.targets + rq.attributes, built))

    def test_loss_error_names_set(self, toy_table):
        query = Query(
            targets=(WordSet("t1", ("east",)), WordSet("t2", ("north",))),
            attributes=(WordSet("lossy", ("east", "gone", "lost")),),
        )
        with pytest.raises(VocabularyLossError) as excinfo:
            resolve_query(query, toy_table)
        assert str(excinfo.value) == ("word set 'lossy': dropped 2/3 words in 'toy' (loss 0.67 "
                                      "> threshold 0.20): ['gone', 'lost']")

    def test_empty_set_error(self, toy_table):
        query = Query(
            targets=(WordSet("t1", ("gone", "lost")),),
            attributes=(WordSet("a1", ("east",)),),
        )
        with pytest.raises(EmptyResolutionError):
            resolve_query(query, toy_table)


class TestLoadQueries:
    def test_list_round_trip(self, tmp_path):
        payload = [
            {
                "label": "demo",
                "note": "ignored extra key",
                "targets": [
                    {"name": "t1", "words": ["x"]},
                    {"name": "t2", "words": ["y"]},
                ],
                "attributes": [{"name": "a1", "words": ["z", "w"]}],
            }
        ]
        path = tmp_path / "queries.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        queries = load_queries(path)
        assert len(queries) == 1
        assert queries[0].label == "demo"
        assert queries[0].attributes[0].words == ("z", "w")

    def test_json_number_rejected(self, tmp_path):
        path = tmp_path / "number.json"
        path.write_text("3", encoding="utf-8")
        with pytest.raises(ValueError, match="expected a query object or a list of them"):
            load_queries(path)

    def test_single_object(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps({"label": "one", "targets": [{"name": "t", "words": ["x"]}]}),
            encoding="utf-8",
        )
        assert len(load_queries(path)) == 1

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps({"label": "one", "targets": [{"name": "t", "words": ["x"]}]}),
            encoding="utf-8-sig",
        )
        assert load_queries(path)[0].targets[0].words == ("x",)

    @pytest.mark.parametrize("entry,cause", [
        ({"targets": [{"name": "t"}]}, "KeyError('words')"),
        ({"targets": [{"name": "t", "words": "she"}]},
         "TypeError(\"word set 't' words must be a list, got 'she'\")"),
        ({"targets": [{"name": 7, "words": ["she"]}]},
         "TypeError('word set name must be a string, got 7')"),
        ({"label": 7, "targets": [{"name": "t", "words": ["she"]}]},
         "TypeError('query label must be a string, got 7')"),
        ({"targets": [{"name": "t", "words": []}]},
         "ValueError(\"word set 't' has no words\")"),
        ({"targets": [{"name": "", "words": ["she"]}]},
         "ValueError('word set name must be non-empty')"),
        ({"targets": [{"name": "t", "words": ["she", ""]}]},
         "ValueError(\"word set 't' has an empty word\")"),
        ({"label": "q", "attributes": [{"name": "a", "words": ["good"]}]},
         "ValueError('a query needs at least one target set')"),
        ({"label": "q",
          "targets": [{"name": "t", "words": ["she"]}, {"name": "t", "words": ["he"]}]},
         "ValueError(\"duplicate set names in query 'q': ['t', 't']\")"),
    ], ids=["no-words", "words-string", "name-number", "label-number", "empty-words",
            "empty-name", "empty-word", "no-targets", "repeated-name"])
    def test_malformed(self, tmp_path, entry, cause):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_queries(path)
        assert str(exc.value) == f"{path}: query #0 is malformed: {cause}"

    def test_bundled_defaults_load(self):
        queries = load_queries(default_queries_path())
        assert len(queries) == 3
        assert {q.label for q in queries} == {"career-family", "math-arts", "science-arts"}
        for query in queries:
            assert (len(query.targets), len(query.attributes)) == (2, 2)
