import json
import re

import pytest

from biaseval import (
    Lexicon,
    PronounSpec,
    build_views,
    generate_utterances,
    load_lexicon,
)
from biaseval.eec import (
    DEFAULT_PRONOUNS,
    VIEW_NAMES,
    VIEWS,
    Utterance,
    read_corpus_tsv,
    read_views_json,
    write_corpus_tsv,
    write_views_json,
)

OCC = Lexicon("occupation", ("डॉक्टर", "शिक्षक"))
POS = Lexicon("positive", ("अच्छा",))
NEG = Lexicon("negative", ("बुरा",))


class TestLoadLexicon:
    def test_dedupes_and_filters(self, tmp_path):
        path = tmp_path / "occ.txt"
        path.write_text("# comment\nडॉक्टर\n\nशिक्षक\nडॉक्टर\n", encoding="utf-8")
        lexicon = load_lexicon(path, "occupation")
        assert lexicon.entries == ("डॉक्टर", "शिक्षक")

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "occ.txt"
        path.write_text("डॉक्टर\nशिक्षक\n", encoding="utf-8-sig")
        assert load_lexicon(path, "occupation").entries == ("डॉक्टर", "शिक्षक")

    def test_only_comments_is_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# a\n# b\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_lexicon(path, "occupation")

    def test_unknown_category(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("word\n", encoding="utf-8")
        with pytest.raises(ValueError, match="category"):
            load_lexicon(path, "verbs")


class TestGenerateUtterances:
    def test_cross_product_size(self):
        utterances = generate_utterances([OCC, POS, NEG])
        assert len(utterances) == 4 * 3

    def test_honorific_copula_agreement(self):
        utterances = generate_utterances([OCC])
        texts = {u.register: u.text for u in utterances if u.lexeme == "डॉक्टर"}
        assert texts["formal_polite"] == "वे डॉक्टर हैं"
        assert texts["formal_impolite"] == "वह डॉक्टर है"
        assert texts["informal"] == "वो डॉक्टर है"

    def test_ids_sequential_in_generation_order(self):
        utterances = generate_utterances([OCC, POS, NEG])
        assert [u.id for u in utterances] == list(range(1, len(utterances) + 1))
        # lexicon order outer, register order inner
        assert [u.register for u in utterances[:3]] == [
            "formal_impolite",
            "formal_polite",
            "informal",
        ]
        assert utterances[0].lexeme == "डॉक्टर"
        assert utterances[3].lexeme == "शिक्षक"

    def test_exact_duplicate_texts_removed(self):
        # the same lexeme in two categories yields identical sentences
        dup_positive = Lexicon("positive", ("डॉक्टर",))
        utterances = generate_utterances([OCC, dup_positive])
        assert len(utterances) == 2 * 3
        assert all(u.lexicon_category == "occupation" for u in utterances if u.lexeme == "डॉक्टर")

    def test_register_lexeme_pairs_unique(self):
        utterances = generate_utterances([OCC, POS, NEG])
        pairs = [(u.register, u.lexeme) for u in utterances]
        assert len(pairs) == len(set(pairs))

    def test_custom_template(self):
        utterances = generate_utterances(
            [POS], templates={"positive": "{pronoun} बहुत {lexeme} {copula}"}
        )
        assert utterances[1].text == "वे बहुत अच्छा हैं"

    @pytest.mark.parametrize("templates,message", [
        ({"occupaton": "{pronoun} {lexeme}"}, "unknown template category 'occupaton'"),
        ({"occupation": "{lexeme} {copula}"}, "must use both {pronoun} and {lexeme}"),
        ({"occupation": "{pronoun} {copula}"}, "must use both {pronoun} and {lexeme}"),
        ({"occupation": "{pronoun} {lexeme} {verb}"}, "must be a format string using only"),
        ({"occupation": "{pronoun.upper} {lexeme}"}, "must be a format string using only"),
        ({"occupation": "{pronoun} {lexeme"}, "must be a format string using only"),
        ({"occupation": 5}, "must be a format string using only"),
    ])
    def test_bad_template_rejected(self, templates, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_utterances([OCC], templates=templates)

    def test_duplicate_registers_rejected(self):
        specs = (DEFAULT_PRONOUNS[0], DEFAULT_PRONOUNS[0])
        with pytest.raises(ValueError, match="duplicate registers"):
            generate_utterances([OCC], pronouns=specs)

    def test_deterministic(self):
        assert generate_utterances([OCC, POS, NEG]) == generate_utterances([OCC, POS, NEG])


class TestBuildViews:
    def test_seven_views_structure(self):
        utterances = generate_utterances([OCC, POS, NEG])
        views = {v.name: v for v in build_views(utterances)}
        assert set(views) == set(VIEW_NAMES)
        assert len(views["formal"]) == len(views["polite"]) + len(views["impolite"])
        assert set(views["formal"].utterance_ids) == set(
            views["polite"].utterance_ids
        ) | set(views["impolite"].utterance_ids)
        register_total = sum(len(views[n]) for n in ("informal", "impolite", "polite"))
        lexicon_total = sum(len(views[n]) for n in ("positive", "negative", "occupation"))
        assert register_total == lexicon_total == len(utterances)

    def test_partitions_cover_exactly_once(self):
        utterances = generate_utterances([OCC, POS, NEG])
        views = {v.name: v for v in build_views(utterances)}
        all_ids = {u.id for u in utterances}
        register_ids = [
            i for n in ("informal", "impolite", "polite") for i in views[n].utterance_ids
        ]
        lexicon_ids = [
            i
            for n in ("positive", "negative", "occupation")
            for i in views[n].utterance_ids
        ]
        assert sorted(register_ids) == sorted(all_ids)
        assert sorted(lexicon_ids) == sorted(all_ids)

    def test_empty_input(self):
        views = build_views([])
        assert [v.name for v in views] == list(VIEW_NAMES)
        assert all(len(v) == 0 for v in views)

    def test_each_view_holds_its_table_values_in_corpus_order(self):
        utterances = generate_utterances([OCC, POS, NEG])[::-1]
        utterances = utterances[1::2] + utterances[::2]  # ids in no sorted order
        views = build_views(utterances)
        assert VIEW_NAMES == tuple(name for name, _field, _values in VIEWS)
        assert [v.name for v in views] == list(VIEW_NAMES)
        for view, (_name, field, values) in zip(views, VIEWS):
            assert view.utterance_ids == tuple(
                u.id for u in utterances if getattr(u, field) in values)

    @pytest.mark.parametrize("register,category,message", [
        ("royal", "positive", "utterance 7 has unknown register 'royal'"),
        ("informal", "neutral", "utterance 7 has unknown category 'neutral'"),
    ])
    def test_unknown_value_rejected(self, register, category, message):
        utterances = [Utterance(1, "a", "informal", "positive", "a"),
                      Utterance(7, "b", register, category, "b")]
        with pytest.raises(ValueError) as exc:
            build_views(utterances)
        assert str(exc.value) == message


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        utterances = generate_utterances([OCC, POS, NEG])
        path = tmp_path / "corpus.tsv"
        write_corpus_tsv(utterances, path)
        assert read_corpus_tsv(path) == utterances

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        write_corpus_tsv(generate_utterances([OCC, POS, NEG]), first)
        write_corpus_tsv(generate_utterances([OCC, POS, NEG]), second)
        assert first.read_bytes() == second.read_bytes()

    def test_byte_order_mark_accepted(self, tmp_path):
        utterances = generate_utterances([OCC, POS, NEG])
        path = tmp_path / "corpus.tsv"
        write_corpus_tsv(utterances, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_corpus_tsv(path) == utterances

    @pytest.mark.parametrize("text", ["a\tb", "a\nb", "a\u2028b"])
    def test_field_break_rejected(self, tmp_path, text):
        path = tmp_path / "corpus.tsv"
        with pytest.raises(ValueError) as exc:
            write_corpus_tsv([Utterance(3, text, "informal", "positive", "x")], path)
        assert str(exc.value) == f"{path}: id 3: field contains a tab or line break"
        assert not path.exists()

    def test_lone_surrogate_rejected_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        utterances = [Utterance(1, "a", "informal", "positive", "a"),
                      Utterance(3, "b \ud800", "informal", "positive", "b")]
        with pytest.raises(ValueError) as exc:
            write_corpus_tsv(utterances, path)
        assert str(exc.value) == f"{path}:3: lone surrogate '\\ud800' has no UTF-8 form"
        assert not path.exists()

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\n1\tx\tinformal\tpositive\tx\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_corpus_tsv(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text(
            "id\ttext\tregister\tlexicon_category\tlexeme\n"
            "1\ta\tinformal\tpositive\ta\n"
            "1\tb\tinformal\tpositive\tb\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate"):
            read_corpus_tsv(path)

    def test_views_round_trip(self, tmp_path):
        utterances = generate_utterances([OCC, POS, NEG])
        views = build_views(utterances)
        path = tmp_path / "views.json"
        write_views_json(views, path)
        assert read_views_json(path) == views

    @pytest.mark.parametrize("ids", [5, "1", None, ["x"], [[1]], [2.7, True, "3"], [1.0],
                                     [True], ["3"]])
    def test_views_entry_not_an_id_list(self, tmp_path, ids):
        data = {name: [1] for name in VIEW_NAMES}
        data["formal"] = ids
        path = tmp_path / "views.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_views_json(path)
        assert str(exc.value) == f"{path}: view 'formal' must be a list of integer ids"

    def test_views_repeated_id_rejected(self, tmp_path):
        data = {name: [1] for name in VIEW_NAMES}
        data["informal"] = [1, 3, 2, 3, 2]
        path = tmp_path / "views.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_views_json(path)
        assert str(exc.value) == f"{path}: view 'informal' lists id 3 more than once"

    def test_views_missing_view(self, tmp_path):
        path = tmp_path / "views.json"
        path.write_text('{"informal": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="missing views"):
            read_views_json(path)


class TestPronounSpec:
    def test_validates_register(self):
        with pytest.raises(ValueError):
            PronounSpec("वे", "royal", "हैं")

    def test_default_set_covers_each_register_once(self):
        assert sorted(p.register for p in DEFAULT_PRONOUNS) == [
            "formal_impolite",
            "formal_polite",
            "informal",
        ]
