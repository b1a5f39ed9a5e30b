import json
import random
import re
import tracemalloc

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
    check_pronouns,
    corpus_tsv_text,
    empty_view,
    read_corpus_tsv,
    read_views_json,
    require_views,
    views_json_text,
)
from biaseval.names import write_utf8_files

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

    def test_entry_holding_a_tab_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "occ.txt"
        path.write_text("डॉक्टर\n# note\nशिक्षक\tx\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: lexicon entry holds a tab or line break")):
            load_lexicon(path, "occupation")

    def test_unknown_category(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("word\n", encoding="utf-8")
        with pytest.raises(ValueError, match="category"):
            load_lexicon(path, "verbs")

    def test_no_entries_rejected(self):
        with pytest.raises(ValueError, match="lexicon 'occupation' is empty"):
            Lexicon("occupation", ())


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
        ({"occupation": "{pronoun}\t{lexeme}"}, "template 'occupation' holds a tab or line break"),
        ({"occupation": "{pronoun} {lexeme}\u2028"},
         "template 'occupation' holds a tab or line break"),
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
        views = build_views(utterances)
        assert list(views) == list(VIEW_NAMES)
        assert len(views["formal"]) == len(views["polite"]) + len(views["impolite"])
        assert set(views["formal"]) == set(views["polite"]) | set(views["impolite"])
        register_total = sum(len(views[n]) for n in ("informal", "impolite", "polite"))
        lexicon_total = sum(len(views[n]) for n in ("positive", "negative", "occupation"))
        assert register_total == lexicon_total == len(utterances)

    def test_partitions_cover_exactly_once(self):
        utterances = generate_utterances([OCC, POS, NEG])
        views = build_views(utterances)
        all_ids = {u.id for u in utterances}
        register_ids = [i for n in ("informal", "impolite", "polite") for i in views[n]]
        lexicon_ids = [i for n in ("positive", "negative", "occupation") for i in views[n]]
        assert sorted(register_ids) == sorted(all_ids)
        assert sorted(lexicon_ids) == sorted(all_ids)

    def test_empty_input(self):
        assert build_views([]) == {name: () for name in VIEW_NAMES}

    def test_each_view_holds_its_table_values_in_corpus_order(self):
        utterances = generate_utterances([OCC, POS, NEG])[::-1]
        utterances = utterances[1::2] + utterances[::2]  # ids in no sorted order
        views = build_views(utterances)
        assert VIEW_NAMES == tuple(name for name, _field, _values in VIEWS)
        assert list(views) == list(VIEW_NAMES)
        for ids, (_name, field, values) in zip(views.values(), VIEWS):
            assert ids == tuple(u.id for u in utterances if getattr(u, field) in values)


class TestRequireViews:
    """A corpus with an empty view has no TGBI; the error names the view and
    the two origins of the first text it would have selected."""

    def test_every_view_filled(self):
        utterances = generate_utterances([OCC, POS, NEG])
        assert empty_view(utterances) is None
        require_views(utterances, [OCC, POS, NEG])

    def test_a_register_repeating_another(self):
        pronouns = (PronounSpec("वह", "informal", "है"),
                    PronounSpec("वह", "formal_impolite", "है"),
                    PronounSpec("वे", "formal_polite", "हैं"))
        utterances = generate_utterances([OCC, POS, NEG], pronouns)
        assert empty_view(utterances) == "impolite"
        with pytest.raises(ValueError) as excinfo:
            require_views(utterances, [OCC, POS, NEG], pronouns)
        assert str(excinfo.value) == (
            "view 'impolite' would be empty: each of its texts repeats an earlier one, as the "
            "formal_impolite pronoun spec's occupation text of 'डॉक्टर' ('वह डॉक्टर है') repeats "
            "the informal spec's occupation text of 'डॉक्टर'")

    def test_a_lexicon_repeating_another(self):
        lexicons = [OCC, POS, Lexicon("negative", POS.entries)]
        utterances = generate_utterances(lexicons)
        assert empty_view(utterances) == "negative"
        with pytest.raises(ValueError, match="^view 'negative' would be empty: .* the "
                                             "formal_impolite spec's positive text of 'अच्छा'$"):
            require_views(utterances, lexicons)

    def test_a_lexicon_left_out(self):
        utterances = generate_utterances([OCC, POS])
        with pytest.raises(ValueError, match="^view 'negative' would be empty: no lexicon or "
                                             "pronoun spec gives it$"):
            require_views(utterances, [OCC, POS])


class TestUtterance:
    @pytest.mark.parametrize("register,category,message", [
        ("royal", "positive", "utterance 7 has unknown register 'royal'"),
        ("informal", "neutral", "utterance 7 has unknown category 'neutral'"),
    ])
    def test_unknown_value_rejected(self, register, category, message):
        with pytest.raises(ValueError) as exc:
            Utterance(7, "b", register, category, "b")
        assert str(exc.value) == message


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        utterances = generate_utterances([OCC, POS, NEG])
        path = tmp_path / "corpus.tsv"
        write_utf8_files({path: corpus_tsv_text(utterances, path)})
        assert read_corpus_tsv(path) == utterances

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        for path in (first, second):
            write_utf8_files({path: corpus_tsv_text(generate_utterances([OCC, POS, NEG]), path)})
        assert first.read_bytes() == second.read_bytes()

    def test_byte_order_mark_accepted(self, tmp_path):
        utterances = generate_utterances([OCC, POS, NEG])
        path = tmp_path / "corpus.tsv"
        write_utf8_files({path: corpus_tsv_text(utterances, path)})
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_corpus_tsv(path) == utterances

    @pytest.mark.parametrize("text", ["a\tb", "a\nb", "a\u2028b"])
    def test_field_break_rejected(self, tmp_path, text):
        path = tmp_path / "corpus.tsv"
        with pytest.raises(ValueError) as exc:
            write_utf8_files({path: corpus_tsv_text(
                [Utterance(3, text, "informal", "positive", "x")], path)})
        assert str(exc.value) == f"{path}: id 3: field contains a tab or line break"
        assert not path.exists()

    def test_lone_surrogate_rejected_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        utterances = [Utterance(1, "a", "informal", "positive", "a"),
                      Utterance(3, "b \ud800", "informal", "positive", "b")]
        with pytest.raises(ValueError) as exc:
            write_utf8_files({path: corpus_tsv_text(utterances, path)})
        assert str(exc.value) == f"{path}:3: lone surrogate '\\ud800' has no UTF-8 form"
        assert not path.exists()

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\n1\tx\tinformal\tpositive\tx\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_corpus_tsv(path)

    def test_empty_text_names_the_file_and_line(self, tmp_path):
        """Rows are built as they are read, so the empty text is reported
        before the next row's duplicate id."""
        path = tmp_path / "corpus.tsv"
        path.write_text(
            "id\ttext\tregister\tlexicon_category\tlexeme\n"
            "1\t\tinformal\tpositive\ta\n"
            "1\tb\tinformal\tpositive\tb\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as exc:
            read_corpus_tsv(path)
        assert str(exc.value) == f"{path}:2: utterance 1 has empty text"

    @pytest.mark.parametrize("register,category,message", [
        ("casual", "positive", "utterance 3 has unknown register 'casual'"),
        ("informal", "glad", "utterance 3 has unknown category 'glad'"),
    ])
    def test_unknown_register_or_category_names_the_file_and_line(
        self, tmp_path, register, category, message
    ):
        path = tmp_path / "corpus.tsv"
        path.write_text(
            "id\ttext\tregister\tlexicon_category\tlexeme\n"
            "1\ta\tinformal\tpositive\ta\n"
            "\n"
            f"3\tb\t{register}\t{category}\tb\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as exc:
            read_corpus_tsv(path)
        assert str(exc.value) == f"{path}:4: {message}"

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

    def test_paper_scale_rows_are_slotted_and_share_field_values(self, tmp_path):
        """The 1100/820/738-lexeme corpus holds under 260 bytes per row once
        read: slotted rows whose repeated fields share one string (a dict
        per row and a string per field held 467)."""
        rng = random.Random(0)
        consonants = [chr(c) for c in range(0x0915, 0x0939)]
        signs = ["", "\u093e", "\u093f", "\u0940", "\u0941", "\u0947", "\u094b"]
        words = set()
        while len(words) < 1100 + 820 + 738:
            words.add("".join(rng.choice(consonants) + rng.choice(signs)
                              for _ in range(rng.randint(2, 4))))
        words = sorted(words)
        lexicons = [Lexicon("occupation", tuple(words[:1100])),
                    Lexicon("positive", tuple(words[1100:1920])),
                    Lexicon("negative", tuple(words[1920:]))]
        path = tmp_path / "corpus.tsv"
        write_utf8_files({path: corpus_tsv_text(generate_utterances(lexicons), path)})
        tracemalloc.start()
        try:
            rows = read_corpus_tsv(path)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 7974
        assert held / len(rows) < 260
        assert not hasattr(rows[0], "__dict__")
        assert rows[0].register is rows[3].register
        assert rows[0].lexeme is rows[2].lexeme
        assert rows[0].lexicon_category is rows[3299].lexicon_category

    def test_views_round_trip(self, tmp_path):
        utterances = generate_utterances([OCC, POS, NEG])
        views = build_views(utterances)
        path = tmp_path / "views.json"
        write_utf8_files({path: views_json_text(views)})
        assert read_views_json(path) == views
        assert list(read_views_json(path)) == list(VIEW_NAMES)

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

    @pytest.mark.parametrize("key", ["Positive", "occupations", ""])
    def test_views_unknown_view_rejected(self, tmp_path, capsys, key):
        """An extra or misspelt view would otherwise pass unread."""
        from biaseval import cli

        corpus = tmp_path / "corpus.tsv"
        utterances = generate_utterances([OCC, POS, NEG])
        write_utf8_files({corpus: corpus_tsv_text(utterances, corpus)})
        data = json.loads(views_json_text(build_views(utterances)))
        data[key] = data["positive"]
        path = tmp_path / "views.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        translations = tmp_path / "t.tsv"
        translations.write_text("id\ttranslation\n" + "".join(
            f"{u.id}\tthey are\n" for u in utterances), encoding="utf-8")
        message = f"{path}: unknown view '{key}' (expected {', '.join(VIEW_NAMES)})"
        with pytest.raises(ValueError) as exc:
            read_views_json(path)
        assert str(exc.value) == message
        assert cli.main(["tgbi", "--corpus", str(corpus), "--views", str(path),
                         "--translations", str(translations), "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "r").exists()

    def test_views_not_an_object(self, tmp_path):
        path = tmp_path / "views.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError, match="expected an object mapping view name to id list"):
            read_views_json(path)

    def test_views_missing_view(self, tmp_path):
        path = tmp_path / "views.json"
        path.write_text('{"informal": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="missing views"):
            read_views_json(path)


class TestPronounSpec:
    def test_validates_register(self):
        with pytest.raises(ValueError):
            PronounSpec("वे", "royal", "हैं")

    @pytest.mark.parametrize("surface,copula,message", [
        ("", "है", "pronoun surface must be non-empty"),
        ("वह", "", "copula must be non-empty"),
        ("वह\tx", "है", "pronoun surface holds a tab or line break"),
        ("वह", "है\n", "copula holds a tab or line break"),
    ])
    def test_empty_or_field_breaking_surface_or_copula_rejected(self, surface, copula, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PronounSpec(surface, "informal", copula)

    def test_every_register_is_required(self):
        with pytest.raises(ValueError, match="^pronoun specs must give every register; "
                                             "missing formal_polite, informal$"):
            check_pronouns(DEFAULT_PRONOUNS[:1])

    def test_default_set_covers_each_register_once(self):
        assert sorted(p.register for p in DEFAULT_PRONOUNS) == [
            "formal_impolite",
            "formal_polite",
            "informal",
        ]
