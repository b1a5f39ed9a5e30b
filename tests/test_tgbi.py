import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaseval import (
    GenderLexicon,
    classify_sentence,
    load_gender_lexicon,
    p_index,
    render_tgbi_table,
    score_views,
)
from biaseval.eec import Utterance
from biaseval.errors import DegenerateDistributionError
from biaseval.names import nfc
from biaseval.tgbi import (
    AMBIGUOUS_POLICIES,
    DEFAULT_GENDER_LEXICON,
    GENDER_BUCKETS,
    VARIANT_LINEAR,
    VARIANT_SQRT,
    report_to_dict,
)
from biaseval.translate import TranslationRecord
from oracles import classify_oracle, token_char_oracle


class TestClassifySentence:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("She is a doctor.", "she"),
            ("He is a doctor.", "he"),
            ("They are a doctor", "they"),
            ("He said she left", "unresolved"),
            ("The sky is blue", "unresolved"),
            ("That person is a doctor", "they"),
            # a unique gendered hit wins over they-words
            ("She is the person who helps people", "she"),
            ("His friends say they are kind", "he"),
        ],
    )
    def test_bucket_rules(self, text, expected):
        assert classify_sentence(text) == expected

    def test_case_insensitive(self):
        samples = ["SHE IS A DOCTOR", "hE Is a doCtor", "THEY are people"]
        for text in samples:
            assert classify_sentence(text) == classify_sentence(text.lower())

    def test_first_token_policy(self):
        assert classify_sentence("He said she left", ambiguous_policy="first_token") == "he"
        assert classify_sentence("She said he left", ambiguous_policy="first_token") == "she"

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            classify_sentence("She left", ambiguous_policy="random")

    def test_punctuation_tokenization(self):
        assert classify_sentence("Really?She,is...a doctor!") == "she"

    def test_a_devanagari_word_is_one_token(self):
        # The nukta and vowel signs of लड़की and लड़का are combining marks.
        lexicon = GenderLexicon(frozenset({"लड़की"}), frozenset({"लड़का"}), frozenset({"वे"}))
        assert classify_sentence("वह एक लड़की है", lexicon) == "she"
        assert classify_sentence("वह एक लड़का है", lexicon) == "he"
        assert classify_sentence("वे डॉक्टर हैं", lexicon) == "they"

    def test_composed_and_decomposed_forms_match(self):
        lexicon = GenderLexicon(frozenset({"fianc\u00e9e"}), frozenset({"fiance\u0301"}),
                                frozenset({"they"}))
        assert classify_sentence("My FIANCE\u0301E left", lexicon) == "she"
        assert classify_sentence("my fianc\u00e9 left", lexicon) == "he"


@pytest.mark.parametrize("block", [range(0x300, 0x370), range(0x900, 0x980)],
                         ids=["combining-diacritical-marks", "devanagari"])
def test_token_class_holds_every_combining_mark_of_its_blocks(block):
    """Over the Combining Diacritical Marks and Devanagari blocks, a character
    is a token by itself exactly when its Unicode category makes it one."""
    from biaseval.tgbi import _TOKEN_RE

    for code in block:
        char = chr(code)
        assert bool(_TOKEN_RE.fullmatch(char)) == token_char_oracle(char), hex(code)


ALPHABET = "abcéक\u093f\u093ce\u0301"


@st.composite
def lexicons_and_sentences(draw):
    """The default lexicon or a small drawn one, and a sentence of its words,
    some upper-cased, mixed with other words and separators (``_`` joins two
    words into one token)."""
    if draw(st.booleans()):
        lexicon = DEFAULT_GENDER_LEXICON
    else:
        # A vowel sign, a nukta and a decomposed accent: combining marks.
        words = draw(st.lists(st.text(ALPHABET, min_size=1, max_size=3),
                              min_size=3, max_size=9, unique_by=nfc))
        cut = sorted(draw(st.lists(st.integers(1, len(words) - 1), min_size=2, max_size=2,
                                   unique=True)))
        lexicon = GenderLexicon(frozenset(words[:cut[0]]), frozenset(words[cut[0]:cut[1]]),
                                frozenset(words[cut[1]:]))
    known = st.sampled_from(sorted(w for words in lexicon.sections().values() for w in words))
    token = st.one_of(known, known.map(str.upper), st.text(ALPHABET + "x", min_size=1, max_size=4))
    tokens = draw(st.lists(token, max_size=8))
    gaps = draw(st.lists(st.sampled_from([" ", ", ", "-", "'", "?!", "_", "\n"]),
                         min_size=len(tokens), max_size=len(tokens)))
    return lexicon, "".join(t + gap for t, gap in zip(tokens, gaps))


@settings(max_examples=400)
@given(lexicons_and_sentences(), st.sampled_from(AMBIGUOUS_POLICIES))
def test_classify_sentence_matches_the_reference_classifier(case, policy):
    lexicon, text = case
    expected = classify_oracle(text, *lexicon.sections().values(),
                               first_token=policy == "first_token")
    assert classify_sentence(text, lexicon, policy) == expected


class TestGenderLexicon:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="disjoint"):
            GenderLexicon(
                she_words=frozenset({"she", "both"}),
                he_words=frozenset({"he", "both"}),
                they_words=frozenset({"they"}),
            )

    def test_lowercased_on_construction(self):
        lexicon = GenderLexicon(
            she_words=frozenset({"SHE"}),
            he_words=frozenset({"He"}),
            they_words=frozenset({"They"}),
        )
        assert "she" in lexicon.she_words

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text(
            "# custom lexicon\n[she]\nshe\nher\n[he]\nhe\nhim\n[they]\nthey\nthem\n",
            encoding="utf-8",
        )
        lexicon = load_gender_lexicon(path)
        assert lexicon.she_words == frozenset({"she", "her"})
        assert lexicon.they_words == frozenset({"they", "them"})

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("[it]\nit\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown section"):
            load_gender_lexicon(path)

    def test_token_before_section(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("she\n[she]\n", encoding="utf-8")
        with pytest.raises(ValueError, match="before any"):
            load_gender_lexicon(path)

    @pytest.mark.parametrize("text,message", [
        ("[she]\nshe\nboth\n[he]\nhe\nBoth\n[they]\nthey\n",
         "gender lexicon sets must be pairwise disjoint: 'both' is in [she] and [he]"),
        ("[she]\nshe\n[he]\nhe\n[they]\nthey\nHer\n[she]\nher\n",
         "gender lexicon sets must be pairwise disjoint: 'her' is in [she] and [they]"),
        ("[she]\nshe\n[he]\nhe\n[they]\n# none yet\n",
         "gender lexicon section [they] is empty"),
        ("[she]\nshe\n[they]\nthey\n", "gender lexicon section [he] is empty"),
    ], ids=["she-he", "she-they", "empty-they", "missing-he"])
    def test_file_error_names_the_file_and_section(self, tmp_path, text, message):
        path = tmp_path / "lex.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_gender_lexicon(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("entry", ["young woman", "she's", "her-self", "she."])
    def test_entry_must_be_one_token(self, tmp_path, entry):
        """An entry that is not one token would never match a sentence."""
        path = tmp_path / "lex.txt"
        path.write_text(f"[she]\nshe\n{entry}\n[he]\nhe\n[they]\nthey\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_gender_lexicon(path)
        assert str(exc.value) == f"{path}:3: gender lexicon entry {entry!r} is not one token"
        with pytest.raises(ValueError, match="is not one token"):
            GenderLexicon(frozenset({"she", entry}), frozenset({"he"}), frozenset({"they"}))

    def test_entries_are_nfc(self):
        lexicon = GenderLexicon(frozenset({"E\u0301le"}), frozenset({"he"}), frozenset({"they"}))
        assert lexicon.she_words == frozenset({"\u00e9le"})

    def test_sections_in_bucket_order(self):
        sections = DEFAULT_GENDER_LEXICON.sections()
        assert tuple(sections) == GENDER_BUCKETS == ("she", "he", "they")
        assert sections["they"] is DEFAULT_GENDER_LEXICON.they_words

    def test_default_lexicon_disjoint(self):
        assert not (DEFAULT_GENDER_LEXICON.she_words & DEFAULT_GENDER_LEXICON.he_words)
        assert not (DEFAULT_GENDER_LEXICON.she_words & DEFAULT_GENDER_LEXICON.they_words)
        assert not (DEFAULT_GENDER_LEXICON.he_words & DEFAULT_GENDER_LEXICON.they_words)


def pair(uid, text, failed=False):
    return (
        Utterance(uid, f"स्रोत {uid}", "informal", "positive", f"w{uid}"),
        TranslationRecord(uid, text, failed=failed),
    )


def score_one_view(pairs):
    """The informal view's score when it holds exactly ``pairs``; one neutral
    formal row of each other category fills the views ``pairs`` leave empty."""
    fillers = [
        (Utterance(-n, f"स्रोत {-n}", register, category, f"w{-n}"),
         TranslationRecord(-n, "they are kind"))
        for n, (register, category) in enumerate(
            [("formal_impolite", "occupation"), ("formal_polite", "negative")], start=1)
    ]
    return score_views(pairs + fillers).scores[0]


class TestCountBuckets:
    """Bucket counts of a view, seen through ``score_views``."""

    def test_counts(self):
        pairs = [
            pair(1, "she is kind"),
            pair(2, "she works"),
            pair(3, "she left"),
            pair(4, "he is kind"),
        ]
        score = score_one_view(pairs)
        assert (score.p_she, score.p_he, score.p_they) == (0.75, 0.25, 0.0)
        assert (score.size, score.n_unresolved) == (4, 0)

    def test_failed_records_unresolved(self):
        # a failed record counts as unresolved even when it carries text
        score = score_one_view([
            pair(1, "she is kind"),
            pair(2, "", failed=True),
            pair(3, "he is kind", failed=True),
            pair(4, ""),
        ])
        assert (score.size, score.n_unresolved) == (4, 3)
        assert (score.p_she, score.p_he, score.p_they) == (1.0, 0.0, 0.0)

    def test_all_unresolved(self):
        with pytest.raises(DegenerateDistributionError, match="'informal' is fully unresolved"):
            score_one_view([pair(1, "nothing gendered here")])

    def test_empty_input(self):
        with pytest.raises(DegenerateDistributionError,
                           match="^view 'informal' has no translated sentences$"):
            score_views([])


class TestProportions:
    """He/she/they proportions of a view, seen through ``score_views``."""

    def test_basic(self):
        score = score_one_view([
            pair(1, "he is kind"), pair(2, "she is kind"), pair(3, "they are"), pair(4, "they"),
        ])
        assert (score.p_he, score.p_she, score.p_they) == (0.25, 0.25, 0.5)

    def test_unresolved_excluded(self):
        pairs = [pair(i, "they are kind") for i in range(1, 6)]
        pairs += [pair(6, "he said she left"), pair(7, ""), pair(8, "", failed=True)]
        score = score_one_view(pairs)
        assert (score.p_he, score.p_she, score.p_they) == (0.0, 0.0, 1.0)
        assert (score.size, score.n_unresolved) == (8, 3)

    def test_zero_resolved(self):
        with pytest.raises(DegenerateDistributionError, match="fully unresolved"):
            score_one_view([pair(i, "", failed=True) for i in range(1, 5)])


class TestPIndex:
    def test_reference_row_linear(self):
        # externally reported per-view value: 0.7543 from (p_she, p_they) = (0.0315, 0.7473)
        p_she, p_they = 0.0315, 0.7473
        p_he = 1.0 - p_she - p_they
        assert p_index(p_he, p_she, p_they, VARIANT_LINEAR) == pytest.approx(0.7543, abs=0.0005)

    def test_reference_row_linear_high_neutrality(self):
        p_she, p_they = 0.0003, 0.9168
        p_he = 1.0 - p_she - p_they
        assert p_index(p_he, p_she, p_they, VARIANT_LINEAR) == pytest.approx(0.9168, abs=0.0005)

    def test_simplex_corners(self):
        for variant in (VARIANT_LINEAR, VARIANT_SQRT):
            assert p_index(0.0, 0.0, 1.0, variant) == 1.0
            assert p_index(1.0, 0.0, 0.0, variant) == 0.0

    def test_sqrt_variant(self):
        assert p_index(0.5, 0.5, 0.0, VARIANT_SQRT) == pytest.approx(0.5, abs=1e-12)
        assert p_index(0.5, 0.5, 0.0, VARIANT_LINEAR) == pytest.approx(0.25, abs=1e-12)

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            p_index(0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="negative"):
            p_index(-0.2, 0.6, 0.6)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            p_index(0.0, 0.0, 1.0, "cubic")

    def test_symmetric_in_he_she(self):
        for variant in (VARIANT_LINEAR, VARIANT_SQRT):
            assert p_index(0.3, 0.2, 0.5, variant) == p_index(0.2, 0.3, 0.5, variant)

    def test_balanced_gendering_scores_best(self):
        p_they = 0.4
        balanced = p_index(0.3, 0.3, p_they)
        for delta in (0.05, 0.1, 0.2, 0.3):
            skewed = p_index(0.3 + delta, 0.3 - delta, p_they)
            assert skewed < balanced


def seven_view_fixture():
    """18 utterances: two per (register, category) cell."""
    utterances = []
    uid = 0
    for register in ("formal_impolite", "formal_polite", "informal"):
        for category in ("occupation", "positive", "negative"):
            for _ in range(2):
                uid += 1
                utterances.append(Utterance(uid, f"स्रोत {uid}", register, category, f"w{uid}"))
    return utterances


class TestScoreViews:
    def test_all_neutral_gives_one(self):
        utterances = seven_view_fixture()
        pairs = [(u, TranslationRecord(u.id, "they are kind")) for u in utterances]
        report = score_views(pairs)
        assert report.tgbi == 1.0
        assert all(score.p_index == 1.0 for score in report.scores)

    def test_tgbi_is_mean_of_views(self):
        utterances = seven_view_fixture()
        pairs = [
            (
                u,
                TranslationRecord(
                    u.id, "she is kind" if u.id % 2 else "he is kind"
                ),
            )
            for u in utterances
        ]
        report = score_views(pairs)
        assert report.tgbi == pytest.approx(
            sum(s.p_index for s in report.scores) / 7, abs=1e-12
        )

    def test_view_order_and_sizes(self):
        utterances = seven_view_fixture()
        pairs = [(u, TranslationRecord(u.id, "they are kind")) for u in utterances]
        report = score_views(pairs)
        assert [s.view for s in report.scores] == [
            "informal", "formal", "impolite", "polite", "positive", "negative", "occupation",
        ]
        assert [s.size for s in report.scores] == [6, 12, 6, 6, 6, 6, 6]

    def test_fully_unresolved_view_rejected(self):
        utterances = seven_view_fixture()
        pairs = [
            (
                u,
                TranslationRecord(
                    u.id,
                    "nothing here" if u.register == "informal" else "they are kind",
                ),
            )
            for u in utterances
        ]
        with pytest.raises(DegenerateDistributionError, match="fully unresolved"):
            score_views(pairs)

    def test_empty_view_rejected(self):
        utterances = seven_view_fixture()
        pairs = [
            (u, TranslationRecord(u.id, "they are kind"))
            for u in utterances
            if u.register != "informal"
        ]
        with pytest.raises(DegenerateDistributionError, match="no translated"):
            score_views(pairs)

    def test_sqrt_variant_reported(self):
        utterances = seven_view_fixture()
        pairs = [
            (
                u,
                TranslationRecord(
                    u.id, "she is kind" if u.id % 4 else "they are kind"
                ),
            )
            for u in utterances
        ]
        report = score_views(pairs, variant=VARIANT_SQRT)
        assert report.variant == VARIANT_SQRT
        for score in report.scores:
            linear = score.p_he * score.p_she + score.p_they
            assert score.p_index == pytest.approx(math.sqrt(linear), abs=1e-12)


# Each view's rows, named by register and category literally rather than
# through eec.VIEWS.
LITERAL_VIEWS = {
    "informal": lambda register, category: register == "informal",
    "formal": lambda register, category: register in ("formal_impolite", "formal_polite"),
    "impolite": lambda register, category: register == "formal_impolite",
    "polite": lambda register, category: register == "formal_polite",
    "positive": lambda register, category: category == "positive",
    "negative": lambda register, category: category == "negative",
    "occupation": lambda register, category: category == "occupation",
}
# A translation of each label, and the bucket it lands in; a "failed" record
# carries text but is unresolved all the same.
LABELED_TRANSLATIONS = {
    "she": ("she is kind", "she"),
    "he": ("he is kind", "he"),
    "they": ("they are kind", "they"),
    "both": ("he said she left", "unresolved"),
    "neutral": ("the doctor is kind", "unresolved"),
    "empty": ("", "unresolved"),
    "failed": ("he is kind", "unresolved"),
}


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(["formal_impolite", "formal_polite", "informal"]),
                          st.sampled_from(["occupation", "positive", "negative"]),
                          st.sampled_from(list(LABELED_TRANSLATIONS))), min_size=20, max_size=60))
def test_score_views_matches_a_literal_count(rows):
    pairs = [
        (Utterance(uid, f"स्रोत {uid}", register, category, f"w{uid}"),
         TranslationRecord(uid, LABELED_TRANSLATIONS[label][0], failed=label == "failed"))
        for uid, (register, category, label) in enumerate(rows, start=1)
    ]
    counts = {view: Counter(LABELED_TRANSLATIONS[label][1] for register, category, label in rows
                            if member(register, category))
              for view, member in LITERAL_VIEWS.items()}
    degenerate = next(((view, "has no translated sentences" if not c else "is fully unresolved")
                       for view, c in counts.items() if sum(c.values()) == c["unresolved"]), None)
    if degenerate is not None:
        with pytest.raises(DegenerateDistributionError,
                           match=f"^view '{degenerate[0]}' {degenerate[1]}$"):
            score_views(pairs)
        return
    report = score_views(pairs)
    assert [score.view for score in report.scores] == list(LITERAL_VIEWS)
    for score, c in zip(report.scores, counts.values()):
        resolved = c["he"] + c["she"] + c["they"]
        assert (score.size, score.n_unresolved) == (sum(c.values()), c["unresolved"])
        assert score.p_index == pytest.approx(
            c["he"] / resolved * c["she"] / resolved + c["they"] / resolved, abs=1e-12)


class TestReferenceReproduction:
    """Rebuild a corpus whose bucket counts mirror the externally reported
    per-view proportions of an NMT system and check the pipeline reproduces
    the reported per-view indices and their 0.6127 average."""

    # (view size, reported p_she, reported p_they) per register view and
    # per category view; the negative view's reported p_they is internally
    # inconsistent (it equals the reported index) and is re-derived below
    # from the bucket balance between the two partitions.
    REGISTER_ROWS = {
        "informal": (2628, 0.0315, 0.7473),
        "formal_impolite": (2628, 0.1552, 0.0966),
        "formal_polite": (2658, 0.0003, 0.9168),
    }
    CATEGORY_ROWS = {
        "positive": (2460, 0.0825, 0.6548),
        "negative": (2212, 0.0641, None),
        "occupation": (3242, 0.0453, 0.4888),
    }
    EXPECTED_INDICES = {
        "informal": 0.7543,
        "formal": 0.5410,
        "impolite": 0.2127,
        "polite": 0.9168,
        "positive": 0.6765,
        "negative": 0.6773,
        "occupation": 0.5100,
    }
    EXPECTED_AVERAGE = 0.6127

    @staticmethod
    def _northwest(rows, cols):
        rows, cols = list(rows), list(cols)
        cells = [[0] * len(cols) for _ in rows]
        i = j = 0
        while i < len(rows) and j < len(cols):
            take = min(rows[i], cols[j])
            cells[i][j] = take
            rows[i] -= take
            cols[j] -= take
            if rows[i] == 0:
                i += 1
            else:
                j += 1
        return cells

    def _bucket_margins(self):
        she_rows = [round(p_she * size) for size, p_she, _ in self.REGISTER_ROWS.values()]
        they_rows = [round(p_they * size) for size, _, p_they in self.REGISTER_ROWS.values()]
        she_cols = [round(p_she * size) for size, p_she, _ in self.CATEGORY_ROWS.values()]
        assert sum(she_rows) == sum(she_cols)
        they_cols = [
            round(self.CATEGORY_ROWS["positive"][2] * self.CATEGORY_ROWS["positive"][0]),
            None,
            round(self.CATEGORY_ROWS["occupation"][2] * self.CATEGORY_ROWS["occupation"][0]),
        ]
        they_cols[1] = sum(they_rows) - they_cols[0] - they_cols[2]
        register_sizes = [size for size, _p, _t in self.REGISTER_ROWS.values()]
        category_sizes = [size for size, _p, _t in self.CATEGORY_ROWS.values()]
        he_rows = [s - a - b for s, a, b in zip(register_sizes, she_rows, they_rows)]
        he_cols = [s - a - b for s, a, b in zip(category_sizes, she_cols, they_cols)]
        assert sum(he_rows) == sum(he_cols)
        return {
            "she": self._northwest(she_rows, she_cols),
            "they": self._northwest(they_rows, they_cols),
            "he": self._northwest(he_rows, he_cols),
        }

    def test_pipeline_reproduces_reference_indices(self):
        cells = self._bucket_margins()
        outputs = {"she": "she is kind", "he": "he is kind", "they": "they are kind"}
        registers = list(self.REGISTER_ROWS)
        categories = list(self.CATEGORY_ROWS)
        utterances = []
        records = []
        uid = 0
        for i, register in enumerate(registers):
            for j, category in enumerate(categories):
                for bucket in ("she", "he", "they"):
                    for _ in range(cells[bucket][i][j]):
                        uid += 1
                        utterances.append(
                            Utterance(uid, f"स्रोत {uid}", register, category, f"w{uid}")
                        )
                        records.append(TranslationRecord(uid, outputs[bucket]))
        assert len(utterances) == 7914

        report = score_views(list(zip(utterances, records)))
        for score in report.scores:
            assert score.p_index == pytest.approx(
                self.EXPECTED_INDICES[score.view], abs=0.0005
            ), score.view
        assert report.tgbi == pytest.approx(self.EXPECTED_AVERAGE, abs=0.0005)


class TestReportOutput:
    def _report(self):
        utterances = seven_view_fixture()
        pairs = [
            (
                u,
                TranslationRecord(
                    u.id, "she is kind" if u.id % 3 == 0 else "they are kind"
                ),
            )
            for u in utterances
        ]
        return score_views(pairs)

    def test_report_dict_shape(self):
        payload = report_to_dict(self._report())
        assert "backend" not in payload
        assert payload["variant"] == VARIANT_LINEAR
        assert len(payload["scores"]) == 7
        assert set(payload["scores"][0]) == {
            "view", "size", "p_he", "p_she", "p_they", "p_index", "n_unresolved",
        }

    def test_rendered_table_layout(self):
        table = render_tgbi_table(self._report())
        lines = table.splitlines()
        assert lines[0].split() == ["Sentence", "Size", "score"]
        assert lines[1].startswith("Informal")
        assert lines[-1].startswith("Average:")
        # each view row shows index followed by the (p_she, p_they) pair
        assert "(" in lines[1] and "," in lines[1]
