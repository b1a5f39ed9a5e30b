"""Property tests for the file readers and writers: a writer either rejects
a field holding a tab or a line break or writes a file that reads back
unchanged, and malformed embedding files fail only with
``EmbeddingFormatError``."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from biaseval.eec import (
    CATEGORIES,
    REGISTERS,
    VIEW_NAMES,
    EvaluationSet,
    Utterance,
    read_corpus_tsv,
    read_views_json,
    write_corpus_tsv,
    write_views_json,
)
from biaseval.embeddings import load_word2vec_text
from biaseval.errors import EmbeddingFormatError
from biaseval.translate import TranslationRecord, load_translations_tsv, write_translations_tsv

ids = st.integers(min_value=-(2**63), max_value=2**63)
# Mostly plain text, often with a character the readers split lines on.
field = st.text(st.one_of(st.characters(), st.sampled_from("\t\n\r\x0b\x0c\x1c\x85\u2028")))


def _breaks_field(text: str) -> bool:
    return "\t" in text or len((text + "x").splitlines()) > 1


def _round_trip(write, read, value, fields):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        try:
            write(value, path)
        except ValueError:
            assert any(_breaks_field(text) for text in fields)
            return value
        return read(path)


@st.composite
def corpora(draw):
    unique_ids = draw(st.lists(ids, unique=True, max_size=20))
    return [
        Utterance(
            uid,
            draw(field.filter(bool)),
            draw(st.sampled_from(REGISTERS)),
            draw(st.sampled_from(CATEGORIES)),
            draw(field),
        )
        for uid in unique_ids
    ]


@given(corpora())
def test_corpus_tsv_round_trip(utterances):
    fields = [text for u in utterances for text in (u.text, u.lexeme)]
    assert _round_trip(write_corpus_tsv, read_corpus_tsv, utterances, fields) == utterances


@given(st.lists(st.lists(ids, max_size=20), min_size=len(VIEW_NAMES), max_size=len(VIEW_NAMES)))
def test_views_json_round_trip(id_lists):
    views = [EvaluationSet(name, tuple(uids)) for name, uids in zip(VIEW_NAMES, id_lists)]
    assert _round_trip(write_views_json, read_views_json, views, []) == views


@given(st.lists(st.tuples(ids, field), max_size=20, unique_by=lambda pair: pair[0]))
def test_translations_tsv_round_trip(rows):
    records = [TranslationRecord(uid, output, backend="file") for uid, output in rows]
    fields = [output for _uid, output in rows]
    assert _round_trip(write_translations_tsv, load_translations_tsv, records, fields) == records


# Lines of a few space-separated words drawn from numbers, tokens and junk,
# so that well-formed rows, wrong component counts, non-numeric and
# non-finite components and stray whitespace all occur.
words = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=6),
    st.sampled_from(["", " ", "\t", "\r", "\u00a0", "nan", "-inf", "1e999"]),
)
lines = st.lists(words, max_size=5).map(" ".join)
headers = st.one_of(lines, st.builds("{} {}".format, st.integers(-2, 4), st.integers(-1, 3)))


@settings(max_examples=300)
@given(headers, st.lists(lines, max_size=4))
def test_malformed_embedding_file_raises_only_format_error(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.txt"
        path.write_text("\n".join([header] + body) + "\n", encoding="utf-8")
        try:
            load_word2vec_text(path)
        except EmbeddingFormatError:
            pass
