"""Property tests for the file readers and writers: a writer either rejects
a field holding a tab, a line break or a lone surrogate (which has no UTF-8
form) or writes a file that reads back unchanged, and malformed embedding
files fail only with ``EmbeddingFormatError``; one that loads warns only of
repeated tokens. ``cosine`` given its vectors' norms returns the bits it
computes without them."""

import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biaseval.eec import (
    CATEGORIES,
    REGISTERS,
    VIEW_NAMES,
    Utterance,
    corpus_tsv_text,
    read_corpus_tsv,
    read_views_json,
    views_json_text,
)
from biaseval.embeddings import MAX_COMPONENT, cosine, load_word2vec_text, norm
from biaseval.errors import EmbeddingFormatError, ZeroNormError
from biaseval.names import write_utf8_files
from biaseval.translate import TranslationRecord, load_translations_tsv, translations_tsv_text

ids = st.integers(min_value=-(2**63), max_value=2**63)
# Mostly plain text, often with a character the readers split lines on.
field = st.text(st.one_of(st.characters(), st.sampled_from("\t\n\r\x0b\x0c\x1c\x85\u2028")))


def _unwritable(text: str) -> bool:
    lone_surrogate = any(0xD800 <= ord(ch) <= 0xDFFF for ch in text)
    return "\t" in text or len((text + "x").splitlines()) > 1 or lone_surrogate


def _round_trip(text, read, value, fields):
    """``value`` written as ``text(value, path)`` and read back, or ``value``
    itself when writing refuses a field."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        try:
            write_utf8_files({path: text(value, path)})
        except ValueError:
            assert any(_unwritable(text) for text in fields)
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
    assert _round_trip(corpus_tsv_text, read_corpus_tsv, utterances, fields) == utterances


@given(st.lists(st.lists(ids, max_size=20, unique=True), min_size=len(VIEW_NAMES),
                max_size=len(VIEW_NAMES)))
def test_views_json_round_trip(id_lists):
    # A view lists each id once; read_views_json rejects a repeat.
    views = {name: tuple(uids) for name, uids in zip(VIEW_NAMES, id_lists)}
    read = _round_trip(lambda views, _path: views_json_text(views), read_views_json, views, [])
    assert read == views
    assert list(read) == list(VIEW_NAMES)


@given(st.lists(st.tuples(ids, field), max_size=20, unique_by=lambda pair: pair[0]))
def test_translations_tsv_round_trip(rows):
    records = [TranslationRecord(uid, output) for uid, output in rows]
    fields = [output for _uid, output in rows]
    assert _round_trip(translations_tsv_text, load_translations_tsv, records, fields) == records


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
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                load_word2vec_text(path)
        except EmbeddingFormatError:
            pass
        else:  # a file that loads warns of nothing but its repeated tokens
            assert all("duplicate token(s)" in str(w.message) for w in caught)


def _cosine_outcome(u, v, **kwargs):
    """The bits of ``cosine(u, v, **kwargs)``, or the name of what it raised."""
    try:
        return struct.pack("<d", cosine(u, v, **kwargs))
    except (ZeroNormError, RuntimeWarning) as exc:
        return type(exc).__name__


@st.composite
def vector_pairs(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    component = st.floats(-MAX_COMPONENT, MAX_COMPONENT, allow_nan=False)
    u, v = (np.array(draw(st.lists(component, min_size=size, max_size=size)))
            for _ in range(2))
    return u, v


@given(vector_pairs())
def test_cosine_with_given_norms_has_the_same_bits(pair):
    u, v = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (_cosine_outcome(u, v, norms=(norm(u), norm(v)))
                == _cosine_outcome(u, v))
