import contextlib
import struct
import tempfile
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaseval import EmbeddingTable, cosine, embeddings, load_word2vec_text
from biaseval.errors import (
    EmbeddingFormatError,
    EmptyResolutionError,
    VocabularyLossError,
)

from conftest import write_w2v


class TestLoader:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_word2vec_text(path, name="tiny")
        assert table.name == "tiny"
        assert table.matrix.shape == (2, 3)
        assert len(table) == 2
        np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0, 0.0])

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\na 1 0\n", encoding="utf-8-sig")
        np.testing.assert_array_equal(load_word2vec_text(path).lookup("a"), [1.0, 0.0])

    def test_devanagari_round_trip(self, tmp_path):
        path = tmp_path / "hi.txt"
        path.write_text("1 2\nक 0.5 -0.5\n", encoding="utf-8")
        table = load_word2vec_text(path)
        np.testing.assert_array_equal(table.lookup("क"), [0.5, -0.5])
        # Devanagari-dominated vocabularies default to no case folding
        assert table.fold_case_default is False

    def test_trailing_spaces_ignored(self, tmp_path):
        # The word2vec C tool ends every row with a space.
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 0 0 \nb 0 1 0 \r\n", encoding="utf-8")
        table = load_word2vec_text(path)
        assert len(table) == 2
        np.testing.assert_array_equal(table.lookup("b"), [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("count,read", [(5, 2), (1, 2), (2, 3)])
    def test_header_row_count_checked(self, tmp_path, count, read):
        # The last case holds a duplicate: rows read count duplicates too.
        rows = ["a 1 0", "b 0 1", "a 9 9"][:read]
        path = tmp_path / "bad.txt"
        path.write_text(f"{count} 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=f"declares {count} rows, read {read}"):
            load_word2vec_text(path)

    @pytest.mark.parametrize("count,read", [(10**15, 3), (3, 513), (513, 3)])
    def test_header_count_sizes_no_more_than_the_file_holds(self, tmp_path, count, read):
        """A header count far above or below the rows read, one the file's
        bytes could never hold among them, is the one-line count error."""
        path = tmp_path / "bad.txt"
        path.write_text(f"{count} 2\n" + "".join(f"w{i} 1 0\n" for i in range(read)),
                        encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert str(excinfo.value) == f"{path}: header declares {count} rows, read {read}"

    def test_row_arity_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\na 1 0\nb 0 1 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="expected 3 components"):
            load_word2vec_text(path)

    @pytest.mark.parametrize("first,message", [
        ("", ":1: dimension must be positive, got 0"),  # a blank first row
        ("3", ":1: dimension must be positive, got 0"),  # a first row without components
        ("a b", ":1: non-numeric component"),  # a 1-d first row
        ("2 3 4", ":2: expected 2 components, got 3"),  # a 2-d first row
        ("2 0", ":1: dimension must be positive, got 0"),  # a header
        ("3 3", ": header declares 3 rows, read 1"),  # a header
        ("7 1", ":2: expected 1 components, got 3"),  # a 1-d row of integers is a header
        ("-10000000 10000000000000", ":2: expected 10000000000000 components, got 3"),
    ], ids=["blank", "no_components", "1d_row", "2d_row", "zero_dim_header", "count_header",
            "integer_1d_row", "negative_count_header"])
    def test_malformed_first_line(self, tmp_path, first, message):
        """A first line of two integers is a header; any other is the first
        row, which gives the dimension (the GloVe layout)."""
        path = tmp_path / "bad.txt"
        path.write_text(f"{first}\na 1 0 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert str(excinfo.value) == f"{path}{message}"

    @pytest.mark.parametrize("first", ["1_0 2", "+3 2", "\uff11\uff10 2", "2 \u0663"],
                             ids=["underscore", "plus", "fullwidth_digits", "arabic_indic_digit"])
    def test_a_first_line_of_other_integer_syntax_is_a_row(self, tmp_path, first):
        """A header field is ASCII digits after an optional minus, as a TSV id
        is; a first line of any other integer syntax is the first row, whose
        component must then be an ASCII number."""
        path = tmp_path / "e.txt"
        path.write_text(f"{first}\nb 3\n", encoding="utf-8")
        token, component = first.split(" ")
        if not component.isascii():
            with pytest.raises(EmbeddingFormatError) as excinfo:
                load_word2vec_text(path)
            assert str(excinfo.value) == f"{path}:1: non-numeric component"
            return
        table = load_word2vec_text(path)
        assert table.tokens == (token, "b")
        assert table.matrix.tolist() == [[float(component)], [3.0]]

    def test_glove_layout_loads_as_with_a_header(self, tmp_path):
        rows = "the 0.1 -0.2 0.3 \nof 1e-3 2 -4\nthe 9 9 9\nand 0 0 1\n"
        with_header = tmp_path / "w2v.txt"
        with_header.write_text("4 3\n" + rows, encoding="utf-8")
        without = tmp_path / "glove.txt"
        without.write_text(rows, encoding="utf-8-sig")
        with pytest.warns(UserWarning, match="1 duplicate"):
            expected = load_word2vec_text(with_header, name="t")
        with pytest.warns(UserWarning, match="1 duplicate"):
            table = load_word2vec_text(without, name="t")
        assert table.tokens == expected.tokens == ("the", "of", "the", "and")
        assert table.matrix.tobytes() == expected.matrix.tobytes()
        assert table.matrix.shape == (4, 3) and not table.matrix.flags.writeable

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component(self, tmp_path, component):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 2\na {component} 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_word2vec_text(path)

    @pytest.mark.parametrize("row,message", [
        ("1e200 -3 0", "component magnitude 1e+200 above 1e+100"),
        ("1e-200 -1e-250 0", "largest component magnitude 1e-200 below 1e-100"),
    ])
    def test_out_of_range_component(self, tmp_path, row, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 3\na 1 0 0\nb {row}\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert str(excinfo.value) == f"{path}:3: {message}"
        with pytest.raises(ValueError) as excinfo:
            EmbeddingTable.from_mapping("t", {"a": [1.0, 0.0, 0.0], "b": row.split()})
        assert str(excinfo.value) == f"vector for 'b': {message}"
        # A table built directly is checked the same way.
        matrix = np.array([[1.0, 0.0, 0.0], [float(c) for c in row.split()]])
        with pytest.raises(ValueError) as excinfo:
            EmbeddingTable("t", ("a", "b"), matrix)
        assert str(excinfo.value) == f"vector for 'b': {message}"

    @pytest.mark.parametrize("row", ["0 0 0", "1e100 1e-300 -1e100", "-1e-100 0 0"])
    def test_in_range_rows_load_unchanged(self, tmp_path, row):
        path = tmp_path / "ok.txt"
        path.write_text(f"1 3\nb {row}\n", encoding="utf-8")
        expected = [float(c) for c in row.split()]
        np.testing.assert_array_equal(load_word2vec_text(path).lookup("b"), expected)
        np.testing.assert_array_equal(EmbeddingTable.from_mapping("t", {"b": expected}).lookup("b"),
                                      expected)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\na x 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="non-numeric"):
            load_word2vec_text(path)

    # A component parses exactly when it is ASCII without an underscore and
    # Python's float() accepts it.
    @pytest.mark.parametrize("component,expected", [
        ("1e-400", 0.0), ("-0", -0.0), ("+.5E+1", 5.0),
    ])
    def test_float_syntax_accepted(self, tmp_path, component, expected):
        path = tmp_path / "ok.txt"
        path.write_text(f"1 2\na {component} 1\n", encoding="utf-8")
        got = load_word2vec_text(path).lookup("a")
        assert got.tobytes() == np.array([expected, 1.0]).tobytes()

    @pytest.mark.parametrize("component,message", [
        ("infinity", "non-finite component"), ("1e500", "non-finite component"),
        ("", "non-numeric component"), ("0x10", "non-numeric component"),
        ("−1", "non-numeric component"), ("1d5", "non-numeric component"),
        ("#1", "non-numeric component"), ("1_0", "non-numeric component"),
        ("١", "non-numeric component"),
    ])
    def test_float_syntax_rejected(self, tmp_path, component, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 2\na {component} 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert str(excinfo.value) == f"{path}:2: {message}"

    def test_empty_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\na 1 0\n 0 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert str(excinfo.value) == f"{path}:3: empty token"
        with pytest.raises(ValueError, match="^empty token$"):
            EmbeddingTable.from_mapping("t", {"a": [1.0, 0.0], "": [0.0, 1.0]})
        with pytest.raises(ValueError, match="^empty token$"):
            EmbeddingTable("t", ("a", ""), np.ones((2, 2)))

    def test_empty_mapping_names_the_table(self):
        with pytest.raises(ValueError, match="^embedding table 't' is empty$"):
            EmbeddingTable.from_mapping("t", {})

    # Each bad row as (row, message).
    BAD_ROWS = [("b 1e200 0", "component magnitude 1e+200 above 1e+100"),
                ("c x 0", "non-numeric component"),
                ("d 1 0 0", "expected 2 components, got 3"),
                (" 1 0", "empty token"),
                ("e 1\x1c 0", "non-numeric component")]

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("first", range(len(BAD_ROWS)))
    def test_first_of_adjacent_bad_rows_is_reported(self, tmp_path, first, reverse):
        others = [row for i, row in enumerate(self.BAD_ROWS) if i != first]
        rows = [self.BAD_ROWS[first]] + (others[::-1] if reverse else others)
        path = tmp_path / "bad.txt"
        path.write_text("7 2\na 1 0\n" + "\n".join(row for row, _ in rows) + "\nz 0 1\n",
                        encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert str(excinfo.value) == f"{path}:3: {rows[0][1]}"

    @pytest.mark.parametrize("later,problem", [
        ("d 1", "expected 2 components, got 1"),
        ("d \udcff 1", "not UTF-8 text (invalid start byte)"),
    ], ids=["short_row", "not_utf8"])
    def test_first_bad_row_wins_over_one_far_below(self, tmp_path, later, problem):
        """A non-numeric row at line 3 is reported even when the other bad
        line, thousands of lines further on, stops the line scan."""
        rows = ["a 1 0", "b x 0"] + [f"w{i} 0 1" for i in range(5000)] + [later, "z 1 1"]
        path = tmp_path / "bad.txt"
        path.write_bytes(f"{len(rows)} 2\n".encode() + "\n".join(rows).encode(
            "utf-8", "surrogateescape") + b"\n")
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert str(excinfo.value) == f"{path}:3: non-numeric component"
        # Alone, the far line raises its own message.
        path.write_bytes(path.read_bytes().replace(b"b x 0", b"b 0 0"))
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert problem in str(excinfo.value)

    def test_plain_decimals_never_take_the_row_by_row_path(self, tmp_path, monkeypatch):
        exact_reads = []
        read = embeddings._raise_first_bad_row

        def spy(path):
            exact_reads.append(path)
            return read(path)

        monkeypatch.setattr(embeddings, "_raise_first_bad_row", spy)
        rng = np.random.default_rng(3)
        rows = 517
        values = rng.normal(0.0, 0.25, size=(rows, 6)).round(6)
        values[7] = 0.0  # an all-zero row is in range
        lines = [f"w{i} " + " ".join(f"{v:.6f}" for v in row) for i, row in enumerate(values)]
        path = tmp_path / "plain.txt"
        path.write_text(f"{rows} 6\n" + "\n".join(lines) + "\n", encoding="utf-8")
        table = load_word2vec_text(path)
        assert exact_reads == []
        for i, row in enumerate(values):
            assert table.lookup(f"w{i}").tobytes() == np.array(
                [float(f"{v:.6f}") for v in row]).tobytes()
        # A bad row sends the whole file, once, row by row, which names it;
        # a component float() alone would read, as 1_0, is bad.
        lines[3] = "w3 1_0 " + " ".join(["0"] * 5)
        path.write_text(f"{rows} 6\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert str(excinfo.value) == f"{path}:5: non-numeric component"
        assert exact_reads == [path]

    @pytest.mark.parametrize("header", [True, False], ids=["word2vec", "glove"])
    def test_a_plain_file_normalises_each_token_once(self, tmp_path, monkeypatch, header):
        """The traced benchmark counts rows scanned as the loader's nfc calls."""
        calls = []
        monkeypatch.setattr(embeddings, "nfc", lambda text: calls.append(text) or text)
        monkeypatch.setattr(embeddings, "_raise_first_bad_row", None)  # calling it fails
        lines = [f"w{i} {i / 7:.6f} -{i:.1f}e-3" for i in range(300)]
        path = tmp_path / "plain.txt"
        path.write_text("300 2\n" * header + "\n".join(lines) + "\n", encoding="utf-8")
        assert len(load_word2vec_text(path)) == 300
        assert calls == [f"w{i}" for i in range(300)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\n\n\n"],
                             ids=["lf", "crlf", "cr", "blank_lines"])
    def test_every_row_loads_whatever_the_line_breaks(self, tmp_path, newline):
        """The C reader reads no more rows than a bound taken from the file's
        bytes; neither the line breaks nor rows as short as they can be make
        that bound too small."""
        tokens = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN"
        rows = [f"{token} {i % 10} {i * 3 % 10}" for i, token in enumerate(tokens)]
        path = tmp_path / "glove.txt"
        path.write_bytes(newline.join(rows).encode() + newline.encode())
        table = load_word2vec_text(path)
        assert table.tokens == tuple(tokens)
        assert table.matrix.tolist() == [[i % 10, i * 3 % 10] for i in range(40)]

    @pytest.mark.parametrize("text", ["0 3\n", "", "\ufeff"], ids=["header", "empty", "bom"])
    def test_empty_vocabulary(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmbeddingFormatError) as excinfo:
            load_word2vec_text(path)
        assert str(excinfo.value) == f"{path}: empty vocabulary"

    def test_duplicates_first_wins_with_warning(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("3 2\na 1 0\na 9 9\nb 0 1\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="1 duplicate"):
            table = load_word2vec_text(path)
        assert len(table) == 2
        np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])

    def test_load_lookup_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        entries = {f"w{i}": rng.normal(size=4) for i in range(20)}
        table = load_word2vec_text(write_w2v(tmp_path / "rt.txt", entries))
        for token, components in entries.items():
            stored = table.lookup(token)
            assert stored is not None
            np.testing.assert_array_equal(stored, np.asarray(components))

    def test_nfc_duplicates_keep_the_first_row_as_the_loader_does(self, tmp_path):
        composed = "été"
        decomposed = unicodedata.normalize("NFD", composed)
        mapping = {composed: [1.0, 0.0], decomposed: [0.0, 1.0]}
        from_mapping = EmbeddingTable.from_mapping("t", mapping)
        with pytest.warns(UserWarning, match="1 duplicate"):
            loaded = load_word2vec_text(write_w2v(tmp_path / "e.txt", mapping))
        for table in (from_mapping, loaded):
            assert len(table) == 1
            np.testing.assert_array_equal(table.lookup(decomposed), [1.0, 0.0])

    def test_vectors_read_only(self, tmp_path):
        path = write_w2v(tmp_path / "ro.txt", {"a": [1.0, 2.0]})
        table = load_word2vec_text(path)
        with pytest.raises(ValueError):
            table.lookup("a")[0] = 5.0


# Components that both reads take: plain decimals and other ASCII forms;
# and components that neither takes or that are out of range, among them
# the underscores and non-ASCII digits and spaces that float() alone reads.
PLAIN = st.floats(-9.0, 9.0).map("{:.6f}".format)
OTHER_ASCII = st.sampled_from(["\x0c-3", "+1", "1.", ".5", "1E+01", "\t2"])
BAD = st.sampled_from(["x", "1\x1c", "\x1f2", "nan", "-inf", "1e200", "1e-200", "1__0", "\x00",
                       "1_0", "١", "٣.٥", "\u30001", "2\xa0", "\u2028.5", "1_0e-1_0", "\u0b6b"])


def float_reference(lines):
    """Vectors by token of rows parsed one by one with float(), taking only
    ASCII components without an underscore, or the error text the loader
    should give after the file name."""
    entries = {}
    for lineno, line in enumerate(lines, start=2):
        token, *components = line.split(" ")
        try:
            if not all(c.isascii() and "_" not in c for c in components):
                raise ValueError(components)
            vec = np.array([float(c) for c in components])
        except ValueError:
            return f"{lineno}: non-numeric component"
        problem = embeddings._range_error(float(np.abs(vec).max(initial=0.0)))
        if problem:
            return f"{lineno}: {problem}"
        entries.setdefault(token, vec)
    return entries


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 9))
def test_load_matches_float_row_by_row(data, dim, n_rows):
    """Rows of plain decimals mixed with other ASCII syntax and bad
    components give float()'s bytes and errors."""
    kinds = [PLAIN, OTHER_ASCII]
    if data.draw(st.booleans(), label="with bad components"):
        kinds = [PLAIN, PLAIN, PLAIN, OTHER_ASCII, BAD]
    components = st.lists(st.one_of(*kinds), min_size=dim, max_size=dim)
    lines = [f"w{data.draw(st.integers(0, n_rows))} " + " ".join(data.draw(components))
             for _ in range(n_rows)]
    expected = float_reference(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.txt"
        path.write_text(f"{n_rows} {dim}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        if isinstance(expected, str):
            with pytest.raises(EmbeddingFormatError) as excinfo:
                load_word2vec_text(path)
            assert str(excinfo.value) == f"{path}:{expected}"
        else:
            with pytest.warns() if len(expected) < n_rows else contextlib.nullcontext():
                table = load_word2vec_text(path)
            assert {t: table.lookup(t).tobytes() for t in expected} == {
                t: v.tobytes() for t, v in expected.items()}


class TestTableContract:
    """Whoever builds a table, its constructor checks every row and freezes
    the matrix it is given."""

    @pytest.mark.parametrize("tokens,matrix", [
        (("a",), np.ones(2)),
        (("a", "b"), np.ones((1, 2))),
        (("a",), np.ones((1, 2), dtype=np.float32)),
        (("a",), np.ones((1, 0))),
        (("a",), [[1.0, 0.0]]),
    ])
    def test_a_matrix_not_one_float64_row_per_token_is_rejected(self, tokens, matrix):
        with pytest.raises(ValueError, match="^embedding table 't': matrix must be float64"):
            EmbeddingTable("t", tokens, matrix)

    def test_matrix_is_frozen_in_place_and_a_repeat_keeps_its_first_row(self):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        table = EmbeddingTable("t", ("a", "b", "a"), matrix)
        assert table.matrix is matrix and not matrix.flags.writeable
        assert len(table) == 2
        np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0])
        assert all(np.shares_memory(table.lookup(key), matrix) for key in ("a", "b"))
        resolved = table.resolve_word_set(["b", "a"])
        assert [key for key, _vec in resolved.found] == ["b", "a"]
        np.testing.assert_array_equal(resolved.matrix, [[0.0, 1.0], [1.0, 0.0]])
        assert not np.shares_memory(resolved.matrix, matrix)
        assert all(np.shares_memory(vec, resolved.matrix) for _key, vec in resolved.found)

    @pytest.mark.parametrize("mapping,message", [
        ({"a": [[1.0, 0.0]]}, "vector for 'a' is not one-dimensional"),
        ({"a": [1.0, 0.0], "b": [1.0]}, "vector for 'b' has 1 components, expected 2"),
    ], ids=["2-d", "unequal_lengths"])
    def test_from_mapping_rejects_a_vector_of_another_shape(self, mapping, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EmbeddingTable.from_mapping("t", mapping)

    def test_tables_compare_and_hash_by_identity(self):
        a = EmbeddingTable.from_mapping("t", {"x": [1.0, 0.0]})
        b = EmbeddingTable.from_mapping("t", {"x": [1.0, 0.0]})
        assert a != b
        assert a == a
        assert a not in [b]
        assert {a: 1}[a] == 1

    def test_loaded_table_is_one_matrix_row_per_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("3 2\na 1 0\nb 0 1\na 9 9\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="1 duplicate"):
            table = load_word2vec_text(path)
        assert table.tokens == ("a", "b", "a")
        np.testing.assert_array_equal(table.matrix, [[1.0, 0.0], [0.0, 1.0], [9.0, 9.0]])
        assert not table.matrix.flags.writeable


class TestLookup:
    def test_case_folding_hits_lowercase_entry(self, tmp_path):
        table = load_word2vec_text(write_w2v(tmp_path / "e.txt", {"doctor": [1.0, 0.0]}))
        assert table.fold_case_default is True
        np.testing.assert_array_equal(table.lookup("Doctor"), [1.0, 0.0])

    def test_devanagari_majority_table_does_not_fold_a_latin_miss(self, tmp_path):
        table = load_word2vec_text(write_w2v(
            tmp_path / "e.txt", {"डॉक्टर": [0.0, 1.0], "नर्स": [1.0, 1.0], "doctor": [1.0, 0.0]}))
        assert table.fold_case_default is False
        np.testing.assert_array_equal(table.lookup("doctor"), [1.0, 0.0])
        assert table.lookup("Doctor") is None
        assert table.resolve_word_set(["doctor", "Doctor"], lost_threshold=0.5).dropped == (
            "Doctor",)

    @pytest.mark.parametrize("tokens,folds", [(("क", "ख", "doctor"), False),
                                              (("क", "doctor"), True)])
    def test_direct_construction_derives_folding(self, tokens, folds):
        table = EmbeddingTable("t", tokens, np.ones((len(tokens), 2)))
        assert table.fold_case_default is folds
        assert (table.lookup("Doctor") is not None) is folds

    def test_folding_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            EmbeddingTable("t", ("a",), np.ones((1, 2)), fold_case_default=False)

    def test_capitalised_entry_found_when_folding(self):
        table = EmbeddingTable.from_mapping("t", {"John": [1.0, 0.0]})
        assert table.fold_case_default is True
        np.testing.assert_array_equal(table.lookup("John"), [1.0, 0.0])
        assert table.resolve_word_set(["John"]).found[0][0] == "John"

    def test_exact_case_wins_over_folding(self):
        table = EmbeddingTable.from_mapping("t", {"Apple": [1.0, 0.0], "apple": [0.0, 1.0]})
        np.testing.assert_array_equal(table.lookup("Apple"), [1.0, 0.0])
        np.testing.assert_array_equal(table.lookup("APPLE"), [0.0, 1.0])
        assert [key for key, _vec in table.resolve_word_set(["APPLE", "Apple"]).found] == [
            "apple", "Apple"]

    def test_miss_is_none(self, toy_table):
        assert toy_table.lookup("absent") is None

    def test_empty_token_raises(self, toy_table):
        with pytest.raises(ValueError):
            toy_table.lookup("")

    def test_nfc_normalization(self):
        # U+0958 decomposes to U+0915 U+093C under NFC (composition exclusion)
        table = EmbeddingTable.from_mapping("hi", {"क़": [1.0, 2.0]})
        np.testing.assert_array_equal(table.lookup("क़"), [1.0, 2.0])


class TestResolveWordSet:
    def test_all_present(self, toy_table):
        resolution = toy_table.resolve_word_set(["east", "north", "diag", "steep", "west"])
        assert len(resolution.found) == 5
        assert resolution.dropped == ()

    def test_boundary_loss_succeeds(self, toy_table):
        resolution = toy_table.resolve_word_set(["east", "north", "diag", "steep", "gone"])
        assert len(resolution.found) == 4
        assert resolution.dropped == ("gone",)

    def test_excessive_loss(self, toy_table):
        with pytest.raises(VocabularyLossError) as excinfo:
            toy_table.resolve_word_set(["east", "north", "diag", "gone", "lost"])
        assert str(excinfo.value) == ("word set: dropped 2/5 words in 'toy' (loss 0.40 > "
                                      "threshold 0.20): ['gone', 'lost']")

    def test_empty_intersection(self, toy_table):
        with pytest.raises(EmptyResolutionError):
            toy_table.resolve_word_set(["gone", "lost"])

    def test_preserves_input_order(self, toy_table):
        resolution = toy_table.resolve_word_set(["steep", "gone", "east", "north", "diag"])
        assert [token for token, _vec in resolution.found] == ["steep", "east", "north", "diag"]

    def test_empty_words_rejected(self, toy_table):
        with pytest.raises(ValueError):
            toy_table.resolve_word_set([])

    def test_threshold_outside_the_unit_interval_rejected(self, toy_table):
        with pytest.raises(ValueError, match=r"lost_threshold must lie in \[0, 1\]"):
            toy_table.resolve_word_set(["east"], lost_threshold=1.5)

    def test_the_set_matrix_is_read_only_and_holds_the_looked_up_rows(self, toy_table):
        resolved = toy_table.resolve_word_set(["steep", "gone", "East", "north", "diag"],
                                              set_name="s")
        assert (resolved.name, resolved.tokens) == ("s", ("steep", "east", "north", "diag"))
        assert not resolved.matrix.flags.writeable
        assert resolved.matrix.flags.c_contiguous and resolved.matrix.dtype == np.float64
        assert resolved.matrix.tobytes() == b"".join(
            toy_table.lookup(token).tobytes() for token in resolved.tokens)
        with pytest.raises(ValueError):
            resolved.matrix[0, 0] = 0.0

    def test_a_word_folding_onto_an_earlier_key_is_merged_not_lost(self):
        table = EmbeddingTable.from_mapping("t", {"doctor": [1.0, 0.0], "nurse": [0.0, 1.0]})
        resolution = table.resolve_word_set(["doctor", "Doctor", "nurse", "DOCTOR"],
                                            lost_threshold=0.0)
        assert [key for key, _vec in resolution.found] == ["doctor", "nurse"]
        assert resolution.merged == (("Doctor", "doctor"), ("DOCTOR", "doctor"))
        assert resolution.dropped == ()


class TestCosine:
    def test_self_similarity(self):
        assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        # dot=4, norms sqrt(5)*sqrt(5)
        assert cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            assert cosine(u, v) == cosine(v, u)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            alpha, beta = rng.uniform(0.1, 10.0, size=2)
            assert cosine(alpha * u, beta * v) == pytest.approx(cosine(u, v), abs=1e-12)

    def test_zero_vector_error(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_clamped_range(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            u = rng.normal(size=3)
            assert -1.0 <= cosine(u, -u) <= 1.0

    def test_bits_match_norm_and_clip_formula(self):
        def unclamped(u, v):
            return np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))

        rng = np.random.default_rng(19)
        pairs = []
        for _ in range(300):
            u = rng.normal(size=int(rng.integers(1, 301))) * 10.0 ** rng.integers(-100, 100)
            pairs += [(u, rng.normal(size=u.size)), (u, 3 * u), (u, -7 * u)]
        # the clamp fires at both ends
        assert max(unclamped(u, v) for u, v in pairs) > 1.0
        assert min(unclamped(u, v) for u, v in pairs) < -1.0
        pairs.append((np.array([1e200, 0.0]), np.array([1e200, 0.0])))  # inf / inf
        with np.errstate(all="ignore"):
            for u, v in pairs:
                expected = float(np.clip(unclamped(u, v), -1, 1))
                assert struct.pack("<d", cosine(u, v)) == struct.pack("<d", expected)
            assert np.isnan(cosine(*pairs[-1]))
