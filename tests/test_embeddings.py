import numpy as np
import pytest

from biaseval import EmbeddingTable, cosine, load_word2vec_text
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
        assert table.dim == 3
        assert len(table) == 2
        np.testing.assert_array_equal(table.lookup("a"), [1.0, 0.0, 0.0])

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

    def test_row_arity_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\na 1 0\nb 0 1 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="expected 3 components"):
            load_word2vec_text(path)

    @pytest.mark.parametrize("header", ["", "3", "a b", "2 3 4"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\na 1 0 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="header"):
            load_word2vec_text(path)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component(self, tmp_path, component):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 2\na {component} 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_word2vec_text(path)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\na x 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="non-numeric"):
            load_word2vec_text(path)

    def test_empty_vocabulary(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 3\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="empty vocabulary"):
            load_word2vec_text(path)

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

    def test_vectors_read_only(self, tmp_path):
        path = write_w2v(tmp_path / "ro.txt", {"a": [1.0, 2.0]})
        table = load_word2vec_text(path)
        with pytest.raises(ValueError):
            table.lookup("a")[0] = 5.0


class TestLookup:
    def test_case_folding_hits_lowercase_entry(self, tmp_path):
        table = load_word2vec_text(write_w2v(tmp_path / "e.txt", {"doctor": [1.0, 0.0]}))
        assert table.fold_case_default is True
        np.testing.assert_array_equal(table.lookup("Doctor"), [1.0, 0.0])

    def test_no_folding_misses(self, tmp_path):
        table = load_word2vec_text(write_w2v(tmp_path / "e.txt", {"doctor": [1.0, 0.0]}))
        assert table.lookup("Doctor", fold_case=False) is None

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
        assert resolution.loss_fraction == 0.0

    def test_boundary_loss_succeeds(self, toy_table):
        resolution = toy_table.resolve_word_set(["east", "north", "diag", "steep", "gone"])
        assert len(resolution.found) == 4
        assert resolution.dropped == ("gone",)
        assert resolution.loss_fraction == pytest.approx(0.2)

    def test_excessive_loss(self, toy_table):
        with pytest.raises(VocabularyLossError) as excinfo:
            toy_table.resolve_word_set(["east", "north", "diag", "gone", "lost"])
        assert excinfo.value.loss_fraction == pytest.approx(0.4)
        assert excinfo.value.dropped == ["gone", "lost"]

    def test_empty_intersection(self, toy_table):
        with pytest.raises(EmptyResolutionError):
            toy_table.resolve_word_set(["gone", "lost"])

    def test_preserves_input_order(self, toy_table):
        resolution = toy_table.resolve_word_set(["steep", "gone", "east", "north", "diag"])
        assert [token for token, _vec in resolution.found] == ["steep", "east", "north", "diag"]

    def test_empty_words_rejected(self, toy_table):
        with pytest.raises(ValueError):
            toy_table.resolve_word_set([])


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
