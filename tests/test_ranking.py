import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from biaseval import (
    EmbeddingTable,
    Query,
    WordSet,
    aggregate_rows,
    build_rank_table,
    build_score_matrix,
    rank_embeddings,
    render_rank_table,
    resolve_query,
    rnsb,
    weat,
)
from biaseval import metrics, ranking
from biaseval.errors import DivergenceError, TemplateMismatchError, VocabularyLossError
from biaseval.metrics import METRIC_NAMES, METRIC_TEMPLATES
from biaseval.queries import expand_subqueries
from biaseval.ranking import (
    RankTable,
    ScoreMatrix,
    rank_table_csv,
    rank_table_to_dict,
    render_score_matrix,
    score_matrices,
    score_matrix_csv,
    score_matrix_to_dict,
)

DATA_DIR = Path(__file__).parent / "data"


def make_table(name, seed, tokens):
    rng = np.random.default_rng(seed)
    return EmbeddingTable.from_mapping(name, {t: rng.normal(size=3) for t in tokens})


TOKENS = [f"w{i}" for i in range(12)]


def weat_subquery(i=0):
    return Query(
        targets=(WordSet("t1", (TOKENS[0], TOKENS[1])), WordSet("t2", (TOKENS[2], TOKENS[3]))),
        attributes=(
            WordSet("a1", (TOKENS[4 + i], TOKENS[5 + i])),
            WordSet("a2", (TOKENS[7 + i], TOKENS[8 + i])),
        ),
        label=f"sq{i}",
    )


class TestBuildScoreMatrix:
    def test_shape(self):
        subqueries = [weat_subquery(0), weat_subquery(1), weat_subquery(2)]
        matrix = build_score_matrix("WEAT", make_table("e1", 1, TOKENS), subqueries)
        assert matrix.values.shape == (1, 3)
        assert matrix.rows == ["e1"]
        assert matrix.cols == ["sq0", "sq1", "sq2"]
        assert np.isfinite(matrix.values).all()

    def test_repeated_table_names_rejected(self):
        tables = [make_table("x", 1, TOKENS), make_table("x", 2, TOKENS)]
        with pytest.raises(ValueError, match=r"^embedding name 'x' is given twice \(--embedding\); "
                                             "name each table uniquely with NAME=PATH$"):
            score_matrices(["WEAT"], tables, [weat_subquery(0)])

    def test_unresolvable_cell_is_missing(self):
        okay = make_table("okay", 1, TOKENS + ["extra0", "extra1"])
        sparse = make_table("sparse", 2, TOKENS)
        bad_query = Query(
            targets=(WordSet("t1", ("extra0", "extra1")), WordSet("t2", (TOKENS[0], TOKENS[1]))),
            attributes=(WordSet("a1", (TOKENS[2],)), WordSet("a2", (TOKENS[3],))),
            label="needs-extra",
        )
        subqueries = [weat_subquery(0), bad_query]
        assert np.isfinite(build_score_matrix("WEAT", okay, subqueries).values).all()
        matrix = build_score_matrix("WEAT", sparse, subqueries)
        assert np.isnan(matrix.values).sum() == 1
        assert np.isnan(matrix.values[0, 1])
        assert "missing" in matrix.diagnostics[("sparse", "needs-extra")]

    @pytest.mark.parametrize("metric,vectors,attributes,message", [
        ("WEAT", {"w5": [0.0, 0.0]}, (("w4", "w5"), ("w6", "w7")),
         "cosine undefined for zero-norm vectors"),
        ("ECT", {}, (("w4", "gone"),), "ECT needs at least two attribute words"),
        ("ECT", {"w5": [1.0, 2.0]}, (("w4", "w5"),), "constant input has no rank order"),
    ], ids=["zero_norm", "one_attribute_word", "constant_profile"])
    def test_a_cell_its_metric_leaves_undefined_is_missing(self, metric, vectors, attributes,
                                                           message):
        """A kernel's BiasEvalError makes its cell missing and names its
        cause; the table's other cells are still scored."""
        entries = {t: [np.cos(i), np.sin(i)] for i, t in enumerate(TOKENS)}
        entries["w4"] = [1.0, 2.0]
        table = EmbeddingTable.from_mapping("e1", {**entries, **vectors})
        targets = (WordSet("t1", ("w0", "w1")), WordSet("t2", ("w2", "w3")))
        undefined = Query(targets, tuple(WordSet(f"a{i}", words)
                                         for i, words in enumerate(attributes)), label="undefined")
        defined = Query(targets, tuple(WordSet(f"a{i}", ("w8", "w9", "w10")[i:i + 2])
                                       for i in range(len(attributes))), label="defined")
        matrix = build_score_matrix(metric, table, [undefined, defined], lost_threshold=0.5)
        assert np.isnan(matrix.values[0, 0]) and np.isfinite(matrix.values[0, 1])
        assert matrix.diagnostics[("e1", "undefined")] == {"missing": message}

    @pytest.mark.parametrize("error", [ValueError, TypeError])
    def test_any_other_kernel_error_propagates(self, monkeypatch, error):
        def broken(rq):
            raise error("kernel bug")

        monkeypatch.setitem(metrics.METRIC_FUNCTIONS, "WEAT", broken)
        with pytest.raises(error, match="^kernel bug$"):
            build_score_matrix("WEAT", make_table("e1", 1, TOKENS), [weat_subquery(0)])

    @pytest.mark.parametrize("metric,targets,attributes,needs", [
        ("WEAT", 2, 1, "2 target and 2"), ("WEAT", 3, 2, "2 target and 2"),
        ("RND", 2, 2, "2 target and 1"), ("RNSB", 2, 1, "at least 2 target and 2"),
        ("RNSB", 1, 2, "at least 2 target and 2"), ("ECT", 3, 1, "2 target and 1"),
    ])
    def test_a_subquery_of_another_shape_raises_before_any_cell(self, monkeypatch, metric,
                                                                targets, attributes, needs):
        def shaped(t, a, label):
            return Query(tuple(WordSet(f"t{i}", (TOKENS[i],)) for i in range(t)),
                         tuple(WordSet(f"a{i}", TOKENS[6 + 2 * i:8 + 2 * i]) for i in range(a)),
                         label=label)

        template = METRIC_TEMPLATES[metric]
        resolved = []
        monkeypatch.setattr(ranking, "resolve_query", lambda *args, **kw: resolved.append(args))
        with pytest.raises(TemplateMismatchError, match=(
                rf"^{metric} needs {needs} attribute sets; "
                rf"query 'odd' has {targets} and {attributes}$")):
            build_score_matrix(metric, make_table("e1", 1, TOKENS),
                               [shaped(template.t, template.a, "fits"),
                                shaped(targets, attributes, "odd")])
        assert resolved == []

    def test_rnsb_takes_extra_target_sets(self):
        query = Query(tuple(WordSet(f"t{i}", (TOKENS[i],)) for i in range(3)),
                      (WordSet("a1", TOKENS[6:8]), WordSet("a2", TOKENS[8:10])))
        matrix = build_score_matrix("RNSB", make_table("e1", 1, TOKENS), [query])
        assert np.isfinite(matrix.values).all()

    def test_single_cell_equals_direct_call(self):
        table = make_table("e1", 3, TOKENS)
        query = weat_subquery(0)
        matrix = build_score_matrix("WEAT", table, [query])
        direct = weat(resolve_query(query, table)).value
        assert matrix.values[0, 0] == direct

    def test_validates_inputs(self):
        table = make_table("e1", 1, TOKENS)
        with pytest.raises(ValueError, match="^no embeddings given$"):
            score_matrices(["WEAT"], [], [weat_subquery()])
        with pytest.raises(ValueError, match="^no subqueries given$"):
            build_score_matrix("WEAT", table, [])
        with pytest.raises(ValueError, match="^unknown metric 'NOPE'$"):
            build_score_matrix("NOPE", table, [weat_subquery()])

    def test_dropped_words_recorded(self):
        table = make_table("e1", 1, TOKENS)
        query = Query(
            targets=(
                WordSet("t1", (TOKENS[0], TOKENS[1])),
                WordSet("t2", (TOKENS[2], TOKENS[3], TOKENS[4], TOKENS[5], "gone")),
            ),
            attributes=(WordSet("a1", (TOKENS[6],)), WordSet("a2", (TOKENS[7],))),
            label="lossy",
        )
        matrix = build_score_matrix("WEAT", table, [query])
        assert matrix.diagnostics[("e1", "lossy")]["dropped"] == {"t2": ["gone"]}

    def test_words_of_one_vocabulary_row_count_once(self):
        """The table folds case, so ``W0`` resolves to the row of ``w0``: the
        set scores as ``(w0, w1)`` and the cell names the merged word."""
        table = make_table("e1", 1, TOKENS)
        cells = []
        for t1 in ((TOKENS[0], "W0", TOKENS[1]), (TOKENS[0], TOKENS[1])):
            query = weat_subquery()
            query = Query((WordSet("t1", t1), query.targets[1]), query.attributes, label="q")
            cells.append(build_score_matrix("WEAT", table, [query]))
        merged, plain = cells
        assert merged.values[0, 0] == plain.values[0, 0]
        diagnostics = merged.diagnostics[("e1", "q")]
        assert diagnostics["merged"] == {"t1": {"W0": "w0"}}
        assert diagnostics["set_sizes"]["t1"] == 2
        assert "merged" not in plain.diagnostics[("e1", "q")]


def rnsb_subquery(label, target_start, attribute_start):
    t = TOKENS[target_start : target_start + 4]
    a = TOKENS[attribute_start : attribute_start + 4]
    return Query(
        targets=(WordSet("t1", t[:2]), WordSet("t2", t[2:])),
        attributes=(WordSet("a1", a[:2]), WordSet("a2", a[2:])),
        label=label,
    )


class TestRnsbClassifierReuse:
    """Within one build_score_matrix call, which scores one table, RNSB cells
    whose attribute matrices and seed are equal share one fitted classifier."""

    # sq0 and sq1 share their attribute pair; sq2 has its own.
    SUBQUERIES = [rnsb_subquery("sq0", 0, 8), rnsb_subquery("sq1", 2, 8),
                  rnsb_subquery("sq2", 0, 6)]

    def test_shared_attribute_pair_fits_once(self, classifier_fits, monkeypatch):
        models = []
        train = metrics.train_attribute_classifier

        def spy(*args):
            models.append(train(*args))
            return models[-1]

        monkeypatch.setattr(metrics, "train_attribute_classifier", spy)
        table = make_table("e1", 1, TOKENS)
        matrix = build_score_matrix("RNSB", table, self.SUBQUERIES, seed=3)
        assert classifier_fits == [3, 3]
        assert models[0] is models[1]
        assert models[2] is not models[0]
        for j, query in enumerate(self.SUBQUERIES):
            assert matrix.values[0, j] == rnsb(resolve_query(query, table), seed=3).value

    def test_tables_fit_apart_unless_their_vectors_are_equal(self, classifier_fits):
        """The score pass fits each table's pairs on its own, even for a copy
        of an earlier table, which gets the same bits."""
        tables = [make_table("e1", 1, TOKENS), make_table("e2", 2, TOKENS),
                  make_table("e1-copy", 1, TOKENS)]
        [matrix] = score_matrices(["RNSB"], tables, self.SUBQUERIES)
        assert len(classifier_fits) == 6
        assert matrix.values[2].tobytes() == matrix.values[0].tobytes()

    def test_each_call_fits_again(self, classifier_fits):
        table = make_table("e1", 1, TOKENS)
        first = build_score_matrix("RNSB", table, self.SUBQUERIES)
        second = build_score_matrix("RNSB", table, self.SUBQUERIES)
        assert len(classifier_fits) == 4
        assert first.values.tobytes() == second.values.tobytes()


    def test_a_diverging_pair_fails_its_cell_with_the_warnings_of_a_lone_fit(self):
        # sq2's first attribute set, in range but large, makes the descent
        # underflow and then diverge; its classifier shares a stack with sq0's.
        rng = np.random.default_rng(5)
        entries = {t: rng.normal(size=3) for t in TOKENS}
        for t in TOKENS[6:8]:
            entries[t] = entries[t] * 1e90
        table = EmbeddingTable.from_mapping("e1", entries)

        def record(run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                missing = run()
            return missing, [(w.category, str(w.message)) for w in caught]

        def stacked():
            matrix = build_score_matrix("RNSB", table, self.SUBQUERIES, seed=3)
            assert np.isnan(matrix.values).tolist() == [[False, False, True]]
            return {cell: info for cell, info in matrix.diagnostics.items() if "missing" in info}

        def cell_by_cell():
            missing = {}
            for query in self.SUBQUERIES:
                try:
                    rnsb(resolve_query(query, table), seed=3)
                except DivergenceError as exc:
                    missing[("e1", query.label)] = {"missing": str(exc)}
            return missing

        with np.errstate(under="warn"):
            got = record(stacked)
            expected = record(cell_by_cell)
        assert expected[0] == {("e1", "sq2"): {
            "missing": "training diverged (non-finite loss after 500 epochs)"}}
        assert expected[1]
        assert got == expected

    def test_a_failing_lead_cell_fails_alike_when_resolved_again(self, classifier_fits):
        """The lead cell of an attribute pair is resolved before the pairs are
        fitted; if that fails, its cell is missing with the resolution's own
        message, and the pair is fitted for the next cell that uses it."""
        table = make_table("e1", 1, TOKENS)
        lost = Query(targets=(WordSet("t1", ("gone", TOKENS[0])), WordSet("t2", TOKENS[2:4])),
                     attributes=self.SUBQUERIES[0].attributes, label="lost")
        matrix = build_score_matrix("RNSB", table, [lost, self.SUBQUERIES[0]], seed=3)
        with pytest.raises(VocabularyLossError) as excinfo:
            resolve_query(lost, table)
        assert matrix.diagnostics[("e1", "lost")] == {"missing": str(excinfo.value)}
        assert np.isnan(matrix.values[0, 0]) and np.isfinite(matrix.values[0, 1])
        assert classifier_fits == [3]


class TestAggregateRows:
    def _matrix(self, values):
        values = np.asarray(values, dtype=float)
        return ScoreMatrix(
            "WEAT",
            [f"e{i}" for i in range(values.shape[0])],
            [f"q{j}" for j in range(values.shape[1])],
            values,
        )

    def test_abs_mean(self):
        assert aggregate_rows(self._matrix([[0.3, -0.5]])) == [("e0", pytest.approx(0.4))]

    def test_zeros(self):
        assert aggregate_rows(self._matrix([[0.0, 0.0, 0.0]]))[0][1] == 0.0

    def test_singleton(self):
        assert aggregate_rows(self._matrix([[-0.7]]))[0][1] == pytest.approx(0.7)

    def test_plain_mean(self):
        assert aggregate_rows(self._matrix([[0.3, -0.5]]), agg="mean")[0][1] == pytest.approx(-0.1)

    def test_missing_cells_excluded(self):
        assert aggregate_rows(self._matrix([[0.3, np.nan]]))[0][1] == pytest.approx(0.3)

    def test_fully_missing_row(self):
        with pytest.raises(ValueError, match="no present"):
            aggregate_rows(self._matrix([[np.nan, np.nan]]))

    def test_fully_missing_row_names_its_first_cause(self):
        matrix = self._matrix([[np.nan, np.nan], [0.1, 0.2]])
        matrix.diagnostics = {("e0", "q1"): {"missing": "second"},
                              ("e0", "q0"): {"missing": "first"},
                              ("e1", "q0"): {"missing": "other row"}}
        with pytest.raises(ValueError) as info:
            aggregate_rows(matrix)
        assert str(info.value) == ("embedding 'e0' has no present WEAT scores "
                                   "(all cells missing; first cause: first)")

    def test_unknown_aggregation(self):
        with pytest.raises(ValueError):
            aggregate_rows(self._matrix([[0.1]]), agg="median")

    def test_abs_mean_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.normal(size=6)
            y = x + np.sign(x) * rng.uniform(0.0, 1.0, size=6)  # |x| <= |y| pointwise
            agg_x = aggregate_rows(self._matrix([x]))[0][1]
            agg_y = aggregate_rows(self._matrix([y]))[0][1]
            assert agg_x <= agg_y + 1e-12


class TestRankEmbeddings:
    def test_sorts_ascending(self):
        assert rank_embeddings([("a", 0.5), ("b", 0.2)]) == [("b", 1), ("a", 2)]

    def test_ties_keep_registration_order(self):
        assert rank_embeddings([("a", 0.3), ("b", 0.3)]) == [("a", 1), ("b", 2)]

    def test_singleton(self):
        assert rank_embeddings([("only", 1.5)]) == [("only", 1)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_embeddings([])


def full_queries():
    return [
        Query(
            targets=(WordSet("t1", TOKENS[:3]), WordSet("t2", TOKENS[3:6])),
            attributes=(WordSet("a1", TOKENS[6:9]), WordSet("a2", TOKENS[9:12])),
            label="full",
        )
    ]


class TestEctDirection:
    """An ECT cell is a correlation ρ, 1 meaning no bias: ``rank`` aggregates
    it as 1 − ρ, so no bias ranks first, and score matrices keep ρ."""

    def test_no_bias_ranks_first_and_reversed_profiles_last(self):
        attributes = {"x1": [1.0, 0.0], "x2": [0.8, 0.6], "x3": [0.6, 0.8], "x4": [0.0, 1.0]}
        reversed_ = EmbeddingTable.from_mapping(
            "reversed", {"a": [1.0, 0.2], "b": [0.2, 1.0], **attributes})
        fair = EmbeddingTable.from_mapping(
            "fair", {"a": [1.0, 0.2], "b": [1.0, 0.2], **attributes})
        query = Query(targets=(WordSet("t1", ("a",)), WordSet("t2", ("b",))),
                      attributes=(WordSet("x", tuple(attributes)),), label="q")
        (matrix,) = score_matrices(["ECT"], [reversed_, fair], [query])
        np.testing.assert_allclose(matrix.values, [[-1.0], [1.0]])
        for agg in ("abs_mean", "mean"):
            table = build_rank_table(["ECT"], [reversed_, fair], [query], agg=agg)
            np.testing.assert_allclose(table.aggregate_values, [[2.0], [0.0]])
            assert table.ranks.tolist() == [[2], [1]]


class TestBuildRankTable:
    def test_four_by_four(self):
        tables = [make_table(f"e{i}", i, TOKENS) for i in range(4)]
        table = build_rank_table(METRIC_NAMES, tables, full_queries())
        assert table.aggregate_values.shape == (4, 4)
        assert table.ranks.shape == (4, 4)
        assert table.cols == list(METRIC_NAMES)
        for j in range(4):
            assert sorted(table.ranks[:, j]) == [1, 2, 3, 4]

    def test_lower_score_ranks_first(self):
        tables = [make_table("e0", 0, TOKENS), make_table("e1", 1, TOKENS)]
        table = build_rank_table(["WEAT"], tables, full_queries())
        values = table.aggregate_values[:, 0]
        best = int(np.argmin(values))
        assert table.ranks[best, 0] == 1

    def test_identical_embeddings_tie_by_registration(self):
        base = make_table("first", 7, TOKENS)
        clone = EmbeddingTable("second", base.tokens, base.matrix.copy())
        table = build_rank_table(["WEAT", "RND"], [base, clone], full_queries())
        np.testing.assert_allclose(table.aggregate_values[0], table.aggregate_values[1])
        assert list(table.ranks[0]) == [1, 1]
        assert list(table.ranks[1]) == [2, 2]

    def test_row_permutation(self):
        tables = [make_table(f"e{i}", i, TOKENS) for i in range(3)]
        forward = build_rank_table(["WEAT"], tables, full_queries())
        backward = build_rank_table(["WEAT"], tables[::-1], full_queries())
        np.testing.assert_allclose(
            forward.aggregate_values[::-1], backward.aggregate_values
        )
        np.testing.assert_array_equal(forward.ranks[::-1], backward.ranks)

    def test_duplicate_names_rejected(self):
        tables = [make_table("same", 0, TOKENS), make_table("same", 1, TOKENS)]
        with pytest.raises(ValueError, match="unique"):
            build_rank_table(["WEAT"], tables, full_queries())

    def test_no_satisfiable_query(self):
        tables = [make_table("e0", 0, TOKENS)]
        narrow = Query(
            targets=(WordSet("t1", TOKENS[:2]),),
            attributes=(WordSet("a1", TOKENS[2:4]),),
            label="narrow",
        )
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no query satisfies"):
                build_rank_table(["WEAT"], tables, [narrow])

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric 'BOGUS'"):
            build_rank_table(["BOGUS"], [make_table("e0", 0, TOKENS)], full_queries())


class TestScoreMatrices:
    def test_one_matrix_per_metric_in_order(self):
        tables = [make_table("e0", 0, TOKENS), make_table("e1", 1, TOKENS)]
        matrices = score_matrices(["RND", "WEAT"], iter(tables), iter(full_queries()))
        assert [m.metric for m in matrices] == ["RND", "WEAT"]
        direct = [build_score_matrix("WEAT", table, full_queries()) for table in tables]
        np.testing.assert_array_equal(matrices[1].values, np.vstack([m.values for m in direct]))
        assert (matrices[1].rows, matrices[1].cols) == (["e0", "e1"], ["full"])
        assert len(matrices[0].cols) == 2  # RND: one subquery per attribute set

    def test_holds_one_table_at_a_time(self, monkeypatch):
        """Each table, and its matrix, is released before the next is taken;
        streamed or listed, the matrices stack one build_score_matrix call per
        table and metric, each given one table."""
        import biaseval.ranking

        build = biaseval.ranking.build_score_matrix
        refs, alive_when_taken, calls = [], [], []

        def one_table_build(metric, table, *args, **kwargs):
            matrix = build(metric, table, *args, **kwargs)
            calls.append((isinstance(table, EmbeddingTable), matrix.values.shape[0]))
            return matrix

        monkeypatch.setattr(biaseval.ranking, "build_score_matrix", one_table_build)

        def stream():
            for seed in range(3):
                alive_when_taken.append([ref() is not None for ref in refs])
                table = make_table(f"e{seed}", seed, TOKENS)
                refs.extend([weakref.ref(table), weakref.ref(table.matrix)])
                yield table
                del table

        streamed = score_matrices(METRIC_NAMES, stream(), full_queries())
        assert alive_when_taken == [[], [False] * 2, [False] * 4]
        tables = [make_table(f"e{seed}", seed, TOKENS) for seed in range(3)]
        listed = score_matrices(METRIC_NAMES, tables, full_queries())
        assert calls == [(True, 1)] * (2 * len(tables) * len(METRIC_NAMES))
        for metric, one, other in zip(METRIC_NAMES, streamed, listed):
            subqueries = expand_subqueries(full_queries(), METRIC_TEMPLATES[metric])
            parts = [build(metric, table, subqueries) for table in tables]
            diagnostics = {cell: info for part in parts for cell, info in part.diagnostics.items()}
            for matrix in (one, other):
                assert (matrix.metric, matrix.rows, matrix.cols, matrix.diagnostics) == (
                    metric, ["e0", "e1", "e2"], parts[0].cols, diagnostics)
                assert matrix.values.tobytes() == np.vstack([p.values for p in parts]).tobytes()

    def test_checks_table_names_as_they_arrive(self):
        taken = []

        def tables():
            for seed, name in enumerate("xyxz"):
                taken.append(name)
                yield make_table(name, seed, TOKENS)

        with pytest.raises(ValueError, match=r"^embedding name 'x' is given twice \(--embedding\); "
                                             "name each table uniquely with NAME=PATH$"):
            score_matrices(["WEAT"], tables(), full_queries())
        assert taken == ["x", "y", "x"]
        with pytest.raises(ValueError, match="^no embeddings given$"):
            score_matrices(["WEAT"], iter(()), full_queries())

    @staticmethod
    def _dropping_query(label, i):
        """A WEAT query whose first target set drops its one word of six that no
        table of ``TOKENS`` holds; ``i`` makes that word, so the set, distinct."""
        return Query(
            targets=(WordSet("t1", (*TOKENS[:5], f"absent{i}")),
                     WordSet("t2", (TOKENS[5], TOKENS[6]))),
            attributes=(WordSet("a1", (TOKENS[7], TOKENS[8])),
                        WordSet("a2", (TOKENS[9], TOKENS[10]))),
            label=label,
        )

    def test_rejects_a_table_name_holding_the_key_separator(self):
        """Table 'a::b' with query 'c' and table 'a' with query 'b::c' would
        both key their diagnostics 'a::b::c', and one cell's would vanish."""
        queries = [self._dropping_query("c", 0), self._dropping_query("b::c", 1)]
        tables = [make_table("a::b", 1, TOKENS), make_table("a", 2, TOKENS)]
        with pytest.raises(ValueError, match="^embedding name 'a::b' contains '::', which "
                                             "ends the embedding name in a diagnostics key$"):
            score_matrices(["WEAT"], tables, queries)
        # A query label may hold '::': each key splits at its first '::'.
        tables = [make_table("a", 1, TOKENS), make_table("b", 2, TOKENS)]
        [matrix] = score_matrices(["WEAT"], tables, queries)
        assert len(matrix.diagnostics) == 4
        assert sorted(score_matrix_to_dict(matrix)["diagnostics"]) == [
            "a::b::c", "a::c", "b::b::c", "b::c"]

    def test_rejects_a_repeated_metric_before_expanding_any(self, monkeypatch):
        """The metric named is the one whose second occurrence comes first."""
        import biaseval.ranking

        expanded = []
        monkeypatch.setattr(biaseval.ranking, "expand_subqueries",
                            lambda queries, template: expanded.append(template))
        with pytest.raises(ValueError) as exc:
            score_matrices(["WEAT", "RND", "RND", "WEAT"], [make_table("e0", 0, TOKENS)],
                           full_queries())
        assert str(exc.value) == "metric 'RND' is given more than once"
        assert expanded == []

    def test_rejects_no_metrics_and_unknown_names(self):
        tables = [make_table("e0", 0, TOKENS)]
        with pytest.raises(ValueError, match="no metrics given"):
            score_matrices([], tables, full_queries())
        with pytest.raises(ValueError, match="unknown metric 'BOGUS'"):
            score_matrices(["WEAT", "BOGUS"], tables, full_queries())

    def test_checks_every_template_before_scoring(self, monkeypatch):
        """A metric no query fits fails the call before any matrix is built."""
        import biaseval.ranking

        built = []
        monkeypatch.setattr(biaseval.ranking, "build_score_matrix",
                            lambda metric, *args, **kwargs: built.append(metric))
        one_attribute = Query(targets=(WordSet("t1", TOKENS[:3]), WordSet("t2", TOKENS[3:6])),
                              attributes=(WordSet("a1", TOKENS[6:9]),), label="one")
        with pytest.warns(UserWarning, match="cannot satisfy template \\(2,2\\)"):
            with pytest.raises(ValueError, match="no query satisfies the WEAT template \\(2,2\\)"):
                score_matrices(["RND", "WEAT"], [make_table("e0", 0, TOKENS)], [one_attribute])
        assert built == []


class TestSerialization:
    def _table(self):
        aggregates = np.array(
            [
                [0.412345, 0.023456, 0.091234, 0.612345],
                [0.198765, 0.012345, 0.145678, 0.523456],
                [0.305678, 0.034567, 0.054321, 0.712345],
                [0.287654, 0.045678, 0.123456, 0.398765],
            ]
        )
        ranks = np.zeros((4, 4), dtype=int)
        names = ["alpha", "beta", "gamma", "delta"]
        for j in range(4):
            for name, rank in rank_embeddings(list(zip(names, aggregates[:, j]))):
                ranks[names.index(name), j] = rank
        return RankTable(names, list(METRIC_NAMES), aggregates, ranks)

    def test_to_dict_round_trip_types(self):
        payload = rank_table_to_dict(self._table())
        assert payload["rows"] == ["alpha", "beta", "gamma", "delta"]
        assert payload["ranks"][0][0] == 4
        assert isinstance(payload["aggregate_values"][0][0], float)

    def test_csv_headers(self):
        text = rank_table_csv(self._table())
        lines = text.splitlines()
        assert lines[0].startswith("embedding,WEAT_value,WEAT_rank")
        assert len(lines) == 5

    def test_render_raw_matches_golden(self):
        rendered = render_rank_table(self._table(), mode="raw")
        golden = (DATA_DIR / "rank_table_raw.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_render_ranks_matches_golden(self):
        rendered = render_rank_table(self._table(), mode="ranks")
        golden = (DATA_DIR / "rank_table_ranks.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_render_unknown_mode(self):
        with pytest.raises(ValueError):
            render_rank_table(self._table(), mode="fancy")

    def test_score_matrix_serialization(self):
        matrix = ScoreMatrix(
            "WEAT",
            ["e1"],
            ["q1", "q2"],
            np.array([[0.5, np.nan]]),
            {("e1", "q2"): {"missing": "no words"}},
        )
        payload = score_matrix_to_dict(matrix)
        assert payload["values"] == [[0.5, None]]
        assert payload["diagnostics"] == {"e1::q2": {"missing": "no words"}}
        csv_text = score_matrix_csv(matrix)
        assert csv_text.splitlines()[1] == "e1,0.5,"
        rendered = render_score_matrix(matrix)
        assert "-" in rendered
