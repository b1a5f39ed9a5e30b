import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from biaseval import (
    ect,
    kl_from_uniform,
    resolve_query,
    rnd,
    rnsb,
    spearman,
    train_attribute_classifier,
    weat,
)
from biaseval.errors import (
    DivergenceError,
    TemplateMismatchError,
    UndefinedCorrelationError,
)
from biaseval.metrics import (
    CLASSIFIER_EPOCHS,
    CLASSIFIER_LR,
    METRIC_FUNCTIONS,
    METRIC_TEMPLATES,
    _classifier_scope,
    _fit_classifiers,
    _sigmoid,
    fractional_ranks,
)
from biaseval.queries import ResolvedSet

from conftest import make_resolved_query
from oracles import ect_oracle, rnd_oracle, spearman_oracle, weat_oracle

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]


def random_sets(rng, n_targets=2, n_attributes=2, dim=3, max_words=5, min_attr_words=2):
    def word_block(prefix, count):
        return {f"{prefix}{i}": rng.normal(size=dim) for i in range(count)}

    targets = {
        f"T{k}": word_block(f"t{k}_", int(rng.integers(1, max_words + 1)))
        for k in range(n_targets)
    }
    attributes = {
        f"A{k}": word_block(f"a{k}_", int(rng.integers(min_attr_words, max_words + 1)))
        for k in range(n_attributes)
    }
    return targets, attributes


def random_resolved_query(rng, n_targets=2, n_attributes=2, dim=3):
    targets, attributes = random_sets(rng, n_targets, n_attributes, dim)
    return make_resolved_query(targets, attributes)


class TestWeatAssociation:
    """One word's association, read through ``weat`` on one-word target
    sets: the second target word is balanced between the attribute sets, so
    its association is 0 and ``weat`` is the first word's association."""

    BALANCED = [1.0, 1.0]

    def test_separated_attributes(self):
        rq = make_resolved_query({"t1": {"x": E1}, "t2": {"y": self.BALANCED}},
                                 {"a1": {"p": E1}, "a2": {"q": E2}})
        assert weat(rq).value == pytest.approx(1.0)

    def test_equal_attribute_sets(self):
        rng = np.random.default_rng(0)
        attrs = {f"p{i}": row for i, row in enumerate(rng.normal(size=(4, 3)))}
        targets = {"t1": {"x": rng.normal(size=3)}, "t2": {"y": rng.normal(size=3)}}
        rq = make_resolved_query(targets, {"a1": attrs, "a2": dict(attrs)})
        assert weat(rq).value == 0.0

    def test_balanced_word(self):
        rq = make_resolved_query({"t1": {"x": self.BALANCED}, "t2": {"y": [-1.0, -1.0]}},
                                 {"a1": {"p": E1}, "a2": {"q": E2}})
        assert weat(rq).value == pytest.approx(0.0, abs=1e-12)

    def test_empty_matrix_rejected(self):
        rq = make_resolved_query({"t1": {"x": E1}, "t2": {"y": E2}},
                                 {"a1": {"p": E1}, "a2": {"q": E2}})
        empty = ResolvedSet("a1", (), np.empty((0, 2)), ())
        with pytest.raises(ValueError, match="attribute matrices must be non-empty"):
            weat(dataclasses.replace(rq, attributes=(empty, rq.attributes[1])))


class TestWeat:
    def test_hand_value(self):
        rq = make_resolved_query(
            {"t1": {"x": E1}, "t2": {"y": E2}},
            {"a1": {"p": E1}, "a2": {"q": E2}},
        )
        assert weat(rq).value == pytest.approx(2.0, abs=1e-12)

    def test_identical_targets_zero(self):
        rng = np.random.default_rng(1)
        block = {f"w{i}": rng.normal(size=3) for i in range(3)}
        rq = make_resolved_query(
            {"t1": dict(block), "t2": dict(block)},
            {"a1": {"p": rng.normal(size=3)}, "a2": {"q": rng.normal(size=3)}},
        )
        assert weat(rq).value == 0.0

    def test_target_swap_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            targets, attributes = random_sets(rng)
            forward = weat(make_resolved_query(targets, attributes))
            swapped_targets = dict(reversed(list(targets.items())))
            backward = weat(make_resolved_query(swapped_targets, attributes))
            assert backward.value == pytest.approx(-forward.value, abs=1e-12)

    def test_attribute_swap_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            targets, attributes = random_sets(rng)
            forward = weat(make_resolved_query(targets, attributes))
            swapped_attributes = dict(reversed(list(attributes.items())))
            backward = weat(make_resolved_query(targets, swapped_attributes))
            assert backward.value == pytest.approx(-forward.value, abs=1e-12)

    def test_template_mismatch(self):
        rq = make_resolved_query({"t1": {"x": E1}}, {"a1": {"p": E1}, "a2": {"q": E2}})
        with pytest.raises(TemplateMismatchError):
            weat(rq)

    def test_diagnostics_record_set_sizes(self, toy_table, weat_query):
        result = weat(resolve_query(weat_query, toy_table))
        assert result.diagnostics["set_sizes"] == {"t1": 1, "t2": 1, "a1": 1, "a2": 1}

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            rq = random_resolved_query(rng)
            t1, t2 = (s.matrix.tolist() for s in rq.targets)
            a1, a2 = (s.matrix.tolist() for s in rq.attributes)
            assert weat(rq).value == pytest.approx(weat_oracle(t1, t2, a1, a2), abs=1e-9)


class TestRnd:
    def test_hand_value(self):
        rq = make_resolved_query({"t1": {"x": E1}, "t2": {"y": E2}}, {"a": {"p": E1}})
        assert rnd(rq).value == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_identical_targets_exact_zero(self):
        rng = np.random.default_rng(5)
        block = {f"w{i}": rng.normal(size=3) for i in range(4)}
        rq = make_resolved_query(
            {"t1": dict(block), "t2": dict(block)},
            {"a": {f"x{i}": rng.normal(size=3) for i in range(3)}},
        )
        assert rnd(rq).value == 0.0

    def test_target_swap_antisymmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            t1 = {f"p{i}": rng.normal(size=dim) for i in range(int(rng.integers(1, 5)))}
            t2 = {f"q{i}": rng.normal(size=dim) for i in range(int(rng.integers(1, 5)))}
            attrs = {f"a{i}": rng.normal(size=dim) for i in range(int(rng.integers(1, 5)))}
            forward = rnd(make_resolved_query({"t1": t1, "t2": t2}, {"a": attrs}))
            backward = rnd(make_resolved_query({"t2": t2, "t1": t1}, {"a": attrs}))
            assert backward.value == pytest.approx(-forward.value, abs=1e-12)

    def test_scales_linearly(self):
        rng = np.random.default_rng(7)
        t1 = {f"p{i}": rng.normal(size=3) for i in range(2)}
        t2 = {f"q{i}": rng.normal(size=3) for i in range(2)}
        attrs = {f"a{i}": rng.normal(size=3) for i in range(3)}
        base = rnd(make_resolved_query({"t1": t1, "t2": t2}, {"a": attrs})).value
        alpha = 3.5
        scaled = rnd(
            make_resolved_query(
                {"t1": {k: alpha * v for k, v in t1.items()},
                 "t2": {k: alpha * v for k, v in t2.items()}},
                {"a": {k: alpha * v for k, v in attrs.items()}},
            )
        ).value
        assert scaled == pytest.approx(alpha * base, rel=1e-12)

    def test_template_mismatch(self):
        rq = make_resolved_query({"t1": {"x": E1}, "t2": {"y": E2}},
                                 {"a1": {"p": E1}, "a2": {"q": E2}})
        with pytest.raises(TemplateMismatchError):
            rnd(rq)

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            t1 = [rng.normal(size=dim).tolist() for _ in range(int(rng.integers(1, 6)))]
            t2 = [rng.normal(size=dim).tolist() for _ in range(int(rng.integers(1, 6)))]
            attrs = [rng.normal(size=dim).tolist() for _ in range(int(rng.integers(1, 6)))]
            rq = make_resolved_query(
                {"t1": {f"p{i}": v for i, v in enumerate(t1)},
                 "t2": {f"q{i}": v for i, v in enumerate(t2)}},
                {"a": {f"a{i}": v for i, v in enumerate(attrs)}},
            )
            assert rnd(rq).value == pytest.approx(rnd_oracle(t1, t2, attrs), abs=1e-9)


class TestClassifier:
    def test_separable_data(self):
        model = train_attribute_classifier([E1], [[-1.0, 0.0]])
        assert model.predict_proba([E1])[0] > 0.9
        assert model.predict_proba([[-1.0, 0.0]])[0] < 0.1

    def test_indistinguishable_classes(self):
        matrix = [[1.0, 0.0], [0.5, 0.5]]
        model = train_attribute_classifier(matrix, matrix)
        assert model.training_loss >= math.log(2.0) - 1e-9
        np.testing.assert_allclose(model.predict_proba(matrix), 0.5, atol=0.01)

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(9)
        a1 = rng.normal(size=(3, 4))
        a2 = rng.normal(size=(2, 4))
        first = train_attribute_classifier(a1, a2, seed=123)
        second = train_attribute_classifier(a1, a2, seed=123)
        assert np.array_equal(first.weights, second.weights)
        assert first.bias == second.bias
        assert first.training_loss == second.training_loss

    def test_seed_changes_init(self):
        a1 = [[1.0, 0.0]]
        a2 = [[0.0, 1.0]]
        first = train_attribute_classifier(a1, a2, seed=1)
        second = train_attribute_classifier(a1, a2, seed=2)
        assert not np.array_equal(first.weights, second.weights)

    def test_divergence_error(self):
        # one step on inputs this large saturates every output on the wrong side
        with pytest.raises(DivergenceError, match="training diverged"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            train_attribute_classifier([[1e200, 0.0]], [[1e200, 0.0], [1e200, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            train_attribute_classifier([[1.0, 0.0]], [[1.0, 0.0, 0.0]])


class TestClassifierScope:
    """Inside ``_classifier_scope`` equal attribute matrices and seed share one
    fit; outside it every call fits."""

    def test_direct_calls_fit_every_time(self, classifier_fits):
        rng = np.random.default_rng(9)
        a1, a2 = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        first = train_attribute_classifier(a1, a2, seed=4)
        second = train_attribute_classifier(a1, a2, seed=4)
        assert first is not second
        rq = random_resolved_query(rng)
        assert rnsb(rq, seed=4).value == rnsb(rq, seed=4).value
        assert classifier_fits == [4, 4, 4, 4]

    def test_equal_matrices_and_seed_share_one_model(self, classifier_fits):
        rng = np.random.default_rng(9)
        a1, a2 = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        with _classifier_scope():
            first = train_attribute_classifier(a1, a2, seed=4)
            # an equal copy in another layout, as another table would hold it
            again = train_attribute_classifier(np.asfortranarray(a1), a2.tolist(), seed=4)
            other_seed = train_attribute_classifier(a1, a2, seed=5)
            other_values = train_attribute_classifier(a1 + 1.0, a2, seed=4)
            swapped = train_attribute_classifier(a2, a1, seed=4)
        assert again is first
        assert classifier_fits == [4, 5, 4, 4]
        assert len({id(m) for m in (first, other_seed, other_values, swapped)}) == 4

    @pytest.mark.parametrize("seed", [None, [1, 2]])
    def test_non_integer_seed_fits_every_time(self, classifier_fits, seed):
        # default_rng(None) draws fresh entropy, and a list is unhashable.
        with _classifier_scope():
            train_attribute_classifier([[1.0, 0.0]], [[0.0, 1.0]], seed=seed)
            train_attribute_classifier([[1.0, 0.0]], [[0.0, 1.0]], seed=seed)
        assert classifier_fits == [seed, seed]

    def test_scope_ends_on_exit(self, classifier_fits):
        a1, a2 = [[1.0, 0.0]], [[0.0, 1.0]]
        for _ in range(2):
            with _classifier_scope():
                train_attribute_classifier(a1, a2)
                train_attribute_classifier(a1, a2)
        train_attribute_classifier(a1, a2)
        assert len(classifier_fits) == 3

    def test_failed_fit_is_not_kept(self, classifier_fits):
        a1, a2 = [[1e200, 0.0]], [[1e200, 0.0], [1e200, 0.0]]
        with _classifier_scope():
            for _ in range(2):
                with pytest.raises(DivergenceError, match="training diverged"), \
                        pytest.warns(RuntimeWarning, match="overflow"):
                    train_attribute_classifier(a1, a2)
            with pytest.raises(ValueError, match="must share their dimension"):
                train_attribute_classifier([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
        assert len(classifier_fits) == 2

    def test_shared_model_has_the_bits_of_a_fresh_fit(self):
        rng = np.random.default_rng(29)
        a1, a2 = rng.normal(size=(12, 300)), rng.normal(size=(12, 300))
        fresh = train_attribute_classifier(a1, a2, seed=5)
        with _classifier_scope():
            train_attribute_classifier(a1, a2, seed=5)
            shared = train_attribute_classifier(a1.copy(), a2.copy(), seed=5)
        assert shared.weights.tobytes() == fresh.weights.tobytes()
        assert shared.bias.hex() == fresh.bias.hex()
        assert shared.training_loss.hex() == fresh.training_loss.hex()


def two_branch_sigmoid(z):
    """1 / (1 + e^-z) where z >= 0 and e^z / (1 + e^z) elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def gradient_descent_reference(attributes_1, attributes_2, seed):
    """The classifier's training loop written out with the two-branch sigmoid."""
    x = np.vstack([attributes_1, attributes_2])
    y = np.concatenate([np.ones(len(attributes_1)), np.zeros(len(attributes_2))])
    weights = np.random.default_rng(seed).normal(0.0, 0.01, size=x.shape[1])
    bias = 0.0
    for _ in range(CLASSIFIER_EPOCHS):
        p = two_branch_sigmoid(x @ weights + bias)
        weights = weights - CLASSIFIER_LR * (x.T @ (p - y) / len(x))
        bias = bias - CLASSIFIER_LR * float(np.sum(p - y) / len(x))
    return weights, bias


class TestKernelBits:
    """The kernels return the same bits as the plain formulas they replace."""

    EXTREMES = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf]

    def test_sigmoid_extremes_match_two_branch_form_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(np.array(self.EXTREMES))
            expected = two_branch_sigmoid(np.array(self.EXTREMES))
        assert got.tobytes() == expected.tobytes()
        assert got.tolist() == [0.5, 0.5, 1.0, 5e-324, 1.0, 0.0, 1.0, 0.0]

    def test_sigmoid_random_matches_two_branch_form(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            z = rng.normal(size=int(rng.integers(1, 50))) * 10.0 ** rng.integers(-3, 4)
            assert _sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()

    def test_training_matches_reference_loop(self):
        rng = np.random.default_rng(29)
        a1, a2 = rng.normal(size=(12, 300)), rng.normal(size=(12, 300))
        model = train_attribute_classifier(a1, a2, seed=5)
        weights, bias = gradient_descent_reference(a1, a2, seed=5)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.hex() == bias.hex()

    def test_training_pinned_bytes(self):
        # Taken with numpy 2.4 and its bundled OpenBLAS on x86-64. A BLAS
        # that sums x @ w in another order moves these while the reference
        # loop test above still passes.
        rng = np.random.default_rng(29)
        a1, a2 = rng.normal(size=(12, 300)), rng.normal(size=(12, 300))
        model = train_attribute_classifier(a1, a2)
        assert hashlib.sha256(model.weights.tobytes()).hexdigest() == (
            "aab9d532d0bc5c8d15a52e35f7049e316a3e4da00b975a7d6d0dbfe40a97e2fc"
        )
        assert model.bias.hex() == "-0x1.0a30f87d15e45p-7"
        assert model.training_loss.hex() == "0x1.b66be4ed56615p-10"


def cross_entropy_reference(attributes_1, attributes_2, weights, bias):
    """The final mean cross-entropy of a model, written out."""
    p = two_branch_sigmoid(np.vstack([attributes_1, attributes_2]) @ weights + bias)
    n_first = len(attributes_1)
    return -float(np.mean(np.concatenate([np.log(p[:n_first]), np.log1p(-p[n_first:])])))


class TestStackedFit:
    """One descent over a stack of problems gives each model the bits of the
    one-model reference loop."""

    def test_bits_match_reference_loop(self):
        rng = np.random.default_rng(416)
        fitted = 0
        while fitted < 416:
            size, dim = int(rng.integers(1, 14)), int(rng.integers(2, 302))
            n_1, n_2 = (int(n) for n in rng.integers(1, 13, size=2))
            scale = 10.0 ** int(rng.integers(-2, 2))
            problems = [(rng.normal(size=(n_1, dim)) * scale, rng.normal(size=(n_2, dim)),
                         int(rng.integers(0, 2**31))) for _ in range(size)]
            for (a1, a2, seed), model in zip(problems, _fit_classifiers(problems)):
                weights, bias = gradient_descent_reference(a1, a2, seed)
                assert model.weights.tobytes() == weights.tobytes()
                assert model.bias.hex() == bias.hex()
                assert model.training_loss.hex() == cross_entropy_reference(
                    a1, a2, weights, bias).hex()
            fitted += size

    @pytest.mark.parametrize("scale", [1e90, 1e200])
    def test_a_diverging_model_leaves_the_others_unchanged(self, scale):
        # 1e90 saturates without a floating-point event; 1e200 overflows.
        rng = np.random.default_rng(8)
        problems = [(rng.normal(size=(3, 5)), rng.normal(size=(2, 5)), seed) for seed in range(3)]
        problems[1] = (problems[1][0], problems[1][1] * scale, 1)
        with np.errstate(all="ignore"):
            models = _fit_classifiers(problems)
        assert models[1] is None
        for i in (0, 2):
            alone = train_attribute_classifier(*problems[i])
            assert models[i].weights.tobytes() == alone.weights.tobytes()
            assert models[i].bias.hex() == alone.bias.hex()
            assert models[i].training_loss.hex() == alone.training_loss.hex()


class TestKlFromUniform:
    def test_point_mass_over_two(self):
        assert kl_from_uniform([1.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_uniform_is_zero(self):
        assert kl_from_uniform([0.25] * 4) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            kl_from_uniform([0.5, 0.6])
        with pytest.raises(ValueError):
            kl_from_uniform([1.5, -0.5])


class TestRnsb:
    def test_equal_outputs_give_zero(self):
        # all target words share one vector, so classifier outputs are equal
        shared = [0.3, 0.4]
        rq = make_resolved_query(
            {"t1": {"w1": shared, "w2": shared}, "t2": {"w3": shared}},
            {"a1": {"p": E1}, "a2": {"q": E2}},
        )
        assert rnsb(rq).value == pytest.approx(0.0, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        rq = random_resolved_query(rng)
        assert rnsb(rq, seed=7).value == rnsb(rq, seed=7).value

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            assert rnsb(random_resolved_query(rng)).value >= 0.0

    def test_accepts_extra_target_sets(self):
        rng = np.random.default_rng(12)
        rq = random_resolved_query(rng, n_targets=3)
        assert rnsb(rq).value >= 0.0

    def test_template_mismatch(self):
        rq = make_resolved_query({"t1": {"x": E1}, "t2": {"y": E2}}, {"a": {"p": E1}})
        with pytest.raises(TemplateMismatchError):
            rnsb(rq)

    def test_union_dedup_counts_shared_word_once(self):
        rq = make_resolved_query(
            {"t1": {"shared": E1, "own": E2}, "t2": {"shared": E1}},
            {"a1": {"p": E1}, "a2": {"q": E2}},
        )
        result = rnsb(rq)
        assert result.diagnostics["n_target_words"] == 3
        assert result.diagnostics["n_support"] == 2


class TestSpearman:
    def test_identical_ranks(self):
        assert spearman([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 1.0

    def test_reversed(self):
        assert spearman([0.1, 0.5, 0.9], [0.9, 0.5, 0.1]) == -1.0

    def test_hand_value(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_fractional_ranks_average_ties(self):
        np.testing.assert_array_equal(fractional_ranks([2.0, 1.0, 2.0]), [2.5, 1.0, 2.5])

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            s1 = rng.integers(0, 4, size=n).astype(float)
            s2 = rng.normal(size=n)
            if np.all(s1 == s1[0]):
                continue
            expected = scipy.stats.spearmanr(s1, s2).statistic
            assert spearman(s1, s2) == pytest.approx(expected, abs=1e-12)

    def test_short_input(self):
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestEct:
    def test_identical_targets_exactly_one(self):
        rng = np.random.default_rng(14)
        block = {f"w{i}": rng.normal(size=3) for i in range(3)}
        rq = make_resolved_query(
            {"t1": dict(block), "t2": dict(block)},
            {"a": {f"x{i}": rng.normal(size=3) for i in range(4)}},
        )
        assert ect(rq).value == 1.0

    def test_hand_example_matches_oracle(self):
        # similarity profiles rank (3,1,2) against (1,3,2)
        t1, t2 = [E1], [E2]
        attrs = [E1, E2, [1.0, 1.0]]
        expected = ect_oracle(t1, t2, attrs)
        assert expected == pytest.approx(-1.0, abs=1e-12)
        rq = make_resolved_query(
            {"t1": {"x": E1}, "t2": {"y": E2}},
            {"a": {"p": E1, "q": E2, "r": [1.0, 1.0]}},
        )
        assert ect(rq).value == pytest.approx(expected, abs=1e-12)

    def test_attribute_order_invariance(self):
        rng = np.random.default_rng(15)
        t1 = {f"p{i}": rng.normal(size=3) for i in range(2)}
        t2 = {f"q{i}": rng.normal(size=3) for i in range(2)}
        attrs = [(f"a{i}", rng.normal(size=3)) for i in range(5)]
        forward = ect(make_resolved_query({"t1": t1, "t2": t2}, {"a": dict(attrs)}))
        backward = ect(make_resolved_query({"t1": t1, "t2": t2}, {"a": dict(reversed(attrs))}))
        assert backward.value == pytest.approx(forward.value, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            value = ect(random_resolved_query(rng, n_attributes=1)).value
            assert -1.0 <= value <= 1.0

    def test_needs_two_attribute_words(self):
        rq = make_resolved_query({"t1": {"x": E1}, "t2": {"y": E2}}, {"a": {"p": E1}})
        with pytest.raises(ValueError):
            ect(rq)

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        t1 = {f"p{i}": rng.normal(size=3) for i in range(2)}
        t2 = {f"q{i}": rng.normal(size=3) for i in range(2)}
        attrs = {f"a{i}": rng.normal(size=3) for i in range(4)}
        base = ect(make_resolved_query({"t1": t1, "t2": t2}, {"a": attrs})).value
        scaled = ect(
            make_resolved_query(
                {"t1": {k: 2.5 * v for k, v in t1.items()},
                 "t2": {k: 2.5 * v for k, v in t2.items()}},
                {"a": {k: 0.5 * v for k, v in attrs.items()}},
            )
        ).value
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            rq = random_resolved_query(rng, n_attributes=1)
            t1, t2 = (s.matrix.tolist() for s in rq.targets)
            attrs = rq.attributes[0].matrix.tolist()
            assert ect(rq).value == pytest.approx(ect_oracle(t1, t2, attrs), abs=1e-9)



@pytest.mark.parametrize("metric", sorted(METRIC_TEMPLATES))
def test_one_target_set_short_of_the_template_is_a_mismatch(metric):
    template = METRIC_TEMPLATES[metric]
    attributes = {f"a{k}": {f"p{k}": E1} for k in range(template.a)}
    rq = make_resolved_query({"t1": {"x": E1}}, attributes)
    with pytest.raises(TemplateMismatchError,
                       match=f"{template.t} target and {template.a} attribute sets"):
        METRIC_FUNCTIONS[metric](rq)

def test_spearman_oracle_agrees_with_scipy():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s1 = rng.normal(size=8)
        s2 = rng.normal(size=8)
        assert spearman_oracle(s1, s2) == pytest.approx(
            scipy.stats.spearmanr(s1, s2).statistic, abs=1e-12
        )
