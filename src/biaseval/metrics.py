"""Fairness metric kernels: WEAT, RND, RNSB, ECT and their primitives.

All four metrics consume a :class:`~biaseval.queries.ResolvedQuery`. WEAT and
ECT are cosine-based and scale-invariant; RND works on raw norms and scales
linearly with the embedding scale; RNSB trains a deterministic logistic
classifier on the attribute sets and measures how unevenly it scores the
target words.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .embeddings import cosine, norm
from .errors import (
    DegenerateDistributionError,
    DivergenceError,
    TemplateMismatchError,
    UndefinedCorrelationError,
)
from .names import DEFAULT_SEED, ECT, METRIC_NAMES, RND, RNSB, WEAT
from .queries import QueryTemplate, ResolvedQuery

# Gradient-descent step size and epoch count of the RNSB classifier.
CLASSIFIER_LR = 0.1
CLASSIFIER_EPOCHS = 500

# Classifiers fitted inside the innermost open _shared_classifiers block,
# keyed by both attribute matrices and the seed; None outside every block.
_fitted_classifiers: ContextVar[dict | None] = ContextVar("_fitted_classifiers", default=None)

# Shape each metric demands; RNSB additionally accepts extra target sets.
METRIC_TEMPLATES = {
    WEAT: QueryTemplate(2, 2),
    RND: QueryTemplate(2, 1),
    RNSB: QueryTemplate(2, 2),
    ECT: QueryTemplate(2, 1),
}

__all__ = [
    "CLASSIFIER_EPOCHS",
    "CLASSIFIER_LR",
    "ECT",
    "METRIC_FUNCTIONS",
    "METRIC_NAMES",
    "METRIC_TEMPLATES",
    "ClassifierModel",
    "MetricResult",
    "RND",
    "RNSB",
    "WEAT",
    "ect",
    "fractional_ranks",
    "kl_from_uniform",
    "rnd",
    "rnsb",
    "spearman",
    "train_attribute_classifier",
    "weat",
]


@dataclass(frozen=True)
class MetricResult:
    """A metric's value on one resolved query, with what explains it."""

    value: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ClassifierModel:
    """Logistic model separating two attribute sets."""

    weights: np.ndarray
    bias: float
    training_loss: float

    def predict_proba(self, vectors) -> np.ndarray:
        """Probability of belonging to the first attribute class."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        return _sigmoid(vectors @ self.weights + self.bias)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; no exponent is positive, so nothing overflows."""
    z = np.asarray(z, dtype=np.float64)
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def _require_shape(metric: str, targets, attributes, label: str) -> None:
    """Raise TemplateMismatchError unless the target and attribute sets of
    query ``label``, resolved or not, number exactly the metric's template
    ``(t, a)``; RNSB also takes extra target sets."""
    template = METRIC_TEMPLATES[metric]
    n_targets, n_attributes = len(targets), len(attributes)
    extra_targets = metric == RNSB and n_targets > template.t
    if (n_targets != template.t and not extra_targets) or n_attributes != template.a:
        at_least = "at least " if metric == RNSB else ""
        raise TemplateMismatchError(
            f"{metric} needs {at_least}{template.t} target and {template.a} attribute sets; "
            f"query '{label}' has {n_targets} and {n_attributes}"
        )


def weat(rq: ResolvedQuery) -> MetricResult:
    """Word association test: summed differential association of two target
    sets with two attribute sets.

    The score is the plain sum over target words, not divided by set sizes;
    the per-set word counts are reported in diagnostics so callers can
    normalize externally.

    Each attribute row's norm and each target word's norm is computed once
    per call and passed to :func:`cosine`, which is still called once per
    (target word, attribute row) pair in the plain formula's order, so the
    value has the bits of a loop calling ``cosine(w, row)`` alone.
    """
    _require_shape(WEAT, rq.targets, rq.attributes, rq.query_label)
    t1, t2 = rq.targets
    a1, a2 = (s.matrix for s in rq.attributes)
    if a1.size == 0 or a2.size == 0:
        raise ValueError("attribute matrices must be non-empty")
    rows_1, rows_2 = ([(row, norm(row)) for row in a] for a in (a1, a2))

    def association(w) -> float:  # mean cosine with a1 minus mean cosine with a2
        w_norm = norm(w)
        return (float(np.mean([cosine(w, row, norms=(w_norm, n)) for row, n in rows_1]))
                - float(np.mean([cosine(w, row, norms=(w_norm, n)) for row, n in rows_2])))

    total = sum(association(w) for w in t1.matrix) - sum(association(w) for w in t2.matrix)
    diagnostics = {"set_sizes": {s.name: len(s.matrix) for s in rq.targets + rq.attributes}}
    return MetricResult(float(total), diagnostics)


def rnd(rq: ResolvedQuery) -> MetricResult:
    """Relative norm distance between the two target centroids and each
    attribute vector, summed over attributes.

    Negative values mean the attributes sit closer to the first target
    centroid (they are more associated with the second target group when
    the value is negative, under distance-to-centroid semantics).
    """
    _require_shape(RND, rq.targets, rq.attributes, rq.query_label)
    t1, t2 = rq.targets
    attributes = rq.attributes[0].matrix
    centroid_1 = t1.matrix.mean(axis=0)
    centroid_2 = t2.matrix.mean(axis=0)
    value = sum(
        float(np.linalg.norm(centroid_1 - row)) - float(np.linalg.norm(centroid_2 - row))
        for row in attributes
    )
    diagnostics = {
        "centroid_norms": {
            t1.name: float(np.linalg.norm(centroid_1)),
            t2.name: float(np.linalg.norm(centroid_2)),
        },
        "n_attributes": len(attributes),
    }
    return MetricResult(float(value), diagnostics)


def train_attribute_classifier(attributes_1, attributes_2,
                               seed: int = DEFAULT_SEED) -> ClassifierModel:
    """Full-batch logistic regression labelling the first attribute set 1
    and the second 0.

    Deterministic for a fixed seed: weights are initialized from a seeded
    pseudorandom stream and updated by ``CLASSIFIER_EPOCHS`` steps of plain
    gradient descent, step size ``CLASSIFIER_LR``, on the mean cross-entropy.
    Reported ``training_loss`` is the final cross-entropy.

    Each call fits a new model, except within one ``build_score_matrix``
    call with an integer seed, which scores one table: there, calls with
    identical attribute matrices and seed return one model, fitted either by
    the first of them or ahead of them in a stack.
    """
    attributes_1 = np.atleast_2d(np.asarray(attributes_1, dtype=np.float64))
    attributes_2 = np.atleast_2d(np.asarray(attributes_2, dtype=np.float64))
    if attributes_1.size == 0 or attributes_2.size == 0:
        raise ValueError("attribute matrices must be non-empty")
    if attributes_1.shape[1] != attributes_2.shape[1]:
        raise ValueError("attribute matrices must share their dimension")
    fitted = _fitted_classifiers.get()
    if fitted is None:
        return _fit_classifier(attributes_1, attributes_2, seed)
    key = _classifier_key(attributes_1, attributes_2, seed)
    model = fitted.get(key)
    if model is None:
        model = fitted[key] = _fit_classifier(attributes_1, attributes_2, seed)
    return model


def _classifier_key(attributes_1, attributes_2, seed) -> tuple:
    """Memo key of a fit: both shapes, the seed and a digest of both
    matrices; a digest rather than the raw bytes keeps the held keys small."""
    digest = hashlib.blake2b()
    for matrix in (attributes_1, attributes_2):
        digest.update(np.ascontiguousarray(matrix))
    return (attributes_1.shape, attributes_2.shape, seed, digest.digest())


@contextmanager
def _shared_classifiers(attribute_pairs, seed):
    """For the block, ``train_attribute_classifier`` calls with equal attribute
    matrices and integer seed share one model; ``build_score_matrix`` opens
    one block per table and metric. On entry, the models of these pairs of
    validated float64 matrices are fitted for an integer ``seed``, one
    stacked descent per pair of shapes. A fit that raises is not kept, nor
    is any model of a stack in which numpy meets a floating-point event it
    would report: each call that needs it fits it alone, with the warnings
    and error it always had."""
    fitted: dict | None = {}
    if not isinstance(seed, (int, np.integer)):
        fitted, attribute_pairs = None, ()  # each call then fits its own model
    stacks: dict[tuple, dict] = {}
    for attributes_1, attributes_2 in attribute_pairs:
        key = _classifier_key(attributes_1, attributes_2, seed)
        stacks.setdefault(key[:2], {})[key] = (attributes_1, attributes_2, seed)
    reported = {event: "ignore" if how == "ignore" else "raise"
                for event, how in np.geterr().items()}
    for problems in stacks.values():
        try:
            with np.errstate(**reported):
                models = _fit_classifiers(list(problems.values()))
        except FloatingPointError:
            continue
        fitted.update((key, model) for key, model in zip(problems, models) if model is not None)
    token = _fitted_classifiers.set(fitted)
    try:
        yield
    finally:
        _fitted_classifiers.reset(token)


def _fit_classifier(attributes_1, attributes_2, seed) -> ClassifierModel:
    """The training of ``train_attribute_classifier`` on two validated
    float64 matrices: a stack of one."""
    (model,) = _fit_classifiers([(attributes_1, attributes_2, seed)])
    if model is None:
        raise DivergenceError(
            f"training diverged (non-finite loss after {CLASSIFIER_EPOCHS} epochs)"
        )
    return model


def _fit_classifiers(problems) -> list[ClassifierModel | None]:
    """One model per ``(attributes_1, attributes_2, seed)`` problem, all of
    equal shapes, trained in one gradient descent over the stacked problems;
    None for a model whose loss or parameters end non-finite.

    Each model has the bits of a descent run on its problem alone: every
    product is one matrix-vector product per problem and every sum runs
    along one problem's row.
    """
    n_first = len(problems[0][0])
    x = np.stack([np.vstack([attributes_1, attributes_2])
                  for attributes_1, attributes_2, _seed in problems])
    n = x.shape[1]
    y = np.concatenate([np.ones(n_first), np.zeros(n - n_first)])
    weights = np.stack([np.random.default_rng(seed).normal(0.0, 0.01, size=x.shape[2])
                        for _a1, _a2, seed in problems])
    bias = np.zeros(len(problems))
    for _ in range(CLASSIFIER_EPOCHS):
        residual = _sigmoid(np.matmul(x, weights[:, :, None])[:, :, 0] + bias[:, None]) - y
        weights = weights - CLASSIFIER_LR * (np.matmul(residual[:, None, :], x)[:, 0] / n)
        bias = bias - CLASSIFIER_LR * (residual.sum(axis=1) / n)
    p = _sigmoid(np.matmul(x, weights[:, :, None])[:, :, 0] + bias[:, None])
    # 0*log(0) is treated as 0, so a perfectly saturated correct fit has
    # loss 0 while a saturated misfit goes non-finite.
    with np.errstate(divide="ignore"):
        log_likelihood = np.concatenate(
            [np.log(p[:, :n_first]), np.log1p(-p[:, n_first:])], axis=1
        )
    losses = -log_likelihood.mean(axis=1)
    weights.flags.writeable = False
    return [
        ClassifierModel(w, float(b), float(loss))
        if np.isfinite(loss) and np.isfinite(w).all() and np.isfinite(b) else None
        for w, b, loss in zip(weights, bias, losses)
    ]


def kl_from_uniform(p) -> float:
    """KL divergence (natural log) of a distribution from uniform over its
    support, with the 0*ln(0) = 0 convention."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("expected a non-empty probability vector")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("input is not a probability distribution")
    nonzero = p > 0
    return float(np.sum(p[nonzero] * np.log(p[nonzero] * p.size)))


def rnsb(rq: ResolvedQuery, seed: int = DEFAULT_SEED) -> MetricResult:
    """Relative sentiment bias: KL divergence of the classifier-induced
    distribution over target words from the uniform distribution.

    The distribution's support is the union of all target-set words with
    duplicates across sets counted once; diagnostics report both the raw and
    deduplicated word counts so the effect of the union can be inspected.
    ``seed`` seeds the classifier's initial weights.
    """
    _require_shape(RNSB, rq.targets, rq.attributes, rq.query_label)
    a1, a2 = rq.attributes
    model = train_attribute_classifier(a1.matrix, a2.matrix, seed)
    support: dict[str, np.ndarray] = {}  # first occurrence of each token
    for target in rq.targets:
        for token, vector in zip(target.tokens, target.matrix):
            support.setdefault(token, vector)
    probabilities = model.predict_proba(np.vstack(list(support.values())))
    mass = float(np.sum(probabilities))
    if mass <= 0.0:
        raise DegenerateDistributionError(
            "classifier assigned zero probability to every target word"
        )
    distribution = probabilities / mass
    value = max(0.0, kl_from_uniform(distribution))
    diagnostics = {
        "training_loss": model.training_loss,
        "n_target_words": sum(len(target.tokens) for target in rq.targets),
        "n_support": len(support),
    }
    return MetricResult(value, diagnostics)


def fractional_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions, and
    each NaN ranks alone, after every number, in input order."""
    # return_index makes np.unique sort stably, which keeps the NaNs in input order.
    _unique, _first, inverse, counts = np.unique(
        np.asarray(values, dtype=np.float64), return_index=True, return_inverse=True,
        return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2)[inverse]


def spearman(s1, s2) -> float:
    """Spearman rank correlation with average ranks for ties."""
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.ndim != 1 or s1.shape != s2.shape:
        raise ValueError("inputs must be one-dimensional and of equal length")
    if len(s1) < 2:
        raise ValueError("need at least two observations")
    r1 = fractional_ranks(s1)
    r2 = fractional_ranks(s2)
    if np.all(r1 == r1[0]) or np.all(r2 == r2[0]):
        raise UndefinedCorrelationError("constant input has no rank order")
    correlation = float(np.corrcoef(r1, r2)[0, 1])
    return float(np.clip(correlation, -1.0, 1.0))


def ect(rq: ResolvedQuery) -> MetricResult:
    """Coherence test: Spearman correlation between the two target centroids'
    cosine-similarity profiles over a shared attribute set. Higher correlation
    means lower bias.

    Each attribute row's norm and both centroid norms are computed once per
    call and passed to :func:`cosine`, so each profile has the bits of a loop
    calling ``cosine(centroid, row)`` alone."""
    _require_shape(ECT, rq.targets, rq.attributes, rq.query_label)
    t1, t2 = rq.targets
    attribute_set = rq.attributes[0]
    attributes = attribute_set.matrix
    if len(attributes) < 2:
        raise UndefinedCorrelationError("ECT needs at least two attribute words")
    centroid_1 = t1.matrix.mean(axis=0)
    centroid_2 = t2.matrix.mean(axis=0)
    rows = [(row, norm(row)) for row in attributes]
    norm_1, norm_2 = norm(centroid_1), norm(centroid_2)
    s1 = [cosine(centroid_1, row, norms=(norm_1, n)) for row, n in rows]
    s2 = [cosine(centroid_2, row, norms=(norm_2, n)) for row, n in rows]
    value = spearman(s1, s2)
    diagnostics = {"n_attributes": len(attributes), "attribute_set": attribute_set.name}
    return MetricResult(value, diagnostics)


METRIC_FUNCTIONS = {WEAT: weat, RND: rnd, RNSB: rnsb, ECT: ect}
