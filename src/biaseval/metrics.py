"""Fairness metric kernels: WEAT, RND, RNSB, ECT and their primitives.

All four metrics consume a :class:`~biaseval.queries.ResolvedQuery`. WEAT and
ECT are cosine-based and scale-invariant; RND works on raw norms and scales
linearly with the embedding scale; RNSB trains a deterministic logistic
classifier on the attribute sets and measures how unevenly it scores the
target words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import cosine
from .errors import (
    DegenerateDistributionError,
    DivergenceError,
    TemplateMismatchError,
    UndefinedCorrelationError,
)
from .names import DEFAULT_SEED, ECT, METRIC_NAMES, RND, RNSB, WEAT
from .queries import QueryTemplate, ResolvedQuery

DEFAULT_CLASSIFIER_HYPER = {"lr": 0.1, "epochs": 500, "seed": DEFAULT_SEED}

# Shape each metric demands; RNSB additionally accepts extra target sets.
METRIC_TEMPLATES = {
    WEAT: QueryTemplate(2, 2),
    RND: QueryTemplate(2, 1),
    RNSB: QueryTemplate(2, 2),
    ECT: QueryTemplate(2, 1),
}

__all__ = [
    "DEFAULT_CLASSIFIER_HYPER",
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
    "weat_association",
]


@dataclass(frozen=True)
class MetricResult:
    metric: str
    value: float
    query_label: str
    embedding_name: str
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
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def _require_shape(rq: ResolvedQuery, n_targets: int, n_attributes: int, metric: str) -> None:
    if len(rq.target_vectors) != n_targets or len(rq.attribute_vectors) != n_attributes:
        raise TemplateMismatchError(
            f"{metric} needs {n_targets} target and {n_attributes} attribute sets; "
            f"query '{rq.query_label}' has {len(rq.target_vectors)} and "
            f"{len(rq.attribute_vectors)}"
        )


def weat_association(w, attributes_1, attributes_2) -> float:
    """Mean cosine of ``w`` with the first attribute matrix minus the second."""
    attributes_1 = np.atleast_2d(np.asarray(attributes_1, dtype=np.float64))
    attributes_2 = np.atleast_2d(np.asarray(attributes_2, dtype=np.float64))
    if attributes_1.size == 0 or attributes_2.size == 0:
        raise ValueError("attribute matrices must be non-empty")
    mean_1 = float(np.mean([cosine(w, row) for row in attributes_1]))
    mean_2 = float(np.mean([cosine(w, row) for row in attributes_2]))
    return mean_1 - mean_2


def weat(rq: ResolvedQuery) -> MetricResult:
    """Word association test: summed differential association of two target
    sets with two attribute sets.

    The score is the plain sum over target words, not divided by set sizes;
    the per-set word counts are reported in diagnostics so callers can
    normalize externally.
    """
    _require_shape(rq, 2, 2, WEAT)
    (t1_name, t1), (t2_name, t2) = rq.target_vectors
    (a1_name, a1), (a2_name, a2) = rq.attribute_vectors
    total = sum(weat_association(w, a1, a2) for w in t1) - sum(
        weat_association(w, a1, a2) for w in t2
    )
    diagnostics = {
        "set_sizes": {t1_name: len(t1), t2_name: len(t2), a1_name: len(a1), a2_name: len(a2)}
    }
    return MetricResult(WEAT, float(total), rq.query_label, rq.embedding_name, diagnostics)


def rnd(rq: ResolvedQuery) -> MetricResult:
    """Relative norm distance between the two target centroids and each
    attribute vector, summed over attributes.

    Negative values mean the attributes sit closer to the first target
    centroid (they are more associated with the second target group when
    the value is negative, under distance-to-centroid semantics).
    """
    _require_shape(rq, 2, 1, RND)
    (t1_name, t1), (t2_name, t2) = rq.target_vectors
    (_a_name, attributes) = rq.attribute_vectors[0]
    centroid_1 = t1.mean(axis=0)
    centroid_2 = t2.mean(axis=0)
    value = sum(
        float(np.linalg.norm(centroid_1 - row)) - float(np.linalg.norm(centroid_2 - row))
        for row in attributes
    )
    diagnostics = {
        "centroid_norms": {
            t1_name: float(np.linalg.norm(centroid_1)),
            t2_name: float(np.linalg.norm(centroid_2)),
        },
        "n_attributes": len(attributes),
    }
    return MetricResult(RND, float(value), rq.query_label, rq.embedding_name, diagnostics)


def train_attribute_classifier(attributes_1, attributes_2, hyper=None) -> ClassifierModel:
    """Full-batch logistic regression labelling the first attribute set 1
    and the second 0.

    Deterministic for a fixed seed: weights are initialized from a seeded
    pseudorandom stream and updated by plain gradient descent on the mean
    cross-entropy. Reported ``training_loss`` is the final cross-entropy.
    """
    settings = dict(DEFAULT_CLASSIFIER_HYPER)
    settings.update(hyper or {})
    lr = float(settings["lr"])
    epochs = int(settings["epochs"])
    seed = int(settings["seed"])
    attributes_1 = np.atleast_2d(np.asarray(attributes_1, dtype=np.float64))
    attributes_2 = np.atleast_2d(np.asarray(attributes_2, dtype=np.float64))
    if attributes_1.size == 0 or attributes_2.size == 0:
        raise ValueError("attribute matrices must be non-empty")
    if attributes_1.shape[1] != attributes_2.shape[1]:
        raise ValueError("attribute matrices must share their dimension")
    x = np.vstack([attributes_1, attributes_2])
    y = np.concatenate([np.ones(len(attributes_1)), np.zeros(len(attributes_2))])
    n = len(x)
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 0.01, size=x.shape[1])
    bias = 0.0
    for _ in range(epochs):
        p = _sigmoid(x @ weights + bias)
        weights = weights - lr * (x.T @ (p - y) / n)
        bias = bias - lr * float(np.sum(p - y) / n)
    p = _sigmoid(x @ weights + bias)
    # 0*log(0) is treated as 0, so a perfectly saturated correct fit has
    # loss 0 while a saturated misfit goes non-finite.
    with np.errstate(divide="ignore"):
        log_likelihood = np.empty_like(p)
        positive = y == 1
        log_likelihood[positive] = np.log(p[positive])
        log_likelihood[~positive] = np.log1p(-p[~positive])
    loss = -float(np.mean(log_likelihood))
    if not (np.isfinite(loss) and np.isfinite(weights).all() and np.isfinite(bias)):
        raise DivergenceError(
            f"training diverged (non-finite loss after {epochs} epochs); "
            f"try a smaller lr than {lr}"
        )
    weights.flags.writeable = False
    return ClassifierModel(weights, float(bias), loss)


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


def rnsb(rq: ResolvedQuery, hyper=None) -> MetricResult:
    """Relative sentiment bias: KL divergence of the classifier-induced
    distribution over target words from the uniform distribution.

    The distribution's support is the union of all target-set words with
    duplicates across sets counted once; diagnostics report both the raw and
    deduplicated word counts so the effect of the union can be inspected.
    """
    if len(rq.target_vectors) < 2 or len(rq.attribute_vectors) != 2:
        raise TemplateMismatchError(
            f"RNSB needs at least 2 target sets and exactly 2 attribute sets; "
            f"query '{rq.query_label}' has {len(rq.target_vectors)} and "
            f"{len(rq.attribute_vectors)}"
        )
    if len(rq.provenance) < len(rq.target_vectors):
        raise ValueError("resolved query lacks per-set provenance for its target sets")
    (_, a1), (_, a2) = rq.attribute_vectors
    model = train_attribute_classifier(a1, a2, hyper)
    tokens: list[str] = []
    vectors: list[np.ndarray] = []
    seen: set[str] = set()
    total_words = 0
    for resolution in rq.provenance[: len(rq.target_vectors)]:
        for token, vector in resolution.found:
            total_words += 1
            if token in seen:
                continue
            seen.add(token)
            tokens.append(token)
            vectors.append(vector)
    probabilities = model.predict_proba(np.vstack(vectors))
    mass = float(np.sum(probabilities))
    if mass <= 0.0:
        raise DegenerateDistributionError(
            "classifier assigned zero probability to every target word"
        )
    distribution = probabilities / mass
    value = max(0.0, kl_from_uniform(distribution))
    diagnostics = {
        "training_loss": model.training_loss,
        "n_target_words": total_words,
        "n_support": len(tokens),
    }
    return MetricResult(RNSB, value, rq.query_label, rq.embedding_name, diagnostics)


def fractional_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    start = 0
    while start < len(values):
        stop = start
        while stop + 1 < len(values) and sorted_values[stop + 1] == sorted_values[start]:
            stop += 1
        ranks[order[start : stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


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
    means lower bias."""
    _require_shape(rq, 2, 1, ECT)
    (_, t1), (_, t2) = rq.target_vectors
    (a_name, attributes) = rq.attribute_vectors[0]
    if len(attributes) < 2:
        raise ValueError("ECT needs at least two attribute words")
    centroid_1 = t1.mean(axis=0)
    centroid_2 = t2.mean(axis=0)
    s1 = [cosine(centroid_1, row) for row in attributes]
    s2 = [cosine(centroid_2, row) for row in attributes]
    value = spearman(s1, s2)
    diagnostics = {"n_attributes": len(attributes), "attribute_set": a_name}
    return MetricResult(ECT, value, rq.query_label, rq.embedding_name, diagnostics)


METRIC_FUNCTIONS = {WEAT: weat, RND: rnd, RNSB: rnsb, ECT: ect}
