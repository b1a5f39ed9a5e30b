"""Independent brute-force transcriptions of the metric formulas.

Written directly from the formula definitions with plain loops, separate
from the library code paths, so tests can compare the two routes. The
logistic-regression replica mirrors the formula pipeline step by step, which
lets the comparison demand exact equality under a shared seed.
"""

import math
import unicodedata

import numpy as np


def cosine_oracle(u, v):
    dot = sum(x * y for x, y in zip(u, v))
    norm_u = math.sqrt(sum(x * x for x in u))
    norm_v = math.sqrt(sum(y * y for y in v))
    return dot / (norm_u * norm_v)


def weat_oracle(t1, t2, a1, a2):
    def association(w):
        mean_1 = sum(cosine_oracle(w, x) for x in a1) / len(a1)
        mean_2 = sum(cosine_oracle(w, x) for x in a2) / len(a2)
        return mean_1 - mean_2

    return sum(association(w) for w in t1) - sum(association(w) for w in t2)


def rnd_oracle(t1, t2, attributes):
    dim = len(t1[0])
    avg_1 = [sum(w[k] for w in t1) / len(t1) for k in range(dim)]
    avg_2 = [sum(w[k] for w in t2) / len(t2) for k in range(dim)]

    def norm(u):
        return math.sqrt(sum(x * x for x in u))

    total = 0.0
    for x in attributes:
        total += norm([avg_1[k] - x[k] for k in range(dim)])
        total -= norm([avg_2[k] - x[k] for k in range(dim)])
    return total


def ranks_oracle(values):
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def spearman_oracle(s1, s2):
    r1 = ranks_oracle(list(s1))
    r2 = ranks_oracle(list(s2))
    mean_1 = sum(r1) / len(r1)
    mean_2 = sum(r2) / len(r2)
    numerator = sum((a - mean_1) * (b - mean_2) for a, b in zip(r1, r2))
    denominator = math.sqrt(
        sum((a - mean_1) ** 2 for a in r1) * sum((b - mean_2) ** 2 for b in r2)
    )
    return numerator / denominator


def ect_oracle(t1, t2, attributes):
    dim = len(t1[0])
    mu_1 = [sum(w[k] for w in t1) / len(t1) for k in range(dim)]
    mu_2 = [sum(w[k] for w in t2) / len(t2) for k in range(dim)]
    s1 = [cosine_oracle(mu_1, x) for x in attributes]
    s2 = [cosine_oracle(mu_2, x) for x in attributes]
    return spearman_oracle(s1, s2)


def sigmoid_oracle(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def rnsb_oracle(target_resolutions, a1, a2, lr=0.1, epochs=500, seed=42):
    """target_resolutions: one list of (token, vector) pairs per target set."""
    a1 = np.atleast_2d(np.asarray(a1, dtype=np.float64))
    a2 = np.atleast_2d(np.asarray(a2, dtype=np.float64))
    x = np.vstack([a1, a2])
    y = np.concatenate([np.ones(len(a1)), np.zeros(len(a2))])
    n = len(x)
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 0.01, size=x.shape[1])
    bias = 0.0
    for _ in range(epochs):
        p = sigmoid_oracle(x @ weights + bias)
        weights = weights - lr * (x.T @ (p - y) / n)
        bias = bias - lr * float(np.sum(p - y) / n)
    seen = set()
    vectors = []
    for found in target_resolutions:
        for token, vector in found:
            if token in seen:
                continue
            seen.add(token)
            vectors.append(vector)
    probabilities = sigmoid_oracle(np.vstack(vectors) @ weights + bias)
    mass = float(np.sum(probabilities))
    distribution = probabilities / mass
    nonzero = distribution > 0
    kl = float(np.sum(distribution[nonzero] * np.log(distribution[nonzero] * distribution.size)))
    return max(0.0, kl)


def token_char_oracle(char):
    """Whether a character belongs to a TGBI token, by its Unicode category: a
    letter, a number or ``_`` (what Python calls a word character), or a mark
    in the Combining Diacritical Marks (U+0300-U+036F) or Devanagari
    (U+0900-U+097F) block."""
    category = unicodedata.category(char)
    if category[0] == "M":
        return 0x300 <= ord(char) <= 0x36F or 0x900 <= ord(char) <= 0x97F
    return category[0] in "LN" or char == "_"


def classify_oracle(text, she_words, he_words, they_words, first_token=False):
    """The bucket of a sentence by the written rules: the tokens of its
    lowercased NFC text, read one character at a time; a she- or he-hit alone
    wins; both are unresolved, or with ``first_token`` the earlier of the two
    first hits wins; otherwise a they-hit gives they, and no hit unresolved."""
    tokens, token = [], ""
    for char in unicodedata.normalize("NFC", text.lower()) + " ":
        if token_char_oracle(char):
            token += char
        elif token:
            tokens.append(token)
            token = ""
    she = [i for i, token in enumerate(tokens) if token in she_words]
    he = [i for i, token in enumerate(tokens) if token in he_words]
    if she and he:
        if not first_token:
            return "unresolved"
        return "she" if she[0] < he[0] else "he"
    if she:
        return "she"
    if he:
        return "he"
    for token in tokens:
        if token in they_words:
            return "they"
    return "unresolved"
