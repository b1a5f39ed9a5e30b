"""Bucket classification of translated sentences and the aggregate
translation gender bias index.

Each translated sentence lands in one of four buckets (she, he, they,
unresolved) from a token lexicon match. Per view, the resolved proportions
feed an index in [0, 1] where 1 means every gender-neutral source sentence
stayed neutral and 0 means maximally gendered output. The corpus-level index
is the mean over the seven views.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .eec import VIEW_NAMES
from .errors import DegenerateDistributionError
from .names import render_grid

BUCKET_SHE = "she"
BUCKET_HE = "he"
BUCKET_THEY = "they"
BUCKET_UNRESOLVED = "unresolved"

VARIANT_LINEAR = "linear"
VARIANT_SQRT = "sqrt"
VARIANTS = (VARIANT_LINEAR, VARIANT_SQRT)

AMBIGUOUS_POLICIES = ("unresolved", "first_token")

_TOKEN_RE = re.compile(r"\w+")
_SIMPLEX_TOLERANCE = 1e-9

__all__ = [
    "AMBIGUOUS_POLICIES",
    "BUCKET_HE",
    "BUCKET_SHE",
    "BUCKET_THEY",
    "BUCKET_UNRESOLVED",
    "BucketCounts",
    "DEFAULT_GENDER_LEXICON",
    "GenderLexicon",
    "SetScore",
    "TgbiReport",
    "VARIANTS",
    "VARIANT_LINEAR",
    "VARIANT_SQRT",
    "classify_sentence",
    "count_buckets",
    "load_gender_lexicon",
    "p_index",
    "proportions",
    "render_tgbi_table",
    "report_to_dict",
    "score_views",
]


@dataclass(frozen=True)
class GenderLexicon:
    """Disjoint lowercase token sets deciding the she/he/they buckets."""

    she_words: frozenset
    he_words: frozenset
    they_words: frozenset

    def __post_init__(self):
        for attr in ("she_words", "he_words", "they_words"):
            words = frozenset(str(w).lower() for w in getattr(self, attr))
            if not words:
                raise ValueError(f"{attr} must be non-empty")
            object.__setattr__(self, attr, words)
        if (
            self.she_words & self.he_words
            or self.she_words & self.they_words
            or self.he_words & self.they_words
        ):
            raise ValueError("gender lexicon sets must be pairwise disjoint")


# Reconstructed conventional associations around the bare she/he/they
# pronouns; override via a lexicon file for serious studies.
DEFAULT_GENDER_LEXICON = GenderLexicon(
    she_words=frozenset(
        {"she", "her", "hers", "herself", "woman", "women", "girl", "girls", "female"}
    ),
    he_words=frozenset(
        {"he", "him", "his", "himself", "man", "men", "boy", "boys", "male"}
    ),
    they_words=frozenset(
        {"they", "them", "their", "theirs", "themselves", "person", "people"}
    ),
)


def load_gender_lexicon(path) -> GenderLexicon:
    """Parse a lexicon file with "[she]", "[he]", "[they]" sections, one
    token per line; '#' starts a comment."""
    path = Path(path)
    sections: dict[str, list[str]] = {"she": [], "he": [], "they": []}
    current = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in sections:
                raise ValueError(f"{path}:{lineno}: unknown section '[{section}]'")
            current = section
            continue
        if current is None:
            raise ValueError(f"{path}:{lineno}: token before any [she]/[he]/[they] section")
        sections[current].append(line.lower())
    return GenderLexicon(
        she_words=frozenset(sections["she"]),
        he_words=frozenset(sections["he"]),
        they_words=frozenset(sections["they"]),
    )


def classify_sentence(text, lexicon: GenderLexicon = DEFAULT_GENDER_LEXICON,
                      ambiguous_policy: str = "unresolved") -> str:
    """Assign a sentence to the she/he/they/unresolved bucket.

    Tokenization is lowercase on word characters. A unique she- or he-hit
    wins even when they-words are also present; a sentence hitting both
    gendered sets is unresolved by default ('first_token' lets the earliest
    gendered token decide instead); they-words only count when no gendered
    set is hit.
    """
    if ambiguous_policy not in AMBIGUOUS_POLICIES:
        raise ValueError(f"unknown ambiguous_policy '{ambiguous_policy}'")
    tokens = _TOKEN_RE.findall(str(text).lower())
    she_hit = any(t in lexicon.she_words for t in tokens)
    he_hit = any(t in lexicon.he_words for t in tokens)
    if she_hit and he_hit:
        if ambiguous_policy == "first_token":
            for token in tokens:
                if token in lexicon.she_words:
                    return BUCKET_SHE
                if token in lexicon.he_words:
                    return BUCKET_HE
        return BUCKET_UNRESOLVED
    if she_hit:
        return BUCKET_SHE
    if he_hit:
        return BUCKET_HE
    if any(t in lexicon.they_words for t in tokens):
        return BUCKET_THEY
    return BUCKET_UNRESOLVED


@dataclass(frozen=True)
class BucketCounts:
    n_she: int
    n_he: int
    n_they: int
    n_unresolved: int
    total: int

    def __post_init__(self):
        counts = (self.n_she, self.n_he, self.n_they, self.n_unresolved)
        if any(c < 0 for c in counts):
            raise ValueError("counts cannot be negative")
        if sum(counts) != self.total:
            raise ValueError("bucket counts do not add up to the total")


def count_buckets(pairs, lexicon: GenderLexicon = DEFAULT_GENDER_LEXICON,
                  ambiguous_policy: str = "unresolved") -> BucketCounts:
    """Count buckets over (utterance, record) pairs; failed or empty
    translations count as unresolved."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs to count")
    n_she = n_he = n_they = n_unresolved = 0
    for _utterance, record in pairs:
        if record.failed or not record.output:
            n_unresolved += 1
            continue
        bucket = classify_sentence(record.output, lexicon, ambiguous_policy)
        if bucket == BUCKET_SHE:
            n_she += 1
        elif bucket == BUCKET_HE:
            n_he += 1
        elif bucket == BUCKET_THEY:
            n_they += 1
        else:
            n_unresolved += 1
    return BucketCounts(n_she, n_he, n_they, n_unresolved, len(pairs))


def proportions(counts: BucketCounts):
    """(p_he, p_she, p_they) over resolved sentences only.

    Unresolved sentences are excluded rather than forced into a bucket; they
    are reported separately so the exclusion stays visible.
    """
    resolved = counts.n_she + counts.n_he + counts.n_they
    if resolved == 0:
        raise DegenerateDistributionError("every sentence is unresolved")
    return (counts.n_he / resolved, counts.n_she / resolved, counts.n_they / resolved)


def p_index(p_he: float, p_she: float, p_they: float, variant: str = VARIANT_LINEAR) -> float:
    """Per-view neutrality index in [0, 1].

    'linear' computes p_he*p_she + p_they; 'sqrt' takes the square root of
    the same expression. Linear is the default because it reproduces the
    published per-view values; reports always label which variant ran.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant '{variant}' (expected one of {VARIANTS})")
    values = (p_he, p_she, p_they)
    if any(v < -_SIMPLEX_TOLERANCE for v in values):
        raise ValueError(f"proportions cannot be negative: {values}")
    if abs(sum(values) - 1.0) > _SIMPLEX_TOLERANCE:
        raise ValueError(f"proportions must sum to 1: {values}")
    base = p_he * p_she + p_they
    value = math.sqrt(max(base, 0.0)) if variant == VARIANT_SQRT else base
    return float(min(max(value, 0.0), 1.0))


@dataclass(frozen=True)
class SetScore:
    view: str
    size: int
    p_he: float
    p_she: float
    p_they: float
    p_index: float
    variant: str
    n_unresolved: int = 0


@dataclass(frozen=True)
class TgbiReport:
    scores: tuple[SetScore, ...]
    tgbi: float
    backend: str
    variant: str


def score_views(views, pairs, lexicon: GenderLexicon = DEFAULT_GENDER_LEXICON,
                variant: str = VARIANT_LINEAR, ambiguous_policy: str = "unresolved") -> TgbiReport:
    """Score the seven views and average their indices.

    Every view must be present, non-empty, and not fully unresolved.
    """
    by_name = {view.name: view for view in views}
    missing = [name for name in VIEW_NAMES if name not in by_name]
    if missing:
        raise ValueError(f"missing views: {missing}")
    pair_by_id = {utterance.id: (utterance, record) for utterance, record in pairs}
    scores = []
    for name in VIEW_NAMES:
        view = by_name[name]
        view_pairs = [pair_by_id[i] for i in view.utterance_ids if i in pair_by_id]
        if not view_pairs:
            raise DegenerateDistributionError(f"view '{name}' has no translated sentences")
        counts = count_buckets(view_pairs, lexicon, ambiguous_policy)
        try:
            p_he, p_she, p_they = proportions(counts)
        except DegenerateDistributionError:
            raise DegenerateDistributionError(f"view '{name}' is fully unresolved") from None
        scores.append(
            SetScore(
                name,
                counts.total,
                p_he,
                p_she,
                p_they,
                p_index(p_he, p_she, p_they, variant),
                variant,
                counts.n_unresolved,
            )
        )
    tgbi = sum(score.p_index for score in scores) / len(scores)
    backend = next(iter(pair_by_id.values()))[1].backend if pair_by_id else ""
    return TgbiReport(tuple(scores), float(tgbi), backend, variant)


def report_to_dict(report: TgbiReport) -> dict:
    return {
        "backend": report.backend,
        "variant": report.variant,
        "tgbi": report.tgbi,
        "unresolved_total": sum(score.n_unresolved for score in report.scores),
        "scores": [
            {
                "view": score.view,
                "size": score.size,
                "p_he": score.p_he,
                "p_she": score.p_she,
                "p_they": score.p_they,
                "p_index": score.p_index,
                "n_unresolved": score.n_unresolved,
            }
            for score in report.scores
        ],
    }


def render_tgbi_table(report: TgbiReport) -> str:
    """Plain-text view table: one row per view, index with the (p_she,
    p_they) pair beside it, average in the last row."""
    header = ["Sentence", "Size", report.backend or "score"]
    rows = [
        [
            score.view.capitalize(),
            str(score.size),
            f"{score.p_index:.4f} ({score.p_she:.4f}, {score.p_they:.4f})",
        ]
        for score in report.scores
    ]
    rows.append(["Average:", "", f"{report.tgbi:.4f}"])
    return render_grid(header, rows)
