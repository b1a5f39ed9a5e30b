"""Gender-neutral Hindi source corpus: generation and the seven views.

Sentences cross occupation/sentiment lexicon entries with the three
third-person gender-neutral pronoun registers. The honorific pronoun takes
plural copula agreement even for a single referent, which is why each
pronoun spec carries its own copula.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from string import Formatter

from .names import content_lines, nfc, read_json, read_tsv, write_json, write_tsv

CATEGORIES = ("occupation", "positive", "negative")
REGISTERS = ("formal_impolite", "formal_polite", "informal")
# The seven views in report order: each view's name, the utterance field it
# selects on and the values of that field it holds.
VIEWS = (
    ("informal", "register", ("informal",)),
    ("formal", "register", ("formal_impolite", "formal_polite")),
    ("impolite", "register", ("formal_impolite",)),
    ("polite", "register", ("formal_polite",)),
    ("positive", "lexicon_category", ("positive",)),
    ("negative", "lexicon_category", ("negative",)),
    ("occupation", "lexicon_category", ("occupation",)),
)
VIEW_NAMES = tuple(name for name, _field, _values in VIEWS)

CORPUS_HEADER = "id\ttext\tregister\tlexicon_category\tlexeme"

__all__ = [
    "CATEGORIES",
    "DEFAULT_PRONOUNS",
    "DEFAULT_TEMPLATES",
    "EvaluationSet",
    "Lexicon",
    "PronounSpec",
    "REGISTERS",
    "Utterance",
    "VIEWS",
    "VIEW_NAMES",
    "build_views",
    "generate_utterances",
    "load_lexicon",
    "merge_templates",
    "read_corpus_tsv",
    "read_views_json",
    "write_corpus_tsv",
    "write_views_json",
]


@dataclass(frozen=True)
class Lexicon:
    category: str
    entries: tuple[str, ...]

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown lexicon category '{self.category}'")
        if not self.entries:
            raise ValueError(f"lexicon '{self.category}' is empty")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PronounSpec:
    """A pronoun surface form, its register, and the agreeing copula."""

    surface: str
    register: str
    copula: str

    def __post_init__(self):
        if not self.surface:
            raise ValueError("pronoun surface must be non-empty")
        if self.register not in REGISTERS:
            raise ValueError(f"unknown register '{self.register}'")
        if not self.copula:
            raise ValueError("copula must be non-empty")


@dataclass(frozen=True)
class Utterance:
    id: int
    text: str
    register: str
    lexicon_category: str
    lexeme: str

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"utterance {self.id} has empty text")


@dataclass(frozen=True)
class EvaluationSet:
    name: str
    utterance_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.utterance_ids)


# vah / ve / vo; the honorific (formal polite) pronoun agrees with the
# plural copula even for a single referent.
DEFAULT_PRONOUNS = (
    PronounSpec("वह", "formal_impolite", "है"),
    PronounSpec("वे", "formal_polite", "हैं"),
    PronounSpec("वो", "informal", "है"),
)

DEFAULT_TEMPLATES = {
    "occupation": "{pronoun} {lexeme} {copula}",
    "positive": "{pronoun} {lexeme} {copula}",
    "negative": "{pronoun} {lexeme} {copula}",
}


def load_lexicon(path, category: str) -> Lexicon:
    """One entry per line; blank lines and '#' comments ignored; duplicates
    keep the first occurrence."""
    entries = tuple(dict.fromkeys(nfc(line) for _lineno, line in content_lines(path)))
    if not entries:
        raise ValueError(f"{path}: lexicon is empty after filtering")
    return Lexicon(category, entries)


def merge_templates(templates=None) -> dict:
    """:data:`DEFAULT_TEMPLATES` overlaid by ``templates``. Each names a
    lexicon category and is a format string using ``{pronoun}`` and
    ``{lexeme}``, without which texts would collide, and no other field but
    ``{copula}``."""
    merged = dict(DEFAULT_TEMPLATES)
    for category, template in (templates or {}).items():
        if category not in CATEGORIES:
            raise ValueError(f"unknown template category '{category}' "
                             f"(expected one of {', '.join(CATEGORIES)})")
        try:
            template.format(pronoun="", lexeme="", copula="")
            fields = {field for _text, field, _spec, _conv in Formatter().parse(template)}
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            fields = None
        if fields is None or not fields <= {None, "pronoun", "lexeme", "copula"}:
            raise ValueError(f"template '{category}' must be a format string using only "
                             "{pronoun}, {lexeme} and {copula}")
        if not {"pronoun", "lexeme"} <= fields:
            raise ValueError(f"template '{category}' must use both {{pronoun}} and {{lexeme}}")
        merged[category] = template
    return merged


def generate_utterances(lexicons, pronouns=DEFAULT_PRONOUNS, templates=None) -> list[Utterance]:
    """Cross every lexicon entry with every pronoun register, each category
    with its template (see :func:`merge_templates`).

    Generation order is lexicon order outer, register order inner; ids are
    assigned sequentially in that order. Exact-duplicate texts are removed,
    first occurrence kept.
    """
    pronouns = tuple(pronouns)
    if not pronouns:
        raise ValueError("at least one pronoun spec is required")
    registers = [spec.register for spec in pronouns]
    if len(set(registers)) != len(registers):
        raise ValueError(f"duplicate registers in pronoun specs: {registers}")
    merged_templates = merge_templates(templates)
    utterances: list[Utterance] = []
    seen_texts: set[str] = set()
    next_id = 1
    for lexicon in lexicons:
        template = merged_templates[lexicon.category]
        for lexeme in lexicon.entries:
            for spec in pronouns:
                text = template.format(pronoun=spec.surface, lexeme=lexeme, copula=spec.copula)
                if text in seen_texts:
                    continue
                seen_texts.add(text)
                utterances.append(
                    Utterance(next_id, text, spec.register, lexicon.category, lexeme)
                )
                next_id += 1
    return utterances


def build_views(utterances) -> list[EvaluationSet]:
    """Slice the corpus into the overlapping views of :data:`VIEWS`.

    The three register views partition the corpus, as do the three lexicon
    views; formal is the disjoint union of polite and impolite. Each view
    keeps corpus order.
    """
    ids = {name: [] for name in VIEW_NAMES}
    # The id lists of the views each register, and each category, belongs to.
    by_register = {register: [] for register in REGISTERS}
    by_category = {category: [] for category in CATEGORIES}
    for name, field, values in VIEWS:
        for value in values:
            (by_register if field == "register" else by_category)[value].append(ids[name])
    for utterance in utterances:
        if utterance.register not in by_register:
            raise ValueError(f"utterance {utterance.id} has unknown register '{utterance.register}'")
        if utterance.lexicon_category not in by_category:
            raise ValueError(
                f"utterance {utterance.id} has unknown category '{utterance.lexicon_category}'"
            )
        for view_ids in by_register[utterance.register] + by_category[utterance.lexicon_category]:
            view_ids.append(utterance.id)
    return [EvaluationSet(name, tuple(ids[name])) for name in VIEW_NAMES]


def write_corpus_tsv(utterances, path) -> None:
    rows = ((u.id, u.text, u.register, u.lexicon_category, u.lexeme) for u in utterances)
    write_tsv(path, CORPUS_HEADER, rows)


def read_corpus_tsv(path) -> list[Utterance]:
    return [Utterance(uid, *fields) for uid, fields in read_tsv(path, CORPUS_HEADER)]


def write_views_json(views, path) -> None:
    write_json({view.name: list(view.utterance_ids) for view in views}, path)


def read_views_json(path) -> list[EvaluationSet]:
    path = Path(path)
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object mapping view name to id list")
    missing = [name for name in VIEW_NAMES if name not in data]
    if missing:
        raise ValueError(f"{path}: missing views {missing}")
    views = []
    for name in VIEW_NAMES:
        ids = data[name]
        if not isinstance(ids, list) or not all(type(i) is int for i in ids):
            raise ValueError(f"{path}: view '{name}' must be a list of integer ids")
        ids = tuple(ids)
        if len(set(ids)) != len(ids):
            seen: set[int] = set()
            repeated = next(i for i in ids if i in seen or seen.add(i))
            raise ValueError(f"{path}: view '{name}' lists id {repeated} more than once")
        views.append(EvaluationSet(name, ids))
    return views
