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

from .names import (FIELD_BREAK_RE, content_lines, json_text, nfc, read_json, read_tsv, tsv_text,
                    write_utf8_files)

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
    "Lexicon",
    "PronounSpec",
    "REGISTERS",
    "Utterance",
    "VIEWS",
    "VIEW_NAMES",
    "build_views",
    "check_pronouns",
    "corpus_tsv_text",
    "empty_view",
    "generate_utterances",
    "load_lexicon",
    "merge_templates",
    "read_corpus_tsv",
    "read_views_json",
    "require_views",
    "views_json_text",
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
        for name, value in (("pronoun surface", self.surface), ("copula", self.copula)):
            if FIELD_BREAK_RE.search(value):
                raise ValueError(f"{name} holds a tab or line break")


@dataclass(frozen=True, slots=True)
class Utterance:
    id: int
    text: str
    register: str
    lexicon_category: str
    lexeme: str

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"utterance {self.id} has empty text")
        if self.register not in REGISTERS:
            raise ValueError(f"utterance {self.id} has unknown register '{self.register}'")
        if self.lexicon_category not in CATEGORIES:
            raise ValueError(f"utterance {self.id} has unknown category '{self.lexicon_category}'")


# vah / ve / vo; the honorific (formal polite) pronoun agrees with the
# plural copula even for a single referent.
DEFAULT_PRONOUNS = (
    PronounSpec("वह", "formal_impolite", "है"),
    PronounSpec("वे", "formal_polite", "हैं"),
    PronounSpec("वो", "informal", "है"),
)

DEFAULT_TEMPLATES = {category: "{pronoun} {lexeme} {copula}" for category in CATEGORIES}


def load_lexicon(path, category: str) -> Lexicon:
    """One entry per line; blank lines and '#' comments ignored; duplicates
    keep the first occurrence. An entry holding a tab, which would split its
    corpus rows, raises a ValueError naming ``file:line``."""
    lines = content_lines(path)
    for lineno, line in lines:
        if FIELD_BREAK_RE.search(line):
            raise ValueError(f"{path}:{lineno}: lexicon entry holds a tab or line break")
    entries = tuple(dict.fromkeys(nfc(line) for _lineno, line in lines))
    if not entries:
        raise ValueError(f"{path}: lexicon is empty after filtering")
    return Lexicon(category, entries)


def merge_templates(templates=None) -> dict:
    """:data:`DEFAULT_TEMPLATES` overlaid by ``templates``. Each names a
    lexicon category and is a format string using ``{pronoun}`` and
    ``{lexeme}``, without which texts would collide, and no other field but
    ``{copula}``, and holds no tab or line break, which would split its corpus rows."""
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
        if FIELD_BREAK_RE.search(template):
            raise ValueError(f"template '{category}' holds a tab or line break")
        merged[category] = template
    return merged


def check_pronouns(pronouns) -> tuple[PronounSpec, ...]:
    """The pronoun specs as a tuple, checked to give every register once."""
    pronouns = tuple(pronouns)
    registers = [spec.register for spec in pronouns]
    if len(set(registers)) != len(registers):
        raise ValueError(f"duplicate registers in pronoun specs: {registers}")
    missing = [register for register in REGISTERS if register not in registers]
    if missing:
        raise ValueError(f"pronoun specs must give every register; missing {', '.join(missing)}")
    return pronouns


def _texts(lexicons, pronouns, templates):
    """Each text the lexicon entries and pronoun specs make, repeats
    included, with its register, category and lexeme, in generation order."""
    pronouns = check_pronouns(pronouns)
    merged_templates = merge_templates(templates)
    for lexicon in lexicons:
        template = merged_templates[lexicon.category]
        for lexeme in lexicon.entries:
            for spec in pronouns:
                text = template.format(pronoun=spec.surface, lexeme=lexeme, copula=spec.copula)
                yield text, spec.register, lexicon.category, lexeme


def generate_utterances(lexicons, pronouns=DEFAULT_PRONOUNS, templates=None) -> list[Utterance]:
    """Cross every lexicon entry with every pronoun register, each category
    with its template (see :func:`merge_templates`).

    Generation order is lexicon order outer, register order inner; ids are
    assigned sequentially in that order. Exact-duplicate texts are removed,
    first occurrence kept.
    """
    utterances: list[Utterance] = []
    seen_texts: set[str] = set()
    for text, register, category, lexeme in _texts(lexicons, pronouns, templates):
        if text not in seen_texts:
            seen_texts.add(text)
            utterances.append(Utterance(len(utterances) + 1, text, register, category, lexeme))
    return utterances


def empty_view(utterances) -> str | None:
    """The name of the first view of :data:`VIEWS` that selects none of
    ``utterances``, or None."""
    return next((name for name, field, values in VIEWS
                 if not any(getattr(u, field) in values for u in utterances)), None)


def require_views(utterances, lexicons, pronouns=DEFAULT_PRONOUNS, templates=None) -> None:
    """Raise a ValueError if a view of ``utterances``, which
    :func:`generate_utterances` made from the other arguments, is empty,
    naming the view and why: the first text it would select repeats an
    earlier one, of which the message names both origins."""
    name = empty_view(utterances)
    if name is None:
        return
    _name, field, values = VIEWS[VIEW_NAMES.index(name)]
    cause = "no lexicon or pronoun spec gives it"
    earlier: dict[str, tuple] = {}
    for text, *origin in _texts(lexicons, pronouns, templates):
        register, category, lexeme = origin
        if (register if field == "register" else category) in values and text in earlier:
            cause = (f"each of its texts repeats an earlier one, as the {register} pronoun "
                     f"spec's {category} text of {lexeme!r} ({text!r}) repeats the "
                     "{} spec's {} text of {!r}".format(*earlier[text]))
            break
        earlier.setdefault(text, origin)
    raise ValueError(f"view '{name}' would be empty: {cause}")


def build_views(utterances) -> dict[str, tuple[int, ...]]:
    """The ids of each view of :data:`VIEWS`, by view name in
    :data:`VIEW_NAMES` order.

    The three register views partition the corpus, as do the three lexicon
    views; formal is the disjoint union of polite and impolite. Each view
    keeps corpus order.
    """
    utterances = list(utterances)
    return {name: tuple(u.id for u in utterances if getattr(u, field) in values)
            for name, field, values in VIEWS}


def corpus_tsv_text(utterances, path) -> str:
    rows = ((u.id, u.text, u.register, u.lexicon_category, u.lexeme) for u in utterances)
    return tsv_text(path, CORPUS_HEADER, rows)


def write_corpus_tsv(utterances, path) -> None:
    write_utf8_files({path: corpus_tsv_text(utterances, path)})


def read_corpus_tsv(path) -> list[Utterance]:
    return read_tsv(path, CORPUS_HEADER, Utterance)


def views_json_text(views) -> str:
    return json_text(views)


def write_views_json(views, path) -> None:
    write_utf8_files({path: views_json_text(views)})


def read_views_json(path) -> dict[str, tuple[int, ...]]:
    """The views a views file lists, as :func:`build_views` returns them."""
    path = Path(path)
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object mapping view name to id list")
    missing = [name for name in VIEW_NAMES if name not in data]
    if missing:
        raise ValueError(f"{path}: missing views {missing}")
    unknown = next((name for name in data if name not in VIEW_NAMES), None)
    if unknown is not None:
        raise ValueError(f"{path}: unknown view '{unknown}' (expected {', '.join(VIEW_NAMES)})")
    for name in VIEW_NAMES:
        ids = data[name]
        if not isinstance(ids, list) or not all(type(i) is int for i in ids):
            raise ValueError(f"{path}: view '{name}' must be a list of integer ids")
        if len(set(ids)) != len(ids):
            seen: set[int] = set()
            repeated = next(i for i in ids if i in seen or seen.add(i))
            raise ValueError(f"{path}: view '{name}' lists id {repeated} more than once")
    return {name: tuple(data[name]) for name in VIEW_NAMES}
