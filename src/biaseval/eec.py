"""Gender-neutral Hindi source corpus: generation and the seven views.

Sentences cross occupation/sentiment lexicon entries with the three
third-person gender-neutral pronoun registers. The honorific pronoun takes
plural copula agreement even for a single referent, which is why each
pronoun spec carries its own copula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .names import FIELD_BREAK_RE, nfc

CATEGORIES = ("occupation", "positive", "negative")
REGISTERS = ("formal_impolite", "formal_polite", "informal")
VIEW_NAMES = ("informal", "formal", "impolite", "polite", "positive", "negative", "occupation")

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
    "VIEW_NAMES",
    "build_views",
    "generate_utterances",
    "load_lexicon",
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
    path = Path(path)
    entries: list[str] = []
    seen: set[str] = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key = nfc(line)
        if key in seen:
            continue
        seen.add(key)
        entries.append(key)
    if not entries:
        raise ValueError(f"{path}: lexicon is empty after filtering")
    return Lexicon(category, tuple(entries))


def generate_utterances(lexicons, pronouns=DEFAULT_PRONOUNS, templates=None) -> list[Utterance]:
    """Cross every lexicon entry with every pronoun register.

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
    merged_templates = dict(DEFAULT_TEMPLATES)
    merged_templates.update(templates or {})
    utterances: list[Utterance] = []
    seen_texts: set[str] = set()
    next_id = 1
    for lexicon in lexicons:
        try:
            template = merged_templates[lexicon.category]
        except KeyError:
            raise ValueError(f"no template for lexicon category '{lexicon.category}'") from None
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
    """Slice the corpus into its seven overlapping views.

    The three register views partition the corpus, as do the three lexicon
    views; formal is the disjoint union of polite and impolite.
    """
    utterances = list(utterances)
    by_register = {register: [] for register in REGISTERS}
    by_category = {category: [] for category in CATEGORIES}
    formal: list[int] = []
    for utterance in utterances:
        if utterance.register not in by_register:
            raise ValueError(f"utterance {utterance.id} has unknown register '{utterance.register}'")
        if utterance.lexicon_category not in by_category:
            raise ValueError(
                f"utterance {utterance.id} has unknown category '{utterance.lexicon_category}'"
            )
        by_register[utterance.register].append(utterance.id)
        by_category[utterance.lexicon_category].append(utterance.id)
        if utterance.register in ("formal_impolite", "formal_polite"):
            formal.append(utterance.id)
    return [
        EvaluationSet("informal", tuple(by_register["informal"])),
        EvaluationSet("formal", tuple(formal)),
        EvaluationSet("impolite", tuple(by_register["formal_impolite"])),
        EvaluationSet("polite", tuple(by_register["formal_polite"])),
        EvaluationSet("positive", tuple(by_category["positive"])),
        EvaluationSet("negative", tuple(by_category["negative"])),
        EvaluationSet("occupation", tuple(by_category["occupation"])),
    ]


def write_corpus_tsv(utterances, path) -> None:
    lines = [CORPUS_HEADER]
    for utterance in utterances:
        for value in (utterance.text, utterance.register, utterance.lexicon_category, utterance.lexeme):
            if FIELD_BREAK_RE.search(value):
                raise ValueError(f"utterance {utterance.id}: field contains a tab or line break")
        lines.append(
            f"{utterance.id}\t{utterance.text}\t{utterance.register}"
            f"\t{utterance.lexicon_category}\t{utterance.lexeme}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_corpus_tsv(path) -> list[Utterance]:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CORPUS_HEADER:
        raise ValueError(f"{path}: expected header {CORPUS_HEADER!r}")
    utterances: list[Utterance] = []
    seen_ids: set[int] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 tab-separated fields")
        try:
            uid = int(parts[0])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: id must be an integer") from None
        if uid in seen_ids:
            raise ValueError(f"{path}:{lineno}: duplicate id {uid}")
        seen_ids.add(uid)
        utterances.append(Utterance(uid, parts[1], parts[2], parts[3], parts[4]))
    return utterances


def write_views_json(views, path) -> None:
    payload = {view.name: list(view.utterance_ids) for view in views}
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def read_views_json(path) -> list[EvaluationSet]:
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object mapping view name to id list")
    missing = [name for name in VIEW_NAMES if name not in data]
    if missing:
        raise ValueError(f"{path}: missing views {missing}")
    return [EvaluationSet(name, tuple(int(i) for i in data[name])) for name in VIEW_NAMES]
