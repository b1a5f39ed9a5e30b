"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and sizes: the same seed
writes the same bytes. Embedding files are formatted in vectorised blocks,
because a per-float formatter would take longer than the passes it feeds.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
from biaseval.translate import BATCH_SIZE

DIM = 300
RANK_ROWS = 3_000
RANK_TABLES = 3
RANK_QUERIES = 4
RANK_TARGET_SETS = 4
RANK_ATTRIBUTE_SETS = 3
RANK_SET_WORDS = 12
HTTP_FAIL_RATIO = 0.04  # share of HTTP batches whose first attempt gets a 503
LEXICON_SIZES = {"occupation": 1100, "positive": 820, "negative": 738}
# eec generates lexicon order outer, register order inner; ids count from 1.
LEXICON_ORDER = ("occupation", "positive", "negative")
REGISTER_ORDER = ("formal_impolite", "formal_polite", "informal")

# Translation mix: label -> (weight, template). "both" and "neutral" land in
# the unresolved bucket, "empty" is an empty translation.
MIX = {
    "she": (30, "she is {w}"),
    "he": (34, "he is {w}"),
    "they": (15, "they are {w}"),
    "both": (6, "he and she are {w}"),
    "neutral": (10, "the {w} one works"),
    "empty": (5, ""),
}
BUCKET_OF_LABEL = {
    "she": "she", "he": "he", "they": "they",
    "both": "unresolved", "neutral": "unresolved", "empty": "unresolved",
}
FILLERS = ("kind", "tired", "a doctor", "a teacher", "honest", "late", "rich", "brave")

_DEVANAGARI_CONSONANTS = [chr(c) for c in range(0x0915, 0x0939)]
_DEVANAGARI_SIGNS = ["", "ा", "ि", "ी", "ु", "े", "ो"]


def _rng(seed: int, stream: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{seed}:{stream}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def _random_words(rng: np.random.Generator, count: int, exclude=()) -> list[str]:
    """Distinct lowercase Latin tokens of 4 to 10 letters, none in ``exclude``."""
    taken = set(exclude)
    words: list[str] = []
    while len(words) < count:
        need = count - len(words)
        lengths = rng.integers(4, 11, size=need)
        letters = rng.integers(ord("a"), ord("z") + 1, size=(need, 10), dtype=np.uint8)
        for row, length in zip(letters, lengths):
            word = row[:length].tobytes().decode("ascii")
            if word not in taken:
                taken.add(word)
                words.append(word)
    return words[:count]


_CELL = np.dtype([("sign", "S1"), ("int", "S1"), ("dot", "S1"),
                  ("hi", "S3"), ("lo", "S3"), ("sep", "S1")])
_DIGIT = np.array([b"%d" % i for i in range(10)], dtype="S1")
_TRIPLE = np.array([b"%03d" % i for i in range(1000)], dtype="S3")


def _format_block(tokens, values: np.ndarray) -> np.ndarray:
    """word2vec text lines for ``tokens`` and their rows of ``values``.

    Every value becomes "[-]d.dddddd" (magnitudes clipped below 10). Lines
    are laid out in fixed-width fields padded with NUL bytes, which one mask
    then squeezes out, so no Python loop runs per row or per float.
    """
    rows, dim = values.shape
    names = np.array([token.encode() + b" " for token in tokens])
    width = names.dtype.itemsize
    raw = np.empty((rows, width + dim * _CELL.itemsize), dtype=np.uint8)
    raw[:, :width] = names.view(np.uint8).reshape(rows, width)
    cells = raw[:, width:].view(_CELL)
    q = np.minimum(np.rint(np.abs(values) * 1e6), 9_999_999).astype(np.int32)
    whole, frac = np.divmod(q, 1_000_000)
    hi, lo = np.divmod(frac, 1000)
    cells["sign"] = np.where(values < 0, b"-", b"")
    cells["int"] = _DIGIT[whole]
    cells["dot"] = b"."
    cells["hi"] = _TRIPLE[hi]
    cells["lo"] = _TRIPLE[lo]
    cells["sep"] = b" "
    cells["sep"][:, -1] = b"\n"
    return raw[raw != 0]


def write_word2vec(path, tokens, seed: int, stream: str, block_rows: int = 5_000) -> None:
    """Write a word2vec text file with one seeded normal vector per token.

    Tokens must be non-empty and free of spaces and NUL characters.
    """
    rng = _rng(seed, stream)
    tokens = list(tokens)
    with Path(path).open("wb") as handle:
        handle.write(f"{len(tokens)} {DIM}\n".encode())
        for start in range(0, len(tokens), block_rows):
            block = tokens[start : start + block_rows]
            handle.write(_format_block(block, rng.normal(0.0, 0.25, size=(len(block), DIM))))


def vocabulary(seed: int, stream: str, rows: int, required) -> list[str]:
    """``rows`` distinct tokens holding every ``required`` word at a seeded place."""
    required = list(dict.fromkeys(required))
    rng = _rng(seed, stream + ":vocab")
    tokens = required + _random_words(rng, rows - len(required), exclude=required)
    order = rng.permutation(len(tokens))
    return [tokens[i] for i in order]


def rank_queries(seed: int) -> list[dict]:
    """Queries of 4 target and 3 attribute sets of 12 distinct words; set
    names are unique per query so subquery deduplication keeps every combo."""
    per_query = (RANK_TARGET_SETS + RANK_ATTRIBUTE_SETS) * RANK_SET_WORDS
    words = _random_words(_rng(seed, "rank:queries"), RANK_QUERIES * per_query)
    queries = []
    for q in range(RANK_QUERIES):
        chunk = iter(words[q * per_query : (q + 1) * per_query])

        def sets(kind, count):
            return [{"name": f"q{q}_{kind}{i}",
                     "words": [next(chunk) for _ in range(RANK_SET_WORDS)]}
                    for i in range(count)]

        queries.append({"label": f"q{q}", "targets": sets("t", RANK_TARGET_SETS),
                        "attributes": sets("a", RANK_ATTRIBUTE_SETS)})
    return queries


def lexicons(seed: int) -> dict[str, list[str]]:
    """Distinct Devanagari pseudo-words, sized as the paper's lexicons."""
    rng = _rng(seed, "lexicons")
    taken: set[str] = set()
    result: dict[str, list[str]] = {}
    for category in LEXICON_ORDER:
        entries: list[str] = []
        while len(entries) < LEXICON_SIZES[category]:
            syllables = rng.integers(2, 5)
            word = "".join(
                _DEVANAGARI_CONSONANTS[rng.integers(len(_DEVANAGARI_CONSONANTS))]
                + _DEVANAGARI_SIGNS[rng.integers(len(_DEVANAGARI_SIGNS))]
                for _ in range(syllables)
            )
            if word not in taken:
                taken.add(word)
                entries.append(word)
        result[category] = entries
    return result


def corpus_size() -> int:
    return sum(LEXICON_SIZES.values()) * len(REGISTER_ORDER)


def corpus_layout() -> dict[int, tuple[str, str]]:
    """id -> (lexicon category, register), as eec assigns them."""
    layout = {}
    uid = 1
    for category in LEXICON_ORDER:
        for _ in range(LEXICON_SIZES[category]):
            for register in REGISTER_ORDER:
                layout[uid] = (category, register)
                uid += 1
    return layout


def _id_hash(seed: int, uid: int) -> int:
    digest = hashlib.blake2b(f"{seed}:mix:{uid}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


_MIX_LABELS = [label for label, (weight, _t) in MIX.items() for _ in range(weight)]


def translation_label(seed: int, uid: int) -> str:
    return _MIX_LABELS[_id_hash(seed, uid) % len(_MIX_LABELS)]


def translation_text(seed: int, uid: int) -> str:
    label = translation_label(seed, uid)
    filler = FILLERS[(_id_hash(seed, uid) >> 32) % len(FILLERS)]
    return MIX[label][1].format(w=filler)


def stub_text(seed: int, uid: int) -> str:
    """What the stub server returns for an id: never empty and id-tagged, so
    a record that went missing or was mis-assigned shows in the output."""
    return f"[{uid}] {translation_text(seed, uid)}".rstrip()


def fault_schedule(seed: int, n_sentences: int, batch_size: int, ratio: float) -> list[int]:
    """First ids of the batches whose first attempt gets a 503.

    The count is fixed at round(ratio x batches) so every seed retries the
    same number of batches; the seed picks which.
    """
    first_ids = list(range(1, n_sentences + 1, batch_size))
    count = round(ratio * len(first_ids))
    picked = _rng(seed, "faults").choice(len(first_ids), size=count, replace=False)
    return sorted(first_ids[i] for i in picked)


def http_faults(seed: int) -> list[int]:
    """The fault schedule of mt_pipeline's HTTP step, at the HTTP backend's own batch size."""
    return fault_schedule(seed, corpus_size(), BATCH_SIZE, HTTP_FAIL_RATIO)


def write_lexicons(directory: Path, seed: int) -> None:
    """One ``<category>.txt`` lexicon file per category."""
    for category, entries in lexicons(seed).items():
        (directory / f"{category}.txt").write_text("\n".join(entries) + "\n", encoding="utf-8")


def write_translations(path: Path, seed: int) -> None:
    """The pre-translated TSV for the whole corpus, from the seeded mix."""
    lines = ["id\ttranslation"]
    lines += [f"{uid}\t{translation_text(seed, uid)}" for uid in range(1, corpus_size() + 1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
