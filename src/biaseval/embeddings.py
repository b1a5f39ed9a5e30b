"""Word-embedding tables and the vector kernels the bias metrics consume.

Vectors are stored raw, never pre-normalized: the norm-distance metric needs
the original magnitudes, so normalization happens inside :func:`cosine` only.
Tokens are NFC-normalized at load and lookup so composed and decomposed
Devanagari spellings match.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmbeddingFormatError, EmptyResolutionError, VocabularyLossError
from .names import nfc

DEFAULT_LOST_THRESHOLD = 0.2

__all__ = [
    "DEFAULT_LOST_THRESHOLD",
    "EmbeddingTable",
    "WordResolution",
    "cosine",
    "load_word2vec_text",
    "nfc",
]


def _is_devanagari(token: str) -> bool:
    return any(0x0900 <= ord(ch) <= 0x097F for ch in token)


def _mostly_devanagari(tokens) -> bool:
    tokens = list(tokens)
    if not tokens:
        return False
    return sum(_is_devanagari(t) for t in tokens) * 2 > len(tokens)


@dataclass(frozen=True)
class WordResolution:
    """Outcome of resolving a word list against one vocabulary.

    ``found`` keeps input order and holds the vocabulary key actually matched
    (NFC-normalized, case-folded when folding was active).
    """

    found: tuple[tuple[str, np.ndarray], ...]
    dropped: tuple[str, ...]
    loss_fraction: float


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable token -> vector map with a fixed dimension."""

    name: str
    dim: int
    entries: dict[str, np.ndarray]
    fold_case_default: bool = True

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if not self.entries:
            raise ValueError(f"embedding table '{self.name}' is empty")

    @classmethod
    def from_mapping(cls, name, mapping, fold_case_default=None) -> "EmbeddingTable":
        """Build a table from a token -> components mapping, validating shapes."""
        entries: dict[str, np.ndarray] = {}
        dim = 0
        for token, components in mapping.items():
            vec = np.asarray(components, dtype=np.float64).copy()
            if vec.ndim != 1:
                raise ValueError(f"vector for {token!r} is not one-dimensional")
            if not dim:
                dim = vec.shape[0]
            if vec.shape[0] != dim:
                raise ValueError(
                    f"vector for {token!r} has {vec.shape[0]} components, expected {dim}"
                )
            if not np.isfinite(vec).all():
                raise ValueError(f"vector for {token!r} has non-finite components")
            vec.flags.writeable = False
            entries[nfc(token)] = vec
        if fold_case_default is None:
            fold_case_default = not _mostly_devanagari(entries)
        return cls(name=name, dim=dim, entries=entries, fold_case_default=fold_case_default)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return self.lookup(token) is not None

    def lookup(self, token: str, fold_case: bool | None = None) -> np.ndarray | None:
        """Return the stored vector for ``token``, or None when absent.

        The token is NFC-normalized first; with ``fold_case`` it is lowercased
        before the lookup (default on for Latin-script tables, off for
        Devanagari-dominated ones).
        """
        if not token:
            raise ValueError("token must be non-empty")
        if fold_case is None:
            fold_case = self.fold_case_default
        key = nfc(token)
        if fold_case:
            key = key.lower()
        return self.entries.get(key)

    def resolve_word_set(
        self,
        words,
        lost_threshold: float = DEFAULT_LOST_THRESHOLD,
        fold_case: bool | None = None,
        set_name: str | None = None,
    ) -> WordResolution:
        """Look up every word, dropping misses, and fail on excessive loss.

        Misses are dropped with accounting rather than silently: the fraction
        of dropped words above ``lost_threshold`` signals that the word list
        and this vocabulary are incompatible.
        """
        words = list(words)
        if not words:
            raise ValueError("words must be non-empty")
        if not 0.0 <= lost_threshold <= 1.0:
            raise ValueError("lost_threshold must lie in [0, 1]")
        if fold_case is None:
            fold_case = self.fold_case_default
        found = []
        dropped = []
        for word in words:
            key = nfc(word)
            if fold_case:
                key = key.lower()
            vec = self.entries.get(key)
            if vec is None:
                dropped.append(word)
            else:
                found.append((key, vec))
        loss = len(dropped) / len(words)
        label = f" '{set_name}'" if set_name else ""
        if not found:
            raise EmptyResolutionError(
                f"word set{label}: no word found in '{self.name}'", set_name=set_name
            )
        if loss > lost_threshold:
            raise VocabularyLossError(
                f"word set{label}: dropped {len(dropped)}/{len(words)} words in "
                f"'{self.name}' (loss {loss:.2f} > threshold {lost_threshold:.2f}): {dropped}",
                set_name=set_name,
                loss_fraction=loss,
                dropped=dropped,
            )
        return WordResolution(tuple(found), tuple(dropped), loss)


def load_word2vec_text(path, name: str | None = None) -> EmbeddingTable:
    """Load a word2vec text file.

    Expected format: a "<count> <dim>" header line, then <count>
    "<token> <component> ... <component>" lines, single-space separated,
    UTF-8; trailing spaces, as the word2vec C tool writes, are ignored.
    Duplicate tokens keep the first occurrence and are reported through a
    warning.
    """
    path = Path(path)
    entries: dict[str, np.ndarray] = {}
    duplicates = 0
    with path.open(encoding="utf-8") as handle:
        header = handle.readline().strip()
        fields = header.split()
        if len(fields) != 2:
            raise EmbeddingFormatError(f"{path}: malformed header {header!r}")
        try:
            count = int(fields[0])
            dim = int(fields[1])
        except ValueError:
            raise EmbeddingFormatError(f"{path}: malformed header {header!r}") from None
        if dim <= 0:
            raise EmbeddingFormatError(f"{path}: dimension must be positive, got {dim}")
        for lineno, raw in enumerate(handle, start=2):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.rstrip(" ").split(" ")
            token, components = parts[0], parts[1:]
            if len(components) != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} components, got {len(components)}"
                )
            try:
                vec = np.array([float(c) for c in components], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric component") from None
            if not np.isfinite(vec).all():
                raise EmbeddingFormatError(f"{path}:{lineno}: non-finite component")
            key = nfc(token)
            if key in entries:
                duplicates += 1
                continue
            vec.flags.writeable = False
            entries[key] = vec
    if not entries:
        raise EmbeddingFormatError(f"{path}: empty vocabulary")
    if len(entries) + duplicates != count:
        raise EmbeddingFormatError(
            f"{path}: header declares {count} rows, read {len(entries) + duplicates}"
        )
    if duplicates:
        warnings.warn(
            f"{path}: ignored {duplicates} duplicate token(s), first occurrence kept",
            stacklevel=2,
        )
    return EmbeddingTable(
        name=name or path.stem,
        dim=dim,
        entries=entries,
        fold_case_default=not _mostly_devanagari(entries),
    )


def cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ValueError("cosine undefined for zero-norm vectors")
    return float(np.clip(np.dot(u, v) / (norm_u * norm_v), -1.0, 1.0))
