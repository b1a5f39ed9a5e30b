"""Word-embedding tables and the vector kernels the bias metrics consume.

Vectors are stored raw, never pre-normalized: the norm-distance metric needs
the original magnitudes, so normalization happens inside :func:`cosine` only.
Tokens are NFC-normalized at load and lookup so composed and decomposed
Devanagari spellings match.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmbeddingFormatError, EmptyResolutionError, VocabularyLossError, ZeroNormError
from .names import DEFAULT_LOST_THRESHOLD, integer, nfc

# Rows whose largest component magnitude lies outside
# [MIN_COMPONENT, MAX_COMPONENT] are rejected at load (all-zero rows aside):
# within it, every squared norm stays finite and normal for any dimension
# below 1e100, so cosine's sqrt(x.x) neither overflows nor underflows.
MAX_COMPONENT = 1e100
MIN_COMPONENT = 1e-100

# Characters numpy's C reader strips around a number as whitespace and
# float() refuses. The line scan calls a component holding one of them, an
# underscore or a non-ASCII character non-numeric, so both reads take one syntax.
_C_READER_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")

__all__ = [
    "EmbeddingTable",
    "ResolvedSet",
    "cosine",
    "load_word2vec_text",
    "nfc",
]


def _mostly_devanagari(tokens) -> bool:
    """Whether more than half of the tokens hold a Devanagari character."""
    devanagari = sum(any(0x0900 <= ord(ch) <= 0x097F for ch in token) for token in tokens)
    return devanagari * 2 > len(tokens)


def _peaks(matrix: np.ndarray) -> np.ndarray:
    """Largest component magnitude along the last axis, NaN where a NaN lies."""
    return np.maximum(matrix.max(axis=-1), -matrix.min(axis=-1))


def _range_error(peak: float) -> str | None:
    """Why a row whose largest component magnitude is ``peak`` is out of
    range, or None if it is not."""
    if not math.isfinite(peak):
        return "non-finite component"
    if peak > MAX_COMPONENT:
        return f"component magnitude {peak:g} above {MAX_COMPONENT:g}"
    if 0.0 < peak < MIN_COMPONENT:
        return f"largest component magnitude {peak:g} below {MIN_COMPONENT:g}"
    return None


@dataclass(frozen=True)
class ResolvedSet:
    """One word set resolved against one embedding table: row ``i`` of
    ``matrix`` is the vector of the vocabulary key ``tokens[i]``, in the set's
    word order; ``dropped`` lists the set's words the table lacks, and
    ``merged`` pairs each word that matched an earlier word's key with it."""

    name: str
    tokens: tuple[str, ...]
    matrix: np.ndarray
    dropped: tuple[str, ...]
    merged: tuple[tuple[str, str], ...] = ()

    @property
    def found(self) -> tuple[tuple[str, np.ndarray], ...]:
        """``(token, row)`` pairs of ``tokens`` and ``matrix``. Kept for the
        traced benchmark's resolve hook and the README; new code reads
        ``tokens`` and ``matrix``."""
        return tuple(zip(self.tokens, self.matrix))


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Immutable float64 vectors: row i of ``matrix`` is the vector of the NFC
    token ``tokens[i]``; a repeated token keeps its first row. Every row is
    checked here and ``matrix`` made read-only, not copied. A lookup miss is
    retried lowercased (``fold_case_default``) unless most tokens are Devanagari.
    Tables compare and hash by identity."""

    name: str
    tokens: tuple[str, ...]
    matrix: np.ndarray
    fold_case_default: bool = field(init=False)
    _rows: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        tokens, matrix = self.tokens, self.matrix
        if not tokens:
            raise ValueError(f"embedding table '{self.name}' is empty")
        if not (isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
                and matrix.ndim == 2 and matrix.shape[0] == len(tokens) and matrix.shape[1]):
            raise ValueError(f"embedding table '{self.name}': matrix must be float64 with "
                             f"{len(tokens)} rows of one or more components")
        rows: dict[str, int] = {}
        for row, token in enumerate(tokens):
            if not token:
                raise ValueError("empty token")
            rows.setdefault(token, row)
        for token, peak in zip(tokens, _peaks(matrix).tolist()):
            problem = _range_error(peak)
            if problem:
                raise ValueError(f"vector for {token!r}: {problem}")
        matrix.flags.writeable = False
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "fold_case_default", not _mostly_devanagari(rows))

    @classmethod
    def from_mapping(cls, name, mapping) -> "EmbeddingTable":
        """Build a table from a token -> components mapping, validating
        shapes; of two tokens with one NFC form, the first is kept."""
        tokens, vectors = [], []
        for token, components in mapping.items():
            vec = np.asarray(components, dtype=np.float64)
            if vec.ndim != 1:
                raise ValueError(f"vector for {token!r} is not one-dimensional")
            if vectors and vec.shape != vectors[0].shape:
                raise ValueError(f"vector for {token!r} has {vec.shape[0]} components, "
                                 f"expected {vectors[0].shape[0]}")
            tokens.append(nfc(token))
            vectors.append(vec)
        return cls(name, tuple(tokens), np.array(vectors, dtype=np.float64))

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, token: str) -> bool:
        return self.lookup(token) is not None

    def _match(self, token: str) -> tuple[str, int | None]:
        """Vocabulary key and matrix row of a token: its NFC form as given if
        stored, else its lowercase form when folding; the row is None when
        neither is stored."""
        key = nfc(token)
        row = self._rows.get(key)
        if row is None and self.fold_case_default:
            key = key.lower()
            row = self._rows.get(key)
        return key, row

    def lookup(self, token: str) -> np.ndarray | None:
        """Return the stored vector for ``token``, or None when absent.

        The token is NFC-normalized and looked up as given; when the table
        folds case, a miss is retried lowercased.
        """
        if not token:
            raise ValueError("token must be non-empty")
        row = self._match(token)[1]
        return None if row is None else self.matrix[row]

    def resolve_word_set(
        self,
        words,
        lost_threshold: float = DEFAULT_LOST_THRESHOLD,
        set_name: str = "",
    ) -> ResolvedSet:
        """Look up every word, dropping misses, and fail on excessive loss.

        Misses are dropped with accounting rather than silently: the fraction
        of dropped words above ``lost_threshold`` signals that the word list
        and this vocabulary are incompatible. Each key is found once, by its
        first word, in input order; its row is copied into the set's own
        read-only matrix.
        """
        words = list(words)
        if not words:
            raise ValueError("words must be non-empty")
        if not 0.0 <= lost_threshold <= 1.0:
            raise ValueError("lost_threshold must lie in [0, 1]")
        found = {}  # vocabulary key -> matrix row, in first-match order
        dropped, merged = [], []
        for word in words:
            key, row = self._match(word)
            if row is None:
                dropped.append(word)
            elif key in found:
                merged.append((word, key))
            else:
                found[key] = row
        loss = len(dropped) / len(words)
        label = f" '{set_name}'" if set_name else ""
        if not found:
            raise EmptyResolutionError(f"word set{label}: no word found in '{self.name}'")
        if loss > lost_threshold:
            raise VocabularyLossError(
                f"word set{label}: dropped {len(dropped)}/{len(words)} words in "
                f"'{self.name}' (loss {loss:.2f} > threshold {lost_threshold:.2f}): {dropped}"
            )
        matrix = self.matrix[list(found.values())]
        matrix.flags.writeable = False
        return ResolvedSet(set_name, tuple(found), matrix, tuple(dropped), tuple(merged))


def load_word2vec_text(path, name: str | None = None) -> EmbeddingTable:
    """Load a word2vec or GloVe text file.

    Expected format: an optional "<count> <dim>" header line, then
    "<token> <component> ... <component>" lines, single-space separated,
    UTF-8 with or without a byte-order mark; trailing spaces, as the word2vec
    C tool writes, are ignored. A first line of exactly two ASCII integers
    (``names.integer``) is the header (word2vec, fastText); otherwise (GloVe)
    the first row gives <dim>, so a header-less 1-d file whose first token
    and component are such integers reads as a header. Duplicate tokens keep
    their first row, with a warning.

    All rows are parsed by one call to numpy's C reader. A file it refuses
    is read again, each row parsed by ``float()``; the line scan calls a
    component holding ``_`` or a non-ASCII character non-numeric, so both
    reads take one syntax with the same bits. Every row is checked, and an
    error names the first bad row's ``file:line``.
    """
    path = Path(path)
    name = name or path.stem
    tokens: list[str] = []  # NFC token of each row read
    try:
        with path.open(encoding="utf-8-sig") as handle:
            rows = _scan(path, handle, tokens)
            dim = next(rows)
            matrix = np.loadtxt((text for _lineno, text in rows), delimiter=" ", comments=None,
                                quotechar=None, ndmin=2, max_rows=_row_bound(path, dim))
        table = EmbeddingTable(name, tuple(tokens), matrix)
    except (EmbeddingFormatError, ValueError):  # the exact read raises it in line order
        tokens, matrix = _read_exactly(path)
        table = EmbeddingTable(name, tuple(tokens), matrix)
    duplicates = len(tokens) - len(table)
    if duplicates:
        warnings.warn(f"{path}: ignored {duplicates} duplicate token(s), first occurrence kept",
                      stacklevel=2)
    return table


def _scan(path, handle, tokens: list):
    """Yield the dimension, then each row's line number and components,
    appending its NFC token to ``tokens``. A malformed line raises when
    reached; after the last row, so do no rows and a count unlike the header's."""
    first = handle.readline()
    if not first:
        raise EmbeddingFormatError(f"{path}: empty vocabulary")
    try:  # a "<count> <dim>" header
        count, dim = map(integer, first.split())
        lines = enumerate(handle, start=2)
    except ValueError:  # no header: the first row gives the dimension
        count, dim = None, first.rstrip("\r\n").rstrip(" ").count(" ")
        lines = enumerate(itertools.chain([first], handle), start=1)
    if dim <= 0:
        raise EmbeddingFormatError(f"{path}:1: dimension must be positive, got {dim}")
    yield dim
    for lineno, raw in lines:
        line = raw.rstrip("\r\n")
        if not line:
            continue
        line = line.rstrip(" ")
        found = line.count(" ")
        if found != dim:
            raise EmbeddingFormatError(f"{path}:{lineno}: expected {dim} components, got {found}")
        token, _, components = line.partition(" ")
        if not token:
            raise EmbeddingFormatError(f"{path}:{lineno}: empty token")
        if (not components.isascii() or "_" in components
                or any(sep in components for sep in _C_READER_ONLY_SPACES)):
            raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric component")
        tokens.append(nfc(token))
        yield lineno, components
    if not tokens:
        raise EmbeddingFormatError(f"{path}: empty vocabulary")
    if count is not None and len(tokens) != count:
        raise EmbeddingFormatError(f"{path}: header declares {count} rows, read {len(tokens)}")


def _row_bound(path, dim: int) -> int:
    """A bound above the rows the C reader can accept: one a line break, two
    bytes a component. Sized by it, the reader allocates its matrix once;
    grown, the matrix may be copied inside the heap, raising peak memory."""
    with path.open("rb") as raw:
        breaks = sum(block.count(b"\n") + block.count(b"\r")
                     for block in iter(lambda: raw.read(1 << 20), b""))
    return min(breaks, path.stat().st_size // (2 * dim)) + 1


def _read_exactly(path) -> tuple[list[str], np.ndarray]:
    """The tokens and matrix of the file, each row parsed by ``float()``;
    the first bad line raises."""
    tokens, vectors = [], []
    try:
        with path.open(encoding="utf-8-sig") as handle:
            rows = _scan(path, handle, tokens)
            next(rows)
            for lineno, components in rows:
                try:
                    vec = np.array(components.split(" "), dtype=np.float64)
                except ValueError:
                    raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric component") from None
                problem = _range_error(_peaks(vec))
                if problem:
                    raise EmbeddingFormatError(f"{path}:{lineno}: {problem}")
                vectors.append(vec)
    except UnicodeDecodeError as exc:
        raise EmbeddingFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return tokens, np.array(vectors)


def cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors, clamped to [-1, 1]; a zero
    vector raises a ZeroNormError."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    # np.linalg.norm's own sqrt(x.dot(x)); the clamp passes NaN, as np.clip does
    norm_u = math.sqrt(u.dot(u))
    norm_v = math.sqrt(v.dot(v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ZeroNormError("cosine undefined for zero-norm vectors")
    value = float(u.dot(v) / (norm_u * norm_v))
    return 1.0 if value > 1.0 else -1.0 if value < -1.0 else value
