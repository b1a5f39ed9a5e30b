"""Word-embedding tables and the vector kernels the bias metrics consume.

Vectors are stored raw, never pre-normalized: the norm-distance metric needs
the original magnitudes, so normalization happens inside :func:`cosine` only.
Tokens are NFC-normalized at load and lookup so composed and decomposed
Devanagari spellings match.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmbeddingFormatError, EmptyResolutionError, VocabularyLossError
from .names import DEFAULT_LOST_THRESHOLD, nfc

# Rows whose largest component magnitude lies outside
# [MIN_COMPONENT, MAX_COMPONENT] are rejected at load (all-zero rows aside):
# within it, every squared norm stays finite and normal for any dimension
# below 1e100, so cosine's sqrt(x.x) neither overflows nor underflows.
MAX_COMPONENT = 1e100
MIN_COMPONENT = 1e-100

# Rows per call to numpy's C reader in load_word2vec_text.
CHUNK_ROWS = 256
# Characters numpy's C reader strips around a number as whitespace and
# float() refuses; a chunk holding one is parsed row by row.
_C_READER_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")

__all__ = [
    "EmbeddingTable",
    "WordResolution",
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
class WordResolution:
    """Outcome of resolving a word list against one vocabulary.

    ``found`` keeps input order and holds the vocabulary key actually matched:
    the word's NFC form if the table has it, else, when folding, its
    lowercase form.
    """

    found: tuple[tuple[str, np.ndarray], ...]
    dropped: tuple[str, ...]
    loss_fraction: float


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

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, token: str) -> bool:
        return self.lookup(token) is not None

    def _match(self, token: str) -> tuple[str, np.ndarray | None]:
        """Vocabulary key and vector of a token: its NFC form as given if
        stored, else its lowercase form when folding; the vector is None
        when neither is stored."""
        key = nfc(token)
        row = self._rows.get(key)
        if row is None and self.fold_case_default:
            key = key.lower()
            row = self._rows.get(key)
        return key, None if row is None else self.matrix[row]

    def lookup(self, token: str) -> np.ndarray | None:
        """Return the stored vector for ``token``, or None when absent.

        The token is NFC-normalized and looked up as given; when the table
        folds case, a miss is retried lowercased.
        """
        if not token:
            raise ValueError("token must be non-empty")
        return self._match(token)[1]

    def resolve_word_set(
        self,
        words,
        lost_threshold: float = DEFAULT_LOST_THRESHOLD,
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
        found = []
        dropped = []
        for word in words:
            key, vec = self._match(word)
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
    UTF-8 with or without a byte-order mark; trailing spaces, as the
    word2vec C tool writes, are ignored. Duplicate tokens keep the first
    occurrence and are reported through a warning.

    Rows are parsed in chunks of ``CHUNK_ROWS`` by numpy's C reader; a chunk
    it refuses is parsed row by row as ``float()`` would, which accepts a
    superset of the reader's syntax with the same bits. Every row is
    checked, and an error names the first bad row's ``file:line``.
    """
    path = Path(path)
    tokens: list[str] = []  # NFC token of each row read
    blocks: list[np.ndarray] = []  # parsed chunks of rows
    chunk: list[tuple[int, str, str]] = []  # (line number, token, components)
    problem = None
    try:
        with path.open(encoding="utf-8-sig") as handle:
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
                line = line.rstrip(" ")
                found = line.count(" ")
                if found != dim:
                    problem = f"{path}:{lineno}: expected {dim} components, got {found}"
                    break
                token, _, components = line.partition(" ")
                if not token:
                    problem = f"{path}:{lineno}: empty token"
                    break
                chunk.append((lineno, token, components))
                tokens.append(nfc(token))
                if len(chunk) == CHUNK_ROWS:
                    blocks.append(_parse_chunk(path, chunk, dim))
                    chunk = []
    except UnicodeDecodeError as exc:
        problem = f"{path}: not UTF-8 text ({exc.reason})"
    if chunk:  # checked before the problem below, which lies further on
        blocks.append(_parse_chunk(path, chunk, dim))
    if problem:
        raise EmbeddingFormatError(problem)
    if not tokens:
        raise EmbeddingFormatError(f"{path}: empty vocabulary")
    if len(tokens) != count:
        raise EmbeddingFormatError(f"{path}: header declares {count} rows, read {len(tokens)}")
    table = EmbeddingTable(name or path.stem, tuple(tokens), np.concatenate(blocks))
    duplicates = len(tokens) - len(table)
    if duplicates:
        warnings.warn(f"{path}: ignored {duplicates} duplicate token(s), first occurrence kept",
                      stacklevel=2)
    return table


def _parse_chunk(path, chunk, dim: int) -> np.ndarray:
    """The rows of a chunk, parsed in one call to numpy's C reader when it
    accepts every row and every row is in range; otherwise row by row,
    which raises at the first bad row."""
    texts = [components for _lineno, _token, components in chunk]
    if any(sep in text for text in texts for sep in _C_READER_ONLY_SPACES):
        return _parse_rows_exactly(path, chunk)
    try:
        block = np.loadtxt(texts, delimiter=" ", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return _parse_rows_exactly(path, chunk)
    if block.shape != (len(chunk), dim) or any(map(_range_error, _peaks(block).tolist())):
        return _parse_rows_exactly(path, chunk)
    return block


def _parse_rows_exactly(path, chunk) -> np.ndarray:
    """The rows of a chunk parsed one by one with ``float()``'s syntax; the
    first row that does not parse or is out of range raises."""
    vectors = []
    for lineno, _token, components in chunk:
        try:
            vec = np.array(components.split(" "), dtype=np.float64)
        except ValueError:
            raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric component") from None
        problem = _range_error(_peaks(vec))
        if problem:
            raise EmbeddingFormatError(f"{path}:{lineno}: {problem}")
        vectors.append(vec)
    return np.array(vectors)


def cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    # np.linalg.norm's own sqrt(x.dot(x)); the clamp passes NaN, as np.clip does
    norm_u = math.sqrt(u.dot(u))
    norm_v = math.sqrt(v.dot(v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ValueError("cosine undefined for zero-norm vectors")
    value = float(u.dot(v) / (norm_u * norm_v))
    return 1.0 if value > 1.0 else -1.0 if value < -1.0 else value
