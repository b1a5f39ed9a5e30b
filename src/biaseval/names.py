"""Names and defaults the command-line parser and several modules share: the
choices the parser checks against, the default seed and lost-word threshold,
the plain-text grid every report table is drawn with, what ends a TSV field,
the token normalization the corpus builder shares with the embedding loader,
and the UTF-8 text and JSON readers of the input files.

This module imports nothing heavier than the standard library, so the
translation-path commands (``eec``, ``translate``, ``tgbi``) start without
loading numpy.
"""

from __future__ import annotations

import json
import re
import unicodedata
from pathlib import Path

WEAT = "WEAT"
RND = "RND"
RNSB = "RNSB"
ECT = "ECT"
METRIC_NAMES = (WEAT, RNSB, RND, ECT)

AGGREGATIONS = ("abs_mean", "mean")
RENDER_MODES = ("ranks", "raw")

DEFAULT_SEED = 42
DEFAULT_LOST_THRESHOLD = 0.2

# A tab or any line boundary ``str.splitlines`` splits on, which the TSV readers use.
FIELD_BREAK_RE = re.compile("[\t\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")

__all__ = [
    "AGGREGATIONS",
    "DEFAULT_LOST_THRESHOLD",
    "DEFAULT_SEED",
    "ECT",
    "FIELD_BREAK_RE",
    "METRIC_NAMES",
    "RENDER_MODES",
    "RND",
    "RNSB",
    "WEAT",
    "nfc",
    "read_json",
    "read_utf8",
    "render_grid",
]


def nfc(text: str) -> str:
    """NFC-normalize a string so composed and decomposed forms compare equal."""
    return unicodedata.normalize("NFC", text)


def read_utf8(path) -> str:
    """Text of a UTF-8 file; other bytes raise a ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_json(path):
    """Parsed JSON of a UTF-8 file; malformed JSON raises a ValueError naming
    the file."""
    try:
        return json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: not valid JSON ({exc.msg}: line {exc.lineno} column {exc.colno})"
        ) from None


def render_grid(header, rows) -> str:
    """Left-aligned columns two spaces apart, trailing blanks stripped, one
    newline-terminated line for the header and each row."""
    widths = [
        max(len(line[c]) for line in [header] + rows) for c in range(len(header))
    ]
    lines = [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(line)).rstrip()
        for line in [header] + rows
    ]
    return "\n".join(lines) + "\n"
