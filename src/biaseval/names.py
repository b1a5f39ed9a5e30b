"""Names and defaults the command-line parser and several modules share: the
choices the parser checks against, the default seed, the plain-text grid
every report table is drawn with, what ends a TSV field, and the token
normalization the corpus builder shares with the embedding loader.

This module imports nothing heavier than the standard library, so the
translation-path commands (``eec``, ``translate``, ``tgbi``) start without
loading numpy.
"""

from __future__ import annotations

import re
import unicodedata

WEAT = "WEAT"
RND = "RND"
RNSB = "RNSB"
ECT = "ECT"
METRIC_NAMES = (WEAT, RNSB, RND, ECT)

AGGREGATIONS = ("abs_mean", "mean")
RENDER_MODES = ("ranks", "raw")

DEFAULT_SEED = 42

# A tab or any line boundary ``str.splitlines`` splits on, which the TSV readers use.
FIELD_BREAK_RE = re.compile("[\t\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")

__all__ = [
    "AGGREGATIONS",
    "DEFAULT_SEED",
    "ECT",
    "FIELD_BREAK_RE",
    "METRIC_NAMES",
    "RENDER_MODES",
    "RND",
    "RNSB",
    "WEAT",
    "nfc",
    "render_grid",
]


def nfc(text: str) -> str:
    """NFC-normalize a string so composed and decomposed forms compare equal."""
    return unicodedata.normalize("NFC", text)


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
