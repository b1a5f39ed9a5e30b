"""Names the command-line parser checks choices against, and the token
normalization the corpus builder shares with the embedding loader.

This module imports nothing heavier than the standard library, so the
translation-path commands (``eec``, ``translate``, ``tgbi``) start without
loading numpy.
"""

from __future__ import annotations

import unicodedata

WEAT = "WEAT"
RND = "RND"
RNSB = "RNSB"
ECT = "ECT"
METRIC_NAMES = (WEAT, RNSB, RND, ECT)

AGGREGATIONS = ("abs_mean", "mean")
RENDER_MODES = ("ranks", "raw")

__all__ = [
    "AGGREGATIONS",
    "ECT",
    "METRIC_NAMES",
    "RENDER_MODES",
    "RND",
    "RNSB",
    "WEAT",
    "nfc",
]


def nfc(text: str) -> str:
    """NFC-normalize a string so composed and decomposed forms compare equal."""
    return unicodedata.normalize("NFC", text)
