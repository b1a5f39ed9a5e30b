"""Names, defaults and file formats that the command-line parser and several
modules share: the parser's choices, the default seed and lost-word
threshold, the plain-text grid of every report table, the token
normalization the corpus builder shares with the embedding loader, and one
reader or writer per file format: UTF-8 text, a byte-order mark dropped on
reading (:func:`read_utf8`, :func:`encode_utf8`, :func:`write_utf8`,
:func:`write_utf8_files`), JSON inputs and reports (:func:`read_json`,
:func:`json_text`), lexicon-style line lists (:func:`content_lines`) and
id-keyed TSV tables (:func:`read_tsv`, :func:`write_tsv`).

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

# A tab or any line boundary ``str.splitlines`` splits on: what ends a TSV field.
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
    "content_lines",
    "encode_utf8",
    "json_text",
    "nfc",
    "read_json",
    "read_tsv",
    "read_utf8",
    "render_grid",
    "write_tsv",
    "write_utf8",
    "write_utf8_files",
]


def nfc(text: str) -> str:
    """NFC-normalize a string so composed and decomposed forms compare equal."""
    return unicodedata.normalize("NFC", text)


def read_utf8(path) -> str:
    """Text of a UTF-8 file without its byte-order mark, if any; other bytes
    raise a ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def encode_utf8(path, text: str) -> bytes:
    """``text`` as UTF-8 for the file ``path``; a lone surrogate, which has no
    UTF-8 form, raises a ValueError naming ``file:line``."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line, char = text.count("\n", 0, exc.start) + 1, text[exc.start]
        raise ValueError(f"{path}:{line}: lone surrogate {char!r} has no UTF-8 form") from None


def write_utf8(path, text: str) -> None:
    """Write ``text`` as UTF-8, making any missing parent directory once it
    is encoded, so a text :func:`encode_utf8` refuses makes nothing."""
    write_utf8_files({path: text})


def write_utf8_files(texts: dict) -> None:
    """:func:`write_utf8` of each ``{path: text}`` item, all encoded before
    any file or directory is made, so one text refused makes nothing."""
    encoded = [(Path(path), encode_utf8(path, text)) for path, text in texts.items()]
    for path, data in encoded:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def read_json(path):
    """Parsed JSON of a UTF-8 file; malformed JSON raises a ValueError naming
    the file."""
    try:
        return json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: not valid JSON ({exc.msg}: line {exc.lineno} column {exc.colno})"
        ) from None


def json_text(payload) -> str:
    """A JSON report's text: keys sorted, two-space indent, non-ASCII kept."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def content_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank, non-'#' line of a UTF-8 file."""
    lines = ((n, raw.strip()) for n, raw in enumerate(read_utf8(path).splitlines(), start=1))
    return [(n, line) for n, line in lines if line and not line.startswith("#")]


def read_tsv(path, header: str, build) -> list:
    """``build(id, *other fields)`` of each non-blank row of a TSV file headed
    ``header``, built as it is read, equal field values sharing one string. The
    first bad row (wrong field count, bad or repeated id, or a ``build``
    ValueError, as ``<file>: <message>``) or a wrong header raises a ValueError."""
    path = Path(path)
    lines = iter(read_utf8(path).splitlines())
    if next(lines, None) != header:
        raise ValueError(f"{path}: expected header {header!r}")
    width = header.count("\t") + 1
    shared: dict[str, str] = {}
    seen: set[int] = set()
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} tab-separated fields")
        try:
            row_id = int(fields[0])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: id must be an integer") from None
        if row_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate id {row_id}")
        seen.add(row_id)
        try:
            rows.append(build(row_id, *(shared.setdefault(f, f) for f in fields[1:])))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return rows


def write_tsv(path, header: str, rows) -> None:
    """Write ``header`` and one tab-joined line per row, id first, with
    :func:`write_utf8`; a field holding a tab or line break, which would split
    its row, raises a ValueError, writing nothing."""
    lines = [header]
    for row in rows:
        fields = [str(value) for value in row]
        if any(FIELD_BREAK_RE.search(field) for field in fields):
            raise ValueError(f"{path}: id {fields[0]}: field contains a tab or line break")
        lines.append("\t".join(fields))
    write_utf8(path, "\n".join(lines) + "\n")


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
