"""Translation backends (pre-translated file, generic HTTP service) and
alignment of translation records with the source corpus.

The file backend is the primary, fully deterministic path. The HTTP backend
speaks a minimal JSON contract so it can front an NMT REST server or a thin
wrapper around a commercial service:

    request:  {"texts": [{"id": int, "text": str}, ...]}
    response: {"translations": [{"id": int, "text": str}, ...]}
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

from .errors import JoinCoverageError, TranslationRunError
from .names import FIELD_BREAK_RE

AUTH_ENV_VAR = "BIASEVAL_HTTP_AUTH"
BACKENDS = ("file", "http")
BATCH_SIZE = 64
DEFAULT_MIN_COVERAGE = 0.95
TRANSLATIONS_HEADER = "id\ttranslation"

__all__ = [
    "AUTH_ENV_VAR",
    "BACKENDS",
    "BATCH_SIZE",
    "BackendConfig",
    "DEFAULT_MIN_COVERAGE",
    "TranslationRecord",
    "fetch_translations_http",
    "join",
    "load_translations_tsv",
    "write_translations_tsv",
]


@dataclass(frozen=True)
class TranslationRecord:
    """One translated corpus row; ``output`` may be empty only when failed."""

    id: int
    output: str
    backend: str
    failed: bool = False
    retries: int = 0


@dataclass(frozen=True)
class BackendConfig:
    """Settings of the HTTP backend; ``location`` is the endpoint URL."""

    location: str
    timeout: float = 10.0
    retry_count: int = 2
    max_in_flight: int = 4
    retry_backoff: float = 0.5
    headers: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if not 0 <= self.retry_count <= 5:
            raise ValueError("retry_count must lie in [0, 5]")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")


def load_translations_tsv(path) -> list[TranslationRecord]:
    """Read "id<TAB>translation" rows; duplicate ids are an error."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != TRANSLATIONS_HEADER:
        raise ValueError(f"{path}: expected header {TRANSLATIONS_HEADER!r}")
    records: list[TranslationRecord] = []
    seen: set[int] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields")
        try:
            record_id = int(parts[0])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: id must be an integer") from None
        if record_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate id {record_id}")
        seen.add(record_id)
        records.append(TranslationRecord(record_id, parts[1], backend="file"))
    return records


def write_translations_tsv(records, path) -> None:
    lines = [TRANSLATIONS_HEADER]
    for record in records:
        if FIELD_BREAK_RE.search(record.output):
            raise ValueError(f"record {record.id}: output contains a tab or line break")
        lines.append(f"{record.id}\t{record.output}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class _BatchFailure(Exception):
    pass


def _clean(text: str) -> str:
    return FIELD_BREAK_RE.sub(" ", text)


def _fetch_batch(session, cfg: BackendConfig, headers: dict, batch) -> list[TranslationRecord]:
    import requests

    payload = {"texts": [{"id": u.id, "text": u.text} for u in batch]}
    last_error = "no attempt made"
    for attempt in range(cfg.retry_count + 1):
        if attempt and cfg.retry_backoff:
            time.sleep(cfg.retry_backoff * attempt)
        try:
            response = session.post(
                cfg.location, json=payload, headers=headers, timeout=cfg.timeout
            )
        except requests.RequestException as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        if response.status_code >= 500:
            last_error = f"HTTP {response.status_code}"
            continue
        if response.status_code != 200:
            raise _BatchFailure(f"HTTP {response.status_code}")
        try:
            data = response.json()
            translations = {int(item["id"]): str(item["text"]) for item in data["translations"]}
        except (KeyError, TypeError, ValueError) as exc:
            last_error = f"malformed response: {exc!r}"
            continue
        records = []
        for utterance in batch:
            if utterance.id in translations:
                records.append(
                    TranslationRecord(
                        utterance.id, _clean(translations[utterance.id]),
                        backend="http", retries=attempt,
                    )
                )
            else:
                records.append(
                    TranslationRecord(
                        utterance.id, "", backend="http", failed=True, retries=attempt
                    )
                )
        return records
    raise _BatchFailure(f"unreachable after {cfg.retry_count + 1} attempt(s): {last_error}")


def fetch_translations_http(cfg: BackendConfig, utterances, session=None) -> list[TranslationRecord]:
    """Fetch translations in batches of up to 64 utterances.

    Ids missing from an otherwise successful response become failed records;
    a batch that stays unreachable after retries aborts the run with the
    records completed so far attached, so the caller can resume. Batches may
    be in flight concurrently up to ``cfg.max_in_flight``; results are merged
    in corpus order regardless of completion order. The ``BIASEVAL_HTTP_AUTH``
    environment variable, when set, is forwarded as the Authorization header.

    Without a ``session``, each worker thread opens its own
    ``requests.Session`` (sessions are not thread-safe) and every one is
    closed before returning; a caller-supplied session is used as given.
    """
    utterances = list(utterances)
    if not utterances:
        return []
    headers = {}
    auth = os.environ.get(AUTH_ENV_VAR)
    if auth:
        headers["Authorization"] = auth
    headers.update(cfg.headers)
    local = threading.local()
    opened = []

    def open_session():
        import requests

        local.session = requests.Session()
        opened.append(local.session)

    def fetch(batch):
        return _fetch_batch(local.session if session is None else session, cfg, headers, batch)

    batches = [utterances[i : i + BATCH_SIZE] for i in range(0, len(utterances), BATCH_SIZE)]
    per_batch: dict[int, list[TranslationRecord]] = {}
    failures: dict[int, str] = {}
    workers = min(cfg.max_in_flight, len(batches))
    initializer = open_session if session is None else None
    try:
        with ThreadPoolExecutor(max_workers=workers, initializer=initializer) as pool:
            futures = {pool.submit(fetch, batch): index for index, batch in enumerate(batches)}
            for future in as_completed(futures):
                index = futures[future]
                try:
                    per_batch[index] = future.result()
                except _BatchFailure as exc:
                    failures[index] = str(exc)
    finally:
        for opened_session in opened:
            opened_session.close()
    if failures:
        completed = [record for index in sorted(per_batch) for record in per_batch[index]]
        first, message = min(failures.items())
        raise TranslationRunError(
            f"translation backend failed ({len(failures)} of {len(batches)} batch(es), "
            f"first batch {first}: {message}); {len(completed)} record(s) completed",
            completed=completed,
        )
    return [record for index in sorted(per_batch) for record in per_batch[index]]


def join(utterances, records, min_coverage: float = DEFAULT_MIN_COVERAGE):
    """Inner-join corpus rows with translation records on id, corpus order.

    Corpus rows without a record and orphan records are reported through a
    warning; coverage below ``min_coverage`` is an error.
    """
    utterances = list(utterances)
    by_id: dict[int, TranslationRecord] = {}
    for record in records:
        if record.id in by_id:
            raise ValueError(f"duplicate translation id {record.id}")
        by_id[record.id] = record
    corpus_ids = {u.id for u in utterances}
    pairs = [(u, by_id[u.id]) for u in utterances if u.id in by_id]
    n_missing = len(utterances) - len(pairs)
    orphans = [record_id for record_id in by_id if record_id not in corpus_ids]
    if n_missing or orphans:
        warnings.warn(
            f"join: {n_missing} corpus row(s) without translations; "
            f"{len(orphans)} orphan record(s)"
            + (f": {orphans}" if orphans else ""),
            stacklevel=2,
        )
    if utterances:
        coverage = len(pairs) / len(utterances)
        if coverage < min_coverage:
            raise JoinCoverageError(
                f"only {len(pairs)}/{len(utterances)} corpus rows have translations "
                f"(coverage {coverage:.3f} < minimum {min_coverage:.3f})"
            )
    return pairs
