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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

from .errors import JoinCoverageError, TranslationRunError
from .names import FIELD_BREAK_RE, read_tsv, write_tsv

AUTH_ENV_VAR = "BIASEVAL_HTTP_AUTH"
BACKENDS = ("file", "http")
BATCH_SIZE = 64
DEFAULT_MIN_COVERAGE = 0.95
MAX_RETRY_AFTER_S = 60
MAX_TIMEOUT_S = 3600
TRANSLATIONS_HEADER = "id\ttranslation"

__all__ = [
    "AUTH_ENV_VAR",
    "BACKENDS",
    "BATCH_SIZE",
    "BackendConfig",
    "DEFAULT_MIN_COVERAGE",
    "MAX_RETRY_AFTER_S",
    "MAX_TIMEOUT_S",
    "TranslationRecord",
    "fetch_translations_http",
    "join",
    "load_translations_tsv",
    "write_translations_tsv",
]


@dataclass(frozen=True)
class TranslationRecord:
    """One translated corpus row; ``output`` may be empty only when failed.
    ``failed`` and ``retries`` are keyword-only, so a stray third positional
    argument cannot mark a row failed."""

    id: int
    output: str
    failed: bool = field(default=False, kw_only=True)
    retries: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class BackendConfig:
    """Settings of the HTTP backend; ``location`` is the endpoint URL."""

    location: str
    timeout: float = 10.0
    retry_count: int = 2
    max_in_flight: int = 4
    retry_backoff: float = 0.5

    def __post_init__(self):
        if not 0 < self.timeout <= MAX_TIMEOUT_S:  # also rejects NaN
            raise ValueError(f"timeout (--timeout) must lie in (0, {MAX_TIMEOUT_S}]")
        if not 0 <= self.retry_count <= 5:
            raise ValueError("retry_count (--retries) must lie in [0, 5]")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight (--max-in-flight) must be at least 1")


def load_translations_tsv(path) -> list[TranslationRecord]:
    """Read "id<TAB>translation" rows; duplicate ids are an error."""
    return [TranslationRecord(record_id, output)
            for record_id, (output,) in read_tsv(path, TRANSLATIONS_HEADER)]


def write_translations_tsv(records, path) -> None:
    write_tsv(path, TRANSLATIONS_HEADER, ((record.id, record.output) for record in records))


@dataclass(frozen=True)
class _BatchFailure:
    """A batch that will not be fetched again."""

    message: str


@dataclass(frozen=True)
class _Retry:
    """A batch worth another attempt; ``retry_after`` is the server's
    ``Retry-After`` in seconds, or 0."""

    message: str
    retry_after: int = 0


def _clean(text: str) -> str:
    return FIELD_BREAK_RE.sub(" ", text)


def _retry_after(response) -> int:
    value = response.headers.get("Retry-After", "").strip()
    return min(int(value), MAX_RETRY_AFTER_S) if value.isascii() and value.isdigit() else 0


def _fetch_batch(session, cfg: BackendConfig, headers: dict, batch, attempt: int):
    """Make one attempt at ``batch``: its records, a ``_BatchFailure`` or a ``_Retry``."""
    import requests

    payload = {"texts": [{"id": u.id, "text": u.text} for u in batch]}
    try:
        response = session.post(cfg.location, json=payload, headers=headers, timeout=cfg.timeout)
    except requests.RequestException as exc:
        return _Retry(f"{type(exc).__name__}: {exc}")
    if response.status_code >= 500 or response.status_code == 429:
        return _Retry(f"HTTP {response.status_code}", _retry_after(response))
    if response.status_code != 200:
        return _BatchFailure(f"HTTP {response.status_code}")
    try:
        data = response.json()
        translations = {int(item["id"]): str(item["text"]) for item in data["translations"]}
    except (KeyError, TypeError, ValueError) as exc:
        return _Retry(f"malformed response: {exc!r}")
    records = []
    for utterance in batch:
        if utterance.id in translations:
            records.append(TranslationRecord(
                utterance.id, _clean(translations[utterance.id]), retries=attempt
            ))
        else:
            records.append(TranslationRecord(utterance.id, "", failed=True, retries=attempt))
    return records


def fetch_translations_http(cfg: BackendConfig, utterances, session=None) -> list[TranslationRecord]:
    """Fetch translations in batches of up to 64 utterances.

    Ids missing from an otherwise successful response become failed records.
    A connection error, a 5xx or 429 status or a malformed body makes a batch
    retryable; any other non-200 status fails it at once. Retryable batches
    are fetched again in rounds, up to ``cfg.retry_count`` more times: before
    round ``n`` the call sleeps once for ``cfg.retry_backoff * n`` seconds, or
    for the largest integer ``Retry-After`` of the previous round's replies if
    that is longer (capped at ``MAX_RETRY_AFTER_S``), so no worker waits out
    a backoff. A failed batch, or one still unreachable after the last round,
    aborts the run with the records completed so far attached, so the caller
    can resume. Batches may be in flight concurrently up to
    ``cfg.max_in_flight``; results are merged in corpus order regardless of
    completion order. The ``BIASEVAL_HTTP_AUTH`` environment variable, when
    set, is forwarded as the Authorization header.

    Without a ``session``, each worker thread opens its own
    ``requests.Session`` (sessions are not thread-safe) and every one is
    closed before returning; a caller-supplied session is used as given.
    """
    utterances = list(utterances)
    if not utterances:
        return []
    auth = os.environ.get(AUTH_ENV_VAR)
    headers = {"Authorization": auth} if auth else {}
    local = threading.local()
    opened = []

    def open_session():
        import requests

        local.session = requests.Session()
        opened.append(local.session)

    def fetch(batch, attempt):
        return _fetch_batch(local.session if session is None else session, cfg, headers, batch,
                            attempt)

    batches = [utterances[i : i + BATCH_SIZE] for i in range(0, len(utterances), BATCH_SIZE)]
    results = [None] * len(batches)
    pending = list(range(len(batches)))
    retry_after = 0
    workers = min(cfg.max_in_flight, len(batches))
    initializer = open_session if session is None else None
    try:
        with ThreadPoolExecutor(max_workers=workers, initializer=initializer) as pool:
            for attempt in range(cfg.retry_count + 1):
                if not pending:
                    break
                delay = max(cfg.retry_backoff * attempt, retry_after)
                if delay:
                    time.sleep(delay)
                outcomes = pool.map(fetch, [batches[i] for i in pending], repeat(attempt))
                for index, outcome in zip(pending, outcomes):
                    results[index] = outcome
                pending = [index for index in pending if isinstance(results[index], _Retry)]
                retry_after = max((results[index].retry_after for index in pending), default=0)
    finally:
        for opened_session in opened:
            opened_session.close()
    for index in pending:
        results[index] = _BatchFailure(
            f"unreachable after {cfg.retry_count + 1} attempt(s): {results[index].message}"
        )
    completed = [record for result in results if isinstance(result, list) for record in result]
    failures = [(index, result) for index, result in enumerate(results)
                if isinstance(result, _BatchFailure)]
    if failures:
        first, failure = failures[0]
        raise TranslationRunError(
            f"translation backend failed ({len(failures)} of {len(batches)} batch(es), "
            f"first batch {first}: {failure.message}); {len(completed)} record(s) completed",
            completed=completed,
        )
    return completed


def join(utterances, records, min_coverage: float = DEFAULT_MIN_COVERAGE):
    """Inner-join corpus rows with translation records on id, corpus order.

    Corpus rows without a record and orphan records are reported through a
    warning; coverage below ``min_coverage`` is an error, and a
    ``min_coverage`` outside [0, 1] is rejected before anything is joined.
    """
    if not 0 <= min_coverage <= 1:
        raise ValueError("min_coverage (--min-coverage) must lie in [0, 1]")
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
