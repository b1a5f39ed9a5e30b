"""Translation backends (pre-translated file, generic HTTP service) and
alignment of translation records with the source corpus.

The file backend is the primary, fully deterministic path. The HTTP backend
speaks a minimal JSON contract so it can front an NMT REST server or a thin
wrapper around a commercial service:

    request:  {"texts": [{"id": int, "text": str}, ...]}
    response: {"translations": [{"id": int, "text": str}, ...]}

It runs on the standard library's ``http.client``, imported on the first
fetch: one keep-alive connection per worker thread, straight to the URL's
host (no proxy), no redirects, and the system CA store for ``https``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from urllib.parse import quote, urlsplit, urlunsplit

from .errors import JoinCoverageError, TranslationRunError
from .names import FIELD_BREAK_RE, read_tsv, write_tsv

AUTH_ENV_VAR = "BIASEVAL_HTTP_AUTH"
BACKENDS = ("file", "http")
BATCH_SIZE = 64
DEFAULT_MIN_COVERAGE = 0.95
MAX_RETRY_AFTER_S = 60
MAX_TIMEOUT_S = 3600
RETRY_BACKOFF_S = 0.5
TRANSLATIONS_HEADER = "id\ttranslation"

__all__ = [
    "AUTH_ENV_VAR",
    "BACKENDS",
    "BATCH_SIZE",
    "BackendConfig",
    "DEFAULT_MIN_COVERAGE",
    "MAX_RETRY_AFTER_S",
    "MAX_TIMEOUT_S",
    "RETRY_BACKOFF_S",
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


def _is_endpoint(location) -> bool:
    """Whether ``location`` is an http or https URL with a host, free of the
    whitespace and control characters that no request line can carry."""
    if not isinstance(location, str) or not location.isprintable() or " " in location:
        return False
    try:
        url = urlsplit(location)
        url.port  # raises ValueError for a port out of range
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


@dataclass(frozen=True)
class BackendConfig:
    """Settings of the HTTP backend; ``location`` is the endpoint URL."""

    location: str
    timeout: float = 10.0
    retry_count: int = 2
    max_in_flight: int = 4

    def __post_init__(self):
        if not _is_endpoint(self.location):
            raise ValueError(
                f"location (--url) must be an http or https URL with a host, got {self.location!r}"
            )
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


def _fetch_batch(connection, target: str, headers: dict, batch, attempt: int):
    """Make one attempt at ``batch``: its records, a ``_BatchFailure`` or a ``_Retry``.
    A connection error closes ``connection``, so its next request reconnects."""
    import http.client

    body = json.dumps({"texts": [{"id": u.id, "text": u.text} for u in batch]}).encode()
    try:
        connection.request("POST", target, body, headers)
        response = connection.getresponse()
        reply = response.read()  # in full, whatever the status, so the connection stays usable
    except (OSError, http.client.HTTPException) as exc:
        connection.close()
        return _Retry(f"{type(exc).__name__}: {exc}")
    if response.status >= 500 or response.status == 429:
        return _Retry(f"HTTP {response.status}", _retry_after(response))
    if response.status != 200:
        return _BatchFailure(f"HTTP {response.status}")
    try:
        translations = {}
        for item in json.loads(reply)["translations"]:
            if type(item["id"]) is not int or not isinstance(item["text"], str):
                raise TypeError(f"item {item!r} needs an integer id and a string text")
            translations[item["id"]] = item["text"]
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


def fetch_translations_http(cfg: BackendConfig, utterances) -> list[TranslationRecord]:
    """Fetch translations in batches of up to 64 utterances.

    Ids missing from an otherwise successful response become failed records.
    A connection error, a 5xx or 429 status or a malformed body (an item
    whose id is not a JSON integer or whose text is not a string included)
    makes a batch retryable; any other non-200 status, a redirect included,
    fails it at once. Retryable batches are fetched again in rounds, up to
    ``cfg.retry_count`` more times: before round ``n`` the call sleeps once
    for ``RETRY_BACKOFF_S * n`` seconds, or for the largest integer
    ``Retry-After`` of the previous round's replies if that is longer (capped
    at ``MAX_RETRY_AFTER_S``), so no worker waits out a backoff. A failed
    batch, or one still unreachable after the last round, aborts the run with
    the records completed so far attached, so the caller can resume. Batches
    may be in flight concurrently up to ``cfg.max_in_flight``; results are
    merged in corpus order regardless of completion order. The
    ``BIASEVAL_HTTP_AUTH`` environment variable, when set, is forwarded as the
    Authorization header; a value with a control character or a character
    outside Latin-1 is rejected before any request, without quoting it.

    Each worker thread keeps one keep-alive connection to the URL's host
    (``https`` verifies against the system CA store). Connections are closed
    before each retry round and all of them before returning.
    """
    import http.client

    utterances = list(utterances)
    if not utterances:
        return []
    url = urlsplit(cfg.location)
    if url.scheme == "https":
        import ssl

        connect = partial(http.client.HTTPSConnection, url.hostname,
                          url.port or http.client.HTTPS_PORT, context=ssl.create_default_context())
    else:
        connect = partial(http.client.HTTPConnection, url.hostname,
                          url.port or http.client.HTTP_PORT)
    # Percent-encode the non-ASCII letters a request line cannot carry raw.
    target = quote(urlunsplit(("", "", url.path or "/", url.query, "")),
                   safe="!#$%&'()*+,/:;=?@[]~")
    auth = os.environ.get(AUTH_ENV_VAR)
    headers = {"Content-Type": "application/json"}
    if auth:
        # Checked here, not by http.client, whose errors quote the value.
        if not all(" " <= c <= "\xff" and c != "\x7f" for c in auth):
            raise ValueError(f"{AUTH_ENV_VAR} must be Latin-1 text without control characters")
        headers["Authorization"] = auth
    local = threading.local()
    opened = []

    def open_connection():
        local.connection = connect(timeout=cfg.timeout)
        opened.append(local.connection)

    def fetch(batch, attempt):
        return _fetch_batch(local.connection, target, headers, batch, attempt)

    batches = [utterances[i : i + BATCH_SIZE] for i in range(0, len(utterances), BATCH_SIZE)]
    results = [None] * len(batches)
    pending = list(range(len(batches)))
    retry_after = 0
    workers = min(cfg.max_in_flight, len(batches))
    try:
        with ThreadPoolExecutor(max_workers=workers, initializer=open_connection) as pool:
            for attempt in range(cfg.retry_count + 1):
                if not pending:
                    break
                if attempt:
                    # A connection left idle through the sleep may outlive the
                    # server's keep-alive timeout, so the round reconnects.
                    for connection in opened:
                        connection.close()
                    time.sleep(max(RETRY_BACKOFF_S * attempt, retry_after))
                outcomes = pool.map(fetch, [batches[i] for i in pending], repeat(attempt))
                for index, outcome in zip(pending, outcomes):
                    results[index] = outcome
                pending = [index for index in pending if isinstance(results[index], _Retry)]
                retry_after = max((results[index].retry_after for index in pending), default=0)
    finally:
        for connection in opened:
            connection.close()
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
