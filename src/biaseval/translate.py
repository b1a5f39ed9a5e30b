"""Translation backends (pre-translated file, generic HTTP service) and
alignment of translation records with the source corpus.

The file backend is the primary, fully deterministic path. The HTTP backend
speaks a minimal JSON contract so it can front an NMT REST server or a thin
wrapper around a commercial service:

    request:  {"texts": [{"id": int, "text": str}, ...]}
    response: {"translations": [{"id": int, "text": str}, ...]}

It speaks HTTP/1.1 over a plain ``socket``: one keep-alive connection per
worker thread, straight to the URL's host (no proxy), and no redirects. Only
an ``https`` URL loads ``ssl``, on the first fetch, and verifies against the
system CA store; a plain ``http`` URL loads no TLS stack.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from urllib.parse import quote, urlsplit, urlunsplit

from .errors import JoinCoverageError, TranslationRunError
from .names import FIELD_BREAK_RE, read_tsv, tsv_text, write_utf8_files

AUTH_ENV_VAR = "BIASEVAL_HTTP_AUTH"
BACKENDS = ("file", "http")
BATCH_SIZE = 64
DEFAULT_MIN_COVERAGE = 0.95
MAX_HEADERS = 100  # per reply, and MAX_LINE bytes per line, as http.client caps them
MAX_IN_FLIGHT = 64
MAX_LINE = 65536
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
    "MAX_IN_FLIGHT",
    "MAX_RETRY_AFTER_S",
    "MAX_TIMEOUT_S",
    "RETRY_BACKOFF_S",
    "TranslationRecord",
    "fetch_translations_http",
    "join",
    "load_translations_tsv",
    "translations_tsv_text",
    "write_translations_tsv",
]


@dataclass(frozen=True, slots=True)
class TranslationRecord:
    """One translated corpus row; ``output`` is empty when a fetch failed or
    a TSV row has no text (read back with ``failed`` False). ``failed`` and
    ``retries`` are keyword-only, so a stray positional cannot mark a row failed."""

    id: int
    output: str
    failed: bool = field(default=False, kw_only=True)
    retries: int = field(default=0, kw_only=True)


def _is_endpoint(location) -> bool:
    """Whether ``location`` is an http or https URL with a host and a port
    other than 0, free of the whitespace and control characters that no
    request line can carry."""
    if not isinstance(location, str) or not location.isprintable() or " " in location:
        return False
    try:
        url = urlsplit(location)
        url.port  # raises ValueError for a port out of range
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0


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
        if not 1 <= self.max_in_flight <= MAX_IN_FLIGHT:  # each slot is a thread
            raise ValueError(f"max_in_flight (--max-in-flight) must lie in [1, {MAX_IN_FLIGHT}]")


def load_translations_tsv(path) -> list[TranslationRecord]:
    """Read "id<TAB>translation" rows; duplicate ids are an error."""
    return read_tsv(path, TRANSLATIONS_HEADER, TranslationRecord)


def translations_tsv_text(records, path) -> str:
    return tsv_text(path, TRANSLATIONS_HEADER, ((record.id, record.output) for record in records))


def write_translations_tsv(records, path) -> None:
    write_utf8_files({path: translations_tsv_text(records, path)})


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


def _retry_after(headers: dict) -> int:
    value = headers.get("retry-after", "")
    return min(int(value), MAX_RETRY_AFTER_S) if value.isascii() and value.isdigit() else 0


class ProtocolError(Exception):
    """A reply that breaks HTTP/1.1 framing: a bad status line, header or
    chunk size, a line or header count over its cap, or a short body."""


class RemoteDisconnected(ProtocolError):
    """The server closed the connection before the status line of a reply."""


_STATUS_LINE_RE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?: [^\r\n]*)?\r?\n")
_CHUNK_SIZE_RE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")


class _Connection:
    """One keep-alive HTTP/1.1 connection that posts JSON bodies to one
    endpoint. It connects on the first ``post``, is closed by any fault, by
    an HTTP/1.0 reply, by ``Connection: close`` and by a body delimited by
    the close, and its next ``post`` then reconnects. ``context`` is the
    ``ssl`` context of an ``https`` URL, None for ``http``; ``head`` is the
    request line and headers up to the ``Content-Length`` value."""

    def __init__(self, address, head: bytes, timeout: float, context):
        self.address = address
        self.head = head
        self.timeout = timeout
        self.context = context
        self.sock = self.reader = None

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def post(self, body: bytes) -> tuple[int, dict, bytes]:
        """Send one request and read its reply in full, whatever the status:
        ``(status, headers, reply)``, header names in lower case."""
        try:
            if self.sock is None:
                self._connect()
            self.sock.sendall(self.head + b"%d\r\n\r\n" % len(body) + body)
            return self._reply()
        except BaseException:
            self.close()  # the stream may stop mid-message
            raise

    def _connect(self) -> None:
        import socket

        sock = socket.create_connection(self.address, self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.context is not None:
            sock = self.context.wrap_socket(sock, server_hostname=self.address[0])
        self.sock, self.reader = sock, sock.makefile("rb")

    def _reply(self) -> tuple[int, dict, bytes]:
        status = 100
        while 100 <= status < 200:  # an interim reply precedes the final one
            line = self._line()
            if not line:
                raise RemoteDisconnected("Remote end closed connection without response")
            match = _STATUS_LINE_RE.fullmatch(line)
            if match is None:
                raise ProtocolError(f"bad status line {line!r}")
            status = int(match[2])
            headers = self._headers()
        close = match[1] == b"0" or "close" in headers.get("connection", "").lower()
        if status in (204, 304):
            reply = b""
        elif headers.get("transfer-encoding", "").lower() == "chunked":
            reply = self._chunked()
        elif "content-length" in headers:
            length = headers["content-length"]
            if not (length.isascii() and length.isdigit()):
                raise ProtocolError(f"bad Content-Length {length!r}")
            reply = self._exactly(int(length))
        else:
            reply, close = self.reader.read(), True
        if close:
            self.close()
        return status, headers, reply

    def _line(self) -> bytes:
        line = self.reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise ProtocolError(f"got more than {MAX_LINE} bytes when reading a line")
        return line

    def _headers(self) -> dict:
        """The header (or trailer) lines up to the blank line, the first
        value of each name kept."""
        headers = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._line()
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise ProtocolError(f"bad header line {line!r}")
            headers.setdefault(name.strip().lower(), value.strip())
        raise ProtocolError(f"got more than {MAX_HEADERS} headers")

    def _exactly(self, size: int) -> bytes:
        data = self.reader.read(size)
        if len(data) < size:
            raise ProtocolError(f"short body: {len(data)} of {size} bytes")
        return data

    def _chunked(self) -> bytes:
        chunks = []
        while True:
            line = self._line()
            match = _CHUNK_SIZE_RE.fullmatch(line)
            if match is None:
                raise ProtocolError(f"bad chunk size {line!r}")
            size = int(match[1], 16)
            if not size:
                self._headers()  # the trailer
                return b"".join(chunks)
            chunks.append(self._exactly(size + 2)[:-2])  # the chunk and its CRLF


def _fetch_batch(connection: _Connection, batch, attempt: int):
    """Make one attempt at ``batch``: its records, a ``_BatchFailure`` or a ``_Retry``."""
    body = json.dumps({"texts": [{"id": u.id, "text": u.text} for u in batch]}).encode()
    try:
        status, headers, reply = connection.post(body)
    except (OSError, ProtocolError) as exc:
        return _Retry(f"{type(exc).__name__}: {exc}")
    if status >= 500 or status == 429:
        return _Retry(f"HTTP {status}", _retry_after(headers))
    if status != 200:
        return _BatchFailure(f"HTTP {status}")
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
            records.append(TranslationRecord(  # a tab or line break would split its TSV row
                utterance.id, FIELD_BREAK_RE.sub(" ", translations[utterance.id]), retries=attempt
            ))
        else:
            records.append(TranslationRecord(utterance.id, "", failed=True, retries=attempt))
    return records


def _fetch_round(connect, batches, pending, attempt: int, results, workers: int) -> None:
    """Fetch the ``pending`` batches into ``results`` on ``workers`` threads,
    each with its own connection, closed when the round ends. An unexpected
    exception in a worker is re-raised here once every worker has stopped."""
    indices = iter(pending)
    lock = threading.Lock()
    errors = []

    def work():
        connection = connect()
        try:
            while True:
                with lock:
                    index = next(indices, None)
                if index is None:
                    return
                results[index] = _fetch_batch(connection, batches[index], attempt)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)
        finally:
            connection.close()

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def fetch_translations_http(cfg: BackendConfig, utterances) -> list[TranslationRecord]:
    """Fetch translations in batches of up to 64 utterances.

    Ids missing from an otherwise successful response become failed records.
    A connection or TLS error, a 5xx or 429 status or a malformed reply (one
    that breaks HTTP/1.1 framing, or a body whose item has an id that is not
    a JSON integer or a text that is not a string) makes a batch retryable;
    any other non-200 status, a redirect included, fails it at once.
    Retryable batches are fetched again in rounds, up to ``cfg.retry_count``
    more times: before round ``n`` the call sleeps once for
    ``RETRY_BACKOFF_S * n`` seconds, or for the largest integer
    ``Retry-After`` of the previous round's replies if that is longer (capped
    at ``MAX_RETRY_AFTER_S``), so no worker waits out a backoff. A failed
    batch, or one still unreachable after the last round, aborts the run with
    the records completed so far attached, so the caller can resume. Batches
    may be in flight concurrently up to ``cfg.max_in_flight``; results are
    merged in corpus order regardless of completion order. The
    ``BIASEVAL_HTTP_AUTH`` environment variable, when set, is forwarded as the
    Authorization header; a value with a control character or a character
    outside Latin-1 is rejected before any request, without quoting it.

    Each round runs its batches on up to ``cfg.max_in_flight`` threads, each
    over one keep-alive HTTP/1.1 connection on a plain ``socket`` straight to
    the URL's host, closed when the round ends, so a retry round reconnects.
    Only ``https`` loads ``ssl``, and verifies against the system CA store.
    """
    utterances = list(utterances)
    if not utterances:
        return []
    url = urlsplit(cfg.location)
    # Percent-encode the non-ASCII letters a request line cannot carry raw.
    target = quote(urlunsplit(("", "", url.path or "/", url.query, "")),
                   safe="!#$%&'()*+,/:;=?@[]~")
    auth = os.environ.get(AUTH_ENV_VAR)
    # Checked here, where the error need not quote the value.
    if auth and not all(" " <= c <= "\xff" and c != "\x7f" for c in auth):
        raise ValueError(f"{AUTH_ENV_VAR} must be Latin-1 text without control characters")
    context = None
    if url.scheme == "https":
        import ssl

        context = ssl.create_default_context()
    default_port = 443 if url.scheme == "https" else 80
    host = url.hostname if url.hostname.isascii() else url.hostname.encode("idna").decode()
    authority = f"[{host}]" if ":" in host else host
    if url.port not in (None, default_port):
        authority += f":{url.port}"
    head = (f"POST {target} HTTP/1.1\r\nHost: {authority}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\n"
            + (f"Authorization: {auth}\r\n" if auth else "")
            + "Content-Length: ").encode("latin-1")
    connect = partial(_Connection, (url.hostname, url.port or default_port), head, cfg.timeout,
                      context)

    batches = [utterances[i : i + BATCH_SIZE] for i in range(0, len(utterances), BATCH_SIZE)]
    results = [None] * len(batches)
    pending = list(range(len(batches)))
    retry_after = 0
    for attempt in range(cfg.retry_count + 1):
        if not pending:
            break
        if attempt:
            time.sleep(max(RETRY_BACKOFF_S * attempt, retry_after))
        _fetch_round(connect, batches, pending, attempt, results,
                     min(cfg.max_in_flight, len(pending)))
        pending = [index for index in pending if isinstance(results[index], _Retry)]
        retry_after = max((results[index].retry_after for index in pending), default=0)
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
