import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

import numpy as np
import pytest

from biaseval import EmbeddingTable, Query, ResolvedQuery, ResolvedSet, WordSet


def write_w2v(path, entries):
    """Write a word2vec text file from a token -> components mapping."""
    dim = len(next(iter(entries.values())))
    lines = [f"{len(entries)} {dim}"]
    for token, components in entries.items():
        lines.append(token + " " + " ".join(repr(float(c)) for c in components))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_resolved_query(targets, attributes, label="q"):
    """Build a ResolvedQuery from {set name: {token: vector}} mappings."""

    def build(sets):
        return tuple(
            ResolvedSet(name, tuple(words), np.array(list(words.values()), dtype=np.float64), ())
            for name, words in sets.items()
        )

    return ResolvedQuery(build(targets), build(attributes), query_label=label)


@pytest.fixture
def classifier_fits(monkeypatch):
    """The seed of each RNSB classifier fitted, one entry per model of a
    stacked fit, in call order, a fit that diverges or raises included;
    ``train_attribute_classifier`` calls that reuse a model add nothing."""
    from biaseval import metrics

    fit = metrics._fit_classifiers
    seeds = []

    def counted(problems):
        seeds.extend(seed for _attributes_1, _attributes_2, seed in problems)
        return fit(problems)

    monkeypatch.setattr(metrics, "_fit_classifiers", counted)
    return seeds


@pytest.fixture
def toy_table():
    return EmbeddingTable.from_mapping(
        "toy",
        {
            "east": [1.0, 0.0],
            "north": [0.0, 1.0],
            "diag": [1.0, 1.0],
            "steep": [1.0, 2.0],
            "west": [-1.0, 0.0],
        },
    )


@pytest.fixture
def weat_query():
    return Query(
        targets=(WordSet("t1", ("east",)), WordSet("t2", ("north",))),
        attributes=(WordSet("a1", ("east",)), WordSet("a2", ("north",))),
        label="toy-weat",
    )


def echo(texts, _call=None):
    """Translation items that return every posted text unchanged."""
    return [{"id": t["id"], "text": t["text"]} for t in texts]


class Post(NamedTuple):
    """One POST the translation server received."""

    connection: tuple  # the client's (host, port): one per TCP connection
    path: str
    headers: dict
    texts: list


class _TranslationHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, as real backends speak
    disable_nagle_algorithm = True  # the body must not wait on the client's delayed ACK

    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        outcome = self.server.record(Post(self.client_address, self.path, dict(self.headers), texts))
        if outcome is None:
            self.close_connection = True  # hang up without a reply
            return
        if isinstance(outcome, tuple):
            (status, headers), body = outcome, {}
        else:
            status, headers, body = 200, {}, {"translations": outcome}
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def finish(self):
        super().finish()
        self.server.closed(self.client_address)

    def log_message(self, *args):
        pass


class TranslationServer(ThreadingHTTPServer):
    """A translation backend on 127.0.0.1, served from a background thread.

    ``reply(texts, call)`` answers the ``call``-th POST (counted from 1),
    whose posted items are ``texts``, with one of: a list of translation
    items, sent as a 200 reply; a ``(status, headers)`` pair, sent with an
    empty JSON object; or None, which closes the connection unanswered.
    It echoes every text by default. ``posts`` records each POST.
    """

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _TranslationHandler)
        self.url = f"http://127.0.0.1:{self.server_port}/translate"
        self.reply = echo
        self.posts: list[Post] = []
        self.closed_connections: set = set()
        self._changed = threading.Condition()
        # A short poll interval lets shutdown() return quickly.
        threading.Thread(target=self.serve_forever, args=(0.02,), daemon=True).start()

    def record(self, post: Post):
        with self._changed:
            self.posts.append(post)
            call = len(self.posts)
        return self.reply(post.texts, call)

    def closed(self, connection) -> None:
        with self._changed:
            self.closed_connections.add(connection)
            self._changed.notify_all()

    def handle_error(self, request, client_address):
        # A client that hung up before the reply (after its timeout) is expected.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def all_closed(self, timeout: float = 10.0) -> bool:
        """Whether every connection that posted is closed, waiting up to
        ``timeout`` seconds for the server to see the clients hang up."""
        with self._changed:
            return self._changed.wait_for(
                lambda: {post.connection for post in self.posts} <= self.closed_connections,
                timeout,
            )


@pytest.fixture
def translation_server():
    server = TranslationServer()
    yield server
    server.shutdown()
    server.server_close()


CLOSE = object()  # a RawServer script entry: close the connection


def _read_request(reader) -> bytes:
    """One request's head, its ``Content-Length`` body read past; b"" once
    the client has closed the connection."""
    lines = []
    while (line := reader.readline()) not in (b"\r\n", b""):
        lines.append(line)
    if not line:
        return b""
    head = b"".join(lines)
    for header in lines[1:]:
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            reader.read(int(value))
    return head


class RawServer:
    """A TCP server on 127.0.0.1 that answers with scripted bytes, for the
    replies ``http.server`` cannot send; served from a background thread,
    one connection at a time.

    On each connection it sends ``greeting`` first. Then, while the next
    entry of ``replies`` is bytes, it reads one request and sends that
    entry; an entry CLOSE closes the connection at once, and the entries
    after it wait for the next connection. The connection also ends when
    the client closes it, and after a request that has no entry left.
    ``requests`` holds ``(connection, head)`` for each request read, the
    connections counted from 1.
    """

    def __init__(self, replies, greeting: bytes = b""):
        self.replies = list(replies)
        self.greeting = greeting
        self.requests: list[tuple[int, bytes]] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}/translate"
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        connection = 0
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return  # closed by close()
            connection += 1
            sock.settimeout(10)
            with sock, sock.makefile("rb") as reader:
                try:
                    sock.sendall(self.greeting)
                    while True:
                        if self.replies and self.replies[0] is CLOSE:
                            self.replies.pop(0)
                            break
                        head = _read_request(reader)
                        if not head:
                            break
                        self.requests.append((connection, head))
                        if not self.replies:
                            break  # nothing scripted: hang up
                        sock.sendall(self.replies.pop(0))
                except OSError:
                    pass  # the client hung up first, as after a malformed reply

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the thread blocked in accept()
        self.listener.close()


@pytest.fixture
def raw_server():
    """Start a RawServer: ``raw_server(replies, greeting=b"")``."""
    servers = []

    def start(replies, greeting: bytes = b""):
        servers.append(RawServer(replies, greeting))
        return servers[-1]

    yield start
    for server in servers:
        server.close()
