import json
import sys
import threading
from collections import defaultdict
from dataclasses import FrozenInstanceError

import pytest

from biaseval import BackendConfig, fetch_translations_http, join, load_translations_tsv
from biaseval import translate
from biaseval.eec import Utterance
from biaseval.errors import JoinCoverageError, TranslationRunError
from biaseval.names import write_utf8_files
from biaseval.translate import TranslationRecord, translations_tsv_text
from conftest import CLOSE, echo

CLOSED_PORT_URL = "http://127.0.0.1:9/translate"


def utterances(n):
    return [Utterance(i, f"वाक्य {i}", "informal", "positive", f"w{i}") for i in range(1, n + 1)]


def failing_first(failures):
    """Reply that answers 503 to the first ``failures[id]`` posts of the
    batch starting at ``id`` and echoes every other post."""
    posts = {}

    def reply(texts, call):
        first = texts[0]["id"]
        posts[first] = posts.get(first, 0) + 1
        if posts[first] <= failures.get(first, 0):
            return 503, {}
        return echo(texts)

    return reply


class TestLoadTranslationsTsv:
    def test_single_row(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("id\ttranslation\n1\tshe is a doctor\n", encoding="utf-8")
        records = load_translations_tsv(path)
        assert len(records) == 1
        assert records[0].id == 1
        assert records[0].output == "she is a doctor"

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("id\ttranslation\n1\ta\n1\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate id 1"):
            load_translations_tsv(path)

    @pytest.mark.parametrize("row_id", ["x7", "1_0", "+2", " 3", "3 ", "\u0663", "\uff13", "-"],
                             ids=["letter", "underscore", "plus", "leading_space",
                                  "trailing_space", "arabic_indic_digit", "fullwidth_digit",
                                  "minus_only"])
    def test_non_integer_id(self, tmp_path, row_id):
        """Only ASCII digits with an optional minus make an id, not the rest
        of int()'s syntax."""
        path = tmp_path / "t.tsv"
        path.write_text(f"id\ttranslation\n1\ta\n{row_id}\tb\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_translations_tsv(path)
        assert str(info.value) == f"{path}:3: id must be an integer"

    def test_leading_zeros_and_a_minus_still_read(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("id\ttranslation\n01\ta\n-3\tb\n", encoding="utf-8")
        assert [r.id for r in load_translations_tsv(path)] == [1, -3]

    def test_blank_line_between_rows_is_skipped(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("id\ttranslation\n1\ta\n\n2\tb\n", encoding="utf-8")
        assert load_translations_tsv(path) == [TranslationRecord(1, "a"), TranslationRecord(2, "b")]

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("id\ttranslation\n", encoding="utf-8")
        assert load_translations_tsv(path) == []

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("id\ttranslation\n1\ta\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2 tab-separated"):
            load_translations_tsv(path)

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("id\ttranslation\n1\tshe is a doctor\n2\tthey are kind\n", encoding="utf-8")
        records = load_translations_tsv(path)
        out = tmp_path / "out.tsv"
        write_utf8_files({out: translations_tsv_text(records, out)})
        assert out.read_bytes() == path.read_bytes()

    def test_records_are_slotted_and_frozen(self, tmp_path):
        path = _write(tmp_path, "id\ttranslation\n1\tthey are kind\n2\tthey are kind\n")
        first, second = load_translations_tsv(path)
        assert first.output is second.output
        assert not hasattr(first, "__dict__")
        with pytest.raises(FrozenInstanceError):
            first.output = "x"
        # A name that is no field raises TypeError on some Python versions
        # (a dataclasses bug in frozen slotted classes), else an AttributeError.
        with pytest.raises((AttributeError, TypeError)):
            first.note = "x"

    def test_write_rejects_field_break(self, tmp_path):
        path = tmp_path / "t.tsv"
        records = [TranslationRecord(1, "ok"), TranslationRecord(2, "a\tb")]
        with pytest.raises(ValueError) as exc:
            write_utf8_files({path: translations_tsv_text(records, path)})
        assert str(exc.value) == f"{path}: id 2: field contains a tab or line break"
        assert not path.exists()


class TestJoin:
    def test_full_coverage(self, tmp_path):
        corpus = utterances(3)
        records = [
            load_translations_tsv(_write(tmp_path, "id\ttranslation\n1\ta\n2\tb\n3\tc\n"))
        ][0]
        pairs = join(corpus, records)
        assert len(pairs) == 3
        assert [u.id for u, _r in pairs] == [1, 2, 3]

    def test_duplicate_record_id_rejected(self):
        records = [TranslationRecord(1, "a"), TranslationRecord(2, "b"), TranslationRecord(1, "c")]
        with pytest.raises(ValueError) as exc:
            join(utterances(2), records)
        assert str(exc.value) == "duplicate translation id 1"

    def test_low_coverage_rejected(self, tmp_path):
        corpus = utterances(10)
        records = load_translations_tsv(
            _write(tmp_path, "id\ttranslation\n" + "".join(f"{i}\tx\n" for i in range(1, 10)))
        )
        with pytest.warns(UserWarning, match="1 corpus row"):
            with pytest.raises(JoinCoverageError, match="coverage 0.900"):
                join(corpus, records, min_coverage=0.95)

    def test_orphans_reported_not_joined(self, tmp_path):
        corpus = utterances(2)
        records = load_translations_tsv(
            _write(tmp_path, "id\ttranslation\n1\ta\n2\tb\n99\torphan\n")
        )
        with pytest.warns(UserWarning, match=r"orphan record\(s\): \[99\]"):
            pairs = join(corpus, records)
        assert [r.id for _u, r in pairs] == [1, 2]

    @pytest.mark.parametrize("min_coverage", [1.5, -3.0, float("nan")])
    def test_min_coverage_out_of_range_rejected(self, min_coverage):
        corpus = utterances(2)
        records = [TranslationRecord(1, "a"), TranslationRecord(2, "b")]
        with pytest.raises(ValueError, match=r"^min_coverage \(--min-coverage\) must lie in \[0, 1\]$"):
            join(corpus, records, min_coverage=min_coverage)


def _write(tmp_path, text):
    path = tmp_path / "records.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestBackendConfig:
    def test_validates_timeout(self):
        for timeout in (0, 3600.5, float("inf")):
            with pytest.raises(ValueError):
                BackendConfig(CLOSED_PORT_URL, timeout=timeout)
        assert BackendConfig(CLOSED_PORT_URL, timeout=translate.MAX_TIMEOUT_S).timeout == 3600

    def test_validates_retry_count(self):
        with pytest.raises(ValueError):
            BackendConfig(CLOSED_PORT_URL, retry_count=6)

    def test_validates_max_in_flight(self):
        for max_in_flight in (0, translate.MAX_IN_FLIGHT + 1):
            with pytest.raises(ValueError, match=r"^max_in_flight \(--max-in-flight\) must lie "
                                                 r"in \[1, 64\]$"):
                BackendConfig(CLOSED_PORT_URL, max_in_flight=max_in_flight)
        assert BackendConfig(CLOSED_PORT_URL, max_in_flight=64).max_in_flight == 64

    @pytest.mark.parametrize("location", [
        "notaurl", "ftp://127.0.0.1/x", "http://", "http://:80/x", "http://127.0.0.1:99999/x",
        "http://ho st/x", "http://127.0.0.1/a\nb", "http://127.0.0.1:0/translate", None,
    ])
    def test_validates_location(self, location):
        with pytest.raises(ValueError, match=r"^location \(--url\) must be an http or https URL"):
            BackendConfig(location)

    @pytest.mark.parametrize("location", ["http://127.0.0.1:8080/t?x=1", "https://[::1]/t",
                                          "HTTPS://mt.example/übersetzen"])
    def test_accepts_http_and_https_urls(self, location):
        assert BackendConfig(location).location == location


@pytest.fixture
def sleeps(monkeypatch):
    """Record each backoff sleep instead of waiting it out."""
    recorded = []
    monkeypatch.setattr(translate.time, "sleep", recorded.append)
    return recorded


@pytest.mark.usefixtures("sleeps")
class TestFetchTranslationsHttp:
    def test_batching(self, translation_server):
        corpus = utterances(130)
        records = fetch_translations_http(
            BackendConfig(translation_server.url, max_in_flight=1), corpus
        )
        assert [len(post.texts) for post in translation_server.posts] == [64, 64, 2]
        assert [r.id for r in records] == [u.id for u in corpus]
        assert [r.output for r in records] == [u.text for u in corpus]
        assert all(not r.failed for r in records)

    def test_missing_id_becomes_failed_record(self, translation_server):
        translation_server.reply = lambda texts, call: echo(texts[1:])
        records = fetch_translations_http(BackendConfig(translation_server.url), utterances(3))
        assert records[0].failed is True
        assert records[0].output == ""
        assert [r.failed for r in records[1:]] == [False, False]

    def test_retry_then_success(self, translation_server):
        translation_server.reply = lambda texts, call: None if call == 1 else echo(texts)
        records = fetch_translations_http(
            BackendConfig(translation_server.url, retry_count=2), utterances(2)
        )
        assert all(r.retries == 1 for r in records)
        assert all(not r.failed for r in records)

    def test_unreachable_after_retries(self):
        with pytest.raises(TranslationRunError) as excinfo:
            fetch_translations_http(BackendConfig(CLOSED_PORT_URL, retry_count=1), utterances(2))
        assert excinfo.value.completed == []
        assert "2 attempt(s)" in str(excinfo.value)

    def test_failure_message_cites_first_failed_batch_only(self, translation_server):
        translation_server.reply = lambda texts, call: None
        with pytest.raises(TranslationRunError) as excinfo:
            fetch_translations_http(
                BackendConfig(translation_server.url, retry_count=0), utterances(200)
            )
        assert str(excinfo.value) == (
            "translation backend failed (4 of 4 batch(es), first batch 0: unreachable "
            "after 1 attempt(s): RemoteDisconnected: Remote end closed connection without "
            "response); 0 record(s) completed"
        )

    def test_partial_failure_lists_completed(self, translation_server):
        translation_server.reply = lambda texts, call: None if texts[0]["id"] > 64 else echo(texts)
        with pytest.raises(TranslationRunError) as excinfo:
            fetch_translations_http(
                BackendConfig(translation_server.url, retry_count=0, max_in_flight=1),
                utterances(70),
            )
        assert [record.id for record in excinfo.value.completed] == list(range(1, 65))

    def test_server_error_retried(self, translation_server):
        translation_server.reply = lambda texts, call: (503, {}) if call == 1 else echo(texts)
        records = fetch_translations_http(
            BackendConfig(translation_server.url, retry_count=1), utterances(1)
        )
        assert records[0].retries == 1

    def test_all_retryable_batches_share_one_sleep_per_round(self, translation_server, sleeps):
        translation_server.reply = failing_first({1: 1, 65: 1})
        records = fetch_translations_http(
            BackendConfig(translation_server.url, max_in_flight=2), utterances(128)
        )
        assert sleeps == [translate.RETRY_BACKOFF_S]
        assert [r.retries for r in records] == [1] * 128

    def test_backoff_grows_per_round(self, translation_server, sleeps):
        translation_server.reply = failing_first({1: 2, 65: 2})
        records = fetch_translations_http(
            BackendConfig(translation_server.url, retry_count=2, max_in_flight=2), utterances(128)
        )
        assert sleeps == [0.5, 1.0]
        assert [r.retries for r in records] == [2] * 128

    def test_completed_batches_are_not_posted_again(self, translation_server, sleeps):
        translation_server.reply = failing_first({1: 1, 129: 2})
        records = fetch_translations_http(
            BackendConfig(translation_server.url, retry_count=2, max_in_flight=1), utterances(130)
        )
        # Round 0 posts every batch; later rounds only the ones that failed.
        assert [post.texts[0]["id"] for post in translation_server.posts] == [
            1, 65, 129, 1, 129, 129
        ]
        assert [r.retries for r in records] == [1] * 64 + [0] * 64 + [2] * 2

    def test_abort_text_and_completed_ids(self, translation_server, sleeps):
        # Pins behaviour that rounds keep: the abort message and the records
        # completed by the batches around the unreachable one.
        translation_server.reply = failing_first({65: 3})
        with pytest.raises(TranslationRunError) as excinfo:
            fetch_translations_http(
                BackendConfig(translation_server.url, retry_count=2, max_in_flight=2),
                utterances(130),
            )
        assert str(excinfo.value) == (
            "translation backend failed (1 of 3 batch(es), first batch 1: unreachable "
            "after 3 attempt(s): HTTP 503); 66 record(s) completed"
        )
        assert [record.id for record in excinfo.value.completed] == (
            list(range(1, 65)) + [129, 130])

    def test_too_many_requests_retried(self, translation_server, sleeps):
        translation_server.reply = lambda texts, call: (429, {}) if call == 1 else echo(texts)
        records = fetch_translations_http(BackendConfig(translation_server.url), utterances(2))
        assert [r.retries for r in records] == [1, 1]
        assert sleeps == [0.5]

    @pytest.mark.parametrize("value,expected", [
        ("3", 3), (" 3 ", 3), ("0", 0.5), ("600", translate.MAX_RETRY_AFTER_S),
        ("-3", 0.5), ("1.5", 0.5), ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5), ("\u0663", 0.5),
        ("\xb2", 0.5),
    ])
    def test_retry_after_lengthens_the_round_sleep(self, translation_server, sleeps, value,
                                                   expected):
        # Headers are Latin-1 on the wire; a value beyond it goes as its UTF-8 bytes.
        # "\xb2" arrives as a superscript digit: isdigit() accepts it, int() does not.
        sent = value if max(value) <= "\xff" else value.encode("utf-8").decode("latin-1")
        translation_server.reply = (
            lambda texts, call: (429, {"Retry-After": sent}) if call == 1 else echo(texts)
        )
        fetch_translations_http(BackendConfig(translation_server.url), utterances(2))
        assert sleeps == [expected]

    def test_client_error_not_retried(self, translation_server, sleeps):
        # Pins behaviour that rounds keep: a 4xx other than 429 is final.
        translation_server.reply = lambda texts, call: (404, {})
        with pytest.raises(TranslationRunError, match=r"first batch 0: HTTP 404\)"):
            fetch_translations_http(BackendConfig(translation_server.url), utterances(2))
        assert len(translation_server.posts) == 1
        assert sleeps == []

    def test_redirect_not_followed(self, translation_server, sleeps):
        translation_server.reply = lambda texts, call: (301, {"Location": "/elsewhere"})
        with pytest.raises(TranslationRunError, match=r"first batch 0: HTTP 301\)"):
            fetch_translations_http(BackendConfig(translation_server.url), utterances(2))
        assert len(translation_server.posts) == 1
        assert sleeps == []

    def test_output_whitespace_normalized(self, translation_server):
        translation_server.reply = (
            lambda texts, call: [{"id": t["id"], "text": "a\tb\nc\u2028d"} for t in texts]
        )
        records = fetch_translations_http(BackendConfig(translation_server.url), utterances(1))
        assert records[0].output == "a b c d"

    @pytest.mark.parametrize("item", [
        {"id": 1, "text": None}, {"id": 1.0, "text": "x"}, {"id": True, "text": "x"},
        {"id": "1", "text": "x"},
    ], ids=["null-text", "float-id", "bool-id", "string-id"])
    def test_mistyped_item_makes_the_reply_malformed(self, translation_server, item):
        """An item whose id is no JSON integer or whose text is no string is
        not coerced onto a corpus id: the reply is retried."""
        translation_server.reply = (
            lambda texts, call: echo(texts) + [item] if call == 1 else echo(texts)
        )
        records = fetch_translations_http(
            BackendConfig(translation_server.url, retry_count=1), utterances(2)
        )
        assert [(r.id, r.output, r.retries) for r in records] == [
            (u.id, u.text, 1) for u in utterances(2)
        ]

    @pytest.mark.parametrize("auth,expected", [
        ("Bearer t0k3n", {"Authorization": "Bearer t0k3n"}),
        ("", {}),
        (None, {}),
    ])
    def test_auth_env_var_sent_as_authorization(self, monkeypatch, translation_server, auth,
                                                expected):
        if auth is None:
            monkeypatch.delenv(translate.AUTH_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(translate.AUTH_ENV_VAR, auth)
        fetch_translations_http(BackendConfig(translation_server.url), utterances(65))
        sent = [{name: value for name, value in post.headers.items() if name == "Authorization"}
                for post in translation_server.posts]
        assert sent == [expected, expected]

    def test_non_ascii_path_is_percent_encoded(self, translation_server):
        records = fetch_translations_http(
            BackendConfig(translation_server.url + "/ü?q=ä#frag"), utterances(1)
        )
        assert [r.output for r in records] == [utterances(1)[0].text]
        assert [post.path for post in translation_server.posts] == ["/translate/%C3%BC?q=%C3%A4"]

    def test_empty_corpus(self):
        assert fetch_translations_http(BackendConfig(CLOSED_PORT_URL), []) == []

    def test_each_worker_thread_gets_its_own_connection(self, translation_server, monkeypatch):
        # The first two posts meet at the barrier, so two worker threads are
        # certainly fetching at the same time, each over its own connection.
        both_in_flight = threading.Barrier(2, timeout=10)

        def reply(texts, call):
            if call <= 2:
                both_in_flight.wait()
            return echo(texts)

        translation_server.reply = reply
        post = translate._Connection.post
        sent = []  # (the client's (host, port), the posting thread), one per request

        def tagged(self, body):
            reply = post(self, body)
            sent.append((self.sock.getsockname(), threading.get_ident()))
            return reply

        monkeypatch.setattr(translate._Connection, "post", tagged)
        corpus = utterances(4 * 64)
        records = fetch_translations_http(
            BackendConfig(translation_server.url, max_in_flight=2), corpus
        )
        assert [r.id for r in records] == [u.id for u in corpus]
        threads = defaultdict(set)
        for connection, thread in sent:
            threads[connection].add(thread)
        assert set(threads) == {post.connection for post in translation_server.posts}
        assert len(threads) == 2
        assert all(len(seen) == 1 for seen in threads.values())
        assert translation_server.all_closed()

    def test_every_batch_is_posted_once_by_more_workers_than_cores(self, translation_server):
        corpus = utterances(40 * 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a lost update
        try:
            records = fetch_translations_http(
                BackendConfig(translation_server.url, max_in_flight=8), corpus
            )
        finally:
            sys.setswitchinterval(interval)
        assert [(r.id, r.output, r.retries) for r in records] == [
            (u.id, u.text, 0) for u in corpus]
        assert sorted(post.texts[0]["id"] for post in translation_server.posts) == list(
            range(1, 40 * 64, 64))
        assert translation_server.all_closed()

    def test_a_round_ends_when_its_last_worker_stops(self, monkeypatch):
        """The workers count themselves out under a lock; a lost update would
        leave the round waiting for ever, so each round runs against a deadline."""
        monkeypatch.setattr(translate, "_fetch_batch", lambda connection, batch, attempt: [])

        class Instant:
            def close(self):
                pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a lost update
        try:
            for _ in range(50):
                results = [None] * 64
                round_ = threading.Thread(target=translate._fetch_round, daemon=True,
                                          args=(Instant, [()] * 64, range(64), 0, results, 16))
                round_.start()
                round_.join(timeout=10)
                assert not round_.is_alive()
                assert results == [[]] * 64
        finally:
            sys.setswitchinterval(interval)

    def test_unexpected_worker_exception_reaches_the_caller(self, translation_server,
                                                           monkeypatch):
        fetch = translate._fetch_batch

        def broken(connection, batch, attempt):
            if batch[0].id == 65:
                raise RuntimeError("boom")
            return fetch(connection, batch, attempt)

        monkeypatch.setattr(translate, "_fetch_batch", broken)
        with pytest.raises(RuntimeError, match="^boom$"):
            fetch_translations_http(BackendConfig(translation_server.url, max_in_flight=2),
                                    utterances(3 * 64))
        assert translation_server.all_closed()

    def test_connection_is_not_reused_after_a_timeout(self, translation_server):
        def reply(texts, call):
            if call == 1:
                threading.Event().wait(0.5)  # the client has given up by now
            return echo(texts)

        translation_server.reply = reply
        records = fetch_translations_http(
            BackendConfig(translation_server.url, timeout=0.1, max_in_flight=1), utterances(128)
        )
        assert [r.retries for r in records] == [1] * 64 + [0] * 64

    def test_retry_round_reconnects(self, translation_server):
        # A connection idle through the backoff sleep may have been dropped by
        # the server, so each retry round starts on a new one.
        translation_server.reply = failing_first({1: 1})
        records = fetch_translations_http(
            BackendConfig(translation_server.url, max_in_flight=1), utterances(128)
        )
        assert [r.retries for r in records] == [1] * 64 + [0] * 64
        first, second, retried = translation_server.posts
        assert first.connection == second.connection != retried.connection
        assert translation_server.all_closed()


def raw_reply(ids, head=b"HTTP/1.1 200 OK\r\n", framing=None):
    """The raw bytes of a reply that translates ``ids`` to ``t<id>``, framed
    by ``Content-Length`` unless ``framing`` holds other header lines."""
    body = json.dumps({"translations": [{"id": i, "text": f"t{i}"} for i in ids]}).encode()
    if framing is None:
        framing = b"Content-Length: %d\r\n" % len(body)
    return head + framing + b"\r\n" + body


def chunked(ids):
    body = raw_reply(ids).partition(b"\r\n\r\n")[2]
    half = len(body) // 2
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x;ext=1\r\n%s\r\n" % (half, body[:half])
            + b"%X\r\n%s\r\n" % (len(body) - half, body[half:])
            + b"0\r\nX-Trailer: 1\r\n\r\n")


FIRST, SECOND = range(1, 65), [65]  # the two batches of utterances(65)


@pytest.mark.usefixtures("sleeps")
class TestHttpWire:
    """The HTTP/1.1 client against replies written byte by byte."""

    def fetch(self, server, **config):
        return fetch_translations_http(BackendConfig(server.url, max_in_flight=1, **config),
                                       utterances(65))

    def connections(self, server):
        return [connection for connection, _head in server.requests]

    def test_chunked_body_keeps_the_connection(self, raw_server):
        server = raw_server([chunked(FIRST), chunked(SECOND)])
        records = self.fetch(server)
        assert [(r.output, r.retries) for r in records] == [(f"t{i}", 0) for i in range(1, 66)]
        assert self.connections(server) == [1, 1]

    def test_close_delimited_body_then_reconnect(self, raw_server):
        server = raw_server([raw_reply(FIRST, framing=b""), CLOSE, raw_reply(SECOND)])
        records = self.fetch(server)
        assert [r.output for r in records] == [f"t{i}" for i in range(1, 66)]
        assert self.connections(server) == [1, 2]

    @pytest.mark.parametrize("first", [
        raw_reply(FIRST, head=b"HTTP/1.1 200 OK\r\nConnection: close\r\n"),
        raw_reply(FIRST, head=b"HTTP/1.0 200 OK\r\n"),
    ], ids=["connection-close", "http-1.0"])
    def test_reply_that_ends_the_connection_then_reconnect(self, raw_server, first):
        server = raw_server([first, raw_reply(SECOND)])
        records = self.fetch(server)
        assert [(r.output, r.retries) for r in records] == [(f"t{i}", 0) for i in range(1, 66)]
        assert self.connections(server) == [1, 2]

    def test_interim_reply_is_skipped(self, raw_server):
        interim = b"HTTP/1.1 100 Continue\r\n\r\n"
        server = raw_server([interim + raw_reply(FIRST), raw_reply(SECOND)])
        records = self.fetch(server)
        assert [(r.output, r.retries) for r in records] == [(f"t{i}", 0) for i in range(1, 66)]
        assert self.connections(server) == [1, 1]

    @pytest.mark.parametrize("malformed", [
        raw_reply(FIRST, head=b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\n"),
        raw_reply(FIRST, head=b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * 100),
        raw_reply(FIRST, framing=b"Content-Length: 99999\r\n"),
        chunked(FIRST).replace(b";ext=1", b"zz"),
        raw_reply(FIRST, head=b"ICY 200 OK\r\n"),
        raw_reply(FIRST, framing=b"Content-Length: -1\r\n"),
        raw_reply(FIRST, head=b"HTTP/1.1 200 OK\r\nNo-Colon\r\n"),
    ], ids=["oversized-header-line", "101-headers", "short-body", "bad-chunk-size",
            "bad-status-line", "bad-content-length", "header-without-colon"])
    def test_malformed_reply_is_retried_on_a_new_connection(self, raw_server, sleeps,
                                                            malformed):
        # The round goes on to the second batch; the retry round reconnects.
        server = raw_server([malformed, CLOSE, raw_reply(SECOND), raw_reply(FIRST)])
        records = self.fetch(server)
        assert [(r.output, r.retries) for r in records] == (
            [(f"t{i}", 1) for i in FIRST] + [("t65", 0)])
        assert self.connections(server) == [1, 2, 3]
        assert sleeps == [translate.RETRY_BACKOFF_S]

    def test_no_content_reply_has_no_body_and_keeps_the_connection(self, raw_server):
        server = raw_server([b"HTTP/1.1 204 No Content\r\n\r\n", raw_reply(SECOND)])
        with pytest.raises(TranslationRunError, match=r"first batch 0: HTTP 204\)") as excinfo:
            self.fetch(server)
        assert [(r.id, r.output) for r in excinfo.value.completed] == [(65, "t65")]
        assert self.connections(server) == [1, 1]

    def test_short_body_message(self, raw_server):
        server = raw_server([raw_reply(FIRST, framing=b"Content-Length: 99999\r\n"), CLOSE])
        with pytest.raises(TranslationRunError, match=r"first batch 0: unreachable after 1 "
                                                      r"attempt\(s\): ProtocolError: short body"):
            self.fetch(server, retry_count=0)

    def test_request_head_names_a_non_default_port(self, raw_server, monkeypatch):
        monkeypatch.setenv(translate.AUTH_ENV_VAR, "Bearer k")
        server = raw_server([raw_reply(FIRST), raw_reply(SECOND)])
        self.fetch(server)
        head = server.requests[0][1]
        assert head.split(b"\r\n") == [
            b"POST /translate HTTP/1.1", b"Host: 127.0.0.1:%d" % server.port,
            b"Accept-Encoding: identity", b"Content-Type: application/json",
            b"Authorization: Bearer k", head.split(b"\r\n")[5], b"",
        ]
        assert head.split(b"\r\n")[5].startswith(b"Content-Length: ")

    def test_https_url_at_a_plain_server_is_a_retryable_tls_error(self, raw_server, sleeps):
        server = raw_server([], greeting=b"HTTP/1.1 400 Bad Request\r\n\r\n")
        url = server.url.replace("http://", "https://")
        with pytest.raises(TranslationRunError, match=r"unreachable after 2 attempt\(s\): "
                                                      r"SSL\w*Error: "):
            fetch_translations_http(BackendConfig(url, retry_count=1), utterances(1))
        assert sleeps == [translate.RETRY_BACKOFF_S]


def test_record_flags_are_keyword_only():
    # a stray third positional argument must not mark the row failed
    with pytest.raises(TypeError):
        TranslationRecord(1, "x", "file")
    assert TranslationRecord(1, "x", failed=True, retries=2).failed
