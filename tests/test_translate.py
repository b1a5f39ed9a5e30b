import itertools
import threading

import pytest
import requests

from biaseval import BackendConfig, fetch_translations_http, join, load_translations_tsv
from biaseval import translate
from biaseval.eec import Utterance
from biaseval.errors import JoinCoverageError, TranslationRunError
from biaseval.translate import TranslationRecord, write_translations_tsv


def utterances(n):
    return [Utterance(i, f"वाक्य {i}", "informal", "positive", f"w{i}") for i in range(1, n + 1)]


class _Response:
    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no JSON")
        return self._payload


class FakeSession:
    """Stand-in for requests.Session; responder decides each call's fate."""

    def __init__(self, responder):
        self._responder = responder
        self._lock = threading.Lock()
        self.calls = []
        self.headers = []

    def post(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            self.calls.append(json)
            self.headers.append(headers)
            call_index = len(self.calls)
        return self._responder(json, call_index)

    def close(self):
        pass


def echo(payload, _call_index):
    return _Response(
        200, {"translations": [{"id": t["id"], "text": t["text"]} for t in payload["texts"]]}
    )


def failing_first(failures):
    """Responder that answers 503 to the first ``failures[id]`` posts of the
    batch starting at ``id`` and echoes every other post."""
    posts = {}

    def respond(payload, call_index):
        first = payload["texts"][0]["id"]
        posts[first] = posts.get(first, 0) + 1
        if posts[first] <= failures.get(first, 0):
            return _Response(503)
        return echo(payload, call_index)

    return respond


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
        write_translations_tsv(records, out)
        assert out.read_bytes() == path.read_bytes()

    def test_write_rejects_field_break(self, tmp_path):
        path = tmp_path / "t.tsv"
        with pytest.raises(ValueError) as exc:
            write_translations_tsv([TranslationRecord(1, "ok"), TranslationRecord(2, "a\tb")], path)
        assert str(exc.value) == f"{path}: id 2: field contains a tab or line break"


class TestJoin:
    def test_full_coverage(self, tmp_path):
        corpus = utterances(3)
        records = [
            load_translations_tsv(_write(tmp_path, "id\ttranslation\n1\ta\n2\tb\n3\tc\n"))
        ][0]
        pairs = join(corpus, records)
        assert len(pairs) == 3
        assert [u.id for u, _r in pairs] == [1, 2, 3]

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
                BackendConfig("u", timeout=timeout)
        assert BackendConfig("u", timeout=translate.MAX_TIMEOUT_S).timeout == 3600

    def test_validates_retry_count(self):
        with pytest.raises(ValueError):
            BackendConfig("u", retry_count=6)


@pytest.fixture
def sleeps(monkeypatch):
    """Record each backoff sleep instead of waiting it out."""
    recorded = []
    monkeypatch.setattr(translate.time, "sleep", recorded.append)
    return recorded


class TestFetchTranslationsHttp:
    def _cfg(self, **kwargs):
        kwargs.setdefault("retry_backoff", 0.0)
        return BackendConfig("http://mt.test/translate", **kwargs)

    def test_batching(self):
        session = FakeSession(echo)
        corpus = utterances(130)
        records = fetch_translations_http(self._cfg(max_in_flight=1), corpus, session=session)
        assert [len(call["texts"]) for call in session.calls] == [64, 64, 2]
        assert [r.id for r in records] == [u.id for u in corpus]
        assert all(not r.failed for r in records)

    def test_missing_id_becomes_failed_record(self):
        def drop_first(payload, _call_index):
            items = payload["texts"][1:]
            return _Response(200, {"translations": [{"id": t["id"], "text": t["text"]} for t in items]})

        records = fetch_translations_http(
            self._cfg(), utterances(3), session=FakeSession(drop_first)
        )
        assert records[0].failed is True
        assert records[0].output == ""
        assert [r.failed for r in records[1:]] == [False, False]

    def test_retry_then_success(self):
        def flaky(payload, call_index):
            if call_index == 1:
                raise requests.ConnectionError("nope")
            return echo(payload, call_index)

        records = fetch_translations_http(
            self._cfg(retry_count=2), utterances(2), session=FakeSession(flaky)
        )
        assert all(r.retries == 1 for r in records)
        assert all(not r.failed for r in records)

    def test_unreachable_after_retries(self):
        def down(_payload, _call_index):
            raise requests.ConnectionError("down")

        with pytest.raises(TranslationRunError) as excinfo:
            fetch_translations_http(
                self._cfg(retry_count=1), utterances(2), session=FakeSession(down)
            )
        assert excinfo.value.completed == []
        assert "2 attempt(s)" in str(excinfo.value)

    def test_failure_message_cites_first_failed_batch_only(self):
        def down(_payload, _call_index):
            raise requests.ConnectionError("down")

        with pytest.raises(TranslationRunError) as excinfo:
            fetch_translations_http(
                self._cfg(retry_count=0), utterances(200), session=FakeSession(down)
            )
        assert str(excinfo.value) == (
            "translation backend failed (4 of 4 batch(es), first batch 0: unreachable "
            "after 1 attempt(s): ConnectionError: down); 0 record(s) completed"
        )

    def test_partial_failure_lists_completed(self):
        def second_batch_down(payload, _call_index):
            if payload["texts"][0]["id"] > 64:
                raise requests.ConnectionError("down")
            return echo(payload, _call_index)

        with pytest.raises(TranslationRunError) as excinfo:
            fetch_translations_http(
                self._cfg(retry_count=0, max_in_flight=1),
                utterances(70),
                session=FakeSession(second_batch_down),
            )
        assert excinfo.value.completed_ids == list(range(1, 65))

    def test_server_error_retried(self):
        def recovering(payload, call_index):
            if call_index == 1:
                return _Response(503)
            return echo(payload, call_index)

        records = fetch_translations_http(
            self._cfg(retry_count=1), utterances(1), session=FakeSession(recovering)
        )
        assert records[0].retries == 1

    def test_all_retryable_batches_share_one_sleep_per_round(self, sleeps):
        records = fetch_translations_http(
            self._cfg(retry_backoff=0.5, max_in_flight=2), utterances(128),
            session=FakeSession(failing_first({1: 1, 65: 1})),
        )
        assert sleeps == [0.5]
        assert [r.retries for r in records] == [1] * 128

    def test_backoff_grows_per_round(self, sleeps):
        records = fetch_translations_http(
            self._cfg(retry_backoff=0.5, retry_count=2, max_in_flight=2), utterances(128),
            session=FakeSession(failing_first({1: 2, 65: 2})),
        )
        assert sleeps == [0.5, 1.0]
        assert [r.retries for r in records] == [2] * 128

    def test_completed_batches_are_not_posted_again(self, sleeps):
        session = FakeSession(failing_first({1: 1, 129: 2}))
        records = fetch_translations_http(
            self._cfg(retry_backoff=0.5, retry_count=2, max_in_flight=1), utterances(130),
            session=session,
        )
        # Round 0 posts every batch; later rounds only the ones that failed.
        assert [call["texts"][0]["id"] for call in session.calls] == [1, 65, 129, 1, 129, 129]
        assert [r.retries for r in records] == [1] * 64 + [0] * 64 + [2] * 2

    def test_abort_text_and_completed_ids(self, sleeps):
        # Pins behaviour that rounds keep: the abort message and the records
        # completed by the batches around the unreachable one.
        with pytest.raises(TranslationRunError) as excinfo:
            fetch_translations_http(
                self._cfg(retry_backoff=0.5, retry_count=2, max_in_flight=2), utterances(130),
                session=FakeSession(failing_first({65: 3})),
            )
        assert str(excinfo.value) == (
            "translation backend failed (1 of 3 batch(es), first batch 1: unreachable "
            "after 3 attempt(s): HTTP 503); 66 record(s) completed"
        )
        assert excinfo.value.completed_ids == list(range(1, 65)) + [129, 130]

    def test_too_many_requests_retried(self, sleeps):
        def throttled(payload, call_index):
            return _Response(429) if call_index == 1 else echo(payload, call_index)

        records = fetch_translations_http(
            self._cfg(retry_backoff=0.5), utterances(2), session=FakeSession(throttled)
        )
        assert [r.retries for r in records] == [1, 1]
        assert sleeps == [0.5]

    @pytest.mark.parametrize("value,expected", [
        ("3", 3), (" 3 ", 3), ("0", 0.5), ("600", translate.MAX_RETRY_AFTER_S),
        ("-3", 0.5), ("1.5", 0.5), ("Wed, 21 Oct 2015 07:28:00 GMT", 0.5), ("\u0663", 0.5),
    ])
    def test_retry_after_lengthens_the_round_sleep(self, sleeps, value, expected):
        def throttled(payload, call_index):
            if call_index == 1:
                return _Response(429, headers={"Retry-After": value})
            return echo(payload, call_index)

        fetch_translations_http(
            self._cfg(retry_backoff=0.5), utterances(2), session=FakeSession(throttled)
        )
        assert sleeps == [expected]

    def test_client_error_not_retried(self, sleeps):
        # Pins behaviour that rounds keep: a 4xx other than 429 is final.
        session = FakeSession(lambda _payload, _call_index: _Response(404))
        with pytest.raises(TranslationRunError, match=r"first batch 0: HTTP 404\)"):
            fetch_translations_http(self._cfg(retry_backoff=0.5), utterances(2), session=session)
        assert len(session.calls) == 1
        assert sleeps == []

    def test_output_whitespace_normalized(self):
        def tabby(payload, _call_index):
            return _Response(
                200,
                {"translations": [{"id": t["id"], "text": "a\tb\nc\u2028d"} for t in payload["texts"]]},
            )

        records = fetch_translations_http(self._cfg(), utterances(1), session=FakeSession(tabby))
        assert records[0].output == "a b c d"

    @pytest.mark.parametrize("auth,expected", [
        ("Bearer t0k3n", {"Authorization": "Bearer t0k3n"}),
        ("", {}),
        (None, {}),
    ])
    def test_auth_env_var_sent_as_authorization(self, monkeypatch, auth, expected):
        if auth is None:
            monkeypatch.delenv(translate.AUTH_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(translate.AUTH_ENV_VAR, auth)
        session = FakeSession(echo)
        fetch_translations_http(self._cfg(), utterances(65), session=session)
        assert session.headers == [expected, expected]

    def test_empty_corpus(self):
        assert fetch_translations_http(self._cfg(), []) == []

    def test_each_worker_thread_gets_its_own_session(self, monkeypatch):
        sessions = []
        calls = itertools.count()
        # The first two posts meet at the barrier, so two worker threads are
        # certainly fetching at the same time.
        both_in_flight = threading.Barrier(2, timeout=10)

        class RecordingSession:
            def __init__(self):
                self.threads = set()
                self.closed = False
                sessions.append(self)

            def post(self, url, json=None, headers=None, timeout=None):
                self.threads.add(threading.get_ident())
                if next(calls) < 2:
                    both_in_flight.wait()
                return echo(json, 0)

            def close(self):
                self.closed = True

        monkeypatch.setattr(requests, "Session", RecordingSession)
        corpus = utterances(4 * 64)
        records = fetch_translations_http(self._cfg(max_in_flight=2), corpus)
        assert [r.id for r in records] == [u.id for u in corpus]
        assert sessions
        assert all(len(session.threads) <= 1 for session in sessions)
        assert all(session.closed for session in sessions)


def test_record_flags_are_keyword_only():
    # a stray third positional argument must not mark the row failed
    with pytest.raises(TypeError):
        TranslationRecord(1, "x", "file")
    assert TranslationRecord(1, "x", failed=True, retries=2).failed
