"""Tests of the benchmark's own parts. Run: python3 -m pytest bench/tests"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import inputs
import run
import spans
import stub
import workloads


def test_generators_are_deterministic(tmp_path):
    tokens = ["alpha", "beta", "gamma"] + inputs._random_words(np.random.default_rng(0), 50)
    for seed, name in ((1, "a"), (1, "b"), (2, "c")):
        inputs.write_word2vec(tmp_path / f"{name}.txt", tokens, seed, "s", block_rows=7)
        (tmp_path / name).mkdir()
        inputs.write_lexicons(tmp_path / name, seed)
        inputs.write_translations(tmp_path / name / "translations.tsv", seed)

    def read(name):
        files = [tmp_path / f"{name}.txt"] + sorted((tmp_path / name).iterdir())
        return [path.read_bytes() for path in files]

    assert read("a") == read("b")
    assert all(x != y for x, y in zip(read("a"), read("c")))
    assert inputs.rank_queries(3) == inputs.rank_queries(3) != inputs.rank_queries(4)
    assert inputs.fault_schedule(5, 7974, 64, 0.04) == inputs.fault_schedule(5, 7974, 64, 0.04)
    assert inputs.http_faults(5) == inputs.http_faults(5) != inputs.http_faults(6)


def test_embedding_file_loads_with_the_drawn_values(tmp_path):
    from biaseval import load_word2vec_text

    tokens = inputs.vocabulary(7, "v", 40, ["she", "he"])
    path = tmp_path / "e.txt"
    inputs.write_word2vec(path, tokens, 7, "v", block_rows=16)
    table = load_word2vec_text(path)
    rng = inputs._rng(7, "v")
    drawn = np.vstack([rng.normal(0.0, 0.25, size=(n, inputs.DIM)) for n in (16, 16, 8)])
    assert len(table) == 40 and "she" in table and "he" in table
    for row, token in enumerate(tokens):
        np.testing.assert_allclose(table.lookup(token), drawn[row], atol=5.1e-7)


def test_mix_covers_every_bucket_and_the_empty_output():
    labels = {inputs.translation_label(1, uid) for uid in range(1, 2000)}
    assert labels == set(inputs.MIX)
    assert inputs.translation_text(1, 5) == inputs.translation_text(1, 5)
    assert all(inputs.stub_text(1, uid) for uid in range(1, 200))


def test_fault_schedule_picks_a_fixed_share_of_batch_starts():
    first_ids = set(range(1, 7975, 64))
    for seed in range(5):
        faults = inputs.fault_schedule(seed, 7974, 64, 0.04)
        assert len(faults) == round(0.04 * len(first_ids)) == 5
        assert set(faults) <= first_ids


@pytest.fixture
def stub_url():
    server = stub.make_server(seed=3, delay=0.0, fail_first=[65])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _post(url, payload):
    request = urllib.request.Request(url, data=json.dumps(payload).encode(), method="POST")
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, None


def _stats(url):
    with urllib.request.urlopen(url + "/stats", timeout=5) as response:
        return json.loads(response.read())


def test_stub_fails_scheduled_batches_once_per_reset(stub_url):
    scheduled = {"texts": [{"id": 65, "text": "x"}, {"id": 66, "text": "y"}]}
    other = {"texts": [{"id": 1, "text": "z"}]}
    assert _post(stub_url + "/translate", scheduled)[0] == 503
    status, body = _post(stub_url + "/translate", scheduled)
    assert status == 200
    assert body == {"translations": [{"id": 65, "text": inputs.stub_text(3, 65)},
                                     {"id": 66, "text": inputs.stub_text(3, 66)}]}
    assert _post(stub_url + "/translate", other)[0] == 200
    stats = _stats(stub_url)
    assert (stats["requests"], stats["errors_5xx"], stats["batches"]) == (3, 1, 2)
    assert stats["busy_s"] > 0

    _post(stub_url + "/reset", {})
    assert _stats(stub_url)["requests"] == 0
    assert _post(stub_url + "/translate", scheduled)[0] == 503


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 3.0, 0),
        spans.Span("a.child", 1.5, 2.5, 1),
        spans.Span("b", 2.0, 5.0, 0),  # overlaps a: covered time counts once
        spans.Span("c", 6.0, 7.0, 0),
        spans.Span("late", 9.5, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 4 - 1 - 0.5, 1.0, 1.0, 3.0, 1.0, 2.5])


def test_nested_spans_sum_to_the_root_duration():
    tracer = spans.Tracer()
    leaf = tracer.span("leaf", lambda: sum(range(1000)))
    middle = tracer.span("middle", lambda: [leaf() for _ in range(3)])
    tracer.span("root", lambda: (middle(), leaf()))()
    assert [s.name for s in tracer.spans] == ["root", "middle", "leaf", "leaf", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 1, 0]
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root.end - root.start, abs=1e-9)


def test_counter_hooks_run_in_their_own_span():
    tracer = spans.Tracer()
    hooked = tracer.counter("n", lambda: 1, lambda args, kwargs, result: sum(range(1000)))
    tracer.span("root", hooked)()
    assert tracer.counts == {"n": 1}
    assert [(s.name, s.parent) for s in tracer.spans] == [("root", None), (spans.HOOK_SPAN, 0)]


def test_traced_load_counts_the_rows_the_loader_parses(tmp_path):
    import biaseval
    import biaseval.cli

    from layers import PassTrace

    path = tmp_path / "e.txt"
    inputs.write_word2vec(path, inputs.vocabulary(7, "v", 40, ["she", "he"]), 7, "v")
    trace = PassTrace(biaseval)
    with spans.patched(trace.replacements):
        table = biaseval.embeddings.load_word2vec_text(path)
        assert table.lookup("she") is not None  # nfc outside the loader is not counted
    _values, counts = trace.metrics({})
    assert counts["embeddings.rows_scanned"] == counts["embeddings.rows_kept"] == 40


def test_patched_swaps_every_reference_and_restores_them():
    import biaseval.metrics
    import biaseval.queries
    import biaseval.ranking

    original = biaseval.queries.resolve_query
    weat = biaseval.metrics.weat
    calls = []
    with spans.patched({original: lambda *a, **k: calls.append(a),
                        weat: lambda rq: "wrapped"}):
        assert biaseval.ranking.resolve_query is biaseval.queries.resolve_query is not original
        assert biaseval.metrics.METRIC_FUNCTIONS["WEAT"](None) == "wrapped"
    assert biaseval.ranking.resolve_query is original
    assert biaseval.metrics.METRIC_FUNCTIONS["WEAT"] is weat


def test_closed_forms_of_rank_many_queries():
    counts = workloads.embedding_counts(inputs.rank_queries(1), 3, inputs.RANK_ROWS)
    assert counts["ranking.cells"] == 4 * 216
    assert counts["metrics.cosine_calls"] == 129_600
    assert counts["metrics.trainings"] == 216
    assert counts["metrics.distinct_trainings"] == 36
    assert counts["embeddings.resolve_word_set_calls"] == 3024
    assert counts["queries.distinct_sets"] == 84


@pytest.fixture
def mt_workload(tmp_path):
    workload = workloads.MtPipeline(tmp_path / "mt", seed=2)
    workload.setup()
    yield workload
    workload.close()


def test_wrong_output_counts_as_a_failed_operation(mt_workload):
    import biaseval
    import biaseval.cli

    invoke = run.in_process(biaseval)
    reference = {}
    tally = run.Tally()
    _elapsed, _rss, problems = run.run_pass(mt_workload, invoke, reference)
    run.tally_pass(mt_workload, tally, problems)
    operations = 4 + inputs.corpus_size()  # CLI steps plus HTTP-translated sentences
    assert (tally.attempted, tally.failed) == (operations, 0)

    report = mt_workload.out / "tgbi" / "tgbi_report.json"

    def corrupting(argv):
        result = invoke(argv)
        if argv[0] == "tgbi":
            data = json.loads(report.read_text(encoding="utf-8"))
            data["scores"][0]["p_index"] += 0.01
            report.write_text(json.dumps(data), encoding="utf-8")
        return result

    _elapsed, _rss, problems = run.run_pass(mt_workload, corrupting, reference)
    run.tally_pass(mt_workload, tally, problems)
    assert (tally.attempted, tally.failed) == (2 * operations, 1)
    assert any("tgbi view informal" in p for p in problems[3])
    assert any("differ from the first pass" in p for p in problems[3])


def test_percentile_note_needs_ten_samples_beyond():
    assert run.percentile_note([1.0] * 19).startswith("no tail percentile")
    assert run.percentile_note([float(i) for i in range(1, 21)]) == "p50 10.0000 s"
    assert run.percentile_note([float(i) for i in range(1, 101)]) == "p90 90.0000 s"


def test_launcher_reports_the_child_peak_not_the_benchmarks(tmp_path):
    import sys

    launcher = run.Launcher(run.child_env(run.SRC))
    try:
        grown = bytearray(300 * 1024 * 1024)  # this process's peak RSS passes 300 MB
        code, maxrss_kb = launcher.run([sys.executable, "-c", "pass"],
                                       tmp_path / "out", tmp_path / "err")
        del grown
    finally:
        launcher.close()
    assert code == 0
    assert maxrss_kb < 200 * 1024


def test_another_pass_keeps_a_run_within_its_seconds():
    import time

    start = time.perf_counter()
    assert run.another_pass(start, 0.0, [])  # a run always makes one pass
    assert run.another_pass(start, 60.0, [7.0, 9.0])
    assert not run.another_pass(start - 55.0, 60.0, [7.0, 9.0])  # 55 s + an 8 s lap > 60 s
