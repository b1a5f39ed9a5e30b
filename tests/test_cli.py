import json
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import write_w2v


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "biaseval", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def lexicon_files(tmp_path):
    occ = tmp_path / "occupations.txt"
    occ.write_text("डॉक्टर\nशिक्षक\nकिसान\n", encoding="utf-8")
    pos = tmp_path / "positive.txt"
    pos.write_text("अच्छा\nदयालु\n", encoding="utf-8")
    neg = tmp_path / "negative.txt"
    neg.write_text("बुरा\n", encoding="utf-8")
    return occ, pos, neg


def build_corpus(tmp_path, lexicon_files):
    occ, pos, neg = lexicon_files
    out_dir = tmp_path / "eec"
    result = run_cli(
        "eec", "--occupations", occ, "--positive", pos, "--negative", neg,
        "--out-dir", out_dir,
    )
    assert result.returncode == 0, result.stderr
    return out_dir, result


def all_they_translations(corpus_tsv, path):
    lines = ["id\ttranslation"]
    for line in corpus_tsv.read_text(encoding="utf-8").splitlines()[1:]:
        uid = line.split("\t")[0]
        lines.append(f"{uid}\tthey are a person")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestEecCommand:
    def test_writes_corpus_and_views(self, tmp_path, lexicon_files):
        out_dir, result = build_corpus(tmp_path, lexicon_files)
        assert (out_dir / "corpus.tsv").is_file()
        assert (out_dir / "views.json").is_file()
        assert (out_dir / "run_meta.json").is_file()
        sizes = dict(
            line.split("\t") for line in result.stdout.strip().splitlines()
        )
        # 6 lexemes x 3 registers, no collisions
        assert sizes == {
            "informal": "6", "formal": "12", "impolite": "6", "polite": "6",
            "positive": "6", "negative": "3", "occupation": "9",
        }

    def test_missing_lexicon_exits_2(self, tmp_path):
        missing = tmp_path / "nope.txt"
        result = run_cli(
            "eec", "--occupations", missing, "--positive", missing, "--negative", missing,
            "--out-dir", tmp_path / "out",
        )
        assert result.returncode == 2
        assert str(missing) in result.stderr

    def test_custom_templates_and_pronouns(self, tmp_path, lexicon_files):
        occ, pos, neg = lexicon_files
        templates = tmp_path / "templates.json"
        templates.write_text(
            json.dumps({c: "{pronoun} एक {lexeme} {copula}" for c in ("occupation", "positive", "negative")}),
            encoding="utf-8",
        )
        pronouns = tmp_path / "pronouns.json"
        pronouns.write_text(
            json.dumps(
                [
                    {"surface": "वह", "register": "formal_impolite", "copula": "है"},
                    {"surface": "वे", "register": "formal_polite", "copula": "हैं"},
                    {"surface": "वो", "register": "informal", "copula": "है"},
                ]
            ),
            encoding="utf-8",
        )
        out_dir = tmp_path / "custom"
        result = run_cli(
            "eec", "--occupations", occ, "--positive", pos, "--negative", neg,
            "--templates", templates, "--pronouns", pronouns, "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        first_row = (out_dir / "corpus.tsv").read_text(encoding="utf-8").splitlines()[1]
        assert "\tवह एक डॉक्टर है\t" in first_row

    def test_config_file_supplies_paths(self, tmp_path, lexicon_files):
        occ, pos, neg = lexicon_files
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "occupations": str(occ),
                    "positive": str(pos),
                    "negative": str(neg),
                    "out_dir": str(tmp_path / "from_config"),
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("eec", "--config", config)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "from_config" / "corpus.tsv").is_file()


class TestTranslateCommand:
    def test_file_backend_passthrough(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        source = all_they_translations(out_dir / "corpus.tsv", tmp_path / "in.tsv")
        out = tmp_path / "out.tsv"
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv",
            "--backend", "file", "--translations", source, "--out", out,
        )
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == source.read_bytes()

    def test_low_coverage_exits_1(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        partial = tmp_path / "partial.tsv"
        partial.write_text("id\ttranslation\n1\tthey are kind\n", encoding="utf-8")
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv",
            "--backend", "file", "--translations", partial, "--out", tmp_path / "o.tsv",
        )
        assert result.returncode == 1
        assert "coverage" in result.stderr

    def test_http_backend_echo_server(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)

        class Echo(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                payload = json.loads(self.rfile.read(length))
                body = json.dumps(
                    {
                        "translations": [
                            {"id": t["id"], "text": "they are a person"}
                            for t in payload["texts"]
                        ]
                    }
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Echo)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            out = tmp_path / "http.tsv"
            result = run_cli(
                "translate", "--corpus", out_dir / "corpus.tsv",
                "--backend", "http",
                "--url", f"http://127.0.0.1:{server.server_port}/translate",
                "--out", out,
            )
            assert result.returncode == 0, result.stderr
            lines = out.read_text(encoding="utf-8").splitlines()
            assert len(lines) == 19  # header + 18 corpus rows
            assert all(line.endswith("they are a person") for line in lines[1:])
        finally:
            server.shutdown()
            server.server_close()

    def test_http_unreachable_exits_1_and_keeps_partial_output(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        out = tmp_path / "partial_http.tsv"
        # pre-seeded rows from an earlier run must survive a failed retry
        out.write_text("id\ttranslation\n1\tthey are kind\n2\tthey are kind\n", encoding="utf-8")
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv",
            "--backend", "http", "--url", "http://127.0.0.1:9/translate",
            "--retries", 0, "--timeout", 2, "--out", out,
        )
        assert result.returncode == 1
        # one line that names the row count and the file, not every id
        [message] = result.stderr.splitlines()
        assert message.endswith(f"; wrote 2 row(s) to {out}; rerun to resume")
        assert "completed ids" not in message
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "1\tthey are kind"
        assert lines[2] == "2\tthey are kind"


class TestTgbiCommand:
    def test_all_neutral_reports_one(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        report_dir = tmp_path / "tgbi"
        result = run_cli(
            "tgbi", "--corpus", out_dir / "corpus.tsv", "--views", out_dir / "views.json",
            "--translations", translations, "--out-dir", report_dir,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((report_dir / "tgbi_report.json").read_text(encoding="utf-8"))
        assert payload["tgbi"] == 1.0
        assert payload["variant"] == "linear"
        assert payload["provenance"]["seed"] == 42
        assert "gender_lexicon" in payload["provenance"]["inputs"]
        assert (report_dir / "tgbi_table.txt").is_file()
        assert "Average:" in result.stdout

    def test_missing_translations_exits_2(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        result = run_cli(
            "tgbi", "--corpus", out_dir / "corpus.tsv", "--views", out_dir / "views.json",
            "--translations", tmp_path / "absent.tsv", "--out-dir", tmp_path / "r",
        )
        assert result.returncode == 2
        assert "absent.tsv" in result.stderr

    def test_variant_flag(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        result = run_cli(
            "tgbi", "--corpus", out_dir / "corpus.tsv", "--views", out_dir / "views.json",
            "--translations", translations, "--out-dir", tmp_path / "r",
            "--variant", "sqrt",
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((tmp_path / "r" / "tgbi_report.json").read_text(encoding="utf-8"))
        assert payload["variant"] == "sqrt"


@pytest.fixture
def embedding_files(tmp_path):
    import numpy as np

    tokens = [
        "she", "her", "woman", "he", "him", "man",
        "career", "office", "salary", "home", "family", "children",
    ]
    paths = []
    for seed, name in ((1, "emb_a"), (2, "emb_b")):
        rng = np.random.default_rng(seed)
        path = write_w2v(tmp_path / f"{name}.txt", {t: rng.normal(size=4) for t in tokens})
        paths.append(path)
    return paths


@pytest.fixture
def query_file(tmp_path):
    payload = [
        {
            "label": "career-family",
            "targets": [
                {"name": "feminine", "words": ["she", "her", "woman"]},
                {"name": "masculine", "words": ["he", "him", "man"]},
            ],
            "attributes": [
                {"name": "career", "words": ["career", "office", "salary"]},
                {"name": "family", "words": ["home", "family", "children"]},
            ],
        }
    ]
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestRankCommand:
    def test_two_embeddings_one_metric(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "rank"
        result = run_cli(
            "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", query_file, "--metric", "WEAT", "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "rank_table.json").read_text(encoding="utf-8"))
        assert payload["rows"] == ["a", "b"]
        assert payload["cols"] == ["WEAT"]
        assert sorted(row[0] for row in payload["ranks"]) == [1, 2]
        assert (out_dir / "rank_table.csv").is_file()
        assert (out_dir / "rank_table.txt").is_file()
        assert result.stdout.startswith("Embedding")

    def test_all_metrics(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "rank"
        result = run_cli(
            "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", query_file, "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "rank_table.json").read_text(encoding="utf-8"))
        assert payload["cols"] == ["WEAT", "RNSB", "RND", "ECT"]

    def test_template_violation_exits_2(self, tmp_path, embedding_files, query_file):
        emb_a, _ = embedding_files
        bad = tmp_path / "bad_query.json"
        bad.write_text(
            json.dumps(
                {
                    "label": "too-small",
                    "targets": [{"name": "t1", "words": ["she"]}],
                    "attributes": [{"name": "a1", "words": ["career"]}],
                }
            ),
            encoding="utf-8",
        )
        result = run_cli(
            "rank", "--embedding", f"a={emb_a}", "--queries", bad,
            "--metric", "WEAT", "--out-dir", tmp_path / "r",
        )
        assert result.returncode == 2
        assert "too-small" in result.stderr

    def test_skip_invalid_keeps_query_for_templates_it_fills(
        self, tmp_path, embedding_files, query_file
    ):
        emb_a, emb_b = embedding_files
        payload = json.loads(query_file.read_text(encoding="utf-8"))
        work_only = {
            "label": "work-only",
            "targets": payload[0]["targets"],
            "attributes": [{"name": "work", "words": ["office", "salary"]}],
        }
        both = tmp_path / "both.json"
        both.write_text(json.dumps(payload + [work_only]), encoding="utf-8")

        def rank(queries, *flags):
            out_dir = tmp_path / f"rank_{queries.stem}{len(flags)}"
            result = run_cli(
                "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
                "--queries", queries, "--out-dir", out_dir, *flags,
            )
            table = out_dir / "rank_table.json"
            return result, json.loads(table.read_text(encoding="utf-8")) if table.exists() else None

        result, _ = rank(both)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: query 'work-only' does not satisfy the WEAT template "
            "(2 target sets, 2 attribute sets)"
        ]
        result, skipped = rank(both, "--skip-invalid")
        assert result.returncode == 0, result.stderr
        assert "query 'work-only' cannot satisfy template (2,2); skipped" in result.stderr
        _, alone = rank(query_file)
        values, alone_values = (
            dict(zip(table["cols"], zip(*table["aggregate_values"]))) for table in (skipped, alone)
        )
        # WEAT and RNSB see only the first query; RND and ECT score the second too.
        assert values["WEAT"] == alone_values["WEAT"]
        assert values["RNSB"] == alone_values["RNSB"]
        assert values["RND"] != alone_values["RND"]
        assert values["ECT"] != alone_values["ECT"]

    def test_raw_mode_render(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "rank"
        result = run_cli(
            "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", query_file, "--metric", "WEAT", "--metric", "RND",
            "--mode", "raw", "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        rendered = (out_dir / "rank_table.txt").read_text(encoding="utf-8")
        assert "." in rendered.splitlines()[1]  # raw values, not rank integers


class TestMetricsCommand:
    def test_score_matrix_outputs(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "metrics"
        result = run_cli(
            "metrics", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", query_file, "--metric", "WEAT", "--out-dir", out_dir,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out_dir / "scores_WEAT.json").read_text(encoding="utf-8"))
        assert payload["metric"] == "WEAT"
        assert payload["rows"] == ["a", "b"]
        assert len(payload["values"][0]) == 1
        assert (out_dir / "scores_WEAT.csv").is_file()


class TestDeterminism:
    def test_eec_outputs_byte_identical(self, tmp_path, lexicon_files):
        occ, pos, neg = lexicon_files
        dirs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            result = run_cli(
                "eec", "--occupations", occ, "--positive", pos, "--negative", neg,
                "--out-dir", out_dir,
            )
            assert result.returncode == 0
            dirs.append(out_dir)
        for name in ("corpus.tsv", "views.json", "run_meta.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_rank_outputs_byte_identical(self, tmp_path, embedding_files, query_file):
        emb_a, emb_b = embedding_files
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            result = run_cli(
                "rank", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
                "--queries", query_file, "--out-dir", out_dir,
            )
            assert result.returncode == 0, result.stderr
            outputs.append((out_dir / "rank_table.json").read_bytes())
        assert outputs[0] == outputs[1]


def serve_translations(translate):
    """Start an HTTP backend whose reply for each posted batch is
    ``translate(texts)``; return (server, url, posted ids per request)."""
    posted = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            posted.append([t["id"] for t in payload["texts"]])
            body = json.dumps({"translations": translate(payload["texts"])}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_port}/translate", posted


class TestTranslateResume:
    def test_rerun_refetches_failed_rows(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        omitted = {3, 5}
        healthy = True

        def translate(texts):
            return [{"id": t["id"], "text": f"they {t['id']}"} for t in texts
                    if healthy or t["id"] not in omitted]

        server, url, posted = serve_translations(translate)
        out = tmp_path / "http.tsv"
        argv = ["translate", "--corpus", out_dir / "corpus.tsv", "--backend", "http",
                "--url", url, "--out", out]
        try:
            healthy = False
            assert run_cli(*argv).returncode == 0
            rows = dict(line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()[1:])
            assert {int(uid) for uid, text in rows.items() if not text} == omitted

            healthy = True
            posted.clear()
            result = run_cli(*argv)
            assert result.returncode == 0, result.stderr
        finally:
            server.shutdown()
            server.server_close()
        assert posted == [sorted(omitted)]
        rows = dict(line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()[1:])
        assert len(rows) == 18
        assert all(text == f"they {uid}" for uid, text in rows.items())


class TestMergeRecords:
    def test_fetched_wins_corpus_order_then_sorted_extras(self):
        from biaseval.cli import _merge_records
        from biaseval.eec import Utterance
        from biaseval.translate import TranslationRecord

        corpus = [Utterance(i, f"s{i}", "informal", "positive", f"w{i}") for i in (3, 1, 2)]
        existing = [TranslationRecord(i, f"old {i}", "file") for i in (1, 2, 9, 7)]
        fetched = [TranslationRecord(i, f"new {i}", "http") for i in (2, 3, 8)]
        merged = _merge_records(corpus, existing, fetched)
        assert [(r.id, r.output) for r in merged] == [
            (3, "new 3"), (1, "old 1"), (2, "new 2"), (7, "old 7"), (8, "new 8"), (9, "old 9"),
        ]


class TestConfigChoices:
    """Config-file values are checked against the flags' choices: a bad one
    exits 2 with a one-line error that names the key."""

    @pytest.mark.parametrize("key,value,choices", [
        ("metrics", ["BAD"], "WEAT, RNSB, RND, ECT"),
        ("agg", "BAD", "abs_mean, mean"),
        ("mode", "BAD", "ranks, raw"),
    ])
    def test_rank_keys(self, tmp_path, embedding_files, query_file, key, value, choices):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        result = run_cli(
            "rank", "--embedding", f"a={embedding_files[0]}", "--queries", query_file,
            "--out-dir", tmp_path / "rank", "--config", config,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: config {key}: invalid choice 'BAD' (choose from {choices})"
        ]
        assert not (tmp_path / "rank" / "rank_table.json").exists()

    def test_translate_backend_key(self, tmp_path, lexicon_files):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": "BAD"}), encoding="utf-8")
        result = run_cli(
            "translate", "--corpus", out_dir / "corpus.tsv", "--out", tmp_path / "t.tsv",
            "--config", config,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: config backend: invalid choice 'BAD' (choose from file, http)"
        ]
        assert not (tmp_path / "t.tsv").exists()

    @pytest.mark.parametrize("key,choices", [
        ("variant", "linear, sqrt"),
        ("ambiguous_policy", "unresolved, first_token"),
    ])
    def test_tgbi_keys(self, tmp_path, lexicon_files, key, choices):
        out_dir, _ = build_corpus(tmp_path, lexicon_files)
        translations = all_they_translations(out_dir / "corpus.tsv", tmp_path / "t.tsv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: "BAD"}), encoding="utf-8")
        result = run_cli(
            "tgbi", "--corpus", out_dir / "corpus.tsv", "--views", out_dir / "views.json",
            "--translations", translations, "--out-dir", tmp_path / "r", "--config", config,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: config {key}: invalid choice 'BAD' (choose from {choices})"
        ]
        assert not (tmp_path / "r" / "tgbi_report.json").exists()


class TestInputHashing:
    def test_each_input_hashed_once_per_run(self, tmp_path, embedding_files, query_file,
                                            monkeypatch, capsys):
        import hashlib

        from biaseval import cli

        hashed = []
        original = cli._sha256

        def counting(path):
            hashed.append(str(path))
            return original(path)

        monkeypatch.setattr(cli, "_sha256", counting)
        monkeypatch.setattr(cli, "_HASH_CHUNK", 7)  # stream in several chunks
        emb_a, emb_b = embedding_files
        out_dir = tmp_path / "metrics"
        code = cli.main([
            "metrics", "--embedding", f"a={emb_a}", "--embedding", f"b={emb_b}",
            "--queries", str(query_file), "--metric", "WEAT", "--metric", "RND",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert sorted(hashed) == sorted([str(emb_a), str(emb_b), str(query_file)])
        blocks = [
            json.loads((out_dir / f"scores_{m}.json").read_text(encoding="utf-8"))["provenance"]
            for m in ("WEAT", "RND")
        ]
        assert blocks[0]["inputs"] == blocks[1]["inputs"]
        assert blocks[0]["inputs"]["embedding:a"] == {
            "path": str(emb_a), "sha256": hashlib.sha256(emb_a.read_bytes()).hexdigest(),
        }
